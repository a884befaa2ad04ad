"""Command-line front end.

Commands: synth -> prepare -> impute -> train -> predict, and sweep -> report.
Each command accepts only the flags it reads, spelled out in full. A trained
run is three files: a parameter snapshot .bin, its .json sidecar of three
keys (spec, scaler, best_epoch) and a loss CSV of train and validation MSE
per epoch; train writes model.bin, model.json and loss.csv. sweep writes
the texts experiments.render_report gives (log.txt, the MSE summary and per
trained run reports/predictions_<stem>.csv and models/<stem>_loss.csv), then
each run's models/<stem>.bin and .json; report reads those prediction CSVs
and is the one writer of tables/predictions_*.md.

Run parameters: synth, impute, train and sweep each build one spec from
specs.py (SynthSpec, CoregCfg, ModelSpec, SweepSpec). Each int, float or str
field of a spec is a flag spelled as the field with dashes for underscores
(num_layers is --num-layers), typed by the field's annotation and with no
default of its own, so each default and check lives in the spec alone. sweep
also takes ModelSpec's flags for its base, bar --seed (each run's seed comes
from --seeds), and checks its spec before it loads the LSTM stack. A base
field that every grid cell sets would be read by no run, so it exits 2
naming the field (and the config file): the kind's own field for a default
grid (--variant in a variant sweep), any key every cell sets for a given
one. Every cell's data is then prepared (windowed, split and scaled) before
any run trains, so a cell the records cannot support exits at once, named,
and writes nothing. The tuple field predictors is set in a config file only.

Config files: `train --config` reads one flat JSON object of ModelSpec fields,
e.g. {"arch": "bidir", "num_layers": 1, "lr": 0.01}. `sweep --sweep-config`
reads an object with optional keys kind, seeds (list of ints), base (an object
as for train, bar seed) and grid (objects of a label and the ModelSpec fields
the cell changes, bar seed). A value comes from the file or from a flag,
never both: a flag for a key the file sets exits 2. Fields set by neither
keep the spec's defaults. Keys, types and rules are checked (specs.build).
An error names the file and then the flags that fill in what it leaves
unset (`c.json --hidden: hidden width must be >= 1, got 0`), nothing for
flags alone, and then a sweep's base or cell (`s.json: sweep base: ...`).

Exit codes: 0 success, else the exit_code of the errors class raised: 2
ValidationError (bad input; argparse also exits 2 on an unknown flag), 3
PreconditionError (data that cannot support the step, e.g. nothing to impute
from), 4 DivergenceError. A sweep records a diverged run and goes on; when
every run diverges it still writes log.txt and the MSE summary, then exits 4.
Commands are idempotent: identical inputs and seed produce byte-identical
outputs, so no timestamps or wall-clock values are ever written to artifacts.

Allocator policy: main sets glibc's malloc to keep freed memory for reuse
(keep_freed_memory), and each sweep worker sets it again in the sweep
pool's initializer, as only a forked worker inherits it. Training frees one
epoch's LSTM activations, 24.2 MB by tracemalloc at 1,541 windows of a
stacked 4x32 model, as the backward pass consumes them, and the next epoch
allocates them again. With glibc's defaults that block
sits at the top of the heap and is trimmed back to the OS every epoch, and
the next forward faults it all in again. On a 2-vCPU VM, a 20-epoch
stacked 4x32 train on default synth data took 159,750 minor page faults and
1.7 s without the policy, against 9,560 faults and 1.5 s with it, counted
from the command's start. Both thresholds are set: setting only the trim
threshold also freezes the mmap threshold at its 128 KiB start, and that
train took 810,730 faults and 2.7 s. A libc without mallopt keeps its
defaults; results do not depend on the policy, only speed does.

BLAS threads: main pins numpy's OpenBLAS to one thread (one_blas_thread) for
every command but prepare, which runs without numpy (see dataprep), and each
sweep worker pins it again in the pool's initializer. On more threads,
OpenBLAS splits the batch sum of a weight-gradient matmul such as (4, 32, B)
@ (B, 32) at B = 1,541, a default-size train's batch (at no B <= 1,024), and
the split changes its bits: that train's model.bin differed between 1 and 2
threads, and the second thread bought no wall time on a 2-vCPU VM. There is
no knob: the pin overrides OPENBLAS_NUM_THREADS, because artifacts must
repeat exactly from machine to machine. They do so only where numpy and
OpenBLAS take their AVX-512 paths: where either takes its AVX2 path (a CPU
without AVX-512, or OPENBLAS_CORETYPE=Haswell), the LSTM's model.bin,
loss.csv and predictions.csv change by ulps, and five LSTM goldens of
tests/test_cli.py fail; synth, prepare and impute keep their bytes. ROADMAP
direction 19 plans one code path on x86-64. A numpy whose BLAS lacks
OpenBLAS's set-threads entry point keeps its own threading.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
import typing
from dataclasses import fields
from pathlib import Path

# experiments, imputation and lstm are imported by the commands that run them,
# so that prepare and impute do not load the LSTM stack, nor prepare numpy
from . import dataprep, specs
from .errors import DivergenceError, PipelineError, ValidationError


def keep_freed_memory():
    """Make glibc keep freed heap memory for reuse instead of returning it to
    the OS (see the module docstring); a no-op on a libc without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD: blocks below 64 MiB come from the heap
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: up to 256 MiB of free heap top is kept


def one_blas_thread():
    """Pin numpy's OpenBLAS to one thread (see the module docstring) and
    return True; without its set-threads entry point, do nothing: False."""
    try:
        from numpy._core import _multiarray_umath  # linked against OpenBLAS

        pin = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return False
    pin.argtypes = (ctypes.c_int,)
    pin.restype = None
    pin(1)
    return True


class UnreadFlag(ValidationError):
    """A flag given on the command line that this run would not read."""


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _file_or_flags(args, given, keys, where):
    """The values of a config object plus the flags among keys that are set,
    and those flags' names; a key set by both is an UnreadFlag."""
    flags = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    clash = [k for k in flags if k in given]
    if clash:
        names = " ".join("--" + k.replace("_", "-") for k in clash)
        raise UnreadFlag(f"{names} ({where} sets {', '.join(clash)})")
    return given | flags, ["--" + k.replace("_", "-") for k in flags]


def _config(path):
    """The JSON object of the config file at path; {} without one."""
    return specs.read_object(path, "config") if path else {}


def _spec(cls, args, path=None):
    """The spec cls from the config file at path, if any, and the flags of
    the fields it leaves unset; specs.build types each value once, and a key
    or type error names the file, a rule's error the file and those flags
    (nothing for flags alone)."""
    values, flags = _file_or_flags(args, _config(path), [f.name for f in fields(cls)],
                                   path)
    return specs.build(cls, values, path, flags)


def _print_skipped(n):
    if n:
        print(f"skipped {n} windows that span a month gap")


def comma_ints(text):
    return tuple(int(x) for x in text.split(","))


def _add_spec_flags(p, cls, leave_out=()):
    # no default and no choices: the spec built from the flags is the one
    # holder of each default and the one check of each value
    for name, tp in typing.get_type_hints(cls).items():
        if tp in (int, float, str) and name not in leave_out:
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=tp)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    from . import experiments

    spec = _spec(specs.SynthSpec, args)
    bundle = experiments.synth_generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataprep.write_climate_csv(bundle.climate, out / "climate.csv")
    dataprep.write_csv(out / "rain.csv", dataprep.RAIN_HEADER, bundle.rain)
    dataprep.write_csv(out / "larval.csv", dataprep.LARVAL_HEADER, bundle.larval)
    dataprep.write_csv(out / "cases.csv", dataprep.CASES_HEADER, bundle.cases)
    dataprep.write_larval_truth_csv(bundle.truth, out / "larval_truth.csv")
    print(f"wrote {len(bundle.cases)} case rows for {spec.districts} districts "
          f"x {spec.months} months to {out}")
    return 0


def cmd_prepare(args):
    # the climate table streams from the file into its monthly means
    climate = dataprep.aggregate_monthly(dataprep.load_climate_csv(args.climate))
    rain = dataprep.rain_to_monthly(dataprep.load_rain_csv(args.rain))
    larval = dataprep.load_larval_csv(args.larval)
    cases = dataprep.load_cases_csv(args.cases)
    records = dataprep.assemble_records(climate, rain, larval, cases)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataprep.write_records_csv(records, out / "records.csv")
    _write(out / "gap_report.txt", "\n".join(dataprep.gap_lines(records)) + "\n")
    print(f"wrote {len(records)} records to {out / 'records.csv'}")
    return 0


def cmd_impute(args):
    from . import imputation

    cfg = _spec(specs.CoregCfg, args)
    records = dataprep.load_records_csv(args.records)
    filled, provenance, log = imputation.impute_larval(records, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataprep.write_records_csv(
        filled, out / "imputed.csv",
        extra_header=("provenance",),
        extra_cells=[(p,) for p in provenance],
    )
    log_lines = [e.line() for e in log] or ["no iterations"]
    _write(out / "coreg_log.txt", "\n".join(log_lines) + "\n")
    n_imputed = sum(1 for p in provenance if p == "imputed")
    print(f"imputed {n_imputed} of {len(records)} larval cells")
    return 0


def cmd_train(args):
    from . import experiments, lstm

    spec = _spec(specs.ModelSpec, args, args.config)
    records = dataprep.load_records_csv(args.records)
    prepared = experiments.make_supervised(records, spec)
    _print_skipped(prepared.skipped)
    report = experiments.run_config(prepared, spec, "train", spec.seed)
    out = Path(args.out)
    _write(out / "loss.csv", experiments.loss_csv(report.loss_history))
    lstm.save_model(report.trained, out / "model.bin")
    print(f"validation MSE {report.validation_mse:.5f} "
          f"(scaled {report.validation_mse_scaled:.6f})")
    print(f"test MSE {report.test_mse:.5f} (scaled {report.test_mse_scaled:.6f})")
    return 0


def cmd_predict(args):
    from . import experiments, lstm

    trained = lstm.load_model(args.model)
    windows, skipped = dataprep.build_windows(
        dataprep.load_records_csv(args.records), trained.model.spec)
    _print_skipped(skipped)
    _, _, rows = experiments.evaluate(trained, windows)
    _write(Path(args.out) / "predictions.csv", experiments.prediction_table_csv(rows))
    print(f"wrote {len(rows)} predictions")
    return 0


def _sweep_spec(args):
    """SweepSpec from the --sweep-config file, if any, and the flags; --grid
    is read only by a timestep sweep whose file has no grid."""
    path = args.sweep_config
    values, flags = _file_or_flags(args, _config(path), ("kind", "seeds"), path)
    values.setdefault("base", {})
    base_flags = []
    if isinstance(values["base"], dict):  # else specs.build refuses its type
        model_keys = [f.name for f in fields(specs.ModelSpec)]
        values["base"], base_flags = _file_or_flags(
            args, values["base"], model_keys, f"{path} base")
    read_grid = (args.grid is not None and values.get("kind") == "timestep"
                 and "grid" not in values)
    if read_grid:
        values["grid"] = specs.timestep_grid(args.grid)
        flags.append("--grid")
    sweep = specs.build(specs.SweepSpec, values, path, [*flags, *base_flags])
    if args.grid is not None and not read_grid:
        raise UnreadFlag("--grid (read only by a timestep sweep without a config grid)")
    return sweep


def cmd_sweep(args):
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    sweep = _sweep_spec(args)  # before reading data: a bad flag or cell fails at once
    from . import experiments, lstm

    records = dataprep.load_records_csv(args.records)
    result = experiments.run_sweep(sweep, records, jobs=args.jobs)
    out = Path(args.out)
    for rel, text in sorted(experiments.render_report(result).items()):
        _write(out / rel, text)
    for report in result.reports:  # after the texts, which make models/
        lstm.save_model(report.trained, out / "models" / f"{report.stem}.bin")
    if not result.reports:
        raise DivergenceError(None, f"every run diverged; see {out / 'log.txt'}")
    print(f"swept {len(sweep.cells)} configs x {len(sweep.seeds)} seeds; "
          f"best: {result.argmin_label}")
    return 0


def cmd_report(args):
    from . import experiments

    run_dir = Path(args.run)
    reports_dir = run_dir / "reports"
    csvs = sorted(reports_dir.glob("predictions_*.csv")) if reports_dir.is_dir() else []
    if not csvs:
        raise ValidationError(f"no prediction reports under {run_dir}")
    # every file is read before any table is written, so a bad one writes none
    loaded = {path.stem: experiments.load_prediction_csv(path) for path in csvs}
    tables_dir = run_dir / "tables"
    for stem, rows in loaded.items():
        _write(tables_dir / f"{stem}.md", experiments.prediction_table_md(rows))
    print(f"rendered {len(csvs)} prediction tables to {tables_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="denguecast",
        description="District-month dengue incidence forecasting pipeline",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        # allow_abbrev=False: a prefix such as --seed must not stand for --seeds
        return sub.add_parser(name, help=help_text, allow_abbrev=False)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")

    p = command("synth", "generate a synthetic raw CSV bundle")
    common(p)
    _add_spec_flags(p, specs.SynthSpec)
    p.set_defaults(func=cmd_synth)

    p = command("prepare", "aggregate and join raw CSVs into records.csv")
    common(p)
    p.add_argument("--climate", required=True)
    p.add_argument("--rain", required=True)
    p.add_argument("--larval", required=True)
    p.add_argument("--cases", required=True)
    p.set_defaults(func=cmd_prepare)

    p = command("impute", "fill missing larval indices by co-training")
    common(p)
    p.add_argument("--records", required=True)
    _add_spec_flags(p, specs.CoregCfg)
    p.set_defaults(func=cmd_impute)

    p = command("train", "train one model configuration")
    common(p)
    p.add_argument("--config", default=None, help="JSON object of ModelSpec fields")
    p.add_argument("--records", required=True)
    _add_spec_flags(p, specs.ModelSpec)
    p.set_defaults(func=cmd_train)

    p = command("predict", "predict with a saved model")
    common(p)
    p.add_argument("--model", required=True, help="path to model.bin")
    p.add_argument("--records", required=True)
    p.set_defaults(func=cmd_predict)

    p = command("sweep", "run a configuration sweep")
    common(p)
    p.add_argument("--records", required=True)
    _add_spec_flags(p, specs.SweepSpec)
    p.add_argument("--grid", type=comma_ints,
                   help="comma-separated time steps (timestep sweeps)")
    p.add_argument("--seeds", type=comma_ints, help="comma-separated run seeds")
    p.add_argument("--sweep-config", dest="sweep_config", default=None,
                   help="JSON SweepSpec file")
    p.add_argument("--jobs", type=int, default=1)
    _add_spec_flags(p, specs.ModelSpec, leave_out=("seed",))
    p.set_defaults(func=cmd_sweep)

    p = command("report", "render tables from a sweep run directory")
    p.add_argument("--run", required=True, help="sweep output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # the pin loads numpy, which prepare never does; numpy loads before the
    # allocator policy is set, so its import-time blocks stay outside the heap
    if args.func is not cmd_prepare:
        one_blas_thread()
    keep_freed_memory()
    try:
        return args.func(args)
    except UnreadFlag as exc:
        parser.error(f"unrecognized arguments: {exc}")
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
