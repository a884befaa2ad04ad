"""Command-line front end.

Commands: synth -> prepare -> impute -> train -> predict, and sweep -> report.
Each command accepts only the flags it reads, spelled out in full.

Config files: `train --config` reads one flat JSON object of lstm.ModelSpec
and lstm.TrainCfg fields, e.g. {"arch": "bidir", "num_layers": 1, "lr": 0.01}.
`sweep --sweep-config` reads an object with optional keys kind, seeds (list of
ints), base (an object as for train, bar seed) and grid (objects of a label
and the ModelSpec fields the cell changes, bar seed). Keys and value types are
checked (specs.from_json). A value comes from the file or from a flag, never
both: a flag for a key the file sets exits 2. Fields set by neither keep the
defaults.

Exit codes: 0 success, else the exit_code of the errors class raised: 2
ValidationError (bad input; argparse also exits 2 on an unknown flag), 3
PreconditionError (data that cannot support the step, e.g. nothing to impute
from), 4 DivergenceError. Commands are idempotent: identical inputs and seed
produce byte-identical outputs, so no timestamps or wall-clock values are
ever written to artifacts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import dataprep, experiments, imputation, lstm, specs
from .dataprep import csv_text
from .errors import PipelineError, ValidationError


class UnreadFlag(ValidationError):
    """A flag given on the command line that this run would not read."""


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _file_or_flags(args, given, keys, where):
    """The values of a config object plus the flags among keys that are set;
    a key set by both is an UnreadFlag."""
    flags = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    clash = [k for k in flags if k in given]
    if clash:
        names = " ".join("--" + k.replace("_", "-") for k in clash)
        raise UnreadFlag(f"{names} ({where} sets {', '.join(clash)})")
    return given | flags


def _run_spec(args, given, where):
    """(ModelSpec, TrainCfg) from a flat object of their fields and the flags."""
    train_keys = [f.name for f in fields(lstm.TrainCfg)]
    keys = [f.name for f in fields(lstm.ModelSpec)] + train_keys
    values = _file_or_flags(args, given, keys, where)
    model = {k: v for k, v in values.items() if k not in train_keys}
    train = {k: v for k, v in values.items() if k in train_keys}
    return (specs.from_json(lstm.ModelSpec, model, where),
            specs.from_json(lstm.TrainCfg, train, where))


def _print_skipped(n):
    if n:
        print(f"skipped {n} windows that span a month gap")


def comma_ints(text):
    return tuple(int(x) for x in text.split(","))


def _add_model_flags(p):
    p.add_argument("--arch", choices=lstm.ARCHITECTURES)
    p.add_argument("--num-layers", dest="num_layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--l2-lambda", dest="l2_lambda", type=float)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--variant", choices=dataprep.VARIANTS)
    p.add_argument("--ratio", type=float)
    p.add_argument("--validation-fraction", dest="validation_fraction", type=float)
    p.add_argument("--lr", type=float)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    spec = experiments.SynthSpec(
        districts=args.districts,
        months=args.months,
        beta=args.beta,
        noise=args.noise,
        missing_rate=args.missing_rate,
        seed=0 if args.seed is None else args.seed,
    )
    bundle = experiments.synth_generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataprep.write_climate_csv(bundle.climate, out / "climate.csv")
    dataprep.write_rain_csv(bundle.rain, out / "rain.csv")
    dataprep.write_larval_csv(bundle.larval, out / "larval.csv")
    dataprep.write_cases_csv(bundle.cases, out / "cases.csv")
    dataprep.write_larval_truth_csv(bundle.truth, out / "larval_truth.csv")
    print(f"wrote {len(bundle.cases)} case rows for {spec.districts} districts "
          f"x {spec.months} months to {out}")
    return 0


def cmd_prepare(args):
    # the climate table streams from the file into its monthly means
    climate = dataprep.aggregate_monthly(dataprep.load_climate_csv(args.climate))
    weeks = dataprep.load_rain_csv(args.rain)
    surveys = dataprep.load_larval_csv(args.larval)
    case_pairs = dataprep.load_cases_csv(args.cases)

    rain = dataprep.rain_to_monthly(weeks)
    larval_pairs = []
    for s in surveys:
        idx = dataprep.weighted_larval_index(s.n_low, s.n_mid, s.n_high)
        if idx is not None:
            larval_pairs.append(((s.district, s.month), idx))
    records = dataprep.assemble_records(climate, rain, larval_pairs, case_pairs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataprep.write_records_csv(records, out / "records.csv")
    gaps = dataprep.detect_gaps(records)
    _write(out / "gap_report.txt", "\n".join(gaps.lines()) + "\n")
    print(f"wrote {len(records)} records to {out / 'records.csv'}")
    return 0


def cmd_impute(args):
    records = dataprep.load_records_csv(args.records)
    cfg = imputation.CoregCfg(
        cfg1=imputation.KnnRegressorCfg(k=args.k, p=args.p1),
        cfg2=imputation.KnnRegressorCfg(k=args.k, p=args.p2),
        max_iters=args.max_iters,
        pool_size=args.pool_size,
        seed=0 if args.seed is None else args.seed,
    )
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
    given = specs.read_object(args.config, "config") if args.config else {}
    spec, cfg = _run_spec(args, given, args.config)
    records = dataprep.load_records_csv(args.records)
    report = experiments.run_config(records, spec, cfg, label="train",
                                    report_seed=spec.seed)
    _print_skipped(report.skipped)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lstm.save_model(report.trained, out / "model.bin", out / "model.json")
    loss_rows = [
        [epoch, repr(tr), repr(va)]
        for epoch, (tr, va) in enumerate(report.trained.loss_history)
    ]
    _write(out / "loss.csv",
           csv_text(["epoch", "train_mse", "validation_mse"], loss_rows))
    print(f"validation MSE {report.validation_mse:.5f} "
          f"(scaled {report.validation_mse_scaled:.6f})")
    print(f"test MSE {report.test_mse:.5f} (scaled {report.test_mse_scaled:.6f})")
    return 0


def cmd_predict(args):
    model_bin = Path(args.model)
    trained = lstm.load_model(model_bin, model_bin.with_suffix(".json"))
    spec = trained.spec
    windows, skipped = dataprep.build_windows(dataprep.load_records_csv(args.records),
                                              spec.timesteps, spec.variant,
                                              spec.predictors)
    _print_skipped(skipped)
    if not windows:
        raise ValidationError(
            f"{args.records}: no district has {spec.timesteps} consecutive months "
            f"(the model's timesteps) to predict from")
    _, _, rows = experiments.evaluate(trained, windows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "predictions.csv", experiments.prediction_table_csv(rows))
    print(f"wrote {len(rows)} predictions")
    return 0


@dataclass(frozen=True)
class SweepFile:
    """A --sweep-config object; a key it leaves out is None."""
    kind: str = None
    seeds: tuple[int, ...] = None
    base: dict = None
    grid: tuple[dict, ...] = None


def _sweep_spec(args):
    """SweepSpec from the --sweep-config file, if any, and the flags; --grid
    is read only by a timestep sweep whose file has no grid."""
    path = args.sweep_config
    file = specs.from_json(SweepFile, specs.read_object(path, "config") if path else {},
                           path)
    given = {k: v for k, v in vars(file).items() if v is not None}
    top = _file_or_flags(args, given, ("kind", "seeds"), path)
    kind = top.get("kind")
    if kind is None:
        raise ValidationError("sweep requires --kind or a kind in --sweep-config")
    if args.grid is not None and (kind != "timestep" or "grid" in top):
        raise UnreadFlag("--grid (read only by a timestep sweep without a config grid)")
    base = top.get("base", {})
    # each run's seed is derived from its seed in seeds and the cell label
    if "seed" in base:
        raise ValidationError(f"{path} base: unknown keys ['seed']")
    spec, train_cfg = _run_spec(args, base, f"{path} base")
    grid = top["grid"] if "grid" in top else experiments.default_grid(kind, spec, args.grid)
    return experiments.SweepSpec(kind, spec, grid, top.get("seeds", (0, 1, 2)),
                                 train_cfg)


def cmd_sweep(args):
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    sweep = _sweep_spec(args)  # before reading data: a bad flag or cell fails at once
    records = dataprep.load_records_csv(args.records)
    result = experiments.run_sweep(sweep, records, jobs=args.jobs)
    out = Path(args.out)
    files = experiments.render_report(result.reports, sweep_result=result)
    for rel, text in sorted(files.items()):
        _write(out / rel, text)
    models_dir = out / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    log_lines = []
    for report in sorted(result.reports, key=lambda r: (r.label, r.seed)):
        stem = f"{experiments.slugify(report.label)}_seed{report.seed}"
        lstm.save_model(report.trained, models_dir / f"{stem}.bin",
                        models_dir / f"{stem}.json")
        log_lines.append(
            f"{report.label} seed={report.seed} "
            f"validation_mse={report.validation_mse!r} test_mse={report.test_mse!r}"
        )
    for label, seed, message in result.failures:
        log_lines.append(f"{label} seed={seed} DIVERGED: {message}")
    log_lines.append(f"argmin: {result.argmin_label}")
    _write(out / "log.txt", "\n".join(log_lines) + "\n")
    print(f"swept {len(sweep.grid)} configs x {len(sweep.seeds)} seeds; "
          f"best: {result.argmin_label}")
    return 0


def cmd_report(args):
    run_dir = Path(args.run)
    reports_dir = run_dir / "reports"
    csvs = sorted(reports_dir.glob("predictions_*.csv")) if reports_dir.is_dir() else []
    if not csvs:
        raise ValidationError(f"no prediction reports under {run_dir}")
    tables_dir = run_dir / "tables"
    for path in csvs:
        rows = experiments.load_prediction_csv(path)
        _write(tables_dir / f"{path.stem}.md", experiments.prediction_table_md(rows))
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--districts", type=int, default=26)
    p.add_argument("--months", type=int, default=84)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--missing-rate", dest="missing_rate", type=float, default=0.3)
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--records", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--p1", type=float, default=2.0)
    p.add_argument("--p2", type=float, default=5.0)
    p.add_argument("--pool-size", dest="pool_size", type=int, default=100)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=100)
    p.set_defaults(func=cmd_impute)

    p = command("train", "train one model configuration")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None,
                   help="JSON object of ModelSpec and TrainCfg fields")
    p.add_argument("--records", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = command("predict", "predict with a saved model")
    common(p)
    p.add_argument("--model", required=True, help="path to model.bin")
    p.add_argument("--records", required=True)
    p.set_defaults(func=cmd_predict)

    p = command("sweep", "run a configuration sweep")
    common(p)
    p.add_argument("--records", required=True)
    p.add_argument("--kind", choices=experiments.SWEEP_KINDS)
    p.add_argument("--grid", type=comma_ints,
                   help="comma-separated time steps (timestep sweeps)")
    p.add_argument("--seeds", type=comma_ints,
                   help="comma-separated run seeds (default 0,1,2)")
    p.add_argument("--sweep-config", dest="sweep_config", default=None,
                   help="JSON SweepSpec file")
    p.add_argument("--jobs", type=int, default=1)
    _add_model_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = command("report", "render tables from a sweep run directory")
    p.add_argument("--run", required=True, help="sweep output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnreadFlag as exc:
        parser.error(f"unrecognized arguments: {exc}")
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
