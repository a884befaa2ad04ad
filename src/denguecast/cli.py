"""Command-line front end.

Commands: synth -> prepare -> impute -> train -> predict, and sweep -> report.
Each command accepts only the flags it reads, spelled out in full.

Exit codes: 0 success, 2 input/validation problems (argparse also exits 2 on
an unknown flag), 3 failed preconditions (e.g. imputation impossible), 4
numerical divergence. Commands are idempotent: identical inputs and seed
produce byte-identical outputs, so no timestamps or wall-clock values are
ever written to artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataprep, experiments, imputation, lstm
from .dataprep import csv_text
from .errors import (
    DivergenceError,
    EmptyTrain,
    PipelineError,
    PrecisionError,
    ValidationError,
)


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed config {path}: {exc}") from None


def _merge_config(args, keys):
    """Fill argparse values that were left at None from --config JSON."""
    if args.config:
        cfg = _load_config(args.config)
        unknown = set(cfg) - set(keys)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in cfg.items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)


MODEL_SPEC_KEYS = (
    "arch", "num_layers", "hidden", "dropout", "epochs", "l2_lambda",
    "timesteps", "variant", "seed",
)

MODEL_SPEC_DEFAULTS = {
    "arch": "stacked",
    "num_layers": 4,
    "hidden": 32,
    "dropout": 0.2,
    "epochs": 3000,
    "l2_lambda": 0.0,
    "timesteps": 3,
    "variant": "II",
    "seed": 0,
}


def _model_spec(args):
    values = {}
    for key in MODEL_SPEC_KEYS:
        v = getattr(args, key, None)
        values[key] = MODEL_SPEC_DEFAULTS[key] if v is None else v
    return lstm.ModelSpec(**values)


def _add_model_flags(p):
    p.add_argument("--arch", choices=lstm.ARCHITECTURES)
    p.add_argument("--num-layers", dest="num_layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--l2-lambda", dest="l2_lambda", type=float)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--variant", choices=("I", "II"))
    p.add_argument("--ratio", type=float, default=0.85)
    p.add_argument("--validation-fraction", dest="validation_fraction",
                   type=float, default=0.15)
    p.add_argument("--lr", type=float, default=1e-3)


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

    climate_rows = [
        [r.district, r.date.isoformat(), repr(r.temperature), repr(r.relative_humidity)]
        for r in bundle.climate
    ]
    _write(out / "climate.csv",
           csv_text(["district", "date", "temp_c", "rh_pct"], climate_rows))
    rain_rows = [
        [w.district, w.iso_year, w.iso_week, repr(w.rainfall)] for w in bundle.rain
    ]
    _write(out / "rain.csv",
           csv_text(["district", "iso_year", "iso_week", "rain_mm"], rain_rows))
    larval_rows = [
        [s.district, s.month[0], s.month[1], s.n_low, s.n_mid, s.n_high]
        for s in bundle.larval
    ]
    _write(out / "larval.csv",
           csv_text(["district", "year", "month", "n_low", "n_mid", "n_high"],
                    larval_rows))
    cases_rows = [[d, m[0], m[1], n] for (d, m), n in bundle.cases]
    _write(out / "cases.csv",
           csv_text(["district", "year", "month", "cases"], cases_rows))
    truth_rows = [
        [d, m[0], m[1], repr(v)]
        for (d, m), v in sorted(bundle.truth.items(),
                                key=lambda kv: (kv[0][0], kv[0][1]))
    ]
    _write(out / "larval_truth.csv",
           csv_text(["district", "year", "month", "larval_index"], truth_rows))
    print(f"wrote {len(cases_rows)} case rows for {spec.districts} districts "
          f"x {spec.months} months to {out}")
    return 0


def cmd_prepare(args):
    readings = dataprep.load_climate_csv(args.climate)
    weeks = dataprep.load_rain_csv(args.rain)
    surveys = dataprep.load_larval_csv(args.larval)
    case_pairs = dataprep.load_cases_csv(args.cases)

    climate = dataprep.aggregate_monthly(readings)
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
    _merge_config(args, MODEL_SPEC_KEYS)
    records = dataprep.load_records_csv(args.records)
    spec = _model_spec(args)
    report = experiments.run_config(
        records, spec, label="train", report_seed=spec.seed,
        ratio=args.ratio, validation_fraction=args.validation_fraction,
        lr=args.lr,
    )
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
    records = dataprep.load_records_csv(args.records)
    if trained.scaler is None:
        raise ValidationError("model has no scaler; cannot de-scale predictions")
    scaled = dataprep.apply_scaler(trained.scaler, records)
    spec = trained.spec
    windows, _ = dataprep.build_windows(
        scaled, spec.timesteps, spec.variant, spec.predictors
    )
    actual = {(r.district, r.month): r.cases for r in records}
    preds = lstm.predict_batch(trained, windows)
    rows = [
        [w.district, w.target_month[0], w.target_month[1], repr(float(preds[i])),
         actual[(w.district, w.target_month)]]
        for i, w in enumerate(windows)
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "predictions.csv",
           csv_text(experiments.PREDICTION_HEADER, rows))
    print(f"wrote {len(rows)} predictions")
    return 0


def _sweep_spec(args):
    base = _model_spec(args)
    if args.sweep_config:
        cfg = _load_config(args.sweep_config)
        kind = cfg.get("kind", args.kind)
        if "base" in cfg:
            base_values = dict(MODEL_SPEC_DEFAULTS)
            base_values.update(cfg["base"])
            base = lstm.ModelSpec(**base_values)
        grid = [
            experiments.GridCell(
                label=c["label"],
                overrides={k: v for k, v in c.items() if k != "label"},
            )
            for c in cfg["grid"]
        ] if "grid" in cfg else experiments.default_grid(kind, base)
        seeds = cfg.get("seeds", [int(s) for s in args.seeds.split(",")])
    else:
        kind = args.kind
        if kind is None:
            raise ValidationError("sweep requires --kind or --sweep-config")
        if kind == "timestep" and args.grid:
            ts = tuple(int(x) for x in args.grid.split(","))
            grid = experiments.default_grid(kind, base, timesteps=ts)
        else:
            grid = experiments.default_grid(kind, base)
        seeds = [int(s) for s in args.seeds.split(",")]
    return experiments.SweepSpec(kind=kind, base=base, grid=grid, seeds=seeds)


def cmd_sweep(args):
    records = dataprep.load_records_csv(args.records)
    sweep = _sweep_spec(args)
    result = experiments.run_sweep(
        sweep, records, ratio=args.ratio,
        validation_fraction=args.validation_fraction, lr=args.lr,
        jobs=args.jobs,
    )
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
        rows = experiments.parse_prediction_csv(path.read_text(encoding="utf-8"))
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
                   help="JSON file supplying model flag values")
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
    p.add_argument("--grid", default=None,
                   help="comma-separated time steps (timestep sweeps)")
    p.add_argument("--seeds", default="0,1,2")
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
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (EmptyTrain, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
