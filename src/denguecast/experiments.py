"""Experiment harness: synthetic data, single runs, sweeps, reports.

The synthetic generator stands in for the (unpublished) field dataset. It
plants known structure so sweeps have ground truth: seasonal climate per
district, a larval index driven by its own season and by the rain anomaly and
temperature season of 3 months back, and case counts driven by 1-month-lagged
temperature season, 2-month-lagged rain anomalies and the beta-weighted
1-month-lagged larval index. The true larval index for every district-month
goes to an answer table so imputation quality is measurable.

Sweeps train one configuration per grid cell per seed, aggregate mean
validation/test MSE and mark the argmin row. Reported MSE comes in both
raw-count and scaled flavors.

Windows hold unscaled features and each target month's count as the record
holds it. Every prediction, in train, sweep and predict alike, takes one path:
lstm.predict_batch scales the windows with the model's own scaler
(dataprep.apply_scaler, as lstm.train does) and gives the model's output in
those scaled units; evaluate de-scales it, takes the scaled MSE against the
scaled targets and the raw MSE against the counts, and builds PredictionRows
whose actual is the count; prediction_table_csv is the one writer of those
rows and load_prediction_csv their one reader.
"""

from __future__ import annotations

import calendar
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from datetime import date, timedelta

import numpy as np

from . import dataprep, lstm
from .dataprep import (
    CLIMATE_FEATURES,
    LarvalSurvey,
    SplitDataset,
    WeeklyRainfall,
    apply_scaler,  # not called here: perfbench/tracing.py wraps it under this name
    build_windows,
    csv_text,
    fit_scaler,
    month_index,
    parse_count,
    split_dataset,
    weighted_larval_index,
    window_columns,
)
from .errors import DivergenceError, ValidationError
# model_forward is not called here: perfbench/tracing.py wraps it under this
# module's name, as it does train, so both names stay
from .lstm import ModelSpec, TrainCfg, carve_validation, model_forward, train
from .nn_core import derive_seed, make_rng, mse
from .specs import from_json

SWEEP_KINDS = ("variant", "timestep", "predictor", "architecture")

# planted effect sizes for the synthetic generator
CASE_BASE_RATE = 8.0        # typical monthly count
TEMP_LAG1_COEF = 0.55       # log-rate per unit of last month's temperature season
RAIN_LAG2_COEF = 0.5        # log-rate per unit of rain anomaly two months back
LARVAL_SEASON_AMP = 0.45    # larval index seasonal swing
LARVAL_RAIN_COEF = 0.12     # larval response to rain anomalies three months back
LARVAL_TEMP_COEF = 0.05     # larval response to temperature season three months back
LARVAL_NOISE_SD = 0.22      # idiosyncratic larval noise (invisible to climate)
# larval season trails each district's climate phase by pi/3, which keeps it
# orthogonal (in expectation over a year) to the lag-1 temperature season
# that drives cases
LARVAL_PHASE_OFFSET = math.pi / 3
SYNTH_START = (2014, 1)     # (year, month) of the first generated month
SURVEY_HOUSES = 100         # houses inspected per larval survey


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SynthSpec:
    districts: int = 26
    months: int = 84
    beta: float = 1.0
    noise: float = 1.0
    missing_rate: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.districts < 1:
            raise ValidationError(f"districts must be >= 1, got {self.districts}")
        if self.months < 3:
            raise ValidationError(f"months must be >= 3, got {self.months}")
        if self.beta < 0:
            raise ValidationError(f"beta must be >= 0, got {self.beta}")
        if self.noise < 0:
            raise ValidationError(f"noise must be >= 0, got {self.noise}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValidationError(
                f"missing_rate must lie in [0, 1), got {self.missing_rate}"
            )


@dataclass
class SynthBundle:
    climate: list  # (district, (year, month), temperatures, humidities) per month
    rain: list[WeeklyRainfall]
    larval: list[LarvalSurvey]
    cases: list  # ((district, (year, month)), count) pairs
    truth: dict  # (district, (year, month)) -> pre-masking larval index


def _month_range(start_year, start_month, months):
    out = []
    y, m = start_year, start_month
    for _ in range(months):
        out.append((y, m))
        m += 1
        if m > 12:
            y, m = y + 1, 1
    return out


def _survey_counts(index, houses):
    """Integer band counts whose weighted index approximates the latent one."""
    if index <= 2.0:
        n_mid = int(round((index - 1.0) * houses))
        return houses - n_mid, n_mid, 0
    n_high = int(round((index - 2.0) * houses))
    return 0, houses - n_high, n_high


def synth_generate(spec):
    """Generate a raw CSV bundle (climate, rain, larval, cases) plus answers."""
    rng_params = make_rng(derive_seed(spec.seed, "synth.params"))
    rng_month = make_rng(derive_seed(spec.seed, "synth.monthly"))
    rng_daily = make_rng(derive_seed(spec.seed, "synth.daily"))
    rng_mask = make_rng(derive_seed(spec.seed, "synth.mask"))

    districts = [f"D{i + 1:02d}" for i in range(spec.districts)]
    base_t = 26.0 + rng_params.uniform(-3.0, 3.0, spec.districts)
    amp_t = 3.0 + rng_params.uniform(0.0, 2.0, spec.districts)
    phase = rng_params.uniform(0.0, 2.0 * math.pi, spec.districts)
    base_rh = 60.0 + rng_params.uniform(-8.0, 8.0, spec.districts)
    amp_rh = 8.0 + rng_params.uniform(0.0, 4.0, spec.districts)
    base_rain = 90.0 + rng_params.uniform(0.0, 20.0, spec.districts)

    months = _month_range(*SYNTH_START, spec.months)

    # every ISO week belongs to the month containing its Thursday
    first = date(months[0][0], months[0][1], 1)
    last_y, last_m = months[-1]
    last = date(last_y, last_m, calendar.monthrange(last_y, last_m)[1])
    weeks_by_month = {}
    thursday = first + timedelta(days=(3 - first.weekday()) % 7)
    while thursday <= last:
        iso = thursday.isocalendar()
        weeks_by_month.setdefault((thursday.year, thursday.month), []).append(
            (iso[0], iso[1])
        )
        thursday += timedelta(days=7)

    climate = []
    rain = []
    larval = []
    cases = []
    truth = {}
    for di, district in enumerate(districts):
        season_t = np.empty(spec.months)
        rain_anom = np.empty(spec.months)
        rain_total = np.empty(spec.months)
        larval_latent = np.empty(spec.months)
        for mi, (y, m) in enumerate(months):
            ang = 2.0 * math.pi * (m - 1) / 12.0
            season_t[mi] = math.sin(ang + phase[di])
            anom = float(np.clip(rng_month.normal(0.0, 1.0), -2.5, 2.5))
            rain_anom[mi] = anom
            rain_total[mi] = max(
                2.0,
                base_rain[di] * (1.0 + 0.2 * math.sin(ang + phase[di] + math.pi))
                + 0.35 * base_rain[di] * anom * spec.noise,
            )
        for mi, (y, m) in enumerate(months):
            ang = 2.0 * math.pi * (m - 1) / 12.0
            season_l = math.sin(ang + phase[di] + LARVAL_PHASE_OFFSET)
            lag3 = max(mi - 3, 0)
            eps = rng_month.normal(0.0, LARVAL_NOISE_SD * spec.noise)
            larval_latent[mi] = float(
                np.clip(
                    2.0
                    + LARVAL_SEASON_AMP * season_l
                    + LARVAL_RAIN_COEF * rain_anom[lag3]
                    + LARVAL_TEMP_COEF * season_t[lag3]
                    + eps,
                    1.0,
                    3.0,
                )
            )

        for mi, (y, m) in enumerate(months):
            lag1 = max(mi - 1, 0)
            lag2 = max(mi - 2, 0)
            log_rate = (
                math.log(CASE_BASE_RATE)
                + TEMP_LAG1_COEF * season_t[lag1]
                + RAIN_LAG2_COEF * rain_anom[lag2]
                + spec.beta * (larval_latent[lag1] - 2.0)
            )
            rate = math.exp(min(log_rate, math.log(500.0)))
            n_cases = int(rng_month.poisson(rate))
            cases.append(((district, (y, m)), n_cases))

            n_low, n_mid, n_high = _survey_counts(larval_latent[mi], SURVEY_HOUSES)
            achieved = weighted_larval_index(n_low, n_mid, n_high)
            truth[(district, (y, m))] = achieved
            if rng_mask.random() >= spec.missing_rate:
                larval.append(
                    LarvalSurvey(
                        district=district, month=(y, m),
                        n_low=n_low, n_mid=n_mid, n_high=n_high,
                    )
                )

            # one draw per day and variable, temperature first, as (temp, rh) pairs
            n_days = calendar.monthrange(y, m)[1]
            daily = rng_daily.normal(
                0.0, np.tile([0.8 * spec.noise, 2.0 * spec.noise], n_days)
            )
            ang = 2.0 * math.pi * (m - 1) / 12.0
            temp_sig = base_t[di] + amp_t[di] * season_t[mi]
            rh_sig = base_rh[di] + amp_rh[di] * math.sin(ang + phase[di] + math.pi / 3)
            climate.append((district, (y, m), temp_sig + daily[0::2],
                            np.clip(rh_sig + daily[1::2], 0.0, 100.0)))

        # spread each month's rainfall evenly over the ISO weeks it owns
        for mi, (y, m) in enumerate(months):
            weeks = weeks_by_month.get((y, m), [])
            if not weeks:
                continue
            share = rain_total[mi] / len(weeks)
            for iso_year, iso_week in weeks:
                rain.append(
                    WeeklyRainfall(
                        district=district, iso_year=iso_year,
                        iso_week=iso_week, rainfall=float(share),
                    )
                )

    return SynthBundle(climate=climate, rain=rain, larval=larval, cases=cases,
                       truth=truth)


# ---------------------------------------------------------------------------
# prepared supervised data


@dataclass
class PreparedData:
    split: SplitDataset
    scaler: dataprep.Scaler
    skipped: int  # windows that would span a month gap


def make_supervised(records, t, variant, ratio, predictors=CLIMATE_FEATURES):
    """Window and split records, and fit a scaler without temporal leakage:
    only on records up to the split's boundary month, the last target month
    of the train split. The windows stay unscaled.
    """
    if not records:
        raise ValidationError("no records to prepare")
    windows, skipped = build_windows(records, t, variant, predictors)
    split = split_dataset(windows, ratio)
    boundary = max(month_index(w.target_month) for w in split.train)
    train_records = [r for r in records if month_index(r.month) <= boundary]
    scaler = fit_scaler(train_records, window_columns(predictors, variant))
    return PreparedData(split=split, scaler=scaler, skipped=skipped)


# ---------------------------------------------------------------------------
# single runs and sweeps


@dataclass
class PredictionRow:
    district: str
    month: tuple[int, int]
    predicted: float
    actual: int | float  # the record's count as records.csv holds it


@dataclass
class RunReport:
    label: str
    seed: int
    validation_mse: float         # raw count scale
    test_mse: float
    validation_mse_scaled: float
    test_mse_scaled: float
    predictions: list[PredictionRow]
    wall_clock: float
    skipped: int  # windows that would span a month gap
    trained: object | None = None


def evaluate(trained, windows):
    """(scaled MSE, raw MSE, PredictionRows) of a trained model on windows.

    The scaled MSE is taken against the windows' targets scaled by the
    model's scaler; the predictions are then de-scaled and the raw MSE is
    taken against the targets as the windows hold them, which each row
    carries as its actual.
    """
    # through the module, so a wrapped lstm.predict_batch sees the call
    pred = lstm.predict_batch(trained, windows)
    counts = [w.target for w in windows]
    scaled = mse(trained.scaler.transform(counts, ("cases",)), pred)
    raw_pred = trained.scaler.invert_value("cases", pred)
    rows = [
        PredictionRow(district=w.district, month=w.target_month,
                      predicted=float(p), actual=w.target)
        for w, p in zip(windows, raw_pred)
    ]
    return scaled, mse(counts, raw_pred), rows


def run_config(records, spec, cfg, label, report_seed):
    """Prepare data for one configuration, train it as cfg says, and report MSEs."""
    started = time.perf_counter()
    prepared = make_supervised(records, spec.timesteps, spec.variant, cfg.ratio,
                               spec.predictors)
    trained = train(spec, prepared.split, validation_fraction=cfg.validation_fraction,
                    scaler=prepared.scaler, lr=cfg.lr)
    trained.train_cfg = cfg
    _, val_w = carve_validation(prepared.split.train, cfg.validation_fraction)
    val_scaled, val_raw, _ = evaluate(trained, val_w)
    test_scaled, test_raw, rows = evaluate(trained, prepared.split.test)
    return RunReport(
        label=label,
        seed=report_seed,
        validation_mse=val_raw,
        test_mse=test_raw,
        validation_mse_scaled=val_scaled,
        test_mse_scaled=test_scaled,
        predictions=rows,
        wall_clock=time.perf_counter() - started,
        skipped=prepared.skipped,
        trained=trained,
    )


@dataclass
class SweepSpec:
    """A grid cell is a label and the ModelSpec fields the cell changes from
    base; each cell's spec is built and checked here, before any training."""
    kind: str
    base: ModelSpec
    grid: list[dict]
    seeds: tuple[int, ...]
    train_cfg: TrainCfg = TrainCfg()
    cells: list = field(init=False, repr=False)  # (label, ModelSpec) per grid cell

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValidationError(f"sweep kind must be one of {SWEEP_KINDS}")
        if not self.grid:
            raise ValidationError("sweep grid must be non-empty")
        if not self.seeds:
            raise ValidationError("sweep needs at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValidationError(f"sweep seeds repeat: {list(self.seeds)}")
        self.cells = []
        by_slug = {}  # output files are named by the slug of the label
        for overrides in map(dict, self.grid):
            label = overrides.pop("label", None)
            if not isinstance(label, str):
                raise ValidationError(f"grid cell label must be a str, got {label!r}")
            slug = slugify(label)
            if slug in by_slug:
                raise ValidationError(f"grid cells {by_slug[slug]!r} and {label!r} share files")
            by_slug[slug] = label
            # each cell's seed is derived from the run seed and its label
            if "seed" in overrides:
                raise ValidationError(f"grid cell {label!r}: unknown keys ['seed']")
            spec = from_json(ModelSpec, asdict(self.base) | overrides, f"grid cell {label!r}")
            self.cells.append((label, spec))


def default_grid(kind, base, timesteps=None):
    if kind == "timestep":
        return [{"label": f"t = {t}", "timesteps": int(t)}
                for t in timesteps or (2, 3, 4, 5)]
    if kind == "predictor":
        return [
            {"label": "Temperature", "predictors": ("temp_mean",)},
            {"label": "Rainfall", "predictors": ("rain_total",)},
            {"label": "Relative Humidity", "predictors": ("rh_mean",)},
            {"label": "All three parameters", "predictors": CLIMATE_FEATURES},
        ]
    if kind == "architecture":
        deep = max(2, base.num_layers)
        return [
            {"label": "LSTM", "arch": "plain", "num_layers": 1},
            {"label": "Stacked LSTM", "arch": "stacked", "num_layers": deep},
            {"label": "Bidirectional LSTM", "arch": "bidir", "num_layers": 1},
            {"label": "Bidirectional Stacked LSTM", "arch": "bidir_stacked",
             "num_layers": deep},
        ]
    if kind == "variant":
        return [
            {"label": "Variant I", "variant": "I"},
            {"label": "Variant II", "variant": "II"},
        ]
    raise ValidationError(f"sweep kind must be one of {SWEEP_KINDS}")


@dataclass
class SweepRow:
    label: str
    validation_mse: float
    test_mse: float
    validation_mse_scaled: float
    test_mse_scaled: float
    n_seeds: int
    best: bool = False


@dataclass
class SweepResult:
    kind: str
    rows: list[SweepRow]
    reports: list[RunReport]
    failures: list  # (label, seed, message)
    argmin_label: str | None


def _sweep_task(args):
    records, spec, cfg, label, seed = args
    try:
        return ("ok", label, seed, run_config(records, spec, cfg, label, seed))
    except DivergenceError as exc:
        return ("diverged", label, seed, str(exc))


def run_sweep(sweep, records, jobs=1):
    """Train every grid cell for every seed; aggregate and mark the argmin.

    Each cell x seed pair derives its own seed from (seed, label), so results
    are independent of execution order. Divergence is recorded per row and
    the sweep continues. Rows are aggregated as the mean over seeds and the
    argmin is chosen by mean validation MSE.
    """
    tasks = [
        (records, replace(spec, seed=derive_seed(seed, label)), sweep.train_cfg,
         label, seed)
        for label, spec in sweep.cells
        for seed in sweep.seeds
    ]
    workers = min(jobs, len(tasks))  # a pool forks all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_task, tasks))
    else:
        outcomes = [_sweep_task(t) for t in tasks]

    reports = []
    failures = []
    for status, label, seed, payload in outcomes:
        if status == "ok":
            reports.append(payload)
        else:
            failures.append((label, seed, payload))

    rows = []
    for label, _ in sweep.cells:
        cell_reports = [r for r in reports if r.label == label]
        if not cell_reports:
            continue
        means = {name: float(np.mean([getattr(r, name) for r in cell_reports]))
                 for name in ("validation_mse", "test_mse",
                              "validation_mse_scaled", "test_mse_scaled")}
        rows.append(SweepRow(label=label, n_seeds=len(cell_reports), **means))
    argmin_label = None
    if rows:
        best_row = min(rows, key=lambda r: r.validation_mse)
        best_row.best = True
        argmin_label = best_row.label
    return SweepResult(
        kind=sweep.kind, rows=rows, reports=reports, failures=failures,
        argmin_label=argmin_label,
    )


# ---------------------------------------------------------------------------
# rendering


KIND_COLUMN = {
    "timestep": "Time step",
    "architecture": "Model",
    "predictor": "Predictor",
    "variant": "Variant",
}

MONTH_ABBREV = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def round_half_away(x):
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def slugify(label):
    out = []
    for ch in label.lower():
        out.append(ch if ch.isalnum() else "-")
    slug = "".join(out)
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-")


def _month_labels(months):
    by_moy = {m[1] for m in months}
    if len(by_moy) == len(months):
        return {m: MONTH_ABBREV[m[1] - 1] for m in months}
    return {m: f"{m[0]:04d}-{m[1]:02d}" for m in months}


def prediction_table_md(predictions):
    """Monthly-by-district table of PredictionRows, with count footers.

    One row per month, one column per district; cells are predictions rounded
    half away from zero. The "Predicted Count" footer is the column sum of the
    rounded monthly predictions, "Actual Count" the sum of the actuals.
    """
    months = sorted({p.month for p in predictions}, key=month_index)
    districts = sorted({p.district for p in predictions})
    if not months:
        raise ValidationError("no predictions to tabulate")
    cell = {(p.district, p.month): p for p in predictions}
    labels = _month_labels(months)

    lines = [
        "| Month | " + " | ".join(districts) + " |",
        "|" + " --- |" * (len(districts) + 1),
    ]
    pred_sum = {d: 0 for d in districts}
    actual_sum = {d: 0 for d in districts}
    for m in months:
        row = [labels[m]]
        for d in districts:
            p = cell.get((d, m))
            if p is None:
                row.append("")
                continue
            rounded = round_half_away(p.predicted)
            pred_sum[d] += rounded
            actual_sum[d] += round_half_away(p.actual)
            row.append(str(rounded))
        lines.append("| " + " | ".join(row) + " |")
    lines.append(
        "| Predicted Count | "
        + " | ".join(str(pred_sum[d]) for d in districts) + " |"
    )
    lines.append(
        "| Actual Count | "
        + " | ".join(str(actual_sum[d]) for d in districts) + " |"
    )
    return "\n".join(lines) + "\n"


PREDICTION_HEADER = ("district", "year", "month", "predicted", "actual")


def prediction_table_csv(rows):
    """PredictionRows by district and month, unrounded; load_prediction_csv
    reads them back exactly."""
    rows = sorted(rows, key=lambda p: (p.district, month_index(p.month)))
    return csv_text(PREDICTION_HEADER, [
        [p.district, p.month[0], p.month[1], repr(p.predicted), repr(p.actual)]
        for p in rows
    ])


def load_prediction_csv(path):
    """The PredictionRows of a file prediction_table_csv wrote; a bad header,
    row or cell raises ValidationError naming the file (and line)."""
    rows = []
    for lineno, row in dataprep.read_rows(path, PREDICTION_HEADER):
        try:
            rows.append(PredictionRow(
                district=row[0], month=(int(row[1]), int(row[2])),
                predicted=float(row[3]), actual=parse_count(row[4]),
            ))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return rows


def mse_table_md(result):
    """MSE comparison table: one row per configuration, argmin marked *."""
    header = KIND_COLUMN.get(result.kind, "Config")
    lines = [
        f"| {header} | Validation MSE | Test MSE |",
        "| --- | --- | --- |",
    ]
    for row in result.rows:
        label = row.label + (" *" if row.best else "")
        lines.append(f"| {label} | {row.validation_mse:.5f} | {row.test_mse:.5f} |")
    for label, seed, message in result.failures:
        lines.append(f"| {label} (seed {seed}) | diverged | diverged |")
    return "\n".join(lines) + "\n"


def mse_table_csv(result):
    return csv_text(
        ["label", "validation_mse", "test_mse",
         "validation_mse_scaled", "test_mse_scaled", "n_seeds", "best"],
        [[row.label, repr(row.validation_mse), repr(row.test_mse),
          repr(row.validation_mse_scaled), repr(row.test_mse_scaled),
          row.n_seeds, int(row.best)]
         for row in result.rows],
    )


def render_report(reports, sweep_result=None):
    """Render prediction tables (and optionally the MSE table) to file texts.

    Returns a mapping of relative path -> content covering tables/*.md and
    reports/*.csv.
    """
    if not reports:
        raise ValidationError("no reports to render")
    files = {}
    for report in reports:
        stem = f"predictions_{slugify(report.label)}_seed{report.seed}"
        files[f"tables/{stem}.md"] = prediction_table_md(report.predictions)
        files[f"reports/{stem}.csv"] = prediction_table_csv(report.predictions)
    if sweep_result is not None:
        files["tables/mse_summary.md"] = mse_table_md(sweep_result)
        files["reports/mse_summary.csv"] = mse_table_csv(sweep_result)
    return files
