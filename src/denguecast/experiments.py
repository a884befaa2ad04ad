"""Experiment harness: synthetic data, single runs, sweeps, reports.

The synthetic generator stands in for the (unpublished) field dataset. It
plants known structure so sweeps have ground truth: seasonal climate per
district, a larval index driven by its own season and by the rain anomaly and
temperature season of 3 months back, and case counts driven by 1-month-lagged
temperature season, 2-month-lagged rain anomalies and the beta-weighted
1-month-lagged larval index. The true larval index for every district-month
goes to an answer table so imputation quality is measurable.

make_supervised prepares a run's data once, as one dataprep.PreparedData,
and run_config trains on it and evaluates. A sweep prepares each distinct
dataset of a specs.SweepSpec's grid once, before any training, trains each
grid cell once per seed, aggregates mean validation/test MSE and marks the
argmin row; render_report gives every text file of its directory.

A dataprep.Windows holds unscaled features and each target month's case
count, an int. Every prediction, in train, sweep and predict alike, takes one
path: lstm.predict_batch scales the windows' features and targets once, with
the model's scaler (dataprep.apply_scaler, as lstm.train does), and gives the
model's output and the targets in those units; evaluate takes the scaled MSE
of the two, de-scales the output for the raw MSE against the counts, and
builds PredictionRows whose actual is the count; prediction_table_csv is the
one writer of those rows and load_prediction_csv their one reader.
"""

from __future__ import annotations

import calendar
import itertools
import math
import time
from dataclasses import dataclass, replace
from datetime import date, timedelta

import numpy as np

from . import dataprep, lstm
from .dataprep import (
    apply_scaler,  # not called here: perfbench/tracing.py wraps it under this name
    build_windows,
    csv_text,
    fit_scaler,
    month_at,
    month_index,
    month_text,
    new_key,
    parse_month,
    split_dataset,
    week_month,
    weighted_larval_index,
)
from .errors import DivergenceError, PreconditionError, ValidationError
# model_forward is not called here: perfbench/tracing.py wraps it under this
# module's name, as it does train, so both names stay
from .lstm import carve_validation, model_forward, train
from .nn_core import derive_seed, make_rng, mse
from .specs import SWEEP_KINDS, slugify

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


@dataclass
class SynthBundle:
    climate: list  # (district, (year, month), temperatures, humidities) per month
    # the other raw files' rows, as tuples in the order of their headers
    rain: list  # dataprep.RAIN_HEADER
    larval: list  # dataprep.LARVAL_HEADER
    cases: list  # dataprep.CASES_HEADER
    truth: dict  # (district, (year, month)) -> pre-masking larval index


def _survey_counts(index, houses):
    """Integer band counts whose weighted index approximates the latent one."""
    if index <= 2.0:
        n_mid = int(round((index - 1.0) * houses))
        return houses - n_mid, n_mid, 0
    n_high = int(round((index - 2.0) * houses))
    return 0, houses - n_high, n_high


def synth_generate(spec):
    """Generate a raw CSV bundle (climate, rain, larval, cases) plus answers,
    as a specs.SynthSpec sets it.

    Each district draws its streams in this order: synth.monthly gives the
    months' rain anomalies (normal 0, 1), then their larval noise (normal 0,
    LARVAL_NOISE_SD * noise), then their case counts (poisson); synth.mask
    gives one uniform per month; synth.daily gives one normal per day and
    variable, temperature first, as (temp, rh) pairs. Each stream but the
    case counts is drawn as one array per district: a numpy Generator draws
    an array exactly as the same number of scalar calls, so these are the
    values of one draw per call, month by month. The case counts take one
    scalar call per month, because poisson's array form checks its rates
    with numpy code nothing else in synth runs; mapping it raised synth's
    peak RSS by about 128 KB, to save about 2 ms.

    The per-month terms (seasons, rates, clips) stay Python floats on math:
    numpy's SIMD sin and exp may differ from libm in the last ulp, and a rate
    one ulp off can change a Poisson draw. The daily arrays add and clip the
    same float64 values, element by element, as one month at a time would.
    """
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

    n = spec.months
    months = [month_at(month_index(SYNTH_START) + i) for i in range(n)]
    angles = [2.0 * math.pi * (m - 1) / 12.0 for _, m in months]
    n_days = [calendar.monthrange(y, m)[1] for y, m in months]
    day_starts = [0, *itertools.accumulate(n_days)]
    day_scales = np.tile([0.8 * spec.noise, 2.0 * spec.noise], day_starts[-1])
    log_cap = math.log(500.0)

    # the ISO weeks each month owns, by dataprep.week_month
    first = date(*months[0], 1)
    last = date(*months[-1], n_days[-1])
    weeks_by_month = {}
    thursday = first + timedelta(days=(3 - first.weekday()) % 7)
    while thursday <= last:
        week = thursday.isocalendar()[:2]
        weeks_by_month.setdefault(week_month(*week), []).append(week)
        thursday += timedelta(days=7)

    climate = []
    rain = []
    larval = []
    cases = []
    truth = {}
    for di, district in enumerate(districts):
        ph = float(phase[di])
        br = float(base_rain[di])
        season_t = [math.sin(a + ph) for a in angles]
        rain_anom = [min(max(z, -2.5), 2.5)
                     for z in rng_month.normal(0.0, 1.0, n).tolist()]
        rain_total = [
            max(2.0, br * (1.0 + 0.2 * math.sin(a + ph + math.pi))
                + 0.35 * br * anom * spec.noise)
            for a, anom in zip(angles, rain_anom)
        ]
        eps = rng_month.normal(0.0, LARVAL_NOISE_SD * spec.noise, n).tolist()
        larval_latent = []
        for mi, a in enumerate(angles):
            lag3 = max(mi - 3, 0)
            latent = (2.0
                      + LARVAL_SEASON_AMP * math.sin(a + ph + LARVAL_PHASE_OFFSET)
                      + LARVAL_RAIN_COEF * rain_anom[lag3]
                      + LARVAL_TEMP_COEF * season_t[lag3]
                      + eps[mi])
            larval_latent.append(min(max(latent, 1.0), 3.0))

        n_cases = []
        for mi in range(n):
            lag1 = max(mi - 1, 0)
            lag2 = max(mi - 2, 0)
            log_rate = (
                math.log(CASE_BASE_RATE)
                + TEMP_LAG1_COEF * season_t[lag1]
                + RAIN_LAG2_COEF * rain_anom[lag2]
                + spec.beta * (larval_latent[lag1] - 2.0)
            )
            rate = math.exp(min(log_rate, log_cap))
            n_cases.append(int(rng_month.poisson(rate)))
        # compared in Python: an array >= maps more of numpy into the peak RSS
        kept = [u >= spec.missing_rate for u in rng_mask.random(n).tolist()]

        for (y, m), count, latent, keep in zip(months, n_cases, larval_latent, kept):
            cases.append((district, y, m, count))
            n_low, n_mid, n_high = _survey_counts(latent, SURVEY_HOUSES)
            truth[(district, (y, m))] = weighted_larval_index(n_low, n_mid, n_high)
            if keep:
                larval.append((district, y, m, n_low, n_mid, n_high))

        daily = rng_daily.normal(0.0, day_scales)
        temp_sig = [base_t[di] + amp_t[di] * s for s in season_t]
        rh_sig = [base_rh[di] + amp_rh[di] * math.sin(a + ph + math.pi / 3)
                  for a in angles]
        temps = np.repeat(temp_sig, n_days) + daily[0::2]
        hums = np.clip(np.repeat(rh_sig, n_days) + daily[1::2], 0.0, 100.0)
        for mi, (y, m) in enumerate(months):
            lo, hi = day_starts[mi], day_starts[mi + 1]
            climate.append((district, (y, m), temps[lo:hi], hums[lo:hi]))

        # spread each month's rainfall evenly over the ISO weeks it owns
        for (y, m), total in zip(months, rain_total):
            weeks = weeks_by_month.get((y, m), [])
            for iso_year, iso_week in weeks:
                rain.append((district, iso_year, iso_week, total / len(weeks)))

    return SynthBundle(climate=climate, rain=rain, larval=larval, cases=cases,
                       truth=truth)


# ---------------------------------------------------------------------------
# prepared supervised data


def make_supervised(records, spec):
    """The PreparedData of a ModelSpec: records windowed as it says
    (build_windows), split at its ratio, and a scaler fitted without temporal
    leakage: only on records up to the split's boundary month, the last
    target month of the train split. The windows stay unscaled.
    """
    windows, skipped = build_windows(records, spec)
    train_w, test_w = split_dataset(windows, spec.ratio)
    boundary = train_w.month[-1]
    train_records = [r for r in records if month_index(r.month) <= boundary]
    scaler = fit_scaler(train_records, spec.columns)
    return dataprep.PreparedData(train_w, test_w, scaler, skipped)


# ---------------------------------------------------------------------------
# single runs and sweeps


@dataclass
class PredictionRow:
    district: str
    month: tuple[int, int]
    predicted: float
    actual: int  # the record's case count, an int as records.csv holds it


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
    trained: lstm.TrainedModel
    loss_history: list  # (train_mse, validation_mse) per epoch

    @property
    def stem(self):  # every file of the run in a sweep directory starts with it
        return f"{slugify(self.label)}_seed{self.seed}"


def evaluate(trained, windows):
    """(scaled MSE, raw MSE, PredictionRows) of a trained model on a Windows.

    The scaled MSE is taken against the scaled targets that predict_batch
    gives with its predictions, so targets are scaled once; the predictions
    are then de-scaled and the raw MSE is taken against the targets as the
    windows hold them, which each row carries as its actual.
    """
    # through the module, so a wrapped lstm.predict_batch sees the call
    pred, y = lstm.predict_batch(trained, windows)
    raw_pred = trained.scaler.invert_value("cases", pred)
    rows = [  # of Python scalars, whose reprs predictions.csv holds
        PredictionRow(district=d, month=month_at(m), predicted=p, actual=a)
        for d, m, p, a in zip(windows.district.tolist(), windows.month.tolist(),
                              raw_pred.tolist(), windows.target.tolist())
    ]
    return mse(y, pred), mse(windows.target, raw_pred), rows


def run_config(prepared, spec, label, report_seed):
    """Train one ModelSpec on its PreparedData and report MSEs."""
    started = time.perf_counter()
    trained, history = train(spec, prepared)
    _, val_w = carve_validation(prepared.train, spec.validation_fraction)
    val_scaled, val_raw, _ = evaluate(trained, val_w)
    test_scaled, test_raw, rows = evaluate(trained, prepared.test)
    return RunReport(
        label=label,
        seed=report_seed,
        validation_mse=val_raw,
        test_mse=test_raw,
        validation_mse_scaled=val_scaled,
        test_mse_scaled=test_scaled,
        predictions=rows,
        wall_clock=time.perf_counter() - started,
        trained=trained,
        loss_history=history,
    )


@dataclass
class SweepRow:
    label: str
    validation_mse: float
    test_mse: float
    validation_mse_scaled: float
    test_mse_scaled: float
    n_seeds: int


@dataclass
class SweepResult:
    kind: str
    rows: list[SweepRow]
    reports: list[RunReport]
    failures: list  # (label, seed, message)
    argmin_label: str | None


def _init_worker():
    """A sweep pool's initializer: the CLI's allocator policy and one BLAS
    thread, which a worker inherits only when it is forked."""
    from .cli import keep_freed_memory, one_blas_thread

    keep_freed_memory()
    one_blas_thread()


def _sweep_task(task):
    """The RunReport of a sweep task (prepared dataset, spec, label, report
    seed), or the message of its divergence."""
    prepared, spec, label, seed = task
    try:
        return run_config(prepared, spec, label, seed)
    except DivergenceError as exc:
        return str(exc)


def _dataset_key(spec):
    """All of a ModelSpec that make_supervised reads: columns (which encodes
    the variant and the predictors), timesteps and ratio; not the seed."""
    return spec.columns, spec.timesteps, spec.ratio


def run_sweep(sweep, records, jobs=1):
    """Train every grid cell for every seed; aggregate and mark the argmin.

    Each distinct dataset of the grid is prepared once, before any task
    starts; a dataset that cannot be prepared fails the sweep, naming the
    first cell that reads it. A task carries the dataset of its spec's
    _dataset_key, so a worker needs nothing else. Each cell x seed pair
    derives its own seed from (seed, label), so results are independent of
    execution order. Divergence is recorded per row and the sweep continues.
    Rows are aggregated as the mean over seeds and the argmin is chosen by
    mean validation MSE.
    """
    prepared = {}
    for label, spec in sweep.cells:
        key = _dataset_key(spec)
        if key in prepared:
            continue
        try:
            prepared[key] = make_supervised(records, spec)
        except (ValidationError, PreconditionError) as exc:
            raise type(exc)(f"grid cell {label!r}: {exc}") from None
    tasks = [(prepared[_dataset_key(spec)],
              replace(spec, seed=derive_seed(seed, label)), label, seed)
             for label, spec in sweep.cells
             for seed in sweep.seeds]
    workers = min(jobs, len(tasks))  # a pool forks all its workers up front
    if workers > 1:
        # imported here, not at the top: every CLI command imports this
        # module, and only a sweep with --jobs > 1 starts a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker) as pool:
            outcomes = list(pool.map(_sweep_task, tasks))
    else:
        outcomes = [_sweep_task(t) for t in tasks]

    reports = [o for o in outcomes if isinstance(o, RunReport)]
    failures = [(label, seed, o) for (_, _, label, seed), o in zip(tasks, outcomes)
                if isinstance(o, str)]

    rows = []
    for label, _ in sweep.cells:
        cell_reports = [r for r in reports if r.label == label]
        if not cell_reports:
            continue
        means = {name: float(np.mean([getattr(r, name) for r in cell_reports]))
                 for name in ("validation_mse", "test_mse",
                              "validation_mse_scaled", "test_mse_scaled")}
        rows.append(SweepRow(label=label, n_seeds=len(cell_reports), **means))
    return SweepResult(
        kind=sweep.kind, rows=rows, reports=reports, failures=failures,
        argmin_label=min(rows, key=lambda r: r.validation_mse).label if rows else None,
    )


# ---------------------------------------------------------------------------
# rendering


MONTH_ABBREV = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def round_half_away(x):
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _month_labels(months):
    by_moy = {m[1] for m in months}
    if len(by_moy) == len(months):
        return {m: MONTH_ABBREV[m[1] - 1] for m in months}
    return {m: month_text(m) for m in months}


def prediction_table_md(predictions):
    """Monthly-by-district table of PredictionRows, with count footers.

    One row per month, one column per district; cells are predictions rounded
    half away from zero. The "Predicted Count" footer is the column sum of the
    rounded monthly predictions, "Actual Count" the sum of the int actuals.
    """
    months = sorted({p.month for p in predictions}, key=month_index)
    districts = sorted({p.district for p in predictions})
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
            actual_sum[d] += p.actual
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
    row or cell (a non-finite prediction, an actual that is not an int >= 0),
    a repeated (district, month), or no row at all raises ValidationError
    naming the file (and line)."""
    seen = set()

    def parse(cells):
        district, year, month, predicted, actual = cells
        row = PredictionRow(district=district, month=parse_month(year, month),
                            predicted=float(predicted), actual=int(actual))
        key = f"{district} {month_text(row.month)}"
        if not math.isfinite(row.predicted):
            raise ValidationError(f"non-finite predicted for {key}")
        if row.actual < 0:
            raise ValidationError(f"actual {row.actual} for {key} is not >= 0")
        new_key(seen, district, row.month)
        return row

    rows = list(dataprep.read_rows(path, parse, PREDICTION_HEADER))
    if not rows:
        raise ValidationError(f"{path}: no predictions")
    return rows


def mse_table_md(result):
    """MSE comparison table: one row per configuration, argmin marked *."""
    header = SWEEP_KINDS[result.kind]
    lines = [
        f"| {header} | Validation MSE | Test MSE |",
        "| --- | --- | --- |",
    ]
    for row in result.rows:
        label = row.label + (" *" if row.label == result.argmin_label else "")
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
          row.n_seeds, int(row.label == result.argmin_label)]
         for row in result.rows],
    )


def loss_csv(history):
    """A run's train and validation MSE per epoch."""
    return csv_text(["epoch", "train_mse", "validation_mse"],
                    [[epoch, repr(tr), repr(va)] for epoch, (tr, va) in enumerate(history)])


def render_report(result):
    """Every text file of a sweep directory, keyed by relative path: the MSE
    summary (tables/mse_summary.md, reports/mse_summary.csv), log.txt, and per
    trained run reports/predictions_<stem>.csv (which the report command
    renders as tables/predictions_<stem>.md) and models/<stem>_loss.csv."""
    files = {"tables/mse_summary.md": mse_table_md(result),
             "reports/mse_summary.csv": mse_table_csv(result)}
    log_lines = []
    for report in sorted(result.reports, key=lambda r: (r.label, r.seed)):
        files[f"reports/predictions_{report.stem}.csv"] = prediction_table_csv(
            report.predictions)
        files[f"models/{report.stem}_loss.csv"] = loss_csv(report.loss_history)
        log_lines.append(
            f"{report.label} seed={report.seed} "
            f"validation_mse={report.validation_mse!r} test_mse={report.test_mse!r}"
        )
    for label, seed, message in result.failures:
        log_lines.append(f"{label} seed={seed} DIVERGED: {message}")
    log_lines.append(f"argmin: {result.argmin_label}")
    files["log.txt"] = "\n".join(log_lines) + "\n"
    return files
