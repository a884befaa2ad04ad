"""Ingestion and supervised framing of district-month records.

Raw inputs are daily climate readings, weekly rainfall, monthly larval
surveys and monthly case counts. They are aggregated to district-month
resolution, joined into DistrictMonthRecord rows, windowed into (timesteps x
features) supervised samples and split chronologically. Records and windows
hold values as read: apply_scaler, the one scaler of model inputs, min-max
scales the stacked arrays of a window list with a model's Scaler.

The daily climate table is the only large one, so it is never held as one
object per day: load_climate_csv streams its rows as plain tuples straight
into aggregate_monthly, and write_climate_csv writes it from per-month arrays.
Each CSV file has one loader and one writer here, sharing its header.

Months are (year, month) tuples everywhere. All functions apart from the CSV
loaders and writers are pure.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import PreconditionError, ValidationError

CLIMATE_FEATURES = ("temp_mean", "rh_mean", "rain_total")
VARIANTS = ("I", "II")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class WeeklyRainfall:
    district: str
    iso_year: int
    iso_week: int
    rainfall: float


@dataclass(frozen=True)
class LarvalSurvey:
    district: str
    month: tuple[int, int]
    n_low: int
    n_mid: int
    n_high: int


@dataclass(frozen=True)
class DistrictMonthRecord:
    """One district-month. Its rules are checked here, so they hold however
    the record is built: assembled from raw files or read from records.csv."""
    district: str
    month: tuple[int, int]
    temp_mean: float
    rh_mean: float
    rain_total: float
    larval_index: float | None
    cases: float

    def __post_init__(self):
        for name in CLIMATE_FEATURES:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"non-finite {name} for {self._key()}")
        if not 0 <= self.cases < math.inf:
            raise ValidationError(f"case count {self.cases} for {self._key()} is "
                                  "not a finite number >= 0")
        if self.larval_index is not None and not 1.0 <= self.larval_index <= 3.0:
            raise ValidationError(
                f"larval index {self.larval_index} outside [1, 3] for {self._key()}")

    def _key(self):
        return f"{self.district} {self.month[0]:04d}-{self.month[1]:02d}"


@dataclass
class SupervisedWindow:
    features: np.ndarray  # (t, F), unscaled
    target: int | float  # the current month's count as the record holds it
    district: str
    target_month: tuple[int, int]


@dataclass
class SplitDataset:
    train: list[SupervisedWindow]
    test: list[SupervisedWindow]


@dataclass
class GapReport:
    """Month-sequence discontinuities of an assembled record list."""

    gaps: list[tuple[str, tuple[int, int], tuple[int, int]]]

    def lines(self):
        if not self.gaps:
            return ["no gaps"]
        out = []
        for district, before, after in self.gaps:
            out.append(
                f"{district}: gap between {before[0]:04d}-{before[1]:02d} "
                f"and {after[0]:04d}-{after[1]:02d}"
            )
        return out


def month_index(month):
    """Months since year 0, for chronological arithmetic."""
    year, m = month
    return year * 12 + (m - 1)


def month_of(d: date):
    return (d.year, d.month)


# ---------------------------------------------------------------------------
# aggregation


def aggregate_monthly(rows):
    """Arithmetic mean of daily temperature/humidity per (district, month).

    rows are (district, (year, month), date, temperature, humidity) tuples,
    as load_climate_csv streams them. Each sum accumulates in row order, and
    the first bad or repeated row raises (a bitmask per month marks its days).
    """
    sums = {}
    for district, month, day, temperature, humidity in rows:
        if not math.isfinite(temperature):
            raise ValidationError(
                f"non-finite temperature for {district} on {day.isoformat()}"
            )
        if not (0.0 <= humidity <= 100.0):
            raise ValidationError(
                f"relative humidity {humidity} outside [0, 100] "
                f"for {district} on {day.isoformat()}"
            )
        acc = sums.get((district, month))
        if acc is None:
            acc = sums[(district, month)] = [0.0, 0.0, 0, 0]
        bit = 1 << day.day
        if acc[3] & bit:
            raise ValidationError(
                f"duplicate climate row for {district} on {day.isoformat()}")
        acc[0] += temperature
        acc[1] += humidity
        acc[2] += 1
        acc[3] |= bit
    if not sums:
        raise ValidationError("no climate readings")
    return {k: (t / n, h / n) for k, (t, h, n, _) in sums.items()}


def rain_to_monthly(weekly):
    """Total rainfall per (district, month).

    Each ISO week is assigned to the month containing its Thursday, the
    standard convention for deciding which month "owns" a week. A repeated
    (district, iso_year, iso_week) raises.
    """
    totals = {}
    seen = set()
    for w in weekly:
        if not 1 <= w.iso_week <= 53:
            raise ValidationError(
                f"iso_week {w.iso_week} outside [1, 53] for {w.district}"
            )
        if w.rainfall < 0:
            raise ValidationError(f"negative rainfall for {w.district}")
        try:
            thursday = date.fromisocalendar(w.iso_year, w.iso_week, 4)
        except ValueError as exc:
            raise ValidationError(
                f"invalid ISO week {w.iso_year}-W{w.iso_week:02d} for {w.district}: {exc}"
            ) from None
        week = (w.district, w.iso_year, w.iso_week)
        if week in seen:
            raise ValidationError(
                f"duplicate rain row for {w.district} in {w.iso_year}-W{w.iso_week:02d}")
        seen.add(week)
        key = (w.district, month_of(thursday))
        totals[key] = totals.get(key, 0.0) + w.rainfall
    return totals


def weighted_larval_index(n_low, n_mid, n_high):
    """Collapse the three survey bands to one value in [1, 3].

    Houses in the 0-5%, 5-10% and >10% bands carry weights 1, 2 and 3;
    the result is the weight total divided by the number of inspected
    houses. Returns None when no houses were inspected.
    """
    for name, n in (("n_low", n_low), ("n_mid", n_mid), ("n_high", n_high)):
        if n < 0:
            raise ValidationError(f"{name} must be >= 0, got {n}")
    total = n_low + n_mid + n_high
    if total == 0:
        return None
    return (n_low * 1 + n_mid * 2 + n_high * 3) / total


def _as_map(source, name):
    """Normalize a dict or (key, value) iterable; reject duplicate keys."""
    if isinstance(source, dict):
        return source
    out = {}
    for key, value in source:
        if key in out:
            raise ValidationError(f"duplicate (district, month) {key} in {name}")
        out[key] = value
    return out


def assemble_records(climate, rain, larval, cases):
    """Inner-join climate, rainfall and cases; attach larval index if surveyed.

    Inputs are keyed by (district, (year, month)); dicts or (key, value)
    iterables are accepted, the latter checked for duplicate keys. Output is
    sorted by district then month.
    """
    climate = _as_map(climate, "climate")
    rain = _as_map(rain, "rain")
    larval = _as_map(larval, "larval")
    cases = _as_map(cases, "cases")

    records = []
    for key in cases:
        if key not in climate or key not in rain:
            continue
        district, month = key
        temp_mean, rh_mean = climate[key]
        larval_index = larval.get(key)
        records.append(
            DistrictMonthRecord(
                district=district,
                month=month,
                temp_mean=float(temp_mean),
                rh_mean=float(rh_mean),
                rain_total=float(rain[key]),
                larval_index=None if larval_index is None else float(larval_index),
                cases=cases[key],
            )
        )
    records.sort(key=lambda r: (r.district, month_index(r.month)))
    return records


def detect_gaps(records):
    """Month-coverage gaps per district in an assembled record list."""
    by_district = {}
    for r in records:
        by_district.setdefault(r.district, []).append(r.month)
    gaps = []
    for district in sorted(by_district):
        months = sorted(by_district[district], key=month_index)
        for a, b in zip(months, months[1:]):
            if month_index(b) - month_index(a) > 1:
                gaps.append((district, a, b))
    return GapReport(gaps=gaps)


# ---------------------------------------------------------------------------
# scaling


@dataclass
class Scaler:
    """Per-feature min-max ranges, fitted by fit_scaler. Their order is the
    column order transform reads by default."""

    ranges: dict[str, tuple[float, float]]

    def transform(self, values, columns=None):
        """values min-max scaled; their last axis holds columns, every ranged
        feature in order by default (values of a single column may have any
        shape). Each value is divided by its column's width, and a zero-width
        column maps to 0."""
        lo, hi = np.array([self.ranges[c] for c in columns or self.ranges]).T
        shifted = np.asarray(values, dtype=np.float64) - lo
        width = hi - lo
        return np.divide(shifted, width, out=np.zeros_like(shifted), where=width > 0)

    def invert_value(self, feature, value):
        lo, hi = self.ranges[feature]
        return lo + value * (hi - lo)

    def to_dict(self):
        return {k: [lo, hi] for k, (lo, hi) in self.ranges.items()}

    @classmethod
    def from_dict(cls, d, columns, where):
        """The scaler of a to_dict object d that must range exactly the given
        columns, each as a [lo, hi] pair of finite numbers with lo <= hi. Its
        ranges follow the order of columns, whatever the order of d."""
        missing = [c for c in columns if c not in d]
        unknown = sorted(set(d) - set(columns))
        if missing or unknown:
            raise ValidationError(
                f"{where}: scaler must range exactly {list(columns)}; "
                f"missing {missing}, unknown {unknown}")
        ranges = {}
        for feature in columns:
            pair = d[feature]
            if not (type(pair) is list and len(pair) == 2
                    and all(type(v) in (int, float) and math.isfinite(v) for v in pair)
                    and pair[0] <= pair[1]):
                raise ValidationError(
                    f"{where}: scaler {feature} must be a [lo, hi] pair of finite "
                    f"numbers with lo <= hi, got {pair!r}")
            ranges[feature] = (float(pair[0]), float(pair[1]))
        return cls(ranges)


def fit_scaler(records, feature_set):
    """Fit per-feature min-max ranges; fit only on training-period records."""
    if not records:
        raise ValidationError("cannot fit a scaler on zero records")
    ranges = {}
    for feature in feature_set:
        values = [getattr(r, feature) for r in records]
        values = [v for v in values if v is not None]
        if not values:
            ranges[feature] = (0.0, 0.0)
        else:
            ranges[feature] = (float(min(values)), float(max(values)))
    return Scaler(ranges=ranges)


def apply_scaler(scaler, windows):
    """(X, y) for a model from windows built by build_windows: X (B, t, F)
    stacks their features and y their targets, both min-max scaled by the
    model's scaler, whose ranges are in window column order (incidence last).
    The masked current-month incidence slot stays 0.

    This is the one place model inputs are scaled; lstm.train and
    lstm.predict_batch call it, so a model learns and predicts in scaled
    units, and experiments.evaluate maps predictions back to counts
    (Scaler.invert_value on "cases").
    """
    X = scaler.transform(np.stack([w.features for w in windows]))
    X[:, -1, -1] = 0.0  # zero after scaling: a scaled 0 count need not be 0
    y = scaler.transform([w.target for w in windows], ("cases",))
    return X, y


# ---------------------------------------------------------------------------
# supervised framing


def window_columns(predictors, variant):
    """Record fields of one window row, in column order: the climate
    predictors, the larval index under variant II, then the incidence."""
    return (*predictors, *(("larval_index",) if variant == "II" else ()), "cases")


def build_windows(records, t, variant, predictors=CLIMATE_FEATURES):
    """Slide a t-month window over each district's chronological records.

    Every row of a window carries the climate predictors (plus the larval
    index under variant II). Rows for past months also carry the observed
    incidence; the current-month row carries a masked incidence slot fixed
    at 0 so all rows share one schema. The target is the current month's
    incidence. Windows hold the records' values unscaled. Windows that would
    span a month gap are skipped and counted. t, variant and predictors are a
    lstm.ModelSpec's, which checks them.

    Returns (windows, number of windows skipped).
    """
    by_district = {}
    for r in records:
        by_district.setdefault(r.district, []).append(r)

    if variant == "II":
        missing = sorted(
            d for d, rows in by_district.items()
            if any(r.larval_index is None for r in rows)
        )
        if missing:
            raise PreconditionError(
                "larval index missing for districts: " + ", ".join(missing)
            )

    columns = window_columns(predictors, variant)
    windows = []
    skipped = 0
    for district in sorted(by_district):
        rows = sorted(by_district[district], key=lambda r: month_index(r.month))
        idx = [month_index(r.month) for r in rows]
        for i in range(t - 1, len(rows)):
            if idx[i] - idx[i - t + 1] != t - 1:
                skipped += 1
                continue
            span = rows[i - t + 1 : i + 1]
            mat = np.array([[getattr(r, c) for c in columns] for r in span],
                           dtype=np.float64)
            mat[-1, -1] = 0.0  # the current month's incidence is masked
            windows.append(
                SupervisedWindow(
                    features=mat,
                    target=span[-1].cases,
                    district=district,
                    target_month=span[-1].month,
                )
            )
    return windows, skipped


def split_dataset(windows, ratio):
    """Chronological split: earliest floor(ratio * n) windows become train.

    Ordering is by target month, ties broken by district name, so every test
    target month is >= every train target month. The split is deterministic.
    ratio is a lstm.TrainCfg's, which checks it.
    """
    if not windows:
        raise ValidationError("no windows to split")
    ordered = sorted(windows, key=lambda w: (month_index(w.target_month), w.district))
    n_train = int(math.floor(ratio * len(ordered)))
    if n_train == 0:
        raise PreconditionError(f"ratio {ratio} leaves an empty training split")
    return SplitDataset(train=ordered[:n_train], test=ordered[n_train:])


# ---------------------------------------------------------------------------
# CSV interfaces
#
# climate.csv       district,date,temp_c,rh_pct        dates ISO-8601
# rain.csv          district,iso_year,iso_week,rain_mm
# larval.csv        district,year,month,n_low,n_mid,n_high
# cases.csv         district,year,month,cases
# larval_truth.csv  district,year,month,larval_index
# records.csv       district,year,month,temp_mean,rh_mean,rain_total,larval_index,cases
#                   (larval_index cell empty when missing)
#
# The raw files end each line in a bare newline, records.csv in "\r\n".

CLIMATE_HEADER = ("district", "date", "temp_c", "rh_pct")
RAIN_HEADER = ("district", "iso_year", "iso_week", "rain_mm")
LARVAL_HEADER = ("district", "year", "month", "n_low", "n_mid", "n_high")
CASES_HEADER = ("district", "year", "month", "cases")
LARVAL_TRUTH_HEADER = ("district", "year", "month", "larval_index")


def csv_text(header, rows):
    """Header line plus one line per row, each ending in a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_csv(path, header, rows):
    """Stream csv_text(header, rows) into the file at path."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path, *headers):
    """Yield (line number, cells) for each non-blank row after the header.

    The header must equal one of headers, and every row must have as many
    cells as it.
    """
    try:
        f = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if header not in [list(h) for h in headers]:
            raise ValidationError(
                f"{path}: expected header "
                f"{' or '.join(','.join(h) for h in headers)}, "
                f"got {','.join(header)}"
            )
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValidationError(f"{path}:{lineno}: wrong column count")
            yield lineno, row


def load_climate_csv(path):
    """Stream climate.csv as (district, (year, month), date, temperature,
    humidity) tuples for aggregate_monthly.

    Nothing is read until the stream is. Each distinct date text is parsed
    once; the rows of one date share its date and month objects.
    """
    days = {}
    for lineno, (district, day_text, temp_text, rh_text) in read_rows(
        path, CLIMATE_HEADER
    ):
        try:
            day = days.get(day_text)
            if day is None:
                d = date.fromisoformat(day_text)
                day = days[day_text] = ((d.year, d.month), d)
            temperature, humidity = float(temp_text), float(rh_text)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        yield district, day[0], day[1], temperature, humidity


def write_climate_csv(blocks, path):
    """climate.csv from (district, (year, month), temperatures, humidities)
    blocks, where the two arrays hold the month's days from the 1st on."""
    day_texts = {}

    def rows():
        for district, (y, m), temps, hums in blocks:
            texts = day_texts.get((y, m, len(temps)))
            if texts is None:
                texts = day_texts[(y, m, len(temps))] = [
                    date(y, m, d).isoformat() for d in range(1, len(temps) + 1)
                ]
            yield from zip(itertools.repeat(district), texts,
                           temps.tolist(), hums.tolist())

    _write_csv(path, CLIMATE_HEADER, rows())


def load_rain_csv(path):
    weeks = []
    for lineno, row in read_rows(path, RAIN_HEADER):
        try:
            weeks.append(
                WeeklyRainfall(
                    district=row[0],
                    iso_year=int(row[1]),
                    iso_week=int(row[2]),
                    rainfall=float(row[3]),
                )
            )
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return weeks


def write_rain_csv(weeks, path):
    _write_csv(path, RAIN_HEADER,
               ((w.district, w.iso_year, w.iso_week, w.rainfall) for w in weeks))


def load_larval_csv(path):
    surveys = []
    for lineno, row in read_rows(path, LARVAL_HEADER):
        try:
            surveys.append(
                LarvalSurvey(
                    district=row[0],
                    month=(int(row[1]), int(row[2])),
                    n_low=int(row[3]),
                    n_mid=int(row[4]),
                    n_high=int(row[5]),
                )
            )
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return surveys


def write_larval_csv(surveys, path):
    _write_csv(path, LARVAL_HEADER, (
        (s.district, s.month[0], s.month[1], s.n_low, s.n_mid, s.n_high)
        for s in surveys
    ))


def load_cases_csv(path):
    """Returns ((district, (year, month)), cases) pairs, duplicates included."""
    pairs = []
    for lineno, row in read_rows(path, CASES_HEADER):
        try:
            pairs.append(((row[0], (int(row[1]), int(row[2]))), int(row[3])))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return pairs


def write_cases_csv(pairs, path):
    _write_csv(path, CASES_HEADER, ((d, m[0], m[1], n) for (d, m), n in pairs))


def write_larval_truth_csv(truth, path):
    """larval_truth.csv from a (district, (year, month)) -> index map, sorted."""
    _write_csv(path, LARVAL_TRUTH_HEADER,
               ((d, m[0], m[1], v) for (d, m), v in sorted(truth.items())))


RECORDS_HEADER = (
    "district",
    "year",
    "month",
    "temp_mean",
    "rh_mean",
    "rain_total",
    "larval_index",
    "cases",
)


def _fmt(value):
    """Shortest exact decimal form of a float (round-trips via float())."""
    return repr(float(value))


def record_row(r):
    return [
        r.district,
        str(r.month[0]),
        str(r.month[1]),
        _fmt(r.temp_mean),
        _fmt(r.rh_mean),
        _fmt(r.rain_total),
        "" if r.larval_index is None else _fmt(r.larval_index),
        _fmt(r.cases) if isinstance(r.cases, float) else str(r.cases),
    ]


def write_records_csv(records, path, extra_header=(), extra_cells=None):
    """Write records.csv; extra columns (e.g. provenance) may be appended."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(list(RECORDS_HEADER) + list(extra_header))
        for i, r in enumerate(records):
            row = record_row(r)
            if extra_cells is not None:
                row += list(extra_cells[i])
            writer.writerow(row)


def parse_count(text):
    """A case count as record_row writes it: an int, or a float when it has a
    decimal point."""
    return float(text) if "." in text else int(text)


def load_records_csv(path):
    """Read records.csv, or imputed.csv with its trailing provenance column.
    A row that breaks a DistrictMonthRecord rule or repeats a (district,
    month) raises ValidationError naming path:line."""
    records = []
    seen = set()
    headers = (RECORDS_HEADER, RECORDS_HEADER + ("provenance",))
    for lineno, row in read_rows(path, *headers):
        try:
            record = DistrictMonthRecord(
                district=row[0],
                month=(int(row[1]), int(row[2])),
                temp_mean=float(row[3]),
                rh_mean=float(row[4]),
                rain_total=float(row[5]),
                larval_index=float(row[6]) if row[6] != "" else None,
                cases=parse_count(row[7]),
            )
            if (record.district, record.month) in seen:
                raise ValidationError(f"duplicate (district, month) {record._key()}")
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        seen.add((record.district, record.month))
        records.append(record)
    return records
