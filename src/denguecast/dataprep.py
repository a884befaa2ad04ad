"""Ingestion and supervised framing of district-month records.

Raw inputs are daily climate readings, weekly rainfall, monthly larval
surveys and monthly case counts. They are aggregated to district-month
resolution, joined into DistrictMonthRecord rows, windowed into (timesteps x
features) supervised samples, one Windows of arrays in (target month,
district) order, and split chronologically by a slice. Records and windows
hold values as read: apply_scaler, the one scaler of model inputs and
targets, min-max scales a Windows with a model's Scaler.

A raw row is a tuple in header order. Each loader parses its rows through
read_rows, the one place a bad row is named (path:line), and returns what
prepare joins. The daily climate table is the only large one, so it is never
held as one object per day: load_climate_csv checks its rows as it streams
them straight into aggregate_monthly, and write_climate_csv writes it from
per-month arrays.

Months are (year, month) tuples everywhere; the calendar section holds their
arithmetic, their "YYYY-MM" text and week_month, the one rule for the month
an ISO week belongs to. month_spans is the one gap scan: it yields each run
of t records in a district's month order and says whether their months are
consecutive, and both gap_report.txt (gap_lines) and the windows
(build_windows) are read from it. All functions apart from the CSV loaders
and writers are pure.

Everything prepare runs, from the loaders to records.csv and the gap report,
is plain Python, so prepare runs without numpy: on a 2-vCPU VM a bare
interpreter starts in 0.04 s and one that imports numpy in 0.1 s. The two
array users, Scaler.transform and build_windows, import numpy where they run.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from datetime import date
from typing import TYPE_CHECKING

from .errors import PreconditionError, ValidationError

if TYPE_CHECKING:  # the two array users import numpy where they run
    import numpy as np

CLIMATE_FEATURES = ("temp_mean", "rh_mean", "rain_total")
VARIANTS = ("I", "II")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class DistrictMonthRecord:
    """One district-month, its case count an int. Its rules are checked here,
    so they hold however it is built: from raw files or from records.csv."""
    district: str
    month: tuple[int, int]
    temp_mean: float
    rh_mean: float
    rain_total: float
    larval_index: float | None
    cases: int

    def __post_init__(self):
        for name in CLIMATE_FEATURES:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"non-finite {name} for {self._key()}")
        if not 0.0 <= self.rh_mean <= 100.0:
            raise ValidationError(
                f"rh_mean {self.rh_mean} outside [0, 100] for {self._key()}")
        if self.rain_total < 0:
            raise ValidationError(
                f"rain_total {self.rain_total} for {self._key()} is not >= 0")
        if self.cases < 0:
            raise ValidationError(f"case count {self.cases} for {self._key()} is not >= 0")
        if self.larval_index is not None and not 1.0 <= self.larval_index <= 3.0:
            raise ValidationError(
                f"larval index {self.larval_index} outside [1, 3] for {self._key()}")

    def _key(self):
        return f"{self.district} {month_text(self.month)}"


@dataclass(frozen=True, eq=False)  # == on arrays would compare elementwise
class Windows:
    """Row-aligned arrays in (target month, district) order. An index applies
    to each: a slice is a Windows of views, an int one (t, F) window."""
    features: np.ndarray  # (N, t, F) float64, unscaled; current-month incidence 0
    target: np.ndarray  # (N,) the target month's case count, an int
    district: np.ndarray  # (N,) str
    month: np.ndarray  # (N,) the target month's month_index

    def __len__(self):
        return len(self.target)

    def __getitem__(self, key):
        return Windows(self.features[key], self.target[key], self.district[key],
                       self.month[key])


@dataclass
class PreparedData:
    """A run's data, as experiments.make_supervised prepares it."""
    train: Windows  # the chronological split, train then test
    test: Windows
    scaler: Scaler  # fitted on the training-period records
    skipped: int  # windows that would span a month gap


# ---------------------------------------------------------------------------
# calendar


def month_index(month):
    """Months since year 0, for chronological arithmetic."""
    year, m = month
    return year * 12 + (m - 1)


def month_at(index):
    """The (year, month) of a month_index."""
    year, m = divmod(index, 12)
    return year, m + 1


def month_text(month):
    """A month as "YYYY-MM", the one way messages and reports write it."""
    return f"{month[0]:04d}-{month[1]:02d}"


def week_month(iso_year, iso_week):
    """The (year, month) that owns an ISO week: the month of its Thursday,
    the standard convention. A week that does not exist raises ValueError."""
    thursday = date.fromisocalendar(iso_year, iso_week, 4)
    return thursday.year, thursday.month


def month_spans(records, t):
    """(district, span, whole) for every t records that follow one another in
    a district's month order, districts sorted; whole says whether the span's
    months are t consecutive months.

    This is the one gap scan: gap_lines and build_windows both read it, and
    no other code compares neighbouring months. A district's months are
    distinct, as assemble_records and load_records_csv guarantee.
    """
    by_district = {}
    for r in records:
        by_district.setdefault(r.district, []).append(r)
    for district in sorted(by_district):
        rows = sorted(by_district[district], key=lambda r: month_index(r.month))
        idx = [month_index(r.month) for r in rows]
        for i in range(t - 1, len(rows)):
            yield district, rows[i - t + 1 : i + 1], idx[i] - idx[i - t + 1] == t - 1


def gap_lines(records):
    """The lines of gap_report.txt: one per pair of neighbouring records of a
    district whose months are not consecutive, or "no gaps"."""
    return [f"{district}: gap between {month_text(a.month)} and {month_text(b.month)}"
            for district, (a, b), whole in month_spans(records, 2)
            if not whole] or ["no gaps"]


# ---------------------------------------------------------------------------
# aggregation


_MONTH_SLOTS = bytes(8 * 32)  # 32 zero doubles: a slot per day, 1-31


def aggregate_monthly(rows):
    """Arithmetic mean of daily temperature/humidity per (district, month).

    rows are (district, (year, month), date, temperature, humidity) tuples,
    as load_climate_csv streams and checks them, in any order. A month holds
    its readings in one slot per day (a bitmask marks the days read, and the
    first repeated row raises), and each sum adds the slots in day order, so
    the means do not depend on how the file lists its rows. An unread slot
    holds 0.0, which leaves a sum that starts at 0.0 unchanged.
    """
    days = {}
    for district, month, day, temperature, humidity in rows:
        acc = days.get((district, month))
        if acc is None:
            acc = days[(district, month)] = [array("d", _MONTH_SLOTS),
                                             array("d", _MONTH_SLOTS), 0]
        d = day.day
        if acc[2] >> d & 1:
            raise ValidationError(
                f"duplicate climate row for {district} on {day.isoformat()}")
        acc[0][d] = temperature
        acc[1][d] = humidity
        acc[2] |= 1 << d
    if not days:
        raise ValidationError("no climate readings")
    means = {}
    for key, (temperatures, humidities, read) in days.items():
        # a loop, not sum(): from Python 3.12 sum() compensates float sums
        t = h = 0.0
        for temperature, humidity in zip(temperatures, humidities):
            t += temperature
            h += humidity
        n = read.bit_count()
        means[key] = (t / n, h / n)
    return means


def rain_to_monthly(rows):
    """Total rainfall per (district, month) of load_rain_csv's rows, each
    total summed in (ISO year, week) order, however the rows are listed."""
    weeks = {}
    for district, month, week, rainfall in rows:
        weeks.setdefault((district, month), []).append((week, rainfall))
    totals = {}
    for key, listed in weeks.items():
        total = 0.0
        for _, rainfall in sorted(listed):
            total += rainfall
        totals[key] = total
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


def assemble_records(climate, rain, larval, cases):
    """Inner-join climate, rainfall and cases; attach larval index if surveyed.

    The four dicts are keyed by (district, (year, month)), as
    aggregate_monthly, rain_to_monthly, load_larval_csv and load_cases_csv
    return them. Output is sorted by district then month. Files that share
    no (district, month) across climate, rain and cases raise
    PreconditionError: each may be valid, but nothing can be prepared.
    """
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
    if not records:
        raise PreconditionError(
            "no (district, month) has climate, rain and cases together")
    records.sort(key=lambda r: (r.district, month_index(r.month)))
    return records


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
        import numpy as np

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
    """Fit per-feature min-max ranges; fit only on training-period records.

    records is not empty (load_records_csv refuses a file without any) and
    sets every feature (build_windows refuses a missing larval index).
    """
    values = {f: [getattr(r, f) for r in records] for f in feature_set}
    return Scaler(ranges={f: (float(min(v)), float(max(v))) for f, v in values.items()})


def apply_scaler(scaler, windows):
    """(X, y) for a model from a Windows: X (B, t, F) its features and y its
    targets, both min-max scaled by the model's scaler, whose ranges are in
    window column order (incidence last). The masked current-month incidence
    slot stays 0.

    This is the one place model inputs and targets are scaled; lstm.train
    and lstm.predict_batch call it, so a model learns and predicts in scaled
    units, experiments.evaluate takes the scaled MSE against this y and maps
    predictions back to counts (Scaler.invert_value on "cases").
    """
    X = scaler.transform(windows.features)
    X[:, -1, -1] = 0.0  # zero after scaling: a scaled 0 count need not be 0
    y = scaler.transform(windows.target, ("cases",))
    return X, y


# ---------------------------------------------------------------------------
# supervised framing


def build_windows(records, spec):
    """Slide a spec.timesteps-month window over each district's records.

    Every row of a window carries the records' values of spec.columns,
    unscaled; the current-month row's incidence is masked, fixed at 0, so
    all rows share one schema. The target is the current month's incidence.
    A span of month_spans that crosses a month gap is skipped and counted.
    Of spec, a specs.ModelSpec, only columns and timesteps are read.

    Returns (Windows, number of windows skipped); records in which no
    district has that many consecutive months raise ValidationError.
    """
    import numpy as np

    if "larval_index" in spec.columns:
        missing = sorted({r.district for r in records if r.larval_index is None})
        if missing:
            raise PreconditionError(
                "larval index missing for districts: " + ", ".join(missing)
            )

    scan = list(month_spans(records, spec.timesteps))
    spans = [span for _, span, whole in scan if whole]
    if not spans:
        raise ValidationError(
            f"no district has {spec.timesteps} consecutive months (the model's "
            "timesteps) to make a window from")
    # month_spans walks districts in sorted order, so a stable sort on the
    # target month alone puts the rows in (target month, district) order
    spans.sort(key=lambda span: month_index(span[-1].month))
    features = np.stack([np.array([[getattr(r, c) for c in spec.columns] for r in span],
                                  dtype=np.float64) for span in spans])
    features[:, -1, -1] = 0.0  # the current month's incidence is masked
    last = [span[-1] for span in spans]
    return Windows(features, np.array([r.cases for r in last]),
                   np.array([r.district for r in last]),
                   np.array([month_index(r.month) for r in last])), len(scan) - len(spans)


def split_dataset(windows, ratio):
    """Chronological split: (train, test), the slices before and after the
    first floor(ratio * n) windows, so no test target month precedes a train
    one. windows are build_windows', never empty; ratio is a
    specs.ModelSpec's, which checks it."""
    n_train = int(math.floor(ratio * len(windows)))
    if n_train == 0:
        raise PreconditionError(f"ratio {ratio} leaves an empty training split")
    return windows[:n_train], windows[n_train:]


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
# A case count is an int in every file; a count cell such as "12.5" is a bad row.
#
# The raw files end each line in a bare newline, records.csv in "\r\n".
#
# A raw row is a tuple in header order, as synth writes it (write_csv). Each
# loader passes read_rows a parse of one row; a ValueError or ValidationError
# it raises is named path:line there. A raw loader returns what prepare joins:
# climate rows for aggregate_monthly, rain rows for rain_to_monthly, and the
# larval and cases maps for assemble_records.

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


def write_csv(path, header, rows):
    """Stream csv_text(header, rows) into the file at path."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path, parse, *headers):
    """Yield parse(cells) for each non-blank row after the header.

    The header must equal one of headers. A row with another number of cells,
    or one whose parse raises ValueError or ValidationError, raises
    ValidationError naming path:line; no loader names a row itself.
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
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            try:
                if len(cells) != width:
                    raise ValidationError("wrong column count")
                row = parse(cells)
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            yield row


def parse_month(year_text, month_text):
    """(year, month) of a row's year and month cells; a month outside 1-12
    raises."""
    year, month = int(year_text), int(month_text)
    if not 1 <= month <= 12:
        raise ValidationError(f"month {month} outside [1, 12]")
    return year, month


def new_key(seen, district, month):
    """(district, month), added to the set seen; a key already in it raises,
    so a file holds each district-month once. Loaders check a row's cells
    first, so a bad cell is reported before a repeat."""
    key = (district, month)
    if key in seen:
        raise ValidationError(f"duplicate (district, month) {district} {month_text(month)}")
    seen.add(key)
    return key


def load_climate_csv(path):
    """Stream climate.csv as (district, (year, month), date, temperature,
    humidity) tuples for aggregate_monthly. A non-finite temperature or a
    humidity outside [0, 100] raises.

    Nothing is read until the stream is. Each distinct date text is parsed
    once; the rows of one date share its date and month objects.
    """
    days = {}

    def parse(cells):
        district, day_text, temp_text, rh_text = cells
        day = days.get(day_text)
        if day is None:
            d = date.fromisoformat(day_text)
            day = days[day_text] = ((d.year, d.month), d)
        temperature, humidity = float(temp_text), float(rh_text)
        if not math.isfinite(temperature):
            raise ValidationError(
                f"non-finite temperature for {district} on {day[1].isoformat()}")
        if not 0.0 <= humidity <= 100.0:
            raise ValidationError(
                f"relative humidity {humidity} outside [0, 100] "
                f"for {district} on {day[1].isoformat()}")
        return district, day[0], day[1], temperature, humidity

    return read_rows(path, parse, CLIMATE_HEADER)


def write_climate_csv(blocks, path):
    """climate.csv from (district, (year, month), temperatures, humidities)
    blocks, where the two arrays hold the month's days from the 1st on.

    It formats each month's lines itself and writes them in one call, because
    sending the default bundle's 66k rows one by one through csv.writer cost
    about a third more than the float reprs themselves. The bytes are
    csv.writer's: no cell can need quoting (districts are names like D01,
    dates are ISO text, numbers are float reprs) and lines end in "\n", as
    write_csv's do.
    """
    day_texts = {}
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(CLIMATE_HEADER) + "\n")
        for district, (y, m), temps, hums in blocks:
            texts = day_texts.get((y, m, len(temps)))
            if texts is None:
                texts = day_texts[(y, m, len(temps))] = [
                    date(y, m, d).isoformat() for d in range(1, len(temps) + 1)
                ]
            f.write("".join([f"{district},{day},{t!r},{h!r}\n" for day, t, h
                             in zip(texts, temps.tolist(), hums.tolist())]))


def load_rain_csv(path):
    """rain.csv as (district, (year, month), (iso_year, iso_week), rainfall)
    rows for rain_to_monthly, in file order.

    Each ISO week is assigned to its week_month. A week that does not exist,
    a rainfall that is not a finite number >= 0 or a repeated (district,
    iso_year, iso_week) raises.
    """
    seen = set()

    def parse(cells):
        district, year_text, week_text, rain_text = cells
        year, week, rainfall = int(year_text), int(week_text), float(rain_text)
        try:
            month = week_month(year, week)
        except ValueError as exc:
            raise ValidationError(
                f"invalid ISO week {year}-W{week:02d} for {district}: {exc}") from None
        if not 0 <= rainfall < math.inf:
            raise ValidationError(
                f"rainfall {rainfall} for {district} is not a finite number >= 0")
        if (district, year, week) in seen:
            raise ValidationError(
                f"duplicate rain row for {district} in {year}-W{week:02d}")
        seen.add((district, year, week))
        return district, month, (year, week), rainfall

    return list(read_rows(path, parse, RAIN_HEADER))


def load_larval_csv(path):
    """larval.csv as {(district, (year, month)): weighted larval index} for
    the surveyed months; a month whose survey inspected no house is left out."""
    seen = set()

    def parse(cells):
        district, year, month, n_low, n_mid, n_high = cells
        month = parse_month(year, month)
        index = weighted_larval_index(int(n_low), int(n_mid), int(n_high))
        return new_key(seen, district, month), index

    return {key: index for key, index in read_rows(path, parse, LARVAL_HEADER)
            if index is not None}


def load_cases_csv(path):
    """cases.csv as {(district, (year, month)): count}, in file order; a
    negative count raises."""
    seen = set()

    def parse(cells):
        district, year, month, count = cells
        month, count = parse_month(year, month), int(count)
        if count < 0:
            raise ValidationError(f"case count {count} for {district} is not >= 0")
        return new_key(seen, district, month), count

    return dict(read_rows(path, parse, CASES_HEADER))


def write_larval_truth_csv(truth, path):
    """larval_truth.csv from a (district, (year, month)) -> index map, sorted."""
    write_csv(path, LARVAL_TRUTH_HEADER,
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
        str(r.cases),
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


def load_records_csv(path):
    """Read records.csv, or imputed.csv with its trailing provenance column.
    A row that breaks a DistrictMonthRecord rule or repeats a (district,
    month) raises, and so does a file without records."""
    seen = set()

    def parse(cells):
        district, year, month, temp_mean, rh_mean, rain_total, larval, cases = cells[:8]
        record = DistrictMonthRecord(
            district=district,
            month=parse_month(year, month),
            temp_mean=float(temp_mean),
            rh_mean=float(rh_mean),
            rain_total=float(rain_total),
            larval_index=float(larval) if larval != "" else None,
            cases=int(cases),
        )
        new_key(seen, district, record.month)
        return record

    headers = (RECORDS_HEADER, RECORDS_HEADER + ("provenance",))
    records = list(read_rows(path, parse, *headers))
    if not records:
        raise ValidationError(f"{path}: no records")
    return records
