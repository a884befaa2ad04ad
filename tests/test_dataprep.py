import csv
import dataclasses
import re
from datetime import date

import numpy as np
import pytest

from denguecast.dataprep import (
    CASES_HEADER,
    CLIMATE_HEADER,
    LARVAL_HEADER,
    RAIN_HEADER,
    DistrictMonthRecord,
    Windows,
    aggregate_monthly,
    apply_scaler,
    assemble_records,
    build_windows,
    fit_scaler,
    gap_lines,
    load_cases_csv,
    load_climate_csv,
    load_larval_csv,
    load_rain_csv,
    load_records_csv,
    month_at,
    month_index,
    rain_to_monthly,
    split_dataset,
    weighted_larval_index,
    write_climate_csv,
    write_csv,
    write_larval_truth_csv,
    write_records_csv,
)
from denguecast.errors import PreconditionError, ValidationError
from denguecast.lstm import carve_validation
from denguecast.nn_core import make_rng
from denguecast.specs import ModelSpec

# the window specs of t = 3 under variants I and II
T3_I = ModelSpec(timesteps=3, variant="I")
T3_II = ModelSpec(timesteps=3, variant="II")


def reading(district="D1", day=date(2018, 1, 5), temp=30.0, rh=70.0):
    """One row as dataprep.load_climate_csv streams it."""
    return district, (day.year, day.month), day, temp, rh


def record(district="D1", month=(2018, 1), temp=30.0, rh=70.0, rain=50.0,
           larval=2.0, cases=5):
    return DistrictMonthRecord(district=district, month=month, temp_mean=temp,
                               rh_mean=rh, rain_total=rain, larval_index=larval,
                               cases=cases)


class TestAggregateMonthly:
    def test_mean_of_two(self):
        readings = [
            reading(day=date(2018, 1, 1), temp=30.0),
            reading(day=date(2018, 1, 2), temp=32.0),
        ]
        out = aggregate_monthly(readings)
        assert out[("D1", (2018, 1))][0] == pytest.approx(31.0)

    def test_single_reading_identity(self):
        out = aggregate_monthly([reading(temp=28.5, rh=65.0)])
        t, h = out[("D1", (2018, 1))]
        assert t == 28.5 and h == 65.0

    def test_against_sum_count_oracle(self):
        rng = make_rng(17)
        readings = [
            reading(day=date(2018, 3, d), temp=float(rng.uniform(20, 40)),
                    rh=float(rng.uniform(30, 90)))
            for d in range(1, 32)
        ]
        t_mean, h_mean = aggregate_monthly(readings)[("D1", (2018, 3))]
        t_oracle = sum(r[3] for r in readings) / len(readings)
        h_oracle = sum(r[4] for r in readings) / len(readings)
        assert t_mean == pytest.approx(t_oracle, abs=1e-12)
        assert h_mean == pytest.approx(h_oracle, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValidationError, match="no climate readings"):
            aggregate_monthly([])

    def test_days_sum_in_day_order_however_listed(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in their last bit
        readings = [reading(day=date(2018, 1, d), temp=v, rh=v)
                    for d, v in ((1, 0.1), (2, 0.2), (3, 0.3))]
        want = ((0.1 + 0.2) + 0.3) / 3
        assert aggregate_monthly(readings[::-1])[("D1", (2018, 1))] == (want, want)

    def test_a_repeated_day_raises_however_listed(self):
        readings = [reading(day=date(2018, 1, 2)), reading(day=date(2018, 1, 1)),
                    reading(day=date(2018, 1, 2))]
        with pytest.raises(ValidationError,
                           match="^duplicate climate row for D1 on 2018-01-02$"):
            aggregate_monthly(readings)

    # load_climate_csv checks each row's values as aggregate_monthly reads it
    def read(self, tmp_path, rows):
        path = tmp_path / "climate.csv"
        write_csv(path, CLIMATE_HEADER, rows)
        return aggregate_monthly(load_climate_csv(path))

    def test_invalid_humidity_names_row(self, tmp_path):
        rows = [("D7", "2019-02-02", 30.0, 70.0), ("D7", "2019-02-03", 30.0, 140.0)]
        with pytest.raises(ValidationError, match="climate.csv:3: .*D7.*2019-02-03"):
            self.read(tmp_path, rows)

    def test_nonfinite_temperature(self, tmp_path):
        with pytest.raises(ValidationError, match="climate.csv:2: "):
            self.read(tmp_path, [("D1", "2018-01-05", float("inf"), 70.0)])


class TestRainToMonthly:
    """load_rain_csv assigns each week of a rain.csv to a month, and
    rain_to_monthly sums the weeks of each month."""

    def monthly(self, tmp_path, rows):
        path = tmp_path / "rain.csv"
        write_csv(path, RAIN_HEADER, rows)
        return rain_to_monthly(load_rain_csv(path))

    def test_week_inside_march(self, tmp_path):
        # 2018-W10's Thursday is 2018-03-08
        out = self.monthly(tmp_path, [("D1", 2018, 10, 10.0)])
        assert out[("D1", (2018, 3))] == 10.0

    def test_weeks_sum_in_week_order_however_listed(self, tmp_path):
        # 2018-W10 to W12 are March's; (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
        out = self.monthly(tmp_path, [("D1", 2018, 12, 0.3), ("D1", 2018, 11, 0.2),
                                      ("D1", 2018, 10, 0.1)])
        assert out[("D1", (2018, 3))] == (0.1 + 0.2) + 0.3

    def test_absent_month(self, tmp_path):
        out = self.monthly(tmp_path, [("D1", 2018, 10, 10.0)])
        assert ("D1", (2018, 4)) not in out

    def test_against_thursday_oracle(self, tmp_path):
        rng = make_rng(23)
        weeks = [("D1", 2019, w, float(rng.uniform(0, 80))) for w in range(1, 53)]
        out = self.monthly(tmp_path, weeks)
        oracle = {}
        for district, iso_year, iso_week, rainfall in weeks:
            th = date.fromisocalendar(iso_year, iso_week, 4)
            key = (district, (th.year, th.month))
            oracle[key] = oracle.get(key, 0.0) + rainfall
        assert set(out) == set(oracle)
        for key in oracle:
            assert out[key] == pytest.approx(oracle[key], abs=1e-12)

    def test_week_out_of_range(self, tmp_path):
        with pytest.raises(ValidationError, match="rain.csv:2: invalid ISO week "
                                                  "2018-W54 for D1"):
            self.monthly(tmp_path, [("D1", 2018, 54, 1.0)])

    def test_nonexistent_week_53(self, tmp_path):
        # 2018 has 52 ISO weeks
        with pytest.raises(ValidationError, match="rain.csv:3: invalid ISO week "
                                                  "2018-W53 for D1"):
            self.monthly(tmp_path, [("D1", 2018, 52, 1.0), ("D1", 2018, 53, 1.0)])


class TestWeightedLarvalIndex:
    def test_all_lowest_band(self):
        assert weighted_larval_index(10, 0, 0) == 1.0

    def test_all_highest_band(self):
        assert weighted_larval_index(0, 0, 7) == 3.0

    def test_equal_bands(self):
        # (5*1 + 5*2 + 5*3) / 15 = 2
        assert weighted_larval_index(5, 5, 5) == pytest.approx(2.0, abs=1e-12)

    def test_no_houses(self):
        assert weighted_larval_index(0, 0, 0) is None

    def test_negative_count(self):
        with pytest.raises(ValidationError):
            weighted_larval_index(-1, 0, 0)

    def test_range_and_monotonicity(self):
        rng = make_rng(3)
        for _ in range(200):
            lo, mid, hi = (int(rng.integers(0, 50)) for _ in range(3))
            if lo + mid + hi == 0:
                continue
            v = weighted_larval_index(lo, mid, hi)
            assert 1.0 <= v <= 3.0
            assert weighted_larval_index(lo, mid, hi + 3) >= v


class TestAssembleRecords:
    def _maps(self, districts, months):
        keys = [(d, m) for d in districts for m in months]
        climate = {k: (30.0, 70.0) for k in keys}
        rain = {k: 40.0 for k in keys}
        larval = {k: 2.0 for k in keys}
        cases = {k: 3 for k in keys}
        return climate, rain, larval, cases

    def test_full_grid_scale(self):
        districts = [f"D{i}" for i in range(26)]
        months = [(2014 + mi // 12, mi % 12 + 1) for mi in range(84)]
        climate, rain, larval, cases = self._maps(districts, months)
        records = assemble_records(climate, rain, larval, cases)
        assert len(records) == 2184  # 26 districts x 84 months

    def test_empty_cases(self):
        climate, rain, larval, _ = self._maps(["D1"], [(2018, 1)])
        with pytest.raises(PreconditionError, match="no \\(district, month\\) has"):
            assemble_records(climate, rain, larval, {})

    def test_inner_join_drops_missing_climate(self):
        months = [(2018, 1), (2018, 2), (2018, 3)]
        climate, rain, larval, cases = self._maps(["D1"], months)
        del climate[("D1", (2018, 3))]
        records = assemble_records(climate, rain, larval, cases)
        assert [r.month for r in records] == [(2018, 1), (2018, 2)]

    def test_missing_larval_kept_as_none(self):
        climate, rain, larval, cases = self._maps(["D1"], [(2018, 1)])
        records = assemble_records(climate, rain, {}, cases)
        assert records[0].larval_index is None

    def test_sorted_output(self):
        months = [(2018, 2), (2018, 1)]
        climate, rain, larval, cases = self._maps(["D2", "D1"], months)
        records = assemble_records(climate, rain, larval, cases)
        keys = [(r.district, month_index(r.month)) for r in records]
        assert keys == sorted(keys)

    def test_out_of_range_larval(self):
        climate, rain, _, cases = self._maps(["D1"], [(2018, 1)])
        with pytest.raises(ValidationError):
            assemble_records(climate, rain, {("D1", (2018, 1)): 3.5}, cases)


class TestScaler:
    def test_midpoint(self):
        records = [record(month=(2018, 1), temp=0.0), record(month=(2018, 2), temp=10.0)]
        scaler = fit_scaler(records, ["temp_mean"])
        assert scaler.transform([5.0], ("temp_mean",)).tolist() == [0.5]

    def test_constant_feature_maps_to_zero(self):
        records = [record(month=(2018, m)) for m in (1, 2)]
        scaler = fit_scaler(records, ["temp_mean"])
        out = scaler.transform([[r.temp_mean] for r in records] + [[45.0]])
        assert out.tolist() == [[0.0], [0.0], [0.0]]

    def test_round_trip(self):
        rng = make_rng(8)
        records = [
            record(month=(2018, m + 1), temp=float(rng.uniform(15, 40)),
                   rh=float(rng.uniform(20, 95)), rain=float(rng.uniform(0, 300)),
                   cases=int(rng.integers(0, 60)))
            for m in range(12)
        ]
        features = ["temp_mean", "rh_mean", "rain_total", "cases"]
        scaler = fit_scaler(records, features)
        scaled = scaler.transform([[getattr(r, f) for f in features] for r in records])
        for orig, s in zip(records, scaled):
            for f, value in zip(features, s):
                back = scaler.invert_value(f, value)
                assert back == pytest.approx(getattr(orig, f), abs=1e-12)

    def test_apply_scaler_zero_width_column_and_masked_slot(self):
        # every count is at least 5, so a masked 0 would scale below 0
        records = [dataclasses.replace(r, temp_mean=25.0, cases=r.cases + 5)
                   for r in district_series(n_months=6)]
        windows, _ = build_windows(records, T3_I)
        scaler = fit_scaler(records, T3_I.columns)
        lo, hi = scaler.ranges["cases"]
        assert lo >= 5

        X, y = apply_scaler(scaler, windows)

        assert X.shape == (4, 3, 4)
        assert np.all(X[:, :, 0] == 0.0)  # temp_mean has zero width
        assert np.all(X[:, -1, -1] == 0.0)  # the masked incidence slot
        assert X[:, :-1, -1].tolist() == [
            [(c - lo) / (hi - lo) for c in w.features[:-1, -1]] for w in windows]
        assert y.tolist() == [(w.target - lo) / (hi - lo) for w in windows]
        rain_lo, rain_hi = scaler.ranges["rain_total"]
        assert X[:, :, 2].tolist() == [
            [(v - rain_lo) / (rain_hi - rain_lo) for v in w.features[:, 2]]
            for w in windows]


def district_series(district="D1", n_months=12, start=(2018, 1), larval=True,
                    seed=0):
    rng = make_rng(seed)
    records = []
    y, m = start
    for _ in range(n_months):
        records.append(
            record(district=district, month=(y, m),
                   temp=float(rng.uniform(20, 35)), rh=float(rng.uniform(40, 90)),
                   rain=float(rng.uniform(0, 200)),
                   larval=float(rng.uniform(1, 3)) if larval else None,
                   cases=int(rng.integers(0, 40)))
        )
        m += 1
        if m > 12:
            y, m = y + 1, 1
    return records


def shuffled_districts(seed=0, keep=0.8):
    """Four districts' records, each month kept with probability keep,
    shuffled."""
    rng = make_rng(seed)
    records = []
    for d in range(4):
        series = district_series(f"D{d}", 30, start=(2017, 11), seed=seed + d)
        records += [r for r in series if rng.random() < keep]
    rng.shuffle(records)
    return records


class TestBuildWindows:
    def test_twelve_months_ten_windows(self):
        windows, skipped = build_windows(district_series(n_months=12), T3_I)
        assert len(windows) == 10  # 12 - 3 + 1
        assert skipped == 0

    def test_exactly_t_months(self):
        windows, _ = build_windows(district_series(n_months=3), T3_I)
        assert len(windows) == 1

    def test_variant_column_counts(self):
        records = district_series(n_months=6)
        w1, _ = build_windows(records, T3_I)
        w2, _ = build_windows(records, T3_II)
        assert w2[0].features.shape[1] == w1[0].features.shape[1] + 1
        assert w1[0].features.shape == (3, 4)

    def test_rows_are_consecutive_months_and_masked_slot(self):
        records = district_series(n_months=8, seed=5)
        windows, _ = build_windows(records, T3_II)
        by_month = {r.month: r for r in records}
        for w in windows:
            assert w.features[-1, -1] == 0.0  # masked current-month incidence
            mi = int(w.month)
            for j in range(3):
                month = ((mi - 2 + j) // 12, (mi - 2 + j) % 12 + 1)
                rec = by_month[month]
                assert w.features[j, 0] == rec.temp_mean
                if j < 2:
                    assert w.features[j, -1] == float(rec.cases)
            assert w.target == by_month[month_at(mi)].cases

    def test_gap_skips_windows(self):
        records = district_series(n_months=8)
        # remove (2018, 4): windows targeting months 4..6 are unbuildable
        records = [r for r in records if r.month != (2018, 4)]
        windows, skipped = build_windows(records, T3_I)
        assert len(windows) == 3  # targets (2018,3), (2018,7), (2018,8)
        assert skipped == 2  # targets (2018,5), (2018,6)
        assert gap_lines(records) == ["D1: gap between 2018-03 and 2018-05"]

    def test_per_district_independent(self):
        records = district_series("A", 6) + district_series("B", 5, seed=2)
        windows, _ = build_windows(records, T3_I)
        assert sum(1 for w in windows if w.district == "A") == 4
        assert sum(1 for w in windows if w.district == "B") == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_windows_and_gap_lines_follow_random_gaps(self, seed):
        # each district keeps a random subset of 30 months, often none or one
        records = shuffled_districts(seed, keep=0.7)
        months = {}
        for r in records:
            months.setdefault(r.district, []).append(month_index(r.month))
        for t in range(2, 6):
            spec = ModelSpec(timesteps=t, variant="II")
            windows, skipped = build_windows(records, spec)
            assert len(windows) + skipped == sum(
                max(0, len(m) - t + 1) for m in months.values())
        expected = []
        for district in sorted(months):
            idx = sorted(months[district])
            expected += [f"{district}: gap between {a // 12:04d}-{a % 12 + 1:02d} "
                         f"and {b // 12:04d}-{b % 12 + 1:02d}"
                         for a, b in zip(idx, idx[1:]) if b - a > 1]
        assert gap_lines(records) == (expected or ["no gaps"])

    def test_no_district_with_t_consecutive_months(self):
        # too few months in one district, and a gap in the other
        records = district_series("A", 2) + [
            r for r in district_series("B", 5) if r.month != (2018, 3)]
        with pytest.raises(ValidationError, match=(
                r"^no district has 3 consecutive months \(the model's timesteps\) "
                r"to make a window from$")):
            build_windows(records, T3_I)

    def test_variant_ii_missing_larval(self):
        records = district_series("D9", 6, larval=False)
        with pytest.raises(PreconditionError, match="larval index missing.*D9"):
            build_windows(records, T3_II)


def synthetic_windows(n, start=(2014, 1)):
    """n windows in (target month, district) order, three districts a month."""
    i = np.arange(n)
    return Windows(features=np.zeros((n, 3, 4)), target=i,
                   district=np.array(["D1", "D2", "D3"])[i % 3],
                   month=month_index(start) + i // 3)


class TestWindowsContract:
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_in_target_month_then_district_order(self, seed):
        # built from shuffled records of districts with gaps, the rows come
        # out in (target month, district) order, each row its record's window
        records = shuffled_districts(seed)
        windows, _ = build_windows(records, T3_II)
        keys = list(zip(windows.month.tolist(), windows.district.tolist()))
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        by_key = {(r.district, month_index(r.month)): r for r in records}
        for w in windows:
            rec = by_key[(str(w.district), int(w.month))]
            assert w.target == rec.cases
            assert w.features[-1].tolist() == [rec.temp_mean, rec.rh_mean,
                                               rec.rain_total, rec.larval_index, 0.0]

    def test_an_int_index_is_one_window(self):
        windows, _ = build_windows(shuffled_districts(), T3_II)
        w = windows[5]
        assert w.features.shape == (3, 5)
        assert w.features.tobytes() == windows.features[5].tobytes()
        assert (w.target, w.district, w.month) == (
            windows.target[5], windows.district[5], windows.month[5])
        # the read perfbench's tracer makes of a train split
        train, _ = split_dataset(windows, 0.85)
        assert carve_validation(train, 0.15)[0][0].features.shape == (3, 5)

    def test_split_and_carve_are_views_of_the_built_arrays(self):
        windows, _ = build_windows(shuffled_districts(), T3_II)
        train, test = split_dataset(windows, 0.85)
        parts = [test, *carve_validation(train, 0.15)]
        for part in parts:
            for name in ("features", "target", "district", "month"):
                assert np.shares_memory(getattr(part, name), getattr(windows, name))
        assert sum(map(len, parts)) == len(windows)
        assert np.concatenate([p.target for p in parts[1:] + parts[:1]]).tolist() == (
            windows.target.tolist())


class TestSplitDataset:
    def test_floor_arithmetic_2184(self):
        train, test = split_dataset(synthetic_windows(2184), 0.85)
        assert len(train) == 1856  # floor(0.85 * 2184)
        assert len(test) == 328

    def test_twenty_windows(self):
        train, test = split_dataset(synthetic_windows(20), 0.85)
        assert (len(train), len(test)) == (17, 3)

    def test_single_window_rejected(self):
        with pytest.raises(PreconditionError, match="empty training split"):
            split_dataset(synthetic_windows(1), 0.85)

    @pytest.mark.parametrize("seed", range(3))
    def test_no_temporal_leakage(self, seed):
        # build_windows' row order, not a sort in the split, keeps every test
        # target month at or after every train one
        windows, _ = build_windows(shuffled_districts(seed), T3_II)
        train, test = split_dataset(windows, 0.85)
        assert len(set(windows.district.tolist())) == 4
        assert min(test.month) >= max(train.month)

    def test_partition(self):
        windows = synthetic_windows(50)
        train, test = split_dataset(windows, 0.6)
        assert (len(train), len(test)) == (30, 20)
        assert train.target.tolist() + test.target.tolist() == list(range(50))


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        records = district_series(n_months=5) + district_series("D2", 4, larval=False,
                                                                seed=9)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        loaded = load_records_csv(path)
        assert loaded == records

    def test_gap_detection(self):
        records = [r for r in district_series(n_months=6) if r.month != (2018, 3)]
        assert gap_lines(records) == ["D1: gap between 2018-02 and 2018-04"]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("nope\n1\n")
        with pytest.raises(ValidationError):
            load_records_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_records_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: empty file")):
            load_records_csv(path)

    def test_blank_line_is_skipped_but_counted(self, tmp_path):
        records = district_series(n_months=3)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:2] + ["\r\n"] + lines[2:]), encoding="utf-8")
        assert load_records_csv(path) == records
        # the row after the blank line is line 4 of the file
        path.write_text("".join(lines[:2] + ["\r\n", "x\r\n"] + lines[2:]),
                        encoding="utf-8")
        with pytest.raises(ValidationError, match=":4: wrong column count"):
            load_records_csv(path)

    def test_wrong_cell_count(self, tmp_path):
        records = district_series(n_months=2)
        path = tmp_path / "imputed.csv"
        # second row lacks its provenance cell
        write_records_csv(records, path, extra_header=("provenance",),
                          extra_cells=[("observed",), ()])
        with pytest.raises(ValidationError, match=":3: wrong column count"):
            load_records_csv(path)
        # a cell beyond the records.csv header
        write_records_csv(records, path, extra_cells=[("x",), ("x",)])
        with pytest.raises(ValidationError, match=":2: wrong column count"):
            load_records_csv(path)


class TestRawCsv:
    def test_climate_round_trip(self, tmp_path):
        temps, hums = np.array([30.0, 31.5, 29.25]), np.array([60.0, 100.0, 0.0])
        path = tmp_path / "climate.csv"
        write_climate_csv([("D1", (2016, 2), temps[:2], hums[:2]),
                           ("D2", (2016, 2), temps, hums)], path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            "district,date,temp_c,rh_pct",
            "D1,2016-02-01,30.0,60.0",
            "D1,2016-02-02,31.5,100.0",
            "D2,2016-02-01,30.0,60.0",
            "D2,2016-02-02,31.5,100.0",
            "D2,2016-02-03,29.25,0.0",
        ]
        rows = load_climate_csv(path)
        assert next(rows) == ("D1", (2016, 2), date(2016, 2, 1), 30.0, 60.0)
        assert aggregate_monthly(rows) == {
            ("D1", (2016, 2)): (31.5, 100.0),
            ("D2", (2016, 2)): ((30.0 + 31.5 + 29.25) / 3, 160.0 / 3),
        }

    def test_climate_writer_matches_csv_writer(self, tmp_path):
        # floats whose repr takes an exponent, a sign, a subnormal or 17 digits
        values = [1e-05, 1e16, -0.0, 0.0, 100.0, 5e-324, 0.1 + 0.2]
        blocks = []
        for month, n_days in (((2015, 2), 28), ((2016, 2), 29), ((2016, 3), 31)):
            temps = np.resize(values, n_days)
            hums = np.resize(values[::-1], n_days)
            blocks.append((f"D{n_days}", month, temps, hums))
        path, expected = tmp_path / "climate.csv", tmp_path / "expected.csv"
        write_climate_csv(blocks, path)
        with open(expected, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(CLIMATE_HEADER)
            for district, (y, m), temps, hums in blocks:
                writer.writerows(
                    (district, date(y, m, d + 1).isoformat(), t, h)
                    for d, (t, h) in enumerate(zip(temps.tolist(), hums.tolist())))
        assert path.read_bytes() == expected.read_bytes()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + 28 + 29 + 31

    def test_climate_loader_reads_lazily(self, tmp_path):
        rows = load_climate_csv(tmp_path / "absent.csv")
        with pytest.raises(ValidationError, match="cannot read"):
            next(rows)

    def test_rain_larval_cases_round_trip(self, tmp_path):
        # rows as synth writes them, read back as prepare joins them
        for name, header, rows in (
            ("rain.csv", RAIN_HEADER, [("D1", 2018, 1, 12.5), ("D2", 2020, 53, 0.1)]),
            ("larval.csv", LARVAL_HEADER, [("D1", 2018, 1, 90, 10, 0),
                                           ("D1", 2018, 2, 0, 0, 0)]),
            ("cases.csv", CASES_HEADER, [("D1", 2018, 2, 5), ("D1", 2018, 1, 4)]),
        ):
            write_csv(tmp_path / name, header, rows)
        assert (tmp_path / "rain.csv").read_text(encoding="utf-8") == (
            "district,iso_year,iso_week,rain_mm\nD1,2018,1,12.5\nD2,2020,53,0.1\n")
        # each week in the month of its Thursday: 2018-01-04 and 2020-12-31
        assert load_rain_csv(tmp_path / "rain.csv") == [
            ("D1", (2018, 1), (2018, 1), 12.5), ("D2", (2020, 12), (2020, 53), 0.1)]
        # a survey of no house leaves its month out
        assert load_larval_csv(tmp_path / "larval.csv") == {("D1", (2018, 1)): 1.1}
        assert list(load_cases_csv(tmp_path / "cases.csv").items()) == [
            (("D1", (2018, 2)), 5), (("D1", (2018, 1)), 4)]

    @pytest.mark.parametrize("load,header,row", [
        (load_cases_csv, CASES_HEADER, ("D1", 2018, 1, 4)),
        (load_larval_csv, LARVAL_HEADER, ("D1", 2018, 1, 90, 10, 0)),
    ], ids=["cases", "larval"])
    def test_duplicate_key(self, load, header, row, tmp_path):
        path = tmp_path / "raw.csv"
        write_csv(path, header, [row, row])
        with pytest.raises(ValidationError,
                           match=r"raw.csv:3: duplicate \(district, month\) D1 2018-01$"):
            load(path)

    def test_larval_truth_sorted(self, tmp_path):
        path = tmp_path / "larval_truth.csv"
        write_larval_truth_csv({("D2", (2018, 1)): 1.5, ("D1", (2018, 10)): 2.25,
                                ("D1", (2018, 2)): 3.0}, path)
        assert path.read_text(encoding="utf-8") == (
            "district,year,month,larval_index\n"
            "D1,2018,2,3.0\nD1,2018,10,2.25\nD2,2018,1,1.5\n"
        )
