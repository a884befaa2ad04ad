import dataclasses
from datetime import date

import numpy as np
import pytest

from denguecast.dataprep import (
    CLIMATE_FEATURES,
    DistrictMonthRecord,
    SupervisedWindow,
    WeeklyRainfall,
    aggregate_monthly,
    apply_scaler,
    assemble_records,
    build_windows,
    detect_gaps,
    fit_scaler,
    LarvalSurvey,
    load_cases_csv,
    load_climate_csv,
    load_larval_csv,
    load_rain_csv,
    load_records_csv,
    month_index,
    rain_to_monthly,
    split_dataset,
    weighted_larval_index,
    window_columns,
    write_cases_csv,
    write_climate_csv,
    write_larval_csv,
    write_larval_truth_csv,
    write_rain_csv,
    write_records_csv,
)
from denguecast.errors import PreconditionError, ValidationError
from denguecast.nn_core import make_rng


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

    def test_invalid_humidity_names_row(self):
        bad = reading(district="D7", day=date(2019, 2, 3), rh=140.0)
        with pytest.raises(ValidationError, match="D7.*2019-02-03"):
            aggregate_monthly([bad])

    def test_nonfinite_temperature(self):
        with pytest.raises(ValidationError):
            aggregate_monthly([reading(temp=float("inf"))])


class TestRainToMonthly:
    def test_week_inside_march(self):
        # 2018-W10's Thursday is 2018-03-08
        weeks = [WeeklyRainfall("D1", 2018, 10, 10.0)]
        out = rain_to_monthly(weeks)
        assert out[("D1", (2018, 3))] == 10.0

    def test_absent_month(self):
        out = rain_to_monthly([WeeklyRainfall("D1", 2018, 10, 10.0)])
        assert ("D1", (2018, 4)) not in out

    def test_against_thursday_oracle(self):
        rng = make_rng(23)
        weeks = [
            WeeklyRainfall("D1", 2019, w, float(rng.uniform(0, 80)))
            for w in range(1, 53)
        ]
        out = rain_to_monthly(weeks)
        oracle = {}
        for w in weeks:
            th = date.fromisocalendar(w.iso_year, w.iso_week, 4)
            key = ("D1", (th.year, th.month))
            oracle[key] = oracle.get(key, 0.0) + w.rainfall
        assert set(out) == set(oracle)
        for key in oracle:
            assert out[key] == pytest.approx(oracle[key], abs=1e-12)

    def test_week_out_of_range(self):
        with pytest.raises(ValidationError):
            rain_to_monthly([WeeklyRainfall("D1", 2018, 54, 1.0)])

    def test_nonexistent_week_53(self):
        # 2018 has 52 ISO weeks
        with pytest.raises(ValidationError):
            rain_to_monthly([WeeklyRainfall("D1", 2018, 53, 1.0)])


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
        assert assemble_records(climate, rain, larval, {}) == []

    def test_inner_join_drops_missing_climate(self):
        months = [(2018, 1), (2018, 2), (2018, 3)]
        climate, rain, larval, cases = self._maps(["D1"], months)
        del climate[("D1", (2018, 3))]
        records = assemble_records(climate, rain, larval, cases)
        assert [r.month for r in records] == [(2018, 1), (2018, 2)]

    def test_duplicate_key(self):
        climate, rain, larval, cases = self._maps(["D1"], [(2018, 1)])
        case_pairs = [(k, v) for k, v in cases.items()] * 2
        with pytest.raises(ValidationError, match=r"duplicate \(district, month\).*D1"):
            assemble_records(climate, rain, larval, case_pairs)

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
        windows, _ = build_windows(records, 3, "I")
        scaler = fit_scaler(records, window_columns(CLIMATE_FEATURES, "I"))
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


class TestBuildWindows:
    def test_twelve_months_ten_windows(self):
        windows, skipped = build_windows(district_series(n_months=12), 3, "I")
        assert len(windows) == 10  # 12 - 3 + 1
        assert skipped == 0

    def test_exactly_t_months(self):
        windows, _ = build_windows(district_series(n_months=3), 3, "I")
        assert len(windows) == 1

    def test_variant_column_counts(self):
        records = district_series(n_months=6)
        w1, _ = build_windows(records, 3, "I")
        w2, _ = build_windows(records, 3, "II")
        assert w2[0].features.shape[1] == w1[0].features.shape[1] + 1
        assert w1[0].features.shape == (3, 4)

    def test_rows_are_consecutive_months_and_masked_slot(self):
        records = district_series(n_months=8, seed=5)
        windows, _ = build_windows(records, 3, "II")
        by_month = {r.month: r for r in records}
        for w in windows:
            assert w.features[-1, -1] == 0.0  # masked current-month incidence
            mi = month_index(w.target_month)
            for j in range(3):
                month = ((mi - 2 + j) // 12, (mi - 2 + j) % 12 + 1)
                rec = by_month[month]
                assert w.features[j, 0] == rec.temp_mean
                if j < 2:
                    assert w.features[j, -1] == float(rec.cases)
            assert w.target == float(by_month[w.target_month].cases)

    def test_gap_skips_windows(self):
        records = district_series(n_months=8)
        # remove (2018, 4): windows targeting months 4..6 are unbuildable
        records = [r for r in records if r.month != (2018, 4)]
        windows, skipped = build_windows(records, 3, "I")
        assert len(windows) == 3  # targets (2018,3), (2018,7), (2018,8)
        assert skipped == 2  # targets (2018,5), (2018,6)
        assert detect_gaps(records).gaps == [("D1", (2018, 3), (2018, 5))]

    def test_per_district_independent(self):
        records = district_series("A", 6) + district_series("B", 5, seed=2)
        windows, _ = build_windows(records, 3, "I")
        assert sum(1 for w in windows if w.district == "A") == 4
        assert sum(1 for w in windows if w.district == "B") == 3

    def test_variant_ii_missing_larval(self):
        records = district_series("D9", 6, larval=False)
        with pytest.raises(PreconditionError, match="larval index missing.*D9"):
            build_windows(records, 3, "II")


def synthetic_windows(n, start=(2014, 1)):
    """n windows with distinct target months across several districts."""
    out = []
    y, m = start
    districts = ["D1", "D2", "D3"]
    for i in range(n):
        out.append(
            SupervisedWindow(
                features=np.zeros((3, 4)), target=float(i),
                district=districts[i % 3],
                target_month=(y + (m - 1 + i // 3) // 12, (m - 1 + i // 3) % 12 + 1),
            )
        )
    return out


class TestSplitDataset:
    def test_floor_arithmetic_2184(self):
        split = split_dataset(synthetic_windows(2184), 0.85)
        assert len(split.train) == 1856  # floor(0.85 * 2184)
        assert len(split.test) == 328

    def test_twenty_windows(self):
        split = split_dataset(synthetic_windows(20), 0.85)
        assert (len(split.train), len(split.test)) == (17, 3)

    def test_single_window_rejected(self):
        with pytest.raises(PreconditionError, match="empty training split"):
            split_dataset(synthetic_windows(1), 0.85)

    def test_empty(self):
        with pytest.raises(ValidationError, match="no windows to split"):
            split_dataset([], 0.85)

    def test_no_temporal_leakage(self):
        split = split_dataset(synthetic_windows(100), 0.85)
        max_train = max(month_index(w.target_month) for w in split.train)
        min_test = min(month_index(w.target_month) for w in split.test)
        assert min_test >= max_train

    def test_partition(self):
        windows = synthetic_windows(50)
        split = split_dataset(windows, 0.6)
        ids = sorted(id(w) for w in split.train + split.test)
        assert ids == sorted(id(w) for w in windows)
        assert not set(map(id, split.train)) & set(map(id, split.test))


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
        report = detect_gaps(records)
        assert report.gaps == [("D1", (2018, 2), (2018, 4))]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("nope\n1\n")
        with pytest.raises(ValidationError):
            load_records_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_records_csv(tmp_path / "absent.csv")

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

    def test_climate_loader_reads_lazily(self, tmp_path):
        rows = load_climate_csv(tmp_path / "absent.csv")
        with pytest.raises(ValidationError, match="cannot read"):
            next(rows)

    def test_rain_larval_cases_round_trip(self, tmp_path):
        weeks = [WeeklyRainfall("D1", 2018, 1, 12.5), WeeklyRainfall("D2", 2020, 53, 0.1)]
        surveys = [LarvalSurvey("D1", (2018, 1), 90, 10, 0)]
        cases = [(("D1", (2018, 1)), 4), (("D1", (2018, 1)), 5)]
        write_rain_csv(weeks, tmp_path / "rain.csv")
        write_larval_csv(surveys, tmp_path / "larval.csv")
        write_cases_csv(cases, tmp_path / "cases.csv")
        assert load_rain_csv(tmp_path / "rain.csv") == weeks
        assert load_larval_csv(tmp_path / "larval.csv") == surveys
        assert load_cases_csv(tmp_path / "cases.csv") == cases

    def test_larval_truth_sorted(self, tmp_path):
        path = tmp_path / "larval_truth.csv"
        write_larval_truth_csv({("D2", (2018, 1)): 1.5, ("D1", (2018, 10)): 2.25,
                                ("D1", (2018, 2)): 3.0}, path)
        assert path.read_text(encoding="utf-8") == (
            "district,year,month,larval_index\n"
            "D1,2018,2,3.0\nD1,2018,10,2.25\nD2,2018,1,1.5\n"
        )
