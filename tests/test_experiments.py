"""The experiment harness: evaluation, prediction reports, sweeps, scaling."""

import dataclasses
import re

import numpy as np
import pytest

from denguecast import experiments
from denguecast.dataprep import (
    DistrictMonthRecord,
    Scaler,
    apply_scaler,
    build_windows,
    fit_scaler,
    month_index,
    window_columns,
)
from denguecast.experiments import (
    PredictionRow,
    SweepSpec,
    evaluate,
    load_prediction_csv,
    make_supervised,
    mse_table_md,
    prediction_table_csv,
    prediction_table_md,
    round_half_away,
    run_sweep,
)
from denguecast.errors import ValidationError
from denguecast.lstm import Model, ModelSpec, TrainCfg, TrainedModel
from denguecast.nn_core import make_rng, mse

SPEC = ModelSpec(arch="plain", num_layers=1, hidden=2, dropout=0.0, epochs=3,
                 timesteps=3)


def make_records(districts=2, months=24, seed=0, cases=None):
    """Complete records (larval index present) for consecutive months from
    2014-01; cases(district index, month index) sets each count."""
    rng = make_rng(seed)
    out = []
    for d in range(districts):
        for i in range(months):
            out.append(DistrictMonthRecord(
                district=f"D{d + 1:02d}", month=(2014 + i // 12, i % 12 + 1),
                temp_mean=float(rng.uniform(20, 30)),
                rh_mean=float(rng.uniform(40, 90)),
                rain_total=float(rng.uniform(0, 200)),
                larval_index=float(rng.uniform(1, 3)),
                cases=cases(d, i) if cases else int(rng.integers(0, 40)),
            ))
    return out


def constant_model(spec, scaler, output):
    """A model whose every prediction is output, in scaled units."""
    model = Model(spec, len(window_columns(spec.predictors, spec.variant)))
    for p in model.parameters():
        p.value[...] = 0.0
    model.head_b2.value[0] = output
    return TrainedModel(spec=spec, model=model, scaler=scaler,
                        loss_history=[(0.0, 0.0)], best_epoch=0)


class TestEvaluate:
    def test_actual_is_the_record_count_and_raw_mse_uses_it(self):
        records = make_records(districts=1, months=8,
                               cases=lambda d, i: [3, 31, 7, 31, 12, 0, 31, 5][i])
        columns = window_columns(SPEC.predictors, SPEC.variant)
        scaler = fit_scaler(records, columns)
        scaler.ranges["cases"] = (0.0, 30.0)
        counts = [r.cases for r in records][2:]  # one window per month from the third
        # 31 does not survive a trip through this scaler, so a report that
        # de-scaled the scaled targets would not hold the counts
        assert scaler.invert_value("cases", scaler.transform([31], ("cases",)))[0] != 31
        windows, _ = build_windows(records, 3, "II")
        trained = constant_model(SPEC, scaler, 0.25)

        scaled, raw, rows = evaluate(trained, windows)

        assert [r.actual for r in rows] == counts
        assert all(type(r.actual) is int for r in rows)
        assert [r.predicted for r in rows] == [7.5] * len(counts)
        assert [(r.district, r.month) for r in rows] == [
            (w.district, w.target_month) for w in windows]
        assert raw == mse(counts, [7.5] * len(counts))
        assert scaled == mse([(c - 0.0) / 30.0 for c in counts], [0.25] * len(counts))

    def test_descaling_inverts_target_scaler(self):
        # identity-ish head: prediction = b2 in scaled space
        scaler = Scaler({c: (10.0, 50.0)
                         for c in window_columns(SPEC.predictors, SPEC.variant)})
        tm = constant_model(SPEC, scaler, 0.25)
        windows, _ = build_windows(make_records(districts=1, months=3), 3, "II")
        _, _, rows = evaluate(tm, windows)
        assert rows[0].predicted == pytest.approx(10.0 + 0.25 * 40.0)


class TestPredictionTables:
    ROWS = [
        PredictionRow(district="D01", month=(2014, 3), predicted=2.7812345678901234,
                      actual=3),
        PredictionRow(district="D01", month=(2014, 4), predicted=-0.1, actual=4.5),
        PredictionRow(district="D02", month=(2014, 3), predicted=1e-17, actual=0),
    ]

    def test_csv_round_trips_exactly(self, tmp_path):
        text = prediction_table_csv(list(reversed(self.ROWS)))
        path = tmp_path / "predictions.csv"
        path.write_text(text, encoding="utf-8")
        parsed = load_prediction_csv(path)
        assert parsed == self.ROWS
        assert [type(p.actual) for p in parsed] == [int, float, int]
        assert text.splitlines()[1] == "D01,2014,3,2.7812345678901234,3"

    @pytest.mark.parametrize("line,message", [
        ("D01,2014,3,2.5", ":3: wrong column count"),
        ("D01,2014,3,2.5,3,9", ":3: wrong column count"),
        ("D01,2014,3,high,3", ":3: could not convert string to float: 'high'"),
        ("D01,2014,March,2.5,3", ":3: invalid literal for int()"),
        ("D01,2014,3,2.5,", ":3: invalid literal for int()"),
    ], ids=["short", "long", "bad-predicted", "bad-month", "empty-actual"])
    def test_bad_row_names_file_and_line(self, line, message, tmp_path):
        lines = prediction_table_csv(self.ROWS).splitlines()
        lines[2] = line
        path = tmp_path / "predictions.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}{message}")):
            load_prediction_csv(path)

    def test_round_half_away(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(-2.5) == -3
        assert round_half_away(2.4999) == 2
        assert round_half_away(-0.4) == 0

    def test_md_footers_sum_rounded_predictions_and_actuals(self):
        rows = [
            PredictionRow(district="D01", month=(2014, 1), predicted=2.5, actual=3),
            PredictionRow(district="D01", month=(2014, 2), predicted=1.4, actual=4),
            PredictionRow(district="D02", month=(2014, 1), predicted=-2.5, actual=0),
            PredictionRow(district="D02", month=(2014, 2), predicted=0.5, actual=2.5),
        ]
        assert prediction_table_md(rows).splitlines() == [
            "| Month | D01 | D02 |",
            "| --- | --- | --- |",
            "| Jan | 3 | -3 |",
            "| Feb | 1 | 1 |",
            "| Predicted Count | 4 | -2 |",
            "| Actual Count | 7 | 3 |",
        ]


class TestRunSweep:
    def test_diverged_cell_is_a_failure_outside_rows_and_argmin(self, monkeypatch):
        run_config = experiments.run_config

        def lr_1e3_for_variant_i(records, spec, cfg, label, report_seed):
            if label == "Variant I":
                cfg = dataclasses.replace(cfg, lr=1e3)
            return run_config(records, spec, cfg, label, report_seed)

        monkeypatch.setattr(experiments, "run_config", lr_1e3_for_variant_i)
        sweep = SweepSpec("variant", SPEC, experiments.default_grid("variant", SPEC),
                          (0,), TrainCfg(lr=1e-2))
        result = run_sweep(sweep, make_records())
        assert [(label, seed) for label, seed, _ in result.failures] == [
            ("Variant I", 0)]
        assert "exceeds" in result.failures[0][2]
        assert [r.label for r in result.rows] == ["Variant II"]
        assert [r.label for r in result.reports] == ["Variant II"]
        assert result.argmin_label == "Variant II" and result.rows[0].best
        table = mse_table_md(result)
        assert "| Variant I (seed 0) | diverged | diverged |" in table
        assert "| Variant II * |" in table


class TestMakeSupervised:
    def test_windows_once(self, monkeypatch):
        calls = []
        build = experiments.build_windows

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_windows", counting)
        records = make_records()
        prepared = make_supervised(records, 3, "II", 0.5)
        assert len(calls) == 1 and calls[0][0] is records
        assert len(prepared.split.train) + len(prepared.split.test) == 2 * (24 - 2)

    def test_scaler_is_fitted_on_records_up_to_the_split_boundary(self):
        # counts grow with time, so the test period holds the largest ones
        records = make_records(districts=2, months=12,
                               cases=lambda d, i: 10 * i + d)
        prepared = make_supervised(records, 3, "II", 0.5)
        boundary = max(month_index(w.target_month) for w in prepared.split.train)
        assert boundary < max(month_index(r.month) for r in records)
        seen = [r for r in records if month_index(r.month) <= boundary]
        columns = window_columns(("temp_mean", "rh_mean", "rain_total"), "II")
        assert list(prepared.scaler.ranges) == list(columns)
        for c in columns:
            values = [getattr(r, c) for r in seen]
            assert prepared.scaler.ranges[c] == (min(values), max(values))
        # the windows hold the counts; scaled, test targets lie beyond the
        # fitted range
        counts = {(r.district, r.month): r.cases for r in records}
        assert all(w.target == counts[(w.district, w.target_month)]
                   for w in prepared.split.train + prepared.split.test)
        _, y_train = apply_scaler(prepared.scaler, prepared.split.train)
        _, y_test = apply_scaler(prepared.scaler, prepared.split.test)
        assert max(y_test) > 1.0
        assert max(y_train) == 1.0
        assert np.all(y_train >= 0.0)


class TestSweepWorkers:
    @pytest.mark.parametrize("seeds,jobs,workers", [
        ((0,), 64, [2]),      # 2 cells x 1 seed: one worker per task
        ((0, 1), 3, [3]),
        ((0, 1), 2, [2]),
    ])
    def test_at_most_one_worker_per_task(self, seeds, jobs, workers, monkeypatch):
        started = []

        class Pool:
            """Records max_workers and runs the tasks in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Pool)
        sweep = SweepSpec("variant", SPEC, experiments.default_grid("variant", SPEC),
                          seeds, TrainCfg(lr=1e-2))
        result = run_sweep(sweep, make_records(), jobs=jobs)
        assert started == workers
        assert len(result.reports) == 2 * len(seeds)

    def test_one_task_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", None)  # never called
        sweep = SweepSpec("variant", SPEC, [{"label": "Variant II", "variant": "II"}],
                          (0,))
        assert len(run_sweep(sweep, make_records(), jobs=64).reports) == 1
