"""The experiment harness: evaluation, prediction reports, sweeps, scaling."""

import concurrent.futures
import dataclasses
import functools
import multiprocessing
import pickle
import re

import numpy as np
import pytest

from denguecast import cli, experiments
from denguecast.dataprep import (
    DistrictMonthRecord,
    Scaler,
    apply_scaler,
    build_windows,
    fit_scaler,
    month_at,
    month_index,
)
from denguecast.experiments import (
    PredictionRow,
    evaluate,
    load_prediction_csv,
    make_supervised,
    mse_table_md,
    prediction_table_csv,
    prediction_table_md,
    render_report,
    round_half_away,
    run_sweep,
)
from denguecast.errors import PreconditionError, ValidationError
from denguecast.lstm import Model, TrainedModel
from denguecast.nn_core import make_rng, mse
from denguecast.specs import ModelSpec, SweepSpec

BASE = {"arch": "plain", "num_layers": 1, "hidden": 2, "dropout": 0.0, "epochs": 3,
        "timesteps": 3}
SPEC = ModelSpec(**BASE)
# an architecture sweep's cells set arch; its stacked cells read num_layers
ARCH_BASE = {k: v for k, v in BASE.items() if k != "arch"} | {"num_layers": 2}


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
    model = Model(spec, len(spec.columns))
    for p in model.parameters():
        p.value[...] = 0.0
    model.head_b2.value[0] = output
    return TrainedModel(model=model, scaler=scaler, best_epoch=0)


class TestEvaluate:
    def test_actual_is_the_record_count_and_raw_mse_uses_it(self):
        records = make_records(districts=1, months=8,
                               cases=lambda d, i: [3, 31, 7, 31, 12, 0, 31, 5][i])
        scaler = fit_scaler(records, SPEC.columns)
        scaler.ranges["cases"] = (0.0, 30.0)
        counts = [r.cases for r in records][2:]  # one window per month from the third
        # 31 does not survive a trip through this scaler, so a report that
        # de-scaled the scaled targets would not hold the counts
        assert scaler.invert_value("cases", scaler.transform([31], ("cases",)))[0] != 31
        windows, _ = build_windows(records, SPEC)
        trained = constant_model(SPEC, scaler, 0.25)

        scaled, raw, rows = evaluate(trained, windows)

        assert [r.actual for r in rows] == counts
        assert all(type(r.actual) is int for r in rows)
        assert [r.predicted for r in rows] == [7.5] * len(counts)
        assert [(r.district, r.month) for r in rows] == [
            (d, month_at(m)) for d, m in zip(windows.district.tolist(),
                                             windows.month.tolist())]
        assert raw == mse(counts, [7.5] * len(counts))
        assert scaled == mse([(c - 0.0) / 30.0 for c in counts], [0.25] * len(counts))

    def test_descaling_inverts_target_scaler(self):
        # identity-ish head: prediction = b2 in scaled space
        scaler = Scaler({c: (10.0, 50.0) for c in SPEC.columns})
        tm = constant_model(SPEC, scaler, 0.25)
        windows, _ = build_windows(make_records(districts=1, months=3), SPEC)
        _, _, rows = evaluate(tm, windows)
        assert rows[0].predicted == pytest.approx(10.0 + 0.25 * 40.0)


class TestPredictionTables:
    ROWS = [
        PredictionRow(district="D01", month=(2014, 3), predicted=2.7812345678901234,
                      actual=3),
        PredictionRow(district="D01", month=(2014, 4), predicted=-0.1, actual=4),
        PredictionRow(district="D02", month=(2014, 3), predicted=1e-17, actual=0),
    ]

    def test_csv_round_trips_exactly(self, tmp_path):
        text = prediction_table_csv(list(reversed(self.ROWS)))
        path = tmp_path / "predictions.csv"
        path.write_text(text, encoding="utf-8")
        parsed = load_prediction_csv(path)
        assert parsed == self.ROWS
        assert [type(p.actual) for p in parsed] == [int, int, int]
        assert text.splitlines()[1] == "D01,2014,3,2.7812345678901234,3"

    @pytest.mark.parametrize("line,message", [
        ("D01,2014,3,2.5", ":3: wrong column count"),
        ("D01,2014,3,2.5,3,9", ":3: wrong column count"),
        ("D01,2014,3,high,3", ":3: could not convert string to float: 'high'"),
        ("D01,2014,March,2.5,3", ":3: invalid literal for int()"),
        ("D01,2014,3,2.5,", ":3: invalid literal for int()"),
        ("D01,2014,3,2.5,4.5", ":3: invalid literal for int() with base 10: '4.5'"),
    ], ids=["short", "long", "bad-predicted", "bad-month", "empty-actual",
            "decimal-actual"])
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
            PredictionRow(district="D02", month=(2014, 2), predicted=0.5, actual=2),
        ]
        assert prediction_table_md(rows).splitlines() == [
            "| Month | D01 | D02 |",
            "| --- | --- | --- |",
            "| Jan | 3 | -3 |",
            "| Feb | 1 | 1 |",
            "| Predicted Count | 4 | -2 |",
            "| Actual Count | 7 | 2 |",
        ]

    def test_md_labels_months_by_year_when_a_month_of_year_repeats(self):
        # 13 months from 2014-01: "Jan" alone would name two rows
        rows = [PredictionRow(district="D01", month=(2014 + i // 12, i % 12 + 1),
                              predicted=1.0, actual=2) for i in range(13)]
        lines = prediction_table_md(rows).splitlines()
        assert [line.split(" | ")[0] for line in lines[2:15]] == [
            f"| 2014-{m:02d}" for m in range(1, 13)] + ["| 2015-01"]
        assert lines[-1] == "| Actual Count | 26 |"


class TestRunSweep:
    def test_diverged_cell_is_a_failure_outside_rows_and_argmin(self, monkeypatch):
        run_config = experiments.run_config

        def lr_1e3_for_variant_i(prepared, spec, label, report_seed):
            if label == "Variant I":
                spec = dataclasses.replace(spec, lr=1e3)
            return run_config(prepared, spec, label, report_seed)

        monkeypatch.setattr(experiments, "run_config", lr_1e3_for_variant_i)
        sweep = SweepSpec("variant", BASE | {"lr": 1e-2}, None, (0,))
        result = run_sweep(sweep, make_records())
        assert [(label, seed) for label, seed, _ in result.failures] == [
            ("Variant I", 0)]
        assert "exceeds" in result.failures[0][2]
        assert [r.label for r in result.rows] == ["Variant II"]
        assert [r.label for r in result.reports] == ["Variant II"]
        assert result.argmin_label == result.rows[0].label == "Variant II"
        table = mse_table_md(result)
        assert "| Variant I (seed 0) | diverged | diverged |" in table
        assert "| Variant II * |" in table


    @pytest.mark.parametrize("base,grid,message", [
        ({"hidden": "x"}, None, "sweep base: hidden must be int"),
        ({}, [{"label": "a", "hidden": "x"}], "grid cell 'a': hidden must be int"),
    ])
    def test_spec_errors_without_a_file_name_the_sweep(self, base, grid, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            SweepSpec("variant", base, grid, (0,))

    def test_default_timestep_grid(self):
        sweep = SweepSpec("timestep", {}, None, (0,))
        assert [(label, spec.timesteps) for label, spec in sweep.cells] == [
            ("t = 2", 2), ("t = 3", 3), ("t = 4", 4), ("t = 5", 5)]

    def test_each_cell_is_prepared_once_before_any_training(self, monkeypatch):
        events = []
        make = experiments.make_supervised
        run = experiments.run_config

        def preparing(records, spec):
            events.append(("prepare", spec.timesteps))
            return make(records, spec)

        def training(prepared, spec, label, report_seed):
            events.append(("train", spec.timesteps))
            return run(prepared, spec, label, report_seed)

        monkeypatch.setattr(experiments, "make_supervised", preparing)
        monkeypatch.setattr(experiments, "run_config", training)
        base = {k: v for k, v in BASE.items() if k != "timesteps"}
        grid = ({"label": "t = 2", "timesteps": 2}, {"label": "t = 3", "timesteps": 3})
        result = run_sweep(SweepSpec("timestep", base, grid, (0, 1, 2)), make_records())
        assert events[:2] == [("prepare", 2), ("prepare", 3)]
        assert events[2:] == [("train", 2)] * 3 + [("train", 3)] * 3
        assert len(result.reports) == 6

    @pytest.mark.parametrize("kind,prepared", [
        ("architecture", 1), ("variant", 2), ("predictor", 4)])
    def test_cells_that_read_one_dataset_share_its_preparation(
            self, kind, prepared, monkeypatch):
        specs = []
        make = experiments.make_supervised

        def preparing(records, spec):
            specs.append(spec)
            return make(records, spec)

        monkeypatch.setattr(experiments, "make_supervised", preparing)
        sweep = SweepSpec(kind, ARCH_BASE if kind == "architecture" else BASE,
                          None, (0,))
        result = run_sweep(sweep, make_records())
        assert len(specs) == prepared
        # each run still trains on its own cell's dataset
        for (label, spec), report in zip(sweep.cells, result.reports):
            assert report.label == label
            assert report.trained.scaler.ranges.keys() == set(spec.columns)

    def test_a_base_field_some_cells_leave_open_is_read(self):
        grid = [{"label": "a", "hidden": 2}, {"label": "b", "timesteps": 4}]
        sweep = SweepSpec("timestep", {"hidden": 4}, grid, (0,))
        assert [spec.hidden for _, spec in sweep.cells] == [2, 4]

    def test_architecture_cells_read_the_base_layer_count(self):
        sweep = SweepSpec("architecture", {"num_layers": 3}, None, (0,))
        assert [spec.num_layers for _, spec in sweep.cells] == [1, 3, 1, 3]

    @pytest.mark.parametrize("kind,grid,records,error,named", [
        ("timestep",
         [{"label": "t = 2", "timesteps": 2}, {"label": "t = 5", "timesteps": 5}],
         make_records(months=4), ValidationError,
         "grid cell 't = 5': no district has 5 consecutive months"),
        ("variant", None,
         [dataclasses.replace(r, larval_index=None) for r in make_records()],
         PreconditionError, "grid cell 'Variant II': larval index missing"),
    ], ids=["no-windows", "no-larval-index"])
    def test_a_cell_that_cannot_be_prepared_is_named_before_any_training(
            self, kind, grid, records, error, named, monkeypatch):
        def training(*args):
            raise AssertionError("a run trained")

        monkeypatch.setattr(experiments, "run_config", training)
        base = {k: v for k, v in BASE.items() if k != "timesteps"}
        with pytest.raises(error, match="^" + re.escape(named)):
            run_sweep(SweepSpec(kind, base, grid, (0,)), records, jobs=2)


    def test_a_shared_dataset_that_cannot_be_prepared_names_its_first_cell(self):
        records = [dataclasses.replace(r, larval_index=None) for r in make_records()]
        with pytest.raises(PreconditionError,
                           match="^" + re.escape("grid cell 'LSTM': larval index missing")):
            run_sweep(SweepSpec("architecture", ARCH_BASE, None, (0,)), records)


class TestMakeSupervised:
    def test_windows_once(self, monkeypatch):
        calls = []
        build = experiments.build_windows

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_windows", counting)
        records = make_records()
        prepared = make_supervised(records, ModelSpec(timesteps=3, variant="II", ratio=0.5))
        assert len(calls) == 1 and calls[0][0] is records
        assert len(prepared.train) + len(prepared.test) == 2 * (24 - 2)

    def test_scaler_is_fitted_on_records_up_to_the_split_boundary(self):
        # counts grow with time, so the test period holds the largest ones
        records = make_records(districts=2, months=12,
                               cases=lambda d, i: 10 * i + d)
        prepared = make_supervised(records, ModelSpec(timesteps=3, variant="II", ratio=0.5))
        boundary = max(prepared.train.month)
        assert boundary < max(month_index(r.month) for r in records)
        seen = [r for r in records if month_index(r.month) <= boundary]
        columns = ModelSpec(predictors=("temp_mean", "rh_mean", "rain_total"),
                            variant="II").columns
        assert list(prepared.scaler.ranges) == list(columns)
        for c in columns:
            values = [getattr(r, c) for r in seen]
            assert prepared.scaler.ranges[c] == (min(values), max(values))
        # the windows hold the counts; scaled, test targets lie beyond the
        # fitted range
        counts = {(r.district, r.month): r.cases for r in records}
        assert all(t == counts[(d, month_at(m))]
                   for part in (prepared.train, prepared.test)
                   for t, d, m in zip(part.target.tolist(), part.district.tolist(),
                                      part.month.tolist()))
        _, y_train = apply_scaler(prepared.scaler, prepared.train)
        _, y_test = apply_scaler(prepared.scaler, prepared.test)
        assert max(y_test) > 1.0
        assert max(y_train) == 1.0
        assert np.all(y_train >= 0.0)


# a valid alternative value per ModelSpec field that make_supervised ignores
IGNORED_BY_PREPARATION = {
    "arch": "bidir_stacked", "num_layers": 2, "hidden": 8, "dropout": 0.0,
    "epochs": 5, "l2_lambda": 0.1, "seed": 7, "validation_fraction": 0.3,
    "lr": 1e-2,
}
# ... and per field that it reads
READ_BY_PREPARATION = {
    "predictors": ("temp_mean",), "variant": "I", "timesteps": 4, "ratio": 0.5,
}


class TestDatasetKey:
    # a sweep prepares one dataset per _dataset_key: a field that changes the
    # prepared data must change the key, or two cells would share the wrong data

    def test_every_field_is_classified(self):
        fields = {f.name for f in dataclasses.fields(ModelSpec)}
        assert fields == set(IGNORED_BY_PREPARATION) | set(READ_BY_PREPARATION)

    @pytest.mark.parametrize("name,value", IGNORED_BY_PREPARATION.items())
    def test_an_ignored_field_keeps_the_key_and_the_data(self, name, value):
        spec = ModelSpec()
        other = dataclasses.replace(spec, **{name: value})
        assert getattr(other, name) != getattr(spec, name)
        assert experiments._dataset_key(other) == experiments._dataset_key(spec)
        # a month gap in D01, so some windows are skipped
        records = [r for r in make_records() if (r.district, r.month) != ("D01", (2014, 11))]
        want, got = make_supervised(records, spec), make_supervised(records, other)
        assert want.skipped > 0 and got.skipped == want.skipped
        assert got.scaler.ranges == want.scaler.ranges
        for part in ("train", "test"):
            for array in ("features", "target", "district", "month"):
                assert np.array_equal(getattr(getattr(got, part), array),
                                      getattr(getattr(want, part), array))

    @pytest.mark.parametrize("name,value", READ_BY_PREPARATION.items())
    def test_a_read_field_changes_the_key(self, name, value):
        spec = ModelSpec()
        other = dataclasses.replace(spec, **{name: value})
        assert experiments._dataset_key(other) != experiments._dataset_key(spec)


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

            def __init__(self, max_workers, initializer):
                started.append(max_workers)
                initializer()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        sweep = SweepSpec("variant", BASE | {"lr": 1e-2}, None, seeds)
        result = run_sweep(sweep, make_records(), jobs=jobs)
        assert started == workers
        assert len(result.reports) == 2 * len(seeds)

    def test_each_task_carries_its_cells_dataset(self, monkeypatch):
        # a task, pickled to reach a worker, carries the prepared dataset of
        # its own cell's _dataset_key; variants I and II read two datasets
        received = []

        class Pool:
            """Pickles what a worker would receive, then runs the tasks here."""

            def __init__(self, max_workers, initializer):
                initializer()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                received.extend(pickle.loads(pickle.dumps(t)) for t in tasks)
                return map(fn, received)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        records = make_records()
        sweep = SweepSpec("variant", BASE | {"lr": 1e-2}, None, (0, 1))
        result = run_sweep(sweep, records, jobs=2)
        assert len(received) == 4
        widths = set()
        for (prepared, spec, label, _), (cell_label, cell) in zip(
                received, [c for c in sweep.cells for _ in (0, 1)]):
            assert label == cell_label
            assert experiments._dataset_key(spec) == experiments._dataset_key(cell)
            want = make_supervised(records, cell)
            assert prepared.scaler.ranges == want.scaler.ranges
            for part in ("train", "test"):
                for array in ("features", "target", "district", "month"):
                    assert np.array_equal(getattr(getattr(prepared, part), array),
                                          getattr(getattr(want, part), array))
            widths.add(prepared.train.features.shape[2])
        assert len(widths) == 2  # variant II adds the larval index
        assert [(r.label, r.seed) for r in result.reports] == [
            (label, seed) for label, _ in sweep.cells for seed in (0, 1)]

    def test_spawned_workers_give_the_in_process_results(self, monkeypatch):
        # a spawned worker inherits nothing: its tasks bring the datasets
        sweep = SweepSpec("variant", BASE | {"lr": 1e-2}, None, (0, 1))
        serial = run_sweep(sweep, make_records())
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor",
            functools.partial(concurrent.futures.ProcessPoolExecutor,
                              mp_context=multiprocessing.get_context("spawn")))
        spawned = run_sweep(sweep, make_records(), jobs=2)
        assert render_report(spawned) == render_report(serial)

    def test_the_initializer_applies_the_allocator_policy(self, monkeypatch):
        # and the BLAS pin: only a forked worker inherits what cli.main set
        applied = []
        monkeypatch.setattr(cli, "keep_freed_memory", lambda: applied.append("malloc"))
        monkeypatch.setattr(cli, "one_blas_thread", lambda: applied.append("blas"))
        experiments._init_worker()
        assert applied == ["malloc", "blas"]

    def test_one_task_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # never called
        sweep = SweepSpec("variant", BASE, [{"label": "Variant II", "variant": "II"}],
                          (0,))
        assert len(run_sweep(sweep, make_records(), jobs=64).reports) == 1
