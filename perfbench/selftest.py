"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

The file name keeps these out of the repository's default pytest run; they
take about 25 s because they run every workload at its smoke size.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import stages  # noqa: E402
import tracing  # noqa: E402


def span(sid, parent, name, start, end, attrs=None):
    return [sid, parent, name, start, end, attrs]


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10] with children a [1, 3], b [2, 5] (overlapping a) and
        # c [8, 12] (running past the root); a has a child [1.5, 2.5].
        spans = [
            span(1, None, "stage.train", 0.0, 10.0),
            span(2, 1, "lstm.model_backward", 1.0, 3.0),
            span(3, 1, "nn_core.mse", 2.0, 5.0),
            span(4, 1, "nn_core.sigmoid", 8.0, 12.0),
            span(5, 2, "nn_core.sigmoid", 1.5, 2.5),
        ]
        self_ = tracing.self_times(spans)
        # root: children cover [1, 5] and [8, 10] -> 6 of 10
        self.assertAlmostEqual(self_[1], 4.0)
        self.assertAlmostEqual(self_[2], 1.0)
        self.assertAlmostEqual(self_[3], 3.0)
        self.assertAlmostEqual(self_[4], 4.0)
        self.assertAlmostEqual(self_[5], 1.0)

        m = tracing.layer_metrics(spans)
        self.assertEqual(m["nn_core.sigmoid.calls"], 2)
        self.assertAlmostEqual(m["nn_core.sigmoid.total_s"], 5.0)
        self.assertAlmostEqual(m["nn_core.sigmoid.self_s"], 5.0)
        self.assertAlmostEqual(m["lstm.model_backward.self_s"], 1.0)
        self.assertAlmostEqual(m["lstm.model_backward.total_s"], 2.0)

        shares = tracing.stage_layer_shares(spans)["train"]
        self.assertAlmostEqual(shares["cli"], 0.4)
        self.assertAlmostEqual(shares["lstm"], 0.1)
        self.assertAlmostEqual(shares["nn_core"], 0.8)

    def test_epoch_samples_group_by_train_call(self):
        spans = [
            span(1, None, "lstm.train", 0.0, 1.0),
            span(2, 1, "nn_core.zero_grads", 0.0, 0.01),
            span(3, 1, "nn_core.zero_grads", 0.25, 0.26),
            span(4, 1, "nn_core.zero_grads", 0.75, 0.76),
            span(5, None, "lstm.train", 2.0, 3.0),
            span(6, 5, "nn_core.zero_grads", 2.0, 2.01),
        ]
        self.assertEqual(sorted(tracing.epoch_samples_ms(spans)), [250.0, 500.0])
        self.assertEqual(tracing.percentile([3, 1, 2, 4], 50), 2)
        self.assertEqual(tracing.percentile(list(range(1, 11)), 90), 9)


def enumerate_matmul_flops(bidir, layers, H, F, t, n_train, n_val):
    """2*m*k*n over every matmul lstm.py performs in one epoch, listed per call."""
    def fwd_step(B, D):   # 4 gates: x @ W.T and h @ U.T
        return 4 * (2 * B * D * H + 2 * B * H * H)

    def bwd_step(B, D):   # 4 gates: da.T @ x, da.T @ h, da @ W, da @ U
        return 4 * (2 * H * B * D + 2 * H * B * H + 2 * B * H * D + 2 * B * H * H)

    dirs = 2 if bidir else 1
    total = 0
    for B, backward in ((n_train, True), (n_val, False)):
        D = F
        for _ in range(layers):
            total += dirs * t * fwd_step(B, D)
            if backward:
                total += dirs * t * bwd_step(B, D)
            D = dirs * H
        total += 2 * B * D * H + 2 * B * H          # head forward
        if backward:
            total += 2 * B * H + 2 * B * H + 2 * H * B * D + 2 * B * H * D
    return total


class ComputedCounts(unittest.TestCase):
    def test_flops_tiny_shape_by_hand(self):
        # plain, H=1, F=1, t=2, one train and one validation window:
        # forward 16 per row-step x 4 row-steps, backward 32 x 2,
        # head forward 4 x 2 rows, head backward 8 x 1 row
        self.assertEqual(tracing.lstm_epoch_flops(False, 1, 1, 1, 2, 1, 1),
                         64 + 64 + 8 + 8)

    def test_flops_match_enumeration(self):
        for bidir, layers in ((False, 1), (False, 3), (True, 1), (True, 2)):
            with self.subTest(bidir=bidir, layers=layers):
                self.assertEqual(
                    tracing.lstm_epoch_flops(bidir, layers, 4, 5, 3, 7, 2),
                    enumerate_matmul_flops(bidir, layers, 4, 5, 3, 7, 2),
                )

    def test_param_bytes(self):
        # plain H=1, F=1: 4 gates x (W, U, b) = 12, head W1, b1, w2, b2 = 4
        self.assertEqual(tracing.lstm_param_bytes(False, 1, 1, 1), 8 * 16)
        from denguecast.lstm import Model, ModelSpec, count_parameters

        for arch, layers in (("plain", 1), ("stacked", 3), ("bidir", 1),
                             ("bidir_stacked", 2)):
            spec = ModelSpec(arch=arch, num_layers=layers, hidden=4)
            with self.subTest(arch=arch):
                self.assertEqual(
                    tracing.lstm_param_bytes(spec.bidirectional, layers, 4, 5),
                    8 * count_parameters(Model(spec, 5)),
                )

    def test_distance_evals_tiny_coreg_by_hand(self):
        import numpy as np

        from denguecast import imputation

        # Equal labels make every confidence delta 0, so nothing is picked
        # and the loop stops after one iteration. With k=1, each scanned
        # candidate costs one kNN query on 3 rows plus a before (3 rows) and
        # after (4 rows) query: 10 rows. Two sides x two candidates = 40,
        # then the final fill: 2 points x 2 sides x 3 rows = 12.
        labeled = [imputation.LabeledExample(x=np.array([float(i)]), y=2.0)
                   for i in range(3)]
        unlabeled = [np.array([0.5]), np.array([1.5])]
        cfg = imputation.CoregCfg(
            cfg1=imputation.KnnRegressorCfg(k=1, p=2.0),
            cfg2=imputation.KnnRegressorCfg(k=1, p=5.0),
            max_iters=5, pool_size=2,
        )
        with tempfile.TemporaryDirectory() as tmp:
            tracer = tracing.Tracer(tmp)
            original = imputation._knn_mean
            tracer.install()
            try:
                imputation.coreg_impute(labeled, unlabeled, cfg)
            finally:
                tracer.uninstall()
            self.assertIs(imputation._knn_mean, original)
        m = tracing.layer_metrics(tracer.spans)
        self.assertEqual(m["imputation.distance_evals"], 52)
        self.assertEqual(m["imputation._knn_mean.calls"], 16)
        self.assertEqual(m["imputation.candidates_scanned"], 4)
        self.assertEqual(m["imputation.iterations"], 1)
        self.assertEqual(m["imputation.pick_ratio"], 0.0)


class Wrappers(unittest.TestCase):
    def test_every_wrapped_function_has_a_workload(self):
        expected = set().union(*tracing.EXPECTED_CALLS.values())
        self.assertEqual(set(tracing.FUNCTION_NAMES) - expected, set())
        self.assertEqual(expected - set(tracing.FUNCTION_NAMES), set())

    def test_install_restores_every_attribute(self):
        import importlib

        def snapshot():
            out = {}
            for owner, attr, _ in tracing.TARGETS + (tracing.SWEEP_TASK,):
                mod, _, cls = owner.partition(".")
                obj = importlib.import_module(f"denguecast.{mod}")
                obj = getattr(obj, cls) if cls else obj
                out[(owner, attr)] = vars(obj)[attr]
            return out

        before = snapshot()
        with tempfile.TemporaryDirectory() as tmp:
            tracer = tracing.Tracer(tmp)
            tracer.install()
            during = snapshot()
            tracer.uninstall()
        self.assertTrue(all(during[k] is not before[k] for k in before))
        self.assertEqual(snapshot(), before)

    def test_coverage_guard_names_silent_functions(self):
        with self.assertRaisesRegex(tracing.CoverageError, "imputation._knn_mean"):
            tracing.check_coverage("impute-coreg", {})


class Smoke(unittest.TestCase):
    """Every workload, untraced and traced, at its smallest size."""

    def run_bench(self, cwd, *args):
        return subprocess.run(
            [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=300,
        )

    def test_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for workload in stages.WORKLOADS:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.run_bench(ROOT, "--workload", workload, "--seed", "0",
                                          "--seconds", "1", "--trace", trace,
                                          "--size", "smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed",
                                                 "metrics"})
                    self.assertTrue(last["correct"], proc.stderr)
                    self.assertEqual(last["failed"], 0)
                    self.assertEqual(list(last["metrics"]),
                                     [m["name"] for m in spec[kind]])

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.run_bench(tmp, "--workload", "train-stacked", "--seed", "0",
                                  "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
