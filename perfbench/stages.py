"""Workloads, output checks and result quality shared by both kinds of run.

A workload is a synth command that writes the inputs (the set-up) and a
list of CLI stages that consume them. Stage arguments are built from a
repetition directory, so the same plan drives ``python -m denguecast.cli``
processes (untraced run) and in-process ``denguecast.cli.main`` calls
(traced run).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from pathlib import Path

WORKLOADS = ("train-stacked", "impute-coreg", "sweep-small")

# Stage processes run single-threaded BLAS and a fixed hash seed, so a run
# measures the program and not the thread pool or dict ordering.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# Sizes per workload. "full" is what the benchmark measures; "smoke" is the
# smallest size that still runs every stage, for the benchmark's self-tests.
SIZES = {
    "full": {
        "train_epochs": 20,
        "impute_iters": 12,
        "sweep_districts": 8,
        "sweep_epochs": 20,
        "extra_synth": (),
    },
    "smoke": {
        "train_epochs": 2,
        "impute_iters": 2,
        "sweep_districts": 3,
        "sweep_epochs": 2,
        "extra_synth": ("--months", "24"),
    },
}

TRAIN_TIMESTEPS = 3  # the CLI default; predictions.csv has one row per window


def sweep_jobs():
    """Sweep worker count: at most 2, never more than the usable cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def plan(workload, size, seed, raw, rep):
    """(synth argv, [(stage, argv), ...]) for one repetition.

    raw is the directory synth writes to; rep the directory stages write to.
    """
    s = SIZES[size]
    raw, rep = Path(raw), Path(rep)
    synth = ["synth", "--out", str(raw), "--seed", str(seed), *s["extra_synth"]]
    prepare = [
        "prepare", "--out", str(rep / "prep"),
        "--climate", str(raw / "climate.csv"), "--rain", str(raw / "rain.csv"),
        "--larval", str(raw / "larval.csv"), "--cases", str(raw / "cases.csv"),
    ]
    records = str(rep / "prep" / "records.csv")
    if workload == "train-stacked":
        synth += ["--missing-rate", "0"]
        imputed = str(rep / "imp" / "imputed.csv")
        stages = [
            ("prepare", prepare),
            ("impute", ["impute", "--out", str(rep / "imp"), "--records", records]),
            ("train", ["train", "--out", str(rep / "model"), "--records", imputed,
                       "--arch", "stacked", "--num-layers", "4", "--hidden", "32",
                       "--variant", "II", "--epochs", str(s["train_epochs"])]),
            ("predict", ["predict", "--out", str(rep / "pred"),
                         "--model", str(rep / "model" / "model.bin"),
                         "--records", imputed]),
        ]
    elif workload == "impute-coreg":
        stages = [
            ("prepare", prepare),
            ("impute", ["impute", "--out", str(rep / "imp"), "--records", records,
                        "--max-iters", str(s["impute_iters"])]),
        ]
    elif workload == "sweep-small":
        synth += ["--districts", str(s["sweep_districts"]), "--missing-rate", "0"]
        stages = [
            ("prepare", prepare),
            ("sweep", ["sweep", "--out", str(rep / "sweep"), "--records", records,
                       "--kind", "architecture", "--seeds", "0,1",
                       "--jobs", str(sweep_jobs()),
                       "--epochs", str(s["sweep_epochs"])]),
            ("report", ["report", "--run", str(rep / "sweep")]),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return synth, stages


# ---------------------------------------------------------------------------
# artifacts


def digests(root):
    """sha256 of every file under root, keyed by its relative path."""
    root = Path(root)
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _window_targets(rows, t):
    """(district, year, month) of every t-month window without a month gap."""
    months = {}
    for r in rows:
        months.setdefault(r["district"], []).append(
            int(r["year"]) * 12 + int(r["month"]) - 1
        )
    out = set()
    for district, idx in months.items():
        idx.sort()
        for i in range(t - 1, len(idx)):
            if idx[i] - idx[i - t + 1] == t - 1:
                out.add((district, idx[i] // 12, idx[i] % 12 + 1))
    return out


def check_outputs(workload, rep):
    """Output checks of one repetition: a list of (name, ok, detail)."""
    rep = Path(rep)
    checks = []
    if workload in ("train-stacked", "impute-coreg"):
        records = _rows(rep / "prep" / "records.csv")
        imputed = _rows(rep / "imp" / "imputed.csv")
        missing = sum(1 for r in records if r["larval_index"] == "")
        n_imputed = sum(1 for r in imputed if r["provenance"] == "imputed")
        empty = sum(1 for r in imputed if r["larval_index"] == "")
        out_of_range = sum(
            1 for r in imputed
            if r["larval_index"] != "" and not 1.0 <= float(r["larval_index"]) <= 3.0
        )
        checks.append((
            "imputed.csv complete",
            empty == 0 and out_of_range == 0 and n_imputed == missing
            and len(imputed) == len(records),
            f"{missing} missing, {n_imputed} imputed, {empty} empty, "
            f"{out_of_range} outside [1, 3]",
        ))
    if workload == "train-stacked":
        preds = _rows(rep / "pred" / "predictions.csv")
        expected = _window_targets(_rows(rep / "imp" / "imputed.csv"), TRAIN_TIMESTEPS)
        keys = [(r["district"], int(r["year"]), int(r["month"])) for r in preds]
        finite = all(math.isfinite(float(r["predicted"])) for r in preds)
        checks.append((
            "predictions.csv one finite row per window",
            finite and len(keys) == len(set(keys)) and set(keys) == expected,
            f"{len(keys)} rows for {len(expected)} windows, finite={finite}",
        ))
    if workload == "sweep-small":
        summary = _rows(rep / "sweep" / "reports" / "mse_summary.csv")
        best = sum(1 for r in summary if r["best"] == "1")
        checks.append((
            "sweep has 4 rows and one argmin",
            len(summary) == 4 and best == 1,
            f"{len(summary)} rows, {best} marked best",
        ))
    return checks


def sweep_cells(rep):
    """(cells trained, cells diverged) from a sweep's log.txt."""
    lines = (Path(rep) / "sweep" / "log.txt").read_text(encoding="utf-8").splitlines()
    diverged = sum(1 for line in lines if "DIVERGED" in line)
    trained = sum(1 for line in lines if " validation_mse=" in line)
    return trained, diverged


def quality(workload, raw, rep, train_stdout):
    """Result quality of one repetition: test_mse and impute_rmse where run."""
    raw, rep = Path(raw), Path(rep)
    out = {}
    if workload == "train-stacked":
        match = re.search(r"test MSE ([0-9.eE+-]+)", train_stdout)
        out["test_mse"] = float(match.group(1)) if match else math.nan
    if workload == "sweep-small":
        summary = _rows(rep / "sweep" / "reports" / "mse_summary.csv")
        best = [float(r["test_mse"]) for r in summary if r["best"] == "1"]
        out["test_mse"] = best[0] if best else math.nan
    if workload == "impute-coreg":
        truth = {
            (r["district"], r["year"], r["month"]): float(r["larval_index"])
            for r in _rows(raw / "larval_truth.csv")
        }
        errs = [
            float(r["larval_index"]) - truth[(r["district"], r["year"], r["month"])]
            for r in _rows(rep / "imp" / "imputed.csv")
            if r["provenance"] == "imputed"
        ]
        out["impute_rmse"] = (
            math.sqrt(sum(e * e for e in errs) / len(errs)) if errs else math.nan
        )
    return out


ENV_PROBE = r"""
import json, os, platform, sys
import numpy
info = {
    "python": sys.version.split()[0],
    "implementation": platform.python_implementation(),
    "numpy": numpy.__version__,
    "nproc": os.cpu_count(),
    "usable_cores": len(os.sched_getaffinity(0)),
    "platform": platform.platform(),
    "env": {k: os.environ.get(k) for k in sorted(%r)},
}
try:
    info["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception as exc:  # the config layout differs across numpy versions
    info["blas"] = repr(exc)
try:
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        info["cpu_model"] = next(
            (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
            platform.processor(),
        )
except OSError:
    info["cpu_model"] = platform.processor()
print(json.dumps(info))
""" % (sorted(PINNED_ENV),)
