"""Benchmark of the denguecast pipeline, run from the root of a checkout.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --trace 1            # every workload, traced
    python3 perfbench/run.py --workload train-stacked --seed 3 --seconds 24 --trace 0

Untraced runs time each CLI stage as its own ``python -m denguecast.cli``
process, as a user runs it, so interpreter start and ``import numpy`` count.
Traced runs (``--trace 1``) run the stages in one process with the layer
functions wrapped in spans and report per-layer metrics.

Each run prints every metric with its unit, writes a results file under
.perfbench/results/, and, when --workload is given, ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
the end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json lists.
The exit code is 0 when the run completed, even if an output check failed;
``correct`` says whether every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stages  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3    # synth runs per run; setup_s is their median
IMPORT_REPEATS = 5   # fresh interpreters timing `import denguecast.cli`
RUN_DEADLINE_S = 170  # a run stops its stage processes after this long
RESULTS_DIR = Path(".perfbench") / "results"  # relative to the checkout root
WORK_DIR = Path(".perfbench") / "work"

UNITS = {
    "setup_s": "s", "prepare_s": "s", "impute_s": "s", "train_s": "s",
    "predict_s": "s", "sweep_s": "s", "report_s": "s", "pipeline_s": "s",
    "peak_rss_mb": "MB", "test_mse": "cases^2", "impute_rmse": "index",
    "failed_share": "share",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".total_s", ".self_s")):
        return "s"
    if name.endswith((".p50", ".p90")):
        return "ms"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("flops_per_epoch"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    return "count"


class Run:
    """Operations attempted and failed in one run, and the processes it starts."""

    def __init__(self, root, env, deadline):
        self.root = root
        self.env = env
        self.deadline = deadline
        self.checks = []  # (name, ok, detail)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    @property
    def attempted(self):
        return len(self.checks)

    @property
    def failed(self):
        return sum(1 for _, ok, _ in self.checks if not ok)

    def spawn(self, argv, log_path):
        """Run argv to completion; returns (exit code, wall s, max RSS MB).

        The process gets its own session so that a timeout kills it together
        with any workers it started. Max RSS comes from wait4 and covers the
        process and its waited-for descendants.
        """
        log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, argv, log_path):
        return self.spawn([sys.executable, "-m", "denguecast.cli", *argv], log_path)


def median(values):
    return statistics.median(values) if values else math.nan


def run_untraced(run, workload, size, seed, seconds, work):
    """Set up SETUP_REPEATS times, then repeat the stages for `seconds`."""
    setup, rss = [], []
    raws = []
    for k in range(SETUP_REPEATS):
        raw = work / "setup" / f"raw{k}"
        synth, _ = stages.plan(workload, size, seed, raw, work)
        code, wall, peak = run.cli(synth, work / "logs" / f"synth{k}.out")
        run.check(f"synth {k} exits 0", code == 0, f"exit {code}")
        if code != 0:
            return None
        setup.append(wall)
        rss.append(peak)
        raws.append(stages.digests(raw))
    run.check("synth output repeats byte for byte",
              all(d == raws[0] for d in raws), f"{len(raws[0])} files")
    raw = work / "setup" / "raw0"

    stage_walls = {}
    pipeline = []
    reference = None
    quality = None
    started = time.perf_counter()
    rep = 0
    while True:
        rep_start = time.perf_counter()
        out = work / f"rep{rep}" / "out"
        _, plan = stages.plan(workload, size, seed, raw, out)
        walls = {}
        for name, argv in plan:
            code, wall, peak = run.cli(argv, work / f"rep{rep}" / "logs" / f"{name}.out")
            run.check(f"rep {rep} {name} exits 0", code == 0, f"exit {code}")
            if code != 0:
                return None
            walls[name] = wall
            rss.append(peak)
        for name, ok, detail in stages.check_outputs(workload, out):
            run.check(f"rep {rep} {name}", ok, detail)
        if workload == "sweep-small":
            trained, diverged = stages.sweep_cells(out)
            for _ in range(trained):
                run.check(f"rep {rep} sweep cell trained", True)
            for _ in range(diverged):
                run.check(f"rep {rep} sweep cell diverged", False)
        dig = stages.digests(out)
        if reference is None:
            reference = dig
            train_log = work / "rep0" / "logs" / "train.out"
            quality = stages.quality(
                workload, raw, out,
                train_log.read_text(encoding="utf-8") if train_log.exists() else "",
            )
        else:
            run.check(f"rep {rep} artifacts match rep 0", dig == reference,
                      f"{len(dig)} files")
            shutil.rmtree(work / f"rep{rep}")
        for name, wall in walls.items():
            stage_walls.setdefault(name, []).append(wall)
        pipeline.append(sum(walls.values()))
        rep += 1
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - rep_start) > seconds:
            break

    metrics = {"setup_s": median(setup)}
    for name, walls in stage_walls.items():
        metrics[f"{name}_s"] = median(walls)
    metrics["pipeline_s"] = median(pipeline)
    metrics["peak_rss_mb"] = max(rss)
    metrics.update(quality)
    details = {
        "repetitions": rep,
        "setup_s": setup,
        "stage_s": stage_walls,
        "pipeline_s": pipeline,
        "input_sha256": raws[0],
        "artifact_sha256": reference,
    }
    return metrics, details


def run_traced(run, workload, size, seed, seconds, work):
    """cli.import_s from fresh interpreters, then the in-process traced child."""
    probe = ("import time; t = time.perf_counter(); import denguecast.cli; "
             "print(repr(time.perf_counter() - t))")
    imports = []
    for k in range(IMPORT_REPEATS):
        log = work / "logs" / f"import{k}.out"
        code, _, _ = run.spawn([sys.executable, "-c", probe], log)
        run.check(f"import probe {k} exits 0", code == 0, f"exit {code}")
        if code != 0:
            return None
        imports.append(float(log.read_text(encoding="utf-8").split()[-1]))

    out = work / "traced.json"
    spans = RESULTS_DIR / f"{work.name}.spans.json"
    code, _, _ = run.spawn(
        [sys.executable, str(HERE / "traced.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--size", size,
         "--work", str(work / "traced"), "--out", str(out), "--spans", str(spans)],
        work / "logs" / "traced.out",
    )
    run.check("traced run exits 0", code == 0,
              f"exit {code}; see {work / 'logs' / 'traced.out'}")
    if code != 0:
        return None
    child = json.loads(out.read_text(encoding="utf-8"))
    for name, ok, detail in child["checks"]:
        run.check(name, ok, detail)
    metrics = tracing.summarize_reps(child["per_rep"], child["epoch_ms"])
    metrics["cli.import_s"] = median(imports)
    traced = median(child["pipeline_s"]["traced"])
    untraced = median(child["pipeline_s"]["untraced"])
    metrics["trace.overhead_s"] = traced - untraced
    details = {
        "repetitions": len(child["per_rep"]),
        "cli_import_s": imports,
        "pipeline_s": child["pipeline_s"],
        "trace_overhead_share": (traced - untraced) / untraced,
        "stage_s": child["stage_times"],
        "stage_layer_shares": child["stage_layer_shares"],
        "spans_file": str(spans),
    }
    return metrics, details


def environment(run, work):
    log = work / "logs" / "env.out"
    code, _, _ = run.spawn([sys.executable, "-c", stages.ENV_PROBE], log)
    if code != 0:
        return {"error": log.read_text(encoding="utf-8")}
    return json.loads(log.read_text(encoding="utf-8").splitlines()[-1])


def run_workload(root, env, workload, seed, seconds, trace, size):
    """One run of one workload; returns its result record."""
    run = Run(root, env, time.monotonic() + RUN_DEADLINE_S)
    name = f"{workload}-seed{seed}-trace{trace}" + ("" if size == "full" else f"-{size}")
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    measure = run_traced if trace else run_untraced
    measured = measure(run, workload, size, seed, seconds, work)
    metrics, details = measured if measured else ({}, {})
    if not trace:
        metrics["failed_share"] = run.failed / run.attempted
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "correct": measured is not None and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "details": details,
        "checks": run.checks,
        "environment": environment(run, work),
    }
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if record["correct"]:
        shutil.rmtree(work)  # failed runs keep their logs and artifacts
    print(f"== {workload} seed={seed} trace={trace}: "
          f"{run.attempted - run.failed}/{run.attempted} ok, results in {path}")
    for metric in sorted(metrics):
        print(f"{metric} {metrics[metric]!r} {unit_of(metric)}")
    if trace and details:
        for stage, layers in sorted(details["stage_layer_shares"].items()):
            print(f"self-time share of stage {stage}: " + ", ".join(
                f"{layer} {share:.3f}" for layer, share in layers.items()))
    return record


def contract_line(record, listed):
    """The final JSON line: the metrics BENCHMARK.json lists.

    A run that stopped early (correct is false) has only those it measured.
    """
    missing = [n for n in listed if n not in record["metrics"]]
    if missing and record["correct"]:
        raise SystemExit(f"error: run produced no value for {', '.join(missing)}")
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in listed if n in record["metrics"]},
    })


def main(argv=None):
    p = argparse.ArgumentParser(
        description="Benchmark of the denguecast pipeline (run from the repo root).")
    p.add_argument("--workload", choices=stages.WORKLOADS,
                   help="run one workload and end with the JSON result line; "
                        "default: every workload")
    p.add_argument("--seed", type=int, default=0, help="workload seed (synth --seed)")
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced in-process run reporting per-layer metrics")
    p.add_argument("--size", choices=sorted(stages.SIZES), default="full",
                   help="workload size; smoke is for the benchmark's self-tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "denguecast" / "cli.py").is_file():
        print(f"error: {src / 'denguecast'} not found; run from the root of a "
              "denguecast checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = dict(os.environ, **stages.PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    workloads = [args.workload] if args.workload else list(stages.WORKLOADS)
    records = [run_workload(root, env, w, args.seed, seconds, args.trace, args.size)
               for w in workloads]
    if args.workload:
        print(contract_line(records[0], listed))
        return 0
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
