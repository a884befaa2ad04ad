"""Traced run: every stage in one process, layer functions wrapped in spans.

Started by run.py with the pinned environment; not meant to be run by hand.
Each repetition runs the workload twice in this process through
``denguecast.cli.main``: once untraced and once traced, alternating which
goes first. The difference of the two pipeline times is the tracing
overhead. Both must write byte-identical artifacts.

Writes the per-repetition layer metrics, epoch times, stage layer shares
and output checks to --out as JSON, and the spans of every traced
repetition to --spans.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import stages
import tracing


def run_rep(cli, workload, size, seed, rep, tracer=None):
    """Run synth and every stage in process; returns ({stage: wall}, {stage: code})."""
    synth, plan = stages.plan(workload, size, seed, rep / "raw", rep / "out")
    times, codes = {}, {}
    for name, argv in [("synth", synth)] + plan:
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.span(f"stage.{name}", cli.main, argv)
            tracer.collect_spool()
        times[name] = time.perf_counter() - start
        codes[name] = code
        if code != 0:
            break
    return times, codes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=stages.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", choices=sorted(stages.SIZES), default="full")
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", required=True)
    args = p.parse_args(argv)

    from denguecast import cli

    work = Path(args.work)
    tracer = tracing.Tracer(work / "spool")
    checks = []       # (name, ok, detail)
    pipeline = {"untraced": [], "traced": []}
    stage_times = []
    per_rep, epoch_ms, shares, all_spans = [], [], [], []
    reference = None

    def measure(mode, rep):
        """One in-process repetition; returns False if a stage failed."""
        nonlocal reference
        if mode == "traced":
            tracer.spans = []
            tracer.install()
            try:
                times, codes = run_rep(cli, args.workload, args.size, args.seed,
                                       rep, tracer)
            finally:
                tracer.uninstall()
            per_rep.append(tracing.layer_metrics(tracer.spans))
            epoch_ms.extend(tracing.epoch_samples_ms(tracer.spans))
            shares.append(tracing.stage_layer_shares(tracer.spans))
            all_spans.append(tracer.spans)
        else:
            times, codes = run_rep(cli, args.workload, args.size, args.seed, rep)
        for name, code in codes.items():
            checks.append((f"{mode} {name} exits 0", code == 0, f"exit {code}"))
        if any(codes.values()):
            return False
        pipeline[mode].append(sum(t for n, t in times.items() if n != "synth"))
        stage_times.append({"mode": mode, **times})
        checks.extend((f"{mode} {n}", ok, d)
                      for n, ok, d in stages.check_outputs(args.workload, rep / "out"))
        if args.workload == "sweep-small":
            trained, diverged = stages.sweep_cells(rep / "out")
            checks.extend([(f"{mode} sweep cell", True, "")] * trained)
            checks.extend([(f"{mode} sweep cell diverged", False, "")] * diverged)
        dig = stages.digests(rep)
        if reference is None:
            reference = dig
        else:
            checks.append((f"{mode} artifacts match the first repetition",
                           dig == reference, f"{len(dig)} files"))
        shutil.rmtree(rep)
        return True

    started = time.perf_counter()
    pair = 0
    while True:
        pair_start = time.perf_counter()
        modes = ("untraced", "traced") if pair % 2 == 0 else ("traced", "untraced")
        if not all(measure(mode, work / f"rep{pair}-{mode}") for mode in modes):
            break
        pair += 1
        now = time.perf_counter()
        if (now - started) + (now - pair_start) > args.seconds:
            break

    result = {
        "checks": checks,
        "pipeline_s": pipeline,
        "stage_times": stage_times,
        "per_rep": per_rep,
        "epoch_ms": epoch_ms,
        "stage_layer_shares": {
            stage: {layer: statistics.median(s[stage].get(layer, 0.0) for s in shares)
                    for layer in shares[0][stage]}
            for stage in (shares[0] if shares else {})
        },
    }
    if per_rep:
        calls = {k[:-len(".calls")]: v for k, v in per_rep[0].items()
                 if k.endswith(".calls")}
        try:
            tracing.check_coverage(args.workload, calls)
        except tracing.CoverageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    Path(args.spans).write_text(json.dumps(all_spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
