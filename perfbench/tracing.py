"""Span tracer and per-layer metrics for the traced benchmark run.

The traced run replaces each layer function of ``denguecast`` with a wrapper
that records one span per call: (id, parent id, name, start, end, attrs).
A function is wrapped at the module attribute its caller looks it up under,
not where it is defined: ``experiments`` imports ``train``, ``model_forward``,
``build_windows`` and ``apply_scaler`` by name, and ``lstm`` imports
``sigmoid`` and the other ``nn_core`` kernels by name, so wrapping only the
defining module would record nothing for those calls.

Spans stay in memory. Sweep workers are forked with the wrappers in place;
each worker spools the spans of its tasks to a file that the parent merges
after the stage, so per-layer numbers include the work done in workers.

This module imports nothing from ``denguecast`` at import time, so the
orchestrator can use the pure functions (self time, FLOP and byte counts)
without loading numpy.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import statistics
import time
from pathlib import Path

# LSTM cell prefixes reported as lstm.<prefix>.{fwd,bwd}_s. The workloads
# build at most four layers; bidirectional models add the layer<i>.bwd cells.
CELL_PREFIXES = tuple(
    f"layer{i}.{d}" for i in range(4) for d in ("fwd", "bwd")
)


def _model_forward_name(args, kwargs):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "lstm.model_forward.train" if training else "lstm.model_forward.eval"


# (module under denguecast, attribute, span name). The span name is
# <layer>.<function>; model_forward gets its name from its training flag.
TARGETS = (
    ("dataprep", "load_climate_csv", "dataprep.load_climate_csv"),
    ("dataprep", "load_rain_csv", "dataprep.load_rain_csv"),
    ("dataprep", "load_larval_csv", "dataprep.load_larval_csv"),
    ("dataprep", "load_cases_csv", "dataprep.load_cases_csv"),
    ("dataprep", "aggregate_monthly", "dataprep.aggregate_monthly"),
    ("dataprep", "rain_to_monthly", "dataprep.rain_to_monthly"),
    ("dataprep", "assemble_records", "dataprep.assemble_records"),
    ("dataprep", "write_records_csv", "dataprep.write_records_csv"),
    ("dataprep", "load_records_csv", "dataprep.load_records_csv"),
    ("dataprep", "build_windows", "dataprep.build_windows"),
    ("experiments", "build_windows", "dataprep.build_windows"),
    ("dataprep", "apply_scaler", "dataprep.apply_scaler"),
    ("experiments", "apply_scaler", "dataprep.apply_scaler"),
    ("imputation", "impute_larval", "imputation.impute_larval"),
    ("imputation", "coreg_impute", "imputation.coreg_impute"),
    ("imputation", "_best_candidate", "imputation._best_candidate"),
    ("imputation", "_confidence", "imputation._confidence"),
    ("imputation", "_knn_mean", "imputation._knn_mean"),
    ("lstm", "cell_forward", "lstm.cell_forward"),
    ("lstm", "cell_backward", "lstm.cell_backward"),
    ("lstm", "sequence_forward", "lstm.sequence_forward"),
    ("lstm", "sequence_backward", "lstm.sequence_backward"),
    ("lstm", "model_forward", _model_forward_name),
    ("experiments", "model_forward", _model_forward_name),
    ("lstm", "model_backward", "lstm.model_backward"),
    ("lstm", "predict_batch", "lstm.predict_batch"),
    ("lstm", "save_model", "lstm.save_model"),
    ("lstm", "load_model", "lstm.load_model"),
    ("experiments", "train", "lstm.train"),
    ("lstm", "sigmoid", "nn_core.sigmoid"),
    ("lstm", "dropout", "nn_core.dropout"),
    ("lstm", "mse", "nn_core.mse"),
    ("experiments", "mse", "nn_core.mse"),
    ("nn_core.Adam", "step", "nn_core.Adam.step"),
    ("lstm", "zero_grads", "nn_core.zero_grads"),
    ("lstm", "l2_penalty", "nn_core.l2_penalty"),
    ("lstm", "save_params", "nn_core.save_params"),
    ("lstm", "load_params", "nn_core.load_params"),
    ("experiments", "synth_generate", "experiments.synth_generate"),
    ("experiments", "make_supervised", "experiments.make_supervised"),
    ("experiments", "run_config", "experiments.run_config"),
    ("experiments", "evaluate", "experiments.evaluate"),
    ("experiments", "run_sweep", "experiments.run_sweep"),
    ("experiments", "render_report", "experiments.render_report"),
)

# Not a span: the wrapper makes forked sweep workers spool their spans.
SWEEP_TASK = ("experiments", "_sweep_task", None)

FUNCTION_NAMES = tuple(dict.fromkeys(
    name
    for _, _, name in TARGETS
    for name in (
        ("lstm.model_forward.train", "lstm.model_forward.eval")
        if callable(name) else (name,)
    )
))

# Every wrapped function must record calls on the workload meant to exercise
# it; the traced run fails if one records none (see check_coverage).
_LOADERS = (
    "dataprep.load_climate_csv", "dataprep.load_rain_csv",
    "dataprep.load_larval_csv", "dataprep.load_cases_csv",
    "dataprep.aggregate_monthly", "dataprep.rain_to_monthly",
    "dataprep.assemble_records", "dataprep.write_records_csv",
    "dataprep.load_records_csv", "experiments.synth_generate",
)
_TRAINING = (
    "dataprep.build_windows", "dataprep.apply_scaler",
    "lstm.cell_forward", "lstm.cell_backward", "lstm.sequence_forward",
    "lstm.sequence_backward", "lstm.model_forward.train",
    "lstm.model_forward.eval", "lstm.model_backward", "lstm.save_model",
    "lstm.train", "nn_core.sigmoid", "nn_core.dropout", "nn_core.mse",
    "nn_core.Adam.step", "nn_core.zero_grads", "nn_core.l2_penalty",
    "nn_core.save_params", "experiments.make_supervised",
    "experiments.run_config", "experiments.evaluate",
)
EXPECTED_CALLS = {
    "train-stacked": _LOADERS + _TRAINING + (
        "imputation.impute_larval", "imputation.coreg_impute",
        "lstm.predict_batch", "lstm.load_model", "nn_core.load_params",
    ),
    "impute-coreg": _LOADERS + (
        "imputation.impute_larval", "imputation.coreg_impute",
        "imputation._best_candidate", "imputation._confidence",
        "imputation._knn_mean",
    ),
    "sweep-small": _LOADERS + _TRAINING + (
        "experiments.run_sweep", "experiments.render_report",
    ),
}


# ---------------------------------------------------------------------------
# computed counts


def lstm_epoch_flops(arch_bidirectional, num_layers, hidden, input_dim,
                     timesteps, n_train, n_val):
    """Matmul FLOPs (2 per multiply-add) of one training epoch.

    An epoch is a training forward and backward pass over n_train windows
    plus an evaluation forward pass over n_val windows. Per cell step and
    batch row, the forward pass multiplies x by 4 W_* (H x F) and h by 4 U_*
    (H x H); the backward pass does that twice more (input and weight
    gradients). The head is a (H x D) dense layer and a (1 x H) output.
    """
    H = hidden
    dirs = 2 if arch_bidirectional else 1
    flops = 0
    dim = input_dim
    for _ in range(num_layers):
        per_row_step = 8 * H * (dim + H)
        flops += dirs * timesteps * (
            (n_train + n_val) * per_row_step + n_train * 2 * per_row_step
        )
        dim = dirs * H
    head = 2 * H * (dim + 1)
    flops += (n_train + n_val) * head + n_train * 2 * head
    return flops


def lstm_param_bytes(arch_bidirectional, num_layers, hidden, input_dim):
    """Bytes of float64 parameters: 4 gates of W, U, b per cell, then the head."""
    H = hidden
    dirs = 2 if arch_bidirectional else 1
    count = 0
    dim = input_dim
    for _ in range(num_layers):
        count += dirs * 4 * (H * dim + H * H + H)
        dim = dirs * H
    count += H * dim + H + H + 1
    return 8 * count


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _train_attrs(args, kwargs, result):
    from denguecast.lstm import carve_validation

    spec, split = args[0], args[1]
    train_w, val_w = carve_validation(
        split.train, _arg(args, kwargs, 2, "validation_fraction", 0.15)
    )
    t, dim = train_w[0].features.shape
    return {
        "flops": lstm_epoch_flops(spec.bidirectional, spec.num_layers,
                                  spec.hidden, dim, t, len(train_w), len(val_w)),
        "param_bytes": lstm_param_bytes(spec.bidirectional, spec.num_layers,
                                        spec.hidden, dim),
    }


# span name -> attrs(args, kwargs, result), recorded with the span
OBSERVERS = {
    "dataprep.build_windows": lambda a, k, r: {"windows": len(r[0])},
    "imputation._knn_mean": lambda a, k, r: {"rows": len(_arg(a, k, 0, "xs"))},
    "imputation._best_candidate": lambda a, k, r: {"pick": int(r is not None)},
    "imputation.coreg_impute": lambda a, k, r: {"iterations": len(r[1])},
    "lstm.sequence_forward": lambda a, k, r: {"cell": _arg(a, k, 1, "cell").prefix},
    "lstm.sequence_backward": lambda a, k, r: {"cell": _arg(a, k, 2, "cell").prefix},
    "lstm.train": _train_attrs,
    "experiments.run_sweep": lambda a, k, r: {
        "busy": sum(rep.wall_clock for rep in r.reports),
        "jobs": _arg(a, k, 5, "jobs", 1),
    },
}


# ---------------------------------------------------------------------------
# the tracer


class CoverageError(RuntimeError):
    """A wrapped function recorded no calls on the workload meant to run it."""


class Tracer:
    """Collects spans from wrapped layer functions of one process tree.

    A span is [id, parent id, name, start, end, attrs] with times from
    time.perf_counter (CLOCK_MONOTONIC, shared by forked workers). Ids embed
    the process id so spans merged from workers stay unique.
    """

    def __init__(self, spool_dir):
        self.spans = []
        self.stack = []
        self.spool_dir = Path(spool_dir)
        self.owner_pid = os.getpid()
        self._ids = itertools.count(1)
        self._saved = []

    def _new_id(self):
        return os.getpid() * 10**9 + next(self._ids)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name; used for stages and wrappers."""
        sid = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            end = time.perf_counter()
            self.stack.pop()
            if not done:
                self.spans.append([sid, parent, name, start, end, None])
        observer = OBSERVERS.get(name)
        attrs = observer(args, kwargs, result) if observer else None
        self.spans.append([sid, parent, name, start, end, attrs])
        return result

    def _wrap(self, fn, name):
        choose = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(choose(args, kwargs) if choose else name,
                             fn, *args, **kwargs)

        return wrapper

    def _spooling(self, fn):
        """Wrap the sweep task so a forked worker writes out its spans."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.owner_pid:
                return fn(*args, **kwargs)
            mark = len(self.spans)
            try:
                return fn(*args, **kwargs)
            finally:
                path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as f:
                    for s in self.spans[mark:]:
                        f.write(json.dumps(s) + "\n")
                del self.spans[mark:]

        return wrapper

    def install(self):
        """Replace every target attribute with its wrapper.

        Raises AttributeError naming the target when one no longer exists,
        so a renamed layer function cannot silently drop out of the trace.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for owner_path, attr, name in TARGETS + (SWEEP_TASK,):
            owner = _resolve(owner_path)
            if attr not in vars(owner):
                self.uninstall()
                raise AttributeError(
                    f"traced target denguecast.{owner_path}.{attr} no longer exists"
                )
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._spooling(original) if name is None
                    else self._wrap(original, name))

    def uninstall(self):
        """Put every original attribute back and check that it is back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def collect_spool(self):
        """Merge spans that sweep workers wrote to the spool directory."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as f:
                self.spans.extend(json.loads(line) for line in f if line.strip())
            path.unlink()


def _resolve(owner_path):
    module, _, cls = owner_path.partition(".")
    owner = importlib.import_module(f"denguecast.{module}")
    return getattr(owner, cls) if cls else owner


def check_coverage(workload, calls):
    """Raise CoverageError listing expected functions that recorded no calls."""
    silent = [n for n in EXPECTED_CALLS[workload] if calls.get(n, 0) == 0]
    if silent:
        raise CoverageError(
            f"traced run of {workload}: no calls recorded for " + ", ".join(silent)
        )


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Self time per span id: duration minus the union its children cover.

    Children are clipped to the parent's interval; overlapping children (as
    from parallel sweep workers) are counted once.
    """
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def epoch_samples_ms(spans):
    """Epoch times: gaps between consecutive zero_grads starts in one train()."""
    starts = {}
    for s in spans:
        if s[2] == "nn_core.zero_grads":
            starts.setdefault(s[1], []).append(s[3])
    samples = []
    for seq in starts.values():
        seq.sort()
        samples += [1000.0 * (b - a) for a, b in zip(seq, seq[1:])]
    return samples


def layer_metrics(spans):
    """Per-layer metrics of one traced repetition, keyed by metric name."""
    selfs = self_times(spans)
    m = {}
    for name in FUNCTION_NAMES:
        m[f"{name}.calls"] = 0
        m[f"{name}.total_s"] = 0.0
        m[f"{name}.self_s"] = 0.0
    for prefix in CELL_PREFIXES:
        m[f"lstm.{prefix}.fwd_s"] = 0.0
        m[f"lstm.{prefix}.bwd_s"] = 0.0
    windows = iterations = picks = rows = flops = param_bytes = 0
    busy = capacity = 0.0
    for s in spans:
        sid, _, name, start, end, attrs = s
        if f"{name}.calls" not in m:
            continue
        m[f"{name}.calls"] += 1
        m[f"{name}.total_s"] += end - start
        m[f"{name}.self_s"] += selfs[sid]
        attrs = attrs or {}
        if name == "dataprep.build_windows":
            windows += attrs["windows"]
        elif name == "imputation.coreg_impute":
            iterations += attrs["iterations"]
        elif name == "imputation._best_candidate":
            picks += attrs["pick"]
        elif name == "imputation._knn_mean":
            rows += attrs["rows"]
        elif name in ("lstm.sequence_forward", "lstm.sequence_backward"):
            kind = "fwd_s" if name.endswith("forward") else "bwd_s"
            key = f"lstm.{attrs['cell']}.{kind}"
            m[key] = m.get(key, 0.0) + (end - start)
        elif name == "lstm.train":
            flops += attrs["flops"]
            param_bytes += attrs["param_bytes"]
        elif name == "experiments.run_sweep":
            busy += attrs["busy"]
            capacity += attrs["jobs"] * (end - start)
    scanned = m["imputation._confidence.calls"]
    m["dataprep.windows_built"] = windows
    m["imputation.iterations"] = iterations
    m["imputation.candidates_scanned"] = scanned
    m["imputation.pick_ratio"] = picks / scanned if scanned else 0.0
    m["imputation.distance_evals"] = rows
    m["lstm.matmul_flops_per_epoch"] = flops
    m["lstm.param_bytes"] = param_bytes
    m["experiments.sweep.worker_busy_share"] = busy / capacity if capacity else 0.0
    return m


def stage_layer_shares(spans):
    """Share of each stage's wall time spent as self time in each layer.

    Stage spans are named stage.<command>; self time of the stage span
    itself (argument parsing, CSV writing in cli.py) counts as layer cli.
    Returns {stage: {layer: share}}.
    """
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}

    def find_stage(sid):
        while sid in by_id:
            name, sid = by_id[sid][2], by_id[sid][1]
            if name.startswith("stage."):
                return name[len("stage."):]
        return None

    totals = {}
    for s in spans:
        stage = find_stage(s[0])
        if stage is None:
            continue
        layer = "cli" if s[2].startswith("stage.") else s[2].split(".", 1)[0]
        bucket = totals.setdefault(stage, {})
        bucket[layer] = bucket.get(layer, 0.0) + selfs[s[0]]
    walls = {s[2][len("stage."):]: s[4] - s[3] for s in spans
             if s[2].startswith("stage.")}
    return {
        stage: {layer: t / walls[stage] for layer, t in sorted(layers.items())}
        for stage, layers in totals.items()
    }


def summarize_reps(per_rep, epoch_ms):
    """Median of each metric over repetitions, plus epoch-time percentiles."""
    out = {}
    for key in per_rep[0]:
        values = [r[key] for r in per_rep]
        exact = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if exact else statistics.median)(values)
    out["lstm.epoch_ms.p50"] = percentile(epoch_ms, 50) if epoch_ms else 0.0
    out["lstm.epoch_ms.p90"] = percentile(epoch_ms, 90) if epoch_ms else 0.0
    out["lstm.epoch_ms.samples"] = len(epoch_ms)
    return out
