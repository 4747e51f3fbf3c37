"""Spans and counters recorded from outside the rjcma package.

Every hook replaces a public function at the module or class attribute its
callers look up, and puts the original back afterwards; nothing in `src/`
is edited. A span is recorded at each layer boundary (name, start, end,
parent) and kept in memory until the run ends. Autodiff primitives and the
backward closures they return run too often to keep one span each: their
time is added to the enclosing span's leaf total and to a per-op total,
which gives the same self-time arithmetic as one span per call.

A hook whose target no longer exists is listed in `Patches.absent` and its
metrics read 0; the run goes on.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

MODALITIES = ("a", "v", "t")
ITERATIONS = 3
LEAF_LAYER = "autodiff"
TASK_SPAN = "bench.task"
LAYERS = ("autodiff", "temporal", "fusion", "metrics", "model", "train",
          "data", "checkpoint", "cli")

# the primitives rjcma's layers call; any other public autodiff function
# (a fused op added later) is timed under "other"
PRIMITIVES = ("add", "add_col_bias", "concat_rows", "covariance", "div",
              "matmul", "mean", "mul", "relu", "scale", "select_cols",
              "shift", "shift_cols", "sub", "tanh", "transpose", "variance")
NOT_PRIMITIVES = {"backward", "zero_grads", "grad_check", "relative_error"}


class Patches:
    """Attribute replacements, undone last-first on exit."""

    def __init__(self):
        self._saved = []
        self.absent: list[str] = []

    def wrap(self, owner, attr: str, make) -> bool:
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return False
        setattr(owner, attr, make(orig))
        self._saved.append((owner, attr, orig))
        return True

    def after(self, owner, attr: str, hook) -> bool:
        """Call `hook(result, *args)` after each call of owner.attr."""
        def make(orig):
            def wrapper(*args, **kwargs):
                out = orig(*args, **kwargs)
                hook(out, *args)
                return out
            return wrapper
        return self.wrap(owner, attr, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """In-memory span store with per-span leaf time and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.leaf = array("d")
        self.stack: list[int] = []
        self.ops: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.leaf.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def add_leaf(self, key: str, seconds: float) -> None:
        rec = self.ops[key]
        rec[0] += 1
        rec[1] += seconds
        if self.stack:
            self.leaf[self.stack[-1]] += seconds

    def reset_counters(self) -> None:
        self.ops.clear()
        self.counts.clear()

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [(self.names[self.name[i]], self.start[i], self.end[i], self.parent[i])
                for i in range(len(self.name))]

    def write(self, path) -> None:
        """Spans as JSON lines (gzip): a header with leaf op totals, then one
        {name, start, end, parent} object per span, parent -1 for a root."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write(json.dumps({"leaf_ops": {k: {"calls": v[0], "seconds": v[1]}
                                             for k, v in sorted(self.ops.items())},
                                "counts": dict(self.counts)}) + "\n")
            for name, s, e, p in self.spans():
                f.write(json.dumps({"name": name, "start": s, "end": e,
                                    "parent": p}) + "\n")


def layer_of(span_name: str) -> str:
    layer = span_name.split(".", 1)[0]
    return layer if layer in LAYERS else "unattributed"


def self_times(spans, leaf, root_name: str = TASK_SPAN) -> dict[str, float]:
    """Seconds of self time per layer, over the spans under roots named `root_name`.

    `spans` are (name, start, end, parent) with each parent listed before its
    children; `leaf[i]` is time spent in leaf calls directly inside span i,
    which counts for LEAF_LAYER. A span's self time is its duration minus
    its children's durations and its leaf time, so the layer totals add up
    to the roots' total duration.
    """
    root = []
    covered = [0.0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        if spans[root[i]][0] != root_name:
            continue
        out[layer_of(name)] += (end - start) - covered[i] - leaf[i]
        out[LEAF_LAYER] += leaf[i]
    return dict(out)


def _matmul_cost(a, b):
    """(flop, bytes) of a 2-D product, from the operand shapes."""
    try:
        (m, k), (k2, n) = a.shape, b.shape
    except (AttributeError, ValueError):
        return None
    return 2 * m * k * n, 8 * (m * k + k2 * n + m * n)


@contextmanager
def instrument(tracer: Tracer, rj):
    """Hook every layer of the package `rj` (a namespace of its modules)."""
    clock = tracer.clock
    state = {"iter": 0, "mod": -1, "tcn": 0}
    with Patches() as p:
        def span(owner, attr, name):
            """Wrap owner.attr in a span; a callable `name` gets the call's args."""
            def make(orig):
                def wrapper(*args, **kwargs):
                    idx = tracer.begin(name(*args) if callable(name) else name)
                    try:
                        return orig(*args, **kwargs)
                    finally:
                        tracer.finish(idx)
                return wrapper
            p.wrap(owner, attr, make)

        # autodiff: primitives and their backward closures are leaf totals
        ad = rj.autodiff

        def primitive(op):
            fwd, bwd = f"fwd.{op}", f"bwd.{op}"

            def timed_backward(fn):
                def backward_fn(g):
                    t0 = clock()
                    out = fn(g)
                    tracer.add_leaf(bwd, clock() - t0)
                    return out
                return backward_fn

            def make(orig):
                def wrapper(*args, **kwargs):
                    t0 = clock()
                    out = orig(*args, **kwargs)
                    tracer.add_leaf(fwd, clock() - t0)
                    if op == "matmul" and len(args) == 2:
                        cost = _matmul_cost(*args)
                        if cost is not None:
                            tracer.counts["matmul.calls"] += 1
                            tracer.counts["matmul.flop"] += cost[0]
                            tracer.counts["matmul.bytes"] += cost[1]
                    fn = getattr(out, "_backward_fn", None)
                    if fn is not None:
                        tracer.counts["nodes"] += 1
                        out._backward_fn = timed_backward(fn)
                    return out
                return wrapper
            return make

        for attr, fn in list(vars(ad).items()):
            if (inspect.isfunction(fn) and fn.__module__ == ad.__name__
                    and not attr.startswith("_") and attr not in NOT_PRIMITIVES):
                p.wrap(ad, attr, primitive(attr if attr in PRIMITIVES else "other"))
        span(ad, "backward", "autodiff.backward")

        # cli and train
        span(rj.cli, "main", "cli.main")
        span(rj.train, "train_fold", "train.train_fold")
        span(rj.train, "fit", "train.fit")
        span(rj.train, "adam_step", "train.adam_step")
        span(rj.train, "evaluate_model", "train.evaluate_model")

        # model; the counters that name fusion steps and TCN modalities are
        # reset at each window
        Model = rj.model.RjcmaModel

        def forward_window_name(*_):
            state["tcn"] = 0
            return "model.forward_window"

        span(Model, "forward_window", forward_window_name)
        span(Model, "predict", "model.predict")
        span(Model, "loss_on_window", "model.loss_on_window")
        span(Model, "state_arrays", "model.state_arrays")
        span(Model, "load_state_arrays", "model.load_state_arrays")
        span(Model, "save", "model.save")

        def tcn_name(*_):
            m = MODALITIES[state["tcn"] % 3]
            state["tcn"] += 1
            return f"temporal.tcn_forward.{m}"

        span(rj.model, "tcn_forward", tcn_name)

        # fusion
        def forward_name(*_):
            state["iter"] = 0
            return "fusion.forward"

        def joint_name(*_):
            state["iter"] += 1
            state["mod"] = -1
            return f"fusion.joint.iter{state['iter']}"

        def step_name(kind, advance=False):
            def name(*_):
                if advance:
                    state["mod"] += 1
                m = MODALITIES[state["mod"] % 3]
                return f"fusion.{kind}.iter{state['iter']}.{m}"
            return name

        span(rj.model, "rjcma_forward", forward_name)
        span(rj.fusion, "joint_representation", joint_name)
        span(rj.fusion, "joint_cross_correlation", step_name("corr", advance=True))
        span(rj.fusion, "attention_map", step_name("map"))
        span(rj.fusion, "attend", step_name("attend"))
        span(rj.fusion, "predict_head", "fusion.head")

        # metrics
        span(rj.model, "ccc_loss", "metrics.ccc_loss")
        span(rj.train, "evaluate", "metrics.evaluate")

        # data and checkpoint
        def read_name(path, *_):
            try:
                tracer.counts["data.read_bytes"] += os.path.getsize(path)
            except (OSError, TypeError):
                pass
            return "data.read_features"

        span(rj.data, "read_features", read_name)
        span(rj.data, "load_manifest_records", "data.load_manifest_records")
        span(rj.data, "window", "data.window")
        span(rj.train, "window", "data.window")
        span(rj.data.Normalizer, "fit", "data.normalizer_fit")
        span(rj.data.Normalizer, "transform", "data.normalize")
        span(rj.checkpoint, "read_checkpoint", "checkpoint.read")
        span(rj.checkpoint, "write_checkpoint", "checkpoint.write")
        yield p


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for i in range(1, ITERATIONS + 1):
        out.append((f"fusion.joint_ms.iter{i}", "ms"))
        for kind in ("corr", "map", "attend"):
            for m in MODALITIES:
                out.append((f"fusion.{kind}_ms.iter{i}.{m}", "ms"))
    out.append(("fusion.head_ms", "ms"))
    out.append(("autodiff.backward_ms_per_step", "ms"))
    for op in PRIMITIVES + ("other",):
        out.append((f"autodiff.fwd.{op}_ms", "ms"))
    for op in PRIMITIVES + ("other",):
        out.append((f"autodiff.bwd.{op}_ms", "ms"))
    out += [("autodiff.nodes_per_window", "count"),
            ("autodiff.matmul.calls_per_window", "count"),
            ("autodiff.matmul.gflop_per_window", "GFLOP_computed"),
            ("autodiff.matmul.mb_per_window", "MB_computed")]
    out += [(f"temporal.tcn_forward_ms.{m}", "ms") for m in MODALITIES]
    out += [("metrics.ccc_loss_ms", "ms"), ("metrics.evaluate_ms", "ms"),
            ("train.adam_step_ms", "ms"), ("train.val_pass_ms", "ms"),
            ("model.state_copy_ms", "ms"),
            ("data.read_features_ms", "ms"), ("data.read_mb", "MB"),
            ("data.window_ms", "ms"), ("data.normalize_ms", "ms"),
            ("checkpoint.read_ms", "ms"), ("checkpoint.write_ms", "ms")]
    out += [(f"self_ms.{layer}", "ms/op") for layer in LAYERS + ("unattributed",)]
    out += [("trace.traced_ms_per_op", "ms/op"), ("trace.untraced_ms_per_op", "ms/op"),
            ("trace.overhead_ms_per_op", "ms/op")]
    return out


def layer_metrics(tracer: Tracer, traced_ops: int, traced_tasks: int,
                  untraced_ms_per_op: float) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of a traced run.

    `*_ms` is the mean duration per call, except `autodiff.fwd.*` (per
    window forwarded), `autodiff.bwd.*` (per backward sweep) and `self_ms.*`
    (per workload op). A function never called reads 0.
    """
    spans = tracer.spans()
    calls: dict[str, list] = defaultdict(lambda: [0, 0.0])
    val = [0, 0.0]
    task_seconds = 0.0
    for name, start, end, parent in spans:
        rec = calls[name]
        rec[0] += 1
        rec[1] += end - start
        if name == "metrics.evaluate" and parent >= 0 and spans[parent][0] == "train.fit":
            val[0] += 1
            val[1] += end - start
        if name == TASK_SPAN:
            task_seconds += end - start

    def mean_ms(*names):
        n = sum(calls[x][0] for x in names if x in calls)
        s = sum(calls[x][1] for x in names if x in calls)
        return 1e3 * s / n if n else 0.0

    windows = calls["model.forward_window"][0] if "model.forward_window" in calls else 0
    sweeps = calls["autodiff.backward"][0] if "autodiff.backward" in calls else 0
    out = {}
    for i in range(1, ITERATIONS + 1):
        out[f"fusion.joint_ms.iter{i}"] = mean_ms(f"fusion.joint.iter{i}")
        for kind in ("corr", "map", "attend"):
            for m in MODALITIES:
                out[f"fusion.{kind}_ms.iter{i}.{m}"] = mean_ms(f"fusion.{kind}.iter{i}.{m}")
    out["fusion.head_ms"] = mean_ms("fusion.head")
    out["autodiff.backward_ms_per_step"] = mean_ms("autodiff.backward")
    for op in PRIMITIVES + ("other",):
        fwd, bwd = tracer.ops.get(f"fwd.{op}"), tracer.ops.get(f"bwd.{op}")
        out[f"autodiff.fwd.{op}_ms"] = 1e3 * fwd[1] / windows if fwd and windows else 0.0
        out[f"autodiff.bwd.{op}_ms"] = 1e3 * bwd[1] / sweeps if bwd and sweeps else 0.0
    per_window = (lambda x: x / windows) if windows else (lambda x: 0.0)
    out["autodiff.nodes_per_window"] = per_window(tracer.counts["nodes"])
    out["autodiff.matmul.calls_per_window"] = per_window(tracer.counts["matmul.calls"])
    out["autodiff.matmul.gflop_per_window"] = per_window(tracer.counts["matmul.flop"] / 1e9)
    out["autodiff.matmul.mb_per_window"] = per_window(tracer.counts["matmul.bytes"] / 1e6)
    for m in MODALITIES:
        out[f"temporal.tcn_forward_ms.{m}"] = mean_ms(f"temporal.tcn_forward.{m}")
    out["metrics.ccc_loss_ms"] = mean_ms("metrics.ccc_loss")
    out["metrics.evaluate_ms"] = mean_ms("metrics.evaluate")
    out["train.adam_step_ms"] = mean_ms("train.adam_step")
    out["train.val_pass_ms"] = 1e3 * val[1] / val[0] if val[0] else 0.0
    out["model.state_copy_ms"] = mean_ms("model.state_arrays", "model.load_state_arrays")
    out["data.read_features_ms"] = mean_ms("data.read_features")
    out["data.read_mb"] = (tracer.counts["data.read_bytes"] / 1e6 / traced_tasks
                           if traced_tasks else 0.0)
    out["data.window_ms"] = mean_ms("data.window")
    out["data.normalize_ms"] = mean_ms("data.normalize")
    out["checkpoint.read_ms"] = mean_ms("checkpoint.read")
    out["checkpoint.write_ms"] = mean_ms("checkpoint.write")
    selfs = self_times(spans, tracer.leaf)
    for layer in LAYERS + ("unattributed",):
        out[f"self_ms.{layer}"] = 1e3 * selfs.get(layer, 0.0) / traced_ops
    traced = 1e3 * task_seconds / traced_ops
    out["trace.traced_ms_per_op"] = traced
    out["trace.untraced_ms_per_op"] = untraced_ms_per_op
    out["trace.overhead_ms_per_op"] = traced - untraced_ms_per_op
    return out
