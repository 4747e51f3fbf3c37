"""rjcma benchmark: one workload per process, for a fixed time.

    python3 perfbench/run.py --workload paper_train --seed 1 --seconds 20 --trace 0

Workloads: paper_train, small_fold, paper_eval (see workloads.py and
BENCHMARK.json). The package is imported from `src/` next to this
directory; nothing is installed or built. Inputs come from `--seed` only.

`--trace 0` prints the end-to-end metrics; `--trace 1` hooks every layer
(tracing.py), prints the per-layer metrics and writes the spans to
`.perfbench_out/`. Human-readable lines come first; the last line of
standard output is one JSON object: {correct, attempted, failed, metrics}.
Scratch files go to `.perfbench_out/` under the checkout and are removed at
the end, except the span files.

The figures depend on the host. The reference host has 2 shared cores
(`nproc` = 2). OpenBLAS is held to one thread (`BLAS_THREADS`): at these
matrix sizes a second thread did not raise throughput there, and with one
the process needs only one of the shared cores. Every result prints the
core count, Python, numpy and BLAS build and thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

# read by OpenBLAS when numpy loads it, so set before anything imports numpy
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
# share of the measured wall time spent in timed set-ups; they run between
# tasks, so their median samples the host's fast and slow streaks the way
# the tasks do, instead of the few milliseconds before the first task
SETUP_SHARE = 0.1
OUT_DIR = ".perfbench_out"


def end_to_end_names() -> list[tuple[str, str]]:
    return [("setup_s", "s"), ("peak_rss_mb", "MB"), ("windows_per_s", "1/s")]


# per workload: the roadmap's name for windows_per_s, and the name of the
# printed (not gated) median op time
ALIASES = {
    "paper_train": ("train_windows_per_s", "train_step_p50_ms"),
    "small_fold": ("train_windows_per_s", "epoch_p50_ms"),
    "paper_eval": ("eval_windows_per_s", "window_p50_ms"),
}


def environment() -> dict:
    import numpy as np
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "blas": None, "blas_threads": None,
           "note": "reference host: 2 shared cores"}
    try:
        env["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (KeyError, TypeError, AttributeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas*.so"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    env["blas_threads"] = fn()
                    config = getattr(handle, "scipy_openblas_get_config64_", None)
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        env["blas"] = config().decode()
                    break
        except OSError:
            continue
    return env


def load_package():
    """The rjcma modules from this checkout's src/, as one namespace."""
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    names = ("autodiff", "temporal", "fusion", "metrics", "model", "train",
             "data", "checkpoint", "cli")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"rjcma.{n}") for n in names})


def measure(rj, workload, seed: int, seconds: float, trace: bool, workdir: Path):
    from perfbench import tracing, workloads

    wl = workloads.WORKLOADS[workload](rj, seed, workdir)
    tracer = tracing.Tracer() if trace else None
    setup_times = []

    def timed_setups():
        # at least one set-up, then more until they fill their share
        while True:
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            if sum(setup_times) >= SETUP_SHARE * sum(t.seconds for t in tasks):
                return

    def room_for_another() -> bool:
        # stop before a task that would end past `seconds`, so a run's
        # length does not grow with the task size; at least one task runs
        if not tasks:
            return True
        per_task = (time.perf_counter() - start) / len(tasks)
        return time.perf_counter() - start + per_task <= seconds

    tasks, untraced = [], None
    if trace:
        with tracing.instrument(tracer, rj), tracer.span("bench.setup"):
            wl.setup()
    else:
        timed_setups()

    # the first task runs before the clock starts: it allocates and faults
    # in memory that later tasks reuse; its ops are still checked
    warmup = wl.task()
    start = time.perf_counter()
    absent = []
    if trace:
        # one untraced task as the reference for the tracing overhead
        untraced = wl.task()
        tracer.reset_counters()
        with tracing.instrument(tracer, rj) as hooks:
            absent = hooks.absent
            while not tasks or time.perf_counter() - start < seconds:
                with tracer.span(tracing.TASK_SPAN):
                    tasks.append(wl.task())
    else:
        while room_for_another():
            tasks.append(wl.task())
            timed_setups()

    failures = wl.check()
    everything = [warmup] + tasks + ([untraced] if untraced else [])
    attempted = sum(t.ops for t in everything)
    failed = sum(t.failed for t in everything) + len(failures)

    lines = [f"workload {workload} seed {seed}: {len(tasks)} task(s), "
             f"{sum(t.ops for t in tasks)} ops, {sum(t.seconds for t in tasks):.2f} s measured"]
    lines += [f"check failed: {msg}" for msg in failures]
    if trace:
        ops = sum(t.ops for t in tasks)
        metrics = tracing.layer_metrics(
            tracer, ops, len(tasks), 1e3 * untraced.seconds / untraced.ops)
        units = dict(tracing.per_layer_names())
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        self_total = sum(metrics[f"self_ms.{x}"] for x in tracing.LAYERS + ("unattributed",))
        lines.append(f"self time per op: layers {self_total - metrics['self_ms.unattributed']:.3f} ms "
                     f"+ unattributed {metrics['self_ms.unattributed']:.3f} ms = "
                     f"{self_total:.3f} ms; traced {metrics['trace.traced_ms_per_op']:.3f} ms/op")
        if absent:
            lines.append(f"absent (not traced): {', '.join(absent)}")
        path = ROOT / OUT_DIR / f"{workload}-seed{seed}-spans.jsonl.gz"
        tracer.write(path)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        op_times = [s for t in tasks for s in t.op_seconds]
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # median over tasks: a task that ran through a streak of host
            # contention does not move it, where it moves the run's total
            "windows_per_s": statistics.median(t.windows / t.seconds for t in tasks),
        }
        out = {name: {"value": values[name], "unit": unit}
               for name, unit in end_to_end_names()}
        throughput, op_p50 = ALIASES[workload]
        lines.append(f"{throughput} = {values['windows_per_s']:.6g} 1/s")
        lines.append(f"{op_p50} = {1e3 * statistics.median(op_times):.6g} ms "
                     f"({len(op_times)} ops)")
        if workload == "small_fold":
            lines.append(f"fold_s = {statistics.median(t.seconds for t in tasks):.6g} s")
    for name, (value, unit) in wl.extra().items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": out}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    if not (ROOT / "src" / "rjcma" / "__init__.py").is_file():
        print(f"perfbench: no rjcma package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        rj = load_package()
    except ImportError as e:
        print(f"perfbench: cannot import rjcma from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2

    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / OUT_DIR))
    try:
        lines, result = measure(rj, args.workload, args.seed, args.seconds,
                                bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
