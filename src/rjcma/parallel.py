"""The thread policy of rjcma in one place: the thread budget (`WORKERS`)
and `for_each`, which decides how many threads run a caller's items (the
size rule and the nesting rule), makes each pool thread's copy of the
caller's scratch arrays and runs the items. Callers look these names up
here at call time, so that setting one reaches every later call.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cache

import numpy as np

# bytes of one block of K x K correlation C that a thread of
# `fusion.attention_step` works on (and, in the backward, of its gradient):
# small enough to stay in a core's L2
BLOCK_BYTES = 1 << 20


def worker_count(cpus: int, env) -> int:
    """Threads for the process's parallel work: the CPUs it may run on,
    divided by the threads OpenBLAS runs each product on. OpenBLAS takes that
    count from OPENBLAS_NUM_THREADS, else from OMP_NUM_THREADS, and else runs
    one thread per CPU, and then one worker is left."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(env.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


WORKERS = worker_count(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1, os.environ)


@cache
def _executor(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, thread_name_prefix="rjcma-step")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads; it makes its own pool
    os.register_at_fork(after_in_child=_executor.cache_clear)


class _Busy(threading.local):
    item = False            # true on a thread while it runs a `for_each` item


_busy = _Busy()


def _threads(item_bytes: int, n_items: int) -> int:
    """Threads for a `for_each` over `n_items` items that each work on
    `item_bytes`. Items of less than half of `BLOCK_BYTES` (a one-window
    item of C below K=256 in f64) run on this thread alone: on 2 CPUs the
    pool's hand-off cost more than it gained up to 256 KB, and gained
    nothing at 384-512 KB. So do the items of a call made inside an item of
    another `for_each` (the nesting rule): the other threads are busy with
    the outer items already, and a pool thread that queued work on its own
    one-thread pool and waited for it would wait forever."""
    if 2 * item_bytes < BLOCK_BYTES or _busy.item:
        return 1
    return max(1, min(WORKERS, n_items))


def for_each(fn, items: list, item_bytes: int, scratch: tuple) -> list:
    """fn(item, *bufs) once for every item, where each item works on
    `item_bytes` (an array's `nbytes`). This thread runs items[0] first,
    with the caller's own `scratch` arrays as `bufs`; up to `WORKERS` - 1
    pool threads run the others, each with `np.empty_like` copies of
    `scratch` that this thread makes. A thread takes the next item when it
    is free, so one that other load on its CPU slows down takes fewer.
    Returns the items this thread ran, in order. Waits for every thread
    before it returns or raises."""
    buffers = [scratch] + [tuple(map(np.empty_like, scratch))
                           for _ in range(_threads(item_bytes, len(items)) - 1)]
    lock = threading.Lock()
    rest = iter(items[1:])

    def take():
        with lock:
            return next(rest, None)

    def run(bufs, first=()):
        outer, _busy.item = _busy.item, True
        ran = []
        try:
            for item in itertools.chain(first, iter(take, None)):
                fn(item, *bufs)
                ran.append(item)
        finally:
            _busy.item = outer
        return ran

    futures = [_executor(len(buffers) - 1).submit(run, bufs) for bufs in buffers[1:]]
    try:
        ran = run(scratch, items[:1])
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return ran
