"""Recursive joint cross-modal attention over three temporal feature streams.

The block stacks audio/visual/text feature matrices X_m (d_m x K) into one
(d x K) stack Y, computes a joint representation of Y, attends each
modality's rows by joint cross-correlation with a residual connection, and
recurses the attended stack back through the block. The last stack feeds a
small MLP regression head producing one prediction per frame in [-1, 1].
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cache, reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

MODALITIES = ("a", "v", "t")


@dataclass(frozen=True)
class FusionConfig:
    d_a: int
    d_v: int
    d_t: int
    K: int
    iterations: int = 3

    def __post_init__(self):
        for name in ("d_a", "d_v", "d_t", "K", "iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"FusionConfig.{name} must be positive")

    @property
    def d(self) -> int:
        return self.d_a + self.d_v + self.d_t

    @property
    def head_hidden(self) -> int:
        return max(1, self.d // 2)

    def dim(self, m: str) -> int:
        return {"a": self.d_a, "v": self.d_v, "t": self.d_t}[m]


def init_params(config: FusionConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Every learnable tensor of the fusion block, keyed by stable names:
    the shared joint FC (d x d weight, d x 1 bias), per recursion step i and
    modality m the matrices W_j (d_m x d), W_c (K x K), W_h (K x K), and a
    two-layer MLP head. Each is drawn uniformly from [-bound, bound]."""
    d, K, h = config.d, config.K, config.head_hidden
    # (name, shape, bound) in draw order
    spec = [("fc_joint/w", (d, d), 1.0 / math.sqrt(d)),
            ("fc_joint/b", (d, 1), 1.0 / math.sqrt(d))]
    for i in range(1, config.iterations + 1):
        for m in MODALITIES:
            dm = config.dim(m)
            # attention weights start near zero so the residual path dominates
            spec += [(f"iter{i}/W_j{m}", (dm, d), 1.0 / math.sqrt(dm)),
                     (f"iter{i}/W_c{m}", (K, K), 1e-2 / math.sqrt(K)),
                     (f"iter{i}/W_h{m}", (K, K), 1e-2 / math.sqrt(K))]
    spec += [("head/w1", (h, d), 1.0 / math.sqrt(d)), ("head/b1", (h, 1), 1.0 / math.sqrt(d)),
             ("head/w2", (1, h), 1.0 / math.sqrt(h)), ("head/b2", (1, 1), 1.0 / math.sqrt(h))]
    return {name: Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
            for name, shape, bound in spec}


@dataclass
class FusionOutput:
    attended: Tensor            # d x K, the attended stack
    predictions: Tensor         # 1 x K, per-frame value in [-1, 1]
    intermediates: list = field(default_factory=list)


def joint_representation(y: Tensor, fc_w: Tensor, fc_b: Tensor) -> Tensor:
    """Column-wise FC over the (B, d, K) stack of the three streams."""
    return ad.add_col_bias(ad.matmul(fc_w, y), fc_b)


# bytes of one block of K x K correlation C that a thread of
# `attention_step` works on (and, in the backward, of its gradient): small
# enough to stay in a core's L2
_BLOCK_BYTES = 1 << 20


def _worker_count(cpus: int, env) -> int:
    """Threads for the K x K work of `attention_step`: the CPUs this process
    may run on, divided by the threads OpenBLAS runs each product on. OpenBLAS
    takes that count from OPENBLAS_NUM_THREADS, else from OMP_NUM_THREADS,
    and else runs one thread per CPU, which leaves one worker."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(env.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


_WORKERS = _worker_count(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                         else os.cpu_count() or 1, os.environ)


@cache
def _executor(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, thread_name_prefix="rjcma-step")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads; it makes its own pool
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _for_each(fn, items: list, buffers: list[tuple]) -> list:
    """fn(item, *buffers[t]) once for every item, on one thread t per tuple
    of buffers: t = 0 is this thread and runs items[0] first, the pool runs
    the others. A thread takes the next item when it is free, so one that
    other load on its CPU slows down takes fewer. Returns the items this
    thread ran, in order. Waits for every thread before it returns or
    raises."""
    lock = threading.Lock()
    rest = iter(items[1:])

    def take():
        with lock:
            return next(rest, None)

    def run(bufs, first=()):
        ran = []
        for item in itertools.chain(first, iter(take, None)):
            fn(item, *bufs)
            ran.append(item)
        return ran

    futures = [_executor(len(buffers) - 1).submit(run, bufs) for bufs in buffers[1:]]
    try:
        ran = run(buffers[0], items[:1])
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return ran


def attention_step(y: Tensor, joint: Tensor, w_j: list[Tensor], w_c: list[Tensor],
                   w_h: list[Tensor], keep: list | None = None) -> Tensor:
    """One recursion step over the (B, d, K) stack Y of every modality, as
    one graph node. Modality m is the next `w_j[m].rows` rows X_m of Y; its
    attended rows are relu((X_m W_c[m]) C_m) W_h[m] + X_m, where
    C_m = tanh(X_m^T (W_j[m] J / sqrt(d))).

    Each product with a shared K x K weight, and each of their gradients, is
    one GEMM over the batch's stacked rows. The K x K work runs per
    (modality, block of windows whose C fits in `_BLOCK_BYTES`) item, while
    the block's C is in cache, all items on one `_for_each`; each thread
    reuses one buffer of C, and an item gets the same numpy calls on any
    thread. A recorded node keeps this thread's buffer only: the backward
    starts with the item whose C is still in it and recomputes the others'.
    A `keep` list receives a dict per modality of copies of its C ("corr")
    and attention map H ("map"), and its attended rows ("attended"), a view
    of the returned stack.
    """
    k = y.cols
    if (sum(w.rows for w in w_j) != y.rows or not len(w_j) == len(w_c) == len(w_h)
            or y.shape[:-2] + (k,) != joint.shape[:-2] + (joint.cols,)
            or any(w.shape[1:] != (joint.rows,) for w in w_j)
            or any(w.shape != (k, k) for w in (*w_c, *w_h))):
        raise ad.DimensionError(f"attention step shapes: Y {y.shape}, J {joint.shape}, "
                                f"W {[w.shape for w in (*w_j, *w_c, *w_h)]}")
    s = 1.0 / math.sqrt(joint.rows)
    yd = y.data.reshape(-1, y.rows, k)             # a 2-D input is a batch of one
    jd = joint.data.reshape(-1, joint.rows, k)
    n = len(yd)
    splits = np.cumsum([w.rows for w in w_j])[:-1]
    xs = np.split(yd, splits, axis=1)              # views of each modality's rows
    step = max(1, min(n, _BLOCK_BYTES // (8 * k * k)))
    items = [(m, slice(i, min(i + step, n))) for m in range(len(xs)) for i in range(0, n, step)]
    # an item of less than half a block of C runs on this thread alone: on
    # 2 CPUs the pool's hand-off cost more than it gained up to 256 KB, and
    # gained nothing at 384-512 KB (a K=64 batch of 12-16 windows)
    threads = min(_WORKERS, len(items)) if 2 * 8 * k * k * step >= _BLOCK_BYTES else 1
    a = [np.matmul(w.data, jd) for w in w_j]
    for am in a:
        am *= s
    p = [ad._mm(x, w.data) for x, w in zip(xs, w_c)]
    parents = (y, joint, *w_j, *w_c, *w_h)
    # this thread allocates every buffer; the pool's threads run numpy only
    c = np.empty((step, k, k))
    corr = None if keep is None else np.empty((len(xs), n, k, k))
    h = [np.empty_like(x) for x in xs]

    def correlate(item, buf):
        m, blk = item
        cb = buf[:blk.stop - blk.start]
        np.matmul(xs[m][blk].swapaxes(-1, -2), a[m][blk], out=cb)
        np.tanh(cb, out=cb)
        return cb

    def attend(item, buf):
        m, blk = item
        cb = correlate(item, buf)
        if corr is not None:
            corr[m][blk] = cb
        hb = h[m][blk]
        np.matmul(p[m][blk], cb, out=hb)
        np.fmax(hb, 0.0, out=hb)
        hb += 0.0                                    # relu: NaN and -0.0 give +0.0

    # the last item this thread ran; its C is still in `c`
    held = _for_each(attend, items,
                     [(c,)] + [(np.empty_like(c),) for _ in range(threads - 1)])[-1]
    out = np.empty_like(yd)
    for x, hm, w, om in zip(xs, h, w_h, np.split(out, splits, axis=1)):
        np.add(ad._mm(hm, w.data), x, out=om)
    out = out.reshape(y.shape)
    if keep is not None:
        keep += [{"corr": ad._value(cm.reshape(*y.shape[:-2], k, k)), "attended": ad._value(om),
                  "map": ad._value(hm.reshape(*y.shape[:-2], -1, k).copy())}
                 for cm, hm, om in zip(corr, h, np.split(out, splits, axis=-2))]
    if not ad._recording(*parents):
        return ad._value(out)

    def at_once(products):
        # independent GEMMs (left, right, out) on the pool, each whole (a
        # GEMM split in slabs changes its bits)
        _for_each(lambda lro: np.matmul(lro[0], lro[1], out=lro[2]), products,
                  [()] * min(threads, len(products)))

    def bwd(g):
        gs = [np.ascontiguousarray(gm) for gm in np.split(g.reshape(yd.shape), splits, axis=1)]
        rows = (-1, k)                               # the batch's stacked rows
        gw_h, gw_c = ([np.empty((k, k)) for _ in xs] for _ in range(2))
        gq, gp, ga = ([np.empty_like(x) for x in xs] for _ in range(3))
        gy = np.empty_like(yd)
        gx = np.split(gy, splits, axis=1)
        at_once([lro for gm, hm, w, gwm, gqm in zip(gs, h, w_h, gw_h, gq)
                 for lro in ((hm.reshape(rows).T, gm.reshape(rows), gwm),
                             (gm.reshape(rows), w.data.T, gqm.reshape(rows)))])
        for gqm, hm in zip(gq, h):
            gqm *= hm > 0.0                          # relu, subgradient 0 at 0

        def backprop(item, buf, gc_buf):
            # only this thread runs `held`, first, with `c` as `buf`
            m, blk = item
            cb = buf[:blk.stop - blk.start] if item is held else correlate(item, buf)
            gc = gc_buf[:blk.stop - blk.start]
            np.matmul(gq[m][blk], cb.swapaxes(-1, -2), out=gp[m][blk])
            np.matmul(p[m][blk].swapaxes(-1, -2), gq[m][blk], out=gc)   # d loss / d C
            np.multiply(cb, cb, out=cb)
            np.subtract(1.0, cb, out=cb)
            gc *= cb                                 # d loss / d (X^T a)
            np.matmul(xs[m][blk], gc, out=ga[m][blk])
            np.matmul(a[m][blk], gc.swapaxes(-1, -2), out=gx[m][blk])

        _for_each(backprop, [held] + [item for item in items if item is not held],
                  [(c, np.empty_like(c))]
                  + [(np.empty_like(c), np.empty_like(c)) for _ in range(threads - 1)])
        # dL/dP W_c^T goes to gq's buffers, which are free now
        at_once([lro for x, gpm, w, gwm, gxm in zip(xs, gp, w_c, gw_c, gq)
                 for lro in ((x.reshape(rows).T, gpm.reshape(rows), gwm),
                             (gpm.reshape(rows), w.data.T, gxm.reshape(rows)))])
        gy += g.reshape(yd.shape)
        for gxm, gxpm, gam in zip(gx, gq, ga):
            gxm += gxpm
            gam *= s                                 # d loss / d (W_j J)
        # dL/dJ summed in modality order (a, then v, then t), in place
        gj = reduce(operator.iadd, (np.matmul(w.data.T, gam) for w, gam in zip(w_j, ga)))
        return (gy.reshape(y.shape), gj.reshape(joint.shape),
                *(np.matmul(gam, jd.swapaxes(-1, -2)).sum(axis=0) for gam in ga),
                *gw_c, *gw_h)

    return ad._make(out, parents, bwd)


def predict_head(x_att: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Two-layer MLP applied per frame, tanh output to stay in [-1, 1]."""
    hidden = ad.relu(ad.add_col_bias(ad.matmul(params["head/w1"], x_att),
                                     params["head/b1"]))
    out = ad.add_col_bias(ad.matmul(params["head/w2"], hidden), params["head/b2"])
    return ad.tanh(out)


def rjcma_forward(xa: Tensor, xv: Tensor, xt: Tensor,
                  params: dict[str, Tensor], config: FusionConfig,
                  collect_intermediates: bool = False) -> FusionOutput:
    """Run the full recursive fusion block and regression head.

    The three streams are stacked once; each recursion step recomputes the
    joint representation from the current (attended) stack through the
    shared FC, then attends every modality with the step's own weights.
    """
    for m, x in zip(MODALITIES, (xa, xv, xt)):
        if x.shape[-2:] != (config.dim(m), config.K):
            raise ad.DimensionError(
                f"modality {m} shape {x.shape}, expected {(config.dim(m), config.K)}")

    y = ad.concat_rows([xa, xv, xt])
    intermediates = []
    for i in range(1, config.iterations + 1):
        joint = joint_representation(y, params["fc_joint/w"], params["fc_joint/b"])
        keep = [] if collect_intermediates else None
        y = attention_step(y, joint, *([params[f"iter{i}/{w}{m}"] for m in MODALITIES]
                                       for w in ("W_j", "W_c", "W_h")), keep)
        if collect_intermediates:
            intermediates.append(dict(zip(MODALITIES, keep)))

    return FusionOutput(attended=y, predictions=predict_head(y, params),
                        intermediates=intermediates)
