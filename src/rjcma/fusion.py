"""Recursive joint cross-modal attention over three temporal feature streams.

The block fuses audio/visual/text feature matrices X_m (d_m x K) by
computing a joint representation, per-modality joint cross-correlation
attention with a residual connection, and recursing the attended features
back through the block. The concatenated attended features feed a small
MLP regression head producing one prediction per frame in [-1, 1].
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cache

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


def expected_param_count(config: FusionConfig) -> int:
    d, K, h = config.d, config.K, config.head_hidden
    n = d * d + d
    per_iter = sum(config.dim(m) * d + 2 * K * K for m in MODALITIES)
    n += config.iterations * per_iter
    n += h * d + h + h + 1
    return n


@dataclass
class FusionOutput:
    attended: Tensor            # d x K, concatenated attended features
    predictions: Tensor         # 1 x K, per-frame value in [-1, 1]
    intermediates: list = field(default_factory=list)


def joint_representation(xa: Tensor, xv: Tensor, xt: Tensor,
                         fc_w: Tensor, fc_b: Tensor) -> Tensor:
    """Column-wise FC over the vertical concatenation of the three streams."""
    if not (xa.cols == xv.cols == xt.cols):
        raise ad.DimensionError(
            f"frame counts differ: {xa.cols}, {xv.cols}, {xt.cols}")
    stacked = ad.concat_rows([xa, xv, xt])
    return ad.add_col_bias(ad.matmul(fc_w, stacked), fc_b)


# bytes of one block of K x K correlation C that a thread of
# `attention_branch` works on (and, in the backward, of its gradient): small
# enough to stay in a core's L2
_BLOCK_BYTES = 1 << 20


def _worker_count(cpus: int, env) -> int:
    """Threads for the branch's K x K blocks: the CPUs this process may run
    on, divided by the threads OpenBLAS runs each product on. OpenBLAS takes
    that count from OPENBLAS_NUM_THREADS, else from OMP_NUM_THREADS, and
    else runs one thread per CPU, which leaves one worker."""
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
    return ThreadPoolExecutor(threads, thread_name_prefix="rjcma-branch")


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


def attention_branch(xm: Tensor, joint: Tensor, w_j: Tensor, w_c: Tensor,
                     w_h: Tensor, keep: dict | None = None) -> Tensor:
    """One modality's attended features relu((X W_c) C) W_h + X, where
    C = tanh(X^T (W_j J / sqrt(d))), as one graph node.

    The products with the shared K x K weights (`X W_c`, `H W_h`, their
    weight gradients and the gradients through them) are one GEMM over the
    stacked rows of the batch. The K x K work walks the batch in blocks of
    windows whose C fits in `_BLOCK_BYTES` (one window at K=300, the whole
    batch at K=64), so a block's C is written and used while it is still in
    cache: C_b = tanh(X_b^T a_b) with a = W_j J / sqrt(d) (grouped so the
    inner dimension is d_m), then P_b C_b with P = X W_c. The blocks run on
    `min(_WORKERS, blocks)` threads (`_for_each`), each reusing one
    block-sized buffer of C; a block gets the same numpy calls on any
    thread, so the bits do not depend on the thread count. A recorded node
    keeps this thread's buffer only: its backward starts this thread on the
    block whose C is still in it, and recomputes every other block's C with
    the forward's own calls, so values and gradients are those of a stored
    C. With more than one block, the backward also runs its shared-weight
    GEMMs two at a time: dL/dW_h beside dL/dH W_h^T, and dL/dW_c beside
    dL/dP W_c^T. If `keep` is a dict, it receives copies of C ("corr") and
    of the attention map H ("map").
    """
    k = xm.cols
    if (xm.rows != w_j.rows or w_j.cols != joint.rows
            or xm.shape[:-2] + (k,) != joint.shape[:-2] + (joint.cols,)
            or w_c.shape != (k, k) or w_h.shape != (k, k)):
        raise ad.DimensionError(
            f"attention branch shapes: X {xm.shape}, J {joint.shape}, "
            f"W_j {w_j.shape}, W_c {w_c.shape}, W_h {w_h.shape}")
    s = 1.0 / math.sqrt(joint.rows)
    x = xm.data.reshape(-1, xm.rows, k)            # a 2-D input is a batch of one
    jd = joint.data.reshape(-1, joint.rows, k)
    n = len(x)
    step = max(1, min(n, _BLOCK_BYTES // (8 * k * k)))
    blocks = [slice(i, min(i + step, n)) for i in range(0, n, step)]
    threads = min(_WORKERS, len(blocks))
    a = np.matmul(w_j.data, jd)
    a *= s
    p = ad._mm(x, w_c.data)
    parents = (xm, joint, w_j, w_c, w_h)
    recording = ad._recording(*parents)
    # this thread allocates every buffer; the pool's threads run numpy only
    c = np.empty((step, k, k))
    corr = None if keep is None else np.empty((n, k, k))
    q = np.empty_like(p)

    def correlate(blk, buf):
        cb = buf[:blk.stop - blk.start]
        np.matmul(x[blk].swapaxes(-1, -2), a[blk], out=cb)
        np.tanh(cb, out=cb)
        return cb

    def attend(blk, buf):
        cb = correlate(blk, buf)
        if corr is not None:
            corr[blk] = cb
        np.matmul(p[blk], cb, out=q[blk])

    # the last block this thread ran; its C is still in `c`
    held = _for_each(attend, blocks,
                     [(c,)] + [(np.empty_like(c),) for _ in range(threads - 1)])[-1]
    h = np.fmax(q, 0.0)
    h += 0.0                                         # relu: NaN and -0.0 give +0.0
    out = ad._mm(h, w_h.data)
    out += x
    out = out.reshape(xm.shape)
    if keep is not None:
        keep["corr"] = ad._value(corr.reshape(*xm.shape[:-2], k, k))
        keep["map"] = ad._value(h.reshape(xm.shape).copy())
    if not recording:
        return ad._value(out)

    def at_once(*products):
        # independent whole GEMMs on up to two threads, each the call that
        # one thread would make (a GEMM split in slabs changes its bits)
        _for_each(lambda f: f(), list(products), [()] * min(threads, len(products)))

    def bwd(g):
        g = g.reshape(x.shape)
        rows = (-1, k)                               # the batch's stacked rows
        gw_h = np.empty((k, k))
        gq = np.empty_like(x)
        at_once(lambda: np.matmul(h.reshape(rows).T, g.reshape(rows), out=gw_h),
                lambda: np.matmul(g.reshape(rows), w_h.data.T, out=gq.reshape(rows)))
        gq *= h > 0.0                                # relu, subgradient 0 at 0
        gp = np.empty_like(gq)
        ga = np.empty_like(a)
        gx = np.empty_like(x)

        def backprop(blk, buf, gc_buf):
            # only this thread runs `held`, first, with `c` as `buf`
            cb = buf[:blk.stop - blk.start] if blk is held else correlate(blk, buf)
            gc = gc_buf[:blk.stop - blk.start]
            np.matmul(gq[blk], cb.swapaxes(-1, -2), out=gp[blk])
            np.matmul(p[blk].swapaxes(-1, -2), gq[blk], out=gc)   # d loss / d C
            np.multiply(cb, cb, out=cb)
            np.subtract(1.0, cb, out=cb)
            gc *= cb                                 # d loss / d (X^T a)
            np.matmul(x[blk], gc, out=ga[blk])
            np.matmul(a[blk], gc.swapaxes(-1, -2), out=gx[blk])

        _for_each(backprop, [held] + [blk for blk in blocks if blk is not held],
                  [(c, np.empty_like(c))]
                  + [(np.empty_like(c), np.empty_like(c)) for _ in range(threads - 1)])
        gw_c = np.empty((k, k))
        gx_p = np.empty_like(x)
        at_once(lambda: np.matmul(x.reshape(rows).T, gp.reshape(rows), out=gw_c),
                lambda: np.matmul(gp.reshape(rows), w_c.data.T, out=gx_p.reshape(rows)))
        gx += g
        gx += gx_p
        ga *= s                                      # d loss / d (W_j J)
        gw_j = np.matmul(ga, jd.swapaxes(-1, -2)).sum(axis=0)
        gj = np.matmul(w_j.data.T, ga)
        return gx.reshape(xm.shape), gj.reshape(joint.shape), gw_j, gw_c, gw_h

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

    Each recursion step recomputes the joint representation from the
    current (attended) features through the shared FC, then applies the
    step's own attention weights per modality.
    """
    feats = {"a": xa, "v": xv, "t": xt}
    for m in MODALITIES:
        expected = (config.dim(m), config.K)
        if feats[m].shape[-2:] != expected:
            raise ad.DimensionError(
                f"modality {m} shape {feats[m].shape}, expected {expected}")

    intermediates = []
    for i in range(1, config.iterations + 1):
        joint = joint_representation(feats["a"], feats["v"], feats["t"],
                                     params["fc_joint/w"], params["fc_joint/b"])
        step = {}
        nxt = {}
        for m in MODALITIES:
            keep = {} if collect_intermediates else None
            nxt[m] = attention_branch(feats[m], joint, params[f"iter{i}/W_j{m}"],
                                      params[f"iter{i}/W_c{m}"],
                                      params[f"iter{i}/W_h{m}"], keep)
            if collect_intermediates:
                step[m] = {**keep, "attended": nxt[m]}
        feats = nxt
        if collect_intermediates:
            intermediates.append(step)

    attended = ad.concat_rows([feats["a"], feats["v"], feats["t"]])
    predictions = predict_head(attended, params)
    return FusionOutput(attended=attended, predictions=predictions,
                        intermediates=intermediates)
