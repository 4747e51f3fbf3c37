"""Recursive joint cross-modal attention over three temporal feature streams.

The block stacks audio/visual/text feature matrices X_m (d_m x K) into one
(d x K) stack Y, computes a joint representation of Y, attends each
modality's rows by joint cross-correlation with a residual connection, and
recurses the attended stack back through the block. The last stack feeds a
small MLP regression head producing one prediction per frame in [-1, 1].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Tensor
from .data import MODALITIES


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
    return {name: Tensor(rng.uniform(-bound, bound, size=shape))
            for name, shape, bound in spec}


@dataclass
class FusionOutput:
    attended: Tensor            # d x K, the attended stack
    predictions: Tensor         # 1 x K, per-frame value in [-1, 1]
    intermediates: list = field(default_factory=list)


def joint_representation(y: Tensor, fc_w: Tensor, fc_b: Tensor) -> Tensor:
    """Column-wise FC over the (B, d, K) stack of the three streams."""
    return ad.add_col_bias(ad.matmul(fc_w, y), fc_b)


def attention_step(y: Tensor, joint: Tensor, w_j: list[Tensor], w_c: list[Tensor],
                   w_h: list[Tensor], keep: list | None = None) -> Tensor:
    """One recursion step over the (B, d, K) stack Y of every modality, as
    one graph node. Modality m is the next `w_j[m].rows` rows X_m of Y; its
    attended rows are relu((X_m W_c[m]) C_m) W_h[m] + X_m, where
    C_m = tanh(X_m^T (W_j[m] J / sqrt(d))).

    Each product with a shared K x K weight, and each of their gradients, is
    one GEMM over the batch's stacked rows. The K x K work runs per
    (modality, block of windows whose C fits in `parallel.BLOCK_BYTES`)
    item, while the block's C is in cache, all items on one
    `parallel.for_each`, which picks the threads and gives each pool thread
    its own copy of this thread's buffer of C; an item gets the same numpy
    calls on any thread. A recorded node keeps this thread's buffer only:
    the backward starts with the item whose C is still in it and recomputes
    the others'. It keeps no W_j[m] J either: the backward recomputes it
    with the forward's calls. A `keep` list receives a dict per modality of
    copies of its C ("corr") and attention map H ("map"), and its attended
    rows ("attended"), a view of the returned stack.
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
    window_c = k * k * yd.itemsize                 # bytes of one window's C
    step = max(1, min(n, parallel.BLOCK_BYTES // window_c))
    items = [(m, slice(i, min(i + step, n))) for m in range(len(xs)) for i in range(0, n, step)]
    item_bytes = window_c * step

    def joint_rows():
        # W_j[m] J / sqrt(d) per modality: GEMMs cheap enough that the
        # backward repeats these calls rather than keep their results
        a = [np.matmul(w.data, jd) for w in w_j]
        for am in a:
            am *= s
        return a

    a = joint_rows()
    p = [ad._mm(x, w.data) for x, w in zip(xs, w_c)]
    # this thread allocates every buffer; the pool's threads run numpy only
    c = np.empty((step, k, k))
    corr = None if keep is None else np.empty((len(xs), n, k, k))
    h = [np.empty_like(x) for x in xs]

    def correlate(a, item, buf):
        m, blk = item
        cb = buf[:blk.stop - blk.start]
        np.matmul(xs[m][blk].swapaxes(-1, -2), a[m][blk], out=cb)
        np.tanh(cb, out=cb)
        return cb

    def attend(item, buf):
        m, blk = item
        cb = correlate(a, item, buf)
        if corr is not None:
            corr[m][blk] = cb
        hb = h[m][blk]
        np.matmul(p[m][blk], cb, out=hb)
        np.fmax(hb, 0.0, out=hb)
        hb += 0.0                                    # relu: NaN and -0.0 give +0.0

    # the last item this thread ran; its C is still in `c`
    held = parallel.for_each(attend, items, item_bytes, (c,))[-1]
    out = np.empty_like(yd)
    for x, hm, w, om in zip(xs, h, w_h, np.split(out, splits, axis=1)):
        np.add(ad._mm(hm, w.data), x, out=om)
    out = out.reshape(y.shape)
    if keep is not None:
        keep += [{"corr": ad._value(cm.reshape(*y.shape[:-2], k, k)), "attended": ad._value(om),
                  "map": ad._value(hm.reshape(*y.shape[:-2], -1, k).copy())}
                 for cm, hm, om in zip(corr, h, np.split(out, splits, axis=-2))]

    def at_once(products):
        # independent GEMMs (left, right, out) on the pool, each whole (a
        # GEMM split in slabs changes its bits), under the size rule of C
        parallel.for_each(lambda lro: np.matmul(lro[0], lro[1], out=lro[2]), products,
                          item_bytes, ())

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
        a = joint_rows()

        def backprop(item, buf, gc_buf):
            # only this thread runs `held`, first, with `c` as `buf`
            m, blk = item
            cb = buf[:blk.stop - blk.start] if item is held else correlate(a, item, buf)
            gc = gc_buf[:blk.stop - blk.start]
            np.matmul(gq[m][blk], cb.swapaxes(-1, -2), out=gp[m][blk])
            np.matmul(p[m][blk].swapaxes(-1, -2), gq[m][blk], out=gc)   # d loss / d C
            np.multiply(cb, cb, out=cb)
            np.subtract(1.0, cb, out=cb)
            gc *= cb                                 # d loss / d (X^T a)
            np.matmul(xs[m][blk], gc, out=ga[m][blk])
            np.matmul(a[m][blk], gc.swapaxes(-1, -2), out=gx[m][blk])

        parallel.for_each(backprop, [held] + [item for item in items if item is not held],
                          item_bytes, (c, np.empty_like(c)))
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

    return ad._make(out, (y, joint, *w_j, *w_c, *w_h), bwd)


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
