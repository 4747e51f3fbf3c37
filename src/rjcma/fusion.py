"""Recursive joint cross-modal attention over three temporal feature streams.

The block fuses audio/visual/text feature matrices X_m (d_m x K) by
computing a joint representation, per-modality joint cross-correlation
attention with a residual connection, and recursing the attended features
back through the block. The concatenated attended features feed a small
MLP regression head producing one prediction per frame in [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


# bytes of K x K blocks (C, and its gradient in the backward pass) that one
# step of `attention_branch` works on: small enough to stay in a core's L2
_BLOCK_BYTES = 1 << 20


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
    inner dimension is d_m), then P_b C_b with P = X W_c. Every block reuses
    one buffer, so a recorded node keeps one block of C, not the batch's:
    its backward walks the blocks last-first, starts from the last block's
    C, still in the buffer, and recomputes every other block's C there with
    the forward's own calls, so values and gradients are those of a stored
    C. If `keep` is a dict, it receives copies of C ("corr") and of the
    attention map H ("map").
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
    a = np.matmul(w_j.data, jd)
    a *= s
    p = ad._mm(x, w_c.data)
    parents = (xm, joint, w_j, w_c, w_h)
    recording = ad._recording(*parents)
    c = np.empty((step, k, k))
    corr = None if keep is None else np.empty((n, k, k))
    q = np.empty_like(p)

    def correlate(blk):
        cb = c[:blk.stop - blk.start]
        np.matmul(x[blk].swapaxes(-1, -2), a[blk], out=cb)
        np.tanh(cb, out=cb)
        return cb

    for blk in blocks:
        cb = correlate(blk)
        if corr is not None:
            corr[blk] = cb
        np.matmul(p[blk], cb, out=q[blk])
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

    def bwd(g):
        g = g.reshape(x.shape)
        gw_h = h.reshape(-1, k).T @ g.reshape(-1, k)
        gq = ad._mm(g, w_h.data.T)
        gq *= h > 0.0                                # relu, subgradient 0 at 0
        gp = np.empty_like(gq)
        ga = np.empty_like(a)
        gx = np.empty_like(x)
        gc_buf = np.empty((step, k, k))
        for i, blk in enumerate(reversed(blocks)):
            # the last block's C is still in `c`
            cb = correlate(blk) if i else c[:blk.stop - blk.start]
            gc = gc_buf[:blk.stop - blk.start]
            np.matmul(gq[blk], cb.swapaxes(-1, -2), out=gp[blk])
            np.matmul(p[blk].swapaxes(-1, -2), gq[blk], out=gc)   # d loss / d C
            np.multiply(cb, cb, out=cb)
            np.subtract(1.0, cb, out=cb)
            gc *= cb                                 # d loss / d (X^T a)
            np.matmul(x[blk], gc, out=ga[blk])
            np.matmul(a[blk], gc.swapaxes(-1, -2), out=gx[blk])
        gx += g
        gx += ad._mm(gp, w_c.data.T)
        gw_c = x.reshape(-1, k).T @ gp.reshape(-1, k)
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
