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


def _uniform(rng: np.random.Generator, rows: int, cols: int, bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=(rows, cols))


class RjcmaParams:
    """All learnable tensors of the fusion block, keyed by stable names.

    Layout per FusionConfig: the shared Eq.-style joint FC (d x d weight,
    d x 1 bias), per recursion step i and modality m the matrices
    W_j (d_m x d), W_c (K x K), W_h (K x K), and a two-layer MLP head.
    """

    def __init__(self, config: FusionConfig, rng: np.random.Generator):
        self.config = config
        d, K, h = config.d, config.K, config.head_hidden
        t: dict[str, Tensor] = {}

        b = 1.0 / math.sqrt(d)
        t["fc_joint/w"] = Tensor(_uniform(rng, d, d, b), requires_grad=True)
        t["fc_joint/b"] = Tensor(_uniform(rng, d, 1, b), requires_grad=True)
        for i in range(1, config.iterations + 1):
            for m in MODALITIES:
                dm = config.dim(m)
                t[f"iter{i}/W_j{m}"] = Tensor(
                    _uniform(rng, dm, d, 1.0 / math.sqrt(dm)), requires_grad=True)
                # attention weights start near zero so the residual path dominates
                t[f"iter{i}/W_c{m}"] = Tensor(
                    _uniform(rng, K, K, 1e-2 / math.sqrt(K)), requires_grad=True)
                t[f"iter{i}/W_h{m}"] = Tensor(
                    _uniform(rng, K, K, 1e-2 / math.sqrt(K)), requires_grad=True)
        t["head/w1"] = Tensor(_uniform(rng, h, d, 1.0 / math.sqrt(d)), requires_grad=True)
        t["head/b1"] = Tensor(_uniform(rng, h, 1, 1.0 / math.sqrt(d)), requires_grad=True)
        t["head/w2"] = Tensor(_uniform(rng, 1, h, 1.0 / math.sqrt(h)), requires_grad=True)
        t["head/b2"] = Tensor(_uniform(rng, 1, 1, 1.0 / math.sqrt(h)), requires_grad=True)
        self.tensors = t
        assert self.count() == expected_param_count(config)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def named(self):
        return self.tensors.items()

    def count(self) -> int:
        return sum(p.data.size for p in self.tensors.values())


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


def joint_cross_correlation(xm: Tensor, joint: Tensor, w_j: Tensor) -> Tensor:
    """C_m = tanh(X_m^T (W_j J / sqrt(d))), as one graph node.

    Grouping W_j J first keeps the inner dimension of the K x K product at
    d_m rather than d. The node keeps only C (K x K per window), and its
    backward writes the derivative through tanh over C in place: every
    consumer of C has run its backward by then, but the node's `.data` no
    longer holds C after `backward`.
    """
    if xm.rows != w_j.rows or w_j.cols != joint.rows or xm.shape[:-2] != joint.shape[:-2]:
        raise ad.DimensionError(
            f"correlation shapes: X {xm.shape}, W_j {w_j.shape}, J {joint.shape}")
    s = 1.0 / math.sqrt(joint.rows)
    a = np.matmul(w_j.data, joint.data)
    a *= s
    c = np.matmul(xm.data.swapaxes(-1, -2), a)
    np.tanh(c, out=c)
    parents = (xm, joint, w_j)
    if not ad._recording(*parents):
        return ad._value(c)

    def bwd(g):
        gp = np.multiply(c, c, out=c)
        np.subtract(1.0, gp, out=gp)
        gp *= g                                   # d loss / d (X^T A)
        ga = np.matmul(xm.data, gp)
        gx = np.matmul(a, gp.swapaxes(-1, -2))
        ga *= s                                   # d loss / d (W_j J)
        gw = ad._unbatch(np.matmul(ga, joint.data.swapaxes(-1, -2)), w_j.data)
        return gx, np.matmul(w_j.data.T, ga), gw

    return ad._make(c, parents, bwd)


def attention_map(xm: Tensor, corr: Tensor, w_c: Tensor) -> Tensor:
    return ad.relu(ad.matmul(ad.matmul(xm, w_c), corr))


def attend(h_m: Tensor, w_h: Tensor, xm: Tensor) -> Tensor:
    return ad.add(ad.matmul(h_m, w_h), xm)


def predict_head(x_att: Tensor, params: RjcmaParams) -> Tensor:
    """Two-layer MLP applied per frame, tanh output to stay in [-1, 1]."""
    hidden = ad.relu(ad.add_col_bias(ad.matmul(params["head/w1"], x_att),
                                     params["head/b1"]))
    out = ad.add_col_bias(ad.matmul(params["head/w2"], hidden), params["head/b2"])
    return ad.tanh(out)


def rjcma_forward(xa: Tensor, xv: Tensor, xt: Tensor,
                  params: RjcmaParams, config: FusionConfig,
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
            corr = joint_cross_correlation(feats[m], joint, params[f"iter{i}/W_j{m}"])
            amap = attention_map(feats[m], corr, params[f"iter{i}/W_c{m}"])
            nxt[m] = attend(amap, params[f"iter{i}/W_h{m}"], feats[m])
            if collect_intermediates:
                step[m] = {"corr": corr, "map": amap, "attended": nxt[m]}
        feats = nxt
        if collect_intermediates:
            intermediates.append(step)

    attended = ad.concat_rows([feats["a"], feats["v"], feats["t"]])
    predictions = predict_head(attended, params)
    return FusionOutput(attended=attended, predictions=predictions,
                        intermediates=intermediates)
