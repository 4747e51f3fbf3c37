"""Plain-numpy forward oracle for the rjcma model, written from the paper's
equations and the package's documented layout, with no autodiff.

`weights` is keyed by the checkpoint tensor names (`fc_joint/w`,
`iter{i}/W_j{m}`, `tcn/{m}/block{b}/tap{j}`, `head/w1`, ...). The products
are grouped differently from the package (for example X^T (W_j J) rather
than (X^T W_j) J), so agreement is expected only up to reordered f64 sums:
`close` compares with a relative tolerance of 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

MODALITIES = ("a", "v", "t")
NORM_TARGETS = {"a": (0.5, 0.5), "v": (0.5, 0.5), "t": (0.0, 1.0)}
RTOL = 1e-9
EPS = 1e-12


def normalizer_stats(feature_lists: dict) -> tuple[dict, dict]:
    """Per-dimension mean and population std per modality; zero std -> 1."""
    mean, std = {}, {}
    for m, mats in feature_lists.items():
        stacked = np.concatenate(mats, axis=1)
        mean[m] = stacked.mean(axis=1, keepdims=True)
        sd = stacked.std(axis=1, keepdims=True)
        sd[sd == 0.0] = 1.0
        std[m] = sd
    return mean, std


def normalize(x: np.ndarray, m: str, mean: dict, std: dict) -> np.ndarray:
    tgt_mean, tgt_std = NORM_TARGETS[m]
    return (x - mean[m]) / std[m] * tgt_std + tgt_mean


def window_count(t: int, k: int, stride: int) -> int:
    return 1 if t <= k else 1 + -(-(t - k) // stride)


def window_at(seq: dict, offset: int, k: int) -> tuple[dict, dict, np.ndarray]:
    """(features, labels, label mask) of the K frames from `offset`; a short
    tail repeats the last frame, and its padded frames are masked."""
    t = seq["valence"].size
    idx = np.minimum(np.arange(offset, offset + k), t - 1)
    mask = np.arange(offset, offset + k) < t
    feats = {m: seq["features"][m][:, idx] for m in MODALITIES}
    labels = {name: seq[name][idx] for name in ("valence", "arousal")}
    return feats, labels, mask


def _delay(x: np.ndarray, lag: int) -> np.ndarray:
    out = np.zeros_like(x)
    if lag < x.shape[1]:
        out[:, lag:] = x[:, :x.shape[1] - lag]
    return out


def tcn(x: np.ndarray, weights: dict, m: str, kernel: int, dilations) -> np.ndarray:
    """Causal dilated residual blocks: relu(sum_j tap_j x[t - lag_j] + b) + x."""
    for b, dil in enumerate(dilations):
        acc = weights[f"tcn/{m}/block{b}/bias"].copy().repeat(x.shape[1], axis=1)
        for j in range(kernel):
            acc += weights[f"tcn/{m}/block{b}/tap{j}"] @ _delay(x, (kernel - 1 - j) * dil)
        x = np.maximum(acc, 0.0) + x
    return x


def forward(weights: dict, feats: dict, iterations: int,
            kernel: int = 3, dilations=(1, 2)) -> np.ndarray:
    """Per-frame predictions (length K) for one window of normalised features."""
    x = {m: tcn(feats[m], weights, m, kernel, dilations) for m in MODALITIES}
    for i in range(1, iterations + 1):
        stacked = np.vstack([x[m] for m in MODALITIES])
        joint = weights["fc_joint/w"] @ stacked + weights["fc_joint/b"]
        scale = 1.0 / math.sqrt(stacked.shape[0])
        nxt = {}
        for m in MODALITIES:
            corr = np.tanh(x[m].T @ (weights[f"iter{i}/W_j{m}"] @ joint) * scale)
            amap = np.maximum(x[m] @ (weights[f"iter{i}/W_c{m}"] @ corr), 0.0)
            nxt[m] = amap @ weights[f"iter{i}/W_h{m}"] + x[m]
        x = nxt
    stacked = np.vstack([x[m] for m in MODALITIES])
    hidden = np.maximum(weights["head/w1"] @ stacked + weights["head/b1"], 0.0)
    return np.tanh(weights["head/w2"] @ hidden + weights["head/b2"]).ravel()


def ccc_loss(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> float:
    """1 - Lin's CCC with population statistics over the masked frames."""
    x, y = pred[mask], gt[mask]
    dx, dy = x - x.mean(), y - y.mean()
    cov = np.mean(dx * dy)
    denom = np.mean(dx * dx) + np.mean(dy * dy) + (x.mean() - y.mean()) ** 2 + EPS
    return 1.0 - 2.0 * cov / denom


def close(got, want, rtol: float = RTOL) -> bool:
    """True when every |got - want| is within rtol of the largest |want|."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return float(np.max(np.abs(got - want))) <= rtol * max(float(np.max(np.abs(want))), 1e-300)
