"""Concordance correlation coefficient, its loss form, and evaluation reports.

CCC here is Lin's coefficient with population (divide-by-N) statistics:

    rho_c = 2*cov(x, y) / (var(x) + var(y) + (mean(x) - mean(y))^2 + eps)

with eps = 1e-12 keeping the loss differentiable when the denominator
degenerates. Identical constant series are defined as perfect agreement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TARGETS

EPS = 1e-12


class InsufficientDataError(ValueError):
    """Fewer than 2 valid elements where a correlation statistic is needed."""


def _validate(pred, gt, mask):
    pred = np.asarray(pred, dtype=np.float64).ravel()
    gt = np.asarray(gt, dtype=np.float64).ravel()
    if pred.shape != gt.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {gt.shape}")
    if mask is None:
        mask = np.ones(pred.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool).ravel()
        if mask.shape != pred.shape:
            raise ValueError(f"mask length mismatch: {mask.shape} vs {pred.shape}")
    if mask.sum() < 2:
        raise InsufficientDataError(
            f"need >= 2 valid elements, got {int(mask.sum())}")
    return pred[mask], gt[mask], mask


def _concordance(x: np.ndarray, y: np.ndarray):
    """rho_c of two 1-D series, with the centred series, the mean gap and the
    denominator that its gradient needs."""
    mx, my = x.mean(), y.mean()
    cx, cy = x - mx, y - my
    dm = mx - my
    denom = (cx * cx).mean() + (cy * cy).mean() + dm * dm + EPS
    return 2.0 * (cx * cy).mean() / denom, cx, cy, dm, denom


def ccc(pred, gt, mask=None) -> float:
    """Concordance correlation between two series over unmasked elements."""
    x, y, _ = _validate(pred, gt, mask)
    if np.array_equal(x, y):
        return 1.0
    return _concordance(x, y)[0]


def ccc_loss(pred: Tensor, gt, mask=None) -> Tensor:
    """Differentiable 1 - rho_c over unmasked frames of a (1 x K) prediction,
    or the mean of the per-window 1 - rho_c over a (B, 1, K) batch, whose
    labels and masks are (B, K).

    One graph node. Over the n unmasked frames of a window, with D the
    denominator of its rho_c,
    d(1 - rho_c)/dx = -2 / (n D) * (cy - rho_c * (cx + mean(x) - mean(y)));
    masked frames get exactly zero gradient.
    """
    if pred.rows != 1 or np.size(gt) != pred.data.size:
        raise ad.DimensionError(
            f"prediction shape {pred.shape} vs {np.size(gt)} labels")
    preds = pred.data.reshape(-1, pred.cols)
    gts = np.reshape(gt, preds.shape)
    masks = [None] * len(preds) if mask is None else np.reshape(mask, preds.shape)
    stats = []
    for x, y, m in zip(preds, gts, masks):
        x, y, m = _validate(x, y, m)
        stats.append((m, x.size) + _concordance(x, y))
    value = sum(1.0 - rho for _, _, rho, *_ in stats) / len(stats)

    def bwd(g):
        grad = np.zeros_like(pred.data)
        rows = grad.reshape(preds.shape)
        scale = g[0, 0] / len(stats)
        for row, (m, n, rho, cx, cy, dm, denom) in zip(rows, stats):
            row[m] = scale * -2.0 / (n * denom) * (cy - rho * (cx + dm))
        return (grad,)

    return ad._make(np.array([[value]]), (pred,), bwd)


@dataclass
class EvalResult:
    ccc_valence: float | None = None
    ccc_arousal: float | None = None
    per_sequence: list = field(default_factory=list)  # (seq id, target, ccc)
    n_frames: int = 0

    def target_ccc(self, target: str) -> float | None:
        """The pooled CCC of `target` ("valence" or "arousal")."""
        return getattr(self, f"ccc_{target}")

    @property
    def mean(self) -> float | None:
        vals = [v for v in (self.ccc_valence, self.ccc_arousal) if v is not None]
        return sum(vals) / len(vals) if vals else None

    def to_dict(self) -> dict:
        return {
            "ccc_valence": self.ccc_valence,
            "ccc_arousal": self.ccc_arousal,
            "mean": self.mean,
            "n_frames": self.n_frames,
            "per_sequence": [
                {"id": sid, "target": target, "ccc": value}
                for sid, target, value in self.per_sequence
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def report_lines(self) -> list[str]:
        out = []
        if self.ccc_valence is not None:
            out.append(f"CCC valence: {self.ccc_valence:.6f}")
        if self.ccc_arousal is not None:
            out.append(f"CCC arousal: {self.ccc_arousal:.6f}")
        if self.mean is not None:
            out.append(f"mean:        {self.mean:.6f}")
        out.append(f"frames:      {self.n_frames}")
        for sid, target, value in self.per_sequence:
            out.append(f"  {sid} [{target}]: {value:.6f}")
        return out


def evaluate(predict_fn, windows, targets=TARGETS) -> EvalResult:
    """Global concatenated-frame CCC plus per-sequence diagnostics: the one
    place where frames are pooled into a CCC.

    `predict_fn(windows, target)` is called once per target, on the list of
    windows that have a valid frame for the target, in partition order, and
    must return one length-K array of per-frame predictions per window, in
    the same order (`RjcmaModel.predict_windows`). Every valid frame of
    such a window is pooled, across all windows of the partition.
    """
    if not windows:
        raise InsufficientDataError("empty partition")
    result = EvalResult()
    for target in targets:
        if target not in TARGETS:
            raise ValueError(f"unknown target {target!r}")
        scored = [(w, mask) for w in windows if (mask := w.label_mask(target)).any()]
        if not scored:
            raise InsufficientDataError(f"no valid frames for target {target}")
        preds = predict_fn([w for w, _ in scored], target)
        if len(preds) != len(scored):
            raise ValueError(f"{len(preds)} predictions for {len(scored)} windows")
        all_pred, all_gt = [], []
        by_seq: dict[str, tuple[list, list]] = {}
        for (w, mask), pred in zip(scored, preds):
            pred = np.asarray(pred).ravel()[mask]
            gt = w.labels(target)[mask]
            all_pred.append(pred)
            all_gt.append(gt)
            bucket = by_seq.setdefault(w.sequence_id, ([], []))
            bucket[0].append(pred)
            bucket[1].append(gt)
        pred = np.concatenate(all_pred)
        gt = np.concatenate(all_gt)
        setattr(result, f"ccc_{target}", ccc(pred, gt))
        result.n_frames = max(result.n_frames, pred.size)
        for sid in sorted(by_seq):
            ps, gs = by_seq[sid]
            ps, gs = np.concatenate(ps), np.concatenate(gs)
            if ps.size >= 2:
                result.per_sequence.append((sid, target, ccc(ps, gs)))
    return result
