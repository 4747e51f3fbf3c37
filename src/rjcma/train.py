"""Training harness: Adam with decoupled weight decay, warm-up plus
reduce-on-plateau scheduling, early stopping, best-state reload, and
`train_fold`, which trains one model per target on a train/val split."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TARGETS, Normalizer, SequenceRecord, WindowSpec, window
from .fusion import FusionConfig
from .metrics import InsufficientDataError, evaluate
from .model import RjcmaModel

logger = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """Training diverged (non-finite loss)."""


@dataclass
class TrainConfig:
    lr_init: float = 1e-5
    lr_min: float = 1e-8
    weight_decay: float = 1e-3
    batch_size: int = 12
    max_epochs: int = 100
    warmup_epochs: int = 5
    plateau_patience: int = 5
    plateau_factor: float = 0.1
    early_stop_patience: int = 15
    target: str = "valence"
    iterations: int = 3
    seed: int = 0

    def __post_init__(self):
        # each message starts with the offending field and its value
        if self.target not in TARGETS:
            raise ValueError(f"target={self.target!r} is not valence or arousal")
        # written so that NaN fails every range check
        if not 0.0 < self.lr_init < math.inf:
            raise ValueError(f"lr_init={self.lr_init} is not a finite value > 0")
        for name in ("lr_min", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name}={getattr(self, name)} is not a finite value >= 0")
        if self.lr_min > self.lr_init:
            raise ValueError(f"lr_min={self.lr_min} exceeds lr_init={self.lr_init}")
        if not (0.0 < self.plateau_factor < 1.0):
            raise ValueError(f"plateau_factor={self.plateau_factor} is outside (0, 1)")
        for name in ("batch_size", "max_epochs", "iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} is not positive")
        for name in ("seed", "warmup_epochs", "plateau_patience", "early_stop_patience"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}={getattr(self, name)} is negative")


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decay rates and denominator epsilon
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


# elements per block of `adam_step`: a block of each of m, v, g and the
# weights, plus the two scratch blocks, stays in a core's L2
_ADAM_BLOCK = 1 << 14


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: OptimizerState, lr: float, weight_decay: float = 0.0) -> None:
    """Bias-corrected Adam update of `params` by `grads` (the same names),
    with decoupled weight decay (applied to the weights directly, not
    folded into the gradient). The moments and the weights are updated in
    place, a block of rows at a time through two scratch blocks, in the
    operation order of the out-of-place formula
    p -= lr * (m / c1) / (sqrt(v / c2) + EPS), so the result is the same
    bit for bit."""
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    decay = 1.0 - lr * weight_decay
    # a block is at least one row, so a row wider than _ADAM_BLOCK widens it
    scratch = np.empty((2, max([_ADAM_BLOCK] + [p.data.shape[-1] for p in params.values()])))
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v, w = state.m[name], state.v[name], p.data
        rows, cols = w.shape
        step = max(1, _ADAM_BLOCK // cols)
        for r0 in range(0, rows, step):
            r = slice(r0, min(r0 + step, rows))
            mb, vb, gb, wb = m[r], v[r], g[r], w[r]
            s = scratch[0, :gb.size].reshape(gb.shape)
            u = scratch[1, :gb.size].reshape(gb.shape)
            mb *= BETA1
            np.multiply(gb, 1.0 - BETA1, out=s)
            mb += s                                  # m += (1 - BETA1) * g
            vb *= BETA2
            np.multiply(gb, 1.0 - BETA2, out=s)
            s *= gb
            vb += s                                  # v += (1 - BETA2) * g * g
            if weight_decay:
                wb *= decay
            np.divide(mb, c1, out=s)
            s *= lr
            np.divide(vb, c2, out=u)
            np.sqrt(u, out=u)
            u += EPS
            s /= u
            wb -= s


# ---------------------------------------------------------------------------
# scheduler


class Scheduler:
    """Per-batch linear warm-up for the first epochs, then reduce-on-plateau
    keyed on whether the epoch improved the validation CCC: only an epoch
    that did not improve cuts, so a patience of 0 acts as 1. Floors at lr_min."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.lr = cfg.lr_init
        self.since_improvement = 0

    def batch_lr(self, epoch: int, batch_idx: int, n_batches: int) -> float:
        if epoch < self.cfg.warmup_epochs:
            frac = (batch_idx + 1) / max(1, n_batches)
            return self.cfg.lr_min + (self.lr - self.cfg.lr_min) * frac
        return self.lr

    def epoch_end(self, epoch: int, improved: bool) -> float:
        if improved:
            self.since_improvement = 0
            return self.lr
        self.since_improvement += 1
        if (epoch >= self.cfg.warmup_epochs
                and self.since_improvement >= self.cfg.plateau_patience):
            self.lr = max(self.lr * self.cfg.plateau_factor, self.cfg.lr_min)
            self.since_improvement = 0
        return self.lr


# ---------------------------------------------------------------------------
# fit


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_ccc: float
    lr: float


@dataclass
class FitResult:
    model: RjcmaModel
    history: list[EpochStats]
    best_val_ccc: float

    def history_csv(self) -> str:
        lines = ["epoch,train_loss,val_ccc,lr"]
        for h in self.history:
            lines.append(f"{h.epoch},{h.train_loss:.10g},{h.val_ccc:.10g},{h.lr:.10g}")
        return "\n".join(lines) + "\n"


def fit(model: RjcmaModel, train_windows, val_windows, cfg: TrainConfig) -> FitResult:
    """Seeded epoch loop: shuffle, batch, per-window CCC loss averaged over the
    batch in one graph, Adam step, validation CCC, best-state snapshot and
    end-of-epoch reload, early stopping.

    A train window needs two valid frames for its loss; the validation CCC
    is `evaluate`'s, over every valid frame. A partition with no such
    window raises InsufficientDataError naming it and the target."""
    target = model.target
    train_windows = [w for w in train_windows if w.label_mask(target).sum() >= 2]
    if not train_windows:
        raise InsufficientDataError(
            f"the train partition has no window with 2 valid {target} frames")
    if not any(w.label_mask(target).any() for w in val_windows):
        raise InsufficientDataError(f"the validation partition has no valid {target} frame")

    rng = np.random.default_rng(cfg.seed)
    params = model.params
    opt = OptimizerState()
    sched = Scheduler(cfg)
    history: list[EpochStats] = []
    best_state = model.state_arrays()
    best_ccc = -math.inf
    stale = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_windows))
        n_batches = max(1, math.ceil(len(order) / cfg.batch_size))
        epoch_losses = []
        for bi in range(n_batches):
            batch = order[bi * cfg.batch_size:(bi + 1) * cfg.batch_size]
            loss = model.loss_on_batch([train_windows[i] for i in batch])
            value = loss.item()
            if not math.isfinite(value):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} batch {bi} "
                    f"(lr={sched.batch_lr(epoch, bi, n_batches):.3g})")
            # release the last step's gradients right before this sweep:
            # released right after their Adam step they measured more minor
            # faults per step (glibc trims the freed heap top and the next
            # step faults it back in); held through the sweep, a higher peak RSS
            grads = None
            grads = ad.backward(loss, params)
            adam_step(params, grads, opt, sched.batch_lr(epoch, bi, n_batches),
                      cfg.weight_decay)
            epoch_losses.append(value)

        val_ccc = evaluate(model.predict_windows, val_windows, (target,)).target_ccc(target)
        improved = val_ccc > best_ccc
        if improved:
            best_ccc = val_ccc
            model.state_arrays(out=best_state)
            stale = 0
        else:
            stale += 1
        # paper's rule: reload the best state at the end of every epoch
        model.load_state_arrays(best_state)
        lr = sched.epoch_end(epoch, improved)
        history.append(EpochStats(epoch, float(np.mean(epoch_losses)), val_ccc, lr))
        logger.debug("epoch %d: loss %.4f val_ccc %.4f lr %.2e",
                     epoch, history[-1].train_loss, val_ccc, lr)
        if not improved and stale >= cfg.early_stop_patience:
            break

    model.load_state_arrays(best_state)
    return FitResult(model=model, history=history, best_val_ccc=best_ccc)


# ---------------------------------------------------------------------------
# one train/val split


def train_fold(records: list[SequenceRecord], val_ids: set[str],
               fusion_cfg: FusionConfig, window_spec: WindowSpec,
               cfg: TrainConfig, targets=TARGETS):
    """Train per-target models on one train/val split; returns (models, the
    `evaluate` report of the models on the validation windows, fits)."""
    train_recs = [r for r in records if r.id not in val_ids]
    val_recs = [r for r in records if r.id in val_ids]
    normalizer = Normalizer().fit(train_recs)
    train_windows = [w for r in train_recs for w in window(r, window_spec)]
    val_windows = [w for r in val_recs for w in window(r, window_spec)]

    models = {}
    fits = {}
    for target in targets:
        model = RjcmaModel(fusion_cfg, target=target, seed=cfg.seed,
                           normalizer=normalizer)
        fits[target] = fit(model, train_windows, val_windows, cfg)
        models[target] = fits[target].model
    result = evaluate(lambda ws, t: models[t].predict_windows(ws, t), val_windows, targets)
    return models, result, fits

