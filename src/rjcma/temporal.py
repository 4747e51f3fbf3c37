"""Temporal convolutional network: causal dilated 1-D convolutions per modality.

Each block convolves a (channels x frames) matrix with left zero-padding so
that output frame t depends on input frames <= t only, preserves the frame
count, and adds a residual connection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class TcnBlockConfig:
    channels_in: int
    channels_out: int
    kernel_size: int = 3
    dilation: int = 1

    def __post_init__(self):
        for name in ("channels_in", "channels_out", "kernel_size", "dilation"):
            if getattr(self, name) < 1:
                raise ValueError(f"TcnBlockConfig.{name} must be positive")

    @property
    def left_pad(self) -> int:
        return (self.kernel_size - 1) * self.dilation


class TcnBlock:
    """One causal dilated conv block: conv + bias + ReLU (+ residual)."""

    def __init__(self, cfg: TcnBlockConfig, rng: np.random.Generator):
        self.cfg = cfg
        bound = 1.0 / math.sqrt(cfg.channels_in * cfg.kernel_size)
        # taps[j] applies to the frame lagged by (kernel_size-1-j)*dilation;
        # the last tap is the current frame
        self.taps = [
            Tensor(rng.uniform(-bound, bound, size=(cfg.channels_out, cfg.channels_in)),
                   requires_grad=True)
            for _ in range(cfg.kernel_size)
        ]
        self.bias = Tensor(np.zeros((cfg.channels_out, 1)), requires_grad=True)


def causal_dilated_conv(x: Tensor, block: TcnBlock) -> Tensor:
    """sum over j of taps[j] @ (x delayed by (kernel_size-1-j)*dilation frames,
    zero-filled) plus the bias, as one graph node with parents (x, *taps, bias).
    A (B, channels, frames) x is delayed within each window."""
    cfg = block.cfg
    if x.rows != cfg.channels_in:
        raise ad.DimensionError(
            f"conv expects {cfg.channels_in} channels, got {x.rows}")
    frames = x.cols
    weights = [tap.data for tap in block.taps]
    # x delayed by each tap's lag, zero-filled on the left: n[j] frames of x
    # survive the delay of tap j
    n = [max(frames - (cfg.kernel_size - 1 - j) * cfg.dilation, 0)
         for j in range(cfg.kernel_size)]
    delayed = []
    for nj in n:
        xs = np.zeros_like(x.data)
        xs[..., frames - nj:] = x.data[..., :nj]
        delayed.append(xs)
    out = sum(np.matmul(w, xs) for w, xs in zip(weights, delayed)) + block.bias.data
    parents = (x, *block.taps, block.bias)
    if not ad._recording(*parents):
        return ad._value(out)

    def bwd(g):
        gx = np.zeros_like(x.data)
        for w, nj in zip(weights, n):
            gx[..., :nj] += np.matmul(w.T, g[..., frames - nj:])
        taps = (ad._unbatch(np.matmul(g, xs.swapaxes(-1, -2)), w)
                for w, xs in zip(weights, delayed))
        bias = ad._unbatch(g.sum(axis=-1, keepdims=True), block.bias.data)
        return (gx, *taps, bias)

    return ad._make(out, parents, bwd)


class TcnStack:
    """Ordered causal conv blocks applied to one modality's feature stream."""

    def __init__(self, channels: int, rng: np.random.Generator,
                 kernel_size: int = 3, dilations: tuple[int, ...] = (1, 2)):
        self.blocks = [
            TcnBlock(TcnBlockConfig(channels, channels, kernel_size, d), rng)
            for d in dilations
        ]

    @property
    def receptive_field(self) -> int:
        return 1 + sum((b.cfg.kernel_size - 1) * b.cfg.dilation for b in self.blocks)

    def named(self, prefix: str = "tcn"):
        for bi, block in enumerate(self.blocks):
            for ti, tap in enumerate(block.taps):
                yield f"{prefix}/block{bi}/tap{ti}", tap
            yield f"{prefix}/block{bi}/bias", block.bias


def tcn_forward(x: Tensor, stack: TcnStack) -> Tensor:
    out = x
    for block in stack.blocks:
        out = ad.add(ad.relu(causal_dilated_conv(out, block)), out)
    return out
