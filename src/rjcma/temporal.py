"""Temporal convolutional network: causal dilated 1-D convolutions per modality.

Each block convolves a (channels x frames) matrix with left zero-padding so
that output frame t depends on input frames <= t only, preserves the frame
count, and adds a residual connection.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def causal_dilated_conv(x: Tensor, taps: list[Tensor], bias: Tensor,
                        dilation: int) -> Tensor:
    """sum over j of taps[j] @ (x delayed by (len(taps)-1-j)*dilation frames,
    zero-filled) plus the bias, as one graph node with parents (x, *taps, bias).
    The last tap is the current frame. A (B, channels, frames) x is delayed
    within each window."""
    if x.rows != taps[0].cols:
        raise ad.DimensionError(
            f"conv expects {taps[0].cols} channels, got {x.rows}")
    frames = x.cols
    weights = [tap.data for tap in taps]
    # x delayed by each tap's lag, zero-filled on the left: n[j] frames of x
    # survive the delay of tap j
    n = [max(frames - (len(taps) - 1 - j) * dilation, 0) for j in range(len(taps))]
    delayed = []
    for nj in n:
        xs = np.zeros_like(x.data)
        xs[..., frames - nj:] = x.data[..., :nj]
        delayed.append(xs)
    out = sum(np.matmul(w, xs) for w, xs in zip(weights, delayed)) + bias.data
    parents = (x, *taps, bias)
    if not ad._recording(*parents):
        return ad._value(out)

    def bwd(g):
        gx = np.zeros_like(x.data)
        for w, nj in zip(weights, n):
            gx[..., :nj] += np.matmul(w.T, g[..., frames - nj:])
        tap_grads = (ad._unbatch(np.matmul(g, xs.swapaxes(-1, -2)), w)
                     for w, xs in zip(weights, delayed))
        bias_grad = ad._unbatch(g.sum(axis=-1, keepdims=True), bias.data)
        return (gx, *tap_grads, bias_grad)

    return ad._make(out, parents, bwd)


class TcnStack:
    """Causal conv blocks (conv + bias + ReLU + residual) over one modality's
    channels, block b dilated by dilations[b]. `params` holds every block's
    tensors under "block{b}/tap{j}" and "block{b}/bias"."""

    def __init__(self, channels: int, rng: np.random.Generator,
                 kernel_size: int = 3, dilations: tuple[int, ...] = (1, 2)):
        if min(channels, kernel_size, *dilations) < 1:
            raise ValueError(f"TcnStack needs positive channels, kernel_size and "
                             f"dilations, got {channels}, {kernel_size}, {dilations}")
        self.kernel_size = kernel_size
        self.dilations = tuple(dilations)
        bound = 1.0 / math.sqrt(channels * kernel_size)
        self.params: dict[str, Tensor] = {}
        for b in range(len(self.dilations)):
            for j in range(kernel_size):
                tap = rng.uniform(-bound, bound, size=(channels, channels))
                self.params[f"block{b}/tap{j}"] = Tensor(tap, requires_grad=True)
            self.params[f"block{b}/bias"] = Tensor(np.zeros((channels, 1)), requires_grad=True)


def tcn_forward(x: Tensor, stack: TcnStack) -> Tensor:
    out = x
    for b, dilation in enumerate(stack.dilations):
        taps = [stack.params[f"block{b}/tap{j}"] for j in range(stack.kernel_size)]
        conv = causal_dilated_conv(out, taps, stack.params[f"block{b}/bias"], dilation)
        out = ad.add(ad.relu(conv), out)
    return out
