"""Temporal convolutional network per modality: residual blocks, each one
graph node, that convolve a (channels x frames) matrix causally (left
zero-padding, so output frame t depends on input frames <= t only), keep its
shape, and add the block's input to the ReLU of the convolution.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def tcn_block(x: Tensor, taps: list[Tensor], bias: Tensor, dilation: int) -> Tensor:
    """relu(conv + bias) + x as one graph node with parents (x, *taps, bias),
    where conv is the sum over j of taps[j] @ (x delayed by
    (len(taps)-1-j)*dilation frames, zero-filled). The last tap is the
    current frame. A (B, channels, frames) x is delayed within each window.
    Every tap is channels x channels and the bias channels x 1."""
    c = x.rows
    if any(t.shape != (c, c) for t in taps) or bias.shape != (c, 1):
        raise ad.DimensionError(f"a {c}-channel block takes {c} x {c} taps and a "
                                f"{c} x 1 bias, got {[t.shape for t in (*taps, bias)]}")
    frames, xd = x.cols, x.data
    weights = [tap.data for tap in taps]
    # n[j] frames of x survive the delay of tap j
    n = [max(frames - (len(taps) - 1 - j) * dilation, 0) for j in range(len(taps))]

    def delayed(nj):
        # x delayed by a tap's lag, zero-filled on the left; the node saves x
        # and the ReLU's mask only, and the backward rebuilds each copy
        xs = np.zeros_like(xd)
        xs[..., frames - nj:] = xd[..., :nj]
        return xs

    out = sum(np.matmul(w, delayed(nj)) for w, nj in zip(weights, n)) + bias.data
    np.fmax(out, 0.0, out=out)
    out += 0.0                                       # NaN and -0.0 give +0.0
    active = out > 0.0                               # subgradient at exactly 0 is 0
    out += xd

    def bwd(g):
        gc = g * active
        gx = np.zeros_like(xd)
        for w, nj in zip(weights, n):
            gx[..., :nj] += np.matmul(w.T, gc[..., frames - nj:])
        gx += g                                      # the residual
        tap_grads = (ad._unbatch(np.matmul(gc, delayed(nj).swapaxes(-1, -2)), w)
                     for w, nj in zip(weights, n))
        bias_grad = ad._unbatch(gc.sum(axis=-1, keepdims=True), bias.data)
        return (gx, *tap_grads, bias_grad)

    return ad._make(out, (x, *taps, bias), bwd)


# every modality's TCN: a receptive field of 1 + 2 * (1 + 2) = 7 frames
KERNEL_SIZE = 3
DILATIONS = (1, 2)


def init_params(channels: int, rng: np.random.Generator) -> dict[str, Tensor]:
    """One modality's `tcn_block`s: per block b, the taps "block{b}/tap{j}"
    drawn uniformly in order and a zero bias "block{b}/bias"."""
    bound = 1.0 / math.sqrt(channels * KERNEL_SIZE)
    params = {}
    for b in range(len(DILATIONS)):
        for j in range(KERNEL_SIZE):
            tap = rng.uniform(-bound, bound, size=(channels, channels))
            params[f"block{b}/tap{j}"] = Tensor(tap)
        params[f"block{b}/bias"] = Tensor(np.zeros((channels, 1)))
    return params


def tcn_forward(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """x through the `tcn_block`s `params` holds as prefix + `init_params`'s
    names, one graph node per block."""
    for b, dilation in enumerate(DILATIONS):
        taps = [params[f"{prefix}block{b}/tap{j}"] for j in range(KERNEL_SIZE)]
        x = tcn_block(x, taps, params[f"{prefix}block{b}/bias"], dilation)
    return x
