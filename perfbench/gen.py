"""Seeded plain-numpy inputs for the benchmark workloads.

The workloads do not call `rjcma.data.generate_synthetic`, so edits to the
package's generator leave the benchmark inputs unchanged. The recipe is a
latent mixture that the model can learn: a shared two-dimensional latent
gives the valence and arousal labels, and each modality observes a random
linear mixture of that latent plus a private nuisance latent and a little
white noise. Every latent is a mean-reverting (Ornstein-Uhlenbeck) walk
squashed by tanh, so each sequence, even a short held-out one, sweeps a
good part of [-1, 1] and CCC on it is well defined.
"""

from __future__ import annotations

import numpy as np

MODALITIES = ("a", "v", "t")
D_M = 16
N_PRIVATE = 2
REVERSION = 0.03          # per frame: about 33 frames of memory
LATENT_STD = 0.6          # stationary std before tanh
NOISE_SIGMA = 0.01
BLOCK = 100               # a**-BLOCK stays below 25, so the block sums keep f64 precision


def _walk(rng: np.random.Generator, rows: int, t: int) -> np.ndarray:
    """tanh of x[t] = a x[t-1] + e[t], a = 1 - REVERSION, solved a block at a
    time: inside a block, x[s+j] = a^j (a x[s-1] + sum_{i<=j} e[s+i] / a^i)."""
    a = 1.0 - REVERSION
    steps = rng.normal(0.0, LATENT_STD * np.sqrt(2.0 * REVERSION), size=(rows, t))
    x = np.empty((rows, t))
    cur = rng.normal(0.0, LATENT_STD, size=rows)
    for s in range(0, t, BLOCK):
        e = steps[:, s:s + BLOCK]
        powers = a ** np.arange(e.shape[1])
        x[:, s:s + e.shape[1]] = powers * (a * cur[:, None] + np.cumsum(e / powers, axis=1))
        cur = x[:, s + e.shape[1] - 1]
    return np.tanh(x)


def sequences(seed: int, lengths: list[int], prefix: str = "s") -> list[dict]:
    """One dict per entry of `lengths`: {id, features{m: (D_M x T)}, valence, arousal}.

    The frame counts are given by the caller, so the number of windows a
    workload runs does not depend on the seed; only the values do.
    """
    rng = np.random.default_rng(seed)
    mixing = {m: rng.normal(0.0, 1.0, size=(D_M, 2 + N_PRIVATE)) for m in MODALITIES}
    out = []
    for i, t in enumerate(lengths):
        z = _walk(rng, 2 + N_PRIVATE * len(MODALITIES), t)
        latent = z[:2]
        feats = {}
        for j, m in enumerate(MODALITIES):
            private = z[2 + N_PRIVATE * j:2 + N_PRIVATE * (j + 1)]
            feats[m] = (mixing[m] @ np.vstack([latent, private])
                        + rng.normal(0.0, NOISE_SIGMA, size=(D_M, t)))
        out.append({"id": f"{prefix}{i:03d}", "features": feats,
                    "valence": latent[0].copy(), "arousal": latent[1].copy()})
    return out


def lengths(seed: int, count: int, lo: int, hi: int) -> list[int]:
    """`count` frame counts drawn uniformly from [lo, hi]."""
    return [int(x) for x in np.random.default_rng(seed).integers(lo, hi + 1, size=count)]
