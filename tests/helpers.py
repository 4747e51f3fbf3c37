"""A scalar loss for tests that take gradients of an op's output."""

import numpy as np

from rjcma import autodiff as ad


def dot(a: ad.Tensor, b: ad.Tensor | None = None) -> ad.Tensor:
    """sum(a * b) over every entry, or sum(a) without `b`, as one 1x1 graph
    node with a gradient to each operand."""
    b = ad._value(np.ones_like(a.data)) if b is None else b
    if a.shape != b.shape:
        raise ad.DimensionError(f"dot shape mismatch: {a.shape} vs {b.shape}")
    return ad._make(np.array([[np.sum(a.data * b.data)]]), (a, b),
                    lambda g: (g * b.data, g * a.data))
