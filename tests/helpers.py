"""A scalar loss for tests that take gradients of an op's output, and the
gradients of a loss with respect to a list of tensors."""

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


def grads_of(loss: ad.Tensor, tensors) -> list:
    """`ad.backward`'s gradient of `loss` for each of `tensors`, in order."""
    return list(ad.backward(loss, {str(i): t for i, t in enumerate(tensors)}).values())
