"""A scalar loss for tests that take gradients of an op's output, the
gradients of a loss with respect to a list of tensors, and the arrays a
backward closure keeps alive."""

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


def closure_arrays(fn) -> list:
    """Every numpy array that `fn` reaches through its closure cells, the
    functions and lists or tuples they hold, transitively: what a graph
    node's backward closure keeps alive."""
    seen, todo, found = set(), [fn], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if getattr(obj, "__closure__", None):
            todo += [cell.cell_contents for cell in obj.__closure__]
        elif isinstance(obj, (list, tuple)):
            todo += obj
        elif isinstance(obj, np.ndarray):
            found.append(obj)
    return found
