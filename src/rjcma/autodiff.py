"""Minimal reverse-mode automatic differentiation over dense 2-D float64 tensors.

Every value is a row-major (rows, cols) float64 matrix. There is no
broadcasting: elementwise ops require exact shape equality, and the only
"broadcast-like" primitive is the explicit column-bias add. Scalars are
represented as 1x1 tensors so reductions stay differentiable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class GraphError(RuntimeError):
    """Raised on autodiff contract violations (non-scalar loss, reused graph)."""


class Tensor:
    """Dense 2-D float64 tensor, optionally recording onto the implicit tape.

    Tensors created by primitive ops hold references to their parents and a
    backward closure; `backward` replays those closures in reverse
    topological order. Leaf tensors (no parents) are the only ones whose
    `.grad` is populated.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward_fn=None, _check: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got ndim={arr.ndim}")
        # only external input is validated; op results may legitimately
        # carry non-finite values that training diagnostics inspect
        if _check and _backward_fn is None and not np.all(np.isfinite(arr)):
            raise ValueError("non-finite values rejected at tensor construction")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._consumed = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _needs_graph(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Wrap an op's result: a graph node whose `backward_fn(g)` returns one
    gradient (or None) per parent, or a plain tensor if no parent needs one."""
    if _needs_graph(*parents):
        return Tensor(data, requires_grad=False, _parents=parents, _backward_fn=backward_fn)
    return Tensor(data, _check=False)


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul inner dims: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    def bwd(g):
        return (g.T,)

    return _make(a.data.T, (a,), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_rows of zero parts")
    k = parts[0].cols
    for p in parts:
        if p.cols != k:
            raise DimensionError(f"concat_rows column mismatch: {p.cols} != {k}")
    sizes = [p.rows for p in parts]
    out = np.concatenate([p.data for p in parts], axis=0)

    def bwd(g):
        grads = []
        off = 0
        for r in sizes:
            grads.append(g[off:off + r])
            off += r
        return tuple(grads)

    return _make(out, tuple(parts), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def bwd(g):
        return g, g

    return _make(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def bwd(g):
        return g * b.data, g * a.data

    return _make(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        return (g * s,)

    return _make(a.data * s, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    # subgradient at exactly 0 is 0
    mask = a.data > 0.0
    out = np.where(mask, a.data, 0.0)

    def bwd(g):
        return (g * mask,)

    return _make(out, (a,), bwd)


def add_col_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a (rows x 1) bias vector to every column of x."""
    if b.cols != 1 or b.rows != x.rows:
        raise DimensionError(f"bias shape {b.shape} incompatible with {x.shape}")

    def bwd(g):
        return g, g.sum(axis=1, keepdims=True)

    return _make(x.data + b.data, (x, b), bwd)


def tensor_sum(a: Tensor) -> Tensor:
    def bwd(g):
        return (np.full_like(a.data, g[0, 0]),)

    return _make(np.array([[a.data.sum()]]), (a,), bwd)


# ---------------------------------------------------------------------------
# backward sweep


def backward(loss: Tensor, leaves: Iterable[Tensor] | None = None) -> None:
    """Reverse sweep from a scalar loss, populating `.grad` on leaf tensors.

    The graph is consumed: a second backward through the same loss raises.
    If `leaves` is given, any leaf unreached by the sweep gets a zero grad.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise GraphError("backward already called on this graph")
    loss._consumed = True

    # iterative topological order (post-order DFS)
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward_fn(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not (p.requires_grad or p._parents):
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg

    if leaves is not None:
        for leaf in leaves:
            if leaf.requires_grad and leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# finite-difference verification


class GradCheckReport:
    """Per-parameter max relative error between analytic and numeric gradients."""

    def __init__(self, errors: dict[str, float], tol: float):
        self.errors = errors
        self.tol = tol

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error < self.tol

    def lines(self) -> list[str]:
        width = max((len(n) for n in self.errors), default=0)
        out = []
        for name, err in sorted(self.errors.items()):
            status = "ok" if err < self.tol else "FAIL"
            out.append(f"{name:<{width}}  max rel err {err:.3e}  {status}")
        return out


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-12)


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Check analytic gradients of `f` against central finite differences.

    `f` must be a deterministic closure over the tensors in `params`,
    returning a scalar loss freshly built on each call.
    """
    loss = f()
    zero_grads(params.values())
    backward(loss, leaves=params.values())
    analytic = {name: p.grad.copy() for name, p in params.items()}

    # numeric passes do not need the graph
    flags = {name: p.requires_grad for name, p in params.items()}
    for p in params.values():
        p.requires_grad = False
    try:
        errors: dict[str, float] = {}
        for name, p in params.items():
            worst = 0.0
            flat = p.data.ravel()
            aflat = analytic[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = f().item()
                flat[i] = orig - h
                f_minus = f().item()
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                worst = max(worst, relative_error(aflat[i], numeric))
            errors[name] = worst
    finally:
        for name, p in params.items():
            p.requires_grad = flags[name]
        zero_grads(params.values())
    return GradCheckReport(errors, tol)
