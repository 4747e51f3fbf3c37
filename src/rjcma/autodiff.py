"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Every value is a row-major (rows, cols) float64 matrix, or a batch of them
stacked as (B, rows, cols), one per window. There is no broadcasting:
elementwise ops require exact shape equality. The exceptions are explicit:
the column-bias add, and a 2-D operand of `matmul` against a stack, which
is a weight shared by every window of the batch and receives one gradient
summed over it. Scalars are 1x1 tensors so reductions stay differentiable.

Ops record onto an implicit tape only when an operand requires a gradient
and recording is on; inside `no_grad()` they build no graph nodes and no
backward closures.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class GraphError(RuntimeError):
    """Raised on autodiff contract violations (non-scalar loss, reused graph)."""


class Tensor:
    """Dense 2-D float64 tensor, or a (B, rows, cols) stack of them,
    optionally recording onto the implicit tape.

    Tensors created by primitive ops hold references to their parents and a
    backward closure; `backward` replays those closures in reverse
    topological order. Leaf tensors (no parents) are the only ones whose
    `.grad` is populated. Input data is 2-D; a batch of inputs is built
    with `Tensor.stack`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward_fn=None, _check: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        # only external input is validated; op results may legitimately
        # carry non-finite values that training diagnostics inspect
        external = _check and _backward_fn is None
        if arr.ndim != 2 and (external or arr.ndim != 3):
            raise DimensionError(
                f"input tensors are 2-D (a batch is built with Tensor.stack), got ndim={arr.ndim}")
        if external and not np.all(np.isfinite(arr)):
            raise ValueError("non-finite values rejected at tensor construction")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._consumed = False

    @classmethod
    def stack(cls, arrays: Sequence) -> "Tensor":
        """A (B, rows, cols) batch of equally shaped 2-D inputs."""
        parts = [cls(a).data for a in arrays]
        if not parts or any(p.shape != parts[0].shape for p in parts):
            raise DimensionError(
                f"stack needs equally shaped parts, got {[p.shape for p in parts]}")
        return cls(np.stack(parts), _check=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_RECORDING: ContextVar[bool] = ContextVar("rjcma_autodiff_recording", default=True)


@contextmanager
def no_grad():
    """Within this scope ops compute values only: no graph, no closures."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


def _recording(*parents: Tensor) -> bool:
    """Whether an op on `parents` must build a graph node. A node of a
    consumed graph counts, so that `backward` reaches it and raises."""
    return _RECORDING.get() and any(t.requires_grad or t._parents or t._consumed
                                    for t in parents)


def _value(data: np.ndarray) -> Tensor:
    """An op's result when `_recording` is false."""
    return Tensor(data, _check=False)


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """A graph node whose `backward_fn(g)` returns one gradient (or None) per
    parent. Ops call it only when `_recording(*parents)`, and return
    `_value(data)` otherwise, so that no backward closure is built."""
    return Tensor(data, requires_grad=False, _parents=parents, _backward_fn=backward_fn)


def _unbatch(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Sum a per-window gradient over the batch for a 2-D operand."""
    return g.sum(axis=0) if g.ndim > like.ndim else g


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y. A 2-D right factor is shared by a stack on the left, so the
    product is one GEMM over the stacked rows; anything else goes through
    numpy's stacked matmul (a 2-D left factor is applied per window, which
    measured faster than one GEMM over transposed copies)."""
    if x.ndim == 3 and y.ndim == 2:
        return (x.reshape(-1, x.shape[-1]) @ y).reshape(*x.shape[:-1], y.shape[-1])
    return np.matmul(x, y)


def _t(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over 2-D operands or (B, r, c) stacks; see the module docstring
    for a 2-D operand against a stack."""
    if a.cols != b.rows or (a.data.ndim == b.data.ndim == 3
                            and a.shape[0] != b.shape[0]):
        raise DimensionError(f"matmul inner dims: {a.shape} x {b.shape}")
    out = _mm(a.data, b.data)
    if not _recording(a, b):
        return _value(out)

    def bwd(g):
        return (_unbatch(_mm(g, _t(b.data)), a.data),
                _unbatch(np.matmul(_t(a.data), g), b.data))

    return _make(out, (a, b), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_rows of zero parts")
    lead = parts[0].shape[:-2] + (parts[0].cols,)
    for p in parts:
        if p.shape[:-2] + (p.cols,) != lead:
            raise DimensionError(
                f"concat_rows column mismatch: {p.shape} vs {parts[0].shape}")
    out = np.concatenate([p.data for p in parts], axis=-2)
    if not _recording(*parts):
        return _value(out)
    sizes = [p.rows for p in parts]

    def bwd(g):
        grads = []
        off = 0
        for r in sizes:
            grads.append(g[..., off:off + r, :])
            off += r
        return tuple(grads)

    return _make(out, tuple(parts), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.data + b.data
    if not _recording(a, b):
        return _value(out)
    return _make(out, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = a.data * b.data
    if not _recording(a, b):
        return _value(out)
    return _make(out, (a, b), lambda g: (g * b.data, g * a.data))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    if not _recording(a):
        return _value(out)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    out = np.fmax(a.data, 0.0)
    out += 0.0                                       # NaN and -0.0 give +0.0
    if not _recording(a):
        return _value(out)
    # subgradient at exactly 0 is 0
    return _make(out, (a,), lambda g: (g * (out > 0.0),))


def add_col_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a (rows x 1) bias vector to every column of x (of every window)."""
    if b.data.ndim != 2 or b.cols != 1 or b.rows != x.rows:
        raise DimensionError(f"bias shape {b.shape} incompatible with {x.shape}")
    out = x.data + b.data
    if not _recording(x, b):
        return _value(out)
    return _make(out, (x, b),
                 lambda g: (g, _unbatch(g.sum(axis=-1, keepdims=True), b.data)))


def tensor_sum(a: Tensor) -> Tensor:
    out = np.array([[a.data.sum()]])
    if not _recording(a):
        return _value(out)
    return _make(out, (a,), lambda g: (np.full_like(a.data, g[0, 0]),))


# ---------------------------------------------------------------------------
# backward sweep


def backward(loss: Tensor, leaves: Iterable[Tensor] | None = None) -> None:
    """Reverse sweep from a scalar loss, populating `.grad` on leaf tensors.

    The graph is consumed: once the sweep ends, every interior node drops
    its backward closure (and the arrays it saved) and its parent links,
    so the graph is freed even while the caller still holds `loss`. A
    later backward that reaches a consumed node raises GraphError.
    If `leaves` is given, any leaf unreached by the sweep gets a zero grad.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise GraphError("backward already called on this graph")

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
        if node._consumed:
            raise GraphError("backward reaches a node of a graph that an "
                             "earlier backward consumed")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    try:
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
    finally:
        # release at the end, not node by node: freeing each node's arrays
        # as the sweep passes it measured more page faults per step
        for node in order:
            if node._backward_fn is not None:
                node._backward_fn = None
                node._parents = ()
                node._consumed = True

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
        return float(np.max([0.0, *self.errors.values()]))   # NaN if any error is NaN

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

    errors: dict[str, float] = {}
    # numeric passes do not need the graph
    with no_grad():
        for name, p in params.items():
            flat = p.data.ravel()
            aflat = analytic[name].ravel()
            errs = np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = f().item()
                flat[i] = orig - h
                f_minus = f().item()
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                errs[i] = relative_error(aflat[i], numeric)
            errors[name] = float(errs.max())        # NaN if any error is NaN
    zero_grads(params.values())
    return GradCheckReport(errors, tol)
