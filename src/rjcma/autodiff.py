"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Every value is a row-major (rows, cols) float64 matrix, or a batch of them
stacked as (B, rows, cols), one per window. There is no broadcasting:
elementwise ops require exact shape equality. The exceptions are explicit:
the column-bias add, and a 2-D operand of `matmul` against a stack, which
is a weight shared by every window of the batch and receives one gradient
summed over it. Scalars are 1x1 tensors so reductions stay differentiable.

Every op ends in `_make`, the one place that decides whether it records:
outside `no_grad()`, an op with operands gets a graph node. The graph is
made of nodes, not of values: a `Tensor` holds its array and its node, and
a node holds its operands' nodes and its backward closure, never a
`Tensor`. So a value's array lives while a caller or a backward closure
that saved it holds it, not while the graph does; an op output that no
backward reads dies as soon as its caller drops it. Inside `no_grad()` the
result keeps no node. `backward(loss, wrt)` returns the gradients of a
scalar loss with respect to a dict of tensors; no tensor holds a gradient.
It frees the graph as it sweeps: it detaches each node's backward closure
and parent links before running the closure, so the arrays the closure
saved are freed as soon as it returns.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class GraphError(RuntimeError):
    """Raised on autodiff contract violations (non-scalar loss, reused graph)."""


class _Node:
    """A vertex of the graph: the nodes of an op's operands (`parents`) and
    the op's backward closure. It holds no array of its own; `consumed`
    marks a node whose closure an earlier backward ran or dropped."""

    __slots__ = ("parents", "backward_fn", "consumed")

    def __init__(self, parents: tuple = (), backward_fn=None):
        self.parents, self.backward_fn, self.consumed = parents, backward_fn, False


class Tensor:
    """Dense 2-D float64 tensor, or a (B, rows, cols) stack of them,
    optionally recording onto the implicit tape.

    The constructor takes external input only: finite values, 2-D after
    promotion; a batch of inputs is built with `Tensor.stack`. Op results
    come from `_make`. A recorded one holds its graph node (`_node`); a
    plain value holds none, and an input or parameter gets a leaf node the
    first time it is an operand of a recorded op.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim < 2:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(
                f"input tensors are 2-D (a batch is built with Tensor.stack), got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite values rejected at tensor construction")
        self.data = np.ascontiguousarray(arr)
        self._node = None

    @property
    def _backward_fn(self):
        """The backward closure of this tensor's node (None without one);
        perfbench's tracer reads and wraps it."""
        return None if self._node is None else self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node.backward_fn = fn

    @classmethod
    def stack(cls, arrays: Sequence) -> "Tensor":
        """A (B, rows, cols) batch of equally shaped 2-D inputs."""
        parts = [cls(a).data for a in arrays]
        if not parts or any(p.shape != parts[0].shape for p in parts):
            raise DimensionError(
                f"stack needs equally shaped parts, got {[p.shape for p in parts]}")
        return _value(np.stack(parts))

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


_RECORDING: ContextVar[bool] = ContextVar("rjcma_autodiff_records", default=True)


@contextmanager
def no_grad():
    """Within this scope ops compute values only: no graph, no closures."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


_LEAF_LOCK = threading.Lock()


def _node_of(t: Tensor) -> _Node:
    """`t`'s node; a tensor without one gets a leaf node, once, even when
    two threads record ops on it at the same time."""
    node = t._node
    if node is None:
        with _LEAF_LOCK:
            if t._node is None:
                t._node = _Node()
            node = t._node
    return node


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """An op's result, holding `data` (its own 2-D or (B, rows, cols)
    float64 array) as is: unchecked, since an op result may hold non-finite
    values that training diagnostics inspect. With `parents` (the operand
    tensors), outside `no_grad()`, it gets a node linked to the operands'
    nodes, whose `backward_fn(g)` returns one gradient (or None) per parent;
    otherwise it is a plain value, and `backward_fn` is dropped. The node
    keeps no operand's array: an operand's array outlives the caller's
    reference only if `backward_fn` saved it. A node of a consumed graph is
    a parent like any other, so that `backward` reaches it and raises."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = (_Node(tuple(map(_node_of, parents)), backward_fn)
                 if parents and _RECORDING.get() else None)
    return out


def _value(data: np.ndarray) -> Tensor:
    """`data` as a tensor outside any graph, without a copy or a check."""
    return _make(data, (), None)


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

    def bwd(g):
        return (_unbatch(_mm(g, _t(b.data)), a.data),
                _unbatch(np.matmul(_t(a.data), g), b.data))

    return _make(_mm(a.data, b.data), (a, b), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_rows of zero parts")
    lead = parts[0].shape[:-2] + (parts[0].cols,)
    for p in parts:
        if p.shape[:-2] + (p.cols,) != lead:
            raise DimensionError(
                f"concat_rows column mismatch: {p.shape} vs {parts[0].shape}")
    out = np.concatenate([p.data for p in parts], axis=-2)
    sizes = [p.rows for p in parts]

    def bwd(g):
        grads = []
        off = 0
        for r in sizes:
            grads.append(g[..., off:off + r, :])
            off += r
        return tuple(grads)

    return _make(out, tuple(parts), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    out = np.fmax(a.data, 0.0)
    out += 0.0                                       # NaN and -0.0 give +0.0
    # subgradient at exactly 0 is 0
    return _make(out, (a,), lambda g: (g * (out > 0.0),))


def add_col_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a (rows x 1) bias vector to every column of x (of every window)."""
    if b.data.ndim != 2 or b.cols != 1 or b.rows != x.rows:
        raise DimensionError(f"bias shape {b.shape} incompatible with {x.shape}")
    return _make(x.data + b.data, (x, b),
                 lambda g: (g, _unbatch(g.sum(axis=-1, keepdims=True), b.data)))


# ---------------------------------------------------------------------------
# backward sweep


def _consume(node: _Node) -> None:
    """Drop an interior node's backward closure (with the arrays it saved)
    and its parent links, and mark it consumed."""
    node.backward_fn, node.parents, node.consumed = None, (), True


def backward(loss: Tensor, wrt: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Reverse sweep from a scalar loss: the gradient of `loss` with respect
    to each tensor of `wrt`, by name. A tensor the sweep does not reach
    gets zeros.

    The sweep runs over nodes and keys gradients by node. The graph is
    consumed node by node: the sweep takes each interior node off its list
    and detaches the node's backward closure and parent links before running
    the closure, so once the closure returns, the arrays it saved are freed.
    A node never held its output's array: that lives only while a caller or
    a closure holds it. The graph is thus freed as the sweep goes, even
    while the caller holds `loss`. A closure that raises leaves every node
    of the graph consumed too. A later backward that reaches a consumed
    node raises GraphError.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = _node_of(loss)
    if root.consumed:
        raise GraphError("backward already called on this graph")

    # iterative topological order (post-order DFS)
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.consumed:
            raise GraphError("backward reaches a node of a graph that an "
                             "earlier backward consumed")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    wanted = {t._node for t in wrt.values() if t._node is not None}
    # a node's gradient until its closure takes it, a wanted one's to the end
    grads: dict[_Node, np.ndarray] = {root: np.ones((1, 1))}
    # release node by node, not at the end of the sweep: a K=300, 12-window
    # step then peaks 14 MB lower (77 -> 63 MB above its start, tracemalloc).
    # The freed graph changes which blocks glibc reuses and trims, and so
    # the minor faults per step, either way: 25-28% more at K=64, 17-22%
    # fewer at K=300 (one worker; BENCH_18.json)
    try:
        while order:
            node = order.pop()
            fn, parents = node.backward_fn, node.parents
            if fn is None:
                continue
            _consume(node)
            g = grads.get(node) if node in wanted else grads.pop(node, None)
            if g is None:
                continue
            for p, pg in zip(parents, fn(g)):
                if pg is None or not (p.parents or p in wanted):
                    continue
                acc = grads.get(p)
                grads[p] = pg if acc is None else acc + pg
    finally:
        # a closure raised: the nodes it did not reach are consumed too
        for node in order:
            if node.backward_fn is not None:
                _consume(node)

    return {name: grads[t._node] if t._node in grads else np.zeros_like(t.data)
            for name, t in wrt.items()}


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


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Check analytic gradients of `f` against central finite differences.

    `f` must be a deterministic closure over the tensors in `params`,
    returning a scalar loss freshly built on each call.
    """
    analytic = backward(f(), params)

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
                errs[i] = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-12)
            errors[name] = float(errs.max())        # NaN if any error is NaN
    return GradCheckReport(errors, tol)
