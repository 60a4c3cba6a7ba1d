"""Dense float64 tensors with reverse-mode automatic differentiation.

The kernel is deliberately small: an explicit ``Tape`` records every
primitive operation in execution order, and :func:`grad` replays the tape
backwards once.  Derivatives that a training loss itself contains are
composed from the same primitives, so they are taped and one backward pass
differentiates through them:

* network input-Jacobians are written out by hand in ``netzoo``;
* :func:`jvp` runs a function in tangent (forward) mode: while it runs,
  every primitive also pushes one tangent per requested direction, built
  from primitives (Griewank & Walther, *Evaluating Derivatives*, ch. 3).
  This is how the dynamics Jacobians of ``dynzoo`` are derived from f.

Tensors are immutable values.  Ops executed while a tape is active record
themselves; ops on plain constants evaluate eagerly and record nothing,
so the same numerical code serves both training and fast evaluation.  A
node's backward computes adjoints only for the inputs that are on the tape
(frozen network weights and constant factors cost nothing in reverse).

Three fused primitives record a hot composite as one node with a
hand-written adjoint, treated as one elemental (Griewank & Walther,
*Evaluating Derivatives*): :func:`dense`, a network layer
``act(a @ w + b)``; :func:`axpy`, an RK4 stage input ``x + c k``; and
:func:`rk4_combine`, the RK4 update.  Each rounds exactly like the chain
of primitives it replaces, so results are bitwise those of the chain.
They carry the label of an existing op (``sin``, ``tanh`` or ``matmul``
for a layer, after its activation; ``add`` for the RK4 nodes) rather than
names of their own, so a tally of the tape over the fixed list of op
names, such as the benchmark's traced op table, still accounts for every
node; a fused layer's backward time lands in its activation's row.  They
have no tangent rule.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class DiffkitError(Exception):
    """Base class for kernel failures."""


class ShapeError(DiffkitError):
    """Operand shapes are incompatible with the requested op."""


class NumericError(DiffkitError):
    """A non-finite value appeared during forward or backward evaluation."""


# ---------------------------------------------------------------------------
# Tape and tensors
# ---------------------------------------------------------------------------

_ACTIVE_TAPE: "Tape | None" = None
_JVP: "_Tangents | None" = None  # set only while jvp() runs


class _Node:
    """One recorded operation: kind, parent indices and a vjp closure.

    ``parents[i]`` is -1 for an input that is not on the tape.  The closure
    is called as ``backward(g, parents)`` and returns one adjoint per input,
    None for each untracked one: it never computes what nobody collects.
    """

    __slots__ = ("op", "parents", "backward")

    def __init__(self, op: str, parents: tuple[int, ...], backward):
        self.op = op
        self.parents = parents
        self.backward = backward


class Tape:
    """Ordered operation record; parents of node i always have index < i.

    Single-writer and single-use: use one tape per optimization step.
    Entering the tape as a context manager makes it the recording target
    for all ops.  :func:`grad` empties the tape when it is done.
    """

    def __init__(self) -> None:
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise DiffkitError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self.nodes)

    def leaf(self, data, checked: bool = True) -> "Tensor":
        """Record an input tensor that gradients can be taken with respect to."""
        t = tensor(data, checked=checked)
        self.nodes.append(_Node("leaf", (), None))
        return Tensor(t.data, self, len(self.nodes) - 1)


class Tensor:
    """Immutable dense float64 array, optionally tracked on a tape."""

    __slots__ = ("data", "tape", "idx")

    # make numpy defer mixed ndarray/Tensor arithmetic to our operators
    __array_ufunc__ = None

    def __init__(self, data: np.ndarray, tape: "Tape | None" = None, idx: int = -1):
        self.data = data
        self.tape = tape
        self.idx = idx

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            _scalar_err(self)
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f", node={self.idx}" if self.idx >= 0 else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return getitem(self, key)


def _scalar_err(t: Tensor):
    raise ShapeError(f"expected a scalar, got shape {t.data.shape}")


def tensor(data, checked: bool = True) -> Tensor:
    """Wrap array-like data as a constant tensor (float64, row-major)."""
    if isinstance(data, Tensor):
        return data
    arr = np.asarray(data, dtype=np.float64)
    if checked and not np.all(np.isfinite(arr)):
        raise NumericError("tensor creation rejected non-finite entries")
    return Tensor(arr)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else tensor(x, checked=False)


def _emit(op: str, out: np.ndarray, inputs: tuple[Tensor, ...], backward,
          aux=None) -> Tensor:
    """Record the op if any input is tracked on the active tape; inside
    :func:`jvp`, also push the output's tangents (``aux`` is the op's
    static argument that its tangent rule needs: an index or an axis)."""
    t = Tensor(out)
    tape = _ACTIVE_TAPE
    if tape is not None:
        parents = []
        tracked = False
        for x in inputs:
            if x.tape is tape:
                parents.append(x.idx)
                tracked = True
            else:
                parents.append(-1)
        if tracked:
            nodes = tape.nodes
            t.tape = tape
            t.idx = len(nodes)
            nodes.append(_Node(op, tuple(parents), backward))
    if _JVP is not None:
        _JVP.push(op, t, inputs, aux)
    return t


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint back to the shape of the operand it belongs to."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data + b.data

    def backward(g, p):
        return (
            _unbroadcast(g, a.data.shape) if p[0] >= 0 else None,
            _unbroadcast(g, b.data.shape) if p[1] >= 0 else None,
        )

    return _emit("add", out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data - b.data

    def backward(g, p):
        return (
            _unbroadcast(g, a.data.shape) if p[0] >= 0 else None,
            _unbroadcast(-g, b.data.shape) if p[1] >= 0 else None,
        )

    return _emit("sub", out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data * b.data

    def backward(g, p):
        return (
            _unbroadcast(g * b.data, a.data.shape) if p[0] >= 0 else None,
            _unbroadcast(g * a.data, b.data.shape) if p[1] >= 0 else None,
        )

    return _emit("mul", out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data / b.data

    def backward(g, p):
        return (
            _unbroadcast(g / b.data, a.data.shape) if p[0] >= 0 else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if p[1] >= 0 else None,
        )

    return _emit("div", out, (a, b), backward)


def neg(a) -> Tensor:
    a = _lift(a)

    def backward(g, p):
        return (-g,)

    return _emit("neg", -a.data, (a,), backward)


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.matmul with 2D/3D mixes routed through single large GEMMs."""
    if x.ndim == 2 and y.ndim == 2:
        return np.dot(x, y)
    if x.ndim == 2 and y.ndim == 3:
        # (m,k) @ (B,k,n) -> (B,m,n); contract over k in one GEMM
        return np.tensordot(x, y, axes=([1], [1])).transpose(1, 0, 2)
    if x.ndim == 3 and y.ndim == 2:
        # (B,m,k) @ (k,n) -> (B,m,n)
        return np.tensordot(x, y, axes=([2], [0]))
    if x.ndim == 3 and y.ndim == 3 and x.shape[0] == y.shape[0]:
        if x.shape[1] == 1:
            # batched row-vector product: (B,1,k) @ (B,k,n) -> (B,1,n)
            return np.einsum("bk,bkn->bn", x[:, 0, :], y)[:, None, :]
        if x.shape[2] == 1 and y.shape[1] == 1:
            # batched outer product: (B,m,1) @ (B,1,n) -> (B,m,n)
            return x * y
    return np.matmul(x, y)


def _check_matmul(ad: np.ndarray, bd: np.ndarray) -> None:
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")


def _mm_grad_a(g: np.ndarray, ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Adjoint of ``a`` in ``a @ b``; the batch-sum of the adjoint of a 2D
    operand is fused into the GEMM."""
    if ad.ndim == 2 and g.ndim == 3:
        if bd.ndim == 3:
            return np.tensordot(g, bd, axes=([0, 2], [0, 2]))
        return np.tensordot(g.sum(axis=0), bd, axes=([1], [1]))
    return _unbroadcast(_mm(g, np.swapaxes(bd, -1, -2)), ad.shape)


def _mm_grad_b(g: np.ndarray, ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Adjoint of ``b`` in ``a @ b``."""
    if bd.ndim == 2 and g.ndim == 3:
        if ad.ndim == 3:
            return np.tensordot(ad, g, axes=([0, 1], [0, 1]))
        return np.tensordot(ad, g.sum(axis=0), axes=([0], [0]))
    return _unbroadcast(_mm(np.swapaxes(ad, -1, -2), g), bd.shape)


def matmul(a, b) -> Tensor:
    """np.matmul semantics for operands of ndim >= 2 (batch dims broadcast)."""
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    _check_matmul(ad, bd)

    def backward(g, p):
        return (
            _mm_grad_a(g, ad, bd) if p[0] >= 0 else None,
            _mm_grad_b(g, ad, bd) if p[1] >= 0 else None,
        )

    return _emit("matmul", _mm(ad, bd), (a, b), backward)


def sin(a) -> Tensor:
    a = _lift(a)
    cache: dict = {}

    def backward(g, p):
        c = cache.get("c")
        if c is None:
            c = cache["c"] = np.cos(a.data)
        return (g * c,)

    return _emit("sin", np.sin(a.data), (a,), backward)


def cos(a) -> Tensor:
    a = _lift(a)
    cache: dict = {}

    def backward(g, p):
        s = cache.get("s")
        if s is None:
            s = cache["s"] = np.sin(a.data)
        return (-g * s,)

    return _emit("cos", np.cos(a.data), (a,), backward)


def sincos(a) -> tuple[Tensor, Tensor]:
    """(sin(a), cos(a)) with one transcendental pass each; the backward of
    either node, and inside :func:`jvp` the tangent of either, reuses the
    other's forward value instead of recomputing it."""
    global _JVP
    a = _lift(a)
    sv = np.sin(a.data)
    cv = np.cos(a.data)

    def backward_s(g, p):
        return (g * cv,)

    def backward_c(g, p):
        return (-g * sv,)

    tangents, _JVP = _JVP, None
    try:
        s = _emit("sin", sv, (a,), backward_s)
        c = _emit("cos", cv, (a,), backward_c)
    finally:
        _JVP = tangents
    if tangents is not None:
        # each tangent rule takes its sibling as the derivative factor
        tangents.push("sin", s, (a,), c)
        tangents.push("cos", c, (a,), s)
    return s, c


def tanh(a) -> Tensor:
    a = _lift(a)
    out = np.tanh(a.data)

    def backward(g, p):
        return (g * (1.0 - out * out),)

    return _emit("tanh", out, (a,), backward)


def relu(a) -> Tensor:
    a = _lift(a)

    def backward(g, p):
        return (g * (a.data > 0.0),)

    return _emit("relu", np.maximum(a.data, 0.0), (a,), backward)


def exp(a) -> Tensor:
    a = _lift(a)
    out = np.exp(a.data)

    def backward(g, p):
        return (g * out,)

    return _emit("exp", out, (a,), backward)


def sqrt(a) -> Tensor:
    a = _lift(a)
    out = np.sqrt(a.data)

    def backward(g, p):
        return (g * (0.5 / out),)

    return _emit("sqrt", out, (a,), backward)


def square(a) -> Tensor:
    a = _lift(a)

    def backward(g, p):
        return (g * (2.0 * a.data),)

    return _emit("square", a.data * a.data, (a,), backward)


def absval(a) -> Tensor:
    a = _lift(a)

    def backward(g, p):
        return (g * np.sign(a.data),)

    return _emit("abs", np.abs(a.data), (a,), backward)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g, p):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).copy(),)

    return _emit("sum", out, (a,), backward)


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        n = a.data.shape[axis]

    def backward(g, p):
        if axis is None:
            return (np.broadcast_to(g / n, a.data.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2 / n, a.data.shape).copy(),)

    return _emit("mean", out, (a,), backward)


def concat(ts: Sequence, axis: int = -1) -> Tensor:
    ts = [_lift(t) for t in ts]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g, p):
        return tuple(part if i >= 0 else None
                     for part, i in zip(np.split(g, splits, axis=axis), p))

    return _emit("concat", out, tuple(ts), backward, axis)


def stack(ts: Sequence, axis: int = 0) -> Tensor:
    ts = [_lift(t) for t in ts]
    out = np.stack([t.data for t in ts], axis=axis)

    def backward(g, p):
        parts = np.split(g, len(ts), axis=axis)
        return tuple(part.squeeze(axis=axis) if i >= 0 else None for part, i in zip(parts, p))

    return _emit("stack", out, tuple(ts), backward)


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def backward(g, p):
        return (g.reshape(a.data.shape),)

    return _emit("reshape", out, (a,), backward)


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _lift(a)
    out = np.swapaxes(a.data, -1, -2)

    def backward(g, p):
        return (np.swapaxes(g, -1, -2),)

    return _emit("transpose", out, (a,), backward)


def getitem(a, key) -> Tensor:
    """Basic indexing (ints, slices, tuples thereof); no advanced indexing."""
    a = _lift(a)
    out = a.data[key]

    def backward(g, p):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _emit("getitem", out, (a,), backward, key)


def detach(a) -> Tensor:
    """Constant copy: blocks gradient flow."""
    a = _lift(a)
    return Tensor(a.data)


# ---------------------------------------------------------------------------
# Fused primitives: one node for a hot composite, with a hand-written adjoint
# ---------------------------------------------------------------------------

# layer activation -> the label of the last op of the chain the node replaces
_LAYER_OPS = {"sine": "sin", "tanh": "tanh", "linear": "matmul"}


def _no_tangents(name: str, inputs: tuple[Tensor, ...]) -> None:
    """Fused primitives have no tangent rule: refuse a tangent-carrying input
    inside :func:`jvp` instead of pushing the rule of their label."""
    if _JVP is not None and any(id(t) in _JVP.of for t in inputs):
        raise DiffkitError(f"jvp: op '{name}' has no tangent rule")


def dense(a, w, b, act: str = "linear", omega0: float = 1.0) -> Tensor:
    """One network layer ``act(a @ w + b)`` as one node labelled by its
    last op: ``sin`` for act="sine" (``sin(omega0 * z)``), ``tanh``, or
    ``matmul`` for act="linear".

    Forward and adjoint round exactly like the matmul/add/mul/activation
    chain they replace, so results are bitwise those of the chain.
    """
    op = _LAYER_OPS.get(act)
    if op is None:
        raise ValueError(f"unknown layer activation '{act}'")
    a, w, b = _lift(a), _lift(w), _lift(b)
    _no_tangents("dense", (a, w, b))
    ad, wd, bd = a.data, w.data, b.data
    _check_matmul(ad, wd)
    z = _mm(ad, wd) + bd
    if act == "sine":
        wz = omega0 * z
        out = np.sin(wz)
    else:
        out = np.tanh(z) if act == "tanh" else z

    def backward(g, p):
        if act == "sine":
            g = (g * np.cos(wz)) * omega0
        elif act == "tanh":
            g = g * (1.0 - out * out)
        return (
            _mm_grad_a(g, ad, wd) if p[0] >= 0 else None,
            _mm_grad_b(g, ad, wd) if p[1] >= 0 else None,
            _unbroadcast(g, bd.shape) if p[2] >= 0 else None,
        )

    return _emit(op, out, (a, w, b), backward)


def axpy(x, c: float, k) -> Tensor:
    """``x + c * k`` for a constant c as one node labelled ``add`` (an RK4
    stage input), rounded like the mul/add pair it replaces."""
    x, k = _lift(x), _lift(k)
    _no_tangents("axpy", (x, k))

    def backward(g, p):
        return (
            _unbroadcast(g, x.data.shape) if p[0] >= 0 else None,
            _unbroadcast(g, k.data.shape) * c if p[1] >= 0 else None,
        )

    return _emit("add", x.data + c * k.data, (x, k), backward)


def rk4_combine(x, h: float, k1, k2, k3, k4) -> Tensor:
    """The RK4 update ``x + h/6 * (k1 + 2 k2 + 2 k3 + k4)`` as one node
    labelled ``add``, summed left to right like the chain it replaces."""
    x, k1, k2, k3, k4 = (_lift(t) for t in (x, k1, k2, k3, k4))
    _no_tangents("rk4_combine", (x, k1, k2, k3, k4))
    c = h / 6.0
    s = k1.data + 2.0 * k2.data + 2.0 * k3.data + k4.data

    def backward(g, p):
        gs = _unbroadcast(g, s.shape) * c
        return (
            _unbroadcast(g, x.data.shape) if p[0] >= 0 else None,
            _unbroadcast(gs, k1.data.shape) if p[1] >= 0 else None,
            _unbroadcast(gs, k2.data.shape) * 2.0 if p[2] >= 0 else None,
            _unbroadcast(gs, k3.data.shape) * 2.0 if p[3] >= 0 else None,
            _unbroadcast(gs, k4.data.shape) if p[4] >= 0 else None,
        )

    return _emit("add", x.data + c * s, (x, k1, k2, k3, k4), backward)


# ---------------------------------------------------------------------------
# Composites used throughout the package
# ---------------------------------------------------------------------------

_NORM_EPS = 1e-18  # keeps the norm differentiable at a zero residual


def l2norm(a, axis: int = -1) -> Tensor:
    """Euclidean norm along ``axis`` (epsilon-stabilized at zero)."""
    return sqrt(sum_(square(a), axis=axis) + _NORM_EPS)


def fronorm(a) -> Tensor:
    """Frobenius norm over the last two axes."""
    return sqrt(sum_(square(a), axis=(-2, -1)) + _NORM_EPS)


def quadform(x, m) -> Tensor:
    """Row-wise quadratic form x M x^T for batched row vectors x: (B, n) -> (B,)."""
    x = _lift(x)
    return sum_(matmul(x, m) * x, axis=-1)


# ---------------------------------------------------------------------------
# Forward (tangent) mode
# ---------------------------------------------------------------------------


def _plus(a, b):
    """Sum of two tangents, either of which may be None (zero)."""
    if a is None:
        return b
    return a if b is None else add(a, b)


def _fit(t, out: Tensor):
    """Broadcast a tangent to the shape of the value it belongs to."""
    if t is None or t.data.shape == out.data.shape:
        return t
    return add(t, np.zeros(out.data.shape))


def _nonzero(t):
    """None for a constant all-zero tangent, so later rules can skip it."""
    if t is None or (t.tape is None and not t.data.any()):
        return None
    return t


def _t_add(out, ins, tans, aux):
    return [_fit(_plus(da, db), out) for da, db in zip(*tans)]


def _t_sub(out, ins, tans, aux):
    return [
        _fit(da if db is None else neg(db) if da is None else sub(da, db), out)
        for da, db in zip(*tans)
    ]


def _t_mul(out, ins, tans, aux):
    a, b = ins
    return [
        _plus(None if da is None else mul(da, b), None if db is None else mul(a, db))
        for da, db in zip(*tans)
    ]


def _t_div(out, ins, tans, aux):
    # d(a / b) = da / b + db * (-(a / b) / b)
    a, b = ins
    w = neg(div(out, b)) if any(db is not None for db in tans[1]) else None
    return [
        _plus(None if da is None else div(da, b), None if db is None else mul(db, w))
        for da, db in zip(*tans)
    ]


def _scaled(w: Tensor, tans) -> list:
    """Tangents of an elementwise op whose derivative is ``w``."""
    return [None if da is None else mul(da, w) for da in tans[0]]


_TANGENT_RULES = {
    "add": _t_add,
    "sub": _t_sub,
    "mul": _t_mul,
    "div": _t_div,
    "neg": lambda out, ins, tans, aux: [None if da is None else neg(da) for da in tans[0]],
    # aux is the sibling value when the node comes from sincos
    "sin": lambda out, ins, tans, aux: _scaled(cos(ins[0]) if aux is None else aux, tans),
    "cos": lambda out, ins, tans, aux: _scaled(neg(sin(ins[0]) if aux is None else aux), tans),
    "square": lambda out, ins, tans, aux: _scaled(mul(2.0, ins[0]), tans),
    "getitem": lambda out, ins, tans, aux: [
        None if da is None else _nonzero(getitem(da, aux)) for da in tans[0]
    ],
    "reshape": lambda out, ins, tans, aux: [
        None if da is None else reshape(da, out.data.shape) for da in tans[0]
    ],
    "concat": lambda out, ins, tans, aux: [
        None if all(t is None for t in ts) else concat(
            [np.zeros(x.data.shape) if t is None else t for x, t in zip(ins, ts)], axis=aux
        )
        for ts in zip(*tans)
    ],
}


class _Tangents:
    """The tangents of the tensors computed inside one :func:`jvp` call."""

    def __init__(self, n: int) -> None:
        self.n = n
        # id(tensor) -> (tensor, one tangent or None per direction); holding
        # the tensor keeps its id from being reused while jvp runs
        self.of: dict[int, tuple[Tensor, tuple]] = {}

    def get(self, t: Tensor) -> tuple:
        entry = self.of.get(id(t))
        return entry[1] if entry is not None else (None,) * self.n

    def set(self, t: Tensor, tans) -> None:
        tans = tuple(tans)
        if any(dt is not None for dt in tans):
            self.of[id(t)] = (t, tans)

    def push(self, op: str, out: Tensor, inputs: tuple[Tensor, ...], aux) -> None:
        if not any(id(t) in self.of for t in inputs):
            return
        rule = _TANGENT_RULES.get(op)
        if rule is None:
            raise DiffkitError(f"jvp: op '{op}' has no tangent rule")
        global _JVP
        _JVP = None  # the rule's own ops are plain (taped) primal arithmetic
        try:
            self.set(out, rule(out, inputs, [self.get(t) for t in inputs], aux))
        finally:
            _JVP = self


def jvp(fn: Callable, primals: Sequence, directions: Sequence[Sequence]):
    """``fn(*primals)`` and its directional derivatives along each direction.

    ``directions`` holds one sequence per direction with one entry per
    primal: an array of that primal's shape, or None for zero.  Returns
    ``(fn(*primals), tangents)`` with one tangent per direction, None where
    the output does not depend on that direction.  Tangents are built from
    primitives, so under an active tape they are recorded and can be
    differentiated in reverse.  Only the ops with a tangent rule (add, sub,
    mul, div, neg, sin, cos, square, getitem, reshape, concat) may see a
    tangent; any other raises :class:`DiffkitError`.  Calls do not nest.
    """
    global _JVP
    if _JVP is not None:
        raise DiffkitError("jvp is already running; jvp calls do not nest")
    primals = tuple(_lift(p) for p in primals)
    state = _Tangents(len(directions))
    for i, p in enumerate(primals):
        seeds = []
        for direction in directions:
            dp = direction[i]
            if dp is not None:
                dp = _lift(dp)
                if dp.data.shape != p.data.shape:
                    raise ShapeError(
                        f"jvp direction of shape {dp.data.shape} for a primal of shape "
                        f"{p.data.shape}"
                    )
            seeds.append(_nonzero(dp))
        state.set(p, seeds)
    _JVP = state
    try:
        out = fn(*primals)
    finally:
        _JVP = None
    return out, list(state.get(out))


# ---------------------------------------------------------------------------
# Reverse pass
# ---------------------------------------------------------------------------


def grad(expr: Tensor, wrt: Iterable[Tensor]) -> Mapping[Tensor, Tensor]:
    """Gradients of a scalar expression with respect to leaf tensors.

    Leaves that never entered the expression's tape map to zero tensors of
    their own shape.  The backward pass visits each node exactly once, in
    reverse creation order, so results are deterministic.  Afterwards the
    tape's nodes are dropped: their closures hold tensors that point back
    at the tape, a cycle that would otherwise keep every array of the step
    alive until the next cyclic garbage collection.
    """
    wrt = list(wrt)
    if expr.data.size != 1:
        raise ShapeError(f"grad needs a scalar expression, got shape {expr.data.shape}")
    out: dict[Tensor, Tensor] = {}
    if expr.tape is None or expr.idx < 0:
        for leaf in wrt:
            out[leaf] = Tensor(np.zeros_like(leaf.data))
        return out

    tape = expr.tape
    nodes = tape.nodes
    # pending[i]: node i's adjoint, summed left to right in arrival order
    # into new arrays, so arrays returned by backward closures are never
    # mutated.  Size-1 adjoints are collected in a list and summed by
    # np.add.reduce, which adds ten or more of them pairwise: their sums
    # round like those of a stacked array, as wider adjoints' sums do.
    pending: list = [None] * (expr.idx + 1)
    pending[expr.idx] = np.ones_like(expr.data)
    resolved: dict[int, np.ndarray] = {}
    for i in range(expr.idx, -1, -1):
        a = pending[i]
        if a is None:
            continue
        pending[i] = None
        if type(a) is list:
            a = np.add.reduce(a)
        node = nodes[i]
        if not math.isfinite(a.sum()) and not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite adjoint at node {i} (op '{node.op}')")
        if node.backward is None:
            resolved[i] = a
            continue
        parents = node.parents
        for p, g in zip(parents, node.backward(a, parents)):
            if g is None:
                continue
            acc = pending[p]
            if acc is None:
                pending[p] = g
            elif g.size > 1:
                pending[p] = acc + g
            elif type(acc) is list:
                acc.append(g)
            else:
                pending[p] = [acc, g]

    for leaf in wrt:
        if leaf.tape is tape and leaf.idx in resolved:
            g = resolved[leaf.idx]
            out[leaf] = Tensor(np.broadcast_to(g, leaf.data.shape).astype(np.float64, copy=True)
                               if g.shape != leaf.data.shape else g.copy())
        else:
            out[leaf] = Tensor(np.zeros_like(leaf.data))
    tape.nodes.clear()
    return out
