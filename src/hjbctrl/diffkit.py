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
so the same numerical code serves both training and fast evaluation.
"""

from __future__ import annotations

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
    """One recorded operation: kind, parent indices and a vjp closure."""

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
        idx = self._record("leaf", (), None)
        return Tensor(t.data, self, idx)

    def _record(self, op: str, parents: tuple[int, ...], backward) -> int:
        self.nodes.append(_Node(op, parents, backward))
        return len(self.nodes) - 1


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


def _parents(*ts: Tensor) -> tuple[int, ...]:
    return tuple(t.idx if t.tape is _ACTIVE_TAPE else -1 for t in ts)


def _emit(op: str, out: np.ndarray, inputs: tuple[Tensor, ...], backward,
          aux=None) -> Tensor:
    """Record the op if any input is tracked on the active tape; inside
    :func:`jvp`, also push the output's tangents (``aux`` is the op's
    static argument that its tangent rule needs: an index or an axis)."""
    tape = _ACTIVE_TAPE
    parents = None if tape is None else _parents(*inputs)
    if parents is None or all(p < 0 for p in parents):
        t = Tensor(out)
    else:
        t = Tensor(out, tape, tape._record(op, parents, backward))
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

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _emit("add", out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _emit("sub", out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _emit("mul", out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = a.data / b.data

    def backward(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _emit("div", out, (a, b), backward)


def neg(a) -> Tensor:
    a = _lift(a)

    def backward(g):
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


def matmul(a, b) -> Tensor:
    """np.matmul semantics for operands of ndim >= 2 (batch dims broadcast)."""
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")
    out = _mm(ad, bd)

    def backward(g):
        # fuse the batch-sum of the adjoint for a 2D operand into the GEMM
        if ad.ndim == 2 and g.ndim == 3:
            ga = np.tensordot(g, bd, axes=([0, 2], [0, 2])) if bd.ndim == 3 else np.tensordot(
                g.sum(axis=0), bd, axes=([1], [1])
            )
        else:
            ga = _unbroadcast(_mm(g, np.swapaxes(bd, -1, -2)), ad.shape)
        if bd.ndim == 2 and g.ndim == 3:
            gb = np.tensordot(ad, g, axes=([0, 1], [0, 1])) if ad.ndim == 3 else np.tensordot(
                ad, g.sum(axis=0), axes=([0], [0])
            )
        else:
            gb = _unbroadcast(_mm(np.swapaxes(ad, -1, -2), g), bd.shape)
        return ga, gb

    return _emit("matmul", out, (a, b), backward)


def sin(a) -> Tensor:
    a = _lift(a)
    cache: dict = {}

    def backward(g):
        c = cache.get("c")
        if c is None:
            c = cache["c"] = np.cos(a.data)
        return (g * c,)

    return _emit("sin", np.sin(a.data), (a,), backward)


def cos(a) -> Tensor:
    a = _lift(a)
    cache: dict = {}

    def backward(g):
        s = cache.get("s")
        if s is None:
            s = cache["s"] = np.sin(a.data)
        return (-g * s,)

    return _emit("cos", np.cos(a.data), (a,), backward)


def sincos(a) -> tuple[Tensor, Tensor]:
    """(sin(a), cos(a)) with one transcendental pass each; the backward of
    either node reuses the other's forward value instead of recomputing."""
    a = _lift(a)
    sv = np.sin(a.data)
    cv = np.cos(a.data)

    def backward_s(g):
        return (g * cv,)

    def backward_c(g):
        return (-g * sv,)

    return _emit("sin", sv, (a,), backward_s), _emit("cos", cv, (a,), backward_c)


def tanh(a) -> Tensor:
    a = _lift(a)
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _emit("tanh", out, (a,), backward)


def relu(a) -> Tensor:
    a = _lift(a)

    def backward(g):
        return (g * (a.data > 0.0),)

    return _emit("relu", np.maximum(a.data, 0.0), (a,), backward)


def exp(a) -> Tensor:
    a = _lift(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _emit("exp", out, (a,), backward)


def sqrt(a) -> Tensor:
    a = _lift(a)
    out = np.sqrt(a.data)

    def backward(g):
        return (g * (0.5 / out),)

    return _emit("sqrt", out, (a,), backward)


def square(a) -> Tensor:
    a = _lift(a)

    def backward(g):
        return (g * (2.0 * a.data),)

    return _emit("square", a.data * a.data, (a,), backward)


def absval(a) -> Tensor:
    a = _lift(a)

    def backward(g):
        return (g * np.sign(a.data),)

    return _emit("abs", np.abs(a.data), (a,), backward)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
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

    def backward(g):
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

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", out, tuple(ts), backward, axis)


def stack(ts: Sequence, axis: int = 0) -> Tensor:
    ts = [_lift(t) for t in ts]
    out = np.stack([t.data for t in ts], axis=axis)

    def backward(g):
        parts = np.split(g, len(ts), axis=axis)
        return tuple(p.squeeze(axis=axis) for p in parts)

    return _emit("stack", out, tuple(ts), backward)


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _emit("reshape", out, (a,), backward)


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _lift(a)
    out = np.swapaxes(a.data, -1, -2)

    def backward(g):
        return (np.swapaxes(g, -1, -2),)

    return _emit("transpose", out, (a,), backward)


def getitem(a, key) -> Tensor:
    """Basic indexing (ints, slices, tuples thereof); no advanced indexing."""
    a = _lift(a)
    out = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _emit("getitem", out, (a,), backward, key)


def detach(a) -> Tensor:
    """Constant copy: blocks gradient flow."""
    a = _lift(a)
    return Tensor(a.data)


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


def _scaled(factor):
    """Rule for an elementwise op whose derivative is ``factor(a)``."""

    def rule(out, ins, tans, aux):
        w = factor(ins[0])
        return [None if da is None else mul(da, w) for da in tans[0]]

    return rule


_TANGENT_RULES = {
    "add": _t_add,
    "sub": _t_sub,
    "mul": _t_mul,
    "div": _t_div,
    "neg": lambda out, ins, tans, aux: [None if da is None else neg(da) for da in tans[0]],
    "sin": _scaled(lambda a: cos(a)),
    "cos": _scaled(lambda a: neg(sin(a))),
    "square": _scaled(lambda a: mul(2.0, a)),
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
    # pending[i]: list of adjoint contributions; summed once when node i is
    # visited, so arrays returned by backward closures are never mutated
    pending: list[list[np.ndarray] | None] = [None] * (expr.idx + 1)
    pending[expr.idx] = [np.ones_like(expr.data)]
    resolved: dict[int, np.ndarray] = {}
    for i in range(expr.idx, -1, -1):
        contrib = pending[i]
        if contrib is None:
            continue
        pending[i] = None
        a = contrib[0] if len(contrib) == 1 else np.add.reduce(contrib)
        node = tape.nodes[i]
        s = a.sum()
        if not np.isfinite(s) and not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite adjoint at node {i} (op '{node.op}')")
        if node.backward is None:
            resolved[i] = a
            continue
        for p, g in zip(node.parents, node.backward(a)):
            if p < 0 or g is None:
                continue
            if pending[p] is None:
                pending[p] = [g]
            else:
                pending[p].append(g)

    for leaf in wrt:
        if leaf.tape is tape and leaf.idx in resolved:
            g = resolved[leaf.idx]
            out[leaf] = Tensor(np.broadcast_to(g, leaf.data.shape).astype(np.float64, copy=True)
                               if g.shape != leaf.data.shape else g.copy())
        else:
            out[leaf] = Tensor(np.zeros_like(leaf.data))
    tape.nodes.clear()
    return out
