"""Dense float tensors with reverse-mode automatic differentiation.

The kernel is deliberately small: an explicit ``Tape`` records every
primitive operation in execution order, and :func:`grad` replays the tape
backwards once.  Derivatives that a training loss itself contains are
composed from the same primitives, so they are taped and one backward pass
differentiates through them:

* network input-Jacobians are written out by hand in ``netzoo``;
* :func:`jvp` runs a function in tangent (forward) mode: while it runs,
  every primitive also pushes one tangent per requested direction, built
  from primitives (Griewank & Walther, *Evaluating Derivatives*, ch. 3).
  This is how ``dynzoo`` derives the dynamics Jacobians from f and the
  u-gradients of the running cost and of the costate product v . f.
  Each primitive hands its own tangent rule (a module-level ``_t_*``
  function) to the op recorder; a primitive without one refuses a tangent.

Dtype rule: the precision follows the data.  A tensor keeps the dtype of
the float array it wraps, and an op computes in the narrowest dtype among
its operands: a constant operand (a Python number, a float64 array such as
a cost matrix, ``np.zeros``, a jvp seed or zero tangent, ``tensor(0.0)``)
is cast to the dtype of a float32 operand, so a float32 computation stays
float32 and every value, adjoint and tangent it records is float32, while
float64 operands alone give float64 results and float64 adjoints.
:data:`COMPUTE` is the dtype that the training and evaluation entry points
(``sysid.train_sysid``, ``hjbtrain.train_controller``, ``rollout.evaluate``)
cast their weights and inputs to; their optimizer keeps float64 master
weights and moments, so parameters and checkpoints stay float64
(mixed-precision training, Micikevicius et al. 2018, "Mixed Precision
Training").

Tensors are immutable values.  Ops executed while a tape is active record
themselves; ops on plain constants evaluate eagerly and record nothing,
so the same numerical code serves both training and fast evaluation.  A
node's backward computes adjoints only for the inputs that are on the tape
(frozen network weights and constant factors cost nothing in reverse).

Every op lifts its operands with :func:`tensor`, which returns a tensor
unchanged and wraps anything else as a constant without checking it;
:meth:`Tape.leaf` is where inputs are checked, and it rejects non-finite
data.  :func:`sin` and :func:`cos` are the two halves of
:func:`sincos`, the one trig primitive.  :func:`matmul`, and the product
inside :func:`dense`, takes a matrix (m, k) or a stack of matrices
(B, m, k) on the left and a matrix (k, n) on the right; any other layout
raises :class:`ShapeError`.  :func:`grad` adds the contributions to each
adjoint left to right in the order they arrive, whatever their size.

Retention rule: a node keeps an array only while an adjoint reads it.
When a node is recorded, it decides from which of its inputs are tracked
what its backward will read, and keeps only that; of everything else it
keeps shapes.  A product keeps a factor only if the other factor is
tracked, so a product with a constant keeps only the constant; a
:func:`dense` layer with frozen weights keeps neither its input nor, if
linear, its output, except that a sine layer whose input is narrower than
its output keeps that input (and its weights) instead of omega0 z and
rebuilds omega0 z in backward with the forward's ops; sums, means,
reshapes, slices and concats keep shapes only.  An untaped call records
nothing and builds no closure.  :func:`grad` drops each node as soon as
its backward has run, so the step's arrays are freed while the adjoints
grow.  Because a step frees and reallocates the same arrays, importing the
module also sets malloc to keep freed memory in the process
(:func:`_keep_freed_memory`).

Four fused primitives record a hot composite as one node with a
hand-written adjoint, treated as one elemental (Griewank & Walther,
*Evaluating Derivatives*): :func:`dense`, a network layer
``act(a @ w + b)``; :func:`chain`, one layer ``(g * d) @ w^T`` of a
network's seeded reverse Jacobian chain, which keeps g, d and w but never
their product; :func:`axpy`, an RK4 stage input ``x + c k``; and
:func:`rk4_combine`, the RK4 update.  Each rounds exactly like the chain
of primitives it replaces, so results are bitwise those of the chain.
Their nodes carry the label of an existing op (``sin``, ``tanh`` or
``matmul`` for a layer, after its activation; ``matmul`` for a chain
layer; ``add`` for the RK4 nodes), so a tally of the tape over the fixed
list of op names, such as the benchmark's traced op table, still accounts
for every node; a fused layer's backward time lands in its activation's
row.  They have no tangent rule, and refuse a tangent under their own name.
"""

from __future__ import annotations

import ctypes
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
# Allocator policy
# ---------------------------------------------------------------------------

# glibc's mallopt parameter numbers (malloc.h) and the values set here
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20  # the ceiling of glibc's own moving threshold on 64-bit hosts
_TRIM_THRESHOLD = 128 << 20


def _keep_freed_memory() -> None:
    """Keep the memory of freed arrays in the process for the next step.

    A step allocates and frees the same arrays again and again.  Under
    glibc's defaults, arrays above a moving threshold (128 KiB at first) get
    their own mappings, and each free that leaves more than the trim
    threshold at the top of the heap hands it back to the kernel; the next
    step faults the same pages in again (~300k minor faults over a
    300-epoch Sobolev sysid at batch 256, ~1 s of system time).  Fixed
    thresholds keep those pages mapped, and leave peak RSS as it is.  Called
    once, on import; a no-op where libc has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_memory()


# ---------------------------------------------------------------------------
# Tape and tensors
# ---------------------------------------------------------------------------

# the dtype the training and evaluation entry points compute in; their
# float64 callers' data and the optimizer's master weights stay float64
COMPUTE = np.float32

_ACTIVE_TAPE: "Tape | None" = None
_JVP: "_Tangents | None" = None  # set only while jvp() runs


class _Node:
    """One recorded operation: kind, parent indices and a vjp closure.

    ``parents[i]`` is -1 for an input that is not on the tape.  The closure
    is called as ``backward(g, parents)`` and returns one adjoint per input,
    None for each untracked one: it never computes what nobody collects,
    and it holds only the arrays that the other adjoints read.
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
    for all ops.  :func:`grad` empties the tape as it runs.
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

    def leaf(self, data) -> "Tensor":
        """Record an input tensor that gradients can be taken with respect to,
        in the dtype of ``data`` (see :func:`tensor`); non-finite entries are
        rejected."""
        arr = tensor(data).data
        if not np.all(np.isfinite(arr)):
            raise NumericError("tape leaf rejected non-finite entries")
        self.nodes.append(_Node("leaf", (), None))
        return Tensor(arr, self, len(self.nodes) - 1)


class Tensor:
    """Immutable dense float array, optionally tracked on a tape.

    Its dtype is that of the array it wraps: float64 for Python numbers and
    lists, float32 for float32 data.  An op on tensors of two dtypes
    computes in the narrower one (see the module docstring).
    """

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


def tensor(data) -> Tensor:
    """Lift an operand: a tensor is returned unchanged, a float array (or
    numpy float) is wrapped in its own dtype, and anything else (a Python
    number, a list, an integer array) is wrapped as a float64 constant."""
    if isinstance(data, Tensor):
        return data
    arr = np.asarray(data)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return Tensor(arr)


def _same(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two operand arrays in one dtype, the narrower of theirs: a float64
    constant (0-d ones included, which NumPy 2 would let upcast the result)
    is cast to a float32 operand's dtype, never the reverse."""
    dx, dy = x.dtype, y.dtype
    if dx is dy:
        return x, y
    if dx.itemsize < dy.itemsize:
        return x, y.astype(dx)
    return x.astype(dy), y


def _same_all(arrays: list) -> list:
    """:func:`_same` for any number of operand arrays."""
    dt = arrays[0].dtype
    for a in arrays:
        if a.dtype.itemsize < dt.itemsize:
            dt = a.dtype
    return [a if a.dtype is dt else a.astype(dt) for a in arrays]


def _emit(op: str, out: np.ndarray, inputs: tuple[Tensor, ...], vjp,
          args: tuple = (), tangent=None, aux=None, name: str | None = None) -> Tensor:
    """Record the op if any input is tracked on the active tape; inside
    :func:`jvp`, also push the output's tangents.

    ``vjp(parents, *args)`` builds the node's backward closure.  It is
    called only when the node is recorded, with the parent mask, so the
    closure keeps only the arrays that the adjoints of tracked inputs read.
    ``tangent(out, inputs, tangents, aux)``, the op's module-level tangent
    rule, maps the inputs' tangents to the output's; ``aux`` is its static
    argument (an index, an axis, or a sum's axis and keepdims).  An op
    without a rule refuses a tangent, naming itself ``name`` (default
    ``op``).
    """
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
            parents = tuple(parents)
            nodes.append(_Node(op, parents, vjp(parents, *args)))
    if _JVP is not None:
        _JVP.push(name or op, t, inputs, tangent, aux)
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


def _plus(a, b):
    """Sum of two tangents, either of which may be None (zero)."""
    if a is None:
        return b
    return a if b is None else add(a, b)


def _fit(t, out: Tensor):
    """Broadcast a tangent to the shape of the value it belongs to."""
    if t is None or t.data.shape == out.data.shape:
        return t
    return add(t, np.zeros(out.data.shape, out.data.dtype))


def _nonzero(t):
    """None for a constant all-zero tangent, so later rules can skip it."""
    if t is None or (t.tape is None and not t.data.any()):
        return None
    return t


def _t_scaled(out, ins, tans, w: Tensor) -> list:
    """The rule of an elementwise op whose derivative is ``w``."""
    return [None if da is None else mul(da, w) for da in tans[0]]


# ---------------------------------------------------------------------------
# Primitive ops: each hands _emit a module-level ``*_vjp`` factory, the
# arrays its adjoints may read (the factory drops those no tracked input's
# adjoint reads) and its tangent rule ``_t_*``, if it has one.
# ---------------------------------------------------------------------------


def _add_vjp(p, ad, bd):
    sa, sb = ad.shape, bd.shape

    def backward(g, p):
        return (
            _unbroadcast(g, sa) if p[0] >= 0 else None,
            _unbroadcast(g, sb) if p[1] >= 0 else None,
        )

    return backward


def _t_add(out, ins, tans, aux):
    return [_fit(_plus(da, db), out) for da, db in zip(*tans)]


def add(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    ad, bd = _same(a.data, b.data)
    return _emit("add", ad + bd, (a, b), _add_vjp, (ad, bd), _t_add)


def _sub_vjp(p, ad, bd):
    sa, sb = ad.shape, bd.shape

    def backward(g, p):
        return (
            _unbroadcast(g, sa) if p[0] >= 0 else None,
            _unbroadcast(-g, sb) if p[1] >= 0 else None,
        )

    return backward


def _t_sub(out, ins, tans, aux):
    return [_fit(da if db is None else neg(db) if da is None else sub(da, db), out)
            for da, db in zip(*tans)]


def sub(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    ad, bd = _same(a.data, b.data)
    return _emit("sub", ad - bd, (a, b), _sub_vjp, (ad, bd), _t_sub)


def _mul_vjp(p, ad, bd):
    sa, sb = ad.shape, bd.shape
    # each operand's value feeds only the other operand's adjoint
    if p[1] < 0:
        ad = None
    if p[0] < 0:
        bd = None

    def backward(g, p):
        return (
            _unbroadcast(g * bd, sa) if p[0] >= 0 else None,
            _unbroadcast(g * ad, sb) if p[1] >= 0 else None,
        )

    return backward


def _t_mul(out, ins, tans, aux):
    a, b = ins
    return [_plus(None if da is None else mul(da, b), None if db is None else mul(a, db))
            for da, db in zip(*tans)]


def mul(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    ad, bd = _same(a.data, b.data)
    return _emit("mul", ad * bd, (a, b), _mul_vjp, (ad, bd), _t_mul)


def _div_vjp(p, ad, bd):
    sa, sb = ad.shape, bd.shape
    if p[1] < 0:
        ad = None

    def backward(g, p):
        return (
            _unbroadcast(g / bd, sa) if p[0] >= 0 else None,
            _unbroadcast(-g * ad / (bd * bd), sb) if p[1] >= 0 else None,
        )

    return backward


def _t_div(out, ins, tans, aux):
    # d(a / b) = da / b + db * (-(a / b) / b)
    a, b = ins
    w = neg(div(out, b)) if any(db is not None for db in tans[1]) else None
    return [_plus(None if da is None else div(da, b), None if db is None else mul(db, w))
            for da, db in zip(*tans)]


def div(a, b) -> Tensor:
    a, b = tensor(a), tensor(b)
    ad, bd = _same(a.data, b.data)
    return _emit("div", ad / bd, (a, b), _div_vjp, (ad, bd), _t_div)


def _neg_vjp(p):
    return lambda g, p: (-g,)


def _t_neg(out, ins, tans, aux):
    return [None if da is None else neg(da) for da in tans[0]]


def neg(a) -> Tensor:
    a = tensor(a)
    return _emit("neg", -a.data, (a,), _neg_vjp, (), _t_neg)


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for a matrix y: one GEMM for a matrix x, and one over all
    rows of a stack of matrices (B, m, k)."""
    if x.ndim == 2:
        return np.dot(x, y)
    return np.tensordot(x, y, axes=([2], [0]))


def _check_matmul(ad: np.ndarray, bd: np.ndarray) -> None:
    if ad.ndim not in (2, 3) or bd.ndim != 2:
        raise ShapeError(
            f"matmul needs (m, k) or (B, m, k) @ (k, n), got {ad.shape} @ {bd.shape}"
        )
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")


def _mm_grad_b(g: np.ndarray, ad: np.ndarray) -> np.ndarray:
    """Adjoint of the matrix ``b`` in ``a @ b``; for a stack ``a`` the sum
    over the stack is fused into the GEMM."""
    if ad.ndim == 2:
        return np.dot(ad.T, g)
    return np.tensordot(ad, g, axes=([0, 1], [0, 1]))


def _matmul_vjp(p, ad, bd):
    if p[1] < 0:
        ad = None
    if p[0] < 0:
        bd = None

    def backward(g, p):
        return (
            _mm(g, bd.T) if p[0] >= 0 else None,
            _mm_grad_b(g, ad) if p[1] >= 0 else None,
        )

    return backward


def _t_matmul(out, ins, tans, aux):
    a, b = ins
    return [_plus(None if da is None else matmul(da, b), None if db is None else matmul(a, db))
            for da, db in zip(*tans)]


def matmul(a, b) -> Tensor:
    """``a @ b`` for a matrix b and a matrix or stack of matrices a."""
    a, b = tensor(a), tensor(b)
    ad, bd = _same(a.data, b.data)
    _check_matmul(ad, bd)
    return _emit("matmul", _mm(ad, bd), (a, b), _matmul_vjp, (ad, bd), _t_matmul)


# Unary elementwise ops: ``(g * w,)`` or a variant, for the one array w
# that the adjoint reads (the input or the output).

def _times_vjp(p, w):
    return lambda g, p: (g * w,)


def _neg_times_vjp(p, w):
    return lambda g, p: (-g * w,)


def _t_cos(out, ins, tans, sin_out):
    return _t_scaled(out, ins, tans, neg(sin_out))


def sincos(a) -> tuple[Tensor, Tensor]:
    """(sin(a), cos(a)), one transcendental pass each; either node's backward
    and tangent reuse the other's value, so tangents are pushed after both."""
    global _JVP
    a = tensor(a)
    sv, cv = np.sin(a.data), np.cos(a.data)
    tangents, _JVP = _JVP, None
    try:
        s = _emit("sin", sv, (a,), _times_vjp, (cv,))
        c = _emit("cos", cv, (a,), _neg_times_vjp, (sv,))
    finally:
        _JVP = tangents
    if tangents is not None:
        tangents.push("sin", s, (a,), _t_scaled, c)
        tangents.push("cos", c, (a,), _t_cos, s)
    return s, c


def sin(a) -> Tensor:
    return sincos(a)[0]


def cos(a) -> Tensor:
    return sincos(a)[1]


def _tanh_vjp(p, out):
    return lambda g, p: (g * (1.0 - out * out),)


def tanh(a) -> Tensor:
    a = tensor(a)
    out = np.tanh(a.data)
    return _emit("tanh", out, (a,), _tanh_vjp, (out,))


def _relu_vjp(p, ad):
    return lambda g, p: (g * (ad > 0.0),)


def relu(a) -> Tensor:
    a = tensor(a)
    return _emit("relu", np.maximum(a.data, 0.0), (a,), _relu_vjp, (a.data,))


def exp(a) -> Tensor:
    a = tensor(a)
    out = np.exp(a.data)
    return _emit("exp", out, (a,), _times_vjp, (out,))


def _sqrt_vjp(p, out):
    return lambda g, p: (g * (0.5 / out),)


def sqrt(a) -> Tensor:
    a = tensor(a)
    out = np.sqrt(a.data)
    return _emit("sqrt", out, (a,), _sqrt_vjp, (out,))


def _square_vjp(p, ad):
    return lambda g, p: (g * (2.0 * ad),)


def _t_square(out, ins, tans, aux):
    return _t_scaled(out, ins, tans, mul(2.0, ins[0]))


def square(a) -> Tensor:
    a = tensor(a)
    return _emit("square", a.data * a.data, (a,), _square_vjp, (a.data,), _t_square)


def _abs_vjp(p, ad):
    return lambda g, p: (g * np.sign(ad),)


def absval(a) -> Tensor:
    a = tensor(a)
    return _emit("abs", np.abs(a.data), (a,), _abs_vjp, (a.data,))


def _sum_vjp(p, shape, axis, keepdims, n=None):
    """Adjoint of a sum over ``axis`` of an array of ``shape``; of a mean
    when ``n``, the number of summed entries, is given."""

    def backward(g, p):
        if n is not None:
            g = g / n
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return backward


def _t_sum(out, ins, tans, aux):
    axis, keepdims = aux
    return [None if da is None else sum_(da, axis=axis, keepdims=keepdims) for da in tans[0]]


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return _emit("sum", out, (a,), _sum_vjp, (a.data.shape, axis, keepdims), _t_sum,
                 (axis, keepdims))


def _mean_vjp(p, shape, axis, keepdims):
    axes = range(len(shape)) if axis is None else axis if isinstance(axis, tuple) else (axis,)
    return _sum_vjp(p, shape, axis, keepdims, math.prod(shape[ax] for ax in axes))


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    return _emit("mean", out, (a,), _mean_vjp, (a.data.shape, axis, keepdims))


def _concat_vjp(p, ts, axis):
    # each operand's adjoint is a basic slice (a view) of the output's
    lead = (slice(None),) * (axis % ts[0].data.ndim)
    keys, lo = [], 0
    for t in ts:
        hi = lo + t.data.shape[axis]
        keys.append(lead + (slice(lo, hi),))
        lo = hi

    def backward(g, p):
        return tuple(g[key] if i >= 0 else None for key, i in zip(keys, p))

    return backward


def _t_concat(out, ins, tans, axis):
    return [None if all(t is None for t in ts) else
            concat([np.zeros(x.shape, x.data.dtype) if t is None else t
                    for x, t in zip(ins, ts)], axis=axis)
            for ts in zip(*tans)]


def concat(ts: Sequence, axis: int = -1) -> Tensor:
    ts = [tensor(t) for t in ts]
    out = np.concatenate(_same_all([t.data for t in ts]), axis=axis)
    return _emit("concat", out, tuple(ts), _concat_vjp, (ts, axis), _t_concat, axis)


def _stack_vjp(p, n, axis):
    def backward(g, p):
        parts = np.split(g, n, axis=axis)
        return tuple(part.squeeze(axis=axis) if i >= 0 else None for part, i in zip(parts, p))

    return backward


def stack(ts: Sequence, axis: int = 0) -> Tensor:
    ts = [tensor(t) for t in ts]
    out = np.stack(_same_all([t.data for t in ts]), axis=axis)
    return _emit("stack", out, tuple(ts), _stack_vjp, (len(ts), axis))


def _reshape_vjp(p, shape):
    return lambda g, p: (g.reshape(shape),)


def _t_reshape(out, ins, tans, aux):
    return [None if da is None else reshape(da, out.data.shape) for da in tans[0]]


def reshape(a, shape) -> Tensor:
    a = tensor(a)
    out = a.data.reshape(tuple(shape))
    return _emit("reshape", out, (a,), _reshape_vjp, (a.data.shape,), _t_reshape)


def _transpose_vjp(p):
    return lambda g, p: (np.swapaxes(g, -1, -2),)


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = tensor(a)
    return _emit("transpose", np.swapaxes(a.data, -1, -2), (a,), _transpose_vjp)


def _getitem_vjp(p, ad, key):
    # the zero-filled adjoint takes the input's memory layout, which only
    # a non-C-contiguous input needs to be kept for
    shape, dtype = ad.shape, ad.dtype
    like = None if ad.flags.c_contiguous else ad

    def backward(g, p):
        full = np.zeros(shape, dtype) if like is None else np.zeros_like(like)
        full[key] = g
        return (full,)

    return backward


def _t_getitem(out, ins, tans, key):
    return [None if da is None else _nonzero(getitem(da, key)) for da in tans[0]]


def getitem(a, key) -> Tensor:
    """Basic indexing (ints, slices, tuples thereof); no advanced indexing."""
    a = tensor(a)
    return _emit("getitem", a.data[key], (a,), _getitem_vjp, (a.data, key), _t_getitem, key)


# ---------------------------------------------------------------------------
# Fused primitives: one node for a hot composite, with a hand-written adjoint
# ---------------------------------------------------------------------------

# layer activation -> the label of the last op of the chain the node replaces
_LAYER_OPS = {"sine": "sin", "tanh": "tanh", "linear": "matmul"}


def _dense_vjp(p, ad, wd, bd, act, omega0, saved):
    """``saved`` is what the activation's derivative reads: omega0 z for a
    sine layer, the output for a tanh layer, nothing for a linear one.  A
    sine layer whose input is narrower than its output keeps the input
    instead, and backward rebuilds omega0 z with the forward's ops."""
    sb = bd.shape
    if act == "sine" and ad.shape[-1] < wd.shape[-1]:
        saved = None
    else:
        bd = None
        if p[1] < 0:
            ad = None
        if p[0] < 0:
            wd = None

    def backward(g, p):
        if act == "sine":
            if saved is None:
                g = (g * np.cos(omega0 * (_mm(ad, wd) + bd))) * omega0
            else:
                g = (g * np.cos(saved)) * omega0
        elif act == "tanh":
            g = g * (1.0 - saved * saved)
        return (
            _mm(g, wd.T) if p[0] >= 0 else None,
            _mm_grad_b(g, ad) if p[1] >= 0 else None,
            _unbroadcast(g, sb) if p[2] >= 0 else None,
        )

    return backward


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
    a, w, b = tensor(a), tensor(w), tensor(b)
    ad, wd, bd = _same_all([a.data, w.data, b.data])
    _check_matmul(ad, wd)
    z = _mm(ad, wd) + bd
    if act == "sine":
        saved = omega0 * z
        out = np.sin(saved)
    elif act == "tanh":
        out = saved = np.tanh(z)
    else:
        out, saved = z, None
    return _emit(op, out, (a, w, b), _dense_vjp, (ad, wd, bd, act, omega0, saved), name="dense")


def _chain_rows(dd: np.ndarray, scale) -> np.ndarray:
    """``scale * d`` as (B, 1, h) rows, rounded like the mul/reshape pair."""
    if scale is not None:
        dd = scale * dd
    return dd.reshape(dd.shape[0], 1, dd.shape[1])


def _chain_vjp(p, gd, dd, wd, scale):
    # each operand's adjoint reads the other two
    sg, sd = gd.shape, dd.shape
    if p[1] < 0 and p[2] < 0:
        gd = None
    if p[0] < 0 and p[2] < 0:
        dd = None
    if p[0] < 0 and p[1] < 0:
        wd = None

    def backward(a, p):
        # the w adjoint first, so the rebuilt product is freed before the
        # grid-size adjoints are built
        gw = None
        if p[2] >= 0:
            gw = _mm_grad_b(a, gd * _chain_rows(dd, scale)).T
        if p[0] < 0 and p[1] < 0:
            return None, None, gw
        # the adjoint of the product, overwritten by g's once d's has read it
        gp = _mm(a, wd)
        gdd = gg = None
        if p[1] >= 0:
            gdd = _unbroadcast(gp * gd, (sd[0], 1, sd[1])).reshape(sd)
            if scale is not None:
                gdd *= scale
        if p[0] >= 0:
            gg = _unbroadcast(np.multiply(gp, _chain_rows(dd, scale), out=gp), sg)
        return gg, gdd, gw

    return backward


def chain(g, d, w, scale: float | None = None) -> Tensor:
    """One layer of a seeded reverse Jacobian chain,
    ``(g * (scale d)[:, None, :]) @ w^T`` for g of shape (r, h) or
    (B, r, h), d of shape (B, h) and w of shape (n, h), as one node
    labelled ``matmul``.

    The node keeps g, d and w only, never their product or scale d, and
    rounds exactly like the mul/reshape/mul/transpose/matmul chain it
    replaces.
    """
    g, d, w = tensor(g), tensor(d), tensor(w)
    gd, dd, wd = _same_all([g.data, d.data, w.data])
    if (dd.ndim != 2 or gd.ndim not in (2, 3) or gd.shape[-1] != dd.shape[1]
            or (gd.ndim == 3 and gd.shape[0] != dd.shape[0])):
        raise ShapeError(f"chain needs g (r, h) or (B, r, h) and d (B, h), got {gd.shape} "
                         f"and {dd.shape}")
    _check_matmul(gd, wd.T)
    out = _mm(gd * _chain_rows(dd, scale), wd.T)
    return _emit("matmul", out, (g, d, w), _chain_vjp, (gd, dd, wd, scale), name="chain")


def _axpy_vjp(p, xd, c, kd):
    sx, sk = xd.shape, kd.shape

    def backward(g, p):
        return (
            _unbroadcast(g, sx) if p[0] >= 0 else None,
            _unbroadcast(g, sk) * c if p[1] >= 0 else None,
        )

    return backward


def axpy(x, c: float, k) -> Tensor:
    """``x + c * k`` for a constant c as one node labelled ``add`` (an RK4
    stage input), rounded like the mul/add pair it replaces."""
    x, k = tensor(x), tensor(k)
    xd, kd = _same(x.data, k.data)
    return _emit("add", xd + c * kd, (x, k), _axpy_vjp, (xd, c, kd), name="axpy")


def _rk4_vjp(p, c, s, *ins):
    ss = s.shape
    sx, s1, s2, s3, s4 = (t.shape for t in ins)

    def backward(g, p):
        gs = _unbroadcast(g, ss) * c
        return (
            _unbroadcast(g, sx) if p[0] >= 0 else None,
            _unbroadcast(gs, s1) if p[1] >= 0 else None,
            _unbroadcast(gs, s2) * 2.0 if p[2] >= 0 else None,
            _unbroadcast(gs, s3) * 2.0 if p[3] >= 0 else None,
            _unbroadcast(gs, s4) if p[4] >= 0 else None,
        )

    return backward


def rk4_combine(x, h: float, k1, k2, k3, k4) -> Tensor:
    """The RK4 update ``x + h/6 * (k1 + 2 k2 + 2 k3 + k4)`` as one node
    labelled ``add``, summed left to right like the chain it replaces."""
    ins = tuple(tensor(t) for t in (x, k1, k2, k3, k4))
    x, k1, k2, k3, k4 = _same_all([t.data for t in ins])
    c = h / 6.0
    s = k1 + 2.0 * k2 + 2.0 * k3 + k4
    return _emit("add", x + c * s, ins, _rk4_vjp, (c, s, x, k1, k2, k3, k4), name="rk4_combine")


# ---------------------------------------------------------------------------
# Composites used throughout the package
# ---------------------------------------------------------------------------

_NORM_EPS = 1e-18  # keeps the norm differentiable at a zero residual


def l2norm(a, axis: int | tuple[int, ...] = -1) -> Tensor:
    """Euclidean norm over ``axis``, one axis or several (``(-2, -1)`` gives
    the Frobenius norm of each matrix of a stack); epsilon-stabilized at
    zero."""
    return sqrt(sum_(square(a), axis=axis) + _NORM_EPS)


def quadform(x, m) -> Tensor:
    """Row-wise quadratic form x M x^T for batched row vectors x: (B, n) -> (B,)."""
    x = tensor(x)
    return sum_(matmul(x, m) * x, axis=-1)


# ---------------------------------------------------------------------------
# Forward (tangent) mode
# ---------------------------------------------------------------------------


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

    def push(self, name: str, out: Tensor, inputs: tuple[Tensor, ...], rule, aux) -> None:
        if not any(id(t) in self.of for t in inputs):
            return
        if rule is None:
            raise DiffkitError(f"jvp: op '{name}' has no tangent rule")
        global _JVP
        _JVP = None  # the rule's own ops are plain (taped) primal arithmetic
        try:
            self.set(out, rule(out, inputs, [self.get(t) for t in inputs], aux))
        finally:
            _JVP = self


def jvp(fn: Callable, primals: Sequence, directions: Sequence[Sequence]):
    """``fn(*primals)`` and its directional derivatives along each direction.

    ``directions`` holds one sequence per direction with one entry per
    primal: an array of that primal's shape, cast to the primal's dtype, or
    None for zero.  Returns ``(fn(*primals), tangents)`` with one tangent per
    direction, None where the output does not depend on that direction.
    Tangents are built from primitives, so under an active tape they are
    recorded and can be differentiated in reverse.  Only the ops with a
    tangent rule (add, sub, mul, div, neg, matmul, sin, cos, square, sum,
    getitem, reshape, concat) may see a tangent; any other raises
    :class:`DiffkitError`.  Calls do not nest.
    """
    global _JVP
    if _JVP is not None:
        raise DiffkitError("jvp is already running; jvp calls do not nest")
    primals = tuple(tensor(p) for p in primals)
    state = _Tangents(len(directions))
    for i, p in enumerate(primals):
        seeds = []
        for direction in directions:
            dp = direction[i]
            if dp is not None:
                dp = tensor(dp)
                if dp.data.shape != p.data.shape:
                    raise ShapeError(
                        f"jvp direction of shape {dp.data.shape} for a primal of shape "
                        f"{p.data.shape}"
                    )
                if dp.data.dtype is not p.data.dtype:
                    dp = Tensor(dp.data.astype(p.data.dtype))
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
    reverse creation order, and adds the contributions to each adjoint left
    to right in arrival order, so results are deterministic.  Each node is
    dropped from the tape as soon as its backward has run, so the arrays its
    closure kept are freed while the adjoints grow; the tape is empty when
    grad returns or raises.
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
    # mutated; a leaf's stays there to be read out
    pending: list = [None] * (expr.idx + 1)
    pending[expr.idx] = np.ones_like(expr.data)
    try:
        del nodes[expr.idx + 1:]
        for i in range(expr.idx, -1, -1):
            # popping rebinds ``node``, which releases node i + 1's closure
            node = nodes.pop()
            a = pending[i]
            if a is None:
                continue
            if not math.isfinite(a.sum()) and not np.all(np.isfinite(a)):
                raise NumericError(f"non-finite adjoint at node {i} (op '{node.op}')")
            if node.backward is None:
                continue
            pending[i] = None
            parents = node.parents
            for p, g in zip(parents, node.backward(a, parents)):
                if g is not None:
                    acc = pending[p]
                    pending[p] = g if acc is None else acc + g
    finally:
        nodes.clear()

    for leaf in wrt:
        g = pending[leaf.idx] if leaf.tape is tape and leaf.idx <= expr.idx else None
        out[leaf] = Tensor(np.zeros_like(leaf.data) if g is None else g.copy())
    return out
