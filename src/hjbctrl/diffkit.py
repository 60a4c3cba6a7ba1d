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
:func:`sincos`, the one trig primitive.  :func:`matmul` takes a matrix
(m, k) or a stack of matrices (B, m, k) on the left and a matrix (k, n)
on the right, and each layer's product inside :func:`mlp` a matrix on
both sides; any other layout raises :class:`ShapeError`.  :func:`grad`
adds the contributions to each adjoint left to right in the order they
arrive, whatever their size.
It checks each adjoint once for non-finite entries, where it is consumed:
an adjoint that a backward hands on unchanged, or as a view, was checked
at its consumer already.  :class:`NumericError` names the first node whose
adjoint is not finite, by tally label and, for a fused node, primitive.

Retention rule: a node keeps an array only while an adjoint reads it.
When a node is recorded, it decides from which of its inputs are tracked
what its backward will read, and keeps only that; of everything else it
keeps shapes.  A product keeps a factor only if the other factor is
tracked, so a product with a constant keeps only the constant.  An
:func:`mlp` node keeps, for the layers whose adjoints are collected, a
layer's input only when that weight is tracked, omega0 z of each sine
layer (or, for a sine layer whose input is narrower than its output, that
input, its weights and bias, to rebuild omega0 z in backward with the
forward's ops), each tanh output, each relu mask and the output box's
tanh; a one-layer node with frozen weights keeps neither its input nor
its output.  An :func:`rk4_mlp` node keeps, per stage, what that
stage's network node would keep, so of its layer inputs only the narrow
first sine layer's (in place of its omega0 z) and those of tracked
weights.  Sums, means, reshapes, slices, concats and :func:`lincomb`
nodes keep shapes only.  An untaped call records nothing and builds no
closure, and an untaped :func:`mlp` or :func:`rk4_mlp` keeps no array of
a layer once the next one is computed.  :func:`grad` drops each node as
soon as its backward has run, so the step's arrays are freed while the
adjoints grow.
Because a step frees and reallocates the same arrays, importing the
module also sets malloc to keep freed memory in the process
(:func:`_keep_freed_memory`).

Four fused primitives record a hot composite as one node with an adjoint
composed of the chain's own adjoint arithmetic, treated as one elemental
(Griewank & Walther, *Evaluating Derivatives*): :func:`mlp`, a whole
network evaluation, or with one layer a single affine layer
``a @ w + b``; :func:`chain`, one layer ``(g * d) @ w^T`` of a network's
seeded reverse Jacobian chain, which keeps g, d and w but never their
product; :func:`lincomb`, ``x + c (w1 k1 + w2 k2 + ...)`` for constants
c and w, an RK4 stage input or update; and :func:`rk4_mlp`, a whole RK4
step under a network transition: the four stage inputs ``[x + c k, u]``,
the four network evaluations and the update.  Each rounds exactly like
the chain of primitives it replaces, so values and adjoints are bitwise
those of the chain, except that :func:`rk4_mlp` sums a state's adjoint
contributions from within its step before those from outside it.  Their
nodes carry the label of an existing op (``matmul`` for a network, an
RK4 step under one and a chain layer, ``add`` for :func:`lincomb`), so a
tally of the tape over the fixed list of op names, such as the
benchmark's traced op table, still accounts for every node; a fused
node's backward time lands in its label's row.  They have no tangent
rule, and refuse a tangent under their own name.

:func:`rk4` and :func:`rk4_mlp` read one RK4 tableau, the classical one
(Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.1): stage i > 1
evaluates f at ``x + (a_i h) k_(i-1)`` for the offsets a = 1/2, 1/2, 1
(``0.5 * h`` is ``h / 2`` bitwise), and the weights are 1, 2, 2, 1 over 6.
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
    """One recorded operation: its tally label ``op``, the ``name`` of the
    primitive that recorded it (``op`` itself but for a fused primitive),
    parent indices and a vjp closure.

    ``parents[i]`` is -1 for an input that is not on the tape.  The closure
    is called as ``backward(g, parents)`` and returns one adjoint per input,
    None for each untracked one: it never computes what nobody collects,
    and it holds only the arrays that the other adjoints read.  Each adjoint
    is a new array or a view of ``g``.
    """

    __slots__ = ("op", "parents", "backward", "name")

    def __init__(self, op: str, parents: tuple[int, ...], backward, name: str | None = None):
        self.op = op
        self.parents = parents
        self.backward = backward
        self.name = name or op


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

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"expected a scalar, got shape {self.data.shape}")
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
    """:func:`_same` for any number of operand arrays; as given if they share a dtype."""
    dt = arrays[0].dtype
    for a in arrays:
        if a.dtype is not dt:
            dt = min((a.dtype for a in arrays), key=lambda d: d.itemsize)
            return [a if a.dtype is dt else a.astype(dt) for a in arrays]
    return arrays


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
            nodes.append(_Node(op, parents, vjp(parents, *args), name))
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


def _act_adjoint(g: np.ndarray, act: str, saved, omega0: float = 1.0) -> np.ndarray:
    """The adjoint of a layer's pre-activation z from that of its output,
    rounded like the activation's own node: ``saved`` is omega0 z for
    "sine" (sin(omega0 z)), the output for "tanh" and the mask z > 0 for
    "relu"; a "linear" layer passes g on."""
    if act == "sine":
        return (g * np.cos(saved)) * omega0
    if act == "tanh":
        return g * (1.0 - saved * saved)
    if act == "relu":
        return g * saved
    return g


def _affine_adjoints(g: np.ndarray, p, ad, wd, sb) -> tuple:
    """The adjoints of a, w and b in ``a @ w + b`` (b of shape ``sb``) from
    the adjoint g of the sum, for the entries of the mask ``p`` that are
    >= 0, and None for the others."""
    return (
        _mm(g, wd.T) if p[0] >= 0 else None,
        _mm_grad_b(g, ad) if p[1] >= 0 else None,
        _unbroadcast(g, sb) if p[2] >= 0 else None,
    )


def _mlp_steps(layers, p, in_tracked: bool) -> list:
    """What the backward of a network evaluation keeps of ``layers``, the
    (a, w, b, act, saved) per layer that :func:`_mlp_layers` recorded, given
    the mask ``p`` of its weights and biases (entries 2i and 2i + 1) and
    whether its input's adjoint is collected.

    A layer is live if its input, weight or bias adjoint is collected;
    the live layers are the top ones.  A live layer keeps its input only
    for a tracked weight, its weight only for a collected input adjoint,
    and ``saved``, except that a sine layer whose input is narrower than
    its output keeps the input, weight and bias instead of omega0 z and
    rebuilds omega0 z with the forward's ops.  Returns, per live layer,
    (mask, act, a, w, b, b's shape, saved), and None below them.
    """
    steps = [None] * len(layers)
    need_in = in_tracked
    for i, (ad, wd, bd, act, saved) in enumerate(layers):
        mask = (0 if need_in else -1, p[2 * i], p[2 * i + 1])
        if max(mask) < 0:
            continue
        narrow = act == "sine" and ad.shape[-1] < wd.shape[-1]
        steps[i] = (mask, act, ad if mask[1] >= 0 or narrow else None,
                    wd if need_in or narrow else None, bd if narrow else None, bd.shape,
                    None if narrow else saved)
        need_in = True
    return steps


def _mlp_adjoints(g: np.ndarray, steps: list, omega0: float, adjoints: list):
    """Run a network's adjoint from that of its output g down its live
    ``steps`` (see :func:`_mlp_steps`), adding each weight's and bias's
    adjoint onto its entry of ``adjoints`` (entries 2i and 2i + 1), and
    return the adjoint of the input of the lowest live layer."""
    for i in range(len(steps) - 1, -1, -1):
        if steps[i] is None:
            break
        mask, act, ad, wd, bd, sb, saved = steps[i]
        if saved is None and act == "sine":
            saved = omega0 * (_mm(ad, wd) + bd)
        g, gw, gb = _affine_adjoints(_act_adjoint(g, act, saved, omega0), mask, ad, wd, sb)
        j = 2 * i
        if gw is not None:
            adjoints[j] = gw if adjoints[j] is None else adjoints[j] + gw
        if gb is not None:
            adjoints[j + 1] = gb if adjoints[j + 1] is None else adjoints[j + 1] + gb
    return g


def _mlp_vjp(p, layers, omega0, box):
    """``layers`` holds (a, w, b, act, saved) per layer as the forward
    computed them, ``box`` (hi - lo, tanh(y)) or None."""
    x_tracked = p[-1] >= 0
    steps = _mlp_steps(layers, p, x_tracked)

    def backward(g, p):
        if box is not None:
            hl, t = box
            g = ((g * 0.5) * hl) * (1.0 - t * t)
        adjoints = [None] * len(steps) * 2
        g = _mlp_adjoints(g, steps, omega0, adjoints)
        return (*adjoints, g if x_tracked else None)

    return backward


# the hidden-layer activations of a network
ACTIVATIONS = ("sine", "tanh", "relu")


def _records(inputs) -> bool:
    """Whether an op on ``inputs`` is recorded: a tape is active and one of
    them is on it."""
    tape = _ACTIVE_TAPE
    return tape is not None and any(t.tape is tape for t in inputs)


def _mlp_layers(a: np.ndarray, pd: list, act: str, omega0: float, kept: list | None):
    """The layer loop of a network evaluation on the input a, for the
    weights and biases ``pd`` (w0, b0, w1, ...): hidden layers apply
    ``act``, the last one is linear.  It appends (a, w, b, act, saved) per
    layer to ``kept`` (see :func:`_act_adjoint` for saved), or, for
    ``kept`` None, computes in place and keeps nothing of a layer once the
    next one is computed."""
    last = len(pd) // 2 - 1
    for i in range(last + 1):
        ad, wd, bd = a, pd[2 * i], pd[2 * i + 1]
        _check_matmul(ad, wd)
        a = _mm(ad, wd)
        a += bd
        layer_act = act if i < last else "linear"
        saved = None
        if layer_act == "sine":
            a *= omega0
            saved = a
            # untaped, omega0 z is not kept, and sin overwrites it
            a = np.sin(a) if kept is not None else np.sin(a, out=a)
        elif layer_act == "tanh":
            a = saved = np.tanh(a, out=a)
        elif layer_act == "relu":
            if kept is not None:
                saved = a > 0.0
            a = np.maximum(a, 0.0, out=a)
        if kept is not None:
            kept.append((ad, wd, bd, layer_act, saved))
    return a


def mlp(x, layers: Sequence, act: str, omega0: float = 1.0,
        box: tuple | None = None) -> Tensor:
    """One evaluation of a multilayer perceptron on a (B, n) input x as one
    node labelled ``matmul``.

    ``layers`` holds (w, b) per layer.  Hidden layers apply ``act``:
    "sine" (sin(omega0 z)), "tanh" or "relu"; the last layer is linear.
    x is read by the first layer only; a one-layer network is the affine
    map x @ w + b.  ``box`` = (lo, hi) squashes the output y into the box
    as ``lo + (hi - lo) * (tanh(y) + 1) * 0.5``.  The node computes in the
    narrowest dtype among x and the weights.  When the weights share one
    dtype, value and adjoints round exactly like the
    matmul/add/tanh/relu/sincos/box chain the node replaces.  An untaped
    call keeps nothing per layer.
    """
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown layer activation '{act}'")
    x = tensor(x)
    params = [tensor(t) for layer in layers for t in layer]
    xd, *pd = _same_all([x.data] + [t.data for t in params])
    if xd.ndim != 2:
        raise ShapeError(f"mlp needs a (B, n) input, got shape {xd.shape}")
    kept = [] if _records([x, *params]) else None
    a = _mlp_layers(xd, pd, act, omega0, kept)
    boxed = None
    if box is not None:
        lo, hi = box
        t = np.tanh(a)
        hl, tp1 = _same(hi - lo, t + 1.0)
        lo, m = _same(lo, hl * tp1 * 0.5)
        a = lo + m
        boxed = (hl, t)
    return _emit("matmul", a, (*params, x), _mlp_vjp, (kept, omega0, boxed), name="mlp")


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


# the RK4 tableau of the module docstring: stage offsets, weights, their sum
_RK4_OFFSETS, _RK4_WEIGHTS, _RK4_OVER = (0.5, 0.5, 1.0), (1.0, 2.0, 2.0, 1.0), 6.0


def _rk4_scheme(f: Callable, x, u, h: float, comb: Callable):
    """One RK4 step of x' = f(x, u) off the tableau; ``comb(x, c, ks, w)``
    forms each stage input and the update, as :func:`lincomb` does."""
    ks = [f(x, u)]
    for a in _RK4_OFFSETS:
        ks.append(f(comb(x, a * h, ks[-1:], (1.0,)), u))
    return comb(x, h / _RK4_OVER, ks, _RK4_WEIGHTS)


def _wsum(kd: list, w: Sequence[float]) -> np.ndarray:
    """``w1 k1 + w2 k2 + ...`` summed left to right; a unit weight multiplies nothing."""
    s = None
    for wi, k in zip(w, kd):
        k = k if wi == 1.0 else wi * k
        s = k if s is None else s + k
    return s


def _lincomb_vjp(p, c, w, xd, s, kd):
    sx, ss, sk = xd.shape, s.shape, [k.shape for k in kd]

    def backward(g, p):
        gs = _unbroadcast(g, ss) * c if max(p[1:]) >= 0 else None
        out = [_unbroadcast(g, sx) if p[0] >= 0 else None]
        for q, wi, shape in zip(p[1:], w, sk):
            gk = None if q < 0 else _unbroadcast(gs, shape)
            out.append(gk if gk is None or wi == 1.0 else gk * wi)
        return out

    return backward


def lincomb(x, c: float, ks: Sequence, w: Sequence[float]) -> Tensor:
    """``x + c (w1 k1 + w2 k2 + ...)`` for constants c and w (an RK4 stage input
    or update) as one node labelled ``add``, rounded like the chain it replaces."""
    ins = (tensor(x), *map(tensor, ks))
    xd, *kd = _same_all([t.data for t in ins])
    s = _wsum(kd, w)
    return _emit("add", xd + c * s, ins, _lincomb_vjp, (c, w, xd, s, kd), name="lincomb")


def rk4(f: Callable, x, u, h: float) -> Tensor:
    """One classical RK4 step of x' = f(x, u) with the control u held, for
    any f on tensors: a :func:`lincomb` node per stage input and update."""
    return _rk4_scheme(f, tensor(x), u, h, lincomb)


def _rk4_mlp_vjp(p, stages, omega0, h, d):
    """``stages`` holds the four stages' layers as :func:`_mlp_layers`
    recorded them; the state has d columns of a stage's input."""
    x_tracked, u_tracked = p[-2] >= 0, p[-1] >= 0
    # a later stage's input adjoint always reaches the stage before it
    steps = [_mlp_steps(layers, p, s > 0 or x_tracked or u_tracked)
             for s, layers in enumerate(stages)]
    n = len(steps[0])

    def backward(g, p):
        # the update's adjoints, then each stage's network and stage input
        # from the last stage down, summed in the chain's order
        gs = g * (h / _RK4_OVER)
        gk = [gs if w == 1.0 else gs * w for w in _RK4_WEIGHTS]
        adjoints = [None] * (2 * n)
        gx, gu = g, None
        for s in range(len(gk) - 1, -1, -1):
            gz = _mlp_adjoints(gk[s], steps[s], omega0, adjoints)
            if s == 0 and not (x_tracked or u_tracked):
                break
            gzx = gz[:, :d]
            if s > 0:
                gk[s - 1] = gk[s - 1] + gzx * (_RK4_OFFSETS[s - 1] * h)
            if x_tracked:
                gx = gx + gzx
            if u_tracked:
                gu = gz[:, d:] if gu is None else gu + gz[:, d:]
        return (*adjoints, gx if x_tracked else None, gu)

    return backward


def rk4_mlp(x, u, h: float, layers: Sequence, act: str, omega0: float = 1.0) -> Tensor:
    """One classical RK4 step of x' = f(x, u) with the control u held, for
    f a multilayer perceptron on the stacked input [x, u] (an unboxed
    :func:`mlp`), as one node labelled ``matmul``.

    x is (B, d), u (B, m), and the network maps d + m columns to d.  The
    node covers the four stage inputs [x + c k, u], the four network
    evaluations and the update, and computes in the narrowest dtype among
    x, u and the weights.  Its value is bitwise that of the
    concat/mlp/lincomb chain it replaces; its adjoints are the chain's,
    summed in the chain's order within the step.
    """
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown layer activation '{act}'")
    x, u = tensor(x), tensor(u)
    params = [tensor(t) for layer in layers for t in layer]
    xd, ud, *pd = _same_all([x.data, u.data] + [t.data for t in params])
    if xd.ndim != 2 or ud.ndim != 2 or xd.shape[0] != ud.shape[0]:
        raise ShapeError(f"rk4_mlp needs x (B, d) and u (B, m), got {xd.shape} and {ud.shape}")
    taped = _records([x, u, *params])
    stages = []

    def stage(xs, ud):
        kept = [] if taped else None
        k = _mlp_layers(np.concatenate([xs, ud], axis=1), pd, act, omega0, kept)
        if k.shape != xd.shape:
            raise ShapeError(f"rk4_mlp: the network maps x {xd.shape} to {k.shape}")
        stages.append(kept)
        return k

    out = _rk4_scheme(stage, xd, ud, h, lambda x, c, ks, w: x + c * _wsum(ks, w))
    return _emit("matmul", out, (*params, x, u), _rk4_mlp_vjp,
                 (stages, omega0, h, xd.shape[1]), name="rk4_mlp")


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
    # checked[i]: pending[i] is the adjoint checked at a consumer, or a view of it
    checked = [False] * (expr.idx + 1)
    try:
        del nodes[expr.idx + 1:]
        for i in range(expr.idx, -1, -1):
            # popping rebinds ``node``, which releases node i + 1's closure
            node = nodes.pop()
            a = pending[i]
            if a is None:
                continue
            # a sum of squares is finite for finite data unless it overflows,
            # which the exact test then clears
            if not (checked[i] or math.isfinite(np.vdot(a, a)) or np.all(np.isfinite(a))):
                where = f"op '{node.op}'"
                if node.name != node.op:
                    where += f" of primitive '{node.name}'"
                raise NumericError(f"non-finite adjoint at node {i} ({where})")
            if node.backward is None:
                continue
            pending[i] = None
            owner = a if a.base is None else a.base
            parents = node.parents
            for p, g in zip(parents, node.backward(a, parents)):
                if g is not None:
                    acc = pending[p]
                    if acc is None:
                        pending[p] = g
                        checked[p] = g is a or g.base is owner
                    else:
                        pending[p] = acc + g
                        checked[p] = False
    finally:
        nodes.clear()

    for leaf in wrt:
        g = pending[leaf.idx] if leaf.tape is tape and leaf.idx <= expr.idx else None
        out[leaf] = Tensor(np.zeros_like(leaf.data) if g is None else g.copy())
    return out
