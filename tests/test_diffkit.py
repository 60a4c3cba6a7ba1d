import gc
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbctrl import diffkit as dk
from hjbctrl import dynzoo as dz
from hjbctrl import hjbtrain as hj
from hjbctrl import netzoo as nz
from hjbctrl import rollout as ro

from conftest import fd_grad, rel_err


def taped_scalar(fn, x0):
    """Evaluate fn on a leaf, return (scalar Tensor, leaf, tape)."""
    tape = dk.Tape()
    with tape:
        leaf = tape.leaf(x0)
        out = fn(leaf)
    return out, leaf, tape


def test_grad_sin_at_zero():
    out, leaf, _ = taped_scalar(lambda x: dk.sum_(dk.sin(x)), np.array([0.0]))
    g = dk.grad(out, [leaf])[leaf]
    assert g.data[0] == 1.0


def test_grad_quadratic():
    x0 = np.array([1.0, 2.0, 3.0])
    out, leaf, _ = taped_scalar(lambda x: dk.sum_(dk.square(x)), x0)
    assert np.array_equal(dk.grad(out, [leaf])[leaf].data, 2 * x0)


def test_grad_of_constant_is_exactly_zero():
    tape = dk.Tape()
    with tape:
        leaf = tape.leaf(np.array([1.0, 2.0]))
        const = dk.tensor(np.array(5.0))
    g = dk.grad(const, [leaf])[leaf]
    assert np.array_equal(g.data, np.zeros(2))


def test_grad_unused_leaf_is_zero():
    tape = dk.Tape()
    with tape:
        a = tape.leaf(np.array([1.0]))
        b = tape.leaf(np.array([2.0]))
        out = dk.sum_(dk.square(a))
    g = dk.grad(out, [a, b])
    assert g[a].data[0] == 2.0
    assert g[b].data[0] == 0.0


def test_grad_requires_scalar():
    out, leaf, _ = taped_scalar(lambda x: dk.square(x), np.array([1.0, 2.0]))
    with pytest.raises(dk.ShapeError):
        dk.grad(out, [leaf])


def test_nan_in_backward_names_the_node():
    # d(sqrt)/dx at 0 is infinite, so the adjoint arriving at the leaf blows up
    out, leaf, _ = taped_scalar(lambda x: dk.sum_(dk.sqrt(x)), np.array([0.0]))
    with pytest.raises(dk.NumericError, match="node"), np.errstate(divide="ignore"):
        dk.grad(out, [leaf])


def test_finite_adjoint_whose_sum_overflows_passes_the_check():
    big = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):
        out, leaf, _ = taped_scalar(lambda x: dk.sum_(x * big), np.ones(2))
        assert np.array_equal(dk.grad(out, [leaf])[leaf].data, big)


def test_tensor_creation_rejects_nonfinite():
    # a taped leaf is checked; the plain lift is not
    tape = dk.Tape()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(dk.NumericError, match="leaf"):
            tape.leaf(np.array([1.0, bad]))
    assert len(tape) == 0
    # a constant is only lifted
    assert np.isinf(dk.tensor(np.array([np.inf])).data[0])


def test_matmul_shape_errors():
    # inner dims differ; a 1-D left operand; a 3-D right operand, also under
    # a 3-D left one; a 1-D right operand
    for sa, sb in [((2, 3), (4, 2)), ((3,), (3, 2)), ((2, 3), (7, 3, 2)),
                   ((7, 2, 3), (7, 3, 2)), ((2, 3), (3,))]:
        with pytest.raises(dk.ShapeError):
            dk.matmul(np.zeros(sa), np.zeros(sb))
        with pytest.raises(dk.ShapeError):
            dk.mlp(np.zeros(sa), [(np.zeros(sb), np.zeros(sb[-1:]))], "tanh")


def test_grad_frees_the_step_without_the_cyclic_collector():
    gc.disable()
    try:
        tape = dk.Tape()
        with tape:
            x = tape.leaf(np.ones(3))
            y = dk.sin(x)
            out = dk.sum_(y * y)
        freed = weakref.ref(y.data)
        dk.grad(out, [x])
        del tape, x, y, out
        assert freed() is None
    finally:
        gc.enable()


def test_backward_is_deterministic():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(3, 3))

    def run():
        tape = dk.Tape()
        with tape:
            x = tape.leaf(x0)
            w = tape.leaf(w0)
            y = dk.matmul(dk.tanh(x), w)
            out = dk.mean_(dk.square(y)) + dk.sum_(dk.absval(x)) * 0.1
        g = dk.grad(out, [x, w])
        return g[x].data, g[w].data

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_topological_parent_order():
    tape = dk.Tape()
    with tape:
        x = tape.leaf(np.ones(3))
        y = dk.sin(x) + dk.cos(x)
        _ = dk.sum_(y * x)
    for i, node in enumerate(tape.nodes):
        assert all(p < i for p in node.parents if p >= 0)


UNARY_OPS = {
    "sin": (dk.sin, (-2.0, 2.0)),
    "cos": (dk.cos, (-2.0, 2.0)),
    "tanh": (dk.tanh, (-2.0, 2.0)),
    "square": (dk.square, (-2.0, 2.0)),
    "abs": (dk.absval, (0.2, 2.0)),  # stay away from the kink
    "exp": (dk.exp, (-2.0, 2.0)),
    "sqrt": (dk.sqrt, (0.2, 2.0)),
    "relu": (dk.relu, (0.2, 2.0)),  # one-sided: stay on the smooth branch
    "neg": (dk.neg, (-2.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_unary_op_gradients_match_fd(name, data):
    op, (lo, hi) = UNARY_OPS[name]
    vals = data.draw(
        st.lists(st.floats(lo, hi), min_size=1, max_size=6).map(np.array)
    )
    out, leaf, _ = taped_scalar(lambda x: dk.sum_(op(x)), vals)
    g = dk.grad(out, [leaf])[leaf].data
    ref = fd_grad(lambda v: float(op(dk.tensor(v)).data.sum()), vals)
    assert rel_err(g, ref, floor=1e-6) < 1e-4


@pytest.mark.parametrize("op", [dk.add, dk.sub, dk.mul, dk.div])
def test_binary_op_gradients_with_broadcasting(op, rng):
    a0 = rng.uniform(0.5, 2.0, size=(4, 3))
    b0 = rng.uniform(0.5, 2.0, size=(3,))
    tape = dk.Tape()
    with tape:
        a = tape.leaf(a0)
        b = tape.leaf(b0)
        out = dk.sum_(dk.square(op(a, b)))
    g = dk.grad(out, [a, b])
    ga_ref = fd_grad(lambda v: float((op(dk.tensor(v), dk.tensor(b0)).data ** 2).sum()), a0)
    gb_ref = fd_grad(lambda v: float((op(dk.tensor(a0), dk.tensor(v)).data ** 2).sum()), b0)
    assert rel_err(g[a].data, ga_ref) < 1e-4
    assert rel_err(g[b].data, gb_ref) < 1e-4


# a matrix or a stack of matrices on the left, a matrix on the right; the ids
# are the ones these two layouts had in the wider table of earlier layouts
@pytest.mark.parametrize("sa,sb", [((4, 5), (5, 3)), ((7, 4, 5), (5, 3))],
                         ids=["sa0-sb0", "sa2-sb2"])
def test_matmul_forward_and_backward_all_paths(sa, sb, rng):
    a0, b0 = rng.normal(size=sa), rng.normal(size=sb)
    proj = rng.normal(size=np.matmul(a0, b0).shape)
    assert np.allclose(dk.matmul(a0, b0).data, np.matmul(a0, b0), atol=1e-12)
    tape = dk.Tape()
    with tape:
        a = tape.leaf(a0)
        b = tape.leaf(b0)
        out = dk.sum_(dk.matmul(a, b) * proj)
    g = dk.grad(out, [a, b])
    ga_ref = fd_grad(lambda v: float((np.matmul(v, b0) * proj).sum()), a0, h=1e-6)
    gb_ref = fd_grad(lambda v: float((np.matmul(a0, v) * proj).sum()), b0, h=1e-6)
    assert rel_err(g[a].data, ga_ref) < 1e-6
    assert rel_err(g[b].data, gb_ref) < 1e-6


def test_reductions_and_reshapes(rng):
    x0 = rng.normal(size=(3, 4))

    cases = [
        lambda x: dk.sum_(x),
        lambda x: dk.mean_(x) * 12.0,
        lambda x: dk.sum_(dk.mean_(x, axis=0)),
        lambda x: dk.sum_(dk.sum_(x, axis=1, keepdims=True)),
        lambda x: dk.sum_(dk.reshape(x, (2, 6))[:, :3]),
        lambda x: dk.sum_(dk.transpose(x)[1:, :]),
        lambda x: dk.sum_(dk.concat([x, x], axis=1) * 0.5),
        lambda x: dk.sum_(dk.stack([x, 2.0 * x], axis=0)),
    ]
    for fn in cases:
        out, leaf, _ = taped_scalar(fn, x0)
        g = dk.grad(out, [leaf])[leaf].data
        ref = fd_grad(lambda v: fn(dk.tensor(v)).item(), x0)
        assert rel_err(g, ref) < 1e-4


def test_sincos_matches_separate_ops(rng):
    x0 = rng.normal(size=(5,))
    tape = dk.Tape()
    with tape:
        x = tape.leaf(x0)
        s, c = dk.sincos(x)
        out = dk.sum_(s * 2.0) + dk.sum_(c * 3.0)
    g = dk.grad(out, [x])[x].data
    assert np.allclose(s.data, np.sin(x0)) and np.allclose(c.data, np.cos(x0))
    assert np.allclose(g, 2.0 * np.cos(x0) - 3.0 * np.sin(x0))


def test_norm_helpers(rng):
    x0 = rng.normal(size=(4, 3))
    assert np.allclose(dk.l2norm(x0).data, np.linalg.norm(x0, axis=-1))
    m0 = rng.normal(size=(4, 2, 3))
    assert np.allclose(dk.l2norm(m0, axis=(-2, -1)).data,
                       np.linalg.norm(m0.reshape(4, -1), axis=1))
    p = np.array([[2.0, 0.5], [0.5, 1.0]])
    want = np.einsum("bi,ij,bj->b", x0[:, :2], p, x0[:, :2])
    assert np.allclose(dk.quadform(x0[:, :2], p).data, want)


def test_tapes_do_not_nest():
    with dk.Tape():
        with pytest.raises(dk.DiffkitError):
            with dk.Tape():
                pass


def test_ops_without_tape_are_constants():
    y = dk.sin(dk.tensor(np.array([1.0]))) + 2.0
    assert y.tape is None and y.idx == -1


# -- forward (tangent) mode ------------------------------------------------------


def fd_directional(fn, primals, direction, h=1e-6):
    """Central difference of fn along one direction (None entries are zero)."""
    def at(sign):
        args = [p if d is None else p + sign * h * d for p, d in zip(primals, direction)]
        return fn(*[dk.tensor(a) for a in args]).data
    return (at(1.0) - at(-1.0)) / (2 * h)


def check_jvp(fn, primals, directions, tol=1e-6):
    out, tangents = dk.jvp(fn, primals, directions)
    assert np.array_equal(out.data, fn(*[dk.tensor(p) for p in primals]).data)
    assert len(tangents) == len(directions)
    for direction, t in zip(directions, tangents):
        want = fd_directional(fn, primals, direction)
        got = np.zeros_like(out.data) if t is None else t.data
        assert got.shape == out.data.shape
        assert rel_err(got, want, floor=1e-6) < tol
    return tangents


TANGENT_CASES = {
    "add": lambda a, b: dk.add(a, b),
    "sub": lambda a, b: dk.sub(a, b),
    "mul": lambda a, b: dk.mul(a, b),
    "div": lambda a, b: dk.div(a, b),
    "neg": lambda a, b: dk.neg(a) * b,
    "sin": lambda a, b: dk.sin(a) * b,
    "cos": lambda a, b: dk.cos(a) * b,
    "sincos": lambda a, b: dk.sincos(a)[0] * dk.sincos(b)[1],
    "square": lambda a, b: dk.square(a) + dk.square(b),
    "getitem": lambda a, b: a[1:3, ::2] * b[::2],
    "reshape": lambda a, b: dk.reshape(a, (2, 6)) * dk.reshape(dk.concat([b, b]), (1, 6)),
    "concat": lambda a, b: dk.concat([a, dk.reshape(b, (1, 3)), a], axis=0),
    # a matrix and a stack of matrices on the left
    "matmul": lambda a, b: dk.matmul(a, dk.reshape(b, (3, 1)) * b)
    + dk.reshape(dk.matmul(dk.reshape(a, (2, 2, 3)), dk.reshape(b * b, (3, 1))), (4, 1)),
    "sum": lambda a, b: dk.sum_(a * b, axis=0) + dk.sum_(a, axis=1, keepdims=True) + dk.sum_(b),
}


@pytest.mark.parametrize("name", sorted(TANGENT_CASES))
def test_tangent_rules_match_central_differences(name, rng):
    fn = TANGENT_CASES[name]
    a0 = rng.uniform(0.5, 2.0, size=(4, 3))
    b0 = rng.uniform(0.5, 2.0, size=(3,))
    da, db = rng.normal(size=a0.shape), rng.normal(size=b0.shape)
    check_jvp(fn, (a0, b0), [(da, None), (None, db), (da, db)])


@pytest.mark.parametrize("op", [dk.add, dk.sub, dk.mul, dk.div])
def test_tangents_broadcast_scalar_against_tensor(op, rng):
    s0 = np.array(1.7)
    t0 = rng.uniform(0.5, 2.0, size=(4, 3))
    # only the scalar moves: the tangent still has the output's shape
    check_jvp(op, (s0, t0), [(np.array(1.0), None), (None, rng.normal(size=t0.shape))])
    check_jvp(op, (t0, s0), [(None, np.array(1.0)), (rng.normal(size=t0.shape), None)])


def test_tangents_of_zero_blocks_are_pruned_and_zero_filled(rng):
    x0 = rng.normal(size=(5, 4))
    e1 = np.zeros_like(x0)
    e1[:, 1] = 1.0
    # the direction is zero in column 3, so that slice carries no tangent
    _, (t,) = dk.jvp(lambda x: x[:, 3:4], (x0,), [(e1,)])
    assert t is None
    # concat fills the parts without a tangent with zeros
    fn = lambda x: dk.concat([dk.sin(x[:, 3:4]), 2.0 * x[:, 1:2], x[:, 3:4]], axis=1)
    (t,) = check_jvp(fn, (x0,), [(e1,)])
    assert np.array_equal(t.data, np.concatenate([np.zeros((5, 1)), 2.0 * np.ones((5, 1)),
                                                  np.zeros((5, 1))], axis=1))
    # an all-zero direction is no direction at all
    _, tangents = dk.jvp(lambda x: dk.sin(x), (x0,), [(np.zeros_like(x0),), (None,)])
    assert tangents == [None, None]


def test_jvp_op_without_rule_raises_naming_it(rng):
    x0 = rng.normal(size=(3, 2))
    with pytest.raises(dk.DiffkitError, match="tanh"):
        dk.jvp(lambda x: dk.tanh(x), (x0,), [(np.ones_like(x0),)])
    # an op without a rule is fine where no tangent reaches it
    out, (t,) = dk.jvp(lambda x: x * dk.tanh(dk.tensor(x0)), (x0,), [(np.ones_like(x0),)])
    assert np.allclose(t.data, np.tanh(x0))


def test_jvp_does_not_nest(rng):
    x0 = rng.normal(size=(3,))
    inner = lambda x: dk.jvp(dk.sin, (x,), [(np.ones(3),)])[0]
    with pytest.raises(dk.DiffkitError, match="nest"):
        dk.jvp(inner, (x0,), [(np.ones(3),)])
    # the failed call leaves forward mode off, so a new call works
    _, (t,) = dk.jvp(dk.sin, (x0,), [(np.ones(3),)])
    assert np.allclose(t.data, np.cos(x0))


def test_jvp_rejects_direction_of_wrong_shape():
    with pytest.raises(dk.ShapeError):
        dk.jvp(dk.sin, (np.zeros(3),), [(np.zeros(4),)])


def test_gradient_through_tangents_matches_fd():
    # loss_hamil needs df/du from tangents of the analytic cartpole f, whose
    # u-tangent passes the div rule; its parameter gradient runs through them
    spec = dz.make_system("cartpole")
    tr = ro.AnalyticTransition(spec)
    ctrl_net = nz.controller_net(4, spec.action_box.lo, spec.action_box.hi, hidden=(6,), seed=3)
    value = hj.MlpValue(nz.value_net(4, hidden=(6,), seed=4), spec.tf)
    x0 = np.array([[0.1, 0.0, 3.0, 0.2], [-0.2, 0.1, 2.9, -0.1]])

    def loss(params):
        ctrl = ctrl_net.with_params(params)
        traj = ro.rollout(spec, tr, ctrl, x0, K=3)
        return hj.loss_hamil(hj.grid_hamiltonian(value, ctrl, traj, tr, spec))

    p0 = ctrl_net.params()
    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(p) for p in p0]
        out = loss(leaves)
    grads = dk.grad(out, leaves)
    for i, p in enumerate(p0):
        def at(v, i=i):
            return loss([v if j == i else q for j, q in enumerate(p0)]).item()
        # the loss is strongly curved here: the difference error is ~50 h^2
        ref = fd_grad(at, p, h=1e-7)
        assert rel_err(grads[leaves[i]].data, ref, floor=1e-6) < 1e-5


def test_sincos_tangents_reuse_the_sibling_value(rng):
    spec = dz.make_system("dubins")
    tape = dk.Tape()
    with tape:
        x = tape.leaf(rng.normal(size=(5, 3)))
        u = tape.leaf(rng.normal(size=(5, 2)))
        dk.jacobian(spec.f, x, u)
        ops = Counter(node.op for node in tape.nodes)
    # the heading's sincos pair and nothing more: the tangents of sin and
    # cos take each other's node instead of recomputing the trig
    assert (ops["sin"], ops["cos"], ops["neg"]) == (1, 1, 1)


def test_gradient_through_sincos_tangents_matches_fd(rng):
    x0 = rng.uniform(-2.0, 2.0, size=(4,))
    d0 = rng.normal(size=(4,))
    proj = rng.normal(size=(4,))

    def tangent(x):
        _, (t,) = dk.jvp(lambda a: dk.mul(*dk.sincos(a)), (x,), [(d0,)])
        return dk.sum_(t * proj)

    out, leaf, _ = taped_scalar(tangent, x0)
    g = dk.grad(out, [leaf])[leaf].data
    ref = fd_grad(lambda v: tangent(dk.tensor(v)).item(), x0)
    assert rel_err(g, ref) < 1e-6


# -- fused primitives ------------------------------------------------------------


def value_grads_ops(fn, arrays, proj):
    """fn's value, the gradient of sum(fn * proj) for every argument, and the
    ops recorded between the leaves and that projection."""
    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(x) for x in arrays]
        y = fn(*leaves)
        ops = [node.op for node in tape.nodes[len(leaves):]]
        out = dk.sum_(y * proj)
    g = dk.grad(out, leaves)
    return y.data, [g[leaf].data for leaf in leaves], ops


def chain_unfused(g, d, w, scale=None):
    """The mul/reshape/mul/transpose/matmul chain that dk.chain fuses."""
    if scale is not None:
        d = scale * d
    return dk.matmul(g * dk.reshape(d, (d.shape[0], 1, d.shape[1])), dk.transpose(w))


# g of shape (B, r, h) or (r, h) for a stack of r = 1 or 3 rows, d (B, h), w (n, h)
CHAIN_G_SHAPES = [(6, 1, 4), (6, 3, 4), (1, 4), (3, 4)]


def chain_arrays(g_shape, rng):
    return rng.normal(size=g_shape), rng.normal(size=(6, 4)), rng.normal(size=(5, 4))


@pytest.mark.parametrize("scale", [None, 2.5])
@pytest.mark.parametrize("g_shape", CHAIN_G_SHAPES)
def test_chain_is_bitwise_the_chain_it_fuses(g_shape, scale, rng):
    arrays = chain_arrays(g_shape, rng)
    proj = rng.normal(size=(6, g_shape[-2], 5))
    y, grads, ops = value_grads_ops(lambda g, d, w: dk.chain(g, d, w, scale), arrays, proj)
    y_ref, grads_ref, _ = value_grads_ops(lambda g, d, w: chain_unfused(g, d, w, scale),
                                          arrays, proj)
    assert ops == ["matmul"]
    assert np.array_equal(y, y_ref)
    for g, g_ref in zip(grads, grads_ref):
        assert np.array_equal(g, g_ref)


@pytest.mark.parametrize("tracked", [(True, False, False), (False, True, False),
                                     (False, False, True), (True, True, False)])
def test_chain_adjoints_of_a_partly_tracked_layer_are_bitwise(tracked, rng):
    arrays = chain_arrays((6, 3, 4), rng)
    proj = rng.normal(size=(6, 3, 5))

    def grads(fn):
        tape = dk.Tape()
        with tape:
            ops = [tape.leaf(x) if t else x for x, t in zip(arrays, tracked)]
            out = dk.sum_(fn(*ops, 2.5) * proj)
        leaves = [x for x, t in zip(ops, tracked) if t]
        g = dk.grad(out, leaves)
        return [g[leaf].data for leaf in leaves]

    for g, g_ref in zip(grads(dk.chain), grads(chain_unfused), strict=True):
        assert np.array_equal(g, g_ref)


@pytest.mark.parametrize("scale", [None, 1.5])
@pytest.mark.parametrize("g_shape", [(3, 2, 4), (2, 4)])
def test_chain_gradients_match_central_differences(g_shape, scale, rng):
    arrays = (rng.normal(size=g_shape), rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))
    proj = rng.normal(size=(3, g_shape[-2], 2))
    _, grads, _ = value_grads_ops(lambda g, d, w: dk.chain(g, d, w, scale), arrays, proj)
    for i, g in enumerate(grads):
        def at(v, i=i):
            args = [v if j == i else x for j, x in enumerate(arrays)]
            return float((dk.chain(*args, scale).data * proj).sum())
        assert rel_err(g, fd_grad(at, arrays[i], h=1e-6)) < 1e-7


def mlp_chain(x, layers, act, omega0=1.0, skip=False, box=None):
    """The network as the chain of primitives that dk.mlp fuses; with
    ``skip``, x is concatenated onto the input of every hidden layer but the
    first."""
    a, last = x, len(layers) - 1
    for i, (w, b) in enumerate(layers):
        if skip and 0 < i < last:
            a = dk.concat([a, x], axis=-1)
        z = dk.matmul(a, w) + b
        if i == last:
            a = z
        elif act == "sine":
            a = dk.sin(omega0 * z)
        else:
            a = dk.tanh(z) if act == "tanh" else dk.relu(z)
    if box is not None:
        lo, hi = box
        a = lo + (hi - lo) * (dk.tanh(a) + 1.0) * 0.5
    return a


def mlp_arrays(rng, in_dim, skip, dtype, hidden=(8, 6, 5), out_dim=2):
    """x and the (w, b) layers of a network with the given hidden widths."""
    layers, prev = [], in_dim
    for j, h in enumerate(hidden):
        layers.append((rng.normal(size=(prev, h)), rng.normal(size=(h,))))
        prev = h + (in_dim if skip and j + 1 < len(hidden) else 0)
    layers.append((rng.normal(size=(prev, out_dim)), rng.normal(size=(out_dim,))))
    cast = lambda a: (0.5 * a).astype(dtype)
    x = rng.uniform(-1.0, 1.0, size=(7, in_dim)).astype(dtype)
    return x, [(cast(w), cast(b)) for w, b in layers]


def per_layer_skip_net(x, layers, act, omega0, box):
    """A skip net's value on netzoo's per-layer path, the one evaluator of
    such a net, squashed into ``box`` by the primitives of mlp_chain."""
    net = nz.Mlp(layers=tuple(layers), activation=act, omega0=omega0, skip_connections=True)
    y = nz.forward_with_jacobian(net, x)[0]
    if box is not None:
        lo, hi = box
        y = lo + (hi - lo) * (dk.tanh(y) + 1.0) * 0.5
    return y


# which inputs are leaves: x and every weight, x alone (frozen weights), or
# the output layer's weights alone (the layers below it are not live)
TRACKED = {"all": lambda i, n: True, "frozen": lambda i, n: i == 0,
           "top": lambda i, n: i >= n - 2}


def mlp_value_grads(fn, x0, layers0, tracked, box):
    """fn's value and the adjoints of sum(fn * proj) + sum(x * c) for the
    tracked ones of x, w0, b0, w1, ...; x also feeds a later node, so its
    adjoint sums the node's contributions onto another one."""
    flat = [x0] + [t for layer in layers0 for t in layer]
    rng = np.random.default_rng(0)
    proj, c = rng.normal(size=(x0.shape[0], 2)), rng.normal(size=x0.shape)
    tape = dk.Tape()
    with tape:
        ins = [tape.leaf(a) if TRACKED[tracked](i, len(flat)) else a for i, a in enumerate(flat)]
        x, layers = ins[0], list(zip(ins[1::2], ins[2::2]))
        y = fn(x, layers, box)
        out = dk.sum_(y * proj) + dk.sum_(dk.tensor(x) * c)
    leaves = [t for t in ins if isinstance(t, dk.Tensor)]
    g = dk.grad(out, leaves)
    return y.data, [g[leaf].data for leaf in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tracked", sorted(TRACKED))
@pytest.mark.parametrize("boxed", [False, True], ids=["no-box", "box"])
@pytest.mark.parametrize("skip", [False, True], ids=["no-skip", "skip"])
@pytest.mark.parametrize("act", ["sine", "tanh", "relu"])
def test_mlp_is_bitwise_the_layer_chain(act, skip, boxed, tracked, dtype, rng):
    # a network without skips is one dk.mlp node; a skip net, which dk.mlp
    # does not take, is netzoo's per-layer path (the value net's evaluator).
    # A first layer narrower than its output (a sine layer rebuilds omega0 z
    # from the input) and a wider one, and a one-layer network, the affine
    # layer of netzoo's per-layer path
    net = ((lambda x, ls, bx: per_layer_skip_net(x, ls, act, 3.0, bx)) if skip
           else (lambda x, ls, bx: dk.mlp(x, ls, act, 3.0, bx)))
    for in_dim, hidden in ((3, (8, 6, 5)), (10, (8, 6, 5)), (4, ())):
        x0, layers0 = mlp_arrays(rng, in_dim, skip, dtype, hidden)
        box = (np.array([-1.0, 0.0]), np.array([1.0, 2.0])) if boxed else None
        y, grads = mlp_value_grads(net, x0, layers0, tracked, box)
        y_ref, grads_ref = mlp_value_grads(
            lambda x, ls, bx: mlp_chain(x, ls, act, 3.0, skip, bx), x0, layers0, tracked, box)
        assert y.dtype == np.dtype(dtype)
        assert np.array_equal(y, y_ref)
        for g, g_ref in zip(grads, grads_ref, strict=True):
            assert g.dtype == g_ref.dtype and np.array_equal(g, g_ref)


@pytest.mark.parametrize("act", ["sine", "tanh", "relu"])
def test_mlp_gradients_match_central_differences(act, rng):
    x0, layers0 = mlp_arrays(rng, 3, False, np.float64, hidden=(5, 4))
    box = (np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    proj = rng.normal(size=(7, 2))
    flat = [x0] + [t for layer in layers0 for t in layer]

    def value(args):
        return dk.mlp(args[0], list(zip(args[1::2], args[2::2])), act, 1.5, box)

    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(a) for a in flat]
        out = dk.sum_(value(leaves) * proj)
    grads = dk.grad(out, leaves)
    for i, leaf in enumerate(leaves):
        def at(v, i=i):
            return float((value([v if j == i else a for j, a in enumerate(flat)]).data
                          * proj).sum())
        assert rel_err(grads[leaf].data, fd_grad(at, flat[i], h=1e-6)) < 1e-6


def rk4_mlp_chain(x, u, h, layers, act, omega0):
    """The concat/mlp/add/mul chain that dk.rk4_mlp fuses."""
    f = lambda x, u: dk.mlp(dk.concat([x, u], axis=1), layers, act, omega0)
    k1 = f(x, u)
    k2 = f(x + (h / 2.0) * k1, u)
    k3 = f(x + (h / 2.0) * k2, u)
    k4 = f(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_mlp_arrays(rng, m, dtype, hidden=(8, 6)):
    """x (7, 3), u (7, m) and the layers of a network from [x, u] to x'."""
    x, layers = mlp_arrays(rng, 3 + m, False, dtype, hidden, out_dim=3)
    return x[:, :3], x[:, 3:], layers


# which of x, u and the weights are leaves
RK4_TRACKED = {"all": (True, True, True), "frozen": (True, True, False),
               "u": (False, True, False), "weights": (False, False, True)}


def rk4_mlp_value_grads(fn, x0, u0, layers0, tracked):
    """fn's value and the adjoints of sum(fn * proj) for the tracked ones of
    x, u, w0, b0, w1, ..."""
    proj = np.random.default_rng(0).normal(size=x0.shape)
    flat = [t for layer in layers0 for t in layer]
    tape = dk.Tape()
    with tape:
        lift = lambda a, t: tape.leaf(a) if t else a
        x, u = lift(x0, tracked[0]), lift(u0, tracked[1])
        params = [lift(a, tracked[2]) for a in flat]
        y = fn(x, u, 0.07, list(zip(params[::2], params[1::2])))
        out = dk.sum_(y * proj)
    leaves = [t for t in [x, u, *params] if isinstance(t, dk.Tensor)]
    g = dk.grad(out, leaves)
    return y.data, [g[leaf].data for leaf in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tracked", sorted(RK4_TRACKED))
@pytest.mark.parametrize("m", [2, 7], ids=["narrow", "wide"])
@pytest.mark.parametrize("act", ["sine", "tanh", "relu"])
def test_rk4_mlp_is_bitwise_the_chain_it_fuses(act, m, tracked, dtype, rng):
    # a first layer narrower than its output (5 -> 8: a sine layer rebuilds
    # omega0 z from its input) and a wider one (10 -> 8)
    x0, u0, layers0 = rk4_mlp_arrays(rng, m, dtype)
    y, grads = rk4_mlp_value_grads(lambda x, u, h, ls: dk.rk4_mlp(x, u, h, ls, act, 3.0),
                                   x0, u0, layers0, RK4_TRACKED[tracked])
    y_ref, grads_ref = rk4_mlp_value_grads(
        lambda x, u, h, ls: rk4_mlp_chain(x, u, h, ls, act, 3.0), x0, u0, layers0,
        RK4_TRACKED[tracked])
    assert y.dtype == np.dtype(dtype)
    assert np.array_equal(y, y_ref)
    for g, g_ref in zip(grads, grads_ref, strict=True):
        assert g.dtype == g_ref.dtype and np.array_equal(g, g_ref)


@pytest.mark.parametrize("act", ["sine", "tanh"])
def test_rk4_mlp_gradients_match_central_differences(act, rng):
    x0, u0, layers0 = rk4_mlp_arrays(rng, 2, np.float64, hidden=(5, 4))
    flat = [x0, u0] + [t for layer in layers0 for t in layer]
    proj = rng.normal(size=x0.shape)

    def value(args):
        return dk.rk4_mlp(args[0], args[1], 0.3, list(zip(args[2::2], args[3::2])), act, 1.5)

    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(a) for a in flat]
        out = dk.sum_(value(leaves) * proj)
    grads = dk.grad(out, leaves)
    for i, leaf in enumerate(leaves):
        def at(v, i=i):
            return float((value([v if j == i else a for j, a in enumerate(flat)]).data
                          * proj).sum())
        assert rel_err(grads[leaf].data, fd_grad(at, flat[i], h=1e-6)) < 1e-6


def test_rk4_mlp_rejects_a_mismatched_state_or_control():
    layers = [(np.ones((5, 4)), np.ones(4)), (np.ones((4, 3)), np.ones(3))]
    for x, u in [(np.ones((2, 4)), np.ones((2, 1))),  # x too wide for the output
                 (np.ones((2, 3)), np.ones((2, 3))),  # [x, u] too wide for w0
                 (np.ones((2, 3)), np.ones((3, 2))),  # batches differ
                 (np.ones((2, 3)), np.ones(2)),
                 (np.ones((1, 2, 3)), np.ones((1, 2)))]:
        with pytest.raises(dk.ShapeError):
            dk.rk4_mlp(x, u, 0.1, layers, "sine", 2.0)
    with pytest.raises(ValueError, match="gelu"):
        dk.rk4_mlp(np.ones((2, 3)), np.ones((2, 2)), 0.1, layers, "gelu")


def test_mlp_rejects_a_mismatched_input_and_an_unknown_activation():
    layers = [(np.ones((3, 4)), np.ones(4)), (np.ones((4, 1)), np.ones(1))]
    for shape in [(2, 5), (3,), (2, 2, 3)]:
        with pytest.raises(dk.ShapeError):
            dk.mlp(np.ones(shape), layers, "tanh")
    with pytest.raises(ValueError, match="gelu"):
        dk.mlp(np.ones((2, 3)), layers, "gelu")


def test_chain_rejects_bad_shapes():
    with pytest.raises(dk.ShapeError):
        dk.chain(np.ones((6, 1, 4)), np.ones((5, 4)), np.ones((2, 4)))  # batch 6 vs 5
    with pytest.raises(dk.ShapeError):
        dk.chain(np.ones((6, 1, 4)), np.ones((6, 3)), np.ones((2, 4)))
    with pytest.raises(dk.ShapeError):
        dk.chain(np.ones((6, 1, 4)), np.ones((6, 4)), np.ones((2, 3)))


def test_fused_primitives_have_no_tangent_rule(rng):
    x0 = rng.normal(size=(2, 3))
    with pytest.raises(dk.DiffkitError, match="'rk4' has no tangent rule"):
        dk.jvp(lambda a: dk.rk4(lambda x, u: x * u, a, a, 0.5), (x0,), [(np.ones_like(x0),)])
    with pytest.raises(dk.DiffkitError, match="chain"):
        dk.jvp(lambda g: dk.chain(g, np.ones((4, 3)), np.ones((2, 3)), 2.0), (x0,),
               [(np.ones_like(x0),)])
    with pytest.raises(dk.DiffkitError, match="'mlp' has no tangent rule"):
        dk.jvp(lambda a: dk.mlp(a, [(np.ones((3, 4)), np.ones(4)), (np.ones((4, 1)), np.ones(1))],
                                "sine", 2.0), (x0,), [(np.ones_like(x0),)])
    with pytest.raises(dk.DiffkitError, match="'rk4_mlp' has no tangent rule"):
        dk.jvp(lambda a: dk.rk4_mlp(a[:, :2], a[:, 2:], 0.1, [(np.ones((3, 2)), np.ones(2))],
                                    "sine", 2.0), (x0,), [(np.ones_like(x0),)])


def test_an_op_refuses_a_tangent_unless_it_hands_over_a_rule(rng):
    x0 = rng.normal(size=(2, 3))
    with pytest.raises(dk.DiffkitError, match="rk4"):
        dk.jvp(lambda x: dk.rk4(lambda x, u: dk.sin(x), x, np.zeros((2, 0)), 0.1), (x0,),
               [(np.ones_like(x0),)])
    # an op labelled "add" gets no rule from its label: d(x + 2 k) is not dx + dk
    twice = lambda x, k: dk._emit("add", x.data + 2.0 * k.data, (x, k), dk._add_vjp,
                                  (x.data, k.data))
    with pytest.raises(dk.DiffkitError, match="'add' has no tangent rule"):
        dk.jvp(twice, (x0, x0), [(np.ones_like(x0), np.ones_like(x0))])


# op -> a function of three (3, 3) operands
SKIP_CASES = {
    "add": lambda a, b, c: dk.add(a, b),
    "sub": lambda a, b, c: dk.sub(a, b),
    "mul": lambda a, b, c: dk.mul(a, b),
    "div": lambda a, b, c: dk.div(a, b),
    "matmul": lambda a, b, c: dk.matmul(a, dk.transpose(b)),
    "mlp": lambda a, b, c: dk.mlp(a, [(b, c[0]), (c, c[1])], "sine", 2.0),
    "mlp_narrow_input": lambda a, b, c: dk.mlp(a[:, :2], [(b[:2], c[0]), (c, c[1])], "sine",
                                               2.0),
    "mlp_box": lambda a, b, c: dk.mlp(a, [(b, c[0]), (c, c[1]), (c, c[2])], "tanh",
                                      box=(np.zeros(3), np.ones(3))),
    "chain": lambda a, b, c: dk.chain(a, b, c, 2.0),
    # an RK4 step of an analytic f, with a control and without one
    "rk4": lambda a, b, c: dk.rk4(lambda x, u: dk.sin(x) * u, a, b, 0.1),
    "rk4_no_control": lambda a, b, c: dk.rk4(lambda x, u: dk.sin(x), a, np.zeros((3, 0)), 0.1),
    # x (3, 2) and u (3, 1) through a (3 -> 3 -> 2) sine network
    "rk4_mlp": lambda a, b, c: dk.rk4_mlp(a[:, :2], b[:, :1], 0.1,
                                          [(c, c[0]), (c[:, :2], c[1, :2])], "sine", 2.0),
    "concat": lambda a, b, c: dk.concat([a, b, c], axis=0),
    "stack": lambda a, b, c: dk.stack([a, b, c], axis=1),
}


@pytest.mark.parametrize("name", sorted(SKIP_CASES))
@pytest.mark.parametrize("tracked", [(True, False, False), (False, True, False),
                                     (False, False, True), (True, True, True)])
def test_backward_returns_none_for_each_untracked_operand(name, tracked, rng):
    arrays = [rng.uniform(0.5, 2.0, size=(3, 3)) for _ in range(3)]
    tape = dk.Tape()
    with tape:
        ops = [tape.leaf(x) if t else dk.tensor(x) for x, t in zip(arrays, tracked)]
        y = SKIP_CASES[name](*ops)
        if y.tape is None:
            return  # no tracked operand reaches this op
        node = tape.nodes[y.idx]
        adjoints = node.backward(np.ones(y.shape), node.parents)
    assert len(adjoints) == len(node.parents)
    for p, g in zip(node.parents, adjoints):
        assert (g is None) == (p < 0)


def test_non_finite_adjoint_at_a_fused_node_names_it(rng):
    # a non-finite adjoint that a fused node computes is caught where it
    # arrives (test_a_non_finite_adjoint_names_the_fused_primitive: one that
    # arrives at a fused node)
    a0, w0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(2,))
    tape = dk.Tape()
    with tape:
        a = tape.leaf(1e-3 * a0)
        out = dk.sum_(dk.mlp(a, [(np.full((4, 2), 1e300), b0)], "tanh") * 1e9)
    assert np.isfinite(out.item())
    with np.errstate(over="ignore"):
        with pytest.raises(dk.NumericError, match=rf"node {a.idx} \(op 'leaf'\)"):
            dk.grad(out, [a])


# case -> its tally label, its primitive name and a call of it on a (3, 3) leaf
FUSED = {
    "mlp": ("matmul", "mlp", lambda a: dk.mlp(a, [(np.ones((3, 4)), np.ones(4)),
                                                  (np.ones((4, 3)), np.ones(3))], "sine", 2.0)),
    "chain": ("matmul", "chain", lambda a: dk.chain(a, np.ones((3, 3)), np.ones((3, 3)), 2.0)),
    "rk4": ("add", "rk4", lambda a: dk.rk4(lambda x, u: dk.sin(x) * u, a, a, 0.1)),
    "rk4_no_control": ("add", "rk4",
                       lambda a: dk.rk4(lambda x, u: dk.sin(x), a, np.zeros((3, 0)), 0.1)),
    "rk4_mlp": ("matmul", "rk4_mlp",
                lambda a: dk.rk4_mlp(a, a[:, :1], 0.1, [(np.ones((4, 3)), np.ones(3))],
                                     "sine", 2.0)),
}


@pytest.mark.parametrize("case", sorted(FUSED))
def test_a_non_finite_adjoint_names_the_fused_primitive(case, rng):
    label, name, fn = FUSED[case]
    tape = dk.Tape()
    with tape, np.errstate(invalid="ignore", over="ignore"):
        a = tape.leaf(rng.normal(size=(3, 3)))
        y = fn(a)
        out = dk.sum_(y * dk.tensor(np.full(y.shape, np.inf)))
    with pytest.raises(dk.NumericError, match=rf"node {y.idx} \(op '{label}' of primitive "
                                              rf"'{name}'\)$"):
        dk.grad(out, [a])


def test_grad_checks_an_adjoint_once_not_again_in_its_views(monkeypatch, rng):
    checked = []
    vdot = np.vdot
    monkeypatch.setattr(np, "vdot", lambda a, b: checked.append(a.shape) or vdot(a, b))
    tape = dk.Tape()
    with tape:
        x = tape.leaf(rng.normal(size=(3, 4)))
        y = x * 2.0
        r = dk.reshape(y, (12,)) + 0.0  # reshape and add hand their adjoint on as it is
        parts = dk.concat([r, r], axis=0)  # r's adjoint sums two views of this one
        out = dk.sum_(parts * 3.0)
    dk.grad(out, [x])
    # out, parts * 3, parts and r's sum of two views, then x after the mul;
    # the add's and the reshape's adjoints are r's (a view of it) and not checked
    assert checked == [(), (24,), (24,), (12,), (3, 4)]


def test_grad_sums_adjoints_in_arrival_order(rng):
    # many contributions to one operand, of any size, are added left to right
    for shape in [(5, 3), (1,), ()]:
        x0 = rng.normal(size=shape)
        spread = [rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8) for _ in range(40)]
        # 1 arrives first, then 39 terms that each round away when added to
        # it; a pairwise sum would keep their total
        tiny = [np.full(shape, 1e-16)] * 39 + [np.ones(shape)]
        for ws in (spread, tiny):
            tape = dk.Tape()
            with tape:
                x = tape.leaf(x0)
                terms = [dk.sum_(x * w) for w in ws]
                out = terms[0]
                for t in terms[1:]:
                    out = out + t
            got = dk.grad(out, [x])[x].data
            # the terms arrive in reverse order of creation
            arrivals = [np.broadcast_to(1.0 * w, shape) for w in reversed(ws)]
            want = arrivals[0]
            for c in arrivals[1:]:
                want = want + c
            assert np.array_equal(got, want)


# -- retention: a node keeps an array only while an adjoint reads it ------------


def test_an_mlp_with_frozen_weights_keeps_no_layer_input(rng):
    # (500, 64) sine layers; the first one is narrower than its output, so
    # it keeps its input, which exists already, instead of omega0 z
    _, layers = mlp_arrays(rng, 3, False, np.float64, hidden=(64, 64, 64), out_dim=1)
    x0 = rng.uniform(-1.0, 1.0, size=(500, 3))
    flat = [t for pair in layers for t in pair]
    layer = 500 * 64 * 8

    def net(x, *params):
        return dk.mlp(x, list(zip(params[::2], params[1::2])), "sine", 2.0)

    # omega0 z of the two deeper layers
    assert 2 * layer <= kept_bytes(lambda x: net(x, *flat), (x0,)) < 2.1 * layer
    # and the inputs of the two deeper layers and of the output layer
    assert kept_bytes(net, (x0, *flat)) >= 5 * layer


def test_a_one_layer_mlp_keeps_its_input_only_for_a_tracked_weight(rng):
    # the affine layer of netzoo's per-layer path
    a0, w0, b0 = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3,))
    for weights_tracked in (False, True):
        tape = dk.Tape()
        with tape:
            x = tape.leaf(a0)
            w = tape.leaf(w0) if weights_tracked else w0
            a = x + 1.0  # a node that keeps shapes only
            input_ref = weakref.ref(a.data)
            y = dk.mlp(a, [(w, b0)], "tanh")
            del a
            out = dk.sum_(y)
        # with frozen weights no adjoint reads the input
        assert (input_ref() is not None) == weights_tracked
        dk.grad(out, [x])
        assert input_ref() is None


def test_an_untaped_mlp_never_calls_its_vjp_factory(monkeypatch, rng):
    masks = []
    real = dk._mlp_vjp

    def spy(parents, *args):
        masks.append(parents)
        return real(parents, *args)

    monkeypatch.setattr(dk, "_mlp_vjp", spy)
    x0, layers = mlp_arrays(rng, 3, False, np.float32)
    dk.mlp(x0, layers, "sine", 2.0)
    tape = dk.Tape()
    with tape:
        dk.mlp(x0, layers, "sine", 2.0)  # a tape is active, but no input is on it
        x = tape.leaf(x0)
        y = dk.mlp(x, layers, "sine", 2.0)
    assert masks == [(-1,) * 8 + (x.idx,)]
    assert len(tape) == 2 and tape.nodes[y.idx].op == "matmul"


def test_an_rk4_mlp_with_frozen_weights_keeps_no_layer_input_but_the_first(rng):
    # (500, 64) sine layers in each of the four stages; the first one is
    # narrower than its output, so it keeps its (500, 5) input, not omega0 z
    _, layers = mlp_arrays(rng, 5, False, np.float64, hidden=(64, 64, 64), out_dim=3)
    x0, u0 = rng.uniform(-1.0, 1.0, size=(500, 3)), rng.uniform(-1.0, 1.0, size=(500, 2))
    flat = [t for pair in layers for t in pair]
    layer, stage_input = 500 * 64 * 8, 500 * 5 * 8

    def step(x, u, *params):
        return dk.rk4_mlp(x, u, 0.1, list(zip(params[::2], params[1::2])), "sine", 2.0)

    # per stage, omega0 z of the two deeper layers and the stage input
    kept = kept_bytes(lambda x, u: step(x, u, *flat), (x0, u0))
    assert 4 * (2 * layer + stage_input) <= kept < 4 * (2.1 * layer + stage_input)
    # and the inputs of the two deeper layers and of the output layer
    assert kept_bytes(step, (x0, u0, *flat)) >= 4 * 5 * layer


def test_an_untaped_rk4_mlp_never_calls_its_vjp_factory(monkeypatch, rng):
    masks = []
    real = dk._rk4_mlp_vjp

    def spy(parents, *args):
        masks.append(parents)
        return real(parents, *args)

    monkeypatch.setattr(dk, "_rk4_mlp_vjp", spy)
    x0, u0, layers = rk4_mlp_arrays(rng, 2, np.float32)
    dk.rk4_mlp(x0, u0, 0.1, layers, "sine", 2.0)
    tape = dk.Tape()
    with tape:
        dk.rk4_mlp(x0, u0, 0.1, layers, "sine", 2.0)  # a tape is active, but nothing is on it
        u = tape.leaf(u0)
        y = dk.rk4_mlp(x0, u, 0.1, layers, "sine", 2.0)
    assert masks == [(-1,) * 7 + (u.idx,)]
    assert len(tape) == 2 and tape.nodes[y.idx].op == "matmul"


def kept_bytes(fn, arrays) -> int:
    """Traced bytes that the nodes ``fn`` records on leaves of ``arrays``
    keep once its output is dropped."""
    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(x) for x in arrays]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = fn(*leaves)
            del y
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("scale", [None, 2.0])
def test_chain_never_keeps_the_product_of_g_and_d(scale, rng):
    g0, d0, w0 = rng.normal(size=(500, 1, 64)), rng.normal(size=(500, 64)), rng.normal(size=(8, 64))
    product = g0.nbytes
    # the unfused chain keeps g * d for w's adjoint, and scale * d for g's
    assert kept_bytes(lambda g, d, w: chain_unfused(g, d, w, scale), (g0, d0, w0)) >= product
    # the fused node keeps g, d and w, which exist already
    assert kept_bytes(lambda g, d, w: dk.chain(g, d, w, scale), (g0, d0, w0)) < product // 10


@pytest.mark.parametrize("weights_tracked", [False, True])
def test_a_sine_layer_keeps_its_narrower_input_not_omega0_z(weights_tracked, rng):
    # the first layer of a network node; its output layer is frozen
    a0, w0, b0 = rng.normal(size=(500, 3)), rng.normal(size=(3, 64)), rng.normal(size=(64,))
    out_layer = (rng.normal(size=(64, 1)), rng.normal(size=(1,)))
    tape = dk.Tape()
    with tape:
        x = tape.leaf(a0)
        w = tape.leaf(w0) if weights_tracked else w0
        a = x + 1.0  # a node that keeps shapes only
        input_ref = weakref.ref(a.data)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = dk.mlp(a, [(w, b0), out_layer], "sine", 2.0)
            del a, y
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    assert input_ref() is not None
    # omega0 z, (500, 64), is not kept; the input, (500, 3), existed already
    assert kept < 500 * 64 * 8 // 10


@pytest.mark.parametrize("op", [dk.mul, dk.matmul])
@pytest.mark.parametrize("tracked_first", [True, False])
def test_product_with_a_constant_keeps_only_the_constant(op, tracked_first, rng):
    x0 = rng.normal(size=(3, 3))
    c0 = rng.normal(size=(3, 3))
    c = c0.copy()
    tape = dk.Tape()
    with tape:
        x = tape.leaf(x0)
        a = x + 1.0
        tracked_ref, const_ref = weakref.ref(a.data), weakref.ref(c)
        y = op(a, c) if tracked_first else op(c, a)
        del a, c
        out = dk.sum_(y)
    assert tracked_ref() is None
    assert const_ref() is not None  # the tracked operand's adjoint reads it
    got = dk.grad(out, [x])[x].data
    assert const_ref() is None
    ones = np.ones((3, 3))
    if op is dk.mul:
        want = ones * c0
    else:
        want = ones @ c0.T if tracked_first else c0.T @ ones
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_grad_releases_each_node_before_the_next_backward(rng):
    gc.disable()
    try:
        tape = dk.Tape()
        with tape:
            x = tape.leaf(rng.normal(size=4))
            probe = x + 0.0
            c = rng.normal(size=4)
            kept = weakref.ref(c)
            y = probe * c  # the node after the probe keeps c for the probe's adjoint
            del c
            out = dk.sum_(y)
        node = tape.nodes[probe.idx]
        inner = node.backward
        seen = []

        def spy(g, parents):
            seen.append(kept() is None)
            return inner(g, parents)

        node.backward = spy
        dk.grad(out, [x])
        assert seen == [True]
        assert len(tape) == 0
    finally:
        gc.enable()
