import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbctrl import diffkit as dk
from hjbctrl import netzoo as nz

from conftest import fd_jac, rel_err


def small_net(activation="tanh", skip=False, box=None, seed=0, in_dim=3, out_dim=2):
    return nz.init(in_dim, (12, 10), out_dim, activation=activation, omega0=4.0,
                   skip_connections=skip, box=box, seed=seed)


# -- forward -----------------------------------------------------------------


def test_zero_weight_net_outputs_zero():
    layers = ((np.zeros((3, 8)), np.zeros(8)), (np.zeros((8, 2)), np.zeros(2)))
    net = nz.Mlp(layers=layers, activation="tanh")
    y = nz.forward(net, np.ones((5, 3)))
    assert np.array_equal(y.data, np.zeros((5, 2)))


def test_tanh_box_midpoint_at_zero_preactivation():
    layers = ((np.zeros((2, 4)), np.zeros(4)), (np.zeros((4, 1)), np.zeros(1)))
    net = nz.Mlp(layers=layers, activation="tanh",
                 output_transform=nz.TanhBox(lo=np.array([-1.0]), hi=np.array([1.0])))
    y = nz.forward(net, np.array([[3.0, -4.0]]))
    assert y.data[0, 0] == 0.0


def test_fixed_221_sine_net_matches_hand_computation():
    w1 = np.array([[0.5, -0.3], [0.2, 0.7]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.5], [-2.0]])
    b2 = np.array([0.25])
    omega = 2.0
    net = nz.Mlp(layers=((w1, b1), (w2, b2)), activation="sine", omega0=omega)
    x = np.array([[0.4, -0.6]])
    h = np.sin(omega * (x @ w1 + b1))
    want = h @ w2 + b2
    got = nz.forward(net, x).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_forward_is_pure():
    net = small_net("sine")
    x = np.random.default_rng(0).normal(size=(7, 3))
    y1 = nz.forward(net, x).data
    y2 = nz.forward(net, x).data
    assert np.array_equal(y1, y2)


def test_forward_dim_mismatch():
    net = small_net()
    with pytest.raises(dk.ShapeError):
        nz.forward(net, np.ones((4, 5)))
    with pytest.raises(dk.ShapeError):
        nz.forward(net, np.ones(3))


def test_forward_refuses_a_net_with_skip_connections():
    with pytest.raises(ValueError, match="skip connections is evaluated with its derivatives"):
        nz.forward(small_net(skip=True), np.ones((4, 3)))


# -- init --------------------------------------------------------------------


def test_init_deterministic_and_seed_sensitive():
    a = nz.init(4, (16, 16), 3, activation="sine", seed=7)
    b = nz.init(4, (16, 16), 3, activation="sine", seed=7)
    c = nz.init(4, (16, 16), 3, activation="sine", seed=8)
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
    assert any(not np.array_equal(wa, wc) for (wa, _), (wc, _) in zip(a.layers, c.layers))


def test_sine_first_layer_init_bounds():
    net = nz.init(5, (64, 64), 3, activation="sine", omega0=30.0, seed=3)
    w0 = net.layers[0][0]
    assert np.all(np.abs(w0) <= 1.0 / 5)
    w1 = net.layers[1][0]
    assert np.all(np.abs(w1) <= np.sqrt(6.0 / 64) / 30.0)


def test_glorot_bounds_for_tanh():
    net = nz.init(4, (32,), 2, activation="tanh", seed=1)
    w0 = net.layers[0][0]
    assert np.all(np.abs(w0) <= np.sqrt(6.0 / (4 + 32)))


# -- box containment ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_tanh_box_controller_outputs_stay_inside(seed):
    rng = np.random.default_rng(seed)
    net = nz.controller_net(3, [-1.0, 0.0], [1.0, 2.0], hidden=(8, 8), seed=seed)
    x = rng.uniform(-50, 50, size=(64, 3))
    y = nz.forward(net, x).data
    assert np.all(y[:, 0] > -1.0) and np.all(y[:, 0] < 1.0)
    assert np.all(y[:, 1] > 0.0) and np.all(y[:, 1] < 2.0)


# -- jacobian / vjp ----------------------------------------------------------


@pytest.mark.parametrize("activation", ["sine", "tanh", "relu"])
@pytest.mark.parametrize("skip", [False, True])
def test_input_jacobian_matches_fd(activation, skip, rng):
    net = small_net(activation, skip=skip, seed=11)
    x = rng.uniform(-1.0, 1.0, size=(6, 3))
    jac = nz.forward_with_jacobian(net, x)[1].data
    # a skip net's value comes from the per-layer path alone
    value = (lambda n, v: nz.forward_with_jacobian(n, v)[0]) if skip else nz.forward
    ref = np.stack([fd_jac(lambda v: value(net, v[None, :]).data[0], x[i]) for i in range(6)])
    assert rel_err(jac, ref) < 1e-5


def test_identity_linear_layer_jacobian():
    net = nz.Mlp(layers=((np.eye(3), np.zeros(3)),), activation="tanh")
    jac = nz.forward_with_jacobian(net, np.array([[9.0, -2.0, 4.4]]))[1]
    assert np.array_equal(jac.data, np.eye(3)[None])


def test_one_layer_sine_jacobian_symbolic():
    # y = sin(w x) with w = 2: dy/dx = cos(w x) w = 2 at x = 0
    # (sine hidden layer followed by an identity readout)
    net = nz.Mlp(
        layers=((np.array([[2.0]]), np.zeros(1)), (np.eye(1), np.zeros(1))),
        activation="sine",
        omega0=1.0,
    )
    jac = nz.forward_with_jacobian(net, np.array([[0.0]]))[1]
    assert np.allclose(jac.data, [[[2.0]]])


def test_a_boxed_net_has_no_input_derivatives(rng):
    net = small_net("tanh", box=([-2.0, 0.0], [2.0, 4.0]), seed=4)
    x = rng.uniform(-1, 1, size=(5, 3))
    with pytest.raises(ValueError, match="output box has no input derivatives"):
        nz.forward_with_jacobian(net, x)
    with pytest.raises(ValueError, match="output box has no input derivatives"):
        nz.vjp(net, x, rng.normal(size=(5, 2)))


def test_value_net_jacobian_finite_everywhere_sampled(rng):
    net = nz.value_net(4, hidden=(32, 32, 32), seed=5)
    z = rng.uniform(-10, 10, size=(500, 5))
    jac = nz.forward_with_jacobian(net, z)[1].data
    assert np.all(np.isfinite(jac))


def test_vjp_basis_vector_extracts_jacobian_row(rng):
    net = small_net("sine", seed=2)
    x = rng.uniform(-1, 1, size=(1, 3))
    jac = nz.forward_with_jacobian(net, x)[1].data
    for i in range(2):
        e = np.zeros((1, 2))
        e[0, i] = 1.0
        row = nz.vjp(net, x, e)[1].data
        assert np.allclose(row, jac[:, i], atol=1e-12)


def test_vjp_zero_vector():
    net = small_net()
    out = nz.vjp(net, np.zeros((1, 3)), np.zeros((1, 2)))[1].data
    assert np.array_equal(out, np.zeros((1, 3)))


def test_vjp_agrees_with_dense_product(rng):
    net = small_net("sine", skip=False, seed=9)
    x = rng.uniform(-1, 1, size=(8, 3))
    v = rng.normal(size=(8, 2))
    dense = np.einsum("bo,boi->bi", v, nz.forward_with_jacobian(net, x)[1].data)
    got = nz.vjp(net, x, v)[1].data
    assert np.max(np.abs(dense - got)) < 1e-12


@pytest.mark.parametrize("activation", ["sine", "tanh", "relu"])
def test_vjp_output_is_the_forward_value(activation, rng):
    net = small_net(activation, seed=4)
    x = rng.uniform(-1, 1, size=(8, 3))
    y, _ = nz.vjp(net, x, rng.normal(size=(8, 2)))
    assert np.array_equal(y.data, nz.forward(net, x).data)


def test_the_reverse_chain_records_one_node_per_layer(rng):
    net = small_net("tanh", seed=3)  # two hidden layers, linear output

    def ops(fn):
        tape = dk.Tape()
        with tape:
            fn(net.with_params([tape.leaf(p) for p in net.params()]), tape.leaf(x))
        return Counter(node.op for node in tape.nodes if node.op != "leaf")

    x = rng.uniform(-1, 1, size=(5, 3))
    # a plain evaluation is one network node
    assert ops(nz.forward) == Counter({"matmul": 1})
    # per hidden layer a one-layer network node, a tanh node, 1 - t * t and
    # one chain node; the output layer's one-layer network node, and the
    # transpose and matmul that start the chain
    assert ops(nz.forward_with_jacobian) == Counter(
        {"tanh": 2, "mul": 2, "sub": 2, "matmul": 2 + 1 + 1 + 2, "transpose": 1})


def value_and_grads(fn, net, x, proj):
    """fn's value and the adjoints of sum(fn * proj) for x and every weight."""
    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(p) for p in [x] + net.params()]
        y = fn(net.with_params(leaves[1:]), leaves[0])
        out = dk.sum_(y * proj)
    g = dk.grad(out, leaves)
    return [y.data] + [g[leaf].data for leaf in leaves]


def per_layer_value(net, x):
    """The value half of forward_with_jacobian; a boxed net's is that of
    the same net unboxed, squashed into the box by primitives."""
    box = net.output_transform
    if box is None:
        return nz.forward_with_jacobian(net, x)[0]
    y = nz.forward_with_jacobian(replace(net, output_transform=None), x)[0]
    return box.lo + (box.hi - box.lo) * (dk.tanh(y) + 1.0) * 0.5


@pytest.mark.parametrize("box", [None, ([-1.0, 0.0], [1.0, 2.0])], ids=["no-box", "box"])
@pytest.mark.parametrize("activation", ["sine", "tanh", "relu"])
def test_forward_is_bitwise_the_per_layer_path(activation, box, rng):
    net = small_net(activation, box=box, seed=5).astype(np.float32)
    x = rng.uniform(-1, 1, size=(9, 3)).astype(np.float32)
    proj = rng.normal(size=(9, 2))
    got = value_and_grads(nz.forward, net, x, proj)
    want = value_and_grads(per_layer_value, net, x, proj)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype == np.float32 and np.array_equal(g, w)


def test_vjp_dim_mismatch():
    net = small_net()
    with pytest.raises(dk.ShapeError):
        nz.vjp(net, np.zeros((1, 3)), np.zeros((1, 5)))


def test_jacobian_nesting_grad_wrt_params_matches_fd(rng):
    net = nz.init(4, (10, 10), 2, activation="sine", omega0=3.0, seed=6)
    x = rng.uniform(-1, 1, size=(5, 4))

    def scalar_of(params_list):
        jac = nz.forward_with_jacobian(net.with_params(params_list), x)[1]
        return float(np.sum(jac.data ** 2))

    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(p) for p in net.params()]
        loss = dk.sum_(dk.square(nz.forward_with_jacobian(net.with_params(leaves), x)[1]))
    grads = dk.grad(loss, leaves)
    p0 = net.params()
    for li in range(len(p0)):
        idx = (0,) if p0[li].ndim == 1 else (0, 0)
        h = 1e-6
        pp = [p.copy() for p in p0]
        pm = [p.copy() for p in p0]
        pp[li][idx] += h
        pm[li][idx] -= h
        want = (scalar_of(pp) - scalar_of(pm)) / (2 * h)
        got = grads[leaves[li]].data[idx]
        assert abs(got - want) / max(1e-6, abs(want)) < 1e-3


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = small_net("sine", box=([-1.0, 0.0], [1.0, 2.0]), seed=3)
    x = np.random.default_rng(1).normal(size=(16, 3))
    before = nz.forward(net, x).data
    path = tmp_path / "net.json"
    nz.save(net, path, metadata={"system": "test", "seed": 3})
    loaded, meta = nz.load(path)
    assert meta["system"] == "test"
    after = nz.forward(loaded, x).data
    assert np.array_equal(before, after)


def test_checkpoint_truncated_file_errors(tmp_path):
    net = small_net()
    path = tmp_path / "net.json"
    nz.save(net, path)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(nz.CheckpointError):
        nz.load(path)


def test_checkpoint_missing_file_errors(tmp_path):
    with pytest.raises(nz.CheckpointError):
        nz.load(tmp_path / "nope.json")


def test_checkpoint_shape_mismatch_errors(tmp_path):
    net = small_net()
    path = tmp_path / "net.json"
    nz.save(net, path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["shape"] = [99, 99]
    path.write_text(json.dumps(doc))
    with pytest.raises(nz.CheckpointError):
        nz.load(path)


def tanh_box(lo, hi) -> dict:
    return {"kind": "tanh_box", "lo": lo, "hi": hi}


def flat_layer0(layers):
    """A checkpoint edit: layer 0's weights as a vector, with a matching shape."""
    layers[0]["weights"] = np.ravel(layers[0]["weights"]).tolist()
    layers[0]["shape"] = [len(layers[0]["weights"])]
    return layers


def layer0_filled(field, value):
    """A checkpoint edit: every entry of layer 0's ``field`` set to value."""
    def edit(layers):
        layers[0][field] = np.full(np.shape(layers[0][field]), value).tolist()
        return layers
    return edit


# field -> a bad value for it (None deletes the field, a function edits it),
# and the error it raises; the checkpoint's net has 2 outputs and an output box
@pytest.mark.parametrize("key, value, message", [
    ("format_version", 99, "unsupported format_version 99"),
    ("output_transform", {"kind": "sigmoid"}, "unknown output transform 'sigmoid'"),
    ("activation", None, "missing field 'activation'"),
    ("omega0", [1.0, 2.0], "corrupt checkpoint"),
    ("output_transform", tanh_box([1.0, 2.0], [-1.0, 0.0]),
     "output_transform: box upper bounds must exceed lower bounds"),
    ("output_transform", tanh_box([-1.0], [1.0, 2.0]),
     r"output_transform: box bounds lo and hi need one entry each per output, "
     r"got shapes \(1,\) and \(2,\)"),
    ("output_transform", tanh_box([-1.0], [1.0]),
     "output_transform: box bounds must match the output dimension 2, got 1 entries"),
    ("output_transform", tanh_box([-np.inf, 0.0], [1.0, 2.0]),
     "output_transform: box bounds must be finite"),
    ("layers", layer0_filled("weights", np.nan), r"layers\[0\].weights has non-finite entries"),
    ("layers", layer0_filled("bias", np.inf), r"layers\[0\].bias has non-finite entries"),
    ("omega0", np.inf, "omega0 must be finite and > 0, got inf"),
    ("omega0", 0.0, "omega0 must be finite and > 0, got 0.0"),
    ("layers", flat_layer0, "layer shape mismatch"),
    ("skip_connections", True, "output_transform: a net with skip connections has no output box"),
])
def test_checkpoint_with_a_bad_field_errors(key, value, message, tmp_path):
    path = tmp_path / "net.json"
    nz.save(small_net(box=([-1.0, 0.0], [1.0, 2.0])), path)
    doc = json.loads(path.read_text())
    if value is None:
        del doc[key]
    elif callable(value):
        doc[key] = value(doc[key])
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(nz.CheckpointError, match=message) as err:
        nz.load(path)
    assert str(path) in str(err.value)


def test_mlp_rejects_unknown_activation_and_unchained_layers():
    layers = ((np.zeros((3, 8)), np.zeros(8)), (np.zeros((8, 2)), np.zeros(2)))
    with pytest.raises(ValueError, match="unknown activation 'gelu'"):
        nz.Mlp(layers=layers, activation="gelu")
    unchained = ((np.zeros((3, 8)), np.zeros(8)), (np.zeros((7, 2)), np.zeros(2)))
    with pytest.raises(ValueError, match="layer 1 expects fan_in 7, previous layer chains to 8"):
        nz.Mlp(layers=unchained, activation="tanh")


def test_with_params_rejects_the_wrong_count():
    net = small_net()
    with pytest.raises(ValueError, match="parameter count mismatch"):
        net.with_params(net.params()[:-1])


@pytest.mark.parametrize("box, message", [
    (([-1.0], [1.0]), "box bounds must match the output dimension"),
    (([-1.0, 1.0], [1.0, 1.0]), "box upper bounds must exceed lower bounds"),
    (([-1.0, 0.0], [1.0, np.nan]), "box bounds must be finite"),
])
def test_init_rejects_a_bad_output_box(box, message):
    with pytest.raises(ValueError, match=message):
        small_net(box=box)


def test_init_rejects_an_output_box_with_skip_connections():
    # neither forward (no skips) nor the per-layer path (no box) evaluates it
    with pytest.raises(ValueError, match="a net with skip connections has no output box"):
        small_net(skip=True, box=([-1.0, 0.0], [1.0, 2.0]))


def test_checkpoint_survives_process_restart(tmp_path):
    net = nz.dynamics_net(3, 2, hidden=(16, 16), activation="sine", omega0=10.0, seed=0)
    path = tmp_path / "dyn.json"
    nz.save(net, path)
    x = np.linspace(-1, 1, 10).reshape(2, 5)
    here = nz.forward(net, x).data
    code = (
        "import numpy as np; from hjbctrl import netzoo as nz; "
        f"net, _ = nz.load({str(path)!r}); "
        "x = np.linspace(-1, 1, 10).reshape(2, 5); "
        "print(repr(nz.forward(net, x).data.tolist()))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert np.array_equal(np.array(eval(out.stdout)), here)
