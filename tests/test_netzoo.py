import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjbctrl import diffkit as dk
from hjbctrl import netzoo as nz

from conftest import fd_jac, rel_err


def small_net(activation="tanh", skip=False, box=None, seed=0, in_dim=3, out_dim=2):
    return nz.init(
        nz.MlpSpec(in_dim, (12, 10), out_dim, activation=activation, omega0=4.0,
                   skip_connections=skip, box=box),
        seed=seed,
    )


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


# -- init --------------------------------------------------------------------


def test_init_deterministic_and_seed_sensitive():
    spec = nz.MlpSpec(4, (16, 16), 3, activation="sine")
    a = nz.init(spec, seed=7)
    b = nz.init(spec, seed=7)
    c = nz.init(spec, seed=8)
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
    assert any(not np.array_equal(wa, wc) for (wa, _), (wc, _) in zip(a.layers, c.layers))


def test_sine_first_layer_init_bounds():
    spec = nz.MlpSpec(5, (64, 64), 3, activation="sine", omega0=30.0)
    net = nz.init(spec, seed=3)
    w0 = net.layers[0][0]
    assert np.all(np.abs(w0) <= 1.0 / 5)
    w1 = net.layers[1][0]
    assert np.all(np.abs(w1) <= np.sqrt(6.0 / 64) / 30.0)


def test_glorot_bounds_for_tanh():
    net = nz.init(nz.MlpSpec(4, (32,), 2, activation="tanh"), seed=1)
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
    ref = np.stack([fd_jac(lambda v: nz.forward(net, v[None, :]).data[0], x[i]) for i in range(6)])
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


def test_jacobian_output_transform_chain(rng):
    net = small_net("tanh", box=([-2.0, 0.0], [2.0, 4.0]), seed=4)
    x = rng.uniform(-1, 1, size=(5, 3))
    jac = nz.forward_with_jacobian(net, x)[1].data
    ref = np.stack([fd_jac(lambda v: nz.forward(net, v[None, :]).data[0], x[i]) for i in range(5)])
    assert rel_err(jac, ref) < 1e-5


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
    net = small_net(activation, skip=True, seed=4)
    x = rng.uniform(-1, 1, size=(8, 3))
    y, _ = nz.vjp(net, x, rng.normal(size=(8, 2)))
    assert np.array_equal(y.data, nz.forward(net, x).data)


def test_vjp_dim_mismatch():
    net = small_net()
    with pytest.raises(dk.ShapeError):
        nz.vjp(net, np.zeros((1, 3)), np.zeros((1, 5)))


def test_jacobian_nesting_grad_wrt_params_matches_fd(rng):
    net = nz.init(nz.MlpSpec(4, (10, 10), 2, activation="sine", omega0=3.0), seed=6)
    x = rng.uniform(-1, 1, size=(5, 4))

    def scalar_of(params_list):
        jac = nz.forward_with_jacobian(net.with_params(params_list), x)[1]
        return float(np.sum(jac.data ** 2))

    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(p) for p in net.params()]
        loss = dk.sum_(dk.square(nz.forward_with_jacobian(net, x, params=leaves)[1]))
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
