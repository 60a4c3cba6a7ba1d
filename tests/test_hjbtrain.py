import json
from dataclasses import replace

import numpy as np
import pytest

from hjbctrl import cli
from hjbctrl import diffkit as dk
from hjbctrl import dynzoo as dz
from hjbctrl import hjbtrain as hj
from hjbctrl import netzoo as nz
from hjbctrl import rollout as ro

from conftest import fd_grad, rel_err


def zero_value(x, t):
    b = x.shape[0] if x.ndim == 2 else 1
    z = dk.tensor(np.zeros(b))
    gz = dk.tensor(np.zeros((b, x.shape[-1])))
    return z, z, gz


def quadratic_value(x, t):
    """V(x) = x . x (time-independent)."""
    x = dk.tensor(x)
    v = dk.sum_(dk.square(x), axis=1)
    dvdt = dk.tensor(np.zeros(x.shape[0]))
    return v, dvdt, 2.0 * x


def integrator_system():
    """d-dim single integrator xdot = u with L = u'Ru (R = I), G = 0."""
    spec = dz.make_system("lq1d")
    return replace(spec, Q=None)


# -- hamiltonian -------------------------------------------------------------------


def test_hamiltonian_vanishing_costate():
    spec = dz.make_system("dubins")
    tr = ro.AnalyticTransition(spec)
    x = np.array([[0.5, -0.2, 0.3]])
    u = np.array([[0.6, 0.2]])
    ev = hj.hamiltonian(zero_value, tr, spec, x, u, 0.0)
    want_h = spec.running_cost(x, u).data
    assert np.allclose(ev.H.data, want_h)
    assert np.array_equal(ev.L.data, want_h)
    want_gu = 2.0 * (u - spec.u_star) @ spec.R
    assert np.allclose(ev.grad_u_H.data, want_gu)


def test_hamiltonian_hand_derivation():
    # L = 0, V = x'x, xdot = u (scalar): H = 2 x u, grad_u H = 2 x
    spec = integrator_system()
    spec = replace(spec, R=np.zeros((1, 1)))
    tr = ro.AnalyticTransition(spec)
    x = np.array([[0.7], [-0.4]])
    u = np.array([[0.3], [0.9]])
    ev = hj.hamiltonian(quadratic_value, tr, spec, x, u, 0.0)
    assert np.allclose(ev.H.data, 2 * x[:, 0] * u[:, 0])
    assert np.allclose(ev.grad_u_H.data, 2 * x)


def test_value_takes_one_time_per_row(rng):
    value = hj.MlpValue(nz.value_net(2, hidden=(4,), seed=0), 6.0)
    x = rng.uniform(-1, 1, size=(3, 2))
    v, dvdt, grad_x = value(x, np.full(3, 1.5))
    assert v.shape == dvdt.shape == (3,) and grad_x.shape == (3, 2)
    for t in (1.5, np.full(2, 1.5), np.full((3, 1), 1.5)):
        with pytest.raises(dk.ShapeError):
            value(x, t)


def test_hamiltonian_grad_u_matches_fd(rng):
    spec = dz.make_system("cartpole")
    tr = ro.AnalyticTransition(spec)
    vnet = nz.value_net(4, hidden=(12, 12), seed=3)
    value = hj.MlpValue(vnet, spec.tf)
    x = rng.uniform(-0.5, 0.5, size=(1, 4))
    u0 = rng.uniform(-2, 2, size=(1, 1))
    ev = hj.hamiltonian(value, tr, spec, x, u0, [1.0])
    h = 1e-6
    fd = np.zeros(1)
    for i in range(1):
        up, um = u0.copy(), u0.copy()
        up[0, i] += h
        um[0, i] -= h
        hp = hj.hamiltonian(value, tr, spec, x, up, [1.0]).H.data[0]
        hm = hj.hamiltonian(value, tr, spec, x, um, [1.0]).H.data[0]
        fd[i] = (hp - hm) / (2 * h)
    assert rel_err(ev.grad_u_H.data[0], fd) < 1e-4


def test_hamiltonian_grad_u_matches_fd_for_nonsymmetric_R(rng):
    # dL/du is (R + R^T)(u - u*); a hand-written 2R(u - u*) is wrong here
    spec = dz.make_system("dubins", {"R": [[1.0, 0.5], [0.0, 1.0]]})
    tr = ro.AnalyticTransition(spec)
    value = hj.MlpValue(nz.value_net(3, hidden=(8, 8), seed=4), spec.tf)
    x = rng.uniform(-1, 1, size=(1, 3))
    u0 = np.array([[0.4, -0.3]])
    ev = hj.hamiltonian(value, tr, spec, x, u0, [2.0])
    fd = fd_grad(lambda v: hj.hamiltonian(value, tr, spec, x, v[None, :], [2.0]).H.data[0],
                 u0[0])
    assert rel_err(ev.grad_u_H.data[0], fd) < 1e-6


def sine_net_f(net):
    """A sine dynamics net's forward over [x, u] from primitives that carry
    tangent rules (a network layer is one fused node, which has none)."""
    def f(x, u):
        a = dk.concat([dk.tensor(x), dk.tensor(u)], axis=1)
        for w, b in net.layers[:-1]:
            a = dk.sin(net.omega0 * (dk.matmul(a, w) + b))
        w, b = net.layers[-1]
        return dk.matmul(a, w) + b
    return f


def test_analytic_and_learned_costate_vjp_u_agree(rng):
    # forward-mode tangents of f and the network's seeded reverse chain give
    # the same (v . f, v^T df/du)
    net = nz.dynamics_net(3, 2, hidden=(10, 10), omega0=4.0, seed=1)
    spec = replace(dz.make_system("dubins"), f=sine_net_f(net))
    x = rng.uniform(-1, 1, size=(5, 3))
    u = rng.uniform([0.0, -1.0], [1.0, 1.0], size=(5, 2))
    v = rng.normal(size=(5, 3))
    assert np.max(np.abs(spec.f(x, u).data
                         - nz.forward(net, np.concatenate([x, u], axis=1)).data)) < 1e-12
    vf_a, row_a = ro.AnalyticTransition(spec).costate_vjp_u(x, u, v)
    vf_l, row_l = ro.LearnedTransition(net, 3, 2).costate_vjp_u(x, u, v)
    assert vf_a.shape == vf_l.shape == (5,) and row_a.shape == row_l.shape == (5, 2)
    assert np.max(np.abs(vf_a.data - vf_l.data)) <= 1e-12
    assert np.max(np.abs(row_a.data - row_l.data)) <= 1e-12


def test_grad_u_by_vjp_equals_grad_of_scalar_h(rng):
    # internal consistency of the two differentiation routes
    spec = dz.make_system("dubins")
    net = nz.dynamics_net(3, 2, hidden=(10, 10), omega0=4.0, seed=1)
    lt = ro.LearnedTransition(net, 3, 2)
    vnet = nz.value_net(3, hidden=(10, 10), seed=2)
    value = hj.MlpValue(vnet, spec.tf)
    x = rng.uniform(-1, 1, size=(1, 3))
    u0 = rng.uniform([0.0, -1.0], [1.0, 1.0], size=(1, 2))

    ev = hj.hamiltonian(value, lt, spec, x, u0, [2.0])

    tape = dk.Tape()
    with tape:
        u = tape.leaf(u0)
        _, _, gradv = value(x, [2.0])
        fval = lt(dk.tensor(x), u)
        ham = dk.sum_(spec.running_cost(x, u)) + dk.sum_(gradv * fval)
    g = dk.grad(ham, [u])[u].data
    assert np.max(np.abs(g - ev.grad_u_H.data)) < 1e-10


# -- losses ------------------------------------------------------------------------


def make_traj(spec, ctrl, x0, K=20, transition=None):
    tr = transition or ro.AnalyticTransition(spec)
    return ro.rollout(spec, tr, ctrl, x0, K=K), tr


def test_loss_cost_zero_when_pinned_at_goal():
    spec = dz.make_system("dubins")
    ctrl = lambda x: dk.tensor(np.zeros((x.shape[0], 2)))
    traj, tr = make_traj(spec, ctrl, np.tile(spec.x_star, (3, 1)))
    ev = hj.grid_hamiltonian(zero_value, ctrl, traj, tr, spec)
    assert hj.loss_cost(ev, traj, spec).item() < 1e-12


def test_loss_cost_terminal_only():
    spec = replace(dz.make_system("dubins"), R=np.zeros((2, 2)))
    ctrl = lambda x: dk.tensor(np.tile([0.5, 0.1], (x.shape[0], 1)))
    x0 = np.array([[0.1, 0.2, 0.0], [-1.0, 0.5, 0.4]])
    traj, tr = make_traj(spec, ctrl, x0)
    ev = hj.grid_hamiltonian(zero_value, ctrl, traj, tr, spec)
    want = spec.terminal_cost(traj.states[-1]).data.mean()
    assert abs(hj.loss_cost(ev, traj, spec).item() - want) < 1e-12


def test_the_grid_ends_with_the_controls_at_the_final_states(monkeypatch):
    # the rollout integrates K controls; the grid's last slice of B control
    # rows is the controller's at the final states, which only the grid reads
    spec = dz.make_system("dubins")
    ctrl = nz.controller_net(3, spec.action_box.lo, spec.action_box.hi, hidden=(8,), seed=2)
    traj, tr = make_traj(spec, ctrl, spec.rho.sample(np.random.default_rng(0), 5), K=4)
    grids = []
    hamiltonian = hj.hamiltonian

    def recorded(value, transition, spec, x, u, t):
        grids.append((x.data, u.data))
        return hamiltonian(value, transition, spec, x, u, t)

    monkeypatch.setattr(hj, "hamiltonian", recorded)
    hj.grid_hamiltonian(zero_value, ctrl, traj, tr, spec)
    [(xs, us)] = grids
    assert np.array_equal(xs, traj.state_stack.reshape(-1, 3))
    assert np.array_equal(us[:-5], traj.control_stack.reshape(-1, 2))
    assert np.array_equal(us[-5:], ctrl(traj.states[-1]).data)


def test_loss_hjb_zero_for_constant_value_and_zero_cost():
    spec = replace(integrator_system(), R=np.zeros((1, 1)))
    ctrl = lambda x: dk.tensor(np.full((x.shape[0], 1), 0.3))
    traj, tr = make_traj(spec, ctrl, np.array([[0.5]]))

    def const_value(x, t):
        b = x.shape[0]
        c = dk.tensor(np.full(b, 7.7))
        z = dk.tensor(np.zeros(b))
        return c, z, dk.tensor(np.zeros((b, 1)))

    assert hj.loss_hjb(hj.grid_hamiltonian(const_value, ctrl, traj, tr, spec)).item() < 1e-12


def test_loss_hjb_analytic_lq_solution_residual():
    # xdot = u, L = u^2, G = x^2: V(x,t) = x^2 / (1 + tf - t) solves the HJB
    # along u*(x,t) = -x / (1 + tf - t)
    spec = replace(integrator_system(), P=np.eye(1))
    tf = spec.tf
    tr = ro.AnalyticTransition(spec)

    def analytic_value(x, t):
        x = dk.tensor(x)
        tt = np.asarray(t, dtype=np.float64)
        if tt.ndim == 0:
            tt = np.full(x.shape[0], float(tt))
        p = 1.0 / (1.0 + tf - tt)
        v = dk.reshape(dk.square(x), (x.shape[0],)) * p
        dvdt = dk.reshape(dk.square(x), (x.shape[0],)) * (p * p)
        grad = 2.0 * x * p[:, None]
        return v, dvdt, grad

    # build a trajectory whose controls follow the analytic optimal feedback
    K = 25
    times = np.linspace(0.0, tf, K + 1)
    b = 8
    rng = np.random.default_rng(0)
    states = [dk.tensor(rng.uniform(-1, 1, size=(b, 1)))]
    controls = []
    h = tf / K
    for k in range(K):
        p = 1.0 / (1.0 + tf - times[k])
        u = dk.tensor(-p * states[-1].data)
        controls.append(u)
        states.append(dk.tensor(
            ro.rk4_step(tr, states[-1], u, h).data
        ))
    p_f = 1.0 / (1.0 + tf - times[-1])
    final_ctrl = lambda x: dk.tensor(-p_f * x.data)
    traj = ro.TrajectoryBatch(times=times, states=states, controls=controls)
    resid = hj.loss_hjb(hj.grid_hamiltonian(analytic_value, final_ctrl, traj, tr, spec)).item()
    assert resid < 1e-6


def test_loss_final_identities():
    spec = dz.make_system("dubins")
    ctrl = lambda x: dk.tensor(np.tile([0.4, 0.2], (x.shape[0], 1)))
    traj, tr = make_traj(spec, ctrl, np.array([[0.3, -0.5, 0.1], [1.0, 1.0, 0.0]]))

    def value_equals_g(x, t):
        g = spec.terminal_cost(x)
        b = x.shape[0]
        return g, dk.tensor(np.zeros(b)), dk.tensor(np.zeros((b, 3)))

    ev = hj.grid_hamiltonian(value_equals_g, ctrl, traj, tr, spec)
    assert hj.loss_final(ev, traj, spec).item() == 0.0
    got = hj.loss_final(hj.grid_hamiltonian(zero_value, ctrl, traj, tr, spec), traj, spec).item()
    want = spec.terminal_cost(traj.states[-1]).data.mean()
    assert abs(got - want) < 1e-12


def test_loss_hamil_identities():
    spec = dz.make_system("dubins")
    u_star_ctrl = lambda x: dk.tensor(
        np.tile(spec.u_star + np.array([0.5, 0.0]), (x.shape[0], 1))
    )
    # at u = u* (interior after adding 0.5 to stay inside the box for v) the
    # running-cost gradient is 2R(u - u*); with V = 0 that is all of grad_u H
    traj, tr = make_traj(spec, u_star_ctrl, np.array([[0.0, 0.0, 0.0]]))
    got = hj.loss_hamil(hj.grid_hamiltonian(zero_value, u_star_ctrl, traj, tr, spec)).item()
    want = np.linalg.norm(2.0 * np.array([0.5, 0.0]) @ spec.R)
    assert abs(got - want) < 1e-9

    # toy: L = 0, V = x'x, xdot = u: ||grad_u H|| = ||2x||
    ispec = replace(integrator_system(), R=np.zeros((1, 1)))
    ctrl = lambda x: dk.tensor(np.full((x.shape[0], 1), 0.2))
    traj, tr = make_traj(ispec, ctrl, np.array([[0.8]]), K=5)
    got = hj.loss_hamil(hj.grid_hamiltonian(quadratic_value, ctrl, traj, tr, ispec)).item()
    xs = np.concatenate([s.data for s in traj.states], axis=0)
    want = np.mean(np.abs(2.0 * xs[:, 0]))
    assert abs(got - want) < 1e-9


def test_loss_hamil_fd_cross_check(rng):
    spec = dz.make_system("dubins")
    tr = ro.AnalyticTransition(spec)
    vnet = nz.value_net(3, hidden=(8, 8), seed=5)
    value = hj.MlpValue(vnet, spec.tf)
    x = rng.uniform(-1, 1, size=(1, 3))
    u0 = np.array([[0.5, 0.2]])
    ev = hj.hamiltonian(value, tr, spec, x, u0, [3.0])
    h = 1e-6
    fd = np.zeros(2)
    for i in range(2):
        up, um = u0.copy(), u0.copy()
        up[0, i] += h
        um[0, i] -= h
        fd[i] = (hj.hamiltonian(value, tr, spec, x, up, [3.0]).H.data[0]
                 - hj.hamiltonian(value, tr, spec, x, um, [3.0]).H.data[0]) / (2 * h)
    assert rel_err(np.linalg.norm(ev.grad_u_H.data[0]), np.linalg.norm(fd)) < 1e-4


# -- training ------------------------------------------------------------------------


def test_zero_epoch_training_returns_initialized_nets():
    spec = dz.make_system("lq1d")
    cfg = hj.HjbConfig(epochs=0, batch=4, K=5, seed=0,
                       controller_hidden=(8,), value_hidden=(8,))
    ctrl, val, log = hj.train_controller(spec, cfg)
    assert log == []
    want = nz.controller_net(1, spec.action_box.lo, spec.action_box.hi,
                             hidden=(8,), seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(ctrl.params(), want.params()))


def test_all_zero_weights_leave_parameters_unchanged():
    spec = dz.make_system("lq1d")
    cfg = hj.HjbConfig(alpha_cost=0, alpha_hjb=0, alpha_final=0, alpha_hamil=0,
                       epochs=3, batch=4, K=5, seed=0,
                       controller_hidden=(8,), value_hidden=(8,))
    ctrl, val, log = hj.train_controller(spec, cfg)
    c0 = nz.controller_net(1, spec.action_box.lo, spec.action_box.hi,
                           hidden=(8,), seed=0)
    v0 = nz.value_net(1, hidden=(8,), seed=1)
    assert all(np.array_equal(a, b) for a, b in zip(ctrl.params(), c0.params()))
    assert all(np.array_equal(a, b) for a, b in zip(val.params(), v0.params()))
    assert all(r["loss_total"] == 0.0 for r in log)


def test_pure_cost_training_leaves_value_untouched():
    spec = dz.make_system("lq1d")
    cfg = hj.HjbConfig(alpha_hjb=0, alpha_final=0, alpha_hamil=0,
                       epochs=3, batch=8, K=5, seed=0,
                       controller_hidden=(8,), value_hidden=(8,))
    ctrl, val, log = hj.train_controller(spec, cfg)
    v0 = nz.value_net(1, hidden=(8,), seed=1)
    assert all(np.array_equal(a, b) for a, b in zip(val.params(), v0.params()))
    c0 = nz.controller_net(1, spec.action_box.lo, spec.action_box.hi,
                           hidden=(8,), seed=0)
    assert any(not np.array_equal(a, b) for a, b in zip(ctrl.params(), c0.params()))


def test_hamil_loss_alone_trains_the_value_net():
    # the costate grad_x V in grad_u H is not detached
    spec = dz.make_system("lq1d")
    cfg = hj.HjbConfig(alpha_cost=0, alpha_hjb=0, alpha_final=0, alpha_hamil=1.0,
                       epochs=3, batch=8, K=5, seed=0,
                       controller_hidden=(8,), value_hidden=(8,))
    v0 = nz.value_net(1, hidden=(8,), seed=1)
    _, value, _ = hj.train_controller(spec, cfg)
    assert any(not np.array_equal(a, b) for a, b in zip(value.params(), v0.params()))


def test_training_is_deterministic():
    spec = dz.make_system("lq1d")
    cfg = hj.HjbConfig(epochs=5, batch=8, K=10, seed=4,
                       controller_hidden=(8,), value_hidden=(8,))
    c1, v1, l1 = hj.train_controller(spec, cfg)
    c2, v2, l2 = hj.train_controller(spec, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(c1.params(), c2.params()))
    assert [r["loss_total"] for r in l1] == [r["loss_total"] for r in l2]


def test_training_with_learned_transition_checkpoint(tmp_path):
    spec = dz.make_system("lq1d")
    net = nz.dynamics_net(1, 1, hidden=(8,), activation="sine", omega0=2.0, seed=0)
    path = tmp_path / "ft.json"
    nz.save(net, path, metadata={"system": "lq1d"})
    cfg = hj.HjbConfig(epochs=2, batch=4, K=5, seed=0, transition=str(path),
                       controller_hidden=(8,), value_hidden=(8,))
    ctrl, val, log = hj.train_controller(spec, cfg)
    assert log[-1]["nfe_cumulative"] == 2 * 4 * 5


def test_unloadable_checkpoint_errors():
    spec = dz.make_system("lq1d")
    cfg = hj.HjbConfig(epochs=1, transition="/nonexistent/path.json",
                       controller_hidden=(8,), value_hidden=(8,))
    with pytest.raises(nz.CheckpointError):
        hj.train_controller(spec, cfg)


def test_nfe_log_matches_4_k_epochs():
    spec = dz.make_system("lq1d")
    cfg = hj.HjbConfig(epochs=7, batch=4, K=9, seed=0,
                       controller_hidden=(8,), value_hidden=(8,))
    _, _, log = hj.train_controller(spec, cfg)
    assert log[-1]["nfe_cumulative"] == 4 * 9 * 7


def test_running_cost_is_evaluated_once_per_epoch(monkeypatch):
    # one call on the stacked grid serves the cost integral and the Hamiltonian
    calls = []
    running_cost = dz.SystemSpec.running_cost

    def counted(self, x, u):
        calls.append(x.shape)
        return running_cost(self, x, u)

    monkeypatch.setattr(dz.SystemSpec, "running_cost", counted)
    spec = dz.make_system("dubins")
    cfg = hj.HjbConfig(epochs=2, batch=3, K=50, seed=0,
                       controller_hidden=(4,), value_hidden=(4,))
    hj.train_controller(spec, cfg)
    assert calls == [(3 * 51, 3)] * 2


def test_rho_defaults_and_sampling():
    for name in ("dubins", "cartpole", "acrobot", "quadrotor", "lq1d"):
        spec = dz.make_system(name)
        xs = spec.rho.sample(np.random.default_rng(0), 100)
        assert xs.shape == (100, spec.d)
        assert np.all(np.isfinite(xs))
    xs = dz.make_system("quadrotor").rho.sample(np.random.default_rng(1), 50)
    assert np.array_equal(xs[:, 3:], np.zeros((50, 9)))  # only positions random


def test_write_training_log(tmp_path):
    config = tmp_path / "lq1d.json"
    config.write_text(json.dumps({
        "system": {"name": "lq1d"},
        "hjb": {"epochs": 2, "batch": 4, "K": 5, "controller_hidden": [8], "value_hidden": [8]},
    }))
    assert cli.main(["train", "--config", str(config), "--outdir", str(tmp_path)]) == cli.EXIT_OK
    lines = (tmp_path / "training_log.csv").read_text().splitlines()
    assert lines[0].startswith("# hjbctrl")
    assert lines[1].split(",") == hj.LOG_COLUMNS
    assert len(lines) == 2 + 2


def test_non_finite_cost_weight_stops_training_naming_the_loss():
    spec = replace(dz.make_system("dubins"), P=np.full((3, 3), np.inf))
    cfg = hj.HjbConfig(epochs=2, batch=4, K=3, controller_hidden=(4,), value_hidden=(4,))
    with pytest.raises(hj.TrainingDiverged, match="loss_cost became .* at epoch 0"), \
            np.errstate(all="ignore"):
        hj.train_controller(spec, cfg)
