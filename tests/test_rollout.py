import csv
import json
from collections import Counter

import numpy as np
import pytest

from hjbctrl import cli
from hjbctrl import diffkit as dk
from hjbctrl import dynzoo as dz
from hjbctrl import hjbtrain as hj
from hjbctrl import netzoo as nz
from hjbctrl import rollout as ro

from conftest import fd_grad, rel_err


def zero_controller(m):
    return lambda x: dk.tensor(np.zeros((x.shape[0], m)))


def constant_controller(u):
    u = np.asarray(u, dtype=np.float64)
    return lambda x: dk.tensor(np.tile(u, (x.shape[0], 1)))


# -- rk4_step -------------------------------------------------------------------


def test_rk4_zero_field_is_identity():
    f = lambda x, u: 0.0 * x
    x = dk.tensor(np.array([[1.0, -2.0]]))
    out = ro.rk4_step(f, x, None, 0.1)
    assert np.array_equal(out.data, x.data)


def test_rk4_exponential_oracle():
    # xdot = x from 1.0 over h=0.1: RK4 equals the 4th-order Taylor polynomial
    f = lambda x, u: x
    out = ro.rk4_step(f, dk.tensor(np.array([[1.0]])), None, 0.1).data[0, 0]
    taylor4 = 1 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6 + 0.1**4 / 24
    assert abs(out - taylor4) < 1e-12
    assert abs(out - np.exp(0.1)) < 1e-7  # truncation error ~ h^5/120


def test_rk4_counts_four_evals():
    tr = ro.AnalyticTransition(dz.make_system("dubins"))
    ro.rk4_step(tr, dk.tensor(np.zeros((1, 3))), dk.tensor(np.ones((1, 2))), 0.1)
    assert tr.nfe == 4


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        ro.rk4_step(lambda x, u: x, dk.tensor(np.ones((1, 1))), None, 0.0)


def test_rk4_nonfinite_aborts():
    f = lambda x, u: dk.tensor(np.full_like(x.data, np.inf))
    with pytest.raises(dk.NumericError):
        ro.rk4_step(f, dk.tensor(np.ones((1, 2))), None, 0.1)


def rk4_chain(f, x, u, h):
    """rk4_step as the chain of primitives that its fused nodes replace."""
    k1 = f(x, u)
    k2 = f(x + (h / 2.0) * k1, u)
    k3 = f(x + (h / 2.0) * k2, u)
    k4 = f(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_value_and_grads(step, f, x0, u0, proj):
    tape = dk.Tape()
    with tape:
        x, u = tape.leaf(x0), tape.leaf(u0)
        y = step(f, x, u, 0.07)
        ops = Counter(node.op for node in tape.nodes)
        out = dk.sum_(y * proj)
    g = dk.grad(out, [x, u])
    return y.data, g[x].data, g[u].data, ops


@pytest.mark.parametrize("system", ["dubins", "cartpole"])
def test_rk4_step_is_bitwise_the_primitive_chain(system, rng):
    spec = dz.make_system(system)
    x0 = rng.uniform(spec.state_box.lo, spec.state_box.hi, size=(64, spec.d))
    u0 = rng.uniform(spec.action_box.lo, spec.action_box.hi, size=(64, spec.m))
    proj = rng.normal(size=x0.shape)
    got = step_value_and_grads(ro.rk4_step, spec.f, x0, u0, proj)
    want = step_value_and_grads(rk4_chain, spec.f, x0, u0, proj)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    # three stage inputs and the combine are one "add" node each, and no
    # mul node outside the four evaluations of f remains
    f_ops = step_value_and_grads(lambda f, x, u, h: f(x, u), spec.f, x0, u0, proj)[3]
    assert got[3]["add"] == 4 * f_ops["add"] + 4
    assert got[3]["mul"] == 4 * f_ops["mul"]
    assert want[3]["add"] == 4 * f_ops["add"] + 7


def test_rk4_nodes_match_central_differences(rng):
    ops = [rng.normal(size=(3, 2)) for _ in range(5)]
    proj = rng.normal(size=(3, 2))
    cases = [
        (lambda x, k: dk.axpy(x, 0.3, k), ops[:2]),
        (lambda x, k1, k2, k3, k4: dk.rk4_combine(x, 0.3, k1, k2, k3, k4), ops),
    ]
    for fn, arrays in cases:
        tape = dk.Tape()
        with tape:
            leaves = [tape.leaf(a) for a in arrays]
            out = dk.sum_(fn(*leaves) * proj)
        grads = dk.grad(out, leaves)
        for i, leaf in enumerate(leaves):
            def at(v, i=i):
                args = [v if j == i else a for j, a in enumerate(arrays)]
                return float((fn(*[dk.tensor(a) for a in args]).data * proj).sum())
            assert rel_err(grads[leaf].data, fd_grad(at, arrays[i], h=1e-6)) < 1e-7


def test_dubins_full_circle_returns_to_start():
    spec = dz.make_system("dubins")
    tr = ro.AnalyticTransition(spec)
    u = dk.tensor(np.array([[1.0, 1.0]]))  # psi rate 1 -> period 2*pi
    x = dk.tensor(np.array([[0.3, -0.2, 0.1]]))
    h = 1e-3
    steps = int(round(2 * np.pi / h))
    y = x
    for _ in range(steps):
        y = ro.rk4_step(tr, y, u, h)
    # land on the remainder of the period with one fractional step
    rem = 2 * np.pi - steps * h
    if rem > 1e-12:
        y = ro.rk4_step(tr, y, u, rem)
    assert np.max(np.abs(y.data[:, :2] - x.data[:, :2])) < 1e-6


def test_rk4_convergence_order_on_dubins():
    spec = dz.make_system("dubins", {"tf": 1.0})
    tr = ro.AnalyticTransition(spec)
    ctrl = constant_controller([0.9, 0.7])
    x0 = np.array([[0.0, 0.0, 0.2]])
    ref = ro.rollout(spec, tr, ctrl, x0, K=4096).states[-1].data

    errs = []
    for K in [10, 20, 40]:
        end = ro.rollout(spec, tr, ctrl, x0, K=K).states[-1].data
        errs.append(np.max(np.abs(end - ref)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5


# -- rollout --------------------------------------------------------------------


def zero_value(x, t):
    b, d = x.shape
    return dk.tensor(np.zeros(b)), dk.tensor(np.zeros(b)), dk.tensor(np.zeros((b, d)))


def checked_loss_cost(spec, traj) -> float:
    """``hjbtrain.loss_cost`` of a trajectory, checked against the mean of
    h * sum_k L(x_k, u_k) + G(x_K) summed step by step from its states and
    controls."""
    ev = hj.grid_hamiltonian(zero_value, traj, ro.AnalyticTransition(spec), spec)
    got = hj.loss_cost(ev, traj, spec).item()
    h = spec.tf / traj.steps
    integral = sum(h * spec.running_cost(x.data, u.data).data
                   for x, u in zip(traj.states, traj.controls))
    want = np.mean(integral + spec.terminal_cost(traj.states[-1].data).data)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    return got


def test_zero_controller_constant_trajectory_zero_cost():
    spec = dz.make_system("dubins")
    tr = ro.AnalyticTransition(spec)
    x0 = np.array([[1.0, 2.0, 0.5], [-1.0, 0.0, -0.3]])
    traj = ro.rollout(spec, tr, zero_controller(2), x0, K=20)
    assert np.allclose(traj.states_array, x0[:, None, :])
    # no running cost: what remains is G(x0)
    assert abs(checked_loss_cost(spec, traj) - spec.terminal_cost(x0).data.mean()) < 1e-12


def test_initial_states_preserved_and_grid_uniform():
    spec = dz.make_system("dubins")
    tr = ro.AnalyticTransition(spec)
    x0 = np.array([[0.0, 0.0, 0.0]])
    traj = ro.rollout(spec, tr, constant_controller([0.5, 0.1]), x0, K=25)
    assert np.array_equal(traj.states[0].data, x0)
    hs = np.diff(traj.times)
    assert np.allclose(hs, spec.tf / 25)


def test_single_step_rollout_equals_rk4_plus_quadrature():
    spec = dz.make_system("dubins")
    tr = ro.AnalyticTransition(spec)
    x0 = np.array([[0.2, -0.1, 0.4]])
    u = [0.7, -0.5]
    traj = ro.rollout(spec, tr, constant_controller(u), x0, K=1)
    h = spec.tf
    want = ro.rk4_step(tr, dk.tensor(x0), dk.tensor(np.array([u])), h).data
    assert np.allclose(traj.states[-1].data, want)
    l0 = spec.running_cost(x0, np.array([u])).data
    assert np.allclose(checked_loss_cost(spec, traj), h * l0 + spec.terminal_cost(want).data)


def test_rollout_rejects_wrong_dim():
    spec = dz.make_system("dubins")
    # a wrong state dim, and one start that is not a (1, d) batch
    for x0 in (np.zeros((2, 5)), np.zeros(3), np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match=r"expected \(B, 3\)"):
            ro.rollout(spec, ro.AnalyticTransition(spec), zero_controller(2), x0, K=3)


def test_rollout_gradient_matches_fd():
    spec = dz.make_system("dubins", {"tf": 1.5})
    tr = ro.AnalyticTransition(spec)
    net = nz.controller_net(3, spec.action_box.lo, spec.action_box.hi,
                            hidden=(6,), seed=1)
    x0 = np.array([[-1.0, 0.5, 0.2]])

    def terminal_cost_of(params):
        traj = ro.rollout(spec, tr, net.with_params(params), x0, K=10)
        return spec.terminal_cost(traj.states[-1])

    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(p) for p in net.params()]
        cost = dk.sum_(terminal_cost_of(leaves))
    grads = dk.grad(cost, leaves)

    p0 = net.params()
    h = 1e-6
    checked = 0
    for li in [0, 2]:
        idx = (0, 0) if p0[li].ndim == 2 else (0,)
        pp = [p.copy() for p in p0]
        pm = [p.copy() for p in p0]
        pp[li][idx] += h
        pm[li][idx] -= h

        def value(ps):
            ctrl = lambda x: nz.forward(net.with_params(ps), x)
            traj = ro.rollout(spec, tr, ctrl, x0, K=10)
            return float(spec.terminal_cost(traj.states[-1]).data[0])

        want = (value(pp) - value(pm)) / (2 * h)
        got = grads[leaves[li]].data[idx]
        if abs(want) > 1e-8:
            assert abs(got - want) / abs(want) < 1e-3
            checked += 1
    assert checked >= 1


def test_nfe_accounting():
    spec = dz.make_system("dubins")
    tr = ro.AnalyticTransition(spec)
    ctrl = constant_controller([0.5, 0.0])
    x0 = np.zeros((4, 3))
    traj = ro.rollout(spec, tr, ctrl, x0, K=30)
    assert traj.nfe == 4 * 30
    assert tr.nfe == 4 * 30
    for _ in range(4):
        ro.rollout(spec, tr, ctrl, x0, K=30)
    assert tr.nfe == 4 * 30 * 5


def test_learned_transition_dim_check_and_counting():
    spec = dz.make_system("dubins")
    net = nz.dynamics_net(3, 2, hidden=(8,), seed=0)
    lt = ro.LearnedTransition(net, 3, 2)
    with pytest.raises(ValueError):
        ro.LearnedTransition(net, 4, 2)
    base = ro.learned_nfe_total()
    ro.rollout(spec, lt, constant_controller([0.3, 0.1]), np.zeros((2, 3)), K=5)
    assert lt.nfe == 20
    assert ro.learned_nfe_total() - base == 20


def test_identical_code_path_for_analytic_and_injected_learned():
    spec = dz.make_system("dubins")
    analytic = ro.AnalyticTransition(spec)

    class Injected:
        def __call__(self, x, u):
            return spec.f(x, u)

    ctrl = constant_controller([0.8, -0.4])
    x0 = np.array([[0.1, 0.2, -0.3], [1.0, -1.0, 2.0]])
    t1 = ro.rollout(spec, analytic, ctrl, x0, K=40)
    t2 = ro.rollout(spec, Injected(), ctrl, x0, K=40)
    assert np.array_equal(t1.states_array, t2.states_array)
    assert np.array_equal(t1.controls_array, t2.controls_array)


def test_controls_stay_inside_action_box():
    spec = dz.make_system("dubins")
    net = nz.controller_net(3, spec.action_box.lo, spec.action_box.hi, seed=3)
    traj = ro.rollout(spec, ro.AnalyticTransition(spec), net,
                      np.random.default_rng(0).uniform(-2, 2, (8, 3)), K=15)
    us = traj.controls_array
    assert np.all(us[:, :, 0] >= 0.0) and np.all(us[:, :, 0] <= 1.0)
    assert np.all(np.abs(us[:, :, 1]) <= 1.0)


def test_rollout_abort_names_step():
    spec = dz.make_system("dubins")

    class Exploding:
        calls = 0

        def __call__(self, x, u):
            Exploding.calls += 1
            if Exploding.calls > 10:
                return dk.tensor(np.full_like(x.data, np.nan))
            return spec.f(x, u)

    with pytest.raises(dk.NumericError, match="step 2"):
        ro.rollout(spec, Exploding(), constant_controller([0.5, 0.5]),
                   np.zeros((1, 3)), K=5)


# -- export ----------------------------------------------------------------------


def test_export_reintegrates_to_cost_integral(tmp_path):
    obstacles = [[[-1.0, 0.0], 0.5]]
    spec = dz.make_system("dubins", {"obstacles": obstacles})
    controller = nz.controller_net(spec.d, spec.action_box.lo, spec.action_box.hi,
                                   hidden=(8,), seed=0)
    nz.save(controller, tmp_path / "controller.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"system": {"name": "dubins", "overrides": {"obstacles": obstacles}},
                                  "hjb": {"K": 40}}))
    assert cli.main(["rollout", "--config", str(config), "--outdir", str(tmp_path),
                     "--controller", str(tmp_path / "controller.json"),
                     "--x0=-2,0.5,0"]) == cli.EXIT_OK
    traj = ro.rollout(spec, ro.AnalyticTransition(spec), controller,
                      np.array([[-2.0, 0.5, 0.0]]), K=40)
    with open(tmp_path / "rollout_0000.csv") as fh:
        assert fh.readline().startswith("#")
        rows = list(csv.DictReader(fh))
    assert len(rows) == 41
    rates = [float(r["running_cost"]) for r in rows if r["running_cost"] != ""]
    assert len(rates) == 40
    h = spec.tf / 40
    g = spec.terminal_cost(traj.states[-1].data).data[0]
    assert abs(sum(rates) * h + g - checked_loss_cost(spec, traj)) < 1e-8
    man = json.loads((tmp_path / "rollout_manifest.json").read_text())
    assert man["nfe"] == traj.nfe and man["system"] == "dubins"


def test_export_fills_running_cost_with_one_call(tmp_path, monkeypatch):
    # one call on the K steps stacked gives each row the rate of its own step
    spec = dz.make_system("dubins", {"obstacles": [[[-1.0, 0.0], 0.5]]})
    controller = nz.controller_net(spec.d, spec.action_box.lo, spec.action_box.hi,
                                   hidden=(8,), seed=0)
    x0 = np.array([[-2.0, 0.5, 0.0], [-1.5, 0.0, 0.3], [-3.0, -1.0, -0.2]])
    traj = ro.rollout(spec, ro.AnalyticTransition(spec), controller, x0, K=20)
    per_step = [spec.running_cost(x.data, u.data).data
                for x, u in zip(traj.states, traj.controls)]
    calls = []
    running_cost = dz.SystemSpec.running_cost

    def counted(self, x, u):
        calls.append(np.shape(x))
        return running_cost(self, x, u)

    monkeypatch.setattr(dz.SystemSpec, "running_cost", counted)
    paths = cli._write_trajectories(traj, spec, tmp_path, "traj", "header", {})
    assert calls == [(20 * 3, 3)]
    for b, path in enumerate(paths):
        with open(path) as fh:
            assert fh.readline().startswith("#")
            rows = list(csv.DictReader(fh))
        assert [float(r["running_cost"]) for r in rows[:-1]] == [r[b] for r in per_step]
        assert rows[-1]["running_cost"] == ""
