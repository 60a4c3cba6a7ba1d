import csv
import json
from dataclasses import replace
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


def stepping(f):
    """An analytic transition whose steps integrate f in place of the
    system's dynamics: a step reads nothing of the system but f."""
    return ro.AnalyticTransition(replace(dz.make_system("dubins"), f=f))


# -- rk4_step -------------------------------------------------------------------


def test_rk4_zero_field_is_identity():
    x = dk.tensor(np.array([[1.0, -2.0]]))
    out = ro.rk4_step(stepping(lambda x, u: 0.0 * x), x, np.zeros((1, 0)), 0.1)
    assert np.array_equal(out.data, x.data)


def test_rk4_exponential_oracle():
    # xdot = x from 1.0 over h=0.1: RK4 equals the 4th-order Taylor polynomial
    tr = stepping(lambda x, u: x)
    out = ro.rk4_step(tr, dk.tensor(np.array([[1.0]])), np.zeros((1, 0)), 0.1).data[0, 0]
    taylor4 = 1 + 0.1 + 0.1**2 / 2 + 0.1**3 / 6 + 0.1**4 / 24
    assert abs(out - taylor4) < 1e-12
    assert abs(out - np.exp(0.1)) < 1e-7  # truncation error ~ h^5/120


def test_rk4_counts_four_evals():
    tr = ro.AnalyticTransition(dz.make_system("dubins"))
    ro.rk4_step(tr, dk.tensor(np.zeros((1, 3))), dk.tensor(np.ones((1, 2))), 0.1)
    assert tr.nfe == 4


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        ro.rk4_step(stepping(lambda x, u: x), dk.tensor(np.ones((1, 1))), np.zeros((1, 0)), 0.0)


def test_rk4_nonfinite_aborts():
    tr = stepping(lambda x, u: dk.tensor(np.full_like(x.data, np.inf)))
    with pytest.raises(dk.NumericError):
        ro.rk4_step(tr, dk.tensor(np.ones((1, 2))), np.zeros((1, 0)), 0.1)


def rk4_chain(f, x, u, h):
    """rk4_step as the chain of primitives that its node replaces."""
    k1 = f(x, u)
    k2 = f(x + (h / 2.0) * k1, u)
    k3 = f(x + (h / 2.0) * k2, u)
    k4 = f(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_value_and_grads(step, f, x0, u0, proj, steps=1):
    """The state after ``steps`` steps from leaves x0 and u0, the adjoints
    of x0 and u0 in sum(state * proj), and the tape's nodes by primitive."""
    tape = dk.Tape()
    with tape:
        x, u = tape.leaf(x0), tape.leaf(u0)
        y = x
        for _ in range(steps):
            y = step(f, y, u, 0.07)
        names = Counter(node.name for node in tape.nodes)
        out = dk.sum_(y * proj)
    g = dk.grad(out, [x, u])
    return y.data, g[x].data, g[u].data, names


def system_arrays(spec, rng, dtype, b=16):
    """States from the middle half of the state box (a quadrotor's pitch
    stays off +-pi/2 over a few steps), actions from the action box and a
    projection of the state."""
    x0 = rng.uniform(0.5 * spec.state_box.lo, 0.5 * spec.state_box.hi, size=(b, spec.d))
    u0 = rng.uniform(spec.action_box.lo, spec.action_box.hi, size=(b, spec.m))
    return x0.astype(dtype), u0.astype(dtype), rng.normal(size=(b, spec.d)).astype(dtype)


# the rk4 node's adjoints apply f's Jacobians from forward mode, which round
# unlike the chain's reverse adjoints: measured within 2.7e-16 (float64) and
# 2.4e-7 (float32) of the chain's, relative to its largest entry
RK4_RTOL = {np.float64: 1e-13, np.float32: 1e-5}


def assert_adjoints_close(got, want, rtol):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol * np.abs(b).max())


@pytest.mark.parametrize("system", ["dubins", "cartpole"])
def test_rk4_step_is_bitwise_the_primitive_chain(system, rng):
    spec = dz.make_system(system)
    x0 = rng.uniform(spec.state_box.lo, spec.state_box.hi, size=(64, spec.d))
    u0 = rng.uniform(spec.action_box.lo, spec.action_box.hi, size=(64, spec.m))
    proj = rng.normal(size=x0.shape)
    tr = ro.AnalyticTransition(spec)
    got = step_value_and_grads(ro.rk4_step, tr, x0, u0, proj)
    want = step_value_and_grads(rk4_chain, tr, x0, u0, proj)
    assert np.array_equal(got[0], want[0])
    assert_adjoints_close(got[1:3], want[1:3], RK4_RTOL[np.float64])
    # the step is one node
    assert got[3] == {"leaf": 2, "rk4": 1}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("system", dz.system_names())
def test_rk4_node_is_the_chain_over_three_steps(system, dtype, rng):
    spec = dz.make_system(system)
    x0, u0, proj = system_arrays(spec, rng, dtype)
    tr = ro.AnalyticTransition(spec)
    got = step_value_and_grads(ro.rk4_step, tr, x0, u0, proj, steps=3)
    want = step_value_and_grads(rk4_chain, tr, x0, u0, proj, steps=3)
    assert got[0].dtype == np.dtype(dtype) and np.array_equal(got[0], want[0])
    assert_adjoints_close(got[1:3], want[1:3], RK4_RTOL[dtype])
    assert got[3] == {"leaf": 2, "rk4": 3}


def test_rk4_nodes_match_central_differences(rng):
    # two float64 steps on each system, with respect to x and u
    for system in dz.system_names():
        spec = dz.make_system(system)
        x0, u0, proj = system_arrays(spec, rng, np.float64, b=3)
        tr = ro.AnalyticTransition(spec)

        def value(x, u):
            return dk.sum_(ro.rk4_step(tr, ro.rk4_step(tr, x, u, 0.07), u, 0.07) * proj)

        tape = dk.Tape()
        with tape:
            x, u = tape.leaf(x0), tape.leaf(u0)
            out = value(x, u)
        g = dk.grad(out, [x, u])
        fd_x = fd_grad(lambda v: value(v, u0).item(), x0, h=1e-6)
        fd_u = fd_grad(lambda v: value(x0, v).item(), u0, h=1e-6)
        assert rel_err(g[x].data, fd_x) < 1e-7, system
        assert rel_err(g[u].data, fd_u) < 1e-7, system


@pytest.mark.parametrize("system", dz.system_names())
def test_an_analytic_rollout_records_a_node_per_step_and_linearizes_f_once(system):
    spec = dz.make_system(system)
    calls = []

    def f(x, u):
        calls.append(x.shape[0])
        return spec.f(x, u)

    tr = ro.AnalyticTransition(replace(spec, f=f))
    K, B = 6, 5
    ctrl = nz.controller_net(spec.d, spec.action_box.lo, spec.action_box.hi, hidden=(8,), seed=0)
    x0 = spec.rho.sample(np.random.default_rng(0), B)
    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(p) for p in ctrl.params()]
        traj = ro.rollout(spec, tr, ctrl.with_params(leaves), x0, K=K)
        names = Counter(node.name for node in tape.nodes)
        out = dk.sum_(traj.states[-1])
    assert names["rk4"] == K and names["mlp"] == K
    dk.grad(out, leaves)
    # four untaped evaluations per step, then one linearization call over
    # every stage point on the tape, which is not a transition evaluation
    assert calls == [B] * (4 * K) + [4 * K * B]
    assert tr.nfe == traj.nfe == 4 * K


def test_rk4_refuses_an_f_that_reads_another_tracked_tensor(rng):
    tape = dk.Tape()
    with tape:
        w = tape.leaf(rng.normal(size=(4, 2)))
        x = tape.leaf(rng.normal(size=(4, 2)))
        n = len(tape.nodes)
        # it would drop the gradient of w: through an op, or returned as it is
        for f in (lambda x, u: x * w, lambda x, u: w):
            for x_in in (x, x.data):
                with pytest.raises(dk.DiffkitError, match="f recorded a node on the active tape"):
                    dk.rk4(f, x_in, np.zeros((4, 0)), 0.1)
        assert len(tape.nodes) - n == 2  # the two x * w nodes, and no rk4 node


def test_rk4_refuses_an_f_op_without_a_tangent_rule(rng):
    tape = dk.Tape()
    with tape:
        x = tape.leaf(rng.normal(size=(4, 2)))
        out = dk.sum_(dk.rk4(lambda x, u: dk.tanh(x), x, np.zeros((4, 0)), 0.1))
    with pytest.raises(dk.DiffkitError, match="'tanh' has no tangent rule"):
        dk.grad(out, [x])


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


def checked_loss_cost(spec, controller, traj) -> float:
    """``hjbtrain.loss_cost`` of a controller's trajectory, checked against
    the mean of h * sum_k L(x_k, u_k) + G(x_K) summed step by step from its
    states and controls."""
    ev = hj.grid_hamiltonian(zero_value, controller, traj, ro.AnalyticTransition(spec), spec)
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
    assert np.allclose(traj.state_stack, x0[None])
    # no running cost: what remains is G(x0)
    assert abs(checked_loss_cost(spec, zero_controller(2), traj)
               - spec.terminal_cost(x0).data.mean()) < 1e-12


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
    assert np.allclose(checked_loss_cost(spec, constant_controller(u), traj),
                       h * l0 + spec.terminal_cost(want).data)


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


@pytest.mark.parametrize("net, field", [
    (nz.init(5, (8,), 3, box=([-1.0] * 3, [1.0] * 3), seed=0), "output_transform"),
    (nz.init(5, (8, 8), 3, skip_connections=True, seed=0), "skip_connections"),
], ids=["box", "skip"])
def test_learned_transition_refuses_a_net_it_cannot_run(net, field):
    with pytest.raises(ValueError, match=rf"^{field}: a dynamics net has no"):
        ro.LearnedTransition(net, 3, 2)


def learned_rollout(K, dtype, fused=True):
    """A K-step learned rollout of a small controller, recorded on a tape:
    its states and controls, (B, K+1, d) and (B, K, m), the tape's
    primitives, and the gradients of its final states' sum with respect to
    the controller's weights.  ``fused=False`` steps the transition's own
    call through the primitive chain instead of its one node."""
    spec = dz.make_system("dubins")
    lt = ro.LearnedTransition(nz.dynamics_net(3, 2, hidden=(16, 16), omega0=8.0, seed=0)
                              .astype(dtype), 3, 2)
    ctrl = nz.controller_net(3, spec.action_box.lo, spec.action_box.hi, hidden=(8,),
                             seed=1).astype(dtype)
    x0 = spec.rho.sample(np.random.default_rng(2), 6).astype(dtype)
    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(p) for p in ctrl.params()]
        policy = ctrl.with_params(leaves)
        if fused:
            traj = ro.rollout(spec, lt, policy, x0, K=K)
            states, controls = traj.states, traj.controls
        else:
            states, controls = [dk.tensor(x0)], []
            for _ in range(K):
                controls.append(policy(states[-1]))
                states.append(rk4_chain(lt, states[-1], controls[-1], spec.tf / K))
        names = Counter(node.name for node in tape.nodes if node.op != "leaf")
        out = dk.sum_(states[-1])
    g = dk.grad(out, leaves)
    stacked = [np.stack([t.data for t in ts], axis=1) for ts in (states, controls)]
    return stacked, names, [g[leaf].data for leaf in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_learned_rollout_is_the_primitive_chain(dtype):
    arrays, names, grads = learned_rollout(10, dtype)
    arrays_ref, names_ref, grads_ref = learned_rollout(10, dtype, fused=False)
    for a, a_ref in zip(arrays, arrays_ref, strict=True):
        assert np.array_equal(a, a_ref)
    # the chain sums a state's adjoint contributions in another order
    for g, g_ref in zip(grads, grads_ref, strict=True):
        np.testing.assert_allclose(g, g_ref, rtol=1e-5, atol=1e-5 * np.abs(g_ref).max())
    # one controller evaluation and one node per step
    assert names == {"mlp": 10, "rk4_mlp": 10}
    assert names_ref["mlp"] == 10 + 40 and names_ref["concat"] == 40


def test_learned_rk4_step_gradients_match_central_differences(rng):
    # f_theta is differentiable in theta through the fused step, and in x and u
    net = nz.dynamics_net(3, 2, hidden=(6,), omega0=2.0, seed=0)
    arrays = [rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 2)), *net.params()]
    proj = rng.normal(size=(4, 3))

    def value(args):
        lt = ro.LearnedTransition(net.with_params(args[2:]), 3, 2)
        return dk.sum_(ro.rk4_step(lt, args[0], args[1], 0.2) * proj)

    tape = dk.Tape()
    with tape:
        leaves = [tape.leaf(a) for a in arrays]
        out = value(leaves)
    grads = dk.grad(out, leaves)
    for i, leaf in enumerate(leaves):
        def at(v, i=i):
            return value([v if j == i else a for j, a in enumerate(arrays)]).item()
        assert rel_err(grads[leaf].data, fd_grad(at, arrays[i], h=1e-6)) < 1e-6


def test_controls_stay_inside_action_box():
    spec = dz.make_system("dubins")
    net = nz.controller_net(3, spec.action_box.lo, spec.action_box.hi, seed=3)
    traj = ro.rollout(spec, ro.AnalyticTransition(spec), net,
                      np.random.default_rng(0).uniform(-2, 2, (8, 3)), K=15)
    us = traj.control_stack
    assert np.all(us[:, :, 0] >= 0.0) and np.all(us[:, :, 0] <= 1.0)
    assert np.all(np.abs(us[:, :, 1]) <= 1.0)


def test_evaluation_builds_no_learned_transition(monkeypatch):
    # it scores under the analytic f by construction, whatever f the
    # controller was trained under
    def refuse(*args, **kwargs):
        raise AssertionError("evaluation built a learned transition")

    monkeypatch.setattr(ro.LearnedTransition, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a learned transition"):
        ro.LearnedTransition(nz.dynamics_net(3, 2, hidden=(4,)), 3, 2)
    spec = dz.make_system("dubins")
    controller = nz.controller_net(3, spec.action_box.lo, spec.action_box.hi, hidden=(8,))
    ro.evaluate(spec, controller, 12, seed=0, K=5, threshold=0.15)


def test_rollout_abort_names_step():
    spec = dz.make_system("dubins")
    calls = []

    def exploding(x, u):
        calls.append(x.shape[0])
        if len(calls) > 10:
            return dk.tensor(np.full_like(x.data, np.nan))
        return spec.f(x, u)

    with pytest.raises(dk.NumericError, match="step 2"):
        ro.rollout(spec, ro.AnalyticTransition(replace(spec, f=exploding)),
                   constant_controller([0.5, 0.5]), np.zeros((1, 3)), K=5)


# -- per-start metrics -----------------------------------------------------------


def batch_major_metrics(spec, traj, metric):
    """The per-start metrics as np.linalg.norm reductions of the batch-major
    (B, K+1, d) and (B, K, m) stacks: the reference that the step-major
    column arithmetic of ``_start_metrics`` must repeat bitwise."""
    xs = np.stack([s.data for s in traj.states], axis=1)
    us = np.stack([u.data for u in traj.controls], axis=1)
    h = spec.tf / traj.steps
    te = np.linalg.norm(xs[:, -1, :] - spec.x_star, axis=1)
    cm = np.linalg.norm(us, axis=2).sum(axis=1) * h
    ln = None
    if spec.position_slice is not None:
        pos = xs[:, :, spec.position_slice]
        ln = np.linalg.norm(np.diff(pos, axis=1), axis=2).sum(axis=1)
    if metric == "position":
        final_dist = np.linalg.norm(pos[:, -1, :] - spec.x_star[spec.position_slice], axis=1)
    else:
        final_dist = te
    violations = sum(
        int(np.sum(np.linalg.norm(xs[:, :, 0:2] - obs.center, axis=2).min(axis=1) < obs.radius))
        for obs in spec.obstacles
    )
    return te, cm, ln, final_dist, violations


def assert_same_metrics(got, want):
    for g, w in zip(got, want, strict=True):
        if w is None or isinstance(w, int):
            assert g == w
        else:
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)


def scored_rollout(spec, n=37, K=20, seed=0):
    controller = nz.controller_net(spec.d, spec.action_box.lo, spec.action_box.hi,
                                   hidden=(8,), seed=seed)
    x0 = spec.rho.sample(np.random.default_rng(seed), n)
    return ro.analytic_rollout(spec, controller, x0, K)


SCORED = [(name, metric) for name in dz.system_names() for metric in ro.METRICS
          if metric == "state" or dz.make_system(name).position_slice is not None]


@pytest.mark.parametrize("name, metric", SCORED, ids=[f"{n}-{m}" for n, m in SCORED])
def test_start_metrics_are_the_batch_major_norms_bitwise(name, metric):
    # quadrotor under "state" scores a final error over d = 12, above the
    # width from which numpy sums pairwise
    spec = dz.make_system(name)
    traj = scored_rollout(spec)
    assert_same_metrics(ro._start_metrics(spec, traj, metric),
                        batch_major_metrics(spec, traj, metric))


def test_obstacle_violations_are_the_batch_major_count():
    # the obstacle overlaps the start box, so some starts cross it and some do not
    spec = dz.make_system("dubins", {"obstacles": [[[-2.5, 0.0], 0.7], [[0.0, 0.0], 0.5]]})
    traj = scored_rollout(spec, n=64)
    got = ro._start_metrics(spec, traj, "position")
    assert_same_metrics(got, batch_major_metrics(spec, traj, "position"))
    assert 0 < got[4] < 64


@pytest.mark.parametrize("width", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_norms_are_numpy_norms_bitwise(width, dtype, rng):
    # numpy adds fewer than 8 entries left to right; callers pass at most 4
    a = (rng.standard_normal((21, 300, width)) * rng.uniform(1e-3, 1e3, (21, 300, 1))).astype(dtype)
    got = ro._norms([a[:, :, i] for i in range(width)])
    assert got.dtype == dtype and np.array_equal(got, np.linalg.norm(a, axis=2))


def test_a_chunked_evaluation_reports_the_one_batch_report(monkeypatch):
    spec = dz.make_system("dubins", {"obstacles": [[[-2.5, 0.0], 0.7]]})
    controller = nz.controller_net(spec.d, spec.action_box.lo, spec.action_box.hi,
                                   hidden=(8,), seed=1)
    rollouts = []
    analytic_rollout = ro.analytic_rollout

    def counted(*args):
        rollouts.append(args[2].shape[0])
        return analytic_rollout(*args)

    monkeypatch.setattr(ro, "analytic_rollout", counted)
    reports = []
    # a start holds 3 * 4 * (K+1) * (d+m) bytes: 12 starts a chunk splits 50 into 5
    for chunk_bytes in (16 << 20, 3 * 4 * 11 * 5 * 12):
        monkeypatch.setattr(ro, "_EVAL_CHUNK_BYTES", chunk_bytes)
        report = ro.evaluate(spec, controller, 50, seed=3, K=10, threshold=3.0)
        reports.append(replace(report, compute_time_per_traj_s=0.0))
    assert rollouts == [50, 10, 10, 10, 10, 10]
    assert reports[0] == reports[1]
    assert reports[0].obstacle_violations > 0 and 0 < reports[0].success_rate < 1


def test_evaluation_evaluates_the_controller_once_a_step(monkeypatch):
    # K controller evaluations per chunk of starts: none at the final state
    spec = dz.make_system("dubins")
    controller = nz.controller_net(spec.d, spec.action_box.lo, spec.action_box.hi,
                                   hidden=(8,), seed=1)
    calls = []
    forward = nz.forward
    monkeypatch.setattr(nz, "forward", lambda net, x: calls.append(x.shape[0]) or forward(net, x))
    # a start holds 3 * 4 * (K+1) * (d+m) bytes: 12 starts a chunk splits 50 into 5
    monkeypatch.setattr(ro, "_EVAL_CHUNK_BYTES", 3 * 4 * 11 * 5 * 12)
    ro.evaluate(spec, controller, 50, seed=3, K=10, threshold=3.0)
    assert calls == [10] * (5 * 10)


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
    assert abs(sum(rates) * h + g - checked_loss_cost(spec, controller, traj)) < 1e-8
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
