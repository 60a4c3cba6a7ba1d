import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from hjbctrl import dynzoo as dz

from conftest import fd_grad, rel_err

ALL_SYSTEMS = dz.system_names()


def interior_points(spec, n, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = spec.state_box.lo, spec.state_box.hi
    x = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), size=(n, spec.d))
    alo, ahi = spec.action_box.lo, spec.action_box.hi
    u = rng.uniform(alo + 0.1 * (ahi - alo), ahi - 0.1 * (ahi - alo), size=(n, spec.m))
    return x, u


def fd_jacobians(spec, x, u, h=1e-6):
    n = x.shape[0]
    jx = np.zeros((n, spec.d, spec.d))
    ju = np.zeros((n, spec.d, spec.m))
    for i in range(spec.d):
        xp, xm = x.copy(), x.copy()
        xp[:, i] += h
        xm[:, i] -= h
        jx[:, :, i] = (spec.f(xp, u).data - spec.f(xm, u).data) / (2 * h)
    for i in range(spec.m):
        up, um = u.copy(), u.copy()
        up[:, i] += h
        um[:, i] -= h
        ju[:, :, i] = (spec.f(x, up).data - spec.f(x, um).data) / (2 * h)
    return jx, ju


# -- dubins -------------------------------------------------------------------


def test_dubins_forward_examples():
    spec = dz.make_system("dubins")
    out = spec.f(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 0.0]])).data
    assert np.allclose(out, [[1.0, 0.0, 0.0]])
    out = spec.f(np.array([[0.0, 0.0, np.pi / 2]]), np.array([[2.0, 1.0]])).data
    assert np.allclose(out, [[0.0, 2.0, 2.0]], atol=1e-12)


def test_dubins_action_jacobian_example():
    spec = dz.make_system("dubins")
    jac = spec.jac(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert np.allclose(jac.data[0, :, 3:], [[1, 0], [0, 0], [0, 1]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dubins_f_casts_no_constant(dtype):
    # 1 / turn_radius is lifted once per dtype by the maker, not per call
    spec = dz.make_system("dubins", {"turn_radius": 0.7})
    x, u = np.ones((4, 3), dtype), np.ones((4, 2), dtype)
    casts = []

    def count(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "astype":
            casts.append(arg)

    sys.setprofile(count)
    try:
        out = spec.f(x, u).data
    finally:
        sys.setprofile(None)
    assert casts == []
    assert out.dtype == np.dtype(dtype) and out[0, 2] == dtype(1.0 / 0.7)


def test_dubins_arc_closed_form_vs_integration():
    # constant control traces a circle of radius v/(alpha v / r) = r/alpha
    spec = dz.make_system("dubins")
    v, alpha, r = 0.8, 0.5, spec.params["turn_radius"]
    omega = alpha * v / r
    psi0 = 0.3
    x = np.array([[0.2, -0.4, psi0]])
    u = np.array([[v, alpha]])
    T, steps = 2.0, 2000
    h = T / steps
    xs = x.copy()
    for _ in range(steps):
        k1 = spec.f(xs, u).data
        k2 = spec.f(xs + h / 2 * k1, u).data
        k3 = spec.f(xs + h / 2 * k2, u).data
        k4 = spec.f(xs + h * k3, u).data
        xs = xs + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    psi_T = psi0 + omega * T
    want = np.array([
        x[0, 0] + (v / omega) * (np.sin(psi_T) - np.sin(psi0)),
        x[0, 1] - (v / omega) * (np.cos(psi_T) - np.cos(psi0)),
        psi_T,
    ])
    assert np.max(np.abs(xs[0] - want)) < 1e-8


# -- cartpole / acrobot --------------------------------------------------------


def test_cartpole_hanging_rest_is_equilibrium():
    spec = dz.make_system("cartpole")
    out = spec.f(np.array([[0.0, 0.0, np.pi, 0.0]]), np.array([[0.0]])).data
    assert np.allclose(out, 0.0, atol=1e-12)


def test_cartpole_upright_rest_is_equilibrium_too():
    spec = dz.make_system("cartpole")
    out = spec.f(np.zeros((1, 4)), np.zeros((1, 1))).data
    assert np.allclose(out, 0.0, atol=1e-12)


def cartpole_energy(spec, x):
    # uniform pole of length 2*l: E = kinetic (cart + pole) + m g l cos(phi)
    p = spec.params
    mc, mp, lp, g = p["cart_mass"], p["pole_mass"], p["pole_half_length"], p["gravity"]
    pd, phi, phid = x[:, 1], x[:, 2], x[:, 3]
    kinetic = (
        0.5 * (mc + mp) * pd**2
        + mp * lp * pd * phid * np.cos(phi)
        + 0.5 * (4.0 / 3.0) * mp * lp**2 * phid**2
    )
    return kinetic + mp * g * lp * np.cos(phi)


def test_cartpole_unforced_energy_conservation():
    spec = dz.make_system("cartpole")
    x = np.array([[0.1, 0.3, 2.0, -0.4]])
    u = np.zeros((1, 1))
    e0 = cartpole_energy(spec, x)
    h, steps = 1e-3, 1000  # one second
    for _ in range(steps):
        k1 = spec.f(x, u).data
        k2 = spec.f(x + h / 2 * k1, u).data
        k3 = spec.f(x + h / 2 * k2, u).data
        k4 = spec.f(x + h * k3, u).data
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    e1 = cartpole_energy(spec, x)
    assert abs(e1 - e0) / abs(e0) < 1e-6


def test_acrobot_straight_down_rest_is_equilibrium():
    spec = dz.make_system("acrobot")
    out = spec.f(np.zeros((1, 4)), np.zeros((1, 1))).data
    assert np.allclose(out, 0.0, atol=1e-12)


# -- quadrotor -----------------------------------------------------------------


def test_quadrotor_hover_equilibrium():
    spec = dz.make_system("quadrotor")
    mass, g = spec.params["mass"], spec.params["gravity"]
    x = np.zeros((1, 12))
    u = np.array([[mass * g, 0.0, 0.0, 0.0]])
    assert np.allclose(spec.f(x, u).data, 0.0, atol=1e-12)


def test_quadrotor_free_fall():
    spec = dz.make_system("quadrotor")
    g = spec.params["gravity"]
    out = spec.f(np.zeros((1, 12)), np.zeros((1, 4))).data
    want = np.zeros(12)
    want[8] = -g
    assert np.allclose(out[0], want)


def test_quadrotor_states_stay_off_the_pitch_singularity():
    # the ZYX Euler chart is singular at pitch +-pi/2; the state box, and so
    # every sampled state, keeps pitch within +-pi/3
    spec = dz.make_system("quadrotor")
    pitch = dz.sample_dataset(spec, 500, seed=0).x[:, 4]
    assert np.all(np.abs(pitch) <= np.pi / 3)


# -- jacobian invariant across every system ------------------------------------


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_analytic_jacobians_match_finite_differences(name):
    spec = dz.make_system(name)
    x, u = interior_points(spec, 1000, seed=12)
    jac = spec.jac(x, u).data
    fjx, fju = fd_jacobians(spec, x, u)
    scale_x = max(1.0, np.abs(fjx).max())
    scale_u = max(1.0, np.abs(fju).max())
    assert np.abs(jac[:, :, :spec.d] - fjx).max() / scale_x < 1e-5
    assert np.abs(jac[:, :, spec.d:] - fju).max() / scale_u < 1e-5


# -- costs ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["dubins", "cartpole", "acrobot", "quadrotor"])
def test_costs_nonnegative_and_zero_at_goal(name):
    spec = dz.make_system(name)
    x, u = interior_points(spec, 200, seed=5)
    assert np.all(spec.running_cost(x, u).data >= 0.0)
    assert np.all(spec.terminal_cost(x).data >= 0.0)
    goal = spec.x_star[None, :]
    assert spec.terminal_cost(goal).data[0] == 0.0
    # running cost at u* vanishes away from obstacles (no state running term)
    assert np.allclose(spec.running_cost(x, np.tile(spec.u_star, (200, 1))).data, 0.0)
    grad_g = fd_grad(lambda v: float(spec.terminal_cost(v[None, :]).data[0]), spec.x_star)
    assert np.allclose(grad_g, 0.0, atol=1e-6)


# -- obstacles -------------------------------------------------------------------


def test_obstacle_penalty_values():
    obs = (dz.Obstacle(np.array([0.0, 0.0]), 0.5),)
    pen = dz.obstacle_penalty(np.array([[0.0, 0.0, 0.0]]), obs, c_obs=100.0, margin=0.1)
    assert np.allclose(pen.data, 36.0)
    far = dz.obstacle_penalty(np.array([[3.0, 3.0, 0.0]]), obs, c_obs=100.0, margin=0.1)
    assert far.data[0] == 0.0


def test_obstacle_penalty_gradient_matches_fd():
    obs = (dz.Obstacle(np.array([-1.0, 0.0]), 0.5),)
    for pt in [np.array([-0.6, 0.2, 0.4]), np.array([-1.3, -0.1, 0.0])]:
        ref = fd_grad(
            lambda v: float(dz.obstacle_penalty(v[None, :], obs).data[0]), pt
        )
        from hjbctrl import diffkit as dk

        tape = dk.Tape()
        with tape:
            leaf = tape.leaf(pt[None, :])
            pen = dk.sum_(dz.obstacle_penalty(leaf, obs))
        got = dk.grad(pen, [leaf])[leaf].data[0]
        assert rel_err(got, ref) < 1e-6


# -- datasets ---------------------------------------------------------------------


def test_sample_dataset_within_boxes_and_deterministic():
    spec = dz.make_system("cartpole")
    a = dz.sample_dataset(spec, 500, seed=4)
    b = dz.sample_dataset(spec, 500, seed=4)
    for v, box in ((a.x, spec.state_box), (a.u, spec.action_box)):
        assert np.all((box.lo <= v) & (v <= box.hi))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.jac, b.jac)
    c = dz.sample_dataset(spec, 500, seed=5)
    assert not np.array_equal(a.x, c.x)


def test_sample_dataset_mean_near_box_midpoint():
    spec = dz.make_system("dubins")
    n = 100_000
    ds = dz.sample_dataset(spec, n, seed=9)
    lo, hi = spec.state_box.lo, spec.state_box.hi
    mid = 0.5 * (lo + hi)
    sigma = (hi - lo) / np.sqrt(12.0) / np.sqrt(n)
    assert np.all(np.abs(ds.x.mean(axis=0) - mid) < 3 * sigma)


def test_sample_dataset_rejects_empty():
    with pytest.raises(ValueError):
        dz.sample_dataset(dz.make_system("dubins"), 0, seed=0)


# -- registry ----------------------------------------------------------------------


def test_unknown_system_raises():
    with pytest.raises(ValueError, match="unknown system 'walker2d'"):
        dz.make_system("walker2d")


def test_unknown_parameter_raises():
    with pytest.raises(ValueError, match=r"unknown parameter\(s\) for dubins: \['wheelbase'\]"):
        dz.make_system("dubins", {"wheelbase": 2.0})


def test_parameter_overrides_apply():
    spec = dz.make_system("dubins", {"v_max": 2.5, "tf": 9.0})
    assert spec.action_box.hi[0] == 2.5
    assert spec.tf == 9.0
    spec = dz.make_system("dubins", {"obstacles": [[[-1.0, 0.0], 0.5]]})
    assert len(spec.obstacles) == 1 and spec.obstacles[0].radius == 0.5
    # cost arrays given as JSON lists of ints come back as float arrays
    lists = {"P": [[2, 0, 0], [0, 2, 0], [0, 0, 0]], "R": [[1, 0], [0, 1]],
             "Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "x_star": [1, 2, 0], "u_star": [0, 1]}
    spec = dz.make_system("dubins", lists)
    for key, value in lists.items():
        got = getattr(spec, key)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert np.array_equal(got, value)
    # an integer tf stays a float
    spec = dz.make_system("cartpole", {"tf": 4})
    assert type(spec.tf) is float and type(spec.params["tf"]) is float and spec.tf == 4.0
    # obstacles and a physical parameter in one dict both apply
    spec = dz.make_system("dubins", {"obstacles": [[[-1, 0], 0.5], [[1, 1], 1]],
                                     "turn_radius": 2.0})
    assert spec.params["turn_radius"] == 2.0
    assert np.allclose(spec.f(np.zeros((1, 3)), np.array([[1.0, 1.0]])).data, [[1.0, 0.0, 0.5]])
    assert [o.radius for o in spec.obstacles] == [0.5, 1.0]
    assert spec.obstacles[1].center.dtype == np.float64
    assert np.array_equal(spec.obstacles[1].center, [1.0, 1.0])
    # gravity alone may be <= 0; at rest and unforced, a negated g negates f
    spec = dz.make_system("cartpole", {"gravity": -9.8})
    assert spec.params["gravity"] == -9.8
    x, u = np.array([[0.0, 0.0, 0.3, 0.0]]), np.zeros((1, 1))
    assert np.allclose(spec.f(x, u).data, -dz.make_system("cartpole").f(x, u).data)
    # the quadrotor's goal position is the position part of x_star
    x_star = [1.0, 2.0, 0.5] + [0.0] * 9
    spec = dz.make_system("quadrotor", {"x_star": x_star})
    assert np.array_equal(spec.x_star[spec.position_slice], [1.0, 2.0, 0.5])
    assert np.array_equal(dz.make_system("quadrotor").x_star[:3], [3.0, 3.0, 3.0])


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_every_parameter_changes_the_system(name):
    """Raising any default parameter changes f on a fixed batch or a field
    of the spec, so no parameter is accepted and then ignored."""
    base = dz.make_system(name)
    rng = np.random.default_rng(0)
    x, u = base.state_box.sample(rng, 16), base.action_box.sample(rng, 16)

    def spec_fields(spec):
        with np.printoptions(precision=17):
            return [repr(getattr(spec, f.name)) for f in fields(dz.SystemSpec)
                    if f.name not in ("f", "jac", "params")]

    for key, value in base.params.items():
        raised = dz.make_system(name, {key: np.add(value, 0.5).tolist()})
        assert (not np.array_equal(raised.f(x, u).data, base.f(x, u).data)
                or spec_fields(raised) != spec_fields(base)), f"{name}: {key} changes nothing"


@pytest.mark.parametrize("name", ["cartpole", "acrobot", "lq1d"])
def test_obstacles_need_a_planar_position(name):
    with pytest.raises(ValueError, match="planar position"):
        dz.make_system(name, {"obstacles": [[[0.0, 0.0], 0.5]]})
    assert dz.make_system(name, {"obstacles": []}).obstacles == ()



# each system's cost as literals: what its maker states, and the standard
# cost (x* = 0, u* = 0, P = I, R = 0.01 I, no Q) for what it does not
COSTS = {
    "dubins": dict(x_star=[0.0, 0.0, 0.0], u_star=[0.0, 0.0],
                   P=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                   R=[[0.01, 0.0], [0.0, 0.01]], Q=None),
    "cartpole": dict(x_star=[0.0, 0.0, 0.0, 0.0], u_star=[0.0],
                     P=[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]], R=[[0.01]], Q=None),
    "acrobot": dict(x_star=[np.pi, 0.0, 0.0, 0.0], u_star=[0.0],
                    P=[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0]], R=[[0.01]], Q=None),
    "quadrotor": dict(x_star=[3.0, 3.0, 3.0] + [0.0] * 9, u_star=[9.81, 0.0, 0.0, 0.0],
                      P=[[float(i == j) for j in range(12)] for i in range(12)],
                      R=[[0.01, 0.0, 0.0, 0.0], [0.0, 0.01, 0.0, 0.0], [0.0, 0.0, 0.01, 0.0],
                         [0.0, 0.0, 0.0, 0.01]], Q=None),
    "lq1d": dict(x_star=[0.0], u_star=[0.0], P=[[0.0]], R=[[1.0]], Q=[[1.0]]),
}


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_each_system_has_its_stated_cost(name):
    spec = dz.make_system(name)
    for key, want in COSTS[name].items():
        got = getattr(spec, key)
        if want is None:
            assert got is None, key
        else:
            assert got.dtype == np.float64 and np.array_equal(got, want), key


@pytest.mark.parametrize("name, d, m", [("dubins", 3, 2), ("cartpole", 4, 1), ("acrobot", 4, 1),
                                        ("quadrotor", 12, 4), ("lq1d", 1, 1)])
def test_name_is_the_key_and_dimensions_are_the_boxes(name, d, m):
    spec = dz.make_system(name)
    assert (spec.name, spec.d, spec.m) == (name, d, m)
    assert (spec.state_box.dim, spec.action_box.dim) == (d, m)


def test_a_start_distribution_of_another_dimension_is_refused():
    spec = dz.make_system("dubins")
    with pytest.raises(ValueError, match=r"rho has dim 2, system 'dubins' has d=3"):
        replace(spec, rho=dz.Box(np.zeros(2), np.ones(2)))
    with pytest.raises(ValueError, match=r"rho has dim 4, system 'dubins' has d=3"):
        replace(spec, rho=dz.Gaussian(np.zeros(4), np.ones(4)))
