"""Analytic benchmark systems: dynamics, costs, obstacles.

A system supplies only its dynamics f, written against the diffkit op set,
so the same code evaluates eagerly on plain arrays (dataset generation,
test-time rollouts) and participates in a tape during training with an
analytic transition.  The running cost L and terminal cost G are defined
once, on :class:`SystemSpec`, in the same op set.  No derivative is written
by hand: forward-mode tangents derive the Jacobian [df/dx, df/du]
(:func:`jacobian`), stacked as one (B, d, d+m) array, the layout of a
network's input-Jacobian over z = [x, u], and the u-gradient of any batched
scalar such as L or v . f (:func:`grad_u`).
Everything works on batches: x is (B, d), u is (B, m).

Registered systems: dubins, cartpole, acrobot, quadrotor, lq1d.  A system's
physical parameters are the keywords of its maker, ``_make_<name>``, with
their defaults; :func:`make_system` checks every value, default or override,
in one place: each is finite and > 0, except ``gravity``, which may have
any sign (the quadrotor's maker needs it > 0).
Conventions:
  cartpole  x = [p, p_dot, phi, phi_dot], phi = 0 upright, phi = pi hanging
  acrobot   x = [q1, q2, q1_dot, q2_dot], q1 = 0 hanging, q1 = pi upright,
            torque at the elbow (second joint)
  quadrotor x = [p(3), rpy(3), v(3), omega(3)] with ZYX Euler angles
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import diffkit as dk
from .diffkit import Tensor


class DynamicsError(Exception):
    """Checked-mode violation (input outside its box)."""


def _check_finite(kind: str, **fields: np.ndarray) -> None:
    """ValueError naming the first field with a non-finite entry."""
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{kind} {name} must be finite, got {value.tolist()}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with per-coordinate [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        _check_finite("box", lo=self.lo, hi=self.hi)
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ValueError("box needs elementwise lo < hi")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def contains(self, x: np.ndarray, atol: float = 1e-9) -> bool:
        return bool(np.all(x >= self.lo - atol) and np.all(x <= self.hi + atol))


@dataclass(frozen=True)
class Gaussian:
    """Independent normal coordinates; a zero std pins a coordinate."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        _check_finite("gaussian", mean=self.mean, std=self.std)
        if self.mean.shape != self.std.shape or np.any(self.std < 0):
            raise ValueError("gaussian needs mean and std of one shape, std >= 0")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + self.std * rng.standard_normal((n, self.dim))


@dataclass(frozen=True)
class Obstacle:
    center: np.ndarray  # planar position
    radius: float

    def __post_init__(self):
        if self.center.shape != (2,) or not 0.0 < self.radius < np.inf:
            raise ValueError(f"obstacles need a center [x, y] and a radius > 0, got {self}")


@dataclass(frozen=True)
class SystemSpec:
    """One benchmark system: dimensions, boxes, dynamics, cost data, and the
    start distribution ``rho`` that training and evaluation sample x0 from.

    ``jac(x, u) -> [df/dx, df/du]``, stacked as (B, d, d+m), defaults to the
    Jacobian derived from ``f``; a system needs to set it only to override
    that derivation.
    """

    name: str
    d: int
    m: int
    state_box: Box
    action_box: Box
    f: Callable[[Tensor, Tensor], Tensor]
    x_star: np.ndarray
    u_star: np.ndarray
    P: np.ndarray
    R: np.ndarray
    rho: Box | Gaussian
    jac: Callable[[Tensor, Tensor], Tensor] | None = None
    tf: float = 6.0
    Q: np.ndarray | None = None  # optional state running-cost weight
    obstacles: tuple[Obstacle, ...] = ()
    position_slice: slice | None = None  # planar/3D position coords, if meaningful
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        d, m = self.d, self.m
        for key, shape in (("P", (d, d)), ("R", (m, m)), ("Q", (d, d)), ("x_star", (d,)),
                           ("u_star", (m,))):
            value = getattr(self, key)
            if value is not None and value.shape != shape:
                raise ValueError(f"{key} must be {shape} for '{self.name}', got {value.shape}")
        # derive jac from f, again when replace() swaps f but not jac
        jac = self.jac
        if jac is None or (isinstance(jac, partial) and jac.func is jacobian
                           and jac.args[0] is not self.f):
            object.__setattr__(self, "jac", partial(jacobian, self.f))

    def validate(self, x: np.ndarray, u: np.ndarray) -> None:
        """Checked-mode input validation; raises DynamicsError on violation."""
        if not self.action_box.contains(u):
            raise DynamicsError(f"{self.name}: action outside its box")
        if not self.state_box.contains(x):
            raise DynamicsError(f"{self.name}: state outside its box")

    # -- cost pieces (all taped-compatible) ---------------------------------

    def running_cost(self, x, u) -> Tensor:
        """L(x, u) = (u - u*)' R (u - u*) [+ (x - x*)' Q (x - x*)] + obstacle penalty."""
        du = dk.tensor(u) - self.u_star
        val = dk.quadform(du, self.R)
        if self.Q is not None:
            dx = dk.tensor(x) - self.x_star
            val = val + dk.quadform(dx, self.Q)
        if self.obstacles:
            val = val + obstacle_penalty(x, self.obstacles)
        return val

    def terminal_cost(self, x) -> Tensor:
        """G(x) = (x - x*)' P (x - x*)."""
        dx = dk.tensor(x) - self.x_star
        return dk.quadform(dx, self.P)


def obstacle_penalty(x, obstacles, c_obs: float = 100.0, margin: float = 0.1) -> Tensor:
    """Soft obstacle cost: sum over obstacles of c * relu(r_safe - dist)^2.

    Quadratic in the clearance violation, hence C^1; exactly zero at planar
    distance >= radius + margin.
    """
    x = dk.tensor(x)
    pos = x[:, 0:2]
    total = None
    for obs in obstacles:
        delta = pos - np.asarray(obs.center, dtype=np.float64)
        dist = dk.l2norm(delta, axis=1)
        gap = dk.relu((obs.radius + margin) - dist)
        term = c_obs * dk.square(gap)
        total = term if total is None else total + term
    if total is None:
        return dk.tensor(np.zeros(x.shape[0]))
    return total


# ---------------------------------------------------------------------------
# Jacobians and assembly
# ---------------------------------------------------------------------------


def jacobian(f: Callable, x, u) -> Tensor:
    """[df/dx, df/du] of a batched f, stacked as (B, d, d+m), from d + m
    forward-mode tangent directions (taped under an active tape)."""
    x, u = dk.tensor(x), dk.tensor(u)
    b, d = x.shape
    m = u.shape[1]
    eye = np.eye(d + m, dtype=x.data.dtype)
    directions = [(np.broadcast_to(e[:d], (b, d)), np.broadcast_to(e[d:], (b, m))) for e in eye]
    _, tangents = dk.jvp(f, (x, u), directions)
    zero = np.zeros((b, d), x.data.dtype)
    # (B, d+m, d) then a transposed view: stacking on the last axis copies slowly
    return dk.transpose(dk.stack([zero if t is None else t for t in tangents], axis=1))


def grad_u(fn: Callable, x, u) -> tuple[Tensor, Tensor]:
    """A batched scalar fn(x, u), (B,), and its u-gradient, (B, m), from one
    forward-mode tangent per action coordinate (taped under an active tape)."""
    u = dk.tensor(u)
    b, m = u.shape
    directions = [(None, np.broadcast_to(e, (b, m))) for e in np.eye(m, dtype=u.data.dtype)]
    val, tangents = dk.jvp(fn, (x, u), directions)
    return val, _vec([np.zeros((b, 1), u.data.dtype) if t is None else t for t in tangents])


def _vec(cols) -> Tensor:
    """Concatenate per-sample scalars, (B,) or (B, 1), into a (B, len(cols)) tensor."""
    return dk.concat([e if e.ndim == 2 else dk.reshape(e, (e.shape[0], 1)) for e in cols], axis=1)


def _parameter(key: str, value, default):
    """A physical parameter as a float, or as a tuple of floats of the
    default's length; ValueError naming ``key`` unless every number is
    finite and, except for gravity, > 0."""
    bound = "finite" if key == "gravity" else "finite and > 0"
    shape = np.shape(default)
    try:
        arr = np.asarray(value)
        ok = (arr.dtype.kind in "iuf" and arr.shape == shape and np.all(np.isfinite(arr))
              and (key == "gravity" or np.all(arr > 0)))
    except ValueError:  # a ragged list
        ok = False
    if not ok:
        size = f" and a list of {shape[0]} numbers" if shape else ""
        raise ValueError(f"{key} must be {bound}{size}, got {value!r}")
    return tuple(arr.astype(float).tolist()) if shape else float(arr)


# ---------------------------------------------------------------------------
# Dubins car with varying speed
# ---------------------------------------------------------------------------


def _make_dubins(turn_radius=1.0, v_max=1.0, tf=6.0) -> SystemSpec:
    def f(x, u):
        x, u = dk.tensor(x), dk.tensor(u)
        psi = x[:, 2:3]
        v = u[:, 0:1]
        alpha = u[:, 1:2]
        s, c = dk.sincos(psi)
        return dk.concat([v * c, v * s, alpha * v * (1.0 / turn_radius)], axis=1)

    return SystemSpec(
        name="dubins",
        d=3,
        m=2,
        state_box=Box(np.array([-5.0, -5.0, -np.pi]), np.array([5.0, 5.0, np.pi])),
        action_box=Box(np.array([0.0, -1.0]), np.array([v_max, 1.0])),
        f=f,
        x_star=np.zeros(3),
        u_star=np.zeros(2),
        P=np.eye(3),
        R=0.01 * np.eye(2),
        rho=Box(np.array([-3.5, -3.0, -np.pi]), np.array([-2.5, 3.0, np.pi])),
        tf=tf,
        position_slice=slice(0, 2),
    )


# ---------------------------------------------------------------------------
# Cartpole (frictionless; phi measured from upright)
# ---------------------------------------------------------------------------


def _make_cartpole(cart_mass=1.0, pole_mass=0.1, pole_half_length=0.5, gravity=9.8,
                   force_max=10.0, tf=3.0) -> SystemSpec:
    mc, mp, lp, g = cart_mass, pole_mass, pole_half_length, gravity
    mt = mc + mp
    k = mp * lp

    def f(x, u):
        x, u = dk.tensor(x), dk.tensor(u)
        phi = x[:, 2]
        phid = x[:, 3]
        force = u[:, 0]
        s, c = dk.sincos(phi)
        t1 = (force + k * dk.square(phid) * s) * (1.0 / mt)
        den = lp * (4.0 / 3.0 - (mp / mt) * dk.square(c))
        phidd = (g * s - c * t1) / den
        pdd = t1 - (k / mt) * phidd * c
        return _vec([x[:, 1], pdd, phid, phidd])

    return SystemSpec(
        name="cartpole",
        d=4,
        m=1,
        state_box=Box(
            np.array([-3.0, -6.0, -1.5 * np.pi, -10.0]),
            np.array([3.0, 6.0, 1.5 * np.pi, 10.0]),
        ),
        action_box=Box(np.array([-force_max]), np.array([force_max])),
        f=f,
        x_star=np.zeros(4),
        u_star=np.zeros(1),
        P=np.eye(4),
        R=0.01 * np.eye(1),
        # hanging, within 0.1 of rest in every coordinate
        rho=Box(np.array([-0.1, -0.1, np.pi - 0.1, -0.1]),
                np.array([0.1, 0.1, np.pi + 0.1, 0.1])),
        tf=tf,
    )


# ---------------------------------------------------------------------------
# Acrobot (torque at the elbow; q1 = 0 hanging)
# ---------------------------------------------------------------------------


def _make_acrobot(m1=1.0, m2=1.0, l1=1.0, lc1=0.5, lc2=0.5, I1=1.0, I2=1.0, gravity=9.8,
                  torque_max=4.0, tf=5.0) -> SystemSpec:
    a = m2 * l1 * lc2
    c1_const = m1 * lc1**2 + m2 * (l1**2 + lc2**2) + I1 + I2
    c2_const = m2 * lc2**2 + I2
    g1 = (m1 * lc1 + m2 * l1) * gravity
    g2 = m2 * lc2 * gravity

    def f(x, u):
        x, u = dk.tensor(x), dk.tensor(u)
        q1, q2 = x[:, 0], x[:, 1]
        qd1, qd2 = x[:, 2], x[:, 3]
        tau = u[:, 0]
        s1 = dk.sin(q1)
        s2, c2 = dk.sincos(q2)
        s12 = dk.sin(q1 + q2)
        d1 = c1_const + 2.0 * a * c2
        d2 = c2_const + a * c2
        phi2 = g2 * s12
        phi1 = -a * dk.square(qd2) * s2 - 2.0 * a * qd1 * qd2 * s2 + g1 * s1 + phi2
        den2 = c2_const - dk.square(d2) / d1
        n2 = tau + (d2 / d1) * phi1 - a * dk.square(qd1) * s2 - phi2
        qdd2 = n2 / den2
        qdd1 = -(d2 * qdd2 + phi1) / d1
        return _vec([qd1, qd2, qdd1, qdd2])

    return SystemSpec(
        name="acrobot",
        d=4,
        m=1,
        state_box=Box(
            np.array([-1.5 * np.pi, -1.5 * np.pi, -12.0, -12.0]),
            np.array([1.5 * np.pi, 1.5 * np.pi, 12.0, 12.0]),
        ),
        action_box=Box(np.array([-torque_max]), np.array([torque_max])),
        f=f,
        x_star=np.array([np.pi, 0.0, 0.0, 0.0]),
        u_star=np.zeros(1),
        P=np.eye(4),
        R=0.01 * np.eye(1),
        rho=Box(np.full(4, -0.1), np.full(4, 0.1)),
        tf=tf,
    )


# ---------------------------------------------------------------------------
# Quadrotor (12 states, ZYX Euler angles, diagonal inertia)
# ---------------------------------------------------------------------------


def _make_quadrotor(mass=1.0, inertia=(0.01, 0.01, 0.02), gravity=9.81, torque_max=1.0,
                    tf=4.0) -> SystemSpec:
    if gravity <= 0:
        raise ValueError(f"gravity must be > 0 for quadrotor, whose thrust bound is "
                         f"2 * mass * gravity, got {gravity!r}")
    g = gravity
    j1, j2, j3 = inertia

    def f(x, u):
        x, u = dk.tensor(x), dk.tensor(u)
        roll, pitch, yaw = x[:, 3], x[:, 4], x[:, 5]
        sr, cr = dk.sincos(roll)
        sp, cp = dk.sincos(pitch)
        sy, cy = dk.sincos(yaw)
        w1, w2, w3 = x[:, 9], x[:, 10], x[:, 11]
        thrust = u[:, 0]
        t1, t2, t3 = u[:, 1], u[:, 2], u[:, 3]

        # third column of Rz(yaw) Ry(pitch) Rx(roll)
        r3x = cy * sp * cr + sy * sr
        r3y = sy * sp * cr - cy * sr
        r3z = cp * cr
        acc = thrust * (1.0 / mass)
        tp = sp / cp
        roll_rate = w1 + sr * tp * w2 + cr * tp * w3
        pitch_rate = cr * w2 - sr * w3
        yaw_rate = (sr * w2 + cr * w3) / cp
        wd1 = (t1 - (j3 - j2) * w2 * w3) * (1.0 / j1)
        wd2 = (t2 - (j1 - j3) * w1 * w3) * (1.0 / j2)
        wd3 = (t3 - (j2 - j1) * w1 * w2) * (1.0 / j3)
        return _vec([
            x[:, 6], x[:, 7], x[:, 8],
            roll_rate, pitch_rate, yaw_rate,
            acc * r3x, acc * r3y, acc * r3z - g,
            wd1, wd2, wd3,
        ])

    t_max = 2.0 * mass * g
    lo = np.array([-5.0] * 3 + [-np.pi / 3, -np.pi / 3, -np.pi] + [-5.0] * 3 + [-5.0] * 3)
    hi = np.array([5.0] * 3 + [np.pi / 3, np.pi / 3, np.pi] + [5.0] * 3 + [5.0] * 3)
    x_star = np.zeros(12)
    x_star[:3] = 3.0
    return SystemSpec(
        name="quadrotor",
        d=12,
        m=4,
        state_box=Box(lo, hi),
        action_box=Box(
            np.array([0.0, -torque_max, -torque_max, -torque_max]),
            np.array([t_max, torque_max, torque_max, torque_max]),
        ),
        f=f,
        x_star=x_star,
        u_star=np.array([mass * g, 0.0, 0.0, 0.0]),
        P=np.eye(12),
        R=0.01 * np.eye(4),
        # positions ~ N(0, I); attitude and rates start at rest
        rho=Gaussian(np.zeros(12), np.array([1.0] * 3 + [0.0] * 9)),
        tf=tf,
        position_slice=slice(0, 3),
    )


# ---------------------------------------------------------------------------
# Scalar linear-quadratic sanity system: xdot = u, L = u^2 + x^2, G = 0
# ---------------------------------------------------------------------------


def _make_lq1d(u_max=3.0, tf=5.0) -> SystemSpec:
    def f(x, u):
        return dk.tensor(u)[:, 0:1]

    return SystemSpec(
        name="lq1d",
        d=1,
        m=1,
        state_box=Box(np.array([-2.0]), np.array([2.0])),
        action_box=Box(np.array([-u_max]), np.array([u_max])),
        f=f,
        x_star=np.zeros(1),
        u_star=np.zeros(1),
        P=np.zeros((1, 1)),
        R=np.eye(1),
        rho=Box(np.array([-1.0]), np.array([1.0])),
        Q=np.eye(1),
        tf=tf,
    )


# ---------------------------------------------------------------------------
# Registry and datasets
# ---------------------------------------------------------------------------

_MAKERS = {
    "dubins": _make_dubins,
    "cartpole": _make_cartpole,
    "acrobot": _make_acrobot,
    "quadrotor": _make_quadrotor,
    "lq1d": _make_lq1d,
}


def system_names() -> tuple[str, ...]:
    return tuple(sorted(_MAKERS))


# cost fields of SystemSpec that an override sets directly, as float arrays
_COST_ARRAYS = ("P", "R", "Q", "x_star", "u_star")


def make_system(name: str, overrides: dict | None = None) -> SystemSpec:
    """Build a registered system, optionally overriding its physical
    parameters, cost arrays and obstacles (``[[center, radius], ...]``).

    The physical parameters (``tf`` among them) are the keywords of the
    system's maker, and their defaults are the maker's defaults; every value,
    default or override, must be finite and > 0, except ``gravity``, which
    needs only be finite.  ``spec.params`` holds the values used.  A
    malformed override raises ValueError naming its key.
    """
    if name not in _MAKERS:
        raise KeyError(f"unknown system '{name}'; known: {', '.join(system_names())}")
    maker = _MAKERS[name]
    defaults = {key: p.default for key, p in inspect.signature(maker).parameters.items()}
    overrides = overrides or {}
    unknown = set(overrides) - set(defaults) - {"obstacles", *_COST_ARRAYS}
    if unknown:
        raise KeyError(f"unknown parameter(s) for {name}: {sorted(unknown)}")
    params = {key: _parameter(key, overrides.get(key, default), default)
              for key, default in defaults.items()}
    fields = {}
    for key, value in overrides.items():
        if key == "obstacles":
            try:
                pairs = [(np.asarray(c, dtype=np.float64), float(r)) for c, r in value]
            except (TypeError, ValueError):
                raise ValueError(
                    f"obstacles must be [[center, radius], ...], got {value!r}") from None
            fields[key] = tuple(Obstacle(center=c, radius=r) for c, r in pairs)
        elif key in _COST_ARRAYS:
            try:
                fields[key] = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError):
                raise ValueError(f"{key} must be a numeric array, got {value!r}") from None
    spec = maker(**params)
    if fields.get("obstacles") and spec.position_slice is None:
        # obstacle_penalty reads x[:, 0:2] as a planar position
        raise ValueError(f"obstacles need a planar position; system '{name}' has none")
    return replace(spec, params=params, **fields)


@dataclass(frozen=True)
class Dataset:
    """Sampled transitions with analytic value and Jacobian targets."""

    x: np.ndarray  # (N, d)
    u: np.ndarray  # (N, m)
    xdot: np.ndarray  # (N, d)
    jac: np.ndarray  # (N, d, d+m): [df/dx, df/du]

    def __len__(self) -> int:
        return self.x.shape[0]

    def astype(self, dtype) -> "Dataset":
        return Dataset(*(a.astype(dtype) for a in (self.x, self.u, self.xdot, self.jac)))


def sample_dataset(spec: SystemSpec, n: int, seed: int) -> Dataset:
    """N i.i.d. uniform draws over state_box x action_box with analytic targets
    (the Jacobian is derived from f unless the system overrides ``jac``)."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    x = spec.state_box.sample(rng, n)
    u = spec.action_box.sample(rng, n)
    spec.validate(x, u)
    return Dataset(x=x, u=u, xdot=spec.f(x, u).data, jac=spec.jac(x, u).data)
