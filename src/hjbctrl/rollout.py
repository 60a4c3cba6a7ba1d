"""Differentiable closed-loop simulation with fixed-step RK4.

The integrator is discretize-then-optimize: a rollout executed under an
active tape produces exact gradients of the discrete trajectory with
respect to controller (and transition) parameters.  Control is held
constant across each step (zero-order hold).  A rollout only integrates:
costs are evaluated on its grid afterwards (``hjbtrain``).

Transition sources are interchangeable callables (x, u) -> xdot, and
each counts its evaluations, so budgets are auditable.  An RK4 step is
``diffkit.rk4`` for analytic dynamics and any other callable: four calls
of f and four ``diffkit.lincomb`` nodes.  Under a learned transition the
step is one fused node (``diffkit.rk4_mlp``) whose values are bitwise
those of that composite.  Both read diffkit's one RK4 tableau.  The
learned transition's own call serves where f is needed outside a step.

A trained controller is scored and exported through one integrator,
:func:`analytic_rollout`: under the analytic dynamics and in
``diffkit.COMPUTE``.  Evaluation (:func:`evaluate`) scores a controller
from starts drawn from the system's ``rho``; a registry of learned
transitions lets it assert that no network dynamics were touched.
:func:`evaluate_with_trajectories` also hands back the first scored
trajectories, for export.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diffkit as dk
from . import netzoo
from .diffkit import NumericError, Tensor
from .dynzoo import SystemSpec, grad_u


# learned transitions register here so evaluation code can assert that it
# never touched a network dynamics model
_LEARNED_REGISTRY: "weakref.WeakSet[LearnedTransition]" = weakref.WeakSet()


class AnalyticTransition:
    """Ground-truth dynamics as a transition source."""

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.nfe = 0

    def __call__(self, x, u) -> Tensor:
        self.nfe += 1
        return self.spec.f(x, u)

    def costate_vjp_u(self, x, u, v) -> tuple[Tensor, Tensor]:
        """(v . f, v^T . df/du) for a batch of costate rows v: (B,) and
        (B, m), from one forward-mode tangent per action coordinate."""
        v = dk.tensor(v)
        return grad_u(lambda x, u: dk.sum_(v * self.spec.f(x, u), axis=1), x, u)


class LearnedTransition:
    """Network dynamics model f_theta(x, u) as a transition source; a net
    built by ``with_params(leaves)`` makes it differentiable in theta.

    The net maps the stacked input [x, u] to xdot, with no output box and
    no skip connections (a ValueError names the field otherwise), so that
    :func:`rk4_step` can run a whole step as one ``diffkit.rk4_mlp`` node.
    """

    def __init__(self, net: netzoo.Mlp, d: int, m: int):
        if net.in_dim != d + m or net.out_dim != d:
            raise ValueError(
                f"network dims ({net.in_dim}->{net.out_dim}) do not match system ({d + m}->{d})"
            )
        if net.output_transform is not None:
            raise ValueError("output_transform: a dynamics net has no output box")
        if net.skip_connections:
            raise ValueError("skip_connections: a dynamics net has no skip connections")
        self.net = net
        self.d = d
        self.m = m
        self.nfe = 0
        _LEARNED_REGISTRY.add(self)

    def __call__(self, x, u) -> Tensor:
        self.nfe += 1
        z = dk.concat([dk.tensor(x), dk.tensor(u)], axis=1)
        return netzoo.forward(self.net, z)

    def costate_vjp_u(self, x, u, v) -> tuple[Tensor, Tensor]:
        """(v . f_theta, v^T . df_theta/du) without materializing the network
        Jacobian."""
        z = dk.concat([dk.tensor(x), dk.tensor(u)], axis=1)
        f, row = netzoo.vjp(self.net, z, v)
        return dk.sum_(dk.tensor(v) * f, axis=1), row[:, self.d:]


def learned_nfe_total() -> int:
    """Total NFE across every live learned transition (eval-purity audits)."""
    return sum(tr.nfe for tr in _LEARNED_REGISTRY)


@dataclass
class TrajectoryBatch:
    """Batched closed-loop trajectory with its taped tensors still attached."""

    times: np.ndarray  # (K+1,)
    states: list[Tensor]  # K+1 tensors of (B, d)
    controls: list[Tensor]  # K tensors of (B, m)
    # feedback control evaluated at the final state; not integrated, but the
    # HJB residual grid includes the terminal point
    terminal_control: Tensor

    @property
    def batch(self) -> int:
        return self.states[0].shape[0]

    @property
    def steps(self) -> int:
        return len(self.controls)

    @property
    def nfe(self) -> int:
        """Transition evaluations made by the rollout: four per RK4 step."""
        return 4 * self.steps

    @property
    def states_array(self) -> np.ndarray:
        return np.stack([s.data for s in self.states], axis=1)

    @property
    def controls_array(self) -> np.ndarray:
        return np.stack([u.data for u in self.controls], axis=1)


def rk4_step(f: Callable, x, u, h: float) -> Tensor:
    """One classical RK4 step with the control held constant (ZOH).

    Under a :class:`LearnedTransition` the whole step is one tape node
    (``diffkit.rk4_mlp``), and the transition counts its four evaluations.
    Any other f is stepped by ``diffkit.rk4`` (four ``diffkit.lincomb`` nodes).
    NumericError if the new state is not finite (sum of squares first, then by entry).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if isinstance(f, LearnedTransition):
        f.nfe += 4
        net = f.net
        out = dk.rk4_mlp(x, u, h, net.layers, net.activation, net.omega0)
    else:
        out = dk.rk4(f, x, u, h)
    if not (math.isfinite(np.vdot(out.data, out.data)) or np.isfinite(out.data).all()):
        raise NumericError("non-finite state after rk4 step")
    return out


def rollout(
    spec: SystemSpec,
    transition: Callable,
    controller: Callable,
    x0: np.ndarray,
    K: int = 50,
) -> TrajectoryBatch:
    """Integrate xdot = f(x, u(x)) over [0, tf] in K uniform RK4 steps from
    a (B, d) batch of initial states.

    The control is recomputed from the current state at every grid point
    (feedback).  Under an active tape the whole computation is recorded, so
    gradients reach the controller through every step.
    """
    x = dk.tensor(x0)
    if x.ndim != 2 or x.shape[1] != spec.d:
        raise ValueError(f"x0 has shape {x.shape}, expected (B, {spec.d})")
    h = spec.tf / K
    times = h * np.arange(K + 1)

    states = [x]
    controls: list[Tensor] = []
    for k in range(K):
        u = controller(x)
        controls.append(u)
        try:
            x = rk4_step(transition, x, u, h)
        except NumericError as e:
            raise NumericError(f"{e} (rollout step {k})") from None
        states.append(x)
    return TrajectoryBatch(
        times=times,
        states=states,
        controls=controls,
        terminal_control=controller(x),
    )


def analytic_rollout(spec: SystemSpec, controller: netzoo.Mlp, x0: np.ndarray,
                     K: int) -> TrajectoryBatch:
    """:func:`rollout` of a controller network under the analytic f, with
    the controller's weights and the (B, d) starts x0 cast to
    ``diffkit.COMPUTE``, so that it computes in that dtype."""
    return rollout(spec, AnalyticTransition(spec), controller.astype(dk.COMPUTE),
                   np.asarray(x0, dk.COMPUTE), K=K)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    """Closed-loop metrics over a batch of evaluation starts.

    Evaluation always uses the analytic dynamics; ``ftheta_nfe`` counts
    learned-transition evaluations observed while evaluating and must be 0.
    Trajectory length is only defined for systems with a position subspace.
    """

    system: str
    n_starts: int
    seed: int
    metric: str
    threshold: float
    success_rate: float
    terminal_error_mean: float
    terminal_error_std: float
    control_magnitude_mean: float
    control_magnitude_std: float
    traj_length_mean: float | None
    traj_length_std: float | None
    obstacle_violations: int
    ftheta_nfe: int
    compute_time_per_traj_s: float


# what a start's success is measured on: the distance of its final position
# (or, for "state", of its final state) to the goal
METRICS = ("position", "state")

# memory one chunk of evaluation starts may hold at once; a start holds its
# K+1 states and K controls about three times over: as the rollout's step
# tensors, stacked, and in the metrics' temporaries
_EVAL_CHUNK_BYTES = 16 << 20


def check_metric(spec: SystemSpec, metric: str) -> None:
    """ValueError naming the metric and the system unless ``metric`` can
    score a start of ``spec``."""
    if metric not in METRICS:
        raise ValueError(f"eval metric must be one of {METRICS}, got {metric!r}")
    if metric == "position" and spec.position_slice is None:
        raise ValueError(f"eval metric 'position' needs a position subspace, and system "
                         f"'{spec.name}' has none; use metric 'state'")


def _start_metrics(spec: SystemSpec, traj: TrajectoryBatch, metric: str) -> tuple:
    """Per-start terminal error, control magnitude, path length (None
    without a position subspace), final distance and obstacle violations of
    one closed-loop rollout."""
    xs = traj.states_array  # (B, K+1, d)
    h = spec.tf / traj.steps

    te = np.linalg.norm(xs[:, -1, :] - spec.x_star, axis=1)
    cm = np.linalg.norm(traj.controls_array, axis=2).sum(axis=1) * h
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


def _first(trajs: list[TrajectoryBatch], n: int) -> TrajectoryBatch:
    """The first n trajectories of consecutive batches, copied into one
    batch that holds no other rows."""

    def rows(seqs) -> list[Tensor]:
        return [Tensor(np.concatenate([t.data[:n] for t in ts])[:n]) for ts in zip(*seqs)]

    return TrajectoryBatch(
        times=trajs[0].times,
        states=rows([t.states for t in trajs]),
        controls=rows([t.controls for t in trajs]),
        terminal_control=rows([[t.terminal_control] for t in trajs])[0],
    )


def evaluate_with_trajectories(
    spec: SystemSpec,
    controller: netzoo.Mlp,
    n_starts: int,
    seed: int,
    K: int,
    threshold: float,
    metric: str = "position",
    keep: int = 0,
) -> tuple[EvalReport, TrajectoryBatch | None]:
    """Roll out the controller from starts sampled from ``spec.rho`` under
    the analytic f; the report and the first ``keep`` of the scored
    trajectories (None for keep=0).

    The starts are drawn at once and rolled out by
    :func:`analytic_rollout` in near-equal chunks, as few as keep each
    within ``_EVAL_CHUNK_BYTES``; each chunk is reduced to per-start metrics
    (and its share of the kept trajectories) before the next one runs.
    Memory does not grow with ``n_starts``, and the report equals the
    one-batch report.
    """
    check_metric(spec, metric)
    if not 0 <= keep <= n_starts:
        raise ValueError(f"can keep 0 to {n_starts} trajectories, not {keep}")
    nfe_learned_before = learned_nfe_total()
    t_start = time.perf_counter()
    x0 = spec.rho.sample(np.random.default_rng(seed), n_starts).astype(dk.COMPUTE)
    start_bytes = 3 * x0.itemsize * (K + 1) * (spec.d + spec.m)
    n_chunks = -(-n_starts * start_bytes // _EVAL_CHUNK_BYTES)
    chunks, kept = [], []
    for part in np.array_split(x0, n_chunks):
        traj = analytic_rollout(spec, controller, part, K)
        chunks.append(_start_metrics(spec, traj, metric))
        need = keep - sum(t.batch for t in kept)
        if need > 0:
            kept.append(_first([traj], need))
    te, cm, ln, final_dist, violations = zip(*chunks)
    te, cm, final_dist = (np.concatenate(v) for v in (te, cm, final_dist))
    ln = None if ln[0] is None else np.concatenate(ln)
    violations = sum(violations)
    elapsed = time.perf_counter() - t_start

    ftheta_nfe = learned_nfe_total() - nfe_learned_before
    assert ftheta_nfe == 0, "evaluation must never touch learned dynamics"

    report = EvalReport(
        system=spec.name,
        n_starts=n_starts,
        seed=seed,
        metric=metric,
        threshold=threshold,
        success_rate=int(np.sum(final_dist <= threshold)) / n_starts,
        terminal_error_mean=float(te.mean()),
        terminal_error_std=float(te.std()),
        control_magnitude_mean=float(cm.mean()),
        control_magnitude_std=float(cm.std()),
        traj_length_mean=float(ln.mean()) if ln is not None else None,
        traj_length_std=float(ln.std()) if ln is not None else None,
        obstacle_violations=violations,
        ftheta_nfe=ftheta_nfe,
        compute_time_per_traj_s=elapsed / n_starts,
    )
    return report, _first(kept, keep) if kept else None


def evaluate(
    spec: SystemSpec,
    controller: netzoo.Mlp,
    n_starts: int,
    seed: int,
    K: int,
    threshold: float,
    metric: str = "position",
) -> EvalReport:
    """The report of :func:`evaluate_with_trajectories`, keeping none."""
    return evaluate_with_trajectories(spec, controller, n_starts, seed, K, threshold, metric)[0]
