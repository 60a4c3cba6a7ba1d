"""Joint controller / value-function training from the HJB equation.

Four losses over differentiable rollouts:

  cost    mean of the running-cost integral plus the terminal cost
  hjb     mean |dV/dt + H| over every grid point of every trajectory
  final   mean |V(x_f, t_f) - G(x_f)| (PDE boundary condition)
  hamil   mean ||d H / d u||_2 (stationarity of the Hamiltonian in u)

with H = L(x, u) + grad_x V(x, t) . f(x, u).  All four read one evaluation
of the Hamiltonian on the rollout's grid, and L is evaluated there once
per grid point: the cost integral sums that L, and grad_u H derives dL/du
from it in forward mode.  The hamil loss trains the value net as well as
the controller: the costate grad_x V in grad_u H is not detached.  Each
epoch draws a fresh batch of starts from the system's ``rho``.  One Adam
instance updates the controller and value parameters jointly; the
transition (analytic or a frozen learned checkpoint) is never updated
here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diffkit as dk
from . import netzoo, optim
from .diffkit import Tensor
from .dynzoo import SystemSpec, grad_u
from .rollout import AnalyticTransition, LearnedTransition, TrajectoryBatch, rollout
from .sysid import TrainingDiverged, master_leaves


# ---------------------------------------------------------------------------
# Value-function adapter and the Hamiltonian
# ---------------------------------------------------------------------------


class MlpValue:
    """V(x, t) from an MLP over (x, t_norm) with exact taped derivatives.

    Physical time is normalized to [0, 1] over the horizon [0, tf] before
    entering the network; dV/dt is rescaled back accordingly.
    """

    def __init__(self, net: netzoo.Mlp, tf: float):
        self.net = net
        self.tf = tf

    def __call__(self, x, t) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (V, dV/dt, grad_x V) with shapes (B,), (B,), (B, d) for
        x of shape (B, d) and t of shape (B,)."""
        x = dk.tensor(x)
        b, d = x.shape
        tn = np.asarray(t, dtype=np.float64) / self.tf
        if tn.shape != (b,):
            raise dk.ShapeError(f"t has shape {tn.shape}, expected ({b},)")
        z = dk.concat([x, dk.tensor(tn[:, None])], axis=1)
        y, jac = netzoo.forward_with_jacobian(self.net, z)
        value = dk.reshape(y, (b,))
        grad_x = dk.reshape(jac[:, :, :d], (b, d))
        dvdt = dk.reshape(jac[:, :, d:], (b,)) * (1.0 / self.tf)
        return value, dvdt, grad_x


@dataclass
class HamiltonianEval:
    """Batched Hamiltonian pieces at given (x, u, t) points."""

    H: Tensor  # (B,)
    L: Tensor  # (B,) running cost
    V: Tensor  # (B,)
    dV_dt: Tensor  # (B,)
    grad_u_H: Tensor  # (B, m)


def hamiltonian(
    value: Callable,
    transition,
    spec: SystemSpec,
    x,
    u,
    t,
) -> HamiltonianEval:
    """H = L(x, u) + grad_x V(x, t) . f(x, u), with its u-gradient.

    grad_u H = dL/du + (df/du)^T grad_x V.  dL/du comes from forward-mode
    tangents of L; the transition returns grad_x V . f with its u-gradient,
    as a vjp so learned transitions never materialize their full Jacobian.
    L and f are each evaluated once per point.
    """
    x, u = dk.tensor(x), dk.tensor(u)
    v_val, dvdt, grad_x = value(x, t)
    vf, vf_u = transition.costate_vjp_u(x, u, grad_x)
    cost, cost_u = grad_u(spec.running_cost, x, u)
    if not np.all(np.isfinite(grad_x.data)):
        raise dk.NumericError("non-finite value-function gradient in hamiltonian")
    return HamiltonianEval(H=cost + vf, L=cost, V=v_val, dV_dt=dvdt, grad_u_H=cost_u + vf_u)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def grid_hamiltonian(value, controller: Callable, traj: TrajectoryBatch, transition,
                     spec: SystemSpec) -> HamiltonianEval:
    """The Hamiltonian at all K+1 grid points of every trajectory, flattened
    into one batch, step by step (row k * B + b is start b at step k), with
    the controller's control at each final state; shared by all four losses."""
    u_f = controller(traj.states[-1])
    xs = dk.concat(traj.states, axis=0)
    us = dk.concat(list(traj.controls) + [u_f], axis=0)
    ts = np.repeat(traj.times, traj.batch)
    return hamiltonian(value, transition, spec, xs, us, ts)


def loss_cost(ev: HamiltonianEval, traj: TrajectoryBatch, spec: SystemSpec) -> Tensor:
    """Mean over the batch of the running-cost integral plus G(x_f).

    The control is held over each step (zero-order hold), so the integral
    is the left-endpoint Riemann sum h * sum_k L(x_k, u_k) over the K steps:
    the first K grid slices of ``ev.L``, each scaled by h, summed over the
    step axis.
    """
    b, k = traj.batch, traj.steps
    rates = dk.reshape(ev.L[:k * b], (k, b))
    integral = dk.sum_((spec.tf / k) * rates, axis=0)
    return dk.mean_(integral + spec.terminal_cost(traj.states[-1]))


def loss_hjb(ev: HamiltonianEval) -> Tensor:
    """Mean |dV/dt + H| over the grid evaluation (batch and K+1 points)."""
    return dk.mean_(dk.absval(ev.dV_dt + ev.H))


def loss_final(ev: HamiltonianEval, traj: TrajectoryBatch, spec: SystemSpec) -> Tensor:
    """Mean |V(x_f, t_f) - G(x_f)| (HJB boundary condition); V(x_f, t_f) is
    the last ``traj.batch`` rows of the grid evaluation."""
    v_f = ev.V[-traj.batch:]
    return dk.mean_(dk.absval(v_f - spec.terminal_cost(traj.states[-1])))


def loss_hamil(ev: HamiltonianEval) -> Tensor:
    """Mean ||grad_u H||_2 over the grid evaluation (PMP stationarity pressure)."""
    return dk.mean_(dk.l2norm(ev.grad_u_H, axis=1))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HjbConfig:
    alpha_cost: float = 1.0
    alpha_hjb: float = 1.0
    alpha_final: float = 0.01
    alpha_hamil: float = 0.01
    epochs: int = 2_000
    batch: int = 64
    K: int = 50
    lr: float = 0.01
    lr_final: float = 1e-4
    transition: str = "analytic"  # "analytic" or a checkpoint path
    seed: int = 0
    controller_hidden: tuple[int, ...] = (64, 64)
    value_hidden: tuple[int, ...] = (64, 64, 64)

    def __post_init__(self):
        for name in ("alpha_cost", "alpha_hjb", "alpha_final", "alpha_hamil", "lr", "lr_final"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("alpha_cost", "alpha_hjb", "alpha_final", "alpha_hamil", "epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("K", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lr", "lr_final"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("controller_hidden", "value_hidden"):
            if any(w < 1 for w in getattr(self, name)):
                raise ValueError(f"{name} widths must be >= 1")


def build_transition(spec: SystemSpec, source: str, dtype):
    """'analytic' or a path to a dynamics-net checkpoint, whose weights
    are cast to ``dtype``; a ValueError for a net that
    :class:`LearnedTransition` refuses names the path."""
    if source == "analytic":
        return AnalyticTransition(spec)
    net, _meta = netzoo.load(source)
    try:
        return LearnedTransition(net.astype(dtype), spec.d, spec.m)
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from None


def train_controller(
    spec: SystemSpec,
    cfg: HjbConfig,
    log_every: int = 0,
) -> tuple[netzoo.Mlp, netzoo.Mlp, list[dict]]:
    """Joint Adam on controller and value parameters; deterministic per seed.

    Per epoch: sample a batch of initial states from ``spec.rho``, roll out in
    closed loop under the configured transition, form the weighted total
    loss, and take one optimizer step.  Returns the trained controller and
    value networks plus the per-epoch log (one dict per epoch with the four
    loss components, lr, cumulative NFE and wall time).

    Each step computes in ``diffkit.COMPUTE``: the starts, the learned
    transition's weights and the step's parameter leaves are cast to it,
    while Adam updates float64 master weights, which are what is returned.
    """
    dtype = dk.COMPUTE
    transition = build_transition(spec, cfg.transition, dtype)
    controller = netzoo.controller_net(
        spec.d, spec.action_box.lo, spec.action_box.hi,
        hidden=cfg.controller_hidden, seed=cfg.seed,
    )
    value = netzoo.value_net(spec.d, hidden=cfg.value_hidden, seed=cfg.seed + 1)

    c_params = controller.params()
    v_params = value.params()
    n_c = len(c_params)
    adam = optim.Adam(c_params + v_params)
    schedule = optim.exponential_to(cfg.lr, cfg.lr_final, cfg.epochs)
    rng = np.random.default_rng(cfg.seed + 2)

    log: list[dict] = []
    t_start = time.perf_counter()
    # the output box is cast once; the weights are replaced by leaves each step
    controller_c = controller.astype(dtype)
    for epoch in range(cfg.epochs):
        x0 = spec.rho.sample(rng, cfg.batch).astype(dtype)
        lr = schedule(epoch)
        tape = dk.Tape()
        with tape:
            ctrl = controller_c.with_params(master_leaves(tape, c_params, epoch))
            vnet = value.with_params(master_leaves(tape, v_params, epoch))
            val = MlpValue(vnet, spec.tf)
            traj = rollout(spec, transition, ctrl, x0, K=cfg.K)
            ev = grid_hamiltonian(val, ctrl, traj, transition, spec)
            parts = {
                "loss_cost": loss_cost(ev, traj, spec),
                "loss_hjb": loss_hjb(ev),
                "loss_final": loss_final(ev, traj, spec),
                "loss_hamil": loss_hamil(ev),
            }
            total = dk.tensor(0.0)
            for name, alpha in (
                ("loss_cost", cfg.alpha_cost),
                ("loss_hjb", cfg.alpha_hjb),
                ("loss_final", cfg.alpha_final),
                ("loss_hamil", cfg.alpha_hamil),
            ):
                if alpha != 0.0:
                    total = total + alpha * parts[name]

        values = {k: v.item() for k, v in parts.items()}
        for name, v in values.items():
            if not np.isfinite(v):
                raise TrainingDiverged(f"{name} became {v} at epoch {epoch}")
        total_v = total.item()
        if not np.isfinite(total_v):
            raise TrainingDiverged(f"total loss became {total_v} at epoch {epoch}")

        leaves = ctrl.params() + vnet.params()
        grads = dk.grad(total, leaves)
        flat = [grads[l].data for l in leaves]
        new = adam.step(c_params + v_params, flat, lr)
        c_params, v_params = new[:n_c], new[n_c:]

        log.append({
            "epoch": epoch,
            "lr": lr,
            "loss_total": total_v,
            **values,
            "nfe_cumulative": transition.nfe,
            "wall_time_s": time.perf_counter() - t_start,
        })
        if log_every and (epoch % log_every == 0 or epoch == cfg.epochs - 1):
            print(
                f"[hjb] epoch {epoch + 1:5d}/{cfg.epochs} lr={lr:.5f} "
                f"total={total_v:.4f} cost={values['loss_cost']:.4f} "
                f"hjb={values['loss_hjb']:.4f} final={values['loss_final']:.4f} "
                f"hamil={values['loss_hamil']:.4f} nfe={transition.nfe}"
            )

    return controller.with_params(c_params), value.with_params(v_params), log


# keys of each per-epoch log entry, in the column order of training_log.csv
LOG_COLUMNS = [
    "epoch", "lr", "loss_total", "loss_cost", "loss_hjb", "loss_final",
    "loss_hamil", "nfe_cumulative", "wall_time_s",
]
