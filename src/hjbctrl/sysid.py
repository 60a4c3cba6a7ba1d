"""Sobolev system identification: fit f_theta to sampled transitions.

The loss is the batch mean of the L2 norm of the value residual plus (when
gradient supervision is on) the Frobenius norm of the Jacobian residual.
Target and prediction share one layout, [d f/d x, d f/d u] stacked as
(B, d, d+m): the dataset's ``jac`` and the network's input-Jacobian over
z = [x, u].  The latter is the exact taped Jacobian, so the supervision
term trains second-order structure, not a finite-difference surrogate
(Czarnecki et al. 2017, "Sobolev Training for Neural Networks").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffkit as dk
from . import netzoo, optim
from .diffkit import NumericError, Tape, Tensor
from .dynzoo import Dataset, SystemSpec, sample_dataset

TEST_SEED_OFFSET = 90001  # held-out draws never share a stream with training


class TrainingDiverged(Exception):
    """Loss became non-finite; carries the epoch where it happened."""


@dataclass(frozen=True)
class SysIdConfig:
    activation: str = "sine"
    grad_supervision: bool = True
    n_train: int = 20_000
    n_test: int = 10_000
    epochs: int = 5_000  # one minibatch optimizer step per epoch
    batch: int = 256
    lr: float = 1e-3
    lr_decay: float = 0.5  # applied every 20% of the run
    hidden: tuple[int, ...] = (64, 64, 64)
    omega0: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.activation not in dk.ACTIVATIONS:
            raise ValueError(f"activation must be one of {dk.ACTIVATIONS}, got {self.activation!r}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("batch", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_train < self.batch:
            raise ValueError("dataset smaller than one batch")
        for name in ("lr", "lr_decay", "omega0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if any(w < 1 for w in self.hidden):
            raise ValueError("hidden widths must be >= 1")


@dataclass(frozen=True)
class SysIdReport:
    """Held-out error statistics of ||f_theta(x,u) - f(x,u)||_2."""

    system: str
    activation: str
    grad_supervision: bool
    mean: float
    std: float
    median: float
    iqr: float
    epochs: int
    n_train: int
    seed: int



def sysid_loss(
    net: netzoo.Mlp,
    x: np.ndarray,
    u: np.ndarray,
    xdot: np.ndarray,
    jac_target: np.ndarray | None = None,
) -> Tensor:
    """Training loss on one batch; taped when the net's weights are leaves.

    A Jacobian target, stacked as (B, d, d+m), adds the Sobolev term.
    """
    z = np.concatenate([x, u], axis=1)
    if jac_target is None:
        return dk.mean_(dk.l2norm(netzoo.forward(net, z) - xdot, axis=-1))
    pred, jac = netzoo.forward_with_jacobian(net, z)
    loss = dk.mean_(dk.l2norm(pred - xdot, axis=-1))
    return loss + dk.mean_(dk.l2norm(jac - jac_target, axis=(-2, -1)))


def heldout_errors(net: netzoo.Mlp, data: Dataset) -> np.ndarray:
    """Per-sample L2 errors of the predicted transitions (no tape)."""
    z = np.concatenate([data.x, data.u], axis=1)
    pred = netzoo.forward(net, z).data
    return np.linalg.norm(pred - data.xdot, axis=1)


def master_leaves(tape: Tape, params, epoch: int) -> list[Tensor]:
    """Tape leaves holding ``diffkit.COMPUTE`` copies of the float64 master
    weights; a weight that has no finite copy there means training diverged."""
    try:
        return [tape.leaf(p.astype(dk.COMPUTE)) for p in params]
    except NumericError:
        raise TrainingDiverged(f"a parameter is not finite in {np.dtype(dk.COMPUTE)} at "
                               f"epoch {epoch}") from None


def _report(spec: SystemSpec, cfg: SysIdConfig, errors: np.ndarray) -> SysIdReport:
    q25, q75 = np.percentile(errors, [25, 75])
    return SysIdReport(
        system=spec.name,
        activation=cfg.activation,
        grad_supervision=cfg.grad_supervision,
        mean=float(errors.mean()),
        std=float(errors.std()),
        median=float(np.median(errors)),
        iqr=float(q75 - q25),
        epochs=cfg.epochs,
        n_train=cfg.n_train,
        seed=cfg.seed,
    )


def train_sysid(
    spec: SystemSpec,
    cfg: SysIdConfig,
    train_data: Dataset | None = None,
    log_every: int = 0,
) -> tuple[netzoo.Mlp, SysIdReport, list[float]]:
    """Adam on the Sobolev loss; deterministic per seed.

    The loss, its gradient and the held-out errors are computed in
    ``diffkit.COMPUTE``: the batches, the held-out set and each step's weight
    leaves are cast to it, while Adam updates float64 master weights.
    Returns the trained network (float64), the held-out report (fresh
    uniform samples drawn with a fixed seed offset) and the per-epoch loss
    history.
    """
    if train_data is None:
        train_data = sample_dataset(spec, cfg.n_train, seed=cfg.seed)
    test_data = sample_dataset(spec, cfg.n_test, seed=cfg.seed + TEST_SEED_OFFSET)
    dtype = dk.COMPUTE
    train_data, test_data = train_data.astype(dtype), test_data.astype(dtype)

    net = netzoo.dynamics_net(
        spec.d, spec.m, hidden=cfg.hidden, activation=cfg.activation,
        omega0=cfg.omega0, seed=cfg.seed,
    )
    params = net.params()
    adam = optim.Adam(params)
    schedule = optim.step_decay(cfg.lr, cfg.lr_decay, max(1, cfg.epochs // 5))
    rng = np.random.default_rng(cfg.seed + 1)
    order = rng.permutation(len(train_data))
    cursor = 0
    losses: list[float] = []

    for epoch in range(cfg.epochs):
        if cursor + cfg.batch > len(order):
            order = rng.permutation(len(train_data))
            cursor = 0
        idx = order[cursor:cursor + cfg.batch]
        cursor += cfg.batch

        tape = dk.Tape()
        with tape:
            leaves = master_leaves(tape, params, epoch)
            loss = sysid_loss(
                net.with_params(leaves), train_data.x[idx], train_data.u[idx],
                train_data.xdot[idx],
                jac_target=train_data.jac[idx] if cfg.grad_supervision else None,
            )
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingDiverged(f"sysid loss became {value} at epoch {epoch}")
        grads = dk.grad(loss, leaves)
        params = adam.step(params, [grads[l].data for l in leaves], schedule(epoch))
        losses.append(value)
        if log_every and (epoch % log_every == 0 or epoch == cfg.epochs - 1):
            print(f"[sysid] epoch {epoch + 1:5d}/{cfg.epochs}  loss={value:.6f}")

    net = net.with_params(params)
    report = _report(spec, cfg, heldout_errors(net.astype(dtype), test_data))
    return net, report, losses
