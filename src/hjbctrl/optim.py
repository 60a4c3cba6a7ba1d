"""Adam and learning-rate schedules (deterministic, numpy-only)."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Adam:
    """Standard Adam with bias correction; ``step`` returns new parameter arrays.

    The moments take the parameters' dtype, and each gradient is cast to it
    first, so float32 gradients of float64 master weights update float64
    moments (a squared float32 gradient would overflow above ~1.8e19).
    """

    def __init__(self, sizes_like: Sequence[np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in sizes_like]
        self.v = [np.zeros_like(p) for p in sizes_like]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray],
             lr: float) -> list[np.ndarray]:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            g = g.astype(p.dtype, copy=False)
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            mhat = self.m[i] / c1
            vhat = self.v[i] / c2
            out.append(p - lr * mhat / (np.sqrt(vhat) + self.eps))
        return out


def step_decay(lr0: float, factor: float, every: int):
    """lr0 scaled by ``factor`` after every ``every`` steps."""

    def schedule(k: int) -> float:
        return lr0 * factor ** (k // max(1, every))

    return schedule


def exponential_to(lr0: float, lr_final: float, total_steps: int):
    """Exponential decay reaching ``lr_final`` exactly at the last step."""
    if total_steps <= 1:
        return lambda k: lr0
    gamma = (lr_final / lr0) ** (1.0 / (total_steps - 1))

    def schedule(k: int) -> float:
        return lr0 * gamma**k

    return schedule
