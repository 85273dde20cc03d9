"""Adadelta optimizer over a ParameterStore.

Implements the Zeiler recurrence per parameter:

    Eg  <- rho * Eg + (1 - rho) * g^2
    d   <- -sqrt(Ex + eps) / sqrt(Eg + eps) * g
    p   <- p + lr * d
    Ex  <- rho * Ex + (1 - rho) * d^2

The accumulated squared update uses the unscaled step d; the learning
rate only scales the applied parameter change. Gradients are cleared
after each step.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParameterStore


class Adadelta:
    def __init__(self, params: ParameterStore, lr: float = 0.02,
                 rho: float = 0.95, eps: float = 1e-6):
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        if not eps > 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not (np.isfinite(lr) and lr >= 0.0):
            raise ValueError(f"lr must be finite and nonnegative, got {lr}")
        self.params = params
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self._sq_grad = {name: np.zeros_like(t.data) for name, t in params.items()}
        self._sq_delta = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self) -> None:
        """Apply one update to every parameter and clear gradients."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient; "
                                 "run backward() before step()")
            g = p.grad
            eg = self._sq_grad[name]
            ex = self._sq_delta[name]
            eg *= self.rho
            eg += (1.0 - self.rho) * g * g
            delta = -np.sqrt(ex + self.eps) / np.sqrt(eg + self.eps) * g
            p.data += self.lr * delta
            ex *= self.rho
            ex += (1.0 - self.rho) * delta * delta
        self.params.zero_grad()
