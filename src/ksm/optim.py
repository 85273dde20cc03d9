"""Adadelta optimizer over a ParameterStore.

Implements the Zeiler recurrence per parameter:

    Eg  <- RHO * Eg + (1 - RHO) * g^2
    d   <- -sqrt(Ex + EPS) / sqrt(Eg + EPS) * g
    p   <- p + lr * d
    Ex  <- RHO * Ex + (1 - RHO) * d^2

with Zeiler's published decay rate RHO = 0.95 and constant EPS = 1e-6.
The accumulated squared update uses the unscaled step d; the learning
rate only scales the applied parameter change. Gradients are cleared
after each step.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParameterStore

RHO = 0.95
EPS = 1e-6


class Adadelta:
    def __init__(self, params: ParameterStore, lr: float):
        if not (np.isfinite(lr) and lr >= 0.0):
            raise ValueError(f"lr must be finite and nonnegative, got {lr}")
        self.params = params
        self.lr = lr
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
            eg *= RHO
            eg += (1.0 - RHO) * g * g
            delta = -np.sqrt(ex + EPS) / np.sqrt(eg + EPS) * g
            p.data += self.lr * delta
            ex *= RHO
            ex += (1.0 - RHO) * delta * delta
        self.params.zero_grad()
