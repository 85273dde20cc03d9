#!/usr/bin/env python3
"""Tensors, reverse-mode gradients and the Adadelta optimizer.

Builds a tiny least-squares problem on the tape engine, checks one
gradient against central finite differences, then fits the weights with
Adadelta.
"""

import numpy as np

from ksm import autodiff as ad
from ksm.autodiff import ParameterStore, Tensor
from ksm.gradcheck import finite_difference
from ksm.optim import Adadelta

rng = np.random.default_rng(0)

# --- a scalar loss on the tape ---------------------------------------------

w = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
x = Tensor(rng.standard_normal((8, 3)))
y_true = x.data @ np.array([[2.0], [-1.0], [0.5]])

residual = x @ w - Tensor(y_true)
loss = ad.mean(ad.multiply(residual, residual))
print(f"initial loss: {loss.item():.4f}")

loss.backward()
print("analytic  dL/dw:", np.round(w.grad[:, 0], 6))

numeric = finite_difference(
    lambda: ad.mean(ad.multiply(x @ w - Tensor(y_true),
                                x @ w - Tensor(y_true))).item(), w)
print("numeric   dL/dw:", np.round(numeric[:, 0], 6))
print(f"max abs difference: {np.abs(w.grad - numeric).max():.2e}")

# --- fit with Adadelta ------------------------------------------------------

params = ParameterStore()
params.add("w", Tensor(np.zeros((3, 1))))
opt = Adadelta(params, lr=1.0)

for step in range(2500):
    r = x @ params["w"] - Tensor(y_true)
    loss = ad.mean(ad.multiply(r, r))
    params.zero_grad()
    loss.backward()
    opt.step()
    if step % 500 == 0:
        print(f"step {step:4d}  loss {loss.item():.6f}")

print("fitted weights:", np.round(params['w'].data[:, 0], 3),
      "(target [2, -1, 0.5])")
