"""Small fully-connected ReLU MLP regressor with Adam, in numpy.

The paper's 'Neural Network (MLP)' model for COMPREDICT. Inputs and targets
are standardised internally; training is full-batch (the datasets here are
hundreds of samples).
"""
from __future__ import annotations

import numpy as np

#: Adam step size and L2 weight penalty.
LR = 1e-2
L2 = 1e-4


class MLPRegressor:
    def __init__(
        self,
        hidden: tuple[int, ...] = (64, 32),
        *,
        epochs: int = 400,
        random_state: int = 0,
    ):
        self.hidden = hidden
        self.epochs = epochs
        self.random_state = random_state

    def _init(self, d_in: int, rng: np.random.Generator):
        sizes = [d_in, *self.hidden, 1]
        self.W = [
            rng.normal(0, np.sqrt(2.0 / sizes[i]), (sizes[i], sizes[i + 1]))
            for i in range(len(sizes) - 1)
        ]
        self.b = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

    def fit(self, X, y) -> "MLPRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        self._xmu, self._xsd = X.mean(0), X.std(0)
        self._xsd[self._xsd == 0] = 1.0
        self._ymu, self._ysd = float(y.mean()), float(y.std() or 1.0)
        Z = (X - self._xmu) / self._xsd
        t = (y - self._ymu) / self._ysd
        rng = np.random.default_rng(self.random_state)
        self._init(Z.shape[1], rng)
        mW = [np.zeros_like(w) for w in self.W]
        vW = [np.zeros_like(w) for w in self.W]
        mb = [np.zeros_like(bb) for bb in self.b]
        vb = [np.zeros_like(bb) for bb in self.b]
        b1, b2, eps = 0.9, 0.999, 1e-8
        n = len(Z)
        for step in range(1, self.epochs + 1):
            # forward
            acts = [Z]
            for i, (w, bb) in enumerate(zip(self.W, self.b)):
                a = acts[-1] @ w + bb
                if i < len(self.W) - 1:
                    a = np.maximum(a, 0)
                acts.append(a)
            pred = acts[-1].ravel()
            # backward (MSE)
            grad = ((pred - t) / n).reshape(-1, 1)
            for i in range(len(self.W) - 1, -1, -1):
                gW = acts[i].T @ grad + L2 * self.W[i]
                gb = grad.sum(axis=0)
                if i > 0:
                    grad = (grad @ self.W[i].T) * (acts[i] > 0)
                mW[i] = b1 * mW[i] + (1 - b1) * gW
                vW[i] = b2 * vW[i] + (1 - b2) * gW**2
                mb[i] = b1 * mb[i] + (1 - b1) * gb
                vb[i] = b2 * vb[i] + (1 - b2) * gb**2
                mWh = mW[i] / (1 - b1**step)
                vWh = vW[i] / (1 - b2**step)
                mbh = mb[i] / (1 - b1**step)
                vbh = vb[i] / (1 - b2**step)
                self.W[i] -= LR * mWh / (np.sqrt(vWh) + eps)
                self.b[i] -= LR * mbh / (np.sqrt(vbh) + eps)
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        a = (X - self._xmu) / self._xsd
        for i, (w, bb) in enumerate(zip(self.W, self.b)):
            a = a @ w + bb
            if i < len(self.W) - 1:
                a = np.maximum(a, 0)
        return a.ravel() * self._ysd + self._ymu
