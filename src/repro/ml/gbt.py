"""Least-squares gradient-boosted trees — the paper's 'XGBoost' stand-in.

Classic Friedman boosting: each stage fits a shallow CART regressor to the
residuals, added with a learning rate. Substitution documented in DESIGN.md.
"""
from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor


class GradientBoostedTreesRegressor:
    def __init__(
        self,
        n_estimators: int = 200,
        *,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.random_state = random_state
        self.init_: float = 0.0
        self.trees_: list[DecisionTreeRegressor] = []

    def fit(self, X, y) -> "GradientBoostedTreesRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        self.init_ = float(y.mean())
        pred = np.full_like(y, self.init_)
        self.trees_ = []
        for i in range(self.n_estimators):
            resid = y - pred
            if np.max(np.abs(resid)) < 1e-12:
                break
            t = DecisionTreeRegressor(
                max_depth=self.max_depth, random_state=self.random_state * 31 + i
            ).fit(X, resid)
            pred = pred + self.learning_rate * t.predict(X)
            self.trees_.append(t)
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        pred = np.full(len(X), self.init_)
        for t in self.trees_:
            pred += self.learning_rate * t.predict(X)
        return pred
