"""Random forests (bagging + per-split feature sub-sampling) on the CART trees.

The paper's best model for both the access predictor (§IV-C, F1 > 0.96) and
COMPREDICT (§V, Tables V–VI). Every tree grows to the trees' default depth.
"""
from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class _BaseForest:
    def __init__(
        self,
        n_estimators: int = 100,
        *,
        max_features: int | str | None = "sqrt",
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.random_state = random_state
        self.trees_: list = []

    def _fit(self, X, y: np.ndarray, complete) -> "_BaseForest":
        """Fit ``n_estimators`` trees on bootstrap samples of (X, y), each
        redrawn up to 50 times while ``complete(y_sample)`` is false."""
        X = np.asarray(X, dtype=float)
        n = len(y)
        rng = np.random.default_rng(self.random_state)
        mf = self.max_features
        if mf == "sqrt":
            mf = max(1, int(np.sqrt(X.shape[1])))
        self.trees_ = []
        for i in range(self.n_estimators):
            idx = rng.integers(0, n, size=n)
            for _ in range(50):
                if complete(y[idx]):
                    break
                idx = rng.integers(0, n, size=n)
            t = self._tree(max_features=mf, random_state=self.random_state * 7919 + i)
            self.trees_.append(t.fit(X[idx], y[idx]))
        return self


class RandomForestRegressor(_BaseForest):
    """Mean-of-trees regressor."""

    _tree = DecisionTreeRegressor

    def fit(self, X, y) -> "RandomForestRegressor":
        return self._fit(X, np.asarray(y, dtype=float).ravel(), lambda y_boot: True)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.mean([t.predict(X) for t in self.trees_], axis=0)


class RandomForestClassifier(_BaseForest):
    """Probability-averaging classifier."""

    _tree = DecisionTreeClassifier

    def fit(self, X, y) -> "RandomForestClassifier":
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        # A bootstrap holding every class keeps each tree's probability
        # columns equal to self.classes_.
        return self._fit(
            X, y, lambda y_boot: len(np.unique(y_boot)) == len(self.classes_)
        )

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        probs = np.zeros((len(X), len(self.classes_)))
        for t in self.trees_:
            # A tree whose bootstrap missed a class lacks its column.
            probs[:, np.searchsorted(self.classes_, t.classes_)] += t.predict_proba(X)
        return probs / len(self.trees_)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
