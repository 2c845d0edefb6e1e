"""CART decision trees in numpy (regression: MSE splits; classification: Gini).

One grower with a pluggable split search (Breiman et al. 1984): targets are
a float vector or one-hot rows, and each leaf stores their mean.

Vectorised split search: for every feature the candidate thresholds are the
midpoints of sorted unique values, and split quality is computed from
cumulative sums in O(n log n) per feature. Sufficient for the paper's data
scales (hundreds–thousands of samples).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float | np.ndarray | None = None  # leaf payload

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split_mse(X: np.ndarray, y: np.ndarray, feat_idx: np.ndarray):
    """Best (feature, threshold) by SSE reduction; None if no valid split."""
    n = len(y)
    best = (None, None, 0.0)  # feature, threshold, gain
    base_sse = float(np.sum((y - y.mean()) ** 2))
    for f in feat_idx:
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys**2)
        total, total_sq = csum[-1], csq[-1]
        ks = np.arange(1, n)  # left sizes
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            continue
        left_sum, left_sq = csum[:-1], csq[:-1]
        right_sum, right_sq = total - left_sum, total_sq - left_sq
        sse = (
            left_sq
            - left_sum**2 / ks
            + right_sq
            - right_sum**2 / (n - ks)
        )
        sse = np.where(valid, sse, np.inf)
        k = int(np.argmin(sse))
        gain = base_sse - float(sse[k])
        if gain > best[2] + 1e-12:
            best = (f, float((xs[k] + xs[k + 1]) / 2), gain)
    return best


def _best_split_gini(X, y_onehot, feat_idx):
    """Best split by Gini impurity decrease; y_onehot is (n, n_classes)."""
    n = len(y_onehot)
    best = (None, None, 0.0)
    counts = y_onehot.sum(axis=0)
    base = 1.0 - float(np.sum((counts / n) ** 2))
    for f in feat_idx:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        cum = np.cumsum(y_onehot[order], axis=0)
        ks = np.arange(1, n)
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            continue
        left = cum[:-1]
        right = counts[None, :] - left
        gini_l = 1.0 - np.sum((left / ks[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / (n - ks)[:, None]) ** 2, axis=1)
        w = (ks * gini_l + (n - ks) * gini_r) / n
        w = np.where(valid, w, np.inf)
        k = int(np.argmin(w))
        gain = base - float(w[k])
        if gain > best[2] + 1e-12:
            best = (f, float((xs[k] + xs[k + 1]) / 2), gain)
    return best


class _BaseTree:
    """The CART grower; a subclass supplies ``_best_split`` and ``_targets``
    (the training labels as the rows the split search and leaves average)."""

    def __init__(
        self,
        *,
        max_depth: int = 12,
        max_features: int | None = None,
        random_state: int | None = None,
    ):
        self.max_depth = max_depth
        self.max_features = max_features
        self.random_state = random_state
        self._root: _Node | None = None
        self.n_features_: int = 0

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = self._targets(y)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("X must be 2-D and match y; need >= 1 sample")
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        self._root = self._grow(X, y, 0, rng)
        return self

    def _feat_subset(self, rng: np.random.Generator) -> np.ndarray:
        d = self.n_features_
        if self.max_features is None:
            return np.arange(d)
        return rng.choice(d, size=min(max(1, self.max_features), d), replace=False)

    def _grow(self, X, y, depth, rng) -> _Node:
        # One row, or all rows alike, is pure: np.all(y == y[0]).
        if depth >= self.max_depth or np.all(y == y[0]):
            return _Node(value=y.mean(axis=0))
        f, thr, gain = self._best_split(X, y, self._feat_subset(rng))
        if f is None:
            return _Node(value=y.mean(axis=0))
        mask = X[:, f] <= thr
        return _Node(
            feature=f,
            threshold=thr,
            left=self._grow(X[mask], y[mask], depth + 1, rng),
            right=self._grow(X[~mask], y[~mask], depth + 1, rng),
        )

    def _predict_rows(self, X) -> list:
        out = []
        for row in np.asarray(X, dtype=float):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out.append(node.value)
        return out


class DecisionTreeRegressor(_BaseTree):
    """MSE-split CART regressor."""

    _best_split = staticmethod(_best_split_mse)

    def _targets(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float).ravel()

    def predict(self, X) -> np.ndarray:
        return np.array(self._predict_rows(X), dtype=float)


class DecisionTreeClassifier(_BaseTree):
    """Gini-split CART classifier; leaves store class-probability vectors."""

    _best_split = staticmethod(_best_split_gini)

    def _targets(self, y) -> np.ndarray:
        self.classes_, y_idx = np.unique(np.asarray(y), return_inverse=True)
        return np.eye(len(self.classes_))[y_idx]

    def predict_proba(self, X) -> np.ndarray:
        return np.vstack(self._predict_rows(X))

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
