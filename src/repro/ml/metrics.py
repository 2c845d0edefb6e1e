"""Evaluation metrics used in the paper's tables (MAE, MAPE, R², F1, confusion)."""
from __future__ import annotations

import numpy as np


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=float).ravel()


def mae(y_true, y_pred) -> float:
    """Mean absolute error — Tables V–VIII."""
    yt, yp = _arr(y_true), _arr(y_pred)
    return float(np.mean(np.abs(yt - yp)))


def mape(y_true, y_pred) -> float:
    """Mean absolute percentage error (in %), as reported in Tables V–VIII;
    a zero true value divides by 1e-12."""
    yt, yp = _arr(y_true), _arr(y_pred)
    return float(np.mean(np.abs(yt - yp) / np.maximum(np.abs(yt), 1e-12)) * 100)


def r2(y_true, y_pred) -> float:
    """Coefficient of determination R²."""
    yt, yp = _arr(y_true), _arr(y_pred)
    ss_res = float(np.sum((yt - yp) ** 2))
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else 0.0
    return 1.0 - ss_res / ss_tot


def confusion_matrix(y_true, y_pred, labels: list) -> np.ndarray:
    """Rows = predicted label, columns = true label — the orientation of
    the paper's Table III ("Predicted Tier" rows x "Ideal Tier" columns)."""
    idx = {l: i for i, l in enumerate(labels)}
    m = np.zeros((len(labels), len(labels)), dtype=int)
    for t, p in zip(np.ravel(y_true), np.ravel(y_pred)):
        m[idx[p], idx[t]] += 1
    return m


def precision_recall_f1(y_true, y_pred, *, positive) -> tuple[float, float, float]:
    yt, yp = np.ravel(y_true), np.ravel(y_pred)
    tp = int(np.sum((yp == positive) & (yt == positive)))
    fp = int(np.sum((yp == positive) & (yt != positive)))
    fn = int(np.sum((yp != positive) & (yt == positive)))
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def f1_score(y_true, y_pred, *, positive) -> float:
    """F1 for the given positive class — the paper reports F1 > 0.96 (§IV-C)."""
    return precision_recall_f1(y_true, y_pred, positive=positive)[2]


def accuracy(y_true, y_pred) -> float:
    yt, yp = np.ravel(y_true), np.ravel(y_pred)
    return float(np.mean(yt == yp))
