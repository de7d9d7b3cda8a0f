"""Macro F1 and confusion matrices.

Zero-division convention: precision or recall with a zero denominator is 0,
so every class contributes a well-defined F1. A class absent from both gold
and predictions therefore contributes 0 to the macro average, and a matrix
with no counts scores 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def confusion_matrix(gold, predictions, n_classes: int) -> np.ndarray:
    """Counts[g, p] of gold class g predicted as p; empty input counts nothing."""
    gold = np.asarray(gold, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if gold.shape != predictions.shape:
        raise ContractError(
            f"gold and predictions differ in length: {gold.shape} vs {predictions.shape}"
        )
    for name, arr in (("gold", gold), ("predictions", predictions)):
        if ((arr < 0) | (arr >= n_classes)).any():
            raise ContractError(f"{name} contains a class outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (gold, predictions), 1)
    return cm


def _ratio(num, den):
    """num / den elementwise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def macro_f1(confusion: np.ndarray) -> float:
    """Unweighted mean of the per-class F1 scores of one confusion matrix."""
    tp = np.diagonal(confusion)
    precision, recall = _ratio(tp, confusion.sum(axis=0)), _ratio(tp, confusion.sum(axis=1))
    return float(_ratio(2 * precision * recall, precision + recall).mean())
