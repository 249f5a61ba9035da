"""Evaluation protocol: confusion counts and the Se/Sp/Score triple.

Sensitivity is exact-class correctness among abnormal cycles (the
multi-class convention), specificity is correctness among normal cycles,
and the headline score is their arithmetic mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Label
from .errors import UndefinedMetricError

N_CLASSES = len(Label)


@dataclass
class MetricsReport:
    confusion: np.ndarray  # rows = truth, cols = prediction
    se: float
    sp: float
    score: float


def confusion_matrix(truths, preds) -> np.ndarray:
    truths = np.asarray(truths, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if truths.shape != preds.shape:
        raise ValueError(f"label/prediction lengths differ: {truths.shape} vs {preds.shape}")
    for label in np.concatenate((truths, preds), axis=None):
        if not 0 <= label < N_CLASSES:  # numpy would file -1 as the last class
            raise ValueError(f"label {label} is outside 0..{N_CLASSES - 1}")
    conf = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(conf, (truths, preds), 1)
    return conf


def compute_metrics(confusion: np.ndarray) -> MetricsReport:
    confusion = np.asarray(confusion, dtype=np.int64)
    if confusion.shape != (N_CLASSES, N_CLASSES) or (confusion < 0).any():
        raise ValueError(f"confusion must be a non-negative {N_CLASSES}x{N_CLASSES} count matrix")
    n_normal = confusion[Label.NORMAL].sum()
    n_abnormal = confusion[Label.CRACKLE:].sum()
    if n_normal == 0 or n_abnormal == 0:
        raise UndefinedMetricError(
            f"metrics undefined: {int(n_normal)} normal-truth and {int(n_abnormal)} "
            "abnormal-truth samples"
        )
    sp = confusion[Label.NORMAL, Label.NORMAL] / n_normal
    diag_abnormal = sum(int(confusion[c, c]) for c in (Label.CRACKLE, Label.WHEEZE, Label.BOTH))
    se = diag_abnormal / n_abnormal
    return MetricsReport(confusion, float(se), float(sp), float((se + sp) / 2.0))
