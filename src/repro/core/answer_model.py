"""Task (i): will user u answer question q?  (Paper Sec. II-A.1.)

A logistic regression on standardized features — deliberately linear to
avoid overfitting the extremely sparse answering matrix.
"""

from __future__ import annotations

import numpy as np

from ..ml.logistic import LogisticRegression
from ..ml.scaler import StandardScaler

__all__ = ["AnswerModel"]


class AnswerModel:
    """Standardized logistic regression for P(a_uq = 1 | x_uq)."""

    def __init__(self, l2: float = 1e-2, max_iter: int = 100):
        self.scaler = StandardScaler(clip=8.0)
        self.classifier = LogisticRegression(l2=l2, max_iter=max_iter)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "AnswerModel":
        """Fit on feature rows and binary answer labels."""
        z = self.scaler.fit_transform(np.asarray(x, dtype=float))
        self.classifier.fit(z, np.asarray(y, dtype=float))
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """P(answer) per row."""
        return self.classifier.predict_proba(
            self.scaler.transform(np.atleast_2d(np.asarray(x, dtype=float)))
        )

    @property
    def coefficients(self) -> np.ndarray:
        """Regression weights beta (on the standardized features)."""
        if self.classifier.coef_ is None:
            raise RuntimeError("model is not fitted")
        return self.classifier.coef_
