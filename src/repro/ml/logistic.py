"""Logistic regression classifier.

The paper (Sec. II-A.1) deliberately uses a *linear* model for the
answer-probability task ``a_uq`` to avoid overfitting the extremely sparse
user-question matrix.  This implementation minimizes the L2-regularized
negative log likelihood with full-batch Adam, which is deterministic given
the data.
"""

from __future__ import annotations

import numpy as np

from .activations import sigmoid
from .network import tiled_matmul
from .optimizers import Adam

__all__ = ["LogisticRegression"]


class LogisticRegression:
    """Binary logistic regression: ``P(y=1|x) = sigmoid(x^T beta + b)``.

    Parameters
    ----------
    l2:
        L2 penalty on the coefficients (not the intercept).
    learning_rate, max_iter, tol:
        Full-batch Adam settings; training stops early when the loss
        improvement falls below ``tol``.
    """

    def __init__(
        self,
        l2: float = 1e-3,
        learning_rate: float = 0.05,
        max_iter: int = 2000,
        tol: float = 1e-8,
    ):
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.l2 = l2
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.loss_history_: list[float] = []

    def _check_fitted(self) -> None:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y lengths differ")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("y must be binary 0/1")
        n, d = x.shape
        # Coefficients and intercept share one flat vector so the fused
        # Adam step updates a single array; buffers below are reused
        # across all full-batch iterations (nothing allocates per iter).
        wb = np.zeros(d + 1)
        beta = wb[:d]
        grad = np.empty(d + 1)
        z = np.empty(n)
        p = np.empty(n)
        r = np.empty(n)
        t = np.empty(n)
        opt = Adam(learning_rate=self.learning_rate)
        self.loss_history_ = []
        prev_loss = np.inf
        for _ in range(self.max_iter):
            np.matmul(x, beta, out=z)
            z += wb[d]
            sigmoid(z, out=p)
            # Mean NLL with a stable formulation log(1+e^z) - y z.
            np.abs(z, out=t)
            np.negative(t, out=t)
            np.exp(t, out=t)
            np.log1p(t, out=t)
            t += np.maximum(z, 0.0)
            np.multiply(y, z, out=r)
            t -= r
            nll = float(np.mean(t))
            loss = nll + 0.5 * self.l2 * float(beta @ beta) / n
            self.loss_history_.append(loss)
            np.subtract(p, y, out=r)
            r /= n
            np.matmul(x.T, r, out=grad[:d])
            grad[:d] += (self.l2 / n) * beta
            grad[d] = r.sum()
            opt.step([wb], [grad])
            if abs(prev_loss - loss) < self.tol:
                break
            prev_loss = loss
        self.coef_ = wb[:d].copy()
        self.intercept_ = float(wb[d])
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row of ``x``.

        Row-invariant: the product runs on fixed 64-row tiles
        (``tiled_matmul``), so a row's probability does not depend on
        which other rows are scored with it.
        """
        self._check_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return sigmoid(tiled_matmul(x, self.coef_) + self.intercept_)

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(x) >= threshold).astype(int)
