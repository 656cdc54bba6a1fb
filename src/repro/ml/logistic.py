"""Logistic regression classifier.

The paper (Sec. II-A.1) deliberately uses a *linear* model for the
answer-probability task ``a_uq`` to avoid overfitting the extremely sparse
user-question matrix.  This implementation minimizes the L2-regularized
mean negative log likelihood by damped Newton iterations (IRLS) from
zero, so a fit is a deterministic function of its data.
"""

from __future__ import annotations

import numpy as np

from .activations import sigmoid
from .network import tiled_matmul

__all__ = ["LogisticRegression"]


class LogisticRegression:
    """Binary logistic regression: ``P(y=1|x) = sigmoid(x^T beta + b)``.

    Parameters
    ----------
    l2:
        L2 penalty on the coefficients (not the intercept).  The
        objective is ``mean NLL + 0.5 * (l2 / n) * ||beta||^2``.
    max_iter, tol:
        Newton settings; training stops when one step lowers the loss
        by less than ``tol``.
    """

    def __init__(self, l2: float = 1e-3, max_iter: int = 100, tol: float = 1e-8):
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.l2 = l2
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
        design = np.column_stack([x, np.ones(n)])
        ridge = np.full(d + 1, self.l2 / n)
        ridge[d] = 0.0  # do not penalize the intercept

        def loss_at(w: np.ndarray, z: np.ndarray) -> float:
            # Mean NLL in the stable form log(1 + e^z) - y z.
            nll = float(np.mean(np.logaddexp(0.0, z) - y * z))
            return nll + 0.5 * float(ridge @ w**2)

        w = np.zeros(d + 1)
        z = np.zeros(n)
        loss = loss_at(w, z)
        self.loss_history_ = [loss]
        for _ in range(self.max_iter):
            p = sigmoid(z)
            grad = design.T @ (p - y) / n + ridge * w
            hess = (design * (p * (1.0 - p) / n)[:, None]).T @ design
            hess[np.diag_indices(d + 1)] += ridge
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            # Damped update: halve the step until the loss does not rise.
            step_size = 1.0
            for _ in range(30):
                candidate = w - step_size * step
                z_c = design @ candidate
                loss_c = loss_at(candidate, z_c)
                if loss_c <= loss:
                    break
                step_size *= 0.5
            else:
                break  # no step lowers the loss: converged to rounding
            w, z = candidate, z_c
            decrease = loss - loss_c
            loss = loss_c
            self.loss_history_.append(loss)
            if decrease < self.tol:
                break
        self.coef_ = w[:d].copy()
        self.intercept_ = float(w[d])
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
