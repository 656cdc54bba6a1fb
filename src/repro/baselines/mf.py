"""Biased matrix factorization — the paper's net-vote baseline.

Koren-style collaborative filtering (paper reference [21]):
``v_hat_uq = mu + b_u + b_q + p_u^T q_q`` over observed (user,
question, votes) triples, fit by full-gradient Adam with L2
regularization.  The paper uses latent dimension 5.
"""

from __future__ import annotations

import numpy as np

from ..ml.optimizers import Adam

__all__ = ["MatrixFactorization"]


def _views(flat: np.ndarray, n_rows: int, k: int) -> tuple[np.ndarray, ...]:
    """(row biases, column biases, row factors, column factors) as views
    of one flat vector laid out in that order."""
    n_cols = flat.size // (k + 1) - n_rows
    row_bias, col_bias, row_factors, col_factors = np.split(
        flat, np.cumsum([n_rows, n_cols, n_rows * k])
    )
    return (
        row_bias,
        col_bias,
        row_factors.reshape(n_rows, k),
        col_factors.reshape(n_cols, k),
    )


class MatrixFactorization:
    """Regularized biased MF on sparse real-valued observations."""

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        *,
        n_factors: int = 5,
        l2: float = 0.05,
        learning_rate: float = 0.05,
        n_iter: int = 500,
        seed: int = 0,
    ):
        if n_rows < 1 or n_cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if n_factors < 1:
            raise ValueError("n_factors must be >= 1")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.n_factors = n_factors
        self.l2 = l2
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.seed = seed
        self.global_mean_: float = 0.0
        self.row_bias_: np.ndarray | None = None
        self.col_bias_: np.ndarray | None = None
        self.row_factors_: np.ndarray | None = None
        self.col_factors_: np.ndarray | None = None
        self.loss_history_: list[float] = []

    def fit(
        self,
        rows,
        cols,
        values,
        *,
        row_bias_init=None,
        col_bias_init=None,
        row_factors_init=None,
        col_factors_init=None,
    ) -> "MatrixFactorization":
        """Fit on observed entries given as parallel index/value arrays.

        The ``*_init`` arrays warm-start the corresponding parameters
        (shape-checked copies); omitted ones keep the seeded random
        initialization, which is drawn identically either way so a
        warm-started fit stays deterministic under the same seed.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must share a shape")
        if rows.size == 0:
            raise ValueError("need at least one observation")
        if rows.min() < 0 or rows.max() >= self.n_rows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= self.n_cols:
            raise ValueError("column index out of range")
        rng = np.random.default_rng(self.seed)
        n_obs = rows.size
        n_rows, n_cols, k = self.n_rows, self.n_cols, self.n_factors
        self.global_mean_ = float(values.mean())
        # The four parameter arrays are views of one flat vector, so an
        # Adam step is one pass over it.
        theta = np.zeros((n_rows + n_cols) * (k + 1))
        row_bias, col_bias, row_factors, col_factors = _views(theta, n_rows, k)
        row_factors[...] = rng.normal(0.0, 0.05, size=(n_rows, k))
        col_factors[...] = rng.normal(0.0, 0.05, size=(n_cols, k))
        for target, init in (
            (row_bias, row_bias_init),
            (col_bias, col_bias_init),
            (row_factors, row_factors_init),
            (col_factors, col_factors_init),
        ):
            if init is not None:
                init = np.asarray(init, dtype=float)
                if init.shape != target.shape:
                    raise ValueError(
                        f"warm-start shape {init.shape} != {target.shape}"
                    )
                target[...] = init
        grad = np.empty_like(theta)
        g_rb, g_cb, g_rf, g_cf = _views(grad, n_rows, k)
        opt = Adam(learning_rate=self.learning_rate)
        scale = 2.0 / n_obs
        # Flat (index, factor) keys of the factor gradients, row-major
        # like the factor arrays.
        factor = np.arange(k)
        row_keys = (rows[:, None] * k + factor).ravel()
        col_keys = (cols[:, None] * k + factor).ravel()
        self.loss_history_ = []
        for _ in range(self.n_iter):
            rf = row_factors[rows]
            cf = col_factors[cols]
            pred = (
                self.global_mean_
                + row_bias[rows]
                + col_bias[cols]
                + np.sum(rf * cf, axis=1)
            )
            err = pred - values
            mse = float(np.mean(err * err))
            self.loss_history_.append(mse)
            # bincount adds each bucket's terms in input order from
            # zero, as np.add.at does; one call per parameter array.
            err *= scale
            g_rb[...] = np.bincount(rows, err, minlength=n_rows)
            g_cb[...] = np.bincount(cols, err, minlength=n_cols)
            g_rf[...] = np.bincount(
                row_keys, (err[:, None] * cf).ravel(), n_rows * k
            ).reshape(n_rows, k)
            g_cf[...] = np.bincount(
                col_keys, (err[:, None] * rf).ravel(), n_cols * k
            ).reshape(n_cols, k)
            grad += self.l2 * theta / n_obs
            opt.step([theta], [grad])
        self.row_bias_, self.col_bias_ = row_bias, col_bias
        self.row_factors_, self.col_factors_ = row_factors, col_factors
        return self

    def predict(self, rows, cols) -> np.ndarray:
        """Predicted values for (row, col) index pairs.

        Unseen rows/columns fall back to the learned biases (zero for a
        never-observed index), i.e. effectively the global mean.
        """
        if self.row_bias_ is None:
            raise RuntimeError("model is not fitted")
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        return (
            self.global_mean_
            + self.row_bias_[rows]
            + self.col_bias_[cols]
            + np.sum(self.row_factors_[rows] * self.col_factors_[cols], axis=1)
        )
