"""Two matrix factorization fits: the test oracles for
:class:`~repro.baselines.mf.MatrixFactorization`'s fit, which sums each
factor gradient with one ``np.bincount`` over flat (index, factor) keys
and steps Adam over one flat parameter vector.

In :class:`AddAtMatrixFactorization` each of the four parameter arrays
is its own array with its own ``np.add.at`` scatter and its own Adam
slot.  :class:`PerColumnMatrixFactorization` keeps the flat vector and
sums each factor column with its own ``bincount``.  All three add each
bucket's terms in input order starting from zero, and Adam is
elementwise, so the fits agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.mf import MatrixFactorization, _views
from repro.ml.optimizers import Adam


class AddAtMatrixFactorization(MatrixFactorization):
    """The model with the per-array scatter fit."""

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
    ) -> "AddAtMatrixFactorization":
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        values = np.asarray(values, dtype=float)
        rng = np.random.default_rng(self.seed)
        n_obs = rows.size
        self.global_mean_ = float(values.mean())
        row_bias = np.zeros(self.n_rows)
        col_bias = np.zeros(self.n_cols)
        row_factors = rng.normal(0.0, 0.05, size=(self.n_rows, self.n_factors))
        col_factors = rng.normal(0.0, 0.05, size=(self.n_cols, self.n_factors))
        for target, init in (
            (row_bias, row_bias_init),
            (col_bias, col_bias_init),
            (row_factors, row_factors_init),
            (col_factors, col_factors_init),
        ):
            if init is not None:
                target[...] = np.asarray(init, dtype=float)
        params = [row_bias, col_bias, row_factors, col_factors]
        opt = Adam(learning_rate=self.learning_rate)
        self.loss_history_ = []
        for _ in range(self.n_iter):
            pred = (
                self.global_mean_
                + row_bias[rows]
                + col_bias[cols]
                + np.sum(row_factors[rows] * col_factors[cols], axis=1)
            )
            err = pred - values
            mse = float(np.mean(err * err))
            self.loss_history_.append(mse)
            scale = 2.0 / n_obs
            grad_rb = np.zeros_like(row_bias)
            np.add.at(grad_rb, rows, scale * err)
            grad_cb = np.zeros_like(col_bias)
            np.add.at(grad_cb, cols, scale * err)
            grad_rf = np.zeros_like(row_factors)
            np.add.at(grad_rf, rows, scale * err[:, None] * col_factors[cols])
            grad_cf = np.zeros_like(col_factors)
            np.add.at(grad_cf, cols, scale * err[:, None] * row_factors[rows])
            grad_rb += self.l2 * row_bias / n_obs
            grad_cb += self.l2 * col_bias / n_obs
            grad_rf += self.l2 * row_factors / n_obs
            grad_cf += self.l2 * col_factors / n_obs
            opt.step(params, [grad_rb, grad_cb, grad_rf, grad_cf])
        self.row_bias_, self.col_bias_ = row_bias, col_bias
        self.row_factors_, self.col_factors_ = row_factors, col_factors
        return self


class PerColumnMatrixFactorization(MatrixFactorization):
    """The model with one ``bincount`` per factor gradient column."""

    def fit(self, rows, cols, values) -> "PerColumnMatrixFactorization":
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        values = np.asarray(values, dtype=float)
        rng = np.random.default_rng(self.seed)
        n_obs = rows.size
        n_rows, n_cols, k = self.n_rows, self.n_cols, self.n_factors
        self.global_mean_ = float(values.mean())
        theta = np.zeros((n_rows + n_cols) * (k + 1))
        row_bias, col_bias, row_factors, col_factors = _views(theta, n_rows, k)
        row_factors[...] = rng.normal(0.0, 0.05, size=(n_rows, k))
        col_factors[...] = rng.normal(0.0, 0.05, size=(n_cols, k))
        grad = np.empty_like(theta)
        g_rb, g_cb, g_rf, g_cf = _views(grad, n_rows, k)
        opt = Adam(learning_rate=self.learning_rate)
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
            self.loss_history_.append(float(np.mean(err * err)))
            err *= 2.0 / n_obs
            g_rb[...] = np.bincount(rows, err, minlength=n_rows)
            g_cb[...] = np.bincount(cols, err, minlength=n_cols)
            for f in range(k):
                g_rf[:, f] = np.bincount(rows, err * cf[:, f], minlength=n_rows)
                g_cf[:, f] = np.bincount(cols, err * rf[:, f], minlength=n_cols)
            grad += self.l2 * theta / n_obs
            opt.step([theta], [grad])
        self.row_bias_, self.col_bias_ = row_bias, col_bias
        self.row_factors_, self.col_factors_ = row_factors, col_factors
        return self
