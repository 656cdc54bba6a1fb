"""Tests for repro.baselines.mf."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mf import MatrixFactorization
from repro.ml.metrics import rmse

from .mf_oracle import AddAtMatrixFactorization, PerColumnMatrixFactorization


def low_rank_data(n_rows=40, n_cols=30, k=3, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.normal(0, 1, size=(n_rows, k))
    q = rng.normal(0, 1, size=(n_cols, k))
    bu = rng.normal(0, 0.5, size=n_rows)
    bq = rng.normal(0, 0.5, size=n_cols)
    full = 1.0 + bu[:, None] + bq[None, :] + p @ q.T
    full += rng.normal(0, noise, size=full.shape)
    rows, cols = np.meshgrid(np.arange(n_rows), np.arange(n_cols), indexing="ij")
    return rows.ravel(), cols.ravel(), full.ravel()


class TestFit:
    def test_reconstruction_on_heldout(self):
        rows, cols, values = low_rank_data()
        rng = np.random.default_rng(1)
        mask = rng.uniform(size=len(values)) < 0.8
        model = MatrixFactorization(40, 30, n_factors=5, n_iter=800, seed=0)
        model.fit(rows[mask], cols[mask], values[mask])
        preds = model.predict(rows[~mask], cols[~mask])
        baseline = rmse(values[~mask], np.full((~mask).sum(), values[mask].mean()))
        assert rmse(values[~mask], preds) < 0.6 * baseline

    def test_loss_decreases(self):
        rows, cols, values = low_rank_data(seed=2)
        model = MatrixFactorization(40, 30, n_iter=100, seed=2)
        model.fit(rows, cols, values)
        assert model.loss_history_[-1] < model.loss_history_[0]

    def test_global_mean_learned(self):
        rows, cols, values = low_rank_data(seed=3)
        model = MatrixFactorization(40, 30, n_iter=10, seed=3)
        model.fit(rows, cols, values)
        assert model.global_mean_ == pytest.approx(values.mean())

    def test_unobserved_pair_falls_back_to_biases(self):
        # Train on a single column; another column should predict near the mean.
        rows = np.arange(10)
        cols = np.zeros(10, dtype=int)
        values = np.linspace(-1, 1, 10)
        model = MatrixFactorization(10, 5, n_iter=200, seed=4)
        model.fit(rows, cols, values)
        pred = model.predict([0], [3])
        assert abs(pred[0] - values.mean()) < 1.0

    def test_deterministic(self):
        rows, cols, values = low_rank_data(seed=5)
        a = MatrixFactorization(40, 30, n_iter=50, seed=9).fit(rows, cols, values)
        b = MatrixFactorization(40, 30, n_iter=50, seed=9).fit(rows, cols, values)
        np.testing.assert_array_equal(
            a.predict(rows[:5], cols[:5]), b.predict(rows[:5], cols[:5])
        )


@st.composite
def mf_problems(draw):
    """A small factorization: observations that repeat rows and columns
    and may leave some unobserved, optional warm-start inits, and 1-6
    factors."""
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    n_factors = draw(st.integers(1, 6))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_rows - 1),
                st.integers(0, n_cols - 1),
                st.floats(-5, 5, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    rows, cols, values = (np.array(c) for c in zip(*cells))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shapes = {
        "row_bias_init": (n_rows,),
        "col_bias_init": (n_cols,),
        "row_factors_init": (n_rows, n_factors),
        "col_factors_init": (n_cols, n_factors),
    }
    inits = {
        name: rng.normal(size=shape)
        for name, shape in shapes.items()
        if draw(st.booleans())
    }
    return (n_rows, n_cols, n_factors), (rows, cols, values), inits


@settings(max_examples=60, deadline=None)
@given(mf_problems(), st.integers(0, 3))
def test_fit_matches_add_at_oracle(problem, seed):
    """The bincount fit over one flat parameter vector reproduces the
    per-array np.add.at fit bit for bit: factors, biases and losses."""
    (n_rows, n_cols, n_factors), data, inits = problem
    kwargs = dict(n_factors=n_factors, n_iter=12, seed=seed)
    got = MatrixFactorization(n_rows, n_cols, **kwargs).fit(*data, **inits)
    want = AddAtMatrixFactorization(n_rows, n_cols, **kwargs).fit(*data, **inits)
    for name in ("row_bias_", "col_bias_", "row_factors_", "col_factors_"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.loss_history_ == want.loss_history_
    assert got.global_mean_ == want.global_mean_


@settings(max_examples=40, deadline=None)
@given(mf_problems(), st.integers(0, 3))
def test_fit_matches_per_column_oracle(problem, seed):
    """One bincount per factor array over flat (index, factor) keys
    reproduces one bincount per factor column bit for bit."""
    (n_rows, n_cols, n_factors), data, _ = problem
    kwargs = dict(n_factors=n_factors, n_iter=12, seed=seed)
    got = MatrixFactorization(n_rows, n_cols, **kwargs).fit(*data)
    want = PerColumnMatrixFactorization(n_rows, n_cols, **kwargs).fit(*data)
    for name in ("row_bias_", "col_bias_", "row_factors_", "col_factors_"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.loss_history_ == want.loss_history_


class TestValidation:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MatrixFactorization(3, 3).predict([0], [0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MatrixFactorization(3, 3).fit([0, 1], [0], [1.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MatrixFactorization(3, 3).fit([0], [9], [1.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            MatrixFactorization(3, 3).fit([], [], [])
