"""Every model head is row-invariant, bit for bit.

``head(x[idx]) == head(x)[idx]`` for any row selection ``idx``: serving
stacks the candidates of several questions into one call and scores the
vote and timing heads only on eligible rows, and neither may change a
row's bits.  The inference forward runs each matmul on fixed 64-row
tiles; an untiled product changes kernels with the row count on common
BLAS builds (OpenBLAS above about 128 rows), so sizes go up to 1,200.
A BLAS build that breaks tile invariance fails here.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.answer_model import AnswerModel
from repro.core.timing_model import TimingModel
from repro.core.vote_model import VoteModel
from repro.ml.network import MLP, TILE_ROWS

N_FEATURES = 34
MAX_ROWS = 1200


def _training_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, N_FEATURES))
    answered = (x[:, 0] + rng.normal(size=300) > 0).astype(float)
    times = rng.exponential(5.0, size=300) * answered
    horizons = rng.uniform(10.0, 200.0, size=300)
    votes = np.round(2.0 * x[:, 1] + x[:, 2])
    return x, answered, times, horizons, votes


@cache
def _heads():
    """Fitted heads by name (short fits: invariance needs weights, not
    good ones)."""
    x, answered, times, horizons, votes = _training_data()
    answer = AnswerModel().fit(x, answered)
    vote = VoteModel(N_FEATURES, epochs=3)
    vote.fit(x, votes)
    heads = {
        "mlp.infer": MLP(
            [N_FEATURES, 100, 50, 1],
            hidden_activation="tanh",
            output_activation="softplus",
            seed=1,
        ).infer,
        "answer_model.predict_proba": answer.predict_proba,
        "vote_model.predict": vote.predict,
    }
    for predictor in ("conditional", "expected"):
        timing = TimingModel(N_FEATURES, epochs=3, predictor=predictor)
        timing.fit(x, times, horizons, answered)
        heads[f"timing_model.predict[{predictor}]"] = timing.predict
    return heads


HEAD_NAMES = [
    "mlp.infer",
    "answer_model.predict_proba",
    "vote_model.predict",
    "timing_model.predict[conditional]",
    "timing_model.predict[expected]",
]


def _run(name, x, horizons):
    head = _heads()[name]
    return head(x, horizons) if name.startswith("timing") else head(x)


def assert_bitwise(expected, got):
    assert expected.dtype == got.dtype
    assert expected.shape == got.shape
    assert expected.tobytes() == got.tobytes()


@st.composite
def rows_and_selection(draw):
    """Feature rows, per-row horizons and a row selection into them:
    a sorted subset, indices with repeats in any order, or one row."""
    n = draw(st.integers(1, MAX_ROWS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    x = rng.normal(scale=scale, size=(n, N_FEATURES))
    horizons = rng.uniform(1.0, 500.0, size=n)
    kind = draw(st.sampled_from(["subset", "repeats", "single"]))
    if kind == "subset":
        size = int(rng.integers(1, n + 1))
        idx = np.sort(rng.choice(n, size=size, replace=False))
    elif kind == "repeats":
        idx = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
    else:
        idx = np.array([rng.integers(n)])
    return x, horizons, idx


def _every_other_row():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(MAX_ROWS, N_FEATURES))
    return x, rng.uniform(1.0, 500.0, size=MAX_ROWS), np.arange(0, MAX_ROWS, 2)


@pytest.mark.parametrize("name", HEAD_NAMES)
@settings(max_examples=30, deadline=None)
@given(case=rows_and_selection())
@example(case=_every_other_row())
def test_head_is_row_invariant(name, case):
    x, horizons, idx = case
    full = _run(name, x, horizons)
    assert_bitwise(full[idx], _run(name, x[idx], horizons[idx]))


def test_tile_padding_is_not_output():
    """Equal rows score equally at every tile position, and the zero
    padding of a partial tile never appears in the result."""
    net = MLP([N_FEATURES, 8, 3], seed=0)
    for n in (1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS):
        x = np.ones((n, N_FEATURES))
        out = net.infer(x)
        assert out.shape == (n, 3)
        assert_bitwise(np.broadcast_to(out[0], out.shape).copy(), out)
    assert net.infer(np.empty((0, N_FEATURES))).shape == (0, 3)


def test_infer_leaves_training_state_alone():
    net = MLP([N_FEATURES, 8, 1], seed=0)
    x = np.random.default_rng(0).normal(size=(5, N_FEATURES))
    net.forward(x)
    cached = [layer._input for layer in net.layers]
    net.infer(np.zeros((70, N_FEATURES)))
    assert all(
        layer._input is before for layer, before in zip(net.layers, cached)
    )
