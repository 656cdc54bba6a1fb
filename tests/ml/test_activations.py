"""Tests for repro.ml.activations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.activations import (
    Identity,
    ReLU,
    Sigmoid,
    Softplus,
    Tanh,
    get_activation,
    sigmoid,
    softplus,
)

ALL_ACTIVATIONS = [Identity(), ReLU(), Tanh(), Sigmoid(), Softplus()]

finite_arrays = hnp.arrays(
    dtype=float,
    shape=hnp.array_shapes(max_dims=2, max_side=5),
    elements=st.floats(-30, 30),
)


def numeric_derivative(act, z, eps=1e-6):
    return (act.forward(z + eps) - act.forward(z - eps)) / (2 * eps)


class TestForwardValues:
    def test_identity(self):
        z = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(Identity().forward(z), z)

    def test_relu(self):
        z = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(ReLU().forward(z), [0.0, 0.0, 3.0])

    def test_tanh_matches_numpy(self):
        z = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(Tanh().forward(z), np.tanh(z))

    def test_sigmoid_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_extremes_are_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_softplus_at_zero(self):
        assert softplus(np.array([0.0]))[0] == pytest.approx(np.log(2.0))

    def test_softplus_large_input_no_overflow(self):
        out = softplus(np.array([800.0]))
        assert out[0] == pytest.approx(800.0)

    def test_softplus_is_positive(self):
        z = np.linspace(-50, 50, 101)
        assert np.all(softplus(z) > 0)


class TestBackwardMatchesNumericDerivative:
    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_gradient(self, act):
        rng = np.random.default_rng(0)
        z = rng.normal(size=20) * 3
        # Avoid the ReLU kink where the numeric derivative is ill-defined.
        z = z[np.abs(z) > 1e-3]
        grad = act.backward(z, np.ones_like(z))
        np.testing.assert_allclose(grad, numeric_derivative(act, z), atol=1e-5)

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_chain_rule_scaling(self, act):
        z = np.array([0.7, -1.3])
        upstream = np.array([2.0, -3.0])
        expected = act.backward(z, np.ones_like(z)) * upstream
        np.testing.assert_allclose(act.backward(z, upstream), expected)

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_out_buffers_match_allocating_backward(self, act):
        """Writing into a separate ``out``, into ``grad_out`` or into
        ``z`` (the training engine's choice; Tanh stages 1 - t^2 there)
        gives the allocating result exactly."""
        rng = np.random.default_rng(3)
        z = rng.normal(size=(7, 5)) * 2
        upstream = rng.normal(size=z.shape)
        cached = act.forward(z.copy())
        expected = act.backward(z, upstream, cached_output=cached)
        out = np.full_like(z, np.nan)
        got = act.backward(z, upstream, out=out, cached_output=cached)
        np.testing.assert_array_equal(got, expected)
        aliased = upstream.copy()
        act.backward(z, aliased, out=aliased, cached_output=cached)
        np.testing.assert_array_equal(aliased, expected)
        scratch = z.copy()
        act.backward(scratch, upstream, out=scratch, cached_output=cached)
        np.testing.assert_array_equal(scratch, expected)


class TestProperties:
    @given(finite_arrays)
    def test_sigmoid_in_unit_interval(self, z):
        out = sigmoid(z)
        assert np.all(out >= 0) and np.all(out <= 1)

    @given(finite_arrays)
    def test_relu_non_negative(self, z):
        assert np.all(ReLU().forward(z) >= 0)

    @given(finite_arrays)
    def test_softplus_upper_bounds_relu(self, z):
        assert np.all(softplus(z) >= ReLU().forward(z))

    @given(finite_arrays)
    def test_tanh_bounded(self, z):
        out = Tanh().forward(z)
        assert np.all(np.abs(out) <= 1.0)


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("identity", Identity),
            ("relu", ReLU),
            ("tanh", Tanh),
            ("sigmoid", Sigmoid),
            ("softplus", Softplus),
        ],
    )
    def test_lookup_by_name(self, name, cls):
        assert isinstance(get_activation(name), cls)

    def test_passthrough_instance(self):
        act = ReLU()
        assert get_activation(act) is act

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            get_activation("gelu")
