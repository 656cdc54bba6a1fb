"""Finite-difference gradient checks for the manual backprop stack.

Training runs every backward pass in place through preallocated
buffers; these checks pin the analytic gradients of
each activation/loss pairing (and the point-process NLL path, whose
gradient is injected by hand rather than through a loss object) against
central differences.
"""

import numpy as np
import pytest

from repro.ml.losses import get_loss
from repro.ml.network import MLP, Dense
from repro.pointprocess.model import ExcitationPointProcess

_EPS = 1e-6


def _numeric_grad(f, params: list[np.ndarray]) -> list[np.ndarray]:
    """Central-difference gradient of scalar ``f()`` w.r.t. each array."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + _EPS
            hi = f()
            flat_p[i] = orig - _EPS
            lo = f()
            flat_p[i] = orig
            flat_g[i] = (hi - lo) / (2.0 * _EPS)
        grads.append(g)
    return grads


def _mlp_loss(net: MLP, loss, x: np.ndarray, y: np.ndarray) -> float:
    return float(loss.value(net.forward(x), y))


def _check_mlp(net: MLP, loss_name: str, x: np.ndarray, y: np.ndarray):
    loss = get_loss(loss_name)
    y = y[:, None]  # MLP.fit trains against column targets
    pred = net.forward(x)
    net.backward(loss.gradient(pred, y))
    analytic = [g.copy() for g in net.gradients()]
    numeric = _numeric_grad(
        lambda: _mlp_loss(net, loss, x, y), net.parameters()
    )
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize(
    "hidden_activation,output_activation,loss_name,target",
    [
        ("tanh", "identity", "mse", "real"),
        ("relu", "identity", "mse", "real"),
        ("tanh", "sigmoid", "bce", "binary"),
        ("sigmoid", "sigmoid", "bce", "binary"),
        ("tanh", "softplus", "poisson_nll", "counts"),
        ("relu", "softplus", "poisson_nll", "counts"),
    ],
)
def test_mlp_gradients_match_finite_differences(
    hidden_activation, output_activation, loss_name, target
):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(12, 5))
    if target == "binary":
        y = rng.integers(0, 2, size=12).astype(float)
    elif target == "counts":
        y = rng.poisson(2.0, size=12).astype(float)
    else:
        y = rng.normal(size=12)
    net = MLP(
        [5, 7, 4, 1],
        hidden_activation=hidden_activation,
        output_activation=output_activation,
        seed=3,
    )
    if hidden_activation == "relu":
        # Keep pre-activations away from the ReLU kink, where the
        # analytic subgradient and the central difference disagree.
        pre = net.layers[0].weight.T @ x.T + net.layers[0].bias[:, None]
        assert np.min(np.abs(pre)) > 1e-4
    _check_mlp(net, loss_name, x, y)


def test_l2_regularized_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    net = MLP([4, 6, 1], seed=1, l2=0.3)
    loss = get_loss("mse")
    y = y[:, None]

    def full_loss():
        value = float(loss.value(net.forward(x), y))
        return value + 0.5 * net.l2 * sum(
            float(np.sum(layer.weight**2)) for layer in net.layers
        )

    net.backward(loss.gradient(net.forward(x), y))
    numeric = _numeric_grad(full_loss, net.parameters())
    for a, n in zip(net.gradients(), numeric):
        np.testing.assert_allclose(a, n, rtol=1e-5, atol=1e-7)


def test_buffered_backward_matches_unbuffered_bitwise():
    """The training step's buffered backward (scratch buffers, no
    first-layer input gradient) fills the same weight and bias
    gradients as the allocating one, bit for bit, for tanh/softplus and
    relu/identity nets."""
    rng = np.random.default_rng(17)
    loss = get_loss("mse")

    def run(buffered: bool, activations, x, y):
        hidden, output = activations
        net = MLP(
            [5, 6, 4, 1],
            hidden_activation=hidden,
            output_activation=output,
            seed=2,
            l2=0.1,
        )
        grad = loss.gradient(net.forward(x, buffered=buffered), y)
        net.backward(grad, buffered=buffered)
        return [g.copy() for g in net.gradients()]

    for activations in (("tanh", "softplus"), ("relu", "identity")):
        for rows in (1, 8, 33):
            x = rng.normal(size=(rows, 5))
            y = rng.normal(size=rows)[:, None]
            unbuffered = run(False, activations, x, y)
            buffered = run(True, activations, x, y)
            for a, b in zip(unbuffered, buffered):
                np.testing.assert_array_equal(a, b)


def test_mlp_input_gradient():
    """The unbuffered backward returns dL/dx (finite differences); the
    buffered training step skips it and returns None."""
    rng = np.random.default_rng(29)
    x = rng.normal(size=(6, 4))
    y = rng.normal(size=6)[:, None]
    net = MLP([4, 5, 3, 1], hidden_activation="tanh", seed=4)
    loss = get_loss("mse")

    grad_x = net.backward(loss.gradient(net.forward(x), y))
    numeric = _numeric_grad(lambda: _mlp_loss(net, loss, x, y), [x])[0]
    np.testing.assert_allclose(grad_x, numeric, rtol=1e-5, atol=1e-7)
    grad = loss.gradient(net.forward(x, buffered=True), y)
    assert net.backward(grad, buffered=True) is None


def test_dense_layer_input_gradient():
    """dL/dx returned by backward, checked against finite differences."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(6, 4))
    layer = Dense(4, 3, activation="tanh", rng=np.random.default_rng(9))
    upstream = rng.normal(size=(6, 3))

    def scalar():
        return float(np.sum(layer.forward(x) * upstream))

    layer.forward(x)
    grad_x = layer.backward(upstream.copy())
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + _EPS
        hi = scalar()
        x.flat[i] = orig - _EPS
        lo = scalar()
        x.flat[i] = orig
        g.flat[i] = (hi - lo) / (2.0 * _EPS)
    np.testing.assert_allclose(grad_x, g, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("decay", ["constant", "network"])
def test_point_process_parameter_gradients(decay):
    """The hand-injected NLL gradient path through both networks."""
    rng = np.random.default_rng(31)
    n, d = 10, 4
    x = rng.normal(size=(n, d))
    times = rng.uniform(0.1, 5.0, size=n)
    horizons = rng.uniform(6.0, 20.0, size=n)
    is_event = (rng.random(n) < 0.6).astype(float)
    pp = ExcitationPointProcess(
        d, excitation_hidden=(6,), decay=decay, decay_hidden=(5,), seed=13
    )
    params = pp.excitation_net.parameters()
    if pp.decay_net is not None:
        params = params + pp.decay_net.parameters()

    def nll():
        value, _, _ = pp._batch_nll_and_grads(x, times, horizons, is_event)
        return value

    _, grad_mu, grad_omega = pp._batch_nll_and_grads(
        x, times, horizons, is_event
    )
    pp.excitation_net.backward(grad_mu[:, None])
    analytic = [g.copy() for g in pp.excitation_net.gradients()]
    if pp.decay_net is not None:
        pp.decay_net.backward(grad_omega[:, None])
        analytic += [g.copy() for g in pp.decay_net.gradients()]
    numeric = _numeric_grad(nll, params)
    for a, n_ in zip(analytic, numeric):
        np.testing.assert_allclose(a, n_, rtol=1e-4, atol=1e-6)
