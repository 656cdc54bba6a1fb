"""Activation functions with forward and backward passes.

Each activation is a stateless object exposing ``forward(z)`` and
``backward(z, grad_out)`` where ``z`` is the pre-activation input that was
given to ``forward`` and ``grad_out`` is the gradient of the loss with
respect to the activation output.  ``backward`` returns the gradient with
respect to ``z``.

Both passes accept an optional ``out`` array so the training engine can
reuse preallocated buffers instead of allocating per minibatch, and
``backward`` accepts ``cached_output`` — the activation output computed by
the matching ``forward`` — which lets tanh/sigmoid derivatives reuse the
forward value instead of recomputing the transcendental.  ``out`` may
alias ``grad_out`` or ``z``: each backward reads what it needs of ``z``
before writing ``out``.  The training engine passes ``out=z`` (the
layer's pre-activation buffer, which the gradient replaces), and
``Tanh`` stages ``1 - t²`` in it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Activation",
    "Identity",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Softplus",
    "get_activation",
]


class Activation:
    """Base class for activations."""

    name = "base"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self,
        z: np.ndarray,
        grad_out: np.ndarray,
        out: np.ndarray | None = None,
        cached_output: np.ndarray | None = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Identity(Activation):
    """Linear (no-op) activation."""

    name = "identity"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None or out is z:
            return z
        out[...] = z
        return out

    def backward(
        self,
        z: np.ndarray,
        grad_out: np.ndarray,
        out: np.ndarray | None = None,
        cached_output: np.ndarray | None = None,
    ) -> np.ndarray:
        if out is None or out is grad_out:
            return grad_out
        out[...] = grad_out
        return out


class ReLU(Activation):
    """Rectified linear unit: ``max(0, z)``."""

    name = "relu"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.maximum(z, 0.0, out=out)

    def backward(
        self,
        z: np.ndarray,
        grad_out: np.ndarray,
        out: np.ndarray | None = None,
        cached_output: np.ndarray | None = None,
    ) -> np.ndarray:
        return np.multiply(grad_out, z > 0.0, out=out)


class Tanh(Activation):
    """Hyperbolic tangent activation."""

    name = "tanh"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.tanh(z, out=out)

    def backward(
        self,
        z: np.ndarray,
        grad_out: np.ndarray,
        out: np.ndarray | None = None,
        cached_output: np.ndarray | None = None,
    ) -> np.ndarray:
        t = cached_output if cached_output is not None else np.tanh(z)
        if out is None or np.may_share_memory(out, grad_out):
            return np.multiply(grad_out, 1.0 - t * t, out=out)
        # 1 - t^2 staged in ``out``: the same three operations, without
        # two batch x width temporaries per call.
        np.multiply(t, t, out=out)
        np.subtract(1.0, out, out=out)
        return np.multiply(grad_out, out, out=out)


class Sigmoid(Activation):
    """Logistic sigmoid, computed stably for large ``|z|``."""

    name = "sigmoid"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return sigmoid(z, out=out)

    def backward(
        self,
        z: np.ndarray,
        grad_out: np.ndarray,
        out: np.ndarray | None = None,
        cached_output: np.ndarray | None = None,
    ) -> np.ndarray:
        s = cached_output if cached_output is not None else sigmoid(z)
        return np.multiply(grad_out, s * (1.0 - s), out=out)


class Softplus(Activation):
    """Softplus ``log(1 + exp(z))`` — a smooth, strictly positive output.

    Used for point-process rate parameters that must stay positive.
    """

    name = "softplus"

    def forward(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return softplus(z, out=out)

    def backward(
        self,
        z: np.ndarray,
        grad_out: np.ndarray,
        out: np.ndarray | None = None,
        cached_output: np.ndarray | None = None,
    ) -> np.ndarray:
        # softplus' = sigmoid(z); the forward output does not give the
        # sigmoid any cheaper, so it is recomputed.
        return np.multiply(grad_out, sigmoid(z), out=out)


def _as_float(z: np.ndarray) -> np.ndarray:
    """View as-is for float inputs (any precision), cast otherwise."""
    z = np.asarray(z)
    if not np.issubdtype(z.dtype, np.floating):
        z = z.astype(float)
    return z


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    z = _as_float(z)
    if out is None:
        out = np.empty_like(z)
    pos = z >= 0
    neg_vals = z[~pos]  # gather before out (which may alias z) is written
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(neg_vals)
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable ``log(1 + exp(z))``."""
    z = _as_float(z)
    if out is None:
        out = np.empty_like(z)
    mx = np.maximum(z, 0.0)  # before out (which may alias z) is written
    np.abs(z, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += mx
    return out


_REGISTRY: dict[str, type[Activation]] = {
    cls.name: cls for cls in (Identity, ReLU, Tanh, Sigmoid, Softplus)
}


def get_activation(name_or_obj: str | Activation) -> Activation:
    """Resolve an activation by name or pass an instance through.

    Raises ``ValueError`` on an unknown name.
    """
    if isinstance(name_or_obj, Activation):
        return name_or_obj
    try:
        return _REGISTRY[name_or_obj]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown activation {name_or_obj!r}; known: {known}"
        ) from None
