"""Trainable point process with neural-network parameterized rates.

The paper models the initial excitation as ``mu_uq = f_Theta(x_uq)`` and
the decay as either a second network ``omega_uq = g_Theta(x_uq)`` or a
constant (its final configuration uses a constant, Sec. IV-A).  Training
maximizes the point-process log likelihood by gradient descent through
the feature networks.

One deliberate deviation: the paper's excitation network uses a ReLU
output, which can emit exactly zero and kill both ``log(mu)`` and the
gradient.  We use softplus, which matches ReLU asymptotically but stays
strictly positive (recorded in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ml.network import MLP
from ..ml.optimizers import Optimizer, get_optimizer
from .exponential import expected_response_time

__all__ = ["ExcitationPointProcess", "PointProcessFitResult"]

_MU_FLOOR = 1e-8
_OMEGA_FLOOR = 1e-6


@dataclass
class PointProcessFitResult:
    """Negative-log-likelihood history from training."""

    nll_history: list[float] = field(default_factory=list)
    validation_history: list[float] = field(default_factory=list)

    @property
    def final_nll(self) -> float:
        return self.nll_history[-1] if self.nll_history else float("nan")


class ExcitationPointProcess:
    """Point process over (user, question) pairs with feature-driven rates.

    Parameters
    ----------
    n_features:
        Dimension of the feature vector ``x_uq``.
    excitation_hidden:
        Hidden layer sizes of ``f_Theta`` (paper: (100, 50) with tanh).
    decay:
        ``"constant"`` (paper default) or ``"network"`` for ``g_Theta``.
    omega:
        The constant decay rate when ``decay == "constant"``; with hours
        as the time unit a value around 0.1-1.0 is typical.
    """

    def __init__(
        self,
        n_features: int,
        *,
        excitation_hidden: tuple[int, ...] = (100, 50),
        decay: str = "constant",
        omega: float = 0.5,
        decay_hidden: tuple[int, ...] = (32,),
        l2: float = 0.0,
        seed: int = 0,
    ):
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        if decay not in ("constant", "network"):
            raise ValueError("decay must be 'constant' or 'network'")
        if omega <= 0:
            raise ValueError("omega must be positive")
        self.n_features = n_features
        self.decay = decay
        self.omega = omega
        self.excitation_net = MLP(
            [n_features, *excitation_hidden, 1],
            hidden_activation="tanh",
            output_activation="softplus",
            seed=seed,
            l2=l2,
        )
        self.decay_net: MLP | None = None
        if decay == "network":
            self.decay_net = MLP(
                [n_features, *decay_hidden, 1],
                hidden_activation="tanh",
                output_activation="softplus",
                seed=seed + 1,
                l2=l2,
            )
        self._fitted = False

    # -- parameter readout ------------------------------------------------------

    def predict_parameters(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mu, omega) for each feature row, floored away from zero.

        Runs the networks' row-invariant inference forward, so each
        row's parameters depend only on that row.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mu = np.maximum(self.excitation_net.infer(x)[:, 0], _MU_FLOOR)
        if self.decay_net is not None:
            omega = np.maximum(self.decay_net.infer(x)[:, 0], _OMEGA_FLOOR)
        else:
            omega = np.full(x.shape[0], self.omega)
        return mu, omega

    def predict_response_time(
        self, x: np.ndarray, horizon: np.ndarray | float
    ) -> np.ndarray:
        """The paper's r_uq prediction: E[t] from the learned rate."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        horizon = np.broadcast_to(
            np.asarray(horizon, dtype=float), (x.shape[0],)
        )
        mu, omega = self.predict_parameters(x)
        return expected_response_time(mu, omega, horizon)

    # -- likelihood --------------------------------------------------------------

    def _batch_nll_and_grads(
        self,
        x: np.ndarray,
        times: np.ndarray,
        horizons: np.ndarray,
        is_event: np.ndarray,
        *,
        buffered: bool = False,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Mean NLL over the batch plus dNLL/dmu and dNLL/domega.

        Every pair contributes the compensator
        ``mu (1 - e^{-omega d}) / omega``; event pairs additionally
        contribute the point term ``-(log mu - omega t)``.
        """
        n = x.shape[0]
        mu_raw = self.excitation_net.forward(x, buffered=buffered)[:, 0]
        mu = np.maximum(mu_raw, _MU_FLOOR)
        if self.decay_net is not None:
            omega_raw = self.decay_net.forward(x, buffered=buffered)[:, 0]
            omega = np.maximum(omega_raw, _OMEGA_FLOOR)
        else:
            omega = np.full(n, self.omega)
        exp_od = np.exp(-omega * horizons)
        one_minus = -np.expm1(-omega * horizons)  # 1 - e^{-omega d}
        compensator = mu * one_minus / omega
        point = is_event * (np.log(mu) - omega * times)
        nll = float(np.sum(compensator - point)) / n
        # Gradients of the mean NLL.
        grad_mu = (one_minus / omega - is_event / mu) / n
        grad_omega = (
            mu * (horizons * exp_od * omega - one_minus) / omega**2
            + is_event * times
        ) / n
        return nll, grad_mu, grad_omega

    # -- training -----------------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        times: np.ndarray,
        horizons: np.ndarray,
        is_event: np.ndarray,
        *,
        optimizer: str | Optimizer = "adam",
        epochs: int = 200,
        batch_size: int = 256,
        validation_fraction: float = 0.0,
        patience: int = 20,
        seed: int = 0,
    ) -> PointProcessFitResult:
        """Maximize the likelihood over a set of (user, question) pairs.

        Parameters
        ----------
        x:
            Feature matrix, one row per pair (events and non-events mixed).
        times:
            Observed response time for event rows; ignored (use 0) for
            non-event rows.
        horizons:
            Observation horizon ``d`` for each pair — how long the pair
            was exposed after the question (the paper uses ``T - t_q0``).
        is_event:
            1.0 where the user answered, 0.0 otherwise.
        validation_fraction:
            When positive, hold out a slice of pairs and early-stop on
            its NLL (restoring the best-epoch weights) — the decay
            network otherwise memorizes training response times.
        """
        x = np.asarray(x, dtype=float)
        times = np.asarray(times, dtype=float)
        horizons = np.asarray(horizons, dtype=float)
        is_event = np.asarray(is_event, dtype=float)
        n = x.shape[0]
        if not (times.shape == horizons.shape == is_event.shape == (n,)):
            raise ValueError("times, horizons and is_event must be (n,) arrays")
        if np.any(horizons <= 0):
            raise ValueError("horizons must be positive")
        if np.any((is_event > 0) & (times < 0)):
            raise ValueError("event times must be non-negative")
        if not np.all(np.isin(is_event, (0.0, 1.0))):
            raise ValueError("is_event must be binary")
        if not 0.0 <= validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        opt = get_optimizer(optimizer)
        rng = np.random.default_rng(seed)
        val_idx: np.ndarray | None = None
        if validation_fraction > 0.0:
            n_val = max(1, int(round(n * validation_fraction)))
            if n_val >= n:
                raise ValueError("validation split leaves no training data")
            order = rng.permutation(n)
            val_idx, train_idx = order[:n_val], order[n_val:]
            x_val, t_val = x[val_idx], times[val_idx]
            h_val, e_val = horizons[val_idx], is_event[val_idx]
            x, times = x[train_idx], times[train_idx]
            horizons, is_event = horizons[train_idx], is_event[train_idx]
            n = x.shape[0]
        # One flat parameter/gradient vector per network: the Adam
        # update touches 2 (or 4) arrays per step instead of one pair
        # per layer, and minibatches gather into fixed buffers.
        params = [self.excitation_net.flat_parameters()]
        grads = [self.excitation_net.flat_gradients()]
        if self.decay_net is not None:
            params.append(self.decay_net.flat_parameters())
            grads.append(self.decay_net.flat_gradients())
        result = PointProcessFitResult()
        best_val = np.inf
        best_params: list[np.ndarray] | None = None
        stale = 0
        bs = min(batch_size, n)
        # (times, horizons, is_event, x) buffers for the full batch size
        # and for the short last batch when n is not a multiple of bs.
        bufs = {
            rows: (
                np.empty(rows),
                np.empty(rows),
                np.empty(rows),
                np.empty((rows, x.shape[1])),
            )
            for rows in {bs, n % bs} - {0}
        }
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_nll = 0.0
            for start in range(0, n, bs):
                idx = order[start : start + bs]
                tb, hb, eb, xb = bufs[idx.size]
                np.take(x, idx, axis=0, out=xb)
                np.take(times, idx, out=tb)
                np.take(horizons, idx, out=hb)
                np.take(is_event, idx, out=eb)
                nll, grad_mu, grad_omega = self._batch_nll_and_grads(
                    xb, tb, hb, eb, buffered=True
                )
                self.excitation_net.backward(grad_mu[:, None], buffered=True)
                if self.decay_net is not None:
                    self.decay_net.backward(grad_omega[:, None], buffered=True)
                opt.step(params, grads)
                epoch_nll += nll * len(idx)
            result.nll_history.append(epoch_nll / n)
            if val_idx is not None:
                val_nll, _, _ = self._batch_nll_and_grads(
                    x_val, t_val, h_val, e_val, buffered=True
                )
                result.validation_history.append(val_nll)
                if val_nll < best_val - 1e-12:
                    best_val = val_nll
                    best_params = [p.copy() for p in params]
                    stale = 0
                else:
                    stale += 1
                    if stale >= patience:
                        break
        if best_params is not None:
            for p, best in zip(params, best_params):
                p[...] = best
        self.excitation_net.release_buffers()
        if self.decay_net is not None:
            self.decay_net.release_buffers()
        self._fitted = True
        return result

    def nll(
        self,
        x: np.ndarray,
        times: np.ndarray,
        horizons: np.ndarray,
        is_event: np.ndarray,
    ) -> float:
        """Mean negative log likelihood of a set of pairs (no update)."""
        value, _, _ = self._batch_nll_and_grads(
            np.asarray(x, dtype=float),
            np.asarray(times, dtype=float),
            np.asarray(horizons, dtype=float),
            np.asarray(is_event, dtype=float),
        )
        return value
