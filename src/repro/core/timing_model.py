"""Task (iii): response time r_uq via the point process.  (Sec. II-A.3.)

Wraps the excitation point process with feature standardization.  The
excitation ``f_Theta`` follows the paper's configuration (hidden layers
(100, 50), tanh).  Two documented deviations from the paper's final
setup, both recorded in DESIGN.md:

* the decay defaults to a *network* ``g_Theta`` rather than a constant —
  with a constant decay the predicted time is proportional to the
  excitation, which tracks answer *propensity* rather than speed;
* the default prediction is the *conditional* first moment
  ``E[t | answered]`` rather than the paper's unnormalized
  ``int t lambda dt`` (available as ``predictor="expected"``), because
  the unnormalized form conflates response probability with timing.
"""

from __future__ import annotations

import numpy as np

from ..ml.optimizers import Adam
from ..ml.scaler import StandardScaler
from ..pointprocess.exponential import conditional_expected_time
from ..pointprocess.model import ExcitationPointProcess, PointProcessFitResult

__all__ = ["TimingModel"]


class TimingModel:
    """Point-process regressor for response times (hours)."""

    def __init__(
        self,
        n_features: int,
        *,
        excitation_hidden: tuple[int, ...] = (100, 50),
        decay: str = "network",
        omega: float = 0.5,
        decay_hidden: tuple[int, ...] = (32,),
        predictor: str = "conditional",
        learning_rate: float = 0.01,
        epochs: int = 300,
        batch_size: int = 256,
        l2: float = 1e-3,
        validation_fraction: float = 0.15,
        patience: int = 25,
        seed: int = 0,
    ):
        if predictor not in ("conditional", "expected"):
            raise ValueError("predictor must be 'conditional' or 'expected'")
        self.scaler = StandardScaler(clip=8.0)
        self.process = ExcitationPointProcess(
            n_features,
            excitation_hidden=excitation_hidden,
            decay=decay,
            omega=omega,
            decay_hidden=decay_hidden,
            l2=l2,
            seed=seed,
        )
        self.optimizer = Adam(learning_rate=learning_rate)
        self.predictor = predictor
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.seed = seed
        self._fitted = False

    def fit(
        self,
        x: np.ndarray,
        times: np.ndarray,
        horizons: np.ndarray,
        is_event: np.ndarray,
        *,
        epochs: int | None = None,
    ) -> PointProcessFitResult:
        """Maximize the point-process likelihood over event/non-event pairs.

        ``horizons`` is the per-pair observation window ``T - t(p_q0)``
        (paper notation), ``times`` the observed response delay for
        event rows.  ``epochs`` overrides the configured budget for one
        call; warm refits pass a reduced budget to fine-tune the
        already-trained process instead of re-running the full schedule.
        Patience scales with it: ``max(1, patience * epochs // self.epochs)``
        stale epochs end an overridden fit.  The fit keeps its best-epoch
        weights, so a shorter patience changes the result only when a
        validation improvement follows a stall that long.
        """
        times = np.asarray(times, dtype=float)
        is_event = np.asarray(is_event, dtype=float)
        event_times = times[is_event == 1.0]
        # Cap predictions at the bulk of the training distribution; for
        # pairs with near-zero excitation the likelihood barely constrains
        # the decay, and an unconstrained decay inflates E[t | answered].
        self._max_train_time = (
            float(np.percentile(event_times, 99.0)) if event_times.size else 1.0
        )
        z = self.scaler.fit_transform(np.asarray(x, dtype=float))
        # Adam moments always restart: a warm refit fine-tunes from the
        # current *weights* but never from stale optimizer state, so the
        # outcome depends only on (weights, data), which the parallel
        # fit path and the warm-refit tests rely on.
        self.optimizer.reset()
        patience = self.patience
        if epochs is None:
            epochs = self.epochs
        else:
            patience = max(1, self.patience * epochs // self.epochs)
        result = self.process.fit(
            z,
            np.asarray(times, dtype=float),
            np.asarray(horizons, dtype=float),
            np.asarray(is_event, dtype=float),
            optimizer=self.optimizer,
            epochs=epochs,
            batch_size=self.batch_size,
            validation_fraction=self.validation_fraction,
            patience=patience,
            seed=self.seed,
        )
        self._fitted = True
        return result

    def predict(
        self, x: np.ndarray, horizons: np.ndarray | float
    ) -> np.ndarray:
        """Predicted response time per row.

        ``predictor="conditional"`` returns ``E[t | answered]`` from the
        learned rate; ``"expected"`` returns the paper's unnormalized
        first moment.
        """
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        z = self.scaler.transform(np.atleast_2d(np.asarray(x, dtype=float)))
        if self.predictor == "expected":
            return self.process.predict_response_time(z, horizons)
        horizons = np.broadcast_to(
            np.asarray(horizons, dtype=float), (z.shape[0],)
        )
        mu, omega = self.process.predict_parameters(z)
        preds = conditional_expected_time(mu, omega, horizons)
        # Guard against runaway extrapolation: a near-zero learned decay
        # pushes the conditional mean toward horizon/2, far beyond any
        # observed response; cap at the training range.
        return np.minimum(preds, self._max_train_time)

    def rate_parameters(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Learned (mu, omega) per row, for inspection."""
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        z = self.scaler.transform(np.atleast_2d(np.asarray(x, dtype=float)))
        return self.process.predict_parameters(z)
