"""Task (ii): net votes v_uq on the answer.  (Paper Sec. II-A.2.)

A fully-connected network on standardized features.  The paper's
configuration is L = 4 hidden layers of 20 ReLU units; its Eq. (1)
applies the nonlinearity to the output as well, but votes are signed
integers, so we keep the output linear (recorded in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..ml.network import MLP, FitResult
from ..ml.optimizers import Adam
from ..ml.scaler import StandardScaler

__all__ = ["VoteModel"]


class VoteModel:
    """MLP regressor for answer net votes."""

    def __init__(
        self,
        n_features: int,
        *,
        hidden: tuple[int, ...] = (20, 20, 20, 20),
        l2: float = 0.05,
        learning_rate: float = 0.001,
        epochs: int = 300,
        batch_size: int = 64,
        validation_fraction: float = 0.15,
        patience: int = 25,
        seed: int = 0,
    ):
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        self.scaler = StandardScaler(clip=8.0)
        self.network = MLP(
            [n_features, *hidden, 1],
            hidden_activation="relu",
            output_activation="identity",
            seed=seed,
            l2=l2,
        )
        self.optimizer = Adam(learning_rate=learning_rate)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.seed = seed
        self._fitted = False

    def fit(
        self, x: np.ndarray, votes: np.ndarray, *, epochs: int | None = None
    ) -> FitResult:
        """Train on feature rows of answered pairs and their net votes.

        Uses an internal validation split with early stopping — the small
        deep network of the paper overfits badly on a few hundred
        answers without it.  ``epochs`` overrides the configured budget
        for one call; warm refits pass a reduced budget to fine-tune the
        already-trained network instead of re-running the full schedule.
        Unlike the timing head's, patience does not shrink with it: a
        warm vote fit can improve again after a stall of 5 epochs.
        """
        z = self.scaler.fit_transform(np.asarray(x, dtype=float))
        # Adam moments always restart: a warm refit fine-tunes from the
        # current *weights* but never from stale optimizer state, so the
        # outcome depends only on (weights, data), which the parallel
        # fit path and the warm-refit tests rely on.
        self.optimizer.reset()
        result = self.network.fit(
            z,
            np.asarray(votes, dtype=float),
            loss="mse",
            optimizer=self.optimizer,
            epochs=self.epochs if epochs is None else epochs,
            batch_size=self.batch_size,
            validation_fraction=self.validation_fraction,
            patience=self.patience,
            seed=self.seed,
        )
        self._fitted = True
        return result

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted net votes per row."""
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        return self.network.predict(
            self.scaler.transform(np.atleast_2d(np.asarray(x, dtype=float)))
        )
