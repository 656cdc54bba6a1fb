"""Fully-connected neural network with manual backpropagation.

This implements the network of paper Eq. (1): a stack of dense layers
``h_{l+1} = sigma(W_l^T h_l + b_l)``, trained with minibatch gradient
descent.  The network exposes raw ``forward``/``backward`` so that models
with custom likelihoods (the point process of Sec. II-A.3) can inject
their own output gradients, plus a convenience ``fit`` for standard
regression losses.

Training keeps every parameter and gradient in one flat vector (layer
arrays are views into it), layers keep per-batch-size activation/gradient
buffers that forward/backward write into with ``out=`` ufuncs, and
minibatches are gathered with ``np.take`` into preallocated arrays.  One
optimizer step therefore touches two arrays instead of ``2 * n_layers``,
and a training step allocates almost nothing.  ``forward``/``backward``
also run unbuffered (``buffered=False``, the default) for passes outside
a training loop, such as a one-off likelihood; that path allocates fresh
arrays and computes the same values.

Inference has its own stateless forward, ``MLP.infer`` (one
``Dense.infer`` per layer), which every prediction entry point uses.
It stacks the input into tiles of exactly ``TILE_ROWS`` rows, zero-pads
the last tile, and runs each layer's matmul over the tile stack, so
every BLAS call sees the same 64-row shape whatever the caller's row
count.  A BLAS kernel may pick its blocking and summation order by
matrix size (OpenBLAS switches kernels above about 128 rows), so an
untiled product can change a row's last bits when other rows are added
or removed.  On tiles, row ``i`` of the output depends only on
``x[i]``: scoring a subset of rows is bit-identical to scoring all of
them and taking the subset.  ``tiled_matmul`` is the same tiling for a
single product (the logistic answer head).  The training forward and
backward above keep their buffered, untiled products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, get_activation
from .initializers import get_initializer
from .losses import Loss, get_loss
from .optimizers import Optimizer, get_optimizer

__all__ = ["Dense", "MLP", "FitResult", "TILE_ROWS", "tiled_matmul"]

# Rows per inference tile.  64 and 128 give identical outputs; what
# matters is that the tile shape is fixed, not what it is.
TILE_ROWS = 64


def _tiles(x: np.ndarray) -> np.ndarray:
    """``x`` (rows, dim) as a (tiles, TILE_ROWS, dim) stack.

    The last tile is zero-padded; a row count that fills whole tiles is
    reshaped without a copy.
    """
    n, dim = x.shape
    n_tiles = max(1, -(-n // TILE_ROWS))
    if n == n_tiles * TILE_ROWS:
        return np.ascontiguousarray(x).reshape(n_tiles, TILE_ROWS, dim)
    padded = np.zeros((n_tiles * TILE_ROWS, dim), dtype=x.dtype)
    padded[:n] = x
    return padded.reshape(n_tiles, TILE_ROWS, dim)


def _untile(tiles: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` rows of a tile stack, padding dropped."""
    return tiles.reshape((-1,) + tiles.shape[2:])[:n]


def tiled_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for 2-D ``x``, one fixed-shape product per 64-row tile.

    Row ``i`` of the result depends only on ``x[i]`` (see the module
    docstring); ``w`` may be a matrix or a vector.
    """
    return _untile(np.matmul(_tiles(x), w), x.shape[0])


class Dense:
    """A single dense layer with an activation.

    Caches the forward inputs needed for the backward pass; ``backward``
    must be called with the same batch that was last passed to ``forward``.
    With ``buffered=True`` both passes reuse preallocated per-batch-size
    buffers (pre-activation, activation output, input gradient) and write
    the weight/bias gradients into stable arrays instead of allocating.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str | Activation = "identity",
        *,
        rng: np.random.Generator,
        initializer: str | None = None,
    ):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        self.activation = get_activation(activation)
        if initializer is None:
            initializer = (
                "he_normal" if self.activation.name == "relu" else "glorot_uniform"
            )
        init = get_initializer(initializer)
        self.weight = init(in_dim, out_dim, rng)
        self.bias = np.zeros(out_dim)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None
        self._pre_activation: np.ndarray | None = None
        self._output: np.ndarray | None = None
        self._bufs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    def _buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pre-activation, output, input-gradient) buffers for a batch size."""
        bufs = self._bufs.get(rows)
        if bufs is None:
            bufs = (
                np.empty((rows, self.out_dim)),
                np.empty((rows, self.out_dim)),
                np.empty((rows, self.in_dim)),
            )
            self._bufs[rows] = bufs
        return bufs

    def forward(self, x: np.ndarray, *, buffered: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._input = x
        if buffered:
            z, out, _ = self._buffers(x.shape[0])
            np.matmul(x, self.weight, out=z)
            z += self.bias
            self._pre_activation = z
            self._output = self.activation.forward(z, out=out)
        else:
            self._pre_activation = x @ self.weight + self.bias
            self._output = self.activation.forward(self._pre_activation)
        return self._output

    def infer(self, tiles: np.ndarray) -> np.ndarray:
        """Stateless forward over a (tiles, TILE_ROWS, in_dim) stack.

        Each tile is one fixed-shape matmul, so an output row depends
        only on its input row.  Nothing is cached for ``backward``.
        """
        z = np.matmul(tiles, self.weight)
        z += self.bias
        return self.activation.forward(z, out=z)

    def backward(
        self,
        grad_out: np.ndarray,
        *,
        buffered: bool = False,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """Fill ``grad_weight``/``grad_bias``; return ``dLoss/dinput``.

        ``input_grad=False`` skips the input gradient and returns None
        (a network's first layer in a training step: nothing reads it).
        The buffered pass writes the pre-activation gradient over the
        pre-activation buffer, so it consumes the forward's cache.
        """
        if self._input is None or self._pre_activation is None:
            raise RuntimeError("backward called before forward")
        if buffered:
            z, self._pre_activation = self._pre_activation, None
            grad_z = self.activation.backward(
                z, grad_out, out=z, cached_output=self._output
            )
            np.matmul(self._input.T, grad_z, out=self.grad_weight)
            grad_z.sum(axis=0, out=self.grad_bias)
            if not input_grad:
                return None
            grad_x = self._buffers(grad_z.shape[0])[2]
            return np.matmul(grad_z, self.weight.T, out=grad_x)
        grad_z = self.activation.backward(
            self._pre_activation, grad_out, cached_output=self._output
        )
        np.matmul(self._input.T, grad_z, out=self.grad_weight)
        grad_z.sum(axis=0, out=self.grad_bias)
        return grad_z @ self.weight.T if input_grad else None

    def release(self) -> None:
        """Drop the cached batch and every per-batch-size buffer."""
        self._input = None
        self._pre_activation = None
        self._output = None
        self._bufs = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        # Transient batch state never survives pickling (workers of the
        # parallel fit path receive a clean layer).
        state["_input"] = None
        state["_pre_activation"] = None
        state["_output"] = None
        state["_bufs"] = {}
        return state


@dataclass
class FitResult:
    """Training history returned by ``MLP.fit``."""

    loss_history: list[float] = field(default_factory=list)
    validation_history: list[float] = field(default_factory=list)
    best_epoch: int | None = None
    stopped_early: str | None = None  # "validation" / None

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


class MLP:
    """Multi-layer perceptron over 2-D inputs ``(batch, features)``.

    Parameters
    ----------
    layer_sizes:
        Sizes ``[in_dim, h1, ..., out_dim]``; at least two entries.
    hidden_activation:
        Activation for every hidden layer (paper uses ReLU for the vote
        network and tanh for the excitation network).
    output_activation:
        Activation on the final layer (paper Eq. (1) applies sigma at the
        output too; the point-process excitation uses ReLU there, and we
        default to identity for plain regression).
    """

    def __init__(
        self,
        layer_sizes: list[int],
        *,
        hidden_activation: str | Activation = "relu",
        output_activation: str | Activation = "identity",
        seed: int | np.random.Generator = 0,
        l2: float = 0.0,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output dims")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self.l2 = l2
        self.layers: list[Dense] = []
        for i in range(len(layer_sizes) - 1):
            is_last = i == len(layer_sizes) - 2
            act = output_activation if is_last else hidden_activation
            self.layers.append(
                Dense(layer_sizes[i], layer_sizes[i + 1], act, rng=rng)
            )
        self._flat_params: np.ndarray | None = None
        self._flat_grads: np.ndarray | None = None
        self._flatten()

    def _flatten(self) -> None:
        """Re-home every layer's weight/bias (and gradients) as views into
        one flat parameter vector and one flat gradient vector.

        The optimizer step then updates two arrays regardless of
        depth, and ``backward`` writes gradients straight into the flat
        vector through the per-layer views.
        """
        total = sum(l.weight.size + l.bias.size for l in self.layers)
        flat_p = np.empty(total)
        flat_g = np.zeros(total)
        offset = 0
        for layer in self.layers:
            for name, gname in (("weight", "grad_weight"), ("bias", "grad_bias")):
                arr = getattr(layer, name)
                n = arr.size
                view = flat_p[offset : offset + n].reshape(arr.shape)
                view[...] = arr
                setattr(layer, name, view)
                gview = flat_g[offset : offset + n].reshape(arr.shape)
                gview[...] = getattr(layer, gname)
                setattr(layer, gname, gview)
                offset += n
        self._flat_params = flat_p
        self._flat_grads = flat_g

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, x: np.ndarray, *, buffered: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=float)
        if out.ndim != 2:
            raise ValueError("MLP input must be 2-D (batch, features)")
        for layer in self.layers:
            out = layer.forward(out, buffered=buffered)
        return out

    def backward(
        self, grad_out: np.ndarray, *, buffered: bool = False
    ) -> np.ndarray | None:
        """Backpropagate ``dLoss/doutput``; returns ``dLoss/dinput``.

        Layer gradients are stored on each layer and include the L2 term.
        The buffered (training) pass returns None: it skips the first
        layer's input gradient, which no training step reads.
        """
        grad = np.asarray(grad_out, dtype=float)
        for layer in self.layers[:0:-1]:
            grad = layer.backward(grad, buffered=buffered)
        grad = self.layers[0].backward(
            grad, buffered=buffered, input_grad=not buffered
        )
        if self.l2 > 0.0:
            for layer in self.layers:
                layer.grad_weight += self.l2 * layer.weight
        return grad

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend((layer.weight, layer.bias))
        return params

    def gradients(self) -> list[np.ndarray]:
        grads: list[np.ndarray] = []
        for layer in self.layers:
            grads.extend((layer.grad_weight, layer.grad_bias))
        return grads

    def release_buffers(self) -> None:
        """Drop every layer's training buffers and cached batch.

        A fit sizes buffers by its batch, short-batch and validation
        sizes, and each warm refit's window brings new ones; released at
        the end of every fit, they do not accumulate over a model's life.
        """
        for layer in self.layers:
            layer.release()

    def flat_parameters(self) -> np.ndarray:
        """All parameters as one flat vector (layer arrays are views of it)."""
        return self._flat_params

    def flat_gradients(self) -> np.ndarray:
        """All gradients as one flat vector, filled by ``backward``."""
        return self._flat_grads

    def __getstate__(self):
        state = self.__dict__.copy()
        # Views do not survive pickling as views; rebuild on restore.
        state["_flat_params"] = None
        state["_flat_grads"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._flatten()

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Row-invariant inference: ``out[i]`` depends on ``x[i]`` only.

        Pads ``x`` into 64-row tiles once and runs every layer over the
        tile stack (``Dense.infer``); touches none of the training
        buffers or caches.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("MLP input must be 2-D (batch, features)")
        out = _tiles(x)
        for layer in self.layers:
            out = layer.infer(out)
        return _untile(out, x.shape[0])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference forward; squeezes a single-output network to (batch,)."""
        out = self.infer(np.atleast_2d(np.asarray(x, dtype=float)))
        return out[:, 0] if out.shape[1] == 1 else out

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        loss: str | Loss = "mse",
        optimizer: str | Optimizer = "adam",
        epochs: int = 200,
        batch_size: int = 32,
        seed: int = 0,
        validation_fraction: float = 0.0,
        patience: int = 20,
    ) -> FitResult:
        """Train with minibatch gradient descent on a standard loss.

        With ``validation_fraction > 0`` a held-out slice is tracked
        each epoch; training stops after ``patience`` epochs without
        improvement and the best-epoch weights are restored.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y batch sizes differ")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not 0.0 <= validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        loss_fn = get_loss(loss)
        opt = get_optimizer(optimizer)
        rng = np.random.default_rng(seed)
        x_val = y_val = None
        if validation_fraction > 0.0:
            n_val = max(1, int(round(x.shape[0] * validation_fraction)))
            if n_val >= x.shape[0]:
                raise ValueError("validation split leaves no training data")
            order = rng.permutation(x.shape[0])
            val_idx, train_idx = order[:n_val], order[n_val:]
            x_val, y_val = x[val_idx], y[val_idx]
            x, y = x[train_idx], y[train_idx]
        n = x.shape[0]
        result = FitResult()
        best_val = np.inf
        best_params: np.ndarray | None = None
        stale = 0
        bs = min(batch_size, n)
        step_params = [self._flat_params]
        step_grads = [self._flat_grads]
        # Minibatches gather into fixed buffers: one full-size pair and,
        # when n is not a multiple of bs, one for the short last batch.
        rem = n % bs
        xb = np.empty((bs, x.shape[1]))
        yb = np.empty((bs, y.shape[1]))
        xr = np.empty((rem, x.shape[1])) if rem else None
        yr = np.empty((rem, y.shape[1])) if rem else None
        for epoch in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, bs):
                idx = order[start : start + bs]
                bx, by = (xb, yb) if idx.size == bs else (xr, yr)
                np.take(x, idx, axis=0, out=bx)
                np.take(y, idx, axis=0, out=by)
                pred = self.forward(bx, buffered=True)
                batch_loss = loss_fn.value(pred, by)
                self.backward(loss_fn.gradient(pred, by), buffered=True)
                opt.step(step_params, step_grads)
                epoch_loss += batch_loss * idx.size
            result.loss_history.append(epoch_loss / n)
            if x_val is not None:
                val_loss = loss_fn.value(self.forward(x_val, buffered=True), y_val)
                result.validation_history.append(val_loss)
                if val_loss < best_val - 1e-12:
                    best_val = val_loss
                    best_params = self._flat_params.copy()
                    result.best_epoch = epoch
                    stale = 0
                else:
                    stale += 1
                    if stale >= patience:
                        result.stopped_early = "validation"
                        break
        if best_params is not None:
            self._flat_params[...] = best_params
        self.release_buffers()
        return result
