"""Small feed-forward network primitives shared by classifiers and flows.

Plain-numpy multilayer perceptrons with rectifier hidden layers, manual
backpropagation, and an Adam optimizer.  Kept deliberately minimal: dense
layers only, deterministic given an RngStream; arrays take the dtype of the
parameters they serve (MLP classifiers train in float32, NPE flows in float64).

A dense layer is one (fan_in + 1, fan_out) matrix [W; b] and every layer
input ends in a ones column, so a layer is one matrix product and its bias
gradient the last row of its weight gradient.  A parameter row that stores
each layer's weights followed by its bias holds [W; b] in place: layers and
gradients are views of (members, parameters) arrays.  A leading member axis,
(H, fan_in + 1, fan_out), holds H nets, as ``torch.func``'s stacked module
state does; ``np.matmul`` broadcasting serves both layouts, and member h of a
stack computes bit for bit what the 2-D net of its slices computes.

:func:`train_minibatch` is the one training loop: early-stopped minibatch
Adam on a (members, parameters) array, with losses and gradients from the
caller.  MLP classifiers (a null ensemble is one stack) and NPE flows (one
member) both train through it.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .core import RngStream, TrainingError

__all__ = ["MlpParams", "mlp_init", "mlp_forward", "mlp_backward", "Adam", "grad_check", "relu", "sigmoid"]
__all__ += ["mlp_buffers", "mlp_grad_buffers", "row_views", "train_minibatch", "with_ones"]


def relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def sigmoid(a: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # Stable in both tails: 1 / (1 + e^-a) for a >= 0 and e^a / (1 + e^a)
    # below, both from e = exp(-|a|) (a caller may pass it), which never
    # overflows.  min(a, -a) passes a NaN through with its sign.
    e = np.exp(np.minimum(a, -a)) if e is None else e
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


class MlpParams:
    """A dense net as its layers [W; b], (fan_in + 1, fan_out) each, which
    act on inputs ending in a ones column (:func:`with_ones`).  Hidden layers
    use relu, the output is linear; ``weights`` and ``biases`` are views."""

    def __init__(self, layers: list[np.ndarray]):
        self.layers = layers

    @classmethod
    def from_split(cls, weights: list[np.ndarray], biases: list[np.ndarray]) -> "MlpParams":
        """Folded float64 copies of (fan_in, fan_out) weights and (fan_out,)
        biases, arrays or nested lists."""
        return cls([np.vstack([w, b], dtype=np.float64) for w, b in zip(weights, biases)])

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def weights(self) -> list[np.ndarray]:
        return [a[..., :-1, :] for a in self.layers]

    @property
    def biases(self) -> list[np.ndarray]:
        return [a[..., -1, :] for a in self.layers]


def mlp_init(sizes: list[int], stream: RngStream, *, zero_last: bool = False) -> MlpParams:
    """He-normal initialization for relu stacks; biases zero.

    ``zero_last`` zeroes the output layer, which flow conditioners use so a
    fresh flow is the identity map.
    """
    rng = stream.generator()
    layers = []
    for k, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        last = k == len(sizes) - 2
        layer = np.zeros((fan_in + 1, fan_out))
        if not (last and zero_last):
            scale = np.sqrt(2.0 / fan_in) if not last else np.sqrt(1.0 / fan_in)
            layer[:-1] = rng.normal(0.0, scale, size=(fan_in, fan_out))
        layers.append(layer)
    return MlpParams(layers)


def with_ones(x: np.ndarray) -> np.ndarray:
    """``x`` (..., n, k) with a trailing ones column: the input layout of
    :func:`mlp_forward`."""
    return np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)


def mlp_buffers(params: MlpParams, shape: tuple) -> list[np.ndarray]:
    """One output array per layer for inputs of leading ``shape`` (rows, or
    members and rows): a hidden layer's ends in its next layer's ones column,
    set here, in the layers' dtype."""
    last = params.n_layers - 1
    out = [np.empty((*shape, a.shape[-1] + (k != last)), dtype=a.dtype) for k, a in enumerate(params.layers)]
    for a in out[:-1]:
        a[..., -1] = 1.0
    return out


def mlp_forward(params: MlpParams, inputs: np.ndarray, cache: list | None = None, out: list | None = None) -> np.ndarray:
    """Linear output of the net on ``inputs`` that end in a ones column; pass
    ``cache=[]`` to record activations for backward.

    Each layer is one product, written into the first fan_out columns of its
    output, whose last column holds the ones of the next layer's input; relu
    keeps them at one.  For stacked params, ``inputs`` is (H, n, fan_in + 1),
    or (n, fan_in + 1) shared by every member, and the output is
    (H, n, fan_out).  ``out`` gives the layers' outputs as
    :func:`mlp_buffers` makes them, so repeated passes reuse memory.
    """
    h = inputs
    if out is None:
        out = mlp_buffers(params, np.broadcast_shapes(h.shape[:-2], params.layers[0].shape[:-2]) + h.shape[-2:-1])
    if cache is not None:
        cache.append(h)
    last = params.n_layers - 1
    for k, layer in enumerate(params.layers):
        np.matmul(h, layer, out=out[k] if k == last else out[k][..., :-1])
        h = out[k]
        if k != last:
            np.maximum(h, 0.0, out=h)
        if cache is not None:
            cache.append(h)
    return h


def mlp_grad_buffers(params: MlpParams, shape: tuple) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The grads wrt each layer's input and the relu masks that
    ``mlp_backward(..., out=(layer grads, *these))`` fills, shaped like the
    layer inputs (leading ``shape``, the layers' dtype), ones column included:
    a grad's last column stays zero, and the relu gate runs over whole
    contiguous rows."""
    grads_in = [np.zeros((*shape, a.shape[-2]), dtype=a.dtype) for a in params.layers]
    return grads_in, [np.empty(g.shape, dtype=bool) for g in grads_in]


def mlp_backward(params: MlpParams, cache: list, grad_out: np.ndarray, out: tuple | None = None, input_grad: bool = True):
    """Backprop ``grad_out`` (d loss / d linear output) through a cached forward.

    Returns (layer grads, grad wrt inputs): each layer's gradient is one
    product of its input, ones column included, with the gradient of its
    output, so its last row is the bias gradient; the input grad has no ones
    column.  ``out`` = (layer grads, :func:`mlp_grad_buffers`) gives arrays
    to hold the results.  Callers that train only the parameters pass
    ``input_grad=False``: the last product, with the first layer's weights,
    is skipped and the input grad is None.
    """
    n = params.n_layers
    grads, grads_in, masks = out if out is not None else ([None] * n, *mlp_grad_buffers(params, grad_out.shape[:-1]))
    g = grad_out
    for k in range(n - 1, -1, -1):
        if k != n - 1:
            # relu applied after this layer's product: gate by activation sign
            # (the ones column's zero grad passes as it is)
            full = grads_in[k + 1]
            np.multiply(full, np.greater(cache[k + 1], 0.0, out=masks[k + 1]), out=full)
            g = full[..., :-1]
        grads[k] = np.matmul(np.swapaxes(cache[k], -1, -2), g, out=grads[k])
        if k == 0 and not input_grad:
            return grads, None
        # a contiguous copy of W^T: BLAS multiplies by it faster than by the
        # transposed view, by more than the copy costs
        w_t = np.ascontiguousarray(np.swapaxes(params.layers[k][..., :-1, :], -1, -2))
        g_in = grads_in[k][..., :-1]
        if g.shape[-1] == 1:
            # one output unit: an outer product, which einsum forms faster
            # than a broadcast multiply or a k = 1 matrix product
            np.einsum("...ij,...jk->...ik", g, w_t, out=g_in)
        else:
            np.matmul(g, w_t, out=g_in)
    return grads, g_in


def grad_check(arrays: list[np.ndarray], grads: list[np.ndarray], loss, step: float = 1e-5) -> float:
    """Max over coordinates of |analytic - fd| / (|analytic| + 1e-8), where fd
    is the central difference of ``loss()`` as each coordinate of ``arrays``
    is moved by +-``step`` in place and then restored."""
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss()
            flat[i] = orig - step
            down = loss()
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            worst = max(worst, abs(gflat[i] - fd) / (abs(gflat[i]) + 1e-8))
    return worst


class Adam:
    """Adaptive-moment gradient descent on a (members, parameters) array.

    Members advance together and share the step count, so each member's
    update is the one it would take alone.  A step is Kingma & Ba's efficient
    form, a -= lr_t * m / (sqrt(v) + eps * sqrt(1 - beta2^t)) with
    lr_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t), and ``m`` is kept divided
    by 1 - beta1: 11 passes over the array, in one scratch array, all in the
    parameters' dtype (the step scalars are Python floats)."""

    def __init__(self, params: np.ndarray, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.scratch = np.empty_like(params)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        root = math.sqrt(1.0 - self.beta2**self.t)
        lr_t = self.lr * (1.0 - self.beta1) * root / (1.0 - self.beta1**self.t)
        a, m, v, x = self.params, self.m, self.v, self.scratch
        m *= self.beta1
        m += grad
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=x)
        v += np.multiply(x, grad, out=x)
        np.sqrt(v, out=x)
        x += self.eps * root
        np.divide(m, x, out=x)
        x *= lr_t
        a -= x

    def take(self, members: np.ndarray) -> np.ndarray:
        """Keep the selected members (rows), with their moments; returns the new parameters."""
        self.params, self.m, self.v = self.params[members], self.m[members], self.v[members]
        self.scratch = self.scratch[: len(self.params)]
        return self.params


def row_views(flat: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Views of consecutive columns of ``flat`` (members, size), one per shape, shaped (members, *shape)."""
    cuts = np.cumsum([int(np.prod(shape)) for shape in shapes])[:-1]
    return [part.reshape(len(flat), *shape) for part, shape in zip(np.split(flat, cuts, axis=1), shapes)]


def train_minibatch(flat, table, rows, labels, cfg, streams: list[RngStream], batch_loss, holdout_loss, take=None):
    """Early-stopped minibatch Adam on ``flat`` (H, P), one member per row.

    Member h learns from the rows ``table[rows[h]]`` with ``labels[h]``.  Its
    stream's ``holdout`` child sets ``round(cfg.holdout_frac * n)`` of its n
    rows aside (if that is at least one and leaves two) and its ``shuffle``
    child orders the rest each epoch.  ``batch_loss(inputs, labels)`` gives
    the losses and (k, P) gradients of the k members still training on a
    (k, b, columns) batch, and ``holdout_loss`` their holdout losses after
    each epoch.  A member with no improvement in ``cfg.patience`` epochs
    leaves ``flat``, and ``take(flat)`` gets the new array.  A non-finite
    loss (checked every step) or parameter (every epoch) raises
    ``TrainingError`` naming the member and epoch, after setting the given
    ``flat`` to each member's best-holdout row, which is finite.  Batches
    take the dtype of ``table``, the best rows and Adam's that of ``flat``.

    Returns ``params`` (best-holdout rows, or the last without a holdout),
    the per-member ``epochs_run``, ``best_epoch``, ``best_loss`` and
    ``last_loss``, the per-epoch ``train_loss`` (mean batch loss) and
    ``holdout_loss`` of the members training, ``n_train`` and ``n_holdout``.
    """
    n_members, n = rows.shape
    n_val = int(round(cfg.holdout_frac * n))
    n_val = n_val if 1 <= n_val <= n - 2 else 0
    perms = np.stack([s.child("holdout").generator().permutation(n) for s in streams])
    rows, labels = np.take_along_axis(rows, perms, axis=1), np.take_along_axis(labels, perms, axis=1)
    x_val, y_val, tr_rows, tr_labels = table[rows[:, :n_val]], labels[:, :n_val], rows[:, n_val:], labels[:, n_val:]
    shufflers = [s.child("shuffle").generator() for s in streams]
    # Per-member state is indexed by the member; ``flat`` and the training
    # data hold the members still training, in the order of ``active``.
    active, n_tr, given = np.arange(n_members), n - n_val, flat
    opt, best = Adam(flat, lr=cfg.learning_rate), flat.copy()
    best_loss, last_loss = np.full(n_members, np.inf), np.full(n_members, np.nan)
    best_epoch, since_best = np.zeros((2, n_members), dtype=np.int64)
    epochs_run = np.full(n_members, cfg.max_epochs)
    starts = range(0, n_tr, cfg.batch_size)
    x_epoch, losses = np.empty((n_members, n_tr, table.shape[1]), dtype=table.dtype), np.empty((n_members, len(starts)))
    train_loss, holdout_trace = [], []
    for epoch in range(cfg.max_epochs):
        k = len(active)
        order = np.stack([shufflers[h].permutation(n_tr) for h in active])
        xs = np.take(table, np.take_along_axis(tr_rows, order, axis=1), axis=0, out=x_epoch[:k], mode="clip")
        ys = np.take_along_axis(tr_labels, order, axis=1)
        for j, start in enumerate(starts):
            batch = slice(start, start + cfg.batch_size)
            loss, grad = batch_loss(xs[:, batch], ys[:, batch])
            ok = np.isfinite(loss)
            if not ok.all():
                b = int(np.argmin(ok))
                last = losses[b, j - 1] if j else last_loss[active[b]]
                given[...] = best
                raise TrainingError(f"member {active[b]}: loss diverged at epoch {epoch} (loss={loss[b]}); last finite loss {last}")
            opt.step(grad)
            losses[:k, j] = loss
        last_loss[active] = losses[:k, -1]
        train_loss.append(losses[:k].mean(axis=1))
        ok = np.isfinite(flat).all(axis=1)
        if not ok.all():
            given[...] = best
            raise TrainingError(f"member {active[np.argmin(ok)]}: parameters diverged at epoch {epoch}")
        if not n_val:
            continue
        val = holdout_loss(x_val, y_val)
        holdout_trace.append(val)
        improved = val < best_loss[active]
        better = active[improved]
        best_loss[better], best_epoch[better], best[better] = val[improved], epoch + 1, flat[improved]
        since_best[active] = np.where(improved, 0, since_best[active] + 1)
        stop = since_best[active] >= cfg.patience
        if stop.any():
            epochs_run[active[stop]] = epoch + 1
            keep = ~stop
            active = active[keep]
            if len(active) == 0:
                break
            flat = opt.take(keep)
            tr_rows, tr_labels, x_val, y_val = tr_rows[keep], tr_labels[keep], x_val[keep], y_val[keep]
            take(flat)
    return SimpleNamespace(
        params=best if n_val else flat, best_epoch=best_epoch if n_val else epochs_run, epochs_run=epochs_run,
        best_loss=best_loss, last_loss=last_loss, train_loss=train_loss, holdout_loss=holdout_trace, n_train=n_tr,
        n_holdout=n_val,
    )
