"""Small feed-forward network primitives shared by classifiers and flows.

Plain-numpy multilayer perceptrons with rectifier hidden layers, manual
backpropagation, and an Adam optimizer.  Kept deliberately minimal: dense
layers only, deterministic given an RngStream; arrays take the dtype of the
parameters they serve (MLP classifiers train in float32, NPE flows in float64).

A dense layer is one (fan_in + 1, fan_out) matrix [W; b] and every layer
input ends in a ones column, so a layer is one matrix product and its bias
gradient the last row of its weight gradient.  A net is the plain list of
its layers (hidden layers relu, the output linear), which every function
here takes; :func:`fold` builds it from separate weights and biases, the
form checkpoints store.  A parameter row that stores each layer's weights
followed by its bias holds [W; b] in place: layers and gradients are views
of (members, parameters) arrays.  A leading member axis,
(H, fan_in + 1, fan_out), holds H nets, as ``torch.func``'s stacked module
state does; ``np.matmul`` broadcasting serves both layouts, and member h of a
stack computes bit for bit what the 2-D net of its slices computes.

:func:`train_minibatch` is the one training loop: early-stopped minibatch
Adam on a (members, parameters) array, with losses and gradients from the
caller.  MLP classifiers (a null ensemble is a stack per member chunk) and
NPE flows (one member) both train through it.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .core import RngStream, TrainingError

__all__ = ["fold", "mlp_init", "mlp_forward", "mlp_backward", "Adam", "grad_check", "relu", "sigmoid"]
__all__ += ["mlp_buffers", "mlp_grad_buffers", "row_views", "train_minibatch", "with_ones"]


def relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def sigmoid(a: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # Stable in both tails: 1 / (1 + e^-a) for a >= 0 and e^a / (1 + e^a)
    # below, both from e = exp(-|a|) (a caller may pass it), which never
    # overflows.  min(a, -a) passes a NaN through with its sign.
    e = np.exp(np.minimum(a, -a)) if e is None else e
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def fold(weights, biases) -> list[np.ndarray]:
    """Folded float64 layers [W; b] from (fan_in, fan_out) weights and
    (fan_out,) biases, arrays or nested lists."""
    return [np.vstack([w, b], dtype=np.float64) for w, b in zip(weights, biases)]


def mlp_init(sizes: list[int], stream: RngStream, *, zero_last: bool = False) -> list[np.ndarray]:
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
    return layers


def with_ones(x: np.ndarray) -> np.ndarray:
    """``x`` (..., n, k) with a trailing ones column: the input layout of
    :func:`mlp_forward`."""
    return np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)


def mlp_buffers(layers: list[np.ndarray], shape: tuple) -> list[np.ndarray]:
    """One output array per layer for inputs of leading ``shape`` (rows, or
    members and rows): a hidden layer's ends in its next layer's ones column,
    set here, in the layers' dtype."""
    last = len(layers) - 1
    out = [np.empty((*shape, a.shape[-1] + (k != last)), dtype=a.dtype) for k, a in enumerate(layers)]
    for a in out[:-1]:
        a[..., -1] = 1.0
    return out


def mlp_forward(layers: list[np.ndarray], inputs: np.ndarray, cache: list | None = None, out: list | None = None) -> np.ndarray:
    """Linear output of the net on ``inputs`` that end in a ones column; pass
    ``cache=[]`` to record activations for backward.

    Each layer is one product, written into the first fan_out columns of its
    output, whose last column holds the ones of the next layer's input; relu
    keeps them at one.  For stacked layers, ``inputs`` is (H, n, fan_in + 1),
    or (n, fan_in + 1) shared by every member, and the output is
    (H, n, fan_out).  ``out`` gives the layers' outputs as
    :func:`mlp_buffers` makes them, so repeated passes reuse memory.
    """
    h = inputs
    if out is None:
        out = mlp_buffers(layers, np.broadcast_shapes(h.shape[:-2], layers[0].shape[:-2]) + h.shape[-2:-1])
    if cache is not None:
        cache.append(h)
    last = len(layers) - 1
    for k, layer in enumerate(layers):
        np.matmul(h, layer, out=out[k] if k == last else out[k][..., :-1])
        h = out[k]
        if k != last:
            np.maximum(h, 0.0, out=h)
        if cache is not None:
            cache.append(h)
    return h


def mlp_grad_buffers(layers: list[np.ndarray], shape: tuple) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The grads wrt each layer's input and the relu masks that
    ``mlp_backward(..., out=(layer grads, *these))`` fills, shaped like the
    layer inputs (leading ``shape``, the layers' dtype), ones column included:
    a grad's last column stays zero, and the relu gate runs over whole
    contiguous rows."""
    grads_in = [np.zeros((*shape, a.shape[-2]), dtype=a.dtype) for a in layers]
    return grads_in, [np.empty(g.shape, dtype=bool) for g in grads_in]


def mlp_backward(layers: list[np.ndarray], cache: list, grad_out: np.ndarray, out: tuple | None = None, input_grad: bool = True):
    """Backprop ``grad_out`` (d loss / d linear output) through a cached forward.

    Returns (layer grads, grad wrt inputs): each layer's gradient is one
    product of its input, ones column included, with the gradient of its
    output, so its last row is the bias gradient; the input grad has no ones
    column.  ``out`` = (layer grads, :func:`mlp_grad_buffers`) gives arrays
    to hold the results.  Callers that train only the parameters pass
    ``input_grad=False``: the last product, with the first layer's weights,
    is skipped and the input grad is None.
    """
    n = len(layers)
    grads, grads_in, masks = out if out is not None else ([None] * n, *mlp_grad_buffers(layers, grad_out.shape[:-1]))
    g = grad_out
    for k in range(n - 1, -1, -1):
        if k != n - 1:
            # relu applied after this layer's product: gate by activation sign
            # (the ones column's zero grad passes as it is)
            full = grads_in[k + 1]
            np.multiply(full, np.greater(cache[k + 1], 0.0, out=masks[k + 1]), out=full)
            g = full[..., :-1]
        grads[k] = np.matmul(cache[k].mT, g, out=grads[k])
        if k == 0 and not input_grad:
            return grads, None
        # a contiguous copy of W^T: BLAS multiplies by it faster than by the
        # transposed view, by more than the copy costs
        w_t = np.ascontiguousarray(layers[k][..., :-1, :].mT)
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


def train_minibatch(flat, table, labels, cfg, streams: list[RngStream], batch_loss, holdout_loss, take=None, first=0):
    """Early-stopped minibatch Adam on ``flat`` (H, P), one member per row.

    Member h learns from n rows of ``table`` with ``labels[h]``, (H, n):
    all of ``table``, shared, or, if it stacks H tables of n rows, rows
    h n to (h + 1) n.  Its stream's ``holdout`` child permutes them (no
    index table is built), sets ``round(cfg.holdout_frac * n)`` aside (if
    that is at least one and leaves two) and its ``shuffle`` child orders
    the rest each epoch, as successive ``permutation`` calls
    would, several epochs at a time.  ``batch_loss(inputs, labels, last)``
    gives the losses (None, except at an epoch's ``last`` batch, for losses
    it knows are finite) and (k, P) gradients of the k members still
    training on a (k, b, columns) batch gathered from ``table`` into one
    buffer, and ``holdout_loss`` their holdout losses after each epoch.  A
    member with no improvement in ``cfg.patience`` epochs leaves ``flat``,
    and ``take(flat)`` gets the new array.  A non-finite loss (checked every
    step) or parameter (every epoch) raises ``TrainingError`` naming the
    member, counted from ``first``, and the epoch, after setting the given
    ``flat`` to each member's best-holdout row, which is finite.  Batches
    take the dtype of ``table``, the best rows and Adam's that of ``flat``.

    Returns ``params`` (best-holdout rows, or the last without a holdout),
    the per-member ``epochs_run``, ``best_epoch``, ``best_loss`` and
    ``last_loss``, the per-epoch ``train_loss`` (mean batch loss, NaN where
    one was None) and ``holdout_loss`` of the members training, ``n_train``
    and ``n_holdout``.
    """
    n_members, n = labels.shape
    n_val = int(round(cfg.holdout_frac * n))
    n_val = n_val if 1 <= n_val <= n - 2 else 0
    # Each member's rows of ``table``, int32 (np.take casts them per batch), and labels in its holdout order.  Per-member
    # state is indexed by the member, and so are they (h's flat at h * n); ``flat`` and the holdout data hold the members
    # still training, as ``active``.
    rows = np.stack([s.child("holdout").generator().permutation(n) for s in streams], dtype=np.int32)
    labels = np.take_along_axis(labels, rows, axis=1)
    if len(table) != n:
        rows += n * np.arange(n_members)[:, None]
    x_val, y_val = table[rows[:, :n_val]], labels[:, :n_val]
    shufflers = [s.child("shuffle").generator() for s in streams]
    active, n_tr, given = np.arange(n_members), n - n_val, flat
    opt, best = Adam(flat, lr=cfg.learning_rate), flat.copy()
    best_loss, last_loss = np.full(n_members, np.inf), np.full(n_members, np.nan)
    best_epoch, since_best = np.zeros((2, n_members), dtype=np.int64)
    epochs_run = np.full(n_members, cfg.max_epochs)
    starts = range(0, n_tr, cfg.batch_size)
    x_batch = np.empty((n_members * min(cfg.batch_size, n_tr), table.shape[1]), dtype=table.dtype)
    losses = np.full((n_members, len(starts)), np.nan)
    # each member's epoch orders, offset to its flat training rows, a chunk of epochs (256 kB over all members)
    # at a time: permuting the rows of tiled aranges draws what successive permutation(n_tr) calls draw
    chunk = max(1, min(cfg.max_epochs, (1 << 16) // (n_members * n_tr)))
    tiled, orders = np.tile(np.arange(n_tr), (chunk, 1)), np.empty((n_members, chunk, n_tr), dtype=np.int32)
    train_loss, holdout_trace = [], []
    for epoch in range(cfg.max_epochs):
        k, left = len(active), cfg.max_epochs - epoch
        if epoch % chunk == 0:
            for h in active:
                orders[h, :left] = shufflers[h].permuted(tiled[:left], axis=1)  # int64: numpy shuffles 8-byte items fastest
                orders[h, :left] += h * n + n_val
        order = orders[:, epoch % chunk] if k == n_members else orders[active, epoch % chunk]  # a view until one stops
        idx, ys = rows.take(order), labels.take(order)
        for j, start in enumerate(starts):
            batch = slice(start, start + cfg.batch_size)
            at = idx[:, batch]
            xb = table.take(at, axis=0, out=x_batch[: at.size].reshape(*at.shape, -1), mode="clip")
            loss, grad = batch_loss(xb, ys[:, batch], j == len(starts) - 1)
            if loss is not None:
                ok = np.isfinite(loss)
                if not ok.all():
                    b = int(np.argmin(ok))
                    given[...] = best
                    last = last_loss[active[b]]
                    raise TrainingError(f"member {first + active[b]}: loss diverged at epoch {epoch} (loss={loss[b]}); last recorded loss {last}")
                losses[:k, j] = loss
            opt.step(grad)
        last_loss[active] = losses[:k, -1]
        train_loss.append(losses[:k].mean(axis=1))
        ok = np.isfinite(flat).all(axis=1)
        if not ok.all():
            given[...] = best
            raise TrainingError(f"member {first + active[np.argmin(ok)]}: parameters diverged at epoch {epoch}")
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
            x_val, y_val = x_val[keep], y_val[keep]
            take(flat)
    return SimpleNamespace(
        params=best if n_val else flat, best_epoch=best_epoch if n_val else epochs_run, epochs_run=epochs_run,
        best_loss=best_loss, last_loss=last_loss, train_loss=train_loss, holdout_loss=holdout_trace, n_train=n_tr,
        n_holdout=n_val,
    )
