"""Small feed-forward network primitives shared by classifiers and flows.

Plain-numpy multilayer perceptrons with rectifier hidden layers, manual
backpropagation, and an Adam optimizer.  Kept deliberately minimal: dense
layers only, float64 throughout, deterministic given an RngStream.

Parameters may carry a leading member axis: weights (H, fan_in, fan_out) and
biases (H, 1, fan_out) hold H independent nets, as ``torch.func``'s stacked
module state does.  The same forward and backward code serves both layouts
through ``np.matmul`` broadcasting, and member h of a stack computes bit for
bit what the 2-D net of its slices computes.

:func:`train_minibatch` is the one training loop: early-stopped minibatch
Adam on a (members, parameters) array, with losses and gradients from the
caller.  MLP classifiers (a null ensemble is one stack) and NPE flows (one
member) both train through it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .core import RngStream, TrainingError

__all__ = ["MlpParams", "mlp_init", "mlp_forward", "mlp_backward", "Adam", "grad_check", "relu", "sigmoid"]
__all__ += ["row_views", "train_minibatch"]


def relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def sigmoid(a: np.ndarray) -> np.ndarray:
    # Stable in both tails: 1 / (1 + e^-a) for a >= 0 and e^a / (1 + e^a)
    # below, both from e = exp(-|a|), which never overflows.  min(a, -a)
    # passes a NaN through with its sign, as the branch-per-sign form did.
    e = np.exp(np.minimum(a, -a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


class MlpParams:
    """Weights/biases of a dense net: hidden layers use relu, output is linear."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def flat(self) -> list[np.ndarray]:
        return [a for pair in zip(self.weights, self.biases) for a in pair]


def mlp_init(
    sizes: list[int],
    stream: RngStream,
    *,
    zero_last: bool = False,
) -> MlpParams:
    """He-normal initialization for relu stacks; biases zero.

    ``zero_last`` zeroes the output layer, which flow conditioners use so a
    fresh flow is the identity map.
    """
    rng = stream.generator()
    weights, biases = [], []
    for k, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        last = k == len(sizes) - 2
        if last and zero_last:
            w = np.zeros((fan_in, fan_out))
        else:
            scale = np.sqrt(2.0 / fan_in) if not last else np.sqrt(1.0 / fan_in)
            w = rng.normal(0.0, scale, size=(fan_in, fan_out))
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def mlp_forward(
    params: MlpParams,
    inputs: np.ndarray,
    cache: list | None = None,
    out: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Linear output of the net; pass ``cache=[]`` to record activations for backward.

    For stacked params, ``inputs`` is (H, n, fan_in), or (n, fan_in) shared by
    every member, and the output is (H, n, fan_out).  ``out`` gives one array
    per layer to hold that layer's output, so repeated passes reuse memory.
    """
    h = inputs
    if cache is not None:
        cache.append(h)
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(h, w, out=None if out is None else out[k])
        h += b
        if k != params.n_layers - 1:
            np.maximum(h, 0.0, out=h)
        if cache is not None:
            cache.append(h)
    return h


def mlp_backward(
    params: MlpParams,
    cache: list,
    grad_out: np.ndarray,
    out: tuple[list, list, list] | None = None,
    input_grad: bool = True,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray | None]:
    """Backprop ``grad_out`` (d loss / d linear output) through a cached forward.

    Returns (weight grads, bias grads, grad wrt inputs), shaped like the
    params and the inputs.  ``out`` = (weight grads, bias grads, grads wrt
    each layer's input) gives arrays to hold the results.  Callers that train
    only the parameters pass ``input_grad=False``: the last product, with the
    first layer's weights, is skipped and the input grad is None.
    """
    n = params.n_layers
    gw, gb, g_in = out if out is not None else ([None] * n, [None] * n, [None] * n)
    g = grad_out
    for k in range(n - 1, -1, -1):
        if k != n - 1:
            # relu applied after this layer's affine map: gate by activation sign
            np.multiply(g, cache[k + 1] > 0, out=g)
        w_t = np.swapaxes(params.weights[k], -1, -2)
        gw[k] = np.matmul(np.swapaxes(cache[k], -1, -2), g, out=gw[k])
        summed = g.shape[:-2] + g.shape[-1:]
        gb[k] = np.sum(g, axis=-2, out=None if gb[k] is None else gb[k].reshape(summed)).reshape(params.biases[k].shape)
        if k == 0 and not input_grad:
            return gw, gb, None
        # one output unit: the product is an outer product, exact either way
        # and much faster as a broadcast
        g = np.multiply(g, w_t, out=g_in[k]) if g.shape[-1] == 1 else np.matmul(g, w_t, out=g_in[k])
    return gw, gb, g


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
    update is the one it would take alone.  Every step works in two scratch
    arrays, allocated once."""

    def __init__(self, params: np.ndarray, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.scratch = np.empty_like(params), np.empty_like(params)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1t, b2t = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        # a -= lr * (m / b1t) / (sqrt(v / b2t) + eps), evaluated in that order
        a, m, v, (x, y) = self.params, self.m, self.v, self.scratch
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=x)
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=x)
        v += np.multiply(x, grad, out=x)
        np.sqrt(np.divide(v, b2t, out=x), out=x)
        x += self.eps
        np.divide(m, b1t, out=y)
        y *= self.lr
        a -= np.divide(y, x, out=y)

    def take(self, members: np.ndarray) -> np.ndarray:
        """Keep the selected members (rows), with their moments; returns the new parameters."""
        self.params, self.m, self.v = self.params[members], self.m[members], self.v[members]
        self.scratch = tuple(x[: len(self.params)] for x in self.scratch)
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
    ``flat`` to each member's best-holdout row, which is finite.

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
    x_epoch, losses = np.empty((n_members, n_tr, table.shape[1])), np.empty((n_members, len(starts)))
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
