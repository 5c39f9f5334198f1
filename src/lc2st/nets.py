"""Small feed-forward network primitives shared by classifiers and flows.

Plain-numpy multilayer perceptrons with rectifier hidden layers, manual
backpropagation, and an Adam optimizer.  Kept deliberately minimal: dense
layers only, float64 throughout, deterministic given an RngStream.

Parameters may carry a leading member axis: weights (H, fan_in, fan_out) and
biases (H, 1, fan_out) hold H independent nets, as ``torch.func``'s stacked
module state does.  The same forward, backward and Adam code serves both
layouts through ``np.matmul`` broadcasting, and member h of a stack computes
bit for bit what the 2-D net of its slices computes.
"""

from __future__ import annotations

import numpy as np

from .core import RngStream

__all__ = ["MlpParams", "mlp_init", "mlp_forward", "mlp_backward", "Adam", "relu", "sigmoid"]


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

    @staticmethod
    def stack(members: list["MlpParams"]) -> "MlpParams":
        """One stack of same-shaped 2-D nets: (H, fan_in, fan_out) weights, (H, 1, fan_out) biases."""
        return MlpParams(
            [np.stack(ws) for ws in zip(*(p.weights for p in members))],
            [np.stack(bs)[:, None, :] for bs in zip(*(p.biases for p in members))],
        )

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def flat(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


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


class Adam:
    """Adaptive-moment gradient descent over a list of parameter arrays.

    Stacked members advance together and share the step count, so each
    member's update is the one it would take alone.  Every step works in
    two scratch arrays per parameter array, allocated once.
    """

    def __init__(self, arrays: list[np.ndarray], lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.arrays = arrays
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.scratch = [(np.empty_like(a), np.empty_like(a)) for a in arrays]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        # a -= lr * (m / b1t) / (sqrt(v / b2t) + eps), evaluated in that order
        for a, g, m, v, (x, y) in zip(self.arrays, grads, self.m, self.v, self.scratch):
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=x)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=x)
            v += np.multiply(x, g, out=x)
            np.sqrt(np.divide(v, b2t, out=x), out=x)
            x += self.eps
            np.divide(m, b1t, out=y)
            y *= self.lr
            a -= np.divide(y, x, out=y)

    def take(self, members: np.ndarray) -> list[np.ndarray]:
        """Keep the selected members of stacked arrays, with their moments;
        returns the new parameter arrays."""
        self.arrays = [a[members] for a in self.arrays]
        self.m = [m[members] for m in self.m]
        self.v = [v[members] for v in self.v]
        self.scratch = [(x[: len(a)], y[: len(a)]) for a, (x, y) in zip(self.arrays, self.scratch)]
        return self.arrays
