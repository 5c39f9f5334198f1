"""Conditional normalizing flows: invertible transforms with tractable Jacobians.

Two flow families share one interface (``forward``, ``inverse``, ``log_prob``,
``sample``, ``sample_conditional``):

* :class:`ConditionalFlow` -- a stack of conditional affine coupling blocks
  interleaved with fixed coordinate permutations, trained by maximum
  likelihood on joint samples (:func:`flow_fit_npe`).  Conditioners are
  rectifier networks whose output layer starts at zero, so a fresh flow is the
  identity map up to permutation.  Log-scales are smoothly clamped to
  (-S_MAX, S_MAX) so Jacobian determinants stay finite and nonzero.
* :class:`ConditionalAffineFlow` -- an exact diagonal affine map
  ``theta = mean(x) + scale(x) * z``, used for closed-form estimators and
  controlled latent distortions.

The base distribution is always standard normal in the m-dimensional latent
space.  For m = 1, where coupling cannot split coordinates, every block has an
all-False mask: nothing passes through, so the block is an element-wise affine
map conditioned on x alone.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    ConfigurationError,
    DataFormatError,
    JointDataset,
    NumericError,
    RngStream,
    TrainingError,
    check_count,
    check_real,
)
from .nets import MlpParams, grad_check, mlp_backward, mlp_forward, mlp_grad_buffers, mlp_init, row_views, train_minibatch

__all__ = [
    "S_MAX",
    "CouplingLayer",
    "PermutationLayer",
    "ConditionalFlow",
    "ConditionalAffineFlow",
    "conjugate_affine_flow",
    "build_coupling_flow",
    "NpeConfig",
    "flow_fit_npe",
    "npe_loss",
    "npe_grad_check",
    "save_flow",
    "load_flow",
]

S_MAX = 5.0
_LOG_2PI = float(np.log(2.0 * np.pi))


def _clamp_scale(raw: np.ndarray) -> np.ndarray:
    # Smooth clamp of the log-scale to (-S_MAX, S_MAX); zero maps to zero so
    # zero-initialized conditioner heads give the identity transform.
    return S_MAX * np.tanh(raw / S_MAX)


def _pair(points: np.ndarray, xs: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[1] != d:
        raise ConfigurationError(f"conditioning dimension mismatch: expected {d}, got {xs.shape[1]}")
    if xs.shape[0] == 1 and points.shape[0] > 1:
        xs = np.broadcast_to(xs, (points.shape[0], d))
    if xs.shape[0] != points.shape[0]:
        raise ConfigurationError("points and conditioning rows must align")
    return points, xs


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class CouplingLayer:
    """Affine coupling: masked coordinates pass through and condition the rest.

    The conditioner is a rectifier network taking (masked coords ++ x) and
    emitting a shift and raw log-scale for each transformed coordinate.  An
    all-False mask passes nothing through: the conditioner sees x alone.
    """

    kind = "coupling"

    def __init__(self, mask: np.ndarray, params: MlpParams):
        self.mask = np.asarray(mask, dtype=bool)
        self.params = params
        self.id_pass = np.flatnonzero(self.mask)
        self.id_xform = np.flatnonzero(~self.mask)
        if len(self.id_xform) == 0:
            raise ConfigurationError("coupling mask must transform some coordinates")

    @staticmethod
    def create(mask: np.ndarray, d: int, hidden: tuple[int, ...], stream: RngStream) -> "CouplingLayer":
        mask = np.asarray(mask, dtype=bool)
        sizes = [int(mask.sum()) + d, *hidden, 2 * int((~mask).sum())]
        return CouplingLayer(mask, mlp_init(sizes, stream, zero_last=True))

    def _shift_scale(self, passthrough: np.ndarray, xs: np.ndarray, cache: list | None = None):
        out = mlp_forward(self.params, np.concatenate([passthrough, xs, np.ones((len(xs), 1))], axis=1), cache)
        b = len(self.id_xform)
        return out[:, :b], _clamp_scale(out[:, b:])

    def forward(self, z: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t, s = self._shift_scale(z[:, self.id_pass], xs)
        out = z.copy()
        out[:, self.id_xform] = z[:, self.id_xform] * np.exp(s) + t
        return out, s.sum(axis=1)

    def inverse_cached(self, y: np.ndarray, xs: np.ndarray):
        net_cache: list = []
        t, s = self._shift_scale(y[:, self.id_pass], xs, net_cache)
        z = y.copy()
        z[:, self.id_xform] = w = (y[:, self.id_xform] - t) * np.exp(-s)
        return z, -s.sum(axis=1), {"net": net_cache, "s": s, "w": w}

    def inverse_backward(self, cache, g_z: np.ndarray, g_logdet: np.ndarray, grads: list[np.ndarray]) -> np.ndarray:
        s, w = cache["s"], cache["w"]
        g_w = g_z[:, self.id_xform]
        exp_neg_s = np.exp(-s)
        g_v = g_w * exp_neg_s
        # logdet contribution is -sum(s): chain both the value path and it
        g_s = -g_w * w - g_logdet[:, None]
        g_out = np.concatenate([-g_v, g_s * (1.0 - (s / S_MAX) ** 2)], axis=1)
        n_pass = len(self.id_pass)
        out = (grads, *mlp_grad_buffers(self.params, g_out.shape[:-1]))  # layer grads into ``grads``
        _, g_in = mlp_backward(self.params, cache["net"], g_out, out, input_grad=n_pass > 0)
        g_y = g_z.copy()
        g_y[:, self.id_xform] = g_v
        if n_pass:
            g_y[:, self.id_pass] += g_in[:, :n_pass]
        return g_y

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "mask": self.mask.astype(int).tolist(),
            "weights": [w.tolist() for w in self.params.weights],
            "biases": [b.tolist() for b in self.params.biases],
        }


class PermutationLayer:
    """Fixed coordinate permutation; volume preserving."""

    kind = "permutation"

    def __init__(self, perm: np.ndarray):
        self.perm = np.asarray(perm, dtype=np.int64)
        self.inv_perm = np.argsort(self.perm)
        self.params = None

    def forward(self, z: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return z[:, self.perm], np.zeros(z.shape[0])

    def inverse_cached(self, y: np.ndarray, xs: np.ndarray):
        return y[:, self.inv_perm], np.zeros(y.shape[0]), None

    def inverse_backward(self, cache, g_z: np.ndarray, g_logdet: np.ndarray, grads: list[np.ndarray]) -> np.ndarray:
        return g_z[:, self.perm]

    def to_dict(self) -> dict:
        return {"type": self.kind, "perm": self.perm.tolist()}


# ---------------------------------------------------------------------------
# Trainable flow
# ---------------------------------------------------------------------------


class _Flow:
    """What both flow families derive from their ``forward(z, xs)`` and
    ``inverse(thetas, xs)`` maps and a standard-normal base: the density, and
    draws (``sample(x_o, n)`` is ``sample_conditional`` on ``x_o`` repeated n
    times)."""

    m: int
    d: int

    def log_prob(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Change-of-variables density: log u(T^{-1}(theta;x)) + log|det J_inv|."""
        z, logdet_inv = self.inverse(thetas, xs)
        return -0.5 * (np.sum(z * z, axis=1) + self.m * _LOG_2PI) + logdet_inv

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        if n < 0:
            raise ConfigurationError("n must be nonnegative")
        x_o = np.asarray(x_o, dtype=np.float64).reshape(1, -1)
        return self.sample_conditional(np.broadcast_to(x_o, (n, self.d)), stream)

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        xs = np.atleast_2d(xs)
        z = stream.generator().standard_normal((xs.shape[0], self.m))
        return self.forward(z, xs)[0]


class ConditionalFlow(_Flow):
    """Invertible conditional transform with standard-normal base."""

    def __init__(self, m: int, d: int, layers: list):
        self.m, self.d, self.layers = m, d, layers

    # -- map evaluation ------------------------------------------------------

    def forward(self, z: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """theta = T(z; x) and the accumulated log|det J| of the forward map."""
        out, xs = _pair(z, xs, self.d)
        logdet = np.zeros(out.shape[0])
        for k, layer in enumerate(self.layers):
            out, ld = layer.forward(out, xs)
            if not np.all(np.isfinite(out)):
                raise NumericError(f"forward pass produced non-finite values at layer {k}")
            logdet += ld
        return out, logdet

    def inverse(self, thetas: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """z = T^{-1}(theta; x) and the log|det J| of the inverse map."""
        out, xs = _pair(thetas, xs, self.d)
        logdet = np.zeros(out.shape[0])
        for k, layer in zip(range(len(self.layers) - 1, -1, -1), reversed(self.layers)):
            out, ld, _ = layer.inverse_cached(out, xs)
            if not np.all(np.isfinite(out)):
                raise NumericError(f"inverse pass produced non-finite values at layer {k}")
            logdet += ld
        return out, logdet

    # -- parameters ----------------------------------------------------------

    def parameter_arrays(self) -> list[np.ndarray]:
        return [a for layer in self.layers if layer.params is not None for a in layer.params.layers]

    def on_row(self) -> tuple["ConditionalFlow", np.ndarray]:
        """A copy whose parameters are views of one (1, P) row, and the row."""
        arrays = self.parameter_arrays()
        row = np.concatenate([a.ravel() for a in arrays])[None]
        views = iter(row_views(row, [a.shape for a in arrays]))
        layers = []
        for layer in self.layers:
            if layer.params is not None:
                layer = CouplingLayer(layer.mask, MlpParams([next(views)[0] for _ in range(layer.params.n_layers)]))
            layers.append(layer)
        return ConditionalFlow(self.m, self.d, layers), row

    def to_dict(self) -> dict:
        return {"kind": "coupling-flow", "m": self.m, "d": self.d, "layers": [l.to_dict() for l in self.layers]}


def build_coupling_flow(
    m: int,
    d: int,
    n_layers: int = 5,
    hidden: tuple[int, ...] = (64, 64),
    stream: RngStream | None = None,
) -> ConditionalFlow:
    """Fresh identity-initialized flow: alternating half-dimension masks with
    coordinate reversals between blocks.  When m = 1 every block has the
    all-False mask, an element-wise affine map conditioned on x alone, and no
    reversal follows."""
    if m < 1 or d < 1:
        raise ConfigurationError("m and d must be positive")
    check_count("n_layers", n_layers, 1)
    if not isinstance(hidden, Sequence):
        raise ConfigurationError(f"hidden must be a sequence of integers >= 1, got {hidden!r}")
    for h in hidden:
        check_count("hidden entry", h, 1)
    stream = stream or RngStream(seed=0)
    layers: list = []
    half = np.arange(m) < (m + 1) // 2
    masks = (half, ~half) if m > 1 else (np.zeros(1, dtype=bool),) * 2
    for k in range(n_layers):
        layers.append(CouplingLayer.create(masks[k % 2], d, hidden, stream.child("layer", k)))
        # A reversal after every mask pair regroups the halves without undoing
        # the alternation (a reversal after every block would cancel it).
        if m > 1 and k % 2 == 1 and k < n_layers - 1:
            layers.append(PermutationLayer(np.arange(m)[::-1]))
    return ConditionalFlow(m, d, layers)


# ---------------------------------------------------------------------------
# Exact affine flows
# ---------------------------------------------------------------------------


class ConditionalAffineFlow(_Flow):
    """Diagonal affine conditional flow theta = mean(x) + scale(x) * z.

    ``mean_fn``/``scale_fn`` map a batch of observations (n, d) to (n, m)
    arrays; scales must be positive.  Supports the same interface as the
    trainable flow, with exact inverse and log-determinant.
    """

    def __init__(self, m: int, d: int, mean_fn, scale_fn, spec: dict | None = None):
        self.m, self.d, self.mean_fn, self.scale_fn, self.spec = m, d, mean_fn, scale_fn, spec

    def _coeffs(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = np.asarray(self.mean_fn(xs), dtype=np.float64)
        scale = np.asarray(self.scale_fn(xs), dtype=np.float64)
        mean = np.broadcast_to(mean, (xs.shape[0], self.m))
        scale = np.broadcast_to(scale, (xs.shape[0], self.m))
        if np.any(scale <= 0):
            raise NumericError("affine flow scale must be positive")
        return mean, scale

    def forward(self, z: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z, xs = _pair(z, xs, self.d)
        mean, scale = self._coeffs(xs)
        return mean + scale * z, np.sum(np.log(scale), axis=1)

    def inverse(self, thetas: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        thetas, xs = _pair(thetas, xs, self.d)
        mean, scale = self._coeffs(xs)
        return (thetas - mean) / scale, -np.sum(np.log(scale), axis=1)

    def to_dict(self) -> dict:
        if self.spec is None:
            raise ConfigurationError("only affine flows built from a named spec are serializable")
        return {"kind": "affine-flow", "m": self.m, "d": self.d, "spec": self.spec}


def conjugate_affine_flow(
    m: int,
    noise_std: float,
    scale_mult: float = 1.0,
    shift: float = 0.0,
) -> ConditionalAffineFlow:
    """Closed-form flow for the conjugate Gaussian task.

    With ``scale_mult=1, shift=0`` this is the exact posterior transport
    (latents of true posterior draws are standard normal); other values distort
    the latent scale or location for controlled failure cases.
    """
    if noise_std <= 0 or scale_mult <= 0:
        raise ConfigurationError("noise_std and scale_mult must be positive")
    shrink = 1.0 / (1.0 + noise_std**2)
    sd = float(np.sqrt(noise_std**2 * shrink)) * scale_mult

    def mean_fn(xs: np.ndarray) -> np.ndarray:
        return xs * shrink + shift

    def scale_fn(xs: np.ndarray) -> np.ndarray:
        return np.full((xs.shape[0], m), sd)

    spec = {"name": "conjugate", "m": m, "noise_std": noise_std, "scale_mult": scale_mult, "shift": shift}
    return ConditionalAffineFlow(m, m, mean_fn, scale_fn, spec=spec)


# ---------------------------------------------------------------------------
# Maximum-likelihood (NPE) training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NpeConfig:
    batch_size: int = 100
    learning_rate: float = 1e-3
    max_epochs: int = 500
    patience: int = 20
    holdout_frac: float = 0.1

    def __post_init__(self) -> None:
        for name, low in (("batch_size", 1), ("max_epochs", 0), ("patience", 1)):
            check_count(f"NpeConfig.{name}", getattr(self, name), low)
        check_real("NpeConfig.learning_rate", self.learning_rate, "positive", lambda v: v > 0)
        check_real("NpeConfig.holdout_frac", self.holdout_frac, "in [0, 1)", lambda v: 0 <= v < 1)


def npe_loss(flow: ConditionalFlow, thetas: np.ndarray, xs: np.ndarray) -> float:
    """Mean negative log-likelihood of (theta, x) pairs under the flow."""
    return float(-np.mean(flow.log_prob(thetas, xs)))


def _npe_loss_and_grads(flow: ConditionalFlow, thetas: np.ndarray, xs: np.ndarray, grads: list | None = None):
    """Mean NLL of the pairs and its gradients, into ``grads`` (one array per ``flow.parameter_arrays()``)."""
    z, xs = _pair(thetas, xs, flow.d)
    n, logdet, stack = len(z), np.zeros(len(z)), []
    for layer in reversed(flow.layers):
        z, ld, cache = layer.inverse_cached(z, xs)
        logdet += ld
        stack.append((layer, cache))
    loss = float(np.mean(0.5 * np.sum(z * z, axis=1) + 0.5 * flow.m * _LOG_2PI - logdet))
    g, g_logdet = z / n, np.full(n, -1.0 / n)
    # backprop meets the layers in flow order, the order of parameter_arrays
    grads = grads if grads is not None else [np.empty_like(a) for a in flow.parameter_arrays()]
    views = iter(grads)
    for layer, cache in reversed(stack):
        own = [next(views) for _ in range(layer.params.n_layers)] if layer.params is not None else []
        g = layer.inverse_backward(cache, g, g_logdet, own)
    return loss, grads


def npe_grad_check(flow: ConditionalFlow, thetas: np.ndarray, xs: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error of the analytic NPE-loss gradient vs central finite
    differences, by ``nets.grad_check``."""
    _, grads = _npe_loss_and_grads(flow, thetas, xs)
    return grad_check(flow.parameter_arrays(), grads, lambda: npe_loss(flow, thetas, xs), step)


def flow_fit_npe(
    flow: ConditionalFlow,
    train: JointDataset,
    cfg: NpeConfig | None = None,
    stream: RngStream | None = None,
) -> tuple[ConditionalFlow, dict]:
    """Fit the flow by maximizing sum_n log q(theta_n | x_n).

    The one-member case of ``nets.train_minibatch``, deterministic given
    ``stream``.  Returns a trained copy and the loss trace (per-epoch train
    and holdout NLL).  A non-finite loss (checked every step) or parameter
    (every epoch) raises ``TrainingError`` whose ``.flow`` holds the
    best-holdout parameters: the initial ones before any improvement, and
    always without a holdout.
    """
    if train.n == 0:
        raise ConfigurationError("training dataset is empty")
    cfg = cfg or NpeConfig()
    stream = stream or RngStream(seed=0)
    flow, row = flow.on_row()
    m, grad = flow.m, np.empty_like(row)
    grads = [g[0] for g in row_views(grad, [a.shape for a in flow.parameter_arrays()])]  # views, as the layers

    def batch_loss(batch, _):
        return np.atleast_1d(_npe_loss_and_grads(flow, batch[0, :, :m], batch[0, :, m:], grads)[0]), grad

    holdout_loss = lambda pairs, _: np.atleast_1d(npe_loss(flow, pairs[0, :, :m], pairs[0, :, m:]))  # noqa: E731
    # one member whose table is the (theta, x) pairs; NPE has no labels
    pairs, no_labels = np.hstack([train.thetas, train.xs]), np.zeros((1, train.n))
    try:
        fit = train_minibatch(row, pairs, np.arange(train.n)[None], no_labels, cfg, [stream], batch_loss, holdout_loss)
    except TrainingError as err:
        err.args, err.flow = (f"NPE {err}",), flow
        raise
    row[...] = fit.params
    nll = {"train_nll": [float(t[0]) for t in fit.train_loss], "holdout_nll": [float(v[0]) for v in fit.holdout_loss]}
    return flow, {**nll, "best_holdout_nll": float(fit.best_loss[0]) if fit.n_holdout else None}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_flow(flow, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(flow.to_dict(), fh)
        fh.write("\n")


def _layer_from_dict(entry: dict):
    kind = entry["type"]
    if kind == "permutation":
        return PermutationLayer(np.asarray(entry["perm"], dtype=np.int64))
    params = MlpParams.from_split(entry["weights"], entry["biases"])
    if kind == "coupling":
        return CouplingLayer(np.asarray(entry["mask"], dtype=bool), params)
    if kind == "elementwise":
        # The element-wise block of older checkpoints: a coupling that passes
        # nothing through.
        return CouplingLayer(np.zeros(entry["m"], dtype=bool), params)
    raise ConfigurationError(f"unknown layer type {kind!r} in checkpoint")


def load_flow(path: str | Path):
    with Path(path).open("r", encoding="utf-8") as fh:
        data = json.load(fh)
    kind = data.get("kind")
    try:
        if kind == "coupling-flow":
            return ConditionalFlow(data["m"], data["d"], [_layer_from_dict(e) for e in data["layers"]])
        if kind == "affine-flow":
            spec = data["spec"]
            if spec.get("name") != "conjugate":
                raise ConfigurationError(f"unknown affine flow spec {spec!r}")
            return conjugate_affine_flow(
                spec["m"], spec["noise_std"], spec.get("scale_mult", 1.0), spec.get("shift", 0.0)
            )
    except KeyError as exc:
        raise DataFormatError(f"flow checkpoint {str(path)!r} lacks key {exc.args[0]!r}") from None
    raise ConfigurationError(f"unknown flow kind {kind!r} in checkpoint")
