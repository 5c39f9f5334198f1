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
space.  For m = 1, where coupling cannot split coordinates, the trainable flow
falls back to element-wise affine blocks conditioned on x alone.
"""

from __future__ import annotations

import copy as _copy
import json
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
)
from .nets import Adam, MlpParams, mlp_backward, mlp_forward, mlp_init

__all__ = [
    "S_MAX",
    "CouplingLayer",
    "PermutationLayer",
    "ElementwiseAffineLayer",
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
    emitting a shift and raw log-scale for each transformed coordinate.
    """

    kind = "coupling"

    def __init__(self, mask: np.ndarray, params: MlpParams):
        self.mask = np.asarray(mask, dtype=bool)
        self.params = params
        self.id_pass = np.flatnonzero(self.mask)
        self.id_xform = np.flatnonzero(~self.mask)
        if len(self.id_xform) == 0 or len(self.id_pass) == 0:
            raise ConfigurationError("coupling mask must pass some and transform some coordinates")

    @staticmethod
    def create(mask: np.ndarray, d: int, hidden: tuple[int, ...], stream: RngStream) -> "CouplingLayer":
        mask = np.asarray(mask, dtype=bool)
        n_pass = int(mask.sum())
        n_xform = int((~mask).sum())
        params = mlp_init([n_pass + d, *hidden, 2 * n_xform], stream, zero_last=True)
        return CouplingLayer(mask, params)

    def _shift_scale(self, passthrough: np.ndarray, xs: np.ndarray, cache: list | None = None):
        out = mlp_forward(self.params, np.hstack([passthrough, xs]), cache)
        b = len(self.id_xform)
        return out[:, :b], _clamp_scale(out[:, b:])

    def forward(self, z: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t, s = self._shift_scale(z[:, self.id_pass], xs)
        out = z.copy()
        out[:, self.id_xform] = z[:, self.id_xform] * np.exp(s) + t
        return out, s.sum(axis=1)

    def inverse(self, y: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z, logdet, _ = self.inverse_cached(y, xs)
        return z, logdet

    def inverse_cached(self, y: np.ndarray, xs: np.ndarray):
        u = y[:, self.id_pass]
        net_cache: list = []
        t, s = self._shift_scale(u, xs, net_cache)
        w = (y[:, self.id_xform] - t) * np.exp(-s)
        z = y.copy()
        z[:, self.id_xform] = w
        cache = {"net": net_cache, "s": s, "w": w}
        return z, -s.sum(axis=1), cache

    def inverse_backward(self, cache, g_z: np.ndarray, g_logdet: np.ndarray):
        s, w = cache["s"], cache["w"]
        g_w = g_z[:, self.id_xform]
        exp_neg_s = np.exp(-s)
        g_v = g_w * exp_neg_s
        g_t = -g_v
        # logdet contribution is -sum(s): chain both the value path and it
        g_s = -g_w * w - g_logdet[:, None]
        g_raw = g_s * (1.0 - (s / S_MAX) ** 2)
        gw, gb, g_in = mlp_backward(self.params, cache["net"], np.hstack([g_t, g_raw]))
        g_y = np.zeros_like(g_z)
        g_y[:, self.id_xform] = g_v
        g_y[:, self.id_pass] = g_z[:, self.id_pass] + g_in[:, : len(self.id_pass)]
        return g_y, _interleave(gw, gb)

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

    def inverse(self, y: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return y[:, self.inv_perm], np.zeros(y.shape[0])

    def inverse_cached(self, y: np.ndarray, xs: np.ndarray):
        return y[:, self.inv_perm], np.zeros(y.shape[0]), None

    def inverse_backward(self, cache, g_z: np.ndarray, g_logdet: np.ndarray):
        return g_z[:, self.perm], []

    def to_dict(self) -> dict:
        return {"type": self.kind, "perm": self.perm.tolist()}


class ElementwiseAffineLayer:
    """Conditional element-wise affine block; the m = 1 coupling fallback.

    The conditioner sees only x and emits shift/raw log-scale for every
    coordinate.
    """

    kind = "elementwise"

    def __init__(self, m: int, params: MlpParams):
        self.m = m
        self.params = params

    @staticmethod
    def create(m: int, d: int, hidden: tuple[int, ...], stream: RngStream) -> "ElementwiseAffineLayer":
        return ElementwiseAffineLayer(m, mlp_init([d, *hidden, 2 * m], stream, zero_last=True))

    def _shift_scale(self, xs: np.ndarray, cache: list | None = None):
        out = mlp_forward(self.params, xs, cache)
        return out[:, : self.m], _clamp_scale(out[:, self.m :])

    def forward(self, z: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t, s = self._shift_scale(xs)
        return z * np.exp(s) + t, s.sum(axis=1)

    def inverse(self, y: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z, logdet, _ = self.inverse_cached(y, xs)
        return z, logdet

    def inverse_cached(self, y: np.ndarray, xs: np.ndarray):
        net_cache: list = []
        t, s = self._shift_scale(xs, net_cache)
        w = (y - t) * np.exp(-s)
        return w, -s.sum(axis=1), {"net": net_cache, "s": s, "w": w}

    def inverse_backward(self, cache, g_z: np.ndarray, g_logdet: np.ndarray):
        s, w = cache["s"], cache["w"]
        g_y = g_z * np.exp(-s)
        g_t = -g_y
        g_s = -g_z * w - g_logdet[:, None]
        g_raw = g_s * (1.0 - (s / S_MAX) ** 2)
        gw, gb, _ = mlp_backward(self.params, cache["net"], np.hstack([g_t, g_raw]), input_grad=False)
        return g_y, _interleave(gw, gb)

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "m": self.m,
            "weights": [w.tolist() for w in self.params.weights],
            "biases": [b.tolist() for b in self.params.biases],
        }


def _interleave(gw: list[np.ndarray], gb: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for w, b in zip(gw, gb):
        out.append(w)
        out.append(b)
    return out


# ---------------------------------------------------------------------------
# Trainable flow
# ---------------------------------------------------------------------------


class ConditionalFlow:
    """Invertible conditional transform with standard-normal base."""

    def __init__(self, m: int, d: int, layers: list):
        self.m = m
        self.d = d
        self.layers = layers

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
            out, ld = layer.inverse(out, xs)
            if not np.all(np.isfinite(out)):
                raise NumericError(f"inverse pass produced non-finite values at layer {k}")
            logdet += ld
        return out, logdet

    def log_prob(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Change-of-variables density: log u(T^{-1}(theta;x)) + log|det J_inv|."""
        z, logdet_inv = self.inverse(thetas, xs)
        base = -0.5 * (np.sum(z * z, axis=1) + self.m * _LOG_2PI)
        return base + logdet_inv

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        if n < 0:
            raise ConfigurationError("n must be nonnegative")
        if n == 0:
            return np.empty((0, self.m))
        z = stream.generator().standard_normal((n, self.m))
        xs = np.broadcast_to(np.asarray(x_o, dtype=np.float64).reshape(1, -1), (n, self.d))
        theta, _ = self.forward(z, xs)
        return theta

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        xs = np.atleast_2d(xs)
        z = stream.generator().standard_normal((xs.shape[0], self.m))
        theta, _ = self.forward(z, xs)
        return theta

    # -- parameters ----------------------------------------------------------

    def parameter_arrays(self) -> list[np.ndarray]:
        arrays: list[np.ndarray] = []
        for layer in self.layers:
            if layer.params is not None:
                arrays.extend(layer.params.flat())
        return arrays

    def copy(self) -> "ConditionalFlow":
        return _copy.deepcopy(self)

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
    coordinate reversals between blocks; element-wise blocks when m = 1."""
    if m < 1 or d < 1 or n_layers < 1:
        raise ConfigurationError("m, d, and n_layers must be positive")
    stream = stream or RngStream(seed=0)
    layers: list = []
    if m == 1:
        for k in range(n_layers):
            layers.append(ElementwiseAffineLayer.create(1, d, hidden, stream.child("layer", k)))
        return ConditionalFlow(m, d, layers)
    half = (m + 1) // 2
    base_mask = np.zeros(m, dtype=bool)
    base_mask[:half] = True
    for k in range(n_layers):
        mask = base_mask if k % 2 == 0 else ~base_mask
        layers.append(CouplingLayer.create(mask, d, hidden, stream.child("layer", k)))
        # A reversal after every mask pair regroups the halves without undoing
        # the alternation (a reversal after every block would cancel it).
        if k % 2 == 1 and k < n_layers - 1:
            layers.append(PermutationLayer(np.arange(m)[::-1]))
    return ConditionalFlow(m, d, layers)


# ---------------------------------------------------------------------------
# Exact affine flows
# ---------------------------------------------------------------------------


class ConditionalAffineFlow:
    """Diagonal affine conditional flow theta = mean(x) + scale(x) * z.

    ``mean_fn``/``scale_fn`` map a batch of observations (n, d) to (n, m)
    arrays; scales must be positive.  Supports the same interface as the
    trainable flow, with exact inverse and log-determinant.
    """

    def __init__(self, m: int, d: int, mean_fn, scale_fn, spec: dict | None = None):
        self.m = m
        self.d = d
        self.mean_fn = mean_fn
        self.scale_fn = scale_fn
        self.spec = spec

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

    def log_prob(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        z, logdet_inv = self.inverse(thetas, xs)
        return -0.5 * (np.sum(z * z, axis=1) + self.m * _LOG_2PI) + logdet_inv

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        if n < 0:
            raise ConfigurationError("n must be nonnegative")
        if n == 0:
            return np.empty((0, self.m))
        z = stream.generator().standard_normal((n, self.m))
        xs = np.broadcast_to(np.asarray(x_o, dtype=np.float64).reshape(1, -1), (n, self.d))
        theta, _ = self.forward(z, xs)
        return theta

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        xs = np.atleast_2d(xs)
        z = stream.generator().standard_normal((xs.shape[0], self.m))
        theta, _ = self.forward(z, xs)
        return theta

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


def npe_loss(flow: ConditionalFlow, thetas: np.ndarray, xs: np.ndarray) -> float:
    """Mean negative log-likelihood of (theta, x) pairs under the flow."""
    return float(-np.mean(flow.log_prob(thetas, xs)))


def _npe_loss_and_grads(flow: ConditionalFlow, thetas: np.ndarray, xs: np.ndarray):
    thetas, xs = _pair(thetas, xs, flow.d)
    n = thetas.shape[0]
    out = thetas
    logdet = np.zeros(n)
    stack = []
    for layer in reversed(flow.layers):
        out, ld, cache = layer.inverse_cached(out, xs)
        logdet += ld
        stack.append((layer, cache))
    z = out
    loss = float(np.mean(0.5 * np.sum(z * z, axis=1) + 0.5 * flow.m * _LOG_2PI - logdet))
    g = z / n
    g_logdet = np.full(n, -1.0 / n)
    grads_by_layer: dict[int, list[np.ndarray]] = {}
    for layer, cache in reversed(stack):
        g, layer_grads = layer.inverse_backward(cache, g, g_logdet)
        grads_by_layer[id(layer)] = layer_grads
    flat: list[np.ndarray] = []
    for layer in flow.layers:
        if layer.params is not None:
            flat.extend(grads_by_layer[id(layer)])
    return loss, flat


def npe_grad_check(flow: ConditionalFlow, thetas: np.ndarray, xs: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error of the analytic NPE-loss gradient vs central finite
    differences; same convention as the classifier gradient check."""
    thetas, xs = _pair(thetas, xs, flow.d)
    _, grads = _npe_loss_and_grads(flow, thetas, xs)
    worst = 0.0
    for arr, grad in zip(flow.parameter_arrays(), grads):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = npe_loss(flow, thetas, xs)
            flat[i] = orig - step
            down = npe_loss(flow, thetas, xs)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            err = abs(gflat[i] - fd) / (abs(gflat[i]) + 1e-8)
            worst = max(worst, err)
    return worst


def flow_fit_npe(
    flow: ConditionalFlow,
    train: JointDataset,
    cfg: NpeConfig | None = None,
    stream: RngStream | None = None,
) -> tuple[ConditionalFlow, dict]:
    """Fit the flow by maximizing sum_n log q(theta_n | x_n).

    Minibatch Adam with early stopping on a holdout fraction of ``train``;
    deterministic given ``stream``.  Returns a trained copy and the loss trace
    (per-epoch train and holdout NLL).  A non-finite loss raises
    ``TrainingError`` carrying the last finite checkpoint in ``.flow``.
    """
    if train.n == 0:
        raise ConfigurationError("training dataset is empty")
    cfg = cfg or NpeConfig()
    stream = stream or RngStream(seed=0)
    flow = flow.copy()

    perm = stream.child("holdout").generator().permutation(train.n)
    n_val = int(round(cfg.holdout_frac * train.n))
    use_val = 1 <= n_val <= train.n - 2
    val_idx, tr_idx = (perm[:n_val], perm[n_val:]) if use_val else (perm[:0], perm)
    th_tr, x_tr = train.thetas[tr_idx], train.xs[tr_idx]
    th_val, x_val = train.thetas[val_idx], train.xs[val_idx]

    params = flow.parameter_arrays()
    opt = Adam(params, lr=cfg.learning_rate)
    shuffle_rng = stream.child("shuffle").generator()
    trace: dict[str, list[float]] = {"train_nll": [], "holdout_nll": []}
    best_val = np.inf
    best_state = [a.copy() for a in params]
    since_best = 0
    last_good = [a.copy() for a in params]
    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(len(th_tr))
        epoch_losses = []
        for start in range(0, len(th_tr), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = _npe_loss_and_grads(flow, th_tr[idx], x_tr[idx])
            if not np.isfinite(loss):
                err = TrainingError(f"NPE loss diverged at epoch {epoch}")
                for a, saved in zip(params, last_good):
                    a[...] = saved
                err.flow = flow
                raise err
            for a, saved in zip(params, last_good):
                saved[...] = a
            opt.step(grads)
            epoch_losses.append(loss)
        trace["train_nll"].append(float(np.mean(epoch_losses)))
        if use_val:
            val_nll = npe_loss(flow, th_val, x_val)
            trace["holdout_nll"].append(val_nll)
            if val_nll < best_val:
                best_val = val_nll
                best_state = [a.copy() for a in params]
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
    if use_val and cfg.max_epochs > 0:
        for a, saved in zip(params, best_state):
            a[...] = saved
    trace["best_holdout_nll"] = float(best_val) if use_val else None
    return flow, trace


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
    params = MlpParams(
        [np.asarray(w, dtype=np.float64) for w in entry["weights"]],
        [np.asarray(b, dtype=np.float64) for b in entry["biases"]],
    )
    if kind == "coupling":
        return CouplingLayer(np.asarray(entry["mask"], dtype=bool), params)
    if kind == "elementwise":
        return ElementwiseAffineLayer(entry["m"], params)
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
