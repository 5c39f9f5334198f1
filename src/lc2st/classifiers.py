"""Probabilistic binary classifiers over feature vectors.

Three families, all exposing ``predict_proba(ws) -> P(C=1 | w)``:

* :func:`qda_fit` -- closed-form quadratic discriminant analysis, the Bayes
  classifier when both classes are Gaussian; its log-odds is one coefficient
  vector over :func:`quad_features`, so ensembles stack into one matrix;
* :func:`analytic_bayes` -- exact class probability p/(p+q) from a pair of
  log-densities, used as an oracle in tests;
* :func:`mlp_fit` -- a small rectifier network with a sigmoid head trained by
  minibatch Adam on binary cross-entropy with early stopping.

The decision rule everywhere is ``predict 1 iff d > 1/2``: exact ties go to
class 0, which makes accuracy statistics deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .core import (
    ConfigurationError,
    FitError,
    LabeledPairDataset,
    RngStream,
    TrainingError,
    UndefinedPointError,
)
from .nets import Adam, MlpParams, mlp_backward, mlp_forward, mlp_init, sigmoid

__all__ = [
    "ProbClassifier",
    "quad_features",
    "QdaModel",
    "qda_fit",
    "AnalyticBayesClassifier",
    "analytic_bayes",
    "MlpConfig",
    "MlpModel",
    "mlp_fit",
    "mlp_grad_check",
    "CalibrationCurve",
    "calibration_curve",
    "save_classifier",
    "load_classifier",
    "qda_factory",
    "mlp_factory",
]


class ProbClassifier(Protocol):
    def predict_proba(self, ws: np.ndarray) -> np.ndarray: ...


def _check_features(ws: np.ndarray, dim: int) -> np.ndarray:
    ws = np.atleast_2d(np.asarray(ws, dtype=np.float64))
    if ws.shape[1] != dim:
        raise ConfigurationError(f"expected feature dimension {dim}, got {ws.shape[1]}")
    return ws


# ---------------------------------------------------------------------------
# Quadratic discriminant analysis
# ---------------------------------------------------------------------------


# Rows per scoring block: a block's features and a 101-member ensemble's
# log-odds stay under 1 MB, so scoring never allocates multi-MB temporaries.
BLOCK_ROWS = 1024


def row_slices(n: int):
    """Slices covering ``range(n)`` in blocks of at most ``BLOCK_ROWS`` rows."""
    return (slice(start, start + BLOCK_ROWS) for start in range(0, n, BLOCK_ROWS))


def quad_features(ws: np.ndarray) -> np.ndarray:
    """Rows [w_i * w_j for i <= j (row-major), w, 1]: d(d+1)/2 + d + 1 columns."""
    cols = np.atleast_2d(np.asarray(ws, dtype=np.float64)).T.copy()
    dim, start = len(cols), 0
    out = np.empty((dim * (dim + 3) // 2 + 1, cols.shape[1]))
    for i in range(dim):
        np.multiply(cols[i], cols[i:], out=out[start : start + dim - i])
        start += dim - i
    out[start:-1] = cols
    out[-1] = 1.0
    return out.T


@dataclass
class QdaModel:
    """Gaussian class-conditional classifier with per-class mean/covariance.

    With precisions P_k, the log-odds is w'Aw + b'w + c for A = -(P1 - P0)/2,
    b = P1 mu1 - P0 mu0 and c from the means, log-determinants and priors;
    ``coef`` is [upper triangle of A, off-diagonals doubled; b; c].
    """

    mu0: np.ndarray
    mu1: np.ndarray
    cov0: np.ndarray
    cov1: np.ndarray
    prior0: float = 0.5
    prior1: float = 0.5
    coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.mu0 = np.asarray(self.mu0, dtype=np.float64).ravel()
        self.mu1 = np.asarray(self.mu1, dtype=np.float64).ravel()
        self.cov0 = np.asarray(self.cov0, dtype=np.float64)
        self.cov1 = np.asarray(self.cov1, dtype=np.float64)
        if not np.isclose(self.prior0 + self.prior1, 1.0):
            raise ConfigurationError("class priors must sum to one")
        try:
            chols = np.linalg.cholesky(np.stack([self.cov0, self.cov1]))
        except np.linalg.LinAlgError as exc:
            raise FitError(f"class covariance is not positive definite: {exc}") from exc
        inv_chols = np.linalg.inv(chols)
        p0, p1 = np.swapaxes(inv_chols, 1, 2) @ inv_chols
        ld0, ld1 = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        quad = -0.5 * (p1 - p0)
        lin0, lin1 = p0 @ self.mu0, p1 @ self.mu1
        const = -0.5 * (self.mu1 @ lin1 - self.mu0 @ lin0 + ld1 - ld0) + np.log(self.prior1) - np.log(self.prior0)
        sym = quad + quad.T - np.diag(np.diag(quad))
        self.coef = np.concatenate([*(sym[i, i:] for i in range(self.dim)), lin1 - lin0, [const]])

    @property
    def dim(self) -> int:
        return self.mu0.shape[0]

    def log_odds(self, ws: np.ndarray) -> np.ndarray:
        ws = _check_features(ws, self.dim)
        out = np.empty(len(ws))
        for rows in row_slices(len(ws)):
            out[rows] = quad_features(ws[rows]) @ self.coef
        return out

    def predict_proba(self, ws: np.ndarray) -> np.ndarray:
        return sigmoid(self.log_odds(ws))


def qda_fit(data: LabeledPairDataset, ridge: float | None = None) -> QdaModel:
    """Fit QDA by the per-class sample mean and covariance.

    ``ridge * I`` is added to each covariance; the default ridge is
    ``1e-6 * trace(cov) / dim``, enough to survive nearly-degenerate
    calibration sets without moving well-conditioned fits.
    """
    dim = data.dim
    rows = [data.class_rows(0), data.class_rows(1)]
    for label, w in enumerate(rows):
        if w.shape[0] < dim + 1:
            raise FitError(
                f"class {label} has {w.shape[0]} samples, need at least dim+1={dim + 1}"
            )
    mus, covs = [], []
    for w in rows:
        mu = w.mean(axis=0)
        cov = np.cov(w, rowvar=False, ddof=1).reshape(dim, dim)
        r = ridge if ridge is not None else 1e-6 * float(np.trace(cov)) / dim
        if r < 0:
            raise ConfigurationError("ridge must be nonnegative")
        covs.append(cov + r * np.eye(dim))
        mus.append(mu)
    n0, n1 = rows[0].shape[0], rows[1].shape[0]
    return QdaModel(
        mu0=mus[0], mu1=mus[1], cov0=covs[0], cov1=covs[1],
        prior0=n0 / (n0 + n1), prior1=n1 / (n0 + n1),
    )


# ---------------------------------------------------------------------------
# Analytic Bayes probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticBayesClassifier:
    """Exact class-1 probability p/(p+q) from two log-densities.

    Computed as sigmoid(log p - log q), which is overflow-safe for extreme
    log-density gaps.  Points where both densities vanish have no defined
    probability and raise.
    """

    log_prob_p: Callable[[np.ndarray], np.ndarray]
    log_prob_q: Callable[[np.ndarray], np.ndarray]

    def predict_proba(self, ws: np.ndarray) -> np.ndarray:
        ws = np.atleast_2d(np.asarray(ws, dtype=np.float64))
        lp = np.asarray(self.log_prob_p(ws), dtype=np.float64)
        lq = np.asarray(self.log_prob_q(ws), dtype=np.float64)
        both_zero = np.isneginf(lp) & np.isneginf(lq)
        if np.any(both_zero):
            idx = int(np.argmax(both_zero))
            raise UndefinedPointError(f"both densities are zero at query point {idx}")
        with np.errstate(invalid="ignore"):
            d = sigmoid(lp - lq)
        d = np.where(np.isneginf(lp), 0.0, d)
        d = np.where(np.isneginf(lq), 1.0, d)
        return d


def analytic_bayes(log_prob_p: Callable, log_prob_q: Callable) -> AnalyticBayesClassifier:
    return AnalyticBayesClassifier(log_prob_p, log_prob_q)


# ---------------------------------------------------------------------------
# Multilayer perceptron
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlpConfig:
    """Training configuration for the sigmoid-head rectifier network.

    ``hidden_sizes=None`` means two hidden layers of ``hidden_mult * dim``
    units.  Early stopping watches binary cross-entropy on a holdout fraction
    of the training set.
    """

    hidden_sizes: tuple[int, ...] | None = None
    hidden_mult: int = 10
    batch_size: int = 100
    learning_rate: float = 1e-3
    max_epochs: int = 1000
    patience: int = 20
    holdout_frac: float = 0.1


@dataclass
class MlpModel:
    """Fitted network plus the input standardization baked in at fit time."""

    params: MlpParams
    feat_mean: np.ndarray
    feat_std: np.ndarray
    metadata: dict

    @property
    def dim(self) -> int:
        return self.params.weights[0].shape[0]

    def _standardize(self, ws: np.ndarray) -> np.ndarray:
        return (ws - self.feat_mean) / self.feat_std

    def log_odds(self, ws: np.ndarray) -> np.ndarray:
        ws = _check_features(ws, self.dim)
        return mlp_forward(self.params, self._standardize(ws)).ravel()

    def predict_proba(self, ws: np.ndarray) -> np.ndarray:
        return sigmoid(self.log_odds(ws))


def _bce_loss_and_grad(params: MlpParams, inputs: np.ndarray, labels: np.ndarray):
    cache: list = []
    z = mlp_forward(params, inputs, cache).ravel()
    # mean over the batch of softplus(z) - y*z  (binary cross-entropy in logits)
    loss = float(np.mean(np.logaddexp(0.0, z) - labels * z))
    gz = ((sigmoid(z) - labels) / len(labels)).reshape(-1, 1)
    gw, gb, _ = mlp_backward(params, cache, gz)
    return loss, gw, gb


def _bce_loss(params: MlpParams, inputs: np.ndarray, labels: np.ndarray) -> float:
    z = mlp_forward(params, inputs).ravel()
    return float(np.mean(np.logaddexp(0.0, z) - labels * z))


def mlp_fit(data: LabeledPairDataset, cfg: MlpConfig | None = None, stream: RngStream | None = None) -> MlpModel:
    """Train the rectifier network on a balanced labeled dataset.

    Deterministic given ``stream``: initialization, the holdout split, and the
    per-epoch shuffles all derive from it.  Divergence (non-finite loss or
    parameters) raises ``TrainingError`` with the epoch in the message.
    """
    cfg = cfg or MlpConfig()
    stream = stream or RngStream(seed=0)
    n0, n1 = data.n_class0, data.n_class1
    if n0 < 1 or n1 < 1:
        raise FitError("need at least one sample per class")

    feat_mean = data.ws.mean(axis=0)
    feat_std = data.ws.std(axis=0)
    feat_std = np.where(feat_std < 1e-12, 1.0, feat_std)
    ws = (data.ws - feat_mean) / feat_std
    labels = data.labels.astype(np.float64)

    dim = data.dim
    hidden = cfg.hidden_sizes if cfg.hidden_sizes is not None else (cfg.hidden_mult * dim,) * 2
    params = mlp_init([dim, *hidden, 1], stream.child("init"))

    n = data.n
    holdout_rng = stream.child("holdout").generator()
    perm = holdout_rng.permutation(n)
    n_val = int(round(cfg.holdout_frac * n))
    use_val = 1 <= n_val <= n - 2
    val_idx, train_idx = (perm[:n_val], perm[n_val:]) if use_val else (perm[:0], perm)
    ws_tr, y_tr = ws[train_idx], labels[train_idx]
    ws_val, y_val = ws[val_idx], labels[val_idx]

    opt = Adam(params.flat(), lr=cfg.learning_rate)
    shuffle_rng = stream.child("shuffle").generator()
    best_val = np.inf
    best_params = params.copy()
    best_epoch = 0
    since_best = 0
    last_loss = np.nan
    epochs_run = 0
    for epoch in range(cfg.max_epochs):
        epochs_run = epoch + 1
        order = shuffle_rng.permutation(len(ws_tr))
        for start in range(0, len(ws_tr), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, gw, gb = _bce_loss_and_grad(params, ws_tr[idx], y_tr[idx])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"loss diverged at epoch {epoch} (loss={loss}); "
                    f"last finite loss {last_loss}"
                )
            grads: list[np.ndarray] = []
            for w, b in zip(gw, gb):
                grads.append(w)
                grads.append(b)
            opt.step(grads)
            last_loss = loss
        if not params.all_finite():
            raise TrainingError(f"parameters diverged at epoch {epoch}")
        if use_val:
            val_loss = _bce_loss(params, ws_val, y_val)
            if val_loss < best_val:
                best_val = val_loss
                best_params = params.copy()
                best_epoch = epochs_run
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
    if use_val:
        params = best_params
    metadata = {
        "hidden_sizes": tuple(int(h) for h in hidden),
        "epochs_run": epochs_run,
        "best_epoch": best_epoch if use_val else epochs_run,
        "final_train_loss": last_loss,
        "holdout_loss": best_val if use_val else None,
        "n_train": int(len(ws_tr)),
    }
    return MlpModel(params=params, feat_mean=feat_mean, feat_std=feat_std, metadata=metadata)


def mlp_grad_check(model: MlpModel, ws: np.ndarray, labels: np.ndarray, step: float = 1e-5) -> float:
    """Max relative disagreement between backprop and central finite differences.

    Per-coordinate error is |analytic - fd| / (|analytic| + 1e-8) on the batch
    cross-entropy; the maximum over all parameters is returned.  Finite
    differences assume the loss is smooth within ``step`` of each coordinate,
    so callers should keep rectifier pre-activations away from zero.
    """
    ws = _check_features(ws, model.dim)
    if len(ws) == 0:
        raise ConfigurationError("gradient check needs a nonempty batch")
    labels = np.asarray(labels, dtype=np.float64).ravel()
    inputs = model._standardize(ws)
    params = model.params
    _, gw, gb = _bce_loss_and_grad(params, inputs, labels)
    analytic: list[np.ndarray] = []
    for w, b in zip(gw, gb):
        analytic.append(w)
        analytic.append(b)
    worst = 0.0
    for arr, grad in zip(params.flat(), analytic):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = _bce_loss(params, inputs, labels)
            flat[i] = orig - step
            down = _bce_loss(params, inputs, labels)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            err = abs(gflat[i] - fd) / (abs(gflat[i]) + 1e-8)
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Calibration diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationCurve:
    """Per-bin mean predicted probability vs empirical class-1 frequency.

    Bins with no members keep their edges but carry NaN in both columns.
    """

    bin_edges: np.ndarray
    mean_predicted: np.ndarray
    frequency: np.ndarray
    counts: np.ndarray


def calibration_curve(clf: ProbClassifier, data: LabeledPairDataset, bins: int) -> CalibrationCurve:
    """Equal-width reliability curve of ``clf`` on ``data``."""
    if bins < 2:
        raise ConfigurationError("need at least 2 bins")
    probs = np.asarray(clf.predict_proba(data.ws), dtype=np.float64)
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.clip(np.digitize(probs, edges[1:-1]), 0, bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(np.int64)
    sum_pred = np.bincount(idx, weights=probs, minlength=bins)
    sum_pos = np.bincount(idx, weights=data.labels.astype(np.float64), minlength=bins)
    with np.errstate(invalid="ignore"):
        mean_pred = np.where(counts > 0, sum_pred / np.maximum(counts, 1), np.nan)
        freq = np.where(counts > 0, sum_pos / np.maximum(counts, 1), np.nan)
    return CalibrationCurve(bin_edges=edges, mean_predicted=mean_pred, frequency=freq, counts=counts)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_classifier(clf, path) -> None:
    """Serialize a fitted QDA or MLP model as JSON (shapes are implicit in the
    nested row-major arrays; floats use the shortest round-trip decimals)."""
    import json
    from pathlib import Path

    if isinstance(clf, QdaModel):
        payload = {
            "kind": "qda",
            "mu0": clf.mu0.tolist(),
            "mu1": clf.mu1.tolist(),
            "cov0": clf.cov0.tolist(),
            "cov1": clf.cov1.tolist(),
            "prior0": clf.prior0,
            "prior1": clf.prior1,
        }
    elif isinstance(clf, MlpModel):
        payload = {
            "kind": "mlp",
            "weights": [w.tolist() for w in clf.params.weights],
            "biases": [b.tolist() for b in clf.params.biases],
            "feat_mean": clf.feat_mean.tolist(),
            "feat_std": clf.feat_std.tolist(),
            "metadata": {k: v for k, v in clf.metadata.items() if not isinstance(v, np.ndarray)},
        }
    else:
        raise ConfigurationError(f"cannot serialize classifier of type {type(clf).__name__}")
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_classifier(path):
    """Restore a classifier written by :func:`save_classifier`."""
    import json
    from pathlib import Path

    with Path(path).open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload.get("kind")
    if kind == "qda":
        return QdaModel(
            mu0=np.asarray(payload["mu0"]),
            mu1=np.asarray(payload["mu1"]),
            cov0=np.asarray(payload["cov0"]),
            cov1=np.asarray(payload["cov1"]),
            prior0=payload["prior0"],
            prior1=payload["prior1"],
        )
    if kind == "mlp":
        params = MlpParams(
            [np.asarray(w, dtype=np.float64) for w in payload["weights"]],
            [np.asarray(b, dtype=np.float64) for b in payload["biases"]],
        )
        return MlpModel(
            params=params,
            feat_mean=np.asarray(payload["feat_mean"], dtype=np.float64),
            feat_std=np.asarray(payload["feat_std"], dtype=np.float64),
            metadata=payload.get("metadata", {}),
        )
    raise ConfigurationError(f"unknown classifier kind {kind!r} in checkpoint")


# ---------------------------------------------------------------------------
# Factories (uniform fit interface for the test procedures)
# ---------------------------------------------------------------------------


def qda_factory(ridge: float | None = None):
    """Fit function ``(data, stream) -> QdaModel``; QDA ignores the stream."""

    def fit(data: LabeledPairDataset, stream: RngStream) -> QdaModel:
        return qda_fit(data, ridge=ridge)

    return fit


def mlp_factory(cfg: MlpConfig | None = None):
    """Fit function ``(data, stream) -> MlpModel`` with a fixed config."""

    def fit(data: LabeledPairDataset, stream: RngStream) -> MlpModel:
        return mlp_fit(data, cfg, stream)

    return fit
