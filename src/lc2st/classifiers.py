"""Probabilistic binary classifiers over feature vectors.

Three families, all exposing ``predict_proba(ws) -> P(C=1 | w)``:

* :func:`qda_fit` -- closed-form quadratic discriminant analysis, the Bayes
  classifier when both classes are Gaussian; its log-odds is one coefficient
  vector over :func:`quad_features`, and :func:`qda_fit_moments` fits a whole
  ensemble from stacked class moments into one (features, members) matrix;
* :func:`analytic_bayes` -- exact class probability p/(p+q) from a pair of
  log-densities, used as an oracle in tests;
* :func:`mlp_fit` -- a small rectifier network with a sigmoid head trained by
  minibatch Adam on binary cross-entropy with early stopping; null ensembles
  of such nets train as one stack, every member in the same Adam loop.

The decision rule everywhere is ``predict 1 iff d > 1/2``: exact ties go to
class 0, which makes accuracy statistics deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

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
    "qda_coefficients",
    "qda_fit",
    "QdaStack",
    "qda_fit_moments",
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
    "QdaFitter",
    "MlpFitter",
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


def qda_coefficients(means: np.ndarray, covs: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """(F, H) log-odds coefficients of H QDA members over :func:`quad_features`,
    from their (H, 2, d) class means, (H, 2, d, d) covariances and (H, 2) priors.

    With precisions P_k, the log-odds is w'Aw + b'w + c for A = -(P1 - P0)/2,
    b = P1 mu1 - P0 mu0 and c from the means, log-determinants and priors;
    a column is [upper triangle of A, off-diagonals doubled; b; c].  One
    batched Cholesky and one inverse serve every member.
    """
    try:
        chols = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"class covariance is not positive definite: {exc}") from exc
    inv_chols = np.linalg.inv(chols)
    prec = np.swapaxes(inv_chols, -1, -2) @ inv_chols
    logdet = 2.0 * np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)
    lin = (prec @ means[..., None])[..., 0]
    mu_lin = (means[..., None, :] @ lin[..., None])[..., 0, 0]
    const = -0.5 * (mu_lin[:, 1] - mu_lin[:, 0] + logdet[:, 1] - logdet[:, 0]) + np.log(priors[:, 1]) - np.log(priors[:, 0])
    quad = -0.5 * (prec[:, 1] - prec[:, 0])
    sym, diag = quad + np.swapaxes(quad, -1, -2), np.arange(means.shape[-1])
    sym[:, diag, diag] = quad[:, diag, diag]
    return np.vstack([*(sym[:, i, i:].T for i in diag), (lin[:, 1] - lin[:, 0]).T, const])


@dataclass
class QdaModel:
    """Gaussian class-conditional classifier with per-class mean/covariance;
    ``coef`` is its :func:`qda_coefficients` column."""

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
        self.coef = qda_coefficients(
            np.stack([self.mu0, self.mu1])[None], np.stack([self.cov0, self.cov1])[None], np.array([[self.prior0, self.prior1]])
        )[:, 0]

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


@dataclass(frozen=True)
class QdaStack:
    """H QDA members fitted together: (H, 2, d) class ``means``, (H, 2, d, d)
    ``covs``, (H, 2) ``priors`` and their (F, H) ``coef``.  Scoring reads
    ``coef``; ``stack[h]`` builds member h as a :class:`QdaModel` only when
    asked for, for checkpoints and inspection."""

    means: np.ndarray
    covs: np.ndarray
    priors: np.ndarray
    coef: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.means)

    def __getitem__(self, h: int) -> QdaModel:
        return QdaModel(*self.means[h], *self.covs[h], *self.priors[h])

    def prepend(self, model: QdaModel) -> "QdaStack":
        """``model`` as member 0, ahead of these members."""
        return QdaStack(
            np.concatenate([[[model.mu0, model.mu1]], self.means]),
            np.concatenate([[[model.cov0, model.cov1]], self.covs]),
            np.concatenate([[[model.prior0, model.prior1]], self.priors]),
            np.column_stack([model.coef, self.coef]),
        )


def qda_fit_moments(counts, centre, sums, scatters, ridge: float | None = None) -> QdaStack:
    """Fit H QDA members at once from their class moments about ``centre``.

    ``counts`` (H, 2) are the class sizes, ``sums`` (H, 2, d) and
    ``scatters`` (H, 2, d, d) the sums of w - centre and of its outer
    products over each class's rows.  Means, covariances, the ridge rule and
    the errors are those of :func:`qda_fit` on each member's rows, to rounding.
    """
    dim = len(centre)
    small = np.argwhere(counts < dim + 1)
    if len(small):
        h, label = small[0]
        raise FitError(f"class {label} has {counts[h, label]} samples, need at least dim+1={dim + 1}")
    if ridge is not None and ridge < 0:
        raise ConfigurationError("ridge must be nonnegative")
    n = counts[..., None, None]
    means = centre + sums / counts[..., None]
    covs = (scatters - sums[..., :, None] * sums[..., None, :] / n) / (n - 1)
    r = 1e-6 * np.trace(covs, axis1=-2, axis2=-1) / dim if ridge is None else np.full(counts.shape, ridge)
    covs += r[..., None, None] * np.eye(dim)
    priors = counts / counts.sum(axis=1, keepdims=True)
    return QdaStack(means, covs, priors, qda_coefficients(means, covs, priors))


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

    def __post_init__(self) -> None:
        for name in ("batch_size", "max_epochs", "patience", "hidden_mult"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"MlpConfig.{name} must be at least 1, got {getattr(self, name)!r}")
        if self.hidden_sizes is not None and any(h < 1 for h in self.hidden_sizes):
            raise ConfigurationError(f"MlpConfig.hidden_sizes entries must be at least 1, got {self.hidden_sizes!r}")
        if not self.learning_rate > 0:
            raise ConfigurationError(f"MlpConfig.learning_rate must be positive, got {self.learning_rate!r}")
        if not 0 <= self.holdout_frac < 1:
            raise ConfigurationError(f"MlpConfig.holdout_frac must lie in [0, 1), got {self.holdout_frac!r}")


@dataclass
class MlpModel:
    """Fitted network plus the input standardization baked in at fit time.

    :meth:`stack` joins same-shaped models into one whose params carry a
    leading member axis (see ``nets``); its ``log_odds`` has one row per member.
    """

    params: MlpParams
    feat_mean: np.ndarray
    feat_std: np.ndarray
    metadata: dict

    @staticmethod
    def stack(models: list["MlpModel"]) -> "MlpModel":
        return MlpModel(
            params=MlpParams.stack([m.params for m in models]),
            feat_mean=np.stack([m.feat_mean for m in models])[:, None, :],
            feat_std=np.stack([m.feat_std for m in models])[:, None, :],
            metadata={},
        )

    @property
    def dim(self) -> int:
        return self.params.weights[0].shape[-2]

    def _standardize(self, ws: np.ndarray) -> np.ndarray:
        return (ws - self.feat_mean) / self.feat_std

    def log_odds(self, ws: np.ndarray) -> np.ndarray:
        ws = _check_features(ws, self.dim)
        return mlp_forward(self.params, self._standardize(ws))[..., 0]

    def predict_proba(self, ws: np.ndarray) -> np.ndarray:
        return sigmoid(self.log_odds(ws))


def _bce_losses(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Binary cross-entropy in logits, softplus(z) - y*z, averaged over the last axis."""
    return np.mean(np.logaddexp(0.0, z) - labels * z, axis=-1)


def _bce_loss_and_grad(params: MlpParams, inputs: np.ndarray, labels: np.ndarray, buffers=None):
    acts, grads = (None, None) if buffers is None else buffers
    cache: list = []
    z = mlp_forward(params, inputs, cache, acts)[..., 0]
    gz = ((sigmoid(z) - labels) / labels.shape[-1])[..., None]
    gw, gb, _ = mlp_backward(params, cache, gz, grads, input_grad=False)
    return _bce_losses(z, labels), gw, gb


def _bce_loss(params: MlpParams, inputs: np.ndarray, labels: np.ndarray) -> float:
    return float(_bce_losses(mlp_forward(params, inputs)[..., 0], labels))


def _unflatten(flat: np.ndarray, shapes: list[tuple]) -> MlpParams:
    """Stacked params viewing consecutive columns of ``flat`` (members, size);
    ``shapes`` are one member's weight and bias shapes, interleaved."""
    arrays, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(flat[:, start : start + size].reshape(len(flat), *shape))
        start += size
    return MlpParams(arrays[0::2], arrays[1::2])


def _first_failing(ok: np.ndarray) -> int | None:
    return None if ok.all() else int(np.argmin(ok))


def _fit_lockstep(datasets: list[LabeledPairDataset], cfg: MlpConfig, streams: list[RngStream]) -> list[MlpModel]:
    """Train one network per dataset, all members in one minibatch Adam loop.

    Every member draws its initialization, holdout split and per-epoch
    shuffles from its own stream and stops early on its own holdout loss, so
    member h is bit for bit the net that training on ``datasets[h]`` alone
    gives.  Members that stop are dropped from the stacked arrays.  The
    datasets must share one shape; members that share one feature matrix (a
    label-permutation null) gather their batches from it.  Divergence
    (non-finite loss or parameters) raises ``TrainingError`` naming the
    member and the epoch.
    """
    n_members = len(datasets)
    if len(streams) != n_members:
        raise ConfigurationError(f"got {len(streams)} streams for {n_members} datasets")
    if n_members == 0:
        return []
    first = datasets[0]
    for data in datasets:
        if data.n_class0 < 1 or data.n_class1 < 1:
            raise FitError("need at least one sample per class")
        if data.ws.shape != first.ws.shape:
            raise ConfigurationError(f"ensemble datasets differ in shape: {data.ws.shape} vs {first.ws.shape}")
    n, dim = first.n, first.dim

    shared = all(data.ws is first.ws for data in datasets)
    sources = [first] if shared else datasets
    feat_mean = [data.ws.mean(axis=0) for data in sources]
    feat_std = [np.where(s < 1e-12, 1.0, s) for s in (data.ws.std(axis=0) for data in sources)]
    feats = np.concatenate([(d.ws - mu) / sd for d, mu, sd in zip(sources, feat_mean, feat_std)])
    offsets = np.zeros((n_members, 1), dtype=np.int64) if shared else n * np.arange(n_members)[:, None]
    labels = np.stack([data.labels for data in datasets]).astype(np.float64)

    hidden = cfg.hidden_sizes if cfg.hidden_sizes is not None else (cfg.hidden_mult * dim,) * 2
    inits = [mlp_init([dim, *hidden, 1], s.child("init")).flat() for s in streams]
    shapes = [np.atleast_2d(a).shape for a in inits[0]]
    # All parameters of a member in one row, so Adam, the best-epoch copy and
    # the finiteness check each touch one array.
    flat = np.stack([np.concatenate([a.ravel() for a in arrays]) for arrays in inits])

    n_val = int(round(cfg.holdout_frac * n))
    use_val = 1 <= n_val <= n - 2
    n_val = n_val if use_val else 0
    perms = np.stack([s.child("holdout").generator().permutation(n) for s in streams])
    val_idx, tr_idx = perms[:, :n_val], perms[:, n_val:]
    n_tr = n - n_val
    tr_rows, tr_labels = tr_idx + offsets, np.take_along_axis(labels, tr_idx, axis=1)
    x_val, y_val = feats[val_idx + offsets], np.take_along_axis(labels, val_idx, axis=1)
    shufflers = [s.child("shuffle").generator() for s in streams]

    # Per-member state is indexed by the member; the stacked arrays hold only
    # the members still training, in the order of ``active``.
    active = np.arange(n_members)
    opt = Adam([flat], lr=cfg.learning_rate)
    params, best = _unflatten(flat, shapes), flat.copy()
    best_val = np.full(n_members, np.inf)
    best_epoch = np.zeros(n_members, dtype=np.int64)
    since_best = np.zeros(n_members, dtype=np.int64)
    epochs_run = np.full(n_members, cfg.max_epochs)
    last_loss = np.full(n_members, np.nan)
    x_epoch = np.empty((n_members, n_tr, dim))
    # step buffers, allocated once: fresh arrays of this size cost more in
    # page faults than the arithmetic; views of the first members and rows
    # serve a compacted stack and a short last batch
    rows = min(cfg.batch_size, n_tr)
    acts = [np.empty((n_members, rows, w.shape[-1])) for w in params.weights]
    # no input grad: the first layer's input needs no buffer
    grad_in = [None, *(np.empty((n_members, rows, w.shape[-2])) for w in params.weights[1:])]
    grad = np.empty_like(flat)
    grads = _unflatten(grad, shapes)
    for epoch in range(cfg.max_epochs):
        order = np.stack([shufflers[h].permutation(n_tr) for h in active])
        xs = np.take(feats, np.take_along_axis(tr_rows, order, axis=1), axis=0, out=x_epoch[: len(active)], mode="clip")
        ys = np.take_along_axis(tr_labels, order, axis=1)
        for start in range(0, n_tr, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            xb, yb = xs[:, batch], ys[:, batch]
            k, b = yb.shape
            out = [a[:k, :b] for a in acts], (grads.weights, grads.biases, [g if g is None else g[:k, :b] for g in grad_in])
            loss, _, _ = _bce_loss_and_grad(params, xb, yb, out)
            bad = _first_failing(np.isfinite(loss))
            if bad is not None:
                h = active[bad]
                raise TrainingError(
                    f"member {h}: loss diverged at epoch {epoch} (loss={loss[bad]}); "
                    f"last finite loss {last_loss[h]}"
                )
            opt.step([grad[:k]])
            last_loss[active] = loss
        bad = _first_failing(np.isfinite(flat).all(axis=1))
        if bad is not None:
            raise TrainingError(f"member {active[bad]}: parameters diverged at epoch {epoch}")
        if not use_val:
            continue
        val_loss = _bce_losses(mlp_forward(params, x_val)[..., 0], y_val)
        improved = val_loss < best_val[active]
        better = active[improved]
        best_val[better] = val_loss[improved]
        best_epoch[better] = epoch + 1
        best[better] = flat[improved]
        since_best[active] = np.where(improved, 0, since_best[active] + 1)
        stop = since_best[active] >= cfg.patience
        if stop.any():
            epochs_run[active[stop]] = epoch + 1
            keep = ~stop
            active = active[keep]
            if len(active) == 0:
                break
            (flat,) = opt.take(keep)
            params, grads = _unflatten(flat, shapes), _unflatten(grad[: len(active)], shapes)
            tr_rows, tr_labels, x_val, y_val = tr_rows[keep], tr_labels[keep], x_val[keep], y_val[keep]

    final = _unflatten(best if use_val else flat, shapes)
    metadata = {"hidden_sizes": tuple(int(h) for h in hidden), "n_train": n_tr}
    return [
        MlpModel(
            params=MlpParams([w[h] for w in final.weights], [b[h, 0] for b in final.biases]),
            feat_mean=feat_mean[0 if shared else h],
            feat_std=feat_std[0 if shared else h],
            metadata={
                **metadata,
                "epochs_run": int(epochs_run[h]),
                "best_epoch": int(best_epoch[h] if use_val else epochs_run[h]),
                "final_train_loss": float(last_loss[h]),
                "holdout_loss": float(best_val[h]) if use_val else None,
            },
        )
        for h in range(n_members)
    ]


def mlp_fit(data: LabeledPairDataset, cfg: MlpConfig | None = None, stream: RngStream | None = None) -> MlpModel:
    """Train the rectifier network on a balanced labeled dataset.

    Deterministic given ``stream``: initialization, the holdout split, and the
    per-epoch shuffles all derive from it.  This is the one-member case of
    the lockstep ensemble trainer; divergence raises ``TrainingError``
    naming member 0 and the epoch.
    """
    return _fit_lockstep([data], cfg or MlpConfig(), [stream or RngStream(seed=0)])[0]


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
# Fitters (uniform fit interface for the test procedures): ``fit(data, stream)``
# fits one classifier, ``fit.ensemble(members, streams)`` a null ensemble from
# a null construction's member description (see ``c2st.Relabeled``)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QdaFitter:
    """QDA fit ``(data, stream) -> QdaModel``; QDA ignores the stream."""

    ridge: float | None = None

    def __call__(self, data: LabeledPairDataset, stream: RngStream) -> QdaModel:
        return qda_fit(data, ridge=self.ridge)

    def ensemble(self, members, streams: Iterable[RngStream]) -> QdaStack:
        """Every member in one stacked fit from ``members.class_moments()``
        (see :func:`qda_fit_moments`), with no member dataset or QdaModel
        built; ``QdaStack[h]`` builds one on demand.  QDA draws nothing, so
        ``streams`` is never read."""
        return qda_fit_moments(*members.class_moments(), ridge=self.ridge)


@dataclass(frozen=True)
class MlpFitter:
    """MLP fit ``(data, stream) -> MlpModel`` with a fixed config."""

    cfg: MlpConfig = field(default_factory=MlpConfig)

    def __call__(self, data: LabeledPairDataset, stream: RngStream) -> MlpModel:
        return mlp_fit(data, self.cfg, stream)

    def ensemble(self, datasets: Iterable[LabeledPairDataset], streams: Iterable[RngStream]) -> list[MlpModel]:
        """All members trained in lockstep; member h equals ``self(datasets[h], streams[h])``.
        A null construction's member description iterates as its datasets."""
        return _fit_lockstep(list(datasets), self.cfg, list(streams))


def qda_factory(ridge: float | None = None) -> QdaFitter:
    return QdaFitter(ridge)


def mlp_factory(cfg: MlpConfig | None = None) -> MlpFitter:
    return MlpFitter(cfg or MlpConfig())
