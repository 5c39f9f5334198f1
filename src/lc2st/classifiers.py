"""Probabilistic binary classifiers over feature vectors.

Three families, all exposing ``predict_proba(points, given=None) -> P(C=1 | w)`` at the
rows w = [points, given], ``given`` (a local test's x_o) shared by every row:

* :func:`qda_fit` -- closed-form quadratic discriminant analysis, the Bayes
  classifier when both classes are Gaussian: the one-member case of
  :func:`qda_fit_moments`, which fits H members from their class moments.  A
  :class:`QdaModel` holds one coefficient vector over :func:`quad_features`
  per member, as one (features, members) matrix;
* :func:`analytic_bayes` -- exact class probability p/(p+q) from a pair of
  log-densities, used as an oracle in tests;
* :func:`mlp_fit` -- a small rectifier network with a sigmoid head trained by
  minibatch Adam on binary cross-entropy with early stopping: the one-member
  case of a lockstep fit, which trains a null ensemble's nets as one
  :class:`MlpModel` of H members, every member in the same Adam loop.
  Training runs in float32, scoring in float64.

Each family has one model type whose fitted classifier is its one-member
case.  A fitter's ``ensemble`` returns an H-member model, which scores
itself: ``model.log_odds(points, given)`` gives the (rows, members) log-odds
of every member, and ``model[h]`` is member h as a one-member model.
``predict_proba`` (and an MLP's ``metadata``) read one-member models only.

The decision rule everywhere is ``predict 1 iff d > 1/2``: exact ties go to
class 0, which makes accuracy statistics deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .core import (
    ConfigurationError,
    DataFormatError,
    FitError,
    LabeledPairDataset,
    RngStream,
    UndefinedPointError,
    check_count,
    check_real,
)
from .nets import MlpParams, grad_check, mlp_backward, mlp_buffers, mlp_forward, mlp_grad_buffers, mlp_init, row_views
from .nets import sigmoid, train_minibatch, with_ones

__all__ = [
    "append_conditioning",
    "quad_features",
    "QdaModel",
    "qda_coefficients",
    "qda_fit",
    "qda_fit_moments",
    "AnalyticBayesClassifier",
    "analytic_bayes",
    "MlpConfig",
    "MlpModel",
    "mlp_fit",
    "mlp_grad_check",
    "save_classifier",
    "load_classifier",
    "QdaFitter",
    "MlpFitter",
    "qda_factory",
    "mlp_factory",
]


def append_conditioning(points: np.ndarray, x_o: np.ndarray | None) -> np.ndarray:
    """Feature rows for classifier queries: points, or (points ++ x_o)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if x_o is None:
        return points
    x_o = np.asarray(x_o, dtype=np.float64).ravel()
    return np.hstack([points, np.broadcast_to(x_o, (points.shape[0], x_o.shape[0]))])


def _check_features(points: np.ndarray, given: np.ndarray | None, dim: int) -> tuple[np.ndarray, np.ndarray]:
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    given = np.zeros(0) if given is None else np.asarray(given, dtype=np.float64).ravel()
    if points.shape[1] + len(given) != dim:
        raise ConfigurationError(f"expected feature dimension {dim}, got {points.shape[1]} point and {len(given)} given columns")
    return points, given


def _one_member(model, what: str, hint: str) -> None:
    """Raise ``ConfigurationError`` naming the member count unless the QdaModel or MlpModel has one member."""
    if len(model) != 1:
        raise ConfigurationError(f"{what} one member, this model has {len(model)}; {hint}")


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


def _cholesky_inverse(chols: np.ndarray) -> np.ndarray:
    """L^-1 of a (..., d, d) stack of lower triangular L = D U, D diagonal:
    U^-1 by forward substitution over its rows, then L^-1 = U^-1 D^-1."""
    pivots = np.diagonal(chols, axis1=-2, axis2=-1)
    unit, inv = chols / pivots[..., :, None], np.broadcast_to(np.eye(chols.shape[-1]), chols.shape).copy()
    for i in range(1, chols.shape[-1]):
        inv[..., i, :i] = -np.einsum("...k,...kj->...j", unit[..., i, :i], inv[..., :i, :i])
    return inv / pivots[..., None, :]


def qda_coefficients(means: np.ndarray, covs: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """(F, H) log-odds coefficients of H QDA members over :func:`quad_features`,
    from their (H, 2, d) class means, (H, 2, d, d) covariances and (H, 2) priors.

    With precisions P_k, the log-odds is w'Aw + b'w + c for A = -(P1 - P0)/2,
    b = P1 mu1 - P0 mu0 and c from the means, log-determinants and priors;
    a column is [upper triangle of A, off-diagonals doubled; b; c].  One
    batched Cholesky, inverted by substitution, serves every member; a
    covariance that is not positive definite raises ``FitError``.
    """
    try:
        chols = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"class covariance is not positive definite: {exc}") from exc
    inv_chols = _cholesky_inverse(chols)
    prec = np.swapaxes(inv_chols, -1, -2) @ inv_chols
    logdet = 2.0 * np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)
    lin = (prec @ means[..., None])[..., 0]
    mu_lin = (means[..., None, :] @ lin[..., None])[..., 0, 0]
    const = -0.5 * (mu_lin[:, 1] - mu_lin[:, 0] + logdet[:, 1] - logdet[:, 0]) + np.log(priors[:, 1]) - np.log(priors[:, 0])
    quad = -0.5 * (prec[:, 1] - prec[:, 0])
    sym, diag = quad + np.swapaxes(quad, -1, -2), np.arange(means.shape[-1])
    sym[:, diag, diag] = quad[:, diag, diag]
    return np.vstack([*(sym[:, i, i:].T for i in diag), (lin[:, 1] - lin[:, 0]).T, const])


@functools.cache
def _given_fold(m: int, dim: int) -> tuple[np.ndarray, tuple]:
    """The 0/1 (F_m, F) matrix that takes each :func:`quad_features` column
    of [z, x], z of m columns, to the column of z whose multiple it is, and
    the (i, j) pairs of its quadratic columns."""
    i, j = np.triu_indices(dim)
    term = m * (m + 1) // 2 + np.minimum(np.arange(dim + 1), m)  # z_i's linear term, or the constant for i >= m
    targets = np.concatenate([np.where(j < m, np.cumsum(j < m) - 1, term[i]), term])
    return (np.arange(term[-1] + 1)[:, None] == targets).astype(np.float64), (i, j)


@dataclass(frozen=True)
class QdaModel:
    """H Gaussian class-conditional classifiers: (H, 2, d) class ``means``,
    (H, 2, d, d) ``covs``, (H, 2) ``priors`` and their (F, H)
    :func:`qda_coefficients` ``coef``.  A fitted classifier has one member, a
    null ensemble one per null member.  ``log_odds`` scores every member,
    ``predict_proba`` is its one-member case and ``model[h]`` is member h as
    a one-member model.  Shapes that do not match, and priors outside (0, 1)
    or not summing to one, raise ``ConfigurationError``."""

    means: np.ndarray
    covs: np.ndarray
    priors: np.ndarray
    coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            means, covs, priors = (np.asarray(a, dtype=np.float64) for a in (self.means, self.covs, self.priors))
        except ValueError as exc:
            raise ConfigurationError(f"QDA means, covariances and priors must be regular arrays: {exc}") from None
        if means.ndim != 3 or means.shape[1] != 2 or covs.shape != means.shape + means.shape[-1:] or priors.shape != means.shape[:2]:
            raise ConfigurationError(
                f"QDA shapes must be (H, 2, d), (H, 2, d, d) and (H, 2): got means {means.shape}, covs {covs.shape}, priors {priors.shape}"
            )
        valid = np.all((priors > 0) & (priors < 1), axis=1) & (np.abs(priors.sum(axis=1) - 1.0) <= 1e-8)
        if not valid.all():
            h = int(np.argmin(valid))
            raise ConfigurationError(f"class priors must lie in (0, 1) and sum to one, member {h} has {priors[h].tolist()}")
        for name, value in (("means", means), ("covs", covs), ("priors", priors), ("coef", qda_coefficients(means, covs, priors))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.means.shape[-1]

    def __len__(self) -> int:
        return len(self.means)

    def __getitem__(self, h: int) -> QdaModel:
        return QdaModel(self.means[h][None], self.covs[h][None], self.priors[h][None])

    def log_odds(self, points: np.ndarray, given: np.ndarray | None = None, out: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
        """(rows, H) log-odds of every member at the rows [points, given],
        times ``scale`` (exact for a power of two), into ``out`` if given.
        One (F_m, F) matrix from ``given`` maps ``coef`` onto
        :func:`quad_features` of the m point columns z alone: z_i z_j keeps
        its coefficient, z_i x_j's joins z_i's times x_j, and the x x, x and
        constant terms fold into the constant.  Then one product per block
        of ``BLOCK_ROWS`` rows."""
        points, given = _check_features(points, given, self.dim)
        fold, (i, j) = _given_fold(points.shape[1], self.dim)
        v = np.concatenate([np.ones(points.shape[1]), given])
        coef = fold @ (np.concatenate([v[i] * v[j], v, [1.0]])[:, None] * self.coef)
        coef *= scale
        out = np.empty((len(points), len(self))) if out is None else out
        for rows in row_slices(len(points)):
            np.matmul(quad_features(points[rows]), coef, out=out[rows])
        return out

    def predict_proba(self, points: np.ndarray, given: np.ndarray | None = None) -> np.ndarray:
        """P(C=1 | w) at the rows w = [points, given] of a one-member model."""
        _one_member(self, "QDA predict_proba scores", "use log_odds")
        return sigmoid(self.log_odds(points, given)[:, 0])


def qda_fit(data: LabeledPairDataset, ridge: float | None = None) -> QdaModel:
    """Fit QDA by the per-class sample mean and covariance: the one-member
    case of :func:`qda_fit_moments`, each class's sum and scatter taken about
    the mean of all rows, from products with no class copies: class 1's
    (w y) w' and class 0's w w' less class 1's, w the centred rows (as
    columns) over a ones row and y the 0/1 labels.

    ``ridge * I`` is added to each covariance; the default ridge is
    ``1e-6 * trace(cov) / dim``, enough to survive nearly-degenerate
    calibration sets without moving well-conditioned fits.
    """
    (n, dim), n1 = data.ws.shape, data.n_class1
    centre = np.ones(n) @ data.ws / max(n, 1)  # an empty set fails the class-size check
    w = np.empty((dim + 1, n))
    np.subtract(data.ws.T, centre[:, None], out=w[:dim])
    w[dim] = 1.0
    class1 = (w[:dim] * data.labels.astype(np.float64)) @ w.T
    moments = np.array([[w[:dim] @ w.T - class1, class1]])
    return qda_fit_moments(np.array([[n - n1, n1]]), centre, moments[..., dim], moments[..., :dim], ridge)


def qda_fit_moments(counts, centre, sums, scatters, ridge: float | None = None) -> QdaModel:
    """Fit H QDA members at once from their class moments about ``centre``.

    ``counts`` (H, 2) are the class sizes, ``sums`` (H, 2, d) and
    ``scatters`` (H, 2, d, d) the sums of w - centre and of its outer
    products over each class's rows.  Each class's mean and sample covariance
    (divisor n - 1) follow, plus ``ridge * I`` as :func:`qda_fit` describes.
    A class with fewer than d + 1 rows raises ``FitError``, a negative ridge
    ``ConfigurationError``.
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
    return QdaModel(means, covs, counts / counts.sum(axis=1, keepdims=True))


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

    def predict_proba(self, points: np.ndarray, given: np.ndarray | None = None) -> np.ndarray:
        ws = append_conditioning(points, given)
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
            check_count(f"MlpConfig.{name}", getattr(self, name), 1)
        if self.hidden_sizes is not None:
            if not isinstance(self.hidden_sizes, (list, tuple)):
                raise ConfigurationError(f"MlpConfig.hidden_sizes must be a sequence of integers >= 1, got {self.hidden_sizes!r}")
            object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        for h in self.hidden_sizes or ():
            check_count("MlpConfig.hidden_sizes entry", h, 1)
        check_real("MlpConfig.learning_rate", self.learning_rate, "positive", lambda v: v > 0)
        check_real("MlpConfig.holdout_frac", self.holdout_frac, "in [0, 1)", lambda v: 0 <= v < 1)


# Elements in one hidden activation of a block of stacked members: 1 MB of
# float64, so models of more members are scored a chunk at a time.  Bigger
# temporaries cost more in page faults than they save in calls.
_MLP_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class MlpModel:
    """H networks trained together: their (H, P) parameter rows ``flat``
    (float64), one member's folded layer ``shapes`` ((fan_in + 1, fan_out)), the input
    standardization ``feat_mean`` and ``feat_std`` ((1, d) when every member
    trained on one feature matrix, else (H, d)) and each member's training
    record in ``records``.  A fitted classifier has one member, a null
    ensemble one per null member.  ``log_odds`` scores chunks of members as
    views of ``flat``, ``predict_proba`` and ``metadata`` are its one-member
    cases, and ``model[h]`` is member h as a one-member model over views."""

    flat: np.ndarray
    shapes: list[tuple]
    feat_mean: np.ndarray
    feat_std: np.ndarray
    records: list[dict]
    params: MlpParams = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MlpParams(row_views(self.flat, self.shapes)))

    @property
    def dim(self) -> int:
        return self.shapes[0][0] - 1

    @property
    def metadata(self) -> dict:
        """The training record of a one-member model."""
        _one_member(self, "metadata describes", "read model[h].metadata")
        return self.records[0]

    def __len__(self) -> int:
        return len(self.flat)

    def __getitem__(self, h: int) -> MlpModel:
        s = 0 if len(self.feat_mean) == 1 else h
        return MlpModel(self.flat[h][None], self.shapes, self.feat_mean[s][None], self.feat_std[s][None], [self.records[h]])

    def log_odds(self, points: np.ndarray, given: np.ndarray | None = None, out: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
        """(rows, H) log-odds of every member at the rows [points, given],
        times ``scale`` (in the output layer: exact for a power of two),
        written into ``out`` if given.  The standardized ``given`` u folds
        into each member's first layer, [W_z; W_x; b] -> [W_z; b + u W_x]
        (u per member when standardization is), so the nets read the point
        columns alone.  One forward pass per chunk of members whose widest
        activation over ``BLOCK_ROWS`` rows fits ``_MLP_CHUNK_ELEMENTS``."""
        mean, std, layers = self.feat_mean, self.feat_std, list(self.params.layers)
        points, given = _check_features(points, given, mean.shape[1])
        m, first = points.shape[1], layers[0]
        layers[0] = np.concatenate([first[:, :m], first[:, -1:] + ((given - mean[:, m:]) / std[:, m:])[:, None] @ first[:, m:-1]], axis=1)
        layers[-1] = layers[-1] * scale
        standardized = lambda s: with_ones((points - mean[s, None, :m]) / std[s, None, :m])  # noqa: E731
        shared = standardized(slice(None)) if len(mean) == 1 else None
        size = max(1, _MLP_CHUNK_ELEMENTS // (BLOCK_ROWS * max(shape[-1] for shape in self.shapes)))
        out = np.empty((len(points), len(self))) if out is None else out
        for start in range(0, len(self), size):
            part = slice(start, start + size)
            out[:, part] = mlp_forward(MlpParams([a[part] for a in layers]), standardized(part) if shared is None else shared)[..., 0].T
        return out

    def predict_proba(self, points: np.ndarray, given: np.ndarray | None = None) -> np.ndarray:
        """P(C=1 | w) at the rows w = [points, given] of a one-member model."""
        _one_member(self, "MLP predict_proba scores", "use log_odds")
        return sigmoid(self.log_odds(points, given)[:, 0])


def _bce_losses(z: np.ndarray, labels: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Binary cross-entropy in logits, max(z, 0) + log1p(e) - y*z with e =
    exp(-|z|) (which a batch's gradient sigmoid shares), averaged over the last axis."""
    e = np.exp(np.minimum(z, -z)) if e is None else e
    return np.mean(np.maximum(z, 0.0) + np.log1p(e) - labels * z, axis=-1)


def _bce_loss_and_grad(params: MlpParams, inputs: np.ndarray, labels: np.ndarray, acts=None, grads=None):
    cache: list = []
    z = mlp_forward(params, inputs, cache, acts)[..., 0]
    e = np.exp(np.minimum(z, -z))
    gz = ((sigmoid(z, e) - labels) / labels.shape[-1])[..., None]
    return _bce_losses(z, labels, e), mlp_backward(params, cache, gz, grads, input_grad=False)[0]


def _fit_lockstep(datasets: list[LabeledPairDataset], cfg: MlpConfig, streams: list[RngStream]) -> MlpModel | list:
    """Train one network per dataset, all as one H-member :class:`MlpModel`
    in ``nets.train_minibatch`` (an empty list for no datasets).

    Every member draws its initialization, holdout split and shuffles from
    its own stream and stops early on its own holdout loss, so member h is
    bit for bit the net that training on ``datasets[h]`` alone gives.  The
    datasets must share one shape; members that share one feature matrix (a
    label-permutation null) gather their batches from it.  Divergence (a
    non-finite loss, checked every step, or parameter, checked every epoch)
    raises ``TrainingError`` naming the member and the epoch.  Training runs
    in float32 (feature table, labels, parameters and their gradients, Adam),
    and the trained rows are cast to float64 once, so the model scores in float64.
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
    # the table's ones column is every first layer's bias input
    feats = with_ones(np.concatenate([(d.ws - mu) / sd for d, mu, sd in zip(sources, feat_mean, feat_std)])).astype(np.float32)
    offsets = np.zeros((n_members, 1), dtype=np.int64) if shared else n * np.arange(n_members)[:, None]
    labels = np.stack([data.labels for data in datasets]).astype(np.float32)

    hidden = cfg.hidden_sizes if cfg.hidden_sizes is not None else (cfg.hidden_mult * dim,) * 2
    inits = [mlp_init([dim, *hidden, 1], s.child("init")).layers for s in streams]
    shapes = [a.shape for a in inits[0]]
    # All parameters of a member in one row, so Adam, the best-epoch copy and
    # the finiteness check each touch one array; its folded layers, and their
    # gradients in the rows of ``grad``, are views.
    flat = np.stack([np.concatenate([a.ravel() for a in arrays]) for arrays in inits]).astype(np.float32)

    grad = np.empty_like(flat)
    params, grads = MlpParams(row_views(flat, shapes)), row_views(grad, shapes)
    # step buffers, allocated once: fresh arrays of this size cost more in
    # page faults than the arithmetic; views of the first members and rows
    # serve a compacted stack and a short last batch
    size = min(cfg.batch_size, n)
    acts = mlp_buffers(params, (n_members, size))
    grads_in, masks = mlp_grad_buffers(params, (n_members, size))

    def batch_loss(xb, yb):
        k, b = yb.shape
        rows = lambda bufs: [a[:k, :b] for a in bufs]  # noqa: E731
        out = rows(acts), (grads, rows(grads_in), rows(masks))
        return _bce_loss_and_grad(params, xb, yb, *out)[0], grad[:k]

    def take(kept):
        nonlocal params, grads
        params, grads = MlpParams(row_views(kept, shapes)), row_views(grad[: len(kept)], shapes)

    val_acts = []  # the holdout rows' buffers, allocated at the first epoch

    def holdout_loss(xs, ys):
        val_acts[:] = val_acts or mlp_buffers(params, xs.shape[:2])
        return _bce_losses(mlp_forward(params, xs, out=[a[: len(xs)] for a in val_acts])[..., 0], ys)

    fit = train_minibatch(flat, feats, np.arange(n) + offsets, labels, cfg, streams, batch_loss, holdout_loss, take)
    sizes = tuple(int(h) for h in hidden)
    records = [
        {
            "hidden_sizes": sizes,
            "n_train": fit.n_train,
            "epochs_run": int(fit.epochs_run[h]),
            "best_epoch": int(fit.best_epoch[h]),
            "final_train_loss": float(fit.last_loss[h]),
            "holdout_loss": float(fit.best_loss[h]) if fit.n_holdout else None,
        }
        for h in range(n_members)
    ]
    return MlpModel(fit.params.astype(np.float64), shapes, np.stack(feat_mean), np.stack(feat_std), records)


def mlp_fit(data: LabeledPairDataset, cfg: MlpConfig | None = None, stream: RngStream | None = None) -> MlpModel:
    """Train the rectifier network on a balanced labeled dataset: the one-member
    :class:`MlpModel` of :func:`_fit_lockstep`, deterministic given ``stream``.
    Divergence (a non-finite loss, checked every step, or parameter, checked
    every epoch) raises ``TrainingError`` naming member 0 and the epoch."""
    return _fit_lockstep([data], cfg or MlpConfig(), [stream or RngStream(seed=0)])


def mlp_grad_check(model: MlpModel, ws: np.ndarray, labels: np.ndarray, step: float = 1e-5) -> float:
    """Max relative disagreement (``nets.grad_check``) between backprop and
    central finite differences of a one-member model's batch cross-entropy.  Finite
    differences assume the loss is smooth within ``step`` of each coordinate,
    so callers should keep rectifier pre-activations away from zero."""
    _one_member(model, "the gradient check takes", "check model[h]")
    ws, _ = _check_features(ws, None, model.dim)
    if len(ws) == 0:
        raise ConfigurationError("gradient check needs a nonempty batch")
    labels = np.asarray(labels, dtype=np.float64).ravel()
    inputs, params = with_ones((ws - model.feat_mean) / model.feat_std), model.params
    _, grads = _bce_loss_and_grad(params, inputs, labels)
    loss = lambda: float(_bce_losses(mlp_forward(params, inputs)[..., 0], labels)[0])  # noqa: E731
    return grad_check(params.layers, grads, loss, step)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


_QDA_KEYS = ("mu0", "mu1", "cov0", "cov1", "prior0", "prior1")


def save_classifier(clf, path) -> None:
    """Serialize a fitted one-member QDA or MLP model as JSON (shapes are
    implicit in the nested row-major arrays; floats use the shortest
    round-trip decimals).  A QDA model is written as its two class means,
    covariances and priors, an MLP's layers as separate weights and biases.
    A model of more members raises ``ConfigurationError``."""
    import json
    from pathlib import Path

    if not isinstance(clf, (QdaModel, MlpModel)):
        raise ConfigurationError(f"cannot serialize classifier of type {type(clf).__name__}")
    _one_member(clf, "a checkpoint holds", "save model[h]")
    if isinstance(clf, QdaModel):
        values = [*clf.means[0].tolist(), *clf.covs[0].tolist(), *clf.priors[0].tolist()]
        payload = {"kind": "qda", **dict(zip(_QDA_KEYS, values))}
    else:
        payload = {
            "kind": "mlp",
            "weights": [w[0].tolist() for w in clf.params.weights],
            "biases": [b[0].tolist() for b in clf.params.biases],
            "feat_mean": clf.feat_mean[0].tolist(),
            "feat_std": clf.feat_std[0].tolist(),
            "metadata": {k: v for k, v in clf.metadata.items() if not isinstance(v, np.ndarray)},
        }
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_classifier(path):
    """Restore a classifier written by :func:`save_classifier`; a missing key
    raises ``DataFormatError`` naming the file and the key."""
    import json
    from pathlib import Path

    with Path(path).open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload.get("kind")
    try:
        if kind == "qda":
            mu0, mu1, cov0, cov1, prior0, prior1 = (payload[key] for key in _QDA_KEYS)
            return QdaModel([[mu0, mu1]], [[cov0, cov1]], [[prior0, prior1]])
        if kind == "mlp":
            layers = MlpParams.from_split(payload["weights"], payload["biases"]).layers
            mean, std = (np.asarray(payload[key], dtype=np.float64)[None] for key in ("feat_mean", "feat_std"))
            return MlpModel(np.concatenate([a.ravel() for a in layers])[None], [a.shape for a in layers], mean, std, [payload.get("metadata", {})])
    except KeyError as exc:
        raise DataFormatError(f"classifier checkpoint {str(path)!r} lacks key {exc.args[0]!r}") from None
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

    def __post_init__(self) -> None:
        if self.ridge is not None:
            check_real("QdaFitter.ridge", self.ridge, "nonnegative", lambda v: v >= 0)

    def __call__(self, data: LabeledPairDataset, stream: RngStream) -> QdaModel:
        return qda_fit(data, ridge=self.ridge)

    def ensemble(self, members, streams: Iterable[RngStream]) -> QdaModel:
        """Every member in one fit from ``members.class_moments()`` (see
        :func:`qda_fit_moments`) into one H-member QdaModel, with no member
        dataset built.  QDA draws nothing, so ``streams`` is never read."""
        return qda_fit_moments(*members.class_moments(), ridge=self.ridge)


@dataclass(frozen=True)
class MlpFitter:
    """MLP fit ``(data, stream) -> MlpModel`` with a fixed config."""

    cfg: MlpConfig = field(default_factory=MlpConfig)

    def __call__(self, data: LabeledPairDataset, stream: RngStream) -> MlpModel:
        return mlp_fit(data, self.cfg, stream)

    def ensemble(self, datasets: Iterable[LabeledPairDataset], streams: Iterable[RngStream]) -> MlpModel | list:
        """All members trained in lockstep as one H-member :class:`MlpModel`;
        member h equals ``self(datasets[h], streams[h])``.  A null construction's
        member description iterates as its datasets."""
        return _fit_lockstep(list(datasets), self.cfg, list(streams))


def qda_factory(ridge: float | None = None) -> QdaFitter:
    return QdaFitter(ridge)


def mlp_factory(cfg: MlpConfig | None = None) -> MlpFitter:
    return MlpFitter(cfg or MlpConfig())
