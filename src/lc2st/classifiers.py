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
  case of a lockstep fit, which trains a null ensemble's nets into one
  :class:`MlpModel` of H members, a chunk of members per Adam loop, from a
  feature table (or a chunk's tables, drawn as it starts) and label rows.
  Training runs in float32, scoring in float64.

Each family has one model type whose fitted classifier is its one-member
case.  A fitter's ``ensemble`` reads a null's member description for
arrays, never member datasets (QDA its class moments, an MLP its feature
table and label rows), and returns an H-member model, which scores itself:
``model.blocks(points, given)`` folds ``given`` (a test's x_o) into the
coefficients once and yields every member's log-odds block by block,
``log_odds`` joins them, and ``model[h]`` is member h as a one-member model.
``predict_proba`` (and an MLP's ``metadata``) read one-member models only.

The decision rule everywhere is ``predict 1 iff d > 1/2``: exact ties go to
class 0, which makes accuracy statistics deterministic.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
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
from .nets import fold, grad_check, mlp_backward, mlp_buffers, mlp_forward, mlp_grad_buffers, mlp_init, row_views
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


# Rows per scoring block: a block's features and a 101-member ensemble's
# log-odds stay under 1 MB, so scoring never allocates multi-MB temporaries.
BLOCK_ROWS = 1024


def row_slices(n: int):
    """Slices covering ``range(n)`` in blocks of at most ``BLOCK_ROWS`` rows."""
    return (slice(start, start + BLOCK_ROWS) for start in range(0, n, BLOCK_ROWS))


class _Scoring:
    """The scoring loop of both model families: a family's ``_scorer(m,
    given, scale)`` folds ``given`` and ``scale`` into its coefficients once
    per call and returns the scorer of blocks of m point columns."""

    def blocks(self, points: np.ndarray, given: np.ndarray | None = None, scale: float = 1.0):
        """(rows, log-odds times ``scale``) of every member per block of
        ``BLOCK_ROWS`` rows of [points, given], the log-odds a view of one
        (BLOCK_ROWS, H) buffer that the next block overwrites."""
        points, given = _check_features(points, given, self.dim)
        score, buffer = self._scorer(points.shape[1], given, scale), np.empty((min(len(points), BLOCK_ROWS), len(self)))
        return ((rows, score(points[rows], buffer)) for rows in row_slices(len(points)))

    def log_odds(self, points: np.ndarray, given: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
        """(rows, H) log-odds of every member at the rows [points, given], times
        ``scale`` (exact for a power of two): the :meth:`blocks`, concatenated."""
        blocks, out = self.blocks(points, given, scale), np.empty((len(np.atleast_2d(points)), len(self)))
        for rows, block in blocks:
            out[rows] = block
        return out


# ---------------------------------------------------------------------------
# Quadratic discriminant analysis
# ---------------------------------------------------------------------------


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
class QdaModel(_Scoring):
    """H Gaussian class-conditional classifiers: (H, 2, d) class ``means``,
    (H, 2, d, d) ``covs``, (H, 2) ``priors`` and their (F, H)
    :func:`qda_coefficients` ``coef``.  A fitted classifier has one member, a
    null ensemble one per null member.  ``blocks`` and ``log_odds`` score
    every member, ``predict_proba`` is their one-member case and ``model[h]``
    is member h as a one-member model.  Shapes that do not match, and priors
    outside (0, 1) or not summing to one, raise ``ConfigurationError``."""

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

    def _scorer(self, m: int, given: np.ndarray, scale: float):
        """One (F_m, F) matrix from ``given`` maps ``coef`` onto
        :func:`quad_features` of the m point columns z alone: z_i z_j keeps
        its coefficient, z_i x_j's joins z_i's times x_j, and the x x, x and
        constant terms fold into the constant.  Then one product per block."""
        fold, (i, j) = _given_fold(m, self.dim)
        v = np.concatenate([np.ones(m), given])
        coef = fold @ (np.concatenate([v[i] * v[j], v, [1.0]])[:, None] * self.coef) * scale
        return lambda block, buffer: np.matmul(quad_features(block), coef, out=buffer[: len(block)])

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


# Elements in one hidden activation of a chunk of stacked members, over a scoring
# block or a training batch: bigger models are scored, and ensembles trained, a chunk
# at a time, as bigger temporaries cost more in page faults and cache misses than calls.
_MLP_CHUNK_ELEMENTS = 1 << 17


def _member_chunk(rows: int, shapes: list[tuple]) -> int:
    """Members per chunk: as many as keep a widest activation over ``rows`` rows within ``_MLP_CHUNK_ELEMENTS``."""
    return max(1, _MLP_CHUNK_ELEMENTS // (rows * max(shape[-1] for shape in shapes)))


@dataclass(frozen=True)
class MlpModel(_Scoring):
    """H networks trained together: their (H, P) parameter rows ``flat``
    (float64), one member's folded layer ``shapes`` ((fan_in + 1, fan_out)), the input
    standardization ``feat_mean`` and ``feat_std`` ((1, d) when every member
    trained on one feature matrix, else (H, d)) and each member's training
    record in ``records``; ``layers`` are the folded (H, fan_in + 1, fan_out)
    views of ``flat``.  A fitted classifier has one member, a null ensemble
    one per null member.  ``blocks`` score chunks of members as views of
    ``flat``, ``predict_proba`` and ``metadata`` are one-member cases,
    and ``model[h]`` is member h as a one-member model over views."""

    flat: np.ndarray
    shapes: list[tuple]
    feat_mean: np.ndarray
    feat_std: np.ndarray
    records: list[dict]
    layers: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", row_views(self.flat, self.shapes))

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

    def _scorer(self, m: int, given: np.ndarray, scale: float):
        """The standardized ``given`` u folds into each member's first layer,
        [W_z; W_x; b] -> [W_z; b + u W_x] (u per member when standardization
        is), and ``scale`` into the output layer (exact for a power of two),
        so the nets read the point columns alone.  Then one forward pass per
        block and chunk of :func:`_member_chunk` members."""
        mean, std, layers, first = self.feat_mean, self.feat_std, list(self.layers), self.layers[0]
        layers[0] = np.concatenate([first[:, :m], first[:, -1:] + ((given - mean[:, m:]) / std[:, m:])[:, None] @ first[:, m:-1]], axis=1)
        layers[-1] = layers[-1] * scale
        size = _member_chunk(BLOCK_ROWS, self.shapes)
        chunks = [(slice(s, s + size), [a[s : s + size] for a in layers]) for s in range(0, len(self), size)]

        def score(block, buffer):
            out = buffer[: len(block)]
            standardized = lambda s: with_ones((block - mean[s, None, :m]) / std[s, None, :m])  # noqa: E731
            shared = standardized(slice(None)) if len(mean) == 1 else None
            for part, chunk in chunks:
                out[:, part] = mlp_forward(chunk, standardized(part) if shared is None else shared)[..., 0].T
            return out
        return score

    def predict_proba(self, points: np.ndarray, given: np.ndarray | None = None) -> np.ndarray:
        """P(C=1 | w) at the rows w = [points, given] of a one-member model."""
        _one_member(self, "MLP predict_proba scores", "use log_odds")
        return sigmoid(self.log_odds(points, given)[:, 0])


def _bce_losses(z: np.ndarray, labels: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Binary cross-entropy in logits, max(z, 0) + log1p(e) - y*z with e =
    exp(-|z|) (which a batch's gradient sigmoid shares), averaged over the last axis."""
    e = np.exp(np.minimum(z, -z)) if e is None else e
    return np.add.reduce(np.maximum(z, 0.0) + np.log1p(e) - labels * z, axis=-1) / labels.shape[-1]


def _bce_loss_and_grad(layers: list[np.ndarray], inputs: np.ndarray, labels: np.ndarray, acts=None, grads=None, record=True):
    """Per-member batch losses and layer gradients.  Unless ``record``, the
    losses are None when every |z| <= 1e30, which keeps them finite in float32
    for batches under 10^8 rows (each row's term is at most |z| + log 2)."""
    cache: list = []
    z = mlp_forward(layers, inputs, cache, acts)[..., 0]
    e = np.minimum(z, -z)
    known_finite = not record and e.min() >= -1e30  # False for a NaN
    np.exp(e, out=e)
    gz = ((sigmoid(z, e) - labels) / labels.shape[-1])[..., None]
    return None if known_finite else _bce_losses(z, labels, e), mlp_backward(layers, cache, gz, grads, input_grad=False)[0]


def _fit_lockstep(table, labels: np.ndarray, cfg: MlpConfig, streams: list[RngStream]) -> MlpModel | list:
    """Train one network per row of the (H, n) 0/1 ``labels``, all as one
    H-member :class:`MlpModel` (an empty list for no rows), in member-ordered
    chunks of as many members as keep a batch's widest activation within
    ``_MLP_CHUNK_ELEMENTS`` (one ``nets.train_minibatch`` call each).

    Members train on the (n, d) feature ``table``, standardized once, or, if
    ``table`` is a function, on their own tables: ``table(members)`` draws a
    chunk's (k, n, d) tables, for a range of members, as the chunk starts.
    Each member draws its initialization, holdout split and shuffles from
    its own stream and stops early on its own holdout loss, so member h is
    bit for bit :func:`mlp_fit` on its table and label row, in any chunk.
    Divergence (a non-finite loss, checked every step, or parameter, every
    epoch) raises ``TrainingError`` naming the epoch and the member by its
    row of ``labels``, the first to diverge in the first chunk that has one.
    Training runs in float32 (features, labels, parameters, gradients and
    Adam); the trained rows are cast to float64 once, for scoring.
    """
    n_members, n = labels.shape
    if len(streams) != n_members:
        raise ConfigurationError(f"got {len(streams)} streams for {n_members} members")
    if n_members == 0:
        return []
    if not (labels.any(axis=1) & ~labels.all(axis=1)).all():
        raise FitError("need at least one sample per class")
    draw = table if callable(table) else None
    dim = (table if draw is None else draw(range(0))).shape[-1]  # an empty draw has the tables' width

    def standardized(ws):  # each table on its own, as one float32 table of rows ending in the bias input
        mean = np.stack([w.mean(axis=0) for w in ws])
        std = np.stack([np.where(s < 1e-12, 1.0, s) for s in (w.std(axis=0) for w in ws)])
        out = np.ones((*ws.shape[:-1], dim + 1), dtype=np.float32)
        for w, rows, mu, sd in zip(ws, out, mean, std):
            rows[:, :-1] = (w - mu) / sd
        return out.reshape(-1, dim + 1), mean, std

    hidden = cfg.hidden_sizes if cfg.hidden_sizes is not None else (cfg.hidden_mult * dim,) * 2
    sizes = [dim, *hidden, 1]
    shapes = [(fan_in + 1, fan_out) for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]
    batch = min(cfg.batch_size, n)
    step = _member_chunk(batch, shapes)
    # step buffers for the largest chunk, allocated once (fresh arrays cost more in page faults than the
    # arithmetic); views of their first members and rows, made once per shape, serve the rest
    grad = np.empty((min(step, n_members), sum(a * b for a, b in shapes)), dtype=np.float32)
    like = row_views(grad, shapes)
    acts, (grads_in, masks) = mlp_buffers(like, (len(grad), batch)), mlp_grad_buffers(like, (len(grad), batch))
    views, val_acts = {}, []  # the holdout rows' buffers, allocated at the first epoch

    def batch_loss(xb, yb, last):
        k, b = yb.shape
        if (k, b) not in views:
            rows = lambda bufs: [a[:k, :b] for a in bufs]  # noqa: E731
            views[k, b] = rows(acts), (row_views(grad[:k], shapes), rows(grads_in), rows(masks))
        return _bce_loss_and_grad(layers, xb, yb, *views[k, b], record=last)[0], grad[:k]

    def take(kept):
        nonlocal layers
        layers = row_views(kept, shapes)

    def holdout_loss(xs, ys):
        val_acts[:] = val_acts or mlp_buffers(layers, xs.shape[:2])
        return _bce_losses(mlp_forward(layers, xs, out=[a[: len(xs)] for a in val_acts])[..., 0], ys)

    parts, records, means, stds, hidden_sizes = [], [], [], [], tuple(int(h) for h in hidden)
    for start in range(0, n_members, step):
        members = range(start, min(start + step, n_members))
        # All parameters of a member in one row, so Adam, the best-epoch copy
        # and the finiteness check each touch one array; its folded layers,
        # and their gradients in the rows of ``grad``, are views.
        inits = [mlp_init(sizes, streams[h].child("init")) for h in members]
        flat = np.stack([np.concatenate([a.ravel() for a in arrays]) for arrays in inits]).astype(np.float32)
        layers = row_views(flat, shapes)
        if draw or start == 0:  # a shared table is standardized once
            feats, mean, std = standardized(draw(members) if draw else table[None])
            means.append(mean), stds.append(std)
        chunk_labels, chunk_streams = labels[start : members.stop].astype(np.float32), streams[start : members.stop]
        fit = train_minibatch(flat, feats, chunk_labels, cfg, chunk_streams, batch_loss, holdout_loss, take, start)
        parts.append(fit.params)
        records += [
            {"hidden_sizes": hidden_sizes, "n_train": fit.n_train, "epochs_run": int(fit.epochs_run[h]), "best_epoch": int(fit.best_epoch[h]),
             "final_train_loss": float(fit.last_loss[h]), "holdout_loss": float(fit.best_loss[h]) if fit.n_holdout else None}
            for h in range(len(members))
        ]
    return MlpModel(np.concatenate(parts, dtype=np.float64), shapes, np.concatenate(means), np.concatenate(stds), records)


def mlp_fit(data: LabeledPairDataset, cfg: MlpConfig | None = None, stream: RngStream | None = None) -> MlpModel:
    """Train the rectifier network on a balanced labeled dataset: the one-member
    :class:`MlpModel` of :func:`_fit_lockstep` on ``data.ws`` and
    ``data.labels``, deterministic given ``stream``.  Divergence (a non-finite
    loss, checked every step, or parameter, checked every epoch) raises
    ``TrainingError`` naming member 0 and the epoch."""
    return _fit_lockstep(data.ws, data.labels[None], cfg or MlpConfig(), [stream or RngStream(seed=0)])


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
    inputs, layers = with_ones((ws - model.feat_mean) / model.feat_std), model.layers
    _, grads = _bce_loss_and_grad(layers, inputs, labels)
    loss = lambda: float(_bce_losses(mlp_forward(layers, inputs)[..., 0], labels)[0])  # noqa: E731
    return grad_check(layers, grads, loss, step)


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
    if not isinstance(clf, (QdaModel, MlpModel)):
        raise ConfigurationError(f"cannot serialize classifier of type {type(clf).__name__}")
    _one_member(clf, "a checkpoint holds", "save model[h]")
    if isinstance(clf, QdaModel):
        values = [*clf.means[0].tolist(), *clf.covs[0].tolist(), *clf.priors[0].tolist()]
        payload = {"kind": "qda", **dict(zip(_QDA_KEYS, values))}
    else:
        payload = {
            "kind": "mlp",
            "weights": [a[0, :-1].tolist() for a in clf.layers],
            "biases": [a[0, -1].tolist() for a in clf.layers],
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
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = payload.get("kind")
    try:
        if kind == "qda":
            mu0, mu1, cov0, cov1, prior0, prior1 = (payload[key] for key in _QDA_KEYS)
            return QdaModel([[mu0, mu1]], [[cov0, cov1]], [[prior0, prior1]])
        if kind == "mlp":
            layers = fold(payload["weights"], payload["biases"])
            mean, std = (np.asarray(payload[key], dtype=np.float64)[None] for key in ("feat_mean", "feat_std"))
            return MlpModel(np.concatenate([a.ravel() for a in layers])[None], [a.shape for a in layers], mean, std, [payload.get("metadata", {})])
    except KeyError as exc:
        raise DataFormatError(f"classifier checkpoint {str(path)!r} lacks key {exc.args[0]!r}") from None
    raise ConfigurationError(f"unknown classifier kind {kind!r} in checkpoint")


# ---------------------------------------------------------------------------
# Fitters (uniform fit interface for the test procedures): ``fit(data, stream)``
# fits one classifier, ``fit.ensemble(members, streams)`` a null ensemble from
# a null construction's member description (``c2st.Relabeled`` or
# ``c2st.Resampled``), which both families read for arrays, not datasets:
# QDA its ``class_moments()``, an MLP its ``member_arrays()``
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

    def ensemble(self, members, streams: Iterable[RngStream]) -> MlpModel | list:
        """All members in lockstep, one H-member :class:`MlpModel`, from the
        table (or table drawer) and label rows ``members.member_arrays()``
        gives (see :func:`_fit_lockstep`), with no member dataset built."""
        return _fit_lockstep(*members.member_arrays(), self.cfg, list(streams))


def qda_factory(ridge: float | None = None) -> QdaFitter:
    return QdaFitter(ridge)


def mlp_factory(cfg: MlpConfig | None = None) -> MlpFitter:
    return MlpFitter(cfg or MlpConfig())
