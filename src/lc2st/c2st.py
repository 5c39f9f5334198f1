"""Classifier two-sample test statistics, null distributions, and diagnostics.

Statistics
----------
* :func:`t_acc`  -- two-class accuracy with ties predicted as class 0;
* :func:`t_mse`  -- sum of the two per-class mean squared deviations of the
  predicted class-1 probability from one half (range [0, 1/2]); the
  ``bounded`` variant averages the terms instead (range [0, 1/4]);
* :func:`t_mse0` -- single-class MSE statistic over estimator draws only,
  the workhorse of the local test (range [0, 1/4]);
* :func:`t_acc0` -- single-class accuracy, provided only to reproduce its
  documented failure mode (it is necessary but not sufficient).

Procedures
----------
The local test trains one classifier on joint-data pairs (theta, x) labeled by
provenance (estimator vs simulator), with the null distribution from
paired label-flip refits.  The normalizing-flow variant instead classifies
latent pairs (z, x) and its null ensemble needs no estimator at all, so it can
be precomputed once and reused across estimators and observations.  The
oracle C2ST trains on estimator against reference draws at the observation,
with a free label-permutation null.

:func:`run_test` runs one test of any method, and the harness, CLI and bench
all call it: it alone builds each method's training set and derives its
streams.  It calls the public steps, which stay usable on their own:
``lc2st_train`` (``lc2st_training_set`` + fit + ``fit_null_ensemble``) and
``lc2st_evaluate``; ``lc2st_nf_train``, ``lc2st_nf_null`` and
``lc2st_nf_evaluate``.

p-values use the strict-exceedance count (number of null statistics above
the observed one, over n_null); ``conservative=True`` switches to the
finite-sample correction (1 + ties-or-above) / (n_null + 1),
which can never return zero.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifiers import BLOCK_ROWS, MlpModel, QdaModel, QdaStack, quad_features, row_slices
from .core import (
    ConfigurationError,
    LabeledPairDataset,
    JointDataset,
    NumericError,
    RngStream,
)
from .nets import sigmoid

__all__ = [
    "t_acc",
    "t_mse",
    "t_mse0",
    "t_acc0",
    "single_class_statistics",
    "p_value_from_null",
    "TestResult",
    "NullEnsemble",
    "Relabeled",
    "fit_null_ensemble",
    "lc2st_training_set",
    "lc2st_train",
    "lc2st_evaluate",
    "lc2st_nf_train",
    "Resampled",
    "lc2st_nf_null",
    "lc2st_nf_evaluate",
    "TestRun",
    "run_test",
    "PPPlotData",
    "pp_plot",
    "default_levels",
    "MarginalHeatmap",
    "probability_heatmap",
    "heatmap_rows",
    "append_conditioning",
]

_EPS = 1e-12

# Upper statistic bound by method tag; accuracy-type methods are bounded by 1.
_STAT_UPPER = {
    "lc2st": 0.25,
    "lc2st-nf": 0.25,
    "oracle-c2st-mse": 0.5,
    "oracle-c2st-acc": 1.0,
}


def append_conditioning(points: np.ndarray, x_o: np.ndarray | None) -> np.ndarray:
    """Feature rows for classifier queries: points, or (points ++ x_o)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if x_o is None:
        return points
    x_o = np.asarray(x_o, dtype=np.float64).ravel()
    return np.hstack([points, np.broadcast_to(x_o, (points.shape[0], x_o.shape[0]))])


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def _require_balanced(data: LabeledPairDataset) -> None:
    if data.n_class0 != data.n_class1:
        raise ConfigurationError(
            f"statistic assumes equally many samples per class, got "
            f"{data.n_class0} vs {data.n_class1}"
        )
    if data.n == 0:
        raise ConfigurationError("validation set is empty")


def t_acc(clf, val: LabeledPairDataset) -> float:
    """Fraction of correct hard predictions at threshold 1/2 (ties -> class 0)."""
    _require_balanced(val)
    d = np.asarray(clf.predict_proba(val.ws))
    predicted = (d > 0.5).astype(np.int64)
    return float(np.mean(predicted == val.labels))


def t_mse(clf, val: LabeledPairDataset, bounded: bool = False) -> float:
    """Sum over both classes of the per-class mean of (d - 1/2)^2.

    The literal normalization sums the two per-class means (range [0, 1/2]);
    ``bounded=True`` halves it so the statistic shares the [0, 1/4] range of
    the single-class version.
    """
    _require_balanced(val)
    d = np.asarray(clf.predict_proba(val.ws))
    sq = (d - 0.5) ** 2
    total = float(np.mean(sq[val.labels == 0]) + np.mean(sq[val.labels == 1]))
    return total / 2.0 if bounded else total


def t_mse0(clf, points: np.ndarray, x_o: np.ndarray | None = None) -> float:
    """Single-class MSE statistic: mean of (d - 1/2)^2 over estimator draws."""
    ws = append_conditioning(points, x_o)
    if len(ws) == 0:
        raise ConfigurationError("need at least one evaluation point")
    d = np.asarray(clf.predict_proba(ws))
    return float(np.mean((d - 0.5) ** 2))


def t_acc0(clf, points: np.ndarray, x_o: np.ndarray | None = None) -> float:
    """Fraction of estimator draws predicted as class 0 (ties -> class 0).

    Kept only for the documented failure-mode comparison; unlike t_mse0 it is
    not a sufficient statistic for local consistency.
    """
    ws = append_conditioning(points, x_o)
    if len(ws) == 0:
        raise ConfigurationError("need at least one evaluation point")
    d = np.asarray(clf.predict_proba(ws))
    return float(np.mean(d <= 0.5))


# Elements in one hidden activation of a stacked-MLP block: 1 MB of float64,
# so larger ensembles are scored a chunk of members at a time.  Bigger
# temporaries cost more in page faults than they save in calls.
_MLP_CHUNK_ELEMENTS = 1 << 17


def _stacks(classifiers) -> tuple[np.ndarray | None, list[MlpModel] | None]:
    """The classifiers stacked once for scoring: a (features, classifiers)
    matrix of QDA coefficients when all are QDA (a ``QdaStack`` has it
    already), member-axis MlpModels over consecutive chunks of members when
    all are MLPs of one shape, else (None, None)."""
    if isinstance(classifiers, QdaStack):
        return classifiers.coef, None
    if classifiers and all(isinstance(c, QdaModel) for c in classifiers):
        return np.column_stack([c.coef for c in classifiers]), None
    if classifiers and all(isinstance(c, MlpModel) for c in classifiers):
        if len({tuple(w.shape for w in c.params.weights) for c in classifiers}) == 1:
            width = BLOCK_ROWS * max(w.shape[-1] for w in classifiers[0].params.weights)
            size = max(1, _MLP_CHUNK_ELEMENTS // width)
            return None, [MlpModel.stack(classifiers[i : i + size]) for i in range(0, len(classifiers), size)]
    return None, None


def _log_odds(clf, ws: np.ndarray) -> np.ndarray:
    if hasattr(clf, "log_odds"):
        return clf.log_odds(ws)
    d = np.asarray(clf.predict_proba(ws), dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.log(d) - np.log1p(-d)


def _log_odds_blocks(classifiers, ws: np.ndarray, coef: np.ndarray | None, mlp: list[MlpModel] | None):
    """Yield (rows, classifiers) log-odds blocks over the row blocks of ``ws``:
    one product with the stacked QDA ``coef``, one forward pass per stacked
    ``mlp`` chunk, else one column per classifier (its ``log_odds``, or the
    logit of its ``predict_proba``)."""
    ws = np.atleast_2d(np.asarray(ws, dtype=np.float64))
    if coef is not None and len(coef) != ws.shape[1] * (ws.shape[1] + 3) // 2 + 1:
        raise ConfigurationError(f"feature dimension {ws.shape[1]} does not match the QDA coefficients")
    for rows in row_slices(len(ws)):
        block = ws[rows]
        if coef is not None:
            yield quad_features(block) @ coef
        elif mlp is not None:
            yield np.concatenate([stack.log_odds(block) for stack in mlp]).T
        else:
            yield np.array([_log_odds(clf, block) for clf in classifiers]).reshape(-1, len(block)).T


def single_class_statistics(classifiers, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``t_mse0`` and ``t_acc0`` of every classifier on the rows ``ws``, from
    one scoring pass; d = sigmoid(log-odds) keeps the tie rule of ``t_acc0``."""
    ws = np.atleast_2d(np.asarray(ws, dtype=np.float64))
    if len(ws) == 0:
        raise ConfigurationError("need at least one evaluation point")
    sq, class0 = np.zeros(len(classifiers)), np.zeros(len(classifiers))
    for logits in _log_odds_blocks(classifiers, ws, *_stacks(classifiers)):
        d = sigmoid(logits)
        sq += np.square(d - 0.5).sum(axis=0)
        class0 += (d <= 0.5).sum(axis=0)
    return sq / len(ws), class0 / len(ws)


def _two_class_statistics(classifiers, val: LabeledPairDataset) -> tuple[np.ndarray, np.ndarray]:
    """``t_acc`` and ``t_mse`` of every classifier on the balanced set ``val``,
    from one scoring pass."""
    correct, sq = np.zeros(len(classifiers)), np.zeros((2, len(classifiers)))
    blocks = _log_odds_blocks(classifiers, val.ws, *_stacks(classifiers))
    for rows, logits in zip(row_slices(val.n), blocks):
        d, labels = sigmoid(logits), val.labels[rows]
        correct += ((d > 0.5) == labels[:, None]).sum(axis=0)
        sq += [np.square(d[labels == c] - 0.5).sum(axis=0) for c in (0, 1)]
    return correct / val.n, sq[0] / val.n_class0 + sq[1] / val.n_class1


def p_value_from_null(statistic: float, null_statistics: np.ndarray, conservative: bool = False) -> float:
    """Permutation p-value of ``statistic`` against a null sample."""
    nulls = np.asarray(null_statistics, dtype=np.float64)
    if nulls.size == 0:
        raise ConfigurationError("p-value needs a nonempty null ensemble")
    if conservative:
        return float((1 + np.sum(nulls >= statistic)) / (nulls.size + 1))
    return float(np.sum(nulls > statistic) / nulls.size)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestResult:
    """Outcome of one local test at one observation."""

    __test__ = False  # statistical test result, not a pytest case

    method: str
    statistic: float
    null_statistics: np.ndarray | None
    p_value: float | None
    x_o: np.ndarray
    n_v: int
    n_h: int
    seeds: dict
    p_value_kind: str | None = "strict"

    def __post_init__(self) -> None:
        upper = _STAT_UPPER.get(self.method)
        if upper is not None and not (-_EPS <= self.statistic <= upper + _EPS):
            raise ConfigurationError(
                f"statistic {self.statistic} outside [0, {upper}] for method {self.method!r}"
            )
        if self.null_statistics is not None:
            nulls = np.asarray(self.null_statistics, dtype=np.float64)
            object.__setattr__(self, "null_statistics", nulls)
            if self.p_value_kind == "strict":
                expected = p_value_from_null(self.statistic, nulls)
                if self.p_value is None or abs(self.p_value - expected) > _EPS:
                    raise ConfigurationError("p_value does not match the strict exceedance count")
        if self.p_value is not None and not (0.0 <= self.p_value <= 1.0):
            raise ConfigurationError("p_value must lie in [0, 1]")

    @staticmethod
    def from_stats(
        method: str,
        statistic: float,
        null_statistics: np.ndarray | None,
        x_o: np.ndarray,
        n_v: int,
        seeds: dict,
        conservative: bool = False,
    ) -> "TestResult":
        nulls = None if null_statistics is None else np.asarray(null_statistics, dtype=np.float64)
        if nulls is None or nulls.size == 0:
            return TestResult(method, statistic, None, None, np.asarray(x_o), n_v, 0, seeds, None)
        kind = "conservative" if conservative else "strict"
        p = p_value_from_null(statistic, nulls, conservative=conservative)
        return TestResult(method, statistic, nulls, p, np.asarray(x_o), n_v, int(nulls.size), seeds, kind)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "x_o": np.asarray(self.x_o).ravel().tolist(),
            "statistic": self.statistic,
            "p_value": self.p_value,
            "null_statistics": [] if self.null_statistics is None else self.null_statistics.tolist(),
            "n_v": self.n_v,
            "n_h": self.n_h,
            "seeds": self.seeds,
            "p_value_kind": self.p_value_kind,
        }

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class NullEnsemble:
    """Classifiers fitted under the null construction, with their seed ledger
    and the wall-clock seconds their fit took.  A QDA null is a ``QdaStack``
    fitted from stacked class moments: ``coef`` is its (features, members)
    matrix, and its members are built as QdaModels only on demand.  A list of
    members is stacked once, at construction: into ``coef`` when all are QDA,
    into ``mlp`` (chunks of members) when all are MLPs."""

    classifiers: list | QdaStack
    provenance: str  # 'permutation' | 'nf-resampled'
    streams: list[tuple[int, int]] = field(default_factory=list)
    latent_dim: int | None = None
    fit_seconds: float = 0.0
    coef: np.ndarray | None = field(init=False, repr=False)
    mlp: list[MlpModel] | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.provenance not in ("permutation", "nf-resampled"):
            raise ConfigurationError(f"unknown ensemble provenance {self.provenance!r}")
        self.coef, self.mlp = _stacks(self.classifiers)

    def __len__(self) -> int:
        return len(self.classifiers)

    def with_main(self, clf):
        """``clf`` ahead of the members, as one sequence to score: the main
        classifier is column 0."""
        if isinstance(clf, QdaModel) and isinstance(self.classifiers, QdaStack):
            return self.classifiers.prepend(clf)
        return [clf, *self.classifiers]


# ---------------------------------------------------------------------------
# Local test on the joint (theta, x) space
# ---------------------------------------------------------------------------


def _moment_rows(w: np.ndarray) -> np.ndarray:
    """Rows [w, vec(w w')]: summed over a class's rows, its sum and scatter."""
    return np.hstack([w, (w[:, :, None] * w[:, None, :]).reshape(len(w), -1)])


@dataclass(frozen=True)
class Relabeled:
    """Members of a label-permutation null: every member keeps ``data``'s
    rows, and member h draws its labels from ``subs[h].child("perm")``.
    Iterating yields the members' datasets (what an MLP trains on);
    ``class_moments`` gives all their class moments at once (what QDA fits
    from), without building them."""

    data: LabeledPairDataset
    subs: list[RngStream]
    paired: bool

    def __len__(self) -> int:
        return len(self.subs)

    def labels(self, sub: RngStream) -> np.ndarray:
        rng = sub.child("perm").generator()
        if self.paired:
            flips = (rng.random(self.data.n // 2) < 0.5).astype(np.int64)
            return np.concatenate([flips, 1 - flips])
        return self.data.labels[rng.permutation(self.data.n)]

    def __iter__(self):
        return (self.data.with_labels(self.labels(sub)) for sub in self.subs)

    def class_moments(self):
        """(counts, centre, sums, scatters) as ``qda_fit_moments`` takes them,
        about the rows' mean.  Class 1's moments are the members' 0/1 labels
        times the rows' ``_moment_rows``, one GEMM per row block, and class
        0's the total less class 1's.  Paired, class 1 holds row i of the
        upper half where its flip is 1 and its partner i + n/2 where it is 0:
        the lower half's total plus the flips times (upper - lower) rows."""
        ws, n, dim = self.data.ws, self.data.n, self.data.dim
        centre = ws.mean(axis=0)
        half = n // 2 if self.paired else n
        weights = np.array([self.labels(sub)[:half] for sub in self.subs], dtype=np.int8).reshape(len(self), half)
        upper, lower = ws[:half] - centre, ws[half:] - centre
        total, class1 = np.zeros(dim + dim * dim), np.zeros((len(self), dim + dim * dim))
        for rows in row_slices(half):
            block = _moment_rows(upper[rows])
            total += block.sum(axis=0)
            if self.paired:
                partners = _moment_rows(lower[rows])
                total += partners.sum(axis=0)
                class1 += partners.sum(axis=0)
                block -= partners
            class1 += weights[:, rows].astype(np.float64) @ block
        # relabeling keeps the class sizes
        counts = np.tile([self.data.n_class0, self.data.n_class1], (len(self), 1))
        moments = np.stack([total - class1, class1], axis=1)
        return counts, centre, moments[..., :dim], moments[..., dim:].reshape(len(self), 2, dim, dim)


def fit_null_ensemble(
    data: LabeledPairDataset,
    fit_fn,
    n_null: int,
    stream: RngStream,
    paired: bool = False,
) -> NullEnsemble:
    """Permutation null: refit on label-permuted copies, fresh permutation per trial.

    ``paired=False`` permutes all labels freely, the right symmetry when the
    rows are independent draws (oracle tests on samples from two distributions).

    ``paired=True`` flips labels within aligned row pairs (row i with row
    i + n/2), for training sets where both class rows at index i share one
    conditioning observation.  Free permutation is not a symmetry of that
    construction: it leaves sampling imbalances in the per-class observation
    marginals that classifiers pick up, inflating null statistics and skewing
    p-values conservative.  Requires the block layout produced by
    ``from_class_arrays`` with equal class counts.

    One ``fit_fn.ensemble`` call fits every member from their
    :class:`Relabeled` description.
    """
    t0 = time.perf_counter()
    if paired:
        k = data.n // 2
        expected = np.concatenate([np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64)])
        if data.n % 2 or not np.array_equal(data.labels, expected):
            raise ConfigurationError(
                "paired permutation requires class-0 rows stacked above class-1 rows, equal counts"
            )
    subs = [stream.child("trial", h) for h in range(n_null)]
    # the fit streams are derived only by fitters that read them (MLP)
    classifiers = fit_fn.ensemble(Relabeled(data, subs, paired), (sub.child("fit") for sub in subs))
    streams = [(sub.seed, sub.stream_id) for sub in subs]
    return NullEnsemble(
        classifiers=classifiers, provenance="permutation", streams=streams, fit_seconds=time.perf_counter() - t0
    )


def lc2st_training_set(estimator, cal: JointDataset, stream: RngStream) -> LabeledPairDataset:
    """Joint-space classification set: one estimator draw per calibration row
    (class 0) against the simulated pairs (class 1), same observations in both."""
    theta_q = estimator.sample_conditional(cal.xs, stream)
    theta_q = np.asarray(theta_q, dtype=np.float64)
    bad = ~np.all(np.isfinite(theta_q), axis=1)
    if np.any(bad):
        raise NumericError(f"estimator produced non-finite draw at calibration row {int(np.argmax(bad))}")
    return LabeledPairDataset.from_class_arrays(
        np.hstack([theta_q, cal.xs]),
        np.hstack([cal.thetas, cal.xs]),
    )


def lc2st_train(
    estimator,
    cal: JointDataset,
    fit_fn,
    n_null: int,
    stream: RngStream,
):
    """Train the local-test classifier and its permutation null ensemble.

    For every calibration row, one estimator draw at that row's observation
    joins class 0 and the simulated pair joins class 1; both classes share the
    conditioning observations.  Returns (classifier, ensemble); ``n_null=0``
    returns an empty ensemble.
    """
    if cal.n == 0:
        raise ConfigurationError("calibration set is empty")
    data = lc2st_training_set(estimator, cal, stream.child("estimator"))
    clf = fit_fn(data, stream.child("fit"))
    ensemble = fit_null_ensemble(data, fit_fn, n_null, stream.child("null"), paired=True)
    return clf, ensemble


def _evaluate_mse0(clf, ensemble: NullEnsemble, ws: np.ndarray):
    """``t_mse0`` of ``clf`` and of every null member on the rows ``ws``.
    Members sum (d - 1/2)^2 as tanh(l/2)^2 / 4: no branch on the sign of l."""
    sq = np.zeros(len(ensemble))
    for logits in _log_odds_blocks(ensemble.classifiers, ws, ensemble.coef, ensemble.mlp):
        half = np.tanh(np.multiply(logits, 0.5, out=logits), out=logits)
        sq += np.einsum("ij,ij->j", half, half)
    return t_mse0(clf, ws), sq / (4.0 * len(ws))


def lc2st_evaluate(
    clf,
    ensemble: NullEnsemble,
    estimator,
    x_o: np.ndarray,
    n_v: int,
    stream: RngStream,
    conservative: bool = False,
) -> TestResult:
    """Local test statistic and p-value at ``x_o``.

    Fresh estimator draws are shared by the trained classifier and every null
    classifier, so all statistics are computed on the same sample set.
    """
    if n_v < 1:
        raise ConfigurationError("n_v must be at least 1")
    theta_q = estimator.sample(np.asarray(x_o, dtype=np.float64), n_v, stream.child("eval"))
    ws = append_conditioning(theta_q, x_o)
    stat, nulls = _evaluate_mse0(clf, ensemble, ws)
    seeds = {"seed": int(stream.seed), "stream_id": int(stream.stream_id)}
    return TestResult.from_stats(
        "lc2st", stat, nulls if len(ensemble) else None, x_o, n_v, seeds, conservative
    )


# ---------------------------------------------------------------------------
# Normalizing-flow specialization on the latent (z, x) space
# ---------------------------------------------------------------------------


def lc2st_nf_train(flow, cal: JointDataset, fit_fn, stream: RngStream):
    """Train the latent-space classifier for a flow estimator.

    Class 0 pairs fresh standard-normal latents with the calibration
    observations; class 1 uses the inverse-flow image of the simulated
    parameters.  Under a locally consistent flow both classes are standard
    normal at every observation.
    """
    if cal.n == 0:
        raise ConfigurationError("calibration set is empty")
    z0 = stream.child("z").generator().standard_normal((cal.n, flow.m))
    try:
        z_q, _ = flow.inverse(cal.thetas, cal.xs)
    except NumericError:
        for i in range(cal.n):
            try:
                flow.inverse(cal.thetas[i : i + 1], cal.xs[i : i + 1])
            except NumericError as exc:
                raise NumericError(f"flow inverse failed at calibration row {i}: {exc}") from exc
        raise
    bad = ~np.all(np.isfinite(z_q), axis=1)
    if np.any(bad):
        raise NumericError(f"flow inverse produced non-finite latent at calibration row {int(np.argmax(bad))}")
    data = LabeledPairDataset.from_class_arrays(
        np.hstack([z0, cal.xs]),
        np.hstack([z_q, cal.xs]),
    )
    return fit_fn(data, stream.child("fit"))


@dataclass(frozen=True)
class Resampled:
    """Members of the flow variant's null: member h pairs two fresh
    standard-normal latent draws from ``subs[h].child("z")``, one per class,
    with the same observations ``xs``.  Iterated and moments as
    :class:`Relabeled`."""

    xs: np.ndarray
    m: int
    subs: list[RngStream]

    def __len__(self) -> int:
        return len(self.subs)

    def latents(self, sub: RngStream) -> np.ndarray:
        """Member latents (2, n, m): class 0's draws, then class 1's."""
        return sub.child("z").generator().standard_normal((2, len(self.xs), self.m))

    def __iter__(self):
        for sub in self.subs:
            z0, z1 = self.latents(sub)
            yield LabeledPairDataset.from_class_arrays(np.hstack([z0, self.xs]), np.hstack([z1, self.xs]))

    def class_moments(self):
        """(counts, centre, sums, scatters) as ``qda_fit_moments`` takes them,
        about (0, mean of ``xs``).  The observation block is the same for
        every member and class, so it is computed once; each member adds its
        latent sums and two small products, z'z and z'x."""
        m, (n, d_x) = self.m, self.xs.shape
        x_mean = self.xs.mean(axis=0)
        xc = self.xs - x_mean
        sums = np.empty((len(self), 2, m + d_x))
        scatters = np.empty((len(self), 2, m + d_x, m + d_x))
        sums[..., m:] = xc.sum(axis=0)
        scatters[..., m:, m:] = xc.T @ xc
        for h, sub in enumerate(self.subs):
            z = self.latents(sub)
            zt = np.swapaxes(z, 1, 2)
            sums[h, :, :m] = z.sum(axis=1)
            scatters[h, :, :m, :m] = zt @ z
            scatters[h, :, :m, m:] = zt @ xc
        scatters[..., m:, :m] = np.swapaxes(scatters[..., :m, m:], -1, -2)
        return np.full((len(self), 2), n), np.concatenate([np.zeros(m), x_mean]), sums, scatters


def lc2st_nf_null(
    cal_xs: np.ndarray,
    m: int,
    fit_fn,
    n_null: int,
    stream: RngStream,
) -> NullEnsemble:
    """Estimator-independent null ensemble for the flow variant.

    Each trial draws fresh standard-normal latents for both classes against
    the same observations (:class:`Resampled`), so one ensemble is reusable
    across flows and observations.  ``n_null=0`` returns an empty ensemble.
    """
    t0 = time.perf_counter()
    if n_null < 0:
        raise ConfigurationError("n_null must be nonnegative")
    cal_xs = np.atleast_2d(np.asarray(cal_xs, dtype=np.float64))
    subs = [stream.child("trial", h) for h in range(n_null)]
    classifiers = fit_fn.ensemble(Resampled(cal_xs, m, subs), (sub.child("fit") for sub in subs))
    streams = [(sub.seed, sub.stream_id) for sub in subs]
    return NullEnsemble(
        classifiers=classifiers, provenance="nf-resampled", streams=streams, latent_dim=m,
        fit_seconds=time.perf_counter() - t0,
    )


def lc2st_nf_evaluate(
    clf,
    ensemble: NullEnsemble,
    x_o: np.ndarray,
    m: int,
    n_v: int,
    stream: RngStream,
    conservative: bool = False,
) -> TestResult:
    """Flow-variant statistic and p-value at ``x_o``.

    Evaluation latents are standard normal and independent of the observation;
    the same draws feed the trained classifier and every null classifier.
    """
    if n_v < 1:
        raise ConfigurationError("n_v must be at least 1")
    z = stream.child("eval").generator().standard_normal((n_v, m))
    ws = append_conditioning(z, x_o)
    stat, nulls = _evaluate_mse0(clf, ensemble, ws)
    seeds = {"seed": int(stream.seed), "stream_id": int(stream.stream_id)}
    return TestResult.from_stats(
        "lc2st-nf", stat, nulls if len(ensemble) else None, x_o, n_v, seeds, conservative
    )


# ---------------------------------------------------------------------------
# One test of any method: the entry point of the harness, CLI and bench
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestRun:
    """One test's result, main classifier and null ensemble, with the
    wall-clock seconds of its ``train``, ``null`` and ``evaluate`` phases."""

    __test__ = False  # statistical test run, not a pytest case

    result: TestResult
    classifier: object
    ensemble: NullEnsemble
    seconds: dict


def run_test(
    method: str,
    task,
    estimator,
    x_o: np.ndarray,
    n_cal: int,
    n_null: int,
    n_v: int,
    fit_fn,
    stream: RngStream,
    conservative: bool = False,
    ensemble: NullEnsemble | None = None,
) -> TestRun:
    """One ``method`` test of ``estimator`` at ``x_o``, from ``stream``.

    ``lc2st`` and ``lc2st-nf`` (whose ``estimator`` is a flow) simulate
    ``n_cal`` calibration pairs from ``task``.  The oracle methods train on
    ``n_cal`` estimator and reference draws at ``x_o`` against a free
    permutation null, and score ``t_acc`` or ``t_mse`` on ``n_v`` fresh
    draws of each.  A given ``ensemble`` is used instead of fitting one;
    ``n_null=0`` leaves the null empty and the p-value None.

    ``train`` times building the training set and fitting the classifier,
    ``null`` is the fitted ensemble's ``fit_seconds`` (0 for a given or empty
    one) and ``evaluate`` the draws and scoring at ``x_o``.
    """
    if method not in _STAT_UPPER:
        raise ConfigurationError(f"unknown method {method!r}; valid: {sorted(_STAT_UPPER)}")
    if method.startswith("oracle") and task.reference is None:
        raise ConfigurationError(f"oracle methods need a reference posterior for task {task.name!r}")
    n_fit = n_null if ensemble is None else 0
    if method in ("lc2st", "lc2st-nf"):
        cal = task.sample_joint(n_cal, stream.child("cal"))
    t0 = time.perf_counter()
    if method == "lc2st":
        clf, fitted = lc2st_train(estimator, cal, fit_fn, n_fit, stream)
    elif method == "lc2st-nf":
        clf = lc2st_nf_train(estimator, cal, fit_fn, stream.child("train"))
        fitted = lc2st_nf_null(cal.xs, task.m, fit_fn, n_fit, stream.child("null"))
    else:
        train = LabeledPairDataset.from_class_arrays(
            estimator.sample(x_o, n_cal, stream.child("q-train")),
            task.reference.sample(x_o, n_cal, stream.child("p-train")),
        )
        clf = fit_fn(train, stream.child("fit"))
        fitted = fit_null_ensemble(train, fit_fn, n_fit, stream.child("null"))
    ensemble = fitted if ensemble is None else ensemble
    t1 = time.perf_counter()
    if method == "lc2st":
        result = lc2st_evaluate(clf, ensemble, estimator, x_o, n_v, stream.child("test"), conservative)
    elif method == "lc2st-nf":
        result = lc2st_nf_evaluate(clf, ensemble, x_o, task.m, n_v, stream.child("test"), conservative)
    else:
        val = LabeledPairDataset.from_class_arrays(
            estimator.sample(x_o, n_v, stream.child("q-val")),
            task.reference.sample(x_o, n_v, stream.child("p-val")),
        )
        stat = (t_acc if method == "oracle-c2st-acc" else t_mse)(clf, val)
        acc, mse = _two_class_statistics(ensemble.classifiers, val) if len(ensemble) else (None, None)
        seeds = {"seed": int(stream.seed), "stream_id": int(stream.stream_id)}
        result = TestResult.from_stats(method, stat, acc if method == "oracle-c2st-acc" else mse, x_o, n_v, seeds, conservative)
    null = fitted.fit_seconds if n_fit else 0.0
    return TestRun(result, clf, ensemble, {"train": t1 - t0 - null, "null": null, "evaluate": time.perf_counter() - t1})


# ---------------------------------------------------------------------------
# PP-plot diagnostics
# ---------------------------------------------------------------------------


def default_levels(n: int = 100) -> np.ndarray:
    return np.linspace(0.005, 0.995, n)


@dataclass(frozen=True)
class PPPlotData:
    """Empirical CDF of predicted class-0 probabilities with null bands.

    Under the null the predicted probabilities sit at one half, so the CDF is
    a step function at 0.5; systematic departures outside the band flag local
    inconsistency.
    """

    levels: np.ndarray
    cdf: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for name in ("levels", "cdf", "lower", "upper"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if arr.shape != self.levels.shape:
                raise ConfigurationError("pp-plot arrays must share the levels grid")
        for name in ("cdf", "lower", "upper"):
            arr = getattr(self, name)
            if np.any(arr < -_EPS) or np.any(arr > 1 + _EPS):
                raise ConfigurationError(f"{name} values must lie in [0, 1]")
            if np.any(np.diff(arr) < -_EPS):
                raise ConfigurationError(f"{name} must be monotone nondecreasing in the level")
        if np.any(self.lower > self.upper + _EPS):
            raise ConfigurationError("lower band must not exceed upper band")

    def fraction_inside(self) -> float:
        inside = (self.cdf >= self.lower - _EPS) & (self.cdf <= self.upper + _EPS)
        return float(np.mean(inside))

    def rows(self) -> list[tuple[float, float, float, float]]:
        return [
            (float(l), float(c), float(lo), float(up))
            for l, c, lo, up in zip(self.levels, self.cdf, self.lower, self.upper)
        ]


def pp_plot(
    clf,
    ensemble: NullEnsemble,
    eval_ws: np.ndarray,
    levels: np.ndarray | None = None,
    alpha: float = 0.05,
) -> PPPlotData:
    """Local PP-plot: CDF of class-0 probabilities with (1-alpha) null bands.

    The band at each level is the empirical [alpha/2, 1-alpha/2] quantile
    range of the null classifiers' CDFs on the same evaluation points.
    """
    eval_ws = np.atleast_2d(np.asarray(eval_ws, dtype=np.float64))
    if eval_ws.shape[0] == 0:
        raise ConfigurationError("pp_plot needs a nonempty evaluation set")
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError("alpha must lie in (0, 1)")
    levels = default_levels() if levels is None else np.asarray(levels, dtype=np.float64)
    if np.any(levels <= 0.0) or np.any(levels >= 1.0) or np.any(np.diff(levels) < 0.0):
        raise ConfigurationError("levels must be nondecreasing and lie strictly inside (0, 1)")
    if len(ensemble) == 0:
        raise ConfigurationError("pp_plot needs a nonempty null ensemble")
    # Column 0 is the main classifier.  Rows counted by the number of levels
    # below their class-0 probability accumulate to the ECDF numerators.
    models, width = ensemble.with_main(clf), len(levels) + 1
    counts = np.zeros(len(models) * width, dtype=np.int64)
    for logits in _log_odds_blocks(models, eval_ws, *_stacks(models)):
        below = np.searchsorted(levels, 1.0 - sigmoid(logits), side="left")
        counts += np.bincount((below + width * np.arange(len(models))).ravel(), minlength=counts.size)
    cdfs = np.cumsum(counts.reshape(len(models), width), axis=1)[:, :-1] / eval_ws.shape[0]
    lower = np.quantile(cdfs[1:], alpha / 2.0, axis=0)
    upper = np.quantile(cdfs[1:], 1.0 - alpha / 2.0, axis=0)
    return PPPlotData(levels=levels, cdf=cdfs[0], lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Predicted-probability heatmaps over estimator marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalHeatmap:
    """Histogram of estimator samples colored by mean class-0 probability.

    ``dims = (i, i)`` marks a 1-D marginal (counts and mean_prob are vectors);
    ``dims = (i, j)`` with i < j a 2-D marginal (matrices).  Empty bins carry
    count 0 and NaN probability.
    """

    dims: tuple[int, int]
    edges_i: np.ndarray
    edges_j: np.ndarray | None
    counts: np.ndarray
    mean_prob: np.ndarray


def probability_heatmap(
    clf,
    flow,
    x_o: np.ndarray,
    n: int,
    bins: int,
    stream: RngStream,
) -> list[MarginalHeatmap]:
    """Mean class-0 probability per histogram bin, for all 1-D and 2-D marginals.

    Latents are drawn from the base distribution, mapped through the flow at
    ``x_o`` to parameter space for binning, while probabilities are evaluated
    on the latent inputs (z, x_o) -- high class-0 probability marks regions
    where the estimator carries more mass than the joint data supports.
    """
    if bins < 2:
        raise ConfigurationError("need at least 2 bins per axis")
    if n < 1:
        raise ConfigurationError("need at least one sample")
    z = stream.child("z").generator().standard_normal((n, flow.m))
    xs = np.broadcast_to(np.asarray(x_o, dtype=np.float64).reshape(1, -1), (n, flow.d))
    thetas, _ = flow.forward(z, xs)
    d0 = 1.0 - np.asarray(clf.predict_proba(append_conditioning(z, x_o)))
    out: list[MarginalHeatmap] = []
    edges = [np.histogram_bin_edges(thetas[:, i], bins=bins) for i in range(flow.m)]
    for i in range(flow.m):
        counts, _ = np.histogram(thetas[:, i], bins=edges[i])
        sums, _ = np.histogram(thetas[:, i], bins=edges[i], weights=d0)
        with np.errstate(invalid="ignore"):
            mean_prob = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        out.append(MarginalHeatmap((i, i), edges[i], None, counts, mean_prob))
    for i in range(flow.m):
        for j in range(i + 1, flow.m):
            counts, _, _ = np.histogram2d(thetas[:, i], thetas[:, j], bins=(edges[i], edges[j]))
            sums, _, _ = np.histogram2d(thetas[:, i], thetas[:, j], bins=(edges[i], edges[j]), weights=d0)
            with np.errstate(invalid="ignore"):
                mean_prob = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
            out.append(MarginalHeatmap((i, j), edges[i], edges[j], counts.astype(np.int64), mean_prob))
    return out


def heatmap_rows(heatmaps: list[MarginalHeatmap]) -> list[tuple]:
    """Flatten heatmaps to (dim_i, dim_j, bin_i, bin_j, count, mean_prob) rows."""
    rows: list[tuple] = []
    for hm in heatmaps:
        i, j = hm.dims
        if i == j:
            for bi, (c, p) in enumerate(zip(hm.counts, hm.mean_prob)):
                rows.append((i, j, bi, 0, int(c), float(p)))
        else:
            for bi in range(hm.counts.shape[0]):
                for bj in range(hm.counts.shape[1]):
                    rows.append((i, j, bi, bj, int(hm.counts[bi, bj]), float(hm.mean_prob[bi, bj])))
    return rows
