"""Classifier two-sample test statistics, null distributions, and diagnostics.

Statistics
----------
* :func:`t_acc`  -- two-class accuracy with ties predicted as class 0;
* :func:`t_mse`  -- sum of the two per-class mean squared deviations of the
  predicted class-1 probability from one half (range [0, 1/2]);
* :func:`t_mse0` -- single-class MSE statistic over estimator draws only,
  the workhorse of the local test (range [0, 1/4]);
* :func:`t_acc0` -- single-class accuracy, provided only to reproduce its
  documented failure mode (it is necessary but not sufficient).

Procedures
----------
The local test trains one classifier on joint-data pairs (theta, x) labeled by
provenance (estimator vs simulator), with the null distribution from
paired label-flip refits.  Neither reads the observation, so one training
serves every x_o.  The normalizing-flow variant instead classifies latent
pairs (z, x) and its null ensemble needs no estimator at all, so it can be
precomputed once and reused across estimators and observations.  The oracle
C2ST trains on estimator against reference draws at the observation, with a
free label-permutation null.

:func:`run_test` runs one test of any method, at one observation or (local
tests) a batch of them from one training, and the harness, CLI and bench all
call it: it alone builds each method's training set and derives its streams.
It calls the public steps, which stay usable on their own:
``lc2st_train`` (``lc2st_training_set`` + fit + ``fit_null_ensemble``) and
``lc2st_evaluate``; ``lc2st_nf_train``, ``lc2st_nf_null`` and
``lc2st_nf_evaluate``.

A null's members are described, never built as datasets: the fitter reads
:class:`Relabeled` or :class:`Resampled` for arrays (QDA the class moments,
an MLP the feature tables and label rows) and returns one H-member model, the
null's ``classifiers``, whose ``blocks`` fold x_o in once per call and score
every member a block of rows at a time: the null statistics, of every method,
and the PP-plot's band iterate them.  The main classifier (a one-member model
of the same type) is scored through ``predict_proba``.

A result keeps its statistic, null statistics and p-value rule, and reads its
p-value from them: the strict-exceedance count (null statistics above the
observed one, over n_null), or with ``conservative=True`` the finite-sample
correction (1 + ties-or-above) / (n_null + 1), which can never return zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .classifiers import append_conditioning, row_slices
from .core import (
    ConfigurationError,
    LabeledPairDataset,
    JointDataset,
    NumericError,
    RngStream,
    check_count,
    reject_unknown_keys,
    save_json,
)
from .nets import sigmoid

__all__ = [
    "t_acc",
    "t_mse",
    "t_mse0",
    "t_acc0",
    "single_class_statistics",
    "METHODS",
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

# Each test method with its statistic's upper bound (accuracy-type methods
# are bounded by 1): the one list of methods, which plans and the CLI read.
METHODS = {
    "lc2st": 0.25,
    "lc2st-nf": 0.25,
    "oracle-c2st-mse": 0.5,
    "oracle-c2st-acc": 1.0,
}

# The p-value rules by name, each with its p_value_from_null ``conservative`` flag
_RULES = {"strict": False, "conservative": True}


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
    return float(np.mean((d > 0.5) == val.labels))


def t_mse(clf, val: LabeledPairDataset) -> float:
    """Sum over both classes of the per-class mean of (d - 1/2)^2 (range [0, 1/2])."""
    _require_balanced(val)
    d = np.asarray(clf.predict_proba(val.ws))
    sq = (d - 0.5) ** 2
    return float(np.mean(sq[val.labels == 0]) + np.mean(sq[val.labels == 1]))


def t_mse0(clf, points: np.ndarray, x_o: np.ndarray | None = None) -> float:
    """Single-class MSE statistic: mean of (d - 1/2)^2 over estimator draws,
    d the probability at [point, x_o], x_o passed to the classifier as ``given``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(points) == 0:
        raise ConfigurationError("need at least one evaluation point")
    d = np.asarray(clf.predict_proba(points, given=x_o))
    return float(np.mean((d - 0.5) ** 2))


def t_acc0(clf, points: np.ndarray, x_o: np.ndarray | None = None) -> float:
    """Fraction of estimator draws predicted as class 0 (ties -> class 0).

    Kept only for the documented failure-mode comparison; unlike t_mse0 it is
    not a sufficient statistic for local consistency.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(points) == 0:
        raise ConfigurationError("need at least one evaluation point")
    d = np.asarray(clf.predict_proba(points, given=x_o))
    return float(np.mean(d <= 0.5))


# The largest binary64 log-odds l with nets.sigmoid(l) <= 1/2, found by a
# bisection over doubles: l <= CLASS0_LOGIT counts the same rows as
# sigmoid(l) <= 1/2, NaN and infinities included, without the exponentials.
CLASS0_LOGIT = float.fromhex("0x1.67fffffffffffp-53")


def _mse0(classifiers, points: np.ndarray, given: np.ndarray | None = None, class0: np.ndarray | None = None) -> np.ndarray:
    """``t_mse0`` of every member of the stack ``classifiers`` at the rows
    [points, given], summing (d - 1/2)^2 as tanh(l/2)^2 / 4: no branch on the
    sign of the log-odds l.  The stack's ``blocks`` give l/2 (``scale=0.5``),
    block by block, from one fold of ``given``.  A given ``class0`` gains
    each member's count of rows with sigmoid(l) <= 1/2 (as l/2 <=
    ``CLASS0_LOGIT / 2``), the tie rule of ``t_acc0``."""
    sq = np.zeros(len(classifiers))
    for _, half in classifiers.blocks(points, given, scale=0.5):
        if class0 is not None:
            class0 += (half <= CLASS0_LOGIT / 2).sum(axis=0)
        np.tanh(half, out=half)
        sq += np.einsum("ij,ij->j", half, half)
    return sq / (4.0 * len(points))


def single_class_statistics(classifiers, points: np.ndarray, given: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``t_mse0`` and ``t_acc0`` of every member of the stack ``classifiers``
    at the rows [points, given], from one scoring pass."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(points) == 0:
        raise ConfigurationError("need at least one evaluation point")
    class0 = np.zeros(len(classifiers))
    return _mse0(classifiers, points, given, class0), class0 / len(points)


def _two_class_statistics(classifiers, val: LabeledPairDataset) -> tuple[np.ndarray, np.ndarray]:
    """``t_acc`` and ``t_mse`` of every member of the stack ``classifiers``
    on the balanced set ``val``, from one scoring pass."""
    correct, sq = np.zeros(len(classifiers)), np.zeros((2, len(classifiers)))
    for rows, logits in classifiers.blocks(val.ws):
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
    """Outcome of one test at one observation: the statistic, its null
    statistics (None without a null) and the p-value ``rule`` the caller
    chose, "strict" or "conservative", from which ``p_value``, ``n_h`` and
    ``p_value_kind`` are read (None, 0 and None without a null).  ``points``
    are the rows its statistic scored, its ``draws`` and their ``given`` x_o
    appended when read (an oracle test's ``val`` rows), for the PP-plot and
    heatmap that explain it; they are not part of ``result.json``."""

    __test__ = False  # statistical test result, not a pytest case

    method: str
    statistic: float
    null_statistics: np.ndarray | None
    x_o: np.ndarray
    n_v: int
    seeds: dict
    rule: str = "strict"
    draws: np.ndarray | None = field(default=None, compare=False, repr=False)
    given: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        upper = METHODS.get(self.method)
        if upper is not None and not (-_EPS <= self.statistic <= upper + _EPS):
            raise ConfigurationError(
                f"statistic {self.statistic} outside [0, {upper}] for method {self.method!r}"
            )
        reject_unknown_keys([self.rule], _RULES, "p-value rule")
        nulls = None if self.null_statistics is None else np.asarray(self.null_statistics, dtype=np.float64)
        object.__setattr__(self, "null_statistics", None if nulls is None or nulls.size == 0 else nulls)

    @property
    def points(self) -> np.ndarray | None:
        return None if self.draws is None else append_conditioning(self.draws, self.given)

    @property
    def p_value(self) -> float | None:
        return None if self.null_statistics is None else p_value_from_null(self.statistic, self.null_statistics, _RULES[self.rule])

    @property
    def n_h(self) -> int:
        return 0 if self.null_statistics is None else self.null_statistics.size

    @property
    def p_value_kind(self) -> str | None:
        return None if self.null_statistics is None else self.rule

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
        save_json(self.to_json_dict(), path)


@dataclass
class NullEnsemble:
    """Classifiers fitted under a null construction, with the null's
    ``stream`` and the wall-clock seconds their fit took.  ``classifiers`` is
    the fitter's H-member model (a ``QdaModel`` or an ``MlpModel``): its
    ``blocks`` score every member at once and ``classifiers[h]`` is
    member h.  An empty null is never scored.  ``fitted_for`` records the
    tests the null is valid for (an ℓ-C2ST-NF null's ``method``, latent
    ``m``, ``n_cal``, ``d`` and ``fitter``); other nulls record nothing, so
    no test reuses them."""

    classifiers: object
    stream: RngStream | None = None
    fit_seconds: float = 0.0
    fitted_for: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.classifiers)

    @property
    def streams(self) -> list[tuple[int, int]]:
        """The seed ledger, keys of the member streams ``stream/trial/h``, derived when read."""
        return [] if self.stream is None else self.stream.child_keys("trial", len(self))


# ---------------------------------------------------------------------------
# Local test on the joint (theta, x) space
# ---------------------------------------------------------------------------


def _moment_rows(w: np.ndarray) -> np.ndarray:
    """Rows [w, vec(w w')]: summed over a class's rows, its sum and scatter."""
    return np.hstack([w, (w[:, :, None] * w[:, None, :]).reshape(len(w), -1)])


@dataclass(frozen=True)
class Relabeled:
    """Members of a label-permutation null: every member keeps ``data``'s
    rows under its own labels, all drawn by one generator on the ``perm``
    child of ``stream``.  Paired, member h's flips of the upper n/2 rows are
    row h of (n_null, n/2) random bits; free, its class-1 rows are a uniform
    subset, drawn member by member.  Member h never depends on ``n_null``.
    ``member_arrays`` gives the one feature table and all members' labels
    (what an MLP trains on), ``class_moments`` all their class moments at
    once (what QDA fits from); neither builds a member dataset."""

    data: LabeledPairDataset
    stream: RngStream
    n_null: int
    paired: bool

    def __post_init__(self) -> None:
        data = self.data
        if self.paired and (data.n % 2 or np.any(data.labels != (np.arange(data.n) >= data.n // 2))):
            raise ConfigurationError("paired permutation requires class-0 rows stacked above class-1 rows, equal counts")

    def __len__(self) -> int:
        return self.n_null

    def _labels(self) -> np.ndarray:
        """(H, ·) uint8, row h member h's flips of the upper n/2 rows if paired, else its n labels."""
        n, rng = self.data.n, self.stream.child("perm").generator()
        if self.paired:
            # 64 flips per raw Philox word, little-endian on every platform
            words = rng.bit_generator.random_raw((self.n_null, -(-n // 128))).astype("<u8", copy=False)
            return np.unpackbits(words.view(np.uint8), axis=1, count=n // 2, bitorder="little")
        out = np.zeros((self.n_null, n), dtype=np.uint8)
        for row in out:
            row[rng.choice(n, self.data.n_class1, replace=False)] = 1
        return out

    def member_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``data.ws``, the feature table every member shares, and the (H, n)
        uint8 label rows, a paired member's flips f expanded to [f, 1 - f]."""
        rows = self._labels()
        return self.data.ws, np.concatenate([rows, 1 - rows], axis=1) if self.paired else rows

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
        weights = self._labels()
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


def fit_null_ensemble(data: LabeledPairDataset, fit_fn, n_null: int, stream: RngStream, paired: bool = False) -> NullEnsemble:
    """Permutation null: refit on label-permuted copies, fresh labels per member.

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
    :class:`Relabeled` description, whose labels are one draw on ``stream``.
    """
    return _fit_null(lambda: Relabeled(data, stream, n_null, paired), fit_fn, n_null, stream)


def _fit_null(members, fit_fn, n_null: int, stream: RngStream, fitted_for=None):
    """The null of ``n_null`` members described by ``members()``, from one
    timed ``fit_fn.ensemble`` call.  The member streams ``stream/trial/h/fit``
    are derived only by fitters that read them (MLP), and the ledger only
    when it is read (:attr:`NullEnsemble.streams`)."""
    t0 = time.perf_counter()
    check_count("n_null", n_null, 0)

    def fit_streams():
        yield from (RngStream(*key).child("fit") for key in stream.child_keys("trial", n_null))
    classifiers = fit_fn.ensemble(members(), fit_streams())
    return NullEnsemble(classifiers, stream, time.perf_counter() - t0, fitted_for or {})


def _paired_table(w0: np.ndarray, w1: np.ndarray, xs: np.ndarray, bad_row: str) -> LabeledPairDataset:
    """``from_class_arrays`` of [w0, xs] and [w1, xs], written into one array.
    If the dataset's finiteness check fails, ``NumericError`` names the row."""
    n, m = w0.shape
    ws = np.empty((2 * n, m + xs.shape[1]))
    ws[:n, :m], ws[n:, :m], ws[:n, m:], ws[n:, m:] = w0, w1, xs, xs
    try:
        return LabeledPairDataset(ws, np.arange(2 * n) >= n)
    except ConfigurationError:  # the labels are valid, so a feature is not finite
        raise NumericError(f"{bad_row} {int(np.argmin(np.isfinite(ws).all(axis=1))) % n}") from None


def lc2st_training_set(estimator, cal: JointDataset, stream: RngStream) -> LabeledPairDataset:
    """Joint-space classification set: one estimator draw per calibration row
    (class 0) against the simulated pairs (class 1), same observations in both."""
    theta_q = np.asarray(estimator.sample_conditional(cal.xs, stream), dtype=np.float64)
    return _paired_table(theta_q, cal.thetas, cal.xs, "estimator produced non-finite draw at calibration row")


def lc2st_train(estimator, cal: JointDataset, fit_fn, n_null: int, stream: RngStream):
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


def lc2st_evaluate(
    clf, ensemble: NullEnsemble, estimator, x_o: np.ndarray, n_v: int, stream: RngStream, conservative: bool = False
) -> TestResult:
    """Local test statistic and p-value at ``x_o``.

    Fresh estimator draws are shared by the trained classifier and every null
    classifier, so all statistics are computed on the same sample set.
    """
    draw = lambda eval_stream: estimator.sample(np.asarray(x_o, dtype=np.float64), n_v, eval_stream)  # noqa: E731
    return _evaluate("lc2st", clf, ensemble, draw, x_o, n_v, stream, conservative)


def _evaluate(method: str, clf, ensemble: NullEnsemble, draw, x_o, n_v: int, stream: RngStream, conservative: bool):
    """``method``'s ``t_mse0`` test at ``x_o``: the classifier and every null
    member scored on the points ``draw(stream.child("eval"))``, ``x_o`` passed
    as ``given``; the result keeps the draws and x_o."""
    check_count("n_v", n_v, 1)
    points = np.atleast_2d(np.asarray(draw(stream.child("eval")), dtype=np.float64))
    nulls = _mse0(ensemble.classifiers, points, x_o) if len(ensemble) else None
    seeds = {"seed": int(stream.seed), "stream_id": int(stream.stream_id)}
    rule = "conservative" if conservative else "strict"
    return TestResult(method, t_mse0(clf, points, x_o), nulls, np.asarray(x_o), n_v, seeds, rule, points, x_o)


# ---------------------------------------------------------------------------
# Normalizing-flow specialization on the latent (z, x) space
# ---------------------------------------------------------------------------


def lc2st_nf_train(flow, cal: JointDataset, fit_fn, stream: RngStream):
    """Train the latent-space classifier for a flow estimator.

    Class 0 pairs fresh standard-normal latents with the calibration
    observations; class 1 uses the inverse-flow image of the simulated
    parameters (a failing flow's ``NumericError`` names the row).  Under a
    locally consistent flow both classes are standard normal at every
    observation.
    """
    if cal.n == 0:
        raise ConfigurationError("calibration set is empty")
    z0 = stream.child("z").generator().standard_normal((cal.n, flow.m))
    z_q, _ = flow.inverse(cal.thetas, cal.xs)
    return fit_fn(_paired_table(z0, z_q, cal.xs, "flow inverse produced non-finite latent at calibration row"), stream.child("fit"))


@dataclass(frozen=True)
class Resampled:
    """Members of the flow variant's null: member h pairs fresh
    standard-normal latents z (n, m), one per class, with the observations
    ``xs``.  ``class_moments`` draws the class moments a QDA member reads
    exactly (:meth:`statistics`); ``member_arrays`` hands an MLP the
    function :meth:`tables` that draws a chunk of members' rows, member h's
    from ``stream/trial/h/z``, so the two share no draws.  Member h never
    depends on ``n_null``."""

    xs: np.ndarray
    m: int
    stream: RngStream
    n_null: int

    def __len__(self) -> int:
        return self.n_null

    def member_arrays(self):
        """:meth:`tables` and the (H, 2n) label rows, class 0's n rows first."""
        n = len(self.xs)
        return self.tables, np.broadcast_to(np.arange(2 * n) >= n, (self.n_null, 2 * n))

    def tables(self, members: range) -> np.ndarray:
        """The (k, 2n, m + d) feature tables of a range of members: member
        h's latents z0 above z1, from ``stream/trial/h/z``, beside ``xs``."""
        n, m = len(self.xs), self.m
        out = np.empty((len(members), 2 * n, m + self.xs.shape[1]))
        out[:, :n, m:] = out[:, n:, m:] = self.xs
        keys = self.stream.child_keys("trial", members.stop)[members.start :] if len(members) else []  # none for a width probe
        for table, key in zip(out, keys):
            table[:, :m] = RngStream(*key).child("z").generator().standard_normal((2, n, m)).reshape(2 * n, m)
        return out

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, xc): the centred observations xc and their coordinates r
        (k, d_x) in an orthonormal basis q of xc's columns, xc = q r.  r is
        the pivoted Cholesky factor of xc'xc (r'r = xc'xc), stopped at
        pivots below the Gram matrix's rounding, so k is xc's rank and
        rank-deficient ``xs`` need no other path."""
        xc = self.xs - self.xs.mean(axis=0)
        gram = xc.T @ xc
        rest, rows = gram.copy(), []
        for _ in range(len(gram)):
            j = np.argmax(rest.diagonal())
            if rest[j, j] <= gram.diagonal().max() * max(xc.shape) * np.finfo(float).eps:
                break
            rows.append(rest[j] / np.sqrt(rest[j, j]))
            rest -= np.outer(rows[-1], rows[-1])
        return np.reshape(rows, (len(rows), len(gram))), xc

    def statistics(self) -> tuple[np.ndarray, np.ndarray]:
        """Every member's and class's (G, W), drawn exactly: for latents z of
        i.i.d. N(0, 1) and the orthonormal u = [1/sqrt(n), q] (see
        :attr:`basis`), G = u'z (H, 2, 1 + k, m) is i.i.d. N(0, 1) and
        W = z'z - G'G (H, 2, m, m) is Wishart_m(n - 1 - k, I), independent
        of G.  W is Bartlett's A A', A lower triangular with
        A_ii^2 ~ chi^2(n - 1 - k - i) and N(0, 1) below the diagonal.  One
        generator on ``stream.child("z")`` draws member by member."""
        m, n, rank = self.m, len(self.xs), len(self.basis[0])
        below, size = np.tril_indices(m, -1), (1 + rank) * m
        # a degree of freedom below 1 leaves a class too small for any QDA fit
        shapes = np.maximum(n - 1 - rank - np.arange(m), 0) / 2.0
        normals, chi2 = np.empty((self.n_null, 2, size + len(below[0]))), np.empty((self.n_null, 2, m))
        rng = self.stream.child("z").generator()
        for h in range(self.n_null):
            rng.standard_normal(out=normals[h])
            chi2[h] = 2.0 * rng.standard_gamma(shapes, (2, m))
        a = np.zeros((self.n_null, 2, m, m))
        a[..., below[0], below[1]] = normals[..., size:]
        a[..., range(m), range(m)] = np.sqrt(chi2)
        return normals[..., :size].reshape(self.n_null, 2, 1 + rank, m), a @ np.swapaxes(a, -1, -2)

    def moments(self, g: np.ndarray, w: np.ndarray):
        """(counts, centre, sums, scatters) as ``qda_fit_moments`` takes them,
        about (0, mean of ``xs``), of latents with the statistics (G, W):
        sum z = sqrt(n) G_0, z'z = G'G + W and z'xc = G_q' r."""
        r, xc = self.basis
        m, (n, d_x) = self.m, xc.shape
        sums = np.empty((*g.shape[:2], m + d_x))
        scatters = np.empty((*g.shape[:2], m + d_x, m + d_x))
        gt = np.swapaxes(g, -1, -2)
        sums[..., :m] = np.sqrt(n) * g[..., 0, :]
        sums[..., m:] = xc.sum(axis=0)
        scatters[..., :m, :m] = gt @ g + w
        scatters[..., :m, m:] = gt[..., 1:] @ r
        scatters[..., m:, :m] = np.swapaxes(scatters[..., :m, m:], -1, -2)
        scatters[..., m:, m:] = xc.T @ xc
        return np.full(g.shape[:2], n), np.concatenate([np.zeros(m), self.xs.mean(axis=0)]), sums, scatters

    def class_moments(self):
        """Every member's class moments, from O(m^2 + m d_x) draws per
        member and class instead of 2 n m."""
        return self.moments(*self.statistics())


def lc2st_nf_null(cal_xs: np.ndarray, m: int, fit_fn, n_null: int, stream: RngStream) -> NullEnsemble:
    """Estimator-independent null ensemble for the flow variant.

    Each member pairs fresh standard-normal latents for both classes with
    the same observations (:class:`Resampled`: QDA members draw their exact
    class moments, MLP members rows), so one ensemble is reusable across
    flows and observations, but only by ``lc2st-nf`` tests at its ``m``,
    n_cal, d and ``fit_fn``, which ``fitted_for`` records.  ``n_null=0``
    returns an empty ensemble.
    """
    cal_xs = np.atleast_2d(np.asarray(cal_xs, dtype=np.float64))
    fitted_for = {"method": "lc2st-nf", "m": m, "n_cal": len(cal_xs), "d": cal_xs.shape[1], "fitter": fit_fn}
    return _fit_null(lambda: Resampled(cal_xs, m, stream, n_null), fit_fn, n_null, stream, fitted_for)


def lc2st_nf_evaluate(
    clf, ensemble: NullEnsemble, x_o: np.ndarray, m: int, n_v: int, stream: RngStream, conservative: bool = False
) -> TestResult:
    """Flow-variant statistic and p-value at ``x_o``.

    Evaluation latents are standard normal and independent of the observation;
    the same draws feed the trained classifier and every null classifier.
    """
    draw = lambda eval_stream: eval_stream.generator().standard_normal((n_v, m))  # noqa: E731
    return _evaluate("lc2st-nf", clf, ensemble, draw, x_o, n_v, stream, conservative)


# ---------------------------------------------------------------------------
# One test of any method: the entry point of the harness, CLI and bench
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestRun:
    """One test's results, one per observation, with the main classifier and
    null ensemble they share, the wall-clock seconds of the ``train``,
    ``null`` and ``evaluate`` phases and the ``counts`` of work done:
    ``null_members``, the null members this call fitted."""

    __test__ = False  # statistical test run, not a pytest case

    results: list[TestResult]
    classifier: object
    ensemble: NullEnsemble
    seconds: dict
    counts: dict


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
    """One ``method`` test of ``estimator`` at each row of ``x_o``, one
    observation (d,) or a batch of them (k, d), from ``stream``.

    ``lc2st`` and ``lc2st-nf`` (whose ``estimator`` is a flow) simulate
    ``n_cal`` calibration pairs from ``task`` and train one classifier and
    one null, which never read ``x_o``; every row is then scored on the same
    ``stream.child("test")``, so row j's result is a one-observation test's
    at row j.  The oracle methods train on ``n_cal`` estimator and reference
    draws at their one observation against a free permutation null, and
    score ``t_acc`` or ``t_mse`` on ``n_v`` fresh draws of each.  Each
    result keeps the rows it scored as its ``points``.
    ``n_null=0`` leaves the null empty and the p-values None.  A given
    ``ensemble`` is the null (none is fitted, ``n_null`` is ignored) if its
    ``fitted_for`` is this test's ``method``, ``task.m``, ``n_cal``,
    ``task.d`` and ``fit_fn``; else ``ConfigurationError`` names the first
    field that differs or is missing.  Only :func:`lc2st_nf_null`, whose
    null is estimator-independent, records them, so only ``lc2st-nf`` reuses.

    ``train`` times building the training set and fitting the classifier,
    ``null`` is the fitted ensemble's ``fit_seconds`` and ``counts["null_members"]``
    its size (both 0 for a given or empty one), ``evaluate`` the draws and scoring at every observation.
    """
    reject_unknown_keys([method], METHODS, "method")
    check_count("n_cal", n_cal, 1)
    check_count("n_null", n_null, 0)
    check_count("n_v", n_v, 1)
    observations = np.atleast_2d(np.asarray(x_o, dtype=np.float64))
    if observations.ndim != 2 or observations.shape[1] != task.d:
        raise ConfigurationError(f"x_o must be a ({task.d},) observation or a (k, {task.d}) batch, got shape {np.shape(x_o)}")
    if not np.all(np.isfinite(observations)):
        row = int(np.argmin(np.isfinite(observations).all(axis=1)))
        raise ConfigurationError(f"x_o row {row} is not finite: {observations[row].tolist()}")
    if method.startswith("oracle"):
        if task.reference is None:
            raise ConfigurationError(f"oracle methods need a reference posterior for task {task.name!r}")
        if len(observations) != 1:
            raise ConfigurationError(f"oracle methods train at their observation: got {len(observations)}, need 1")
    elif len(observations) == 0:
        raise ConfigurationError("need at least one observation")
    if ensemble is not None:
        own = {"method": method, "m": task.m, "n_cal": n_cal, "d": task.d, "fitter": fit_fn}
        for name, value in own.items():
            if name not in ensemble.fitted_for or ensemble.fitted_for[name] != value:
                theirs = f"{name} {ensemble.fitted_for[name]!r}" if name in ensemble.fitted_for else f"no {name}"
                raise ConfigurationError(f"the given null was fitted for {theirs}, this test has {name} {value!r}")
    n_fit = n_null if ensemble is None else 0
    if method in ("lc2st", "lc2st-nf"):
        cal = task.sample_joint(n_cal, stream.child("cal"))
    t0 = time.perf_counter()
    if method == "lc2st":
        clf, ensemble = lc2st_train(estimator, cal, fit_fn, n_null, stream)
    elif method == "lc2st-nf":
        clf = lc2st_nf_train(estimator, cal, fit_fn, stream.child("train"))
        if ensemble is None:
            ensemble = lc2st_nf_null(cal.xs, task.m, fit_fn, n_null, stream.child("null"))
    else:
        x_o = observations[0]
        train = LabeledPairDataset.from_class_arrays(
            estimator.sample(x_o, n_cal, stream.child("q-train")),
            task.reference.sample(x_o, n_cal, stream.child("p-train")),
        )
        clf = fit_fn(train, stream.child("fit"))
        ensemble = fit_null_ensemble(train, fit_fn, n_null, stream.child("null"))
    t1 = time.perf_counter()
    test = stream.child("test")
    if method == "lc2st":
        results = [lc2st_evaluate(clf, ensemble, estimator, x, n_v, test, conservative) for x in observations]
    elif method == "lc2st-nf":
        results = [lc2st_nf_evaluate(clf, ensemble, x, task.m, n_v, test, conservative) for x in observations]
    else:
        val = LabeledPairDataset.from_class_arrays(
            estimator.sample(x_o, n_v, stream.child("q-val")),
            task.reference.sample(x_o, n_v, stream.child("p-val")),
        )
        stat = (t_acc if method == "oracle-c2st-acc" else t_mse)(clf, val)
        acc, mse = _two_class_statistics(ensemble.classifiers, val) if len(ensemble) else (None, None)
        seeds = {"seed": int(stream.seed), "stream_id": int(stream.stream_id)}
        nulls = acc if method == "oracle-c2st-acc" else mse
        results = [TestResult(method, stat, nulls, x_o, n_v, seeds, "conservative" if conservative else "strict", val.ws)]
    null = ensemble.fit_seconds if n_fit else 0.0
    seconds = {"train": t1 - t0 - null, "null": null, "evaluate": time.perf_counter() - t1}
    return TestRun(results, clf, ensemble, seconds, {"null_members": n_fit})


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

    The CDF is that of ``1 - clf.predict_proba(eval_ws)``.  The band at each
    level is the empirical [alpha/2, 1-alpha/2] quantile range of the null
    classifiers' CDFs on the same evaluation points.
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
    n = len(eval_ws)
    class0 = np.sort(1.0 - np.asarray(clf.predict_proba(eval_ws), dtype=np.float64))
    cdf = np.searchsorted(class0, levels, side="right") / n
    # Member rows counted by the number of levels below their class-0
    # probability accumulate to the ECDF numerators.
    members, width = ensemble.classifiers, len(levels) + 1
    counts = np.zeros(len(members) * width, dtype=np.int64)
    for _, logits in members.blocks(eval_ws):
        below = np.searchsorted(levels, 1.0 - sigmoid(logits), side="left")
        counts += np.bincount((below + width * np.arange(len(members))).ravel(), minlength=counts.size)
    cdfs = np.cumsum(counts.reshape(len(members), width), axis=1)[:, :-1] / n
    lower = np.quantile(cdfs, alpha / 2.0, axis=0)
    upper = np.quantile(cdfs, 1.0 - alpha / 2.0, axis=0)
    return PPPlotData(levels=levels, cdf=cdf, lower=lower, upper=upper)


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


def probability_heatmap(clf, flow, eval_ws: np.ndarray, bins: int) -> list[MarginalHeatmap]:
    """Mean class-0 probability per histogram bin, for all 1-D and 2-D marginals.

    ``eval_ws`` are the latent rows (z, x) the ℓ-C2ST-NF statistic scored
    (its result's ``points``): z, the first ``flow.m`` columns, is mapped
    through the flow at x to parameter space for binning, while the
    probabilities are those of the rows themselves -- high class-0
    probability marks regions where the estimator carries more mass than the
    joint data supports.
    """
    check_count("bins", bins, 2)
    eval_ws = np.atleast_2d(np.asarray(eval_ws, dtype=np.float64))
    if eval_ws.shape[1] != flow.m + flow.d:
        raise ConfigurationError(f"heatmap rows need {flow.m} latent and {flow.d} conditioning columns, got {eval_ws.shape[1]}")
    if len(eval_ws) == 0:
        raise ConfigurationError("need at least one sample")
    thetas, _ = flow.forward(eval_ws[:, : flow.m], eval_ws[:, flow.m :])
    d0 = 1.0 - np.asarray(clf.predict_proba(eval_ws))
    out: list[MarginalHeatmap] = []
    edges = [np.histogram_bin_edges(thetas[:, i], bins=bins) for i in range(flow.m)]
    for i in range(flow.m):
        counts, _ = np.histogram(thetas[:, i], bins=edges[i])
        sums, _ = np.histogram(thetas[:, i], bins=edges[i], weights=d0)
        out.append(MarginalHeatmap((i, i), edges[i], None, counts, np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)))
    for i in range(flow.m):
        for j in range(i + 1, flow.m):
            counts, _, _ = np.histogram2d(thetas[:, i], thetas[:, j], bins=(edges[i], edges[j]))
            sums, _, _ = np.histogram2d(thetas[:, i], thetas[:, j], bins=(edges[i], edges[j]), weights=d0)
            mean_prob = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
            out.append(MarginalHeatmap((i, j), edges[i], edges[j], counts.astype(np.int64), mean_prob))
    return out


def heatmap_rows(heatmaps: list[MarginalHeatmap]) -> list[tuple]:
    """Flatten heatmaps to (dim_i, dim_j, bin_i, bin_j, count, mean_prob) rows."""
    rows: list[tuple] = []
    for hm in heatmaps:
        counts, probs = (a.reshape(len(a), -1) for a in (hm.counts, hm.mean_prob))  # a 1-D marginal's bins: one column
        rows += [(*hm.dims, bi, bj, int(c), float(probs[bi, bj])) for (bi, bj), c in np.ndenumerate(counts)]
    return rows
