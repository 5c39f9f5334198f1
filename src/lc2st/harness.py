"""Experiment orchestration: rejection-rate sweeps, benchmarks, correlation studies.

A plan fixes the task, validation method, grids over simulation budgets, run
counts, and the master seed; every run derives its own stream from
``hash(master seed, n_train, n_cal, observation, run)`` so any single cell
rerun standalone reproduces its slice of the full sweep.  Type-I, power and
bench plans run their (cell, observation, run) triples through one loop.  The
estimator under test is an input to every test, as in sbibm: each ``n_train``
builds the task and the estimator once, from ``hash(master seed, n_train)``,
and its triples share them.  With ``LC2ST_THREADS`` = N > 1, each
``n_train``'s triples split into N contiguous chunks on a process pool, each
chunk building its own task and closed-form estimator; an NPE flow is
trained once, in the parent, and sent to every chunk.  With ``reuse_null``
(``lc2st-nf`` only) the sweep fits one null ensemble per cell and every triple
of the cell reuses it.  A bench plan is a type-I sweep timed per phase, run by
``run_type1``: its ``n_runs`` (>= 3) x ``n_observations`` triples per cell run
one at a time, never on the pool.

Result files split into a deterministic part (records + aggregates, byte-stable
for a fixed plan and seed) and the wall-clock medians per cell and phase
(``runtime.csv``), kept separate.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from numbers import Real
from pathlib import Path

import numpy as np

from . import c2st
from .classifiers import MlpConfig, mlp_factory, qda_factory
from .core import (
    ConfigurationError, LabeledPairDataset, Lc2stError, check_count, derive_stream, reject_unknown_keys, save_json,
)
from .flows import NpeConfig, build_coupling_flow, conjugate_affine_flow, flow_fit_npe
from .tasks import ConjugateGaussianPosterior, GaussianShiftPair, distort, gaussian_shift_samples, make_task

__all__ = [
    "METHODS",
    "ExperimentPlan",
    "RunRecord",
    "CellAggregate",
    "SweepResult",
    "run_type1",
    "run_power",
    "SigmaSweepResult",
    "run_sigma_sweep",
    "CorrelationResult",
    "run_oracle_correlation",
]

METHODS = ("oracle-c2st-acc", "oracle-c2st-mse", "lc2st", "lc2st-nf")


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass
class ExperimentPlan:
    """Declarative description of one sweep; serializes to/from JSON."""

    kind: str = "type1"
    task: str = "gaussian_conjugate"
    task_params: dict = field(default_factory=dict)
    method: str = "lc2st"
    n_train_grid: list = field(default_factory=lambda: [100, 1000, 10_000])
    n_cal_grid: list = field(default_factory=lambda: [100, 1000, 10_000])
    n_observations: int = 10
    n_runs: int = 50
    alpha: float = 0.05
    n_null: int = 100
    n_v: int = 10_000
    seed: int = 0
    classifier: dict = field(default_factory=lambda: {"kind": "qda"})
    estimator: dict = field(default_factory=lambda: {"kind": "exact"})
    sigma_grid: list | None = None
    n_per_class: int = 10_000
    reuse_null: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("type1", "power", "sigma-sweep", "correlation", "bench"):
            raise ConfigurationError(f"unknown plan kind {self.kind!r}")
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}; valid: {METHODS}")
        # a bench cell's phase times are medians over at least 3 runs
        n_runs_low = 3 if self.kind == "bench" else 1
        lows = {"n_observations": 1, "n_runs": n_runs_low, "n_v": 1, "n_per_class": 1, "n_null": 0, "seed": 0}
        for name, low in lows.items():
            check_count(name, getattr(self, name), low)
        for name in ("task_params", "classifier", "estimator"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigurationError(f"{name} must be an object, got {getattr(self, name)!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, Real) or not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be a number in (0, 1], got {self.alpha!r}")
        for name in ("n_train_grid", "n_cal_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not grid:
                raise ConfigurationError(f"{name} must be a nonempty list, got {grid!r}")
            for v in grid:
                check_count(f"{name} entry", v, 1)
        if self.sigma_grid is not None:
            if not isinstance(self.sigma_grid, (list, tuple)) or not self.sigma_grid:
                raise ConfigurationError(f"sigma_grid must be None or a nonempty list, got {self.sigma_grid!r}")
            for v in self.sigma_grid:
                if isinstance(v, bool) or not isinstance(v, Real) or not v > 0:
                    raise ConfigurationError(f"sigma_grid entry must be a positive number, got {v!r}")
        _estimator_kind(self.estimator)  # type-I runs never read the spec: check its keys here
        if self.reuse_null and (self.kind not in ("type1", "power", "bench") or self.method != "lc2st-nf"):
            raise ConfigurationError(
                "reuse_null needs a type-I, power or bench plan of method 'lc2st-nf', whose null is "
                f"estimator-independent; got a {self.kind!r} plan of method {self.method!r}"
            )
        if self.kind == "sigma-sweep":  # run_sigma_sweep reads none of these fields: they keep their defaults
            default = ExperimentPlan()
            for name in ("task", "method", "n_train_grid", "n_cal_grid", "n_observations", "estimator"):
                if getattr(self, name) != getattr(default, name):
                    raise ConfigurationError(f"a sigma-sweep plan does not read {name}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentPlan":
        reject_unknown_keys(data, {f.name for f in fields(ExperimentPlan)}, "plan key")
        return ExperimentPlan(**data)

    def save(self, path: str | Path) -> None:
        save_json(self.to_dict(), path)

    @staticmethod
    def load(path: str | Path) -> "ExperimentPlan":
        with Path(path).open("r", encoding="utf-8") as fh:
            return ExperimentPlan.from_dict(json.load(fh))


_CLASSIFIER_KEYS = {"qda": {"ridge"}, "mlp": {f.name for f in fields(MlpConfig)}}


def _classifier_fit(spec: dict):
    """Fit function for a spec of ``kind`` plus ``ridge`` (QDA) or MlpConfig fields (MLP)."""
    kind, params = spec.get("kind", "qda"), {k: v for k, v in spec.items() if k != "kind"}
    if kind not in _CLASSIFIER_KEYS:
        raise ConfigurationError(f"unknown classifier kind {kind!r}")
    reject_unknown_keys(params, _CLASSIFIER_KEYS[kind], f"{kind} classifier key")
    if kind == "qda":
        return qda_factory(**params)
    return mlp_factory(MlpConfig(**params))


_ESTIMATOR_KEYS = {
    "exact": set(),
    "distortion": {"shift", "scale"},
    "npe": {"n_layers", "hidden", "batch_size", "learning_rate", "max_epochs", "patience"},
}


def _estimator_kind(spec: dict) -> str:
    """The spec's ``kind``, once its other keys are checked against that kind."""
    kind = spec.get("kind", "exact")
    if kind not in _ESTIMATOR_KEYS:
        raise ConfigurationError(f"unknown estimator kind {kind!r}")
    reject_unknown_keys(set(spec) - {"kind"}, _ESTIMATOR_KEYS[kind], f"{kind} estimator key")
    return kind


def _build_estimator(spec: dict, task, flow: bool, n_train: int = 0, seed: int = 0):
    """The estimator ``spec`` names for ``task``, as a flow when ``flow``
    (lc2st-nf needs the inverse transform) and as a sampler otherwise.

    ``exact`` and ``distortion`` derive from the reference posterior, as a
    closed-form flow only for the conjugate task; ``npe`` trains a coupling
    flow on ``n_train`` pairs from ``hash(seed, "estimator", n_train)``.
    """
    kind = _estimator_kind(spec)
    if kind == "npe":
        stream = derive_stream(seed, "estimator", n_train)
        train = task.sample_joint(n_train, stream.child("npe-data"))
        net = build_coupling_flow(
            task.m,
            task.d,
            n_layers=spec.get("n_layers", 5),
            hidden=spec.get("hidden", (64, 64)),
            stream=stream.child("npe-init"),
        )
        settings = {k: v for k, v in spec.items() if k not in ("kind", "n_layers", "hidden")}
        cfg = NpeConfig(**{"max_epochs": 200, **settings})
        return flow_fit_npe(net, train, cfg, stream.child("npe-fit"))[0]
    reference = task.reference
    if reference is None:
        raise ConfigurationError(f"task {task.name!r} has no reference posterior")
    shift = spec.get("shift", 0.0)
    distorted = distort(reference, shift, spec.get("scale", 1.0))  # checks both values
    if not flow:
        return reference if kind == "exact" else distorted
    if not isinstance(reference, ConjugateGaussianPosterior):
        raise ConfigurationError(f"no closed-form flow for task {task.name!r}; train one with estimator kind 'npe'")
    if np.ndim(shift):
        raise ConfigurationError(f"estimator key 'shift' must be a scalar for a flow, got {shift!r}")
    return conjugate_affine_flow(task.m, reference.noise_std, scale_mult=distorted.scale,
                                 shift=float(distorted.mean_shift[0]))


# ---------------------------------------------------------------------------
# Sweep records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    n_train: int
    n_cal: int
    obs_index: int
    run_index: int
    statistic: float
    p_value: float | None
    reject: bool
    seed: int
    stream_id: int


@dataclass(frozen=True)
class CellAggregate:
    n_train: int
    n_cal: int
    rejection_rate: float
    se: float
    n: int


@dataclass
class SweepResult:
    plan: ExperimentPlan
    records: list[RunRecord]
    timings: list[dict]
    small_sample_warning: bool
    null_fit_seconds: float = 0.0  # the shared nulls' fit time under reuse_null, else 0

    def aggregates(self) -> list[CellAggregate]:
        """Rejection rate and binomial SE per cell, recomputed from the records."""
        out = []
        for nt in self.plan.n_train_grid:
            for nc in self.plan.n_cal_grid:
                cell = [r for r in self.records if r.n_train == nt and r.n_cal == nc]
                if not cell:
                    continue
                rate = float(np.mean([r.reject for r in cell]))
                se = float(np.sqrt(rate * (1.0 - rate) / len(cell)))
                out.append(CellAggregate(nt, nc, rate, se, len(cell)))
        return out

    def monotonicity_report(self) -> dict:
        """Per n_train row: is TPR nondecreasing in n_cal within one SE of the difference?"""
        report = {}
        for nt in self.plan.n_train_grid:
            cells = sorted(
                (a for a in self.aggregates() if a.n_train == nt), key=lambda a: a.n_cal
            )
            ok = True
            for prev, cur in zip(cells, cells[1:]):
                slack = float(np.hypot(prev.se, cur.se))
                if cur.rejection_rate < prev.rejection_rate - slack:
                    ok = False
            report[nt] = ok
        return report

    def to_json_dict(self) -> dict:
        # Deterministic payload: wall-clock fields live in the runtime table only.
        return {
            "plan": self.plan.to_dict(),
            "records": [asdict(r) for r in self.records],
            "aggregates": [asdict(a) for a in self.aggregates()],
            "small_sample_warning": self.small_sample_warning,
        }

    def save_json(self, path: str | Path) -> None:
        save_json(self.to_json_dict(), path)

    def save_rates_csv(self, path: str | Path, value_name: str = "rate") -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(f"n_train,n_cal,{value_name},se\n")
            for a in self.aggregates():
                fh.write(f"{a.n_train},{a.n_cal},{a.rejection_rate!r},{a.se!r}\n")

    def phase_medians(self) -> list[dict]:
        """Median seconds of each phase per cell, cells in sorted order: the rows of ``runtime.csv``."""
        rows = []
        for nt, nc in sorted({(t["n_train"], t["n_cal"]) for t in self.timings}):
            for phase in ("train", "null", "evaluate"):
                vals = [t[phase] for t in self.timings if t["n_train"] == nt and t["n_cal"] == nc]
                rows.append({"method": self.plan.method, "n_train": nt, "n_cal": nc, "phase": phase,
                             "median_seconds": float(np.median(vals))})
        return rows

    def save_runtime_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write("method,n_train,n_cal,phase,median_seconds\n")
            for r in self.phase_medians():
                fh.write(f"{r['method']},{r['n_train']},{r['n_cal']},{r['phase']},{r['median_seconds']!r}\n")


# ---------------------------------------------------------------------------
# Single-run execution
# ---------------------------------------------------------------------------


def _observation(plan: ExperimentPlan, task, obs_index: int):
    return task.observation(derive_stream(plan.seed, "obs", obs_index))


def _job_inputs(plan: ExperimentPlan, spec: dict, n_train: int, estimator=None):
    """The task, the classifier fit and the estimator (``estimator`` if
    given) of one ``n_train``'s triples; a library error names the cell."""
    try:
        task = make_task(plan.task, **plan.task_params)
        fit_fn = _classifier_fit(plan.classifier)
        if estimator is None:
            estimator = _build_estimator(spec, task, plan.method == "lc2st-nf", n_train, plan.seed)
    except Lc2stError as exc:
        raise type(exc)(f"cell (n_train={n_train}): {exc}") from exc
    return task, fit_fn, estimator


def _run_job(plan: ExperimentPlan, spec: dict, n_train: int, triples: list, estimator=None):
    """The (n_cal, observation, run, ensemble) ``triples`` of one ``n_train``,
    all testing the estimator built (or given, built so) from the ``spec``
    and the ``n_train`` alone, so any split of a cell's triples into jobs
    gives the same records.  Returns (record, timing) dicts."""
    task, fit_fn, estimator = _job_inputs(plan, spec, n_train, estimator)
    return [_run_single(plan, task, estimator, fit_fn, n_train, *triple) for triple in triples]


def _run_single(plan: ExperimentPlan, task, estimator, fit_fn, n_train: int, n_cal: int, obs_index: int,
                run_index: int, ensemble):
    """Execute one (cell, observation, run) triple, reusing ``ensemble`` if
    given; returns (record, timing) dicts.  A library error is re-raised as
    its own type with the cell in its message."""
    try:
        _, x_o = _observation(plan, task, obs_index)
        stream = derive_stream(plan.seed, "run", n_train, n_cal, obs_index, run_index)
        run = c2st.run_test(
            plan.method, task, estimator, x_o, n_cal, plan.n_null, plan.n_v, fit_fn, stream, ensemble=ensemble
        )
    except Lc2stError as exc:
        raise type(exc)(f"cell (n_train={n_train}, n_cal={n_cal}, obs={obs_index}, run={run_index}): {exc}") from exc
    result = run.results[0]
    reject = result.p_value is not None and result.p_value < plan.alpha
    record = {
        "n_train": n_train,
        "n_cal": n_cal,
        "obs_index": obs_index,
        "run_index": run_index,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "reject": bool(reject),
        "seed": stream.seed,
        "stream_id": stream.stream_id,
    }
    return record, {"n_train": n_train, "n_cal": n_cal, **run.seconds}


def _run_sweep(plan: ExperimentPlan, spec: dict) -> SweepResult:
    """Every (cell, observation, run) triple of ``plan``, one job per
    ``n_train`` or, on a pool of N workers, N per ``n_train``.  With
    ``reuse_null`` each cell's null is fitted here, once, on a calibration
    draw of its own, and every triple of the cell reuses it.  An NPE flow is
    trained here too, once per ``n_train``, and every job of the ``n_train``
    tests it.  A bench plan's triples run one at a time, so that their
    timings do not share the machine."""
    nulls = {}
    if plan.reuse_null:
        task = make_task(plan.task, **plan.task_params)
        fit_fn = _classifier_fit(plan.classifier)
        for nt in map(int, plan.n_train_grid):
            for nc in map(int, plan.n_cal_grid):
                stream0 = derive_stream(plan.seed, "bench-null", nt, nc)
                cal0 = task.sample_joint(nc, stream0.child("cal"))
                nulls[nt, nc] = c2st.lc2st_nf_null(cal0.xs, task.m, fit_fn, plan.n_null, stream0.child("null"))
    workers = 1 if plan.kind == "bench" else max(1, int(os.environ.get("LC2ST_THREADS", "1")))
    jobs = []
    for nt in map(int, plan.n_train_grid):
        triples = [
            (int(nc), obs, run, nulls.get((nt, int(nc))))
            for nc in plan.n_cal_grid
            for obs in range(plan.n_observations)
            for run in range(plan.n_runs)
        ]
        flow = _job_inputs(plan, spec, nt)[2] if spec.get("kind") == "npe" else None
        size = -(-len(triples) // workers)  # at most `workers` contiguous chunks
        jobs += [(plan, spec, nt, triples[i:i + size], flow) for i in range(0, len(triples), size)]
    if workers > 1:
        # tasks and closed-form flows hold closures and cannot be pickled:
        # each job builds its own task and closed-form estimator
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = [out for job in pool.map(_run_job, *zip(*jobs)) for out in job]
    else:
        outputs = [out for job in jobs for out in _run_job(*job)]
    records = [RunRecord(**rec) for rec, _ in outputs]
    timings = [t for _, t in outputs]
    records.sort(key=lambda r: (r.n_train, r.n_cal, r.obs_index, r.run_index))
    return SweepResult(
        plan=plan,
        records=records,
        timings=timings,
        small_sample_warning=plan.n_runs == 1,
        null_fit_seconds=sum((null.fit_seconds for null in nulls.values()), 0.0),
    )


def run_type1(plan: ExperimentPlan) -> SweepResult:
    """Rejection rates with the estimator set to the exact reference (null holds).

    A bench plan runs here too, its triples one at a time for their timings
    (``SweepResult.phase_medians``).  With ``reuse_null`` the null phase
    reports exactly zero, which is the amortization being measured, and
    ``SweepResult.null_fit_seconds`` holds what the shared nulls cost.
    """
    return _run_sweep(plan, {"kind": "exact"})


def run_power(plan: ExperimentPlan) -> SweepResult:
    """True-positive rates for the plan's (non-identity) estimator."""
    spec = plan.estimator
    kind = _estimator_kind(spec)
    if kind == "exact":
        raise ConfigurationError("power runs need a non-exact estimator spec")
    task = make_task(plan.task, **plan.task_params)
    if kind == "distortion" and _build_estimator(spec, task, flow=False).is_identity:
        raise ConfigurationError("estimator is the identity distortion; it does not differ from the reference")
    return _run_sweep(plan, spec)


# ---------------------------------------------------------------------------
# Shift-pair power sweep (two bivariate Normals, QDA-style experiment)
# ---------------------------------------------------------------------------


@dataclass
class SigmaSweepResult:
    plan: ExperimentPlan
    sigmas: list[float]
    records: list[dict]  # per (sigma, run): statistics and p-values for both tests

    def power(self, which: str) -> dict[float, tuple[float, float]]:
        """sigma -> (tpr, se) for 'mse0' or 'acc0'."""
        out = {}
        for sig in self.sigmas:
            rejects = [r[f"reject_{which}"] for r in self.records if r["sigma"] == sig]
            rate = float(np.mean(rejects))
            out[sig] = (rate, float(np.sqrt(rate * (1 - rate) / len(rejects))))
        return out

    def save_power_csv(self, path: str | Path, which: str = "mse0") -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write("sigma,n_runs,tpr,se\n")
            power = self.power(which)
            for sig in self.sigmas:
                tpr, se = power[sig]
                fh.write(f"{sig!r},{self.plan.n_runs},{tpr!r},{se!r}\n")


def run_sigma_sweep(plan: ExperimentPlan) -> SigmaSweepResult:
    """Power of the single-class MSE and accuracy tests across covariance scales.

    For each sigma and run: fit the classifier on n_per_class draws from each
    of N(0, I) and N(0, sigma^2 I), build the permutation null, and test both
    single-class statistics on the same fresh estimator-class draws.
    """
    if not plan.sigma_grid:
        raise ConfigurationError("sigma-sweep plans need a sigma_grid")
    if plan.n_null < 1:
        raise ConfigurationError("sigma-sweep plans need n_null >= 1: their p-values come from the null")
    reject_unknown_keys(plan.task_params, {"dim"}, "sigma-sweep task key")
    fit_fn = _classifier_fit(plan.classifier)
    dim = plan.task_params.get("dim", 2)
    records: list[dict] = []
    for sig in plan.sigma_grid:
        pair = GaussianShiftPair(sigma=float(sig), dim=dim)
        for run in range(plan.n_runs):
            stream = derive_stream(plan.seed, "sigma", repr(float(sig)), run)
            theta_p, theta_q = gaussian_shift_samples(pair, plan.n_per_class, stream.child("train"))
            train = LabeledPairDataset.from_class_arrays(theta_q, theta_p)
            val_q = pair.sample_q(plan.n_v, stream.child("val"))
            clf = fit_fn(train, stream.child("fit"))
            ensemble = c2st.fit_null_ensemble(train, fit_fn, plan.n_null, stream.child("null"))
            stat_mse0, stat_acc0 = c2st.t_mse0(clf, val_q), c2st.t_acc0(clf, val_q)
            mse0, acc0 = c2st.single_class_statistics(ensemble.classifiers, val_q)
            p_mse0 = c2st.p_value_from_null(stat_mse0, mse0)
            p_acc0 = c2st.p_value_from_null(stat_acc0, acc0)
            records.append(
                {
                    "sigma": float(sig),
                    "run": run,
                    "stat_mse0": stat_mse0,
                    "p_mse0": p_mse0,
                    "reject_mse0": bool(p_mse0 < plan.alpha),
                    "stat_acc0": stat_acc0,
                    "p_acc0": p_acc0,
                    "reject_acc0": bool(p_acc0 < plan.alpha),
                }
            )
    return SigmaSweepResult(plan=plan, sigmas=[float(s) for s in plan.sigma_grid], records=records)


# ---------------------------------------------------------------------------
# Oracle correlation study
# ---------------------------------------------------------------------------


@dataclass
class CorrelationResult:
    pairs: list[dict]  # per observation: oracle statistic, local statistic, distortion level
    spearman_rho: float
    p_value: float


def run_oracle_correlation(plan: ExperimentPlan, n_permutations: int = 10_000) -> CorrelationResult:
    """Oracle vs local statistics across observations with graded distortions.

    The plan's distortion spec sets the maximum distortion; observation i gets
    fraction (i+1)/n_observations of it, so the ground-truth ordering of
    estimator quality across observations is known.  Rank correlation is
    Spearman's rho with a one-sided permutation p-value.
    """
    if plan.n_observations < 2:
        raise ConfigurationError("correlation needs at least 2 observations")
    task = make_task(plan.task, **plan.task_params)
    spec = plan.estimator
    kind = _estimator_kind(spec)
    if kind not in ("exact", "distortion"):
        raise ConfigurationError("correlation study expects an exact or distortion estimator spec")
    _build_estimator(spec, task, flow=False)  # checks the spec's values before they are graded
    exact = kind == "exact"
    fit_fn = _classifier_fit(plan.classifier)
    n_cal = int(plan.n_cal_grid[-1])
    pairs = []
    for i in range(plan.n_observations):
        frac = 0.0 if exact else (i + 1) / plan.n_observations
        graded = spec if exact else {
            "kind": kind,
            "shift": np.asarray(spec.get("shift", 0.0)) * frac,
            "scale": 1.0 + (spec.get("scale", 1.0) - 1.0) * frac,
        }
        estimator = _build_estimator(graded, task, flow=False)
        _, x_o = _observation(plan, task, i)
        stream = derive_stream(plan.seed, "corr", i)
        # the oracle and the local statistic at x_o, neither with a null
        # ensemble; the local test's streams are apart from the oracle's
        oracle = c2st.run_test("oracle-c2st-mse", task, estimator, x_o, n_cal, 0, plan.n_v, fit_fn, stream)
        local = c2st.run_test("lc2st", task, estimator, x_o, n_cal, 0, plan.n_v, fit_fn, stream.child("local"))
        pairs.append({
            "obs_index": i, "distortion_frac": frac,
            "oracle": oracle.results[0].statistic, "local": local.results[0].statistic,
        })

    # imported here, not at module level: scipy.stats is most of the time and
    # memory of `import lc2st`, and only this study needs it
    from scipy.stats import rankdata

    a = rankdata([p["oracle"] for p in pairs])
    b = rankdata([p["local"] for p in pairs])
    a, b = a - a.mean(), b - b.mean()

    def rho(bs: np.ndarray) -> np.ndarray:
        # Pearson's r of the ranks, per row of bs: a permutation keeps b's norm
        return bs @ a / np.sqrt((a @ a) * (b @ b))

    observed = rho(b)
    rng = derive_stream(plan.seed, "corr", "perm").generator()
    permuted = rho(rng.permuted(np.tile(b, (n_permutations, 1)), axis=1))
    p_value = (1 + np.count_nonzero(permuted >= observed)) / (n_permutations + 1)
    return CorrelationResult(pairs=pairs, spearman_rho=float(observed), p_value=float(p_value))
