"""Experiment orchestration: rejection-rate sweeps, benchmarks, correlation studies.

A plan fixes the task, validation method, grids over simulation budgets, run
counts, and the master seed; every run derives its own stream from
``hash(master seed, n_train, n_cal, observation, run)`` so any single cell
rerun standalone reproduces its slice of the full sweep.  Set ``LC2ST_THREADS``
to run independent (cell, observation, run) triples on a process pool.

Result files split into a deterministic part (records + aggregates, byte-stable
for a fixed plan and seed) and wall-clock tables kept separate.
"""

from __future__ import annotations

import json
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import c2st
from .classifiers import MlpConfig, mlp_factory, qda_factory
from .core import ConfigurationError, LabeledPairDataset, Lc2stError, RngStream, derive_stream, reject_unknown_keys
from .flows import NpeConfig, build_coupling_flow, conjugate_affine_flow, flow_fit_npe
from .tasks import GaussianShiftPair, distort, gaussian_shift_samples, make_task

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
    "BenchResult",
    "run_runtime_bench",
    "AmortizedResult",
    "run_amortized_type1",
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
    n_reps: int = 3
    reuse_null: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("type1", "power", "sigma-sweep", "correlation", "bench"):
            raise ConfigurationError(f"unknown plan kind {self.kind!r}")
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}; valid: {METHODS}")
        lows = {"n_observations": 1, "n_runs": 1, "n_v": 1, "n_per_class": 1, "n_reps": 1, "n_null": 0, "seed": 0}
        for name, low in lows.items():
            _check_count(name, getattr(self, name), low)
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, Real) or not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be a number in (0, 1], got {self.alpha!r}")
        for name in ("n_train_grid", "n_cal_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not grid:
                raise ConfigurationError(f"{name} must be a nonempty list, got {grid!r}")
            for v in grid:
                _check_count(f"{name} entry", v, 1)
        _estimator_kind(self.estimator)  # type-I runs never read the spec: check its keys here

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentPlan":
        reject_unknown_keys(data, {f.name for f in fields(ExperimentPlan)}, "plan key")
        return ExperimentPlan(**data)

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str | Path) -> "ExperimentPlan":
        with Path(path).open("r", encoding="utf-8") as fh:
            return ExperimentPlan.from_dict(json.load(fh))


def _check_count(name: str, value, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")


_CLASSIFIER_KEYS = {"qda": {"ridge"}, "mlp": {f.name for f in fields(MlpConfig)}}


def _classifier_fit(spec: dict):
    """Fit function for a spec of ``kind`` plus ``ridge`` (QDA) or MlpConfig fields (MLP)."""
    kind, params = spec.get("kind", "qda"), {k: v for k, v in spec.items() if k != "kind"}
    if kind not in _CLASSIFIER_KEYS:
        raise ConfigurationError(f"unknown classifier kind {kind!r}")
    reject_unknown_keys(params, _CLASSIFIER_KEYS[kind], f"{kind} classifier key")
    if kind == "qda":
        return qda_factory(**params)
    if params.get("hidden_sizes") is not None:
        params["hidden_sizes"] = tuple(params["hidden_sizes"])
    return mlp_factory(MlpConfig(**params))


def _shift_vector(shift, m: int) -> np.ndarray:
    arr = np.asarray(shift, dtype=np.float64)
    return np.full(m, float(arr)) if arr.ndim == 0 else arr


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


def _sampler_estimator(plan: ExperimentPlan, task, n_train: int, stream: RngStream):
    """Estimator q(.|x) as a sampler (for lc2st and the oracle methods)."""
    spec = plan.estimator
    kind = _estimator_kind(spec)
    if kind == "exact":
        if task.reference is None:
            raise ConfigurationError(f"task {task.name!r} has no reference posterior")
        return task.reference
    if kind == "distortion":
        if task.reference is None:
            raise ConfigurationError(f"task {task.name!r} has no reference posterior to distort")
        return distort(
            task.reference,
            _shift_vector(spec.get("shift", 0.0), task.m),
            spec.get("scale", 1.0),
        )
    return _npe_flow(plan, task, n_train, stream)


def _npe_flow(plan: ExperimentPlan, task, n_train: int, stream: RngStream):
    spec = plan.estimator
    train = task.sample_joint(n_train, stream.child("npe-data"))
    flow = build_coupling_flow(
        task.m,
        task.d,
        n_layers=spec.get("n_layers", 5),
        hidden=tuple(spec.get("hidden", (64, 64))),
        stream=stream.child("npe-init"),
    )
    cfg = NpeConfig(
        batch_size=spec.get("batch_size", 100),
        learning_rate=spec.get("learning_rate", 1e-3),
        max_epochs=spec.get("max_epochs", 200),
        patience=spec.get("patience", 20),
    )
    fitted, _ = flow_fit_npe(flow, train, cfg, stream.child("npe-fit"))
    return fitted


def _flow_estimator(plan: ExperimentPlan, task, n_train: int, stream: RngStream):
    """Estimator as a flow (for lc2st-nf, which needs the inverse transform)."""
    spec = plan.estimator
    kind = _estimator_kind(spec)
    if kind in ("exact", "distortion"):
        if task.name != "gaussian_conjugate":
            raise ConfigurationError(
                f"no closed-form flow for task {task.name!r}; train one with estimator kind 'npe'"
            )
        noise_std = plan.task_params.get("noise_std", 1.0)
        if kind == "exact":
            return conjugate_affine_flow(task.m, noise_std)
        return conjugate_affine_flow(
            task.m,
            noise_std,
            scale_mult=spec.get("scale", 1.0),
            shift=float(spec.get("shift", 0.0)),
        )
    return _npe_flow(plan, task, n_train, stream)


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
        with Path(path).open("w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def save_rates_csv(self, path: str | Path, value_name: str = "rate") -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(f"n_train,n_cal,{value_name},se\n")
            for a in self.aggregates():
                fh.write(f"{a.n_train},{a.n_cal},{a.rejection_rate!r},{a.se!r}\n")

    def save_runtime_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write("method,n_train,n_cal,phase,median_seconds\n")
            cells = sorted({(t["n_train"], t["n_cal"]) for t in self.timings})
            for nt, nc in cells:
                for phase in ("train", "null", "evaluate"):
                    vals = [t[phase] for t in self.timings if t["n_train"] == nt and t["n_cal"] == nc]
                    fh.write(f"{self.plan.method},{nt},{nc},{phase},{float(np.median(vals))!r}\n")


# ---------------------------------------------------------------------------
# Single-run execution (shared by sweeps and the bench)
# ---------------------------------------------------------------------------


def _observation(plan: ExperimentPlan, task, obs_index: int):
    return task.observation(derive_stream(plan.seed, "obs", obs_index))


def _run_single(plan_dict: dict, n_train: int, n_cal: int, obs_index: int, run_index: int, alternative: bool):
    """Execute one (cell, observation, run) triple; returns (record, timing) dicts.
    A library error is re-raised as its own type with the cell in its message."""
    try:
        plan = ExperimentPlan.from_dict(plan_dict)
        task = make_task(plan.task, **plan.task_params)
        _, x_o = _observation(plan, task, obs_index)
        stream = derive_stream(plan.seed, "run", n_train, n_cal, obs_index, run_index)
        estimator = _exact_or_alt(plan, task, n_train, stream, alternative, flow=plan.method == "lc2st-nf")
        run = c2st.run_test(
            plan.method, task, estimator, x_o, n_cal, plan.n_null, plan.n_v, _classifier_fit(plan.classifier), stream
        )
    except Lc2stError as exc:
        raise type(exc)(f"cell (n_train={n_train}, n_cal={n_cal}, obs={obs_index}, run={run_index}): {exc}") from exc
    result = run.result
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


def _exact_or_alt(plan: ExperimentPlan, task, n_train: int, stream: RngStream, alternative: bool, flow: bool):
    """Exact reference (null runs) or the plan's estimator (power runs)."""
    if alternative:
        build = _flow_estimator if flow else _sampler_estimator
        return build(plan, task, n_train, stream.child("estimator-build"))
    if flow:
        null_plan = ExperimentPlan.from_dict({**plan.to_dict(), "estimator": {"kind": "exact"}})
        return _flow_estimator(null_plan, task, n_train, stream.child("estimator-build"))
    if task.reference is None:
        raise ConfigurationError(f"task {task.name!r} has no reference posterior")
    return task.reference


def _pool_map(args_list: list[tuple]):
    workers = int(os.environ.get("LC2ST_THREADS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_single_star, args_list))
    return [_run_single_star(a) for a in args_list]


def _run_single_star(args: tuple):
    return _run_single(*args)


def _run_sweep(plan: ExperimentPlan, alternative: bool) -> SweepResult:
    args = [
        (plan.to_dict(), int(nt), int(nc), obs, run, alternative)
        for nt in plan.n_train_grid
        for nc in plan.n_cal_grid
        for obs in range(plan.n_observations)
        for run in range(plan.n_runs)
    ]
    outputs = _pool_map(args)
    records = [RunRecord(**rec) for rec, _ in outputs]
    timings = [t for _, t in outputs]
    records.sort(key=lambda r: (r.n_train, r.n_cal, r.obs_index, r.run_index))
    return SweepResult(
        plan=plan,
        records=records,
        timings=timings,
        small_sample_warning=plan.n_runs == 1,
    )


def run_type1(plan: ExperimentPlan) -> SweepResult:
    """Rejection rates with the estimator set to the exact reference (null holds)."""
    task = make_task(plan.task, **plan.task_params)
    if task.reference is None:
        raise ConfigurationError(f"type-I runs need a reference posterior; task {plan.task!r} has none")
    return _run_sweep(plan, alternative=False)


def run_power(plan: ExperimentPlan) -> SweepResult:
    """True-positive rates for the plan's (non-identity) estimator."""
    spec = plan.estimator
    kind = _estimator_kind(spec)
    if kind == "exact":
        raise ConfigurationError("power runs need a non-exact estimator spec")
    if kind == "distortion":
        scale = spec.get("scale", 1.0)
        shift = np.asarray(spec.get("shift", 0.0), dtype=np.float64)
        if scale == 1.0 and not np.any(shift):
            raise ConfigurationError(
                "estimator is the identity distortion; it does not differ from the reference"
            )
    return _run_sweep(plan, alternative=True)


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
    fit_fn = _classifier_fit(plan.classifier)
    dim = int(plan.task_params.get("dim", 2))
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
            mse0, acc0 = c2st.single_class_statistics(ensemble.with_main(clf), val_q)
            stat_mse0, stat_acc0 = float(mse0[0]), float(acc0[0])
            p_mse0 = c2st.p_value_from_null(stat_mse0, mse0[1:])
            p_acc0 = c2st.p_value_from_null(stat_acc0, acc0[1:])
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
    if task.reference is None:
        raise ConfigurationError("correlation study needs a reference posterior")
    spec = plan.estimator
    kind = _estimator_kind(spec)
    if kind not in ("exact", "distortion"):
        raise ConfigurationError("correlation study expects an exact or distortion estimator spec")
    exact = kind == "exact"
    fit_fn = _classifier_fit(plan.classifier)
    n_cal = int(plan.n_cal_grid[-1])
    pairs = []
    for i in range(plan.n_observations):
        frac = 0.0 if exact else (i + 1) / plan.n_observations
        estimator = task.reference if exact else distort(
            task.reference,
            _shift_vector(np.asarray(spec.get("shift", 0.0)) * frac, task.m),
            1.0 + (spec.get("scale", 1.0) - 1.0) * frac,
        )
        _, x_o = _observation(plan, task, i)
        stream = derive_stream(plan.seed, "corr", i)
        # oracle two-class MSE statistic at x_o (no null ensemble)
        oracle_stat = c2st.run_test("oracle-c2st-mse", task, estimator, x_o, n_cal, 0, plan.n_v, fit_fn, stream).result.statistic
        # local single-class statistic at x_o (statistic only, no null ensemble)
        cal = task.sample_joint(n_cal, stream.child("cal"))
        data = c2st.lc2st_training_set(estimator, cal, stream.child("estimator"))
        clf = fit_fn(data, stream.child("lfit"))
        local_stat = c2st.t_mse0(
            clf, estimator.sample(x_o, plan.n_v, stream.child("leval")), x_o
        )
        pairs.append({"obs_index": i, "distortion_frac": frac, "oracle": oracle_stat, "local": local_stat})

    # imported here, not at module level: scipy.stats is most of the time and
    # memory of `import lc2st`, and only this study needs it
    from scipy.stats import rankdata

    a = rankdata([p["oracle"] for p in pairs])
    b = rankdata([p["local"] for p in pairs])
    rho = float(np.corrcoef(a, b)[0, 1])
    rng = derive_stream(plan.seed, "corr", "perm").generator()
    exceed = 0
    for _ in range(n_permutations):
        rho_perm = float(np.corrcoef(a, rng.permutation(b))[0, 1])
        if rho_perm >= rho:
            exceed += 1
    p_value = (1 + exceed) / (n_permutations + 1)
    return CorrelationResult(pairs=pairs, spearman_rho=rho, p_value=float(p_value))


# ---------------------------------------------------------------------------
# Runtime bench
# ---------------------------------------------------------------------------


@dataclass
class BenchResult:
    plan: ExperimentPlan
    rows: list[dict]  # method, n_train, n_cal, phase, median_seconds
    machine: dict

    def save_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write("method,n_train,n_cal,phase,median_seconds\n")
            for row in self.rows:
                fh.write(
                    f"{row['method']},{row['n_train']},{row['n_cal']},{row['phase']},{row['median_seconds']!r}\n"
                )


def run_runtime_bench(plan: ExperimentPlan) -> BenchResult:
    """Median per-phase wall-clock over >= 3 repetitions per cell.

    With ``reuse_null=True`` (flow variant) the null ensemble is precomputed
    once per cell and passed to every repetition's ``run_test``, so the null
    phase reports exactly zero, which is the amortization being measured.
    """
    task = make_task(plan.task, **plan.task_params)
    fit_fn = _classifier_fit(plan.classifier)
    rows: list[dict] = []
    for nt in plan.n_train_grid:
        for nc in plan.n_cal_grid:
            phase_times: dict[str, list[float]] = {"train": [], "null": [], "evaluate": []}
            reuse = plan.reuse_null and plan.method == "lc2st-nf"
            shared_ensemble = None
            if reuse:
                stream0 = derive_stream(plan.seed, "bench-null", int(nt), int(nc))
                cal0 = task.sample_joint(int(nc), stream0.child("cal"))
                shared_ensemble = c2st.lc2st_nf_null(
                    cal0.xs, task.m, fit_fn, max(plan.n_null, 1), stream0.child("null")
                )
            for rep in range(max(plan.n_reps, 3)):
                if reuse:
                    stream = derive_stream(plan.seed, "bench", int(nt), int(nc), rep)
                    _, x_o = _observation(plan, task, 0)
                    flow = _exact_or_alt(plan, task, int(nt), stream, alternative=False, flow=True)
                    timing = c2st.run_test(
                        "lc2st-nf", task, flow, x_o, int(nc), plan.n_null, plan.n_v, fit_fn, stream,
                        ensemble=shared_ensemble,
                    ).seconds
                else:
                    _, timing = _run_single(plan.to_dict(), int(nt), int(nc), 0, rep, alternative=False)
                for phase in ("train", "null", "evaluate"):
                    phase_times[phase].append(timing[phase])
            for phase in ("train", "null", "evaluate"):
                rows.append(
                    {
                        "method": plan.method,
                        "n_train": int(nt),
                        "n_cal": int(nc),
                        "phase": phase,
                        "median_seconds": float(np.median(phase_times[phase])),
                    }
                )
    machine = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    return BenchResult(plan=plan, rows=rows, machine=machine)


# ---------------------------------------------------------------------------
# Amortized reuse of one flow-variant null ensemble
# ---------------------------------------------------------------------------


@dataclass
class AmortizedResult:
    records: list[dict]  # flow_label, obs_index, run_index, p_value, reject
    null_train_seconds: float
    extra_null_seconds: float  # additional null training after the first ensemble

    def rejection_rate(self, flow_label: str) -> float:
        rec = [r for r in self.records if r["flow_label"] == flow_label]
        return float(np.mean([r["reject"] for r in rec]))


def run_amortized_type1(plan: ExperimentPlan, flows: dict[str, object]) -> AmortizedResult:
    """Reuse one precomputed flow-variant null ensemble across flows and observations.

    The ensemble is trained once from a single calibration draw; every
    (flow, run) then refreshes calibration data, retrains only the main
    classifier, and evaluates all observations against the shared ensemble.
    No further null training happens, which is the amortization claim.
    """
    task = make_task(plan.task, **plan.task_params)
    fit_fn = _classifier_fit(plan.classifier)
    n_cal = int(plan.n_cal_grid[-1])
    observations = [_observation(plan, task, i)[1] for i in range(plan.n_observations)]

    stream0 = derive_stream(plan.seed, "amortized-null")
    cal0 = task.sample_joint(n_cal, stream0.child("cal"))
    ensemble = c2st.lc2st_nf_null(cal0.xs, task.m, fit_fn, plan.n_null, stream0.child("null"))

    records: list[dict] = []
    extra_null = 0.0
    for label, flow in flows.items():
        for run in range(plan.n_runs):
            stream = derive_stream(plan.seed, "amortized", label, run)
            cal = task.sample_joint(n_cal, stream.child("cal"))
            clf = c2st.lc2st_nf_train(flow, cal, fit_fn, stream.child("train"))
            for obs_index, x_o in enumerate(observations):
                result = c2st.lc2st_nf_evaluate(
                    clf, ensemble, x_o, task.m, plan.n_v, stream.child("test", obs_index)
                )
                records.append(
                    {
                        "flow_label": label,
                        "obs_index": obs_index,
                        "run_index": run,
                        "statistic": result.statistic,
                        "p_value": result.p_value,
                        "reject": bool(result.p_value is not None and result.p_value < plan.alpha),
                    }
                )
    return AmortizedResult(records=records, null_train_seconds=ensemble.fit_seconds, extra_null_seconds=extra_null)
