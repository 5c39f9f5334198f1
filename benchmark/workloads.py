"""The benchmark's workloads: seeded inputs, one round of local tests, checks.

Each workload is a closed loop: one client runs one round at a time, and a
round is one or more local tests (one p-value each).  Inputs derive only from
the benchmark seed and the round index, so a round can be re-run exactly.

The untraced run calls only ``ExperimentPlan`` and ``run_type1`` (fresh
workloads) or ``conjugate_affine_flow`` and ``lc2st_nf_null`` /
``lc2st_nf_train`` / ``lc2st_nf_evaluate`` (amortized workload), plus the
public task, classifier and stream constructors those take as arguments.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

STAT_MAX = 0.25  # t_mse0 lies in [0, 1/4]


@dataclass(frozen=True)
class Size:
    """Input size of a workload; ``round_s`` is the seed code's round time,
    used only to choose how many rounds a traced run makes."""

    n_cal: int
    n_null: int
    n_v: int
    classifier: dict
    round_s: float


@dataclass(frozen=True)
class Outcome:
    """One local test; ``seconds`` is its wall time within the round."""

    statistic: float | None
    p_value: float | None
    error: str | None
    seconds: float


def derive_seed(*parts) -> int:
    """Unsigned 64-bit seed from a label path (stable across runs and platforms)."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def check_outcome(statistic, p_value, n_null: int) -> str | None:
    """Why a local-test result is invalid, or None if it passes."""
    if statistic is None or not math.isfinite(statistic) or not 0.0 <= statistic <= STAT_MAX:
        return f"statistic {statistic!r} outside [0, {STAT_MAX}]"
    if p_value is None or not 0.0 <= p_value <= 1.0:
        return f"p-value {p_value!r} outside [0, 1]"
    scaled = p_value * n_null
    if abs(scaled - round(scaled)) > 1e-9:
        return f"p-value {p_value!r} is not a multiple of 1/{n_null}"
    return None


def digest(outcomes: list[Outcome]) -> str:
    """SHA-256 of the (statistic, p_value) sequence."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{o.statistic!r},{o.p_value!r}\n".encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tests_per_round: int
    sizes: dict
    # fnmatch patterns over span names: each of ``expect`` must match a span
    # that fired in the traced timed phase, none of ``silent`` may.
    expect: tuple = ()
    silent: tuple = ()


@dataclass(frozen=True)
class FreshType1(Workload):
    """ℓ-C2ST type-I local tests through ``run_type1``, one single-test plan
    per round."""

    task: str = "gaussian_conjugate"
    task_params: dict = field(default_factory=dict)

    def setup(self, lc2st, size: Size, seed: int):
        return lc2st.ExperimentPlan(
            kind="type1",
            task=self.task,
            task_params=dict(self.task_params),
            method="lc2st",
            n_train_grid=[1],
            n_cal_grid=[size.n_cal],
            n_observations=1,
            n_runs=1,
            n_null=size.n_null,
            n_v=size.n_v,
            classifier=dict(size.classifier),
        ).to_dict()

    def run_round(self, lc2st, plan: dict, size: Size, seed: int, r: int) -> list[Outcome]:
        t0 = time.perf_counter()
        try:
            record = lc2st.run_type1(lc2st.ExperimentPlan(**{**plan, "seed": derive_seed(self.name, seed, r)})).records[0]
        except Exception as exc:  # counted as a failed test
            return [Outcome(None, None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0)]
        seconds = time.perf_counter() - t0
        error = check_outcome(record.statistic, record.p_value, size.n_null)
        return [Outcome(record.statistic, record.p_value, error, seconds)]


@dataclass
class AmortizedState:
    task: object
    fit: object
    ensemble: object
    flows: tuple


@dataclass(frozen=True)
class Amortized(Workload):
    """One shared ℓ-C2ST-NF null ensemble; each round trains on fresh
    calibration data for one flow and scores ``tests_per_round`` observations."""

    def setup(self, lc2st, size: Size, seed: int) -> AmortizedState:
        task = lc2st.make_task("gaussian_conjugate", m=2, noise_std=1.0)
        fit = lc2st.qda_factory()
        stream = lc2st.RngStream(seed=derive_seed(self.name, seed, "null"))
        cal = task.sample_joint(size.n_cal, stream.child("cal"))
        ensemble = lc2st.lc2st_nf_null(cal.xs, task.m, fit, size.n_null, stream.child("null"))
        flows = (
            lc2st.conjugate_affine_flow(task.m, 1.0),
            lc2st.conjugate_affine_flow(task.m, 1.0, scale_mult=2.0),
        )
        return AmortizedState(task, fit, ensemble, flows)

    def run_round(self, lc2st, state: AmortizedState, size: Size, seed: int, r: int) -> list[Outcome]:
        task = state.task
        stream = lc2st.RngStream(seed=derive_seed(self.name, seed, "round", r))
        t0 = time.perf_counter()  # the first test's time includes the training
        try:
            cal = task.sample_joint(size.n_cal, stream.child("cal"))
            clf = lc2st.lc2st_nf_train(state.flows[r % len(state.flows)], cal, state.fit, stream.child("train"))
        except Exception as exc:  # every test of the round fails
            failed = Outcome(None, None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0)
            return [failed] * self.tests_per_round
        out = []
        for j in range(self.tests_per_round):
            try:
                _, x_o = task.observation(stream.child("obs", j))
                res = lc2st.lc2st_nf_evaluate(clf, state.ensemble, x_o, task.m, size.n_v, stream.child("test", j))
            except Exception as exc:
                out.append(Outcome(None, None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0))
                t0 = time.perf_counter()
                continue
            seconds = time.perf_counter() - t0
            error = check_outcome(res.statistic, res.p_value, size.n_null)
            if error is None and res.n_h != size.n_null:
                error = f"n_h {res.n_h} != n_null {size.n_null}"
            if error is None:
                strict = int((res.null_statistics > res.statistic).sum()) / size.n_null
                if res.p_value != strict:
                    error = f"p-value {res.p_value!r} != strict exceedance count {strict!r}"
            out.append(Outcome(res.statistic, res.p_value, error, seconds))
            t0 = time.perf_counter()
        return out


QDA = {"kind": "qda"}
# The default MLP with a fixed epoch budget: patience equal to max_epochs means
# early stopping never ends a fit, so every test does the same work and round
# times differ only by machine noise.  best_epoch is still tracked.
MLP_30_EPOCHS = {"kind": "mlp", "max_epochs": 30, "patience": 30}
CORE = ("core.RngStream.generator", "core.RngStream.child", "core.LabeledPairDataset.__init__")
FRESH_LC2ST = ("harness.run_type1", "c2st.lc2st_training_set", "c2st.fit_null_ensemble", "c2st.lc2st_evaluate")

WORKLOADS = {
    w.name: w
    for w in (
        Amortized(
            name="qda-amortized",
            why="one lc2st-nf QDA null ensemble built in setup serves every round; scoring dominates, no null fits",
            tests_per_round=5,
            sizes={
                "full": Size(10_000, 100, 10_000, QDA, round_s=1.2),
                "tiny": Size(400, 5, 400, QDA, round_s=0.02),
            },
            expect=CORE + (
                "c2st.lc2st_nf_train", "c2st.lc2st_nf_evaluate",
                "classifiers.qda_fit", "classifiers.QdaModel.predict_proba",
                "tasks.Task.sample_joint", "flows.*.inverse",
            ),
            silent=("c2st.fit_null_ensemble", "c2st.lc2st_nf_null", "harness.*", "nets.*"),
        ),
        FreshType1(
            name="mlp-fresh",
            why="lc2st type-I tests with the default MLP net at n_cal=250, 30 epochs per fit: MLP training is nearly all the work",
            tests_per_round=1,
            sizes={
                "full": Size(250, 20, 2_000, MLP_30_EPOCHS, round_s=1.1),
                "tiny": Size(100, 3, 400, {**MLP_30_EPOCHS, "max_epochs": 5, "patience": 5}, round_s=0.05),
            },
            expect=FRESH_LC2ST + CORE + (
                "classifiers.mlp_fit", "classifiers.MlpModel.predict_proba",
                "nets.mlp_forward", "nets.mlp_backward", "nets.Adam.step", "tasks.*.sample_conditional",
            ),
            silent=("classifiers.qda_fit", "flows.*"),
            task_params={"m": 2, "noise_std": 1.0},
        ),
        FreshType1(
            name="moons-draws",
            why="lc2st type-I tests on two_moons with its ABC reference at n_cal=40: per-row reference draws dominate",
            tests_per_round=1,
            sizes={
                "full": Size(40, 100, 1_000, QDA, round_s=0.85),
                "tiny": Size(20, 5, 200, QDA, round_s=0.5),
            },
            expect=FRESH_LC2ST + CORE + (
                "classifiers.qda_fit", "classifiers.QdaModel.predict_proba",
                "tasks.Task.sample_joint", "tasks.*.sample_conditional", "tasks.*.sample",
            ),
            silent=("nets.*", "flows.*"),
            task="two_moons",
        ),
    )
}
