"""Experiment plans, sweeps, benchmarks, and the correlation study."""

import os
import pickle
import re

import numpy as np
import pytest
from scipy.stats import kstest

from lc2st import (
    ConfigurationError,
    NpeConfig,
    RngStream,
    TrainingError,
    build_coupling_flow,
    conjugate_affine_flow,
    derive_stream,
    distort,
    flow_fit_npe,
    lc2st_nf_null,
    make_task,
    qda_factory,
    run_test,
)
from lc2st import flows
from lc2st.classifiers import _Scoring
from lc2st.harness import (
    METHODS,
    ExperimentPlan,
    _build_estimator,
    run_oracle_correlation,
    run_power,
    run_sigma_sweep,
    run_type1,
)
from lc2st.tasks import TASK_BUILDERS

SMALL_TYPE1 = dict(
    kind="type1",
    method="lc2st",
    task="gaussian_conjugate",
    task_params={"m": 2, "noise_std": 1.0},
    n_train_grid=[1],
    n_cal_grid=[400],
    n_observations=2,
    n_runs=3,
    alpha=0.05,
    n_null=30,
    n_v=500,
    seed=3,
)
# a sigma sweep reads none of the type-I plan's task, method, grids or n_observations
SMALL_SIGMA = {k: v for k, v in SMALL_TYPE1.items() if k not in ("task", "method", "n_train_grid", "n_cal_grid", "n_observations")}
SMALL_SIGMA["kind"] = "sigma-sweep"


class TestPlan:
    def test_json_round_trip(self, tmp_path):
        plan = ExperimentPlan(**SMALL_TYPE1)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert ExperimentPlan.load(path) == plan

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentPlan(**{**SMALL_TYPE1, "method": "nope"})
        with pytest.raises(ConfigurationError):
            ExperimentPlan(**{**SMALL_TYPE1, "alpha": 0.0})
        with pytest.raises(ConfigurationError):
            ExperimentPlan(**{**SMALL_TYPE1, "n_runs": 0})
        with pytest.raises(ConfigurationError):
            ExperimentPlan(**{**SMALL_TYPE1, "n_cal_grid": []})
        # degenerate alpha = 1 stays constructible for the trivial-rejection case
        ExperimentPlan(**{**SMALL_TYPE1, "alpha": 1.0})

    @pytest.mark.parametrize("method", ["lc2st", "oracle-c2st-acc", "oracle-c2st-mse"])
    def test_reuse_null_only_for_lc2st_nf(self, method):
        for kind in ("type1", "power", "bench"):
            with pytest.raises(ConfigurationError, match=f"reuse_null.*{method!r}"):
                ExperimentPlan(**{**SMALL_TYPE1, "kind": kind, "method": method, "reuse_null": True})
            ExperimentPlan(**{**SMALL_TYPE1, "kind": kind, "method": "lc2st-nf", "reuse_null": True})
        for kind in ("sigma-sweep", "correlation"):
            with pytest.raises(ConfigurationError, match=f"reuse_null.*{kind!r}"):
                ExperimentPlan(**{**SMALL_TYPE1, "kind": kind, "method": "lc2st-nf", "reuse_null": True})
        with pytest.raises(ConfigurationError, match="n_runs must be an integer >= 3, got 2"):
            ExperimentPlan(**{**SMALL_TYPE1, "kind": "bench", "n_runs": 2})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_null", 2.5), ("n_v", True), ("seed", "0"), ("alpha", "0.05"), ("n_cal_grid", [100.0]), ("n_train_grid", 5),
            ("sigma_grid", "12"), ("sigma_grid", ["x"]), ("sigma_grid", [True]), ("sigma_grid", []), ("sigma_grid", [0.5, -1.0]),
            ("task_params", [1]), ("classifier", "qda"), ("estimator", "exact"),
        ],
    )
    def test_wrongly_typed_field_is_named(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            ExperimentPlan(**{**SMALL_TYPE1, key: value})

    @pytest.mark.parametrize(
        "spec, key",
        [({"kind": "mlp", "hiden_sizes": [8]}, "hiden_sizes"), ({"kind": "qda", "patience": 3}, "patience")],
    )
    def test_unknown_classifier_key_is_named(self, spec, key):
        with pytest.raises(ConfigurationError, match=key):
            run_type1(ExperimentPlan(**{**SMALL_TYPE1, "classifier": spec}))

    @pytest.mark.parametrize("key, value", [("batch_size", 0), ("max_epochs", 0), ("learning_rate", -1.0), ("holdout_frac", 1.0)])
    def test_invalid_mlp_value_is_named(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            run_type1(ExperimentPlan(**{**SMALL_TYPE1, "classifier": {"kind": "mlp", key: value}}))

    def test_import_leaves_scipy_stats_unloaded(self):
        import subprocess
        import sys

        import lc2st

        src = os.path.dirname(os.path.dirname(lc2st.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, lc2st; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"

    def test_classifier_spec_sets_holdout_frac(self):
        from lc2st import LabeledPairDataset, RngStream
        from lc2st.harness import _classifier_fit

        rng = np.random.default_rng(0)
        data = LabeledPairDataset.from_class_arrays(rng.standard_normal((50, 2)), rng.standard_normal((50, 2)))
        spec = {"kind": "mlp", "hidden_sizes": [4], "max_epochs": 2}
        split = _classifier_fit({**spec, "holdout_frac": 0.2})(data, RngStream(seed=1))
        whole = _classifier_fit({**spec, "holdout_frac": 0.0})(data, RngStream(seed=1))
        assert split.metadata["n_train"] == 80 and split.metadata["holdout_loss"] is not None
        assert whole.metadata["n_train"] == 100 and whole.metadata["holdout_loss"] is None


class TestTypeOne:
    def test_smoke_and_records(self):
        plan = ExperimentPlan(**SMALL_TYPE1)
        res = run_type1(plan)
        assert len(res.records) == 2 * 3
        agg = res.aggregates()
        assert len(agg) == 1 and agg[0].n == 6
        assert all(r.p_value is not None for r in res.records)

    def test_reproducible_and_byte_identical(self, tmp_path):
        plan = ExperimentPlan(**SMALL_TYPE1)
        a, b = run_type1(plan), run_type1(plan)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save_json(pa)
        b.save_json(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_aggregate_recomputable_from_records(self):
        res = run_type1(ExperimentPlan(**SMALL_TYPE1))
        payload = res.to_json_dict()
        rate = np.mean([r["reject"] for r in payload["records"]])
        assert payload["aggregates"][0]["rejection_rate"] == rate

    def test_alpha_one_rejects_everything(self):
        plan = ExperimentPlan(**{**SMALL_TYPE1, "alpha": 1.0, "n_null": 100})
        res = run_type1(plan)
        assert res.aggregates()[0].rejection_rate == 1.0

    def test_two_moons_exact_reference_keeps_type1_control(self):
        from scipy.stats import kstest

        plan = ExperimentPlan(
            **{
                **SMALL_TYPE1, "task": "two_moons", "task_params": {}, "n_cal_grid": [40],
                "n_observations": 10, "n_runs": 10, "n_null": 100, "n_v": 1000,
            }
        )
        p_values = [r.p_value for r in run_type1(plan).records]
        assert len(p_values) == 100
        assert kstest(p_values, "uniform").pvalue > 0.01

    def test_single_run_flags_small_sample(self):
        plan = ExperimentPlan(**{**SMALL_TYPE1, "n_runs": 1, "n_observations": 1})
        res = run_type1(plan)
        assert res.small_sample_warning
        assert res.aggregates()[0].se == 0.0

    def test_cell_standalone_reproduces_full_sweep_cell(self):
        full = ExperimentPlan(**{**SMALL_TYPE1, "n_cal_grid": [200, 400]})
        single = ExperimentPlan(**{**SMALL_TYPE1, "n_cal_grid": [400]})
        res_full = run_type1(full)
        res_single = run_type1(single)
        cell_full = [r for r in res_full.records if r.n_cal == 400]
        assert [r.__dict__ for r in cell_full] == [r.__dict__ for r in res_single.records]

    def test_missing_reference_is_plan_error(self):
        plan = ExperimentPlan(**{**SMALL_TYPE1, "task": "two_moons", "task_params": {}})
        # rejection-based reference exists for two_moons; break it via n_v=... use
        # a task with no reference instead: none ships without one, so patch
        import lc2st.harness as hmod

        orig = hmod.make_task

        def no_ref(name, **kw):
            task = orig(name, **kw)
            return type(task)(task.name, task.m, task.d, task.prior_sample, task.simulate, None)

        hmod.make_task = no_ref
        try:
            with pytest.raises(ConfigurationError):
                run_type1(ExperimentPlan(**SMALL_TYPE1))
        finally:
            hmod.make_task = orig

    def test_worker_pool_matches_sequential(self, monkeypatch):
        npe = {"kind": "npe", "max_epochs": 2, "n_layers": 2, "hidden": [8]}
        sweeps = [
            (run_type1, ExperimentPlan(**SMALL_TYPE1)),
            # the n_train's flow is trained once and sent to both workers
            (run_power, ExperimentPlan(**{**SMALL_TYPE1, "kind": "power", "n_train_grid": [150], "estimator": npe})),
            (run_type1, ExperimentPlan(**{**SMALL_TYPE1, "method": "lc2st-nf", "reuse_null": True, "n_null": 5})),
        ]
        for run, plan in sweeps:
            monkeypatch.delenv("LC2ST_THREADS", raising=False)
            seq = run(plan)
            monkeypatch.setenv("LC2ST_THREADS", "2")
            par = run(plan)
            assert [r.__dict__ for r in seq.records] == [r.__dict__ for r in par.records]

    def test_nf_method_smoke(self):
        plan = ExperimentPlan(**{**SMALL_TYPE1, "method": "lc2st-nf"})
        res = run_type1(plan)
        assert len(res.records) == 6

    def test_oracle_methods_smoke(self):
        for method in ("oracle-c2st-acc", "oracle-c2st-mse"):
            plan = ExperimentPlan(**{**SMALL_TYPE1, "method": method, "n_null": 20})
            res = run_type1(plan)
            assert len(res.records) == 6


    @pytest.mark.parametrize("method", METHODS)
    def test_record_equals_run_test(self, method):
        plan = ExperimentPlan(**{**SMALL_TYPE1, "method": method, "n_cal_grid": [200], "n_v": 200, "n_null": 12})
        record = [r for r in run_type1(plan).records if (r.obs_index, r.run_index) == (1, 2)][0]
        task = make_task(plan.task, **plan.task_params)
        _, x_o = task.observation(derive_stream(plan.seed, "obs", 1))
        stream = derive_stream(plan.seed, "run", 1, 200, 1, 2)
        estimator = conjugate_affine_flow(2, 1.0) if method == "lc2st-nf" else task.reference
        result = run_test(method, task, estimator, x_o, 200, 12, 200, qda_factory(), stream).results[0]
        assert (record.statistic, record.p_value) == (result.statistic, result.p_value)

    def test_mlp_p_values_are_uniform(self):
        # a small MLP keeps type-I control: 4 observations x 50 runs of the
        # lc2st test with the exact estimator, each with a 20-member null
        mlp = {"kind": "mlp", "hidden_sizes": [8], "max_epochs": 10, "patience": 10}
        over = {"n_cal_grid": [100], "n_observations": 4, "n_runs": 50, "n_null": 20, "n_v": 500, "seed": 0}
        res = run_type1(ExperimentPlan(**{**SMALL_TYPE1, **over, "classifier": mlp}))
        pvals = np.array([r.p_value for r in res.records])
        assert len(pvals) == 200 and kstest(pvals, "uniform").pvalue > 0.01

    def test_error_names_its_cell(self):
        diverging = {"kind": "mlp", "hidden_sizes": [8], "learning_rate": 1e300, "max_epochs": 30}
        plan = ExperimentPlan(**{**SMALL_TYPE1, "n_cal_grid": [100], "n_null": 2, "classifier": diverging})
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match=r"^cell \(n_train=1, n_cal=100, obs=0, run=0\): member 0: loss diverged"):
            run_type1(plan)


class TestPower:
    def test_identity_distortion_guard(self):
        plan = ExperimentPlan(
            **{**SMALL_TYPE1, "kind": "power", "estimator": {"kind": "distortion", "shift": 0.0, "scale": 1.0}}
        )
        with pytest.raises(ConfigurationError, match="identity"):
            run_power(plan)

    @pytest.mark.parametrize("kind", ["power", "correlation"])
    @pytest.mark.parametrize("over, named", [({"scale": "2"}, "scale"), ({"scale": True}, "scale"), ({"shift": "a"}, "mean_shift")])
    def test_non_numeric_distortion_value_is_named(self, kind, over, named):
        plan = ExperimentPlan(**{**SMALL_TYPE1, "kind": kind, "estimator": {"kind": "distortion", **over}})
        with pytest.raises(ConfigurationError, match=f"^{named} must be"):
            (run_power if kind == "power" else run_oracle_correlation)(plan)

    def test_exact_estimator_rejected_for_power(self):
        plan = ExperimentPlan(**{**SMALL_TYPE1, "kind": "power"})
        with pytest.raises(ConfigurationError):
            run_power(plan)

    def test_scale_distortion_detected(self):
        plan = ExperimentPlan(
            **{
                **SMALL_TYPE1,
                "kind": "power",
                "n_cal_grid": [2000],
                "n_v": 2000,
                "n_runs": 5,
                "n_observations": 1,
                "estimator": {"kind": "distortion", "scale": 2.0},
            }
        )
        res = run_power(plan)
        assert res.aggregates()[0].rejection_rate == 1.0
        assert res.monotonicity_report() == {1: True}

    def test_distorted_two_moons_shift_detected(self):
        # the distortion is anchored at the exact two-moons mean, so the run takes well under a second
        over = {"task": "two_moons", "task_params": {}, "n_cal_grid": [1000], "n_v": 1000, "n_null": 50, "n_runs": 5,
                "seed": 29, "estimator": {"kind": "distortion", "shift": 0.3}}
        res = run_power(ExperimentPlan(**{**SMALL_TYPE1, **over, "kind": "power"}))
        assert len(res.records) == 10 and res.aggregates()[0].rejection_rate > res.plan.alpha

    def test_npe_estimator_smoke(self):
        plan = ExperimentPlan(
            **{
                **SMALL_TYPE1,
                "kind": "power",
                "n_train_grid": [300],
                "n_cal_grid": [300],
                "n_v": 300,
                "n_runs": 1,
                "n_observations": 1,
                "n_null": 10,
                "estimator": {"kind": "npe", "max_epochs": 3, "n_layers": 2, "hidden": (8,)},
            }
        )
        res = run_power(plan)
        assert len(res.records) == 1
        assert res.records[0].p_value is not None

    @pytest.mark.parametrize(
        "method, estimator",
        [
            ("lc2st", {"kind": "distortion", "shift": 0.4, "scale": 1.3}),
            ("lc2st-nf", {"kind": "distortion", "shift": 0.4, "scale": 1.3}),
            ("oracle-c2st-mse", {"kind": "distortion", "shift": 0.4, "scale": 1.3}),
            ("lc2st", {"kind": "npe", "max_epochs": 2, "n_layers": 2, "hidden": [8]}),
        ],
    )
    def test_record_equals_run_test(self, method, estimator):
        over = {"method": method, "n_train_grid": [200], "n_cal_grid": [200], "n_v": 200, "n_null": 12}
        plan = ExperimentPlan(**{**SMALL_TYPE1, **over, "kind": "power", "task_params": {"m": 2, "noise_std": 1.5}, "estimator": estimator})
        record = [r for r in run_power(plan).records if (r.obs_index, r.run_index) == (1, 2)][0]
        task = make_task(plan.task, **plan.task_params)
        _, x_o = task.observation(derive_stream(plan.seed, "obs", 1))
        stream = derive_stream(plan.seed, "run", 200, 200, 1, 2)
        if estimator["kind"] == "npe":
            build = derive_stream(plan.seed, "estimator", 200)
            flow = build_coupling_flow(2, 2, n_layers=2, hidden=(8,), stream=build.child("npe-init"))
            train = task.sample_joint(200, build.child("npe-data"))
            q, _ = flow_fit_npe(flow, train, NpeConfig(max_epochs=2), build.child("npe-fit"))
        elif method == "lc2st-nf":
            q = conjugate_affine_flow(2, 1.5, scale_mult=1.3, shift=0.4)
        else:
            q = distort(task.reference, np.full(2, 0.4), 1.3)
        result = run_test(method, task, q, x_o, 200, 12, 200, qda_factory(), stream).results[0]
        assert (record.statistic, record.p_value) == (result.statistic, result.p_value)

    def test_npe_trains_one_flow_per_n_train(self, monkeypatch):
        import lc2st.harness as hmod

        fits = []
        monkeypatch.delenv("LC2ST_THREADS", raising=False)
        monkeypatch.setattr(flows, "flow_fit_npe", lambda *args: fits.append(args) or flow_fit_npe(*args))
        npe = {"kind": "npe", "max_epochs": 2, "n_layers": 2, "hidden": [8]}
        over = {"n_train_grid": [100, 200], "n_cal_grid": [200], "n_observations": 2, "n_runs": 2, "n_v": 200, "n_null": 5}
        res = run_power(ExperimentPlan(**{**SMALL_TYPE1, **over, "kind": "power", "estimator": npe}))
        assert len(res.records) == 2 * 2 * 2
        assert [train.n for _, train, _, _ in fits] == [100, 200]

    def test_npe_trains_one_flow_per_n_train_on_the_pool(self, monkeypatch):
        import lc2st.harness as hmod

        fits, jobs = [], []
        run_job = hmod._run_job
        monkeypatch.setenv("LC2ST_THREADS", "2")
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InProcessPool)
        monkeypatch.setattr(hmod, "_run_job", lambda *args: jobs.append(args[4]) or run_job(*args))
        monkeypatch.setattr(flows, "flow_fit_npe", lambda *args: fits.append(args) or flow_fit_npe(*args))
        npe = {"kind": "npe", "max_epochs": 2, "n_layers": 2, "hidden": [8]}
        over = {"n_train_grid": [100, 200], "n_cal_grid": [200], "n_observations": 2, "n_runs": 2, "n_v": 200, "n_null": 5}
        plan = ExperimentPlan(**{**SMALL_TYPE1, **over, "kind": "power", "estimator": npe})
        res = run_power(plan)
        assert jobs == [100, 100, 200, 200]
        assert [train.n for _, train, _, _ in fits] == [100, 200]
        monkeypatch.delenv("LC2ST_THREADS")
        assert [r.__dict__ for r in res.records] == [r.__dict__ for r in run_power(plan).records]

    def test_inputs_are_built_once_per_n_train_on_the_pool(self, monkeypatch):
        import lc2st.harness as hmod

        builds = []
        monkeypatch.setenv("LC2ST_THREADS", "2")
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InProcessPool)
        for name in ("make_task", "_classifier_fit", "_build_estimator"):
            monkeypatch.setattr(hmod, name, _counted(builds, name, getattr(hmod, name)))
        over = {"method": "lc2st-nf", "n_train_grid": [1, 2], "n_cal_grid": [100], "n_null": 2, "n_v": 100}
        res = run_type1(ExperimentPlan(**{**SMALL_TYPE1, **over}))
        assert len(res.records) == 2 * 2 * 3
        assert builds == ["make_task", "_classifier_fit", "_build_estimator"] * 2


def _counted(calls: list, name: str, fn):
    """``fn``, appending ``name`` to ``calls`` at each call."""
    return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)


class _InProcessPool:
    """A ProcessPoolExecutor stand-in that runs its jobs here, so that
    patched functions see the calls the workers would make.  Each job's
    arguments take a pickle round trip, as on a real pool."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    @staticmethod
    def map(fn, *iterables):
        return map(fn, *(pickle.loads(pickle.dumps(list(it))) for it in iterables))


_ESTIMATOR_CASES = [
    pytest.param(name, spec, flow, id=f"{name}-{spec['kind']}-{'flow' if flow else 'sampler'}")
    for name in sorted(TASK_BUILDERS)
    for spec in ({"kind": "exact"}, {"kind": "distortion", "shift": 0.3, "scale": 1.2})
    for flow in ((False, True) if name == "gaussian_conjugate" else (False,))
]


@pytest.mark.parametrize("name, spec, flow", _ESTIMATOR_CASES)
def test_pickled_task_and_estimator_draw_bitwise_the_same(name, spec, flow):
    # a sweep on a process pool sends each n_train's task and estimator to its workers
    task = make_task(name)
    estimator = _build_estimator(spec, task, flow)
    copy_task, copy = pickle.loads(pickle.dumps((task, estimator)))
    data, copied = (t.sample_joint(64, RngStream(seed=5)) for t in (task, copy_task))
    assert data.thetas.tobytes() == copied.thetas.tobytes() and data.xs.tobytes() == copied.xs.tobytes()
    draws = estimator.sample_conditional(data.xs, RngStream(seed=6))
    assert draws.tobytes() == copy.sample_conditional(data.xs, RngStream(seed=6)).tobytes()
    if flow:
        for a, b in zip(estimator.inverse(data.thetas, data.xs), copy.inverse(data.thetas, data.xs)):
            assert a.tobytes() == b.tobytes()


class TestSigmaSweep:
    def test_requires_grid(self):
        plan = ExperimentPlan(**SMALL_SIGMA)
        with pytest.raises(ConfigurationError):
            run_sigma_sweep(plan)

    @pytest.mark.parametrize("classifier", [{"kind": "qda"}, {"kind": "mlp", "max_epochs": 1}])
    def test_requires_a_null(self, classifier):
        plan = ExperimentPlan(**{**SMALL_SIGMA, "sigma_grid": [1.0], "n_null": 0, "classifier": classifier})
        with pytest.raises(ConfigurationError, match="n_null >= 1"):
            run_sigma_sweep(plan)

    @pytest.mark.parametrize(
        "params, message",
        [({"dimm": 3}, "unknown sigma-sweep task key 'dimm'"), ({"dim": 2.7}, "dim must be an integer >= 1, got 2.7"),
         ({"dim": True}, "dim must be an integer >= 1, got True"), ({"dim": "x"}, "dim must be an integer >= 1, got 'x'")],
    )
    def test_bad_task_params_are_named(self, params, message):
        over = {"sigma_grid": [1.0], "task_params": params, "n_per_class": 50, "n_runs": 1, "n_null": 2}
        with pytest.raises(ConfigurationError, match=message):
            run_sigma_sweep(ExperimentPlan(**{**SMALL_SIGMA, **over}))

    @pytest.mark.parametrize(
        "key, value",
        [("task", "no_such_task"), ("method", "oracle-c2st-acc"), ("n_train_grid", [7]), ("n_cal_grid", [7]),
         ("n_observations", 3), ("estimator", {"kind": "npe"})],
    )
    def test_fields_it_never_reads_are_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^a sigma-sweep plan does not read {key}, got {re.escape(repr(value))}$"):
            ExperimentPlan(**{**SMALL_SIGMA, "sigma_grid": [1.0], key: value})

    @pytest.mark.parametrize("classifier", [{"kind": "qda"}, {"kind": "mlp", "max_epochs": 1}])
    def test_main_classifier_is_scored_once_per_run(self, classifier, monkeypatch):
        # every scoring path (log_odds, predict_proba, the null statistics) iterates a model's blocks
        passes, blocks = [], _Scoring.blocks
        monkeypatch.setattr(_Scoring, "blocks", lambda self, *a, **k: passes.append(len(self)) or blocks(self, *a, **k))
        over = {"sigma_grid": [0.8, 1.0], "task_params": {}, "n_per_class": 200, "n_runs": 3, "n_null": 5, "n_v": 300, "classifier": classifier}
        run_sigma_sweep(ExperimentPlan(**{**SMALL_SIGMA, **over}))
        assert passes == [1, 5] * 6

    def test_small_sweep_separates_statistics(self):
        plan = ExperimentPlan(
            **{
                **SMALL_SIGMA,
                "sigma_grid": [0.6, 1.0],
                "n_per_class": 2000,
                "n_runs": 10,
                "n_null": 50,
                "n_v": 2000,
                "task_params": {"dim": 2},
            }
        )
        res = run_sigma_sweep(plan)
        power = res.power("mse0")
        assert power[0.6][0] >= 0.9
        assert power[1.0][0] <= 0.3

    def test_power_csv_schema(self, tmp_path):
        plan = ExperimentPlan(
            **{
                **SMALL_SIGMA,
                "task_params": {},
                "sigma_grid": [1.0],
                "n_per_class": 200,
                "n_runs": 2,
                "n_null": 10,
                "n_v": 200,
            }
        )
        res = run_sigma_sweep(plan)
        path = tmp_path / "power.csv"
        res.save_power_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sigma,n_runs,tpr,se"
        assert len(lines) == 2


class TestCorrelation:
    def _plan(self, **over):
        base = dict(
            kind="correlation",
            method="lc2st",
            task="gaussian_conjugate",
            task_params={"m": 2, "noise_std": 1.0},
            n_train_grid=[1],
            n_cal_grid=[2000],
            n_observations=12,
            n_runs=1,
            alpha=0.05,
            n_null=1,
            n_v=4000,
            seed=21,
            estimator={"kind": "distortion", "shift": 1.5, "scale": 1.0},
        )
        base.update(over)
        return ExperimentPlan(**base)

    def test_graded_distortion_positively_correlated(self):
        res = run_oracle_correlation(self._plan(), n_permutations=2000)
        assert res.spearman_rho > 0.5
        assert res.p_value < 0.05
        assert len(res.pairs) == 12

    def test_pairs_are_run_tests_and_rho_is_spearman(self):
        from scipy.stats import spearmanr

        plan = self._plan(n_observations=5, n_cal_grid=[300], n_v=300)
        res = run_oracle_correlation(plan, n_permutations=500)
        task = make_task(plan.task, **plan.task_params)
        _, x_o = task.observation(derive_stream(plan.seed, "obs", 4))
        estimator = distort(task.reference, [1.5, 1.5], 1.0)  # observation 4 of 5: the full distortion
        stream = derive_stream(plan.seed, "corr", 4)
        local = run_test("lc2st", task, estimator, x_o, 300, 0, 300, qda_factory(), stream.child("local"))
        oracle = run_test("oracle-c2st-mse", task, estimator, x_o, 300, 0, 300, qda_factory(), stream)
        assert (res.pairs[4]["local"], res.pairs[4]["oracle"]) == (local.results[0].statistic, oracle.results[0].statistic)
        expected = spearmanr([p["oracle"] for p in res.pairs], [p["local"] for p in res.pairs]).statistic
        assert res.spearman_rho == pytest.approx(expected, abs=1e-12)
        assert res.p_value * 501 == pytest.approx(round(res.p_value * 501), abs=1e-9)

    def test_single_observation_rejected(self):
        with pytest.raises(ConfigurationError):
            run_oracle_correlation(self._plan(n_observations=1))

    def test_a_grid_of_several_n_cal_is_rejected(self):
        # the study runs at one n_cal: a longer grid would be cut to one entry
        for plan in (lambda: self._plan(n_cal_grid=[300, 2000]), lambda: ExperimentPlan(kind="correlation")):
            with pytest.raises(ConfigurationError, match=r"^a correlation plan runs at one n_cal, got n_cal_grid \["):
                plan()

    def test_exact_estimator_not_significant(self):
        res = run_oracle_correlation(
            self._plan(estimator={"kind": "exact"}, n_observations=8), n_permutations=2000
        )
        assert res.p_value >= 0.05
        assert max(abs(p["oracle"]) for p in res.pairs) < 0.01


class TestBench:
    def test_phases_and_zero_null(self):
        plan = ExperimentPlan(
            **{**SMALL_TYPE1, "kind": "bench", "n_null": 0, "n_runs": 3, "n_cal_grid": [300]}
        )
        res = run_type1(plan)
        rows = {r["phase"]: r["median_seconds"] for r in res.phase_medians()}
        assert rows["null"] == 0.0
        assert rows["train"] > 0.0 and rows["evaluate"] > 0.0

    def test_more_data_costs_more_training_time(self):
        plan = ExperimentPlan(
            **{
                **SMALL_TYPE1,
                "kind": "bench",
                "n_null": 0,
                "n_runs": 7,
                "n_observations": 1,
                "n_cal_grid": [4000, 16000],
                "n_v": 200,
            }
        )
        res = run_type1(plan)
        train = {r["n_cal"]: r["median_seconds"] for r in res.phase_medians() if r["phase"] == "train"}
        assert train[16000] > train[4000]

    def test_reuse_null_reports_exact_zero(self):
        plan = ExperimentPlan(
            **{
                **SMALL_TYPE1,
                "kind": "bench",
                "method": "lc2st-nf",
                "reuse_null": True,
                "n_null": 5,
                "n_cal_grid": [300],
                "n_v": 300,
            }
        )
        res = run_type1(plan)
        rows = {r["phase"]: r["median_seconds"] for r in res.phase_medians()}
        assert rows["null"] == 0.0

    def test_csv_schema(self, tmp_path):
        plan = ExperimentPlan(**{**SMALL_TYPE1, "kind": "bench", "n_null": 2, "n_cal_grid": [200], "n_v": 200})
        res = run_type1(plan)
        path = tmp_path / "runtime.csv"
        res.save_runtime_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,n_train,n_cal,phase,median_seconds"
        assert len(lines) == 1 + 3

    def test_records_are_the_type1_sweep(self):
        bench = ExperimentPlan(**{**SMALL_TYPE1, "kind": "bench", "n_cal_grid": [300, 200], "n_null": 4, "n_v": 200})
        res = run_type1(bench)
        type1 = ExperimentPlan(**{**bench.to_dict(), "kind": "type1"})
        assert res.records == run_type1(type1).records
        assert len(res.timings) == 2 * 2 * 3
        assert [(r["n_cal"], r["phase"]) for r in res.phase_medians()][::3] == [(200, "train"), (300, "train")]

    def test_reused_null_is_the_cells_bench_null(self):
        reuse = {**SMALL_TYPE1, "method": "lc2st-nf", "reuse_null": True, "n_cal_grid": [300, 200], "n_null": 5, "n_v": 300}
        scale2 = {"kind": "distortion", "scale": 2.0}
        sweeps = [
            (run_type1, ExperimentPlan(**{**reuse, "kind": "bench"}), conjugate_affine_flow(2, 1.0)),
            (run_type1, ExperimentPlan(**{**reuse, "kind": "type1"}), conjugate_affine_flow(2, 1.0)),
            (run_power, ExperimentPlan(**{**reuse, "kind": "power", "estimator": scale2}), conjugate_affine_flow(2, 1.0, scale_mult=2.0)),
        ]
        task = make_task("gaussian_conjugate", m=2, noise_std=1.0)
        for sweep, plan, flow in sweeps:
            res = sweep(plan)
            assert all(t["null"] == 0.0 and t["null_members"] == 0 for t in res.timings) and len(res.timings) == 12
            assert res.null_fit_seconds > 0.0 and "null_fit_seconds" not in res.to_json_dict()
            for r in res.records:
                stream0 = derive_stream(plan.seed, "bench-null", 1, r.n_cal)
                null = lc2st_nf_null(task.sample_joint(r.n_cal, stream0.child("cal")).xs, 2, qda_factory(), 5, stream0.child("null"))
                _, x_o = task.observation(derive_stream(plan.seed, "obs", r.obs_index))
                stream = derive_stream(plan.seed, "run", 1, r.n_cal, r.obs_index, r.run_index)
                run = run_test("lc2st-nf", task, flow, x_o, r.n_cal, 5, 300, qda_factory(), stream, ensemble=null)
                assert (r.statistic, r.p_value) == (run.results[0].statistic, run.results[0].p_value)

    def test_two_n_train_values_fit_one_null_per_n_cal(self, monkeypatch):
        import lc2st.c2st as c2st_module

        fitted = []
        nf_null = c2st_module.lc2st_nf_null
        monkeypatch.setattr(c2st_module, "lc2st_nf_null", lambda xs, *a: fitted.append(len(xs)) or nf_null(xs, *a))
        reuse = {**SMALL_TYPE1, "method": "lc2st-nf", "reuse_null": True, "n_cal_grid": [300, 200], "n_null": 5, "n_v": 300}
        res = run_type1(ExperimentPlan(**{**reuse, "n_train_grid": [1, 7]}))
        assert sorted(fitted) == [200, 300]
        # the first n_train's records are the single-n_train plan's, and the second's tests reuse its nulls
        assert [r for r in res.records if r.n_train == 1] == run_type1(ExperimentPlan(**reuse)).records
        task, flow = make_task("gaussian_conjugate", m=2, noise_std=1.0), conjugate_affine_flow(2, 1.0)
        for r in (r for r in res.records if r.n_train == 7):
            stream0 = derive_stream(reuse["seed"], "bench-null", 1, r.n_cal)
            null = nf_null(task.sample_joint(r.n_cal, stream0.child("cal")).xs, 2, qda_factory(), 5, stream0.child("null"))
            _, x_o = task.observation(derive_stream(reuse["seed"], "obs", r.obs_index))
            stream = derive_stream(reuse["seed"], "run", 7, r.n_cal, r.obs_index, r.run_index)
            run = run_test("lc2st-nf", task, flow, x_o, r.n_cal, 5, 300, qda_factory(), stream, ensemble=null)
            assert (r.statistic, r.p_value) == (run.results[0].statistic, run.results[0].p_value)

    @pytest.mark.parametrize("value", ["two", "0", "-3", "1.5", ""])
    def test_thread_count_is_checked_by_name(self, monkeypatch, value):
        monkeypatch.setenv("LC2ST_THREADS", value)
        with pytest.raises(ConfigurationError, match=rf"^LC2ST_THREADS must be an integer >= 1, got '?{re.escape(value)}'?$"):
            run_type1(ExperimentPlan(**SMALL_TYPE1))

    def test_bench_ignores_the_worker_pool(self, monkeypatch):
        monkeypatch.setenv("LC2ST_THREADS", "2")
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)  # would fail if used
        plan = ExperimentPlan(**{**SMALL_TYPE1, "kind": "bench", "n_null": 2, "n_cal_grid": [200], "n_v": 200})
        assert len(run_type1(plan).records) == 6


class TestClassifierSpecChecks:
    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"kind": "mlp", "hidden_sizes": 5}, "MlpConfig.hidden_sizes"),
            ({"kind": "mlp", "learning_rate": "0.1"}, "MlpConfig.learning_rate"),
            ({"kind": "mlp", "holdout_frac": "0.1"}, "MlpConfig.holdout_frac"),
            ({"kind": "qda", "ridge": "1"}, "QdaFitter.ridge"),
            ({"kind": "qda", "ridge": -1.0}, "QdaFitter.ridge"),
        ],
    )
    def test_bad_classifier_setting_is_named_with_its_cell(self, spec, named):
        # a reuse_null plan fits its nulls with the same fitter, built in the same place
        for over in ({}, {"method": "lc2st-nf", "reuse_null": True}):
            plan = ExperimentPlan(**{**SMALL_TYPE1, **over, "classifier": spec})
            with pytest.raises(ConfigurationError, match=rf"^cell \(n_train=1\): {re.escape(named)} "):
                run_type1(plan)


class TestEstimatorSpecChecks:
    def test_vector_shift_for_a_flow_is_named_with_its_cell(self):
        estimator = {"kind": "distortion", "shift": [0.3, -0.2]}
        over = {"kind": "power", "n_cal_grid": [100], "n_null": 2, "n_v": 100, "estimator": estimator}
        plan = ExperimentPlan(**{**SMALL_TYPE1, **over, "method": "lc2st-nf"})
        with pytest.raises(ConfigurationError, match=r"^cell \(n_train=1\): .*'shift'.*\[0\.3, -0\.2\]"):
            run_power(plan)
        # a sampler takes the vector shift as it is
        assert len(run_power(ExperimentPlan(**{**SMALL_TYPE1, **over})).records) == 2 * 3

    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size", 0), ("max_epochs", -3), ("hidden", [0]), ("hidden", 5), ("n_layers", "3"),
            ("max_epochs", 2.5), ("batch_size", 2.5), ("batch_size", "10"), ("patience", True),
        ],
    )
    def test_bad_npe_setting_is_named_with_its_cell(self, key, value):
        estimator = {"kind": "npe", "n_layers": 1, "hidden": [4], key: value}
        over = {"kind": "power", "n_train_grid": [50], "n_cal_grid": [100], "n_null": 2, "n_v": 100, "estimator": estimator}
        plan = ExperimentPlan(**{**SMALL_TYPE1, **over})
        # flow sizes are build_coupling_flow's arguments, the rest NpeConfig's fields
        named = key if key in ("hidden", "n_layers") else rf"NpeConfig\.{key}"
        with pytest.raises(ConfigurationError, match=rf"^cell \(n_train=50\): {named} "):
            run_power(plan)
