"""Test statistics, local test procedures, PP-plots, and heatmaps."""

import re

import numpy as np
import pytest

from lc2st import (
    ConfigurationError,
    GaussianShiftPair,
    JointDataset,
    LabeledPairDataset,
    NumericError,
    RngStream,
    analytic_bayes,
    build_coupling_flow,
    conjugate_affine_flow,
    distort,
    fit_null_ensemble,
    gaussian_conjugate_task,
    gaussian_shift_samples,
    lc2st_evaluate,
    lc2st_nf_evaluate,
    lc2st_nf_null,
    lc2st_nf_train,
    lc2st_train,
    lc2st_training_set,
    mlp_factory,
    p_value_from_null,
    pp_plot,
    probability_heatmap,
    qda_factory,
    run_test,
    t_acc,
    t_acc0,
    t_mse,
    t_mse0,
)
from lc2st import core
from lc2st.c2st import (
    CLASS0_LOGIT,
    Relabeled,
    Resampled,
    TestResult,
    append_conditioning,
    heatmap_rows,
    single_class_statistics,
)
from lc2st.classifiers import MlpConfig, QdaModel, qda_fit
from lc2st.nets import sigmoid
from scipy.stats import ks_2samp

QUADRATURE_GRID = np.linspace(-16.0, 16.0, 4001)


def quadrature_values(sigma):
    """Grid-quadrature oracles for the shift pair: single-class and two-class limits."""
    g = QUADRATURE_GRID
    gx, gy = np.meshgrid(g, g, indexing="ij")
    r2 = gx**2 + gy**2
    log_p = -np.log(2 * np.pi) - r2 / 2
    log_q = -np.log(2 * np.pi * sigma**2) - r2 / (2 * sigma**2)
    d_star = 1.0 / (1.0 + np.exp(np.clip(log_q - log_p, -700, 700)))
    sq = (d_star - 0.5) ** 2
    p_dens, q_dens = np.exp(log_p), np.exp(log_q)

    def integrate(f):
        return float(np.trapezoid(np.trapezoid(f, g, axis=1), g))

    return {
        "mse0": integrate(sq * q_dens),
        "mse_literal": integrate(sq * (p_dens + q_dens)),
        "mse_avg": integrate(sq * (p_dens + q_dens) / 2.0),
    }


class _Const:
    def __init__(self, value):
        self.value = value

    def predict_proba(self, ws, given=None):
        return np.full(len(append_conditioning(ws, given)), self.value)


class TestStatistics:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.val = LabeledPairDataset.from_class_arrays(
            rng.standard_normal((500, 2)), rng.standard_normal((500, 2))
        )

    def test_tacc_constant_half_is_exactly_half(self):
        # ties predict class 0: the class-0 half of the set is correct
        assert t_acc(_Const(0.5), self.val) == 0.5

    def test_tacc_perfect_classifier(self):
        class Perfect:
            def __init__(self, val):
                self.val = val

            def predict_proba(self, ws, given=None):
                ws = append_conditioning(ws, given)
                out = np.zeros(len(ws))
                for i, w in enumerate(ws):
                    match = np.all(self.val.ws == w, axis=1)
                    out[i] = self.val.labels[np.argmax(match)]
                return out

        assert t_acc(Perfect(self.val), self.val) == 1.0

    def test_unbalanced_validation_rejected(self):
        data = LabeledPairDataset(np.zeros((3, 1)), [0, 0, 1])
        for stat in (t_acc, t_mse):
            with pytest.raises(ConfigurationError):
                stat(_Const(0.5), data)

    def test_tmse_constant_half_is_zero(self):
        assert t_mse(_Const(0.5), self.val) == 0.0

    def test_tmse_constant_one_hits_literal_bound(self):
        # both per-class sums are 1/4: literal total 1/2
        assert t_mse(_Const(1.0), self.val) == pytest.approx(0.5)

    def test_tmse_matches_quadrature_for_bayes_classifier(self):
        sigma = 2.0
        oracle = quadrature_values(sigma)
        pair = GaussianShiftPair(sigma=sigma, dim=2)
        clf = analytic_bayes(pair.log_prob_p, pair.log_prob_q)
        p, q = gaussian_shift_samples(pair, 100_000, RngStream(seed=1))
        val = LabeledPairDataset.from_class_arrays(q, p)
        assert abs(t_mse(clf, val) - oracle["mse_literal"]) <= 0.005

    def test_tmse0_bounds_and_constants(self):
        pts = np.zeros((10, 2))
        assert t_mse0(_Const(0.5), pts) == 0.0
        assert t_mse0(_Const(0.0), pts) == pytest.approx(0.25)
        assert t_mse0(_Const(1.0), pts) == pytest.approx(0.25)

    def test_tmse0_matches_quadrature(self):
        sigma = 2.0
        oracle = quadrature_values(sigma)
        pair = GaussianShiftPair(sigma=sigma, dim=2)
        clf = analytic_bayes(pair.log_prob_p, pair.log_prob_q)
        val_q = pair.sample_q(100_000, RngStream(seed=2))
        assert abs(t_mse0(clf, val_q) - oracle["mse0"]) <= 0.005

    def test_tmse_equals_sum_of_single_class_terms(self):
        pair = GaussianShiftPair(sigma=1.7, dim=2)
        clf = analytic_bayes(pair.log_prob_p, pair.log_prob_q)
        total = t_mse(clf, self.val)
        part0 = t_mse0(clf, self.val.ws[self.val.labels == 0])
        part1 = t_mse0(clf, self.val.ws[self.val.labels == 1])
        assert total == pytest.approx(part0 + part1, abs=1e-15)

    def test_tacc0_tie_rule(self):
        assert t_acc0(_Const(0.5), np.zeros((7, 2))) == 1.0

    def test_tacc0_near_half_on_null_pair_averaged_over_seeds(self):
        # fitted classifiers behave like fair coins on the null pair
        values = []
        for seed in range(30):
            pair = GaussianShiftPair(sigma=1.0, dim=2)
            p, q = gaussian_shift_samples(pair, 10_000, RngStream(seed=seed).child("a"))
            clf = qda_fit(LabeledPairDataset.from_class_arrays(q, p))
            val_q = pair.sample_q(4000, RngStream(seed=seed).child("b"))
            values.append(t_acc0(clf, val_q))
        assert 0.38 <= np.mean(values) <= 0.62

    def test_acc0_blind_spot_for_narrow_estimators(self):
        # as sigma shrinks below 1 the accuracy statistic saturates above 1/2
        # while the single-class MSE keeps growing: only the latter separates
        acc0, mse0 = [], []
        for sigma in (0.9, 0.8, 0.7, 0.6):
            pair = GaussianShiftPair(sigma=sigma, dim=2)
            clf = analytic_bayes(pair.log_prob_p, pair.log_prob_q)
            val_q = pair.sample_q(50_000, RngStream(seed=3).child(repr(sigma)))
            acc0.append(t_acc0(clf, val_q))
            mse0.append(t_mse0(clf, val_q))
        assert all(a >= 0.5 for a in acc0)
        assert all(b > a for a, b in zip(mse0, mse0[1:]))

    def test_statistic_bounds_for_arbitrary_classifiers(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            clf = _Const(rng.random())
            pts = rng.standard_normal((rng.integers(1, 50), 3))
            assert 0.0 <= t_mse0(clf, pts) <= 0.25
            assert 0.0 <= t_acc0(clf, pts) <= 1.0


class TestPValues:
    def test_strict_exceedance_hand_count(self):
        nulls = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert p_value_from_null(0.25, nulls) == pytest.approx(3 / 5)
        assert p_value_from_null(0.3, nulls) == pytest.approx(2 / 5)  # ties excluded
        assert p_value_from_null(0.0, nulls) == 1.0
        assert p_value_from_null(0.9, nulls) == 0.0

    def test_conservative_variant_never_zero(self):
        nulls = np.array([0.1, 0.2, 0.3])
        assert p_value_from_null(0.9, nulls, conservative=True) == pytest.approx(1 / 4)
        assert p_value_from_null(0.3, nulls, conservative=True) == pytest.approx(2 / 4)

    def test_result_validates_p_value_formula(self):
        nulls = np.array([0.01, 0.02])
        TestResult("lc2st", 0.015, nulls, 0.5, np.zeros(2), 10, 2, {})
        with pytest.raises(ConfigurationError):
            TestResult("lc2st", 0.015, nulls, 0.25, np.zeros(2), 10, 2, {})

    def test_result_bounds_by_method(self):
        with pytest.raises(ConfigurationError):
            TestResult("lc2st", 0.3, None, None, np.zeros(2), 10, 0, {}, None)
        TestResult("oracle-c2st-mse", 0.3, None, None, np.zeros(2), 10, 0, {}, None)

    def test_result_json_schema(self):
        nulls = np.array([0.2, 0.05])
        res = TestResult.from_stats("lc2st", 0.1, nulls, np.array([1.0, 2.0]), 100, {"seed": 3})
        payload = res.to_json_dict()
        assert set(payload) == {
            "method", "x_o", "statistic", "p_value", "null_statistics", "n_v", "n_h", "seeds", "p_value_kind"
        }
        assert payload["p_value"] == 0.5 and payload["n_h"] == 2 and payload["p_value_kind"] == "strict"


class TestLocalTest:
    def setup_method(self):
        self.task = gaussian_conjugate_task(m=2, noise_std=1.0)
        self.fit = qda_factory()
        self.x_o = np.array([0.6, -0.2])

    def test_exact_estimator_near_chance_heldout_accuracy(self):
        cal = self.task.sample_joint(2000, RngStream(seed=5))
        clf, _ = lc2st_train(self.task.reference, cal, self.fit, 0, RngStream(seed=6))
        fresh = self.task.sample_joint(2000, RngStream(seed=7))
        theta_q = self.task.reference.sample_conditional(fresh.xs, RngStream(seed=8))
        held = LabeledPairDataset.from_class_arrays(
            np.hstack([theta_q, fresh.xs]), np.hstack([fresh.thetas, fresh.xs])
        )
        assert 0.45 <= t_acc(clf, held) <= 0.55

    def test_shifted_estimator_separable(self):
        shifted = distort(self.task.reference, np.array([1.0, 1.0]), 1.0)
        cal = self.task.sample_joint(10_000, RngStream(seed=9))
        clf, _ = lc2st_train(shifted, cal, self.fit, 0, RngStream(seed=10))
        fresh = self.task.sample_joint(4000, RngStream(seed=11))
        theta_q = shifted.sample_conditional(fresh.xs, RngStream(seed=12))
        held = LabeledPairDataset.from_class_arrays(
            np.hstack([theta_q, fresh.xs]), np.hstack([fresh.thetas, fresh.xs])
        )
        assert t_acc(clf, held) > 0.6

    def test_zero_null_trials_gives_empty_ensemble(self):
        cal = self.task.sample_joint(500, RngStream(seed=13))
        clf, ensemble = lc2st_train(self.task.reference, cal, self.fit, 0, RngStream(seed=14))
        assert len(ensemble) == 0
        result = lc2st_evaluate(clf, ensemble, self.task.reference, self.x_o, 500, RngStream(seed=15))
        assert result.p_value is None and result.n_h == 0

    def test_estimator_failure_carries_row_index(self):
        class Broken:
            m = 2

            def sample_conditional(self, xs, stream):
                out = np.zeros((len(xs), 2))
                out[3] = np.nan
                return out

        cal = self.task.sample_joint(10, RngStream(seed=16))
        with pytest.raises(NumericError, match="row 3"):
            lc2st_train(Broken(), cal, self.fit, 0, RngStream(seed=17))

    def test_distorted_estimator_rejected(self):
        scaled = distort(self.task.reference, np.zeros(2), 2.0)
        cal = self.task.sample_joint(10_000, RngStream(seed=18))
        clf, ensemble = lc2st_train(scaled, cal, self.fit, 50, RngStream(seed=19))
        result = lc2st_evaluate(clf, ensemble, scaled, self.x_o, 10_000, RngStream(seed=20))
        assert result.p_value == 0.0
        assert result.statistic > 10 * result.null_statistics.max()

    def test_statistic_below_all_nulls_gives_p_one(self):
        cal = self.task.sample_joint(1000, RngStream(seed=21))
        _, ensemble = lc2st_train(self.task.reference, cal, self.fit, 20, RngStream(seed=22))
        result = lc2st_evaluate(_Const(0.5), ensemble, self.task.reference, self.x_o, 1000, RngStream(seed=23))
        assert result.statistic == 0.0 and result.p_value == 1.0

    def test_evaluation_draws_shared_across_null_classifiers(self):
        # all null statistics come from the same estimator draws: rerunning with
        # the same stream reproduces them bit-for-bit
        cal = self.task.sample_joint(1000, RngStream(seed=24))
        clf, ensemble = lc2st_train(self.task.reference, cal, self.fit, 10, RngStream(seed=25))
        r1 = lc2st_evaluate(clf, ensemble, self.task.reference, self.x_o, 500, RngStream(seed=26))
        r2 = lc2st_evaluate(clf, ensemble, self.task.reference, self.x_o, 500, RngStream(seed=26))
        assert np.array_equal(r1.null_statistics, r2.null_statistics)
        assert r1.statistic == r2.statistic


class TestNfVariant:
    def setup_method(self):
        self.task = gaussian_conjugate_task(m=2, noise_std=1.0)
        self.fit = qda_factory()
        self.x_o = np.array([0.5, 0.1])

    def test_degenerate_identity_setup_near_chance(self):
        # identity flow, standard-normal prior, theta-independent likelihood:
        # both latent classes are exactly N(0, I)
        flow = build_coupling_flow(2, 2, stream=RngStream(seed=27))

        rng = RngStream(seed=28).generator()
        thetas = rng.standard_normal((4000, 2))
        xs = rng.standard_normal((4000, 2))
        cal = JointDataset(thetas, xs)
        clf = lc2st_nf_train(flow, cal, self.fit, RngStream(seed=29))
        fresh_z = RngStream(seed=30).generator().standard_normal((4000, 2))
        held = LabeledPairDataset.from_class_arrays(
            np.hstack([fresh_z, xs]), np.hstack([rng.standard_normal((4000, 2)), xs])
        )
        assert 0.45 <= t_acc(clf, held) <= 0.55

    def test_exact_flow_near_chance(self):
        flow = conjugate_affine_flow(2, 1.0)
        cal = self.task.sample_joint(4000, RngStream(seed=31))
        clf = lc2st_nf_train(flow, cal, self.fit, RngStream(seed=32))
        fresh = self.task.sample_joint(4000, RngStream(seed=33))
        z_q, _ = flow.inverse(fresh.thetas, fresh.xs)
        z0 = RngStream(seed=34).generator().standard_normal((4000, 2))
        held = LabeledPairDataset.from_class_arrays(
            np.hstack([z0, fresh.xs]), np.hstack([z_q, fresh.xs])
        )
        assert 0.45 <= t_acc(clf, held) <= 0.58

    def test_scale_distorted_flow_separable(self):
        flow = conjugate_affine_flow(2, 1.0, scale_mult=0.5)
        cal = self.task.sample_joint(10_000, RngStream(seed=35))
        clf = lc2st_nf_train(flow, cal, self.fit, RngStream(seed=36))
        fresh = self.task.sample_joint(5000, RngStream(seed=37))
        z_q, _ = flow.inverse(fresh.thetas, fresh.xs)
        z0 = RngStream(seed=38).generator().standard_normal((5000, 2))
        held = LabeledPairDataset.from_class_arrays(
            np.hstack([z0, fresh.xs]), np.hstack([z_q, fresh.xs])
        )
        assert t_acc(clf, held) > 0.6

    def test_inverse_failure_names_row(self):
        class BadFlow:
            m = 2
            d = 2

            def inverse(self, thetas, xs):
                z = np.zeros_like(thetas)
                z[2] = np.inf
                return z, np.zeros(len(thetas))

        cal = self.task.sample_joint(10, RngStream(seed=39))
        with pytest.raises(NumericError, match="row 2"):
            lc2st_nf_train(BadFlow(), cal, self.fit, RngStream(seed=40))

    def test_null_ensemble_members_near_chance(self):
        cal = self.task.sample_joint(2000, RngStream(seed=41))
        ensemble = lc2st_nf_null(cal.xs, 2, self.fit, 10, RngStream(seed=42))
        rng = RngStream(seed=43).generator()
        held = LabeledPairDataset.from_class_arrays(
            np.hstack([rng.standard_normal((2000, 2)), cal.xs]),
            np.hstack([rng.standard_normal((2000, 2)), cal.xs]),
        )
        for member in ensemble.classifiers:
            assert 0.45 <= t_acc(member, held) <= 0.55

    def test_null_ensemble_deterministic(self):
        cal = self.task.sample_joint(500, RngStream(seed=44))
        a = lc2st_nf_null(cal.xs, 2, self.fit, 5, RngStream(seed=45))
        b = lc2st_nf_null(cal.xs, 2, self.fit, 5, RngStream(seed=45))
        pts = RngStream(seed=46).generator().standard_normal((100, 4))
        for ca, cb in zip(a.classifiers, b.classifiers):
            assert np.array_equal(ca.predict_proba(pts), cb.predict_proba(pts))

    def test_ensemble_reusable_across_flows(self):
        cal = self.task.sample_joint(4000, RngStream(seed=47))
        ensemble = lc2st_nf_null(cal.xs, 2, self.fit, 50, RngStream(seed=48))
        results = {}
        for label, flow in {
            "exact": conjugate_affine_flow(2, 1.0),
            "scaled": conjugate_affine_flow(2, 1.0, scale_mult=2.0),
        }.items():
            clf = lc2st_nf_train(flow, cal, self.fit, RngStream(seed=49))
            results[label] = lc2st_nf_evaluate(
                clf, ensemble, self.x_o, 2, 4000, RngStream(seed=50)
            )
        assert results["exact"].p_value > 0.05
        assert results["scaled"].p_value == 0.0


class TestRunTest:
    def setup_method(self):
        self.task = gaussian_conjugate_task(m=2, noise_std=1.0)
        self.x_o = np.array([0.6, -0.2])

    def _run(self, method, estimator, n_null=8, fit_fn=None, **kw):
        fit_fn = fit_fn or qda_factory()
        return run_test(method, self.task, estimator, self.x_o, 300, n_null, 300, fit_fn, RngStream(seed=9), **kw)

    def test_given_ensemble_is_used_and_not_timed(self):
        flow = conjugate_affine_flow(2, 1.0)
        fitted = self._run("lc2st-nf", flow)
        assert len(fitted.ensemble) == 8 and fitted.seconds["null"] == fitted.ensemble.fit_seconds > 0.0
        stream = RngStream(seed=9)
        cal = self.task.sample_joint(300, stream.child("cal"))
        shared = lc2st_nf_null(cal.xs, 2, qda_factory(), 8, stream.child("null"))
        reused = self._run("lc2st-nf", flow, n_null=0, ensemble=shared)
        assert reused.ensemble is shared and reused.seconds["null"] == 0.0
        assert np.array_equal(reused.results[0].null_statistics, fitted.results[0].null_statistics)
        assert reused.results[0].statistic == fitted.results[0].statistic

    @pytest.mark.parametrize("method", ["lc2st", "lc2st-nf", "oracle-c2st-acc", "oracle-c2st-mse"])
    def test_zero_null_gives_no_p_value(self, method):
        estimator = conjugate_affine_flow(2, 1.0) if method == "lc2st-nf" else self.task.reference
        run = self._run(method, estimator, n_null=0)
        assert len(run.ensemble) == 0 and run.results[0].p_value is None and run.results[0].p_value_kind is None
        assert run.seconds["null"] == 0.0 and run.seconds["train"] > 0.0 and run.seconds["evaluate"] > 0.0

    def test_oracle_null_is_free_permutation_scored_on_fresh_draws(self):
        run = self._run("oracle-c2st-acc", self.task.reference, conservative=True)
        stream, ref, x_o = RngStream(seed=9), self.task.reference, self.x_o
        train = LabeledPairDataset.from_class_arrays(
            ref.sample(x_o, 300, stream.child("q-train")), ref.sample(x_o, 300, stream.child("p-train"))
        )
        val = LabeledPairDataset.from_class_arrays(
            ref.sample(x_o, 300, stream.child("q-val")), ref.sample(x_o, 300, stream.child("p-val"))
        )
        null = fit_null_ensemble(train, qda_factory(), 8, stream.child("null"))
        assert run.results[0].statistic == t_acc(qda_factory()(train, stream.child("fit")), val)
        assert run.results[0].null_statistics.tolist() == [t_acc(member, val) for member in null.classifiers]
        assert run.results[0].p_value_kind == "conservative" and run.results[0].method == "oracle-c2st-acc"

    def test_given_ensemble_calls_no_null_step(self):
        cal = self.task.sample_joint(300, RngStream(seed=3))
        fit = CountingFitter(qda_factory())
        shared = lc2st_nf_null(cal.xs, 2, fit, 4, RngStream(seed=4))
        assert (fit.calls, fit.ensembles) == (0, 1)
        self._run("lc2st-nf", conjugate_affine_flow(2, 1.0), fit_fn=fit, ensemble=shared)
        assert (fit.calls, fit.ensembles) == (1, 1)

    def test_ensemble_it_cannot_use_is_rejected(self):
        cal = self.task.sample_joint(300, RngStream(seed=3))
        flow = conjugate_affine_flow(2, 1.0)
        nf_null = lc2st_nf_null(cal.xs, 2, qda_factory(), 4, RngStream(seed=4))
        for method in ("lc2st", "oracle-c2st-mse"):
            with pytest.raises(ConfigurationError, match=f"only lc2st-nf .* got {method!r} with a 'nf-resampled'"):
                self._run(method, self.task.reference, ensemble=nf_null)
        _, permutation = lc2st_train(self.task.reference, cal, qda_factory(), 4, RngStream(seed=5))
        with pytest.raises(ConfigurationError, match="over 2 latents; got 'lc2st-nf' with a 'permutation' null"):
            self._run("lc2st-nf", flow, ensemble=permutation)
        wide = lc2st_nf_null(cal.xs, 3, qda_factory(), 4, RngStream(seed=4))
        with pytest.raises(ConfigurationError, match="'nf-resampled' null over 3$"):
            self._run("lc2st-nf", flow, ensemble=wide)

    def test_null_fitted_at_another_n_cal_is_rejected_before_any_fit(self):
        fit = CountingFitter(qda_factory())
        null = lc2st_nf_null(self.task.sample_joint(50, RngStream(seed=3)).xs, 2, fit, 4, RngStream(seed=4))
        with pytest.raises(ConfigurationError, match="^the given null was fitted for n_cal 50, this test has n_cal 300$"):
            self._run("lc2st-nf", conjugate_affine_flow(2, 1.0), fit_fn=fit, ensemble=null)
        assert (fit.calls, fit.ensembles) == (0, 1)

    def test_null_fitted_at_another_observation_dimension_is_rejected(self):
        xs = np.random.default_rng(5).standard_normal((300, 3))
        null = lc2st_nf_null(xs, 2, qda_factory(), 4, RngStream(seed=4))
        with pytest.raises(ConfigurationError, match="^the given null was fitted for d 3, this test has d 2$"):
            self._run("lc2st-nf", conjugate_affine_flow(2, 1.0), ensemble=null)

    def test_null_fitted_by_another_fitter_is_rejected(self):
        xs = self.task.sample_joint(300, RngStream(seed=3)).xs
        null = lc2st_nf_null(xs, 2, qda_factory(), 4, RngStream(seed=4))
        mlp = mlp_factory(MlpConfig(hidden_sizes=(4,), max_epochs=1))
        for fit in (mlp, qda_factory(0.1)):
            want = f"^the given null was fitted for fitter QdaFitter\\(ridge=None\\), this test has fitter {re.escape(repr(fit))}$"
            with pytest.raises(ConfigurationError, match=want):
                self._run("lc2st-nf", conjugate_affine_flow(2, 1.0), fit_fn=fit, ensemble=null)

    @pytest.mark.parametrize("method", ["lc2st", "lc2st-nf", "oracle-c2st-acc", "oracle-c2st-mse"])
    @pytest.mark.parametrize("n_cal, n_null, field", [(0, 8, "n_cal"), (-5, 8, "n_cal"), (300, -5, "n_null"), (300, 8, "n_v")])
    def test_bad_sizes_name_their_field(self, method, n_cal, n_null, field):
        estimator = conjugate_affine_flow(2, 1.0) if method == "lc2st-nf" else self.task.reference
        n_v = -5 if field == "n_v" else 300
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            run_test(method, self.task, estimator, self.x_o, n_cal, n_null, n_v, qda_factory(), RngStream(seed=9))

    def test_unknown_method_and_missing_reference_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown method"):
            self._run("c2st", self.task.reference)
        self.task = type(self.task)(self.task.name, 2, 2, self.task.prior_sample, self.task.simulate, None)
        with pytest.raises(ConfigurationError, match="reference posterior"):
            self._run("oracle-c2st-mse", conjugate_affine_flow(2, 1.0))



class _FixedLogOdds:
    """A stack whose members' log-odds are the columns of ``logits``, at the
    rows that its one feature indexes."""

    def __init__(self, logits):
        self.logits = logits

    def __len__(self):
        return self.logits.shape[1]

    def log_odds(self, ws, given=None, out=None, scale=1.0):
        return scale * self.logits[append_conditioning(ws, given)[:, 0].astype(np.int64)]


class TestClass0Logit:
    """``t_acc0`` counts l <= CLASS0_LOGIT instead of sigmoid(l) <= 1/2."""

    def test_is_the_largest_double_whose_sigmoid_is_at_most_one_half(self):
        # bisection over the bit patterns of the positive doubles in [0, 1];
        # sigmoid is monotone and sigmoid(0) = 1/2 < sigmoid(1)
        lo, hi = 0, int(np.float64(1.0).view(np.int64))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if sigmoid(np.int64(mid).view(np.float64)) <= 0.5:
                lo = mid
            else:
                hi = mid
        assert np.int64(lo).view(np.float64) == CLASS0_LOGIT

    def test_counts_equal_sigmoid_counts(self):
        rng, L = np.random.default_rng(175), CLASS0_LOGIT
        neighbours = [L, np.nextafter(L, np.inf), np.nextafter(L, -np.inf), np.nextafter(np.nextafter(L, np.inf), np.inf)]
        special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0), *neighbours]
        blocks = [rng.standard_normal((1500, 6)) * scale for scale in (1e-16, 1e-14, 1.0, 40.0)]
        blocks.append(rng.permutation(np.repeat(special, 20)).reshape(-1, 4))
        for block in blocks:
            with np.errstate(invalid="ignore"):
                want = (sigmoid(block) <= 0.5).sum(axis=0) / len(block)
            _, got = single_class_statistics(_FixedLogOdds(block), np.arange(len(block))[:, None])
            assert got.tobytes() == want.tobytes()


class TestOnePhiloxPerNull:
    """Every member of a QDA null ensemble draws from the null's one Philox."""

    @pytest.fixture
    def philox_built(self, monkeypatch):
        built, philox = [], core.np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(core.np.random, "Philox", counting)
        return built

    @pytest.mark.parametrize("paired", [True, False])
    def test_permutation_null(self, philox_built, paired):
        rng = np.random.default_rng(160)
        data = LabeledPairDataset.from_class_arrays(rng.standard_normal((40, 4)), rng.standard_normal((40, 4)) + 0.5)
        null = fit_null_ensemble(data, qda_factory(), 100, RngStream(seed=161), paired=paired)
        assert len(null) == 100 and len(philox_built) == 1

    def test_nf_resampled_null(self, philox_built):
        xs = np.random.default_rng(162).standard_normal((40, 2))
        null = lc2st_nf_null(xs, 2, qda_factory(), 100, RngStream(seed=163))
        assert len(null) == 100 and len(philox_built) == 1


def old_member_datasets(data, n_null, stream, paired):
    """A permutation null's members as they were drawn before one draw per
    null: member h's labels from its own ``trial/h/perm`` stream, uniform
    flips of the upper half if paired, else a permutation of the labels."""
    out = []
    for h in range(n_null):
        rng = stream.child("trial", h).child("perm").generator()
        if paired:
            flips = (rng.random(data.n // 2) < 0.5).astype(np.int64)
            out.append(data.with_labels(np.concatenate([flips, 1 - flips])))
        else:
            out.append(data.with_labels(data.labels[rng.permutation(data.n)]))
    return out


def qda_null_statistics(datasets, ws):
    """``t_mse0`` on ``ws`` of ``qda_fit`` on each dataset."""
    return np.array([t_mse0(qda_fit(data), ws) for data in datasets])


def row_moments(z, xs):
    """(sums, scatters) over the rows [z, xs] about (0, mean of xs)."""
    w = np.hstack([z, xs - xs.mean(axis=0)])
    return w.sum(axis=0), w.T @ w


def latent_basis(members):
    """The orthonormal u = [1/sqrt(n), q] of a flow null's members, q = xc r^+
    spanning their centred observations xc = q r."""
    r, xc = members.basis
    return np.hstack([np.full((len(xc), 1), len(xc) ** -0.5), xc @ np.linalg.pinv(r)])


def assert_relative(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestOneDrawNulls:
    """The null draws themselves: a permutation null's labels are one draw on
    the null's stream, a flow null's QDA members draw their exact class
    moments, and member h never depends on how many members follow it."""

    @staticmethod
    def paired_data(n, seed):
        """n calibration pairs whose two classes share their observations."""
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((n, 2))
        theta0, theta1 = (0.5 * xs + rng.standard_normal((n, 2)) for _ in range(2))
        return LabeledPairDataset.from_class_arrays(np.hstack([theta0, xs]), np.hstack([theta1, xs]))

    @pytest.mark.parametrize("paired", [True, False])
    def test_label_prefix_is_stable(self, paired):
        rng, stream = np.random.default_rng(171), RngStream(seed=172)
        # 75 flips take two raw words per member; the free set has one more class-1 row
        data = self.paired_data(75, 170) if paired else LabeledPairDataset.from_class_arrays(
            rng.standard_normal((30, 3)), rng.standard_normal((31, 3)) + 0.3
        )
        for n_null in (1, 7):
            short, longer = (list(Relabeled(data, stream, h, paired)) for h in (n_null, n_null + 5))
            for a, b in zip(short, longer[:n_null], strict=True):
                assert np.array_equal(a.labels, b.labels)
            short, longer = (fit_null_ensemble(data, qda_factory(), h, stream, paired) for h in (n_null, n_null + 5))
            assert longer.streams[:n_null] == short.streams
            assert_relative(longer.classifiers.coef[:, :n_null], short.classifiers.coef, 1e-12)

    def test_exact_statistics_prefix_is_stable(self):
        xs, stream = np.random.default_rng(173).standard_normal((40, 2)), RngStream(seed=174)
        for n_null in (1, 7):
            short, longer = (Resampled(xs, 3, stream, h) for h in (n_null, n_null + 5))
            for a, b in zip(short.statistics(), longer.statistics(), strict=True):
                assert np.array_equal(a, b[:n_null])
            for a, b in zip(short, list(longer)[:n_null], strict=True):  # the MLP members' rows
                assert np.array_equal(a.ws, b.ws)
            short, longer = (lc2st_nf_null(xs, 3, qda_factory(), h, stream) for h in (n_null, n_null + 5))
            assert_relative(longer.classifiers.coef[:, :n_null], short.classifiers.coef, 1e-12)

    @pytest.mark.parametrize("deficient", [False, True])
    def test_exact_moments_reproduce_row_moments(self, deficient):
        rng = np.random.default_rng(175)
        xs = rng.standard_normal((50, 4)) * [1.0, 2.0, 0.5, 3.0] + 2.0
        if deficient:  # one column a combination of two others, one constant: rank 2
            xs[:, 2] = xs[:, 0] - 2.0 * xs[:, 1]
            xs[:, 3] = 7.0
        members = Resampled(xs, 3, RngStream(seed=176), 2)
        u = latent_basis(members)
        assert u.shape == (50, 3 if deficient else 5)
        np.testing.assert_allclose(u.T @ u, np.eye(len(u.T)), rtol=0, atol=1e-12)
        for _ in range(3):
            z = rng.standard_normal((2, 2, 50, 3))
            g = u.T @ z
            w = np.swapaxes(z, -1, -2) @ z - np.swapaxes(g, -1, -2) @ g
            counts, centre, sums, scatters = members.moments(g, w)
            assert counts.tolist() == [[50, 50]] * 2
            assert np.array_equal(centre, np.concatenate([np.zeros(3), xs.mean(axis=0)]))
            for h in range(2):
                for c in range(2):
                    want_sums, want_scatters = row_moments(z[h, c], xs)
                    assert_relative(sums[h, c], want_sums, 1e-12)
                    assert_relative(scatters[h, c], want_scatters, 1e-12)

    @pytest.mark.parametrize("deficient", [False, True])
    def test_exact_statistics_have_their_moments(self, deficient):
        # G i.i.d. N(0, 1); W Wishart with n - 1 - rank degrees of freedom:
        # mean df I, variance 2 df on the diagonal and df off it
        xs = np.random.default_rng(186).standard_normal((40, 3))
        if deficient:
            xs[:, 2] = xs[:, 0] + xs[:, 1]
        g, w = Resampled(xs, 2, RngStream(seed=187), 10_000).statistics()
        df = 40 - 1 - (2 if deficient else 3)
        assert g.shape == (10_000, 2, 3 if deficient else 4, 2) and w.shape == (10_000, 2, 2, 2)
        g, w, variances = g.ravel(), w.reshape(-1, 4), np.array([2 * df, df, df, 2 * df])
        assert abs(g.mean()) < 5 / np.sqrt(g.size) and abs(g.var() - 1.0) < 5 * np.sqrt(2 / g.size)
        np.testing.assert_array_less(np.abs(w.mean(axis=0) - [df, 0, 0, df]), 5 * np.sqrt(variances / len(w)))
        np.testing.assert_allclose(w.var(axis=0), variances, rtol=0.1)
        assert np.array_equal(w[:, 1], w[:, 2])

    def test_rank_deficient_observations_fit(self):
        xs = np.random.default_rng(177).standard_normal((60, 3))
        xs[:, 2] = 1.5
        null = lc2st_nf_null(xs, 2, qda_factory(), 10, RngStream(seed=178))
        assert isinstance(null.classifiers, QdaModel) and np.all(np.isfinite(null.classifiers.coef))

    @pytest.mark.parametrize("n_cal", [40, 1000])
    def test_exact_nf_null_matches_row_path(self, n_cal):
        rng = np.random.default_rng(179 + n_cal)
        xs = rng.standard_normal((n_cal, 2))
        ws = append_conditioning(rng.standard_normal((1000, 2)), [0.4, -0.8])
        exact = lc2st_nf_null(xs, 2, qda_factory(), 300, RngStream(seed=180))
        rows = qda_null_statistics(Resampled(xs, 2, RngStream(seed=181), 300), ws)
        ks = ks_2samp(single_class_statistics(exact.classifiers, ws)[0], rows)
        assert ks.pvalue > 1e-3, f"exact and row-drawn nulls differ: KS p = {ks.pvalue}"

    @pytest.mark.parametrize("n_cal", [40, 1000])
    @pytest.mark.parametrize("paired", [True, False])
    def test_label_draws_match_per_member_draws(self, paired, n_cal):
        data = self.paired_data(n_cal, 182 + n_cal)
        ws = np.hstack([np.random.default_rng(183).standard_normal((1000, 2)) - 0.2, np.full((1000, 2), 0.5)])
        new = fit_null_ensemble(data, qda_factory(), 300, RngStream(seed=184), paired)
        old = qda_null_statistics(old_member_datasets(data, 300, RngStream(seed=185), paired), ws)
        ks = ks_2samp(single_class_statistics(new.classifiers, ws)[0], old)
        assert ks.pvalue > 1e-3, f"one-draw and per-member labels differ: KS p = {ks.pvalue}"


class TestPermutationNullInputs:
    @pytest.mark.parametrize("n0, n1, swap", [(3, 4, False), (4, 3, False), (3, 3, True)])
    def test_paired_null_requires_stacked_equal_classes(self, n0, n1, swap):
        data = LabeledPairDataset.from_class_arrays(np.zeros((n0, 2)), np.ones((n1, 2)))
        if swap:  # equal counts, class 1 on top
            data = data.with_labels(1 - data.labels)
        with pytest.raises(ConfigurationError, match="paired permutation requires"):
            fit_null_ensemble(data, qda_factory(), 1, RngStream(seed=165), paired=True)

    def test_negative_null_size_is_rejected(self):
        data = LabeledPairDataset.from_class_arrays(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(ConfigurationError, match="n_null must be nonnegative"):
            fit_null_ensemble(data, qda_factory(), -1, RngStream(seed=164))


class CountingFitter:
    """A fitter that counts its single fits and its ensemble fits."""

    def __init__(self, fit):
        self.fit, self.calls, self.ensembles = fit, 0, 0

    def __call__(self, data, stream):
        self.calls += 1
        return self.fit(data, stream)

    def ensemble(self, members, streams):
        self.ensembles += 1
        return self.fit.ensemble(members, streams)


class TestManyObservations:
    """One run_test at k observations: one training, and row j is bitwise the
    one-observation test at row j."""

    OBSERVATIONS = np.array([[0.6, -0.2], [-1.1, 0.4], [0.0, 2.0]])

    @pytest.mark.parametrize("method", ["lc2st", "lc2st-nf"])
    @pytest.mark.parametrize(
        "fit", [qda_factory(), mlp_factory(MlpConfig(hidden_sizes=(8,), max_epochs=4, patience=4))], ids=["qda", "mlp"]
    )
    def test_batch_equals_one_test_per_row(self, method, fit):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        if method == "lc2st-nf":
            estimator = conjugate_affine_flow(2, 1.0, scale_mult=1.2)
        else:
            estimator = distort(task.reference, [0.2, 0.0], 1.2)
        counting = CountingFitter(fit)
        batch = run_test(method, task, estimator, self.OBSERVATIONS, 200, 6, 150, counting, RngStream(seed=71))
        assert (counting.calls, counting.ensembles) == (1, 1)
        assert len(batch.results) == len(self.OBSERVATIONS) and len(batch.ensemble) == 6
        for x_o, result in zip(self.OBSERVATIONS, batch.results):
            single = run_test(method, task, estimator, x_o, 200, 6, 150, fit, RngStream(seed=71))
            assert result.to_json_dict() == single.results[0].to_json_dict()
            assert result.points.tobytes() == single.results[0].points.tobytes()
        # the rows share the evaluation stream but not the observation
        assert len({r.statistic for r in batch.results}) == len(self.OBSERVATIONS)
        with pytest.raises(ConfigurationError, match="at least one observation"):
            run_test(method, task, estimator, np.empty((0, 2)), 200, 6, 150, fit, RngStream(seed=71))

    @pytest.mark.parametrize("method", ["oracle-c2st-acc", "oracle-c2st-mse"])
    def test_oracle_takes_one_observation(self, method):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        with pytest.raises(ConfigurationError, match="got 3, need 1"):
            run_test(method, task, task.reference, self.OBSERVATIONS, 100, 0, 100, qda_factory(), RngStream(seed=1))
        one = run_test(method, task, task.reference, self.OBSERVATIONS[:1], 100, 4, 100, qda_factory(), RngStream(seed=1))
        row = run_test(method, task, task.reference, self.OBSERVATIONS[0], 100, 4, 100, qda_factory(), RngStream(seed=1))
        assert one.results[0].to_json_dict() == row.results[0].to_json_dict()
        # the points are the val rows: estimator draws above reference draws
        x_o, stream = self.OBSERVATIONS[0], RngStream(seed=1)
        val = LabeledPairDataset.from_class_arrays(
            task.reference.sample(x_o, 100, stream.child("q-val")), task.reference.sample(x_o, 100, stream.child("p-val"))
        )
        assert np.array_equal(row.results[0].points, val.ws)

class TestPPPlot:
    def _null_ensemble(self, n_members=40, seed=51):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        cal = task.sample_joint(1000, RngStream(seed=seed))
        return task, cal, lc2st_nf_null(cal.xs, 2, qda_factory(), n_members, RngStream(seed=seed + 1))

    def test_constant_half_is_step_function(self):
        _, _, ensemble = self._null_ensemble()
        levels = np.array([0.1, 0.3, 0.49, 0.5, 0.7, 0.9])
        ws = np.zeros((100, 4))
        data = pp_plot(_Const(0.5), ensemble, ws, levels=levels)
        assert np.array_equal(data.cdf, np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]))

    def test_degenerate_classifier_violates_band(self):
        task, cal, ensemble = self._null_ensemble()
        rng = RngStream(seed=53).generator()
        ws = np.hstack([rng.standard_normal((500, 2)), np.broadcast_to(cal.xs[0], (500, 2))])
        data = pp_plot(_Const(0.0), ensemble, ws)
        # class-0 probability is identically 1: the empirical CDF is 0 at every level
        assert np.all(data.cdf == 0.0)
        assert data.fraction_inside() < 0.5

    def test_null_construction_stays_inside_band(self):
        task, cal, ensemble = self._null_ensemble(n_members=100, seed=54)
        rng = RngStream(seed=55).generator()
        z0, z1 = rng.standard_normal((2, cal.n, 2))
        main = qda_fit(
            LabeledPairDataset.from_class_arrays(np.hstack([z0, cal.xs]), np.hstack([z1, cal.xs]))
        )
        _, x_o = task.observation(RngStream(seed=56))
        zs = RngStream(seed=57).generator().standard_normal((1000, 2))
        data = pp_plot(main, ensemble, append_conditioning(zs, x_o))
        assert data.fraction_inside() >= 0.9

    def test_monotone_and_ordered_bands_random_inputs(self):
        rng = np.random.default_rng(58)
        ensemble = lc2st_nf_null(rng.standard_normal((100, 1)), 2, qda_factory(), 20, RngStream(seed=59))
        ws = rng.standard_normal((200, 3))
        data = pp_plot(_Const(rng.random()), ensemble, ws)
        assert np.all(np.diff(data.cdf) >= 0)
        assert np.all(np.diff(data.lower) >= -1e-12)
        assert np.all(np.diff(data.upper) >= -1e-12)
        assert np.all(data.lower <= data.upper + 1e-12)

    @pytest.mark.parametrize("fit", [qda_factory(), mlp_factory(MlpConfig((8,), max_epochs=3))], ids=["qda", "mlp"])
    def test_cdf_is_the_ecdf_of_class0_probabilities(self, fit):
        task, cal, ensemble = self._null_ensemble(n_members=10, seed=60)
        clf = lc2st_nf_train(conjugate_affine_flow(2, 1.0, scale_mult=1.5), cal, fit, RngStream(seed=61))
        ws = append_conditioning(RngStream(seed=62).generator().standard_normal((1500, 2)), cal.xs[0])
        levels = np.concatenate([np.linspace(0.01, 0.99, 60), [0.5, 0.5]])
        levels.sort()
        data = pp_plot(clf, ensemble, ws, levels=levels)
        ecdf = np.mean((1.0 - clf.predict_proba(ws))[:, None] <= levels, axis=0)
        assert data.cdf.tobytes() == ecdf.tobytes()

    def test_empty_eval_set_rejected(self):
        _, _, ensemble = self._null_ensemble()
        with pytest.raises(ConfigurationError):
            pp_plot(_Const(0.5), ensemble, np.zeros((0, 4)))


class TestHeatmap:
    def setup_method(self):
        self.task = gaussian_conjugate_task(m=2, noise_std=1.0)
        self.fit = qda_factory()
        self.x_o = np.array([0.3, -0.3])

    def rows(self, seed, n):
        """n latent rows (z, x_o), z drawn on ``RngStream(seed=seed).child("z")``."""
        return append_conditioning(RngStream(seed=seed).child("z").generator().standard_normal((n, 2)), self.x_o)

    def test_consistent_estimator_mostly_chance_level(self):
        flow = conjugate_affine_flow(2, 1.0)
        cal = self.task.sample_joint(10_000, RngStream(seed=59))
        clf = lc2st_nf_train(flow, cal, self.fit, RngStream(seed=60))
        maps = probability_heatmap(clf, flow, self.rows(61, 20_000), 8)
        for hm in maps:
            probs = hm.mean_prob[hm.counts > 50]
            assert np.mean((probs >= 0.4) & (probs <= 0.6)) >= 0.95

    def test_shifted_estimator_sign_pattern(self):
        shifted = conjugate_affine_flow(2, 1.0, shift=1.0)
        cal = self.task.sample_joint(10_000, RngStream(seed=62))
        clf = lc2st_nf_train(shifted, cal, self.fit, RngStream(seed=63))
        maps = probability_heatmap(clf, shifted, self.rows(64, 20_000), 10)
        for hm in maps:
            if hm.dims[0] != hm.dims[1]:
                continue
            occupied = np.flatnonzero(hm.counts > 20)
            # estimator mass sits above the truth: high-theta bins are
            # classifier-certain estimator territory, low-theta bins the opposite
            assert hm.mean_prob[occupied[-1]] > 0.6
            assert hm.mean_prob[occupied[0]] < 0.4

    def test_single_sample_single_bin(self):
        flow = conjugate_affine_flow(2, 1.0)
        maps = probability_heatmap(_Const(0.25), flow, self.rows(65, 1), 2)
        for hm in maps:
            assert hm.counts.sum() == 1
            assert np.nanmax(hm.mean_prob) == pytest.approx(0.75)

    def test_rows_schema(self):
        flow = conjugate_affine_flow(2, 1.0)
        maps = probability_heatmap(_Const(0.5), flow, self.rows(66, 50), 4)
        rows = heatmap_rows(maps)
        # 2 one-dim marginals (4 bins) + 1 two-dim marginal (16 bins)
        assert len(rows) == 2 * 4 + 16
        assert all(len(r) == 6 for r in rows)

    def test_bins_validation(self):
        flow = conjugate_affine_flow(2, 1.0)
        with pytest.raises(ConfigurationError):
            probability_heatmap(_Const(0.5), flow, self.rows(67, 10), 1)
        with pytest.raises(ConfigurationError, match="2 latent and 2 conditioning columns, got 3"):
            probability_heatmap(_Const(0.5), flow, self.rows(67, 10)[:, :3], 4)


class TestCrossMethodInvariants:
    def test_tacc_near_half_across_seeds_on_null_pair(self):
        # fitted QDA on identical classes: overall accuracy concentrates at 1/2
        hits = 0
        for seed in range(100):
            pair = GaussianShiftPair(sigma=1.0, dim=2)
            p, q = gaussian_shift_samples(pair, 10_000, RngStream(seed=seed).child("t"))
            clf = qda_fit(LabeledPairDataset.from_class_arrays(q, p))
            pv, qv = gaussian_shift_samples(pair, 10_000, RngStream(seed=seed).child("v"))
            val = LabeledPairDataset.from_class_arrays(qv, pv)
            hits += 0.47 <= t_acc(clf, val) <= 0.53
        assert hits >= 95

    def test_statistic_error_halves_as_eval_quadruples(self):
        # Monte-Carlo error of t_mse0 around its quadrature limit scales as
        # 1/sqrt(N_v): quadrupling the draws halves the RMSE, within noise
        oracle = quadrature_values(2.0)["mse0"]
        pair = GaussianShiftPair(sigma=2.0, dim=2)
        clf = analytic_bayes(pair.log_prob_p, pair.log_prob_q)
        rmse = {}
        for n_v in (2500, 10_000, 40_000):
            errs = []
            for seed in range(20):
                draws = pair.sample_q(n_v, RngStream(seed=seed).child("halving", n_v))
                errs.append(t_mse0(clf, draws) - oracle)
            rmse[n_v] = float(np.sqrt(np.mean(np.square(errs))))
        assert 0.3 <= rmse[10_000] / rmse[2500] <= 0.75
        assert 0.3 <= rmse[40_000] / rmse[10_000] <= 0.75

    def test_nf_and_joint_statistics_agree_for_exact_estimator(self):
        # with the exact posterior and its exact transport flow, both local
        # statistics sit at their common null value; class-1 latents are
        # standard normal
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        flow = conjugate_affine_flow(2, 1.0)
        fit = qda_factory()
        x_o = np.array([0.2, 0.4])
        stats_joint, stats_nf = [], []
        for seed in range(10):
            stream = RngStream(seed=seed).child("equiv")
            cal = task.sample_joint(2000, stream.child("cal"))
            clf_j, _ = lc2st_train(task.reference, cal, fit, 0, stream.child("j"))
            r_j = lc2st_evaluate(clf_j, _empty_permutation_ensemble(), task.reference, x_o, 2000, stream.child("je"))
            clf_n = lc2st_nf_train(flow, cal, fit, stream.child("n"))
            r_n = lc2st_nf_evaluate(clf_n, _empty_nf_ensemble(), x_o, 2, 2000, stream.child("ne"))
            stats_joint.append(r_j.statistic)
            stats_nf.append(r_n.statistic)
            z_q, _ = flow.inverse(cal.thetas, cal.xs)
            assert np.all(np.abs(z_q.mean(axis=0)) <= 4.0 / np.sqrt(cal.n))
            assert np.all(np.abs(z_q.var(axis=0) - 1.0) <= 4.0 * np.sqrt(2.0 / cal.n))
        assert abs(np.mean(stats_nf) - np.mean(stats_joint)) <= 0.01

    def test_mean_shift_distortion_power(self):
        # a half-posterior-sd mean shift is caught almost every run at N_cal=10^4
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        shifted = distort(task.reference, np.array([0.5, 0.5]), 1.0)
        fit = qda_factory()
        x_o = np.array([0.0, 0.5])
        rejects = 0
        for seed in range(10):
            stream = RngStream(seed=seed).child("shiftpower")
            cal = task.sample_joint(10_000, stream.child("cal"))
            clf, ens = lc2st_train(shifted, cal, fit, 100, stream.child("t"))
            res = lc2st_evaluate(clf, ens, shifted, x_o, 10_000, stream.child("e"))
            rejects += res.p_value < 0.05
        assert rejects >= 9


def _empty_permutation_ensemble():
    from lc2st.c2st import NullEnsemble

    return NullEnsemble([], "permutation")


def _empty_nf_ensemble():
    from lc2st.c2st import NullEnsemble

    return NullEnsemble([], "nf-resampled", latent_dim=2)


class TestTrainingTables:
    """The local tests' training tables are written into one array and equal
    the stacked class arrays they replaced, bitwise."""

    def setup_method(self):
        self.task = gaussian_conjugate_task(m=2, noise_std=1.0)
        self.cal = self.task.sample_joint(150, RngStream(seed=340))

    def test_nf_table_equals_stacked_class_arrays(self):
        flow, seen = conjugate_affine_flow(2, 1.0, scale_mult=1.3), []
        lc2st_nf_train(flow, self.cal, lambda data, stream: seen.append(data), RngStream(seed=341))
        z0 = RngStream(seed=341).child("z").generator().standard_normal((self.cal.n, 2))
        z_q, _ = flow.inverse(self.cal.thetas, self.cal.xs)
        want = LabeledPairDataset.from_class_arrays(np.hstack([z0, self.cal.xs]), np.hstack([z_q, self.cal.xs]))
        assert seen[0].ws.tobytes() == want.ws.tobytes() and seen[0].labels.tobytes() == want.labels.tobytes()

    def test_joint_table_equals_stacked_class_arrays(self):
        estimator = distort(self.task.reference, [0.3, 0.0], 1.2)
        got = lc2st_training_set(estimator, self.cal, RngStream(seed=342))
        theta_q = estimator.sample_conditional(self.cal.xs, RngStream(seed=342))
        want = LabeledPairDataset.from_class_arrays(np.hstack([theta_q, self.cal.xs]), np.hstack([self.cal.thetas, self.cal.xs]))
        assert got.ws.tobytes() == want.ws.tobytes() and got.labels.tobytes() == want.labels.tobytes()

    def test_non_finite_latent_names_its_row(self):
        class NanFlow:
            m = 2

            def inverse(self, thetas, xs):
                z = np.array(thetas)
                z[[11, 40], 1] = np.nan
                return z, np.zeros(len(z))

        with pytest.raises(NumericError, match="non-finite latent at calibration row 11$"):
            lc2st_nf_train(NanFlow(), self.cal, qda_factory(), RngStream(seed=343))


class TestOnDemand:
    """A result appends x_o to its draws, and a null derives its ledger, only
    when they are read."""

    def test_points_append_x_o_when_read(self):
        run = run_test("lc2st-nf", gaussian_conjugate_task(m=2, noise_std=1.0), conjugate_affine_flow(2, 1.0),
                       np.array([0.6, -0.2]), 200, 4, 150, qda_factory(), RngStream(seed=344))
        result = run.results[0]
        assert result.draws.shape == (150, 2) and result.given.tolist() == [0.6, -0.2]
        assert result.points.tobytes() == append_conditioning(result.draws, result.given).tobytes()

    @pytest.mark.parametrize("fit", [qda_factory(), mlp_factory(MlpConfig(hidden_sizes=(4,), max_epochs=1))], ids=["qda", "mlp"])
    def test_null_ledger_is_derived_when_read(self, monkeypatch, fit):
        calls, child_keys = [], RngStream.child_keys
        monkeypatch.setattr(RngStream, "child_keys", lambda self, *a: calls.append(a) or child_keys(self, *a))
        xs, stream = np.random.default_rng(345).standard_normal((60, 2)), RngStream(seed=346)
        null = lc2st_nf_null(xs, 2, fit, 5, stream)
        # an MLP null derives its members' fit and latent streams, a QDA null none
        assert len(calls) == (0 if fit == qda_factory() else 2)
        assert null.streams == child_keys(stream, "trial", 5) and calls[-1] == ("trial", 5)
