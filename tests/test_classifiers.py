"""QDA, analytic Bayes probabilities, the MLP, and calibration curves."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from lc2st import (
    FitError,
    GaussianShiftPair,
    LabeledPairDataset,
    MlpConfig,
    NullEnsemble,
    RngStream,
    UndefinedPointError,
    analytic_bayes,
    calibration_curve,
    gaussian_shift_samples,
    lc2st_evaluate,
    load_classifier,
    mlp_fit,
    mlp_grad_check,
    p_value_from_null,
    qda_fit,
    save_classifier,
    t_acc0,
    t_mse,
    t_mse0,
)
from lc2st.c2st import append_conditioning, single_class_statistics
from lc2st.classifiers import BLOCK_ROWS, MlpModel, QdaModel
from lc2st.nets import MlpParams, mlp_init, relu, sigmoid


def gaussian_pair_data(sigma, n, seed, dim=2):
    pair = GaussianShiftPair(sigma=sigma, dim=dim)
    p, q = gaussian_shift_samples(pair, n, RngStream(seed=seed))
    return pair, LabeledPairDataset.from_class_arrays(q, p)


class TestQda:
    def test_indistinguishable_classes_near_half(self):
        _, data = gaussian_pair_data(1.0, 100_000, seed=1)
        clf = qda_fit(data)
        assert 0.45 <= clf.predict_proba([[0.0, 0.0]])[0] <= 0.55

    def test_scale_two_matches_analytic_bayes_at_origin(self):
        # d*(0) = p(0) / (p(0) + q(0)) = 0.8 for q = N(0, 4 I_2)
        _, data = gaussian_pair_data(2.0, 100_000, seed=2)
        clf = qda_fit(data)
        assert abs(clf.predict_proba([[0.0, 0.0]])[0] - 0.8) <= 0.02

    def test_single_class_input_fails(self):
        data = LabeledPairDataset(np.zeros((1, 2)), [0])
        with pytest.raises(FitError):
            qda_fit(data)

    def test_too_few_samples_per_class_fails(self):
        data = LabeledPairDataset.from_class_arrays(np.eye(3)[:2], np.eye(3)[1:])
        with pytest.raises(FitError):
            qda_fit(data)

    def test_exactness_against_analytic_bayes(self):
        # With true moments plugged in, QDA *is* the Bayes classifier.
        pair = GaussianShiftPair(sigma=2.0, dim=2)
        clf = QdaModel(
            mu0=np.zeros(2), mu1=np.zeros(2),
            cov0=4.0 * np.eye(2), cov1=np.eye(2),
        )
        bayes = analytic_bayes(pair.log_prob_p, pair.log_prob_q)
        pts = np.random.default_rng(3).standard_normal((1000, 2)) * 2.0
        assert np.max(np.abs(clf.predict_proba(pts) - bayes.predict_proba(pts))) <= 1e-10

    def test_label_swap_symmetry_exact(self):
        _, data = gaussian_pair_data(1.5, 2000, seed=4)
        clf = qda_fit(data)
        swapped = qda_fit(data.with_labels(1 - data.labels))
        pts = np.random.default_rng(5).standard_normal((500, 2))
        assert np.max(np.abs(swapped.predict_proba(pts) - (1.0 - clf.predict_proba(pts)))) <= 1e-10

    def test_probabilities_bounded_for_extreme_inputs(self):
        _, data = gaussian_pair_data(2.0, 5000, seed=6)
        clf = qda_fit(data)
        rng = np.random.default_rng(7)
        for _ in range(10):
            pts = rng.standard_normal((100_000, 2)) * 10.0 ** rng.integers(-3, 7)
            probs = clf.predict_proba(pts)
            assert np.all((probs >= 0.0) & (probs <= 1.0))


class TestAnalyticBayes:
    def test_equal_densities_give_half(self):
        clf = analytic_bayes(lambda w: np.zeros(len(w)), lambda w: np.zeros(len(w)))
        assert np.allclose(clf.predict_proba(np.zeros((5, 2))), 0.5)

    def test_two_to_one_ratio(self):
        clf = analytic_bayes(
            lambda w: np.full(len(w), np.log(2.0)), lambda w: np.zeros(len(w))
        )
        assert np.allclose(clf.predict_proba(np.zeros((3, 1))), 2.0 / 3.0)

    def test_extreme_log_gap_is_stable(self):
        clf = analytic_bayes(lambda w: np.full(len(w), -1000.0), lambda w: np.zeros(len(w)))
        probs = clf.predict_proba(np.zeros((2, 1)))
        assert np.all(np.isfinite(probs)) and np.all(probs < 1e-300)

    def test_both_zero_densities_undefined(self):
        clf = analytic_bayes(
            lambda w: np.full(len(w), -np.inf), lambda w: np.full(len(w), -np.inf)
        )
        with pytest.raises(UndefinedPointError):
            clf.predict_proba(np.zeros((1, 1)))


def separated_data(n, seed, gap=5.0):
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal((n, 2)) - gap
    w1 = rng.standard_normal((n, 2)) + gap
    return LabeledPairDataset.from_class_arrays(w0, w1)


class TestMlp:
    def test_separable_classes_high_accuracy(self):
        train = separated_data(2000, seed=8)
        val = separated_data(2000, seed=9)
        model = mlp_fit(train, MlpConfig(max_epochs=200), RngStream(seed=10))
        preds = (model.predict_proba(val.ws) > 0.5).astype(int)
        assert np.mean(preds == val.labels) >= 0.99

    def test_null_classes_near_chance(self):
        _, train = gaussian_pair_data(1.0, 2000, seed=11)
        _, val = gaussian_pair_data(1.0, 2000, seed=12)
        model = mlp_fit(train, MlpConfig(max_epochs=150), RngStream(seed=13))
        preds = (model.predict_proba(val.ws) > 0.5).astype(int)
        assert 0.45 <= np.mean(preds == val.labels) <= 0.55
        assert 0.45 <= model.predict_proba(val.ws).mean() <= 0.55

    def test_matches_qda_statistic_on_shift_pair(self):
        # QDA is Bayes-optimal here; a trained MLP should land close on t_mse.
        _, train = gaussian_pair_data(2.0, 10_000, seed=14)
        _, val = gaussian_pair_data(2.0, 10_000, seed=15)
        qda = qda_fit(train)
        mlp = mlp_fit(train, MlpConfig(max_epochs=150), RngStream(seed=16))
        assert abs(t_mse(mlp, val) - t_mse(qda, val)) <= 0.03

    def test_needs_both_classes(self):
        with pytest.raises(FitError):
            mlp_fit(LabeledPairDataset(np.zeros((1, 2)), [0]), stream=RngStream(seed=17))

    def test_label_swap_symmetry_statistical(self):
        _, train = gaussian_pair_data(2.0, 2000, seed=18)
        cfg = MlpConfig(max_epochs=100)
        a = mlp_fit(train, cfg, RngStream(seed=19))
        b = mlp_fit(train.with_labels(1 - train.labels), cfg, RngStream(seed=19))
        pts = np.random.default_rng(20).standard_normal((2000, 2)) * 1.5
        assert np.mean(np.abs(b.predict_proba(pts) - (1.0 - a.predict_proba(pts)))) <= 0.05

    def test_probabilities_bounded_for_extreme_inputs(self):
        _, train = gaussian_pair_data(1.5, 1000, seed=21)
        model = mlp_fit(train, MlpConfig(max_epochs=30), RngStream(seed=22))
        rng = np.random.default_rng(23)
        for _ in range(10):
            pts = rng.standard_normal((100_000, 2)) * 10.0 ** rng.integers(-3, 7)
            probs = model.predict_proba(pts)
            assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_metadata_recorded(self):
        _, train = gaussian_pair_data(1.2, 400, seed=24)
        model = mlp_fit(train, MlpConfig(max_epochs=30), RngStream(seed=25))
        assert model.metadata["epochs_run"] >= 1
        assert model.metadata["n_train"] <= train.n
        assert np.isfinite(model.metadata["final_train_loss"])


def _kink_margin(model, ws):
    """Smallest |rectifier pre-activation| over the batch (FD validity guard)."""
    h = model._standardize(ws)
    margin = np.inf
    for k, (w, b) in enumerate(zip(model.params.weights, model.params.biases)):
        a = h @ w + b
        if k < model.params.n_layers - 1:
            margin = min(margin, float(np.min(np.abs(a))))
            h = relu(a)
        else:
            h = a
    return margin


def _fd_oracle_valid(model, ws, labels, step=1e-5):
    """Central differences at a fixed step only resolve smooth loss surfaces and
    gradients above the float64 noise floor; exact zeros (dead units) are fine."""
    if _kink_margin(model, ws) <= 10 * step:
        return False
    from lc2st.classifiers import _bce_loss_and_grad

    _, gw, gb = _bce_loss_and_grad(model.params, model._standardize(ws), labels.astype(float))
    vals = np.concatenate([np.abs(g).ravel() for pair in zip(gw, gb) for g in pair])
    nonzero = vals[vals > 0]
    return nonzero.size == 0 or float(nonzero.min()) > 1e-6


def _random_model_and_batch(rng, depth, width, dim, batch=8):
    sizes = [dim] + [width] * depth + [1]
    params = mlp_init(sizes, RngStream(seed=int(rng.integers(2**32))))
    model = MlpModel(params=params, feat_mean=np.zeros(dim), feat_std=np.ones(dim), metadata={})
    for _ in range(200):
        ws = rng.standard_normal((batch, dim))
        labels = rng.integers(0, 2, size=batch)
        if _fd_oracle_valid(model, ws, labels):
            return model, ws, labels
    raise AssertionError("could not find a finite-difference-checkable batch")


class TestGradCheck:
    def test_fresh_network(self):
        rng = np.random.default_rng(26)
        model, ws, labels = _random_model_and_batch(rng, depth=2, width=16, dim=3)
        assert mlp_grad_check(model, ws, labels) <= 1e-4

    def test_zero_weight_network_linear_regime(self):
        # With all parameters zero the loss is locally constant in everything
        # except the output bias, whose path is smooth.
        params = MlpParams(
            [np.zeros((2, 8)), np.zeros((8, 1))], [np.zeros(8), np.zeros(1)]
        )
        model = MlpModel(params=params, feat_mean=np.zeros(2), feat_std=np.ones(2), metadata={})
        rng = np.random.default_rng(27)
        ws = rng.standard_normal((16, 2))
        labels = rng.integers(0, 2, size=16)
        assert mlp_grad_check(model, ws, labels) <= 1e-6

    def test_trained_network(self):
        _, train = gaussian_pair_data(2.0, 500, seed=28)
        model = mlp_fit(train, MlpConfig(hidden_sizes=(12, 12), max_epochs=40), RngStream(seed=29))
        rng = np.random.default_rng(30)
        for _ in range(200):
            ws = rng.standard_normal((8, 2)) * 1.5
            labels = rng.integers(0, 2, size=8)
            if _fd_oracle_valid(model, ws, labels):
                break
        assert mlp_grad_check(model, ws, labels) <= 1e-4

    def test_hundred_random_configurations(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            depth = int(rng.integers(1, 4))
            width = int(2 ** rng.integers(2, 7))  # 4..64
            dim = int(rng.integers(2, 21))
            model, ws, labels = _random_model_and_batch(rng, depth, width, dim)
            worst = max(worst, mlp_grad_check(model, ws, labels))
        assert worst <= 1e-4


class _FunctionClassifier:
    def __init__(self, fn):
        self.fn = fn

    def predict_proba(self, ws):
        return self.fn(np.atleast_2d(ws))


class TestCalibrationCurve:
    def _calibrated_setup(self, n=100_000, seed=32):
        rng = np.random.default_rng(seed)
        # Balanced construction: true probability is sigmoid of a linear score
        ws = rng.standard_normal((n, 2))
        probs = 1.0 / (1.0 + np.exp(-(ws[:, 0] + 0.5 * ws[:, 1])))
        labels = (rng.random(n) < probs).astype(int)
        # trim to balance within one
        idx0 = np.flatnonzero(labels == 0)
        idx1 = np.flatnonzero(labels == 1)
        k = min(len(idx0), len(idx1))
        keep = np.concatenate([idx0[:k], idx1[:k]])
        data = LabeledPairDataset(ws[keep], labels[keep])
        clf = _FunctionClassifier(lambda w: 1.0 / (1.0 + np.exp(-(w[:, 0] + 0.5 * w[:, 1]))))
        return clf, data

    def test_calibrated_classifier_within_binomial_error(self):
        clf, data = self._calibrated_setup()
        curve = calibration_curve(clf, data, bins=10)
        for mean_p, freq, count in zip(curve.mean_predicted, curve.frequency, curve.counts):
            if count < 50:
                continue
            se = np.sqrt(mean_p * (1 - mean_p) / count)
            assert abs(mean_p - freq) <= 3 * se + 0.01

    def test_constant_half_single_bin(self):
        clf = _FunctionClassifier(lambda w: np.full(len(w), 0.5))
        rng = np.random.default_rng(33)
        ws = rng.standard_normal((2000, 2))
        labels = np.repeat([0, 1], 1000)
        curve = calibration_curve(clf, LabeledPairDataset(ws, labels), bins=10)
        occupied = np.flatnonzero(curve.counts > 0)
        assert len(occupied) == 1
        assert abs(curve.frequency[occupied[0]] - 0.5) <= 0.05
        assert np.all(np.isnan(curve.frequency[curve.counts == 0]))

    def test_overconfident_classifier_detected(self):
        clf, data = self._calibrated_setup(seed=34)
        honest = np.asarray(clf.predict_proba(data.ws))
        sharpened = _FunctionClassifier(
            lambda w, h=honest: None  # placeholder, replaced below
        )
        # squash probabilities toward the extremes while labels stay honest
        probs2 = honest**2 / (honest**2 + (1 - honest) ** 2)
        sharpened.fn = lambda w: probs2
        curve = calibration_curve(sharpened, data, bins=10)
        top = np.flatnonzero(curve.counts > 100)[-1]
        assert curve.frequency[top] < curve.mean_predicted[top]


class TestCheckpoints:
    def test_qda_round_trip(self, tmp_path):
        from lc2st import load_classifier, save_classifier

        _, data = gaussian_pair_data(1.8, 2000, seed=40)
        clf = qda_fit(data)
        path = tmp_path / "qda.json"
        save_classifier(clf, path)
        loaded = load_classifier(path)
        pts = np.random.default_rng(41).standard_normal((200, 2))
        assert np.array_equal(loaded.predict_proba(pts), clf.predict_proba(pts))

    def test_mlp_round_trip(self, tmp_path):
        from lc2st import load_classifier, save_classifier

        _, data = gaussian_pair_data(1.5, 400, seed=42)
        clf = mlp_fit(data, MlpConfig(hidden_sizes=(8, 8), max_epochs=10), RngStream(seed=43))
        path = tmp_path / "mlp.json"
        save_classifier(clf, path)
        loaded = load_classifier(path)
        pts = np.random.default_rng(44).standard_normal((200, 2))
        assert np.array_equal(loaded.predict_proba(pts), clf.predict_proba(pts))


def reference_log_odds(model, ws):
    """Per-class Cholesky whitening by triangular solves: the scoring path the
    quadratic-feature coefficients replaced, kept here only as the oracle."""
    ws = np.atleast_2d(ws)

    def log_density(mu, cov, prior):
        chol = np.linalg.cholesky(cov)
        y = solve_triangular(chol, (ws - mu).T, lower=True)
        return np.log(prior) - 0.5 * (np.sum(y * y, axis=0) + 2.0 * np.sum(np.log(np.diag(chol))))

    return log_density(model.mu1, model.cov1, model.prior1) - log_density(model.mu0, model.cov0, model.prior0)


def assert_log_odds_match(model, ws):
    """Agreement to 1e-10 relative, with an absolute floor of 1e-10 where the
    log-odds cross zero.  Every evaluation of a quadratic form loses accuracy
    in proportion to the covariance condition number, so beyond 1e4 the bound
    grows with it."""
    ref = reference_log_odds(model, ws)
    cond = max(np.linalg.cond(model.cov0), np.linalg.cond(model.cov1))
    tol = 1e-10 * (1.0 + np.abs(ref)) * max(1.0, cond / 1e4)
    assert np.all(np.abs(model.log_odds(ws) - ref) <= tol)


def distinct_classes(dim, seed, n=500):
    rng = np.random.default_rng(seed)
    return LabeledPairDataset.from_class_arrays(
        rng.standard_normal((n, dim)), rng.standard_normal((n, dim)) * 1.3 + 0.3
    )


class _FixedDraws:
    """Estimator stand-in whose evaluation draws are given points."""

    def __init__(self, points):
        self.points = points

    def sample(self, x_o, n, stream):
        return self.points[:n]


def reference_mse0(model, ws):
    return float(np.mean((sigmoid(reference_log_odds(model, ws)) - 0.5) ** 2))


class TestQuadraticFeatureScoring:
    @pytest.mark.parametrize("dim", [1, 2, 4, 6])
    def test_log_odds_match_cholesky_path(self, dim):
        clf = qda_fit(distinct_classes(dim, seed=70 + dim))
        pts = np.random.default_rng(80 + dim).standard_normal((2000, dim))
        assert_log_odds_match(clf, pts)
        assert_log_odds_match(clf, pts + 30.0)  # far from both class means

    def test_near_singular_covariance_under_default_ridge(self):
        data = distinct_classes(4, seed=90)
        ws = data.ws.copy()
        ws[:, 3] = ws[:, 0]  # rank-deficient class covariances
        clf = qda_fit(LabeledPairDataset(ws, data.labels))
        assert np.linalg.cond(clf.cov0) > 1e5
        pts = np.random.default_rng(91).standard_normal((2000, 4))
        pts[:, 3] = pts[:, 0] + 1e-3 * np.random.default_rng(92).standard_normal(2000)
        assert_log_odds_match(clf, pts)

    def test_unequal_priors(self):
        fit = qda_fit(distinct_classes(3, seed=93))
        clf = QdaModel(fit.mu0, fit.mu1, fit.cov0, fit.cov1, prior0=0.1, prior1=0.9)
        assert_log_odds_match(clf, np.random.default_rng(94).standard_normal((500, 3)))

    def _ensemble(self, n_members, seed):
        rng = np.random.default_rng(seed)
        members = [
            qda_fit(LabeledPairDataset.from_class_arrays(
                rng.standard_normal((300, 4)), rng.standard_normal((300, 4)) * (1.0 + 0.05 * h)
            ))
            for h in range(n_members)
        ]
        return NullEnsemble(members, "permutation")

    def test_blocked_ensemble_statistics_match_per_member_path(self):
        ensemble = self._ensemble(7, seed=95)
        main = qda_fit(distinct_classes(4, seed=96))
        n_v = 2 * BLOCK_ROWS + 452  # the last block is partial
        theta = np.random.default_rng(97).standard_normal((n_v, 2))
        x_o = np.array([0.4, -1.2])
        result = lc2st_evaluate(main, ensemble, _FixedDraws(theta), x_o, n_v, RngStream(seed=98))
        ws = append_conditioning(theta, x_o)
        expected = [reference_mse0(member, ws) for member in ensemble.classifiers]
        np.testing.assert_allclose(result.null_statistics, expected, rtol=1e-10, atol=0)
        assert result.statistic == pytest.approx(reference_mse0(main, ws), rel=1e-10)

    def test_empty_ensemble(self):
        main = qda_fit(distinct_classes(4, seed=99))
        theta = np.random.default_rng(100).standard_normal((300, 2))
        x_o = np.array([0.1, 0.2])
        result = lc2st_evaluate(
            main, NullEnsemble([], "permutation"), _FixedDraws(theta), x_o, 300, RngStream(seed=101)
        )
        assert result.null_statistics is None and result.n_h == 0
        ws = append_conditioning(theta, x_o)
        assert result.statistic == pytest.approx(reference_mse0(main, ws), rel=1e-10)

    def test_single_pass_statistics_keep_tie_rule(self):
        # identical classes: every log-odds is exactly 0, so d = 1/2 and the
        # tie rule predicts class 0 for every row
        tie = QdaModel(np.zeros(4), np.zeros(4), np.eye(4), np.eye(4))
        members = [tie, *self._ensemble(4, seed=102).classifiers]
        ws = np.random.default_rng(103).standard_normal((BLOCK_ROWS + 17, 4))
        mse0, acc0 = single_class_statistics(members, ws)
        assert acc0[0] == 1.0 and mse0[0] == 0.0
        assert list(acc0) == [t_acc0(m, ws) for m in members]
        np.testing.assert_allclose(mse0, [t_mse0(m, ws) for m in members], rtol=1e-12, atol=0)

    def test_mlp_members_share_the_block_loop(self):
        rng = np.random.default_rng(104)
        members = [
            mlp_fit(
                LabeledPairDataset.from_class_arrays(rng.standard_normal((60, 4)), rng.standard_normal((60, 4))),
                MlpConfig(hidden_sizes=(6,), max_epochs=3),
                RngStream(seed=105 + h),
            )
            for h in range(3)
        ]
        ensemble = NullEnsemble(members, "permutation")
        assert ensemble.coef is None
        theta = rng.standard_normal((BLOCK_ROWS + 5, 2))
        x_o = np.array([0.3, 0.3])
        result = lc2st_evaluate(members[0], ensemble, _FixedDraws(theta), x_o, len(theta), RngStream(seed=108))
        ws = append_conditioning(theta, x_o)
        np.testing.assert_allclose(result.null_statistics, [t_mse0(m, ws) for m in members], rtol=1e-12, atol=0)
        assert result.p_value == p_value_from_null(result.statistic, result.null_statistics)

    def test_checkpoint_round_trip_keeps_coef_bytes(self, tmp_path):
        clf = qda_fit(distinct_classes(4, seed=109))
        path = tmp_path / "qda.json"
        save_classifier(clf, path)
        assert load_classifier(path).coef.tobytes() == clf.coef.tobytes()
