"""QDA, analytic Bayes probabilities, the MLP, and calibration curves."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from lc2st import (
    ConfigurationError,
    DataFormatError,
    FitError,
    GaussianShiftPair,
    LabeledPairDataset,
    MlpConfig,
    NullEnsemble,
    RngStream,
    UndefinedPointError,
    analytic_bayes,
    gaussian_shift_samples,
    lc2st_evaluate,
    load_classifier,
    mlp_fit,
    mlp_grad_check,
    p_value_from_null,
    qda_fit,
    save_classifier,
    t_acc,
    t_acc0,
    t_mse,
    t_mse0,
    TrainingError,
    fit_null_ensemble,
    lc2st_nf_null,
    mlp_factory,
)
from lc2st import harness
from lc2st.c2st import (
    Relabeled,
    Resampled,
    append_conditioning,
    pp_plot,
    run_test,
    single_class_statistics,
)
from lc2st import classifiers
from lc2st.classifiers import BLOCK_ROWS, MlpModel, QdaFitter, QdaModel, qda_factory, row_slices
from lc2st.flows import conjugate_affine_flow
from lc2st.harness import ExperimentPlan, run_sigma_sweep
from lc2st import nets
from lc2st.nets import (
    Adam,
    MlpParams,
    mlp_backward,
    mlp_buffers,
    mlp_forward,
    mlp_grad_buffers,
    mlp_init,
    relu,
    sigmoid,
    with_ones,
)
from lc2st.tasks import distort, gaussian_conjugate_task


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
        clf = QdaModel([[np.zeros(2), np.zeros(2)]], [[4.0 * np.eye(2), np.eye(2)]], [[0.5, 0.5]])
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


def one_member_mlp(params, dim):
    """The one-member MlpModel of the 2-D ``params``, with no standardization."""
    flat = np.concatenate([a.ravel() for a in params.layers])[None]
    return MlpModel(flat, [a.shape for a in params.layers], np.zeros((1, dim)), np.ones((1, dim)), [{}])


def _kink_margin(model, ws):
    """Smallest |rectifier pre-activation| over the batch (FD validity guard)."""
    h = (ws - model.feat_mean) / model.feat_std
    margin = np.inf
    for k, (w, b) in enumerate(zip(model.params.weights, model.params.biases)):
        a = h @ w[0] + b[0]
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

    _, grads = _bce_loss_and_grad(model.params, with_ones((ws - model.feat_mean) / model.feat_std), labels.astype(float))
    vals = np.concatenate([np.abs(g).ravel() for g in grads])
    nonzero = vals[vals > 0]
    return nonzero.size == 0 or float(nonzero.min()) > 1e-6


def _random_model_and_batch(rng, depth, width, dim, batch=8):
    sizes = [dim] + [width] * depth + [1]
    params = mlp_init(sizes, RngStream(seed=int(rng.integers(2**32))))
    model = one_member_mlp(params, dim)
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
        params = MlpParams.from_split(
            [np.zeros((2, 8)), np.zeros((8, 1))], [np.zeros(8), np.zeros(1)]
        )
        model = one_member_mlp(params, 2)
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

    (mu0, mu1), (cov0, cov1), (prior0, prior1) = model.means[0], model.covs[0], model.priors[0]
    return log_density(mu1, cov1, prior1) - log_density(mu0, cov0, prior0)


def reference_qda_fit(data, ridge=None):
    """Per-class ``mean`` and ``np.cov`` (divisor n - 1) plus the ridge rule,
    with the library's error texts: the QDA fit that class moments replaced,
    kept here only as the oracle for ``qda_fit``."""
    dim, rows = data.dim, [data.ws[data.labels == 0], data.ws[data.labels == 1]]
    for label, w in enumerate(rows):
        if len(w) < dim + 1:
            raise FitError(f"class {label} has {len(w)} samples, need at least dim+1={dim + 1}")
    if ridge is not None and ridge < 0:
        raise ConfigurationError("ridge must be nonnegative")
    covs = [np.cov(w, rowvar=False, ddof=1).reshape(dim, dim) for w in rows]
    covs = [c + (1e-6 * np.trace(c) / dim if ridge is None else ridge) * np.eye(dim) for c in covs]
    counts = np.array([len(w) for w in rows])
    return QdaModel([[w.mean(axis=0) for w in rows]], [covs], [counts / counts.sum()])


def assert_log_odds_match(model, ws, got=None):
    """Agreement of ``got`` (default: the model's own log-odds) with the
    model's Cholesky-path log-odds to 1e-10 relative, with an absolute floor
    of 1e-10 where the log-odds cross zero.  Every evaluation of a quadratic
    form loses accuracy in proportion to the covariance condition number, so
    beyond 1e4 the bound grows with it."""
    ref = reference_log_odds(model, ws)
    cond = np.linalg.cond(model.covs[0]).max()
    tol = 1e-10 * (1.0 + np.abs(ref)) * max(1.0, cond / 1e4)
    assert np.all(np.abs((model.log_odds(ws)[:, 0] if got is None else got) - ref) <= tol)


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
        assert np.linalg.cond(clf.covs[0, 0]) > 1e5
        pts = np.random.default_rng(91).standard_normal((2000, 4))
        pts[:, 3] = pts[:, 0] + 1e-3 * np.random.default_rng(92).standard_normal(2000)
        assert_log_odds_match(clf, pts)

    def test_unequal_priors(self):
        fit = qda_fit(distinct_classes(3, seed=93))
        clf = QdaModel(fit.means, fit.covs, [[0.1, 0.9]])
        assert_log_odds_match(clf, np.random.default_rng(94).standard_normal((500, 3)))

    def _ensemble(self, n_members, seed):
        rng = np.random.default_rng(seed)
        members = [
            qda_fit(LabeledPairDataset.from_class_arrays(
                rng.standard_normal((300, 4)), rng.standard_normal((300, 4)) * (1.0 + 0.05 * h)
            ))
            for h in range(n_members)
        ]
        return NullEnsemble(qda_stack(members), "permutation")

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
        tie = QdaModel(np.zeros((1, 2, 4)), np.broadcast_to(np.eye(4), (1, 2, 4, 4)), [[0.5, 0.5]])
        members = [tie, *self._ensemble(4, seed=102).classifiers]
        ws = np.random.default_rng(103).standard_normal((BLOCK_ROWS + 17, 4))
        mse0, acc0 = single_class_statistics(qda_stack(members), ws)
        assert acc0[0] == 1.0 and mse0[0] == 0.0
        assert list(acc0) == [t_acc0(m, ws) for m in members]
        np.testing.assert_allclose(mse0, [t_mse0(m, ws) for m in members], rtol=1e-12, atol=0)

    def test_mlp_members_share_the_block_loop(self):
        rng = np.random.default_rng(104)
        datasets = [
            LabeledPairDataset.from_class_arrays(rng.standard_normal((60, 4)), rng.standard_normal((60, 4)))
            for _ in range(3)
        ]
        stack = mlp_factory(MlpConfig(hidden_sizes=(6,), max_epochs=3)).ensemble(
            datasets, [RngStream(seed=105 + h) for h in range(3)]
        )
        assert isinstance(stack, MlpModel) and len(stack) == 3
        ensemble = NullEnsemble(stack, "permutation")
        theta = rng.standard_normal((BLOCK_ROWS + 5, 2))
        x_o = np.array([0.3, 0.3])
        result = lc2st_evaluate(stack[0], ensemble, _FixedDraws(theta), x_o, len(theta), RngStream(seed=108))
        ws = append_conditioning(theta, x_o)
        np.testing.assert_allclose(result.null_statistics, [t_mse0(m, ws) for m in stack], rtol=1e-12, atol=0)
        assert result.p_value == p_value_from_null(result.statistic, result.null_statistics)

    @pytest.mark.parametrize("case", ["dim-1", "dim-2", "dim-4", "dim-6", "near-singular", "ridge-0.5", "small-class", "negative-ridge"])
    def test_qda_fit_matches_reference_fit(self, case):
        dim = int(case[4:]) if case.startswith("dim") else 4
        n = 3 if case == "small-class" else 300
        rng = np.random.default_rng(110 + dim + len(case))
        data = LabeledPairDataset.from_class_arrays(
            rng.standard_normal((n, dim)) + 3.0, rng.standard_normal((n + 1, dim)) * 1.3 + 3.3
        )
        pts = rng.standard_normal((2000, dim)) + 3.0
        if case == "near-singular":
            ws = data.ws.copy()
            ws[:, 3] = ws[:, 0]  # rank-deficient class covariances
            data = LabeledPairDataset(ws, data.labels)
            pts[:, 3] = pts[:, 0] + 1e-3 * rng.standard_normal(2000)
        ridge = {"ridge-0.5": 0.5, "negative-ridge": -1.0}.get(case)
        if case in ("small-class", "negative-ridge"):
            error = FitError if case == "small-class" else ConfigurationError
            with pytest.raises(error) as want:
                reference_qda_fit(data, ridge)
            with pytest.raises(error) as got:
                qda_fit(data, ridge)
            assert str(got.value) == str(want.value)
            return
        fit, ref = qda_fit(data, ridge), reference_qda_fit(data, ridge)
        assert_columns_close(fit.means[0].T, ref.means[0].T)
        assert_columns_close(fit.covs[0].reshape(2, -1).T, ref.covs[0].reshape(2, -1).T)
        assert fit.priors.tolist() == ref.priors.tolist() == [[n / (2 * n + 1), (n + 1) / (2 * n + 1)]]
        assert case != "near-singular" or np.linalg.cond(ref.covs[0, 0]) > 1e5
        assert_log_odds_match(ref, pts, got=fit.log_odds(pts)[:, 0])

    def test_checkpoint_round_trip_keeps_coef_bytes(self, tmp_path):
        clf = qda_fit(distinct_classes(4, seed=109))
        path = tmp_path / "qda.json"
        save_classifier(clf, path)
        assert load_classifier(path).coef.tobytes() == clf.coef.tobytes()


# ---------------------------------------------------------------------------
# Lockstep ensemble training against the serial loop it replaced
# ---------------------------------------------------------------------------


def masked_sigmoid(a):
    """The sigmoid before the single-expression form: gather/scatter by sign,
    in the dtype of ``a``."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _serial_forward(params, inputs, cache=None):
    """One 2-D net on ``inputs`` that end in a ones column: each folded layer
    [W; b] is one product, and a hidden layer's output gains the ones column
    of the next layer's input."""
    h = inputs
    if cache is not None:
        cache.append(h)
    for k, layer in enumerate(params.layers):
        a = h @ layer
        h = a if k == params.n_layers - 1 else np.hstack([relu(a), np.ones((len(a), 1), dtype=a.dtype)])
        if cache is not None:
            cache.append(h)
    return h


def _serial_backward(params, cache, grad_out):
    """Layer gradients (the bias gradient is the last row, from the ones
    column) and the gradient wrt the inputs, without their ones column."""
    grads = [None] * params.n_layers
    g = grad_out
    for k in range(params.n_layers - 1, -1, -1):
        if k != params.n_layers - 1:
            g = g * (cache[k + 1][:, :-1] > 0)
        grads[k] = cache[k].T @ g
        w_t = params.layers[k][:-1].T
        g = np.einsum("ij,jk->ik", g, w_t) if g.shape[-1] == 1 else g @ w_t
    return grads, g


class _SerialAdam:
    """Adam over a list of parameter arrays, one array at a time, in Kingma &
    Ba's efficient form with the first moment kept divided by 1 - beta1.  The
    step scalars are Python floats, so the arrays' dtype sets the arithmetic."""

    def __init__(self, arrays, lr):
        self.arrays, self.lr, self.beta1, self.beta2, self.eps = arrays, lr, 0.9, 0.999, 1e-8
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, grads):
        self.t += 1
        root = float(np.sqrt(1.0 - self.beta2**self.t))
        lr_t = self.lr * (1.0 - self.beta1) * root / (1.0 - self.beta1**self.t)
        for a, g, m, v in zip(self.arrays, grads, self.m, self.v):
            m *= self.beta1
            m += g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            a -= lr_t * (m / (np.sqrt(v) + self.eps * root))


def _serial_bce(z, labels):
    """Mean binary cross-entropy in logits, softplus(z) - y*z, with
    softplus(z) = max(z, 0) + log1p(exp(-|z|))."""
    return float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - labels * z))


def _serial_loss(params, inputs, labels):
    return _serial_bce(_serial_forward(params, inputs).ravel(), labels)


def serial_mlp_fit(data, cfg, stream):
    """The one-network-at-a-time training loop and 2-D net primitives that the
    lockstep trainer replaced, kept only as its oracle.  It trains in float32
    (features standardized in float64, then cast; labels; parameters) and
    casts the trained parameters to float64."""
    feat_mean = data.ws.mean(axis=0)
    feat_std = data.ws.std(axis=0)
    feat_std = np.where(feat_std < 1e-12, 1.0, feat_std)
    ws = with_ones((data.ws - feat_mean) / feat_std).astype(np.float32)
    labels = data.labels.astype(np.float32)
    hidden = cfg.hidden_sizes if cfg.hidden_sizes is not None else (cfg.hidden_mult * data.dim,) * 2
    params = MlpParams([a.astype(np.float32) for a in mlp_init([data.dim, *hidden, 1], stream.child("init")).layers])
    perm = stream.child("holdout").generator().permutation(data.n)
    n_val = int(round(cfg.holdout_frac * data.n))
    use_val = 1 <= n_val <= data.n - 2
    val_idx, train_idx = (perm[:n_val], perm[n_val:]) if use_val else (perm[:0], perm)
    ws_tr, y_tr = ws[train_idx], labels[train_idx]
    ws_val, y_val = ws[val_idx], labels[val_idx]
    opt = _SerialAdam(params.layers, lr=cfg.learning_rate)
    shuffle_rng = stream.child("shuffle").generator()
    copy = lambda p: MlpParams([a.copy() for a in p.layers])  # noqa: E731
    best_val, best_params, best_epoch, since_best, last_loss, epochs_run = np.inf, copy(params), 0, 0, np.nan, 0
    for epoch in range(cfg.max_epochs):
        epochs_run = epoch + 1
        order = shuffle_rng.permutation(len(ws_tr))
        for start in range(0, len(ws_tr), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            cache = []
            z = _serial_forward(params, ws_tr[idx], cache).ravel()
            loss = _serial_bce(z, y_tr[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}")
            gz = ((masked_sigmoid(z) - y_tr[idx]) / len(idx)).reshape(-1, 1)
            opt.step(_serial_backward(params, cache, gz)[0])
            last_loss = loss
        if not all(np.all(np.isfinite(a)) for a in params.layers):
            raise TrainingError(f"parameters diverged at epoch {epoch}")
        if use_val:
            val_loss = _serial_loss(params, ws_val, y_val)
            if val_loss < best_val:
                best_val, best_params, best_epoch, since_best = val_loss, copy(params), epochs_run, 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
    metadata = {
        "hidden_sizes": tuple(int(h) for h in hidden),
        "epochs_run": epochs_run,
        "best_epoch": best_epoch if use_val else epochs_run,
        "final_train_loss": last_loss,
        "holdout_loss": best_val if use_val else None,
        "n_train": int(len(ws_tr)),
    }
    trained = best_params if use_val else params
    flat = np.concatenate([a.ravel() for a in trained.layers]).astype(np.float64)[None]
    return MlpModel(flat, [a.shape for a in trained.layers], feat_mean[None], feat_std[None], [metadata])


def assert_same_fit(model, ref):
    """Bit-identical parameters, standardization and training metadata."""
    for got, want in zip(
        [*model.params.layers, model.feat_mean, model.feat_std],
        [*ref.params.layers, ref.feat_mean, ref.feat_std],
    ):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert model.metadata == ref.metadata


def _separated_members(n_members, n_per_class, dim, seed):
    rng = np.random.default_rng(seed)
    return [
        LabeledPairDataset.from_class_arrays(
            rng.standard_normal((n_per_class, dim)), rng.standard_normal((n_per_class, dim)) + 0.3 * h
        )
        for h in range(n_members)
    ]


def _shared_features(n_members, n_per_class, dim, seed):
    """Label permutations of one feature matrix, as a permutation null builds."""
    base = _separated_members(1, n_per_class, dim, seed)[0]
    rng = np.random.default_rng(seed + 1)
    return [base.with_labels(base.labels[rng.permutation(base.n)]) for _ in range(n_members)]


LOCKSTEP_CASES = {
    # patience = max_epochs: every member runs the whole budget; 95 training
    # rows in batches of 20 leave a short last batch of 15
    "fixed-budget": (lambda: _shared_features(4, 53, 3, seed=120), MlpConfig((6, 5), batch_size=20, max_epochs=6, patience=6)),
    "early-stopping": (lambda: _separated_members(6, 60, 2, seed=121), MlpConfig((8, 8), batch_size=16, max_epochs=80, patience=2)),
    # one row per class: no holdout, so no early stopping
    "no-holdout": (lambda: _separated_members(3, 1, 2, seed=122), MlpConfig((4,), max_epochs=7)),
    "single-member": (lambda: _separated_members(1, 40, 3, seed=123), MlpConfig((5, 5), batch_size=32, max_epochs=10)),
}


class TestLockstepEnsemble:
    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_members_match_serial_loop(self, case):
        make, cfg = LOCKSTEP_CASES[case]
        datasets = make()
        streams = [RngStream(seed=130 + h) for h in range(len(datasets))]
        members = mlp_factory(cfg).ensemble(datasets, streams)
        assert len(members) == len(datasets)
        for model, data, stream in zip(members, datasets, streams):
            reference = serial_mlp_fit(data, cfg, stream)
            assert_same_fit(model, reference)
            assert_same_fit(mlp_fit(data, cfg, stream), reference)
        epochs = [m.metadata["epochs_run"] for m in members]
        if case == "fixed-budget":
            assert epochs == [cfg.max_epochs] * len(members)
            assert members[0].metadata["n_train"] % cfg.batch_size != 0
        if case == "early-stopping":
            assert len(set(epochs)) > 1 and min(epochs) < cfg.max_epochs
        if case == "no-holdout":
            assert all(m.metadata["holdout_loss"] is None for m in members)

    def test_permutation_null_members_match_serial_loop(self):
        data = _separated_members(1, 45, 2, seed=124)[0]
        cfg = MlpConfig((6,), batch_size=25, max_epochs=15, patience=3)
        stream = RngStream(seed=125)
        ensemble = fit_null_ensemble(data, mlp_factory(cfg), 5, stream)
        members = list(Relabeled(data, stream, 5, paired=False))
        for h, (model, permuted) in enumerate(zip(ensemble.classifiers, members, strict=True)):
            assert_same_fit(model, serial_mlp_fit(permuted, cfg, stream.child("trial", h).child("fit")))

    def test_nf_null_members_match_serial_loop(self):
        cal_xs = np.random.default_rng(126).standard_normal((70, 2))
        cfg = MlpConfig((6, 6), batch_size=30, max_epochs=25, patience=2)
        stream = RngStream(seed=127)
        ensemble = lc2st_nf_null(cal_xs, 2, mlp_factory(cfg), 4, stream)
        assert isinstance(ensemble.classifiers, MlpModel) and len(ensemble.classifiers.feat_mean) == 4
        for h, model in enumerate(ensemble.classifiers):
            sub = stream.child("trial", h)
            rng = sub.child("z").generator()
            z0, z1 = rng.standard_normal((70, 2)), rng.standard_normal((70, 2))
            data = LabeledPairDataset.from_class_arrays(np.hstack([z0, cal_xs]), np.hstack([z1, cal_xs]))
            assert_same_fit(model, serial_mlp_fit(data, cfg, sub.child("fit")))

    def test_datasets_of_different_shapes_are_rejected(self):
        datasets = [*_separated_members(1, 10, 2, seed=128), *_separated_members(1, 12, 2, seed=129)]
        with pytest.raises(ConfigurationError, match="shape"):
            mlp_factory(MlpConfig(max_epochs=1)).ensemble(datasets, [RngStream(seed=1), RngStream(seed=2)])

    @pytest.mark.parametrize("width, chunks", [(8, 1), (50, 3)])
    def test_stacked_scoring_matches_members_bitwise(self, width, chunks, monkeypatch):
        # width 50 leaves room for two members per 1 MB activation, so five
        # members are scored in three chunks.  A permutation null's members
        # share one standardization, a resampled null's each have their own.
        forward = classifiers.mlp_forward
        passes = []
        monkeypatch.setattr(classifiers, "mlp_forward", lambda *a, **k: passes.append(1) or forward(*a, **k))
        xs = np.random.default_rng(133).standard_normal((20, 1))
        for members, n_standardizations in (
            (_shared_features(5, 20, 3, seed=131), 1),
            (Resampled(xs, 2, RngStream(seed=134), 5), 5),
        ):
            stack = mlp_factory(MlpConfig((width,), max_epochs=2)).ensemble(
                members, [RngStream(seed=140 + h) for h in range(5)]
            )
            assert len(stack) == 5 and len(stack.feat_mean) == n_standardizations
            ws = np.random.default_rng(132).standard_normal((BLOCK_ROWS + 76, 3))
            passes.clear()
            got = np.vstack([stack.log_odds(ws[rows]) for rows in row_slices(len(ws))])
            assert len(passes) == 2 * chunks
            expected = np.vstack([np.column_stack([m.log_odds(ws[rows]) for m in stack]) for rows in row_slices(len(ws))])
            assert got.tobytes() == expected.tobytes()


def _unfolded_step(weights, biases, inputs, grad_out):
    """One forward and backward pass in the arithmetic before the biases were
    folded in: ``h @ w + b`` per layer and bias grads as ``g.sum(axis=-2)``.
    Returns the output, the weight and bias grads and the input grad."""
    cache, h = [inputs], inputs
    for k, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        h = h if k == len(weights) - 1 else relu(h)
        cache.append(h)
    gw, gb, g = [None] * len(weights), [None] * len(weights), grad_out
    for k in range(len(weights) - 1, -1, -1):
        if k != len(weights) - 1:
            g = g * (cache[k + 1] > 0)
        gw[k], gb[k] = np.swapaxes(cache[k], -1, -2) @ g, g.sum(axis=-2)
        g = g @ np.swapaxes(weights[k], -1, -2)
    return h, gw, gb, g


def assert_close_normwise(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestFoldedLayers:
    """Dense layers are [W; b] matrices over inputs with a ones column."""

    @pytest.mark.parametrize("n_members, batch, full", [(1, 37, 37), (20, 100, 100), (20, 63, 100)])
    def test_step_matches_unfolded_arithmetic(self, n_members, batch, full):
        # a batch shorter than the buffers is a trainer's short last batch
        rng = np.random.default_rng(180 + n_members + batch)
        layers = [mlp_init([4, 12, 9, 1], RngStream(seed=181 + h)).layers for h in range(n_members)]
        params = MlpParams([np.stack([m[k] for m in layers]) for k in range(3)])
        for a in params.layers:
            a[:, -1] = rng.standard_normal(a[:, -1].shape)  # nonzero biases
        inputs = rng.standard_normal((n_members, batch, 4))
        grad_out = rng.standard_normal((n_members, batch, 1))
        acts = [a[:, :batch] for a in mlp_buffers(params, (n_members, full))]
        grads_in, masks = ([a[:, :batch] for a in bufs] for bufs in mlp_grad_buffers(params, (n_members, full)))
        grads = [np.empty(a.shape) for a in params.layers]
        cache = []
        out = mlp_forward(params, with_ones(inputs), cache, acts)
        got, _ = mlp_backward(params, cache, grad_out.copy(), (grads, grads_in, masks), input_grad=False)
        want_out, gw, gb, _ = _unfolded_step(
            [w.copy() for w in params.weights], [b[:, None] for b in params.biases], inputs, grad_out
        )
        assert_close_normwise(out, want_out)
        for layer, w, b in zip(got, gw, gb, strict=True):
            assert_close_normwise(layer[:, :-1], w)
            assert_close_normwise(layer[:, -1], b)

    def test_input_grad_matches_unfolded_arithmetic(self):
        # the flows' path: a 2-D net with allocated buffers and the input grad
        rng = np.random.default_rng(183)
        params = mlp_init([3, 8, 8, 4], RngStream(seed=184))
        for a in params.layers:
            a[-1] = rng.standard_normal(a.shape[-1])
        inputs, grad_out = rng.standard_normal((25, 3)), rng.standard_normal((25, 4))
        cache = []
        out = mlp_forward(params, with_ones(inputs), cache)
        grads, g_in = mlp_backward(params, cache, grad_out.copy())
        want_out, gw, gb, want_in = _unfolded_step(params.weights, params.biases, inputs, grad_out)
        assert_close_normwise(out, want_out)
        assert_close_normwise(g_in, want_in)
        for layer, w, b in zip(grads, gw, gb, strict=True):
            assert_close_normwise(layer[:-1], w)
            assert_close_normwise(layer[-1], b)

    def test_adam_step_matches_textbook_form(self):
        rng = np.random.default_rng(185)
        a, want = rng.standard_normal((20, 50)), None
        opt, m, v = Adam(a.copy(), lr=1e-2), np.zeros_like(a), np.zeros_like(a)
        want = a.copy()
        for t in range(1, 30):
            g = rng.standard_normal(a.shape)
            opt.step(g)
            m, v = 0.9 * m + 0.1 * g, 0.999 * v + 0.001 * g * g
            want -= 1e-2 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert_close_normwise(opt.params, want)

    def test_layers_are_views_of_the_parameter_and_gradient_rows(self, monkeypatch):
        seen = []
        backward, step = classifiers.mlp_backward, nets.Adam.step
        monkeypatch.setattr(classifiers, "mlp_backward", lambda p, c, g, out, **k: seen.append((p, out[0])) or backward(p, c, g, out, **k))
        monkeypatch.setattr(nets.Adam, "step", lambda self, grad: seen.append((self.params, grad)) or step(self, grad))
        stack = mlp_factory(MlpConfig((6, 5), batch_size=20, max_epochs=2)).ensemble(
            _separated_members(3, 30, 2, seed=186), [RngStream(seed=187 + h) for h in range(3)]
        )
        assert len(seen) == 2 * 2 * 3  # two epochs of three batches, each a backward and a step
        for (params, layer_grads), (rows, grad) in zip(seen[0::2], seen[1::2]):
            for layer, layer_grad in zip(params.layers, layer_grads, strict=True):
                assert np.shares_memory(layer, rows) and np.shares_memory(layer_grad, grad)
        for layer in stack.params.layers:
            assert np.shares_memory(layer, stack.flat)
        member = stack[1]
        for layer, own in zip(member.params.layers, stack.params.layers, strict=True):
            assert np.shares_memory(layer, stack.flat) and np.array_equal(layer, own[1:2])

    def test_old_format_checkpoint_scores_bitwise(self, tmp_path):
        # checkpoints keep separate weights and biases, as before the fold
        _, data = gaussian_pair_data(1.5, 300, seed=188)
        clf = mlp_fit(data, MlpConfig(hidden_sizes=(7, 5), max_epochs=8), RngStream(seed=189))
        payload = {
            "kind": "mlp",
            "weights": [w[0].tolist() for w in clf.params.weights],
            "biases": [b[0].tolist() for b in clf.params.biases],
            "feat_mean": clf.feat_mean[0].tolist(),
            "feat_std": clf.feat_std[0].tolist(),
            "metadata": {"hidden_sizes": [7, 5]},
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        loaded = load_classifier(path)
        pts = np.random.default_rng(190).standard_normal((300, 2)) * 2.0
        assert loaded.predict_proba(pts).tobytes() == clf.predict_proba(pts).tobytes()
        save_classifier(clf, tmp_path / "new.json")
        saved = json.loads((tmp_path / "new.json").read_text())
        assert {k: saved[k] for k in ("weights", "biases")} == {k: payload[k] for k in ("weights", "biases")}


ONE_MEMBER_ACCESSORS = {
    "predict_proba": (lambda model, path: model.predict_proba(np.zeros((4, 2))), "MLP predict_proba scores", "use log_odds"),
    "metadata": (lambda model, path: model.metadata, "metadata describes", "read model[h].metadata"),
    "save_classifier": (lambda model, path: save_classifier(model, path), "a checkpoint holds", "save model[h]"),
    "mlp_grad_check": (lambda model, path: mlp_grad_check(model, np.zeros((4, 2)), [0, 1, 0, 1]), "the gradient check takes", "check model[h]"),
}


class TestOneMlpType:
    """A fitted MLP is the one-member case of the H-member MlpModel."""

    @staticmethod
    def three_members():
        cfg = MlpConfig((6,), batch_size=20, max_epochs=2)
        return mlp_factory(cfg).ensemble(_separated_members(3, 30, 2, seed=240), [RngStream(seed=241 + h) for h in range(3)])

    @pytest.mark.parametrize("accessor", sorted(ONE_MEMBER_ACCESSORS))
    def test_one_member_accessors_refuse_three_members(self, accessor, tmp_path):
        call, what, hint = ONE_MEMBER_ACCESSORS[accessor]
        model = self.three_members()
        with pytest.raises(ConfigurationError) as err:
            call(model, tmp_path / "mlp.json")
        assert str(err.value) == f"{what} one member, this model has 3; {hint}"
        assert not (tmp_path / "mlp.json").exists()
        call(model[1], tmp_path / "mlp.json")  # the member itself is accepted

    def test_members_are_views_of_the_parameter_rows(self):
        model = self.three_members()
        ws = np.random.default_rng(242).standard_normal((50, 2))
        for h, row in ((1, 1), (-1, 2)):
            member = model[h]
            assert len(member) == 1 and member.metadata is model.records[row]
            assert np.shares_memory(member.flat, model.flat) and member.flat.tobytes() == model.flat[row].tobytes()
            assert all(np.shares_memory(layer, model.flat) for layer in member.params.layers)
            assert np.shares_memory(member.feat_mean, model.feat_mean) and member.feat_std.shape == (1, 2)
            assert member.log_odds(ws).tobytes() == np.ascontiguousarray(model.log_odds(ws)[:, row : row + 1]).tobytes()

    def test_saved_fit_loads_and_scores_bitwise(self, tmp_path):
        _, data = gaussian_pair_data(1.5, 300, seed=243)
        clf = mlp_fit(data, MlpConfig(hidden_sizes=(7, 5), max_epochs=8), RngStream(seed=244))
        assert len(clf) == 1 and clf.feat_mean.shape == (1, 2)
        save_classifier(clf, tmp_path / "mlp.json")
        payload = json.loads((tmp_path / "mlp.json").read_text())
        # the one-member checkpoint format: 2-D weights, 1-D biases and standardization
        assert [np.shape(w) for w in payload["weights"]] == [(2, 7), (7, 5), (5, 1)]
        assert [np.shape(b) for b in payload["biases"]] == [(7,), (5,), (1,)]
        assert np.shape(payload["feat_mean"]) == np.shape(payload["feat_std"]) == (2,)
        loaded = load_classifier(tmp_path / "mlp.json")
        assert len(loaded) == 1 and loaded.flat.tobytes() == clf.flat.tobytes()
        assert loaded.metadata == {**clf.metadata, "hidden_sizes": [7, 5]}
        rng = np.random.default_rng(245)
        for points, given in ((rng.standard_normal((300, 2)), None), (rng.standard_normal((300, 1)), rng.standard_normal(1))):
            assert loaded.log_odds(points, given).tobytes() == clf.log_odds(points, given).tobytes()
            assert loaded.predict_proba(points, given).tobytes() == clf.predict_proba(points, given).tobytes()


def _diverging_data(seed, gap):
    rng = np.random.default_rng(seed)
    return LabeledPairDataset.from_class_arrays(
        rng.standard_normal((40, 2)) - gap, rng.standard_normal((40, 2)) + gap
    )


def _huge_lr(patience):
    # Adam moves every weight by about the learning rate per step, so 5e11
    # overflows the float32 logits of some members after a few epochs, not at
    # once; float64 arithmetic would hold them finite for the whole budget
    return MlpConfig((8, 8), batch_size=20, learning_rate=5e11, max_epochs=30, patience=patience)


def _solo_divergence_epoch(data, cfg, stream):
    """The epoch that a member's own (float32) solo fit diverges at."""
    with pytest.raises(TrainingError) as err:
        mlp_fit(data, cfg, stream)
    return int(re.match(r"member 0: (loss|parameters) diverged at epoch (\d+)", str(err.value)).group(2))


class TestLockstepDivergence:
    def test_error_names_the_first_diverging_member(self):
        datasets = [_diverging_data(0, 0.0), _diverging_data(5, 3.0), _diverging_data(6, 3.0)]
        streams = [RngStream(seed=s) for s in (0, 5, 6)]
        with np.errstate(all="ignore"):
            # alone, member 0 never diverges and members 1 and 2 diverge at
            # different epochs, neither at once
            assert mlp_fit(datasets[0], _huge_lr(30), streams[0]).metadata["epochs_run"] == 30
            epochs = {h: _solo_divergence_epoch(datasets[h], _huge_lr(30), streams[h]) for h in (1, 2)}
            first = min(epochs, key=epochs.get)
            assert 0 < epochs[first] < epochs[3 - first]
            with pytest.raises(TrainingError, match=rf"^member {first}: loss diverged at epoch {epochs[first]} "):
                mlp_factory(_huge_lr(30)).ensemble(datasets, streams)

    def test_stopped_member_never_raises(self):
        datasets = [_diverging_data(5, 3.0), _diverging_data(3, 0.0)]
        streams = [RngStream(seed=5), RngStream(seed=3)]
        with np.errstate(all="ignore"):
            diverges_at = _solo_divergence_epoch(datasets[0], _huge_lr(30), streams[0])
            solo = [mlp_fit(data, _huge_lr(3), s).metadata["epochs_run"] for data, s in zip(datasets, streams)]
            members = mlp_factory(_huge_lr(3)).ensemble(datasets, streams)
        # with patience 3, member 0 stops before its divergence epoch while
        # member 1 trains through it
        assert solo[0] <= diverges_at < solo[1]
        assert [m.metadata["epochs_run"] for m in members] == solo

    def test_float32_overflow_names_the_member_and_keeps_finite_best_rows(self, monkeypatch):
        given = []
        train = classifiers.train_minibatch
        monkeypatch.setattr(classifiers, "train_minibatch", lambda flat, *a: given.append(flat) or train(flat, *a))
        datasets = [_diverging_data(0, 0.0), _diverging_data(3, 3.0)]
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match=r"^member 1: loss diverged at epoch \d+ \(loss=(nan|inf)\)"):
                mlp_factory(_huge_lr(30)).ensemble(datasets, [RngStream(seed=0), RngStream(seed=3)])
        (flat,) = given
        assert flat.dtype == np.float32 and np.isfinite(flat).all()


class TestTrainingDtypes:
    def test_trained_layers_are_float64(self):
        stack = mlp_factory(MlpConfig((6, 5), max_epochs=3)).ensemble(
            _separated_members(3, 30, 2, seed=191), [RngStream(seed=192 + h) for h in range(3)]
        )
        assert stack.flat.dtype == np.float64
        for model in [*stack, mlp_fit(_separated_members(1, 30, 2, seed=193)[0], MlpConfig((6,), max_epochs=2))]:
            assert all(layer.dtype == np.float64 for layer in model.params.layers)
            assert model.log_odds(np.zeros((4, 2))).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_buffers_take_the_parameters_dtype(self, dtype):
        # float64 rows are the flows' path, float32 the classifiers'
        params = MlpParams([a.astype(dtype) for a in mlp_init([3, 4, 1], RngStream(seed=194)).layers])
        grads_in, masks = mlp_grad_buffers(params, (5,))
        assert all(a.dtype == dtype for a in [*mlp_buffers(params, (5,)), *grads_in])
        seen = []

        def batch_loss(xb, yb):
            seen.append(xb.dtype)
            return np.zeros(len(xb)), np.zeros_like(flat)

        flat, table = np.zeros((2, 7), dtype=dtype), np.ones((10, 3), dtype=dtype)
        cfg = SimpleNamespace(holdout_frac=0.2, learning_rate=1e-3, max_epochs=2, batch_size=4, patience=5)
        fit = nets.train_minibatch(
            flat, table, np.tile(np.arange(10), (2, 1)), np.zeros((2, 10), dtype=dtype), cfg,
            [RngStream(seed=195), RngStream(seed=196)], batch_loss, lambda xs, ys: seen.append(xs.dtype) or np.ones(len(xs)),
        )
        assert fit.params.dtype == dtype and set(seen) == {np.dtype(dtype)}


class TestSigmoid:
    def test_bits_equal_masked_form(self):
        rng = np.random.default_rng(133)
        nans = [np.nan, np.copysign(np.nan, -1.0)]  # both signs of NaN
        special = np.array([800.0, -800.0, np.inf, -np.inf, 0.0, -0.0, *nans, 5e-324, -5e-324, 36.7, -36.7, 709.8, -745.2])
        for a in (rng.standard_normal(10_000) * 30.0, rng.standard_normal((20, 100)), special):
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = sigmoid(a), masked_sigmoid(a)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestMlpConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 0),
            ("max_epochs", 0),
            ("patience", 0),
            ("hidden_mult", 0),
            ("hidden_sizes", (8, 0)),
            ("max_epochs", 2.5),
            ("batch_size", 2.5),
            ("batch_size", "10"),
            ("patience", True),
            ("hidden_mult", 2.5),
            ("hidden_sizes", (8, 2.5)),
            ("hidden_sizes", (True,)),
            ("learning_rate", 0.0),
            ("learning_rate", -1e-3),
            ("learning_rate", float("nan")),
            ("holdout_frac", 1.0),
            ("holdout_frac", -0.1),
            ("hidden_sizes", 5),
            ("hidden_sizes", "8"),
            ("learning_rate", "0.1"),
            ("learning_rate", True),
            ("holdout_frac", "0.1"),
        ],
    )
    def test_invalid_field_is_named(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            MlpConfig(**{field: value})

    def test_boundary_values_are_valid(self):
        MlpConfig(hidden_sizes=(1,), batch_size=1, max_epochs=1, patience=1, hidden_mult=1, holdout_frac=0.0)

    def test_hidden_sizes_list_becomes_a_tuple(self):
        assert MlpConfig(hidden_sizes=[8, 4]).hidden_sizes == (8, 4)


class TestQdaModelValidation:
    @pytest.mark.parametrize("priors", [[-0.5, 1.5], [0.0, 1.0], [0.3, 0.3], [np.nan, 0.5]])
    def test_priors_outside_the_simplex_are_rejected(self, priors):
        with pytest.raises(ConfigurationError, match=r"class priors must lie in \(0, 1\) and sum to one, member 0"):
            QdaModel(np.zeros((1, 2, 2)), np.broadcast_to(np.eye(2), (1, 2, 2, 2)), [priors])

    @pytest.mark.parametrize(
        "means, covs, priors",
        [
            ((1, 2, 2), (1, 2, 3, 3), (1, 2)),  # covariances of another dimension
            ((1, 2, 2), (1, 2, 2, 2), (2, 2)),  # priors of another member count
            ((2, 2), (2, 2, 2), (2,)),  # no member axis
            ((1, 3, 2), (1, 3, 2, 2), (1, 3)),  # three classes
        ],
    )
    def test_mismatched_shapes_are_rejected(self, means, covs, priors):
        with pytest.raises(ConfigurationError, match=r"QDA shapes must be \(H, 2, d\)"):
            QdaModel(np.zeros(means), np.broadcast_to(np.eye(covs[-1]), covs), np.full(priors, 0.5))

    def test_ragged_means_are_rejected(self):
        with pytest.raises(ConfigurationError, match="must be regular arrays"):
            QdaModel([[[0.0, 0.0], [0.0]]], [[np.eye(2), np.eye(2)]], [[0.5, 0.5]])

    def test_a_multi_member_model_is_scored_only_by_log_odds(self, tmp_path):
        stack = fit_null("paired", null_inputs("paired", 2), qda_factory()).classifiers
        with pytest.raises(ConfigurationError, match="QDA predict_proba scores one member, this model has 12"):
            stack.predict_proba(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError, match="one member, this model has 12"):
            save_classifier(stack, tmp_path / "qda.json")
        assert not (tmp_path / "qda.json").exists()
        assert stack[-1].predict_proba(np.zeros((3, 2))).shape == (3,)

    @pytest.mark.parametrize("key", ["mu0", "cov1", "prior1", "weights", "feat_std"])
    def test_missing_checkpoint_key_names_the_file_and_the_key(self, tmp_path, key):
        _, data = gaussian_pair_data(1.5, 200, seed=45)
        qda = key in ("mu0", "cov1", "prior1")
        path = tmp_path / "clf.json"
        save_classifier(qda_fit(data) if qda else mlp_fit(data, MlpConfig(hidden_sizes=(4,), max_epochs=2), RngStream(seed=46)), path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=f"classifier checkpoint '{path}' lacks key '{key}'"):
            load_classifier(path)


class TestQdaFitterValidation:
    @pytest.mark.parametrize("ridge", ["1", -1.0, float("nan"), True, [0.1]])
    def test_invalid_ridge_is_named(self, ridge):
        with pytest.raises(ConfigurationError, match=r"^QdaFitter\.ridge must be nonnegative"):
            qda_factory(ridge)

    @pytest.mark.parametrize("ridge", [None, 0, 0.0, 1e-3, np.float64(2.0)])
    def test_valid_ridge_is_kept(self, ridge):
        assert qda_factory(ridge).ridge is ridge


# ---------------------------------------------------------------------------
# Stacked QDA null fits against the per-member path they replaced
# ---------------------------------------------------------------------------


class PerMemberQda(QdaFitter):
    """The per-member QDA null: ``reference_qda_fit`` on each member's
    dataset in turn, a flow null's members being rows with its exact
    statistics.  Kept here only as the oracle for the stacked fit from class
    moments; its main fit is the library's ``qda_fit``."""

    def ensemble(self, members, streams):
        datasets = exact_latent_datasets(members) if isinstance(members, Resampled) else members
        return qda_stack([reference_qda_fit(data, self.ridge) for data in datasets])


def exact_latent_datasets(members):
    """Member datasets whose latents have exactly the statistics (G, W) that
    ``members.statistics()`` draws: z = u G + v L' for the basis
    u = [1/sqrt(n), q] with xc = q r, orthonormal columns v orthogonal to u
    and W = L L', so that u'z = G and z'z = G'G + W."""
    r, xc = members.basis
    u = np.hstack([np.full((len(xc), 1), len(xc) ** -0.5), xc @ np.linalg.pinv(r)])
    (n, cols), m = u.shape, members.m
    if n - cols < m:  # W is singular, but a class this small fails any QDA fit on its size
        return list(members)
    v = np.linalg.qr(np.hstack([u, np.random.default_rng(0).standard_normal((n, m))]))[0][:, cols:]
    return [
        LabeledPairDataset.from_class_arrays(*(np.hstack([u @ gc + v @ np.linalg.cholesky(wc).T, members.xs]) for gc, wc in zip(g, w)))
        for g, w in zip(*members.statistics())
    ]


def qda_stack(models):
    """The QdaModel whose member h is the one-member ``models[h]``."""
    return QdaModel(*(np.concatenate([getattr(m, name) for m in models]) for name in ("means", "covs", "priors")))


def per_member_datasets(kind, inputs, n_null, stream):
    """Member datasets drawn member by member as a null's members are: labels
    from the null's one ``perm`` generator, paired flips the bits of raw
    64-bit words (least significant first, whole words per member), free
    labels a uniform class-1 subset; latents (the rows an MLP member of a
    flow null trains on) from each member's ``trial/h/z`` stream."""
    rng = stream.child("perm").generator()
    out = []
    for h in range(n_null):
        if kind == "nf":
            xs, m = inputs
            latents = stream.child("trial", h).child("z").generator()
            z0, z1 = latents.standard_normal((len(xs), m)), latents.standard_normal((len(xs), m))
            out.append(LabeledPairDataset.from_class_arrays(np.hstack([z0, xs]), np.hstack([z1, xs])))
        elif kind == "paired":
            half = inputs.n // 2
            words = [int(rng.bit_generator.random_raw()) for _ in range(-(-half // 64))]
            flips = np.array([(words[j // 64] >> (j % 64)) & 1 for j in range(half)], dtype=np.int64)
            out.append(inputs.with_labels(np.concatenate([flips, 1 - flips])))
        else:
            labels = np.zeros(inputs.n, dtype=np.int64)
            labels[rng.choice(inputs.n, inputs.n_class1, replace=False)] = 1
            out.append(inputs.with_labels(labels))
    return out


NULL_KINDS = ["paired", "free", "nf"]


def null_inputs(kind, dim, seed=150, n=60):
    """A labeled set (``paired``, ``free``) or (observations, latent dim)
    (``nf``) with features of dimension ``dim``, off-centre and unequally
    scaled; the free-permutation set has one more class-1 row."""
    rng = np.random.default_rng(seed + dim)
    scales = np.linspace(0.5, 2.0, dim)
    if kind == "nf":
        m = (dim + 1) // 2
        return rng.standard_normal((n, dim - m)) * scales[m:] + 3.0, m
    n1 = n + 1 if kind == "free" else n
    return LabeledPairDataset.from_class_arrays(
        rng.standard_normal((n, dim)) * scales + 3.0, rng.standard_normal((n1, dim)) * 1.2 * scales + 3.1
    )


def fit_null(kind, inputs, fitter, n_null=12, stream=RngStream(seed=151)):
    if kind == "nf":
        return lc2st_nf_null(*inputs, fitter, n_null, stream)
    return fit_null_ensemble(inputs, fitter, n_null, stream, paired=kind == "paired")


def assert_columns_close(got, want, rtol=1e-10):
    """Each column of ``got`` within ``rtol`` of ``want``'s, relative to that
    column's largest entry."""
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= rtol * scale)


class TestStackedQdaNull:
    @pytest.mark.parametrize("kind", NULL_KINDS)
    def test_member_descriptions_are_the_per_member_draws(self, kind):
        inputs, stream = null_inputs(kind, 3), RngStream(seed=152)
        members = Resampled(*inputs, stream, 5) if kind == "nf" else Relabeled(inputs, stream, 5, kind == "paired")
        expected = per_member_datasets(kind, inputs, 5, stream)
        assert len(members) == 5
        for got, want in zip(members, expected, strict=True):
            assert np.array_equal(got.ws, want.ws) and np.array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("dim", [1, 2, 4, 6])
    @pytest.mark.parametrize("kind", NULL_KINDS)
    def test_stacked_fit_matches_per_member_qda_fit(self, kind, dim):
        inputs = null_inputs(kind, dim)
        stacked, oracle = fit_null(kind, inputs, qda_factory()), fit_null(kind, inputs, PerMemberQda())
        stack = stacked.classifiers
        assert isinstance(stack, QdaModel) and len(stacked) == len(oracle) == 12
        for h, ref in enumerate(oracle.classifiers):
            assert_columns_close(stack.means[h].T, ref.means[0].T)
            assert_columns_close(stack.covs[h].reshape(2, -1).T, ref.covs[0].reshape(2, -1).T)
            assert stack.priors[h].tolist() == ref.priors[0].tolist()
        assert_columns_close(stacked.classifiers.coef, oracle.classifiers.coef)
        assert stacked.streams == oracle.streams

    def test_near_singular_members_keep_the_condition_scaled_bound(self):
        data = null_inputs("paired", 4, n=300)
        ws = data.ws.copy()
        ws[:, 3] = ws[:, 0]  # rank-deficient class covariances
        data = LabeledPairDataset(ws, data.labels)
        stacked, oracle = fit_null("paired", data, qda_factory()), fit_null("paired", data, PerMemberQda())
        pts = np.random.default_rng(153).standard_normal((2000, 4)) + 3.0
        pts[:, 3] = pts[:, 0] + 1e-3 * np.random.default_rng(154).standard_normal(2000)
        logits = stacked.classifiers.log_odds(pts)
        for h, ref in enumerate(oracle.classifiers):
            assert np.linalg.cond(ref.covs[0, 0]) > 1e5
            assert_log_odds_match(ref, pts, got=logits[:, h])

    @pytest.mark.parametrize("kind", NULL_KINDS)
    def test_class_smaller_than_dim_plus_one_raises(self, kind):
        inputs = null_inputs(kind, 4, n=4)
        with pytest.raises(FitError) as per_member:
            fit_null(kind, inputs, PerMemberQda())
        with pytest.raises(FitError) as stacked:
            fit_null(kind, inputs, qda_factory())
        assert str(stacked.value) == str(per_member.value)
        assert "has 4 samples, need at least dim+1=5" in str(stacked.value)

    @pytest.mark.parametrize("kind", ["paired", "free"])
    def test_singular_covariance_raises(self, kind):
        data = null_inputs(kind, 3)
        ws = data.ws.copy()
        ws[:, 1] = 0.0
        with pytest.raises(FitError, match="not positive definite"):
            fit_null(kind, LabeledPairDataset(ws, data.labels), qda_factory(ridge=0.0))

    @pytest.mark.parametrize("kind", NULL_KINDS)
    def test_explicit_ridge_is_honoured(self, kind):
        inputs = null_inputs(kind, 4)
        stacked, oracle = fit_null(kind, inputs, qda_factory(0.5)), fit_null(kind, inputs, PerMemberQda(0.5))
        plain = fit_null(kind, inputs, qda_factory(0.0))
        assert_columns_close(stacked.classifiers.coef, oracle.classifiers.coef)
        added = stacked.classifiers.covs - plain.classifiers.covs
        np.testing.assert_allclose(added, np.broadcast_to(0.5 * np.eye(4), added.shape), rtol=0, atol=1e-12)
        with pytest.raises(ConfigurationError, match="ridge must be nonnegative"):
            fit_null(kind, inputs, qda_factory(-1.0))

    def test_on_demand_member_round_trips_through_a_checkpoint(self, tmp_path):
        stacked = fit_null("nf", null_inputs("nf", 4), qda_factory())
        member = stacked.classifiers[3]
        assert isinstance(member, QdaModel)
        assert member.coef.tobytes() == stacked.classifiers.coef[:, 3].tobytes()
        save_classifier(member, tmp_path / "member.json")
        assert load_classifier(tmp_path / "member.json").coef.tobytes() == member.coef.tobytes()

    def test_scoring_rejects_a_wrong_feature_dimension(self):
        stacked = fit_null("paired", null_inputs("paired", 4), qda_factory())
        with pytest.raises(ConfigurationError, match="feature dimension 4, got 3"):
            single_class_statistics(stacked.classifiers, np.zeros((5, 3)))

    def test_empty_null(self):
        for kind in NULL_KINDS:
            ensemble = fit_null(kind, null_inputs(kind, 2), qda_factory(), n_null=0)
            assert len(ensemble) == 0 and ensemble.classifiers.coef.shape == (6, 0)


class TestStackedQdaNullSeededIdentity:
    """Seeded runs with the stacked null against the same runs with the
    per-member null: the main statistic bitwise, the null statistics within
    1e-10 relative, the p-values equal."""

    @pytest.mark.parametrize("method", ["lc2st", "lc2st-nf", "oracle-c2st-mse", "oracle-c2st-acc"])
    def test_run_test(self, method):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        for seed in (160, 161, 162):
            x_o = np.array([0.5, -0.3])
            if method == "lc2st-nf":
                estimator = conjugate_affine_flow(2, 1.0, scale_mult=1.1)
            else:
                estimator = distort(task.reference, [0.1, 0.0], 1.1)
            stacked, oracle = (
                run_test(method, task, estimator, x_o, 300, 40, 400, fitter, RngStream(seed=seed))
                for fitter in (qda_factory(), PerMemberQda())
            )
            assert stacked.results[0].statistic == oracle.results[0].statistic
            np.testing.assert_allclose(stacked.results[0].null_statistics, oracle.results[0].null_statistics, rtol=1e-10, atol=0)
            assert stacked.results[0].p_value == oracle.results[0].p_value
            if method.startswith("oracle"):
                # the per-member statistics, one member at a time
                stream = RngStream(seed=seed)
                val = LabeledPairDataset.from_class_arrays(
                    estimator.sample(x_o, 400, stream.child("q-val")),
                    task.reference.sample(x_o, 400, stream.child("p-val")),
                )
                stat_fn = t_acc if method == "oracle-c2st-acc" else t_mse
                expected = [stat_fn(member, val) for member in oracle.ensemble.classifiers]
                np.testing.assert_allclose(stacked.results[0].null_statistics, expected, rtol=1e-10, atol=0)

    def test_sigma_sweep(self, monkeypatch):
        plan = ExperimentPlan(
            kind="sigma-sweep", task_params={"dim": 3}, n_runs=3, sigma_grid=[0.8, 1.0],
            n_per_class=300, n_null=40, n_v=400, seed=163,
        )
        stacked = run_sigma_sweep(plan).records
        monkeypatch.setattr(harness, "qda_factory", PerMemberQda)
        assert run_sigma_sweep(plan).records == stacked

    def test_pp_plot_bands(self):
        inputs = null_inputs("nf", 4, n=400)
        stacked, oracle = (fit_null("nf", inputs, fitter, n_null=40) for fitter in (qda_factory(), PerMemberQda()))
        main = qda_fit(per_member_datasets("nf", inputs, 1, RngStream(seed=164))[0])
        ws = np.random.default_rng(165).standard_normal((1500, 4)) + np.array([0.0, 0.0, 3.0, 3.0])
        got, want = pp_plot(main, stacked, ws), pp_plot(main, oracle, ws)
        for name in ("cdf", "lower", "upper"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_backward_without_input_grad_keeps_parameter_grads():
    params = mlp_init([3, 5, 4, 1], RngStream(seed=166))
    cache: list = []
    out = mlp_forward(params, with_ones(np.random.default_rng(167).standard_normal((20, 3))), cache)
    g = np.random.default_rng(168).standard_normal(out.shape)
    grads, g_in = mlp_backward(params, cache, g.copy())
    grads_only, none = mlp_backward(params, cache, g.copy(), input_grad=False)
    assert g_in.shape == (20, 3) and none is None
    for a, b in zip(grads, grads_only, strict=True):
        assert a.tobytes() == b.tobytes()


def random_qda_stack(rng, dim, n_members=4):
    a = rng.standard_normal((n_members, 2, dim, dim))
    covs = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(dim)
    priors = rng.uniform(0.2, 0.8, n_members)
    return QdaModel(rng.standard_normal((n_members, 2, dim)), covs, np.stack([priors, 1.0 - priors], axis=1))


def assert_scaled_close(got, want, rtol=1e-12):
    """Each member's log-odds within rtol of its largest magnitude over the rows."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.abs(want).max(axis=0))


class TestGivenColumns:
    """Scoring [points, given] with ``given`` folded into the classifier
    equals scoring the appended rows."""

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_qda_stack_matches_appended_rows(self, dim):
        rng = np.random.default_rng(200 + dim)
        stack = random_qda_stack(rng, dim)
        for m in range(1, dim + 1):
            points, given = 2.0 * rng.standard_normal((BLOCK_ROWS + 9, m)), rng.standard_normal(dim - m)
            want = stack.log_odds(append_conditioning(points, given))
            assert_scaled_close(stack.log_odds(points, given), want)
            assert_scaled_close(stack[1].log_odds(points, given), want[:, 1:2])
            np.testing.assert_allclose(stack[2].predict_proba(points, given), sigmoid(want[:, 2]), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shared", [True, False])
    def test_mlp_stack_matches_appended_rows(self, shared):
        xs = np.random.default_rng(210).standard_normal((40, 2))
        members = _shared_features(3, 40, 4, seed=211) if shared else Resampled(xs, 2, RngStream(seed=212), 3)
        stack = mlp_factory(MlpConfig((7, 5), max_epochs=3)).ensemble(members, [RngStream(seed=213 + h) for h in range(3)])
        assert len(stack.feat_mean) == (1 if shared else 3)
        rng = np.random.default_rng(214)
        for m in range(1, 5):
            points, given = rng.standard_normal((300, m)), rng.standard_normal(4 - m)
            want = stack.log_odds(append_conditioning(points, given))
            assert_scaled_close(stack.log_odds(points, given), want)
            for h, model in enumerate(stack):
                assert_scaled_close(model.log_odds(points, given), want[:, h : h + 1])

    def test_a_given_of_the_wrong_length_names_both_dimensions(self):
        rng = np.random.default_rng(220)
        stack = random_qda_stack(rng, 4)
        mlp = mlp_factory(MlpConfig((3,), max_epochs=1)).ensemble(_shared_features(2, 10, 4, seed=221), [RngStream(seed=1)] * 2)
        for scorer in (stack.log_odds, stack[0].predict_proba, mlp.log_odds, mlp[0].predict_proba):
            with pytest.raises(ConfigurationError, match="feature dimension 4, got 2 point and 3 given columns"):
                scorer(np.zeros((5, 2)), np.zeros(3))

    def test_mse0_into_one_buffer_equals_fresh_blocks_bitwise(self):
        from lc2st.c2st import _mse0

        rng = np.random.default_rng(230)
        mlp = mlp_factory(MlpConfig((6,), max_epochs=2)).ensemble(_shared_features(3, 30, 4, seed=231), [RngStream(seed=2)] * 3)
        points, given = rng.standard_normal((2 * BLOCK_ROWS + 37, 2)), rng.standard_normal(2)
        for stack in (random_qda_stack(rng, 4, n_members=5), mlp):
            sq = np.zeros(len(stack))
            for rows in row_slices(len(points)):
                half = np.tanh(stack.log_odds(points[rows], given) * 0.5)
                sq += np.einsum("ij,ij->j", half, half)
            assert _mse0(stack, points, given).tobytes() == (sq / (4.0 * len(points))).tobytes()


class TestQdaFromProducts:
    """``qda_fit`` takes its moments from matrix products over the rows and
    ``qda_coefficients`` inverts its Cholesky factors by substitution; both
    agree with the class-rows and general-inverse paths they replaced."""

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("order", ["blocks", "interleaved"])
    def test_fit_matches_class_rows_reference(self, dim, order):
        rng = np.random.default_rng(300 + dim)
        # one more class-0 row than class-1 rows, far from the origin
        w0, w1 = rng.standard_normal((41, dim)) + 50.0, 1.3 * rng.standard_normal((40, dim)) + 50.3
        data = LabeledPairDataset.from_class_arrays(w0, w1)
        if order == "interleaved":
            perm = rng.permutation(data.n)
            data = LabeledPairDataset(data.ws[perm], data.labels[perm])
        for ridge in (None, 0.1):
            got, want = qda_fit(data, ridge), reference_qda_fit(data, ridge)
            for name in ("means", "covs", "priors", "coef"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    def test_too_few_rows_in_a_class_still_fails(self):
        rng = np.random.default_rng(310)
        data = LabeledPairDataset(rng.standard_normal((6, 3)), [0, 1, 0, 1, 0, 1])
        with pytest.raises(FitError, match=r"class 0 has 3 samples, need at least dim\+1=4"):
            qda_fit(data)

    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("members", [1, 7, 100])
    def test_substitution_inverse_matches_general_inverse(self, dim, members):
        rng = np.random.default_rng(320 + dim)
        a = rng.standard_normal((members, 2, dim, dim + 2))
        chols = np.linalg.cholesky(a @ np.swapaxes(a, -1, -2) / (dim + 2) + 0.1 * np.eye(dim))
        got, want = classifiers._cholesky_inverse(chols), np.linalg.inv(chols)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=(-2, -1), keepdims=True))
        assert np.all(np.triu(got, 1) == 0.0)

    def test_covariance_not_positive_definite_still_fails(self):
        covs = np.stack([np.eye(3), np.diag([1.0, -1e-3, 1.0])])[None]
        with pytest.raises(FitError, match="not positive definite"):
            QdaModel(np.zeros((1, 2, 3)), covs, [[0.5, 0.5]])


class TestScaledLogOdds:
    """``log_odds(..., scale=0.5)`` is bitwise half the log-odds."""

    def test_qda_stack(self):
        rng = np.random.default_rng(330)
        stack = random_qda_stack(rng, 4, n_members=6)
        points = rng.standard_normal((BLOCK_ROWS + 11, 2))
        for given in (rng.standard_normal(2), None):
            ws = points if given is not None else np.hstack([points, points])
            assert stack.log_odds(ws, given, scale=0.5).tobytes() == (0.5 * stack.log_odds(ws, given)).tobytes()

    @pytest.mark.parametrize("shared", [True, False])
    def test_mlp_stack(self, shared):
        xs = np.random.default_rng(331).standard_normal((40, 2))
        members = _shared_features(3, 40, 4, seed=332) if shared else Resampled(xs, 2, RngStream(seed=333), 3)
        stack = mlp_factory(MlpConfig((7, 5), max_epochs=3)).ensemble(members, [RngStream(seed=334 + h) for h in range(3)])
        assert len(stack.feat_mean) == (1 if shared else 3)
        rng = np.random.default_rng(335)
        for points, given in ((rng.standard_normal((300, 2)), rng.standard_normal(2)), (rng.standard_normal((300, 4)), None)):
            assert stack.log_odds(points, given, scale=0.5).tobytes() == (0.5 * stack.log_odds(points, given)).tobytes()
