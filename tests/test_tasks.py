"""Simulators, reference posteriors, shift pairs, and distortions."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from lc2st import (
    ConfigurationError,
    OracleUnavailableError,
    RngStream,
    build_coupling_flow,
    conjugate_affine_flow,
    distort,
    gaussian_conjugate_task,
    gaussian_linear_uniform_task,
    gaussian_mixture_task,
    gaussian_shift_samples,
    GaussianShiftPair,
    make_task,
    two_moons_task,
)
from lc2st.c2st import run_test
from lc2st.classifiers import qda_factory
from lc2st.tasks import DistortedPosterior


class TestConjugate:
    def test_closed_form_symmetric_update(self):
        task = gaussian_conjugate_task(m=1, noise_std=1.0)
        ref = task.reference
        assert ref.mean(np.array([0.0])) == pytest.approx(0.0)
        assert ref.post_var == pytest.approx(0.5)

    def test_shrinkage_by_half(self):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        assert np.allclose(task.reference.mean(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_empirical_mean_matches_formula(self):
        # noise_std=0.5: posterior mean 0.8*x, var 0.2 per coordinate
        task = gaussian_conjugate_task(m=2, noise_std=0.5)
        draws = task.reference.sample(np.array([1.0, 1.0]), 100_000, RngStream(seed=1))
        se = np.sqrt(0.2 / 100_000)
        assert np.all(np.abs(draws.mean(axis=0) - 0.8) <= 3 * se)

    def test_posterior_moments_within_three_se(self):
        task = gaussian_conjugate_task(m=3, noise_std=1.5)
        x_o = np.array([0.5, -1.0, 2.0])
        n = 100_000
        draws = task.reference.sample(x_o, n, RngStream(seed=2))
        var = task.reference.post_var
        assert np.all(np.abs(draws.mean(axis=0) - task.reference.mean(x_o)) <= 3 * np.sqrt(var / n))
        cov = np.cov(draws, rowvar=False)
        assert np.all(np.abs(np.diag(cov) - var) <= 3 * var * np.sqrt(2.0 / n))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            gaussian_conjugate_task(m=2, noise_std=0.0)
        with pytest.raises(ConfigurationError):
            gaussian_conjugate_task(m=0, noise_std=1.0)

    def test_log_prob_finite_on_reference_samples(self):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        x_o = np.array([0.3, 0.7])
        draws = task.reference.sample(x_o, 1000, RngStream(seed=3))
        assert np.all(np.isfinite(task.reference.log_prob(draws, x_o)))


class TestGaussianShiftPair:
    def test_sigma_one_is_null(self):
        pair = GaussianShiftPair(sigma=1.0, dim=2)
        p, q = gaussian_shift_samples(pair, 100_000, RngStream(seed=4))
        n = 100_000
        for s in (p, q):
            assert np.all(np.abs(s.mean(axis=0)) <= 3.0 / np.sqrt(n))
            assert np.all(np.abs(s.var(axis=0) - 1.0) <= 3.0 * np.sqrt(2.0 / n))

    def test_sigma_two_variance(self):
        pair = GaussianShiftPair(sigma=2.0, dim=2)
        _, q = gaussian_shift_samples(pair, 100_000, RngStream(seed=5))
        se = 4.0 * np.sqrt(2.0 / 100_000)
        assert np.all(np.abs(q.var(axis=0) - 4.0) <= 3 * se)

    def test_invalid_sigma(self):
        with pytest.raises(ConfigurationError):
            GaussianShiftPair(sigma=0.0)

    @pytest.mark.parametrize("sigma, dim, named", [("2", 2, "sigma"), (True, 2, "sigma"), (2.0, 2.5, "dim"), (2.0, False, "dim")])
    def test_wrongly_typed_value_is_named(self, sigma, dim, named):
        with pytest.raises(ConfigurationError, match=f"^{named} must be"):
            GaussianShiftPair(sigma=sigma, dim=dim)

    def test_energy_distance_null_over_seeds(self):
        # At sigma=1 the two sample sets share a distribution: a permutation
        # test on the energy statistic should almost never reject at the 1% level.
        pair = GaussianShiftPair(sigma=1.0, dim=2)
        n, n_perm = 128, 200
        passed = 0
        for seed in range(100):
            p, q = gaussian_shift_samples(pair, n, RngStream(seed=seed).child("energy"))
            pooled = np.vstack([p, q])
            dists = np.linalg.norm(pooled[:, None, :] - pooled[None, :, :], axis=-1)

            def energy(idx_a, idx_b):
                return (
                    2.0 * dists[np.ix_(idx_a, idx_b)].mean()
                    - dists[np.ix_(idx_a, idx_a)].mean()
                    - dists[np.ix_(idx_b, idx_b)].mean()
                )

            observed = energy(np.arange(n), np.arange(n, 2 * n))
            rng = np.random.default_rng(seed)
            exceed = 0
            for _ in range(n_perm):
                perm = rng.permutation(2 * n)
                exceed += energy(perm[:n], perm[n:]) >= observed
            p_value = (1 + exceed) / (n_perm + 1)
            passed += p_value > 0.01
        assert passed >= 98


class TestTwoMoons:
    def test_prior_support(self):
        task = two_moons_task()
        draws = task.prior_sample(100_000, RngStream(seed=6))
        assert np.all(np.abs(draws) <= 1.0)

    # the central observation, and one near the right edge of the moons where
    # proposals with q0 > 0 (no preimage) must be rejected
    @pytest.mark.parametrize("x_o", [np.zeros(2), np.array([0.3, 0.05])])
    def test_exact_draws_match_small_eps_abc(self, x_o):
        # ABC at eps=0.01 is close to exact here; the eps=0.05 ABC reference
        # this sampler replaced fails the same comparison.
        task = two_moons_task()
        abc = []
        for i in range(8):
            stream = RngStream(seed=7).child("abc", i)
            thetas = task.prior_sample(1_000_000, stream.child("prior"))
            xs = task.simulate(thetas, stream.child("sim"))
            abc.append(thetas[np.linalg.norm(xs - x_o, axis=1) <= 0.01])
        abc = np.vstack(abc)
        assert len(abc) > 500
        exact = task.reference.sample(x_o, 5000, RngStream(seed=8))
        assert np.all(np.abs(exact) <= 1.0)
        for j in range(2):
            assert ks_2samp(abc[:, j], exact[:, j]).pvalue > 0.01

    def test_infeasible_observation_raises(self):
        # x0 = r cos(a) + 0.25 - |t1 + t2| / sqrt(2) stays below 0.4: no prior draw reaches (5, 5)
        task = two_moons_task()
        with pytest.raises(OracleUnavailableError, match="rows found no accepted proposal"):
            task.reference.sample(np.array([5.0, 5.0]), 10, RngStream(seed=8))

    @pytest.mark.parametrize("x_o", [[-1.0281267625122597, -0.2528929059022708], [-0.008269354526533601, 1.2707608691447216]])
    def test_rare_observation_fills_every_row(self, x_o):
        # observations the simulator made, accepting about one proposal in 10^3: rows
        # were still unfilled after 1000 rounds, so the loop keeps going while rows fill
        draws = two_moons_task().reference.sample(np.array(x_o), 1000, RngStream(seed=8))
        assert draws.shape == (1000, 2) and np.all(np.abs(draws) <= 1.0)

    def test_eps_is_no_longer_a_parameter(self):
        with pytest.raises(ConfigurationError, match="'eps'"):
            make_task("two_moons", eps=0.05)

    def test_posterior_bimodality_at_central_observation(self):
        task = two_moons_task()
        draws = task.reference.sample(np.zeros(2), 400, RngStream(seed=9))
        centers, assign = _two_means(draws, seed=0)
        separation = np.linalg.norm(centers[0] - centers[1])
        within = max(
            np.linalg.norm(draws[assign == k] - centers[k], axis=1).mean() for k in (0, 1)
        )
        assert separation > within
        assert min(np.mean(assign == 0), np.mean(assign == 1)) > 0.2


def _two_means(points, seed=0, iters=50):
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(len(points), 2, replace=False)]
    assign = np.zeros(len(points), dtype=int)
    for _ in range(iters):
        dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=-1)
        assign = dist.argmin(axis=1)
        for k in (0, 1):
            if np.any(assign == k):
                centers[k] = points[assign == k].mean(axis=0)
    return centers, assign


class TestGaussianMixture:
    def test_posterior_symmetric_at_zero(self):
        task = gaussian_mixture_task()
        draws = task.reference.sample(np.zeros(2), 100_000, RngStream(seed=10))
        # Mixture variance per coordinate: 0.5*1 + 0.5*0.01
        se = np.sqrt(0.505 / 100_000)
        assert np.all(np.abs(draws.mean(axis=0)) <= 3 * se)

    def test_log_prob_finite_and_normalized_inside_box(self):
        task = gaussian_mixture_task()
        x_o = np.array([1.0, -2.0])
        draws = task.reference.sample(x_o, 2000, RngStream(seed=11))
        lp = task.reference.log_prob(draws, x_o)
        assert np.all(np.isfinite(lp))
        assert task.reference.log_prob(np.array([[11.0, 0.0]]), x_o)[0] == -np.inf

    def test_closed_form_mean_matches_monte_carlo_near_the_box_edge(self):
        task = gaussian_mixture_task()
        x_o = np.array([9.5, -9.0])
        n = 200_000
        draws = task.reference.sample(x_o, n, RngStream(seed=30))
        mean = task.reference.mean(x_o)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4 * draws.std(axis=0) / np.sqrt(n))
        assert np.all(np.abs(mean - x_o) > 0.1)  # the truncation matters here

    def test_closed_form_mean_far_outside_the_box(self):
        # the narrow component's box mass underflows to 0 and drops out, and
        # the wide one's mean is as precise below the box as above it
        mixture = gaussian_mixture_task().reference
        wide = gaussian_linear_uniform_task(m=2, noise_var=1.0, bound=10.0).reference
        above, below = mixture.mean(np.array([20.0, 0.5])), mixture.mean(np.array([-20.0, -0.5]))
        assert np.all(np.isfinite(above)) and np.all(np.abs(above) <= 10.0)
        assert np.allclose(below, -above, rtol=1e-12, atol=0.0)
        assert np.allclose(above, wide.mean(np.array([20.0, 0.5])), rtol=1e-12, atol=0.0)

    def test_closed_form_mean_is_the_observation_without_truncation(self):
        task = gaussian_mixture_task(bound=1e6)
        x_o = np.array([3.0, -2.0])
        assert np.allclose(task.reference.mean(x_o), x_o, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "task, x_a, x_b",
    [
        (gaussian_mixture_task(), np.array([9.5, -9.0]), np.array([10.5, -10.5])),
        (gaussian_linear_uniform_task(), np.full(10, 0.9), np.full(10, 1.3)),
    ],
    ids=["gaussian_mixture", "gaussian_linear_uniform"],
)
def test_batched_conditional_draws_match_sample_at_a_fixed_x(task, x_a, x_b):
    # rows at x_a share rejection rounds with slower-filling rows at x_b
    n = 4000
    xs = np.where((np.arange(2 * n) % 2 == 0)[:, None], x_a, x_b)
    batched = task.reference.sample_conditional(xs, RngStream(seed=31))[::2]
    direct = task.reference.sample(x_a, n, RngStream(seed=32))
    for j in range(task.m):
        assert ks_2samp(batched[:, j], direct[:, j]).pvalue > 0.01


class TestGaussianLinearUniform:
    def test_wide_box_matches_untruncated_gaussian(self):
        task = gaussian_linear_uniform_task(m=10, noise_var=0.1, bound=1e6)
        x_o = np.full(10, 0.3)
        draws = task.reference.sample(x_o, 100_000, RngStream(seed=12))
        n = 100_000
        assert np.all(np.abs(draws.mean(axis=0) - 0.3) <= 3 * np.sqrt(0.1 / n))
        assert np.all(np.abs(draws.var(axis=0) - 0.1) <= 3 * 0.1 * np.sqrt(2.0 / n))

    def test_samples_respect_truncation(self):
        task = gaussian_linear_uniform_task()
        draws = task.reference.sample(np.full(10, 0.9), 5000, RngStream(seed=13))
        assert np.all(np.abs(draws) <= 1.0)

    def test_truncated_mean_formula(self):
        task = gaussian_linear_uniform_task()
        x_o = np.full(10, 0.9)
        draws = task.reference.sample(x_o, 200_000, RngStream(seed=14))
        assert np.allclose(draws.mean(axis=0), task.reference.mean(x_o), atol=0.005)


class TestSimulatorContracts:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("gaussian_conjugate", {"m": 2, "noise_std": 1.0}),
            ("two_moons", {}),
            ("gaussian_mixture", {}),
            ("gaussian_linear_uniform", {}),
        ],
    )
    def test_simulator_dims_and_finiteness(self, name, params):
        task = make_task(name, **params)
        thetas = task.prior_sample(10_000, RngStream(seed=15))
        xs = task.simulate(thetas, RngStream(seed=16))
        assert xs.shape == (10_000, task.d)
        assert np.all(np.isfinite(xs))

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError):
            make_task("nope")

    @pytest.mark.parametrize(
        "name, params, named",
        [
            ("gaussian_conjugate", {"m": 2.5}, "m"),
            ("gaussian_conjugate", {"m": True}, "m"),
            ("gaussian_conjugate", {"noise_std": "1"}, "noise_std"),
            ("gaussian_linear_uniform", {"m": 2.0}, "m"),
            ("gaussian_linear_uniform", {"bound": "1"}, "bound"),
            ("gaussian_linear_uniform", {"noise_var": float("inf")}, "noise_var"),
            ("gaussian_mixture", {"bound": "x"}, "bound"),
            ("gaussian_mixture", {"bound": -1.0}, "bound"),
        ],
    )
    def test_wrongly_typed_parameter_is_named(self, name, params, named):
        with pytest.raises(ConfigurationError, match=f"^{named} must be"):
            make_task(name, **params)


class TestDistortion:
    def setup_method(self):
        self.task = gaussian_conjugate_task(m=2, noise_std=1.0)
        self.x_o = np.array([0.4, -0.6])

    def test_identity_passes_ks_per_marginal(self):
        ident = distort(self.task.reference, np.zeros(2), 1.0)
        a = ident.sample(self.x_o, 10_000, RngStream(seed=17))
        b = self.task.reference.sample(self.x_o, 10_000, RngStream(seed=18))
        for j in range(2):
            assert ks_2samp(a[:, j], b[:, j]).pvalue > 0.01

    def test_identity_is_exact_passthrough(self):
        ident = distort(self.task.reference, np.zeros(2), 1.0)
        a = ident.sample(self.x_o, 100, RngStream(seed=19))
        b = self.task.reference.sample(self.x_o, 100, RngStream(seed=19))
        assert np.array_equal(a, b)

    def test_scale_two_quadruples_variance(self):
        scaled = distort(self.task.reference, np.zeros(2), 2.0)
        draws = scaled.sample(self.x_o, 100_000, RngStream(seed=20))
        target = 4 * self.task.reference.post_var
        se = target * np.sqrt(2.0 / 100_000)
        assert np.all(np.abs(draws.var(axis=0) - target) <= 3 * se)

    def test_mean_shift_moves_mean(self):
        shifted = distort(self.task.reference, np.array([0.5, 0.5]), 1.0)
        assert np.allclose(shifted.mean(self.x_o), self.task.reference.mean(self.x_o) + 0.5)

    def test_log_prob_consistent_with_sampler(self):
        dist = distort(self.task.reference, np.array([0.3, 0.0]), 1.5)
        draws = dist.sample(self.x_o, 50_000, RngStream(seed=21))
        lp = dist.log_prob(draws, self.x_o)
        assert np.all(np.isfinite(lp))
        # distorted density is Gaussian: mean mu+shift, var scale^2 * post_var
        var = 1.5**2 * self.task.reference.post_var
        mean = self.task.reference.mean(self.x_o) + np.array([0.3, 0.0])
        expected = -0.5 * np.sum((draws - mean) ** 2 / var, axis=1) - np.log(2 * np.pi * var)
        assert np.allclose(lp, expected, atol=1e-10)

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            distort(self.task.reference, np.zeros(2), 0.0)

    def test_number_shift_moves_every_coordinate(self):
        a, b = distort(self.task.reference, 0.3, 1.2), distort(self.task.reference, np.full(2, 0.3), 1.2)
        assert np.array_equal(a.mean_shift, b.mean_shift)


class _RowwiseDistorted(DistortedPosterior):
    """The per-row mean loop the distortion used before posterior means took
    rows, kept here only as the oracle."""

    def sample_conditional(self, xs, stream):
        xs = np.atleast_2d(xs)
        draws = self.base.sample_conditional(xs, stream)
        mu = np.vstack([self.base.mean(x) for x in xs])
        return self.mean_shift + self.scale * (draws - mu) + mu


class TestRowMeans:
    def test_conjugate_row_means_are_the_per_row_means(self):
        post = gaussian_conjugate_task(m=3, noise_std=0.7).reference
        xs = np.random.default_rng(170).standard_normal((50, 3)) * 3.0
        assert post.mean(xs).tobytes() == np.vstack([post.mean(x) for x in xs]).tobytes()

    def test_monte_carlo_row_means_estimate_each_distinct_row_once(self, monkeypatch):
        post = two_moons_task().reference
        xs = np.array([[0.1, 0.2], [-0.3, 0.4], [0.1, 0.2], [0.1, 0.2], [-0.3, 0.4]])
        per_row = np.vstack([post.mean(x) for x in xs])
        calls = []
        sample = type(post).sample
        monkeypatch.setattr(type(post), "sample", lambda self, *a: calls.append(1) or sample(self, *a))
        assert post.mean(xs).tobytes() == per_row.tobytes() and len(calls) == 2

    @pytest.mark.parametrize("task", [gaussian_mixture_task(), gaussian_linear_uniform_task(m=3)], ids=lambda t: t.name)
    def test_mixture_row_means_agree_with_per_row_means(self, task):
        bound = task.reference.bound
        rng = np.random.default_rng(171)
        # inside, near the box edge, and far outside it on both sides
        xs = np.vstack([
            rng.uniform(-bound, bound, (20, task.m)),
            bound + rng.normal(0, 0.3, (10, task.m)),
            np.full((1, task.m), 4.0 * bound),
            np.full((1, task.m), -4.0 * bound),
        ])
        xs[-2:, 0] = [0.5 * bound, -0.5 * bound]
        per_row = np.vstack([task.reference.mean(x) for x in xs])
        batched = task.reference.mean(xs)
        assert np.all(np.isfinite(batched)) and np.all(np.abs(batched) <= bound)
        np.testing.assert_allclose(batched, per_row, rtol=1e-12, atol=0)

    def test_distorted_conjugate_power_p_values_unchanged(self):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        x_o = np.array([0.4, -0.6])
        for seed in (172, 173, 174):
            batched, rowwise = (
                run_test("lc2st", task, est, x_o, 400, 30, 500, qda_factory(), RngStream(seed=seed)).results[0]
                for est in (distort(task.reference, [0.3, 0.0], 1.3), _RowwiseDistorted(task.reference, [0.3, 0.0], 1.3))
            )
            assert batched.p_value == rowwise.p_value and batched.statistic == rowwise.statistic
            assert batched.null_statistics.tobytes() == rowwise.null_statistics.tobytes()


def _estimators():
    """Every estimator type: each task's reference, distortions of them, an
    affine flow and a coupling flow."""
    out = {}
    for name in ("gaussian_conjugate", "two_moons", "gaussian_mixture", "gaussian_linear_uniform"):
        task = make_task(name)
        out[name] = (task, task.reference)
        out[f"{name}-distorted"] = (task, distort(task.reference, np.full(task.m, 0.3), 1.4))
    task = gaussian_conjugate_task(m=2)
    out["affine-flow"] = (task, conjugate_affine_flow(2, 1.0, scale_mult=1.3, shift=0.2))
    out["coupling-flow"] = (task, build_coupling_flow(2, 2, n_layers=3, hidden=(8,), stream=RngStream(seed=4)))
    return out


@pytest.mark.parametrize("name", sorted(_estimators()))
def test_sample_is_sample_conditional_on_the_repeated_observation(name):
    task, estimator = _estimators()[name]
    _, x_o = task.observation(RngStream(seed=12))
    draws = estimator.sample(x_o, 64, RngStream(seed=13))
    rows = estimator.sample_conditional(np.tile(x_o, (64, 1)), RngStream(seed=13))
    assert draws.shape == (64, task.m) and np.array_equal(draws, rows)
