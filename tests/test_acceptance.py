"""Acceptance suite: the headline experiments at their stated tolerances.

Each test runs one criterion end to end on seeded streams and prints a
one-line PASS verdict (visible with ``pytest -v -s``).  Budgets are wall-clock
ceilings for the whole criterion.  Every test carries the ``acceptance``
marker, so ``pytest -m "not acceptance"`` runs the rest of the suite alone.
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest

from lc2st import (
    GaussianShiftPair,
    RngStream,
    analytic_bayes,
    build_coupling_flow,
    conjugate_affine_flow,
    derive_stream,
    gaussian_conjugate_task,
    lc2st_nf_null,
    npe_grad_check,
    pp_plot,
    qda_factory,
    t_mse0,
)
from lc2st.c2st import append_conditioning
from lc2st.classifiers import qda_fit
from lc2st.core import LabeledPairDataset
from lc2st.flows import ConditionalAffineFlow
from lc2st.harness import (
    ExperimentPlan,
    run_power,
    run_sigma_sweep,
    run_type1,
)

pytestmark = pytest.mark.acceptance

CONJUGATE = {"m": 2, "noise_std": 1.0}


def _verdict(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"\n[acceptance] criterion {number} ({label}): PASS in {elapsed:.0f}s (budget {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.0f}s)"


def test_criterion_1_covariance_scale_power_pattern():
    """Single-class MSE test has full power off the null and chance-level at it;
    the single-class accuracy test is blind by a wide margin."""
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        kind="sigma-sweep",
        sigma_grid=[0.6, 0.8, 1.0, 1.5],
        task_params={"dim": 2},
        n_per_class=10_000,
        n_runs=100,
        n_null=100,
        n_v=10_000,
        alpha=0.05,
        seed=42,
    )
    result = run_sigma_sweep(plan)
    mse0 = {s: tpr for s, (tpr, _) in result.power("mse0").items()}
    acc0 = {s: tpr for s, (tpr, _) in result.power("acc0").items()}
    assert mse0[1.0] <= 0.10, f"type-I at sigma=1 too high: {mse0[1.0]}"
    assert mse0[0.6] >= 0.95 and mse0[1.5] >= 0.95, f"power too low: {mse0}"
    assert mse0[0.8] - acc0[0.8] >= 0.3, f"accuracy statistic not dominated: {mse0[0.8]} vs {acc0[0.8]}"
    _verdict(1, "covariance-scale power sweep", time.perf_counter() - t0, 600)


def test_criterion_2_single_class_statistic_matches_quadrature():
    """Monte-Carlo t_mse0 of the exact Bayes classifier converges to the
    grid-quadrature value of its population limit."""
    t0 = time.perf_counter()
    sigma = 2.0
    grid = np.linspace(-16.0, 16.0, 4001)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    r2 = gx**2 + gy**2
    log_p = -np.log(2 * np.pi) - r2 / 2
    log_q = -np.log(2 * np.pi * sigma**2) - r2 / (2 * sigma**2)
    d_star = 1.0 / (1.0 + np.exp(np.clip(log_q - log_p, -700, 700)))
    integrand = (d_star - 0.5) ** 2 * np.exp(log_q)
    oracle = float(np.trapezoid(np.trapezoid(integrand, grid, axis=1), grid))

    pair = GaussianShiftPair(sigma=sigma, dim=2)
    clf = analytic_bayes(pair.log_prob_p, pair.log_prob_q)
    for seed in range(10):
        draws = pair.sample_q(100_000, RngStream(seed=seed).child("quadcheck"))
        stat = t_mse0(clf, draws)
        assert abs(stat - oracle) <= 0.005, f"seed {seed}: {stat} vs quadrature {oracle}"
    _verdict(2, "quadrature check of t_mse0 limit", time.perf_counter() - t0, 60)


def _type1_plan(method: str) -> ExperimentPlan:
    return ExperimentPlan(
        kind="type1",
        method=method,
        task="gaussian_conjugate",
        task_params=CONJUGATE,
        n_train_grid=[1],
        n_cal_grid=[10_000],
        n_observations=1,
        n_runs=200,
        alpha=0.05,
        n_null=100,
        n_v=10_000,
        seed=7,
    )


def test_criterion_3_type1_control_and_uniform_p_values():
    """Both local tests, run with the exact estimator, reject at the nominal
    rate and produce uniform p-values."""
    t0 = time.perf_counter()
    for method in ("lc2st", "lc2st-nf"):
        result = run_type1(_type1_plan(method))
        rate = result.aggregates()[0].rejection_rate
        pvals = np.array([r.p_value for r in result.records])
        ks = kstest(pvals, "uniform")
        assert 0.02 <= rate <= 0.09, f"{method}: rejection rate {rate} outside [0.02, 0.09]"
        assert ks.pvalue > 0.01, f"{method}: p-values not uniform (KS p={ks.pvalue})"
    _verdict(3, "type-I control at N_cal=10^4, 200 runs", time.perf_counter() - t0, 1800)


def test_criterion_4_power_monotone_in_calibration_budget():
    """Power against the scale-2 distortion never decreases in N_cal and is
    at least 0.9 at N_cal = 10^4."""
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        kind="power",
        method="lc2st",
        task="gaussian_conjugate",
        task_params=CONJUGATE,
        estimator={"kind": "distortion", "scale": 2.0},
        n_train_grid=[1],
        n_cal_grid=[100, 1000, 10_000],
        n_observations=1,
        n_runs=50,
        alpha=0.05,
        n_null=100,
        n_v=10_000,
        seed=13,
    )
    result = run_power(plan)
    cells = {a.n_cal: a for a in result.aggregates()}
    assert result.monotonicity_report() == {1: True}
    assert cells[10_000].rejection_rate >= 0.9
    tprs = {nc: round(cells[nc].rejection_rate, 3) for nc in (100, 1000, 10_000)}
    print(f"\n[acceptance] criterion 4 detail: TPR by N_cal = {tprs}")
    _verdict(4, "power monotone in N_cal, >=0.9 at 10^4", time.perf_counter() - t0, 1800)


def test_criterion_5_latent_normality_under_exact_and_distorted_flows():
    """Inverse-mapped true-posterior draws are standard normal under the exact
    flow and decisively non-normal under a scale-0.5 latent distortion."""
    t0 = time.perf_counter()
    task = gaussian_conjugate_task(**CONJUGATE)
    x_o = np.array([0.9, -0.4])
    n = 100_000
    draws = task.reference.sample(x_o, n, RngStream(seed=51))
    xs = np.broadcast_to(x_o, (n, 2))

    z_exact, _ = conjugate_affine_flow(2, 1.0).inverse(draws, xs)
    assert np.all(np.abs(z_exact.mean(axis=0)) <= 3.0 / np.sqrt(n))
    cov = np.cov(z_exact, rowvar=False)
    assert np.all(np.abs(np.diag(cov) - 1.0) <= 3.0 * np.sqrt(2.0 / n))
    assert abs(cov[0, 1]) <= 3.0 / np.sqrt(n)

    z_bad, _ = conjugate_affine_flow(2, 1.0, scale_mult=0.5).inverse(draws, xs)
    cov_bad = np.cov(z_bad, rowvar=False)
    assert np.all(np.abs(np.diag(cov_bad) - 1.0) > 3.0 * np.sqrt(2.0 / n))
    _verdict(5, "latent normality: exact passes, distorted fails", time.perf_counter() - t0, 60)


def test_criterion_6_flow_correctness_bounds():
    """Invertibility, log-det antisymmetry, closed-form 1-D density, and the
    maximum-likelihood gradient against finite differences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    for trial in range(30):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        flow = build_coupling_flow(m, d, n_layers=int(rng.integers(1, 6)), hidden=(8,),
                                   stream=RngStream(seed=6100 + trial))
        for arr in flow.parameter_arrays():
            arr += 0.3 * rng.standard_normal(arr.shape)
        z = rng.standard_normal((100, m))
        x = rng.standard_normal((100, d))
        theta, ld_f = flow.forward(z, x)
        z_back, ld_i = flow.inverse(theta, x)
        assert np.max(np.abs(z_back - z)) <= 1e-6
        assert np.max(np.abs(ld_f + ld_i)) <= 1e-6

    a, b = 0.8, 1.3
    affine = ConditionalAffineFlow(
        1, 1, mean_fn=lambda xs: np.full((len(xs), 1), b), scale_fn=lambda xs: np.full((len(xs), 1), a)
    )
    thetas = np.linspace(-3, 5, 81).reshape(-1, 1)
    expected = -0.5 * ((thetas[:, 0] - b) / a) ** 2 - 0.5 * np.log(2 * np.pi) - np.log(a)
    assert np.max(np.abs(affine.log_prob(thetas, np.zeros((81, 1))) - expected)) <= 1e-10

    for m in (2, 3):
        flow = build_coupling_flow(m, 2, n_layers=2, hidden=(6,), stream=RngStream(seed=62 + m))
        for arr in flow.parameter_arrays():
            arr += 0.2 * rng.standard_normal(arr.shape)
        err = npe_grad_check(flow, rng.standard_normal((12, m)), rng.standard_normal((12, 2)))
        assert err <= 1e-4
    _verdict(6, "flow correctness suite", time.perf_counter() - t0, 120)


def test_criterion_7_amortized_null_ensemble_reuse():
    """One flow-variant null ensemble, fitted once by the sweep and reused by
    all five observations' tests of the exact and of a scale-2 flow, keeps
    type-I control with zero additional null training."""
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        kind="power",
        method="lc2st-nf",
        task="gaussian_conjugate",
        task_params=CONJUGATE,
        estimator={"kind": "distortion", "scale": 2.0},
        reuse_null=True,
        n_train_grid=[1],
        n_cal_grid=[10_000],
        n_observations=5,
        n_runs=100,
        alpha=0.05,
        n_null=100,
        n_v=10_000,
        seed=11,
    )
    type1, power = run_type1(plan), run_power(plan)
    exact_rate = type1.aggregates()[0].rejection_rate
    assert 0.02 <= exact_rate <= 0.09, f"amortized type-I rate {exact_rate} outside [0.02, 0.09]"
    assert all(t["null"] == 0.0 and t["null_members"] == 0 for t in type1.timings + power.timings)
    assert type1.null_fit_seconds > 0.0
    power_rate = power.aggregates()[0].rejection_rate
    assert power_rate >= 0.9  # reuse also works under the alternative

    bench_plan = ExperimentPlan(
        kind="bench",
        method="lc2st-nf",
        task="gaussian_conjugate",
        task_params=CONJUGATE,
        reuse_null=True,
        n_train_grid=[1],
        n_cal_grid=[2000],
        n_observations=1,
        n_runs=3,
        n_null=20,
        n_v=2000,
        seed=11,
    )
    bench = run_type1(bench_plan)
    null_rows = [r for r in bench.phase_medians() if r["phase"] == "null"]
    assert null_rows and all(r["median_seconds"] == 0.0 for r in null_rows)
    print(f"\n[acceptance] criterion 7 detail: exact rate {exact_rate:.3f}, scale-2 power {power_rate:.3f}, "
          f"one-time null training {type1.null_fit_seconds:.2f}s, reuse adds 0.00s")
    _verdict(7, "amortized null reuse", time.perf_counter() - t0, 1200)


def test_criterion_8_pp_plot_band_coverage_under_null():
    """Under the null construction the PP-plot CDF stays inside the 95% band
    at 90% of levels in at least 90 of 100 seeds."""
    t0 = time.perf_counter()
    task = gaussian_conjugate_task(**CONJUGATE)
    fit = qda_factory()
    passes = 0
    for seed in range(100):
        stream = derive_stream(2024, "ppcov", seed)
        cal = task.sample_joint(1000, stream.child("cal"))
        ensemble = lc2st_nf_null(cal.xs, 2, fit, 100, stream.child("null"))
        rng = stream.child("main").generator()
        z0 = rng.standard_normal((cal.n, 2))
        z1 = rng.standard_normal((cal.n, 2))
        main = qda_fit(
            LabeledPairDataset.from_class_arrays(np.hstack([z0, cal.xs]), np.hstack([z1, cal.xs]))
        )
        _, x_o = task.observation(stream.child("obs"))
        zs = stream.child("eval").generator().standard_normal((1000, 2))
        data = pp_plot(main, ensemble, append_conditioning(zs, x_o), alpha=0.05)
        passes += data.fraction_inside() >= 0.90
    assert passes >= 90, f"band coverage only {passes}/100 seeds"
    print(f"\n[acceptance] criterion 8 detail: {passes}/100 seeds inside the band")
    _verdict(8, "PP-plot band coverage", time.perf_counter() - t0, 900)
