"""Flow invertibility, densities, training, and checkpoints."""

import copy
import json

import numpy as np
import pytest

from lc2st import (
    ConditionalAffineFlow,
    ConditionalFlow,
    ConfigurationError,
    NpeConfig,
    NumericError,
    RngStream,
    TrainingError,
    build_coupling_flow,
    conjugate_affine_flow,
    flow_fit_npe,
    gaussian_conjugate_task,
    load_flow,
    npe_grad_check,
    save_flow,
)
from lc2st.flows import S_MAX, CouplingLayer, _npe_loss_and_grads, npe_loss
from lc2st.nets import fold, mlp_forward, with_ones

LOG_2PI = np.log(2.0 * np.pi)


def perturbed_flow(m, d, n_layers, seed, scale=0.3, hidden=(16, 16)):
    flow = build_coupling_flow(m, d, n_layers=n_layers, hidden=hidden, stream=RngStream(seed=seed))
    rng = np.random.default_rng(seed)
    for arr in flow.parameter_arrays():
        arr += scale * rng.standard_normal(arr.shape)
    return flow


class TestFlowMaps:
    def test_fresh_flow_is_identity_up_to_permutation(self):
        for m in (2, 3, 5):
            flow = build_coupling_flow(m, 2, n_layers=5, stream=RngStream(seed=m))
            rng = np.random.default_rng(m)
            z = rng.standard_normal((40, m))
            x = rng.standard_normal((40, 2))
            theta, logdet = flow.forward(z, x)
            perm = np.arange(m)
            for layer in flow.layers:
                if hasattr(layer, "perm"):
                    perm = perm[layer.perm]
            assert np.array_equal(theta, z[:, np.argsort(perm)])
            assert np.all(logdet == 0.0)

    def test_invertibility_and_logdet_antisymmetry_property(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            m = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            n_layers = int(rng.integers(1, 6))
            flow = perturbed_flow(m, d, n_layers, seed=trial, hidden=(8,))
            z = rng.standard_normal((100, m))
            x = rng.standard_normal((100, d))
            theta, ld_f = flow.forward(z, x)
            z_back, ld_i = flow.inverse(theta, x)
            assert np.max(np.abs(z_back - z)) <= 1e-6
            assert np.max(np.abs(ld_f + ld_i)) <= 1e-6

    def test_single_coupling_constant_log_scale(self):
        # Constant log-scale c on the k transformed coordinates: log-det = k*c.
        m, d, c = 4, 2, 0.7
        mask = np.array([True, True, False, False])
        layer = CouplingLayer.create(mask, d, hidden=(8,), stream=RngStream(seed=1))
        layer.params[-1][:] = 0.0  # the output layer's weights and biases
        # outputs are [shift (2), raw log-scale (2)]; invert the smooth clamp
        layer.params[-1][-1, 2:] = S_MAX * np.arctanh(c / S_MAX)
        rng = np.random.default_rng(2)
        z = rng.standard_normal((50, m))
        x = rng.standard_normal((50, d))
        theta, logdet = layer.forward(z, x)
        assert np.allclose(logdet, 2 * c)
        assert np.allclose(theta[:, 2:], z[:, 2:] * np.exp(c))
        assert np.array_equal(theta[:, :2], z[:, :2])

    def test_non_finite_intermediate_names_layer(self):
        flow = perturbed_flow(2, 2, 2, seed=3)
        flow.layers[0].params[0][:-1] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="layer"):
                flow.forward(np.ones((3, 2)) * 10, np.ones((3, 2)) * 10)

    def test_sample_zero_draws(self):
        flow = build_coupling_flow(2, 2, stream=RngStream(seed=4))
        assert flow.sample(np.zeros(2), 0, RngStream(seed=5)).shape == (0, 2)

    def test_sample_matches_forward_pushforward(self):
        flow = perturbed_flow(3, 2, 3, seed=6)
        x_o = np.array([0.2, -0.4])
        stream = RngStream(seed=7)
        draws = flow.sample(x_o, 500, stream)
        z = stream.generator().standard_normal((500, 3))
        theta, _ = flow.forward(z, np.broadcast_to(x_o, (500, 2)))
        assert np.array_equal(draws, theta)

    def test_identity_flow_samples_standard_normal(self):
        flow = build_coupling_flow(2, 2, stream=RngStream(seed=8))
        draws = flow.sample(np.zeros(2), 100_000, RngStream(seed=9))
        n = 100_000
        assert np.all(np.abs(draws.mean(axis=0)) <= 3.0 / np.sqrt(n))
        assert np.all(np.abs(draws.var(axis=0) - 1.0) <= 3.0 * np.sqrt(2.0 / n))

    def test_log_prob_finite_on_own_samples(self):
        flow = perturbed_flow(2, 2, 5, seed=10)
        x_o = np.array([0.5, 0.5])
        draws = flow.sample(x_o, 2000, RngStream(seed=11))
        assert np.all(np.isfinite(flow.log_prob(draws, x_o)))


class TestDensities:
    def test_one_dim_affine_matches_gaussian(self):
        # theta = a z + b  =>  log q(theta) = Normal(b, a^2) log-density
        a, b = 1.7, -0.3
        flow = ConditionalAffineFlow(
            1, 2, mean_fn=lambda xs: np.full((len(xs), 1), b), scale_fn=lambda xs: np.full((len(xs), 1), a)
        )
        thetas = np.linspace(-4, 4, 101).reshape(-1, 1)
        xs = np.zeros((101, 2))
        expected = -0.5 * ((thetas[:, 0] - b) / a) ** 2 - 0.5 * LOG_2PI - np.log(a)
        assert np.max(np.abs(flow.log_prob(thetas, xs) - expected)) <= 1e-10

    def test_identity_init_log_prob_is_standard_normal(self):
        flow = build_coupling_flow(2, 2, stream=RngStream(seed=12))
        rng = np.random.default_rng(13)
        thetas = rng.standard_normal((200, 2))
        xs = rng.standard_normal((200, 2))
        expected = -0.5 * np.sum(thetas**2, axis=1) - LOG_2PI
        assert np.max(np.abs(flow.log_prob(thetas, xs) - expected)) <= 1e-12

    def test_density_normalizes_on_grid(self):
        flow = perturbed_flow(2, 2, 3, seed=14, scale=0.2)
        x_o = np.array([0.3, -0.2])
        grid = np.linspace(-9.0, 9.0, 401)
        gx, gy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        dens = np.exp(flow.log_prob(pts, x_o)).reshape(401, 401)
        mass = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
        assert abs(mass - 1.0) <= 0.02


class TestLatentDiagnostics:
    def test_exact_flow_latents_standard_normal(self):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        flow = conjugate_affine_flow(2, 1.0)
        x_o = np.array([0.8, -0.5])
        n = 100_000
        draws = task.reference.sample(x_o, n, RngStream(seed=15))
        z, _ = flow.inverse(draws, np.broadcast_to(x_o, (n, 2)))
        assert np.all(np.abs(z.mean(axis=0)) <= 3.0 / np.sqrt(n))
        cov = np.cov(z, rowvar=False)
        assert np.all(np.abs(np.diag(cov) - 1.0) <= 3.0 * np.sqrt(2.0 / n))
        assert abs(cov[0, 1]) <= 3.0 / np.sqrt(n)

    def test_scale_distorted_flow_latents_fail_normality(self):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        flow = conjugate_affine_flow(2, 1.0, scale_mult=0.5)
        x_o = np.array([0.8, -0.5])
        n = 100_000
        draws = task.reference.sample(x_o, n, RngStream(seed=16))
        z, _ = flow.inverse(draws, np.broadcast_to(x_o, (n, 2)))
        cov = np.cov(z, rowvar=False)
        # latent variance is 1/scale_mult^2 = 4: decisively outside 3 SE of 1
        assert np.all(np.abs(np.diag(cov) - 1.0) > 3.0 * np.sqrt(2.0 / n))


class TestNpeTraining:
    def test_nll_gap_against_posterior_entropy(self):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        train = task.sample_joint(10_000, RngStream(seed=17))
        holdout = task.sample_joint(5_000, RngStream(seed=18))
        flow = build_coupling_flow(2, 2, n_layers=5, stream=RngStream(seed=19))
        fitted, trace = flow_fit_npe(flow, train, NpeConfig(max_epochs=150), RngStream(seed=20))
        nll = npe_loss(fitted, holdout.thetas, holdout.xs)
        entropy = 0.5 * 2 * np.log(2 * np.pi * np.e * task.reference.post_var)
        assert (nll - entropy) / 2 <= 0.1
        assert len(trace["train_nll"]) >= 1
        # trained flow: conditional sample moments track the posterior; flow
        # approximation error dominates Monte Carlo error at a fixed x_o, so
        # the tolerance is the estimator's accuracy class, not 3 SE
        x_o = np.array([1.0, -1.0])
        draws = fitted.sample(x_o, 50_000, RngStream(seed=21))
        assert np.all(np.abs(draws.mean(axis=0) - task.reference.mean(x_o)) <= 0.1)
        assert np.all(np.abs(draws.var(axis=0) - task.reference.post_var) <= 0.1)

    def test_more_training_data_improves_nll(self):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        holdout = task.sample_joint(4_000, RngStream(seed=22))
        gaps = {100: [], 10_000: []}
        for seed in range(5):
            for n_train in (100, 10_000):
                train = task.sample_joint(n_train, RngStream(seed=100 + seed).child("data", n_train))
                flow = build_coupling_flow(2, 2, n_layers=5, stream=RngStream(seed=23))
                fitted, _ = flow_fit_npe(
                    flow, train, NpeConfig(max_epochs=60), RngStream(seed=200 + seed)
                )
                gaps[n_train].append(npe_loss(fitted, holdout.thetas, holdout.xs))
        assert np.mean(gaps[10_000]) < np.mean(gaps[100])

    def test_zero_epochs_leaves_parameters_unchanged(self):
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        train = task.sample_joint(500, RngStream(seed=24))
        flow = perturbed_flow(2, 2, 3, seed=25)
        before = [a.copy() for a in flow.parameter_arrays()]
        fitted, _ = flow_fit_npe(flow, train, NpeConfig(max_epochs=0), RngStream(seed=26))
        for a, b in zip(fitted.parameter_arrays(), before):
            assert np.array_equal(a, b)

    def test_empty_training_set_rejected(self):
        flow = build_coupling_flow(2, 2, stream=RngStream(seed=27))
        from lc2st import JointDataset

        with pytest.raises(ConfigurationError):
            flow_fit_npe(flow, JointDataset(np.empty((0, 2)), np.empty((0, 2))), stream=RngStream(seed=28))

    def test_gradient_check_small_flows(self):
        rng = np.random.default_rng(29)
        for m in (1, 2, 3):
            flow = perturbed_flow(m, 2, 2, seed=30 + m, scale=0.2, hidden=(6,))
            thetas = rng.standard_normal((12, m))
            xs = rng.standard_normal((12, 2))
            assert npe_grad_check(flow, thetas, xs) <= 1e-4


class _SerialAdam:
    """Adam over a list of parameter arrays, one array at a time, in Kingma &
    Ba's efficient form with the first moment kept divided by 1 - beta1."""

    def __init__(self, arrays, lr):
        self.arrays, self.lr, self.beta1, self.beta2, self.eps = arrays, lr, 0.9, 0.999, 1e-8
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, grads):
        self.t += 1
        root = np.sqrt(1.0 - self.beta2**self.t)
        lr_t = self.lr * (1.0 - self.beta1) * root / (1.0 - self.beta1**self.t)
        for a, g, m, v in zip(self.arrays, grads, self.m, self.v):
            m *= self.beta1
            m += g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            a -= lr_t * (m / (np.sqrt(v) + self.eps * root))


def serial_npe_fit(flow, train, cfg, stream):
    """The per-array NPE training loop that the shared minibatch trainer
    replaced, kept only as its oracle."""
    flow = copy.deepcopy(flow)
    perm = stream.child("holdout").generator().permutation(train.n)
    n_val = int(round(cfg.holdout_frac * train.n))
    use_val = 1 <= n_val <= train.n - 2
    val_idx, tr_idx = (perm[:n_val], perm[n_val:]) if use_val else (perm[:0], perm)
    th_tr, x_tr = train.thetas[tr_idx], train.xs[tr_idx]
    th_val, x_val = train.thetas[val_idx], train.xs[val_idx]
    params = flow.parameter_arrays()
    opt = _SerialAdam(params, lr=cfg.learning_rate)
    shuffle_rng = stream.child("shuffle").generator()
    trace = {"train_nll": [], "holdout_nll": []}
    best_val, best_state, since_best = np.inf, [a.copy() for a in params], 0
    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(len(th_tr))
        epoch_losses = []
        for start in range(0, len(th_tr), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = _npe_loss_and_grads(flow, th_tr[idx], x_tr[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"NPE loss diverged at epoch {epoch}")
            opt.step(grads)
            epoch_losses.append(loss)
        trace["train_nll"].append(float(np.mean(epoch_losses)))
        if use_val:
            val_nll = npe_loss(flow, th_val, x_val)
            trace["holdout_nll"].append(val_nll)
            if val_nll < best_val:
                best_val, best_state, since_best = val_nll, [a.copy() for a in params], 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
    if use_val:
        for a, saved in zip(params, best_state):
            a[...] = saved
    trace["best_holdout_nll"] = float(best_val) if use_val else None
    return flow, trace


# (m, training pairs, config): each case's training rows leave a short last batch
NPE_CASES = {
    "early-stopping": (2, 120, NpeConfig(batch_size=32, learning_rate=1e-2, max_epochs=40, patience=2, holdout_frac=0.25)),
    "one-parameter": (1, 90, NpeConfig(batch_size=25, learning_rate=1e-2, max_epochs=30, patience=3)),
    "fixed-budget": (3, 80, NpeConfig(batch_size=30, learning_rate=5e-3, max_epochs=8, patience=8, holdout_frac=0.2)),
    "no-holdout": (2, 2, NpeConfig(batch_size=1, learning_rate=1e-2, max_epochs=5)),
    "zero-epochs": (2, 50, NpeConfig(batch_size=16, max_epochs=0)),
}


class TestNpeSerialOracle:
    @pytest.mark.parametrize("case", list(NPE_CASES))
    def test_fit_matches_serial_loop(self, case):
        m, n, cfg = NPE_CASES[case]
        stream = RngStream(seed=50 + m)
        train = gaussian_conjugate_task(m=m, noise_std=1.0).sample_joint(n, stream.child("data"))
        flow = build_coupling_flow(m, m, n_layers=3, hidden=(8, 8), stream=stream.child("init"))
        fitted, trace = flow_fit_npe(flow, train, cfg, stream.child("fit"))
        ref, ref_trace = serial_npe_fit(flow, train, cfg, stream.child("fit"))
        for got, want in zip(fitted.parameter_arrays(), ref.parameter_arrays(), strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert trace == ref_trace
        epochs = len(trace["train_nll"])
        assert {
            "early-stopping": 0 < epochs < cfg.max_epochs,
            "one-parameter": 0 < epochs < cfg.max_epochs,
            "fixed-budget": epochs == cfg.max_epochs,
            "no-holdout": epochs == cfg.max_epochs and trace["holdout_nll"] == [] and trace["best_holdout_nll"] is None,
            "zero-epochs": epochs == 0 and trace["best_holdout_nll"] == np.inf,
        }[case]

    def test_divergence_names_the_epoch_and_keeps_a_finite_flow(self):
        stream = RngStream(seed=3)
        train = gaussian_conjugate_task(m=2, noise_std=1.0).sample_joint(300, stream.child("data"))
        flow = build_coupling_flow(2, 2, n_layers=2, hidden=(16, 16), stream=stream.child("init"))
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match=r"epoch 0\b") as info:
            flow_fit_npe(flow, train, NpeConfig(max_epochs=5, learning_rate=1e200), stream.child("fit"))
        arrays = info.value.flow.parameter_arrays()
        assert arrays and all(np.isfinite(a).all() for a in arrays)


class TestCheckpoints:
    def test_coupling_flow_round_trip(self, tmp_path):
        flow = perturbed_flow(3, 2, 3, seed=31)
        path = tmp_path / "flow.json"
        save_flow(flow, path)
        loaded = load_flow(path)
        rng = np.random.default_rng(32)
        thetas = rng.standard_normal((50, 3))
        xs = rng.standard_normal((50, 2))
        assert np.array_equal(loaded.log_prob(thetas, xs), flow.log_prob(thetas, xs))
        assert np.array_equal(
            loaded.sample(xs[0], 20, RngStream(seed=33)), flow.sample(xs[0], 20, RngStream(seed=33))
        )

    def test_old_format_checkpoint_scores_bitwise(self, tmp_path):
        # coupling layers keep separate weights and biases, as before the fold
        task = gaussian_conjugate_task(m=2, noise_std=1.0)
        flow = build_coupling_flow(2, 2, n_layers=3, hidden=(8, 8), stream=RngStream(seed=35))
        flow, _ = flow_fit_npe(flow, task.sample_joint(200, RngStream(seed=36)), NpeConfig(max_epochs=3), RngStream(seed=37))

        def entry(layer):
            if layer.params is None:
                return {"type": "permutation", "perm": layer.perm.tolist()}
            weights = [a[:-1].tolist() for a in layer.params]
            return {"type": "coupling", "mask": layer.mask.astype(int).tolist(), "weights": weights,
                    "biases": [a[-1].tolist() for a in layer.params]}

        payload = {"kind": "coupling-flow", "m": 2, "d": 2, "layers": [entry(layer) for layer in flow.layers]}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        loaded = load_flow(path)
        rng = np.random.default_rng(38)
        thetas, xs = rng.standard_normal((60, 2)), rng.standard_normal((60, 2))
        assert loaded.log_prob(thetas, xs).tobytes() == flow.log_prob(thetas, xs).tobytes()
        assert loaded.sample(xs[0], 30, RngStream(seed=39)).tobytes() == flow.sample(xs[0], 30, RngStream(seed=39)).tobytes()
        assert flow.to_dict() == payload

    def test_affine_flow_round_trip(self, tmp_path):
        flow = conjugate_affine_flow(2, 0.7, scale_mult=1.5, shift=0.2)
        path = tmp_path / "affine.json"
        save_flow(flow, path)
        loaded = load_flow(path)
        rng = np.random.default_rng(34)
        thetas = rng.standard_normal((20, 2))
        xs = rng.standard_normal((20, 2))
        assert np.array_equal(loaded.log_prob(thetas, xs), flow.log_prob(thetas, xs))


def _elementwise_maps(params, z, y, xs):
    # The m = 1 block written out: (t, s) from the conditioner on xs alone,
    # s smoothly clamped; forward z*exp(s) + t, inverse (y - t)*exp(-s).
    out = mlp_forward(params, with_ones(xs))
    t, s = out[:, :1], S_MAX * np.tanh(out[:, 1:] / S_MAX)
    return z * np.exp(s) + t, (y - t) * np.exp(-s), s[:, 0]


class TestOneDimensionalBlocks:
    def test_trained_block_is_elementwise_affine_in_x(self):
        task = gaussian_conjugate_task(m=1, noise_std=0.8)
        train = task.sample_joint(400, RngStream(seed=40))
        flow = build_coupling_flow(1, 1, n_layers=3, hidden=(8,), stream=RngStream(seed=41))
        fitted, _ = flow_fit_npe(flow, train, NpeConfig(max_epochs=5), RngStream(seed=42))
        rng = np.random.default_rng(43)
        z, y, xs = rng.standard_normal((30, 1)), rng.standard_normal((30, 1)), rng.standard_normal((30, 1))
        for layer in fitted.layers:
            block = ConditionalFlow(1, 1, [layer])
            fwd, inv, s = _elementwise_maps(layer.params, z, y, xs)
            assert not np.all(s == 0.0)
            assert np.array_equal(block.forward(z, xs)[0], fwd)
            assert np.array_equal(block.forward(z, xs)[1], s)
            assert np.array_equal(block.inverse(y, xs)[0], inv)
            assert np.array_equal(block.inverse(y, xs)[1], -s)

    def test_elementwise_checkpoint_loads_as_that_block(self, tmp_path):
        weights = [[[0.5, -0.3, 0.8], [0.1, 0.7, -0.4]], [[0.2, -0.6], [0.9, 0.3], [-0.5, 0.4]]]
        biases = [[0.05, -0.1, 0.2], [0.3, -0.2]]
        layer = {"type": "elementwise", "m": 1, "weights": weights, "biases": biases}
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({"kind": "coupling-flow", "m": 1, "d": 2, "layers": [layer]}))
        flow = load_flow(path)
        params = fold([np.asarray(w) for w in weights], [np.asarray(b) for b in biases])
        rng = np.random.default_rng(44)
        z, y, xs = rng.standard_normal((25, 1)), rng.standard_normal((25, 1)), rng.standard_normal((25, 2))
        fwd, inv, s = _elementwise_maps(params, z, y, xs)
        assert np.array_equal(flow.forward(z, xs)[0], fwd)
        assert np.array_equal(flow.inverse(y, xs)[0], inv)
        assert np.array_equal(flow.inverse(y, xs)[1], -s)
        expected = -0.5 * (inv[:, 0] ** 2 + LOG_2PI) - s
        assert np.array_equal(flow.log_prob(y, xs), expected)


@pytest.mark.parametrize(
    "key, value",
    [
        ("batch_size", 0), ("max_epochs", -3), ("patience", 0), ("learning_rate", 0.0), ("holdout_frac", 1.0),
        ("holdout_frac", -0.1), ("max_epochs", 2.5), ("batch_size", 2.5), ("batch_size", "10"), ("patience", True),
        ("learning_rate", "0.1"), ("holdout_frac", "0.1"),
    ],
)
def test_npe_config_rejects_bad_field(key, value):
    with pytest.raises(ConfigurationError, match=rf"^NpeConfig\.{key} "):
        NpeConfig(**{key: value})
