"""Inference tasks: simulators with priors and tractable reference posteriors.

Each task bundles a prior sampler, a stochastic simulator, and (where
tractable) a reference posterior that can sample and usually evaluate its
log-density at a given observation.  The reference posteriors double as the
"exact estimator" in type-I experiments and as oracles for test assertions.

Reference posteriors expose a small duck-typed surface shared with the flow
estimators:

* ``sample(x_o, n, stream)`` -- n draws at one observation;
* ``sample_conditional(xs, stream)`` -- one draw per row of ``xs`` (the
  construction step of the joint-classifier training set);
* ``log_prob(thetas, x_o)`` -- optional;
* ``mean(x_o)`` -- posterior mean, exact where known else seeded Monte Carlo.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .core import (
    ConfigurationError,
    JointDataset,
    OracleUnavailableError,
    RngStream,
    reject_unknown_keys,
)

__all__ = [
    "Task",
    "GaussianShiftPair",
    "gaussian_shift_samples",
    "ConjugateGaussianPosterior",
    "gaussian_conjugate_task",
    "two_moons_task",
    "gaussian_mixture_task",
    "gaussian_linear_uniform_task",
    "DistortedPosterior",
    "distort",
    "make_task",
    "TASK_BUILDERS",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _std_normal_logpdf(z: np.ndarray) -> np.ndarray:
    z = np.atleast_2d(z)
    return -0.5 * (np.sum(z * z, axis=1) + z.shape[1] * _LOG_2PI)


def _stream_from_array(tag: str, x: np.ndarray) -> RngStream:
    # Deterministic stream keyed by the observation bytes: repeated calls with
    # the same x use identical Monte Carlo draws.
    h = hashlib.blake2b(digest_size=16)
    h.update(tag.encode())
    h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    a = int.from_bytes(h.digest()[:8], "little")
    b = int.from_bytes(h.digest()[8:], "little")
    return RngStream(seed=a, stream_id=b)


class PosteriorBase:
    """Common plumbing for reference posteriors."""

    m: int

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        raise NotImplementedError

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        """One posterior draw per conditioning row; default loops over rows."""
        xs = np.atleast_2d(xs)
        out = np.empty((xs.shape[0], self.m))
        for i, x in enumerate(xs):
            out[i] = self.sample(x, 1, stream.child("cond", i))[0]
        return out

    def log_prob(self, thetas: np.ndarray, x_o: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no tractable density")

    def mean(self, x_o: np.ndarray) -> np.ndarray:
        draws = self.sample(x_o, 8192, _stream_from_array("posterior-mean", np.asarray(x_o)))
        return draws.mean(axis=0)


# ---------------------------------------------------------------------------
# Task container and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Task:
    """A simulator with its prior and, when available, a reference posterior."""

    name: str
    m: int
    d: int
    prior_sample: Callable[[int, RngStream], np.ndarray]
    simulate: Callable[[np.ndarray, RngStream], np.ndarray]
    reference: PosteriorBase | None = None

    def sample_joint(self, n: int, stream: RngStream) -> JointDataset:
        """Draw n rows (theta, x) from the joint: prior then simulator."""
        thetas = self.prior_sample(n, stream.child("prior"))
        xs = self.simulate(thetas, stream.child("sim")) if n > 0 else np.empty((0, self.d))
        return JointDataset(thetas, xs)

    def observation(self, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
        """One (theta_o, x_o) pair: a seeded prior draw pushed through the simulator."""
        theta_o = self.prior_sample(1, stream.child("prior"))
        x_o = self.simulate(theta_o, stream.child("sim"))
        return theta_o[0], x_o[0]


# ---------------------------------------------------------------------------
# Conjugate Gaussian task (analytic oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateGaussianPosterior(PosteriorBase):
    """Posterior of the N(0, I) prior / N(theta, noise_std^2 I) likelihood model.

    Closed form: N(x / (1 + s^2), s^2 / (1 + s^2) I) with s = noise_std.
    """

    m: int
    noise_std: float

    @property
    def shrinkage(self) -> float:
        return 1.0 / (1.0 + self.noise_std**2)

    @property
    def post_var(self) -> float:
        s2 = self.noise_std**2
        return s2 / (1.0 + s2)

    def mean(self, x_o: np.ndarray) -> np.ndarray:
        return np.asarray(x_o, dtype=np.float64) * self.shrinkage

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        z = stream.generator().standard_normal((n, self.m))
        return self.mean(x_o) + np.sqrt(self.post_var) * z

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        xs = np.atleast_2d(xs)
        z = stream.generator().standard_normal(xs.shape)
        return xs * self.shrinkage + np.sqrt(self.post_var) * z

    def log_prob(self, thetas: np.ndarray, x_o: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        resid = (thetas - self.mean(x_o)) / np.sqrt(self.post_var)
        return _std_normal_logpdf(resid) - 0.5 * self.m * np.log(self.post_var)


def gaussian_conjugate_task(m: int = 2, noise_std: float = 1.0) -> Task:
    """Gaussian prior/likelihood task whose posterior is known in closed form."""
    if m < 1:
        raise ConfigurationError("m must be at least 1")
    if noise_std <= 0:
        raise ConfigurationError("noise_std must be positive")

    def prior_sample(n: int, stream: RngStream) -> np.ndarray:
        return stream.generator().standard_normal((n, m))

    def simulate(thetas: np.ndarray, stream: RngStream) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        return thetas + noise_std * stream.generator().standard_normal(thetas.shape)

    return Task(
        name="gaussian_conjugate",
        m=m,
        d=m,
        prior_sample=prior_sample,
        simulate=simulate,
        reference=ConjugateGaussianPosterior(m=m, noise_std=noise_std),
    )


# ---------------------------------------------------------------------------
# Two moons task (SBI benchmark model, rejection reference)
# ---------------------------------------------------------------------------


class RejectionPosterior(PosteriorBase):
    """ABC-style reference: accept prior draws whose simulation lands near x_o.

    Exact in the eps -> 0 limit; ``budget`` caps total simulator draws per
    sample() call, and exhausting it raises ``OracleUnavailableError``.
    """

    def __init__(self, task_builder, m: int, eps: float, budget: int, batch: int = 100_000):
        if eps <= 0:
            raise ConfigurationError("eps must be positive")
        if budget < 1:
            raise ConfigurationError("budget must be positive")
        self._builder = task_builder
        self.m = m
        self.eps = eps
        self.budget = budget
        self.batch = batch

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        task = self._builder()
        x_o = np.asarray(x_o, dtype=np.float64)
        accepted: list[np.ndarray] = []
        got = 0
        spent = 0
        trial = 0
        while got < n:
            if spent >= self.budget:
                raise OracleUnavailableError(
                    f"rejection budget {self.budget} exhausted with {got}/{n} accepted "
                    f"(eps={self.eps}); increase eps or budget"
                )
            size = min(self.batch, self.budget - spent)
            thetas = task.prior_sample(size, stream.child("prior", trial))
            xs = task.simulate(thetas, stream.child("sim", trial))
            keep = np.linalg.norm(xs - x_o, axis=1) <= self.eps
            accepted.append(thetas[keep])
            got += int(keep.sum())
            spent += size
            trial += 1
        return np.vstack(accepted)[:n]


def _two_moons_simulate(thetas: np.ndarray, stream: RngStream) -> np.ndarray:
    thetas = np.atleast_2d(thetas)
    rng = stream.generator()
    n = thetas.shape[0]
    a = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
    r = rng.normal(0.1, 0.01, size=n)
    base = np.column_stack([r * np.cos(a) + 0.25, r * np.sin(a)])
    shift = np.column_stack(
        [
            -np.abs(thetas[:, 0] + thetas[:, 1]) / np.sqrt(2.0),
            (-thetas[:, 0] + thetas[:, 1]) / np.sqrt(2.0),
        ]
    )
    return base + shift


def two_moons_task(eps: float = 0.05, budget: int = 10_000_000) -> Task:
    """Crescent-shaped benchmark model with a bimodal posterior.

    Uniform prior on [-1, 1]^2; the reference posterior accepts prior draws
    whose simulations land within ``eps`` of the conditioning observation.
    """

    def prior_sample(n: int, stream: RngStream) -> np.ndarray:
        return stream.generator().uniform(-1.0, 1.0, size=(n, 2))

    def builder() -> Task:
        return two_moons_task(eps=eps, budget=budget)

    return Task(
        name="two_moons",
        m=2,
        d=2,
        prior_sample=prior_sample,
        simulate=_two_moons_simulate,
        reference=RejectionPosterior(builder, m=2, eps=eps, budget=budget),
    )


# ---------------------------------------------------------------------------
# Gaussian mixture task (SBI benchmark model, exact reference)
# ---------------------------------------------------------------------------


class MixturePosterior(PosteriorBase):
    """Posterior of the two-component location mixture under a uniform box prior.

    The likelihood depends on theta only through x - theta, so the posterior
    is the same mixture recentred at x and truncated to the prior box; drawing
    component offsets and rejecting outside the box is exact.
    """

    def __init__(self, m: int, weights, sds, bound: float):
        self.m = m
        self.weights = np.asarray(weights, dtype=np.float64)
        self.sds = np.asarray(sds, dtype=np.float64)
        self.bound = float(bound)

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        x_o = np.asarray(x_o, dtype=np.float64)
        rng = stream.generator()
        out = np.empty((n, self.m))
        got = 0
        for _ in range(1000):
            if got >= n:
                break
            size = max(n - got, 1) * 2
            comp = rng.choice(len(self.weights), size=size, p=self.weights)
            draws = x_o + self.sds[comp, None] * rng.standard_normal((size, self.m))
            keep = np.all(np.abs(draws) <= self.bound, axis=1)
            kept = draws[keep][: n - got]
            out[got : got + len(kept)] = kept
            got += len(kept)
        if got < n:
            raise OracleUnavailableError("mixture posterior rejection failed to fill request")
        return out

    def _log_box_mass(self, x_o: np.ndarray) -> float:
        # Sum_k w_k prod_j [Phi((b - x_j)/sd_k) - Phi((-b - x_j)/sd_k)]
        masses = []
        for w, sd in zip(self.weights, self.sds):
            per_dim = ndtr((self.bound - x_o) / sd) - ndtr((-self.bound - x_o) / sd)
            masses.append(w * np.prod(per_dim))
        return float(np.log(sum(masses)))

    def log_prob(self, thetas: np.ndarray, x_o: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        x_o = np.asarray(x_o, dtype=np.float64)
        comps = []
        for w, sd in zip(self.weights, self.sds):
            resid = (thetas - x_o) / sd
            comps.append(np.log(w) + _std_normal_logpdf(resid) - self.m * np.log(sd))
        stacked = np.vstack(comps)
        mx = stacked.max(axis=0)
        log_mix = mx + np.log(np.sum(np.exp(stacked - mx), axis=0))
        inside = np.all(np.abs(thetas) <= self.bound, axis=1)
        return np.where(inside, log_mix - self._log_box_mass(x_o), -np.inf)


def gaussian_mixture_task(bound: float = 10.0, sds=(1.0, 0.1), weights=(0.5, 0.5)) -> Task:
    """Two-component Gaussian location mixture with a uniform box prior."""
    weights = np.asarray(weights, dtype=np.float64)
    sds = np.asarray(sds, dtype=np.float64)
    if np.any(sds <= 0) or not np.isclose(weights.sum(), 1.0):
        raise ConfigurationError("mixture needs positive scales and weights summing to one")
    m = 2

    def prior_sample(n: int, stream: RngStream) -> np.ndarray:
        return stream.generator().uniform(-bound, bound, size=(n, m))

    def simulate(thetas: np.ndarray, stream: RngStream) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        rng = stream.generator()
        comp = rng.choice(len(weights), size=thetas.shape[0], p=weights)
        return thetas + sds[comp, None] * rng.standard_normal(thetas.shape)

    return Task(
        name="gaussian_mixture",
        m=m,
        d=m,
        prior_sample=prior_sample,
        simulate=simulate,
        reference=MixturePosterior(m=m, weights=weights, sds=sds, bound=bound),
    )


# ---------------------------------------------------------------------------
# Gaussian linear uniform task (SBI benchmark model, exact reference)
# ---------------------------------------------------------------------------


class TruncatedGaussianPosterior(PosteriorBase):
    """N(x, noise_var I) truncated to the prior box, sampled by rejection."""

    def __init__(self, m: int, noise_var: float, bound: float):
        self.m = m
        self.noise_var = float(noise_var)
        self.bound = float(bound)

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        x_o = np.asarray(x_o, dtype=np.float64)
        rng = stream.generator()
        sd = np.sqrt(self.noise_var)
        out = np.empty((n, self.m))
        got = 0
        for _ in range(10_000):
            if got >= n:
                break
            size = max(2 * (n - got), 16)
            draws = x_o + sd * rng.standard_normal((size, self.m))
            keep = np.all(np.abs(draws) <= self.bound, axis=1)
            kept = draws[keep][: n - got]
            out[got : got + len(kept)] = kept
            got += len(kept)
        if got < n:
            raise OracleUnavailableError(
                "truncated-Gaussian rejection failed; observation too far outside the box"
            )
        return out

    def mean(self, x_o: np.ndarray) -> np.ndarray:
        x_o = np.asarray(x_o, dtype=np.float64)
        sd = np.sqrt(self.noise_var)
        lo = (-self.bound - x_o) / sd
        hi = (self.bound - x_o) / sd
        phi = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
        return x_o + sd * (phi(lo) - phi(hi)) / (ndtr(hi) - ndtr(lo))

    def log_prob(self, thetas: np.ndarray, x_o: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        x_o = np.asarray(x_o, dtype=np.float64)
        sd = np.sqrt(self.noise_var)
        resid = (thetas - x_o) / sd
        base = _std_normal_logpdf(resid) - self.m * np.log(sd)
        per_dim = ndtr((self.bound - x_o) / sd) - ndtr((-self.bound - x_o) / sd)
        inside = np.all(np.abs(thetas) <= self.bound, axis=1)
        return np.where(inside, base - float(np.sum(np.log(per_dim))), -np.inf)


def gaussian_linear_uniform_task(m: int = 10, noise_var: float = 0.1, bound: float = 1.0) -> Task:
    """Gaussian likelihood centred on theta with a uniform box prior."""
    if noise_var <= 0 or bound <= 0:
        raise ConfigurationError("noise_var and bound must be positive")

    def prior_sample(n: int, stream: RngStream) -> np.ndarray:
        return stream.generator().uniform(-bound, bound, size=(n, m))

    def simulate(thetas: np.ndarray, stream: RngStream) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        return thetas + np.sqrt(noise_var) * stream.generator().standard_normal(thetas.shape)

    return Task(
        name="gaussian_linear_uniform",
        m=m,
        d=m,
        prior_sample=prior_sample,
        simulate=simulate,
        reference=TruncatedGaussianPosterior(m=m, noise_var=noise_var, bound=bound),
    )


# ---------------------------------------------------------------------------
# Gaussian shift pair (two-sample benchmark, no conditioning)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianShiftPair:
    """The pair p = N(0, I_dim) vs q = N(0, sigma^2 I_dim).

    At sigma = 1 the two densities coincide; the covariance mismatch grows in
    both directions away from 1.
    """

    sigma: float
    dim: int = 2

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        if self.dim < 1:
            raise ConfigurationError("dim must be at least 1")

    def log_prob_p(self, thetas: np.ndarray) -> np.ndarray:
        return _std_normal_logpdf(np.atleast_2d(thetas))

    def log_prob_q(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        return _std_normal_logpdf(thetas / self.sigma) - self.dim * np.log(self.sigma)

    def sample_q(self, n: int, stream: RngStream) -> np.ndarray:
        return self.sigma * stream.generator().standard_normal((n, self.dim))


def gaussian_shift_samples(
    pair: GaussianShiftPair, n: int, stream: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws from each member of the pair (p first, then q)."""
    if n < 0:
        raise ConfigurationError("n must be nonnegative")
    samples_p = stream.child("p").generator().standard_normal((n, pair.dim))
    samples_q = pair.sample_q(n, stream.child("q"))
    return samples_p, samples_q


# ---------------------------------------------------------------------------
# Controlled estimator distortions
# ---------------------------------------------------------------------------


class DistortedPosterior(PosteriorBase):
    """Shift/scale distortion of a reference posterior: a tunable bad estimator.

    Draws are ``theta' = mean_shift + scale * (theta - mu) + mu`` with ``mu``
    the base posterior mean at the conditioning observation, so
    (mean_shift=0, scale=1) is the identity.
    """

    def __init__(self, base: PosteriorBase, mean_shift, scale: float):
        mean_shift = np.asarray(mean_shift, dtype=np.float64).ravel()
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        if not np.all(np.isfinite(mean_shift)):
            raise ConfigurationError("mean_shift must be finite")
        if mean_shift.shape[0] != base.m:
            raise ConfigurationError(f"mean_shift must have length m={base.m}")
        self.base = base
        self.mean_shift = mean_shift
        self.scale = float(scale)
        self.m = base.m

    @property
    def is_identity(self) -> bool:
        return self.scale == 1.0 and not np.any(self.mean_shift)

    def _transform(self, thetas: np.ndarray, mu: np.ndarray) -> np.ndarray:
        if self.is_identity:
            return thetas
        return self.mean_shift + self.scale * (thetas - mu) + mu

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        draws = self.base.sample(x_o, n, stream)
        return self._transform(draws, self.base.mean(x_o))

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        xs = np.atleast_2d(xs)
        draws = self.base.sample_conditional(xs, stream)
        if self.is_identity:
            return draws
        mus = np.vstack([self.base.mean(x) for x in xs])
        return self._transform(draws, mus)

    def mean(self, x_o: np.ndarray) -> np.ndarray:
        return self.base.mean(x_o) + self.mean_shift

    def log_prob(self, thetas: np.ndarray, x_o: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        mu = self.base.mean(x_o)
        pulled_back = (thetas - self.mean_shift - mu) / self.scale + mu
        return self.base.log_prob(pulled_back, x_o) - self.m * np.log(self.scale)


def distort(base: PosteriorBase, mean_shift, scale: float) -> DistortedPosterior:
    return DistortedPosterior(base, mean_shift, scale)


# ---------------------------------------------------------------------------
# Registry (CLI addressing)
# ---------------------------------------------------------------------------

TASK_BUILDERS: dict[str, Callable[..., Task]] = {
    "gaussian_conjugate": gaussian_conjugate_task,
    "two_moons": two_moons_task,
    "gaussian_mixture": gaussian_mixture_task,
    "gaussian_linear_uniform": gaussian_linear_uniform_task,
}


def make_task(name: str, **params) -> Task:
    try:
        builder = TASK_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown task {name!r}; available: {sorted(TASK_BUILDERS)}"
        ) from None
    reject_unknown_keys(params, inspect.signature(builder).parameters, f"{name} task parameter")
    return builder(**params)
