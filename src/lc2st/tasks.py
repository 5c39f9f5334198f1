"""Inference tasks: simulators with priors and tractable reference posteriors.

Each task bundles a prior sampler, a stochastic simulator, and (where
tractable) a reference posterior that can sample and usually evaluate its
log-density at a given observation.  The reference posteriors double as the
"exact estimator" in type-I experiments and as oracles for test assertions.
Every reference draws exactly: in closed form (conjugate) or by row-batched
rejection from an exact proposal (the others).

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

from .core import (
    ConfigurationError,
    JointDataset,
    OracleUnavailableError,
    RngStream,
    check_count,
    check_real,
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
    """Common plumbing for reference posteriors: ``sample(x_o, n)`` is the
    subclass's ``sample_conditional`` on ``x_o`` repeated n times."""

    m: int

    def sample(self, x_o: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        x_o = np.asarray(x_o, dtype=np.float64)
        return self.sample_conditional(np.broadcast_to(x_o, (n, x_o.shape[-1])), stream)

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        raise NotImplementedError

    def log_prob(self, thetas: np.ndarray, x_o: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no tractable density")

    def mean(self, x_o: np.ndarray) -> np.ndarray:
        """Posterior mean at ``x_o``, or one row per row of a (n, d) ``x_o``.
        This default is a Monte Carlo estimate, one per distinct row: a
        repeated observation (``sample``'s rows) costs one."""
        x_o = np.asarray(x_o, dtype=np.float64)
        if x_o.ndim == 2:
            distinct = {x.tobytes(): x for x in x_o}
            means = {key: self.mean(x) for key, x in distinct.items()}
            return np.vstack([means[x.tobytes()] for x in x_o])
        draws = self.sample(x_o, 8192, _stream_from_array("posterior-mean", x_o))
        return draws.mean(axis=0)


# Proposals per round, spread over the unfilled rows: a lone row with a low
# acceptance rate gets this many proposals a round instead of one.
_ROUND_PROPOSALS = 1024
_MAX_ROUNDS = 1000


def _rejection_rows(xs, m: int, propose, stream: RngStream) -> np.ndarray:
    """One exact posterior draw per row of ``xs`` by row-batched rejection.

    ``propose(xs, rng) -> (thetas, accepted)`` makes one proposal per row.
    Each round proposes k = max(1, _ROUND_PROPOSALS // unfilled) times for
    every unfilled row from ``stream.child("round", r)`` and keeps each row's
    first accepted proposal, which is exact for i.i.d. proposals.  Rounds go
    on while some row was filled in the last ``_MAX_ROUNDS`` of them.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    out = np.empty((xs.shape[0], m))
    todo, r, idle = np.arange(xs.shape[0]), 0, 0
    while todo.size and idle < _MAX_ROUNDS:
        k = max(1, _ROUND_PROPOSALS // todo.size)
        thetas, accepted = propose(xs[np.repeat(todo, k)], stream.child("round", r).generator())
        accepted = accepted.reshape(todo.size, k)
        hit = accepted.any(axis=1)
        first = accepted.argmax(axis=1)[hit]
        out[todo[hit]] = thetas.reshape(todo.size, k, m)[hit, first]
        todo = todo[~hit]
        r, idle = r + 1, 0 if hit.any() else idle + 1
    if todo.size:
        raise OracleUnavailableError(
            f"{todo.size} of {xs.shape[0]} rows found no accepted proposal in {r} rounds, the last {_MAX_ROUNDS} "
            f"filling none (first: row {todo[0]}, x={xs[todo[0]].tolist()}); the prior (almost) never produces it"
        )
    return out


def _box_mass(x: np.ndarray, sd, bound: float) -> np.ndarray:
    """Per-dimension mass of N(x, sd^2) inside [-bound, bound]."""
    from scipy.special import ndtr  # here, not at module level: `import lc2st` loads no scipy

    lo, hi = (-bound - x) / sd, (bound - x) / sd
    # the mirrored form for x below the box keeps both terms in the lower
    # tail, where ndtr does not round to 1
    return np.where(lo > 0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))


def _truncated_normal_mean(x: np.ndarray, sd, bound: float) -> np.ndarray:
    """Per-dimension mean of N(x, sd^2) truncated to [-bound, bound]."""
    lo, hi = (-bound - x) / sd, (bound - x) / sd
    phi = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    return x + sd * (phi(lo) - phi(hi)) / _box_mass(x, sd, bound)


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
        """Posterior mean at ``x_o``, or one row per row of a (n, m) ``x_o``."""
        return np.asarray(x_o, dtype=np.float64) * self.shrinkage

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
    check_count("m", m, 1)
    check_real("noise_std", noise_std, "positive and finite", lambda v: 0 < v < np.inf)

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
# Two moons task (SBI benchmark model, exact reference by simulator inversion)
# ---------------------------------------------------------------------------


def _moon_offsets(n: int, rng: np.random.Generator) -> np.ndarray:
    """The simulator noise p(a, r) = (r cos a + 0.25, r sin a)."""
    a = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
    r = rng.normal(0.1, 0.01, size=n)
    return np.column_stack([r * np.cos(a) + 0.25, r * np.sin(a)])


def _two_moons_simulate(thetas: np.ndarray, stream: RngStream) -> np.ndarray:
    thetas = np.atleast_2d(thetas)
    base = _moon_offsets(thetas.shape[0], stream.generator())
    shift = np.column_stack(
        [
            -np.abs(thetas[:, 0] + thetas[:, 1]) / np.sqrt(2.0),
            (-thetas[:, 0] + thetas[:, 1]) / np.sqrt(2.0),
        ]
    )
    return base + shift


def _invert_two_moons(xs: np.ndarray, rng: np.random.Generator):
    # q = x - p(a, r) is the shift (-|t1 + t2|, t2 - t1) / sqrt(2).  Under the
    # uniform prior the shift map is two-to-one with a constant Jacobian, so q
    # drawn through fresh noise, a uniform branch sign and the prior box as
    # acceptance give exact posterior draws; q0 > 0 has no preimage.
    q = xs - _moon_offsets(xs.shape[0], rng)
    total = np.where(rng.random(xs.shape[0]) < 0.5, -1.0, 1.0) * -np.sqrt(2.0) * q[:, 0]
    diff = np.sqrt(2.0) * q[:, 1]
    thetas = np.column_stack([(total - diff) / 2.0, (total + diff) / 2.0])
    return thetas, (q[:, 0] <= 0.0) & np.all(np.abs(thetas) <= 1.0, axis=1)


class TwoMoonsPosterior(PosteriorBase):
    """Exact two-moons posterior by simulator inversion (as in sbibm)."""

    m = 2

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        return _rejection_rows(xs, self.m, _invert_two_moons, stream)


def two_moons_task() -> Task:
    """Crescent-shaped benchmark model with a bimodal posterior.

    Uniform prior on [-1, 1]^2; the reference posterior is exact.
    """

    def prior_sample(n: int, stream: RngStream) -> np.ndarray:
        return stream.generator().uniform(-1.0, 1.0, size=(n, 2))

    return Task(
        name="two_moons",
        m=2,
        d=2,
        prior_sample=prior_sample,
        simulate=_two_moons_simulate,
        reference=TwoMoonsPosterior(),
    )


# ---------------------------------------------------------------------------
# Gaussian mixture and Gaussian linear uniform tasks (SBI benchmark models,
# exact references)
# ---------------------------------------------------------------------------


class MixturePosterior(PosteriorBase):
    """Posterior of a Gaussian location mixture under a uniform box prior.

    The likelihood depends on theta only through x - theta, so the posterior
    is the same mixture recentred at x and truncated to the prior box; drawing
    component offsets and rejecting outside the box is exact.  With one
    component it is the truncated Gaussian of ``gaussian_linear_uniform``.
    The mean is in closed form.
    """

    def __init__(self, m: int, weights, sds, bound: float):
        self.m = m
        self.weights = np.asarray(weights, dtype=np.float64)
        self.sds = np.asarray(sds, dtype=np.float64)
        self.bound = float(bound)

    def _propose(self, xs: np.ndarray, rng: np.random.Generator):
        comp = rng.choice(len(self.weights), size=xs.shape[0], p=self.weights)
        draws = xs + self.sds[comp, None] * rng.standard_normal(xs.shape)
        return draws, np.all(np.abs(draws) <= self.bound, axis=1)

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        if len(self.weights) > 1:
            return _rejection_rows(xs, self.m, self._propose, stream)
        # One component: the coordinates are independent, so each is accepted
        # on its own and a row far outside the box in a few coordinates does
        # not wait for all of them to land inside at once.
        return _rejection_rows(xs.reshape(-1, 1), 1, self._propose, stream).reshape(xs.shape)

    def _component_masses(self, x_o: np.ndarray) -> np.ndarray:
        # w_k prod_j [Phi((b - x_j)/sd_k) - Phi((-b - x_j)/sd_k)], per row of x_o
        return np.array([w * np.prod(_box_mass(x_o, sd, self.bound), axis=-1) for w, sd in zip(self.weights, self.sds)])

    def mean(self, x_o: np.ndarray) -> np.ndarray:
        # Within a component the dimensions are independent truncated normals;
        # the components are weighted by their posterior mass.  A component
        # whose mass underflows to 0 (x far outside the box for its scale)
        # has no defined mean and is left out.  Rows of x_o give rows.
        x_o = np.asarray(x_o, dtype=np.float64)
        masses = self._component_masses(x_o)[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            means = np.array([_truncated_normal_mean(x_o, sd, self.bound) for sd in self.sds])
            weighted = np.where(masses > 0, masses * means, 0.0)
        return weighted.sum(axis=0) / masses.sum(axis=0)

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
        return np.where(inside, log_mix - float(np.log(self._component_masses(x_o).sum())), -np.inf)


def gaussian_mixture_task(bound: float = 10.0, sds=(1.0, 0.1), weights=(0.5, 0.5)) -> Task:
    """Two-component Gaussian location mixture with a uniform box prior."""
    check_real("bound", bound, "positive and finite", lambda v: 0 < v < np.inf)
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


def gaussian_linear_uniform_task(m: int = 10, noise_var: float = 0.1, bound: float = 1.0) -> Task:
    """Gaussian likelihood centred on theta with a uniform box prior."""
    check_count("m", m, 1)
    for name, value in (("noise_var", noise_var), ("bound", bound)):
        check_real(name, value, "positive and finite", lambda v: 0 < v < np.inf)

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
        reference=MixturePosterior(m=m, weights=[1.0], sds=[np.sqrt(noise_var)], bound=bound),
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
        check_real("sigma", self.sigma, "positive", lambda v: v > 0)
        check_count("dim", self.dim, 1)

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
    (mean_shift=0, scale=1) is the identity.  A number as ``mean_shift``
    shifts every coordinate by it.
    """

    def __init__(self, base: PosteriorBase, mean_shift, scale: float):
        check_real("scale", scale, "positive", lambda v: v > 0)
        shift = np.asarray(mean_shift)
        if shift.dtype.kind not in "iuf":
            raise ConfigurationError(f"mean_shift must be a number or a list of numbers, got {mean_shift!r}")
        mean_shift = np.full(base.m, shift, dtype=np.float64) if shift.ndim == 0 else shift.astype(np.float64).ravel()
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

    def sample_conditional(self, xs: np.ndarray, stream: RngStream) -> np.ndarray:
        xs = np.atleast_2d(xs)
        draws = self.base.sample_conditional(xs, stream)
        if self.is_identity:
            return draws
        mu = self.base.mean(xs)
        return self.mean_shift + self.scale * (draws - mu) + mu

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
