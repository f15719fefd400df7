"""Monte-Carlo approximation of the invariant distribution.

An equal-weight particle ensemble stands in for a probability measure
on [0, 1]; one transfer-operator step replaces every particle x by
l*x*(1-x) with an independently drawn rate l per particle.  Repeated
application converges (in the stable regimes) to the unique invariant
measure, whose mean, peak decomposition around (lam-1)/lam, and
variance response to the noise half-width are estimated here.

The step leaving generation g draws its rates by ParameterDistribution's
rule from stream (base_seed, g+1), variate i for particle i (see ``maps``),
so results are bit-identical however the work is scheduled, and same-seed
ensembles of one size consume the same variates each generation, whatever
their rate law; a one-slot memo holds the last generation's variates.

One private driver runs the loops of ``pf_iterate``, ``ensemble_time_mean``
and ``stationary_stats``: it steps same-seed ensembles, one per rate law,
in lockstep through ``pf_step`` (each generation is drawn once for all),
hands the first one's particles x at each trailing window generation to
an accumulator, a function of (sums, x), and returns the final snapshots.
Each accumulator keeps its own summation order (side sums do not add up
bitwise to the total).  The lemma suite reads its variance ladder from the
finals, and ``compare`` draws its histogram from ``ensemble_time_mean``'s.

``ensemble_time_mean`` and ``stationary_stats`` split runs of
``_SPLIT_MIN`` particles or more over two processes where ``os.fork``
exists and two CPUs are usable: a forked child steps particles [mid, n),
mid = n // 8 * 4 a multiple of 4 so that its variates start on a Philox
block, and the parent [0, mid).  The initial states, window sums and
finals live in one shared anonymous map, which each process writes in
place; the statistics come from the whole arrays, so the bytes equal a
one-process run's.  The child leaves by ``os._exit``, status 0 only on
success; the parent always reaps it and raises RuntimeError otherwise.

Snapshots are validated where they enter: ``Ensemble(...)`` and
``uniform_ensemble`` check that every particle lies in [0, 1].  The
snapshots ``pf_step`` returns skip that scan, because the step cannot
leave [0, 1] for a rate law that ParameterDistribution accepts
(0 <= low <= high <= 4):

- The rate is fl(low + fl(u*w)) with w = fl(high - low) and u in
  [0, 1).  Every term is >= 0, so the rate is >= 0.  fl(u*w) <= w, and
  w errs by at most half an ulp of high, so low + fl(u*w) <= high +
  ulp(high)/2.  Below 4 that rounds to at most the float after high,
  which is <= 4.  At high = 4 either low = 0 and w is exact, or
  high - low < 4 errs by at most 2**-52, under half the ulp above 4, so
  the rate rounds to at most 4.
- For a rate l <= 4 and x in [0, 1], fl(fl(l*x)*fl(1 - x)) lies in
  [0, 1].  fl(l*x) <= 4x, which is exact.  For x >= 1/2, fl(1 - x) is exact
  (Sterbenz), the product is at most 4x(1 - x) <= 1 before rounding
  and so at most 1 after.  For x < 1/2, fl(1 - x) exceeds 1 - x by at
  most 2**-54, and 4x < 2, so the product stays under 1 + 2**-53 and
  rounds to at most 1.

Run settings (sizes, averaging window, seed) come only from a
MonteCarloConfig, which validates them once and has no protocol
defaults (the desk and paper sizes and the seed are ``cli``'s).  A
caller that needs another window or seed passes ``replace(cfg, ...)``.
This module does not import ``analytic``: its callers validate windows.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConvergenceError, DomainError
from .maps import INIT_STREAM, ParameterDistribution, stream_rng


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Equal-weight particles approximating a measure on [0, 1].

    Snapshots are immutable; transfer-operator steps return new ones.
    ``generation`` counts the steps applied since initialization.
    """

    particles: np.ndarray
    generation: int
    base_seed: int
    _first = 0  # index of particles[0] in its whole ensemble (not a field)

    def __post_init__(self) -> None:
        if len(self.particles) == 0:
            raise DomainError("ensemble must contain at least one particle")
        # min/max propagate NaN, so a NaN particle fails this test too
        if not (self.particles.min() >= 0.0 and self.particles.max() <= 1.0):
            raise DomainError("all particles must lie in [0, 1]")

    @classmethod
    def _unchecked(cls, particles: np.ndarray, generation: int, base_seed: int, first: int = 0) -> "Ensemble":
        """A snapshot of particles already known to lie in [0, 1], built
        without the range scan (see the module docstring)."""
        ens = object.__new__(cls)  # frozen: the attributes go straight into __dict__
        ens.__dict__.update(particles=particles, generation=generation, base_seed=base_seed, _first=first)
        return ens

    @property
    def n(self) -> int:
        return len(self.particles)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Fixed-width binning of an ensemble snapshot over the unit interval."""

    counts: np.ndarray

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, len(self.counts) + 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_samples(cls, values: np.ndarray, n_bins: int) -> "Histogram":
        if n_bins < 1:
            raise DomainError(f"n_bins must be >= 1, got {n_bins}")
        # explicit edges: numpy's equal-bin path (bins=n_bins) is 1.5-3x slower here
        return cls(np.histogram(values, bins=np.linspace(0.0, 1.0, n_bins + 1))[0])

    def density(self) -> np.ndarray:
        widths = np.diff(self.edges)
        total = max(self.total, 1)
        return self.counts / (total * widths)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Run sizes for ensemble experiments.

    ``window`` is the number of trailing generations pooled into time
    averages; it is clipped to a multiple of the cycle length where
    parity matters.  No field has a default.  Seeds outside [0, 2**64)
    are rejected up front; the streams would refuse them only at a draw.
    """

    n_particles: int
    generations: int
    window: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise DomainError("n_particles must be >= 2 for a standard error")
        if self.generations < 1:
            raise DomainError("generations must be >= 1")
        if not 0 < self.window <= self.generations:
            raise DomainError("need 0 < window <= generations")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2**64), got {self.seed}")


def uniform_ensemble(n: int, seed: int) -> Ensemble:
    """n i.i.d. uniform(0, 1) particles, reproducible from the seed.

    Exact zeros (possible at the float resolution of the generator) are
    redrawn so every particle is strictly inside (0, 1) and cannot be
    stuck on the absorbing boundary.
    """
    if n < 1:
        raise DomainError(f"ensemble size must be >= 1, got {n}")
    rng = stream_rng(seed, INIT_STREAM)
    x = rng.random(n)
    while np.any(x == 0.0):
        x = np.where(x == 0.0, rng.random(n), x)
    return Ensemble(particles=x, generation=0, base_seed=seed)


@lru_cache(maxsize=1)
def _rate_variates(seed: int, stream: int, first: int, n: int) -> np.ndarray:
    """Variates first .. first + n - 1 of stream (seed, stream), read-only,
    for first a multiple of 4.  One slot suffices: ensembles stepped in
    lockstep ask for the same generation's variates one after another."""
    rng = stream_rng(seed, stream)
    if first:
        rng.bit_generator.advance(first // 4)
    u = rng.random(n)
    u.flags.writeable = False
    return u


def pf_step(ensemble: Ensemble, dist: ParameterDistribution) -> Ensemble:
    """One Monte-Carlo transfer-operator step.

    Every particle advances with its own independent rate draw; the
    point-mass case reduces to the plain fixed-rate map.  The rate is
    ParameterDistribution's u*(high - low) + low, and the products keep
    the order of lam*x*(1 - x), so the in-place update is bit-identical
    to drawing uniform(low, high).

    The result stays in [0, 1] by the argument in the module docstring,
    so it is returned without a range scan.
    """
    u = _rate_variates(ensemble.base_seed, ensemble.generation + 1, ensemble._first, ensemble.n)
    x = ensemble.particles
    y = u * (dist.high - dist.low)
    y += dist.low
    y *= x
    y *= 1.0 - x
    return Ensemble._unchecked(y, ensemble.generation + 1, ensemble.base_seed, ensemble._first)


def _drive(ensembles, dists, steps: int, window: int = 0, accumulate=None) -> list[Ensemble]:
    """Step each ensemble by its rate law ``steps`` times in lockstep,
    pass the first ensemble's particles to ``accumulate`` after each of
    the last ``window`` steps, and return the final snapshots."""
    for t in range(window - steps, window):  # t >= 0 inside the window
        ensembles = [pf_step(e, d) for e, d in zip(ensembles, dists)]
        if t >= 0:
            accumulate(ensembles[0].particles)
    return ensembles


_SPLIT_MIN = 12_000  # windowed runs this large split over two processes


def _windowed(dists, cfg: MonteCarloConfig, rows: int, accumulate) -> tuple[np.ndarray, list[Ensemble]]:
    """Run same-seed ensembles, one per rate law, through ``_drive`` with
    ``accumulate(sums, x)`` adding each window generation's x into zeroed
    per-particle sums of ``rows`` rows; returns (sums, final snapshots)."""
    n, g, w = cfg.n_particles, cfg.generations, cfg.window
    # an anonymous map is MAP_SHARED: a forked child writes its own columns in place
    buf = np.frombuffer(mmap.mmap(-1, 8 * n * (rows + len(dists))), dtype=np.float64).reshape(-1, n)
    sums, ends = buf[:rows], buf[rows:]
    for end in ends:  # the initial states, overwritten by the finals
        end[:] = uniform_ensemble(n, cfg.seed).particles

    def part(lo: int, hi: int) -> None:
        halves = [Ensemble._unchecked(end[lo:hi], 0, cfg.seed, lo) for end in ends]
        for end, e in zip(ends[:, lo:hi], _drive(halves, dists, g, w, partial(accumulate, sums[:, lo:hi]))):
            end[:] = e.particles

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if n < _SPLIT_MIN or not hasattr(os, "fork") or len(cpus) < 2:
        part(0, n)
    else:
        mid = n // 8 * 4  # a multiple of 4, so the child's variates start on a Philox block
        pid = os.fork()
        if pid == 0:  # the child reports by its exit status only
            try:
                part(mid, n)
                os._exit(0)
            finally:
                os._exit(1)
        try:
            part(0, mid)
        finally:
            status = os.waitpid(pid, 0)[1]
        if status:
            raise RuntimeError(f"the child process stepping particles [{mid}, {n}) failed (wait status {status})")
    return sums, [Ensemble._unchecked(e, g, cfg.seed) for e in ends]


def pf_iterate(ensemble: Ensemble, dist: ParameterDistribution, n: int) -> Ensemble:
    """n successive transfer-operator steps (n = 0 is the identity)."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return _drive([ensemble], [dist], n)[0]


@dataclass(frozen=True, eq=False)
class StationaryStats:
    """Per-particle time averages over a trailing window of generations.

    Particles evolve with independent rate streams, so the per-particle
    window means are i.i.d. across particles and their spread gives a
    clean standard error that is immune to autocorrelation in time.
    ``left_*``/``right_*`` split each particle's visits at the peak
    threshold; ``final`` is the last snapshot and ``companion_finals``
    the last snapshots of the companion ensembles, in their order.
    """

    left_mean_pp: np.ndarray
    left_sq_pp: np.ndarray
    right_mean_pp: np.ndarray
    final: Ensemble
    companion_finals: tuple[Ensemble, ...]


def standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of i.i.d. values, std(ddof=1)/sqrt(n)."""
    n = len(values)
    if n < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(n))


def _peak_threshold(lambda_bar: float) -> float:
    if not lambda_bar > 1.0:
        raise DomainError("peak threshold needs lambda_bar > 1")
    return (lambda_bar - 1.0) / lambda_bar  # the fixed point, between the two peaks


def stationary_stats(
    dist: ParameterDistribution,
    cfg: MonteCarloConfig,
    companions: tuple[ParameterDistribution, ...] = (),
) -> StationaryStats:
    """Run an ensemble from cfg.seed to cfg.generations and pool the
    last cfg.window generations into per-particle time averages split at
    the peak threshold (lambda_bar - 1)/lambda_bar.

    Each companion rate law runs its own ensemble from the same seed in
    lockstep with the main one, and only its final snapshot is kept.

    ConvergenceError if some particle never visits one of the sides during
    the window (expected in the two-cycle regime, where every particle
    alternates sides each generation).
    """
    threshold = _peak_threshold(dist.lambda_bar)

    def split(sums: np.ndarray, x: np.ndarray) -> None:
        lsum, lsq, rsum, lcnt = sums  # the count is a float: exact below 2**53
        # the mask as a 0/1 factor: exact for x in [0, 1], and no where-temporaries
        left = x <= threshold
        lx = x * left
        lsum += lx
        rsum += x - lx
        lsq += lx * x
        lcnt += left

    (lsum, lsq, rsum, lcnt), (ens, *others) = _windowed((dist, *companions), cfg, 4, split)
    rcnt = cfg.window - lcnt
    if np.any(lcnt == 0) or np.any(rcnt == 0):
        raise ConvergenceError(
            "some particle never visited one side of the threshold during "
            "the averaging window"
        )
    return StationaryStats(
        left_mean_pp=lsum / lcnt,
        left_sq_pp=lsq / lcnt,
        right_mean_pp=rsum / rcnt,
        final=ens,
        companion_finals=tuple(others),
    )


def ensemble_time_mean(
    dist: ParameterDistribution, cfg: MonteCarloConfig
) -> tuple[float, float, Ensemble]:
    """(mean, standard error, final snapshot) of a run from cfg.seed: the
    state pooled over particles and the trailing cfg.window generations,
    and the ensemble at cfg.generations."""
    (total,), (final,) = _windowed([dist], cfg, 1, lambda sums, x: np.add(sums[0], x, out=sums[0]))
    per_particle = total / cfg.window
    return float(per_particle.mean()), standard_error(per_particle), final


def variance_of_right_peak(lambda_bar: float, final: Ensemble) -> tuple[float, float]:
    """Variance of the right peak of the converged distribution and its
    standard error.

    ``final`` is a converged snapshot of a rate law centered at
    lambda_bar (``stationary_stats`` returns it for each companion); it
    is split at the peak threshold and the sample variance of the right
    side returned.  Each particle draws its own rates, so the m states
    on the right are i.i.d. and the standard error of their variance is
    sqrt((m4 - m2**2)/m) in the centered moments; m4 - m2**2 is the
    variance of the squared deviations.
    """
    threshold = _peak_threshold(lambda_bar)
    x = final.particles
    right = x[x > threshold]
    if len(right) in (0, len(x)):
        raise ConvergenceError(
            f"peak split at {threshold:.6f} left {len(x) - len(right)}/{len(right)} "
            f"particles on the left/right; ensemble not converged to a "
            f"two-peak distribution"
        )
    # centered evaluation: the naive E[X^2] - mean^2 form cancels badly
    # at the zero-noise limit where the peak is a point mass
    v = float(np.var(right))
    se = np.sqrt(np.var(np.square(right - right.mean())) / len(right))
    return v, float(se)
