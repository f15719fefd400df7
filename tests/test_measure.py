"""Tests for the particle approximation of the invariant distribution."""

from __future__ import annotations

import bisect
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochlogistic import measure
from stochlogistic.analytic import fixed_point, period2_points, support_intervals
from stochlogistic.errors import ConvergenceError, DomainError
from stochlogistic.experiments import lemma_suite
from stochlogistic.maps import ParameterDistribution, stream_rng
from stochlogistic.measure import (
    Ensemble,
    Histogram,
    MonteCarloConfig,
    ensemble_time_mean,
    pf_iterate,
    pf_step,
    standard_error,
    stationary_stats,
    uniform_ensemble,
    variance_of_right_peak,
)

from oracles import bootstrap_variance_se, quartic_two_cycle


#: The message of stationary_stats' ConvergenceError for an empty peak.
_EMPTY_PEAK = "never visited one side of the threshold"


class TestUniformEnsemble:
    def test_deterministic(self):
        a = uniform_ensemble(4, seed=11)
        b = uniform_ensemble(4, seed=11)
        assert np.array_equal(a.particles, b.particles)
        assert a.generation == 0

    def test_open_interval(self):
        e = uniform_ensemble(100_000, seed=12)
        assert np.all(e.particles > 0.0) and np.all(e.particles < 1.0)

    def test_size_error(self):
        with pytest.raises(DomainError, match="ensemble size must be >= 1"):
            uniform_ensemble(0, seed=1)

    def test_law_of_large_numbers(self):
        e = uniform_ensemble(1_000_000, seed=13)
        assert abs(e.particles.mean() - 0.5) <= 3.0 / np.sqrt(12e6)


class TestPfStep:
    def test_cycle_point_swaps(self):
        p, q = quartic_two_cycle(3.2)
        e = Ensemble(np.array([p]), generation=0, base_seed=0)
        out = pf_step(e, ParameterDistribution(3.2, 0.0))
        assert out.particles[0] == pytest.approx(q, abs=1e-12)
        assert out.generation == 1

    def test_point_mass_equals_scalar_map(self):
        e = uniform_ensemble(64, seed=3)
        out = pf_step(e, ParameterDistribution(2.7, 0.0))
        expected = 2.7 * e.particles * (1.0 - e.particles)
        assert np.array_equal(out.particles, expected)

    def test_mass_preserved(self):
        e = uniform_ensemble(501, seed=4)
        out = pf_step(e, ParameterDistribution(3.2, 0.1))
        assert out.n == 501

    def test_trapping_interval(self):
        # fixed-point regime: once inside the band the ensemble never leaves
        dist = ParameterDistribution(1.5, 0.01)
        e = pf_iterate(uniform_ensemble(2000, seed=5), dist, 500)
        lo, hi = fixed_point(1.49), fixed_point(1.51)
        assert np.all(e.particles >= lo - 1e-12)
        assert np.all(e.particles <= hi + 1e-12)


class TestPfIterate:
    def test_identity(self):
        e = uniform_ensemble(10, seed=6)
        assert pf_iterate(e, ParameterDistribution(3.2, 0.1), 0) is e

    def test_composition_bitwise(self):
        dist = ParameterDistribution(3.2, 0.1)
        e = uniform_ensemble(100, seed=7)
        once = pf_iterate(e, dist, 12)
        twice = pf_iterate(pf_iterate(e, dist, 5), dist, 7)
        assert np.array_equal(once.particles, twice.particles)
        assert once.generation == twice.generation == 12

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="n must be >= 0"):
            pf_iterate(uniform_ensemble(2, seed=1), ParameterDistribution(2.0, 0.0), -1)


class TestMoments:
    """The standard error of a mean over particles, as every verdict
    computes it."""

    def test_point_mass(self):
        assert standard_error(np.full(10, 0.3)) == pytest.approx(0.0, abs=1e-16)

    def test_one_value_has_no_spread(self):
        assert standard_error(np.array([0.3])) == 0.0

    def test_uniform_variance(self):
        x = uniform_ensemble(1_000_000, seed=8).particles
        assert standard_error(x) ** 2 * len(x) == pytest.approx(1.0 / 12.0, abs=5e-4)

    def test_two_mass_mean(self):
        p, q = period2_points(3.2)
        se = standard_error(np.array([p, q]))
        assert se == pytest.approx((q - p) / 2.0, abs=1e-12)


def _split(x: np.ndarray, lambda_bar: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Left and right peaks at the threshold (lambda_bar - 1)/lambda_bar."""
    threshold = (lambda_bar - 1.0) / lambda_bar
    left = x <= threshold
    return x[left], x[~left], threshold


class TestSplitPeaks:
    def test_balanced_split_after_convergence(self):
        dist = ParameterDistribution(3.208, 0.024)
        e = pf_iterate(uniform_ensemble(2000, seed=9), dist, 2000)
        left, right, _ = _split(e.particles, 3.208)
        assert len(left) + len(right) == 2000
        assert abs(len(left) / 2000 - 0.5) < 0.05

    def test_degenerate_point_masses(self):
        p, q = period2_points(3.2)
        dist = ParameterDistribution(3.2, 0.0)
        e = pf_iterate(uniform_ensemble(512, seed=10), dist, 2000)
        left, right, _ = _split(e.particles, 3.2)
        assert np.allclose(left, p, atol=1e-9)
        assert np.allclose(right, q, atol=1e-9)

    def test_alternation(self):
        # one step maps the left peak entirely across the threshold and
        # vice versa
        dist = ParameterDistribution(3.208, 0.024)
        e = pf_iterate(uniform_ensemble(2000, seed=11), dist, 2000)
        left, right, threshold = _split(e.particles, 3.208)
        left_next = pf_step(Ensemble(left, e.generation, e.base_seed), dist)
        right_next = pf_step(Ensemble(right, e.generation, e.base_seed), dist)
        assert np.all(left_next.particles > threshold)
        assert np.all(right_next.particles <= threshold)

    @pytest.mark.parametrize("lambda_bar, delta", [(3.2, 0.05), (3.208, 0.024), (3.4, 0.04)])
    def test_converged_snapshot_lies_in_the_invariant_intervals(self, lambda_bar, delta):
        # every particle of a converged ensemble, not nearly all: the pair
        # is mapped into itself by every rate in the window
        dist = ParameterDistribution(lambda_bar, delta)
        e = pf_iterate(uniform_ensemble(4000, seed=12), dist, 1000)
        sup = support_intervals(lambda_bar, delta)
        assert sup.contains(e.particles, inflate=1e-9).all()


class TestFusedStep:
    """pf_step draws its rates through a one-slot memo of the stream's
    variates and updates in place; neither may change a bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        lambda_bar=st.floats(0.0, 4.0),
        frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(1, 300),
        generation=st.integers(0, 10_000),
    )
    def test_equals_uniform_draw_bitwise(self, lambda_bar, frac, seed, n, generation):
        try:
            dist = ParameterDistribution(lambda_bar, frac * min(lambda_bar, 4.0 - lambda_bar))
        except DomainError:
            assume(False)
        x = uniform_ensemble(n, seed=seed).particles
        out = pf_step(Ensemble(x, generation, seed), dist)
        lam = stream_rng(seed, generation + 1).uniform(dist.low, dist.high, n)
        assert out.particles.tobytes() == (lam * x * (1.0 - x)).tobytes()
        assert out.generation == generation + 1 and out.base_seed == seed

    @pytest.mark.parametrize("sizes, seeds", [((200, 200), (1, 2)), ((200, 350), (1, 1))],
                             ids=["two-seeds", "two-sizes"])
    def test_interleaved_runs_equal_separate_runs(self, sizes, seeds):
        dist = ParameterDistribution(3.2, 0.05)
        starts = [uniform_ensemble(n, s) for n, s in zip(sizes, seeds)]
        a, b = starts
        for _ in range(30):
            a, b = pf_step(a, dist), pf_step(b, dist)
        for got, start in zip((a, b), starts):
            assert got.particles.tobytes() == pf_iterate(start, dist, 30).particles.tobytes()

    def test_step_leaves_its_input_untouched(self):
        e = uniform_ensemble(100, seed=3)
        before = e.particles.copy()
        pf_step(e, ParameterDistribution(3.2, 0.05))
        assert e.particles.tobytes() == before.tobytes()


def _stationary_reference(dist, cfg, w):
    """stationary_stats' per-particle sums written with np.where, one
    ensemble run by pf_iterate and pf_step."""
    threshold = (dist.lambda_bar - 1.0) / dist.lambda_bar
    ens = pf_iterate(uniform_ensemble(cfg.n_particles, cfg.seed), dist, cfg.generations - w)
    lsum, lsq, lcnt, rsum, rcnt = np.zeros((5, cfg.n_particles))
    for _ in range(w):
        ens = pf_step(ens, dist)
        x = ens.particles
        left = x <= threshold
        lsum += np.where(left, x, 0.0)
        lsq += np.where(left, x * x, 0.0)
        lcnt += left
        rsum += np.where(left, 0.0, x)
        rcnt += ~left
    return ens, (lsum / lcnt, lsq / lcnt, rsum / rcnt)


class TestLockstep:
    CFG = MonteCarloConfig(n_particles=300, generations=160, window=80, seed=7)
    DIST = ParameterDistribution(3.2, 0.05)
    LADDER = tuple(ParameterDistribution(3.2, h) for h in (0.05, 0.025, 0.0125, 0.00625))

    def test_finals_equal_separate_runs(self):
        stats = stationary_stats(self.DIST, self.CFG, companions=self.LADDER)
        start = uniform_ensemble(self.CFG.n_particles, self.CFG.seed)
        alone = pf_iterate(start, self.DIST, self.CFG.generations)
        assert stats.final.particles.tobytes() == alone.particles.tobytes()
        assert len(stats.companion_finals) == len(self.LADDER)
        for dist, final in zip(self.LADDER, stats.companion_finals):
            alone = pf_iterate(start, dist, self.CFG.generations)
            assert final.generation == self.CFG.generations
            assert final.particles.tobytes() == alone.particles.tobytes()

    def test_window_sums_equal_masked_reference(self):
        stats = stationary_stats(self.DIST, self.CFG, companions=self.LADDER)
        final, want = _stationary_reference(self.DIST, self.CFG, self.CFG.window)
        got = (stats.left_mean_pp, stats.left_sq_pp, stats.right_mean_pp)
        assert final.particles.tobytes() == stats.final.particles.tobytes()
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_no_companions(self):
        assert stationary_stats(self.DIST, self.CFG).companion_finals == ()


def _rate_law(center, frac):
    """The law at center with a fraction of the room to 0 and 4 as its
    half-width, or None where rounding puts the support outside."""
    try:
        return ParameterDistribution(center, frac * min(center, 4.0 - center))
    except DomainError:
        return None


_RATE_LAWS = st.builds(_rate_law, st.floats(0.0, 4.0), st.floats(0.0, 1.0)).filter(
    lambda law: law is not None
)


def _stepped_alone(n, seed, dist, generations):
    """One ensemble from uniform_ensemble(n, seed), stepped by pf_step alone."""
    ens = uniform_ensemble(n, seed)
    for _ in range(generations):
        ens = pf_step(ens, dist)
    return ens


class TestDriverFinals:
    """The driver behind ensemble_time_mean and stationary_stats returns
    the final snapshots that separate runs of each rate law reach, bit
    for bit, whatever the window it accumulates."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 60),
        generations=st.integers(1, 120),
        seed=st.integers(0, 2**64 - 1),
        dist=_RATE_LAWS,
    )
    def test_time_mean_final(self, data, n, generations, seed, dist):
        window = data.draw(st.integers(1, generations))
        cfg = MonteCarloConfig(n_particles=n, generations=generations, window=window, seed=seed)
        _, _, final = ensemble_time_mean(dist, cfg)
        alone = pf_iterate(uniform_ensemble(n, seed), dist, generations)
        assert final.generation == generations
        assert final.particles.tobytes() == alone.particles.tobytes()
        assert final.particles.tobytes() == _stepped_alone(n, seed, dist, generations).particles.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 60),
        generations=st.integers(60, 160),
        seed=st.integers(0, 2**64 - 1),
        # a two-cycle window, where every particle visits both sides
        dist=st.tuples(st.floats(3.1, 3.4), st.floats(0.0, 0.04)).map(
            lambda t: ParameterDistribution(*t)
        ),
        companions=st.lists(_RATE_LAWS, max_size=4),
    )
    def test_stationary_finals(self, data, n, generations, seed, dist, companions):
        window = data.draw(st.integers(2, generations // 2))
        cfg = MonteCarloConfig(n_particles=n, generations=generations, window=window, seed=seed)
        try:
            stats = stationary_stats(dist, cfg, companions=tuple(companions))
        except ConvergenceError as exc:
            if _EMPTY_PEAK not in str(exc):
                raise
            assume(False)
        finals = (stats.final, *stats.companion_finals)
        assert len(finals) == 1 + len(companions)
        for law, final in zip((dist, *companions), finals):
            alone = pf_iterate(uniform_ensemble(n, seed), law, generations)
            assert final.generation == generations
            assert final.particles.tobytes() == alone.particles.tobytes()
            assert final.particles.tobytes() == _stepped_alone(n, seed, law, generations).particles.tobytes()


def _counting_fork():
    """A stand-in for os.fork that records the pids it returns to the parent."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        pids.append(pid)
        return pid

    return pids, fork


def _outcome(run):
    """The bytes of every array and float a windowed run returns, or the
    type of the empty-peak error it raises."""
    try:
        out = run()
    except ConvergenceError as exc:
        if _EMPTY_PEAK not in str(exc):
            raise
        return type(exc)
    if isinstance(out, measure.StationaryStats):
        arrays = (out.left_mean_pp, out.left_sq_pp, out.right_mean_pp)
        finals = (out.final, *out.companion_finals)
        return [a.tobytes() for a in arrays] + [(e.generation, e.particles.tobytes()) for e in finals]
    mean, se, final = out
    return [np.float64(mean).tobytes(), np.float64(se).tobytes(), final.generation, final.particles.tobytes()]


def _split_and_whole(run, split_min):
    """(outcome of run split from split_min particles on, outcome in one
    process, pids forked for the split run), on a host taken to have two
    usable CPUs."""
    pids, fork = _counting_fork()
    with mock.patch.object(os, "fork", fork), mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}):
        with mock.patch.object(measure, "_SPLIT_MIN", split_min):
            split = _outcome(run)
        with mock.patch.object(measure, "_SPLIT_MIN", 2**62):
            whole = _outcome(run)
    return split, whole, pids


#: Point masses, the full-width law on [0, 4], and laws between.
_SPLIT_LAWS = st.one_of(
    st.floats(0.0, 4.0).map(lambda lam: ParameterDistribution(lam, 0.0)),
    st.just(ParameterDistribution(2.0, 2.0)),
    _RATE_LAWS,
)


class TestParticleSplit:
    """Windowed runs from _SPLIT_MIN particles on step particles [mid, n)
    in a forked child; every byte equals the one-process run's."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 90),
        split_min=st.integers(8, 60),
        generations=st.integers(60, 120),
        seed=st.integers(0, 2**64 - 1),
        # a two-cycle window, where every particle visits both sides; the
        # companions take any law, as only their finals are kept
        dist=st.tuples(st.floats(3.1, 3.4), st.sampled_from([0.0, 0.01, 0.04])).map(
            lambda t: ParameterDistribution(*t)
        ),
        companions=st.lists(_SPLIT_LAWS, max_size=3),
    )
    def test_stationary_stats_split_equals_one_process(
        self, data, n, split_min, generations, seed, dist, companions
    ):
        window = data.draw(st.integers(2, generations // 2))
        cfg = MonteCarloConfig(n_particles=n, generations=generations, window=window, seed=seed)
        run = lambda: stationary_stats(dist, cfg, tuple(companions))  # noqa: E731
        split, whole, pids = _split_and_whole(run, split_min)
        assert split == whole
        assert len(pids) == (n >= split_min)
        assume(split is not ConvergenceError)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 90),
        split_min=st.integers(8, 60),
        generations=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        dist=_SPLIT_LAWS,
    )
    def test_time_mean_split_equals_one_process(self, data, n, split_min, generations, seed, dist):
        window = data.draw(st.integers(1, generations))
        cfg = MonteCarloConfig(n_particles=n, generations=generations, window=window, seed=seed)
        split, whole, pids = _split_and_whole(lambda: ensemble_time_mean(dist, cfg), split_min)
        assert split == whole
        assert len(pids) == (n >= split_min)

    def test_paper_size_splits_with_four_rungs(self):
        # the verify shape at paper size: one stationary run and its ladder
        cfg = MonteCarloConfig(n_particles=20_001, generations=60, window=30, seed=12345)
        ladder = tuple(ParameterDistribution(3.2, h) for h in (0.05, 0.025, 0.0125, 0.00625))
        run = lambda: stationary_stats(ParameterDistribution(3.2, 0.05), cfg, ladder)  # noqa: E731
        split, whole, pids = _split_and_whole(run, measure._SPLIT_MIN)
        assert split != ConvergenceError and len(split) == 8
        assert split == whole and len(pids) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 2**64 - 1),
        n=st.integers(1, 3000),
        data=st.data(),
    )
    def test_advanced_variates_are_the_tail_of_the_full_draw(self, seed, stream, n, data):
        first = 4 * data.draw(st.integers(0, n // 4))
        full = measure._rate_variates(seed, stream, 0, n).copy()
        tail = measure._rate_variates(seed, stream, first, n - first)
        assert tail.tobytes() == full[first:].tobytes()

    def test_desk_size_runs_in_one_process(self):
        cfg = MonteCarloConfig(n_particles=2000, generations=3, window=2, seed=12345)
        pids, fork = _counting_fork()
        with mock.patch.object(os, "fork", fork):
            _outcome(lambda: ensemble_time_mean(ParameterDistribution(3.2, 0.05), cfg))
            _outcome(lambda: stationary_stats(ParameterDistribution(3.2, 0.05), cfg))
        assert pids == []

    @pytest.mark.parametrize("host", ["no fork", "no affinity", "one cpu"])
    def test_fallback_is_one_process(self, host, monkeypatch):
        cfg = MonteCarloConfig(n_particles=50, generations=30, window=10, seed=9)
        dist = ParameterDistribution(3.2, 0.05)
        runs = (lambda: stationary_stats(dist, cfg), lambda: ensemble_time_mean(dist, cfg))
        split = [_split_and_whole(run, 8)[0] for run in runs]
        pids, fork = _counting_fork()
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(measure, "_SPLIT_MIN", 8)
        if host == "no fork":
            monkeypatch.delattr(os, "fork")
        elif host == "no affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert [_outcome(run) for run in runs] == split
        assert pids == []

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_a_failing_half_raises_and_leaves_no_process(self, failing, monkeypatch, tmp_path):
        # the child's half starts at particle mid > 0, the parent's at 0
        drive, parent = measure._drive, os.getpid()

        def broken(ensembles, *args):
            if (ensembles[0]._first > 0) == (failing == "child"):
                raise MemoryError(f"{failing} half")
            return drive(ensembles, *args)

        monkeypatch.setattr(measure, "_drive", broken)
        monkeypatch.setattr(measure, "_SPLIT_MIN", 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = MonteCarloConfig(n_particles=40, generations=20, window=10, seed=3)
        raised = RuntimeError if failing == "child" else MemoryError
        try:
            with pytest.raises(raised):
                stationary_stats(ParameterDistribution(3.2, 0.05), cfg)
            with pytest.raises(raised):
                ensemble_time_mean(ParameterDistribution(3.2, 0.05), cfg)
        finally:
            if os.getpid() != parent:  # a child got back into the caller's code
                (tmp_path / "escaped").touch()
                os._exit(0)
        assert not (tmp_path / "escaped").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestStationaryStats:
    def test_pushforward_identity_small(self):
        dist = ParameterDistribution(3.208, 0.024)
        cfg = MonteCarloConfig(n_particles=500, generations=800, window=400, seed=13)
        stats = stationary_stats(dist, cfg)
        g = stats.right_mean_pp - 3.208 * (stats.left_mean_pp - stats.left_sq_pp)
        se = g.std(ddof=1) / np.sqrt(len(g))
        assert abs(g.mean()) <= 4.0 * se

    def test_window_validation(self):
        dist = ParameterDistribution(3.208, 0.024)
        cfg = MonteCarloConfig(n_particles=10, generations=100, window=50, seed=1)
        with pytest.raises(DomainError, match="need 0 < window <= generations"):
            stationary_stats(dist, replace(cfg, window=200))


def _converged(lambda_bar, h, cfg):
    """The snapshot variance_of_right_peak takes, run on its own."""
    dist = ParameterDistribution(lambda_bar, h)
    return pf_iterate(uniform_ensemble(cfg.n_particles, cfg.seed), dist, cfg.generations)


class TestVarianceOfRightPeak:
    def test_zero_noise_gives_zero_variance(self):
        cfg = MonteCarloConfig(n_particles=1000, generations=2000, window=1000, seed=14)
        v, se = variance_of_right_peak(3.2, _converged(3.2, 0.0, cfg))
        assert 0.0 <= v < 1e-20
        assert se == 0.0

    def test_positive_and_bounded_by_support(self):
        cfg = MonteCarloConfig(n_particles=2000, generations=1500, window=1000, seed=15)
        for h in (0.05, 0.024):
            v, _ = variance_of_right_peak(3.2, _converged(3.2, h, cfg))
            sup = support_intervals(3.2, h)
            assert 0.0 <= v <= (sup.q_hi - sup.q_lo) ** 2

    @pytest.mark.parametrize("lambda_bar, h", [(3.2, 0.05), (3.208, 0.024), (3.2, 0.0125)])
    def test_standard_error_matches_a_plain_bootstrap(self, lambda_bar, h):
        # about 2,700 right-peak particles; 400 resamples leave the
        # bootstrap about 3.5% of noise, so [0.85, 1.15] is over 4 sigma
        cfg = MonteCarloConfig(n_particles=6000, generations=600, window=300, seed=3)
        final = _converged(lambda_bar, h, cfg)
        v, se = variance_of_right_peak(lambda_bar, final)
        right = final.particles[final.particles > fixed_point(lambda_bar)]
        assert v == np.var(right)
        assert 0.85 <= bootstrap_variance_se(right, resamples=400, seed=1) / se <= 1.15

    def test_standard_error_depends_on_the_particles_only(self):
        cfg = MonteCarloConfig(n_particles=500, generations=600, window=300, seed=17)
        final = _converged(3.2, 0.05, cfg)
        other = Ensemble(final.particles.copy(), final.generation, final.base_seed + 1)
        assert variance_of_right_peak(3.2, other) == variance_of_right_peak(3.2, final)

    def test_empty_peak_error(self):
        # all left of the threshold 0.6875, then all right of it
        for particles in ([0.1, 0.2, 0.3], [0.7, 0.8, 0.9]):
            e = Ensemble(np.array(particles), generation=0, base_seed=0)
            with pytest.raises(ConvergenceError, match="not converged to a two-peak distribution"):
                variance_of_right_peak(3.2, e)

    @pytest.mark.parametrize("lambda_bar", [0.9, 1.0])
    def test_threshold_needs_lambda_bar_above_one(self, lambda_bar):
        # (lambda_bar - 1)/lambda_bar is no split point there: a bad argument,
        # refused as stationary_stats refuses it, not an unconverged ensemble
        e = Ensemble(np.array([0.1, 0.5, 0.9]), generation=0, base_seed=0)
        with pytest.raises(DomainError, match="^peak threshold needs lambda_bar > 1$"):
            variance_of_right_peak(lambda_bar, e)
        cfg = MonteCarloConfig(n_particles=2, generations=2, window=1, seed=0)
        with pytest.raises(DomainError, match="^peak threshold needs lambda_bar > 1$"):
            stationary_stats(ParameterDistribution(lambda_bar, 0.0), cfg)


class TestRightDerivativeProfile:
    """Lemma check (iv): the ratio V(h)/h per rung of the variance ladder."""

    def test_shape(self):
        cfg = MonteCarloConfig(n_particles=500, generations=600, window=300, seed=16)
        checks = lemma_suite(3.2, 0.05, cfg).checks
        details = next(c for c in checks if c.name == "right_variance_decay").details
        hs = details["h"]
        assert hs == [0.05, 0.025, 0.0125, 0.00625]
        assert len(details["ratio"]) == len(details["ratio_se"]) == len(hs)
        assert all(r >= 0 and s >= 0 for r, s in zip(details["ratio"], details["ratio_se"]))
        # each rung is V(h)/h and se/h of that rung's converged snapshot
        for h, ratio, ratio_se in zip(hs, details["ratio"], details["ratio_se"]):
            v, se = variance_of_right_peak(3.2, _converged(3.2, h, cfg))
            assert (ratio, ratio_se) == (v / h, se / h)


class TestTimeAverages:
    """Per-particle time averages, pooled over a trailing window by
    ensemble_time_mean."""

    CFG = MonteCarloConfig(n_particles=200, generations=2000, window=1000, seed=1)

    def test_constant_path(self):
        mean, se, _ = ensemble_time_mean(ParameterDistribution(2.0, 0.0), self.CFG)
        assert mean == pytest.approx(0.5, abs=1e-15)
        assert se == pytest.approx(0.0, abs=1e-15)

    def test_two_cycle_average(self):
        mean, _, _ = ensemble_time_mean(ParameterDistribution(3.2, 0.0), self.CFG)
        assert mean == pytest.approx(0.65625, abs=1e-6)

    def test_fixed_point_average(self):
        mean, _, _ = ensemble_time_mean(ParameterDistribution(2.5, 0.0), self.CFG)
        assert mean == pytest.approx(0.6, abs=1e-9)

    def test_length_error(self):
        with pytest.raises(DomainError, match="need 0 < window <= generations"):
            ensemble_time_mean(ParameterDistribution(2.0, 0.0), replace(self.CFG, window=2001))
        with pytest.raises(DomainError, match="need 0 < window <= generations"):
            ensemble_time_mean(ParameterDistribution(2.0, 0.0), replace(self.CFG, window=0))

    def test_batch_se_positive(self):
        _, se, _ = ensemble_time_mean(ParameterDistribution(3.2, 0.1), self.CFG)
        assert se > 0.0


def _pooled_states(dist, n_particles, burn, window, seed):
    """Every particle's states over the window after burn-in, pooled."""
    ens = pf_iterate(uniform_ensemble(n_particles, seed), dist, burn)
    states = []
    for _ in range(window):
        ens = pf_step(ens, dist)
        states.append(ens.particles)
    return np.concatenate(states)


class TestOccupationFraction:
    """Fraction of the states a converged ensemble visits over a window
    that fall in an interval."""

    def test_whole_interval(self):
        x = _pooled_states(ParameterDistribution(3.2, 0.1), 100, 50, 50, seed=5)
        assert np.mean((x >= 0.0) & (x <= 1.0)) == 1.0

    def test_half_time_in_each_peak(self):
        sup = support_intervals(3.208, 0.024)
        x = _pooled_states(ParameterDistribution(3.208, 0.024), 100, 1000, 100, seed=6)
        frac = np.mean((x >= sup.p_lo) & (x <= sup.p_hi))
        assert frac == pytest.approx(0.5, abs=0.01)

    def test_gap_unvisited(self):
        # strictly between the true support components nothing is visited
        x = _pooled_states(ParameterDistribution(3.208, 0.024), 100, 1000, 100, seed=7)
        assert np.mean((x >= 0.55) & (x <= 0.78)) == 0.0


class TestHistogram:
    def test_counts_sum(self):
        e = uniform_ensemble(1234, seed=17)
        h = Histogram.from_samples(e.particles, n_bins=50)
        assert h.total == 1234
        assert len(h.edges) == 51

    def test_density_integrates_to_one(self):
        e = uniform_ensemble(5000, seed=18)
        h = Histogram.from_samples(e.particles, n_bins=200)
        widths = np.diff(h.edges)
        assert float((h.density() * widths).sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 7, 10, 40, 50, 100, 200, 201, 333, 1000])
    def test_bins_are_closed_on_the_left(self, n_bins):
        """A value on an edge, or one ulp either side of it, lands in the
        bin [edges[i], edges[i + 1]) that holds it; 1.0 lands in the last."""
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        v = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        expected = np.zeros(n_bins, dtype=int)
        bounds = edges.tolist()
        for x in v.tolist():
            expected[min(bisect.bisect_right(bounds, x) - 1, n_bins - 1)] += 1
        h = Histogram.from_samples(v, n_bins)
        np.testing.assert_array_equal(h.edges, edges)
        np.testing.assert_array_equal(h.counts, expected)


class TestEnsembleValidation:
    def test_bounds(self):
        with pytest.raises(DomainError, match=r"all particles must lie in \[0, 1\]"):
            Ensemble(np.array([0.5, 1.5]), generation=0, base_seed=0)

    def test_empty(self):
        with pytest.raises(DomainError, match="at least one particle"):
            Ensemble(np.array([]), generation=0, base_seed=0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match=r"all particles must lie in \[0, 1\]"):
            Ensemble(np.array([np.nan, 0.5]), 0, 0)


def _neighbours(x: float, k: int) -> list[float]:
    """x and the k floats on each side of it."""
    out = [x]
    for direction in (0.0, 1.0):
        y = x
        for _ in range(k):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


#: The ends of [0, 1] and the states next to 1/2, where 4x(1-x) peaks and
#: fl(1 - x) starts to round.
_EDGE_STATES = [0.0, 1.0, *_neighbours(0.5, 16)]


class TestStepRange:
    """pf_step returns its snapshot without a range scan; the rounding
    argument in the measure docstring keeps every particle in [0, 1]."""

    @settings(max_examples=80, deadline=None)
    @given(
        law=st.one_of(
            st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 1.0)).map(
                lambda t: (t[0], t[1] * min(t[0], 4.0 - t[0]))
            ),
            # high at or next to 4, from the narrowest window to [0, 4]
            st.floats(0.0, 4.0).map(lambda low: ((4.0 + low) / 2.0, (4.0 - low) / 2.0)),
        ),
        extra=st.lists(st.floats(0.0, 1.0), max_size=40),
        seed=st.integers(0, 2**64 - 1),
        generation=st.integers(0, 10_000),
    )
    def test_step_stays_in_unit_interval(self, law, extra, seed, generation):
        try:
            dist = ParameterDistribution(*law)
        except DomainError:
            assume(False)
        x = np.tile(np.array(_EDGE_STATES + extra), 16)
        out = pf_step(Ensemble(x, generation, seed), dist).particles
        assert np.all((out >= 0.0) & (out <= 1.0))
        # the largest variate rounds the rate up the most
        top = float(np.nextafter(1.0, 0.0))
        with mock.patch.object(measure, "_rate_variates", lambda s, g, first, n: np.full(n, top)):
            out = pf_step(Ensemble(x, generation, seed), dist).particles
        rate = top * (dist.high - dist.low) + dist.low
        assert rate <= 4.0
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestMonteCarloConfig:
    SIZES = {"n_particles": 2000, "generations": 2000, "window": 1000, "seed": 12345}

    def test_no_field_has_a_default(self):
        # the protocol sizes and the seed are written once, in cli
        with pytest.raises(TypeError):
            MonteCarloConfig()
        assert not hasattr(MonteCarloConfig, "paper")
        assert not hasattr(measure, "DEFAULT_SEED")

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the streams refuse such a seed only at the first draw, with
        # OverflowError; the configuration refuses it up front
        with pytest.raises(DomainError, match="seed must be an integer"):
            MonteCarloConfig(**{**self.SIZES, "seed": seed})

    def test_derived_seed_past_the_top_rejected(self):
        assert MonteCarloConfig(**{**self.SIZES, "seed": 0}).seed == 0
        top = MonteCarloConfig(**{**self.SIZES, "seed": 2**64 - 1})
        with pytest.raises(DomainError, match="seed must be an integer"):
            replace(top, seed=top.seed + 1)

    def test_validation(self):
        with pytest.raises(DomainError, match="n_particles must be >= 2"):
            MonteCarloConfig(**{**self.SIZES, "n_particles": 0})
        with pytest.raises(DomainError, match="n_particles must be >= 2"):
            MonteCarloConfig(**{**self.SIZES, "n_particles": 1})  # no standard error from one particle
        with pytest.raises(DomainError, match="need 0 < window <= generations"):
            MonteCarloConfig(**{**self.SIZES, "window": 5000, "generations": 2000})
