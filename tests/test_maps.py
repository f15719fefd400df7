"""Tests for the growth-rate law, the random-stream registry, and the
map as the ensemble kernel pf_step applies it."""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlogistic import measure
from stochlogistic.errors import DomainError
from stochlogistic.experiments import deterministic_bifurcation, lemma_suite
from stochlogistic.maps import INIT_STREAM, ParameterDistribution, stream_rng
from stochlogistic.measure import Ensemble, MonteCarloConfig, pf_iterate, pf_step, uniform_ensemble

from oracles import quartic_two_cycle


def step(lam: float, x: float) -> float:
    """One application of the fixed-rate map, through pf_step."""
    ens = Ensemble(np.array([x]), generation=0, base_seed=0)
    return float(pf_step(ens, ParameterDistribution(lam, 0.0)).particles[0])


def orbit(dist: ParameterDistribution, x0: float, n: int, seed: int = 0) -> np.ndarray:
    """States x0, x1, ..., xn of one particle stepped by pf_step."""
    ens = Ensemble(np.array([x0]), generation=0, base_seed=seed)
    states = [x0]
    for _ in range(n):
        ens = pf_step(ens, dist)
        states.append(ens.particles[0])
    return np.array(states)


class TestParameterDistribution:
    def test_support(self):
        dist = ParameterDistribution(3.2, 0.1)
        assert (dist.low, dist.high) == (3.1, 3.3000000000000003)

    def test_point_mass(self):
        dist = ParameterDistribution(3.2, 0.0)
        assert dist.low == dist.high == 3.2

    @pytest.mark.parametrize(
        "lb,dl",
        [(3.9, 0.2), (0.05, 0.1), (-0.5, 0.0), (4.5, 0.0), (2.0, -0.1),
         (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (3.2, math.nan), (3.2, math.inf), (3.2, -math.inf)],
    )
    def test_invalid_support_rejected(self, lb, dl):
        with pytest.raises(DomainError, match=r"must be >= 0|must lie within \[0, 4\]|must be finite"):
            ParameterDistribution(lb, dl)


class TestLogisticStep:
    """The map x -> lam*x*(1-x) as pf_step applies it."""

    def test_fixed_point(self):
        assert step(2.0, 0.5) == 0.5

    def test_map_maximum(self):
        assert step(4.0, 0.5) == 1.0

    def test_direct_evaluation(self):
        # 2.1 * 0.12 * 0.88
        assert step(2.1, 0.12) == pytest.approx(0.22176, abs=1e-15)

    @pytest.mark.parametrize("lam,x", [(-0.1, 0.5), (4.1, 0.5), (2.0, -0.01), (2.0, 1.01)])
    def test_domain_errors(self, lam, x):
        # rates are checked by the distribution, states by the ensemble
        with pytest.raises(DomainError, match=r"all particles must lie in \[0, 1\]|must lie within \[0, 4\]"):
            step(lam, x)

    def test_unit_interval_invariance(self):
        # rates over all of [0, 4], one per particle
        ens = uniform_ensemble(100_000, seed=0)
        out = pf_step(ens, ParameterDistribution(2.0, 2.0)).particles
        lam = stream_rng(0, 1).uniform(0.0, 4.0, 100_000)
        x = ens.particles
        assert np.array_equal(out, lam * x * (1.0 - x))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_fixed_point_identity_two_ulp(self):
        rng = np.random.default_rng(1)
        lams = rng.uniform(1.0 + 1e-9, 4.0, 5000)
        x_star = (lams - 1.0) / lams
        for lam, x in zip(lams, x_star):
            assert abs(step(lam, x) - x) <= 2.0 * np.spacing(x)


class TestIterateDeterministic:
    """Fixed-rate orbits: pf_step with a point-mass rate law."""

    @staticmethod
    def orbit(lam: float, x0: float, n: int) -> np.ndarray:
        return orbit(ParameterDistribution(lam, 0.0), x0, n)

    def test_fixed_point_orbit(self):
        assert self.orbit(2.0, 0.5, 3).tolist() == [0.5] * 4

    def test_converges_to_fixed_point(self):
        tail = self.orbit(1.5, 0.2, 2000)[-10:]
        assert tail == pytest.approx([1.0 / 3.0] * 10, abs=1e-12)

    def test_two_cycle_tail(self):
        p, q = quartic_two_cycle(3.2)
        tail = self.orbit(3.2, 0.3, 4000)[-2:]
        assert sorted(tail) == pytest.approx([p, q], abs=1e-6)

    def test_length_and_start(self):
        orbit = self.orbit(3.7, 0.3, 17)
        assert len(orbit) == 18
        assert orbit[0] == 0.3

    def test_negative_n(self):
        with pytest.raises(DomainError, match="n must be >= 0"):
            pf_iterate(Ensemble(np.array([0.5]), 0, 0), ParameterDistribution(2.0, 0.0), -1)


class TestSampleParameter:
    """Rate draws as pf_step consumes them."""

    def test_point_mass_exact(self):
        e = uniform_ensemble(20, seed=42)
        out = pf_iterate(e, ParameterDistribution(3.2, 0.0), 20).particles
        x = e.particles
        for _ in range(20):
            x = 3.2 * x * (1.0 - x)
        assert np.array_equal(out, x)

    def test_support_bound(self):
        # rounding is monotone, so a rate inside [low, high] gives a state
        # between the two endpoint images, computed in the same order
        dist = ParameterDistribution(3.2, 0.1)
        x = uniform_ensemble(1000, seed=7).particles
        out = pf_step(Ensemble(x, 0, 7), dist).particles
        assert np.all((out >= dist.low * x * (1.0 - x)) & (out <= dist.high * x * (1.0 - x)))

    def test_law_of_large_numbers(self):
        dist = ParameterDistribution(2.0, 0.5)
        rng = stream_rng(3, 0)
        draws = rng.uniform(dist.low, dist.high, 1_000_000)
        # uniform sd is delta/sqrt(3)
        assert abs(draws.mean() - 2.0) <= 3.0 * 0.5 / np.sqrt(3.0 * 1_000_000)


class TestStochasticStep:
    """One transfer-operator step of pf_step, particle by particle."""

    def test_point_mass(self):
        out = pf_step(Ensemble(np.array([0.5]), 0, 0), ParameterDistribution(2.0, 0.0))
        assert out.particles.tolist() == [0.5]

    def test_zero_is_fixed(self):
        out = pf_step(Ensemble(np.array([0.0, 0.3]), 0, 0), ParameterDistribution(3.2, 0.1))
        assert out.particles[0] == 0.0

    def test_vertex_bound(self):
        dist = ParameterDistribution(3.2, 0.1)
        out = pf_step(uniform_ensemble(500, seed=11), dist)
        assert np.all(out.particles <= dist.high / 4.0)


class TestGeneratePath:
    """Single-particle sample paths X_0, X_1, ..., X_n through pf_step."""

    def test_two_cycle_return(self):
        p, _ = quartic_two_cycle(3.2)
        path = orbit(ParameterDistribution(3.2, 0.0), p, 2, seed=5)
        assert abs(path[2] - p) < 1e-12

    def test_absorbing_zero(self):
        path = orbit(ParameterDistribution(3.2, 0.1), 0.0, 50, seed=5)
        assert np.all(path == 0.0)

    def test_same_seed_identical(self):
        dist = ParameterDistribution(3.2, 0.1)
        a = orbit(dist, 0.3, 200, seed=99)
        b = orbit(dist, 0.3, 200, seed=99)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        dist = ParameterDistribution(3.2, 0.1)
        a = orbit(dist, 0.3, 200, seed=99)
        b = orbit(dist, 0.3, 200, seed=100)
        assert not np.array_equal(a, b)

    def test_recurrence_exact_and_support(self):
        # the step leaving generation g consumes the first variate of
        # stream g+1
        dist = ParameterDistribution(3.2, 0.1)
        x = orbit(dist, 0.3, 500, seed=1)
        lam = np.array([stream_rng(1, g + 1).uniform(dist.low, dist.high) for g in range(500)])
        assert np.array_equal(x[1:], lam * x[:-1] * (1.0 - x[:-1]))
        assert np.all((lam >= dist.low) & (lam <= dist.high))
        assert np.all((x >= 0.0) & (x <= 1.0))

    def test_first_iterate_depends_only_on_first_rate(self):
        # particle 0's step is a function of (seed, generation, its state)
        # alone, whatever the other particles are
        dist = ParameterDistribution(2.25, 0.25)
        for seed in range(10):
            alone = pf_step(Ensemble(np.array([0.12]), 0, seed), dist).particles[0]
            crowd = pf_step(Ensemble(np.array([0.12, 0.5, 0.9]), 0, seed), dist).particles[0]
            lam = stream_rng(seed, 1).uniform(dist.low, dist.high)
            assert alone == crowd == lam * 0.12 * (1.0 - 0.12)

    def test_path_metadata(self):
        start = Ensemble(np.full(11, 0.25), generation=0, base_seed=3)
        out = pf_iterate(start, ParameterDistribution(2.0, 0.0), 10)
        assert out.generation == 10 and out.n == 11 and out.base_seed == 3


class TestStreamRegistry:
    """Every (seed, stream) key has one role: initial conditions or the
    rates of one generation."""

    def test_lemma_suite_keys_are_disjoint_roles(self, monkeypatch):
        keys = []

        def recording(seed, stream):
            keys.append((seed, stream))
            return stream_rng(seed, stream)

        monkeypatch.setattr(measure, "stream_rng", recording)
        measure._rate_variates.cache_clear()
        cfg = MonteCarloConfig(n_particles=200, generations=60, window=30, seed=5)
        lemma_suite(3.2, 0.05, replace(cfg, seed=8))
        init = {(8, INIT_STREAM)}
        rates = {(8, g) for g in range(1, cfg.generations + 1)}
        assert not init & rates
        assert set(keys) == init | rates


class TestStreamGenerator:
    """stream_rng re-keys one lazily built Philox generator."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 2**64 - 1),
        other=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
        odd=st.integers(0, 20).map(lambda k: 2 * k + 1),
        n=st.integers(0, 300),
        m=st.integers(1, 2**40),
        k=st.integers(0, 300),
    )
    def test_rekeyed_draws_equal_fresh_generator(self, seed, stream, other, odd, n, m, k):
        # an odd count of small integers leaves half a 32-bit word buffered
        stream_rng(*other).integers(0, 3, size=odd)
        rng = stream_rng(seed, stream)
        fresh = np.random.Generator(np.random.Philox(key=seed | stream << 64))
        assert rng.random(n).tobytes() == fresh.random(n).tobytes()
        assert rng.integers(0, m, size=k).tobytes() == fresh.integers(0, m, size=k).tobytes()

    def test_each_call_rekeys_the_same_generator(self):
        # a generator that stream_rng returned is valid until its next call:
        # the next call re-keys it, so an earlier handle draws the new stream
        first = stream_rng(5, 1)
        second = stream_rng(5, 2)
        assert first is second
        fresh = np.random.Generator(np.random.Philox(key=5 | 2 << 64))
        assert first.random(8).tobytes() == fresh.random(8).tobytes()

    @pytest.mark.parametrize(
        "seed, stream",
        [(-1, 0), (2**64, 0), (np.int64(-1), 0), (0, 2**64)],
        ids=["seed-minus-1", "seed-2-64", "seed-int64-minus-1", "stream-2-64"],
    )
    def test_key_outside_64_bits_refused(self, seed, stream):
        # a key word outside [0, 2**64) would alias another seed's draws:
        # -1 those of 2**64 - 1, and 2**64 + 7 those of 7
        with pytest.raises(OverflowError):
            stream_rng(seed, stream)

    def test_library_callers_no_longer_alias_seeds(self):
        # these equalled seeds 2**64 - 1 and 7 while the key was masked
        with pytest.raises(OverflowError):
            uniform_ensemble(5, -1)
        with pytest.raises(OverflowError):
            deterministic_bifurcation(3.0, 3.2, 0.1, 4, 10, 2**64 + 7)

    def test_import_does_not_load_numpy_random(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import stochlogistic.cli; "
            "print('numpy.random' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.strip() == "False"
