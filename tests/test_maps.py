"""Tests for the core map evaluation and path generation."""

from __future__ import annotations

import numpy as np
import pytest

from stochlogistic import (
    Ensemble,
    ParameterDistribution,
    generate_path,
    pf_step,
    stream_rng,
    uniform_ensemble,
)
from stochlogistic.errors import DomainError

from oracles import quartic_two_cycle


def step(lam: float, x: float) -> float:
    """One application of the fixed-rate map, through generate_path."""
    return generate_path(ParameterDistribution(lam, 0.0), x, 1, seed=0).states[1]


class TestParameterDistribution:
    def test_support(self):
        dist = ParameterDistribution(3.2, 0.1)
        assert dist.support == (3.1, 3.3000000000000003)

    def test_point_mass(self):
        dist = ParameterDistribution(3.2, 0.0)
        assert dist.low == dist.high == 3.2

    @pytest.mark.parametrize(
        "lb,dl",
        [(3.9, 0.2), (0.05, 0.1), (-0.5, 0.0), (4.5, 0.0), (2.0, -0.1)],
    )
    def test_invalid_support_rejected(self, lb, dl):
        with pytest.raises(DomainError):
            ParameterDistribution(lb, dl)


class TestLogisticStep:
    """The map x -> lam*x*(1-x) as generate_path and pf_step apply it."""

    def test_fixed_point(self):
        assert step(2.0, 0.5) == 0.5

    def test_map_maximum(self):
        assert step(4.0, 0.5) == 1.0

    def test_direct_evaluation(self):
        # 2.1 * 0.12 * 0.88
        assert step(2.1, 0.12) == pytest.approx(0.22176, abs=1e-15)

    @pytest.mark.parametrize("lam,x", [(-0.1, 0.5), (4.1, 0.5), (2.0, -0.01), (2.0, 1.01)])
    def test_domain_errors(self, lam, x):
        # rates are checked by the distribution, states on entry to a path
        with pytest.raises(DomainError):
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
    """Fixed-rate orbits: generate_path with a point-mass rate law."""

    @staticmethod
    def orbit(lam: float, x0: float, n: int) -> np.ndarray:
        return generate_path(ParameterDistribution(lam, 0.0), x0, n, seed=0).states

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
        with pytest.raises(DomainError):
            self.orbit(2.0, 0.5, -1)


class TestSampleParameter:
    """Rate draws as generate_path consumes them."""

    def test_point_mass_exact(self):
        path = generate_path(ParameterDistribution(3.2, 0.0), 0.3, 20, seed=42)
        assert np.all(path.lambdas == 3.2)

    def test_support_bound(self):
        path = generate_path(ParameterDistribution(3.2, 0.1), 0.3, 1000, seed=7)
        assert np.all((path.lambdas >= 3.1) & (path.lambdas <= 3.3000000000000003))

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
    def test_two_cycle_return(self):
        p, _ = quartic_two_cycle(3.2)
        path = generate_path(ParameterDistribution(3.2, 0.0), p, 2, seed=5)
        assert abs(path.states[2] - p) < 1e-12

    def test_absorbing_zero(self):
        path = generate_path(ParameterDistribution(3.2, 0.1), 0.0, 50, seed=5)
        assert np.all(path.states == 0.0)

    def test_same_seed_identical(self):
        dist = ParameterDistribution(3.2, 0.1)
        a = generate_path(dist, 0.3, 200, seed=99)
        b = generate_path(dist, 0.3, 200, seed=99)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.lambdas, b.lambdas)

    def test_different_seed_differs(self):
        dist = ParameterDistribution(3.2, 0.1)
        a = generate_path(dist, 0.3, 200, seed=99)
        b = generate_path(dist, 0.3, 200, seed=100)
        assert not np.array_equal(a.lambdas, b.lambdas)

    def test_recurrence_exact_and_support(self):
        dist = ParameterDistribution(3.2, 0.1)
        path = generate_path(dist, 0.3, 500, seed=1)
        x = path.states
        lam = path.lambdas
        assert np.array_equal(x[1:], lam * x[:-1] * (1.0 - x[:-1]))
        assert np.all((lam >= dist.low) & (lam <= dist.high))
        assert np.all((x >= 0.0) & (x <= 1.0))

    def test_first_iterate_depends_only_on_first_rate(self):
        # the projected step is a function of (lambda_1, x0) alone
        dist = ParameterDistribution(2.25, 0.25)
        for seed in range(10):
            path = generate_path(dist, 0.12, 3, seed=seed)
            assert path.states[1] == path.lambdas[0] * 0.12 * (1.0 - 0.12)

    def test_path_metadata(self):
        path = generate_path(ParameterDistribution(2.0, 0.0), 0.25, 10, seed=3)
        assert path.n == 10 and len(path) == 11 and path.x0 == 0.25
