"""Tests for the orchestrated experiments and reports."""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochlogistic.analytic import (
    classify_regime, detect_period, fixed_point, periodic_orbit, support_intervals,
)
from stochlogistic.experiments import (
    deterministic_bifurcation,
    distribution_evolution,
    flipflop_scan,
    lemma_suite,
    mean_comparison,
    stochastic_bifurcation,
)
from stochlogistic.maps import ParameterDistribution
from stochlogistic.errors import (
    ConvergenceError,
    DomainError,
    RootCountError,
)

from stochlogistic import analytic, cli, experiments, measure
from stochlogistic.maps import INIT_STREAM, stream_rng
from stochlogistic.cli import _SUBCOMMANDS, OPTIONS
from stochlogistic.measure import MonteCarloConfig, pf_iterate, uniform_ensemble, variance_of_right_peak

from oracles import band_geometry, cascade_scan_period, quartic_two_cycle, small_noise_gap, two_cycle_mean

FAST = MonteCarloConfig(n_particles=500, generations=600, window=300, seed=21)


class TestDeterministicBifurcation:
    def test_fixed_point_column(self):
        data = deterministic_bifurcation(2.5, 2.5, step=1.0, n_init=20, n_iter=1000, seed=1)
        assert data.terminal_states.shape == (1, 20)
        assert np.allclose(data.terminal_states, 0.6, atol=1e-6)

    def test_two_cycle_column(self):
        p, q = quartic_two_cycle(3.2)
        data = deterministic_bifurcation(3.2, 3.2, step=1.0, n_init=50, n_iter=1000, seed=2)
        near_p = np.abs(data.terminal_states - p) < 1e-5
        near_q = np.abs(data.terminal_states - q) < 1e-5
        assert np.all(near_p | near_q)
        assert near_p.any() and near_q.any()

    def test_protocol_defaults(self):
        # the sweep protocol's defaults live in the CLI's option table alone
        assert OPTIONS["step"][2] == 0.001
        assert OPTIONS["n_init"][2] == 100
        assert OPTIONS["n_iter"][2] == 1000
        assert OPTIONS["delta"][2] == 0.0
        assert OPTIONS["seed"][2] == 12345
        assert OPTIONS["checkpoints"][2] == (0, 1, 10, 50, 100, 10_000)
        assert OPTIONS["bins"][2] == 200
        assert _SUBCOMMANDS["evolve"][3]["particles"] == 1000
        for fn in (deterministic_bifurcation, stochastic_bifurcation, distribution_evolution):
            params = inspect.signature(fn).parameters.values()
            assert all(p.default is inspect.Parameter.empty for p in params), fn.__name__

    def test_grid_shape(self):
        data = deterministic_bifurcation(1.0, 2.0, step=0.25, n_init=3, n_iter=10, seed=3)
        assert np.allclose(data.parameters, [1.0, 1.25, 1.5, 1.75, 2.0])
        assert data.terminal_states.shape == (5, 3)

    def test_domain_errors(self):
        sizes = {"n_init": 2, "n_iter": 3, "seed": 1}
        with pytest.raises(DomainError, match=r"must lie within \[0, 4\]"):
            deterministic_bifurcation(3.0, 4.5, step=0.5, **sizes)
        with pytest.raises(DomainError, match="need lam_lo <= lam_hi"):
            deterministic_bifurcation(2.0, 1.0, step=0.1, **sizes)
        with pytest.raises(DomainError, match="step must be > 0"):
            deterministic_bifurcation(1.0, 2.0, step=-0.1, **sizes)

    @settings(max_examples=40, deadline=None)
    @example(lo=3.5, width=0.5, n_init=3, n_iter=0, seed=7)
    @given(
        lo=st.floats(0.0, 4.0),
        width=st.floats(0.0, 1.0),
        n_init=st.integers(1, 7),
        n_iter=st.integers(0, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_in_place_step_equals_allocating_loop(self, lo, width, n_init, n_iter, seed):
        hi = min(lo + width, 4.0)
        data = deterministic_bifurcation(lo, hi, step=0.25, n_init=n_init, n_iter=n_iter, seed=seed)
        x = uniform_ensemble(data.terminal_states.size, seed).particles.reshape(data.terminal_states.shape)
        lam = data.parameters[:, None]
        for _ in range(n_iter):
            x = lam * x * (1.0 - x)
        assert data.terminal_states.tobytes() == x.tobytes()


def _band_hull(lam: float, delta: float) -> tuple[float, float]:
    """Rigorous invariant hull of the fixed-point-regime band: the fixed
    point of the interval-image map started from the nominal band.

    The nominal band (x*(a), x*(b)) itself is only forward invariant on
    the increasing branch (b <= 2); with the fixed point on the
    decreasing branch, oscillation overshoots both edges, and near the
    vertex states reach up to b/4.
    """
    a, b = lam - delta, lam + delta
    lo, hi = fixed_point(a), fixed_point(b)
    for _ in range(200):
        images = [
            a * lo * (1 - lo), a * hi * (1 - hi),
            b * lo * (1 - lo), b * hi * (1 - hi),
        ]
        if lo <= 0.5 <= hi:
            images.append(b / 4.0)
        new_lo, new_hi = min(lo, *images), max(hi, *images)
        if (new_lo, new_hi) == (lo, hi):
            break
        lo, hi = new_lo, new_hi
    return lo, hi


class TestStochasticBifurcation:
    def test_band_containment(self):
        center, width = band_geometry(2.0, 0.1)
        data = stochastic_bifurcation(
            2.0, 2.0, step=1.0, delta_lambda=0.1, n_init=200, n_iter=1000, seed=4
        )
        x = data.terminal_states
        lo, hi = _band_hull(2.0, 0.1)
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)
        # the strip concentrates on the nominal band: right center, and
        # spread no wider than the band width
        assert abs(x.mean() - center) <= width / 2
        assert x.std() <= width

    def test_extinction_column(self):
        data = stochastic_bifurcation(
            0.5, 0.5, step=1.0, delta_lambda=0.1, n_init=50, n_iter=1000, seed=5
        )
        assert np.all(data.terminal_states <= 1e-100)

    def test_zero_noise_reduces_to_deterministic(self):
        det = deterministic_bifurcation(2.4, 2.6, step=0.1, n_init=7, n_iter=50, seed=6)
        sto = stochastic_bifurcation(
            2.4, 2.6, step=0.1, delta_lambda=0.0, n_init=7, n_iter=50, seed=6
        )
        assert np.array_equal(det.terminal_states, sto.terminal_states)

    def test_band_property_across_grid(self):
        data = stochastic_bifurcation(
            1.3, 2.7, step=0.2, delta_lambda=0.1, n_init=100, n_iter=1000, seed=7
        )
        for lam, row in zip(data.parameters, data.terminal_states):
            lo, hi = _band_hull(float(lam), 0.1)
            assert np.all(row >= lo - 1e-12) and np.all(row <= hi + 1e-12)
            center, width = band_geometry(float(lam), 0.1)
            assert abs(row.mean() - center) <= width / 2
            assert row.std() <= width
            # exact trapping in the nominal band on the increasing branch
            if float(lam) + 0.1 <= 2.0:
                assert np.all(row >= center - width / 2 - 1e-12)
                assert np.all(row <= center + width / 2 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @example(lo=3.5, width=0.5, step=0.25, delta=0.0, n_init=3, n_iter=7, seed=7)
    @example(lo=2.0, width=1.0, step=0.5, delta=0.1, n_init=2, n_iter=0, seed=2**64 - 1)
    @given(
        lo=st.floats(0.0, 4.0),
        width=st.floats(0.0, 1.0),
        step=st.floats(0.05, 1.0),
        delta=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
        n_init=st.integers(1, 7),
        n_iter=st.integers(0, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_sweep_equals_allocating_reference(self, lo, width, step, delta, n_init, n_iter, seed):
        hi = min(lo + width, 4.0)
        # keep the rate window inside [0, 4]: shrink delta to what the grid allows
        delta = min(delta, lo, 4.0 - hi)
        data = stochastic_bifurcation(
            lo, hi, step=step, delta_lambda=delta, n_init=n_init, n_iter=n_iter, seed=seed
        )
        grid = data.parameters[:, None]
        shape = data.terminal_states.shape
        # the rows are one ensemble: its initial states, and each step's rates drawn by Generator.uniform
        x = uniform_ensemble(data.terminal_states.size, seed).particles.reshape(shape)
        for g in range(n_iter):
            lam = stream_rng(seed, g + 1).uniform(grid - delta, grid + delta, shape)
            x = lam * x * (1.0 - x)
        assert data.terminal_states.tobytes() == x.tobytes()

    @settings(max_examples=60, deadline=None)
    @example(rate=3.2, delta=0.05, n_init=5, n_iter=30, seed=12345)
    @example(rate=4.0, delta=0.0, n_init=3, n_iter=5, seed=2**64 - 1)
    @given(
        rate=st.floats(0.0, 4.0),
        delta=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        n_init=st.integers(1, 9),
        n_iter=st.integers(0, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_one_rate_sweep_is_pf_iterate(self, rate, delta, n_init, n_iter, seed):
        # the sweep and the ensemble step share one rate law and one start
        delta = min(delta, rate, 4.0 - rate)
        data = stochastic_bifurcation(
            rate, rate, step=1.0, delta_lambda=delta, n_init=n_init, n_iter=n_iter, seed=seed
        )
        ens = pf_iterate(uniform_ensemble(n_init, seed), ParameterDistribution(rate, delta), n_iter)
        assert data.terminal_states.tobytes() == ens.particles.tobytes()

    def test_zero_noise_draws_only_initial_states(self, monkeypatch):
        keys = []

        def recording(seed, stream):
            keys.append((seed, stream))
            return stream_rng(seed, stream)

        # the initial states come through uniform_ensemble, the rates from experiments' own import
        monkeypatch.setattr(experiments, "stream_rng", recording)
        monkeypatch.setattr(measure, "stream_rng", recording)
        stochastic_bifurcation(2.8, 3.6, step=0.1, delta_lambda=0.0, n_init=5, n_iter=30, seed=9)
        assert keys == [(9, INIT_STREAM)]
        keys.clear()
        stochastic_bifurcation(2.8, 3.6, step=0.1, delta_lambda=0.01, n_init=5, n_iter=30, seed=9)
        assert keys == [(9, INIT_STREAM), *((9, g) for g in range(1, 31))]

    def test_window_domain_error(self):
        with pytest.raises(DomainError, match=r"must lie within \[0, 4\]"):
            stochastic_bifurcation(0.05, 3.0, step=0.5, delta_lambda=0.1, n_init=2, n_iter=3, seed=1)


class TestDistributionEvolution:
    def test_checkpoints_and_flat_start(self):
        dist = ParameterDistribution(1.508, 0.024)
        hists = distribution_evolution(
            dist, n_particles=4000, checkpoints=(0, 1, 10, 50), seed=8, n_bins=40
        )
        # one histogram per checkpoint, in checkpoint order
        assert len(hists) == 4 and all(h.total == 4000 for h in hists)
        at10 = measure.Histogram.from_samples(pf_iterate(uniform_ensemble(4000, 8), dist, 10).particles, 40)
        assert hists[2].counts.tobytes() == at10.counts.tobytes()
        first = hists[0]
        # uniform start: all 40 bins near 100 counts (multinomial noise)
        assert first.counts.min() > 50 and first.counts.max() < 170

    def test_period1_final_localized(self):
        dist = ParameterDistribution(1.508, 0.024)
        final = distribution_evolution(
            dist, n_particles=2000, checkpoints=(0, 500), seed=9, n_bins=200
        )[-1]
        lo, hi = fixed_point(1.484), fixed_point(1.532)
        width = final.edges[1] - final.edges[0]
        centers = 0.5 * (final.edges[:-1] + final.edges[1:])
        mass_inside = final.counts[(centers >= lo - width) & (centers <= hi + width)].sum()
        assert mass_inside == final.total

    def test_period2_final_bimodal(self):
        dist = ParameterDistribution(3.208, 0.024)
        final = distribution_evolution(
            dist, n_particles=2000, checkpoints=(0, 500), seed=10, n_bins=200
        )[-1]
        sup = support_intervals(3.208, 0.024)
        width = final.edges[1] - final.edges[0]
        centers = 0.5 * (final.edges[:-1] + final.edges[1:])
        in_p = (centers >= sup.p_lo - width) & (centers <= sup.p_hi + width)
        in_q = (centers >= sup.q_lo - width) & (centers <= sup.q_hi + width)
        assert final.counts[in_p].sum() > 0.4 * final.total
        assert final.counts[in_q].sum() > 0.4 * final.total
        assert final.counts[in_p | in_q].sum() >= 0.995 * final.total

    def test_checkpoint_validation(self):
        dist = ParameterDistribution(2.0, 0.0)
        sizes = {"n_particles": 10, "seed": 1, "n_bins": 5}
        with pytest.raises(DomainError, match="strictly ascending"):
            distribution_evolution(dist, checkpoints=(5, 5), **sizes)
        with pytest.raises(DomainError, match="strictly ascending"):
            distribution_evolution(dist, checkpoints=(10, 2), **sizes)
        with pytest.raises(DomainError, match="strictly ascending"):
            distribution_evolution(dist, checkpoints=(), **sizes)


class TestMeanComparison:
    def test_period1_verdict(self):
        rep, _ = mean_comparison(1.508, 0.024, FAST)
        assert rep.verdict == "stochastic_less"
        assert rep.regime == "period1"
        assert rep.deterministic_mean == pytest.approx(fixed_point(1.508), abs=1e-12)

    def test_period2_verdict(self):
        rep, _ = mean_comparison(3.208, 0.024, FAST)
        assert rep.verdict == "stochastic_greater"
        assert rep.period == 2

    def test_deterministic_mean_consistency(self):
        rep, _ = mean_comparison(3.2, 0.02, FAST)
        expected = two_cycle_mean(3.2)
        assert abs(rep.deterministic_mean - expected) <= 2 * np.spacing(expected)

    def test_verdict_iff_three_sigma(self):
        reports = [
            mean_comparison(1.508, 0.024, FAST)[0],
            mean_comparison(3.208, 0.024, FAST)[0],
            mean_comparison(3.2, 0.0, FAST)[0],
        ]
        for rep in reports:
            assert (rep.verdict == "inconclusive") == (abs(rep.z_score) < 3.0)

    def test_zero_noise_inconclusive(self):
        rep, _ = mean_comparison(3.2, 0.0, FAST)
        assert rep.verdict == "inconclusive"
        assert rep.z_score == 0.0

    def test_straddle_error(self):
        with pytest.raises(DomainError, match="touches the bifurcation boundary at 3$"):
            mean_comparison(2.95, 0.1, FAST)

    def test_chaotic_center_fails(self):
        with pytest.raises(ConvergenceError, match="no attracting cycle"):
            mean_comparison(3.9, 0.005, FAST)

    @pytest.mark.parametrize(
        "lambda_bar, delta, regime, length",
        [(2.999, 0.0005, "period1", 1), (3.449, 0.0004, "period2", 2)],
    )
    def test_slow_cycle_next_to_a_doubling_has_the_regime_length(self, lambda_bar, delta, regime, length):
        # just below a doubling the tolerance test passes at twice the
        # cycle length first; the report must still name the regime's length
        assert classify_regime(lambda_bar - delta, lambda_bar + delta).value == regime
        assert len(periodic_orbit(lambda_bar)) == length
        rep, _ = mean_comparison(lambda_bar, delta, FAST)
        assert (rep.regime, rep.period) == (regime, length)

    @pytest.mark.parametrize("orbit", [[0.5, 0.8], [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9]])
    def test_period4_cycle_length_must_match_the_regime(self, orbit, monkeypatch):
        # a detected cycle of another length than 4 in a period-4 window is
        # refused before any ensemble runs, so no report names one period
        # and the other; through period two the cycle is a closed form
        monkeypatch.setattr(experiments, "periodic_orbit", lambda lam: orbit)
        monkeypatch.setattr(experiments, "ensemble_time_mean", None)
        assert classify_regime(3.5 - 0.01, 3.5 + 0.01).value == "period4"
        with pytest.raises(DomainError, match=rf"^period4 window, .* length {len(orbit)}$"):
            mean_comparison(3.5, 0.01, FAST)

    def test_reproducible(self):
        a, _ = mean_comparison(3.208, 0.024, FAST)
        b, _ = mean_comparison(3.208, 0.024, FAST)
        assert a == b
        c, _ = mean_comparison(3.208, 0.024, replace(FAST, seed=99))
        assert c.stochastic_mean != a.stochastic_mean

    def test_extinction_window(self):
        rep, _ = mean_comparison(0.5, 0.1, FAST)
        assert rep.deterministic_mean == 0.0
        assert rep.stochastic_mean == pytest.approx(0.0, abs=1e-30)
        assert rep.verdict == "inconclusive"

    def test_json_round_trip(self):
        rep, _ = mean_comparison(3.208, 0.024, FAST)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["verdict"] == "stochastic_greater"
        assert payload["lambda_bar"] == 3.208


class TestSmallNoiseOracle:
    """The mean gap against its noise-free O(delta**2) moment closure."""

    @pytest.mark.parametrize(
        "lambda_bar, delta, within",
        [(2.8, 0.1, 0.1), (3.2, 0.05, 0.1), (3.208, 0.024, 0.1), (3.508, 0.024, None)],
    )
    def test_difference_follows_the_oracle(self, lambda_bar, delta, within):
        cfg = MonteCarloConfig(n_particles=2000, generations=1000, window=500, seed=7)
        rep, _ = mean_comparison(lambda_bar, delta, cfg)
        gap = small_noise_gap(lambda_bar, delta)
        assert np.sign(rep.difference) == np.sign(gap) != 0
        assert abs(rep.z_score) >= 3.0
        # the period-4 window is checked by sign only: its O(delta**4) remainder is larger
        if within is not None:
            assert rep.difference == pytest.approx(gap, rel=within)

    @settings(max_examples=20, deadline=None)
    @given(
        st.one_of(st.floats(1.5, 2.85), st.floats(3.10, 3.40)),
        st.floats(0.005, 0.03),
        st.integers(0, 2**64 - 1),
    )
    def test_sign_follows_the_oracle_in_periods_1_and_2(self, lambda_bar, delta, seed):
        """Wherever the closure predicts a gap of at least 5 standard
        errors, the measured gap has its sign.  The rates keep away from
        the regime boundaries, where the cycle multiplier nears -1 and the
        closure needs smaller half-widths than these."""
        rep, _ = mean_comparison(lambda_bar, delta, MonteCarloConfig(2000, 1000, 500, seed))
        gap = small_noise_gap(lambda_bar, delta)
        if abs(gap) >= 5 * rep.stochastic_se:
            assert np.sign(rep.difference) == np.sign(gap)

    @pytest.mark.parametrize("delta", [3.75e-4, 1.875e-4])
    def test_period16_window_meets_the_oracle_at_small_delta(self, delta):
        # at the rho = 4 flipflop half-width 1.5e-3 the O(delta**2) closure
        # does not hold yet; from 3.75e-4 down the Monte-Carlo gap is
        # within 15% of it
        lambda_bar = experiments._RHO_CENTERS[4]
        rep, _ = mean_comparison(lambda_bar, delta, MonteCarloConfig(20_000, 2_000, 1_024, 12345))
        assert rep.period == 16
        assert rep.difference == pytest.approx(small_noise_gap(lambda_bar, delta), rel=0.15)

    @pytest.mark.parametrize(
        "lambda_bar, delta, iterated",
        [(2.8, 0.1, -0.0007592322643343072), (3.2, 0.05, 0.0002871984722970536),
         (3.208, 0.024, 6.576785137513949e-05), (3.508, 0.024, -0.00033301702103189965)],
    )
    def test_closed_form_equals_the_iterated_recurrences(self, lambda_bar, delta, iterated):
        # the gaps once found by iterating the moment recurrences until they
        # moved by under 1e-14 relative, which the closed form must reproduce
        assert small_noise_gap(lambda_bar, delta) == pytest.approx(iterated, rel=1e-13)

    @pytest.mark.parametrize("lambda_bar, gap", [(3.447, 5.139024165362914e-06), (3.543, -1.2084086412077683e-05)])
    def test_closure_holds_next_to_a_doubling_point(self, lambda_bar, gap):
        # within 3e-3 of the doublings at 1 + sqrt(6) and 3.54409 the cycle
        # multiplier is close to -1, and iterating the recurrences never
        # met their tolerance; the sign is the paper's, + in period 2, - in 4
        assert small_noise_gap(lambda_bar, 1e-3) == pytest.approx(gap, rel=1e-9)


class TestZScoreRule:
    """compare, flipflop and lemma check (ii) score a difference by one rule."""

    def test_zero_se_is_conclusive_in_both(self, monkeypatch):
        monkeypatch.setattr(experiments, "ensemble_time_mean", lambda *a, **k: (0.9, 0.0, None))
        rep, _ = mean_comparison(3.208, 0.024, FAST)
        row = flipflop_scan((1,), 0.024, FAST).rows[0]
        assert rep.z_score == row.z_score == math.inf
        assert rep.verdict == row.verdict == "stochastic_greater"

    def test_float_noise_difference_scores_zero_in_both(self, monkeypatch):
        det = float(np.mean(periodic_orbit(3.208)))
        monkeypatch.setattr(experiments, "ensemble_time_mean", lambda *a, **k: (det + 1e-13, 1e-14, None))
        rep, _ = mean_comparison(3.208, 0.024, FAST)
        row = flipflop_scan((1,), 0.024, FAST).rows[0]
        assert rep.z_score == row.z_score == 0.0
        assert rep.verdict == row.verdict == "inconclusive"

    def test_float_noise_identity_statistic_passes_check_ii(self, monkeypatch):
        # a pushforward statistic below float-noise scale with a still smaller
        # positive standard error: scored 0 like the differences above
        real = experiments.stationary_stats

        def planted(*args, **kwargs):
            stats = real(*args, **kwargs)
            noise = 1e-13 + 1e-16 * np.resize([-1.0, 1.0, 0.5], len(stats.right_mean_pp))
            return replace(stats, left_sq_pp=stats.left_mean_pp, right_mean_pp=noise)

        monkeypatch.setattr(experiments, "stationary_stats", planted)
        check = next(c for c in lemma_suite(3.208, 0.024, FAST).checks if c.name == "pushforward_identity")
        g, se = check.details["statistic"], check.details["se"]
        assert abs(g) < 1e-12 and 0.0 < se < abs(g) / 4
        assert check.passed is True


class TestLemmaSuite:
    def test_reference_window(self):
        cfg = MonteCarloConfig(n_particles=1000, generations=1500, window=750, seed=22)
        report = lemma_suite(3.208, 0.024, cfg)
        by_name = {c.name: c for c in report.checks}
        assert len(report.checks) == 6
        assert report.passed and all(c.passed for c in report.checks)
        # every particle lies in the invariant pair, with x*(a), x*(b) between
        cont = by_name["support_containment_and_ordering"]
        assert cont.details["ordering_ok"] is True
        assert cont.details["containment_fraction"] == 1.0

    def test_degenerate_window_passes_everything(self):
        cfg = MonteCarloConfig(n_particles=500, generations=1000, window=500, seed=23)
        report = lemma_suite(3.2, 0.0, cfg)
        assert report.passed
        assert all(c.passed for c in report.checks)

    def test_regime_error(self):
        with pytest.raises(DomainError, match="touches the bifurcation boundary at 3.44949$"):
            lemma_suite(3.3, 0.2, FAST)
        # inside the two-cycle regime, but the support is one band
        with pytest.raises(DomainError, match="merge into one band"):
            lemma_suite(3.2, 0.1, FAST)

    @pytest.mark.parametrize("lambda_bar", [3.02, 3.05, 3.2, 3.44])
    def test_variance_ladder_halves_until_the_pair_is_disjoint(self, lambda_bar):
        ladder = experiments._variance_ladder(lambda_bar)
        hs = [h for h, _ in ladder]
        assert hs == [hs[0] / 2**k for k in range(4)] and hs[0] <= 0.05
        for h, pair in ladder:
            assert pair == support_intervals(lambda_bar, h)
        if hs[0] < 0.05:
            with pytest.raises(DomainError, match="merge into one band|touches the bifurcation boundary"):
                support_intervals(lambda_bar, 2 * hs[0])

    @pytest.mark.parametrize(
        "lambda_bar, quarterings",
        [(3.000001, 12), (3.0001, 7), (3.001, 5), (3.003, 4), (3.005, 3), (3.01, 2), (3.2, 0)],
    )
    def test_root_ordering_holds_next_to_the_first_doubling(self, lambda_bar, quarterings):
        # epsilon is quartered until the four roots are real; a fixed four
        # tries stopped at 1.5625e-5 and failed the check for lam <~ 3.004
        check = experiments._root_chain_check(lambda_bar)
        assert check.passed is True
        assert check.details["epsilon"] == 1e-3 / 4**quarterings
        d = check.details
        z_h, p_h, xs_h, q_h = d["roots"]
        assert z_h < 0.0 < d["p"] < p_h < xs_h < d["x_star"] < d["q"] < q_h

    def test_root_ordering_fails_when_no_shift_gives_four_roots(self, monkeypatch):
        tried = []

        def never_four(lambda_bar, epsilon):
            tried.append(epsilon)
            raise RootCountError("two real zeros")

        monkeypatch.setattr(analytic, "h_function_roots", never_four)
        check = experiments._root_chain_check(3.2)
        assert (check.passed, check.details) == (False, {"error": "no four roots"})
        assert tried == [1e-3 / 4**k for k in range(20)] and 1e-15 < tried[-1] < 4e-15

    def test_json_serializable(self):
        cfg = MonteCarloConfig(n_particles=300, generations=600, window=300, seed=24)
        report = lemma_suite(3.2, 0.01, cfg)
        payload = json.loads(json.dumps(report.to_dict(), default=cli._json_default))
        assert payload["passed"] is report.passed is all(c.passed for c in report.checks)
        assert [c["name"] for c in payload["checks"]] == [c.name for c in report.checks]

    def test_seed_override_reaches_variance_ladder(self):
        # a seed set with replace() reaches the four ladder ensembles that
        # advance in lockstep with the stationary run: the ratios equal
        # those of rungs run on their own at that seed
        base = MonteCarloConfig(n_particles=300, generations=400, window=200, seed=1)

        def ratios(cfg):
            checks = lemma_suite(3.2, 0.05, cfg).checks
            return next(c for c in checks if c.name == "right_variance_decay").details["ratio"]

        cfg = replace(base, seed=2)
        alone = []
        for h, _ in experiments._variance_ladder(3.2):
            final = pf_iterate(uniform_ensemble(300, cfg.seed), ParameterDistribution(3.2, h), 400)
            alone.append(variance_of_right_peak(3.2, final)[0] / h)
        assert ratios(cfg) == alone
        assert ratios(cfg) != ratios(base)

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(lambda_bar, epsilon):
            raise ZeroDivisionError("bug in the root finder")

        monkeypatch.setattr(analytic, "h_function_roots", broken)
        cfg = MonteCarloConfig(n_particles=100, generations=200, window=100, seed=2)
        with pytest.raises(ZeroDivisionError):
            lemma_suite(3.2, 0.05, cfg)


class TestFlipFlopScan:
    def test_signs_and_verdicts(self):
        report = flipflop_scan((1, 2, 3), 0.024, FAST)
        rows = {r.rho: r for r in report.rows}
        assert rows[1].sign == "+" and rows[1].verdict == "stochastic_greater"
        assert rows[2].sign == "-" and rows[2].verdict == "stochastic_less"
        assert rows[3].verdict == "exploratory"
        assert rows[3].ci_low < rows[3].difference < rows[3].ci_high
        assert rows[3].period == 8

    def test_row_signs_follow_the_small_noise_oracle(self):
        # conclusive rows, the conjectured alternation at rho >= 3 included,
        # carry the sign of their window's noise-free O(delta**2) gap
        report = flipflop_scan((1, 2, 3, 4), 0.024, MonteCarloConfig(2000, 1000, 500, 12345))
        conclusive = [row for row in report.rows if abs(row.z_score) >= 3.0]
        assert [row.rho for row in conclusive] == [1, 2, 3, 4]
        for row in conclusive:
            gap = small_noise_gap(row.lambda_bar, row.delta_lambda)
            assert row.sign == {1.0: "+", -1.0: "-"}[np.sign(gap)]

    def test_window_shrinks_for_period8(self):
        report = flipflop_scan((3,), 0.024, FAST)
        row = report.rows[0]
        # requested half-width cannot fit inside the period-8 regime
        assert row.delta_lambda < 0.024
        assert 3.54409 < row.lambda_bar < 3.56995

    def test_half_width_below_1e_6_is_tested_as_requested(self):
        row = flipflop_scan((1,), 1e-7, FAST).rows[0]
        assert row.delta_lambda == 1e-7 and row.period == 2

    def test_reproducible_bytes(self):
        def encoded():
            report = flipflop_scan((1, 2), 0.024, FAST)
            return json.dumps(report.to_dict(), default=cli._json_default, sort_keys=True)

        assert encoded() == encoded()

    def test_unattainable_period(self):
        with pytest.raises(DomainError, match="3.56995"):
            flipflop_scan((9,), 0.01, FAST)

    def test_tabulated_centers_are_the_cascade_scan(self):
        # the scan the rho >= 3 centers were taken from: the longest run of
        # period-2^rho rates on the interior of the cascade grid.  Regenerated
        # from detect_period instead, the centers would move: it finds 8 at
        # 3.564394140625 (scan: -1) and 16 at 3.5687378125 (scan: 32).  The
        # grid starts at 3.54409, where it was made, not at the regime boundary
        grid = np.linspace(3.54409, analytic.LAMBDA_C2_OMEGA, 257)[1:-1]
        periods = np.array([cascade_scan_period(lam) for lam in grid.tolist()])
        for rho in range(3, 7):
            hits = np.flatnonzero(periods == 2**rho)
            run = max(np.split(hits, np.flatnonzero(np.diff(hits) > 1) + 1), key=len)
            assert experiments._RHO_CENTERS[rho] == float(grid[run].mean())
        assert not np.any(periods == 128)
        assert 7 not in experiments._RHO_CENTERS

    def test_orbit_at_each_center_has_the_detected_length(self):
        # mean_comparison takes a row's period from the length of its orbit
        for rho, center in experiments._RHO_CENTERS.items():
            assert len(periodic_orbit(center)) == detect_period(center) == 2**rho

    def test_validation(self):
        with pytest.raises(DomainError, match="must be finite and > 0"):
            flipflop_scan((1,), 0.0, FAST)
        with pytest.raises(DomainError, match="rho must be one of"):
            flipflop_scan((0,), 0.01, FAST)

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_non_finite_delta_rejected(self, delta):
        # an infinite half-width used to be halved forever while the
        # window search looked for a usable one
        with pytest.raises(DomainError, match="must be finite and > 0"):
            flipflop_scan((1,), delta, FAST)

    def test_rows_are_mean_comparison_reports(self):
        row = flipflop_scan((2,), 0.024, FAST).rows[0]
        rep, _ = mean_comparison(row.lambda_bar, row.delta_lambda, replace(FAST, seed=FAST.seed + 2))
        for key in ("period", "stochastic_mean", "stochastic_se", "deterministic_mean",
                    "difference", "z_score", "verdict"):
            assert getattr(row, key) == getattr(rep, key)


def _ergodic_consistency(lambda_bar, delta_lambda, cfg):
    """Time average against space average of the invariant mean: the
    trailing-window per-particle mean of one ensemble against a single
    converged snapshot of an independently seeded one.  Both estimate
    the same mean, so they should agree within combined standard errors."""
    dist = ParameterDistribution(lambda_bar, delta_lambda)
    time_mean, time_se, _ = experiments.ensemble_time_mean(dist, cfg)
    space_mean, space_se, _ = experiments.ensemble_time_mean(
        dist, replace(cfg, window=1, seed=cfg.seed + 1)
    )
    return abs(time_mean - space_mean) <= 3.0 * math.hypot(time_se, space_se)


class TestErgodicConsistency:
    def test_period2_window(self):
        assert _ergodic_consistency(3.208, 0.024, FAST)

    def test_period1_window(self):
        assert _ergodic_consistency(1.508, 0.024, FAST)


class TestPeriodicOrbitIntegration:
    def test_period4_window_mean_matches_flipflop_reference(self):
        # the deterministic mean used by the scanner equals the plain
        # cycle mean
        report = flipflop_scan((2,), 0.024, FAST)
        row = report.rows[0]
        assert row.deterministic_mean == pytest.approx(
            float(np.mean(periodic_orbit(row.lambda_bar))), abs=1e-12
        )
