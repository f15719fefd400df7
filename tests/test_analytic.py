"""Tests for the closed-form theory: cycle points, regimes, support
geometry, and the comparison function H."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from stochlogistic.analytic import (
    LAMBDA_C3,
    LAMBDA_C4,
    LAMBDA_C4_END,
    Regime,
    _H_value,
    classify_regime,
    convexity_on_interval,
    detect_period,
    fixed_point,
    h_function_roots,
    h_second_derivative,
    period2_points,
    periodic_orbit,
    support_intervals,
)
from stochlogistic.maps import ParameterDistribution
from stochlogistic.measure import Ensemble, pf_step
from stochlogistic.errors import (
    ConvergenceError,
    DomainError,
    RootCountError,
)

from oracles import (
    band_geometry,
    central_second_difference,
    comparison_h,
    grid_image_sweep,
    grid_invariant_pair,
    orbit_tail_mean,
    quartic_two_cycle,
    scan_h_roots,
    second_iterate_gap,
    two_cycle_mean,
)

# frozen by the plain-iteration oracle (5000 burn-in steps, see
# oracles.orbit_tail_mean); drift-free to the last digit at 1e5 steps
PERIOD4_MEAN_AT_3_508 = 0.6466413116608533


class TestFixedPoints:
    """Fixed points of the fixed-rate map on [0, 1]: 0 always, and
    fixed_point(lam) once lam > 1."""

    def test_extinction_only_zero(self):
        assert not 0.0 <= fixed_point(0.5) <= 1.0
        out = pf_step(Ensemble(np.array([0.0]), 0, 0), ParameterDistribution(0.5, 0.0))
        assert out.particles.tolist() == [0.0]

    def test_two_fixed_points(self):
        assert fixed_point(2.0) == 0.5
        out = pf_step(Ensemble(np.array([0.0, 0.5]), 0, 0), ParameterDistribution(2.0, 0.0))
        assert out.particles.tolist() == [0.0, 0.5]

    def test_value(self):
        assert fixed_point(3.2) == pytest.approx(0.6875, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError, match=r"growth rate must lie in \[0, 4\]"):
            periodic_orbit(4.2)


class TestPeriod2Points:
    def test_degenerate_at_first_doubling(self):
        pair = period2_points(3.0)
        assert pair.p == pair.q == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("lam", [3.0001, 3.001, 3.01, 3.2, 3.449])
    def test_against_quartic_roots(self, lam):
        pair = period2_points(lam)
        p, q = quartic_two_cycle(lam)
        assert pair.p == pytest.approx(p, abs=1e-12)
        assert pair.q == pytest.approx(q, abs=1e-12)

    def test_sum_rule(self):
        pair = period2_points(3.4)
        assert pair.p + pair.q == pytest.approx(4.4 / 3.4, abs=1e-14)

    def test_below_three_rejected(self):
        with pytest.raises(DomainError, match="two-cycle requires lam >= 3"):
            period2_points(2.99)

    def test_vieta_property(self):
        rng = np.random.default_rng(2)
        for lam in rng.uniform(3.0 + 1e-9, LAMBDA_C4 - 1e-9, 1000):
            pair = period2_points(lam)
            assert abs(pair.p + pair.q - (lam + 1.0) / lam) < 1e-12
            assert abs(pair.p * pair.q - (lam + 1.0) / lam**2) < 1e-12

    def test_swap_property(self):
        rng = np.random.default_rng(3)
        for lam in rng.uniform(3.0 + 1e-9, LAMBDA_C4 - 1e-9, 1000):
            pair = period2_points(lam)
            assert abs(lam * pair.p * (1 - pair.p) - pair.q) < 1e-12
            assert abs(lam * pair.q * (1 - pair.q) - pair.p) < 1e-12


class TestPeriod2Average:
    """The two-cycle mean (lam + 1)/(2 lam), from the closed-form pair
    and from the recorded orbit that compare averages."""

    def test_values(self):
        for lam, want in ((3.0, 2.0 / 3.0), (3.2, 0.65625), (3.208, 4.208 / 6.416)):
            pair = period2_points(lam)
            assert 0.5 * (pair.p + pair.q) == pytest.approx(want, abs=1e-15)
        assert float(np.mean(periodic_orbit(3.2))) == pytest.approx(0.65625, abs=1e-15)

    def test_matches_pair_mean(self):
        pair = period2_points(3.3)
        avg = two_cycle_mean(3.3)
        assert abs(0.5 * (pair.p + pair.q) - avg) <= 2 * np.spacing(avg)
        assert abs(float(np.mean(periodic_orbit(3.3))) - avg) <= 2 * np.spacing(avg)


class TestClassifyRegime:
    def test_period1_window(self):
        assert classify_regime(1.484, 1.532) is Regime.PERIOD1

    def test_period2_window(self):
        assert classify_regime(3.184, 3.232) is Regime.PERIOD2

    def test_straddle_rejected(self):
        with pytest.raises(DomainError, match="touches the bifurcation boundary at 3$"):
            classify_regime(2.9, 3.1)

    def test_boundary_touch_rejected(self):
        with pytest.raises(DomainError, match="touches the bifurcation boundary at 3$"):
            classify_regime(3.0, 3.2)

    @pytest.mark.parametrize(
        "lo,hi,regime",
        [
            (0.2, 0.8, Regime.EXTINCTION),
            (0.0, 1.0, Regime.EXTINCTION),
            (3.47, 3.53, Regime.PERIOD4),
            (3.56, 3.9, Regime.CASCADE),
            (3.6, 4.0, Regime.CASCADE),
        ],
    )
    def test_labels(self, lo, hi, regime):
        assert classify_regime(lo, hi) is regime

    def test_period4_ends_where_the_cycle_turns_to_period_8(self):
        # the regime table and the cycle finder agree at every float there
        below = math.nextafter(LAMBDA_C4_END, 0.0)
        assert detect_period(below) == 4 and detect_period(LAMBDA_C4_END) == 8
        assert classify_regime(3.5, below) is Regime.PERIOD4
        assert classify_regime(3.54409005, 3.54409015) is Regime.PERIOD4
        with pytest.raises(DomainError, match="touches the bifurcation boundary at 3.54409$"):
            classify_regime(3.5, LAMBDA_C4_END)

    def test_domain(self):
        with pytest.raises(DomainError, match="need 0 <= lo <= hi <= 4"):
            classify_regime(-0.1, 2.0)
        with pytest.raises(DomainError, match="need 0 <= lo <= hi <= 4"):
            classify_regime(2.0, 1.0)


class TestDetectPeriod:
    @pytest.mark.parametrize(
        "lam,period",
        [(2.0, 1), (2.5, 1), (2.9, 1), (3.05, 2), (3.2, 2), (3.4, 2), (3.47, 4), (3.5, 4), (3.53, 4),
         (3.56, 8), (3.83, 3)],
    )
    def test_known_periods(self, lam, period):
        assert detect_period(lam) == period

    def test_period3_window_opens_at_lambda_c3(self):
        # the tangent bifurcation at 1 + 2*sqrt(2): no cycle attracts just below it
        assert detect_period(LAMBDA_C3 + 1e-9) == 3
        with pytest.raises(ConvergenceError, match="no attracting cycle"):
            detect_period(LAMBDA_C3 - 1e-9)

    def test_chaotic_rate_fails(self):
        with pytest.raises(ConvergenceError, match="no attracting cycle"):
            detect_period(3.9)

    def test_preperiodic_critical_point_at_four_fails(self):
        # x0 = 0.5 maps onto the fixed point 0 in two steps at lam = 4, but
        # 0 repels (multiplier 4): almost every orbit averages 1/2, not 0
        with pytest.raises(ConvergenceError, match="no attracting cycle"):
            detect_period(4.0)

    @pytest.mark.parametrize(
        "lam,period",
        [(2.999, 1), (2.9999, 1), (2.99999, 1), (3.0001, 2), (3.449, 2), (3.4494, 2), (3.4495, 4), (3.544, 4),
         (3.5441, 8)],
    )
    def test_slow_cycle_next_to_a_doubling(self, lam, period):
        # next to a doubling the orbit of 0.5 is still far from the cycle
        # after burn-in; just past one, the cycle of half the length
        # repels and must be passed over
        assert detect_period(lam) == period

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1.01, 2.999999, 1), (3.0001, 3.449489, 2), (3.44949, 3.54409, 4)]).flatmap(
            lambda r: st.tuples(st.floats(r[0], r[1]), st.just(r[2]))
        )
    )
    def test_length_is_the_regime_cycle_length(self, case):
        """Inside each stable regime the length is the regime's, and
        through period two the cycle and its mean are the closed forms
        x* and {p, q}."""
        lam, length = case
        assert detect_period(lam) == length
        orbit = periodic_orbit(lam)
        if length == 1:
            assert orbit == pytest.approx([fixed_point(lam)], abs=1e-12)
        elif length == 2:
            pair = period2_points(lam)
            assert orbit == pytest.approx([pair.p, pair.q], abs=1e-12)
            assert float(np.mean(orbit)) == pytest.approx((lam + 1.0) / (2.0 * lam), abs=1e-12)

    @pytest.mark.parametrize("k", range(7, 16))
    def test_two_cycle_just_past_the_first_doubling(self, k):
        # f^2(x) - x has a near-triple root there, so Newton from the
        # burned-in orbit used to stall and raise ConvergenceError
        assert detect_period(3 + 10**-k) == 2

    def test_first_doubling_point_is_period_one(self):
        # at lam = 3 the fixed point 2/3 is neutral (multiplier -1), and
        # every orbit in (0, 1) converges to it
        assert detect_period(3.0) == 1
        assert periodic_orbit(3.0) == [fixed_point(3.0)]

    @pytest.mark.parametrize(
        "lam,period",
        [*((LAMBDA_C4 + 10.0**-k, 4) for k in range(7, 16)), (math.nextafter(LAMBDA_C4, 4.0), 4),
         (3.5440903595519229 + 6e-8, 8)],
    )
    def test_cycle_just_past_a_later_doubling(self, lam, period):
        # past 1 + sqrt(6) and the period-8 onset f^k(x) - x has a near-triple
        # root as well; 8 Newton steps leave it unclosed, and used to raise
        # ConvergenceError, so the search goes on to 32 before trying k + 1
        assert detect_period(lam) == period

    @settings(max_examples=100, deadline=None)
    @example(math.nextafter(1.0, 2.0))
    @example(3.0)
    @example(math.nextafter(3.0, 4.0))
    @example(3.0000001)
    @example(3.05)
    @example(LAMBDA_C4)
    @given(st.floats(1.0, LAMBDA_C4, exclude_min=True))
    def test_cycle_is_the_closed_form_through_period_two(self, lam):
        # bit for bit: on (1, 3] the fixed point, on (3, 1 + sqrt(6)] the two-cycle
        if lam <= 3.0:
            expected = [fixed_point(lam)]
        else:
            pair = period2_points(lam)
            expected = [pair.p, pair.q]
        assert periodic_orbit(lam) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1.01, 2.999999), (3.0001, 3.449489), (3.44949, 3.54409), (3.5441, 3.5644),
                         (3.8285, 3.841)]).flatmap(lambda r: st.floats(r[0], r[1]))
    )
    def test_cycle_attracts_at_its_least_period(self, lam):
        orbit = periodic_orbit(lam)
        multiplier = 1.0
        for x in orbit:
            multiplier *= lam * (1.0 - 2.0 * x)
        assert abs(multiplier) < 1.0
        x = orbit[0]
        for _ in range(len(orbit) - 1):
            x = lam * x * (1.0 - x)
            assert abs(x - orbit[0]) >= 1e-12
        assert abs(lam * x * (1.0 - x) - orbit[0]) < 1e-12


class TestPeriodicOrbit:
    def test_two_cycle(self):
        p, q = quartic_two_cycle(3.2)
        assert periodic_orbit(3.2) == pytest.approx([p, q], abs=1e-6)

    def test_fixed_point(self):
        assert periodic_orbit(2.5) == pytest.approx([0.6], abs=1e-12)

    @pytest.mark.parametrize("lam, limit", [(0.999, 0.0), (1.0, 0.0), (1.001, 1.0 - 1.0 / 1.001)])
    def test_neutral_rate_reaches_its_limit(self, lam, limit):
        # at lam = 1, f(x) - x = -x**2: Newton from the burn-in only halved
        # the error each step, so the orbit used to stop at 3.9e-7
        orbit = periodic_orbit(lam)
        assert len(orbit) == 1 and abs(orbit[0] - limit) <= 1e-12

    def test_period4_mean_regression(self):
        pts = periodic_orbit(3.508)
        assert len(pts) == 4 and pts == sorted(pts)
        mean = sum(pts) / 4.0
        assert mean == pytest.approx(PERIOD4_MEAN_AT_3_508, abs=1e-12)
        assert mean == pytest.approx(orbit_tail_mean(3.508, 4), abs=1e-12)

    @pytest.mark.parametrize(
        "lo,hi,regime,period",
        [
            (1.05, 2.95, Regime.PERIOD1, 1),
            (3.01, 3.44, Regime.PERIOD2, 2),
            (3.455, 3.54, Regime.PERIOD4, 4),
        ],
    )
    def test_length_is_the_regime_period(self, lo, hi, regime, period):
        # the cycle's length is the period the regime table implies
        for lam in np.linspace(lo, hi, 9).tolist():
            assert classify_regime(lam, lam) is regime
            assert len(periodic_orbit(lam)) == period

    def test_slow_cycle_recorded_where_detection_converged(self):
        # just past the first doubling the two-cycle attracts slowly: the
        # returned cycle is the closed form, not the orbit after a
        # burn-in (which sits ~3e-4 off the pair)
        lam = 3.0001
        pair = period2_points(lam)
        assert periodic_orbit(lam) == pytest.approx([pair.p, pair.q], abs=1e-12)


class TestSupportIntervals:
    def test_reference_window(self):
        sup = support_intervals(3.2, 0.05)
        assert sup.p_lo == pytest.approx(0.47988, abs=1e-5)
        assert sup.p_hi == pytest.approx(0.58191, abs=1e-5)
        assert sup.q_lo == pytest.approx(0.76637, abs=1e-5)
        assert sup.q_hi == pytest.approx(0.8125, abs=1e-5)
        # 1/2 lies inside I_p, so the q-side maximum is the vertex value b/4
        assert sup.p_lo <= 0.5 <= sup.p_hi
        assert sup.q_hi == (3.2 + 0.05) / 4.0

    def test_degenerate_window(self):
        pair = period2_points(3.2)
        sup = support_intervals(3.2, 0.0)
        assert sup.p_lo == pytest.approx(pair.p, abs=1e-14)
        assert sup.p_hi == pytest.approx(pair.p, abs=1e-14)
        assert sup.q_lo == pytest.approx(pair.q, abs=1e-14)
        assert sup.q_hi == pytest.approx(pair.q, abs=1e-14)

    def test_window_below_vertex(self):
        # I_p sits right of the vertex, where the map decreases: the
        # q-side maximum is the image of I_p's left end at rate b
        sup = support_intervals(3.15, 0.02)
        b = 3.15 + 0.02
        assert sup.p_lo > 0.5
        assert sup.q_hi == pytest.approx(b * sup.p_lo * (1.0 - sup.p_lo), abs=1e-15)

    def test_window_above_vertex(self):
        # I_p sits left of the vertex, where the map increases: the
        # q-side maximum is the image of I_p's right end at rate b
        sup = support_intervals(3.3, 0.02)
        b = 3.3 + 0.02
        assert sup.p_hi < 0.5
        assert sup.q_hi == pytest.approx(b * sup.p_hi * (1.0 - sup.p_hi), abs=1e-15)

    def test_regime_error(self):
        with pytest.raises(DomainError, match="touches the bifurcation boundary at 3.44949$"):
            support_intervals(3.3, 0.2)

    @pytest.mark.parametrize(
        "lb,dl", [(3.2, 0.1), (3.15, 0.05), (3.05, 0.04), (3.01, 0.005), (3.02, 0.0018), (3.0367, 0.0349)]
    )
    def test_merged_window_is_refused(self, lb, dl):
        # windows inside the two-cycle regime whose support is one band:
        # the two-interval hypothesis fails, and the brute-force pair meets too
        with pytest.raises(DomainError, match="merge into one band"):
            support_intervals(lb, dl)
        (_, p_hi), (q_lo, _) = grid_invariant_pair(lb, dl, n=50)
        assert p_hi >= q_lo

    @pytest.mark.parametrize("lb,dl", [(3.2, 0.05), (3.15, 0.02), (3.208, 0.024), (3.3, 0.02)])
    def test_grid_invariant_pair_oracle(self, lb, dl):
        """The brute-force invariant pair matches within a quarter of a
        squared grid cell (its sampled maximum near 1/2) plus rounding."""
        sup = support_intervals(lb, dl)
        i_p, i_q = grid_invariant_pair(lb, dl)
        cell = max(sup.p_hi - sup.p_lo, sup.q_hi - sup.q_lo) / 199
        tol = (lb + dl) * cell * cell / 4 + 1e-14
        assert list(i_p + i_q) == pytest.approx([sup.p_lo, sup.p_hi, sup.q_lo, sup.q_hi], abs=tol)

    @settings(max_examples=200, deadline=None)
    @given(lb=st.floats(3.02, 3.43), dl=st.floats(0.0, 0.05))
    def test_pair_is_disjoint_and_invariant(self, lb, dl):
        """Either the window is refused, or the pair is disjoint, holds
        p and q (the quartic's roots, to 1e-12) with the fixed points
        between them, and each interval's image over a rate x state grid
        lies in the other.  The slack is 4 ulps: the map's two roundings
        at a grid point and at the interval's end point err by up to
        1.5 ulps each."""
        try:
            sup = support_intervals(lb, dl)
        except DomainError as exc:
            if not re.search("touches the bifurcation boundary|merge into one band", str(exc)):
                raise
            return
        a, b = lb - dl, lb + dl
        p, q = quartic_two_cycle(lb)
        assert sup.p_lo - 1e-12 <= p <= sup.p_hi + 1e-12 and sup.q_lo - 1e-12 <= q <= sup.q_hi + 1e-12
        assert sup.p_hi < fixed_point(a) <= fixed_point(b) < sup.q_lo
        for (lo, hi), (to_lo, to_hi) in ((sup.I_p, sup.I_q), (sup.I_q, sup.I_p)):
            img_lo, img_hi = grid_image_sweep(a, b, lo, hi, n=100)
            assert to_lo - 4 * np.spacing(to_lo) <= img_lo and img_hi <= to_hi + 4 * np.spacing(to_hi)

    def test_contains_interval_union(self):
        sup = support_intervals(3.2, 0.05)
        assert sup.contains(0.5)
        assert sup.contains(0.8)
        assert not sup.contains(0.7)
        assert sup.contains(sup.p_lo - 1e-10, inflate=1e-9)

    def test_contains_elementwise_on_arrays(self):
        sup = support_intervals(3.2, 0.05)
        edges = [sup.p_lo, sup.p_hi, sup.q_lo, sup.q_hi]
        x = np.concatenate([np.linspace(0.0, 1.0, 1001), edges,
                            np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        for inflate in (0.0, 1e-9):
            want = [sup.contains(float(v), inflate=inflate) for v in x]
            assert sup.contains(x, inflate=inflate).tolist() == want


class TestComparisonFunctions:
    """H(x) = lam*h(x) - x as h_function_roots evaluates it, against
    F(x) = S(S(x)) - x: H = F + lam*epsilon identically."""

    def test_fixed_point_is_second_iterate_fixed(self):
        assert abs(_H_value(3.2, 0.0, 0.6875)) < 1e-12

    def test_zero_is_zero(self):
        assert second_iterate_gap(3.3, 0.0) == 0.0 and _H_value(3.3, 0.0, 0.0) == 0.0

    def test_shift_at_zero(self):
        assert _H_value(3.2, 0.001, 0.0) == pytest.approx(0.0032, abs=1e-18)

    def test_shift_identity_property(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            lam = rng.uniform(3.0, LAMBDA_C4)
            eps = rng.uniform(0.0, 0.01)
            x = rng.uniform(0.0, 1.0)
            f, big_h = second_iterate_gap(lam, x), _H_value(lam, eps, x)
            scale = max(abs(f), abs(big_h), 1.0)
            assert abs((big_h - f) - lam * eps) <= 4.0 * np.spacing(scale)

    def test_deterministic_limit_property(self):
        # H(x) + x = lam * h(x) with no shift equals the second iterate
        rng = np.random.default_rng(5)
        for _ in range(1000):
            lam = rng.uniform(3.0, LAMBDA_C4)
            x = rng.uniform(0.0, 1.0)
            u = lam * x * (1.0 - x)
            ss = lam * (u * (1.0 - u))
            assert abs(_H_value(lam, 0.0, x) + x - ss) <= 4.0 * np.spacing(max(abs(ss), 1.0))


class TestHSecondDerivative:
    def test_reference_value(self):
        assert h_second_derivative(3.2, 0.5) == pytest.approx(3.84, abs=1e-12)

    def test_at_zero(self):
        for lam in (3.05, 3.2, 3.4):
            assert h_second_derivative(lam, 0.0) == pytest.approx(
                -2.0 * (lam + lam * lam), abs=1e-12
            )

    def test_positive_on_left_interval(self):
        sup = support_intervals(3.2, 0.05)
        xs = np.linspace(sup.p_lo, sup.p_hi, 2000)
        assert all(h_second_derivative(3.2, float(x)) > 0 for x in xs)

    def test_finite_difference_property(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            lam = rng.uniform(3.0, LAMBDA_C4)
            x = rng.uniform(0.0, 1.0)
            h_of = lambda t: comparison_h(lam, 0.0, t)  # noqa: E731
            fd = central_second_difference(h_of, x)
            exact = h_second_derivative(lam, x)
            assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


class TestConvexity:
    def test_left_interval_true(self):
        sup = support_intervals(3.2, 0.05)
        assert convexity_on_interval(3.2, sup.I_p) is True

    def test_near_zero_false(self):
        assert convexity_on_interval(3.2, (0.0, 0.05)) is False

    def test_point_interval(self):
        assert convexity_on_interval(3.2, (0.5, 0.5)) is True

    def test_validation(self):
        with pytest.raises(DomainError, match="interval must satisfy"):
            convexity_on_interval(3.2, (0.5, 0.2))


class TestHFunctionRoots:
    @pytest.mark.parametrize(
        "lam", [math.nextafter(3.0, 4.0), 3 + 1e-15, 3 + 1e-12, 3 + 1e-10, 3 + 1e-9, 3 + 1e-7, 3.0001, 3.2, 3.449]
    )
    def test_unshifted_roots(self, lam):
        # at epsilon = 0 the zeros are {0, p, x*, q}, to rounding down to
        # lam = 3 + 1 ulp, where p, x* and q lie within 1e-8 of each other
        pair = period2_points(lam)
        want = (0.0, pair.p, fixed_point(lam), pair.q)
        assert h_function_roots(lam, 0.0) == pytest.approx(want, abs=1e-15, rel=0)

    def test_shifted_root_chain(self):
        pair = period2_points(3.2)
        x_star = fixed_point(3.2)
        z_h, p_h, xs_h, q_h = h_function_roots(3.2, 0.001)
        assert z_h < 0.0 < pair.p < p_h < xs_h < x_star < pair.q < q_h

    def test_excessive_shift(self):
        with pytest.raises(RootCountError):
            h_function_roots(3.2, 10.0)

    def test_against_brentq_oracle(self):
        lam, eps = 3.25, 0.0005

        def H(x):
            u = lam * x * (1.0 - x)
            return lam * (u - u * u + eps) - x

        mine = h_function_roots(lam, eps)
        # bracket each root with the scan the oracle does not share
        xs = np.linspace(-0.5, 1.2, 4001)
        vals = np.array([H(x) for x in xs])
        brackets = [
            (xs[i], xs[i + 1])
            for i in range(len(xs) - 1)
            if vals[i] * vals[i + 1] < 0
        ]
        assert len(brackets) == 4
        theirs = sorted(optimize.brentq(H, a, b, xtol=1e-13) for a, b in brackets)
        assert mine == pytest.approx(theirs, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(3.0, LAMBDA_C4, exclude_min=True, exclude_max=True),
        eps=st.floats(0.0, 1e-2),
    )
    @example(lam=math.nextafter(3.0, 4.0), eps=0.0)
    @example(lam=3 + 1e-7, eps=0.0)
    @example(lam=3 + 2e-7, eps=0.0)
    # p_H and x*_H 3e-6 apart, in one scan cell, next to where they merge
    @example(lam=3.0404545454545455, eps=0.0007745305530561034 * (1 - 1e-9))
    def test_matches_scalar_scan(self, lam, eps):
        # the polished quartic roots agree with the bracket scan to its
        # own bisection tolerance, and fail exactly where the scan does
        # not find four, down to lam = 3 + 1 ulp
        want = scan_h_roots(lam, eps)
        if len(want) == 4:
            assert h_function_roots(lam, eps) == pytest.approx(want, abs=1e-12)
        else:
            with pytest.raises(RootCountError):
                h_function_roots(lam, eps)

    def test_ordering_property_across_rates(self):
        rng = np.random.default_rng(7)
        for lam in rng.uniform(3.05, 3.4, 1000):
            pair = period2_points(lam)
            x_star = fixed_point(lam)
            eps = 1e-4
            z_h, p_h, xs_h, q_h = h_function_roots(lam, eps)
            assert z_h < 0.0 < pair.p < p_h < xs_h < x_star < pair.q < q_h


class TestBandGeometry:
    """The fixed-point-regime trapping band is [x*(a), x*(b)], the
    fixed points of the window's end rates."""

    def test_reference_values(self):
        lo, hi = fixed_point(1.9), fixed_point(2.1)
        assert (lo + hi) / 2.0 == pytest.approx(0.4987469, abs=1e-7)
        assert hi - lo == pytest.approx(0.0501253, abs=1e-7)

    def test_matches_fixed_point_endpoints(self):
        # the band is the interval between the two endpoint fixed points
        for lb, dl in [(2.0, 0.1), (1.508, 0.024), (2.5, 0.3)]:
            center, width = band_geometry(lb, dl)
            lo, hi = fixed_point(lb - dl), fixed_point(lb + dl)
            assert center == pytest.approx((lo + hi) / 2.0, abs=1e-12)
            assert width == pytest.approx(hi - lo, abs=1e-12)

    def test_degenerate(self):
        assert band_geometry(2.0, 0.0) == (pytest.approx(0.5), pytest.approx(0.0))
        assert fixed_point(2.0 - 0.0) == fixed_point(2.0 + 0.0) == 0.5

    def test_monotone_center(self):
        center, _ = band_geometry(1.508, 0.024)
        assert fixed_point(1.484) < center < fixed_point(1.532)
