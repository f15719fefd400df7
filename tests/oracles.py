"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: two-cycle points
come from the roots of the second-iterate polynomial, interval images
and invariant interval pairs from brute-force grid sweeps, peak-variance
errors from a plain bootstrap, orbit averages and the cascade scan from
plain iteration, and the remaining closed forms (two-cycle mean,
fixed-point band, the comparison functions F and h) are written out
here from the theory.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def quartic_two_cycle(lam: float) -> tuple[float, float]:
    """Two-cycle points as the non-fixed-point real roots of
    S(S(x)) - x, found with the companion-matrix root finder and polished
    by one Newton step: next to lam = 3 they are a near-triple root, and
    the raw roots are 1.6e-12 off at 3.0001.  The step evaluates F as
    S(S(x)) - x: the expanded polynomial loses 1e-12 to cancellation there."""
    S = np.array([-lam, lam, 0.0])  # S(x) = -lam x^2 + lam x
    SS = np.polyadd(np.polymul([lam], S), np.polymul([-lam], np.polymul(S, S)))
    F = np.polysub(SS, np.array([1.0, 0.0]))
    roots = np.roots(F)
    roots = np.real(roots[np.abs(np.imag(roots)) < 1e-12])
    fixed = (0.0, (lam - 1.0) / lam)
    pq = sorted(r for r in roots if min(abs(r - f) for f in fixed) > 1e-8)
    assert len(pq) == 2, f"expected 2 cycle roots at lam={lam}, got {pq}"
    dF = np.polyder(F)
    p, q = (r - (np.polyval(S, np.polyval(S, r)) - r) / np.polyval(dF, r) for r in pq)
    return float(p), float(q)


def grid_image_sweep(
    lam_lo: float,
    lam_hi: float,
    x_lo: float,
    x_hi: float,
    n: int = 1000,
) -> tuple[float, float]:
    """Brute-force min/max of lam*x*(1-x) over an (lam, x) grid."""
    lams = np.linspace(lam_lo, lam_hi, n)
    xs = np.linspace(x_lo, x_hi, n)
    img = lams[:, None] * xs[None, :] * (1.0 - xs[None, :])
    return float(img.min()), float(img.max())


def grid_invariant_pair(
    lambda_bar: float, delta: float, n: int = 200, max_iter: int = 20_000
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The smallest pair (I_p, I_q) that holds the two-cycle at
    lambda_bar and that the window [lambda_bar - delta, lambda_bar + delta]
    maps into itself with the sides swapped, by brute force: starting
    from the quartic's cycle points, each interval is widened to cover
    the grid image (grid_image_sweep, n x n) of the other until neither
    changes.  The grid holds both ends of each interval, so the pair is
    exact up to the sampled maximum near x = 1/2, which is off by at most
    a quarter of a squared cell."""
    a, b = lambda_bar - delta, lambda_bar + delta
    p, q = quartic_two_cycle(lambda_bar)
    i_p, i_q = (p, p), (q, q)
    for _ in range(max_iter):
        img_p, img_q = grid_image_sweep(a, b, *i_q, n=n), grid_image_sweep(a, b, *i_p, n=n)
        new_p = (min(i_p[0], img_p[0]), max(i_p[1], img_p[1]))
        new_q = (min(i_q[0], img_q[0]), max(i_q[1], img_q[1]))
        if (new_p, new_q) == (i_p, i_q):
            return i_p, i_q
        i_p, i_q = new_p, new_q
    raise AssertionError(f"no fixed point within {max_iter} images at {lambda_bar}+/-{delta}")


def bootstrap_variance_se(values: np.ndarray, resamples: int, seed: int) -> float:
    """Plain bootstrap standard error of the (population) variance of
    i.i.d. values: the spread of np.var over resamples drawn with
    replacement."""
    rng = np.random.default_rng(seed)
    m = len(values)
    stats = [np.var(values[rng.integers(0, m, size=m)]) for _ in range(resamples)]
    return float(np.std(stats, ddof=1))


def orbit_tail_mean(lam: float, period: int, burn: int = 5000) -> float:
    """Plain-iteration average of the attracting cycle from x0 = 0.5."""
    x = 0.5
    for _ in range(burn):
        x = lam * x * (1.0 - x)
    total = 0.0
    for _ in range(period):
        total += x
        x = lam * x * (1.0 - x)
    return total / period


def cascade_scan_period(lam: float) -> int:
    """The tolerance scan the flipflop rho >= 3 window centers were taken
    from, frozen: after 20,000 steps from x0 = 0.5, the smallest k <= 64
    with |x_{n+k} - x_n| < 1e-9 for each of the next 64 states, -1 if none.
    Unlike the multiplier test it reports twice the period, or none,
    where the cycle attracts slowly."""
    x = 0.5
    for _ in range(20_000):
        x = lam * x * (1.0 - x)
    orbit = []
    for _ in range(128):
        x = lam * x * (1.0 - x)
        orbit.append(x)
    for k in range(1, 65):
        if all(abs(orbit[n + k] - orbit[n]) < 1e-9 for n in range(64)):
            return k
    return -1


def small_noise_gap(lambda_bar: float, delta: float) -> float:
    """The O(delta**2) gap between the stationary mean of the map with
    rates uniform on [lambda_bar - delta, lambda_bar + delta] and the mean
    of the stable k-cycle x_j at lambda_bar, by second-order moment
    closure about the cycle (Kifer, Random Perturbations of Dynamical
    Systems, 1988).  With a_j = lambda_bar (1 - 2 x_j), c_j = x_j (1 - x_j)
    and sigma^2 = delta^2 / 3 the variance s and the mean m of the
    deviation from x_j obey, from x_j to x_{j+1},

        s <- a_j^2 s + sigma^2 c_j^2,    m <- a_j m - lambda_bar s;

    the gap is the average of the settled m_j over one turn.  A turn is
    affine in each: s <- A^2 s + B with A = prod a_j and B the turn's s
    from 0, so s* = B/(1 - A^2); then m <- A m + Q with Q the turn's m
    from (s*, 0), so m* = Q/(1 - A).  Solving for the fixed point instead
    of iterating to it also holds near a doubling point, where |A| is
    close to 1 and iteration settles too slowly.  The cycle and its
    length come from plain iteration of 0.5, no noise is drawn."""
    k = cascade_scan_period(lambda_bar)
    assert k > 0, f"no attracting cycle at {lambda_bar}"
    x = 0.5
    for _ in range(20_000):
        x = lambda_bar * x * (1.0 - x)
    steps = []
    for _ in range(k):
        steps.append((lambda_bar * (1.0 - 2.0 * x), delta * delta / 3.0 * (x * (1.0 - x)) ** 2))
        x = lambda_bar * x * (1.0 - x)

    def turn(s: float, m: float) -> tuple[float, float, float]:
        total = 0.0
        for a, b in steps:
            s, m = a * a * s + b, a * m - lambda_bar * s
            total += m
        return s, m, total

    A = math.prod(a for a, _ in steps)
    assert abs(A) < 1.0, f"the cycle at {lambda_bar} does not attract (multiplier {A})"
    s_star = turn(0.0, 0.0)[0] / (1.0 - A * A)
    m_star = turn(s_star, 0.0)[1] / (1.0 - A)
    return turn(s_star, m_star)[2] / k


def central_second_difference(f, x: float, step: float = 1e-5) -> float:
    return (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)


def two_cycle_mean(lam: float) -> float:
    """Mean along the two-cycle, (lam + 1)/(2 lam): half of Vieta's sum
    p + q of the cycle quadratic."""
    return (lam + 1.0) / (2.0 * lam)


def band_geometry(lam: float, delta: float) -> tuple[float, float]:
    """Center and width of the trapping band of terminal states in the
    fixed-point regime, for rates uniform on [lam - delta, lam + delta]:

        center = (lam^2 - lam - d^2) / (lam^2 - d^2)
        width  = 2 d / ((lam + d)(lam - d))
    """
    d = delta
    center = (lam * lam - lam - d * d) / (lam * lam - d * d)
    width = 2.0 * d / ((lam + d) * (lam - d))
    return center, width


def second_iterate_gap(lam: float, x: float) -> float:
    """F(x) = S(S(x)) - x for the fixed-rate map S."""
    u = lam * x * (1.0 - x)
    return lam * (u * (1.0 - u)) - x


def comparison_h(lam: float, eps: float, x: float) -> float:
    """h(x) = u - u^2 + eps with u = lam*x*(1-x), so that
    H(x) = lam*h(x) - x = F(x) + lam*eps."""
    u = lam * x * (1.0 - x)
    return u - u * u + eps


def scan_h_roots(lam: float, eps: float) -> list[float]:
    """Zeros of H(x) = lam*(u - u^2 + eps) - x, u = lam*x*(1-x), on
    [-0.5, 1.2], sorted, however many there are: the exact zeros among
    the grid points and each sign-change cell bisected to 1e-12, one cell
    at a time in a Python loop.  The grid is uniform with 10^4 cells plus
    the points 2/3 +/- 2e-4 * 0.8^k down to 1e-14, so the cluster that
    x*, p and q form next to lam = 3 (all within sqrt(lam - 3) of 2/3)
    falls into separate cells down to lam = 3 + 1 ulp.  Signs are exact
    rational ones wherever the float value of H is within 1e-9 of zero:
    there the floating-point sign is rounding noise up to ~1e-11 either
    side of each root.  Two roots that share a cell leave the grid signs
    alike, so where |H| dips at a grid point between two points of its
    sign, the extremum of H between them (the exact sign change of H') is
    signed exactly, and if it has the other sign both brackets it makes
    are bisected.  The reference for the polished quartic roots of
    analytic.h_function_roots, which must agree to the scan's 1e-12 when
    there are four and raise otherwise."""

    def H(x):
        u = lam * x * (1.0 - x)
        return lam * (u - u * u + eps) - x

    lam_q, eps_q = Fraction(lam), Fraction(eps)

    def H_exact(x: float) -> Fraction:
        xq = Fraction(x)
        u = lam_q * xq * (1 - xq)
        return lam_q * (u - u * u + eps_q) - xq

    def slope_exact(x: float) -> Fraction:
        xq = Fraction(x)
        return lam_q * lam_q * (1 - 2 * xq) * (1 - 2 * lam_q * xq * (1 - xq)) - 1

    def bisect(f, lo: float, hi: float) -> float:
        """The sign change of f in [lo, hi], to 1e-12."""
        flo = f(lo) > 0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            fmid = f(mid)
            if fmid == 0:
                return mid
            if (fmid > 0) != flo:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    offsets = 2e-4 * 0.8 ** np.arange(200)
    offsets = offsets[offsets >= 1e-14]
    xs = np.unique(np.concatenate([np.linspace(-0.5, 1.2, 10_001), 2.0 / 3.0 - offsets, 2.0 / 3.0 + offsets]))
    values = H(xs)
    signs = [
        int(np.sign(v)) if abs(v) > 1e-9 else (H_exact(x) > 0) - (H_exact(x) < 0)
        for x, v in zip(xs.tolist(), values.tolist())
    ]
    roots = [x for x, sx in zip(xs.tolist(), signs) if sx == 0]
    for i in range(len(xs) - 1):
        if signs[i] * signs[i + 1] < 0:
            roots.append(bisect(H_exact, float(xs[i]), float(xs[i + 1])))
    s, size = np.array(signs), np.abs(values)
    dips = (s[:-2] == s[1:-1]) & (s[1:-1] == s[2:]) & (size[1:-1] <= size[:-2]) & (size[1:-1] <= size[2:])
    for i in np.flatnonzero(dips & (s[1:-1] != 0)) + 1:
        lo, hi = float(xs[i - 1]), float(xs[i + 1])
        if (slope_exact(lo) > 0) == (slope_exact(hi) > 0):
            continue
        top = bisect(slope_exact, lo, hi)
        if H_exact(top) * signs[i] < 0:
            roots += [bisect(H_exact, lo, top), bisect(H_exact, top, hi)]
    return sorted(roots)
