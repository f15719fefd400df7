"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: two-cycle points
come from the roots of the second-iterate polynomial, interval images
from brute-force grid sweeps, orbit averages from plain iteration, and
the remaining closed forms (two-cycle mean, fixed-point band, the
comparison functions F and h) are written out here from the theory.
"""

from __future__ import annotations

import numpy as np


def quartic_two_cycle(lam: float) -> tuple[float, float]:
    """Two-cycle points as the non-fixed-point real roots of
    S(S(x)) - x, found with the companion-matrix root finder."""
    S = np.array([-lam, lam, 0.0])  # S(x) = -lam x^2 + lam x
    SS = np.polyadd(np.polymul([lam], S), np.polymul([-lam], np.polymul(S, S)))
    F = np.polysub(SS, np.array([1.0, 0.0]))
    roots = np.roots(F)
    roots = np.real(roots[np.abs(np.imag(roots)) < 1e-12])
    fixed = (0.0, (lam - 1.0) / lam)
    pq = sorted(r for r in roots if min(abs(r - f) for f in fixed) > 1e-8)
    assert len(pq) == 2, f"expected 2 cycle roots at lam={lam}, got {pq}"
    return float(pq[0]), float(pq[1])


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
    [-0.5, 1.2], sorted, however many there are: the exact zeros of a
    uniform 10^4-cell grid and each sign-change cell bisected to 1e-12,
    one cell at a time in a Python loop.  The reference for the
    vectorized scan of analytic.h_function_roots, which must return the
    same floats when there are four and raise otherwise."""

    def H(x):
        u = lam * x * (1.0 - x)
        return lam * (u - u * u + eps) - x

    n = 10_000
    xs = np.linspace(-0.5, 1.2, n + 1)
    vals = H(xs)
    roots = []
    for i in range(n):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(float(xs[i]))
            continue
        if va * vb < 0.0:
            lo, hi = float(xs[i]), float(xs[i + 1])
            flo = H(lo)
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                fmid = H(mid)
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)
