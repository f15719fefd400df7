"""Closed-form quantities of the deterministic logistic map and the
geometry induced by a uniform growth-rate window.

Covers the fixed point, the two-cycle, the attracting cycle, regime
classification along the period-doubling cascade, the pair of disjoint
intervals that carry the invariant distribution in the two-cycle
regime (the smallest pair holding the two-cycle that the random map
takes into itself), and the comparison function H whose roots locate
the shifted peaks of that distribution.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError, RootCountError

# Bifurcation boundaries of the cascade and the period-3 onset.  C2, C4 and C3
# are exact; C4_END is the double nearest the period-8 onset, where detect_period
# turns from 4 to 8; C2_OMEGA is kept to the precision we rely on.
LAMBDA_C2 = 3.0
LAMBDA_C4 = 1.0 + math.sqrt(6.0)
LAMBDA_C4_END = 3.5440903595519226
LAMBDA_C2_OMEGA = 3.56995
LAMBDA_C3 = 1.0 + math.sqrt(8.0)

#: Burn-in before cycle detection above 1 + sqrt(6); the critical point
#: x = 0.5 is in the attracting basin throughout the stable-periodic range.
PERIOD_BURN_IN = 10_000
_MAX_PERIOD = 64
#: Newton steps on f^k(x) - x: at least 8, and from the 8th on it stops at the
#: first step that finds it closed, by 32 at the latest.
_NEWTON_STEPS = (8, 32)
#: Images support_intervals takes before it gives up.
_MAX_IMAGES = 200_000


def fixed_point(lam: float) -> float:
    """The non-zero fixed point (lam - 1)/lam (valid for lam > 1)."""
    return (lam - 1.0) / lam


def period2_points(lam: float) -> tuple[float, float]:
    """The two-cycle (p, q), p <= q, the non-fixed-point roots of the quartic
    lam^2 x(1-x)(1 - lam x(1-x)) = x:

        p, q = ((lam + 1) -/+ sqrt((lam - 3)(lam + 1))) / (2 lam)
    """
    if lam < 3.0:
        raise DomainError(
            f"two-cycle requires lam >= 3 (discriminant is negative at {lam})"
        )
    root = math.sqrt((lam - 3.0) * (lam + 1.0))
    return (lam + 1.0 - root) / (2.0 * lam), (lam + 1.0 + root) / (2.0 * lam)


_BOUNDARIES = (
    (1.0, "extinction"),
    (LAMBDA_C2, "period1"),
    (LAMBDA_C4, "period2"),
    (LAMBDA_C4_END, "period4"),
    (4.0, "cascade_or_beyond"),
)


def classify_regime(lambda_lo: float, lambda_hi: float) -> str:
    """The name of the single stability regime that holds a growth-rate
    interval: "extinction", "period1", "period2", "period4" or
    "cascade_or_beyond".

    Raises DomainError if the interval touches or crosses a bifurcation
    boundary; the mean comparisons assume the whole window sits strictly
    inside one regime.
    """
    if not (0.0 <= lambda_lo <= lambda_hi <= 4.0):
        raise DomainError(
            f"need 0 <= lo <= hi <= 4, got [{lambda_lo}, {lambda_hi}]"
        )
    prev = 0.0
    for bound, regime in _BOUNDARIES:  # lambda_hi <= 4.0, the last bound
        if lambda_hi <= bound:
            # extinction includes its upper endpoint (0 attracts for lam <= 1);
            # the other regimes must not touch a boundary inside [0, 4]
            if regime == "extinction" or lambda_lo > prev and (
                lambda_hi < bound or regime == "cascade_or_beyond"
            ):
                return regime
            raise DomainError(
                f"window [{lambda_lo}, {lambda_hi}] touches the bifurcation "
                f"boundary at {prev if lambda_lo <= prev else bound:g}"
            )
        prev = bound


def detect_period(lam: float) -> int:
    """Length of the attracting cycle (see periodic_orbit).

    ConvergenceError if there is no attracting cycle of length <= 64
    (a chaotic rate, a doubling point from 1 + sqrt(6) on, or lam = 4,
    where x0 = 0.5 lands on the repelling fixed point 0).
    """
    return len(_attracting_cycle(lam))


def _attracting_cycle(lam: float) -> list[float]:
    """The attracting cycle in orbit order: 0, x* or {p, q} in closed form
    up to 1 + sqrt(6).  Above, Newton on f^k(x) - x (slope by the chain
    rule) runs from the orbit of x0 = 0.5 after PERIOD_BURN_IN steps for
    k = 1..64: 8 steps, then on to 32 until one finds |f^k(x) - x| < 1e-12
    (just past a doubling the root is near-triple, so Newton converges only
    linearly, and steps past closure drift once slope - 1 is lost in
    rounding).  The first root of least period k whose multiplier
    prod lam(1 - 2 x_j) lies inside (-1, 1) is the cycle: the map has
    negative Schwarzian derivative, so it has at most one attracting cycle
    (Singer 1978), and every other root Newton finds repels."""
    if not 0.0 <= lam <= 4.0:
        raise DomainError(f"growth rate must lie in [0, 4], got {lam}")
    if lam <= LAMBDA_C2:
        return [fixed_point(lam) if lam > 1.0 else 0.0]
    if lam <= LAMBDA_C4:
        return list(period2_points(lam))
    start = 0.5
    for _ in range(PERIOD_BURN_IN):
        start = lam * start * (1.0 - start)
    for k in range(1, _MAX_PERIOD + 1):
        x = start
        for step in range(_NEWTON_STEPS[1]):
            y, slope = x, 1.0
            for _ in range(k):
                slope *= lam * (1.0 - 2.0 * y)
                y = lam * y * (1.0 - y)
            if slope == 1.0 or step >= _NEWTON_STEPS[0] and abs(y - x) < 1e-12:
                break
            x -= (y - x) / (slope - 1.0)
        cycle, y, multiplier = [], x, 1.0
        for _ in range(k):
            cycle.append(y)
            multiplier *= lam * (1.0 - 2.0 * y)
            y = lam * y * (1.0 - y)
            if abs(y - x) < 1e-12:
                break
        if len(cycle) == k and abs(y - x) < 1e-12 and abs(multiplier) < 1.0:
            return cycle
    raise ConvergenceError(f"no attracting cycle of length <= {_MAX_PERIOD} at lam={lam}")


def periodic_orbit(lam: float) -> list[float]:
    """The attracting cycle at the given rate, sorted ascending; its
    length is the period.

    The closed forms through period two, Newton-polished from the orbit
    of x0 = 0.5 above, so the mean of the returned points is the
    long-term orbit average of the fixed-rate map to rounding.
    """
    return sorted(_attracting_cycle(lam))


def _image(a: float, b: float, lo: float, hi: float) -> tuple[float, float]:
    """Image of [lo, hi] under every rate in [a, b], rounded as the map
    rounds: the rate enters linearly, so it is [a*min s, b*max s] with
    s = x(1-x), which is smallest at an endpoint and largest at the
    point nearest 1/2."""
    top = min(max(0.5, lo), hi)
    return min(a * lo * (1.0 - lo), a * hi * (1.0 - hi)), b * top * (1.0 - top)


def support_intervals(
    lambda_bar: float, delta_lambda: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The smallest pair I_p, I_q that holds the two-cycle {p, q} at
    lambda_bar and that every rate in the window maps into itself with
    the sides swapped, as ((p_lo, p_hi), (q_lo, q_hi)): the interval
    hulls are grown by their images until they stop changing.

    DomainError once the two intervals meet (the support is one band, so
    the two-interval hypothesis of the two-cycle lemma fails);
    ConvergenceError past 200,000 images.  The window must lie
    strictly inside the two-cycle regime (DomainError otherwise).
    """
    a, b = lambda_bar - delta_lambda, lambda_bar + delta_lambda
    if classify_regime(a, b) != "period2":
        raise DomainError(f"window [{a}, {b}] must lie strictly inside ({LAMBDA_C2:g}, {LAMBDA_C4:g})")
    p, q = period2_points(lambda_bar)
    cur = (p, p, q, q)
    for _ in range(_MAX_IMAGES):
        p_lo, p_hi, q_lo, q_hi = cur
        (ip_lo, ip_hi), (iq_lo, iq_hi) = _image(a, b, q_lo, q_hi), _image(a, b, p_lo, p_hi)
        new = (min(p_lo, ip_lo), max(p_hi, ip_hi), min(q_lo, iq_lo), max(q_hi, iq_hi))
        if new[1] >= new[2]:
            raise DomainError(
                f"window [{a}, {b}]: I_p and I_q merge into one band (I_p reaches "
                f"{new[1]!r}, I_q starts at {new[2]!r}), so the two-cycle lemma does not apply"
            )
        if new == cur:
            return (p_lo, p_hi), (q_lo, q_hi)
        cur = new
    raise ConvergenceError(
        f"support intervals of window [{a}, {b}] still growing after {_MAX_IMAGES} images"
    )


def h_second_derivative(lambda_bar: float, x: float) -> float:
    """Second derivative of h(x) = u - u^2 + epsilon, u = lam*x*(1-x),
    the function with H(x) = lam*h(x) - x:

        h''(x) = -2(lam + lam^2) + 12 lam^2 (x - x^2)
    """
    lam = lambda_bar
    return -2.0 * (lam + lam * lam) + 12.0 * lam * lam * (x - x * x)


def convexity_on_interval(lambda_bar: float, interval: tuple[float, float]) -> bool:
    """True iff h'' > 0 on the whole interval.

    h'' is concave in x (a downward parabola), so its minimum over an
    interval is attained at an endpoint.
    """
    lo, hi = interval
    if not (0.0 <= lo <= hi <= 1.0):
        raise DomainError(f"interval must satisfy 0 <= lo <= hi <= 1, got {interval}")
    return min(h_second_derivative(lambda_bar, lo), h_second_derivative(lambda_bar, hi)) > 0.0


def _H_value(lam: float, eps: float, x: np.ndarray | float):
    t, d = lam * x - 2.0, lam - 3.0
    return lam * eps - x * (t - d) * (t * t - d * (t + 1.0))


def h_function_roots(
    lambda_bar: float, epsilon: float
) -> tuple[float, float, float, float]:
    """The four zeros of H(x) = lam*(u - u^2 + epsilon) - x, u = lam*x*(1-x),
    sorted ascending: x = (t + 2)/lam at the real roots of the quartic
    -lam*H = (t + 2)(t - d)(t^2 - d t - d) - lam^2 epsilon in
    t = lam*x - 2, d = lam - 3, each polished by one Newton step on H.  Its
    coefficients carry d itself, so the roots keep their digits next to
    lam = 3, where p, x* and q nearly meet.  At epsilon = 0 the zeros are
    {0, p, x*, q}; for small epsilon > 0, z_H < 0 < p < p_H < x*_H < x* < q < q_H.
    RootCountError unless all four are real and lie in [-0.5, 1.2].
    """
    lam, d = lambda_bar, lambda_bar - 3.0
    dd = d * d
    t = np.roots([1.0, 2.0 - 2.0 * d, dd - 5.0 * d, 3.0 * dd - 2.0 * d, 2.0 * dd - lam * lam * epsilon])
    x = (t[t.imag == 0.0].real + 2.0) / lam
    if len(x) != 4 or x.min() < -0.5 or x.max() > 1.2:
        raise RootCountError(
            f"H has real zeros {sorted(x.tolist())}, not four in [-0.5, 1.2] (lam={lam}, epsilon={epsilon})"
        )
    u = lam * x * (1.0 - x)
    x = x - _H_value(lam, epsilon, x) / (lam * lam * (1.0 - 2.0 * x) * (1.0 - 2.0 * u) - 1.0)
    return tuple(sorted(x.tolist()))  # type: ignore[return-value]
