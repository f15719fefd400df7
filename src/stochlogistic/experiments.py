"""Orchestrated experiments: bifurcation sweeps, evolution of an
initial distribution under the transfer operator, stochastic-versus-
deterministic mean comparisons with z-scored verdicts, the lemma
verification suite for the two-cycle regime, and the sign scanner for
the alternation of the mean inequality across period-2^rho regimes.

Both bifurcation sweeps share one in-place map step that draws as the
ensembles do; at zero half-width it draws nothing after the initial states.

Every experiment is a pure function of its configuration and seed;
reruns produce identical artifacts byte for byte.  The ensemble
experiments take their seed and averaging window from the
MonteCarloConfig alone (``replace(cfg, ...)`` derives a per-row seed or a
cycle-aligned window).  ``mean_comparison``, ``lemma_suite`` and
``flipflop_scan`` return the plain dicts their JSON artifacts hold, and
each flipflop row copies the ``mean_comparison`` values of its
period-2^rho window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .analytic import classify_regime, detect_period, periodic_orbit
from .errors import ConvergenceError, DomainError, RootCountError
from .maps import ParameterDistribution, stream_rng
from .measure import (
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

#: z threshold separating a conclusive verdict from Monte-Carlo noise.
Z_THRESHOLD = 3.0


# a record, not a dict: stochbench/spans.py::_sweep_steps counts its terminal_states and n_iter
@dataclass(frozen=True, eq=False)
class BifurcationDataset:
    """Terminal states of many initial conditions on a grid of rates."""

    kind: str  # "deterministic" or "stochastic"
    parameters: np.ndarray  # grid of rates (lambda or lambda_bar)
    terminal_states: np.ndarray  # shape (len(parameters), n_init)
    delta_lambda: float
    n_iter: int
    seed: int


def _rate_grid(lam_lo: float, lam_hi: float, step: float) -> np.ndarray:
    if step <= 0:
        raise DomainError(f"step must be > 0, got {step}")
    if lam_hi < lam_lo:
        raise DomainError(f"need lam_lo <= lam_hi, got [{lam_lo}, {lam_hi}]")
    n = int(round((lam_hi - lam_lo) / step))
    grid = lam_lo + step * np.arange(n + 1)
    # guard rounding drift at the top end
    grid[grid > lam_hi] = lam_hi
    return grid


def _sweep(
    kind: str, lam_lo: float, lam_hi: float, step: float, delta_lambda: float,
    n_init: int, n_iter: int, seed: int,
) -> BifurcationDataset:
    """Iterate n_init initial conditions n_iter times at every rate on the
    grid and record the final state of each.  The rows are one ensemble,
    drawn as ensembles are: ``uniform_ensemble`` starts and, for
    delta_lambda > 0, pf_step's rate rule each step, so a one-rate sweep
    is ``pf_iterate`` bit for bit."""
    grid = _rate_grid(lam_lo, lam_hi, step)
    ParameterDistribution(grid[0], delta_lambda)  # the rate law's check: delta >= 0, windows in [0, 4]
    ParameterDistribution(grid[-1], delta_lambda)
    if n_init < 1 or n_iter < 0:
        raise DomainError("need n_init >= 1 and n_iter >= 0")
    # one block, so the arrays' placement (and speed) is the same every call; x is copied out
    x, lam, t = np.empty((3, len(grid), n_init))
    x.flat = uniform_ensemble(x.size, seed).particles
    low = (grid - delta_lambda)[:, None]
    width = (grid + delta_lambda)[:, None] - low
    lam[...] = grid[:, None]
    for g in range(n_iter):
        if delta_lambda > 0:
            # u*w + low: the bits of uniform(low, high), as in pf_step
            stream_rng(seed, g + 1).random(out=lam)
            lam *= width
            lam += low
        # (lam*x)*(1-x) in place: the rounding of lam*x*(1-x), no new arrays
        np.multiply(lam, x, out=t)
        np.subtract(1.0, x, out=x)
        np.multiply(t, x, out=x)
    return BifurcationDataset(kind, grid, x.copy(), delta_lambda, n_iter, seed)


def deterministic_bifurcation(
    lam_lo: float, lam_hi: float, step: float, n_init: int, n_iter: int, seed: int
) -> BifurcationDataset:
    """The sweep at a fixed rate per grid point."""
    return _sweep("deterministic", lam_lo, lam_hi, step, 0.0, n_init, n_iter, seed)


def stochastic_bifurcation(
    lam_lo: float, lam_hi: float, step: float, delta_lambda: float,
    n_init: int, n_iter: int, seed: int,
) -> BifurcationDataset:
    """The sweep with each path's rate redrawn every step around its grid
    value; delta_lambda = 0 gives the deterministic sweep at the same seed."""
    return _sweep("stochastic", lam_lo, lam_hi, step, delta_lambda, n_init, n_iter, seed)


def distribution_evolution(
    dist: ParameterDistribution, n_particles: int, checkpoints: tuple[int, ...],
    seed: int, n_bins: int,
) -> list[Histogram]:
    """Histograms of a uniform initial ensemble pushed through the
    transfer operator, one per checkpoint generation, in checkpoint order."""
    cps = list(checkpoints)
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 0:
        raise DomainError("checkpoints must be non-negative and strictly ascending")
    ens = uniform_ensemble(n_particles, seed)
    out = []
    for target in cps:
        ens = pf_iterate(ens, dist, target - ens.generation)
        out.append(Histogram.from_samples(ens.particles, n_bins))
    return out


def _verdict(z: float) -> str:
    if z >= Z_THRESHOLD:
        return "stochastic_greater"
    if z <= -Z_THRESHOLD:
        return "stochastic_less"
    return "inconclusive"


def _z_score(diff: float, se: float) -> float:
    """diff/se, except that differences below float-noise scale are
    never meaningful however small the standard error (point-mass
    windows, extinction decay), and a nonzero difference at zero
    standard error is infinitely significant."""
    if abs(diff) < 1e-12:
        return 0.0
    if se == 0.0:
        return math.copysign(math.inf, diff)
    return diff / se


def _parity_window(cfg: MonteCarloConfig, period: int) -> MonteCarloConfig:
    """cfg with its window clipped to whole cycles of the given length."""
    if period > cfg.generations:
        raise DomainError(f"the window holds whole cycles, but the cycle length {period} "
                          f"exceeds the generations ({cfg.generations})")
    return replace(cfg, window=max(cfg.window - cfg.window % period, period))


def mean_comparison(
    lambda_bar: float, delta_lambda: float, cfg: MonteCarloConfig
) -> tuple[dict, Ensemble]:
    """Compare the converged stochastic mean against the mean of the
    attracting cycle of the fixed-rate map at lambda_bar; returns the
    report and the ensemble's final snapshot, at cfg.generations.

    The report is a dict with keys, in order: lambda_bar, delta_lambda,
    regime, period, stochastic_mean, stochastic_se, deterministic_mean,
    difference, z_score, verdict, n_particles, generations, window, seed.

    The window of the rates must sit strictly inside one regime.  The
    stochastic mean pools the trailing window of generations (clipped to
    a multiple of the cycle length so both cycle phases contribute
    equally); its standard error comes from the spread of per-particle
    time averages, which are independent across particles.
    """
    regime = classify_regime(lambda_bar - delta_lambda, lambda_bar + delta_lambda)
    orbit = periodic_orbit(lambda_bar)
    period, det_mean = len(orbit), float(np.mean(orbit))
    cfg = _parity_window(cfg, period)
    stoch_mean, se, final = ensemble_time_mean(ParameterDistribution(lambda_bar, delta_lambda), cfg)
    diff = stoch_mean - det_mean
    z = _z_score(diff, se)
    return {
        "lambda_bar": lambda_bar, "delta_lambda": delta_lambda, "regime": regime, "period": period,
        "stochastic_mean": stoch_mean, "stochastic_se": se, "deterministic_mean": det_mean,
        "difference": diff, "z_score": z, "verdict": _verdict(z), "n_particles": cfg.n_particles,
        "generations": cfg.generations, "window": cfg.window, "seed": cfg.seed,
    }, final


def _analytic_bounds(ladder) -> tuple[list[float], bool]:
    """Check (iv)'s bound |I_q(h)|**2/h per rung, and whether it falls strictly along the ladder."""
    bounds = [(i_q[1] - i_q[0]) ** 2 / h for h, (_, i_q) in ladder]
    return bounds, all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def _variance_ladder(lambda_bar: float) -> list[tuple[float, tuple]]:
    """(h, support_intervals(lambda_bar, h)) for h = h0, h0/2, h0/4, h0/8,
    with h0 halved from 0.05 until the four windows fit the two-cycle
    regime and the analytic bound falls along them: next to 1 + sqrt(6)
    |I_q| grows more slowly than h until h is small."""
    h0 = 0.05
    while True:
        try:
            ladder = [(h, analytic.support_intervals(lambda_bar, h)) for h in (h0, h0 / 2, h0 / 4, h0 / 8)]
            if _analytic_bounds(ladder)[1]:
                return ladder
            reason = f"the bound |I_q|**2/h does not fall from h={h0!r} to h={h0 / 8!r}"
        except DomainError as exc:
            reason = str(exc)
        h0 /= 2
        if h0 < 1e-6:
            raise DomainError(f"no variance ladder h, h/2, h/4, h/8 with 1e-06 <= h <= 0.05 fits "
                              f"the two-cycle regime at lambda_bar={lambda_bar}: {reason}")


def _root_chain_check(lambda_bar: float) -> dict:
    p, q = analytic.period2_points(lambda_bar)
    x_star = analytic.fixed_point(lambda_bar)
    # quarter epsilon, to 3.6e-15, until H has four real zeros: next to lam = 3 only a tiny one does
    for eps in (1e-3 / 4**k for k in range(20)):
        try:
            roots = analytic.h_function_roots(lambda_bar, eps)
            break
        except RootCountError:
            pass
    else:
        return {"name": "shifted_root_ordering", "passed": False, "details": {"error": "no four roots"}}
    z_h, p_h, xs_h, q_h = roots
    ok = z_h < 0.0 < p < p_h < xs_h < x_star < q < q_h
    return {
        "name": "shifted_root_ordering",
        "passed": bool(ok),
        "details": {"epsilon": eps, "roots": list(roots), "p": p, "x_star": x_star, "q": q},
    }


def lemma_suite(lambda_bar: float, delta_lambda: float, cfg: MonteCarloConfig) -> dict:
    """Run the numerical verification chain behind the two-cycle mean
    inequality and report each step.

    The report is a dict with keys, in order: lambda_bar, delta_lambda,
    seed, passed (all checks pass) and checks, a list of one dict per
    check with keys name, passed and details (a dict of the check's
    numbers), in the order below.

    Checks: (i) support containment in the invariant intervals I_p, I_q
    and the ordering p_hi < x*(a) <= x*(b) < q_lo, (ii) the pushforward
    identity E_right[X] = lam*(E_left[X] - E_left[X^2]), (iii) the left-peak
    shift E_left[X] > p(lam), (iv) decay of the right-peak variance
    ratio V(h)/h together with its analytic bound, (v) the ordering of
    the shifted comparison-function roots, (vi) convexity of h on I_p.
    """
    i_p, i_q = analytic.support_intervals(lambda_bar, delta_lambda)
    dist = ParameterDistribution(lambda_bar, delta_lambda)
    checks: list[dict] = []

    # (i) the fixed point between the intervals + containment of a converged snapshot
    ordering_ok = i_p[1] < analytic.fixed_point(dist.low) <= analytic.fixed_point(dist.high) < i_q[0]
    # the variance ladder's ensembles share the seed, so they advance in
    # lockstep with the stationary run and reuse its variates
    ladder = _variance_ladder(lambda_bar)
    stats = stationary_stats(
        dist, _parity_window(cfg, 2),
        companions=tuple(ParameterDistribution(lambda_bar, h) for h, _ in ladder),
    )
    x = stats.final.particles
    inside = ((i_p[0] - 1e-9 <= x) & (x <= i_p[1] + 1e-9)) | ((i_q[0] - 1e-9 <= x) & (x <= i_q[1] + 1e-9))
    fraction = float(inside.mean())
    checks.append({
        "name": "support_containment_and_ordering",
        "passed": bool(ordering_ok and fraction == 1.0),
        "details": {
            "ordering_ok": ordering_ok,
            "containment_fraction": fraction,
            "n_outside": int((~inside).sum()),
            "I_p": list(i_p),
            "I_q": list(i_q),
        },
    })

    # (ii) pushforward identity, per-particle statistic
    g_pp = stats.right_mean_pp - lambda_bar * (stats.left_mean_pp - stats.left_sq_pp)
    g = float(g_pp.mean())
    g_se = standard_error(g_pp)
    checks.append({
        "name": "pushforward_identity",
        "passed": abs(_z_score(g, g_se)) <= 4.0,
        "details": {"statistic": g, "se": g_se, "threshold_se": 4.0},
    })

    # (iii) left-peak shift above p(lambda_bar)
    p_center, _ = analytic.period2_points(lambda_bar)
    gap_pp = stats.left_mean_pp - p_center
    gap = float(gap_pp.mean())
    gap_se = standard_error(gap_pp)
    if delta_lambda == 0.0:
        shift_ok = abs(gap) <= 1e-9
        z_gap = 0.0
    else:
        z_gap = _z_score(gap, gap_se)
        shift_ok = z_gap >= Z_THRESHOLD
    checks.append({
        "name": "left_peak_shift",
        "passed": bool(shift_ok),
        "details": {"gap": gap, "se": gap_se, "z": z_gap, "p": p_center},
    })

    # (iv) right-peak variance ratio V(h)/h decay with analytic bound
    ratios, ses = [], []
    for (h, _), final in zip(ladder, stats.companion_finals):
        v, se = variance_of_right_peak(lambda_bar, final)
        ratios.append(v / h)
        ses.append(se / h)
    monotone = all(
        ratios[i + 1] <= ratios[i] + Z_THRESHOLD * math.hypot(ses[i], ses[i + 1])
        for i in range(len(ratios) - 1)
    )
    bounds, bound_decreasing = _analytic_bounds(ladder)
    checks.append({
        "name": "right_variance_decay",
        "passed": bool(monotone and bound_decreasing),
        "details": {"h": [h for h, _ in ladder], "ratio": ratios, "ratio_se": ses, "analytic_bound": bounds},
    })

    # (v) shifted-root ordering
    checks.append(_root_chain_check(lambda_bar))

    # (vi) convexity of h on I_p
    convex = analytic.convexity_on_interval(lambda_bar, i_p)
    checks.append({"name": "left_interval_convexity", "passed": bool(convex), "details": {"I_p": list(i_p)}})

    return {
        "lambda_bar": lambda_bar,
        "delta_lambda": delta_lambda,
        "seed": cfg.seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


#: Flipflop row columns copied from the row's mean_comparison report, after "rho".
_FROM_COMPARISON = (
    "period", "lambda_bar", "delta_lambda", "stochastic_mean", "stochastic_se",
    "deterministic_mean", "difference", "z_score",
)


#: Window center per doubling level (see _window_for_rho).
_RHO_CENTERS = {1: 3.208, 2: 3.508, 3: 3.5542420703124997, 4: 3.5665659765625,
                5: 3.5691923828125, 6: 3.5697984765625}


def _window_for_rho(rho: int, delta_lambda: float) -> tuple[float, float]:
    """(lambda_bar, usable half-width) inside the stable period-2^rho
    regime: the tabulated center, with the requested half-width halved,
    while it stays >= 1e-6, until both ends carry the cycle length.  The
    rho >= 3 centers are the mean of the longest run of period-2^rho rates on
    linspace(3.54409, LAMBDA_C2_OMEGA, 257)[1:-1], the grid they were made on,
    under the tolerance scan frozen as ``tests/oracles.py::cascade_scan_period``,
    which a test reruns; it finds no period 128."""
    target, center, delta = 2**rho, _RHO_CENTERS[rho], delta_lambda
    while True:
        try:
            if detect_period(center - delta) == target and detect_period(center + delta) == target:
                return center, delta
        except (ConvergenceError, DomainError):
            pass
        delta /= 2.0
        if delta < 1e-6:
            raise ConvergenceError(
                f"could not shrink a window at {center} onto the period-{target} regime"
            )


def flipflop_scan(rho_values: tuple[int, ...], delta_lambda: float, cfg: MonteCarloConfig) -> dict:
    """Sign table of (stochastic mean - deterministic cycle mean) across
    period-2^rho regimes.

    The table is a dict with keys, in order: delta_lambda, seed and rows,
    a list of one dict per rho with keys, in order: rho, then
    _FROM_COMPARISON (period, lambda_bar, delta_lambda, stochastic_mean,
    stochastic_se, deterministic_mean, difference, z_score) taken from
    the ``mean_comparison`` report of the rho window, run at seed
    cfg.seed + rho, then sign (of the difference), verdict, and ci_low,
    ci_high (a 3-sigma confidence interval).  rho = 1 and 2 keep the
    report's verdict at the usual z threshold; rows with rho >= 3 are
    exploratory (conjectured alternation) and carry the interval instead
    of a pass/fail claim.
    Every rho is checked before any row runs: DomainError for a level
    without a tabulated window, or for a row seed past 2**64 - 1.
    """
    if not (math.isfinite(delta_lambda) and delta_lambda > 0):
        raise DomainError(f"delta_lambda must be finite and > 0 for the scan, got {delta_lambda}")
    if bad := [rho for rho in rho_values if rho not in _RHO_CENTERS]:
        raise DomainError(f"rho must be one of {sorted(_RHO_CENTERS)}, the levels with a stable "
                          f"period-2**rho window below {analytic.LAMBDA_C2_OMEGA}; got {bad}")
    if cfg.seed + (top := max(rho_values, default=0)) >= 2**64:
        raise DomainError(f"row rho={top} runs at seed {cfg.seed} + {top}, past 2**64 - 1; "
                          f"the largest usable --seed is {2**64 - 1 - top}")
    rows = []
    for rho in rho_values:
        center, delta = _window_for_rho(rho, delta_lambda)
        rep, _ = mean_comparison(center, delta, replace(cfg, seed=cfg.seed + rho))
        diff, half = rep["difference"], Z_THRESHOLD * rep["stochastic_se"]
        rows.append({
            "rho": rho,
            **{k: rep[k] for k in _FROM_COMPARISON},
            "sign": "+" if diff > 0 else ("-" if diff < 0 else "0"),
            "verdict": "exploratory" if rho >= 3 else rep["verdict"],
            "ci_low": diff - half,
            "ci_high": diff + half,
        })
    return {"delta_lambda": delta_lambda, "seed": cfg.seed, "rows": rows}
