"""Workloads of the stochlogistic benchmark and the checks on their artifacts.

A workload is a fixed list of operations; an operation is one CLI
subcommand invocation together with the checks on the artifacts it
writes.  Only the program seed changes with the benchmark seed, so the
work of a round is the same for every seed and on every commit.

The checks never compare against stored output.  They compare against
values the benchmark computes itself (closed-form cycle means, cycles
it iterates itself, closed-form support intervals) and against
properties the method must have (verdict signs, histogram mass, state
bounds, row counts, artifacts that parse).  This module does not import
stochlogistic.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: Absolute tolerance for values the program and the benchmark compute
#: by different routes.
TOL = 1e-12

LEMMA_CHECKS = (
    "support_containment_and_ordering",
    "pushforward_identity",
    "left_peak_shift",
    "right_variance_decay",
    "shifted_root_ordering",
    "left_interval_convexity",
)

KNOWN_VERIFY_FAULT = (
    "verify check (i) support_containment_and_ordering: analytic.support_intervals "
    "is not invariant under the random map, so part of a converged ensemble lies "
    "outside I_q"
)


@dataclass
class Outcome:
    """Result of checking one operation's artifacts.

    ``problems`` are unexpected faults and make the run incorrect;
    ``known_fault`` marks the operation as failed for a documented reason.
    """

    problems: list[str] = field(default_factory=list)
    known_fault: str | None = None

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass(frozen=True)
class Op:
    """One subcommand invocation.

    ``args`` builds the flags after the subcommand (without --seed and
    --outdir) from the round directory, where earlier operations of the
    round left their artifacts.  ``steps`` counts the logistic-map
    applications of the ensembles and sweeps the requested results need.
    ``check`` takes the operation's directory, the round directory and
    the text the program printed.
    """

    name: str
    sub: str
    args: Callable[[Path], list[str]]
    steps: int
    check: Callable[[Path, Path, str], Outcome]


# ---------------------------------------------------------------------------
# Independent references


def fixed_point(lam: float) -> float:
    return (lam - 1.0) / lam


def two_cycle(lam: float) -> tuple[float, float]:
    root = math.sqrt((lam - 3.0) * (lam + 1.0))
    return (lam + 1.0 - root) / (2.0 * lam), (lam + 1.0 + root) / (2.0 * lam)


def cycle(lam: float, burn: int = 20_000, tol: float = 1e-9, max_period: int = 64) -> list[float]:
    """Attracting cycle of x -> lam x (1-x) reached from x0 = 1/2 (empty if
    no cycle of length <= max_period is found)."""
    x = 0.5
    for _ in range(burn):
        x = lam * x * (1.0 - x)
    orbit = []
    for _ in range(2 * max_period):
        x = lam * x * (1.0 - x)
        orbit.append(x)
    for k in range(1, max_period + 1):
        if all(abs(orbit[i + k] - orbit[i]) < tol for i in range(max_period)):
            return orbit[:k]
    return []


def cycle_mean(lam: float, period: int) -> float:
    if period == 1:
        return fixed_point(lam)
    if period == 2:
        return (lam + 1.0) / (2.0 * lam)
    return sum(cycle(lam)) / period


def support_intervals(lambda_bar: float, delta: float) -> tuple[list[float], list[float]]:
    """Closed-form I_p, I_q: one-step images of the two-cycle intervals
    over the rate window [a, b]."""
    a, b = lambda_bar - delta, lambda_bar + delta
    (p_minus, q_minus), (p_plus, q_plus) = two_cycle(a), two_cycle(b)
    i_p = [a * q_plus * (1.0 - q_plus), b * q_minus * (1.0 - q_minus)]
    q_hi = max(b * p_plus * (1.0 - p_plus), b * p_minus * (1.0 - p_minus))
    if p_plus <= 0.5 <= p_minus:
        q_hi = max(q_hi, b / 4.0)
    return i_p, [min(q_minus, a * p_plus * (1.0 - p_plus)), q_hi]


def invariant_intervals(lambda_bar: float, delta: float) -> tuple[list[float], list[float]]:
    """Smallest pair of intervals that holds the two-cycle at lambda_bar
    and is mapped into itself (sides swapped) by every rate in the
    window: iterate interval images to a fixed point."""

    def image(lo: float, hi: float) -> tuple[float, float]:
        top = min(max(0.5, lo), hi)
        return a * min(lo * (1 - lo), hi * (1 - hi)), b * top * (1 - top)

    a, b = lambda_bar - delta, lambda_bar + delta
    p, q = two_cycle(lambda_bar)
    jp, jq = [p, p], [q, q]
    while True:
        (pl, ph), (ql, qh) = image(*jq), image(*jp)
        new_p = [min(jp[0], pl), max(jp[1], ph)]
        new_q = [min(jq[0], ql), max(jq[1], qh)]
        if new_p == jp and new_q == jq:
            return jp, jq
        jp, jq = new_p, new_q


def rate_grid(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


# ---------------------------------------------------------------------------
# Artifact readers


def artifacts(opdir: Path, exts: tuple[str, ...], out: Outcome) -> dict[str, Path]:
    """The operation's artifacts by extension; each must exist once."""
    found = {p.suffix[1:]: p for p in sorted(opdir.iterdir())} if opdir.is_dir() else {}
    out.expect(sorted(found) == sorted(exts), f"artifacts {sorted(found)}, expected {sorted(exts)}")
    for ext, path in found.items():
        if ext == "svg":
            root = ET.parse(path).getroot()
            out.expect(root.tag.endswith("svg"), f"{path.name}: root element {root.tag}")
    return found


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def same_value(text: str, value) -> bool:
    """A CSV cell and the JSON value of the same field agree."""
    if isinstance(value, str):
        return text == value
    return float(text) == float(value)


def flipflop_row(rounddir: Path, rho: int) -> dict:
    (path,) = (rounddir / "flipflop").glob("*.json")
    return next(r for r in read_json(path)["rows"] if r["rho"] == rho)


# ---------------------------------------------------------------------------
# Checks per subcommand

_REGIME = {1: "period1", 2: "period2", 4: "period4"}


def check_compare(
    window: Callable[[Path], tuple[float, float]],
    period: int,
    verdict: Callable[[Path], str],
    seed: int,
    sizes: tuple[int, int, int],
) -> Callable[[Path, Path, str], Outcome]:
    """compare: the deterministic mean against the benchmark's own cycle
    mean, the expected verdict, CSV/JSON agreement, parseable SVG."""
    n, g, w = sizes

    def check(opdir: Path, rounddir: Path, printed: str) -> Outcome:
        out = Outcome()
        files = artifacts(opdir, ("csv", "json", "svg"), out)
        rep = read_json(files["json"])
        lambda_bar, delta = window(rounddir)
        expected = {
            "lambda_bar": lambda_bar,
            "delta_lambda": delta,
            "regime": _REGIME[period],
            "period": period,
            "n_particles": n,
            "generations": g,
            "window": max(w - w % period, period),
            "seed": seed,
        }
        for key, value in expected.items():
            out.expect(rep.get(key) == value, f"compare {key}={rep.get(key)!r}, expected {value!r}")
        ref = cycle_mean(lambda_bar, period)
        out.expect(
            abs(rep["deterministic_mean"] - ref) <= TOL,
            f"deterministic_mean {rep['deterministic_mean']!r}, own cycle mean {ref!r}",
        )
        out.expect(
            rep["difference"] == rep["stochastic_mean"] - rep["deterministic_mean"],
            "difference is not stochastic_mean - deterministic_mean",
        )
        out.expect(0.0 < rep["stochastic_mean"] < 1.0 and rep["stochastic_se"] > 0.0,
                   "stochastic mean outside (0, 1) or zero standard error")
        want = verdict(rounddir)
        out.expect(rep["verdict"] == want, f"verdict {rep['verdict']}, expected {want}")
        out.expect(f"-> {rep['verdict']}" in printed, "printed verdict differs from the JSON")
        rows = read_csv(files["csv"])
        out.expect(len(rows) == 2 and set(rows[0]) == set(rep), "compare CSV is not one header and one row")
        if len(rows) == 2:
            out.expect(all(same_value(c, rep[k]) for k, c in zip(rows[0], rows[1]) if k in rep),
                       "compare CSV and JSON disagree")
        return out

    return check


def check_verify(
    lambda_bar: float, delta: float, seed: int, exts: tuple[str, ...]
) -> Callable[[Path, Path, str], Outcome]:
    """verify: all six lemma checks must pass.  Check (i) failing alone,
    with part of the ensemble outside an I_q that starts above the
    invariant interval's lower end, is the known fault.  The reported
    I_p, I_q must be today's closed form or, once the fault is fixed,
    an ordered pair that holds the invariant pair."""
    i_p, i_q = support_intervals(lambda_bar, delta)
    invariant_p, invariant_q = invariant_intervals(lambda_bar, delta)

    def holds_invariant(got_p: list[float], got_q: list[float]) -> bool:
        inside = all(
            got[0] <= inv[0] + TOL and inv[1] - TOL <= got[1]
            for got, inv in ((got_p, invariant_p), (got_q, invariant_q))
        )
        return inside and got_p[1] < got_q[0]

    def check(opdir: Path, rounddir: Path, printed: str) -> Outcome:
        out = Outcome()
        files = artifacts(opdir, exts, out)
        rep = read_json(files["json"])
        out.expect(
            (rep["lambda_bar"], rep["delta_lambda"], rep["seed"]) == (lambda_bar, delta, seed),
            "verify report is for other inputs",
        )
        checks = {c["name"]: c for c in rep["checks"]}
        out.expect(tuple(checks) == LEMMA_CHECKS, f"lemma checks {list(checks)}")
        for name, c in checks.items():
            line = f"{name}: {'PASS' if c['passed'] else 'FAIL'}"
            out.expect(line in printed.splitlines(), f"printed report lacks {line!r}")
        out.expect(rep["passed"] == all(c["passed"] for c in checks.values()), "inconsistent 'passed'")
        details = checks[LEMMA_CHECKS[0]]["details"]
        closed_form = all(abs(u - v) <= TOL for u, v in zip(details["I_p"] + details["I_q"], i_p + i_q))
        out.expect(
            closed_form or holds_invariant(details["I_p"], details["I_q"]),
            f"I_p, I_q {details['I_p']} {details['I_q']}: neither the closed form {i_p} {i_q} "
            f"nor an ordered pair holding the invariant {invariant_p} {invariant_q}",
        )
        out.expect(details["ordering_ok"], "ordering chain reported broken")
        if "csv" in files:
            rows = read_csv(files["csv"])
            want = [["check", "passed"]] + [[n, str(c["passed"])] for n, c in checks.items()]
            out.expect(rows == want, "verify CSV and JSON disagree")
        failing = [name for name, c in checks.items() if not c["passed"]]
        if failing == [LEMMA_CHECKS[0]] and details["containment_fraction"] < 1.0 and (
            invariant_q[0] < details["I_q"][0]
        ):
            out.known_fault = KNOWN_VERIFY_FAULT
        elif failing:
            out.problems.append(f"lemma checks failed: {failing}")
        return out

    return check


def check_flipflop(
    delta: float, seed: int, rhos: tuple[int, ...]
) -> Callable[[Path, Path, str], Outcome]:
    """flipflop: each row's window carries a cycle of length 2^rho by the
    benchmark's own iteration; cycle means, ρ=1 verdict, CSV agreement."""

    def check(opdir: Path, rounddir: Path, printed: str) -> Outcome:
        out = Outcome()
        files = artifacts(opdir, ("csv", "json"), out)
        rep = read_json(files["json"])
        out.expect((rep["delta_lambda"], rep["seed"]) == (delta, seed), "flipflop report is for other inputs")
        rows = rep["rows"]
        out.expect([r["rho"] for r in rows] == list(rhos), f"rows for rho {[r['rho'] for r in rows]}")
        for r in rows:
            period = 2 ** r["rho"]
            lam, d = r["lambda_bar"], r["delta_lambda"]
            lengths = [len(cycle(v)) for v in (lam - d, lam, lam + d)]
            out.expect(r["period"] == period and lengths == [period] * 3,
                       f"rho={r['rho']}: period {r['period']}, own cycle lengths {lengths}")
            if lengths[1] == period:
                out.expect(abs(r["deterministic_mean"] - cycle_mean(lam, period)) <= TOL,
                           f"rho={r['rho']}: deterministic mean differs from the own cycle mean")
            diff = r["stochastic_mean"] - r["deterministic_mean"]
            out.expect(r["difference"] == diff, f"rho={r['rho']}: inconsistent difference")
            out.expect(r["sign"] == ("+" if diff > 0 else "-" if diff < 0 else "0"),
                       f"rho={r['rho']}: sign {r['sign']} for difference {diff}")
            out.expect(r["ci_low"] <= diff <= r["ci_high"], f"rho={r['rho']}: CI excludes the difference")
            out.expect(f"rho={r['rho']} (period {r['period']})" in printed, f"rho={r['rho']} not printed")
        first = rows[0]
        out.expect(first["verdict"] == "stochastic_greater" and first["sign"] == "+",
                   f"rho=1 verdict {first['verdict']}, expected stochastic_greater")
        out.expect(all(r["verdict"] == "exploratory" for r in rows if r["rho"] >= 3),
                   "rho>=3 rows must be exploratory")
        table = read_csv(files["csv"])
        out.expect(len(table) == len(rows) + 1, f"flipflop CSV has {len(table)} lines")
        for cells, r in zip(table[1:], rows):
            out.expect(all(same_value(c, r[k]) for k, c in zip(table[0], cells)),
                       f"rho={r['rho']}: CSV and JSON disagree")
        return out

    return check


def check_evolve(
    lambda_bar: float, delta: float, seed: int, n: int, checkpoints: tuple[int, ...], bins: int
) -> Callable[[Path, Path, str], Outcome]:
    """evolve: every snapshot holds all n particles, none in a bin wholly
    above (lambda_bar + delta)/4 after the first step."""
    top = (lambda_bar + delta) / 4.0

    def check(opdir: Path, rounddir: Path, printed: str) -> Outcome:
        out = Outcome()
        files = artifacts(opdir, ("csv", "json", "svg"), out)
        rep = read_json(files["json"])
        out.expect((rep["lambda_bar"], rep["delta_lambda"], rep["seed"]) == (lambda_bar, delta, seed),
                   "evolve report is for other inputs")
        snaps = rep["snapshots"]
        out.expect([s["generation"] for s in snaps] == list(checkpoints), "snapshot generations")
        for s in snaps:
            edges, counts = s["edges"], s["counts"]
            out.expect(len(edges) == bins + 1 and edges[0] == 0.0 and edges[-1] == 1.0,
                       f"generation {s['generation']}: bad edges")
            out.expect(sum(counts) == n, f"generation {s['generation']}: counts sum to {sum(counts)}")
            if s["generation"] >= 1:
                above = sum(c for lo, c in zip(edges, counts) if lo > top)
                out.expect(above == 0, f"generation {s['generation']}: {above} particles above {top}")
        rows = read_csv(files["csv"])
        out.expect(len(rows) == len(checkpoints) * bins + 1, f"evolve CSV has {len(rows)} lines")
        csv_counts = [int(r[3]) for r in rows[1:]]
        out.expect(csv_counts == [c for s in snaps for c in s["counts"]], "evolve CSV and JSON counts disagree")
        return out

    return check


def check_bifurcation(
    kind: str,
    lo: float,
    hi: float,
    step: float,
    delta: float,
    n_init: int,
    n_iter: int,
    seed: int,
    exts: tuple[str, ...],
) -> Callable[[Path, Path, str], Outcome]:
    """bifurcation: row count, grid, state bounds; the deterministic sweep
    also against closed forms where the orbit has converged."""
    grid = rate_grid(lo, hi, step)

    def check(opdir: Path, rounddir: Path, printed: str) -> Outcome:
        out = Outcome()
        files = artifacts(opdir, exts, out)
        with open(files["csv"], encoding="utf-8") as fh:
            header = fh.readline().strip()
        out.expect(header == "parameter,terminal_state", f"bifurcation CSV header {header!r}")
        table = np.loadtxt(files["csv"], delimiter=",", skiprows=1, ndmin=2)
        out.expect(table.shape == (len(grid) * n_init, 2), f"bifurcation CSV shape {table.shape}")
        if table.shape != (len(grid) * n_init, 2):
            return out
        lam = table[:, 0]
        x = table[:, 1].reshape(len(grid), n_init)
        out.expect(np.all(np.abs(lam - np.repeat(grid, n_init)) <= TOL), "rate grid differs")
        if kind == "stochastic":
            bound = (grid + delta)[:, None] / 4.0
        else:
            bound = grid[:, None] / 4.0
        out.expect(bool(np.all((x >= 0.0) & (x <= bound * (1 + TOL)))), "states outside [0, rate/4]")
        if kind == "deterministic":
            rates = grid[:, None]
            extinct = grid <= 0.9
            out.expect(bool(np.all(np.abs(x[extinct]) <= TOL)), "states not 0 for rates <= 0.9")
            fixed = (grid >= 1.1) & (grid <= 2.9)
            err = np.abs(x[fixed] - fixed_point(rates[fixed]))
            out.expect(bool(np.all(err <= TOL)), f"fixed-point states off by {err.max():.3g}")
            two = (grid >= 3.1) & (grid <= 3.4)
            r = rates[two]
            root = np.sqrt((r - 3.0) * (r + 1.0))
            p, q = (r + 1.0 - root) / (2.0 * r), (r + 1.0 + root) / (2.0 * r)
            err = np.minimum(np.abs(x[two] - p), np.abs(x[two] - q))
            out.expect(bool(np.all(err <= TOL)), f"two-cycle states off by {err.max():.3g}")
        if "json" in files:
            rep = read_json(files["json"])
            out.expect(
                (rep["kind"], rep["delta_lambda"], rep["n_iter"], rep["seed"]) == (kind, delta, n_iter, seed),
                "bifurcation report is for other inputs",
            )
            out.expect(np.array_equal(np.array(rep["parameters"]), lam[::n_init]), "JSON and CSV rates differ")
            out.expect(np.array_equal(np.array(rep["terminal_states"]), x), "JSON and CSV states differ")
        if "svg" in files:
            dots = sum(1 for el in ET.parse(files["svg"]).iter() if el.tag.endswith("circle"))
            out.expect(dots == x.size, f"scatter has {dots} dots for {x.size} states")
        return out

    return check


# ---------------------------------------------------------------------------
# Workloads


def _fixed(*args: str) -> Callable[[Path], list[str]]:
    return lambda rounddir: list(args)


def _sizes(n: int, g: int, w: int) -> tuple[str, ...]:
    return ("--particles", str(n), "--generations", str(g), "--window", str(w))


def _verify(lambda_bar: float, delta: float, seed: int, n: int, g: int, w: int, exts: tuple[str, ...]) -> Op:
    flags = ("--lambda-bar", f"{lambda_bar:g}", "--delta", f"{delta:g}", *_sizes(n, g, w), "--format", ",".join(exts))
    # one stationary ensemble and four for the variance ladder
    return Op("verify", "verify", _fixed(*flags), 5 * n * g, check_verify(lambda_bar, delta, seed, exts))


def _bifurcation(
    kind: str, lo: float, hi: float, step: float, delta: float, n_init: int, n_iter: int, seed: int,
    exts: tuple[str, ...],
) -> Op:
    flags = ["--kind", kind, "--from", f"{lo:g}", "--to", f"{hi:g}", "--step", f"{step:g}",
             "--n-init", str(n_init), "--n-iter", str(n_iter), "--format", ",".join(exts)]
    if kind == "stochastic":
        flags += ["--delta", f"{delta:g}"]
    return Op(
        f"bifurcation-{kind}", "bifurcation", _fixed(*flags),
        len(rate_grid(lo, hi, step)) * n_init * n_iter,
        check_bifurcation(kind, lo, hi, step, delta, n_init, n_iter, seed, exts),
    )


def verify_20k(seed: int) -> list[Op]:
    return [_verify(3.2, 0.05, seed, 20_000, 400, 200, ("json",))]


def _rho2_window(rounddir: Path) -> tuple[float, float]:
    row = flipflop_row(rounddir, 2)
    return row["lambda_bar"], row["delta_lambda"]


def desk_session(seed: int) -> list[Op]:
    n, g, w = 2000, 1000, 500
    every = ("--format", "csv,json,svg")
    checkpoints, bins = (0, 1, 10, 100, 1000), 200

    def compare(period: int, window, verdict) -> Op:
        def args(rounddir: Path) -> list[str]:
            lambda_bar, delta = window(rounddir)
            return ["--lambda-bar", repr(lambda_bar), "--delta", repr(delta), *_sizes(n, g, w), *every]

        return Op(f"compare-period{period}", "compare", args, n * g,
                  check_compare(window, period, verdict, seed, (n, g, w)))

    return [
        compare(1, lambda _: (2.8, 0.1), lambda _: "stochastic_less"),
        compare(2, lambda _: (3.2, 0.05), lambda _: "stochastic_greater"),
        _verify(3.2, 0.05, seed, n, g, w, ("csv", "json")),
        Op("flipflop", "flipflop",
           _fixed("--rho", "1,2,3", "--delta", "0.024", *_sizes(n, g, w), "--format", "csv,json"),
           3 * n * g, check_flipflop(0.024, seed, (1, 2, 3))),
        # the period-4 window is the one flipflop picked for rho=2
        compare(4, _rho2_window, lambda rounddir: flipflop_row(rounddir, 2)["verdict"]),
        Op("evolve", "evolve",
           _fixed("--lambda-bar", "3.2", "--delta", "0.05", "--particles", str(n),
                  "--checkpoints", ",".join(map(str, checkpoints)), "--bins", str(bins), *every),
           n * checkpoints[-1], check_evolve(3.2, 0.05, seed, n, checkpoints, bins)),
        # the default sweep over [0, 4] at a tenth of its resolution: 401 x 100 states, a 40k-row CSV
        _bifurcation("deterministic", 0.0, 4.0, 0.01, 0.0, 100, 1000, seed, ("csv",)),
        _bifurcation("stochastic", 2.9, 3.5, 0.01, 0.02, 50, 500, seed, ("csv", "json", "svg")),
    ]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "verify-20k": verify_20k,
    "desk-session": desk_session,
}
