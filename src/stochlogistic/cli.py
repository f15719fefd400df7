"""Command-line front end.

Subcommands map one-to-one onto the experiment operations:

  bifurcation   terminal-state sweep over a grid of growth rates
  evolve        histogram snapshots of the evolving state distribution
  compare       stochastic mean vs deterministic cycle mean, with verdict
  verify        the lemma verification suite for a two-cycle window
  flipflop      sign table of the mean inequality across 2^rho regimes

Artifacts are written as CSV/JSON/SVG, in that order, under the output
directory (--outdir, else $STOCHLOGISTIC_OUTDIR, else the working
directory) with names <subcommand>-<lambda_bar>-<delta>-<seed>.<ext>,
every digit kept; verify and flipflop have no drawing and reject --format
svg.  Settings come from defaults, then an optional flat key=value config
file (--config), then explicit flags, in increasing precedence, all filled
in _resolve; --scale (compare, verify and flipflop) picks the row of
_SCALES that sizes what no flag or key sets, its window clipped to the
generations.  OPTIONS defines every flag and config key, and a config
file may set only its subcommand's flags.  A default fills a setting
only when it is missing, so an explicit zero is validated, never
replaced.  The seed, in [0, 2**64), defaults to 12345, never the clock.

Importing this module loads no numpy: --help, argparse rejections,
config-file errors and _resolve's checks return before _mc_config or a
_run_* function imports the computing modules it needs.

Exit codes: 0 success, 2 for bad input (an argparse rejection or a
DomainError), 1 for any other failure, a ConvergenceError among them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path

from .errors import DomainError

ENV_OUTDIR = "STOCHLOGISTIC_OUTDIR"

_FORMATS = ("csv", "json", "svg")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    if not 0 <= (value := int(text)) < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64), got {text!r}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _format_list(text: str) -> tuple[str, ...]:
    fmts = tuple(text.split(","))
    bad = [f for f in fmts if f not in _FORMATS]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown output format(s) {bad}; choose from {_FORMATS}")
    return fmts


_SCALES = {"desk": (2000, 2000, 1000), "paper": (20_000, 10_000, 5000)}
_SEED = 12345

#: Every setting: key -> (flag, converter from the raw string, default,
#: further add_argument keywords).  A default of None is filled by
#: _resolve from the --scale row of _SCALES (particles, generations,
#: window) or per subcommand (format).
OPTIONS = {
    "lambda_bar": ("--lambda-bar", _finite, None, {}),
    "delta": ("--delta", _finite, 0.0, {"help": "noise half-width of the growth rate"}),
    "lam_from": ("--from", _finite, 0.0, {}),
    "lam_to": ("--to", _finite, 4.0, {}),
    "step": ("--step", _finite, 0.001, {}),
    "kind": ("--kind", str, "deterministic", {"choices": ("deterministic", "stochastic")}),
    "n_init": ("--n-init", int, 100, {}),
    "n_iter": ("--n-iter", int, 1000, {}),
    "particles": ("--particles", int, None, {}),
    "generations": ("--generations", int, None, {}),
    "window": ("--window", int, None, {}),
    "bins": ("--bins", int, 200, {}),
    "checkpoints": (
        "--checkpoints", _int_list, (0, 1, 10, 50, 100, 10_000),
        {"help": "comma-separated generations to snapshot"},
    ),
    "rho": ("--rho", _int_list, (1, 2, 3), {"help": "comma-separated doubling levels"}),
    "seed": ("--seed", _seed, _SEED, {"help": f"RNG seed in [0, 2**64) (default {_SEED})"}),
    "outdir": ("--outdir", str, None, {"help": "output directory"}),
    "format": ("--format", _format_list, None, {"help": "comma-separated subset of csv,json,svg"}),
    "scale": (
        "--scale", str, "desk",
        {"choices": tuple(_SCALES),
         "help": "; ".join(f"{k}: {n} particles x {g} generations, window {w}"
                           for k, (n, g, w) in _SCALES.items())},
    ),
}

_COMMON = ("seed", "outdir", "format")
#: Subcommands whose results have no drawing.
_NO_SVG = ("verify", "flipflop")
_ENSEMBLE = ("delta", "particles", "generations", "window", "scale", *_COMMON)


def load_config(path: str | Path, keys) -> dict:
    """Parse a flat key = value config file into typed settings.

    Lines are ``key = value``; blank lines and ``#`` comments are
    ignored.  DomainError (with the line number) on malformed lines, keys
    not in ``keys`` (the subcommand's), unparseable values, or values
    outside an option's choices; also when the file cannot be read.
    """
    settings: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in keys:
            raise DomainError(f"{path}:{lineno}: key {key!r} is not one of this subcommand's {keys}")
        _, convert, _, extras = OPTIONS[key]
        try:
            settings[key] = convert(value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        choices = extras.get("choices")
        if choices and settings[key] not in choices:
            raise DomainError(f"{path}:{lineno}: {key!r} must be one of {choices}")
    return settings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochlogistic",
        description="Monte-Carlo analysis of the logistic map with a random growth rate",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, helptext, keys, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for key in keys:
            flag, convert, _, extras = OPTIONS[key]
            p.add_argument(flag, dest=key, type=convert, default=None, **extras)
        p.add_argument("--config", help="flat key=value settings file")
    return parser


def _resolve(ns: argparse.Namespace) -> None:
    """Fill each setting no flag gave from the config file, else the
    subcommand's default, the option table's or the --scale row; make the outdir."""
    _, _, keys, defaults = _SUBCOMMANDS[ns.subcommand]
    config = load_config(ns.config, keys) if ns.config else {}
    for key in keys:
        if getattr(ns, key) is None:
            setattr(ns, key, config.get(key, defaults.get(key, OPTIONS[key][2])))
    if "scale" in keys:
        particles, generations, window = _SCALES[ns.scale]
        ns.particles = particles if ns.particles is None else ns.particles
        ns.generations = generations if ns.generations is None else ns.generations
        ns.window = min(window, ns.generations) if ns.window is None else ns.window
    if "lambda_bar" in keys and ns.lambda_bar is None:
        raise DomainError(f"{ns.subcommand} requires --lambda-bar")
    if "svg" in ns.format and ns.subcommand in _NO_SVG:
        raise DomainError(f"{ns.subcommand} has no SVG view; choose --format from csv,json")
    ns.outdir = Path(os.environ.get(ENV_OUTDIR, ".") if ns.outdir is None else ns.outdir)
    try:
        ns.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"output directory {str(ns.outdir)!r} is not writable: {exc}") from exc


def _mc_config(ns):
    from .measure import MonteCarloConfig

    return MonteCarloConfig(ns.particles, ns.generations, ns.window, ns.seed)


def _json_default(obj):
    """JSON form of a numpy array or scalar (tolist) or of a report (to_dict)."""
    return obj.tolist() if hasattr(obj, "tolist") else obj.to_dict()


def _num(v: float) -> str:
    """v's shortest round-trip text less a trailing ".0", so nearby rates name different files."""
    return repr(float(v)).removesuffix(".0")


def _write(ns, mid: str, delta: float, payload, rows, svg=None) -> int:
    """Write <outdir>/<subcommand>-<mid>-<delta>-<seed>.<ext> for every
    requested format, in the order csv, json, svg, and print each path.

    ``rows`` is an iterable of CSV rows, header first, streamed to disk,
    or a function that yields the CSV text already formatted, a piece at a time;
    ``payload`` returns the JSON object (arrays and reports encoded by
    _json_default) and ``svg`` the drawing (None for the subcommands in
    _NO_SVG, which reject --format svg up front).
    Nothing is produced for a format that was not requested.
    """
    for ext in _FORMATS:
        if ext not in ns.format:
            continue
        path = ns.outdir / f"{ns.subcommand}-{mid}-{_num(delta)}-{ns.seed}.{ext}"
        if ext == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                if callable(rows):
                    fh.writelines(rows())
                else:
                    csv.writer(fh).writerows(rows)
        else:
            text = svg() if ext == "svg" else json.dumps(
                payload(), default=_json_default, indent=2, sort_keys=True) + "\n"
            path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _run_bifurcation(ns) -> int:
    sizes = {"n_init": ns.n_init, "n_iter": ns.n_iter, "seed": ns.seed}
    if ns.kind == "deterministic" and ns.delta != 0:
        raise DomainError(f"the deterministic sweep draws no noise; got --delta {ns.delta:g}")
    from . import analytic, experiments, svgplot

    if ns.kind == "deterministic":
        data = experiments.deterministic_bifurcation(ns.lam_from, ns.lam_to, ns.step, **sizes)
    else:
        data = experiments.stochastic_bifurcation(
            ns.lam_from, ns.lam_to, ns.step, delta_lambda=ns.delta, **sizes
        )
    vlines = tuple(
        svgplot.Marker(x, "#555555", label)
        for x, label in (
            (analytic.LAMBDA_C2, "first doubling"),
            (analytic.LAMBDA_C4, "second doubling"),
            (analytic.LAMBDA_C3, "period-3 onset"),
        )
        if ns.lam_from <= x <= ns.lam_to
    )

    def sweep_csv():
        # long format in csv.writer's bytes, streamed one grid row at a time:
        # the row's rate is formatted once into a pattern with a slot per state
        yield "parameter,terminal_state\r\n"
        for lam, row in zip(data.parameters.tolist(), data.terminal_states):
            yield ("%.17g,%%.17g\r\n" % lam) * len(row) % tuple(row.tolist())

    return _write(
        ns,
        f"{ns.kind}-{_num(ns.lam_from)}to{_num(ns.lam_to)}",
        data.delta_lambda,
        data.to_dict,
        sweep_csv,
        lambda: svgplot.render_scatter(data, vlines=vlines, title=f"{ns.kind} bifurcation sweep"),
    )


def _run_evolve(ns) -> int:
    from . import experiments, maps, svgplot

    hists = experiments.distribution_evolution(
        maps.ParameterDistribution(ns.lambda_bar, ns.delta),
        n_particles=ns.particles,
        checkpoints=ns.checkpoints,
        seed=ns.seed,
        n_bins=ns.bins,
    )
    snaps = list(zip(ns.checkpoints, hists))

    def rows():
        for g, h in snaps:
            edges = h.edges.tolist()
            for lo, hi, count, dens in zip(edges, edges[1:], h.counts.tolist(), h.density().tolist()):
                yield g, f"{lo:.17g}", f"{hi:.17g}", count, f"{dens:.17g}"

    def payload() -> dict:
        return {
            "lambda_bar": ns.lambda_bar,
            "delta_lambda": ns.delta,
            "seed": ns.seed,
            "snapshots": [{"generation": g, "edges": h.edges, "counts": h.counts} for g, h in snaps],
        }

    return _write(
        ns,
        _num(ns.lambda_bar),
        ns.delta,
        payload,
        chain([("generation", "bin_lo", "bin_hi", "count", "density")], rows()),
        lambda: svgplot.render_histograms(
            hists,
            labels=tuple(f"generation {g}" for g in ns.checkpoints),
            title=f"distribution evolution at {ns.lambda_bar:g} +/- {ns.delta:g}",
        ),
    )


def _run_compare(ns) -> int:
    from . import experiments, measure, svgplot

    report, final = experiments.mean_comparison(ns.lambda_bar, ns.delta, _mc_config(ns))
    print(
        f"stochastic mean {report.stochastic_mean:.7f} (se {report.stochastic_se:.2e}) vs "
        f"deterministic {report.deterministic_mean:.7f}: z={report.z_score:+.2f} -> {report.verdict}"
    )
    fields = report.to_dict()

    def svg() -> str:
        markers = (
            svgplot.Marker(report.stochastic_mean, "#008837", "stochastic mean"),
            svgplot.Marker(report.deterministic_mean, "#e66101", "deterministic mean"),
        )
        return svgplot.render_histograms(
            [measure.Histogram.from_samples(final.particles, OPTIONS["bins"][2])],
            markers=markers,
            title=f"invariant distribution at {ns.lambda_bar:g} +/- {ns.delta:g}",
        )

    return _write(
        ns, _num(ns.lambda_bar), ns.delta, report.to_dict, [list(fields), list(fields.values())], svg
    )


def _run_verify(ns) -> int:
    from . import experiments

    report = experiments.lemma_suite(ns.lambda_bar, ns.delta, _mc_config(ns))
    for check in report.checks:
        print(f"{check.name}: {'PASS' if check.passed else 'FAIL'}")
    rows = [("check", "passed"), *((check.name, check.passed) for check in report.checks)]
    return _write(ns, _num(ns.lambda_bar), ns.delta, report.to_dict, rows)


def _run_flipflop(ns) -> int:
    from . import experiments

    report = experiments.flipflop_scan(ns.rho, ns.delta, _mc_config(ns))
    for row in report.rows:
        print(
            f"rho={row.rho} (period {row.period}) at {row.lambda_bar:.6g} "
            f"+/- {row.delta_lambda:g}: sign {row.sign} z={row.z_score:+.2f} "
            f"[{row.verdict}]"
        )
    rows = [list(report.rows[0].to_dict()), *(list(r.to_dict().values()) for r in report.rows)]
    mid = "-".join(str(r.rho) for r in report.rows)
    return _write(ns, mid, ns.delta, report.to_dict, rows)


#: subcommand -> (runner, help, its option keys, which are also the keys
#: its config file may set, defaults that differ from OPTIONS)
_SUBCOMMANDS = {
    "bifurcation": (
        _run_bifurcation,
        "terminal-state sweep over growth rates",
        ("kind", "lam_from", "lam_to", "step", "delta", "n_init", "n_iter", *_COMMON),
        {"format": ("csv",)},
    ),
    "evolve": (
        _run_evolve,
        "distribution snapshots under iteration",
        ("lambda_bar", "delta", "particles", "checkpoints", "bins", *_COMMON),
        {"format": ("csv",), "particles": 1000},
    ),
    "compare": (
        _run_compare,
        "stochastic vs deterministic mean with verdict",
        ("lambda_bar", *_ENSEMBLE),
        {"format": ("json",)},
    ),
    "verify": (
        _run_verify,
        "two-cycle lemma verification suite",
        ("lambda_bar", *_ENSEMBLE),
        {"format": ("json",)},
    ),
    "flipflop": (
        _run_flipflop,
        "mean-inequality sign table across 2^rho regimes",
        ("rho", *_ENSEMBLE),
        {"format": ("json",), "delta": 0.024},
    ),
}


# shim: stochbench/test_bench.py asserts cli holds these two; ROADMAP item 3 deletes it with those asserts
def __getattr__(name: str):
    if name not in ("pf_iterate", "uniform_ensemble"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import measure

    return getattr(measure, name)


def parse_and_dispatch(argv: list[str]) -> int:
    """Parse arguments, run the requested experiment, write artifacts.

    Returns the process exit code instead of raising: 0 success, 2 for
    bad input (argparse rejections and DomainError), 1 for any other
    exception.
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else 2
    try:
        _resolve(ns)
        return _SUBCOMMANDS[ns.subcommand][0](ns)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
