"""Benchmark of the stochlogistic CLI.

    python3 stochbench/run.py --workload desk-session --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Each run:

1. starts one worker interpreter that runs a warm-up round and then
   whole rounds of the workload for --seconds, untraced, timing fresh
   interpreters that import the package between rounds (worker.py);
2. with --trace 1, starts a second, traced worker for a few rounds and
   reports per-layer metrics instead of end-to-end ones;
3. checks the warm-up artifacts against the benchmark's own references
   (workloads.py) and every later artifact against them by sha256.

It prints the artifact digests, per-operation times and every metric,
and as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Children run one at a time and are waited for.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

#: A run must end within 180 s; children get what is left of this.
BUDGET_S = 170.0


class RunError(Exception):
    """A child process failed or ran out of time."""


def child(argv: list[str], deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, "-I", *argv], capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child timed out: {argv[:2]}") from exc
    if proc.returncode != 0:
        raise RunError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def worker(args, out: Path, trace: int, deadline: float) -> dict:
    child(
        [
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
            "--out", str(out),
        ],
        deadline,
    )
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def check_ops(ops, result: dict, refdir: Path) -> dict[str, Outcome]:
    outcomes = {}
    for op, rec in zip(ops, result["warmup"]):
        try:
            outcome = op.check(refdir / op.name, refdir, rec["printed"])
        except Exception as exc:  # noqa: BLE001 - a malformed artifact is a finding
            outcome = Outcome([f"check raised {exc!r}"])
        if rec["exit"] != 0:
            outcome.problems.append(f"exit code {rec['exit']}")
        outcomes[op.name] = outcome
    return outcomes


def tally(ops, result: dict, outcomes: dict[str, Outcome], ref: dict, label: str) -> tuple[int, int]:
    """(attempted, failed) over the warm-up and timed rounds of one worker."""
    attempted = failed = 0
    for index, rnd in enumerate([result["warmup"], *result["rounds"]]):
        for op, rec in zip(ops, rnd):
            attempted += 1
            outcome = outcomes[op.name]
            differs = rec["digests"] != ref[op.name]
            if differs:
                print(f"FAILED {label} round {index} {op.name}: artifacts differ from the reference")
            if rec["exit"] != 0 or outcome.problems or outcome.known_fault or differs:
                failed += 1
    return attempted, failed


def round_walls(result: dict) -> list[float]:
    return [sum(rec["seconds"] for rec in rnd) for rnd in result["rounds"]]


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + BUDGET_S
    root = HERE.parent
    if not (root / "src" / "stochlogistic" / "cli.py").is_file():
        print(f"error: no stochlogistic package under {root / 'src'}", file=sys.stderr)
        return 2
    out = root / ".stochbench-out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = WORKLOADS[args.workload](args.seed)

    try:
        plain = worker(args, out / "plain", 0, deadline)
        traced = worker(args, out / "traced", 1, deadline) if args.trace else None
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outcomes = check_ops(ops, plain, out / "plain" / "ref")
    ref = {op.name: rec["digests"] for op, rec in zip(ops, plain["warmup"])}
    attempted, failed = tally(ops, plain, outcomes, ref, "untraced")
    walls = round_walls(plain)
    wall_s = statistics.fmean(walls)
    steps = sum(op.steps for op in ops)

    print(f"workload {args.workload} seed {args.seed}: warm-up + {len(walls)} rounds, "
          f"{len(ops)} operations and {steps} map steps per round")
    for i, (op, rec) in enumerate(zip(ops, plain["warmup"])):
        times = [rnd[i]["seconds"] for rnd in plain["rounds"]]
        print(f"op {op.name}: mean {statistics.fmean(times):.6g} s ({spread(times)}); "
              f"argv {' '.join(rec['argv'][:-2])}")
        for name, digest in rec["digests"].items():
            print(f"sha256 {digest} {op.name}/{name}")
        outcome = outcomes[op.name]
        for problem in outcome.problems:
            print(f"PROBLEM {op.name}: {problem}")
        if outcome.known_fault:
            print(f"known fault, counted failed: {op.name}: {outcome.known_fault}")

    if traced is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "steps_per_s": (steps / wall_s, "1/s"),
            "setup_s": (statistics.fmean(plain["setup_s"]), "s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
        }
        print(f"wall_s per round: {spread(walls)}")
        print(f"setup_s per probe: {spread(plain['setup_s'])}")
    else:
        t_attempted, t_failed = tally(ops, traced, outcomes, ref, "traced")
        attempted, failed = attempted + t_attempted, failed + t_failed
        layer = spans.median_metrics(traced["layers"])
        layer["trace.overhead_s"] = statistics.fmean(round_walls(traced)) - wall_s
        units = {name: unit for name, (unit, _) in spans.METRICS.items()}
        units["trace.overhead_s"] = "s"
        metrics = {name: (layer[name], unit) for name, unit in units.items() if name in layer}
        for name in units:
            if name not in layer:
                print(f"absent: {name}")
        for name, row in sorted(traced["table"].items()):
            if row["calls"]:
                extra = "".join(f" {k} {v}" for k, v in row.items() if k not in ("calls", "total_s", "self_s"))
                print(f"span {name}: calls {row['calls']} total_s {row['total_s']:.6f} "
                      f"self_s {row['self_s']:.6f}{extra}")
        needed = sum(op.steps for op in ops if op.sub != "bifurcation")
        counted = layer.get("measure.pf_step.particle_steps")
        print(f"trace check: measure.pf_step.particle_steps {counted} per round; "
              f"the results need {needed} ensemble steps")
        if counted is not None and counted < needed:
            print("warning: fewer traced particle steps than the results need; "
                  "a call escaped the span wrappers", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    correct = not any(o.problems for o in outcomes.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
