"""One benchmark process: run a workload's rounds through the CLI entry.

Started by run.py in a fresh interpreter (python3 -I).  The package is
imported before any timing.  Round 0 is a warm-up whose artifacts are
kept for run.py to check; later rounds overwrite one scratch directory
and are compared with it by sha256.  A round's wall time is the sum of
its operations' times, each from the call into
``stochlogistic.cli.parse_and_dispatch`` to its return, when the last
artifact is on disk.

Untraced runs also time fresh interpreters that import the package and
reach its CLI, between rounds.  With --trace 1 the span tracer wraps the
package first and the run makes TRACED_ROUNDS rounds, recording
per-layer metrics per round.  Results go to <out>/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Timed rounds of a traced run.
TRACED_ROUNDS = 3

#: Fresh-interpreter set-up probes per untraced run, spread over its
#: rounds so that they see the same machine conditions as the rounds.
SETUP_PROBES = 12

SETUP_CODE = """
import contextlib, io, sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
from stochlogistic.cli import parse_and_dispatch
with contextlib.redirect_stdout(io.StringIO()):
    parse_and_dispatch(["--help"])
print(time.perf_counter() - start)
"""


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def setup_seconds(root: Path) -> float:
    """Time for a fresh interpreter to import the package and reach its CLI."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE.format(src=str(root / "src"))],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.split()[-1])


def run_round(entry, ops, rounddir: Path, seed: int) -> list[dict]:
    shutil.rmtree(rounddir, ignore_errors=True)
    rounddir.mkdir(parents=True)
    results = []
    for op in ops:
        opdir = rounddir / op.name
        try:
            argv = [op.sub, *op.args(rounddir), "--seed", str(seed), "--outdir", str(opdir)]
        except Exception as exc:  # noqa: BLE001 - an earlier operation left no usable artifact
            results.append({"name": op.name, "argv": [op.sub], "exit": repr(exc), "seconds": 0.0,
                            "printed": "", "digests": {}})
            continue
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            start = time.perf_counter()
            code = entry(argv)
            seconds = time.perf_counter() - start
        files = sorted(opdir.iterdir()) if opdir.is_dir() else []
        results.append(
            {
                "name": op.name,
                "argv": argv,
                "exit": code,
                "seconds": seconds,
                "printed": printed.getvalue(),
                "digests": {p.name: sha256(p) for p in files},
            }
        )
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for artifacts and results")
    args = ap.parse_args()

    root, out = HERE.parent, Path(args.out)
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads  # noqa: E402  (after sys.path is set)

    ops = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import spans  # noqa: E402

        tracer = spans.Tracer()
        tracer.install()
    from stochlogistic import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's package")
    entry = cli.parse_and_dispatch

    warmup = run_round(entry, ops, out / "ref", args.seed)
    rounds, layer_rounds, setup = [], [], []
    began = next_probe = time.perf_counter()
    while True:
        if tracer is None and time.perf_counter() >= next_probe:
            setup.append(setup_seconds(root))
            next_probe += args.seconds / SETUP_PROBES
        if tracer is not None:
            tracer.reset()
        rounds.append(run_round(entry, ops, out / "cur", args.seed))
        if tracer is not None:
            layer_rounds.append(spans.layer_metrics(tracer.aggregate()))
            if len(rounds) >= TRACED_ROUNDS:
                break
        elif len(rounds) >= 3 and time.perf_counter() - began >= args.seconds:
            break
    shutil.rmtree(out / "cur", ignore_errors=True)

    result = {
        "warmup": warmup,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup,
    }
    if tracer is not None:
        result["layers"] = layer_rounds
        result["table"] = tracer.aggregate()
        (out / "spans.json").write_text(
            json.dumps({"names": tracer.names, "spans": tracer.spans}), encoding="utf-8"
        )
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
