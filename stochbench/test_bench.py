"""Tests of the benchmark's tracer and entry point.

Run with the package on the path, as the repository's tests are:
    PYTHONPATH=src python -m pytest -q stochbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
from stochlogistic import analytic, cli, experiments, measure

HERE = Path(__file__).resolve().parent


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.parse_and_dispatch(argv)


def test_wrappers_rebind_imported_names(tracer):
    assert experiments.pf_step is measure.pf_step
    assert experiments.stream_rng is measure.stream_rng
    assert cli.pf_iterate is measure.pf_iterate
    assert cli.uniform_ensemble is measure.uniform_ensemble
    assert experiments.detect_period is analytic.detect_period
    assert hasattr(analytic.detect_period, "__wrapped__")
    assert hasattr(measure.Histogram.from_samples, "__wrapped__")


def test_uninstall_restores_originals():
    original = measure.pf_step
    t = spans.Tracer()
    t.install()
    t.uninstall()
    assert measure.pf_step is original and experiments.pf_step is original
    assert not hasattr(measure.Ensemble.__post_init__, "__wrapped__")


@pytest.mark.parametrize(
    "sub, flags, ensembles",
    [
        ("verify", ["--lambda-bar", "3.2", "--delta", "0.05"], 5),
        ("compare", ["--lambda-bar", "2.8", "--delta", "0.1"], 1),
    ],
)
def test_traced_particle_steps_equal_input_count(tracer, tmp_path, sub, flags, ensembles):
    n, g = 300, 200
    argv = [sub, *flags, "--particles", str(n), "--generations", str(g), "--window", "100",
            "--format", "json", "--outdir", str(tmp_path)]
    assert run_cli(argv) == 0
    metrics = spans.layer_metrics(tracer.aggregate())
    assert metrics["measure.pf_step.particle_steps"] == ensembles * n * g
    assert metrics["measure.pf_step.calls"] == ensembles * g
    assert metrics["measure.uniform_ensemble.calls"] == ensembles


def test_self_time_subtracts_children():
    t = spans.Tracer()
    t.names[:] = ["outer", "inner"]
    t.counts.update(outer={}, inner={})
    t.spans[:] = [(0, 0, 100_000, -1), (1, 10_000, 30_000, 0), (1, 40_000, 50_000, 0)]
    agg = t.aggregate()
    assert agg["outer"]["calls"] == 1 and agg["inner"]["calls"] == 2
    assert agg["outer"]["self_s"] == pytest.approx(70e-6)
    assert agg["inner"]["total_s"] == pytest.approx(30e-6)


def test_missing_spans_are_absent_not_zero():
    metrics = spans.layer_metrics({"maps.stream_rng": {"calls": 3, "total_s": 0.5, "self_s": 0.5}})
    assert metrics["maps.stream_rng.calls"] == 3
    assert "measure.pf_step.calls" not in metrics
    assert "measure.pf_step.ns_per_particle_step" not in metrics


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-20k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench["paths"] == [HERE.name]
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {**{k: unit for k, (unit, _) in spans.METRICS.items()}, "trace.overhead_s": "s"}
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "steps_per_s", "setup_s", "peak_rss_mb"]
