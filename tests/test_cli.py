"""Tests for the command-line front end and SVG rendering."""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochlogistic import cli, experiments, measure
from stochlogistic.experiments import deterministic_bifurcation
from stochlogistic.measure import Histogram, uniform_ensemble
from stochlogistic.cli import _SUBCOMMANDS, ENV_OUTDIR, OPTIONS, load_config, parse_and_dispatch
from stochlogistic.errors import DomainError
from stochlogistic.svgplot import render_histograms, render_scatter

FAST_COMPARE = ["--particles", "500", "--generations", "600", "--window", "300"]


def run(args, tmp_path, extra=()):
    return parse_and_dispatch([*args, "--outdir", str(tmp_path), *extra])


class TestCompare:
    def test_period2_json_verdict(self, tmp_path):
        code = run(
            ["compare", "--lambda-bar", "3.208", "--delta", "0.024", "--seed", "7",
             "--format", "json", *FAST_COMPARE],
            tmp_path,
        )
        assert code == 0
        payload = json.loads((tmp_path / "compare-3.208-0.024-7.json").read_text())
        assert payload["verdict"] == "stochastic_greater"
        assert payload["seed"] == 7

    def test_straddle_exit_2(self, tmp_path, capsys):
        code = run(["compare", "--lambda-bar", "2.95", "--delta", "0.1"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "3" in err

    def test_missing_lambda_bar_exit_2(self, tmp_path):
        assert run(["compare", "--delta", "0.01"], tmp_path) == 2

    @pytest.mark.parametrize("lambda_bar, delta", [("3.9", "0.005"), ("4", "0")])
    def test_runtime_error_exit_1(self, lambda_bar, delta, tmp_path):
        # window is valid (cascade regime) but the center rate has no
        # attracting cycle, which only surfaces during computation; at 4
        # the orbit of 0.5 lands on the fixed point 0, which repels
        code = run(
            ["compare", "--lambda-bar", lambda_bar, "--delta", delta, *FAST_COMPARE],
            tmp_path,
        )
        assert code == 1
        assert list(tmp_path.iterdir()) == []

    def test_just_past_the_first_doubling(self, tmp_path):
        # the two-cycle at 3 + 1e-7 is the closed form; cycle detection used
        # to raise ConvergenceError there, and the run exited 1
        argv = ["compare", "--lambda-bar", "3.0000001", "--delta", "1e-8", "--particles", "50",
                "--generations", "100", "--window", "50"]
        assert run(argv, tmp_path) == 0
        report = json.loads((tmp_path / "compare-3.0000001-1e-08-12345.json").read_text())
        assert report["period"] == 2
        assert report["deterministic_mean"] == pytest.approx(4.0000001 / 6.0000002, abs=1e-15)

    def test_svg_artifact(self, tmp_path):
        code = run(
            ["compare", "--lambda-bar", "3.208", "--delta", "0.024",
             "--format", "json,svg", *FAST_COMPARE],
            tmp_path,
        )
        assert code == 0
        svg = (tmp_path / "compare-3.208-0.024-12345.svg").read_text()
        assert svg.startswith("<svg") and "stochastic mean" in svg

    def test_svg_draws_the_mean_run_final_snapshot(self, tmp_path, monkeypatch):
        # the histogram comes from the ensemble the mean was taken over:
        # one initial ensemble, one step per generation, no second run
        calls = {"pf_step": 0, "uniform_ensemble": 0}
        for name in calls:
            original = getattr(measure, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in list(sys.modules.values()):
                if module.__name__.startswith("stochlogistic") and vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counted)
        code = run(["compare", "--lambda-bar", "3.208", "--delta", "0.024",
                    "--format", "csv,json,svg", *FAST_COMPARE], tmp_path)
        assert code == 0
        assert calls == {"pf_step": 600, "uniform_ensemble": 1}


class TestBifurcation:
    def test_csv_schema(self, tmp_path):
        code = run(
            ["bifurcation", "--kind", "deterministic", "--from", "2.0", "--to", "2.4",
             "--step", "0.2", "--n-init", "5", "--n-iter", "50"],
            tmp_path,
        )
        assert code == 0
        with open(tmp_path / "bifurcation-deterministic-2to2.4-0-12345.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["parameter", "terminal_state"]
        assert len(rows) == 1 + 3 * 5
        for _, x in rows[1:]:
            assert 0.0 <= float(x) <= 1.0

    @pytest.mark.parametrize(
        "to, step, n_init",
        [("3.4", "0.01", 101), ("3.5", "0.5", 4500)],
        ids=["41x101-boundary-inside-a-rate", "2x4500-rate-spans-blocks"],
    )
    def test_csv_bytes_across_row_blocks(self, to, step, n_init, tmp_path, capsys):
        # more than 4,096 rows, and grid rows of 101 and of 4,500 states; the
        # file must be the per-row "{:.17g},{:.17g}" text of the sweep
        argv = ["bifurcation", "--from", "3.0", "--to", to, "--step", step,
                "--n-init", str(n_init), "--n-iter", "20", "--seed", "5"]
        assert run(argv, tmp_path) == 0
        data = deterministic_bifurcation(3.0, float(to), float(step), n_init=n_init, n_iter=20, seed=5)
        assert data.terminal_states.size > 4096
        expected = "parameter,terminal_state\r\n" + "".join(
            "{:.17g},{:.17g}\r\n".format(lam, x)
            for lam, row in zip(data.parameters, data.terminal_states)
            for x in row
        )
        path = tmp_path / f"bifurcation-deterministic-3to{to}-0-5.csv"
        assert path.read_bytes() == expected.encode()

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 9),
        n_init=st.integers(1, 7),
        n_iter=st.integers(0, 30),
        lam_from=st.floats(0.5, 3.5),
        step=st.sampled_from([0.001, 0.01, 0.05]),
        law=st.sampled_from([("deterministic", 0.0), ("stochastic", 0.0)])
        | st.tuples(st.just("stochastic"), st.floats(1e-6, 0.05)),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_csv_is_csv_writer_rows(self, rows, n_init, n_iter, lam_from, step, law, seed):
        # one grid row, one state per row and every size in between: the
        # file is csv.writer's text of the ("%.17g" rate, "%.17g" state) rows
        kind, delta = law
        lam_to = lam_from + (rows - 1) * step
        sizes = {"n_init": n_init, "n_iter": n_iter, "seed": seed}
        if kind == "deterministic":
            data = deterministic_bifurcation(lam_from, lam_to, step, **sizes)
        else:
            data = experiments.stochastic_bifurcation(lam_from, lam_to, step, delta_lambda=delta, **sizes)
        expected = io.StringIO()
        csv.writer(expected).writerows(
            [("parameter", "terminal_state"),
             *(("%.17g" % lam, "%.17g" % x) for lam, row in zip(data.parameters, data.terminal_states) for x in row)]
        )
        argv = ["bifurcation", "--kind", kind, "--from", repr(lam_from), "--to", repr(lam_to), "--step", repr(step),
                "--delta", repr(delta), "--n-init", str(n_init), "--n-iter", str(n_iter), "--seed", str(seed)]
        with tempfile.TemporaryDirectory() as out:
            assert run(argv, out) == 0
            (path,) = Path(out).iterdir()
            assert path.read_bytes() == expected.getvalue().encode()

    @given(st.floats())
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(-0.0)
    @example(5e-324)
    @example(2.225073858507201e-308)
    def test_percent_format_equals_str_format(self, v):
        # the sweep CSV formats with "%.17g"; its bytes were pinned with
        # str.format's "{:.17g}"
        assert "%.17g" % v == "{:.17g}".format(v)

    def test_unknown_flag_exit_2(self, tmp_path):
        assert run(["bifurcation", "--not-a-flag", "1"], tmp_path) == 2

    def test_bad_range_exit_2(self, tmp_path):
        assert run(["bifurcation", "--from", "3.0", "--to", "4.5"], tmp_path) == 2

    def test_stochastic_svg(self, tmp_path):
        code = run(
            ["bifurcation", "--kind", "stochastic", "--from", "1.5", "--to", "2.5",
             "--step", "0.5", "--delta", "0.1", "--n-init", "10", "--n-iter", "100",
             "--format", "svg"],
            tmp_path,
        )
        assert code == 0
        assert (tmp_path / "bifurcation-stochastic-1.5to2.5-0.1-12345.svg").exists()

    def test_single_rate_svg(self, tmp_path):
        # a one-rate grid has a zero-width x range, which the canvas widens
        argv = ["bifurcation", "--from", "3", "--to", "3", "--step", "0.1", "--n-init", "5",
                "--n-iter", "50", "--format", "svg"]
        assert run(argv, tmp_path) == 0
        root = ElementTree.parse(tmp_path / "bifurcation-deterministic-3to3-0-12345.svg").getroot()
        dots = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(dots) == 5
        assert len({dot.get("cx") for dot in dots}) == 1 and math.isfinite(float(dots[0].get("cx")))


class TestEvolve:
    def test_csv_rows(self, tmp_path):
        code = run(
            ["evolve", "--lambda-bar", "3.208", "--delta", "0.024",
             "--particles", "300", "--checkpoints", "0,1,10", "--bins", "20"],
            tmp_path,
        )
        assert code == 0
        with open(tmp_path / "evolve-3.208-0.024-12345.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["generation", "bin_lo", "bin_hi", "count", "density"]
        assert len(rows) == 1 + 3 * 20
        gen0 = [r for r in rows[1:] if r[0] == "0"]
        assert sum(int(r[3]) for r in gen0) == 300
        # edge k is k times the width 1/20 (not the division k/20, which differs in the last digit)
        edges = [f"{k * (1 / 20):.17g}" for k in range(21)]
        assert [(r[1], r[2]) for r in gen0] == list(zip(edges, edges[1:]))

    def test_svg(self, tmp_path):
        code = run(
            ["evolve", "--lambda-bar", "1.508", "--delta", "0.024",
             "--particles", "200", "--checkpoints", "0,50", "--format", "svg"],
            tmp_path,
        )
        assert code == 0
        svg = (tmp_path / "evolve-1.508-0.024-12345.svg").read_text()
        assert "generation 0" in svg and "generation 50" in svg


class TestVerify:
    def test_prints_check_lines(self, tmp_path, capsys):
        code = run(
            ["verify", "--lambda-bar", "3.2", "--delta", "0.0",
             "--particles", "400", "--generations", "800", "--window", "400"],
            tmp_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        payload = json.loads((tmp_path / "verify-3.2-0-12345.json").read_text())
        assert payload["passed"] is True

    def test_wrong_regime_exit_2(self, tmp_path):
        assert run(["verify", "--lambda-bar", "2.0", "--delta", "0.1"], tmp_path) == 2

    def test_merged_window_exit_2(self, tmp_path, capsys):
        # inside the two-cycle regime, but I_p and I_q merge into one band:
        # the lemma's two-interval hypothesis fails, so nothing is verified
        assert run(["verify", "--lambda-bar", "3.2", "--delta", "0.1"], tmp_path) == 2
        assert "merge into one band" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFlipflop:
    def test_single_level(self, tmp_path, capsys):
        code = run(
            ["flipflop", "--rho", "1", "--delta", "0.024", *FAST_COMPARE],
            tmp_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rho=1" in out and "sign +" in out
        payload = json.loads((tmp_path / "flipflop-1-0.024-12345.json").read_text())
        assert payload["rows"][0]["verdict"] == "stochastic_greater"


class TestRhoCheckedUpFront:
    """flipflop rejects every level without a tabulated window before it
    runs any row."""

    @pytest.mark.parametrize("rho", ["1,7", "1,0"])
    def test_rejected_before_any_row(self, rho, tmp_path, capsys, monkeypatch):
        calls = []
        original = measure.pf_step
        for module in list(sys.modules.values()):
            if module.__name__.startswith("stochlogistic") and vars(module).get("pf_step") is original:
                monkeypatch.setattr(module, "pf_step", lambda *a: calls.append(a) or original(*a))
        assert run(["flipflop", "--rho", rho, *FAST_COMPARE], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rho must be one of [1, 2, 3, 4, 5, 6]") and "3.56995" in err
        assert calls == []
        assert list(tmp_path.iterdir()) == []


class TestScaleOnlyWhereRead:
    """--scale picks the ensemble sizes, so only the subcommands that run
    an ensemble configuration take it."""

    @pytest.mark.parametrize(
        "argv",
        [["evolve", "--lambda-bar", "3.2", "--scale", "paper"], ["bifurcation", "--scale", "paper"]],
        ids=["evolve", "bifurcation"],
    )
    def test_rejected_with_exit_2(self, argv, tmp_path, capsys):
        assert run(argv, tmp_path) == 2
        assert "--scale" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--lambda-bar", "3.208", "--delta", "0.024"],
            ["verify", "--lambda-bar", "3.2", "--delta", "0.05"],
            ["flipflop", "--rho", "1"],
        ],
        ids=["compare", "verify", "flipflop"],
    )
    def test_accepted(self, argv, tmp_path):
        assert run([*argv, "--scale", "paper", *FAST_COMPARE], tmp_path) == 0


class TestExplicitValues:
    """A value given on the command line is validated, never replaced by
    a default."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["flipflop", "--rho", "1", "--delta", "0"],
            ["compare", "--lambda-bar", "2.8", "--delta", "0.1", "--particles", "0"],
            ["verify", "--lambda-bar", "3.2", "--delta", "0.05", "--generations", "0"],
            ["compare", "--lambda-bar", "2.8", "--delta", "0.1", "--window", "0"],
            ["evolve", "--lambda-bar", "3.2", "--delta", "0.05", "--particles", "0"],
            # one particle has no standard error, so no verdict either
            ["compare", "--lambda-bar", "3.2", "--delta", "0.05", "--particles", "1"],
        ],
        ids=["flipflop-delta-0", "compare-particles-0", "verify-generations-0",
             "compare-window-0", "evolve-particles-0", "compare-particles-1"],
    )
    def test_rejected_with_exit_2(self, argv, tmp_path, capsys):
        assert run(argv, tmp_path) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestInputRejected:
    """Each boundary check reports its message after ``error:``, exits 2
    and leaves no artifact."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evolve", "--lambda-bar", "3.2", "--bins", "0"], "n_bins must be >= 1"),
            (["bifurcation", "--n-init", "0"], "need n_init >= 1 and n_iter >= 0"),
            (["bifurcation", "--n-iter", "-1"], "need n_init >= 1 and n_iter >= 0"),
            (["compare", "--lambda-bar", "3.2", "--config", "{tmp}/missing.cfg"], "cannot read config file"),
            (["compare", "--lambda-bar", "3.2", "--outdir", "{tmp}/afile/sub"], "is not writable"),
            # next to either end of the two-cycle regime no variance ladder fits:
            # the message names the rate given, then the last window's reason
            *(
                (["verify", "--lambda-bar", lam, "--delta", "0", "--particles", "50", "--generations", "100",
                  "--window", "50"],
                 "no variance ladder h, h/2, h/4, h/8 with 1e-06 <= h <= 0.05 fits the two-cycle regime "
                 f"at lambda_bar={lam}: window [")
                for lam in ("3.0000001", "3.000002", "3.4494897")
            ),
            # the window fits the generations given, but rounded up to whole
            # cycles it would not: the message names the cycle, not the window
            *(
                ([*argv, "--particles", "50", "--generations", str(g), "--window", str(g)],
                 f"the window holds whole cycles, but the cycle length {period} exceeds the generations ({g})")
                for argv, period, g in (
                    (["compare", "--lambda-bar", "3.2", "--delta", "0.05"], 2, 1),
                    (["verify", "--lambda-bar", "3.2", "--delta", "0.05"], 2, 1),
                    (["flipflop", "--rho", "3"], 8, 5),
                )
            ),
        ],
        ids=["bins-0", "n-init-0", "n-iter-minus-1", "missing-config", "outdir-under-a-file",
             "verify-ladder-at-3.0000001", "verify-ladder-at-3.000002", "verify-ladder-at-3.4494897",
             "compare-cycle-over-generations", "verify-cycle-over-generations", "flipflop-cycle-over-generations"],
    )
    def test_exit_2_with_message(self, argv, message, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        out = tmp_path / "out"
        assert parse_and_dispatch([*argv, *(() if "--outdir" in argv else ("--outdir", str(out)))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["afile"]


class TestFiniteFloats:
    """The float options take finite numbers only, from a flag or from a
    config file; nothing is written for a rejected value."""

    @pytest.mark.parametrize(
        "base, key, value",
        [
            (["bifurcation", "--kind", "stochastic"], "delta", "nan"),
            (["bifurcation"], "lam_from", "nan"),
            (["bifurcation"], "lam_to", "inf"),
            (["bifurcation"], "step", "nan"),
            (["compare", "--delta", "0.1"], "lambda_bar", "inf"),
            (["flipflop", "--rho", "1"], "delta", "inf"),
            (["flipflop", "--rho", "1"], "delta", "-inf"),
        ],
        ids=["stochastic-delta-nan", "from-nan", "to-inf", "step-nan", "lambda-bar-inf",
             "flipflop-delta-inf", "flipflop-delta-minus-inf"],
    )
    def test_rejected_with_exit_2(self, base, key, value, tmp_path, capsys):
        out = tmp_path / "out"
        flag = OPTIONS[key][0]
        assert parse_and_dispatch([*base, f"{flag}={value}", "--outdir", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert parse_and_dispatch([*base, "--config", str(cfg), "--outdir", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestSeedRange:
    """The seed keys the streams as a 64-bit word, so only integers in
    [0, 2**64) are seeds; anything else would silently alias another
    seed's draws under its own file name."""

    @pytest.mark.parametrize(
        "value", ["-1", str(2**64), str(2**70), "1.5"], ids=["minus-1", "2-64", "2-70", "float"]
    )
    def test_rejected_with_exit_2(self, value, tmp_path, capsys):
        base = ["compare", "--lambda-bar", "3.2", "--delta", "0.05", *FAST_COMPARE]
        out = tmp_path / "out"
        assert parse_and_dispatch([*base, f"--seed={value}", "--outdir", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"seed = {value}\n")
        assert parse_and_dispatch([*base, "--config", str(cfg), "--outdir", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_endpoints_accepted(self, seed, tmp_path, capsys):
        argv = ["bifurcation", "--from", "3", "--to", "3", "--n-init", "2", "--n-iter", "3"]
        assert run([*argv, "--seed", str(seed)], tmp_path) == 0
        assert [p.name for p in tmp_path.iterdir()] == [f"bifurcation-deterministic-3to3-0-{seed}.csv"]

    @pytest.mark.parametrize(
        "seed,rho", [(2**64 - 1, "1"), (2**64 - 2, "2"), (2**64 - 2, "1,2")], ids=["1", "2", "1-2"]
    )
    def test_flipflop_row_seed_past_the_top_rejected(self, seed, rho, tmp_path, capsys):
        # row rho runs at seed + rho, which would wrap past 2**64 - 1 onto a
        # small seed's draws: exit 2 and write nothing, even after a good row
        argv = ["flipflop", "--rho", rho, "--particles", "50", "--generations", "100",
                "--window", "50", "--seed", str(seed)]
        assert run(argv, tmp_path) == 2
        top = max(int(r) for r in rho.split(","))
        assert capsys.readouterr().err == (
            f"error: row rho={top} runs at seed {seed} + {top}, past 2**64 - 1; "
            f"the largest usable --seed is {2**64 - 1 - top}\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestSvgOnlyWhereDrawn:
    """verify and flipflop have no drawing, so asking for one is bad
    input, not a silently skipped format."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--lambda-bar", "3.2", "--delta", "0", "--format", "svg"],
            ["verify", "--lambda-bar", "3.2", "--delta", "0.05", "--format", "json,svg"],
            ["flipflop", "--rho", "1", "--format", "svg"],
            ["flipflop", "--rho", "1", "--format", "csv,svg"],
        ],
        ids=["verify-svg", "verify-json-svg", "flipflop-svg", "flipflop-csv-svg"],
    )
    def test_rejected_with_exit_2(self, argv, tmp_path, capsys):
        assert run(argv, tmp_path) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rejected_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("format = svg\n")
        out = tmp_path / "out"
        code = parse_and_dispatch(
            ["flipflop", "--rho", "1", "--config", str(cfg), "--outdir", str(out)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestArtifactWriter:
    def test_wrote_lines_in_fixed_order(self, tmp_path, capsys):
        code = run(
            ["compare", "--lambda-bar", "3.208", "--delta", "0.024",
             "--format", "svg,json,csv", *FAST_COMPARE],
            tmp_path,
        )
        assert code == 0
        wrote = [line.rsplit(".", 1)[1] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == ["csv", "json", "svg"]

    def test_unknown_format_exit_2(self, tmp_path):
        assert run(["compare", "--lambda-bar", "3.2", "--format", "pdf"], tmp_path) == 2

    def test_nearby_rates_write_two_files(self, tmp_path, capsys):
        # names keep every digit: with ":g" both runs wrote compare-3-1e-08-12345.*
        sizes = ["--particles", "50", "--generations", "100", "--window", "50", "--format", "json,svg"]
        for lam in ("3.0000001", "3.0000002"):
            assert run(["compare", "--lambda-bar", lam, "--delta", "1e-8", *sizes], tmp_path) == 0
        stems = ["compare-3.0000001-1e-08-12345", "compare-3.0000002-1e-08-12345"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{s}.{e}" for s in stems for e in ("json", "svg")]
        # the drawing's title keeps the short form
        assert "invariant distribution at 3 +/- 1e-08" in (tmp_path / f"{stems[0]}.svg").read_text()

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_name_numbers_round_trip(self, v):
        assert float(cli._num(v)) == v and math.copysign(1.0, float(cli._num(v))) == math.copysign(1.0, v)

    @pytest.mark.parametrize(
        "v", [0.0, 0.0001, 0.00075, 0.0015, 0.003, 0.006, 0.01, 0.012, 0.02, 0.024, 0.05, 0.1, 0.3, 1.5,
              2.0, 2.4, 2.5, 2.8, 2.9, 3.0, 3.2, 3.208, 3.5, 3.508, 3.6, 4.0, 1e-05, 1e-08],
    )
    def test_short_values_keep_their_g_text(self, v):
        # the names of the goldens and the benchmark's artifacts keep their bytes
        assert cli._num(v) == f"{v:g}"


def _same_value(text: str, value) -> bool:
    """A CSV cell and the JSON value of the same field agree."""
    if isinstance(value, (str, bool)):
        return text == str(value)
    return float(text) == float(value)


class TestCsvReadsBackToJson:
    """Every run's CSV, read by csv.reader, holds its JSON's fields and values."""

    @staticmethod
    def both(argv, tmp_path):
        assert run([*argv, "--format", "csv,json"], tmp_path) == 0
        (csv_path,) = tmp_path.glob("*.csv")
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return rows, json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))

    # the extinction window's mean decays to about 1e-94, written with an exponent
    @pytest.mark.parametrize("lambda_bar, delta", [("3.208", "0.024"), ("0.5", "0")])
    def test_compare(self, lambda_bar, delta, tmp_path):
        rows, payload = self.both(["compare", "--lambda-bar", lambda_bar, "--delta", delta, *FAST_COMPARE], tmp_path)
        header, values = rows
        assert sorted(header) == sorted(payload)
        assert all(_same_value(cell, payload[k]) for k, cell in zip(header, values))

    def test_verify(self, tmp_path):
        rows, payload = self.both(["verify", "--lambda-bar", "3.2", "--delta", "0.05", "--particles", "400",
                                   "--generations", "400", "--window", "200"], tmp_path)
        assert rows == [["check", "passed"], *([c["name"], str(c["passed"])] for c in payload["checks"])]

    def test_flipflop(self, tmp_path):
        rows, payload = self.both(["flipflop", "--rho", "1,2", *FAST_COMPARE], tmp_path)
        header, *cells = rows
        assert sorted(header) == sorted(payload["rows"][0]) and len(cells) == len(payload["rows"]) == 2
        for row, want in zip(cells, payload["rows"]):
            assert all(_same_value(cell, want[k]) for k, cell in zip(header, row))

    def test_evolve(self, tmp_path):
        rows, payload = self.both(["evolve", "--lambda-bar", "3.208", "--delta", "0.024", "--particles", "300",
                                   "--checkpoints", "0,5", "--bins", "7"], tmp_path)
        assert rows[0] == ["generation", "bin_lo", "bin_hi", "count", "density"]
        want = []
        for snap in payload["snapshots"]:
            edges, counts = snap["edges"], snap["counts"]
            for lo, hi, count in zip(edges, edges[1:], counts):
                want.append([snap["generation"], lo, hi, count, count / (sum(counts) * (hi - lo))])
        assert len(rows) == 1 + len(want) == 1 + 2 * 7
        for row, values in zip(rows[1:], want):
            assert all(_same_value(cell, v) for cell, v in zip(row[:4], values[:4]))
            assert float(row[4]) == pytest.approx(values[4], rel=1e-15)


class TestConfigFile:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_bar = 3.208\ndelta = 0.024\n")
        code = parse_and_dispatch(
            ["compare", "--config", str(cfg), "--outdir", str(tmp_path), *FAST_COMPARE]
        )
        assert code == 0
        assert (tmp_path / "compare-3.208-0.024-12345.json").exists()

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_bar = 3.208\ndelta = 0.024\nseed = 1\n")
        code = parse_and_dispatch(
            ["compare", "--config", str(cfg), "--seed", "2",
             "--outdir", str(tmp_path), *FAST_COMPARE]
        )
        assert code == 0
        assert (tmp_path / "compare-3.208-0.024-2.json").exists()

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nlambda_bar = 3.2  # inline\ndelta = 0.0\n")
        parsed = load_config(cfg, OPTIONS)
        assert parsed == {"lambda_bar": 3.2, "delta": 0.0}

    def test_unknown_key_with_line_number(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_bar = 3.2\nbogus = 1\n")
        with pytest.raises(DomainError, match=r":2: key 'bogus' is not one of this subcommand's"):
            load_config(cfg, OPTIONS)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_bar 3.2\n")
        with pytest.raises(DomainError, match=r":1: expected 'key = value', got 'lambda_bar 3.2'"):
            load_config(cfg, OPTIONS)

    def test_choice_checked(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = chaotic\n")
        with pytest.raises(DomainError, match=r":1: 'kind' must be one of"):
            load_config(cfg, OPTIONS)

    def test_list_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho = 1,2\ncheckpoints = 0,5\nformat = csv,svg\n")
        assert load_config(cfg, OPTIONS) == {"rho": (1, 2), "checkpoints": (0, 5), "format": ("csv", "svg")}

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = not-an-int\n")
        with pytest.raises(DomainError, match=r":1: bad value for 'seed'"):
            load_config(cfg, OPTIONS)

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("???\n")
        code = parse_and_dispatch(
            ["compare", "--lambda-bar", "3.2", "--config", str(cfg),
             "--outdir", str(tmp_path)]
        )
        assert code == 2


#: A valid one-line config value for each OPTIONS key (outdir is set per test).
ONE_LINE = {
    "lambda_bar": "3.2", "delta": "0.01", "lam_from": "2.8", "lam_to": "3.0", "step": "0.1",
    "kind": "stochastic", "n_init": "2", "n_iter": "3", "particles": "50", "generations": "20",
    "window": "10", "bins": "5", "checkpoints": "0,1", "rho": "1", "seed": "3", "format": "json",
    "scale": "paper",
}


class TestConfigKeysHeldToTheirSubcommand:
    """A config file may set exactly the keys its subcommand has flags for."""

    def test_every_option_has_a_value(self):
        assert set(ONE_LINE) | {"outdir"} == set(OPTIONS)

    @pytest.mark.parametrize("sub", sorted(_SUBCOMMANDS))
    @pytest.mark.parametrize("key", sorted(OPTIONS))
    def test_file_rejects_exactly_what_the_parser_has_no_flag_for(
        self, sub, key, tmp_path, monkeypatch, capsys
    ):
        # the runner is stubbed: only which settings are taken is under test
        monkeypatch.setitem(_SUBCOMMANDS, sub, (lambda ns: 0, *_SUBCOMMANDS[sub][1:]))
        value = str(tmp_path / "out") if key == "outdir" else ONE_LINE[key]
        base = [sub, "--outdir", str(tmp_path / "out")]
        if sub in ("evolve", "compare", "verify"):
            base += ["--lambda-bar", "3.2"]
        by_flag = parse_and_dispatch([*base, OPTIONS[key][0], value])
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {value}\n")
        by_file = parse_and_dispatch([*base, "--config", str(cfg)])
        assert by_flag in (0, 2)
        assert by_file == by_flag
        if by_file == 2:
            assert f"one.cfg:1: key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, line",
        [(["evolve", "--lambda-bar", "3.2"], "scale = paper"),
         (["compare", "--lambda-bar", "3.2"], "kind = stochastic")],
    )
    def test_unread_key_exits_2_and_writes_nothing(self, argv, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert parse_and_dispatch([*argv, "--config", str(cfg), "--outdir", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestScaleSizes:
    """--scale takes its sizes from cli's one table; no ensemble runs."""

    @staticmethod
    def sizes(argv, tmp_path, monkeypatch, config=""):
        seen = []

        def capture(lambda_bar, delta, cfg):
            seen.append(cfg)
            raise RuntimeError("stopped before the ensemble")

        monkeypatch.setattr(experiments, "mean_comparison", capture)
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        assert run(["compare", "--lambda-bar", "3.2", *argv], tmp_path) == 1
        (cfg,) = seen
        return cfg.n_particles, cfg.generations, cfg.window, cfg.seed

    def test_desk_and_paper_scales(self, tmp_path, monkeypatch):
        assert self.sizes([], tmp_path, monkeypatch) == (2000, 2000, 1000, 12345)
        assert self.sizes(["--scale", "desk"], tmp_path, monkeypatch) == (2000, 2000, 1000, 12345)
        assert self.sizes(["--scale", "paper"], tmp_path, monkeypatch) == (20_000, 10_000, 5000, 12345)

    @pytest.mark.parametrize(
        "argv, config, expected",
        [
            (["--generations", "600"], "", (2000, 600, 600)),
            (["--scale", "paper", "--generations", "3000"], "", (20_000, 3000, 3000)),
            (["--scale", "paper", "--generations", "7000"], "", (20_000, 7000, 5000)),
            (["--scale", "paper"], "window = 700\n", (20_000, 10_000, 700)),
            ([], "scale = paper\ngenerations = 4000\n", (20_000, 4000, 4000)),
            (["--window", "50"], "window = 700\n", (2000, 2000, 50)),
            (["--particles", "30"], "scale = paper\n", (30, 10_000, 5000)),
        ],
    )
    def test_window_rules(self, argv, config, expected, tmp_path, monkeypatch):
        # a default window is clipped to the generations; a given one is kept
        assert self.sizes(argv, tmp_path, monkeypatch, config)[:3] == expected

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["compare", "--lambda-bar", "3.2"], (2000, 2000, 1000)),
            (["verify", "--lambda-bar", "3.2", "--scale", "paper", "--generations", "300"], (20_000, 300, 300)),
            (["flipflop", "--particles", "0", "--window", "7"], (0, 2000, 7)),
            (["evolve", "--lambda-bar", "3.2"], (1000, None, None)),
        ],
        ids=["compare-desk", "verify-paper", "flipflop-explicit", "evolve-no-scale"],
    )
    def test_resolve_fills_the_sizes(self, argv, expected, tmp_path):
        # every size is decided in _resolve, so the namespace a runner gets
        # already holds it; a subcommand without --scale has no scale row
        ns = cli._build_parser().parse_args([*argv, "--outdir", str(tmp_path)])
        cli._resolve(ns)
        assert tuple(getattr(ns, k, None) for k in ("particles", "generations", "window")) == expected

    def test_help_lists_the_table(self, capsys):
        assert parse_and_dispatch(["compare", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "desk: 2000 particles x 2000 generations, window 1000" in text
        assert "paper: 20000 particles x 10000 generations, window 5000" in text


class TestContradictionsRefused:
    """Settings or reports that would contradict themselves exit 2 and
    write no file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bifurcation", "--kind", "deterministic", "--delta", "0.3"],
            ["bifurcation", "--kind", "deterministic", "--delta", "-0.3", "--from", "2.8", "--to", "3"],
        ],
    )
    def test_exit_2_and_no_file(self, argv, tmp_path, capsys):
        assert run(argv, tmp_path) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "lambda_bar, delta, regime, period",
        [("2.999", "0.0005", "period1", 1), ("2.99999", "0.000001", "period1", 1), ("3.449", "0.0004", "period2", 2)],
    )
    def test_slow_cycle_next_to_a_doubling_reports_its_regime(self, lambda_bar, delta, regime, period, tmp_path):
        # the detector once reported twice the cycle length here, and the
        # report was refused rather than contradict its own regime
        argv = ["compare", "--lambda-bar", lambda_bar, "--delta", delta, "--particles", "200"]
        assert run(argv, tmp_path) == 0
        (path,) = tmp_path.glob("compare-*.json")
        report = json.loads(path.read_text())
        assert (report["regime"], report["period"]) == (regime, period)
        # the cycle mean is the closed form to rounding, not the mean of
        # the slowly converging orbit where detection stopped
        lam = float(lambda_bar)
        closed = (lam - 1.0) / lam if period == 1 else (lam + 1.0) / (2.0 * lam)
        assert report["deterministic_mean"] == pytest.approx(closed, abs=1e-15)

    def test_deterministic_sweep_at_zero_delta_unchanged(self, tmp_path, capsys):
        sweep = ["bifurcation", "--from", "2.8", "--to", "3", "--step", "0.1", "--n-init", "3",
                 "--n-iter", "10"]
        assert run(sweep, tmp_path / "a") == 0
        assert run([*sweep, "--kind", "deterministic", "--delta", "0"], tmp_path / "b") == 0
        name = "bifurcation-deterministic-2.8to3-0-12345.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert run([*sweep, "--kind", "stochastic", "--delta", "0.3"], tmp_path / "c") == 0


class TestDeterminism:
    def test_identical_artifacts(self, tmp_path):
        args = [
            "compare", "--lambda-bar", "3.208", "--delta", "0.024",
            "--format", "json,svg", *FAST_COMPARE,
        ]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert parse_and_dispatch([*args, "--outdir", str(a_dir)]) == 0
        assert parse_and_dispatch([*args, "--outdir", str(b_dir)]) == 0
        for name in ("compare-3.208-0.024-12345.json", "compare-3.208-0.024-12345.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


class TestEnvOutdir:
    def test_env_variable_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUTDIR, str(tmp_path))
        code = parse_and_dispatch(
            ["compare", "--lambda-bar", "3.208", "--delta", "0.024", *FAST_COMPARE]
        )
        assert code == 0
        assert (tmp_path / "compare-3.208-0.024-12345.json").exists()


class TestSvgRendering:
    def test_histogram_markers(self):
        h = Histogram.from_samples(uniform_ensemble(500, seed=1).particles, n_bins=20)
        svg = render_histograms([h], "state distribution", markers=((0.5, "#008837", "mid"),))
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "mid" in svg

    def test_empty_histogram_rejected(self):
        h = Histogram(np.zeros(4, dtype=int))
        with pytest.raises(DomainError, match="cannot render an empty histogram"):
            render_histograms([h], "state distribution")
        with pytest.raises(DomainError, match="cannot render an empty histogram"):
            render_histograms([], "state distribution")

    def test_scatter(self):
        data = deterministic_bifurcation(2.0, 2.5, step=0.25, n_init=4, n_iter=50, seed=2)
        svg = render_scatter(data, ((2.2, "#555555", "ref"),), "bifurcation diagram")
        assert svg.count("<circle") == 3 * 4
        assert "ref" in svg

    def test_label_count_mismatch(self):
        h = Histogram.from_samples(uniform_ensemble(100, seed=3).particles, n_bins=200)
        with pytest.raises(DomainError, match="one label per histogram"):
            render_histograms([h], "state distribution", labels=("a", "b"))


class TestHelp:
    def test_help_exits_zero(self):
        assert parse_and_dispatch(["--help"]) == 0
        assert parse_and_dispatch(["compare", "--help"]) == 0

    def test_no_subcommand_exit_2(self):
        assert parse_and_dispatch([]) == 2


#: Runs each argv of the JSON list in sys.argv[1] through parse_and_dispatch
#: in one fresh interpreter and prints [exit code, numpy loaded] after each.
_START_UP = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from stochlogistic.cli import parse_and_dispatch
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen.append([parse_and_dispatch(argv), "numpy" in sys.modules])
print(json.dumps(seen))
"""


class TestStartUpLoadsNoNumpy:
    """--help and the input checks that come before a computation answer
    without loading numpy; a subcommand that computes loads it."""

    def test_start_up_paths_then_a_run(self, tmp_path):
        config = tmp_path / "unknown-key.cfg"
        config.write_text("particles = 50\ncolour = red\n")
        calls = [
            (["--help"], 0),
            (["compare", "--help"], 0),
            (["compare", "--particles", "x"], 2),
            (["compare", "--delta", "0.01"], 2),
            (["verify", "--lambda-bar", "3.2", "--format", "svg"], 2),
            (["compare", "--lambda-bar", "3.208", "--config", str(config)], 2),
        ]
        run = ["compare", "--lambda-bar", "3.208", "--delta", "0.024", "--particles", "50",
               "--generations", "20", "--window", "10", "--outdir", str(tmp_path / "out")]
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-I", "-c", _START_UP.format(src=src), json.dumps([argv for argv, _ in calls] + [run])],
            capture_output=True, text=True, check=True, timeout=60, cwd=tmp_path,
        )
        assert json.loads(out.stdout) == [[code, False] for _, code in calls] + [[0, True]]
        assert (tmp_path / "out" / "compare-3.208-0.024-12345.json").is_file()
