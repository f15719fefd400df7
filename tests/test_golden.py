"""Golden artifact digests: every subcommand with every format it
writes, at desk-check sizes, through the CLI entry point.

A change that alters any artifact byte fails here.  A change that does
so on purpose updates the digest it changes and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from stochlogistic.cli import parse_and_dispatch

SMALL = ["--particles", "200", "--generations", "200", "--window", "100"]

CASES = {
    "bifurcation-deterministic": (
        ["bifurcation", "--kind", "deterministic", "--from", "2.8", "--to", "3.6", "--step", "0.2",
         "--n-init", "8", "--n-iter", "300", "--format", "csv,json,svg"],
        {
            "bifurcation-deterministic-2.8to3.6-0-3.csv": "80d878d2fb4921148906ce455d5852afe2d6199594841d8ee6540ad26d978013",
            "bifurcation-deterministic-2.8to3.6-0-3.json": "bf8f9203c58a88c0717120967b21ca19f837fc59e1bf751aa8c4d9844e1411cb",
            "bifurcation-deterministic-2.8to3.6-0-3.svg": "99c75f651fcd271a6ca6b1427140aadc97dd28c772beb93e8d3b75ffcadd0efe",
        },
    ),
    "bifurcation-stochastic": (
        ["bifurcation", "--kind", "stochastic", "--from", "2.9", "--to", "3.5", "--step", "0.2",
         "--delta", "0.02", "--n-init", "8", "--n-iter", "300", "--format", "csv,json,svg"],
        {
            "bifurcation-stochastic-2.9to3.5-0.02-3.csv": "1091c2009f2070b7423eabcfce24c07aecf0b55c5917fef3bd881ad851cb055d",
            "bifurcation-stochastic-2.9to3.5-0.02-3.json": "a27b44a7c1aef782bd56b8e6fb2a124aedf9615ede7b95c6952365c3d87037a6",
            "bifurcation-stochastic-2.9to3.5-0.02-3.svg": "1a94cf89ef38ee2ce0f3c6bd30081223cf133315f7492d5600575aa79e7c7c65",
        },
    ),
    "evolve": (
        ["evolve", "--lambda-bar", "3.2", "--delta", "0.05", "--particles", "300",
         "--checkpoints", "0,1,10,100", "--bins", "40", "--format", "csv,json,svg"],
        {
            "evolve-3.2-0.05-3.csv": "b2ca6df8bdb4a593bde0994fc004f0f69bcb37f1809819e6a232bce2266167bd",
            "evolve-3.2-0.05-3.json": "5bbd24ddcb1e88a54c9563caf51ee15aaff4ccb6050ad55edd310bbcd0f09549",
            "evolve-3.2-0.05-3.svg": "c6ca7db246bb3edbfc0663511dee41a91ecb8b77f104940b8759f58dbdea81aa",
        },
    ),
    "compare": (
        ["compare", "--lambda-bar", "3.2", "--delta", "0.05", *SMALL, "--format", "csv,json,svg"],
        {
            "compare-3.2-0.05-3.csv": "4a4ac853219cd37e789adbc5c154905ccf10dbe1800d52746b08b180cf2e6b55",
            "compare-3.2-0.05-3.json": "54c289991a8fd540bc1ed1ad5cef6b73992e635df954a69fc98733592a0fd122",
            "compare-3.2-0.05-3.svg": "524a645b4d7c0ccca616554b5d2fd2979cff11649be69218de08fe20256383a0",
        },
    ),
    "verify": (
        ["verify", "--lambda-bar", "3.2", "--delta", "0.05", *SMALL, "--format", "csv,json"],
        {
            "verify-3.2-0.05-3.csv": "6880b97371203d5cb064b37e0dde04b8b6e233d02d6cae2241fd736edd347342",
            "verify-3.2-0.05-3.json": "d46cc100b1056763038d03989989b8e4ce7268d05639c9101f9fd20146700b5b",
        },
    ),
    "flipflop": (
        ["flipflop", "--rho", "1,2,3", "--delta", "0.024", *SMALL, "--format", "csv,json"],
        {
            "flipflop-1-2-3-0.024-3.csv": "5d118d23e46bde99e3742842e7f9fd664a9d68721d9e38830d3976c0377ee699",
            "flipflop-1-2-3-0.024-3.json": "bb4e1c74fb760d03934a2fd091ba979ee848d968ff06a4b89aae5c4be1526949",
        },
    ),
}


def digests(outdir) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_digests(name, tmp_path, capsys):
    argv, expected = CASES[name]
    assert parse_and_dispatch([*argv, "--seed", "3", "--outdir", str(tmp_path)]) == 0
    assert digests(tmp_path) == expected


def test_config_file_gives_the_same_bytes(tmp_path, capsys):
    # the keys whose values are lists (rho, format) through the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "rho = 1,2,3\ndelta = 0.024\nparticles = 200\ngenerations = 200\nwindow = 100\n"
        "format = csv,json\nseed = 3\n"
    )
    outdir = tmp_path / "out"
    assert parse_and_dispatch(["flipflop", "--config", str(cfg), "--outdir", str(outdir)]) == 0
    assert digests(outdir) == CASES["flipflop"][1]
