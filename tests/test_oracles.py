"""Differential tests: every command the benchmark runs, on small seeded
inputs, checked by the benchmark's own oracles. Those re-derive each output
with numpy alone from the structure ``bench/workloads.py`` plants, so they
do not share code with the library."""

import hashlib
import sys
from pathlib import Path

import pytest

from chanfactor.cli import main

sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
import workloads  # noqa: E402  (bench/ is not a package)

SEEDS = range(1, 21)
# 160 inputs over 100 classes, and 40 one-member classes: small enough to
# keep the module under about ten seconds on two cores.
SCALES = {"many-inputs": 0.02, "many-classes": 0.1}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of (stdout, stderr) of each seed-1 command at those scales, its
# inputs built into the relative directory "work", so that the paths the
# reports echo are fixed. Their average states have 8 and 16 eigenvalues,
# more than any entropy a GOLDEN fixture in test_cli.py sums.
EMPTY = sha256("")
DIGESTS = {
    ("many-inputs", "factorize"): (
        "73ae844b769a0c32c6f634e32884064351bb0a9aa8d5e9d7f37ada07269c5699", EMPTY),
    ("many-inputs", "qfactorize"): (
        "65dad0d6a0fe0f7294e57913c4f1537b5af11f464db7229263652105d94ba3ae", EMPTY),
    ("many-classes", "qfactorize"): (
        "46e71270d33235c94d3868877f51e0ae23de2f706e1857a7d63957c691f03530", EMPTY),
}
# The same for the sweeps commands at the benchmark's own sizes: heatmap
# --points 101, casestudy --points 10001 and the 3- and 18-state scans.
SWEEPS_DIGESTS = {
    "heatmap": ("214d1d45298925c17f2385061d0b55870a39d4d9db0ca2093ae771d10e44cd41", EMPTY),
    "casestudy": (
        "c9929146ff258f31cd59a12d7e17d85754a5f331f76e0ec31159b19460a16acf",
        "7d91cf725bb06cb351c9f889a14133dd6ca3e4501680c6fc0e86b4c0145e6830"),
    "phase-scan-grid": ("948b67d9bc2336f7db65ad0701f867fcaa3dc54fff3a8dde878f3234f0c7d982", EMPTY),
    "phase-scan-signs": ("63a1f28edc6ecbda06be77b2c72e96679a81de912fdf2ab28937c9d10237e685", EMPTY),
    "merge-demo": ("afc6ef36ee9f05051b475cc6d139760df20db785e2f20c60ce8bfc585511b748", EMPTY),
}


def check_all(capsys, invocations):
    for inv in invocations:
        code = main(list(inv.argv))
        captured = capsys.readouterr()
        assert code == 0, (inv.name, captured.err)
        inv.check(captured.out.encode())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(SCALES))
def test_channel_workload(capsys, tmp_path, name, seed):
    check_all(capsys, workloads.build(name, seed, tmp_path, scale=SCALES[name]))


@pytest.mark.parametrize("name", list(SCALES))
def test_channel_workload_digests(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    invocations = workloads.build(name, 1, Path("work"), scale=SCALES[name])
    for inv in invocations:
        assert main(list(inv.argv)) == 0
        captured = capsys.readouterr()
        assert (sha256(captured.out), sha256(captured.err)) == DIGESTS[name, inv.name], inv.name
    assert {(name, inv.name) for inv in invocations} == {key for key in DIGESTS if key[0] == name}


def test_sweeps(capsys, tmp_path):
    invocations = workloads.build("sweeps", 1, tmp_path)
    assert len(invocations) == 5
    check_all(capsys, invocations)


def test_sweeps_digests(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    invocations = workloads.build("sweeps", 1, Path("work"))
    for inv in invocations:
        assert main(list(inv.argv)) == 0
        captured = capsys.readouterr()
        assert (sha256(captured.out), sha256(captured.err)) == SWEEPS_DIGESTS[inv.name], inv.name
    assert [inv.name for inv in invocations] == list(SWEEPS_DIGESTS)
