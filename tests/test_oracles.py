"""Differential tests: every command the benchmark runs, on small seeded
inputs, checked by the benchmark's own oracles. Those re-derive each output
with numpy alone from the structure ``bench/workloads.py`` plants, so they
do not share code with the library."""

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


def test_sweeps(capsys, tmp_path):
    invocations = workloads.build("sweeps", 1, tmp_path)
    assert len(invocations) == 5
    check_all(capsys, invocations)
