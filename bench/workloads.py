"""Seeded input generation and the command list of each workload.

Every input file is generated from the workload seed into a work directory;
chanfactor only ever sees those files. Each generator also returns what it
planted (class rows, assignment, distribution, ensemble magnitudes), so that
the oracles in ``oracles.py`` can check outputs without calling chanfactor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# The CLI's default --tol; no command overrides it.
TOL = 1e-9
# Share of the uniform row mixed into each Dirichlet class row, so that every
# entry is at least FLOOR_MIX / n_outputs and jitter never leaves [0, 1].
FLOOR_MIX = 0.2
# Planted classes must differ by more than SEPARATION * TOL in max-norm, so
# that the planted partition is the true causal partition.
SEPARATION = 1e3

# BENCHMARK.json gates many-inputs and sweeps. many-classes stays here to be
# run and traced by hand: on a shared 2-vCPU host the medians of its
# 30-second runs spread 0.11-0.20 (interquartile range over median, ten
# seeds), too wide to gate, and its layers are also crossed by many-inputs.
WORKLOADS = {
    "many-inputs": (
        "8000 inputs over 100 planted classes: causal_partition runs once per "
        "command and dominates; half the members are exact copies, half jittered within tol/4"
    ),
    "many-classes": (
        "400 inputs, each its own class, 16 outputs: 79,800 fidelity pairs and a "
        "23 MB JSON report dominate; no row is shared, so dedup gains nothing"
    ),
    "sweeps": (
        "heatmap, casestudy, two phase-scans and merge-demo: no channel code, "
        "per-call cost on 2x2 and 3x3 states and five interpreter start-ups"
    ),
}

# (inputs, classes, outputs) of the channel workloads at full size.
CHANNEL_SIZES = {
    "many-inputs": (8000, 100, 8),
    "many-classes": (400, 400, 16),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its metric name, its arguments after ``chanfactor.cli``,
    and the oracle that checks its stdout bytes."""

    name: str
    argv: tuple
    check: Callable[[bytes], None]


@dataclass(frozen=True)
class PlantedChannel:
    matrix: np.ndarray      # (inputs, outputs), exactly as written to the file
    class_rows: np.ndarray  # (classes, outputs)
    assignment: np.ndarray  # class index of each input
    dist: np.ndarray        # input distribution, exactly as written

    @property
    def labels(self) -> list:
        return [f"x{i}" for i in range(self.matrix.shape[0])]


def planted_channel(rng, n_inputs: int, n_classes: int, n_outputs: int) -> PlantedChannel:
    """Channel whose causal partition is known by construction.

    Class rows are Dirichlet draws mixed with the uniform row. Members are
    shuffled over the input order; in each class the first half of the
    members (in a random order) are bitwise copies of the class row and the
    rest carry zero-sum jitter of at most tol/4 per entry.
    """
    rows = (1 - FLOOR_MIX) * rng.dirichlet(np.ones(n_outputs), size=n_classes)
    rows += FLOOR_MIX / n_outputs
    gaps = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() <= SEPARATION * TOL:
        raise AssertionError(f"planted classes only {gaps.min():.3e} apart")

    assignment = rng.permutation(np.arange(n_inputs) % n_classes)
    matrix = rows[assignment]
    half = n_outputs // 2
    for k in range(n_classes):
        members = rng.permutation(np.flatnonzero(assignment == k))
        for x in members[(members.size + 1) // 2:]:
            v = rng.uniform(-TOL / 4, TOL / 4, size=half)
            slots = rng.permutation(n_outputs)
            matrix[x, slots[:half]] += v
            matrix[x, slots[half:2 * half]] -= v

    w = rng.uniform(0.5, 1.5, size=n_inputs)
    return PlantedChannel(matrix, rows, assignment, w / w.sum())


def _dump(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _channel_files(workdir: Path, planted: PlantedChannel, tag: str) -> tuple:
    n_out = planted.matrix.shape[1]
    channel = _dump(workdir / f"{tag}-channel.json", {
        "inputs": planted.labels,
        "outputs": [f"y{j}" for j in range(n_out)],
        "rows": planted.matrix.tolist(),
    })
    dist = _dump(workdir / f"{tag}-dist.json", {"probabilities": planted.dist.tolist()})
    return channel, dist


def phase_ensemble(rng, n: int) -> dict:
    """Weights and magnitudes of an n-state two-output qubit ensemble, with
    every a_j and b_j nonzero so the optimal phases are well defined."""
    w = rng.uniform(0.5, 1.5, size=n)
    a = rng.uniform(0.15, 0.95, size=n)
    return {"weights": (w / w.sum()).tolist(), "a": a.tolist(), "b": np.sqrt(1 - a**2).tolist()}


def build(name: str, seed: int, workdir: Path, scale: float = 1.0) -> list:
    """Write the inputs of workload ``name`` and return its invocations.

    ``scale`` shrinks the inputs of the channel workloads (the traced run
    uses 0.5 for its scaling view); it must stay 1.0 for ``sweeps``.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])

    if name in CHANNEL_SIZES:
        n_in, n_cls, n_out = CHANNEL_SIZES[name]
        if name == "many-classes":
            n_in = n_cls = round(n_cls * scale)
        else:
            n_in = round(n_in * scale)
        planted = planted_channel(rng, n_in, n_cls, n_out)
        tag = f"{name}-{n_in}"
        channel, dist = _channel_files(workdir, planted, tag)
        qfactorize = Invocation(
            "qfactorize",
            ("qfactorize", channel, "--dist", dist),
            partial(oracles.check_qfactorize, planted, TOL),
        )
        if name == "many-classes":
            return [qfactorize]
        factorize = Invocation(
            "factorize",
            ("factorize", channel, "--dist", dist),
            partial(oracles.check_factorize, planted),
        )
        return [factorize, qfactorize]

    if scale != 1.0:
        raise ValueError("sweeps has no scaled variant")
    ens3 = phase_ensemble(rng, 3)
    ens18 = phase_ensemble(rng, 18)
    return [
        Invocation("heatmap", ("heatmap", "--points", "101"),
                   partial(oracles.check_heatmap, 101)),
        Invocation("casestudy", ("casestudy", "--points", "10001"),
                   partial(oracles.check_casestudy, 10001)),
        Invocation("phase-scan-grid",
                   ("phase-scan", _dump(workdir / "ensemble-3.json", ens3), "--points", "720"),
                   partial(oracles.check_phase_scan, ens3, 720)),
        Invocation("phase-scan-signs",
                   ("phase-scan", _dump(workdir / "ensemble-18.json", ens18)),
                   partial(oracles.check_phase_scan, ens18, 2)),
        Invocation("merge-demo", ("merge-demo",), oracles.check_merge_demo),
    ]
