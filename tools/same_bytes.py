"""Same-bytes check: does this checkout print what PARENT prints for every seed-1 bench command?

Builds the inputs of ``bench/workloads.build(name, 1, ...)`` for many-inputs,
sweeps and many-classes once, in one temporary directory: the reports echo
their input paths, so both sides must read the same files. Runs each of the
8 commands, the 9 front-door command lines that the parser answers alone
(``--help``, each subcommand's ``--help`` and two usage errors), and 4
command lines that a validation check refuses (one invalid document or
value per kind, written into the same directory), as a
``python -m chanfactor.cli`` child process, once with this checkout's
``src`` as ``PYTHONPATH`` and once with ``PARENT/src``, and prints one
Markdown table row per command line: the exit codes, the sha256 prefixes
of stdout and stderr on each side, and ``same`` or ``DIFF``. Exits 1 on any
difference. It only reads ``bench/``. The stdout digests of the channel and
phase-scan commands change from one run of the tool to the next, because
their reports echo the temporary directory's path.

    python tools/same_bytes.py PARENT        # PARENT: another checkout's root
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("many-inputs", "sweeps", "many-classes")
SEED = 1
SUBCOMMANDS = ("factorize", "qfactorize", "heatmap", "phase-scan", "casestudy", "merge-demo")


def front_door(channel: str) -> list:
    """(name, argv) of each command line that ends in the parser: the help
    texts, a bad ``--points`` and a bad ``--tol`` given with ``channel``."""
    argvs = [("--help",), *((c, "--help") for c in SUBCOMMANDS), ("heatmap", "--points", "x")]
    return [(" ".join(argv), argv) for argv in argvs] + [
        ("factorize CHANNEL --tol=nan", ("factorize", channel, "--tol=nan"))
    ]


def refusals(work: Path, channel: str) -> list:
    """(name, argv) of one command line per kind of invalid input, its
    documents written into ``work``: a channel row with a negative entry, a
    ``--dist`` summing to 1.6 (given with ``channel``), an ensemble with
    a^2 + b^2 != 1, and a heatmap axis of one point."""
    documents = {
        "bad-channel.json": {"inputs": ["a", "b"], "outputs": ["0", "1"], "rows": [[0.5, 0.5], [-0.1, 1.1]]},
        "bad-dist.json": [0.5, 0.6, 0.25, 0.25],
        "bad-ensemble.json": {"weights": [0.5, 0.5], "a": [0.6, 0.8], "b": [0.6, 0.6]},
    }
    for name, doc in documents.items():
        (work / name).write_text(json.dumps(doc))
    return [
        ("factorize BAD-CHANNEL", ("factorize", str(work / "bad-channel.json"))),
        ("factorize CHANNEL --dist BAD-DIST", ("factorize", channel, "--dist", str(work / "bad-dist.json"))),
        ("phase-scan BAD-ENSEMBLE", ("phase-scan", str(work / "bad-ensemble.json"))),
        ("heatmap --points 1", ("heatmap", "--points", "1")),
    ]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def run(src: Path, argv: tuple, cwd: Path) -> tuple:
    """(exit code, stdout digest, stderr digest) of one command run against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "chanfactor.cli", *argv], cwd=cwd, env=env, capture_output=True)
    return done.returncode, digest(done.stdout), digest(done.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parent = parser.parse_args(argv).parent.resolve()
    if not (parent / "src" / "chanfactor").is_dir():
        parser.error(f"{parent} has no src/chanfactor")
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # bench/ is not a package

    sides = "(this / parent)"
    print(f"| workload | command | exit {sides} | stdout sha256 {sides} | stderr sha256 {sides} | result |")
    print("| --- | --- | --- | --- | --- | --- |")
    differ = False
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp)
        rows = [(name, inv.name, inv.argv) for name in WORKLOADS for inv in workloads.build(name, SEED, work)]
        channel = next(argv[1] for _, command, argv in rows if command == "factorize")
        rows += [("front-door", command, argv) for command, argv in front_door(channel)]
        rows += [("refusal", command, argv) for command, argv in refusals(work, channel)]
        for name, command, argv in rows:
            this, other = run(ROOT / "src", argv, work), run(parent / "src", argv, work)
            cells = " | ".join(f"{a} / {b}" for a, b in zip(this, other))
            differ |= this != other
            print(f"| {name} | {command} | {cells} | {'same' if this == other else 'DIFF'} |", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
