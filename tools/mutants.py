"""Mutation check of the tolerances and preconditions: does tier-1 notice a moved bound or a dropped check?

Each row of ``MUTANTS`` names a file under ``src/chanfactor``, a text that
occurs exactly once in it and the one-line change to make there. For each
row this script copies ``src``, ``tests``, ``bench`` and ``pyproject.toml``
into a temporary directory, applies the change, runs the tier-1 suite there
with ``PYTHONPATH`` pointing at the copy, and prints one Markdown table row:
``killed`` when some test fails, ``survived`` when none does. A survivor
costs a full tier-1 run (about 25 s on 2 cores); a killed mutant stops at
its first failure.

    python tools/mutants.py                  # this checkout
    python tools/mutants.py --root OTHER     # the sources and tests of OTHER

A change to a compared tolerance or a check runs this and records the table.
``tests/test_boundaries.py`` checks, in tier-1, that every old text still
occurs exactly once, so the table cannot rot silently.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# (file under src/chanfactor, old text, new text)
MUTANTS = [
    ("qfactor.py", "(slack < -tol)", "(slack < -2 * tol)"),
    ("qfactor.py", "(slack < -tol)", "(slack <= -tol)"),
    ("channel.py", "np.nonzero(gap > tol)", "np.nonzero(gap > 2 * tol)"),
    ("channel.py", "if not w.min() >= -NEG_TOL:", "if not w.min() >= -1e-9:"),
    ("qfactor.py", "off = ~(np.abs(tr - 1.0) <= SUM_TOL)", "off = ~(np.abs(tr - 1.0) <= 1e-6)"),
    ("channel.py", "np.abs(key - key[0]) <= tol", "np.abs(key - key[0]) < tol"),
    ("channel.py", ".max(axis=1) <= tol", ".max(axis=1) < tol"),
    ("qfactor.py", "return np.where(np.abs(norm - 1.0) <= STATE_TOL, amps, amps / norm)", "return amps"),
    ("linalg.py", "EIG_CLAMP = 1e-10", "EIG_CLAMP = 1e-6"),
    ("qfactor.py", "np.abs(slack) <= tol", "np.abs(slack) <= 10 * tol"),
    ("phase.py", "DELTA_WINDOW = 1e-12", "DELTA_WINDOW = 0.0"),
    ("channel.py", "m.min() < -NEG_TOL", "m.min() < -2 * NEG_TOL"),
    ("channel.py", "m.max() > 1 + NEG_TOL", "m.max() > 1 + 2 * NEG_TOL"),
    ("channel.py", "if rowsum_err > SUM_TOL:", "if rowsum_err > 2 * SUM_TOL:"),
    ("channel.py", "if not abs(w.sum() - 1.0) <= SUM_TOL:", "if not abs(w.sum() - 1.0) <= 2 * SUM_TOL:"),
    ("qfactor.py", "off = ~(np.abs(norm - 1.0) <= STATE_TOL)", "off = ~(np.abs(norm - 1.0) <= 2 * STATE_TOL)"),
    ("phase.py", "if not norm_err <= STATE_TOL:", "if not norm_err <= 2 * STATE_TOL:"),
    ("qfactor.py", "if not np.abs(m - adjoint).max() <= STATE_TOL:",
     "if not np.abs(m - adjoint).max() <= 2 * STATE_TOL:"),
    ("qfactor.py", "if not w.min() >= -EIG_CLAMP:", "if not w.min() >= -2 * EIG_CLAMP:"),
    ("qfactor.py", "self.pure.projector()).max() > ROW_TOL", "self.pure.projector()).max() > 2 * ROW_TOL"),
    ("qfactor.py", "ok = asym <= tol and", "ok = asym <= 2 * tol and"),
    ("qfactor.py", "min_eig >= -tol", "min_eig >= -2 * tol"),
    ("qfactor.py", "and comp <= tol", "and comp <= 2 * tol"),
    ("qfactor.py", "cutoff = max(w.max(), 0.0) * UHLMANN_CUTOFF", "cutoff = max(w.max(), 0.0) * 2 * UHLMANN_CUTOFF"),
    ("qfactor.py", "np.abs(_overlaps([p.amplitudes for p in e.pure_states])) > tol",
     "np.abs(_overlaps([p.amplitudes for p in e.pure_states])) > 2 * tol"),
    ("cli.py", "entropy <= scan.min_entropy + ENTROPY_TOL", "entropy <= scan.min_entropy + 2 * ENTROPY_TOL"),
    ("casestudy.py", "(s > RANK_TOL).sum()", "(s > 2 * RANK_TOL).sum()"),
    # Each precondition helper with its refusal disabled.
    ("channel.py", "if p.size != c.n_inputs:", "if False:"),
    ("qfactor.py", "if q.input_labels != c.inputs:", "if False:"),
    ("qfactor.py", "if len(dims) != 1:", "if False:"),
    ("linalg.py", "if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:", "if False:"),
    # Witness-free pairs left at the NaN of their overlap row.
    ("qfactor.py", "np.isnan(f)", "np.isnan(f) & False"),
    # An empty --dist taken for no --dist, the label rule widened past JSON scalars or to
    # non-finite numbers, and the one missing-key rule blind to a missing key.
    ("cli.py", "d = None if (path := args.dist) is None else InputDistribution.from_json(read_json(path))",
     "d = InputDistribution.from_json(read_json(path)) if (path := args.dist) else None"),
    ("_documents.py", "x is None or isinstance(x, (str, int))", "not isinstance(x, (list, dict))"),
    ("_documents.py", "(isinstance(x, float) and math.isfinite(x))", "isinstance(x, float)"),
    ("_documents.py", "if not isinstance(data, dict) or key not in data:", "if not isinstance(data, dict):"),
    # The one negative-zero rule of the entropies, and the one clamp of F_Q at 1.
    ("linalg.py", ".sum(axis=-1) + 0.0", ".sum(axis=-1)"),
    ("qfactor.py", "return i, j, np.minimum(f, 1.0)", "return i, j, f"),
    # The per-state entropies back on a route of their own: the positive entries
    # alone, or a raw eigvalsh; and a --dist of the wrong length let through.
    ("channel.py", "return float(_entropy_bits(_probs(d)))", "return float(_entropy_bits((p := _probs(d))[p > 0]))"),
    ("qfactor.py", "_entropy_bits(_density_spectrum(_as_density(rho).matrix))",
     "_entropy_bits(np.linalg.eigvalsh(_as_density(rho).matrix))"),
    ("channel.py", "if d.probs.size != c.n_inputs:", "if False:"),
    # One intake rule per argument kind: an empty vector let through, a partition member or
    # size that is not an integer (or is a bool) let through, and a POVM of stacked elements.
    ("linalg.py", "if a.ndim != 1 or a.size < 1:", "if a.ndim != 1:"),
    ("channel.py", "if type(x) is not int and not isinstance(x, np.integer):", "if False:"),
    ("channel.py", "if type(x) is not int and", "if not isinstance(x, int) and"),
    ("qfactor.py", "if stack.ndim != 3:", "if False:"),
]

COPIED = ("src", "tests", "bench", "pyproject.toml")
# It reads the unmutated text, which the mutated copy no longer holds.
TABLE_TEST = "tests/test_boundaries.py::test_mutant_table_matches_the_sources"
TIMEOUT_S = 900


def run_mutant(root: Path, file: str, old: str, new: str) -> str:
    """``killed``, ``survived``, ``timeout`` or ``error (exit N)`` for one row."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = root / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        target = copy / "src" / "chanfactor" / file
        text = target.read_text()
        if text.count(old) != 1:
            return f"error ({text.count(old)} matches)"
        target.write_text(text.replace(old, new))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--continue-on-collection-errors", "--deselect", TABLE_TEST]
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            done = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error (exit {done.returncode})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src, tests, bench and pyproject.toml are copied")
    args = parser.parse_args(argv)
    print("| # | file | old | new | result |")
    print("| --- | --- | --- | --- | --- |")
    for i, (file, old, new) in enumerate(MUTANTS, start=1):
        print(f"| {i} | {file} | `{old}` | `{new}` | {run_mutant(args.root, file, old, new)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
