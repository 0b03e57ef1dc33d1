"""Tolerances, the record base, the entropy kernel and small array helpers
shared by every chanfactor module.

Every round-off tolerance of the package lives here with its reason. The
array helpers operate on plain numpy arrays and return new arrays; inputs
are never modified.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

__all__ = [
    "EIG_CLAMP", "ENTROPY_TOL", "NEG_TOL", "RANK_TOL", "ROW_TOL", "STATE_TOL", "SUM_TOL", "UHLMANN_CUTOFF",
    "purity",
]

# Every round-off tolerance of the package; entries are O(1), so all are absolute.

# Equal rows or matrices: partition, checks, saturation, witness, CLI --tol; far above round-off.
ROW_TOL = 1e-9
# Row sum, weight sum or trace vs 1: a sum of entries, held at the scale of ROW_TOL.
SUM_TOL = 1e-9
# Probabilities and weights down to -NEG_TOL are round-off zeros of differences like 1 - p.
NEG_TOL = 1e-12
# Eigenvalues down to -EIG_CLAMP are round-off zeros of a validated density matrix.
EIG_CLAMP = 1e-10
# State norm, a^2 + b^2 and DensityMatrix Hermiticity: states are sums of a few O(1) products.
STATE_TOL = 1e-10
# Uhlmann eigenvalues below this fraction of the largest are square-root noise worth sqrt(eps) each.
UHLMANN_CUTOFF = 1e-14
# Case-study rank cutoff: the M8 singular values are 0.41 and one null value near 5e-17.
RANK_TOL = 1e-9
# Entropy gap in bits treated as a tie: the phase-scan `pass` check.
ENTROPY_TOL = 1e-9


def _check_tol(tol: float) -> float:
    """``tol`` itself; ValueError naming it unless 0 < tol < inf, so NaN fails too."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


def _freeze(a) -> np.ndarray:
    """Read-only copy of ``a``, so that records holding arrays stay immutable."""
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def _checked_record(name: str, fields: str) -> type:
    """Namedtuple base of a record whose subclass checks and normalises its
    fields in ``__new__``. Its ``_make``, which ``_replace`` calls, builds
    through that ``__new__`` too, so no construction skips the checks."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def _entropy_bits(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis, entries <= 0 counting as 0.

    A zero entropy is 0.0, never -0.0 (the ``+ 0.0``): this is the one home
    of that rule, for every entropy the package prints. The per-state
    ``shannon_entropy`` and ``von_neumann_entropy`` pass whole vectors and
    spectra as the sweeps pass whole rows, so both agree bit for bit.
    """
    pos = w > 0
    return -np.where(pos, w * np.log2(np.where(pos, w, 1.0)), 0.0).sum(axis=-1) + 0.0


def _check_vector(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` itself; ValueError naming it unless it is a nonempty 1-D array."""
    if a.ndim != 1 or a.size < 1:
        raise ValueError(f"{name} must form a nonempty vector")
    return a


def _check_square_stack(a: np.ndarray) -> np.ndarray:
    """``a`` itself; ValueError unless it is a nonempty square matrix or a stack of them."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def purity(m) -> np.ndarray | float:
    """tr(m²) for Hermitian m, or for each matrix of a (..., d, d) stack;
    equals the squared Frobenius norm.

    Each value is ``np.vecdot`` of the matrix flattened to a vector with
    itself, which gives the same bits as ``np.vdot(m, m).real``; a float for
    one matrix.
    """
    a = _check_square_stack(np.asarray(m, dtype=complex))
    rows = a.reshape(a.shape[:-2] + (a.shape[-1] ** 2,))
    p = np.vecdot(rows, rows).real
    return float(p) if p.ndim == 0 else p
