"""Dense complex linear algebra for small Hermitian problems (dim <= 16).

Everything here operates on plain numpy arrays and returns new arrays;
inputs are never modified. All spectral quantities downstream (entropies,
fidelities) are in base 2, so eigenvalue conventions fixed here (descending
order, round-off clamping) are relied on throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianEigen",
    "NotHermitian",
    "NotPSD",
    "EIG_CLAMP",
    "eig_hermitian",
    "psd_sqrt",
    "purity",
]

# Every round-off tolerance of the package; entries are O(1), so all are absolute.

# Equal rows or matrices: partition, checks, saturation, witness, CLI --tol; far above round-off.
ROW_TOL = 1e-9
# Row sum, weight sum or trace vs 1: a sum of entries, held at the scale of ROW_TOL.
SUM_TOL = 1e-9
# Probabilities and weights down to -NEG_TOL are round-off zeros of differences like 1 - p.
NEG_TOL = 1e-12
# Max |A - A†| for eig_hermitian: general input such as computed products, looser than STATE_TOL.
HERMITIAN_TOL = 1e-8
# psd_sqrt clamps eigenvalues down to -PSD_TOL: they move by about the asymmetry HERMITIAN_TOL.
PSD_TOL = 1e-8
# Eigenvalues down to -EIG_CLAMP are round-off zeros of a validated density matrix.
EIG_CLAMP = 1e-10
# State norm, a^2 + b^2 and DensityMatrix Hermiticity: states are sums of a few O(1) products.
STATE_TOL = 1e-10
# Uhlmann eigenvalues below this fraction of the largest are square-root noise worth sqrt(eps) each.
UHLMANN_CUTOFF = 1e-14
# Case-study rank cutoff: the M8 singular values are 0.41 and one null value near 5e-17.
RANK_TOL = 1e-9
# Entropy gap in bits treated as a tie: rebit `beaten` and the phase-scan `pass` check.
ENTROPY_TOL = 1e-9


class NotHermitian(ValueError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class NotPSD(ValueError):
    """Hermitian matrix has an eigenvalue below the PSD tolerance."""


def _square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    asym = np.abs(a - a.conj().T).max()
    if asym > HERMITIAN_TOL:
        raise NotHermitian(
            f"max asymmetry {asym:.3e} exceeds {HERMITIAN_TOL:.0e}"
        )
    # Symmetrize so downstream results do not depend on which triangle
    # carried the round-off.
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition with eigenvalues sorted in descending order.

    ``eigenvectors[:, i]`` is the unit eigenvector paired with
    ``eigenvalues[i]``; the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return V diag(w) V†."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(m) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian if the max asymmetry exceeds HERMITIAN_TOL. Eigenvalues are
    real and returned in descending order.
    """
    a = _check_hermitian(_square(m))
    w, v = np.linalg.eigh(a)
    order = slice(None, None, -1)
    return HermitianEigen(np.ascontiguousarray(w[order]), np.ascontiguousarray(v[:, order]))


def psd_sqrt(m) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in [-PSD_TOL, 0) are treated as round-off and clamped to zero;
    anything more negative raises NotPSD. The result R is Hermitian and
    satisfies R @ R ~= m.
    """
    eig = eig_hermitian(m)
    w = eig.eigenvalues
    if w.min() < -PSD_TOL:
        raise NotPSD(f"eigenvalue {w.min():.3e} below -{PSD_TOL:.0e}")
    v = eig.eigenvectors
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    return (root + root.conj().T) / 2


def _check_tol(tol: float) -> float:
    """``tol`` itself; ValueError naming it unless 0 < tol < inf, so NaN fails too."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


def _freeze(a) -> np.ndarray:
    """Read-only copy of ``a``, so frozen dataclasses stay immutable."""
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def purity(m) -> np.ndarray | float:
    """tr(m²) for Hermitian m, or for each matrix of a (..., d, d) stack;
    equals the squared Frobenius norm.

    Each value is conj(r) @ r over the matrix flattened to a row r, which
    gives the same bits as ``np.vdot(m, m).real``; a float for one matrix.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    rows = a.reshape(a.shape[:-2] + (1, a.shape[-1] ** 2))
    p = (rows.conj() @ rows.swapaxes(-1, -2))[..., 0, 0].real
    return float(p) if p.ndim == 0 else p
