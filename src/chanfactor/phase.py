"""Closed-form entropy of phased two-output qubit signal ensembles.

For N pure qubit states a_j|0> + b_j e^{i phi_j}|1>, the determinant of the
average state has the closed form ``delta`` below, the two eigenvalues are
(1 +- sqrt(1 - 4 delta))/2, and the entropy is an increasing function of
delta. Minimizing entropy over the phases therefore reduces to minimizing
delta, whose stationary points are exactly the configurations where all
phase differences are multiples of pi; the all-equal configuration is the
minimum. ``optimal_phases`` returns that configuration, and the grid /
sign-pattern scanners provide independent verification of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import _weight_vector
from .linalg import STATE_TOL, _freeze
from .qfactor import Ensemble, PureState

__all__ = [
    "DegenerateMagnitudes",
    "GridScan",
    "PhasedQubitEnsemble",
    "delta",
    "entropy_closed_form",
    "entropy_from_delta",
    "grid_scan",
    "optimal_phases",
    "phase_gradient",
    "sign_pattern_deltas",
]


class DegenerateMagnitudes(ValueError):
    """Some amplitude magnitude is zero, so its phase has no effect."""


@dataclass(frozen=True)
class PhasedQubitEnsemble:
    """Weighted qubit states a_j|0> + b_j e^{i phi_j}|1>.

    Magnitudes are nonnegative reals with a_j^2 + b_j^2 = 1; phases are in
    radians.
    """

    weights: np.ndarray
    a: np.ndarray
    b: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        w = _weight_vector(self.weights, "weights")
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        phi = np.asarray(self.phases, dtype=float)
        if not (a.size == b.size == phi.size == w.size):
            raise ValueError("weights, a, b, phases must have equal length")
        if not np.isfinite(phi).all():
            raise ValueError("phases must be finite")
        if a.min() < 0 or b.min() < 0:
            raise ValueError("magnitudes must be nonnegative")
        # A NaN or infinite magnitude makes norm_err NaN or infinite.
        norm_err = np.abs(a**2 + b**2 - 1.0).max()
        if not norm_err <= STATE_TOL:
            raise ValueError(f"a_j^2 + b_j^2 must be finite and within 1 +- {STATE_TOL:.0e}, off by {norm_err:.3e}")
        object.__setattr__(self, "weights", w)
        for name, arr in (("a", a), ("b", b), ("phases", phi)):
            object.__setattr__(self, name, _freeze(arr))

    @classmethod
    def from_magnitudes(cls, weights, a, b) -> "PhasedQubitEnsemble":
        a = np.asarray(a, dtype=float)
        return cls(weights, a, b, np.zeros(a.size))

    @property
    def size(self) -> int:
        return self.weights.size

    def with_phases(self, phases) -> "PhasedQubitEnsemble":
        return PhasedQubitEnsemble(self.weights, self.a, self.b, phases)

    def states(self) -> tuple:
        return tuple(
            PureState(np.array([aj, bj * np.exp(1j * pj)]))
            for aj, bj, pj in zip(self.a, self.b, self.phases)
        )

    def ensemble(self) -> Ensemble:
        return Ensemble.from_pure(self.weights, self.states())


def _delta_of_phases(e: PhasedQubitEnsemble, phases: np.ndarray) -> np.ndarray:
    """Determinant of the average state for one phase row or a stack of them.

    ``phases`` has shape (..., N); the result has shape (...). Uses the
    symmetrized cosine form so the value is real by construction. Each pair
    j < k adds w_j w_k cross_jk - 2 c_j c_k cos(phi_k - phi_j) to every row
    at once, computed in place in one scratch array of the result's shape.
    """
    w, a, b = e.weights, e.a, e.b
    coeff = w * a * b
    scratch = np.empty(np.shape(phases)[:-1])
    out = np.zeros(scratch.shape)
    for j, k in itertools.combinations(range(e.size), 2):
        cross = a[j] ** 2 * b[k] ** 2 + a[k] ** 2 * b[j] ** 2
        np.subtract(phases[..., k], phases[..., j], out=scratch)
        np.cos(scratch, out=scratch)
        scratch *= 2 * coeff[j] * coeff[k]
        out += w[j] * w[k] * cross
        out -= scratch
    return out


def delta(e: PhasedQubitEnsemble) -> float:
    """det of the ensemble's average state, in [0, 1/4]."""
    return float(_delta_of_phases(e, e.phases))


def entropy_from_delta(d) -> np.ndarray | float:
    """Entropy of a qubit state with determinant d: eigenvalues
    (1 +- sqrt(1 - 4d))/2 fed through the binary entropy."""
    d = np.asarray(d, dtype=float)
    root = np.sqrt(np.clip(1.0 - 4.0 * d, 0.0, None))
    lam = np.stack([(1.0 + root) / 2.0, (1.0 - root) / 2.0])
    terms = np.where(lam > 0, -lam * np.log2(np.where(lam > 0, lam, 1.0)), 0.0)
    s = terms.sum(axis=0)
    return float(s) if s.ndim == 0 else s


def entropy_closed_form(e: PhasedQubitEnsemble) -> float:
    """Average-state von Neumann entropy via the determinant shortcut."""
    return float(entropy_from_delta(delta(e)))


def phase_gradient(e: PhasedQubitEnsemble) -> np.ndarray:
    """Analytic gradient of ``delta`` with respect to each phase.

    Component i is sum_{j != i} 2 w_i w_j a_i b_i a_j b_j sin(phi_i - phi_j);
    it vanishes exactly when all phase differences are multiples of pi.
    """
    w, a, b, phi = e.weights, e.a, e.b, e.phases
    coeff = w * a * b
    diff = phi[:, None] - phi[None, :]
    grad = 2.0 * coeff[:, None] * coeff[None, :] * np.sin(diff)
    return grad.sum(axis=1)


@dataclass(frozen=True)
class GridScan:
    """Result of an exhaustive phase-grid sweep (phi_1 pinned to 0)."""

    min_entropy: float
    min_delta: float
    argmin_phases: np.ndarray
    resolution: int


def grid_scan(e: PhasedQubitEnsemble, resolution: int) -> GridScan:
    """Exhaustive sweep of phases over a uniform grid on [0, 2pi).

    The first phase is fixed at 0 (a global phase shifts all states
    together and leaves the average state's spectrum untouched), so the
    grid has resolution^(N-1) points. Intended for N <= 3; the cost grows
    exponentially beyond that.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    n = e.size
    if n == 1:
        d = delta(e)
        return GridScan(float(entropy_from_delta(d)), float(d), np.zeros(1), resolution)
    axis = np.arange(resolution) * (2 * np.pi / resolution)
    mesh = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    phases = np.zeros(mesh[0].shape + (n,))
    for i, m in enumerate(mesh):
        phases[..., i + 1] = m
    deltas = _delta_of_phases(e, phases)
    entropies = entropy_from_delta(deltas)
    flat = int(np.argmin(entropies))
    idx = np.unravel_index(flat, deltas.shape)
    return GridScan(
        float(entropies[idx]),
        float(deltas[idx]),
        phases[idx].copy(),
        resolution,
    )


def sign_pattern_deltas(e: PhasedQubitEnsemble) -> np.ndarray:
    """delta at every stationary configuration phi_j in {0, pi}.

    Entry m corresponds to the pattern whose bit j-1 (for j >= 1) selects
    phi_j = pi; phi_0 is always 0. Entry 0 is the all-equal configuration.
    Works on the stack of all 2^(N-1) patterns: column j is set from bit
    j-1 of the pattern index in one array step, and one ``_delta_of_phases``
    call evaluates them all. The stack is stored column by column, so each
    pair reads two contiguous columns.
    """
    n = e.size
    index = np.arange(2 ** (n - 1))
    patterns = np.zeros((index.size, n), order="F")
    for j in range(1, n):
        patterns[:, j] = np.pi * ((index >> (j - 1)) & 1)
    return _delta_of_phases(e, patterns)


def optimal_phases(e: PhasedQubitEnsemble) -> tuple:
    """Entropy-minimizing phase assignment (canonically all zeros).

    The minima form a one-parameter family phi_j = Phi + 2 pi n_j; the
    representative with Phi = 0 is returned together with its entropy.
    Raises DegenerateMagnitudes when some a_j or b_j is zero, since that
    state's phase then has no effect and the minimizing family degenerates.
    """
    if np.any(e.a == 0) or np.any(e.b == 0):
        raise DegenerateMagnitudes("every a_j and b_j must be nonzero")
    phases = np.zeros(e.size)
    return phases, entropy_closed_form(e.with_phases(phases))
