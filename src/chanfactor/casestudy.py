"""Qutrit case study: a channel whose minimum-entropy signal state is mixed.

Nine symmetric pure states in dimension 3 (pairwise squared overlap 1/4)
define a SIC measurement. Dropping the 0th projector and spreading its
weight over the other eight yields the 8-element measurement M8, under
which a whole line of states ``rho_A(t)`` produces the same uniform outcome
row. Pairing that line with the fixed state |2><2| Q-factorizes one 2x8
channel for every t, and the average-state entropy along the line attains
its global minimum at the rank-deficient mixed endpoint t = -0.5, not at
the pure endpoint t = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import Channel, Partition
from .linalg import RANK_TOL, _entropy_bits, purity
from .qfactor import (
    POVM,
    DensityMatrix,
    PureState,
    QFactorization,
    _born,
    _density_spectrum,
    _mixture,
    von_neumann_entropy,  # not called here; bench/spans.py traces casestudy.von_neumann_entropy
)

__all__ = [
    "CurvePoint",
    "EntropyPurityCurve",
    "SicFamily",
    "TOutOfRange",
    "T_MAX",
    "T_MIN",
    "build_sic_family",
    "entropy_purity_curve",
    "family_channel",
    "family_qfactorization",
    "m8_constraint_rank",
    "rho_A",
]

T_MIN = -0.5
T_MAX = 1.0

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
# Primitive cube roots of unity, built from exact real parts.
_W = complex(-0.5, _SQRT3 / 2)
_WBAR = complex(-0.5, -_SQRT3 / 2)


class TOutOfRange(ValueError):
    """Line parameter t leaves the positivity interval [-0.5, 1]."""


class SicFamily(NamedTuple):
    """The nine symmetric qutrit states, the M8 measurement, and |2><2|."""

    states: tuple
    povm_m8: POVM
    rho_b: DensityMatrix


def build_sic_family() -> SicFamily:
    """Construct the symmetric state set and the 8-element measurement.

    M8 elements are (1/3)|r_i><r_i| + (1/24)|r_0><r_0| for i = 1..8; the
    1/24 redistribution restores completeness after the 0th projector is
    removed.
    """
    vecs = [
        [1, 0, 0],
        [0.5, 1j * _SQRT3 / 2, 0],
        [0.5, -1j * _SQRT3 / 2, 0],
        [0.5, 0.5, 1 / _SQRT2],
        [0.5, 0.5, _W / _SQRT2],
        [0.5, 0.5, _WBAR / _SQRT2],
        [0.5, -0.5, 1 / _SQRT2],
        [0.5, -0.5, _W / _SQRT2],
        [0.5, -0.5, _WBAR / _SQRT2],
    ]
    states = tuple(PureState(np.asarray(v, dtype=complex)) for v in vecs)
    p0 = states[0].projector()
    elems = tuple(
        states[i].projector() / 3 + p0 / 24 for i in range(1, 9)
    )
    povm = POVM(elems, tuple(str(k) for k in range(8)))
    ket2 = np.zeros(3, dtype=complex)
    ket2[2] = 1.0
    rho_b = DensityMatrix.from_pure(PureState(ket2))
    return SicFamily(states, povm, rho_b)


def rho_A(t: float) -> DensityMatrix:
    """State (1-t) * I/3 + t |0><0| on the line through the maximally mixed
    state and |0><0|; positive exactly for t in [-0.5, 1]."""
    return DensityMatrix(_line_matrices(t))


def _line_matrices(t) -> np.ndarray:
    """Matrices of ``rho_A`` at a scalar or an array of t, shape (..., 3, 3);
    TOutOfRange names the first t outside [-0.5, 1]."""
    t = np.asarray(t, dtype=float)
    outside = ~((T_MIN <= t) & (t <= T_MAX))  # NaN is outside too
    if outside.any():
        raise TOutOfRange(f"t={t[outside][0]} outside [{T_MIN}, {T_MAX}]")
    m = np.multiply.outer(1.0 - t, np.eye(3)) / 3
    m[..., 0, 0] += t
    return m


def family_channel(f: SicFamily, t: float) -> Channel:
    """The 2x8 channel realized by measuring rho_A(t) and |2><2| with M8.

    Row A is uniform (1/8 each) for every t in range; row B is
    [0, 0, 1/6, 1/6, 1/6, 1/6, 1/6, 1/6].
    """
    row_a = f.povm_m8.outcome_probabilities(rho_A(t))
    row_b = f.povm_m8.outcome_probabilities(f.rho_b)
    return Channel(("A", "B"), f.povm_m8.labels, np.vstack([row_a, row_b]))


def family_qfactorization(f: SicFamily, t: float) -> QFactorization:
    """The Q-factorization (A -> rho_A(t), B -> |2><2|, M8) as an object."""
    part = Partition(((0,), (1,)), 2)
    return QFactorization(("A", "B"), part, (rho_A(t), f.rho_b), f.povm_m8)


class CurvePoint(NamedTuple):
    t: float
    entropy_rho_t: float
    purity_rho_t: float
    entropy_rho_At: float


class EntropyPurityCurve(NamedTuple):
    """Entropy and purity of rho_t = 0.5 rho_A(t) + 0.5 |2><2| over the line.

    ``entropy_rho_At`` tracks the unmixed line state rho_A(t) as well, so
    both readings of the family's entropy are available.
    """

    points: tuple

    @property
    def entropies(self) -> np.ndarray:
        return np.array([p.entropy_rho_t for p in self.points])

    def global_min(self) -> CurvePoint:
        """The first point of least entropy."""
        return self.points[int(np.argmin(self.entropies))]

    def monotone_segments(self) -> tuple:
        """Runs of rising and falling entropy as (direction, t_from, t_to).

        A step counts as rising only when the entropy strictly increases; a
        run ends where the direction flips.
        """
        rising = np.diff(self.entropies) > 0
        cuts = (np.flatnonzero(rising[1:] != rising[:-1]) + 1).tolist()
        return tuple(
            ("rising" if rising[a] else "falling", self.points[a].t, self.points[b].t)
            for a, b in zip([0, *cuts], [*cuts, rising.size])
            if a < b
        )


def entropy_purity_curve(f: SicFamily, n_points: int = 151) -> EntropyPurityCurve:
    """Sample t uniformly over [-0.5, 1] (endpoints included) and tabulate
    entropy and purity of the equal-weight average state.

    Runs the kernels of ``average_state``, ``DensityMatrix``,
    ``von_neumann_entropy`` and ``purity`` once over the stack of all t, so
    every entropy equals the per-point ``von_neumann_entropy`` and every
    purity the per-point ``purity`` bit for bit.
    """
    if n_points < 3:
        raise ValueError("need at least 3 sample points")
    ts = np.linspace(T_MIN, T_MAX, n_points)
    rho_at = _line_matrices(ts).astype(complex)
    rho_t = _mixture([0.5, 0.5], [rho_at, f.rho_b.matrix])
    s_at = _entropy_bits(_density_spectrum(rho_at))
    s_t = _entropy_bits(_density_spectrum(rho_t))
    columns = (ts, s_t, purity(rho_t), s_at)
    return EntropyPurityCurve(tuple(map(CurvePoint._make, zip(*(c.tolist() for c in columns)))))


def _traceless_hermitian_basis() -> list:
    """Orthogonal basis of the 8-dimensional traceless Hermitian 3x3 space."""
    basis = []
    for i in range(3):
        for j in range(i + 1, 3):
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = -1j
            m[j, i] = 1j
            basis.append(m)
    d1 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    d2 = np.diag([1.0, 1.0, -2.0]).astype(complex) / _SQRT3
    basis.extend([d1, d2])
    return basis


def m8_constraint_rank(f: SicFamily) -> tuple:
    """Rank of the M8 outcome constraints on traceless state perturbations.

    Returns (rank, direction) where ``direction`` spans the null space: the
    unique traceless perturbation (up to scale) that leaves all eight
    outcome probabilities unchanged. Rank 7 on the 8-dimensional traceless
    space means the family of compatible states is exactly a line.
    """
    basis = _traceless_hermitian_basis()
    a = _born(f.povm_m8.elements, np.stack(basis)).T
    _, s, vh = np.linalg.svd(a)
    rank = int((s > RANK_TOL).sum())
    coeffs = vh[-1]
    direction = sum(c * bm for c, bm in zip(coeffs, basis))
    direction = direction / np.abs(direction).max()
    return rank, direction
