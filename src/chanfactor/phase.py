"""Closed-form entropy of phased two-output qubit signal ensembles.

For N pure qubit states a_j|0> + b_j e^{i phi_j}|1>, the determinant of the
average state has the closed form ``delta`` below, the two eigenvalues are
(1 +- sqrt(1 - 4 delta))/2, and the entropy is an increasing function of
delta. Minimizing entropy over the phases therefore reduces to minimizing
delta, whose stationary points are exactly the configurations where all
phase differences are multiples of pi; the all-equal configuration is the
minimum. ``optimal_phases`` returns that configuration, and the grid /
sign-pattern scanners provide independent verification of it.

The scanners reduce on delta as well: ``grid_scan`` evaluates the exact
delta and the entropy only on the points within ``DELTA_WINDOW`` of the
smallest delta, found through one complex sum per grid point. That returns
exactly the point a full evaluation would, because the entropy's slope in
delta is at least 2/ln 2, so the window's 1e-12 in delta is worth far more
than the entropy's round-off.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from ._documents import number_array, required
from .linalg import STATE_TOL, _check_vector, _checked_record, _entropy_bits, _freeze, _weight_vector
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

# Even at resolution 2 (the sign patterns) the grid has 2^(N-1) points: 24 states
# make 2^23, 64 MiB per float64 array.
MAX_SIGN_STATES = 24
# grid_scan evaluates the entropy only within this absolute distance of the
# smallest delta; its docstring says why the result is exact.
DELTA_WINDOW = 1e-12
# grid_scan works through blocks of about this many grid points, so its
# temporaries stay small however many points tie.
SCAN_CHUNK = 1 << 13


class DegenerateMagnitudes(ValueError):
    """Some amplitude magnitude is zero, so its phase has no effect."""


class PhasedQubitEnsemble(_checked_record("PhasedQubitEnsemble", "weights a b phases")):
    """Weighted qubit states a_j|0> + b_j e^{i phi_j}|1>.

    Magnitudes are nonnegative reals with a_j^2 + b_j^2 = 1; phases are in
    radians. All four fields are read-only float vectors.
    """

    __slots__ = ()

    def __new__(cls, weights, a, b, phases):
        w = _weight_vector(weights, "weights")
        a, b, phi = (_check_vector(np.asarray(v, dtype=float), name)
                     for name, v in (("a", a), ("b", b), ("phases", phases)))
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
        return super().__new__(cls, w, _freeze(a), _freeze(b), _freeze(phi))

    @classmethod
    def from_magnitudes(cls, weights, a, b) -> "PhasedQubitEnsemble":
        a = np.asarray(a, dtype=float)
        return cls(weights, a, b, np.zeros(a.size))

    @classmethod
    def from_json(cls, data) -> "PhasedQubitEnsemble":
        """An ensemble document: an object with number arrays ``weights``, ``a`` and ``b``; every phase 0."""
        return cls.from_magnitudes(*(number_array(required(data, key), key) for key in ("weights", "a", "b")))

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


def _delta_of_phases(e: PhasedQubitEnsemble, phases) -> np.ndarray:
    """Determinant of the average state over broadcast phase columns.

    ``phases`` holds N arrays (or scalars), column j giving phi_j; the
    result has the shape the columns broadcast to. Uses the symmetrized
    cosine form so the value is real by construction. Each pair j < k adds
    w_j w_k cross_jk to every entry, then subtracts
    2 c_j c_k cos(phi_k - phi_j), whose cosine is taken on the broadcast
    shape of columns j and k alone, in one scratch array of that shape.
    """
    w, a, b = e.weights, e.a, e.b
    coeff = w * a * b
    out = np.zeros(np.broadcast_shapes(*map(np.shape, phases)))
    for j, k in itertools.combinations(range(e.size), 2):
        cross = a[j] ** 2 * b[k] ** 2 + a[k] ** 2 * b[j] ** 2
        out += w[j] * w[k] * cross
        # asarray makes the difference of two scalar phases a writable 0-d array.
        term = np.asarray(np.subtract(phases[k], phases[j]))
        np.cos(term, out=term)
        term *= 2 * coeff[j] * coeff[k]
        out -= term
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
    # A view with the eigenvalue axis last; a copy costs more than the reduction.
    s = _entropy_bits(np.moveaxis(lam, 0, -1))
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


class GridScan(NamedTuple):
    """Result of an exhaustive phase-grid sweep (phi_1 pinned to 0)."""

    min_entropy: float
    min_delta: float
    argmin_phases: np.ndarray
    resolution: int


def _grid_axis(e: PhasedQubitEnsemble, resolution: int) -> np.ndarray:
    """The axis ``arange(resolution) * 2pi / resolution`` of the phase grid.

    Refuses a resolution below 1, and more than ``MAX_SIGN_STATES`` states,
    before anything of the grid's size is allocated.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    if e.size > MAX_SIGN_STATES:
        raise ValueError(
            f"the phase grid runs for at most {MAX_SIGN_STATES} states; this ensemble has {e.size}"
        )
    return np.arange(resolution) * (2 * np.pi / resolution)


def _phase_grid(e: PhasedQubitEnsemble, resolution: int) -> tuple:
    """The grid axis and the delta at every point of the phase grid.

    The first phase is fixed at 0 (a global phase shifts all states
    together and leaves the average state's spectrum untouched), so the
    grid has resolution^(N-1) points on ``_grid_axis``. Phase j >= 1 is one
    column along grid axis j-1, of length 1 on the others, so the deltas
    are the only array of the grid's size.
    """
    axis = _grid_axis(e, resolution)
    n = e.size
    columns = [0.0] + [axis.reshape((-1,) + (1,) * (n - 1 - j)) for j in range(1, n)]
    return axis, _delta_of_phases(e, columns)


def _outer_sums(start: float, terms: list) -> np.ndarray:
    """start + t_1[i_1] + ... + t_m[i_m] over every index tuple, in C order."""
    sums = np.array([start])
    for t in terms:
        sums = np.add.outer(sums, t).ravel()
    return sums


def _phase_sum_eps(c: np.ndarray) -> float:
    """The bound eps of ``grid_scan`` for the coefficients c_j = w_j a_j b_j."""
    n = c.size
    return 2.0**-53 * (n * n + float(c.sum()) ** 2 * (4 * n + 30))


def grid_scan(e: PhasedQubitEnsemble, resolution: int) -> GridScan:
    """Exhaustive sweep of phases over a uniform grid on [0, 2pi).

    The grid is ``_phase_grid``'s, of resolution^(N-1) points. Resolution 2
    is the set of stationary configurations phi_j in {0, pi}; finer grids
    are intended for N <= 3, since the cost grows exponentially.

    The result is the first grid point, in C order, of least entropy, with
    the entropy and delta that ``entropy_from_delta`` and
    ``_delta_of_phases`` give there: exactly what evaluating the entropy at
    every point of ``_phase_grid`` gives. Only candidates get that exact
    evaluation.

    *Which points can win.* The true entropy rises with delta at a slope of
    at least 2/ln 2, so a point whose delta exceeds the grid's smallest by
    ``DELTA_WINDOW`` (1e-12) has an entropy at least 2.9e-12 bits above the
    minimum's, while the round-off of the computed entropy (sqrt, log2, and
    the clip of round-off deltas outside [0, 1/4]) stays well below 1e-13
    bits. So every point of least computed entropy has a delta within
    ``DELTA_WINDOW`` of the smallest, and hence of d_0, the delta of the
    first grid point (all phases 0). Any superset of those points, scanned
    in C order, has the same first minimum as the whole grid.

    *Candidates from one complex sum.* With c_j = w_j a_j b_j,
    delta(phi) = K + sum_j c_j^2 - s(phi), where s = |sum_j c_j e^{i phi_j}|^2
    and K = sum_{j<k} w_j w_k (a_j^2 b_k^2 + a_k^2 b_j^2) is the same at
    every point. The scan computes s as Re^2 + Im^2, Re and Im being outer
    sums of per-state cosine and sine columns, and takes as candidates the
    points with s >= s_0 - (``DELTA_WINDOW`` + 2 eps), s_0 being the first
    point's. If every point has |(s - |z|^2)| + |d - D| <= eps, where z is
    the exact sum and D the exact delta, then s_0 - s <= d - d_0 + 2 eps,
    and the candidates are such a superset.

    *The bound eps* (u = 2^-53, S = sum_j c_j <= 1/2, N states, numpy's
    float64 cos and sin taken as within 4 ulp, and D built from the
    computed pair constants, whose sum K' + S^2 is at most 1):
    - ``_delta_of_phases`` adds N(N-1) terms of total magnitude at most 1,
      off by at most gamma_{N(N-1)} <= 1.01 N(N-1) u; each pair term
      2 c_j c_k cos(phi_k - phi_j) is off by at most
      2 c_j c_k (2pi + 4 + 2) u (1.01), the rounding of the phase
      difference included, at most 12.4 S^2 u over all pairs;
    - Re and Im are each within S (5 + N) u (1.02) of the exact sums (each
      term's cosine or sine and product, then N - 1 additions in any
      order), which moves Re^2 + Im^2 by at most 3 S^2 (5 + N) u (1.02);
      the two squares and their sum add 2.1 S^2 u;
    - the floor's own subtraction rounds by at most S^2 u.
    eps = u (N^2 + S^2 (4 N + 30)) covers all of these: at most 6.7e-14 at
    24 states, against the window's 1e-12.

    The scan holds the per-state sums over a leading and a trailing group of
    grid axes, and one block of about ``SCAN_CHUNK`` grid points at a time.
    A later block replaces the running minimum only with a strictly smaller
    entropy, so the first minimum wins even on a grid where every point
    ties.
    """
    axis = _grid_axis(e, resolution)
    n, dims = e.size, e.size - 1
    c = e.weights * e.a * e.b
    trailing = 0
    while trailing < dims and resolution ** (trailing + 1) <= SCAN_CHUNK:
        trailing += 1
    lead = dims - trailing
    cos_axis, sin_axis = np.cos(axis), np.sin(axis)
    re_lead = _outer_sums(c[0], [c[j] * cos_axis for j in range(1, lead + 1)])
    im_lead = _outer_sums(0.0, [c[j] * sin_axis for j in range(1, lead + 1)])
    re_tail = _outer_sums(0.0, [c[j] * cos_axis for j in range(lead + 1, n)])
    im_tail = _outer_sums(0.0, [c[j] * sin_axis for j in range(lead + 1, n)])
    s_0 = (re_lead[0] + re_tail[0]) ** 2 + (im_lead[0] + im_tail[0]) ** 2
    floor = s_0 - (DELTA_WINDOW + 2 * _phase_sum_eps(c))
    # A block is `rows` leading indices by the whole trailing grid.
    rows = max(1, SCAN_CHUNK // re_tail.size)
    tail_columns = [axis.reshape((1,) * (q + 1) + (-1,) + (1,) * (trailing - 1 - q)) for q in range(trailing)]
    min_entropy, best, min_delta = np.inf, 0, 0.0
    for start in range(0, re_lead.size, rows):
        re = np.add.outer(re_lead[start : start + rows], re_tail).ravel()
        im = np.add.outer(im_lead[start : start + rows], im_tail).ravel()
        re *= re
        im *= im
        re += im
        candidates = np.flatnonzero(re >= floor)
        if not candidates.size:
            continue
        # The pair form on the whole block: its trailing phases broadcast as
        # in _phase_grid, so each pair takes few cosines.
        lead_index = np.arange(start, start + re.size // re_tail.size).reshape((-1,) + (1,) * trailing)
        lead_columns = [axis[lead_index // resolution ** (lead - j) % resolution] for j in range(1, lead + 1)]
        deltas = _delta_of_phases(e, [0.0, *lead_columns, *tail_columns]).reshape(-1)[candidates]
        entropies = entropy_from_delta(deltas)
        i = int(np.argmin(entropies))
        if entropies[i] < min_entropy:
            min_entropy, min_delta = float(entropies[i]), float(deltas[i])
            best = start * re_tail.size + int(candidates[i])
    idx = np.unravel_index(best, (resolution,) * dims)
    return GridScan(min_entropy, min_delta, _freeze([0.0] + [axis[i] for i in idx]), resolution)


def sign_pattern_deltas(e: PhasedQubitEnsemble) -> np.ndarray:
    """delta at every stationary configuration phi_j in {0, pi}.

    Entry m corresponds to the pattern whose bit j-1 (for j >= 1) selects
    phi_j = pi; phi_0 is always 0. Entry 0 is the all-equal configuration.
    The patterns are the resolution-2 phase grid, whose Fortran order is
    the pattern index.
    """
    return _phase_grid(e, 2)[1].ravel(order="F")


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
