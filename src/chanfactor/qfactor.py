"""Quantum factorizations of classical channels.

A Q-factorization maps each input to a quantum signal state and recovers
the channel's conditional probabilities through a POVM, Pr(y|x) =
tr(E_y rho_x). The canonical construction ``g0_construct`` places square
roots of the conditional probabilities as amplitudes in the measurement
basis; its average-state von Neumann entropy is never larger than the
Shannon entropy of the classical intermediate variable.

Signal states are carried as density matrices so that mixed-state
factorizations are first-class; states built from amplitude vectors keep a
``pure`` witness, which sharpens fidelity computations to machine
precision.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._documents import is_label_array, json_array, number_array, required
from .channel import (
    AlphabetMismatch,
    Channel,
    Partition,
    _bhattacharyya,
    _check_integer,
    _class_row_violations,
    causal_partition,
)
from .linalg import (
    EIG_CLAMP, ROW_TOL, STATE_TOL, SUM_TOL, UHLMANN_CUTOFF, _check_probabilities, _check_square_stack, _check_tol,
    _check_vector, _checked_record, _entropy_bits, _freeze, _weight_vector,
)

__all__ = [
    "DensityMatrix",
    "DimensionMismatch",
    "Ensemble",
    "FidelityBoundReport",
    "IndexOutOfRange",
    "POVM",
    "PovmCheck",
    "PureState",
    "QFactorization",
    "QFactorizationCheck",
    "advantage_grid",
    "average_state",
    "fidelity_bound_check",
    "g0_construct",
    "gram_matrix",
    "is_opwo",
    "maximally_mixed",
    "merge",
    "qfactorization_from_json",
    "qfactorization_to_json",
    "quantum_fidelity",
    "verify_qfactorization",
    "von_neumann_entropy",
]


class DimensionMismatch(ValueError):
    """Operands live in Hilbert spaces of different dimension."""


class IndexOutOfRange(IndexError):
    """Ensemble index is invalid for the requested operation."""


def _common_dim(items) -> None:
    """DimensionMismatch unless every state or POVM of ``items`` has the same ``dim``."""
    dims = sorted({x.dim for x in items})
    if len(dims) != 1:
        raise DimensionMismatch(f"dimensions {dims} must agree")


def _check_unit_norm(v: np.ndarray) -> None:
    """ValueError unless every vector along the last axis of ``v`` has a
    finite norm within STATE_TOL of 1; the message names the first that fails."""
    norm = np.linalg.norm(v, axis=-1)
    off = ~(np.abs(norm - 1.0) <= STATE_TOL)  # a NaN or infinite amplitude is off too
    if off.any():
        raise ValueError(f"state norm {float(norm[off][0])} must be finite and within {STATE_TOL:.0e} of 1")


def _density_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending ``eigvalsh`` spectrum of a density matrix or a stack of them.

    ``m`` is complex with shape (d, d) or (..., d, d). Every matrix must be
    finite and Hermitian within STATE_TOL, have trace 1 within SUM_TOL and no
    eigenvalue below -EIG_CLAMP; the checks run in that order over the whole
    stack, and the first matrix that fails one raises the ValueError
    ``DensityMatrix`` gives for it alone. The spectrum is that of the
    symmetrized stack, which equals the stack when it is exactly Hermitian.
    """
    _check_square_stack(m)
    adjoint = m.conj().swapaxes(-1, -2)
    # A NaN or infinite entry makes m - m^dagger NaN or infinite there.
    if not np.abs(m - adjoint).max() <= STATE_TOL:
        raise ValueError(f"matrix must be finite and Hermitian within {STATE_TOL:.0e}")
    tr = m.trace(0, -2, -1).real
    off = ~(np.abs(tr - 1.0) <= SUM_TOL)
    if off.any():
        raise ValueError(f"trace {float(tr[off][0])} deviates from 1 beyond {SUM_TOL:.0e}")
    w = np.linalg.eigvalsh((m + adjoint) / 2)
    if not w.min() >= -EIG_CLAMP:
        raise ValueError(f"matrix has an eigenvalue below -{EIG_CLAMP:.0e}")
    return w


def _sqrt_amplitudes(rows: np.ndarray) -> np.ndarray:
    """Square roots of probability rows, each rescaled to unit norm only when
    its norm misses 1 by more than STATE_TOL: a row sum within SUM_TOL of 1
    can put it that far off."""
    amps = np.sqrt(np.clip(rows, 0.0, None))
    norm = np.linalg.norm(amps, axis=-1, keepdims=True)
    return np.where(np.abs(norm - 1.0) <= STATE_TOL, amps, amps / norm)


def _projectors(amps: np.ndarray) -> np.ndarray:
    """|a><a| of every amplitude vector along the last axis of ``amps``."""
    return amps[..., :, None] * amps.conj()[..., None, :]


def _mixture(weights, matrices) -> np.ndarray:
    """Symmetrized sum_i w_i m_i over the leading axis of both arguments;
    each w_i broadcasts against the axes of m_i before its matrix axes."""
    total = sum(np.asarray(w)[..., None, None] * m for w, m in zip(weights, matrices))
    return (total + total.conj().swapaxes(-1, -2)) / 2


def _born(elements: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Real part of tr(E_y m) for every element E_y of the (n, d, d) stack
    ``elements`` and every matrix m of ``matrices`` (shape (..., d, d)),
    with the outcome axis last: shape (..., n)."""
    return np.einsum("yij,...ji->...y", elements, matrices).real


def _overlaps(amplitudes) -> np.ndarray:
    """<a_i|a_j> of every pair of the same-length amplitude rows, each with
    the bits of ``PureState.overlap``: ``np.vecdot`` per pair."""
    a = np.stack(amplitudes)
    return np.vecdot(a[:, None, :], a[None, :, :])


class PureState(_checked_record("PureState", "amplitudes")):
    """Unit-norm complex amplitude vector, held read-only as ``amplitudes``."""

    __slots__ = ()

    def __new__(cls, amplitudes):
        v = _check_vector(np.asarray(amplitudes, dtype=complex), "amplitudes")
        _check_unit_norm(v)
        return super().__new__(cls, _freeze(v))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        return _projectors(self.amplitudes)

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        _common_dim((self, other))
        return complex(np.vecdot(self.amplitudes, other.amplitudes))


class DensityMatrix(_checked_record("DensityMatrix", "matrix pure")):
    """Hermitian, PSD, trace-1 matrix, held read-only as ``matrix``, and
    optionally tagged with a pure witness ``pure``."""

    __slots__ = ()

    def __new__(cls, matrix, pure: PureState | None = None):
        self = super().__new__(cls, _freeze(np.asarray(matrix, dtype=complex)), pure)
        self.__post_init__()
        return self

    def __post_init__(self):
        """The checks of every construction, looked up on the class at each
        call: bench/spans.py times them as ``qfactor.density_matrix``."""
        m = self.matrix
        if m.ndim != 2:
            raise ValueError(f"a density matrix must be 2-D, got shape {m.shape}")
        _density_spectrum(m)
        if self.pure is not None and np.abs(m - self.pure.projector()).max() > ROW_TOL:
            raise ValueError("pure witness does not match the matrix")

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        return cls(psi.projector(), pure=psi)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim) / dim)


class PovmCheck(NamedTuple):
    ok: bool
    max_asymmetry: float
    min_eigenvalue: float
    completeness_error: float

    def __bool__(self) -> bool:
        return self.ok


class POVM(_checked_record("POVM", "elements labels")):
    """Measurement given by PSD elements summing to the identity.

    ``elements`` is one read-only (n, d, d) complex stack and ``labels[k]``
    names the outcome of ``elements[k]``. Structural validity is checked by
    ``validate`` rather than at construction so that diagnostic code can
    carry candidate measurements around.
    """

    __slots__ = ()

    def __new__(cls, elements, labels):
        elems = tuple(elements)
        labels = tuple(labels)
        if len(elems) != len(labels) or not elems:
            raise ValueError("need one label per element and at least one element")
        # Ragged, non-square and 0x0 stacks are DimensionMismatch; a non-numeric element fails at the cast.
        message = "POVM elements must be square and same-dim"
        try:
            stack = _check_square_stack(np.asarray(elems))
        except ValueError as err:
            raise DimensionMismatch(message) from err
        if stack.ndim != 3:
            raise DimensionMismatch(message)
        return super().__new__(cls, _freeze(stack.astype(complex, copy=False)), labels)

    @classmethod
    def computational(cls, labels) -> "POVM":
        """Projective measurement onto the standard basis, one label per axis."""
        labels = tuple(labels)
        return cls(tuple(np.diag(row) for row in np.eye(len(labels), dtype=complex)), labels)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def validate(self, tol: float = ROW_TOL) -> PovmCheck:
        _check_tol(tol)
        e = self.elements
        adjoint = e.conj().swapaxes(-1, -2)
        asym = np.abs(e - adjoint).max()
        min_eig = np.linalg.eigvalsh((e + adjoint) / 2).min()
        comp = np.abs(e.sum(axis=0) - np.eye(self.dim)).max()
        ok = asym <= tol and min_eig >= -tol and comp <= tol
        return PovmCheck(bool(ok), float(asym), float(min_eig), float(comp))

    def outcome_probabilities(self, state: DensityMatrix) -> np.ndarray:
        """Born probabilities tr(E_k rho), clipped of round-off negatives."""
        _common_dim((self, state))
        return np.clip(_born(self.elements, state.matrix), 0.0, None)


class QFactorization(_checked_record("QFactorization", "input_labels partition signals povm")):
    """Signal-state assignment plus measurement reproducing a channel.

    ``signals[k]`` is the state shared by every input in
    ``partition.classes[k]``; ``input_labels`` fixes the index/label
    correspondence of the partition, and ``povm`` is the measurement.
    """

    __slots__ = ()

    def __new__(cls, input_labels, partition: Partition, signals, povm: POVM):
        input_labels, signals = tuple(input_labels), tuple(signals)
        if len(input_labels) != partition.size:
            raise AlphabetMismatch("labels do not match partition size")
        if len(signals) != partition.n_classes:
            raise ValueError("need exactly one signal state per class")
        _common_dim((*signals, povm))
        return super().__new__(cls, input_labels, partition, signals, povm)

    @property
    def cardinality(self) -> int:
        return len(self.signals)


class Ensemble(_checked_record("Ensemble", "weights states")):
    """Probability-weighted collection of same-dimension quantum states:
    a read-only weight vector ``weights`` and a tuple ``states``."""

    __slots__ = ()

    def __new__(cls, weights, states):
        w = _weight_vector(weights, "weights")
        states = tuple(states)
        if w.size != len(states):
            raise ValueError("need one weight per state")
        _common_dim(states)
        return super().__new__(cls, w, states)

    @classmethod
    def from_pure(cls, weights, pure_states) -> "Ensemble":
        return cls(weights, tuple(DensityMatrix.from_pure(p) for p in pure_states))

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def pure_states(self) -> tuple:
        """Pure witnesses of all states; raises if any state lacks one."""
        if any(s.pure is None for s in self.states):
            raise ValueError("ensemble contains states without a pure witness")
        return tuple(s.pure for s in self.states)


def g0_construct(c: Channel, tol: float = ROW_TOL) -> QFactorization:
    """Square-root-amplitude factorization over the causal partition.

    Each causal class z gets the pure signal state with amplitudes
    sqrt(P(y|z)) in the measurement basis, and the measurement is the
    projective one onto that basis. The construction reproduces the channel
    exactly and uses the minimum possible number of signal states.
    """
    part = causal_partition(c, tol)
    amps = _sqrt_amplitudes(c.matrix[list(part.representatives)])
    signals = tuple(DensityMatrix.from_pure(PureState(a)) for a in amps)
    return QFactorization(c.inputs, part, signals, POVM.computational(c.outputs))


class QFactorizationCheck(NamedTuple):
    """Diagnostic result of checking a Q-factorization against a channel."""

    ok: bool
    tol: float
    povm: PovmCheck
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def _check_alphabets(c: Channel, q: QFactorization) -> None:
    """AlphabetMismatch unless ``q`` factorizes a channel with the inputs and outputs of ``c``."""
    if q.input_labels != c.inputs:
        raise AlphabetMismatch("factorization input labels differ from channel")
    if q.povm.labels != c.outputs:
        raise AlphabetMismatch("POVM labels differ from channel outputs")


def verify_qfactorization(c: Channel, q: QFactorization, tol: float = ROW_TOL) -> QFactorizationCheck:
    """Check POVM validity and Pr(y|x) = tr(E_y rho_{class(x)}) for all x, y.

    Violations are reported as (input label, output label, |delta|); the
    result is falsy rather than raising so callers can inspect failures.
    """
    _check_tol(tol)
    _check_alphabets(c, q)
    povm_check = q.povm.validate(tol)
    # probs[k, y] = tr(E_y rho_k), the outcome distribution of class k.
    probs = _born(q.povm.elements, np.stack([s.matrix for s in q.signals]))
    violations = _class_row_violations(c, q.partition, probs, tol)
    ok = bool(povm_check) and not violations
    return QFactorizationCheck(ok, tol, povm_check, violations)


def von_neumann_entropy(rho) -> float:
    """-tr(rho log2 rho) in qubits, via the ``_density_spectrum`` of ``rho``:
    a ``DensityMatrix``, a ``PureState`` or a raw matrix."""
    return float(_entropy_bits(_density_spectrum(_as_density(rho).matrix)))


def average_state(e: Ensemble) -> DensityMatrix:
    """Weighted mixture sum_i w_i rho_i of the ensemble's states."""
    if e.size == 1:
        return e.states[0]
    return DensityMatrix(_mixture(e.weights, [s.matrix for s in e.states]))


def advantage_grid(p_values: np.ndarray, alpha_values: np.ndarray) -> np.ndarray:
    """H(Z) - S(rho) for the binary-symmetric family over (p, alpha).

    Z is the fixed two-class intermediate with Prob(Z=0) = alpha; the
    quantum side mixes the square-root-amplitude signal pair
    (sqrt(1-p), sqrt(p)), (sqrt(p), sqrt(1-p)) with the same weights.

    Runs the kernels of ``PureState``, ``average_state``, ``DensityMatrix``
    and both entropies once over the stacks of all p and all alpha, so every
    cell equals ``H(w) - von_neumann_entropy(average_state(...))`` of the
    per-state path bit for bit.
    """
    p = np.asarray(p_values, dtype=float)
    alpha = np.asarray(alpha_values, dtype=float)
    amps = np.sqrt(np.stack([1 - p, p], axis=-1)).astype(complex)
    _check_unit_norm(amps)
    projectors = _projectors(np.stack([amps, amps[:, ::-1]]))
    _density_spectrum(projectors)
    weights = _check_probabilities(np.stack([alpha, 1.0 - alpha], axis=-1), "weights")
    rho = _mixture(weights.T, projectors[:, :, None])
    return _entropy_bits(weights)[None, :] - _entropy_bits(_density_spectrum(rho))


def _as_density(s) -> DensityMatrix:
    if isinstance(s, DensityMatrix):
        return s
    if isinstance(s, PureState):
        return DensityMatrix.from_pure(s)
    return DensityMatrix(s)


def quantum_fidelity(s1, s2) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(s1) s2 sqrt(s1)) in [0, 1].

    The two-state case of the pair kernel behind ``fidelity_bound_check``:
    |<psi|phi>| when both states carry pure witnesses and sqrt(<psi|s2|psi>)
    when one does; those paths are exact to round-off, whereas the general
    path inherits sqrt-of-eps noise from the rank-deficient matrix square
    roots. Every path is clamped at 1, which a witness within STATE_TOL of
    unit norm can otherwise exceed.
    """
    a, b = _as_density(s1), _as_density(s2)
    _common_dim((a, b))
    return float(_pair_fidelities((a, b))[2][0])


def _pair_fidelities(states) -> tuple:
    """(i, j, F_Q) over every pair i < j of the same-dimension density
    matrices ``states``, in row-major order of (i, j).

    |<psi_i|psi_j>| comes off one ``_overlaps`` matrix, fed as ``is_opwo``
    and ``gram_matrix`` feed it, with ``np.abs`` as the one modulus. A state
    without a witness gives a NaN row, which ``PureState``'s finite
    amplitudes never do, so its pairs come out NaN and go through
    ``_witness_free_fidelity``. Every route is clamped at 1 here, once.
    """
    i, j = _pair_indices(len(states))
    overlaps = _overlaps([np.full(s.dim, np.nan) if s.pure is None else s.pure.amplitudes for s in states])
    f = np.abs(overlaps[i, j])
    for n in np.flatnonzero(np.isnan(f)).tolist():
        f[n] = _witness_free_fidelity(states[i[n]], states[j[n]])
    return i, j, np.minimum(f, 1.0)


@lru_cache(maxsize=8)
def _pair_indices(k: int) -> tuple:
    """Read-only (i, j) of the pairs i < j < k in row-major order; cached, as
    ``np.triu_indices`` costs more than the rest of a two-state ``quantum_fidelity``."""
    return tuple(map(_freeze, np.triu_indices(k, 1)))


def _witness_free_fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """F_Q of a pair of which at least one state lacks a pure witness,
    before ``_pair_fidelities`` clamps it at 1."""
    if a.pure is not None or b.pure is not None:
        psi, rho = (a.pure, b) if a.pure is not None else (b.pure, a)
        v = psi.amplitudes
        return np.sqrt(max(np.vecdot(v, rho.matrix @ v).real, 0.0))
    # _as_density bounds a's asymmetry by STATE_TOL and its eigenvalues below by -EIG_CLAMP: nothing to check.
    w, v = np.linalg.eigh((a.matrix + a.matrix.conj().T) / 2)
    w, v = w[::-1], v[:, ::-1]  # largest first: the order of the sum below fixes the fidelity's last bits
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    root = (root + root.conj().T) / 2
    inner = root @ b.matrix @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    # Spurious eigenvalues of order eps would contribute sqrt(eps) each;
    # cut them off relative to the leading eigenvalue.
    cutoff = max(w.max(), 0.0) * UHLMANN_CUTOFF
    w = w[w > cutoff]
    return np.sqrt(w).sum() if w.size else 0.0


def merge(e: Ensemble, j: int, k: int) -> tuple:
    """Both ways of folding state j and state k into one ensemble member.

    The first result reassigns w_j to state k (state j disappears), the
    second reassigns w_k to state j. Which direction has the lower
    average-state entropy depends on the states, so both are returned. The
    indices follow ``Partition``'s integer rule before the range check.
    """
    n = e.size
    for x in (j, k):
        _check_integer(x, "merge indices")
    if not (0 <= j < n and 0 <= k < n):
        raise IndexOutOfRange(f"indices ({j}, {k}) out of range for size {n}")
    if j == k:
        raise IndexOutOfRange("merge indices must differ")

    def reassign(src: int, dst: int) -> Ensemble:
        w = e.weights.copy()
        w[dst] += w[src]
        keep = [i for i in range(n) if i != src]
        return Ensemble(w[keep], tuple(e.states[i] for i in keep))

    return reassign(j, k), reassign(k, j)


def is_opwo(e: Ensemble, tol: float = ROW_TOL) -> bool:
    """True if each pure state overlaps at most one other state.

    Two states are connected when |<psi_i|psi_j>| exceeds ``tol``; the
    ensemble qualifies when every vertex of that graph has degree <= 1.
    """
    _check_tol(tol)
    edges = np.triu(np.abs(_overlaps([p.amplitudes for p in e.pure_states])) > tol, 1)
    return bool((edges.sum(axis=0) + edges.sum(axis=1)).max() <= 1)


def gram_matrix(e: Ensemble) -> np.ndarray:
    """Weighted overlap matrix G_ij = sqrt(w_i w_j) <psi_i|psi_j>.

    G is Hermitian, PSD, trace-1, and shares its nonzero spectrum with the
    ensemble's average state.
    """
    rw = np.sqrt(np.clip(e.weights, 0.0, None))
    g = np.triu(rw[:, None] * rw * _overlaps([p.amplitudes for p in e.pure_states]), 1)
    g = g + g.conj().T  # exactly Hermitian, whatever order the product summed in
    np.fill_diagonal(g, e.weights)
    return g


class FidelityBoundReport(NamedTuple):
    """Class-pair comparison of quantum and classical fidelities, as columns.

    Entry n of the read-only arrays ``i``, ``j``, ``f_quantum``,
    ``f_classical``, ``slack`` = f_classical - f_quantum and ``saturated``
    describes the pair of classes ``labels[i[n]]`` and ``labels[j[n]]``.
    ``ok`` means no pair's quantum fidelity exceeded the classical one by
    more than the tolerance; ``saturated`` on a pair means the two agree
    within the tolerance.
    """

    ok: bool
    tol: float
    labels: tuple
    i: np.ndarray
    j: np.ndarray
    f_quantum: np.ndarray
    f_classical: np.ndarray
    slack: np.ndarray
    saturated: np.ndarray

    def __bool__(self) -> bool:
        return self.ok

    @property
    def all_saturated(self) -> bool:
        return bool(self.saturated.all())

    @property
    def pairs(self) -> tuple:
        """One plain ``(label_i, label_j, f_quantum, f_classical, slack,
        saturated)`` row per pair, read off the columns."""
        labels = self.labels
        return tuple(zip(
            [labels[i] for i in self.i.tolist()], [labels[j] for j in self.j.tolist()],
            self.f_quantum.tolist(), self.f_classical.tolist(), self.slack.tolist(), self.saturated.tolist(),
        ))


def fidelity_bound_check(c: Channel, q: QFactorization, tol: float = ROW_TOL) -> FidelityBoundReport:
    """Compare F_Q(signal_i, signal_j) against the Bhattacharyya coefficient
    of the corresponding channel rows for every class pair i < j.

    F_Q comes from ``quantum_fidelity``'s pair kernel over all signals at
    once, and the Bhattacharyya coefficients from one call of
    ``classical_fidelity``'s kernel at the pairs (i, j) that kernel lists, in
    row-major order.
    """
    _check_tol(tol)
    _check_alphabets(c, q)
    reps = np.array(q.partition.representatives)
    i, j, f_quantum = _pair_fidelities(q.signals)
    f_classical = _bhattacharyya(c.matrix[reps[i]], c.matrix[reps[j]])
    slack = f_classical - f_quantum
    ok = not (slack < -tol).any()
    saturated = np.abs(slack) <= tol
    labels = tuple(c.inputs[r] for r in reps)
    return FidelityBoundReport(
        ok, tol, labels, *map(_freeze, (i, j, f_quantum, f_classical, slack, saturated))
    )


def _matrix_to_json(m: np.ndarray) -> dict:
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _matrix_from_json(data: dict) -> np.ndarray:
    d = required(data, "dim")
    if type(d) is not int:  # a JSON integer: not a float such as 2.9, a string or a boolean
        raise ValueError(f"dim must be an integer, got {d!r}")
    m = number_array(required(data, "re"), "re") + 1j * number_array(required(data, "im"), "im")
    if m.shape != (d, d):
        raise ValueError(f"matrix payload shape {m.shape} does not match dim {d}")
    return m


def qfactorization_to_json(q: QFactorization) -> dict:
    """Schema: partition as label classes, states and POVM as re/im matrices."""
    return {
        "partition": [
            [q.input_labels[x] for x in cl] for cl in q.partition.classes
        ],
        "states": [_matrix_to_json(s.matrix) for s in q.signals],
        "povm": [_matrix_to_json(e) for e in q.povm.elements],
    }


def qfactorization_from_json(data: dict, c: Channel) -> QFactorization:
    """Rebuild a Q-factorization against the channel that defines its alphabets."""
    index = {label: i for i, label in enumerate(c.inputs)}
    partition = required(data, "partition")
    if not isinstance(partition, list) or not all(map(is_label_array, partition)):
        raise ValueError("'partition' must be a JSON array of arrays of input labels")
    states, elements = (json_array(data, key) for key in ("states", "povm"))
    try:
        classes = [tuple(index[label] for label in cl) for cl in partition]
    except KeyError as err:
        raise AlphabetMismatch(f"unknown input label {err.args[0]!r}") from None
    if len(classes) != len(states):
        raise ValueError("need exactly one state per partition class")
    part = Partition(classes, c.n_inputs)
    # Partition fixes the class order; each class takes the state listed beside its members.
    state_of = {frozenset(cl): s for cl, s in zip(classes, states)}
    signals = tuple(DensityMatrix(_matrix_from_json(state_of[frozenset(cl)])) for cl in part.classes)
    povm = POVM(tuple(_matrix_from_json(e) for e in elements), c.outputs)
    return QFactorization(c.inputs, part, signals, povm)
