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

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    AlphabetMismatch,
    Channel,
    InputDistribution,
    Partition,
    _class_row_violations,
    _weight_vector,
    causal_partition,
    pushforward,
)
from .linalg import (
    EIG_CLAMP, ENTROPY_TOL, ROW_TOL, STATE_TOL, SUM_TOL, UHLMANN_CUTOFF, _freeze, psd_sqrt,
)

__all__ = [
    "DensityMatrix",
    "DimensionMismatch",
    "Ensemble",
    "FidelityBoundReport",
    "IndexOutOfRange",
    "PairFidelity",
    "POVM",
    "PovmCheck",
    "PureState",
    "QFactorization",
    "QFactorizationCheck",
    "RebitSearchResult",
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
    "rebit_sign_search",
    "verify_qfactorization",
    "von_neumann_entropy",
]


class DimensionMismatch(ValueError):
    """Operands live in Hilbert spaces of different dimension."""


class IndexOutOfRange(IndexError):
    """Ensemble index is invalid for the requested operation."""


def _check_unit_norm(v: np.ndarray) -> None:
    """ValueError unless every vector along the last axis of ``v`` has a
    finite norm within STATE_TOL of 1; the message names the first that fails."""
    norm = np.linalg.norm(v, axis=-1)
    off = ~(np.abs(norm - 1.0) <= STATE_TOL)  # a NaN or infinite amplitude is off too
    if off.any():
        raise ValueError(f"state norm {norm[off][0]!r} must be finite and within {STATE_TOL:.0e} of 1")


def _density_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending ``eigvalsh`` spectrum of a density matrix or a stack of them.

    ``m`` is complex with shape (d, d) or (..., d, d). Every matrix must be
    finite and Hermitian within STATE_TOL, have trace 1 within SUM_TOL and no
    eigenvalue below -EIG_CLAMP; the checks run in that order over the whole
    stack, and the first matrix that fails one raises the ValueError
    ``DensityMatrix`` gives for it alone. The spectrum is that of the
    symmetrized stack, which equals the stack when it is exactly Hermitian.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    adjoint = m.conj().swapaxes(-1, -2)
    # A NaN or infinite entry makes m - m^dagger NaN or infinite there.
    if not np.abs(m - adjoint).max() <= STATE_TOL:
        raise ValueError(f"matrix must be finite and Hermitian within {STATE_TOL:.0e}")
    tr = m.trace(0, -2, -1).real
    off = ~(np.abs(tr - 1.0) <= SUM_TOL)
    if off.any():
        raise ValueError(f"trace {tr[off][0]!r} deviates from 1 beyond {SUM_TOL:.0e}")
    w = np.linalg.eigvalsh((m + adjoint) / 2)
    if not w.min() >= -EIG_CLAMP:
        raise ValueError(f"matrix has an eigenvalue below -{EIG_CLAMP:.0e}")
    return w


def _entropy_bits(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis, entries <= 0 counting as 0.

    numpy adds fewer than 8 terms one after another, so for rows of fewer
    than 8 entries the zero terms change nothing and each result is
    bit-identical to the sum over the positive entries alone (as
    ``von_neumann_entropy`` takes it). From 8 entries on, pairwise summation
    may group the terms differently.
    """
    pos = w > 0
    return -np.where(pos, w * np.log2(np.where(pos, w, 1.0)), 0.0).sum(axis=-1)


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("amplitudes must form a nonempty vector")
        _check_unit_norm(v)
        object.__setattr__(self, "amplitudes", _freeze(v))

    @classmethod
    def normalized(cls, vec) -> "PureState":
        v = np.asarray(vec, dtype=complex)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / n)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-1 matrix, optionally tagged with a pure witness."""

    matrix: np.ndarray
    pure: PureState | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        _density_spectrum(m)
        if self.pure is not None and np.abs(m - self.pure.projector()).max() > ROW_TOL:
            raise ValueError("pure witness does not match the matrix")
        object.__setattr__(self, "matrix", _freeze(m))

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        return cls(psi.projector(), pure=psi)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim) / dim)


@dataclass(frozen=True)
class PovmCheck:
    ok: bool
    max_asymmetry: float
    min_eigenvalue: float
    completeness_error: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class POVM:
    """Measurement given by PSD elements summing to the identity.

    ``labels[k]`` names the outcome of ``elements[k]``. Structural validity
    is checked by ``validate`` rather than at construction so that
    diagnostic code can carry candidate measurements around.
    """

    elements: tuple
    labels: tuple

    def __post_init__(self):
        elems = tuple(_freeze(np.asarray(e, dtype=complex)) for e in self.elements)
        labels = tuple(self.labels)
        if len(elems) != len(labels) or not elems:
            raise ValueError("need one label per element and at least one element")
        d = elems[0].shape[0]
        for e in elems:
            if e.ndim != 2 or e.shape != (d, d):
                raise DimensionMismatch("POVM elements must be square and same-dim")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def computational(cls, labels) -> "POVM":
        """Projective measurement onto the standard basis, one label per axis."""
        labels = tuple(labels)
        return cls(tuple(np.diag(row) for row in np.eye(len(labels), dtype=complex)), labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def validate(self, tol: float = ROW_TOL) -> PovmCheck:
        asym = max(np.abs(e - e.conj().T).max() for e in self.elements)
        min_eig = min(
            np.linalg.eigvalsh((e + e.conj().T) / 2).min() for e in self.elements
        )
        total = sum(self.elements)
        comp = np.abs(total - np.eye(self.dim)).max()
        ok = asym <= tol and min_eig >= -tol and comp <= tol
        return PovmCheck(bool(ok), float(asym), float(min_eig), float(comp))

    def outcome_probabilities(self, state: DensityMatrix) -> np.ndarray:
        """Born probabilities tr(E_k rho), clipped of round-off negatives."""
        if state.dim != self.dim:
            raise DimensionMismatch(f"state dim {state.dim} vs POVM dim {self.dim}")
        p = np.array([np.trace(e @ state.matrix).real for e in self.elements])
        return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class QFactorization:
    """Signal-state assignment plus measurement reproducing a channel.

    ``signals[k]`` is the state shared by every input in
    ``partition.classes[k]``; ``input_labels`` fixes the index/label
    correspondence of the partition.
    """

    input_labels: tuple
    partition: Partition
    signals: tuple
    povm: POVM

    def __post_init__(self):
        object.__setattr__(self, "input_labels", tuple(self.input_labels))
        object.__setattr__(self, "signals", tuple(self.signals))
        if len(self.input_labels) != self.partition.size:
            raise AlphabetMismatch("labels do not match partition size")
        if len(self.signals) != self.partition.n_classes:
            raise ValueError("need exactly one signal state per class")
        d = self.signals[0].dim
        for s in self.signals:
            if s.dim != d:
                raise DimensionMismatch("signal states must share one dimension")
        if self.povm.dim != d:
            raise DimensionMismatch("POVM dimension differs from signal states")

    @property
    def cardinality(self) -> int:
        return len(self.signals)

    @property
    def signal_map(self) -> dict:
        """Class representative label -> signal state."""
        reps = self.partition.representatives
        return {self.input_labels[r]: s for r, s in zip(reps, self.signals)}

    def signal_for_input(self, x: int) -> DensityMatrix:
        return self.signals[self.partition.class_index_of(x)]


@dataclass(frozen=True)
class Ensemble:
    """Probability-weighted collection of same-dimension quantum states."""

    weights: np.ndarray
    states: tuple

    def __post_init__(self):
        w = _weight_vector(self.weights, "weights")
        states = tuple(self.states)
        if w.size != len(states):
            raise ValueError("need one weight per state")
        d = states[0].dim
        for s in states:
            if s.dim != d:
                raise DimensionMismatch("ensemble states must share one dimension")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)

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
    signals = []
    for rep in part.representatives:
        amps = np.sqrt(np.clip(c.matrix[rep], 0.0, None))
        norm = np.linalg.norm(amps, axis=-1)
        if not abs(norm - 1.0) <= STATE_TOL:
            # A row sum within SUM_TOL of 1 can put the root's norm beyond STATE_TOL.
            amps = amps / norm
        signals.append(DensityMatrix.from_pure(PureState(amps)))
    return QFactorization(
        c.inputs, part, tuple(signals), POVM.computational(c.outputs)
    )


@dataclass(frozen=True)
class QFactorizationCheck:
    """Diagnostic result of checking a Q-factorization against a channel."""

    ok: bool
    tol: float
    povm: PovmCheck
    violations: tuple = field(default=())

    def __bool__(self) -> bool:
        return self.ok


def verify_qfactorization(c: Channel, q: QFactorization, tol: float = ROW_TOL) -> QFactorizationCheck:
    """Check POVM validity and Pr(y|x) = tr(E_y rho_{class(x)}) for all x, y.

    Violations are reported as (input label, output label, |delta|); the
    result is falsy rather than raising so callers can inspect failures.
    """
    if q.input_labels != c.inputs:
        raise AlphabetMismatch("factorization input labels differ from channel")
    if q.povm.labels != c.outputs:
        raise AlphabetMismatch("POVM labels differ from channel outputs")
    povm_check = q.povm.validate(tol)
    # probs[k, y] = tr(E_y rho_k), the outcome distribution of class k.
    probs = np.einsum(
        "yij,kji->ky",
        np.stack(q.povm.elements),
        np.stack([s.matrix for s in q.signals]),
    ).real
    violations = _class_row_violations(c, q.partition, probs, tol)
    ok = bool(povm_check) and not violations
    return QFactorizationCheck(ok, tol, povm_check, violations)


def von_neumann_entropy(rho) -> float:
    """-tr(rho log2 rho) in qubits, via the eigenvalue spectrum."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else DensityMatrix(rho).matrix
    w = np.maximum(np.linalg.eigvalsh(m), 0.0)
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum()) + 0.0  # + 0.0 normalizes -0.0


def average_state(e: Ensemble) -> DensityMatrix:
    """Weighted mixture sum_i w_i rho_i of the ensemble's states."""
    if e.size == 1:
        return e.states[0]
    total = np.zeros((e.dim, e.dim), dtype=complex)
    for w, s in zip(e.weights, e.states):
        total += w * s.matrix
    return DensityMatrix((total + total.conj().T) / 2)


def advantage_grid(p_values: np.ndarray, alpha_values: np.ndarray) -> np.ndarray:
    """H(Z) - S(rho) for the binary-symmetric family over (p, alpha).

    Z is the fixed two-class intermediate with Prob(Z=0) = alpha; the
    quantum side mixes the square-root-amplitude signal pair
    (sqrt(1-p), sqrt(p)), (sqrt(p), sqrt(1-p)) with the same weights.

    Works on stacks: the signal pairs of all p, the weight pairs of all
    alpha and the (P, A, 2, 2) mixtures are each built in one array step,
    with the arithmetic of ``PureState``, ``average_state`` and
    ``DensityMatrix``, and one validated eigensolve covers the whole grid.
    Every cell equals ``H(w) - von_neumann_entropy(average_state(...))`` of
    the per-state path bit for bit.
    """
    p = np.asarray(p_values, dtype=float)
    alpha = np.asarray(alpha_values, dtype=float)
    amps = np.sqrt(np.stack([1 - p, p], axis=-1)).astype(complex)
    _check_unit_norm(amps)
    projectors = [a[:, :, None] * a.conj()[:, None, :] for a in (amps, amps[:, ::-1])]
    _density_spectrum(np.stack(projectors))
    weights = np.stack([alpha, 1.0 - alpha], axis=-1)
    for w in weights:
        _weight_vector(w, "weights")
    total = np.zeros((p.size, alpha.size, 2, 2), dtype=complex)
    for w, proj in zip(weights.T, projectors):
        total += w[None, :, None, None] * proj[:, None]
    rho = (total + total.conj().swapaxes(-1, -2)) / 2
    s_rho = _entropy_bits(_density_spectrum(rho)) + 0.0  # + 0.0 normalizes -0.0
    return _entropy_bits(weights)[None, :] - s_rho


def _as_density(s) -> DensityMatrix:
    if isinstance(s, DensityMatrix):
        return s
    if isinstance(s, PureState):
        return DensityMatrix.from_pure(s)
    return DensityMatrix(s)


def quantum_fidelity(s1, s2) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(s1) s2 sqrt(s1)) in [0, 1].

    Reduces to |<psi|phi>| when both states carry pure witnesses and to
    sqrt(<psi|s2|psi>) when one does; those paths are exact to round-off,
    whereas the general path inherits sqrt-of-eps noise from the
    rank-deficient matrix square roots.
    """
    a, b = _as_density(s1), _as_density(s2)
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} vs {b.dim}")
    if a.pure is not None and b.pure is not None:
        return float(abs(a.pure.overlap(b.pure)))
    if a.pure is not None or b.pure is not None:
        psi, rho = (a.pure, b) if a.pure is not None else (b.pure, a)
        v = psi.amplitudes
        return float(np.sqrt(max(np.vdot(v, rho.matrix @ v).real, 0.0)))
    root = psd_sqrt(a.matrix)
    inner = root @ b.matrix @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    # Spurious eigenvalues of order eps would contribute sqrt(eps) each;
    # cut them off relative to the leading eigenvalue.
    cutoff = max(w.max(), 0.0) * UHLMANN_CUTOFF
    w = w[w > cutoff]
    return float(min(np.sqrt(w).sum(), 1.0)) if w.size else 0.0


def merge(e: Ensemble, j: int, k: int) -> tuple:
    """Both ways of folding state j and state k into one ensemble member.

    The first result reassigns w_j to state k (state j disappears), the
    second reassigns w_k to state j. Which direction has the lower
    average-state entropy depends on the states, so both are returned.
    """
    n = e.size
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
    psis = e.pure_states
    n = len(psis)
    degree = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if abs(psis[i].overlap(psis[j])) > tol:
                degree[i] += 1
                degree[j] += 1
    return max(degree, default=0) <= 1


def gram_matrix(e: Ensemble) -> np.ndarray:
    """Weighted overlap matrix G_ij = sqrt(w_i w_j) <psi_i|psi_j>.

    G is Hermitian, PSD, trace-1, and shares its nonzero spectrum with the
    ensemble's average state.
    """
    psis = e.pure_states
    rw = np.sqrt(np.clip(e.weights, 0.0, None))
    n = len(psis)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        g[i, i] = e.weights[i]
        for j in range(i + 1, n):
            val = rw[i] * rw[j] * psis[i].overlap(psis[j])
            g[i, j] = val
            g[j, i] = val.conjugate()
    return g


@dataclass(frozen=True)
class PairFidelity:
    label_i: object
    label_j: object
    f_quantum: float
    f_classical: float
    slack: float
    saturated: bool


@dataclass(frozen=True)
class FidelityBoundReport:
    """Per-class-pair comparison of quantum and classical fidelities.

    ``ok`` means no pair's quantum fidelity exceeded the classical one by
    more than the tolerance; ``saturated`` on a pair means the two agree
    within the tolerance.
    """

    ok: bool
    tol: float
    pairs: tuple

    def __bool__(self) -> bool:
        return self.ok

    @property
    def all_saturated(self) -> bool:
        return all(p.saturated for p in self.pairs)


def fidelity_bound_check(c: Channel, q: QFactorization, tol: float = ROW_TOL) -> FidelityBoundReport:
    """Compare F_Q(signal_i, signal_j) against the Bhattacharyya coefficient
    of the corresponding channel rows for every class pair i < j.

    The Bhattacharyya coefficients of class i against all later classes
    come from one array step, with the same arithmetic as
    ``classical_fidelity``. Pairs are listed in row-major order of (i, j).
    """
    reps = q.partition.representatives
    rows = np.clip(c.matrix[list(reps)], 0, None)
    pairs = []
    ok = True
    for i in range(len(reps)):
        f_classical = np.sqrt(rows[i] * rows[i + 1 :]).sum(axis=1).tolist()
        for j, fc in enumerate(f_classical, start=i + 1):
            fq = quantum_fidelity(q.signals[i], q.signals[j])
            slack = fc - fq
            if slack < -tol:
                ok = False
            pairs.append(
                PairFidelity(
                    c.inputs[reps[i]],
                    c.inputs[reps[j]],
                    fq,
                    fc,
                    float(slack),
                    bool(abs(slack) <= tol),
                )
            )
    return FidelityBoundReport(ok, tol, tuple(pairs))


@dataclass(frozen=True)
class RebitSearchResult:
    """Outcome of a randomized search over sign-flipped signal pairs.

    A stochastic scan is evidence, not a proof of optimality: it reports
    the best alternative found, never a certificate.
    """

    baseline_entropy: float
    best_entropy: float
    n_samples: int

    @property
    def beaten(self) -> bool:
        return self.best_entropy < self.baseline_entropy - ENTROPY_TOL


def rebit_sign_search(
    c: Channel,
    dist: InputDistribution | None = None,
    n_samples: int = 1000,
    seed: int = 0,
) -> RebitSearchResult:
    """Search real signed-amplitude signal pairs for lower ensemble entropy.

    Only channels with exactly two causal classes are accepted. Every
    sampled pair keeps |amplitude|^2 equal to the conditional probabilities,
    so each one reproduces the channel under the standard projective
    measurement; only the relative signs vary.
    """
    part = causal_partition(c)
    if part.n_classes != 2:
        raise ValueError(f"channel has {part.n_classes} causal classes, need 2")
    if dist is None:
        dist = InputDistribution.uniform(c.n_inputs)
    weights = pushforward(dist, part).probs
    roots = np.sqrt(np.clip(c.matrix[list(part.representatives)], 0.0, None))
    baseline = von_neumann_entropy(
        average_state(Ensemble.from_pure(weights, [PureState(r) for r in roots]))
    )
    best = baseline
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        signs = rng.choice([-1.0, 1.0], size=roots.shape)
        states = [PureState(signs[i] * roots[i]) for i in range(2)]
        s = von_neumann_entropy(average_state(Ensemble.from_pure(weights, states)))
        if s < best:
            best = s
    return RebitSearchResult(float(baseline), float(best), n_samples)


def _matrix_to_json(m: np.ndarray) -> dict:
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _matrix_from_json(data: dict) -> np.ndarray:
    d = int(data["dim"])
    m = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
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
    try:
        classes = [
            tuple(index[label] for label in cl) for cl in data["partition"]
        ]
    except KeyError as err:
        raise AlphabetMismatch(f"unknown input label {err.args[0]!r}") from None
    if len(classes) != len(data["states"]):
        raise ValueError("need exactly one state per partition class")
    # Partition canonicalizes class order (by lowest member), so states must
    # be permuted alongside their classes.
    order = sorted(range(len(classes)), key=lambda k: min(classes[k], default=-1))
    part = Partition(tuple(classes[k] for k in order), c.n_inputs)
    states = tuple(
        DensityMatrix(_matrix_from_json(data["states"][k])) for k in order
    )
    povm = POVM(
        tuple(_matrix_from_json(e) for e in data["povm"]), c.outputs
    )
    return QFactorization(c.inputs, part, states, povm)
