"""Classical channels, causal partitions, factorizations, and entropy.

A channel is a row-stochastic matrix P(Y|X) over finite labeled alphabets.
Grouping inputs whose conditional output rows coincide gives the causal
partition; reading the reduced channel off one representative per class
gives the coarsest deterministic-first-stage factorization of the channel.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from ._documents import is_label_array, number_array, required
from .linalg import NEG_TOL, ROW_TOL, SUM_TOL, _check_tol, _check_vector, _checked_record, _entropy_bits, _freeze

__all__ = [
    "AlphabetMismatch",
    "Channel",
    "Factorization",
    "FactorizationCheck",
    "InputDistribution",
    "InvalidChannel",
    "Partition",
    "causal_factorization",
    "causal_partition",
    "classical_fidelity",
    "factorization_from_partition",
    "pushforward",
    "rbsc",
    "shannon_entropy",
    "verify_factorization",
]


class InvalidChannel(ValueError):
    """Channel data violates shape, row-sum, or entry-range constraints."""


class AlphabetMismatch(ValueError):
    """Two objects indexed by different alphabets were combined."""


def _weight_vector(values, name: str) -> np.ndarray:
    """Frozen probability vector; ValueError unless 1-D, nonempty, finite, >= -NEG_TOL, sum 1."""
    w = _check_vector(np.asarray(values, dtype=float), name)
    # Written to pass only when true: a NaN or infinite entry fails one of them.
    if not w.min() >= -NEG_TOL:
        raise ValueError(f"{name} must be finite and nonnegative, got min {float(w.min())}")
    if not abs(w.sum() - 1.0) <= SUM_TOL:
        raise ValueError(f"{name} must be finite and sum to 1, got {float(w.sum())}")
    return _freeze(w)


class Channel(_checked_record("Channel", "inputs outputs matrix")):
    """Conditional distribution P(Y|X) over finite alphabets.

    ``matrix[i, j]`` is the probability of output ``outputs[j]`` given input
    ``inputs[i]``; the labels are tuples and the matrix a read-only float
    array. Entries must be finite and lie in [0, 1] up to round-off, and
    rows must sum to 1 within SUM_TOL.
    """

    __slots__ = ()

    def __new__(cls, inputs, outputs, matrix):
        inputs, outputs = tuple(inputs), tuple(outputs)
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise InvalidChannel(f"matrix must be 2-D, got ndim={m.ndim}")
        if m.shape != (len(inputs), len(outputs)):
            raise InvalidChannel(
                f"matrix shape {m.shape} does not match alphabets "
                f"({len(inputs)}x{len(outputs)})"
            )
        if len(inputs) < 1 or len(outputs) < 1:
            raise InvalidChannel("alphabets must be nonempty")
        for side, labels in (("input", inputs), ("output", outputs)):
            first = {}
            for n, label in enumerate(labels):
                if (k := first.setdefault(label, n)) != n:
                    raise InvalidChannel(f"{side}s {k} and {n} share a label: {labels[k]!r} == {label!r} in Python")
        if not np.isfinite(m).all():
            raise InvalidChannel("entries must be finite")
        if m.min() < -NEG_TOL or m.max() > 1 + NEG_TOL:
            raise InvalidChannel("entries must lie in [0, 1]")
        rowsum_err = np.abs(m.sum(axis=1) - 1.0).max()
        if rowsum_err > SUM_TOL:
            raise InvalidChannel(f"row sums deviate from 1 by {rowsum_err:.3e}")
        return super().__new__(cls, inputs, outputs, _freeze(m))

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def to_json(self) -> dict:
        return {
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "rows": self.matrix.tolist(),
        }

    @classmethod
    def from_json(cls, data) -> "Channel":
        """A channel document: an object with label arrays ``inputs``, ``outputs`` and number array ``rows``."""
        try:
            for key in ("inputs", "outputs"):
                if not is_label_array(required(data, key)):
                    raise ValueError(f"{key} must be an array of strings, finite numbers, booleans or nulls")
            rows = number_array(required(data, "rows"), "rows")
        except ValueError as err:
            raise InvalidChannel(err) from None
        return cls(data["inputs"], data["outputs"], rows)


def rbsc(p: float) -> Channel:
    """Four-input binary symmetric channel with each row duplicated once."""
    if not 0.0 <= p <= 1.0:
        raise InvalidChannel(f"p must lie in [0, 1], got {p}")
    rows = np.array([[1 - p, p], [p, 1 - p], [1 - p, p], [p, 1 - p]])
    return Channel(("0", "1", "2", "3"), ("0", "1"), rows)


def _check_integer(x, what: str) -> None:
    """ValueError ``{what} must be integers, got {x!r}`` unless ``x`` is an ``int`` or numpy integer; a bool is not."""
    if type(x) is not int and not isinstance(x, np.integer):
        raise ValueError(f"{what} must be integers, got {x!r}")


class Partition(_checked_record("Partition", "classes size")):
    """Disjoint cover of ``range(size)`` by nonempty classes of integers.

    A member or ``size`` that is not an ``int`` or numpy integer (a bool is not) raises ValueError
    before any sort; numpy integers are stored as ``int``. Classes are stored sorted and ordered by
    their lowest member, so the lowest-index input of each class is its canonical representative.
    """

    __slots__ = ()

    def __new__(cls, classes, size: int):
        classes = tuple(map(tuple, classes))
        for x in (size, *itertools.chain.from_iterable(classes)):
            _check_integer(x, "partition members and size")
        canon = tuple(sorted(tuple(sorted(map(int, c))) for c in classes))
        if not all(canon):
            raise ValueError("partition classes must be nonempty")
        if sorted(itertools.chain.from_iterable(canon)) != list(range(size)):
            raise ValueError(f"classes must disjointly cover range({size})")
        return super().__new__(cls, canon, int(size))

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def representatives(self) -> tuple:
        """Lowest-index member of each class, in class order."""
        return tuple(c[0] for c in self.classes)

    def refines(self, other: "Partition") -> bool:
        """True if every class of self sits inside a class of ``other``."""
        if self.size != other.size:
            return False
        owner = {}
        for k, c in enumerate(other.classes):
            for x in c:
                owner[x] = k
        return all(len({owner[x] for x in c}) == 1 for c in self.classes)


class InputDistribution(_checked_record("InputDistribution", "probs")):
    """Probability distribution over a channel's input alphabet, held as a
    read-only vector ``probs``."""

    __slots__ = ()

    def __new__(cls, probs):
        return super().__new__(cls, _weight_vector(probs, "probabilities"))

    @classmethod
    def from_json(cls, data) -> "InputDistribution":
        """A distribution document: a number array in input order, or an object holding one as ``probabilities``."""
        return cls(number_array(required(data, "probabilities") if isinstance(data, dict) else data, "probabilities"))

    @classmethod
    def uniform(cls, n: int) -> "InputDistribution":
        """Uniform distribution over ``n`` inputs. ``n`` follows ``Partition``'s integer rule and must be positive."""
        _check_integer(n, "uniform distribution sizes")
        if n < 1:
            raise ValueError(f"uniform distribution sizes must be positive, got {n!r}")
        return cls(np.full(n, 1.0) / n)


class Factorization(NamedTuple):
    """Deterministic first stage (partition) plus reduced second stage.

    ``reduced`` maps class representatives to the original output alphabet.
    Construction does not check that the reduced rows reproduce any
    particular channel; use ``verify_factorization`` for that.
    """

    partition: Partition
    reduced: Channel


def causal_partition(c: Channel, tol: float = ROW_TOL) -> Partition:
    """Group inputs whose conditional output rows agree within ``tol``.

    The rule is first match wins: scanning inputs in order, an input joins
    the earliest class whose representative (lowest member) lies within
    ``tol`` in max-norm, and founds a new class when none does. This keeps
    the result deterministic even though tolerance-equality is not
    transitive.

    The rule is evaluated as a sweep over representatives. The first input
    not yet in a class founds the next one, and one max-norm over the inputs
    still unassigned moves every row within ``tol`` of it into that class.
    An unassigned input has no earlier representative within ``tol``, so
    joining the first one that is within ``tol`` is exactly its first-match
    choice, and the first input left unassigned is exactly the next one the
    scan would make a representative. Each step compares whole rows only for
    the candidates within ``tol`` of the founder in the key column, the one
    of widest range: a max-norm within ``tol`` implies a key gap within
    ``tol``, so no member is missed. For N inputs, Y outputs and K classes
    the sweep takes K steps over at most N key entries plus Y entries per
    candidate, and holds O(N x Y) memory at a time.
    """
    _check_tol(tol)
    m = c.matrix
    class_of = np.empty(c.n_inputs, dtype=np.intp)
    pending = np.arange(c.n_inputs)
    key = m[:, np.argmax(np.ptp(m, axis=0))]
    k = 0
    while pending.size:
        cand = np.flatnonzero(np.abs(key - key[0]) <= tol)
        near = np.zeros(pending.size, dtype=bool)
        near[cand] = np.abs(m[pending[cand]] - m[pending[0]]).max(axis=1) <= tol
        near[0] = True  # the founder joins its own class whatever the mask says
        class_of[pending[near]] = k
        keep = ~near
        pending, key = pending[keep], key[keep]
        k += 1
    members = np.argsort(class_of, kind="stable")
    bounds = np.cumsum(np.bincount(class_of, minlength=k))[:-1]
    classes = tuple(tuple(cl.tolist()) for cl in np.split(members, bounds))
    return Partition(classes, c.n_inputs)


def _check_partition_of(c: Channel, p: Partition) -> None:
    """AlphabetMismatch unless ``p`` partitions the inputs of ``c``."""
    if p.size != c.n_inputs:
        raise AlphabetMismatch(f"partition covers {p.size} elements, channel has {c.n_inputs} inputs")


def _check_distribution_of(c: Channel, d: InputDistribution) -> None:
    """AlphabetMismatch unless ``d`` is a distribution over the inputs of ``c``."""
    if d.probs.size != c.n_inputs:
        raise AlphabetMismatch(f"distribution over {d.probs.size} elements, channel has {c.n_inputs} inputs")


def factorization_from_partition(c: Channel, p: Partition) -> Factorization:
    """Factorization whose reduced rows are read off class representatives."""
    _check_partition_of(c, p)
    reps = p.representatives
    reduced = Channel(
        tuple(c.inputs[r] for r in reps),
        c.outputs,
        c.matrix[list(reps)],
    )
    return Factorization(p, reduced)


def causal_factorization(c: Channel, tol: float = ROW_TOL) -> Factorization:
    """The coarsest valid factorization: one class per distinct row."""
    return factorization_from_partition(c, causal_partition(c, tol))


def _probs(d) -> np.ndarray:
    """The probability vector of ``d``, checked as ``InputDistribution`` checks it."""
    return d.probs if isinstance(d, InputDistribution) else _weight_vector(d, "probabilities")


def shannon_entropy(d) -> float:
    """Entropy -sum p log2 p in bits, with 0 log 0 = 0."""
    return float(_entropy_bits(_probs(d)))


def pushforward(d, p: Partition) -> InputDistribution:
    """Distribution over partition classes: each class sums its members."""
    probs = _probs(d)
    if probs.size != p.size:
        raise AlphabetMismatch(
            f"distribution over {probs.size} elements, partition over {p.size}"
        )
    return InputDistribution(
        np.array([probs[list(c)].sum() for c in p.classes])
    )


def _bhattacharyya(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k sqrt(a_k b_k) over the last axis of the broadcast ``a`` and ``b``,
    round-off negatives clipped to 0."""
    return np.sqrt(np.maximum(a, 0.0) * np.maximum(b, 0.0)).sum(axis=-1)


def classical_fidelity(q1, q2) -> float:
    """Bhattacharyya coefficient sum_k sqrt(q1_k q2_k) in [0, 1]."""
    a, b = _probs(q1), _probs(q2)
    if a.size != b.size:
        raise AlphabetMismatch(f"distributions over {a.size} vs {b.size} outcomes")
    return float(_bhattacharyya(a, b))


class FactorizationCheck(NamedTuple):
    """Outcome of verifying a factorization against a channel.

    ``violations`` holds (input label, output label, |delta|) triples for
    every entry where the reduced row of the input's class disagrees with
    the channel row.
    """

    ok: bool
    tol: float
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_factorization(c: Channel, f: Factorization, tol: float = ROW_TOL) -> FactorizationCheck:
    """Check that every input's row matches its class's reduced row."""
    _check_tol(tol)
    p = f.partition
    _check_partition_of(c, p)
    if f.reduced.outputs != c.outputs:
        raise AlphabetMismatch("reduced channel output alphabet differs")
    if f.reduced.n_inputs != p.n_classes:
        raise AlphabetMismatch("reduced channel must have one row per class")
    violations = _class_row_violations(c, p, f.reduced.matrix, tol)
    return FactorizationCheck(not violations, tol, violations)


def _class_row_violations(c: Channel, p: Partition, class_rows: np.ndarray, tol: float) -> tuple:
    """(input label, output label, |delta|) for every entry where an input's
    channel row differs from ``class_rows[k]`` of its class k by more than
    ``tol``, in the order class, member, output."""
    members = np.fromiter(itertools.chain.from_iterable(p.classes), np.intp, p.size)
    owner = np.repeat(np.arange(p.n_classes), [len(cl) for cl in p.classes])
    gap = np.abs(c.matrix[members] - class_rows[owner])
    rows, cols = np.nonzero(gap > tol)
    return tuple(
        (c.inputs[x], c.outputs[j], d)
        for x, j, d in zip(members[rows].tolist(), cols.tolist(), gap[rows, cols].tolist())
    )
