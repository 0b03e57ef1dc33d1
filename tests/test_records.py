"""The records of every module: read-only namedtuples, and the ones that
check their input check it on every construction path."""

import copy
import pickle

import numpy as np
import pytest

from chanfactor import casestudy, channel, phase, qfactor
from chanfactor.channel import (
    Channel,
    InputDistribution,
    InvalidChannel,
    Partition,
    causal_factorization,
    rbsc,
    verify_factorization,
)
from chanfactor.phase import PhasedQubitEnsemble, grid_scan
from chanfactor.qfactor import (
    POVM,
    DensityMatrix,
    DimensionMismatch,
    Ensemble,
    PureState,
    QFactorization,
    fidelity_bound_check,
    g0_construct,
    verify_qfactorization,
)

C = rbsc(0.3)
Q = g0_construct(C)
ENSEMBLE = PhasedQubitEnsemble.from_magnitudes([0.5, 0.5], [0.6, 0.8], [0.8, 0.6])
FAMILY = casestudy.build_sic_family()
CURVE = casestudy.entropy_purity_curve(FAMILY, 3)
REPORT = fidelity_bound_check(C, Q)

# One instance of every record type, as the library builds them.
RECORDS = [
    C,
    Q.partition,
    InputDistribution.uniform(4),
    causal_factorization(C),
    verify_factorization(C, causal_factorization(C)),
    Q.signals[0].pure,
    Q.signals[0],
    Q.povm,
    Q.povm.validate(),
    Q,
    verify_qfactorization(C, Q),
    Ensemble([0.5, 0.5], Q.signals),
    REPORT,
    ENSEMBLE,
    grid_scan(ENSEMBLE, 2),
    FAMILY,
    CURVE.points[0],
    CURVE,
]

# Each checked record with one field replaced by a value its constructor refuses.
REFUSED = [
    (C, {"matrix": [[0.5, 0.6], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]}, InvalidChannel, r"rows\[0\] .* sum to 1"),
    (Q.partition, {"size": 5}, ValueError, "disjointly cover"),
    (InputDistribution.uniform(4), {"probs": [0.5, 0.6]}, ValueError, "sum to 1"),
    (Q.signals[0].pure, {"amplitudes": [1.0, 1.0]}, ValueError, "state norm"),
    (Q.signals[0], {"matrix": np.eye(2)}, ValueError, "trace"),
    (Q.povm, {"elements": (np.eye(2), np.eye(3))}, DimensionMismatch, "same-dim"),
    (Q, {"signals": Q.signals[:1]}, ValueError, "one signal state per class"),
    (Ensemble([0.5, 0.5], Q.signals), {"weights": [1.0]}, ValueError, "one weight per state"),
    (ENSEMBLE, {"phases": [0.0, np.nan]}, ValueError, "phases must be finite"),
    (ENSEMBLE, {"a": [[0.6, 0.8]]}, ValueError, "a must form a nonempty vector"),
    (Q.partition, {"classes": ((0.0, 2), (True, 3))}, ValueError, "must be integers, got 0.0"),
    (Q.partition, {"size": 4.0}, ValueError, "must be integers, got 4.0"),
    (Q.povm, {"elements": (np.zeros((0, 0)),) * 2}, DimensionMismatch, "same-dim"),
]


def refused_ids(cases) -> list:
    """The record's type name, with the replaced fields added when the type repeats."""
    seen = set()
    ids = []
    for record, changes, *_ in cases:
        name = type(record).__name__
        ids.append(f"{name}-{'-'.join(changes)}" if name in seen else name)
        seen.add(name)
    return ids


def test_every_record_type_is_sampled():
    defined = {
        obj
        for module in (channel, qfactor, phase, casestudy)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
    }
    assert defined == {type(r) for r in RECORDS}
    assert len(RECORDS) == 18


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    # and so is every array it holds, at any depth
    assert same_frozen(record, record)


@pytest.mark.parametrize("record, changes, error, message", REFUSED, ids=refused_ids(REFUSED))
def test_no_construction_path_skips_the_checks(record, changes, error, message):
    cls = type(record)
    values = [changes.get(name, getattr(record, name)) for name in cls._fields]
    with pytest.raises(error, match=message):
        cls(*values)
    with pytest.raises(error, match=message):
        record._replace(**changes)
    with pytest.raises(error, match=message):
        cls._make(values)


def same_frozen(old, new) -> bool:
    """Equal values, every array of ``new`` read-only, recursing into tuples."""
    if isinstance(old, np.ndarray):
        return not new.flags.writeable and np.array_equal(old, new)
    if isinstance(old, tuple):
        return type(new) is type(old) and len(new) == len(old) and all(map(same_frozen, old, new))
    return new == old


@pytest.mark.parametrize("record", {type(r): r for r, *_ in REFUSED}.values(), ids=lambda r: type(r).__name__)
def test_rebuilt_records_are_checked_and_frozen_again(record):
    for rebuilt in (record._replace(), copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert same_frozen(record, rebuilt)


def test_checked_constructors_normalise_their_fields():
    c = Channel(["a", "b"], ["y"], [[1], [1]])
    assert c.inputs == ("a", "b") and c.outputs == ("y",) and c.matrix.dtype == float
    assert Partition([[2, 0], [1]], 3).classes == ((0, 2), (1,))
    rho = DensityMatrix([[1, 0], [0, 0]])
    assert rho.matrix.dtype == complex and rho.pure is None
    povm = POVM([np.eye(2)], ["only"])
    assert povm.elements.shape == (1, 2, 2) and povm.labels == ("only",)
    q = QFactorization(["x"], Partition([[0]], 1), [rho], povm)
    assert q.input_labels == ("x",) and q.signals == (rho,)
    assert PureState([1, 0]).amplitudes.dtype == complex
