"""Factorize finite classical channels through minimal classical and
quantum intermediate variables."""

from .channel import (
    AlphabetMismatch,
    Channel,
    Factorization,
    InputDistribution,
    InvalidChannel,
    Partition,
    causal_factorization,
    causal_partition,
    classical_fidelity,
    factorization_from_partition,
    pushforward,
    rbsc,
    shannon_entropy,
    verify_factorization,
)
from .linalg import purity
from .qfactor import (
    POVM,
    DensityMatrix,
    DimensionMismatch,
    Ensemble,
    PureState,
    QFactorization,
    average_state,
    fidelity_bound_check,
    g0_construct,
    gram_matrix,
    is_opwo,
    merge,
    quantum_fidelity,
    verify_qfactorization,
    von_neumann_entropy,
)

__version__ = "0.1.0"


def __getattr__(name):
    """The phase re-exports, loaded on first use so that channel commands
    do not import ``phase`` (PEP 562)."""
    if name in ("PhasedQubitEnsemble", "delta", "entropy_closed_form", "optimal_phases", "phase_gradient"):
        from . import phase

        return getattr(phase, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
