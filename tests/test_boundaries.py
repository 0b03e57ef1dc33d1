"""Tolerance boundaries: each compared tolerance checked on both sides.

Planted data elsewhere in the suite sits far from every threshold, so a
change to one of these comparisons used to pass the whole suite. Each case
puts the compared quantity at 0.5x and at 1.5x or 2x its tolerance, and at the
exact tie where ``<`` against ``<=`` matters and the values are exact.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from chanfactor.channel import Channel, Factorization, InputDistribution, Partition, verify_factorization
from chanfactor.linalg import EIG_CLAMP, NEG_TOL, ROW_TOL, STATE_TOL, SUM_TOL, UHLMANN_CUTOFF
from chanfactor.phase import PhasedQubitEnsemble
from chanfactor.qfactor import (
    POVM,
    DensityMatrix,
    Ensemble,
    PureState,
    QFactorization,
    fidelity_bound_check,
    maximally_mixed,
    quantum_fidelity,
    verify_qfactorization,
)

# A dyadic tolerance: 0.5 +- k * TOL_2 is exact for k in {0.5, 1, 1.5, 2}, so
# every gap below is exactly the stated multiple of it.
TOL_2 = 2.0 ** -30
SIDES = [(0.5, True), (1.0, True), (1.5, False), (2.0, False)]
SIDE_IDS = ["half", "tie", "1.5x", "2x"]
# Where the compared quantity carries round-off, the tie is left out.
NEAR_SIDES = [(0.5, True), (1.5, False), (2.0, False)]
NEAR_IDS = ["half", "1.5x", "2x"]


def check_refusal(ok: bool, match: str, build, *args) -> None:
    """``build(*args)`` succeeds when ``ok``, else raises a ValueError matching ``match``."""
    if ok:
        build(*args)
    else:
        with pytest.raises(ValueError, match=match):
            build(*args)


def one_input_channel() -> Channel:
    return Channel(["a"], ["0", "1"], [[0.5, 0.5]])


class TestFidelityBoundOk:
    """``ok`` fails once some F_Q exceeds F_C by more than tol: ``slack < -tol``."""

    @staticmethod
    def report(beat: float):
        # Orthogonal rows give F_C = 0 exactly; the signals |0> and
        # (beat, sqrt(1 - beat^2)) give F_Q = beat exactly, so slack = -beat.
        c = Channel(["a", "b"], ["0", "1"], [[1.0, 0.0], [0.0, 1.0]])
        signals = [
            DensityMatrix.from_pure(PureState(v)) for v in ([1.0, 0.0], [beat, math.sqrt(1 - beat * beat)])
        ]
        q = QFactorization(c.inputs, Partition(((0,), (1,)), 2), signals, POVM.computational(c.outputs))
        return fidelity_bound_check(c, q)

    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    def test_signal_beating_the_classical_fidelity(self, k, ok):
        r = self.report(k * ROW_TOL)
        ((*_, f_classical, slack, saturated),) = r.pairs
        assert (f_classical, slack) == (0.0, -k * ROW_TOL)
        assert r.ok is ok
        assert saturated is ok


class TestClassRowGap:
    """An entry is a violation once its gap to the class row exceeds tol: ``gap > tol``."""

    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    def test_reduced_row_off_by_a_multiple_of_tol(self, k, ok):
        c = one_input_channel()
        d = k * TOL_2
        f = Factorization(Partition(((0,),), 1), Channel(["a"], c.outputs, [[0.5 + d, 0.5 - d]]))
        check = verify_factorization(c, f, TOL_2)
        assert check.ok is ok
        assert check.violations == (() if ok else (("a", "0", d), ("a", "1", d)))

    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    def test_born_probabilities_off_by_a_multiple_of_tol(self, k, ok):
        # A diagonal signal: its Born probabilities are its diagonal, exactly.
        c = one_input_channel()
        d = k * TOL_2
        signal = DensityMatrix(np.diag([0.5 + d, 0.5 - d]))
        q = QFactorization(c.inputs, Partition(((0,),), 1), [signal], POVM.computational(c.outputs))
        check = verify_qfactorization(c, q, TOL_2)
        assert check.ok is ok
        assert check.violations == (() if ok else (("a", "0", d), ("a", "1", d)))


class TestNegativeWeightFloor:
    """A weight down to -NEG_TOL is a round-off zero: ``w.min() >= -NEG_TOL``."""

    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    @pytest.mark.parametrize("build", [InputDistribution, lambda w: Ensemble(w, [DensityMatrix(np.eye(1))] * 2)],
                             ids=["distribution", "ensemble"])
    def test_weight_below_zero(self, build, k, ok):
        w = [1.0 + k * NEG_TOL, -k * NEG_TOL]
        if ok:
            build(w)
        else:
            with pytest.raises(ValueError, match="nonnegative"):
                build(w)


class TestTraceTolerance:
    """A density matrix's trace may miss 1 by SUM_TOL: ``|tr - 1| <= SUM_TOL``."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
    @pytest.mark.parametrize("k, ok", [(0.5, True), (1.5, False), (2.0, False)], ids=["half", "1.5x", "2x"])
    def test_trace_off_by_a_multiple_of_sum_tol(self, sign, k, ok):
        m = np.eye(2) * (0.5 + sign * k * SUM_TOL / 2)
        if ok:
            DensityMatrix(m)
        else:
            with pytest.raises(ValueError, match="trace"):
                DensityMatrix(m)


class TestChannelEntries:
    """Entries lie in [-NEG_TOL, 1 + NEG_TOL] and rows sum to 1 within SUM_TOL."""

    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    def test_entry_below_zero(self, k, ok):
        check_refusal(ok, r"\[0, 1\]", Channel, ["a"], ["0", "1"], [[-k * NEG_TOL, 1.0]])

    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    def test_entry_above_one(self, k, ok):
        check_refusal(ok, r"\[0, 1\]", Channel, ["a"], ["0", "1"], [[1 + k * NEG_TOL, 0.0]])

    @pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
    @pytest.mark.parametrize("k, ok", NEAR_SIDES, ids=NEAR_IDS)
    def test_row_sum_off_by_a_multiple_of_sum_tol(self, sign, k, ok):
        check_refusal(ok, "row sums", Channel, ["a"], ["0", "1"], [[0.5 + sign * k * SUM_TOL, 0.5]])


class TestWeightSum:
    """A weight vector's sum may miss 1 by SUM_TOL: ``|sum - 1| <= SUM_TOL``."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
    @pytest.mark.parametrize("k, ok", NEAR_SIDES, ids=NEAR_IDS)
    def test_sum_off_by_a_multiple_of_sum_tol(self, sign, k, ok):
        check_refusal(ok, "sum to 1", InputDistribution, [0.5 + sign * k * SUM_TOL, 0.5])


class TestStateNorm:
    """A state's norm, and a_j^2 + b_j^2, may miss 1 by STATE_TOL."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
    @pytest.mark.parametrize("k, ok", NEAR_SIDES, ids=NEAR_IDS)
    def test_pure_state_norm(self, sign, k, ok):
        check_refusal(ok, "state norm", PureState, [1 + sign * k * STATE_TOL, 0.0])

    @pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
    @pytest.mark.parametrize("k, ok", NEAR_SIDES, ids=NEAR_IDS)
    def test_phased_qubit_magnitudes(self, sign, k, ok):
        a = [math.sqrt(1 + sign * k * STATE_TOL)]
        check_refusal(ok, r"a_j\^2 \+ b_j\^2", PhasedQubitEnsemble.from_magnitudes, [1.0], a, [0.0])


class TestDensitySpectrum:
    """Hermitian within STATE_TOL, and no eigenvalue below -EIG_CLAMP."""

    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    def test_asymmetry(self, k, ok):
        check_refusal(ok, "Hermitian", DensityMatrix, [[0.5, k * STATE_TOL], [0.0, 0.5]])

    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    def test_eigenvalue_below_zero(self, k, ok):
        # A diagonal matrix: its eigenvalues are its diagonal, exactly.
        check_refusal(ok, "eigenvalue below", DensityMatrix, np.diag([1 + k * EIG_CLAMP, -k * EIG_CLAMP]))

    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    def test_pure_witness_off_by_a_multiple_of_row_tol(self, k, ok):
        # |0><0| plus an off-diagonal k ROW_TOL: Hermitian, trace 1, least eigenvalue -(k ROW_TOL)^2.
        m = [[1.0, k * ROW_TOL], [k * ROW_TOL, 0.0]]
        check_refusal(ok, "pure witness", DensityMatrix, m, PureState([1.0, 0.0]))


class TestPovmValidate:
    """``validate`` holds asymmetry, least eigenvalue and completeness error to ``tol``."""

    @staticmethod
    def elements(kind: str, d: float) -> list:
        if kind == "max_asymmetry":
            return [[[1.0, d], [0.0, 0.0]], [[0.0, -d], [0.0, 1.0]]]
        if kind == "min_eigenvalue":
            return [np.diag([1 + d, 0.0]), np.diag([-d, 1.0])]
        return [np.diag([1 + d, 0.0]), np.diag([0.0, 1.0])]

    @pytest.mark.parametrize("kind, sign", [("max_asymmetry", 1), ("min_eigenvalue", -1), ("completeness_error", 1)])
    @pytest.mark.parametrize("k, ok", SIDES, ids=SIDE_IDS)
    def test_one_defect_at_a_multiple_of_tol(self, kind, sign, k, ok):
        check = POVM(self.elements(kind, k * TOL_2), ["0", "1"]).validate(TOL_2)
        assert getattr(check, kind) == sign * k * TOL_2
        assert check.ok is ok


class TestUhlmannCutoff:
    """The general fidelity drops inner eigenvalues at or below UHLMANN_CUTOFF times the largest."""

    @pytest.mark.parametrize("k, kept", [(0.5, False), (1.5, True), (2.0, True)], ids=NEAR_IDS)
    def test_inner_eigenvalue_ratio(self, k, kept):
        # Witness-free diag(1 - e, e) against I/2: the inner eigenvalues are
        # (1 - e)/2 and e/2, whose ratio is k * UHLMANN_CUTOFF.
        ratio = k * UHLMANN_CUTOFF
        e = ratio / (1 + ratio)
        f = quantum_fidelity(DensityMatrix(np.diag([1 - e, e])), maximally_mixed(2))
        expected = math.sqrt((1 - e) / 2) + (math.sqrt(e / 2) if kept else 0.0)
        assert f == pytest.approx(expected, abs=1e-12)


def test_mutant_table_matches_the_sources():
    # tools/mutants.py applies each row by text; a row whose text moved or
    # doubled would silently stop testing its comparison.
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("mutants", root / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for file, old, new in mutants.MUTANTS:
        assert (root / "src" / "chanfactor" / file).read_text().count(old) == 1, (file, old)
        assert old != new
