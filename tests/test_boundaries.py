"""Tolerance boundaries: each compared tolerance checked on both sides.

Planted data elsewhere in the suite sits far from every threshold, so a
change to one of these comparisons used to pass the whole suite. Each case
puts the compared quantity at 0.5x and at 1.5x or 2x its tolerance, and at the
exact tie where ``<`` against ``<=`` matters and the values are exact.
"""

import math

import numpy as np
import pytest

from chanfactor.channel import Channel, Factorization, InputDistribution, Partition, verify_factorization
from chanfactor.linalg import NEG_TOL, ROW_TOL, SUM_TOL
from chanfactor.qfactor import (
    POVM,
    DensityMatrix,
    Ensemble,
    PureState,
    QFactorization,
    fidelity_bound_check,
    verify_qfactorization,
)

# A dyadic tolerance: 0.5 +- k * TOL_2 is exact for k in {0.5, 1, 1.5, 2}, so
# every gap below is exactly the stated multiple of it.
TOL_2 = 2.0 ** -30
SIDES = [(0.5, True), (1.0, True), (1.5, False), (2.0, False)]
SIDE_IDS = ["half", "tie", "1.5x", "2x"]


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
        (pair,) = r.pairs
        assert (pair.f_classical, pair.slack) == (0.0, -k * ROW_TOL)
        assert r.ok is ok
        assert pair.saturated is ok


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
