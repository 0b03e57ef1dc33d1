import math

import numpy as np
import pytest

from chanfactor.casestudy import (
    T_MAX,
    T_MIN,
    CurvePoint,
    TOutOfRange,
    build_sic_family,
    entropy_purity_curve,
    family_channel,
    family_qfactorization,
    m8_constraint_rank,
    rho_A,
    rho_mm,
)
from chanfactor.linalg import purity
from chanfactor.qfactor import DensityMatrix, verify_qfactorization, von_neumann_entropy


@pytest.fixture(scope="module")
def family():
    return build_sic_family()


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestSicStates:
    def test_states_are_normalized(self, family):
        for s in family.states:
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12

    def test_symmetric_overlaps(self, family):
        for i in range(9):
            for j in range(9):
                ov = abs(family.states[i].overlap(family.states[j])) ** 2
                expected = 1.0 if i == j else 0.25
                assert abs(ov - expected) <= 1e-12

    def test_specific_overlap_example(self, family):
        assert abs(abs(family.states[0].overlap(family.states[3])) ** 2 - 0.25) <= 1e-14

    def test_full_projector_sum_resolves_identity(self, family):
        total = sum(s.projector() for s in family.states) / 3
        assert np.abs(total - np.eye(3)).max() <= 1e-12


class TestM8:
    def test_elements_sum_to_identity(self, family):
        total = np.zeros((3, 3), dtype=complex)
        for e in family.povm_m8.elements:
            total = total + e
        assert np.abs(total - np.eye(3)).max() <= 1e-12

    def test_povm_validates(self, family):
        check = family.povm_m8.validate(1e-12)
        assert check
        assert check.min_eigenvalue >= -1e-12

    def test_redistribution_weight(self, family):
        # each element carries trace 1/3 + 1/24 = 3/8
        for e in family.povm_m8.elements:
            assert abs(np.trace(e).real - 3 / 8) <= 1e-12


class TestRhoA:
    def test_maximally_mixed_at_zero(self):
        assert np.abs(rho_A(0.0).matrix - np.eye(3) / 3).max() <= 1e-15

    def test_pure_at_one(self):
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.abs(rho_A(1.0).matrix - expected).max() <= 1e-15

    def test_rank_two_boundary(self):
        m = rho_A(-0.5).matrix
        assert np.abs(m - np.diag([0.0, 0.5, 0.5])).max() <= 1e-15

    def test_eigenvalue_formula(self):
        for t in np.linspace(T_MIN, T_MAX, 31):
            w = np.sort(np.linalg.eigvalsh(rho_A(float(t)).matrix))
            expected = np.sort([(1 - t) / 3 + t, (1 - t) / 3, (1 - t) / 3])
            assert np.abs(w - expected).max() <= 1e-12

    def test_boundary_enforced(self):
        with pytest.raises(TOutOfRange):
            rho_A(-0.51)
        with pytest.raises(TOutOfRange):
            rho_A(1.01)

    def test_positivity_fails_just_outside(self):
        # smallest eigenvalue hits zero exactly at t = -0.5
        assert abs(np.linalg.eigvalsh(rho_A(-0.5).matrix).min()) <= 1e-12


class TestFamilyChannel:
    def test_row_a_uniform_for_all_t(self, family):
        for t in np.linspace(T_MIN, T_MAX, 151):
            c = family_channel(family, float(t))
            assert np.abs(c.matrix[0] - 1 / 8).max() <= 1e-12

    def test_row_b_fixed(self, family):
        c = family_channel(family, 0.25)
        expected = np.array([0, 0, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6])
        assert np.abs(c.matrix[1] - expected).max() <= 1e-12

    def test_channel_invariant_in_t(self, family):
        ref = family_channel(family, T_MIN).matrix
        for t in np.linspace(T_MIN, T_MAX, 31):
            assert np.abs(family_channel(family, float(t)).matrix - ref).max() <= 1e-12

    def test_family_is_a_qfactorization(self, family):
        for t in (-0.5, -0.2, 0.0, 0.7, 1.0):
            c = family_channel(family, t)
            assert verify_qfactorization(c, family_qfactorization(family, t), 1e-9)


class TestEntropyPurityCurve:
    def test_endpoint_states(self, family):
        curve = entropy_purity_curve(family, 151)
        first, last = curve.points[0], curve.points[-1]
        assert first.t == -0.5 and last.t == 1.0
        # rho_{t=-0.5} = (1/4)|1><1| + (3/4)|2><2|
        assert abs(first.entropy_rho_t - binary_entropy(0.25)) <= 1e-12
        assert abs(first.purity_rho_t - (1 / 16 + 9 / 16)) <= 1e-12
        # rho_{t=1} = (1/2)|0><0| + (1/2)|2><2|
        assert abs(last.entropy_rho_t - 1.0) <= 1e-12
        assert abs(last.purity_rho_t - 0.5) <= 1e-12

    def test_local_minima_at_both_endpoints(self, family):
        s = entropy_purity_curve(family, 151).entropies
        assert s[1] > s[0]
        assert s[-2] > s[-1]

    def test_global_minimum_is_the_mixed_endpoint(self, family):
        curve = entropy_purity_curve(family, 151)
        gmin = curve.global_min()
        assert gmin.t == -0.5
        assert abs(gmin.entropy_rho_t - binary_entropy(0.25)) <= 1e-12
        assert gmin.entropy_rho_t < 1.0 - 0.15
        assert gmin.purity_rho_t < 1.0
        # the minimizing line state is extremal (rank-deficient) but mixed
        assert abs(np.linalg.eigvalsh(rho_A(-0.5).matrix).min()) <= 1e-10
        assert purity(rho_A(-0.5).matrix) < 1.0

    def test_segment_structure(self, family):
        segments = entropy_purity_curve(family, 151).monotone_segments()
        directions = [seg[0] for seg in segments]
        assert directions == ["rising", "falling"]

    def test_unmixed_line_entropy_column(self, family):
        curve = entropy_purity_curve(family, 7)
        by_t = {round(p.t, 6): p for p in curve.points}
        assert abs(by_t[-0.5].entropy_rho_At - 1.0) <= 1e-12
        assert abs(by_t[0.0].entropy_rho_At - math.log2(3)) <= 1e-12
        assert abs(by_t[1.0].entropy_rho_At - 0.0) <= 1e-12

    def test_equals_per_point_path(self, family):
        curve = entropy_purity_curve(family, 151)
        expected = []
        for t in np.linspace(T_MIN, T_MAX, 151):
            rho_at = rho_A(float(t))
            rho_t = DensityMatrix(0.5 * rho_at.matrix + 0.5 * family.rho_b.matrix)
            expected.append(
                CurvePoint(float(t), von_neumann_entropy(rho_t), purity(rho_t.matrix), von_neumann_entropy(rho_at))
            )
        assert curve.points == tuple(expected)

    def test_requires_three_points(self, family):
        with pytest.raises(ValueError):
            entropy_purity_curve(family, 2)


class TestConstraintRank:
    def test_rank_is_seven(self, family):
        rank, _ = m8_constraint_rank(family)
        assert rank == 7

    def test_null_direction_is_the_line(self, family):
        _, direction = m8_constraint_rank(family)
        # null direction must be proportional to |0><0| - I/3
        line = rho_A(1.0).matrix - rho_mm().matrix
        line = line / np.abs(line).max()
        scale = direction[0, 0] / line[0, 0]
        assert np.abs(direction - scale * line).max() <= 1e-9

    def test_probabilities_on_line_are_constant(self, family):
        base = family.povm_m8.outcome_probabilities(rho_mm())
        for t in (-0.5, 0.3, 1.0):
            probs = family.povm_m8.outcome_probabilities(rho_A(t))
            assert np.abs(probs - base).max() <= 1e-12
