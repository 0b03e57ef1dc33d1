import json
import math

import numpy as np
import pytest

from chanfactor.casestudy import build_sic_family, family_channel, family_qfactorization
from chanfactor.channel import (
    AlphabetMismatch,
    Channel,
    InputDistribution,
    Partition,
    causal_partition,
    classical_fidelity,
    pushforward,
    rbsc,
    shannon_entropy,
)
from chanfactor.linalg import psd_sqrt
from chanfactor.phase import PhasedQubitEnsemble
from chanfactor.qfactor import (
    POVM,
    DensityMatrix,
    DimensionMismatch,
    Ensemble,
    IndexOutOfRange,
    PureState,
    QFactorization,
    _density_spectrum,
    _entropy_bits,
    advantage_grid,
    average_state,
    fidelity_bound_check,
    g0_construct,
    gram_matrix,
    is_opwo,
    maximally_mixed,
    merge,
    qfactorization_from_json,
    qfactorization_to_json,
    quantum_fidelity,
    rebit_sign_search,
    verify_qfactorization,
    von_neumann_entropy,
)

from helpers import (
    brute_force_violations,
    coarsen,
    jittered_channel,
    opwo_ensemble,
    random_channel,
    random_density,
    random_full_support_dist,
    random_pure,
    random_pure_ensemble,
)

KET0 = PureState(np.array([1.0, 0.0]))
KET1 = PureState(np.array([0.0, 1.0]))
KET0_DM = DensityMatrix.from_pure(KET0)
KET1_DM = DensityMatrix.from_pure(KET1)
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))


def born_probabilities_oracle(povm, rho):
    """Independent Born-rule evaluation: explicit entrywise trace sums."""
    return [
        sum((e[i, j] * rho[j, i]).real for i in range(e.shape[0]) for j in range(e.shape[0]))
        for e in povm.elements
    ]


class TestStateTypes:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_normalized_helper(self):
        s = PureState.normalized([3.0, 4.0])
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.3], [0.2, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.9, 0.3]))  # trace != 1
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_from_pure_sets_witness(self):
        dm = DensityMatrix.from_pure(PLUS)
        assert dm.pure is PLUS
        assert np.abs(dm.matrix - PLUS.projector()).max() <= 1e-15

    def test_povm_computational(self):
        povm = POVM.computational(("a", "b", "c"))
        check = povm.validate()
        assert check and check.completeness_error == 0.0

    def test_povm_validate_catches_incomplete(self):
        povm = POVM((np.diag([1.0, 0.0]).astype(complex),), ("a",))
        assert not povm.validate()

    def test_pure_state_rejects_nan(self):
        # NaN failed the norm comparison, so the state constructed.
        with pytest.raises(ValueError, match="finite"):
            PureState(np.array([math.nan, 1.0]))

    def test_density_matrix_rejects_nan(self):
        # NaN failed every Hermitian, trace and eigenvalue comparison.
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.array([[math.nan, 0.0], [0.0, 1.0]]))

    def test_ensemble_rejects_nan_weight(self):
        # A NaN weight failed both the sign and the sum comparison.
        with pytest.raises(ValueError, match="finite"):
            Ensemble(np.array([math.nan, 1.0]), (KET0_DM, KET1_DM))

    @pytest.mark.parametrize(
        "build",
        [
            lambda w: InputDistribution(w),
            lambda w: Ensemble(w, (KET0_DM, KET1_DM)),
            lambda w: PhasedQubitEnsemble.from_magnitudes(w, [0.6, 0.8], [0.8, 0.6]),
        ],
        ids=["InputDistribution", "Ensemble", "PhasedQubitEnsemble"],
    )
    @pytest.mark.parametrize(
        "weights",
        [[math.inf, 0.5], [1.5, -0.5], [0.5, 0.6], [[0.5, 0.5]], []],
        ids=["inf", "negative", "sum", "2-D", "empty"],
    )
    def test_weight_vectors_share_one_validator(self, build, weights):
        with pytest.raises(ValueError):
            build(np.array(weights))

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([0.5, 0.6]), (maximally_mixed(2), maximally_mixed(2)))
        with pytest.raises(DimensionMismatch):
            Ensemble(np.array([0.5, 0.5]), (maximally_mixed(2), maximally_mixed(3)))


class TestG0Construct:
    def test_rbsc_states_and_measurement(self):
        q = g0_construct(rbsc(0.3))
        assert q.cardinality == 2
        amp0 = q.signals[0].pure.amplitudes
        amp1 = q.signals[1].pure.amplitudes
        assert np.allclose(amp0, [math.sqrt(0.7), math.sqrt(0.3)], atol=1e-15)
        assert np.allclose(amp1, [math.sqrt(0.3), math.sqrt(0.7)], atol=1e-15)
        assert np.array_equal(q.povm.elements[0], np.diag([1.0, 0.0]))
        assert np.array_equal(q.povm.elements[1], np.diag([0.0, 1.0]))
        assert set(q.signal_map) == {"0", "1"}

    def test_deterministic_channel_is_classical_limit(self):
        rows = np.eye(3)[[0, 1, 0, 2]]
        c = Channel(tuple("abcd"), tuple("xyz"), rows)
        q = g0_construct(c)
        for i in range(q.cardinality):
            for j in range(i + 1, q.cardinality):
                assert abs(q.signals[i].pure.overlap(q.signals[j].pure)) <= 1e-15
        d = random_full_support_dist(np.random.default_rng(0), 4)
        w = pushforward(d, q.partition)
        rho = average_state(Ensemble(w.probs, q.signals))
        assert abs(von_neumann_entropy(rho) - shannon_entropy(w)) <= 1e-12

    def test_random_channel_reproduces_all_probabilities(self):
        rng = np.random.default_rng(61)
        c = random_channel(rng, n_inputs=5, n_outputs=4, duplicate_rows=False)
        q = g0_construct(c)
        for x in range(c.n_inputs):
            probs = born_probabilities_oracle(q.povm, q.signal_for_input(x).matrix)
            assert np.abs(np.array(probs) - c.matrix[x]).max() <= 1e-12

    def test_cardinality_equals_class_count(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            c = random_channel(rng, duplicate_rows=True)
            q = g0_construct(c)
            assert q.cardinality == causal_partition(c).n_classes

    def test_root_of_round_off_row_sum_is_rescaled(self):
        # The first row sums to 1 + 6e-10, inside SUM_TOL, but its roots have
        # norm 1 + 3e-10, beyond STATE_TOL; the second row is left as it is.
        c = Channel(("a", "b"), ("0", "1"), np.array([[0.5000000006, 0.5], [0.2, 0.8]]))
        q = g0_construct(c)
        assert verify_qfactorization(c, q)
        assert abs(np.linalg.norm(q.signals[0].pure.amplitudes) - 1.0) <= 1e-15
        assert np.array_equal(q.signals[1].pure.amplitudes, np.sqrt([0.2, 0.8]))


class TestVerifyQFactorization:
    def test_g0_verifies(self):
        c = rbsc(0.3)
        assert verify_qfactorization(c, g0_construct(c), 1e-12)

    def test_mixed_substitute_fails(self):
        c = rbsc(0.3)
        q = g0_construct(c)
        tampered = QFactorization(
            q.input_labels,
            q.partition,
            (maximally_mixed(2), q.signals[1]),
            q.povm,
        )
        check = verify_qfactorization(c, tampered)
        assert not check
        # the mixed state answers (1/2, 1/2) instead of (0.7, 0.3)
        deltas = {(x, y): d for x, y, d in check.violations}
        assert abs(deltas[("0", "0")] - 0.2) <= 1e-12

    @pytest.mark.parametrize("t", [-0.5, 0.0, 1.0])
    def test_sic_family_verifies_with_mixed_signals(self, t):
        family = build_sic_family()
        c = family_channel(family, t)
        q = family_qfactorization(family, t)
        assert verify_qfactorization(c, q, 1e-9)

    def test_coarse_partition_rejected(self):
        rng = np.random.default_rng(71)
        rejected = 0
        for _ in range(50):
            c = random_channel(rng, duplicate_rows=True)
            part = causal_partition(c)
            if part.n_classes < 2:
                continue
            # merge the first two causal classes and reuse the first signal
            classes = [list(cl) for cl in part.classes]
            classes[0].extend(classes[1])
            del classes[1]
            coarse = Partition(tuple(tuple(cl) for cl in classes), c.n_inputs)
            g0 = g0_construct(c)
            signals = (g0.signals[0],) + g0.signals[2:]
            q = QFactorization(c.inputs, coarse, signals, g0.povm)
            assert not verify_qfactorization(c, q)
            rejected += 1
        assert rejected >= 10

    def test_refinement_of_causal_accepted(self):
        c = rbsc(0.3)
        part = Partition(((0,), (2,), (1, 3)), 4)
        assert part.classes == ((0,), (1, 3), (2,))
        root = math.sqrt
        s_a = DensityMatrix.from_pure(PureState(np.array([root(0.7), root(0.3)])))
        s_b = DensityMatrix.from_pure(PureState(np.array([root(0.3), root(0.7)])))
        q = QFactorization(c.inputs, part, (s_a, s_b, s_a), POVM.computational(c.outputs))
        assert verify_qfactorization(c, q, 1e-12)
        assert part.refines(causal_partition(c))

    def test_wrong_merges_match_reference_violations(self):
        rng = np.random.default_rng(73)
        checked = 0
        for _ in range(60):
            c = random_channel(rng, duplicate_rows=True)
            causal = causal_partition(c)
            if causal.n_classes < 2:
                continue
            coarse = coarsen(rng, causal)
            # Each coarse class keeps the signal of its lowest member.
            g0 = g0_construct(c)
            signals = tuple(g0.signal_for_input(cl[0]) for cl in coarse.classes)
            q = QFactorization(c.inputs, coarse, signals, g0.povm)
            check = verify_qfactorization(c, q)
            born = [born_probabilities_oracle(q.povm, s.matrix) for s in signals]
            expected = brute_force_violations(c, coarse, born, 1e-9)
            assert expected and not check
            assert [v[:2] for v in check.violations] == [v[:2] for v in expected]
            assert np.allclose(
                [v[2] for v in check.violations], [v[2] for v in expected], rtol=0, atol=1e-14
            )
            checked += 1
        assert checked >= 20

    def test_mixed_signals_match_reference_violations(self):
        # Non-diagonal POVM and mixed signals: the SIC family at t = 0
        # checked against a channel whose rows are all shifted by 0.01.
        family = build_sic_family()
        q = family_qfactorization(family, 0.0)
        c0 = family_channel(family, 0.0)
        shifted = np.roll(c0.matrix, 1, axis=1) * 0.01 + c0.matrix * 0.99
        c = Channel(c0.inputs, c0.outputs, shifted)
        check = verify_qfactorization(c, q)
        born = [born_probabilities_oracle(q.povm, s.matrix) for s in q.signals]
        expected = brute_force_violations(c, q.partition, born, 1e-9)
        assert expected and not check
        assert [v[:2] for v in check.violations] == [v[:2] for v in expected]
        assert np.allclose(
            [v[2] for v in check.violations], [v[2] for v in expected], rtol=0, atol=1e-14
        )

    def test_alphabet_mismatch_raises(self):
        c = rbsc(0.3)
        q = g0_construct(c)
        other = Channel(("u", "v"), ("0", "1"), [[0.7, 0.3], [0.3, 0.7]])
        with pytest.raises(AlphabetMismatch):
            verify_qfactorization(other, q)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert abs(von_neumann_entropy(DensityMatrix.from_pure(PLUS))) <= 1e-12

    def test_idealized_two_mixed_one_pure(self):
        mm = maximally_mixed(2)
        ens = Ensemble(np.array([1 / 3, 1 / 3, 1 / 3]), (mm, mm, DensityMatrix.from_pure(KET0)))
        s = von_neumann_entropy(average_state(ens))
        assert abs(s - (math.log2(3) - 2 / 3)) <= 1e-12

    def test_three_pure_states_mixture(self):
        ens = Ensemble.from_pure(np.array([3 / 6, 2 / 6, 1 / 6]), (KET0, KET1, PLUS))
        s = von_neumann_entropy(average_state(ens))
        assert abs(s - 0.9595) <= 5e-4

    def test_range(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            d = int(rng.integers(1, 9))
            s = von_neumann_entropy(random_density(rng, d))
            assert -1e-12 <= s <= math.log2(d) + 1e-9 if d > 1 else s <= 1e-12

    def test_accepts_plain_matrix(self):
        assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) <= 1e-12


class TestAverageState:
    def test_single_state_passthrough(self):
        dm = DensityMatrix.from_pure(PLUS)
        ens = Ensemble(np.array([1.0]), (dm,))
        assert average_state(ens) is dm

    def test_uniform_basis_yields_maximally_mixed(self):
        ens = Ensemble.from_pure(np.array([0.5, 0.5]), (KET0, KET1))
        assert np.abs(average_state(ens).matrix - np.eye(2) / 2).max() <= 1e-15

    def test_rbsc_weighted_sum_oracle(self):
        p, alpha = 0.3, 0.4
        q = g0_construct(rbsc(p))
        ens = Ensemble(np.array([alpha, 1 - alpha]), q.signals)
        rho = average_state(ens).matrix
        psi0 = np.array([math.sqrt(1 - p), math.sqrt(p)])
        psi1 = np.array([math.sqrt(p), math.sqrt(1 - p)])
        expected = alpha * np.outer(psi0, psi0) + (1 - alpha) * np.outer(psi1, psi1)
        assert np.abs(rho - expected).max() <= 1e-15
        # quantum advantage is strictly positive off the heatmap edges
        s = von_neumann_entropy(average_state(ens))
        h = shannon_entropy([alpha, 1 - alpha])
        assert 0.0 < s < h

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Ensemble(np.array([0.5, 0.5]), (maximally_mixed(2), maximally_mixed(3)))


class TestStackValidation:
    GOOD = (maximally_mixed(2).matrix, KET0_DM.matrix, DensityMatrix.from_pure(PLUS).matrix)

    def stack(self, bad):
        # A (2, 3, 2, 2) stack of valid states with ``bad`` at position (1, 2).
        m = np.array([self.GOOD, self.GOOD[::-1]], dtype=complex)
        m[1, 2] = bad
        return m

    @pytest.mark.parametrize(
        "bad",
        [
            [[math.nan, 0.0], [0.0, 1.0]],
            [[0.5, 0.3], [0.2, 0.5]],
            np.diag([0.6, 0.5]),
            np.diag([1.0 + 1e-6, -1e-6]),
        ],
        ids=["nan", "asymmetric", "trace-1.1", "eigenvalue-1e-6"],
    )
    def test_one_bad_matrix_raises_its_own_message(self, bad):
        with pytest.raises(ValueError) as alone:
            DensityMatrix(np.asarray(bad))
        with pytest.raises(ValueError) as stacked:
            _density_spectrum(self.stack(bad))
        assert str(stacked.value) == str(alone.value)

    def test_spectrum_equals_per_matrix_eigvalsh(self):
        rng = np.random.default_rng(331)
        m = np.stack([random_density(rng, 3).matrix for _ in range(20)])
        w = _density_spectrum(m)
        for mi, wi in zip(m, w):
            assert np.array_equal(wi, np.linalg.eigvalsh((mi + mi.conj().T) / 2))

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_entropy_reduction_equals_von_neumann_entropy_below_8(self, d):
        # Rank-deficient spectra put zero terms among the positive ones.
        rng = np.random.default_rng(337 + d)
        w = rng.dirichlet(np.ones(d), size=200)
        w[rng.random(w.shape) < 0.4] = 0.0
        w[w.sum(axis=1) == 0.0, 0] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        m = np.stack([np.diag(row).astype(complex) for row in w])
        s = _entropy_bits(_density_spectrum(m)) + 0.0
        assert s.tolist() == [von_neumann_entropy(mi) for mi in m]


class TestAdvantageGrid:
    def test_equals_per_cell_path(self):
        # 13 x 11 cells; both axes contain 0, 0.5 and 1.
        ps, alphas = np.linspace(0, 1, 13), np.linspace(0, 1, 11)
        assert {0.0, 0.5, 1.0} <= set(ps) & set(alphas)
        expected = np.empty((ps.size, alphas.size))
        for i, p in enumerate(ps):
            pair = tuple(
                DensityMatrix.from_pure(PureState(np.array(v)))
                for v in ([np.sqrt(1 - p), np.sqrt(p)], [np.sqrt(p), np.sqrt(1 - p)])
            )
            for j, alpha in enumerate(alphas):
                w = np.array([alpha, 1.0 - alpha])
                h_z = float(-(w[w > 0] * np.log2(w[w > 0])).sum())
                expected[i, j] = h_z - von_neumann_entropy(average_state(Ensemble(w, pair)))
        grid = advantage_grid(ps, alphas)
        assert np.array_equal(grid, expected)
        assert np.array_equal(np.signbit(grid), np.signbit(expected))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
    def test_rejects_p_outside_unit_interval(self):
        with pytest.raises(ValueError, match="state norm"):
            advantage_grid(np.array([0.5, 1.5]), np.linspace(0, 1, 3))

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError, match="weights"):
            advantage_grid(np.linspace(0, 1, 3), np.array([0.5, -0.25]))


class TestQuantumFidelity:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(79), 3)
        assert abs(quantum_fidelity(rho, rho) - 1.0) <= 1e-7

    def test_orthogonal_pure(self):
        assert quantum_fidelity(DensityMatrix.from_pure(KET0), DensityMatrix.from_pure(KET1)) == 0.0

    def test_rbsc_pair_both_routes(self):
        q = g0_construct(rbsc(0.3))
        target = 2 * math.sqrt(0.21)
        fast = quantum_fidelity(q.signals[0], q.signals[1])
        assert abs(fast - target) <= 1e-14
        # strip the pure witnesses to force the general Uhlmann path
        raw0 = DensityMatrix(q.signals[0].matrix)
        raw1 = DensityMatrix(q.signals[1].matrix)
        slow = quantum_fidelity(raw0, raw1)
        assert abs(slow - target) <= 1e-7
        assert abs(fast - classical_fidelity([0.7, 0.3], [0.3, 0.7])) <= 1e-14

    def test_uhlmann_matches_overlap_on_random_pure_pairs(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            a, b = random_pure(rng, d), random_pure(rng, d)
            slow = quantum_fidelity(DensityMatrix(np.outer(a.amplitudes, a.amplitudes.conj())),
                                    DensityMatrix(np.outer(b.amplitudes, b.amplitudes.conj())))
            assert abs(slow - abs(a.overlap(b))) <= 1e-7

    def test_mixed_pair_against_trace_norm_oracle(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            r1, r2 = random_density(rng, d), random_density(rng, d)
            f = quantum_fidelity(r1, r2)
            # oracle: nuclear norm of sqrt(r1) sqrt(r2)
            oracle = np.linalg.svd(psd_sqrt(r1.matrix) @ psd_sqrt(r2.matrix), compute_uv=False).sum()
            assert abs(f - oracle) <= 1e-7
            assert abs(f - quantum_fidelity(r2, r1)) <= 1e-7
            assert -1e-9 <= f <= 1.0 + 1e-9

    def test_pure_vs_mixed_route(self):
        rng = np.random.default_rng(97)
        psi = random_pure(rng, 4)
        rho = random_density(rng, 4)
        f = quantum_fidelity(DensityMatrix.from_pure(psi), rho)
        expected = math.sqrt(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)
        assert abs(f - expected) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quantum_fidelity(maximally_mixed(2), maximally_mixed(3))


class TestMerge:
    def test_worked_three_state_example(self):
        ens = Ensemble.from_pure(np.array([3 / 6, 2 / 6, 1 / 6]), (KET0, KET1, PLUS))
        base = von_neumann_entropy(average_state(ens))
        b_to_c, c_to_b = merge(ens, 1, 2)
        assert abs(base - 0.9595) <= 5e-4
        assert abs(von_neumann_entropy(average_state(b_to_c)) - 0.6009) <= 5e-4
        assert abs(von_neumann_entropy(average_state(c_to_b)) - 1.0) <= 5e-4

    def test_weights_reassigned(self):
        ens = Ensemble.from_pure(np.array([0.5, 0.3, 0.2]), (KET0, KET1, PLUS))
        jk, kj = merge(ens, 0, 2)
        assert jk.size == 2 and kj.size == 2
        assert np.allclose(jk.weights, [0.3, 0.7])
        assert np.allclose(kj.weights, [0.7, 0.3])
        assert abs(jk.weights.sum() - 1.0) <= 1e-12

    def test_identical_states_give_identical_averages(self):
        ens = Ensemble.from_pure(np.array([0.5, 0.25, 0.25]), (PLUS, KET1, KET1))
        jk, kj = merge(ens, 1, 2)
        assert np.abs(average_state(jk).matrix - average_state(kj).matrix).max() <= 1e-15

    def test_index_errors(self):
        ens = Ensemble.from_pure(np.array([0.5, 0.5]), (KET0, KET1))
        with pytest.raises(IndexOutOfRange):
            merge(ens, 0, 2)
        with pytest.raises(IndexOutOfRange):
            merge(ens, 1, 1)

    def test_min_direction_never_increases_entropy(self):
        rng = np.random.default_rng(101)
        for _ in range(120):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 5))
            ens = random_pure_ensemble(rng, n, d)
            j, k = rng.choice(n, size=2, replace=False)
            base = von_neumann_entropy(average_state(ens))
            jk, kj = merge(ens, int(j), int(k))
            s_min = min(
                von_neumann_entropy(average_state(jk)),
                von_neumann_entropy(average_state(kj)),
            )
            assert s_min <= base + 1e-9

    def test_max_direction_can_be_greater_equal_or_less(self):
        def max_merge_entropy(ens, j, k):
            jk, kj = merge(ens, j, k)
            return max(
                von_neumann_entropy(average_state(jk)),
                von_neumann_entropy(average_state(kj)),
            )

        # greater: the worked pure-state trio
        trio = Ensemble.from_pure(np.array([3 / 6, 2 / 6, 1 / 6]), (KET0, KET1, PLUS))
        base = von_neumann_entropy(average_state(trio))
        assert max_merge_entropy(trio, 1, 2) > base + 1e-6
        # equal: merging two copies of the same state changes nothing
        dup = Ensemble.from_pure(np.array([0.5, 0.25, 0.25]), (PLUS, KET1, KET1))
        base = von_neumann_entropy(average_state(dup))
        assert abs(max_merge_entropy(dup, 1, 2) - base) <= 1e-12
        # less: two orthogonal states collapse to a pure average either way
        flat = Ensemble.from_pure(np.array([0.5, 0.5]), (KET0, KET1))
        assert max_merge_entropy(flat, 0, 1) < von_neumann_entropy(average_state(flat)) - 0.9


class TestTwoStateMonotonicity:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_entropy_decreases_with_overlap(self, p):
        entropies = []
        for c in np.linspace(0.0, 1.0, 100):
            psi2 = PureState(np.array([c, math.sqrt(max(1 - c * c, 0.0))]))
            ens = Ensemble.from_pure(np.array([p, 1 - p]), (KET0, psi2))
            entropies.append(von_neumann_entropy(average_state(ens)))
        diffs = np.diff(entropies)
        assert np.all(diffs < 0)


class TestIsOpwo:
    def test_orthonormal_basis(self):
        ens = Ensemble.from_pure(np.array([0.5, 0.3, 0.2]), tuple(
            PureState(np.eye(3)[i]) for i in range(3)
        ))
        assert is_opwo(ens)

    def test_chain_overlap_fails(self):
        ens = Ensemble.from_pure(np.array([1 / 3] * 3), (KET0, PLUS, KET1))
        assert not is_opwo(ens)

    def test_two_pair_block_example(self):
        rng = np.random.default_rng(103)
        ens, overlaps = opwo_ensemble(rng, n_pairs=2, n_singletons=0)
        psis = ens.pure_states
        gram = np.array([[psis[i].overlap(psis[j]) for j in range(4)] for i in range(4)])
        degrees = (np.abs(gram - np.eye(4)) > 1e-9).sum(axis=1)
        assert degrees.max() == 1
        assert is_opwo(ens)

    def test_threshold_configurable(self):
        eps = 1e-6
        near_one = PureState(np.array([eps, math.sqrt(1 - eps * eps)]))
        ens = Ensemble.from_pure(np.array([0.4, 0.3, 0.3]), (KET0, near_one, KET1))
        # |<0|near_one>| = 1e-6 is an edge at tol 1e-9, making near_one degree 2
        assert not is_opwo(ens, tol=1e-9)
        assert is_opwo(ens, tol=1e-3)


class TestGramMatrix:
    def test_orthonormal_states_give_diagonal(self):
        w = np.array([0.5, 0.3, 0.2])
        ens = Ensemble.from_pure(w, tuple(PureState(np.eye(3)[i]) for i in range(3)))
        assert np.abs(gram_matrix(ens) - np.diag(w)).max() <= 1e-15

    def test_half_half_plus_example(self):
        ens = Ensemble.from_pure(np.array([0.5, 0.5]), (KET0, PLUS))
        g = gram_matrix(ens)
        assert abs(g[0, 1] - 0.5 / math.sqrt(2)) <= 1e-15
        spec_g = np.sort(np.linalg.eigvalsh(g))
        spec_rho = np.sort(np.linalg.eigvalsh(average_state(ens).matrix))
        assert np.abs(spec_g - spec_rho).max() <= 1e-12

    def test_opwo_block_structure(self):
        rng = np.random.default_rng(107)
        ens, _ = opwo_ensemble(rng, n_pairs=2, n_singletons=1)
        g = gram_matrix(ens)
        # states arrive pair-adjacent, so blocks are at most 2x2 already
        mask = np.zeros_like(g, dtype=bool)
        for start in (0, 2):
            mask[start : start + 2, start : start + 2] = True
        mask[4, 4] = True
        assert np.abs(g[~mask]).max() <= 1e-15

    def test_spectrum_matches_average_state(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 7))
            ens = random_pure_ensemble(rng, n, d)
            g = np.linalg.eigvalsh(gram_matrix(ens))
            r = np.linalg.eigvalsh(average_state(ens).matrix)
            size = max(n, d)
            g_pad = np.zeros(size)
            g_pad[: n] = g
            r_pad = np.zeros(size)
            r_pad[: d] = r
            assert np.abs(np.sort(g_pad)[::-1] - np.sort(r_pad)[::-1]).max() <= 1e-9
            assert abs(np.trace(gram_matrix(ens)).real - 1.0) <= 1e-12


class TestFidelityBound:
    def test_g0_always_saturates(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            c = random_channel(rng, duplicate_rows=True)
            q = g0_construct(c)
            report = fidelity_bound_check(c, q)
            assert report.ok
            assert report.all_saturated

    def test_phase_twist_gives_strict_inequality(self):
        c = rbsc(0.3)
        q = g0_construct(c)
        twisted_amp = np.array([math.sqrt(0.3), math.sqrt(0.7) * np.exp(1j * 0.9)])
        twisted = QFactorization(
            q.input_labels,
            q.partition,
            (q.signals[0], DensityMatrix.from_pure(PureState(twisted_amp))),
            q.povm,
        )
        assert verify_qfactorization(c, twisted, 1e-12)
        report = fidelity_bound_check(c, twisted)
        assert report.ok
        pair = report.pairs[0]
        assert pair.f_quantum < pair.f_classical - 1e-3
        assert not pair.saturated

    def test_pairs_match_per_pair_fidelities(self):
        # The array pass must reproduce the per-pair reference bit for bit,
        # including output counts long enough for pairwise summation.
        rng = np.random.default_rng(127)
        for n_outputs in (1, 2, 7, 8, 9, 16, 40, 130):
            c = jittered_channel(rng, 30, 12, n_outputs, 0.0)
            q = g0_construct(c)
            reps = q.partition.representatives
            report = fidelity_bound_check(c, q)
            k = len(reps)
            assert len(report.pairs) == k * (k - 1) // 2
            pairs = iter(report.pairs)
            for i in range(k):
                for j in range(i + 1, k):
                    pair = next(pairs)
                    assert (pair.label_i, pair.label_j) == (c.inputs[reps[i]], c.inputs[reps[j]])
                    assert pair.f_classical == classical_fidelity(c.matrix[reps[i]], c.matrix[reps[j]])
                    assert pair.f_quantum == quantum_fidelity(q.signals[i], q.signals[j])

    def test_pure_path_matches_uhlmann_formula(self):
        # Witness-free copies of the same states take the general Uhlmann
        # route in quantum_fidelity.
        rng = np.random.default_rng(131)
        for _ in range(20):
            c = random_channel(rng, duplicate_rows=True)
            q = g0_construct(c)
            bare = QFactorization(
                q.input_labels, q.partition, tuple(DensityMatrix(s.matrix) for s in q.signals), q.povm
            )
            fast, slow = fidelity_bound_check(c, q), fidelity_bound_check(c, bare)
            for a, b in zip(fast.pairs, slow.pairs):
                assert a.f_classical == b.f_classical
                assert abs(a.f_quantum - b.f_quantum) <= 1e-12

    def test_orthogonal_rows_channel(self):
        c = Channel(("a", "b"), ("0", "1"), [[1.0, 0.0], [0.0, 1.0]])
        report = fidelity_bound_check(c, g0_construct(c))
        pair = report.pairs[0]
        assert pair.f_quantum == 0.0 and pair.f_classical == 0.0 and pair.saturated


class TestEntropyChain:
    def test_quantum_advantage_ordering(self):
        rng = np.random.default_rng(127)
        for _ in range(100):
            c = random_channel(rng, duplicate_rows=True)
            d = random_full_support_dist(rng, c.n_inputs)
            q = g0_construct(c)
            w = pushforward(d, q.partition)
            s = von_neumann_entropy(average_state(Ensemble(w.probs, q.signals)))
            hz = shannon_entropy(w)
            hx = shannon_entropy(d)
            assert s <= hz + 1e-9
            assert hz <= hx + 1e-9


class TestOpwoMonotonicity:
    def test_single_pair_sweep_strictly_decreases_entropy(self):
        seeds = range(20)
        for seed in seeds:
            rng = np.random.default_rng(1000 + seed)
            n_pairs = int(rng.integers(1, 4))
            n_singles = int(rng.integers(0, 3))
            base_overlaps = rng.uniform(0.05, 0.5, size=n_pairs)
            target = int(rng.integers(0, n_pairs))
            sweep = np.linspace(base_overlaps[target], 0.98, 20)
            entropies = []
            for c in sweep:
                overlaps = base_overlaps.copy()
                overlaps[target] = c
                ens, _ = opwo_ensemble(
                    np.random.default_rng(1000 + seed), n_pairs, n_singles, overlaps
                )
                assert is_opwo(ens)
                entropies.append(von_neumann_entropy(average_state(ens)))
            diffs = np.diff(entropies)
            assert np.all(diffs < -1e-12)


class TestRebitSignSearch:
    def test_search_never_beats_baseline(self):
        rng = np.random.default_rng(131)
        for trial in range(6):
            n_out = int(rng.integers(2, 7))
            rows = rng.dirichlet(np.ones(n_out), size=2)
            n_in = int(rng.integers(2, 7))
            assignment = rng.integers(0, 2, size=n_in)
            assignment[:2] = [0, 1]
            c = Channel(
                tuple(f"x{i}" for i in range(n_in)),
                tuple(f"y{j}" for j in range(n_out)),
                rows[assignment],
            )
            result = rebit_sign_search(c, n_samples=1000, seed=trial)
            assert result.best_entropy >= result.baseline_entropy - 1e-9
            assert not result.beaten

    def test_requires_two_classes(self):
        c = Channel(("a",), ("0", "1"), [[0.5, 0.5]])
        with pytest.raises(ValueError):
            rebit_sign_search(c)


class TestQFactorizationJson:
    def test_round_trip_verifies(self):
        rng = np.random.default_rng(137)
        c = random_channel(rng, n_inputs=5, n_outputs=3, duplicate_rows=True)
        q = g0_construct(c)
        payload = json.loads(json.dumps(qfactorization_to_json(q)))
        again = qfactorization_from_json(payload, c)
        assert verify_qfactorization(c, again, 1e-9)
        assert again.partition.classes == q.partition.classes

    def test_non_canonical_class_order_is_realigned(self):
        c = rbsc(0.3)
        q = g0_construct(c)
        payload = qfactorization_to_json(q)
        payload["partition"] = payload["partition"][::-1]
        payload["states"] = payload["states"][::-1]
        again = qfactorization_from_json(payload, c)
        assert verify_qfactorization(c, again, 1e-12)

    def test_unknown_label_rejected(self):
        c = rbsc(0.3)
        payload = qfactorization_to_json(g0_construct(c))
        payload["partition"][0][0] = "nope"
        with pytest.raises(AlphabetMismatch):
            qfactorization_from_json(payload, c)
