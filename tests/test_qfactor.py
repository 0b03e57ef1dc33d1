import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import sqrtm

from chanfactor import qfactor
from chanfactor.casestudy import build_sic_family, family_channel, family_qfactorization
from chanfactor.channel import (
    AlphabetMismatch,
    Channel,
    InputDistribution,
    InvalidChannel,
    Partition,
    causal_partition,
    classical_fidelity,
    pushforward,
    rbsc,
    shannon_entropy,
)
from chanfactor.linalg import ROW_TOL, STATE_TOL, _entropy_bits
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
    _overlaps,
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
    random_mixed_ensemble,
    random_pure,
    random_pure_ensemble,
)

sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
import workloads  # noqa: E402  (bench/ is not a package)

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
        assert [q.input_labels[r] for r in q.partition.representatives] == ["0", "1"]

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
        owner = {x: k for k, cl in enumerate(q.partition.classes) for x in cl}
        for x in range(c.n_inputs):
            probs = born_probabilities_oracle(q.povm, q.signals[owner[x]].matrix)
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

    def test_roots_equal_per_row_reference(self):
        # The per-row loop g0_construct ran before the stack kernel.
        def reference(row):
            amps = np.sqrt(np.clip(row, 0.0, None))
            norm = np.linalg.norm(amps, axis=-1)
            return amps if abs(norm - 1.0) <= 1e-10 else amps / norm

        rng = np.random.default_rng(347)
        rescaled = 0
        for _ in range(200):
            m = random_channel(rng).matrix.copy()
            # Half the rows sum to 1 +- 6e-10: inside SUM_TOL, roots beyond STATE_TOL.
            rows = np.flatnonzero(rng.random(m.shape[0]) < 0.5)
            cols = m[rows].argmax(axis=1)
            m[rows, cols] += np.where(m[rows, cols] > 0.5, -6e-10, rng.choice([-6e-10, 6e-10], rows.size))
            c = Channel(tuple(range(m.shape[0])), tuple(range(m.shape[1])), m)
            q = g0_construct(c)
            for rep, s in zip(q.partition.representatives, q.signals):
                expected = reference(c.matrix[rep])
                rescaled += not np.array_equal(expected, np.sqrt(c.matrix[rep]))
                assert np.array_equal(s.pure.amplitudes, expected.astype(complex))
        assert rescaled > 100


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
            owner = {x: k for k, cl in enumerate(g0.partition.classes) for x in cl}
            signals = tuple(g0.signals[owner[cl[0]]] for cl in coarse.classes)
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

    def test_state_forms_give_one_entropy(self):
        # A pure state, its density matrix and its raw projector are read by one coercion.
        psi = PureState(np.array([math.sqrt(0.3), math.sqrt(0.7) * np.exp(1j * 0.9)]))
        entropies = {von_neumann_entropy(s) for s in (psi, DensityMatrix.from_pure(psi), psi.projector())}
        assert len(entropies) == 1

    def test_entropies_sum_the_whole_vector_or_spectrum_bit_for_bit(self):
        # Both entropies take the sweeps' route: the whole probability vector,
        # or _density_spectrum's symmetrized spectrum, summed by _entropy_bits.
        # Checked on 8 or more entries with zeros, where numpy sums pairwise
        # and the sum over the positive entries alone may differ in its last
        # bits, and on matrices that are Hermitian only within STATE_TOL,
        # whose raw eigvalsh differs from the symmetrized one.
        def same_route(rho):
            assert von_neumann_entropy(rho) == float(_entropy_bits(_density_spectrum(rho.matrix)))

        rng = np.random.default_rng(101)
        for d in (8, 9, 12, 16):
            for _ in range(10):
                p = rng.random(d) * (rng.random(d) < 0.6)
                p[0] += 0.1
                p[-2:] = 0.0
                p /= p.sum()
                assert shannon_entropy(p) == float(_entropy_bits(p))
                assert shannon_entropy(InputDistribution(p)) == float(_entropy_bits(p))
                same_route(DensityMatrix(np.diag(p)))
                r = d // 2
                rank_deficient = Ensemble.from_pure(np.full(r, 1 / r), [random_pure(rng, d) for _ in range(r)])
                same_route(average_state(rank_deficient))
                # Off-diagonal round-off above the diagonal of the support block only: the zeros stay.
                support = np.flatnonzero(p)
                skew = np.zeros((d, d), dtype=complex)
                skew[np.ix_(support, support)] = np.triu(rng.uniform(-0.4, 0.4, (support.size,) * 2) * (1 + 1j), 1)
                near = DensityMatrix(np.diag(p) + STATE_TOL * skew)
                assert not np.array_equal(near.matrix, near.matrix.conj().T)
                same_route(near)
                full_rank = random_density(rng, d).matrix
                same_route(DensityMatrix(full_rank + STATE_TOL * np.triu(rng.uniform(-0.4, 0.4, (d, d)), 1)))


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

    def test_equals_loop_reference(self):
        # The accumulation loop average_state ran before the stack kernel.
        rng = np.random.default_rng(349)
        for _ in range(200):
            ens = random_mixed_ensemble(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)))
            total = np.zeros((ens.dim, ens.dim), dtype=complex)
            for w, s in zip(ens.weights, ens.states):
                total += w * s.matrix
            assert np.array_equal(average_state(ens).matrix, (total + total.conj().T) / 2)


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
        s = _entropy_bits(_density_spectrum(m))
        assert s.tolist() == [von_neumann_entropy(mi) for mi in m]


def povm_check_loop(povm, tol=1e-9):
    """The per-element validation loop the stacked ``validate`` replaced."""
    asym = max(np.abs(e - e.conj().T).max() for e in povm.elements)
    min_eig = min(np.linalg.eigvalsh((e + e.conj().T) / 2).min() for e in povm.elements)
    comp = np.abs(sum(povm.elements) - np.eye(povm.dim)).max()
    ok = asym <= tol and min_eig >= -tol and comp <= tol
    return bool(ok), float(asym), float(min_eig), float(comp)


class TestPovmStack:
    @pytest.mark.parametrize(
        "elements",
        [
            (np.eye(2), np.eye(3)),
            (np.eye(2), [[1.0, 0.0]]),
            (np.ones((2, 3)), np.ones((2, 3))),
            (np.ones(2), np.ones(2)),
            ([[1.0, 0.0], [0.0]],),
            (np.eye(2)[None],),
        ],
        ids=["mixed-dims", "ragged-rows", "non-square", "vectors", "ragged-element", "stacked-element"],
    )
    def test_ragged_or_non_square_elements_raise_dimension_mismatch(self, elements):
        with pytest.raises(DimensionMismatch):
            POVM(elements, tuple(range(len(elements))))

    def test_non_numeric_element_keeps_numpys_error(self):
        with pytest.raises(ValueError) as err:
            POVM([np.array([["a", "b"], ["c", "d"]])], "x")
        assert type(err.value) is ValueError

    def test_elements_are_one_read_only_stack(self):
        povm = POVM([np.eye(2) / 2, np.eye(2) / 2], ("a", "b"))
        assert povm.elements.shape == (2, 2, 2) and povm.elements.dtype == complex
        assert not povm.elements.flags.writeable

    @staticmethod
    def povms():
        rng = np.random.default_rng(347)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return {
            "m8": build_sic_family().povm_m8,
            "computational-8": POVM.computational(range(8)),
            "computational-16": POVM.computational(range(16)),
            "asymmetric": POVM((np.array([[1.0, 1e-6], [0.0, 0.0]]), np.diag([0.0, 1.0])), ("a", "b")),
            "negative-eigenvalue": POVM((np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])), ("a", "b")),
            "incomplete": POVM((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])), ("a", "b")),
            "random-hermitian": POVM((h + h.conj().T, np.eye(3) - h - h.conj().T), ("a", "b")),
        }

    @pytest.mark.parametrize(
        "name", ["m8", "computational-8", "computational-16", "asymmetric",
                 "negative-eigenvalue", "incomplete", "random-hermitian"],
    )
    def test_validate_equals_per_element_loop(self, name):
        povm = self.povms()[name]
        check = povm.validate()
        fields = (check.ok, check.max_asymmetry, check.min_eigenvalue, check.completeness_error)
        assert fields == povm_check_loop(povm)
        assert check.ok is (name in ("m8", "computational-8", "computational-16"))

    def test_outcome_probabilities_match_trace_loop(self):
        rng = np.random.default_rng(349)
        povm = build_sic_family().povm_m8
        for _ in range(50):
            rho = random_density(rng, 3).matrix
            p = povm.outcome_probabilities(DensityMatrix(rho))
            loop = np.clip([np.trace(e @ rho).real for e in povm.elements], 0.0, None)
            assert np.abs(p - loop).max() <= 1e-15


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
                expected[i, j] = shannon_entropy(w) - von_neumann_entropy(average_state(Ensemble(w, pair)))
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
            # oracle: nuclear norm of sqrt(r1) sqrt(r2), with scipy's Schur-based roots
            oracle = np.linalg.svd(sqrtm(r1.matrix) @ sqrtm(r2.matrix), compute_uv=False).sum()
            assert abs(f - oracle) <= 1e-7
            assert abs(f - quantum_fidelity(r2, r1)) <= 1e-7
            assert -1e-9 <= f <= 1.0 + 1e-9

    def test_general_route_takes_a_tiny_negative_eigenvalue_as_zero(self):
        # -5e-11 is within EIG_CLAMP, so DensityMatrix admits it and its root is 0.
        f = quantum_fidelity(DensityMatrix(np.diag([1.0, -5e-11])), maximally_mixed(2))
        assert f == 0.7071067811865476

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

    def test_every_route_is_clamped_at_one(self):
        # The witness's norm 1 + 5e-11 is within STATE_TOL, so its overlap with itself is 1 + 1e-10.
        s = DensityMatrix.from_pure(PureState([1 + 5e-11, 0]))
        bare = DensityMatrix(s.matrix)
        assert quantum_fidelity(s, s) == 1.0
        assert quantum_fidelity(s, bare) == 1.0
        assert quantum_fidelity(bare, s) == 1.0
        assert quantum_fidelity(bare, bare) == 1.0


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

    def test_numpy_integer_indices_are_accepted(self):
        ens = Ensemble.from_pure(np.array([0.5, 0.3, 0.2]), (KET0, KET1, PLUS))
        for got, want in zip(merge(ens, np.int64(0), np.intp(2)), merge(ens, 0, 2)):
            assert np.array_equal(got.weights, want.weights)
            assert all(g is w for g, w in zip(got.states, want.states))

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


class TestOverlapKernel:
    @staticmethod
    def vdot_reference(ens, tol):
        """gram_matrix and is_opwo as the per-pair np.vdot loops they were."""
        psis = ens.pure_states
        n = len(psis)
        rw = np.sqrt(np.clip(ens.weights, 0.0, None))
        g = np.empty((n, n), dtype=complex)
        degree = [0] * n
        for i in range(n):
            g[i, i] = ens.weights[i]
            for j in range(i + 1, n):
                ov = psis[i].overlap(psis[j])
                g[i, j] = rw[i] * rw[j] * ov
                g[j, i] = g[i, j].conjugate()
                if abs(ov) > tol:
                    degree[i] += 1
                    degree[j] += 1
        return g, max(degree) <= 1

    def test_gram_and_opwo_match_vdot_loops(self):
        rng = np.random.default_rng(353)
        seen = set()
        for k in range(300):
            if k % 2:
                ens = random_pure_ensemble(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            else:
                ens, _ = opwo_ensemble(rng, int(rng.integers(0, 3)), int(rng.integers(1, 3)))
            g = gram_matrix(ens)
            assert np.array_equal(g, g.conj().T)
            for tol in (1e-9, 0.3, 0.7):
                g_ref, opwo = self.vdot_reference(ens, tol)
                assert np.array_equal(g, g_ref)
                assert is_opwo(ens, tol) == opwo
                seen.add(opwo)
        assert seen == {True, False}

    def test_overlaps_are_the_pure_pair_overlaps(self):
        # np.abs clamped at 1, the one modulus of is_opwo and quantum_fidelity:
        # Python's abs of a complex can differ in the last bit, and a 1-dim
        # pair can exceed 1.
        rng = np.random.default_rng(359)
        for _ in range(200):
            ens = random_pure_ensemble(rng, int(rng.integers(2, 9)), int(rng.integers(1, 40)))
            psis = ens.pure_states
            overlaps = _overlaps([p.amplitudes for p in psis])
            for i, j in itertools.combinations(range(ens.size), 2):
                assert overlaps[i, j] == psis[i].overlap(psis[j])
                modulus = min(np.abs(overlaps[i, j]), 1.0)
                assert modulus == quantum_fidelity(ens.states[i], ens.states[j])

    def test_is_opwo_counts_an_edge_at_tol_as_quantum_fidelity_does(self):
        # a-b's overlap sits exactly at tol by quantum_fidelity, but a matrix
        # product of the stack rounds it above: no edge, unless the ensemble's
        # overlaps come from a different inner product than the pair's. The
        # draw also has np.abs agree with Python's abs on a-b (see above).
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = random_pure(rng, 4), random_pure(rng, 4)
            c = PureState((b.amplitudes + 0.5) / np.linalg.norm(b.amplitudes + 0.5))
            stack = np.stack([a.amplitudes, b.amplitudes, c.amplitudes])
            tol = quantum_fidelity(a, b)
            product = abs((stack.conj() @ stack.T)[0, 1])
            if product > tol and np.abs(a.overlap(b)) == tol and quantum_fidelity(a, c) <= tol:
                break
        else:
            pytest.fail("no seeded draw puts the matrix product above np.vdot")
        ens = Ensemble.from_pure(np.full(3, 1 / 3), (a, b, c))
        assert quantum_fidelity(b, c) > 0.5
        degree = [0, 0, 0]
        for i, j in itertools.combinations(range(3), 2):
            if quantum_fidelity(ens.states[i], ens.states[j]) > tol:
                degree[i] += 1
                degree[j] += 1
        assert max(degree) == 1
        assert is_opwo(ens, tol)

    def test_vecdot_has_the_bits_of_vdot(self):
        # Every overlap and purity rests on this: np.vecdot over the broadcast
        # shapes of _overlaps and purity equals np.vdot pair by pair.
        rng = np.random.default_rng(367)
        for n in range(1, 131):
            a = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
            pairs = np.vecdot(a[:, None, :], a[None, :, :])
            assert np.array_equal(pairs, [[np.vdot(u, v) for v in a] for u in a])
            assert np.array_equal(np.vecdot(a, a), [np.vdot(u, u) for u in a])
            assert np.vecdot(a[0], a[1]) == np.vdot(a[0], a[1])


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

    @staticmethod
    def twisted_rbsc() -> QFactorization:
        """The g0 factorization of rbsc(0.3) with a phase on its second signal."""
        q = g0_construct(rbsc(0.3))
        twisted_amp = np.array([math.sqrt(0.3), math.sqrt(0.7) * np.exp(1j * 0.9)])
        return QFactorization(
            q.input_labels,
            q.partition,
            (q.signals[0], DensityMatrix.from_pure(PureState(twisted_amp))),
            q.povm,
        )

    def test_phase_twist_gives_strict_inequality(self):
        c = rbsc(0.3)
        twisted = self.twisted_rbsc()
        assert verify_qfactorization(c, twisted, 1e-12)
        report = fidelity_bound_check(c, twisted)
        assert report.ok
        assert report.f_quantum[0] < report.f_classical[0] - 1e-3
        assert not report.saturated[0]

    def test_failing_report_is_falsy(self):
        # The twisted pair's fidelity, about 0.82, exceeds the 0.6 of rbsc(0.1)'s
        # rows, whose labels and outputs are those of rbsc(0.3).
        report = fidelity_bound_check(rbsc(0.1), self.twisted_rbsc())
        assert not report.ok
        assert not report
        assert bool(report) is report.ok

    @pytest.mark.parametrize(
        "other",
        [
            # Same shape as rbsc(0.3): the bound held, and the report named the classes of rbsc(0.3).
            Channel(("a", "b", "c", "d"), ("0", "1"), rbsc(0.1).matrix),
            # Six classes: their representatives indexed past the four rows of rbsc(0.3).
            Channel(tuple("abcdef"), ("0", "1"), [[1 - p, p] for p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]),
        ],
        ids=["4-input", "6-input"],
    )
    def test_refuses_a_factorization_of_another_channel(self, other):
        with pytest.raises(AlphabetMismatch, match="factorization input labels differ from channel"):
            fidelity_bound_check(rbsc(0.3), g0_construct(other))

    @staticmethod
    def check_pairs_against_per_pair_reference(c, q, tol=1e-9):
        """Assert every pair, as a ``pairs`` row and as an entry of the
        report's columns, equals its per-pair reference; returns ``ok``."""
        reps = q.partition.representatives
        report = fidelity_bound_check(c, q, tol)
        k = len(reps)
        assert len(report.pairs) == k * (k - 1) // 2
        pairs = iter(report.pairs)
        columns = {name: [] for name in ("i", "j", "f_quantum", "f_classical", "slack", "saturated")}
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                label_i, label_j, f_quantum, f_classical, slack, saturated = next(pairs)
                fc = classical_fidelity(c.matrix[reps[i]], c.matrix[reps[j]])
                fq = quantum_fidelity(q.signals[i], q.signals[j])
                assert (label_i, label_j) == (c.inputs[reps[i]], c.inputs[reps[j]])
                assert f_classical == fc
                assert f_quantum == fq
                assert slack == fc - fq
                assert saturated is (abs(fc - fq) <= tol)
                ok = ok and not fc - fq < -tol
                for name, value in zip(columns, (i, j, fq, fc, fc - fq, abs(fc - fq) <= tol)):
                    columns[name].append(value)
        for name, values in columns.items():
            assert np.array_equal(getattr(report, name), np.array(values, dtype=getattr(report, name).dtype)), name
        assert report.labels == tuple(c.inputs[r] for r in reps)
        assert report.ok is ok
        assert report.all_saturated is all(columns["saturated"])
        return ok

    def test_many_classes_bench_channel_matches_per_pair_fidelities(self, tmp_path):
        # The benchmark's many-classes seed-1 channel: 400 classes, 79,800 pairs.
        (invocation,) = workloads.build("many-classes", 1, tmp_path)
        c = Channel.from_json(json.loads(Path(invocation.argv[1]).read_text()))
        q = g0_construct(c)
        assert q.cardinality == 400
        assert self.check_pairs_against_per_pair_reference(c, q, ROW_TOL)

    def test_pairs_match_per_pair_fidelities(self):
        # The array pass must reproduce the per-pair reference bit for bit, including output counts long
        # enough for pairwise summation. Signals in reverse class order no
        # longer match their rows, so some pairs break the bound.
        rng = np.random.default_rng(127)
        seen = set()
        for n_outputs in (1, 2, 7, 8, 9, 16, 40, 130):
            c = jittered_channel(rng, 30, 12, n_outputs, 0.0)
            q = g0_construct(c)
            assert self.check_pairs_against_per_pair_reference(c, q)
            reverse = QFactorization(q.input_labels, q.partition, q.signals[::-1], q.povm)
            seen.add(self.check_pairs_against_per_pair_reference(c, reverse))
        assert False in seen

    @pytest.mark.parametrize("kept", ["none", "every-other"])
    def test_pairs_without_witnesses_match_per_pair_fidelities(self, kept):
        # Signals read back from JSON carry no pure witness; pairs missing
        # one still go through quantum_fidelity.
        rng = np.random.default_rng(137)
        for n_outputs in (1, 2, 7, 9, 16):
            c = jittered_channel(rng, 30, 12, n_outputs, 0.0)
            q = g0_construct(c)
            bare = qfactorization_from_json(json.loads(json.dumps(qfactorization_to_json(q))), c)
            assert all(s.pure is None for s in bare.signals)
            if kept == "every-other":
                signals = tuple(s if k % 2 else b for k, (s, b) in enumerate(zip(q.signals, bare.signals)))
                bare = QFactorization(q.input_labels, q.partition, signals, q.povm)
            self.check_pairs_against_per_pair_reference(c, bare)

    def test_classical_column_reads_the_kernels_pairs(self, monkeypatch):
        # Both columns come from the kernel's one enumeration: listed in any
        # other order, each f_classical still belongs to its own (i, j).
        kernel = qfactor._pair_fidelities
        monkeypatch.setattr(qfactor, "_pair_fidelities", lambda states: tuple(col[::-1] for col in kernel(states)))
        c = jittered_channel(np.random.default_rng(139), 30, 12, 7, 0.0)
        q = g0_construct(c)
        rows = c.matrix[list(q.partition.representatives)]
        report = fidelity_bound_check(c, q)
        assert report.i[0] > report.i[-1]  # the reversed order reached the report
        for n in range(report.i.size):
            assert report.f_classical[n] == classical_fidelity(rows[report.i[n]], rows[report.j[n]])
            assert report.slack[n] == report.f_classical[n] - report.f_quantum[n]

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
            assert np.array_equal(fast.f_classical, slow.f_classical)
            assert (np.abs(fast.f_quantum - slow.f_quantum) <= 1e-12).all()

    def test_orthogonal_rows_channel(self):
        c = Channel(("a", "b"), ("0", "1"), [[1.0, 0.0], [0.0, 1.0]])
        report = fidelity_bound_check(c, g0_construct(c))
        assert report.pairs == (("a", "b", 0.0, 0.0, 0.0, True),)

    @pytest.mark.parametrize("k", [1, 2, 100], ids=["K=1", "K=2", "many-inputs"])
    def test_pairs_are_the_rows_of_the_columns(self, k, tmp_path):
        # bench/spans.py counts qfactor.fidelity_pairs as len(r.pairs).
        if k == 100:  # the benchmark's many-inputs seed-1 channel: 8000 inputs, 100 classes
            invocation = workloads.build("many-inputs", 1, tmp_path)[0]
            c = Channel.from_json(json.loads(Path(invocation.argv[1]).read_text()))
        else:
            c = rbsc(0.3) if k == 2 else Channel(("a", "b"), ("0", "1"), [[0.4, 0.6], [0.4, 0.6]])
        r = fidelity_bound_check(c, g0_construct(c))
        assert len(r.labels) == k
        assert len(r.pairs) == r.i.size == k * (k - 1) // 2
        for n, row in enumerate(r.pairs):
            assert type(row) is tuple
            assert row == (
                r.labels[r.i[n]], r.labels[r.j[n]], r.f_quantum[n], r.f_classical[n], r.slack[n], r.saturated[n],
            )


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


class TestToleranceArguments:
    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_checks_reject_non_finite_tolerance(self, tol):
        c = rbsc(0.3)
        q = g0_construct(c)
        for check in (verify_qfactorization, fidelity_bound_check):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                check(c, q, tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_opwo_and_povm_checks_reject_tolerance_outside_open_interval(self, tol):
        # A NaN tol made the chain |0>, |+>, |1> pass the OPWO test, and an
        # infinite one passed an incomplete measurement.
        chain = Ensemble.from_pure(np.array([1 / 3] * 3), (KET0, PLUS, KET1))
        incomplete = POVM((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])), ("a", "b"))
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
            is_opwo(chain, tol)
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
            incomplete.validate(tol)


class TestTwoClassSignFlips:
    def test_no_sign_flip_lowers_the_entropy(self):
        # Under the computational measurement, the real pure-state pairs that
        # reproduce a two-class channel are the square-root pair with some
        # amplitudes negated. Only the products s1_k s2_k of the signs enter
        # the overlap, so negating entries of the second root alone reaches
        # every such pair; the sum of the products is largest with no flip.
        rng = np.random.default_rng(131)
        for _ in range(6):
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
            q = g0_construct(c)
            assert q.cardinality == 2
            weights = pushforward(InputDistribution.uniform(n_in), q.partition).probs
            baseline = von_neumann_entropy(average_state(Ensemble(weights, q.signals)))
            first, second = (s.pure for s in q.signals)
            for signs in itertools.product([1.0, -1.0], repeat=n_out):
                flipped = PureState(np.array(signs) * second.amplitudes)
                ens = Ensemble.from_pure(weights, (first, flipped))
                assert von_neumann_entropy(average_state(ens)) >= baseline - 1e-12


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

    @pytest.mark.parametrize("field, value", [("re", True), ("dim", 2.9), ("dim", "2")])
    def test_matrix_fields_are_read_as_json_numbers(self, field, value):
        # re held true/false and dim 2.9 or "2" used to be cast, and the result verified.
        c = rbsc(0.3)
        payload = qfactorization_to_json(g0_construct(c))
        element = payload["povm"][0]
        if field == "re":
            element["re"] = [[value, False], [False, False]]
        else:
            element["dim"] = value
        with pytest.raises(ValueError, match=f"{field} must"):
            qfactorization_from_json(payload, c)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda doc: {}, "partition"),
            (lambda doc: [doc], "partition"),
            (lambda doc: {k: v for k, v in doc.items() if k != "states"}, "states"),
            (lambda doc: {k: v for k, v in doc.items() if k != "povm"}, "povm"),
            (lambda doc: {**doc, "povm": [1, 2]}, "dim"),
            (lambda doc: {**doc, "povm": [{k: v for k, v in e.items() if k != "re"} for e in doc["povm"]]}, "re"),
            (lambda doc: {**doc, "states": [{k: v for k, v in e.items() if k != "im"} for e in doc["states"]]}, "im"),
        ],
        ids=["empty", "list", "no-states", "no-povm", "povm-numbers", "no-re", "no-im"],
    )
    def test_malformed_document_names_the_key(self, edit, key):
        # {} was read as an unknown label 'partition'; the others escaped as KeyError or TypeError.
        c = rbsc(0.3)
        doc = edit(qfactorization_to_json(g0_construct(c)))
        with pytest.raises(ValueError, match=f"^expected a JSON object with key '{key}'$") as err:
            qfactorization_from_json(doc, c)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize(
        "edit, key, message",
        [
            (lambda doc: {**doc, "partition": [1, 2]}, "partition", "a JSON array of arrays of input labels"),
            (lambda doc: {**doc, "partition": [["0", ["2"]], ["1", "3"]]}, "partition",
             "a JSON array of arrays of input labels"),
            (lambda doc: {**doc, "partition": "ab"}, "partition", "a JSON array of arrays of input labels"),
            (lambda doc: {**doc, "states": {"a": 1, "b": 2}}, "states", "a JSON array"),
            (lambda doc: {**doc, "states": 5}, "states", "a JSON array"),
            (lambda doc: {**doc, "povm": 5}, "povm", "a JSON array"),
            (lambda doc: {**doc, "partition": [["0", math.nan], ["1", "3"]]}, "partition",
             "a JSON array of arrays of input labels"),
            (lambda doc: {**doc, "partition": [["0", "2"], [math.inf, "3"]]}, "partition",
             "a JSON array of arrays of input labels"),
            (lambda doc: {**doc, "partition": json.loads('[["0", "2"], ["1", 1e400]]')}, "partition",
             "a JSON array of arrays of input labels"),
        ],
        ids=["partition-numbers", "list-label", "partition-string", "states-object", "states-number", "povm-number",
             "nan-label", "infinity-label", "1e400-label"],
    )
    def test_malformed_value_names_the_key(self, edit, key, message):
        # These escaped as TypeError or KeyError, and "ab" was read as the unknown label 'a'.
        c = rbsc(0.3)
        doc = edit(qfactorization_to_json(g0_construct(c)))
        with pytest.raises(ValueError, match=f"^'{key}' must be {message}$") as err:
            qfactorization_from_json(doc, c)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize(
        "label, refused",
        [("x", False), (7, False), (2.5, False), (True, False), (None, False),
         ([1], True), ({"k": 1}, True), (("2",), True), (math.nan, True), (-math.inf, True)],
        ids=["str", "int", "float", "bool", "null", "list", "dict", "tuple", "nan", "-inf"],
    )
    def test_one_label_rule_for_both_readers(self, label, refused):
        # A label is a JSON scalar. A tuple passed the partition's rule, then
        # failed the lookup as AlphabetMismatch.
        channel_doc = {"inputs": ["a", label], "outputs": ["0"], "rows": [[1.0], [1.0]]}
        try:
            Channel.from_json(channel_doc)
            channel_refuses = False
        except InvalidChannel as err:
            channel_refuses = str(err) == "inputs must be an array of strings, finite numbers, booleans or nulls"
        c = rbsc(0.3)
        doc = qfactorization_to_json(g0_construct(c))
        doc["partition"][0].append(label)
        with pytest.raises(ValueError) as err:
            qfactorization_from_json(doc, c)
        partition_refuses = str(err.value) == "'partition' must be a JSON array of arrays of input labels"
        assert partition_refuses is channel_refuses is refused
        assert partition_refuses or type(err.value) is AlphabetMismatch

    def test_unknown_label_rejected(self):
        c = rbsc(0.3)
        payload = qfactorization_to_json(g0_construct(c))
        payload["partition"][0][0] = "nope"
        with pytest.raises(AlphabetMismatch):
            qfactorization_from_json(payload, c)


RBSC_Q = g0_construct(rbsc(0.3))


def _payload(edit) -> dict:
    """The JSON document of RBSC_Q after ``edit`` changed it in place."""
    doc = qfactorization_to_json(RBSC_Q)
    edit(doc)
    return doc


class TestGuards:
    """Each call breaks one precondition and gets that precondition's one message."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: PureState([]), ValueError, "amplitudes must form a nonempty vector"),
            (
                lambda: PureState([1.0, 1.0]),
                ValueError,
                "state norm 1.4142135623730951 must be finite and within 1e-10 of 1",
            ),
            (lambda: KET0.overlap(PureState([1.0, 0.0, 0.0])), DimensionMismatch, "dimensions [2, 3] must agree"),
            (
                lambda: POVM.computational("ab").outcome_probabilities(maximally_mixed(3)),
                DimensionMismatch,
                "dimensions [2, 3] must agree",
            ),
            (lambda: quantum_fidelity(maximally_mixed(3), KET0), DimensionMismatch, "dimensions [2, 3] must agree"),
            (
                lambda: Ensemble([0.5, 0.5], [maximally_mixed(3), KET0_DM]),
                DimensionMismatch,
                "dimensions [2, 3] must agree",
            ),
            (
                lambda: Ensemble([0.5, 0.6], [KET0_DM, KET1_DM]),
                ValueError,
                "weights must be finite and sum to 1, got 1.1",
            ),
            (
                lambda: DensityMatrix(np.eye(2)[None] / 2),
                ValueError,
                "a density matrix must be 2-D, got shape (1, 2, 2)",
            ),
            (
                lambda: DensityMatrix(np.ones((2, 3))),
                ValueError,
                "expected a square matrix or a stack of them, got shape (2, 3)",
            ),
            (lambda: DensityMatrix(np.eye(2)), ValueError, "trace 2.0 deviates from 1 beyond 1e-09"),
            (lambda: POVM([np.eye(2)], "ab"), ValueError, "need one label per element and at least one element"),
            (lambda: POVM([np.zeros((0, 0))], "a"), DimensionMismatch, "POVM elements must be square and same-dim"),
            (
                lambda: QFactorization("012", RBSC_Q.partition, RBSC_Q.signals, RBSC_Q.povm),
                AlphabetMismatch,
                "labels do not match partition size",
            ),
            (
                lambda: RBSC_Q._replace(signals=RBSC_Q.signals[:1]),
                ValueError,
                "need exactly one signal state per class",
            ),
            (
                lambda: RBSC_Q._replace(signals=(KET0_DM, maximally_mixed(3))),
                DimensionMismatch,
                "dimensions [2, 3] must agree",
            ),
            (
                lambda: RBSC_Q._replace(povm=POVM.computational("abc")),
                DimensionMismatch,
                "dimensions [2, 3] must agree",
            ),
            (
                lambda: Ensemble([1.0], [maximally_mixed(2)]).pure_states,
                ValueError,
                "ensemble contains states without a pure witness",
            ),
            (
                lambda: verify_qfactorization(rbsc(0.3), RBSC_Q._replace(povm=POVM.computational(("1", "0")))),
                AlphabetMismatch,
                "POVM labels differ from channel outputs",
            ),
            (
                lambda: qfactorization_from_json(_payload(lambda d: d["povm"][0].update(dim=3)), rbsc(0.3)),
                ValueError,
                "matrix payload shape (2, 2) does not match dim 3",
            ),
            (
                lambda: qfactorization_from_json(_payload(lambda d: d["states"].pop()), rbsc(0.3)),
                ValueError,
                "need exactly one state per partition class",
            ),
            (lambda: merge(Ensemble([0.5, 0.5], [maximally_mixed(2)] * 2), True, 1), ValueError,
             "merge indices must be integers, got True"),
            (lambda: merge(Ensemble([0.5, 0.5], [maximally_mixed(2)] * 2), 0, 1.0), ValueError,
             "merge indices must be integers, got 1.0"),
        ],
        ids=[
            "PureState-empty", "PureState-norm", "PureState.overlap-dim", "POVM.outcome_probabilities-dim",
            "quantum_fidelity-dim", "Ensemble-dim", "Ensemble-weights", "DensityMatrix-ndim",
            "DensityMatrix-square", "DensityMatrix-trace", "POVM-labels", "POVM-empty", "QFactorization-labels",
            "QFactorization-signals", "QFactorization-signal-dim", "QFactorization-povm-dim",
            "Ensemble.pure_states", "verify_qfactorization-povm-labels", "_matrix_from_json-shape",
            "qfactorization_from_json-states", "merge-bool-index", "merge-float-index",
        ],
    )
    def test_refuses(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
