import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanfactor import linalg
from chanfactor.channel import (
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
from chanfactor.linalg import ROW_TOL

from helpers import (
    brute_force_row_classes,
    brute_force_violations,
    coarsen,
    jittered_channel,
    near_tie_chain,
    random_channel,
    random_full_support_dist,
    random_partition,
)


class TestChannelType:
    def test_valid_construction(self):
        c = Channel(("a", "b"), ("0", "1"), [[0.25, 0.75], [1.0, 0.0]])
        assert c.n_inputs == 2 and c.n_outputs == 2
        assert np.allclose(c.matrix[0], [0.25, 0.75])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(InvalidChannel):
            Channel(("a",), ("0", "1"), [[0.6, 0.6]])

    def test_rejects_negative_entry(self):
        with pytest.raises(InvalidChannel):
            Channel(("a",), ("0", "1"), [[1.2, -0.2]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidChannel):
            Channel(("a", "b"), ("0",), [[1.0]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidChannel):
            Channel(("a", "a"), ("0",), [[1.0], [1.0]])

    @pytest.mark.parametrize("labels, message", [
        ([1, True], "inputs 0 and 1 share a label: 1 == True in Python"),
        (["x", 1, 1.0], "inputs 1 and 2 share a label: 1 == 1.0 in Python"),
        (["a", "a"], "inputs 0 and 1 share a label: 'a' == 'a' in Python"),
    ], ids=["1-true", "1-1.0", "a-a"])
    def test_duplicate_labels_are_named(self, labels, message):
        # JSON's 1, 1.0 and true are distinct, but Python compares them equal,
        # so a channel keyed by its labels cannot tell them apart.
        with pytest.raises(InvalidChannel, match=f"^{re.escape(message)}$"):
            Channel.from_json({"inputs": labels, "outputs": ["0"], "rows": [[1.0]] * len(labels)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(InvalidChannel, match="finite"):
            Channel(("a", "b"), ("0", "1"), [[bad, 0.5], [0.5, 0.5]])

    def test_matrix_immutable(self):
        c = rbsc(0.3)
        with pytest.raises(ValueError):
            c.matrix[0, 0] = 0.5

    def test_json_round_trip(self):
        c = rbsc(0.25)
        again = Channel.from_json(json.loads(json.dumps(c.to_json())))
        assert again.inputs == c.inputs
        assert again.outputs == c.outputs
        assert np.array_equal(again.matrix, c.matrix)

    def test_from_json_missing_key(self):
        with pytest.raises(InvalidChannel):
            Channel.from_json({"inputs": ["a"], "rows": [[1.0]]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"inputs": [{"a": 1}, "b"], "outputs": ["0"], "rows": [[1.0], [1.0]]},
            {"inputs": ["a"], "outputs": [["0"]], "rows": [[1.0]]},
            {"inputs": "ab", "outputs": ["0"], "rows": [[1.0], [1.0]]},
            {"inputs": ["a"], "outputs": ["0", "1"], "rows": [["0.5", "0.5"]]},
            {"inputs": ["a"], "outputs": ["0", "1"], "rows": [[{"p": 1}, 0.0]]},
            {"inputs": ["a", "b"], "outputs": ["0", "1"], "rows": [[0.5, 0.5], [1.0]]},
            {"inputs": ["a", "b"], "outputs": ["0", "1"], "rows": [[True, 0.0], [0.5, 0.5]]},
        ],
        ids=[
            "dict-label",
            "list-label",
            "string-alphabet",
            "string-entry",
            "dict-entry",
            "ragged",
            "bool-among-numbers",
        ],
    )
    def test_from_json_rejects_non_json_scalars(self, doc):
        with pytest.raises(InvalidChannel):
            Channel.from_json(doc)

    def test_row_tol_lives_in_linalg(self):
        assert ROW_TOL is linalg.ROW_TOL == 1e-9


class TestCausalPartition:
    def test_rbsc(self):
        part = causal_partition(rbsc(0.3))
        assert part.classes == ((0, 2), (1, 3))

    def test_all_rows_identical(self):
        c = Channel(("a", "b", "c"), ("0", "1"), [[0.5, 0.5]] * 3)
        assert causal_partition(c).classes == ((0, 1, 2),)

    def test_permutation_channel(self):
        c = Channel(("a", "b", "c"), ("0", "1", "2"), np.eye(3)[[2, 0, 1]])
        assert causal_partition(c).classes == ((0,), (1,), (2,))

    def test_duplicated_rows_match_brute_force(self):
        rng = np.random.default_rng(5)
        base = rng.dirichlet(np.ones(4), size=3)
        rows = base[[0, 1, 2, 0, 1, 2]]
        c = Channel(tuple("abcdef"), tuple("wxyz"), rows)
        part = causal_partition(c)
        assert part.n_classes == 3
        assert list(part.classes) == brute_force_row_classes(c.matrix)

    def test_matches_brute_force_on_random_channels(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            c = random_channel(rng)
            assert list(causal_partition(c).classes) == brute_force_row_classes(c.matrix)

    @pytest.mark.parametrize("jitter", [0.25, 0.5, 1.0, 2.0])
    def test_matches_brute_force_on_jittered_channels(self, jitter):
        # 125 channels per level, 500 in all; members sit at, inside and
        # outside the tolerance boundary of their class row.
        rng = np.random.default_rng([23, int(jitter * 4)])
        for _ in range(125):
            c = jittered_channel(
                rng,
                int(rng.integers(1, 80)),
                int(rng.integers(1, 8)),
                int(rng.integers(1, 10)),
                jitter * 1e-9,
            )
            assert list(causal_partition(c).classes) == brute_force_row_classes(c.matrix)

    def test_matches_brute_force_on_near_tie_chains(self):
        # Neighbours 0.6 tol apart: each row ties with both neighbours but
        # not with rows two steps away, so only first-match order decides.
        rng = np.random.default_rng(29)
        split = 0
        for _ in range(100):
            c = near_tie_chain(rng, int(rng.integers(2, 40)), int(rng.integers(2, 9)), 0.6e-9)
            expected = brute_force_row_classes(c.matrix)
            assert list(causal_partition(c).classes) == expected
            split += len(expected) > 1
        assert split >= 50

    @pytest.mark.parametrize("n_outputs,tol", [(2, 1e-10), (5, 1e-12), (9, 1e-12)])
    def test_matches_brute_force_on_common_mode_offsets(self, n_outputs, tol):
        # Offsets of +-tol/2 on every entry put row pairs tol apart in
        # max-norm up to round-off, on the boundary of the <= tol test.
        rng = np.random.default_rng([67, n_outputs])
        split = 0
        for _ in range(40):
            base = 0.5 * rng.dirichlet(np.ones(n_outputs)) + 0.5 / n_outputs
            shift = rng.choice([-1.0, 1.0, 0.0], size=(40, 1))
            shift[rng.random((40, 1)) < 0.3] *= rng.random()
            c = Channel(tuple(range(40)), tuple(range(n_outputs)), base + shift * tol / 2)
            expected = brute_force_row_classes(c.matrix, tol)
            assert list(causal_partition(c, tol).classes) == expected
            split += len(expected) > 1
        assert split >= 5

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40),
        st.sampled_from([0.3, 0.5, 0.6, 1.0]),
    )
    def test_matches_brute_force_on_lattice_rows(self, offsets, step):
        # Rows on a lattice of zero-sum offsets a * u + b * v, spaced a
        # fraction of tol apart in two directions, so ties, near-ties and
        # exact duplicates all occur.
        base = np.array([0.4, 0.3, 0.2, 0.1])
        u, v = np.array([1.0, -1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0, 1.0])
        rows = [base + (a * u + b * v) * step * 1e-9 for a, b in offsets]
        c = Channel(tuple(range(len(rows))), tuple(range(4)), rows)
        assert list(causal_partition(c).classes) == brute_force_row_classes(c.matrix)

    @staticmethod
    def two_valued_columns(rng):
        # Rows uniform on 4 of 16 outputs: every column holds only 0 and
        # 0.25, so the key column keeps a quarter or three quarters of the
        # rows as candidates.
        support = [rng.choice(16, size=4, replace=False) for _ in range(60)]
        rows = np.zeros((300, 16))
        for x, k in enumerate(rng.integers(0, 60, size=300)):
            rows[x, support[k]] = 0.25
        return rows, ROW_TOL

    @staticmethod
    def equal_key_near_elsewhere(rng):
        # Groups share their value in the widest column 0; inside a group the
        # rows are offset by 0, 0.5, 1, 2 or 2.5 tol on the zero-sum pair (1, 2).
        tol = ROW_TOL
        key = rng.permutation(np.linspace(0.1, 0.6, 8))[rng.integers(0, 8, size=200)]
        step = rng.choice([0.0, 0.5, 1.0, 2.0, 2.5], size=200) * tol
        rest = (1.0 - key) / 3
        return np.column_stack([key, rest + step, rest - step, rest]), tol

    @staticmethod
    def key_gaps_of_exactly_tol(rng):
        # With a power-of-two tol and dyadic entries every gap is exact: key
        # gaps of exactly tol, and the same rows at 0, tol or 2 tol in column 1.
        tol = 2.0**-30
        a = rng.integers(0, 4, size=120)
        b = rng.integers(0, 3, size=120)
        key = 0.5 + a * tol
        mid = 0.25 - a * tol + b * tol
        rows = np.column_stack([key, mid, 1.0 - key - mid])
        rows[:10, 0] -= 0.25  # a wide key column
        rows[:10, 2] += 0.25
        return rows, tol

    @staticmethod
    def identical_rows(rng):
        return np.tile(rng.dirichlet(np.ones(5)), (50, 1)), ROW_TOL

    @pytest.mark.parametrize(
        "build", ["two_valued_columns", "equal_key_near_elsewhere", "key_gaps_of_exactly_tol", "identical_rows"]
    )
    def test_matches_brute_force_on_key_column_edge_cases(self, build):
        # The sweep first keeps the rows within tol of the founder in the
        # column of widest range; these cases load that prefilter.
        rng = np.random.default_rng(79)
        rows, tol = getattr(self, build)(rng)
        assert np.argmax(np.ptp(rows, axis=0)) == 0  # the key column
        c = Channel(tuple(range(len(rows))), tuple(range(rows.shape[1])), rows)
        expected = brute_force_row_classes(c.matrix, tol)
        assert list(causal_partition(c, tol).classes) == expected
        if build != "identical_rows":
            assert 1 < len(expected) < len(rows)

    def test_matches_brute_force_on_large_channel(self):
        rng = np.random.default_rng(37)
        c = jittered_channel(rng, 5000, 50, 8, 0.5e-9)
        assert list(causal_partition(c).classes) == brute_force_row_classes(c.matrix)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
    def test_rejects_tolerance_outside_open_interval(self, tol):
        # A NaN tolerance used to make every mask entry False and spin the sweep.
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
            causal_partition(rbsc(0.3), tol)

    def test_custom_tol_matches_brute_force(self):
        rng = np.random.default_rng(53)
        for tol in (1e-14, 1e-6, 0.05):
            c = jittered_channel(rng, 300, 20, 5, tol)
            assert list(causal_partition(c, tol).classes) == brute_force_row_classes(c.matrix, tol)

    def test_equivalence_relation_on_exact_duplicates(self):
        # With planted exact duplicates row-equality is transitive, so the
        # scan must reproduce the true equivalence classes.
        rng = np.random.default_rng(19)
        for _ in range(50):
            c = random_channel(rng, duplicate_rows=True)
            part = causal_partition(c)
            for cl in part.classes:
                for x in cl:
                    assert np.abs(c.matrix[x] - c.matrix[cl[0]]).max() <= 1e-9
            # distinct classes have visibly different rows
            reps = part.representatives
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    assert np.abs(c.matrix[reps[i]] - c.matrix[reps[j]]).max() > 1e-9


class TestCausalFactorization:
    def test_rbsc_reduced_channel_exact(self):
        f = causal_factorization(rbsc(0.3))
        assert np.array_equal(f.reduced.matrix, np.array([[0.7, 0.3], [0.3, 0.7]]))
        assert f.reduced.inputs == ("0", "1")

    def test_already_causal_channel(self):
        rng = np.random.default_rng(3)
        rows = rng.dirichlet(np.ones(3), size=4)
        c = Channel(tuple("abcd"), tuple("xyz"), rows)
        f = causal_factorization(c)
        assert f.partition.classes == tuple((i,) for i in range(4))
        assert np.array_equal(f.reduced.matrix, c.matrix)

    def test_minimal_cardinality(self):
        # No valid factorization can have fewer classes than the causal one.
        rng = np.random.default_rng(29)
        for _ in range(50):
            c = random_channel(rng, duplicate_rows=True)
            causal = causal_partition(c)
            if causal.n_classes < 2:
                continue
            smaller = coarsen(rng, causal)
            f = factorization_from_partition(c, smaller)
            assert not verify_factorization(c, f)

    def test_degenerate_channels(self):
        one_in = Channel(("a",), ("0", "1"), [[0.4, 0.6]])
        f = causal_factorization(one_in)
        assert f.partition.classes == ((0,),)
        one_out = Channel(("a", "b"), ("0",), [[1.0], [1.0]])
        f = causal_factorization(one_out)
        assert f.partition.n_classes == 1


class TestShannonEntropy:
    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == 1.0

    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_three_outcomes_direct_oracle(self):
        p = [3 / 6, 2 / 6, 1 / 6]
        oracle = -sum(x * math.log2(x) for x in p)
        assert abs(shannon_entropy(p) - oracle) <= 1e-12
        assert abs(shannon_entropy(p) - 1.4591) <= 5e-5

    def test_accepts_input_distribution(self):
        d = InputDistribution(np.array([0.25, 0.75]))
        assert shannon_entropy(d) == shannon_entropy([0.25, 0.75])


class TestPushforward:
    def test_uniform_rbsc(self):
        part = causal_partition(rbsc(0.3))
        out = pushforward([0.25] * 4, part)
        assert np.array_equal(out.probs, [0.5, 0.5])

    def test_alpha_parameterized(self):
        part = causal_partition(rbsc(0.3))
        for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
            d = [alpha / 2, (1 - alpha) / 2, alpha / 2, (1 - alpha) / 2]
            out = pushforward(d, part)
            assert np.array_equal(out.probs, [alpha, 1 - alpha])

    def test_singleton_identity(self):
        d = InputDistribution(np.array([0.1, 0.2, 0.7]))
        out = pushforward(d, Partition(((0,), (1,), (2,)), 3))
        assert np.array_equal(out.probs, d.probs)

    def test_size_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            pushforward([0.5, 0.5], Partition(((0,), (1,), (2,)), 3))


class TestClassicalFidelity:
    def test_identical(self):
        assert classical_fidelity([0.2, 0.8], [0.2, 0.8]) == 1.0

    def test_disjoint(self):
        assert classical_fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_binary_symmetric_rows(self):
        f = classical_fidelity([0.7, 0.3], [0.3, 0.7])
        assert abs(f - 2 * math.sqrt(0.21)) <= 1e-12

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.dirichlet(np.ones(n))
            b = rng.dirichlet(np.ones(n))
            f = classical_fidelity(a, b)
            assert 0.0 <= f <= 1.0 + 1e-12
            assert abs(f - classical_fidelity(b, a)) <= 1e-12

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            classical_fidelity([1.0], [0.5, 0.5])


class TestVerifyFactorization:
    def test_causal_output_verifies(self):
        c = rbsc(0.3)
        assert verify_factorization(c, causal_factorization(c))

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # Both used to report this wrong factorization as verified.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_factorization(rbsc(0.3), causal_factorization(rbsc(0.0)), tol)

    def test_wrong_merge_reports_violation(self):
        c = rbsc(0.3)
        bad = factorization_from_partition(c, Partition(((0, 1), (2, 3)), 4))
        check = verify_factorization(c, bad)
        assert not check
        deltas = {(x, y): d for x, y, d in check.violations}
        assert abs(deltas[("1", "0")] - 0.4) <= 1e-12

    def test_wrong_merges_match_reference_violations(self):
        rng = np.random.default_rng(59)
        checked = 0
        for _ in range(60):
            c = random_channel(rng, duplicate_rows=True)
            causal = causal_partition(c)
            if causal.n_classes < 2:
                continue
            p = coarsen(rng, causal)
            f = factorization_from_partition(c, p)
            check = verify_factorization(c, f)
            expected = brute_force_violations(c, p, f.reduced.matrix, 1e-9)
            assert expected and not check
            assert list(check.violations) == expected
            checked += 1
        assert checked >= 20

    def test_any_refinement_verifies(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            c = random_channel(rng, duplicate_rows=True)
            causal = causal_partition(c)
            refinement = random_refinement(rng, causal)
            f = factorization_from_partition(c, refinement)
            assert verify_factorization(c, f)
            assert refinement.refines(causal)

    def test_refinement_property_of_valid_factorizations(self):
        # Every partition whose factorization verifies refines the causal one.
        rng = np.random.default_rng(43)
        for _ in range(100):
            c = random_channel(rng, duplicate_rows=True)
            p = random_partition(rng, c.n_inputs)
            f = factorization_from_partition(c, p)
            if verify_factorization(c, f):
                assert p.refines(causal_partition(c))


def random_refinement(rng, p):
    """Split each class of ``p`` into random nonempty chunks."""
    classes = []
    for cl in p.classes:
        members = list(cl)
        rng.shuffle(members)
        n_chunks = int(rng.integers(1, len(members) + 1))
        cuts = sorted(rng.choice(range(1, len(members)), size=n_chunks - 1, replace=False)) if n_chunks > 1 else []
        prev = 0
        for cut in list(cuts) + [len(members)]:
            classes.append(tuple(members[prev:cut]))
            prev = cut
    return Partition(tuple(classes), p.size)


class TestEntropyMonotonicity:
    def test_strict_decrease_under_coarsening(self):
        rng = np.random.default_rng(47)
        done = 0
        while done < 120:
            n = int(rng.integers(2, 10))
            d = random_full_support_dist(rng, n)
            p2 = random_partition(rng, n)
            p1 = random_refinement(rng, p2)
            if p1.classes == p2.classes:
                continue
            h1 = shannon_entropy(pushforward(d, p1))
            h2 = shannon_entropy(pushforward(d, p2))
            assert h1 > h2
            done += 1

    def test_causal_pushforward_never_above_input_entropy(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            c = random_channel(rng, duplicate_rows=True)
            d = random_full_support_dist(rng, c.n_inputs)
            part = causal_partition(c)
            hx = shannon_entropy(d)
            hz = shannon_entropy(pushforward(d, part))
            assert hz <= hx + 1e-12
            if part.n_classes == c.n_inputs:
                assert abs(hz - hx) <= 1e-12
            else:
                assert hz < hx


class TestPartitionType:
    def test_canonical_order(self):
        p = Partition(((3, 1), (0, 2)), 4)
        assert p.classes == ((0, 2), (1, 3))
        assert p.representatives == (0, 1)

    def test_rejects_non_cover(self):
        with pytest.raises(ValueError):
            Partition(((0, 1),), 3)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition(((0, 1), (1, 2)), 3)

    def test_numpy_integers_are_stored_as_int(self):
        p = Partition(((np.int64(1),), (np.int32(0), np.uint8(2))), np.int64(3))
        assert p == (((0, 2), (1,)), 3)
        assert all(type(x) is int for x in (p.size, *p.classes[0], *p.classes[1]))

    def test_refines(self):
        fine = Partition(((0,), (1,), (2, 3)), 4)
        coarse = Partition(((0, 1), (2, 3)), 4)
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert fine.refines(fine)

    def test_partitions_of_different_sizes_do_not_refine(self):
        small, large = Partition(((0,),), 1), Partition(((0, 1),), 2)
        assert not small.refines(large)
        assert not large.refines(small)


class TestInputDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            InputDistribution(np.array([0.5, 0.6]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            InputDistribution(np.array([bad, 0.5]))


RBSC_CLASSES = Partition(((0, 2), (1, 3)), 4)


class TestGuards:
    """Each call breaks one precondition and gets that precondition's one message."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: Channel(("a",), ("0",), [1.0]), InvalidChannel, "matrix must be 2-D, got ndim=1"),
            (lambda: Channel((), ("0",), np.zeros((0, 1))), InvalidChannel, "alphabets must be nonempty"),
            (lambda: rbsc(1.5), InvalidChannel, "p must lie in [0, 1], got 1.5"),
            (lambda: Partition(((), (0,)), 1), ValueError, "partition classes must be nonempty"),
            (lambda: Partition(((0.0, 1),), 2), ValueError, "partition members and size must be integers, got 0.0"),
            (lambda: Partition(((0, True),), 2), ValueError, "partition members and size must be integers, got True"),
            (lambda: Partition((("a", 0),), 2), ValueError, "partition members and size must be integers, got 'a'"),
            (lambda: Partition(((0,),), 1.0), ValueError, "partition members and size must be integers, got 1.0"),
            (lambda: InputDistribution.uniform(0), ValueError, "uniform distribution sizes must be positive, got 0"),
            (lambda: InputDistribution.uniform(-1), ValueError, "uniform distribution sizes must be positive, got -1"),
            (lambda: InputDistribution.uniform(2.0), ValueError, "uniform distribution sizes must be integers, got 2.0"),
            (lambda: InputDistribution.uniform(True), ValueError, "uniform distribution sizes must be integers, got True"),
            (
                lambda: factorization_from_partition(rbsc(0.3), Partition(((0, 1),), 2)),
                AlphabetMismatch,
                "partition covers 2 elements, channel has 4 inputs",
            ),
            (
                lambda: verify_factorization(
                    rbsc(0.3), Factorization(Partition(((0, 1),), 2), Channel(("0",), ("0", "1"), [[0.7, 0.3]]))
                ),
                AlphabetMismatch,
                "partition covers 2 elements, channel has 4 inputs",
            ),
            (
                lambda: verify_factorization(
                    rbsc(0.3), Factorization(RBSC_CLASSES, Channel(("0", "1"), ("a", "b"), [[0.7, 0.3], [0.3, 0.7]]))
                ),
                AlphabetMismatch,
                "reduced channel output alphabet differs",
            ),
            (
                lambda: verify_factorization(
                    rbsc(0.3), Factorization(RBSC_CLASSES, Channel(("0",), ("0", "1"), [[0.7, 0.3]]))
                ),
                AlphabetMismatch,
                "reduced channel must have one row per class",
            ),
        ],
        ids=[
            "Channel-ndim", "Channel-empty-alphabet", "rbsc-p", "Partition-empty-class", "Partition-float-member",
            "Partition-bool-member", "Partition-str-member", "Partition-float-size", "InputDistribution.uniform-0",
            "InputDistribution.uniform-negative", "InputDistribution.uniform-float", "InputDistribution.uniform-bool",
            "factorization_from_partition-size", "verify_factorization-size", "verify_factorization-outputs",
            "verify_factorization-rows",
        ],
    )
    def test_refuses(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
