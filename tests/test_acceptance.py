"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned in the assertions below.
"""

import math
import statistics
import time

import numpy as np
import pytest

from chanfactor.casestudy import (
    build_sic_family,
    entropy_purity_curve,
    family_channel,
    m8_constraint_rank,
    rho_A,
)
from chanfactor.channel import (
    causal_factorization,
    causal_partition,
    pushforward,
    rbsc,
    shannon_entropy,
)
from chanfactor.phase import (
    PhasedQubitEnsemble,
    delta,
    grid_scan,
    optimal_phases,
    phase_gradient,
    sign_pattern_deltas,
)
from chanfactor.qfactor import (
    DensityMatrix,
    Ensemble,
    PureState,
    advantage_grid,
    average_state,
    fidelity_bound_check,
    g0_construct,
    is_opwo,
    maximally_mixed,
    merge,
    verify_qfactorization,
    von_neumann_entropy,
)

from helpers import (
    opwo_ensemble,
    random_channel,
    random_full_support_dist,
    random_pure_ensemble,
)

KET0 = PureState(np.array([1.0, 0.0]))
KET1 = PureState(np.array([0.0, 1.0]))
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))


def report(n, text):
    print(f"[criterion {n:>2}] PASS - {text}")


@pytest.fixture(scope="module")
def channels_500():
    rng = np.random.default_rng(20240501)
    return [random_channel(rng, duplicate_rows=True) for _ in range(500)]


def test_criterion_01_rbsc_factorization():
    c = rbsc(0.3)
    causal_factorization(c)  # warm-up outside the timed calls
    # The median of several calls: one call on a busy host times the host, not the program.
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        f = causal_factorization(c)
        times.append(time.perf_counter() - t0)
    elapsed = statistics.median(times)
    assert f.partition.classes == ((0, 2), (1, 3))
    assert np.array_equal(f.reduced.matrix, np.array([[0.7, 0.3], [0.3, 0.7]]))
    assert elapsed < 1e-3
    report(1, f"partition {{0,2}},{{1,3}}, exact reduced rows, median {elapsed*1e6:.0f} us of 15 calls")


def test_criterion_02_pure_state_merging_values():
    ens = Ensemble.from_pure(np.array([3 / 6, 2 / 6, 1 / 6]), (KET0, KET1, PLUS))
    s_base = von_neumann_entropy(average_state(ens))
    b_to_c, c_to_b = merge(ens, 1, 2)
    s_bc = von_neumann_entropy(average_state(b_to_c))
    s_cb = von_neumann_entropy(average_state(c_to_b))
    assert abs(s_base - 0.9595) <= 5e-4
    assert abs(s_bc - 0.6009) <= 5e-4
    assert abs(s_cb - 1.0000) <= 5e-4
    report(2, f"S = {s_base:.4f}, B->C = {s_bc:.4f}, C->B = {s_cb:.4f}")


def test_criterion_03_mixed_merging_values():
    mm = maximally_mixed(2)
    ens = Ensemble(np.array([1 / 3, 1 / 3, 1 / 3]), (mm, mm, DensityMatrix.from_pure(KET0)))
    s_base = von_neumann_entropy(average_state(ens))
    into_pure, into_mixed = merge(ens, 1, 2)
    s_pure = von_neumann_entropy(average_state(into_pure))
    assert abs(s_base - (math.log2(3) - 2 / 3)) <= 1e-3
    assert abs(s_pure - (math.log2(6) - 5 / 6 * math.log2(5))) <= 1e-3
    assert abs(von_neumann_entropy(average_state(into_mixed)) - 1.0) <= 1e-3
    report(3, f"S = {s_base:.4f} before, {s_pure:.4f} after merging into the near-pure state")


def test_criterion_04_advantage_heatmap():
    axis = np.linspace(0.0, 1.0, 101)
    t0 = time.perf_counter()
    grid = advantage_grid(axis, axis)
    elapsed = time.perf_counter() - t0
    assert grid.min() >= -1e-9
    for edge in (grid[0, :], grid[-1, :], grid[:, 0], grid[:, -1]):
        assert np.abs(edge).max() <= 1e-9
    peak = np.unravel_index(np.argmax(grid), grid.shape)
    assert peak == (50, 50)
    assert abs(grid[50, 50] - 1.0) <= 1e-9
    assert elapsed < 5.0
    report(4, f"101x101 grid nonnegative, zero edges, max {grid.max():.9f} at (0.5, 0.5), {elapsed:.2f} s")


def test_criterion_05_g0_reproduces_channels(channels_500):
    for c in channels_500:
        q = g0_construct(c)
        assert verify_qfactorization(c, q, 1e-12)
        assert q.cardinality == causal_partition(c).n_classes
    report(5, "500 seeded channels verified at 1e-12 with minimal signal count")


def test_criterion_06_fidelity_bound_saturated(channels_500):
    pairs = 0
    for c in channels_500:
        rep = fidelity_bound_check(c, g0_construct(c), tol=1e-9)
        assert rep.ok
        assert rep.all_saturated
        pairs += len(rep.pairs)
    report(6, f"F_Q <= F_C + 1e-9 and saturated on all {pairs} signal pairs")


def test_criterion_07_entropy_chain(channels_500):
    rng = np.random.default_rng(20240502)
    for c in channels_500:
        d = random_full_support_dist(rng, c.n_inputs)
        q = g0_construct(c)
        w = pushforward(d, q.partition)
        s = von_neumann_entropy(average_state(Ensemble(w.probs, q.signals)))
        hz = shannon_entropy(w)
        hx = shannon_entropy(d)
        assert s <= hz + 1e-9
        assert hz <= hx + 1e-9
    report(7, "S(rho) <= H(Z) <= H(X) within 1e-9 on 500 channel/distribution pairs")


def test_criterion_08_quantum_merging_lemma():
    rng = np.random.default_rng(20240503)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 5))
        ens = random_pure_ensemble(rng, n, d)
        j, k = map(int, rng.choice(n, size=2, replace=False))
        base = von_neumann_entropy(average_state(ens))
        jk, kj = merge(ens, j, k)
        s_jk = von_neumann_entropy(average_state(jk))
        s_kj = von_neumann_entropy(average_state(kj))
        assert min(s_jk, s_kj) <= base + 1e-9

    def max_merge(ens, j, k):
        jk, kj = merge(ens, j, k)
        return max(
            von_neumann_entropy(average_state(jk)),
            von_neumann_entropy(average_state(kj)),
        )

    trio = Ensemble.from_pure(np.array([3 / 6, 2 / 6, 1 / 6]), (KET0, KET1, PLUS))
    greater = max_merge(trio, 1, 2) - von_neumann_entropy(average_state(trio))
    dup = Ensemble.from_pure(np.array([0.5, 0.25, 0.25]), (PLUS, KET1, KET1))
    equal = max_merge(dup, 1, 2) - von_neumann_entropy(average_state(dup))
    flat = Ensemble.from_pure(np.array([0.5, 0.5]), (KET0, KET1))
    less = max_merge(flat, 0, 1) - von_neumann_entropy(average_state(flat))
    assert greater > 1e-6
    assert abs(equal) <= 1e-12
    assert less < -1e-6
    report(8, "min-direction bound held on 200 ensembles; max direction spans >, =, <")


def test_criterion_09_opwo_overlap_sweep():
    for seed in range(50):
        rng = np.random.default_rng(40000 + seed)
        n_pairs = int(rng.integers(1, 4))
        n_singles = int(rng.integers(0, 3))
        base = rng.uniform(0.05, 0.5, size=n_pairs)
        target = int(rng.integers(0, n_pairs))
        entropies = []
        for c in np.linspace(base[target], 0.98, 20):
            overlaps = base.copy()
            overlaps[target] = c
            ens, _ = opwo_ensemble(np.random.default_rng(40000 + seed), n_pairs, n_singles, overlaps)
            assert is_opwo(ens)
            entropies.append(von_neumann_entropy(average_state(ens)))
        assert np.all(np.diff(entropies) < 0)
    report(9, "entropy strictly decreased at all 20 sweep steps for 50 OPWO ensembles")


def test_criterion_10_phase_theorem():
    rng = np.random.default_rng(20240504)

    def random_ensemble(n=None, zero_phases=False):
        n = n or int(rng.integers(1, 7))
        w = rng.dirichlet(np.ones(n))
        a = np.sqrt(rng.uniform(0.05, 0.95, size=n))
        b = np.sqrt(1.0 - a**2)
        phases = np.zeros(n) if zero_phases else rng.uniform(0, 2 * np.pi, size=n)
        return PhasedQubitEnsemble(w, a, b, phases)

    for _ in range(500):
        e = random_ensemble()
        det = np.linalg.det(average_state(e.ensemble()).matrix).real
        assert abs(delta(e) - det) <= 1e-10

    h = 1e-6
    for _ in range(100):
        e = random_ensemble()
        grad = phase_gradient(e)
        for i in range(e.size):
            step = np.zeros(e.size)
            step[i] = h
            fd = (delta(e.with_phases(e.phases + step)) - delta(e.with_phases(e.phases - step))) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-6

    for _ in range(5):
        e2 = random_ensemble(n=2)
        _, s2 = optimal_phases(e2)
        assert s2 <= grid_scan(e2, 360).min_entropy + 1e-9
        e3 = random_ensemble(n=3)
        _, s3 = optimal_phases(e3)
        assert s3 <= grid_scan(e3, 72).min_entropy + 1e-9

    for n in range(2, 9):
        e = random_ensemble(n=n, zero_phases=True)
        deltas = sign_pattern_deltas(e)
        assert int(np.argmin(deltas)) == 0
        assert np.all(deltas[1:] > deltas[0])
    report(10, "delta = det (500), gradient = finite differences, grids and {0,pi} patterns minimal at equal phases")


def test_criterion_11_case_study():
    family = build_sic_family()
    total = sum(family.povm_m8.elements)
    assert np.abs(total - np.eye(3)).max() <= 1e-12

    row_b = np.array([0, 0, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6])
    for t in np.linspace(-0.5, 1.0, 151):
        c = family_channel(family, float(t))
        assert np.abs(c.matrix[0] - 1 / 8).max() <= 1e-12
        assert np.abs(c.matrix[1] - row_b).max() <= 1e-12

    curve = entropy_purity_curve(family, 151)
    s = curve.entropies
    assert s[1] > s[0] and s[-2] > s[-1]
    gmin = curve.global_min()
    h_quarter = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert gmin.t == -0.5
    assert abs(gmin.entropy_rho_t - h_quarter) <= 1e-9
    assert gmin.purity_rho_t < 1.0
    boundary = rho_A(-0.5)
    assert abs(np.linalg.eigvalsh(boundary.matrix).min()) <= 1e-10
    assert np.vdot(boundary.matrix, boundary.matrix).real < 1.0

    rank, _ = m8_constraint_rank(family)
    assert rank == 7
    report(
        11,
        f"M8 complete, channel t-invariant, global min S = {gmin.entropy_rho_t:.4f} at t = -0.5 (mixed), rank 7",
    )
