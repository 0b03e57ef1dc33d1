import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from chanfactor import phase
from chanfactor.phase import (
    MAX_SIGN_STATES,
    DegenerateMagnitudes,
    PhasedQubitEnsemble,
    delta,
    entropy_closed_form,
    entropy_from_delta,
    grid_scan,
    optimal_phases,
    phase_gradient,
    sign_pattern_deltas,
)
from chanfactor.qfactor import average_state, von_neumann_entropy


def random_phased_ensemble(rng, n=None, zero_phases=False):
    n = n or int(rng.integers(1, 7))
    w = rng.dirichlet(np.ones(n))
    a = np.sqrt(rng.uniform(0.05, 0.95, size=n))
    b = np.sqrt(1.0 - a**2)
    phases = np.zeros(n) if zero_phases else rng.uniform(0, 2 * np.pi, size=n)
    return PhasedQubitEnsemble(w, a, b, phases)


def dense_delta_of_phases(e, phases):
    """Reference kernel on a dense (..., N) phase stack: every pair's cosine
    is taken over the whole stack, with the library's operation order."""
    w, a, b = e.weights, e.a, e.b
    coeff = w * a * b
    scratch = np.empty(np.shape(phases)[:-1])
    out = np.zeros(scratch.shape)
    for j, k in itertools.combinations(range(e.size), 2):
        cross = a[j] ** 2 * b[k] ** 2 + a[k] ** 2 * b[j] ** 2
        np.subtract(phases[..., k], phases[..., j], out=scratch)
        np.cos(scratch, out=scratch)
        scratch *= 2 * coeff[j] * coeff[k]
        out += w[j] * w[k] * cross
        out -= scratch
    return out


def dense_sign_pattern_deltas(e):
    """Reference sign scan: one stacked row of phases per pattern."""
    index = np.arange(2 ** (e.size - 1))
    patterns = np.zeros((index.size, e.size), order="F")
    for j in range(1, e.size):
        patterns[:, j] = np.pi * ((index >> (j - 1)) & 1)
    return dense_delta_of_phases(e, patterns)


def dense_grid_scan(e, resolution):
    """Reference grid scan on a meshgrid phase stack: (min_entropy,
    min_delta, argmin_phases)."""
    if e.size == 1:
        d = float(dense_delta_of_phases(e, e.phases))
        return float(entropy_from_delta(d)), d, np.zeros(1)
    axis = np.arange(resolution) * (2 * np.pi / resolution)
    mesh = np.meshgrid(*([axis] * (e.size - 1)), indexing="ij")
    phases = np.zeros(mesh[0].shape + (e.size,))
    for i, m in enumerate(mesh):
        phases[..., i + 1] = m
    deltas = dense_delta_of_phases(e, phases)
    entropies = np.asarray(entropy_from_delta(deltas))
    idx = np.unravel_index(int(np.argmin(entropies)), deltas.shape)
    return float(entropies[idx]), float(deltas[idx]), phases[idx].copy()


def finite_difference_gradient(e, h=1e-6):
    grad = np.empty(e.size)
    for i in range(e.size):
        step = np.zeros(e.size)
        step[i] = h
        grad[i] = (
            delta(e.with_phases(e.phases + step)) - delta(e.with_phases(e.phases - step))
        ) / (2 * h)
    return grad


class TestEnsembleType:
    def test_validates_magnitudes(self):
        with pytest.raises(ValueError):
            PhasedQubitEnsemble(np.array([1.0]), np.array([0.8]), np.array([0.8]), np.zeros(1))
        with pytest.raises(ValueError):
            PhasedQubitEnsemble(np.array([1.0]), np.array([-0.6]), np.array([0.8]), np.zeros(1))

    def test_rejects_nan_magnitude(self):
        # NaN failed the sign and the a^2 + b^2 comparisons.
        with pytest.raises(ValueError, match="finite"):
            PhasedQubitEnsemble(np.array([1.0]), np.array([math.nan]), np.array([0.8]), np.zeros(1))

    def test_validates_weights(self):
        with pytest.raises(ValueError):
            PhasedQubitEnsemble(np.array([0.7, 0.7]), np.array([1.0, 1.0]), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("short", ["a", "b", "phases"])
    def test_refuses_unequal_lengths(self, short):
        fields = {"weights": [0.5, 0.5], "a": [0.6, 0.8], "b": [0.8, 0.6], "phases": [0.0, 0.0]}
        fields[short] = fields[short][:1]
        with pytest.raises(ValueError, match="^weights, a, b, phases must have equal length$"):
            PhasedQubitEnsemble(**fields)

    def test_states_match_parameters(self):
        e = PhasedQubitEnsemble(
            np.array([0.5, 0.5]),
            np.array([0.6, 0.8]),
            np.array([0.8, 0.6]),
            np.array([0.0, np.pi / 3]),
        )
        s = e.states()
        assert np.allclose(s[0].amplitudes, [0.6, 0.8])
        assert np.allclose(s[1].amplitudes, [0.8, 0.6 * np.exp(1j * np.pi / 3)])


class TestDelta:
    def test_single_state_is_pure(self):
        e = PhasedQubitEnsemble(np.array([1.0]), np.array([0.6]), np.array([0.8]), np.zeros(1))
        assert abs(delta(e)) <= 1e-15

    def test_opposite_phases_reach_maximally_mixed(self):
        r = 1 / math.sqrt(2)
        e = PhasedQubitEnsemble(
            np.array([0.5, 0.5]),
            np.array([r, r]),
            np.array([r, r]),
            np.array([0.0, np.pi]),
        )
        # direct 2x2 determinant: rho = I/2 here
        assert abs(delta(e) - 0.25) <= 1e-12

    def test_matches_average_state_determinant(self):
        rng = np.random.default_rng(211)
        for _ in range(300):
            e = random_phased_ensemble(rng)
            det = np.linalg.det(average_state(e.ensemble()).matrix).real
            assert abs(delta(e) - det) <= 1e-10

    def test_range(self):
        rng = np.random.default_rng(223)
        for _ in range(100):
            d = delta(random_phased_ensemble(rng))
            assert -1e-12 <= d <= 0.25 + 1e-12


class TestEntropyClosedForm:
    def test_delta_zero_and_quarter(self):
        assert entropy_from_delta(0.0) == 0.0
        assert entropy_from_delta(0.25) == 1.0

    def test_equals_two_term_reference(self):
        # The binary-entropy stack entropy_from_delta ran before it shared
        # qfactor's entropy reduction.
        def reference(d):
            d = np.asarray(d, dtype=float)
            root = np.sqrt(np.clip(1.0 - 4.0 * d, 0.0, None))
            lam = np.stack([(1.0 + root) / 2.0, (1.0 - root) / 2.0])
            terms = np.where(lam > 0, -lam * np.log2(np.where(lam > 0, lam, 1.0)), 0.0)
            s = terms.sum(axis=0)
            return float(s) if s.ndim == 0 else s

        special = [0.0, 0.25, 5e-324, 0.25 - 1e-17, 1e-300, 0.3]
        for d in special:
            s = entropy_from_delta(d)
            assert type(s) is float and s == reference(d)
            assert math.copysign(1.0, s) == math.copysign(1.0, reference(d))
        rng = np.random.default_rng(239)
        ds = np.concatenate([special, rng.uniform(0.0, 0.25, size=994)])
        for arr in (ds, ds.reshape(20, 50), ds.reshape(50, 20).T):
            assert np.array_equal(entropy_from_delta(arr), reference(arr))
            assert np.array_equal(np.signbit(entropy_from_delta(arr)), np.signbit(reference(arr)))

    def test_matches_eigensolver(self):
        rng = np.random.default_rng(227)
        for _ in range(100):
            e = random_phased_ensemble(rng, n=5)
            s_closed = entropy_closed_form(e)
            s_eig = von_neumann_entropy(average_state(e.ensemble()))
            assert abs(s_closed - s_eig) <= 1e-9

    def test_increasing_in_delta(self):
        ds = np.linspace(0.0, 0.25, 500)
        s = entropy_from_delta(ds)
        assert np.all(np.diff(s) > 0)


class TestPhaseGradient:
    def test_zero_at_equal_phases(self):
        rng = np.random.default_rng(229)
        e = random_phased_ensemble(rng, n=4, zero_phases=True)
        assert np.abs(phase_gradient(e)).max() <= 1e-15

    def test_zero_at_pi_offsets(self):
        rng = np.random.default_rng(233)
        base = random_phased_ensemble(rng, n=5, zero_phases=True)
        for pattern in range(2**4):
            phases = np.zeros(5)
            for j in range(1, 5):
                if (pattern >> (j - 1)) & 1:
                    phases[j] = np.pi
            g = phase_gradient(base.with_phases(phases))
            assert np.abs(g).max() <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(239)
        for _ in range(50):
            e = random_phased_ensemble(rng)
            fd = finite_difference_gradient(e)
            assert np.abs(phase_gradient(e) - fd).max() <= 1e-6


class TestGlobalPhaseInvariance:
    def test_entropy_invariant_under_common_shift(self):
        rng = np.random.default_rng(241)
        for _ in range(50):
            e = random_phased_ensemble(rng)
            shift = rng.uniform(0, 2 * np.pi)
            shifted = e.with_phases(e.phases + shift)
            assert abs(delta(e) - delta(shifted)) <= 1e-12
            assert abs(entropy_closed_form(e) - entropy_closed_form(shifted)) <= 1e-12


class TestOptimalPhases:
    def test_n2_grid_scan(self):
        rng = np.random.default_rng(251)
        for _ in range(10):
            e = random_phased_ensemble(rng, n=2)
            phases, s = optimal_phases(e)
            scan = grid_scan(e, 360)
            assert np.array_equal(phases, np.zeros(2))
            assert s <= scan.min_entropy + 1e-9
            # direct check of the equal-phase determinant formula
            w, a, b = e.weights, e.a, e.b
            expected = w[0] * w[1] * (a[0] * b[1] - a[1] * b[0]) ** 2
            assert abs(delta(e.with_phases(np.zeros(2))) - expected) <= 1e-12

    def test_n3_grid_scan(self):
        rng = np.random.default_rng(257)
        for _ in range(5):
            e = random_phased_ensemble(rng, n=3)
            _, s = optimal_phases(e)
            scan = grid_scan(e, 72)
            assert s <= scan.min_entropy + 1e-9

    def test_recovers_sqrt_amplitude_entropy(self):
        # the binary-symmetric signal pair with injected phases
        p = 0.3
        a = np.array([math.sqrt(1 - p), math.sqrt(p)])
        b = np.array([math.sqrt(p), math.sqrt(1 - p)])
        e = PhasedQubitEnsemble(np.array([0.5, 0.5]), a, b, np.array([0.4, 2.2]))
        _, s = optimal_phases(e)
        lam = (1 + 2 * math.sqrt(0.21)) / 2
        expected = -(lam * math.log2(lam) + (1 - lam) * math.log2(1 - lam))
        assert abs(s - expected) <= 1e-12

    def test_degenerate_magnitudes_rejected(self):
        e = PhasedQubitEnsemble(
            np.array([0.5, 0.5]),
            np.array([1.0, 0.6]),
            np.array([0.0, 0.8]),
            np.zeros(2),
        )
        with pytest.raises(DegenerateMagnitudes):
            optimal_phases(e)


class TestSignPatterns:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_all_even_pattern_is_strict_minimum(self, n):
        rng = np.random.default_rng(263 + n)
        e = random_phased_ensemble(rng, n=n, zero_phases=True)
        deltas = sign_pattern_deltas(e)
        assert deltas.size == 2 ** (n - 1)
        assert np.argmin(deltas) == 0
        assert np.all(deltas[1:] > deltas[0] + 1e-12)

    def test_pattern_midpoints_match_direct_delta(self):
        rng = np.random.default_rng(271)
        e = random_phased_ensemble(rng, n=4, zero_phases=True)
        deltas = sign_pattern_deltas(e)
        phases = np.array([0.0, np.pi, 0.0, np.pi])
        assert abs(deltas[0b101] - delta(e.with_phases(phases))) <= 1e-14


    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_every_pattern_equals_delta_of_its_phases(self, n):
        rng = np.random.default_rng(409 + n)
        e = random_phased_ensemble(rng, n=n, zero_phases=True)
        deltas = sign_pattern_deltas(e)
        assert deltas.shape == (2 ** (n - 1),)
        for m in range(2 ** (n - 1)):
            pattern = [0.0] + [np.pi if (m >> (j - 1)) & 1 else 0.0 for j in range(1, n)]
            assert deltas[m] == delta(e.with_phases(pattern))


class TestGridScan:
    def test_single_state(self):
        e = PhasedQubitEnsemble(np.array([1.0]), np.array([0.6]), np.array([0.8]), np.zeros(1))
        scan = grid_scan(e, 8)
        assert scan.min_entropy <= 1e-12

    def test_grid_contains_equal_phase_point(self):
        rng = np.random.default_rng(277)
        e = random_phased_ensemble(rng, n=3)
        scan = grid_scan(e, 24)
        _, s_equal = optimal_phases(e)
        assert scan.min_entropy <= s_equal + 1e-12

    def test_invalid_resolution(self):
        rng = np.random.default_rng(281)
        with pytest.raises(ValueError):
            grid_scan(random_phased_ensemble(rng, n=2), 0)

    @pytest.mark.parametrize("resolution", [2, 360])
    def test_refuses_more_than_max_sign_states_before_allocating(self, monkeypatch, resolution):
        rng = np.random.default_rng(283)
        e = random_phased_ensemble(rng, n=MAX_SIGN_STATES + 1)

        def no_grid(*_):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(phase, "_delta_of_phases", no_grid)
        with pytest.raises(ValueError, match=f"at most {MAX_SIGN_STATES} states"):
            grid_scan(e, resolution)


class TestDenseReference:
    """The broadcast-column kernels equal the dense phase-stack reference
    bit for bit: same per-element operations in the same order."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sign_pattern_deltas(self, n):
        rng = np.random.default_rng(601 + n)
        for _ in range(3):
            e = random_phased_ensemble(rng, n=n)
            assert np.array_equal(sign_pattern_deltas(e), dense_sign_pattern_deltas(e))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_resolution_2_grid_is_the_sign_scan(self, n):
        rng = np.random.default_rng(641 + n)
        for _ in range(3):
            e = random_phased_ensemble(rng, n=n)
            reference = np.min(entropy_from_delta(dense_sign_pattern_deltas(e)))
            assert grid_scan(e, 2).min_entropy == reference

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("resolution", [1, 2, 7, 72, 360])
    def test_grid_scan(self, n, resolution):
        rng = np.random.default_rng(617 + 10 * n + resolution)
        e = random_phased_ensemble(rng, n=n)
        scan = grid_scan(e, resolution)
        min_entropy, min_delta, argmin_phases = dense_grid_scan(e, resolution)
        assert scan.min_entropy == min_entropy
        assert scan.min_delta == min_delta
        assert np.array_equal(scan.argmin_phases, argmin_phases)
        assert scan.argmin_phases.shape == (n,)

    def test_delta_off_grid(self):
        rng = np.random.default_rng(631)
        for _ in range(300):
            e = random_phased_ensemble(rng, n=int(rng.integers(1, 10)))
            assert delta(e) == float(dense_delta_of_phases(e, e.phases))


def full_grid_scan(e, resolution):
    """Reference reduction: the entropy at every point of ``_phase_grid``,
    then its first minimum in C order, as (min_entropy, min_delta,
    argmin_phases)."""
    axis, deltas = phase._phase_grid(e, resolution)
    entropies = np.asarray(entropy_from_delta(deltas))
    idx = np.unravel_index(int(np.argmin(entropies)), deltas.shape)
    return float(entropies[idx]), float(deltas[idx]), np.array([0.0] + [axis[i] for i in idx])


def kind_ensemble(rng, n, kind):
    """An n-state ensemble of one kind:
    - ``seeded``: random weights and magnitudes;
    - ``equal-magnitude``: random weights, one a and b for every state;
    - ``equal-weight``: uniform weights and one a and b, so symmetric points tie;
    - ``dead``: about half the states are |0> or |1>, whose phases tie exactly;
    - ``nearly-mixed``: every state within 1e-9..1e-6 of |0> or |1>, so the
      deltas sit near 1/4, where the computed entropy is monotone in delta
      only up to round-off.
    """
    if kind == "equal-weight":
        w = np.full(n, 1 / n)
    elif kind == "nearly-mixed":
        w = rng.dirichlet(np.full(n, 50.0))
    else:
        w = rng.dirichlet(np.ones(n))
    if kind in ("equal-magnitude", "equal-weight"):
        a = np.full(n, np.sqrt(rng.uniform(0.05, 0.95)))
    elif kind == "nearly-mixed":
        tiny = 10.0 ** rng.uniform(-9, -6, n)
        a = np.where(rng.random(n) < 0.5, np.sqrt(1 - tiny**2), tiny)
    else:
        a = np.sqrt(rng.uniform(0.05, 0.95, size=n))
    if kind == "dead":
        a = np.where(rng.random(n) < 0.5, (rng.random(n) < 0.5).astype(float), a)
    return PhasedQubitEnsemble(w, a, np.sqrt(1.0 - a**2), rng.uniform(0, 2 * np.pi, size=n))


KINDS = ["seeded", "equal-magnitude", "equal-weight", "dead", "nearly-mixed"]
# sha256 over delta(e) and sign_pattern_deltas(e) of the ensembles in
# test_kernels_keep_their_values, taken before the pair term of
# _delta_of_phases moved into one scratch array.
PINNED_KERNEL_DIGEST = "ba6011882a1f933da3faaef2fd6d2e46a3d91bd055bb41355fe88eb3072c46d5"


class TestDeltaReduction:
    """grid_scan evaluates the entropy only within DELTA_WINDOW of the
    smallest delta and returns exactly what the full reduction returns."""

    def assert_full_reduction(self, e, resolution):
        scan = grid_scan(e, resolution)
        min_entropy, min_delta, argmin_phases = full_grid_scan(e, resolution)
        assert scan.min_entropy == min_entropy
        assert scan.min_delta == min_delta
        assert np.array_equal(scan.argmin_phases, argmin_phases)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(1, 15))
    def test_sign_grid(self, n, kind):
        rng = np.random.default_rng([701, n, KINDS.index(kind)])
        for _ in range(3):
            self.assert_full_reduction(kind_ensemble(rng, n, kind), 2)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("resolution", [3, 4, 7, 36, 72, 360])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fine_grid(self, n, resolution, kind):
        rng = np.random.default_rng([709, n, resolution, KINDS.index(kind)])
        self.assert_full_reduction(kind_ensemble(rng, n, kind), resolution)

    @pytest.mark.parametrize("kind", KINDS)
    def test_small_chunks(self, kind, monkeypatch):
        # Chunks of 7 points put ties and near-ties on both sides of many
        # chunk boundaries; the first minimum must still win.
        monkeypatch.setattr(phase, "SCAN_CHUNK", 7)
        rng = np.random.default_rng([739, KINDS.index(kind)])
        for n, resolution in [(2, 36), (3, 7), (3, 72), (6, 2), (9, 2), (12, 2)]:
            for _ in range(5):
                self.assert_full_reduction(kind_ensemble(rng, n, kind), resolution)

    def test_many_nearly_mixed_ensembles(self):
        # Here the computed entropy of a slightly larger delta can be an ulp
        # smaller, so reducing on the smallest delta alone picks another point
        # in a few ensembles out of a thousand.
        rng = np.random.default_rng(719)
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            resolution = 2 if n > 4 else int(rng.choice([2, 3, 4, 7]))
            self.assert_full_reduction(kind_ensemble(rng, n, "nearly-mixed"), resolution)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_wide_sign_grid(self, n, kind):
        # 20 states are 524,288 sign patterns; the equal-weight and dead
        # kinds tie there in bulk.
        rng = np.random.default_rng([743, n, KINDS.index(kind)])
        self.assert_full_reduction(kind_ensemble(rng, n, kind), 2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_phase_sums_stay_within_eps(self, kind):
        # grid_scan's candidates are exact as long as every grid point has
        # |(s_0 - s) - (d - d_0)| <= 2 eps, s = |sum_j c_j e^{i phi_j}|^2 taken
        # from cosine and sine columns and d from the pair form.
        rng = np.random.default_rng([751, KINDS.index(kind)])
        for n, resolution in [(2, 360), (3, 72), (3, 720), (8, 4), (14, 2), (18, 2)]:
            e = kind_ensemble(rng, n, kind)
            c = e.weights * e.a * e.b
            axis, deltas = phase._phase_grid(e, resolution)
            d = deltas.ravel()
            re = phase._outer_sums(c[0], [c[j] * np.cos(axis) for j in range(1, n)])
            im = phase._outer_sums(0.0, [c[j] * np.sin(axis) for j in range(1, n)])
            s = re * re + im * im
            assert np.abs((s[0] - s) - (d - d[0])).max() <= 2 * phase._phase_sum_eps(c)

    def test_kernels_keep_their_values(self):
        rng = np.random.default_rng(727)
        digest = hashlib.sha256()
        for n in range(1, 13):
            for kind in KINDS:
                e = kind_ensemble(rng, n, kind)
                digest.update(np.float64(delta(e)).tobytes())
                digest.update(sign_pattern_deltas(e).tobytes())
        assert digest.hexdigest() == PINNED_KERNEL_DIGEST

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("n, resolution", [(3, 720), (18, 2)])
    def test_peak_memory_stays_near_the_delta_array(self, n, resolution, tied):
        # tracemalloc sees numpy's buffers. The delta array is 4.1 MB at
        # 3 states / 720 points and 1 MB at 18 states / resolution 2. With
        # every a_j = 1e-7 the deltas spread over about 1e-14, so every grid
        # point lies within DELTA_WINDOW of the smallest.
        e = random_phased_ensemble(np.random.default_rng(733), n=n)
        if tied:
            a = np.full(n, 1e-7)
            e = PhasedQubitEnsemble(e.weights, a, np.sqrt(1.0 - a**2), e.phases)
            deltas = phase._phase_grid(e, resolution)[1]
            assert (deltas <= deltas.min() + phase.DELTA_WINDOW).all()
        grid_scan(e, 2)
        tracemalloc.start()
        try:
            grid_scan(e, resolution)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * resolution ** (n - 1)
