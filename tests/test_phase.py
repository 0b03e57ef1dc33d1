import math

import numpy as np
import pytest

from chanfactor.phase import (
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
