import numpy as np
import pytest

from chanfactor.linalg import purity


class TestPurity:
    def test_pure_projector(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        assert abs(purity(np.outer(v, v.conj())) - 1.0) <= 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(np.eye(3) / 3) - 1 / 3) <= 1e-12

    def test_two_level_mixture(self):
        m = np.diag([0.0, 1 / 8, 7 / 8])
        assert abs(purity(m) - 50 / 64) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = b.conj().T @ b
            m = m / m.trace().real
            assert 1 / dim - 1e-12 <= purity(m) <= 1 + 1e-12

    def test_stack_matches_vdot_bit_for_bit(self):
        rng = np.random.default_rng(37)
        for dim in (1, 2, 3, 4, 8, 16):
            x = rng.normal(size=(200, dim, dim)) + 1j * rng.normal(size=(200, dim, dim))
            h = (x + x.conj().swapaxes(-1, -2)) / 2
            reference = np.array([np.vdot(m, m).real for m in h])
            assert np.array_equal(purity(h), reference)
            assert np.array_equal(purity(h.reshape(20, 10, dim, dim)), reference.reshape(20, 10))
            assert np.array_equal(purity(h[::3]), reference[::3])
            assert [purity(m) for m in h[:20]] == reference[:20].tolist()
            assert type(purity(h[0])) is float

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (0, 0), (5, 0, 0)])
    def test_rejects_what_is_not_a_square_matrix_or_a_stack(self, shape):
        with pytest.raises(ValueError, match="square"):
            purity(np.zeros(shape))

