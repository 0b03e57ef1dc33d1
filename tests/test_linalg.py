import numpy as np
import pytest

from chanfactor.linalg import (
    HermitianEigen,
    NotHermitian,
    NotPSD,
    eig_hermitian,
    psd_sqrt,
    purity,
)

from helpers import random_unitary


def two_by_two_eigenvalues(m):
    """Closed-form roots of the 2x2 characteristic polynomial (oracle)."""
    a, b = m[0, 0].real, m[1, 1].real
    off = abs(m[0, 1])
    mid = (a + b) / 2
    rad = np.sqrt(((a - b) / 2) ** 2 + off**2)
    return np.array([mid + rad, mid - rad])


class TestEigHermitian:
    def test_identity(self):
        eig = eig_hermitian(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1, 1, 1], atol=1e-12)

    def test_already_diagonal(self):
        eig = eig_hermitian(np.diag([0.7, 0.3]))
        assert np.allclose(eig.eigenvalues, [0.7, 0.3], atol=1e-12)

    def test_projector_mixture_closed_form(self):
        # (1/2)(|0><0| + |+><+|) has eigenvalues cos^2(pi/8), sin^2(pi/8)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        m = 0.5 * np.diag([1.0, 0.0]) + 0.5 * np.outer(plus, plus)
        expected = two_by_two_eigenvalues(m)
        assert np.allclose(expected, [np.cos(np.pi / 8) ** 2, np.sin(np.pi / 8) ** 2], atol=1e-12)
        eig = eig_hermitian(m)
        assert np.allclose(eig.eigenvalues, expected, atol=1e-12)

    def test_descending_and_orthonormal(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 9):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = (a + a.conj().T) / 2
            m = m / max(np.abs(m).max(), 1.0)
            eig = eig_hermitian(m)
            assert np.all(np.diff(eig.eigenvalues) <= 1e-14)
            v = eig.eigenvectors
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10
            assert np.abs(eig.reconstruct() - m).max() <= 1e-10

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = (a + a.conj().T) / 2
            m = m / max(np.abs(m).max(), 1.0)
            eig = eig_hermitian(m)
            assert abs(eig.eigenvalues.sum() - m.trace().real) <= 1e-10

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = (a + a.conj().T) / 2
            m = m / max(np.abs(m).max(), 1.0)
            u = random_unitary(rng, dim)
            w1 = eig_hermitian(m).eigenvalues
            w2 = eig_hermitian(u @ m @ u.conj().T).eigenvalues
            assert np.abs(w1 - w2).max() <= 1e-9

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian):
            eig_hermitian(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.zeros((2, 3)))


class TestPsdSqrt:
    def test_identity(self):
        assert np.abs(psd_sqrt(np.eye(2)) - np.eye(2)).max() <= 1e-12

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_random_psd_roundtrip(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = b.conj().T @ b
            m = m / max(np.abs(m).max(), 1.0)
            r = psd_sqrt(m)
            assert np.abs(r @ r - m).max() <= 1e-8
            assert np.abs(r @ m - m @ r).max() <= 1e-8

    def test_clamps_tiny_negatives(self):
        m = np.diag([1.0, -5e-11])
        r = psd_sqrt(m)
        assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-5)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1e-6]))


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


def test_eigen_dataclass_reconstruct_matches_input():
    m = np.diag([2.0, 1.0, 0.0])
    eig = eig_hermitian(m)
    assert isinstance(eig, HermitianEigen)
    assert np.abs(eig.reconstruct() - m).max() <= 1e-12
