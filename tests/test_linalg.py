import numpy as np
import pytest

from chanfactor.linalg import NEG_TOL, SUM_TOL, _check_probabilities, purity


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


def lone_refusal(v: np.ndarray) -> str | None:
    """The message ``_check_probabilities`` gives for ``v`` alone, or None when it accepts it."""
    try:
        _check_probabilities(v, "v")
    except ValueError as err:
        return str(err)
    return None


class TestProbabilityStack:
    """A stack is refused exactly when one of its vectors alone is refused, with
    the message of the first vector that fails the first bound any vector fails."""

    BOUND_WORDS = ("nonnegative", "sum to 1", "lie in [0, 1]")

    @staticmethod
    def damaged(rng, row: np.ndarray) -> np.ndarray:
        """``row`` with one defect drawn at random, from within to twice a bound."""
        row, j, k = row.copy(), int(rng.integers(row.size)), rng.uniform(0.0, 2.0)
        kind = rng.integers(5)
        if kind == 0:
            row[j] = -k * NEG_TOL
        elif kind == 1:
            row *= 1 + k * SUM_TOL
        elif kind == 2:
            row[:] = 0.0
            row[j] = 1 + k * NEG_TOL
        else:
            row[j] = (np.nan, np.inf)[kind - 3]
        return row

    def test_stack_refuses_as_its_first_failing_vector(self):
        rng = np.random.default_rng(30)
        refused = 0
        for _ in range(400):
            n_vectors, n = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            stack = rng.dirichlet(np.ones(n), size=n_vectors)
            for i in np.flatnonzero(rng.random(n_vectors) < 0.2):
                stack[i] = self.damaged(rng, stack[i])
            alone = [lone_refusal(v) for v in stack]
            failed = [(self.bound(m), i) for i, m in enumerate(alone) if m is not None]
            refused += bool(failed)
            first = min(failed)[1] if failed else None
            for a, label in ((stack, f"v[{first}]"), (stack[None], f"v[0, {first}]")):
                if not failed:
                    assert _check_probabilities(a, "v") is a
                    continue
                with pytest.raises(ValueError) as err:
                    _check_probabilities(a, "v")
                assert str(err.value) == label + alone[first].removeprefix("v")
        assert 100 <= refused <= 300, refused

    @classmethod
    def bound(cls, message: str) -> int:
        """Index in ``BOUND_WORDS`` of the bound a lone vector's refusal names."""
        return next(b for b, words in enumerate(cls.BOUND_WORDS) if words in message)
