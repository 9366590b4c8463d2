"""Oracle and property tests for the complex matrix primitives."""

import numpy as np
import pytest

from risae.errors import NotPSD, ShapeMismatch
from risae.linalg import as_matrix, hermitian_sqrt, ls_solve


def crand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, dim):
    a = crand(rng, dim, dim)
    return a @ a.conj().T


def strided_view(a):
    """A view of a's values whose rows and columns both skip memory."""
    big = np.zeros((2 * a.shape[0], 3 * a.shape[1]), dtype=a.dtype)
    big[::2, ::3] = a
    return big[::2, ::3]


# Non-contiguous views holding the same values as a C-ordered matrix: the
# layouts that transposes, einsum outputs and axis reductions hand over.
LAYOUTS = {
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
    "fortran": np.asfortranarray,
    "strided": strided_view,
}


class TestHermitianSqrt:
    def test_identity(self):
        assert np.allclose(hermitian_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_and_compare(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = random_psd(rng, 8)
            s = hermitian_sqrt(h)
            rel = np.linalg.norm(s @ s - h) / np.linalg.norm(h)
            assert rel < 1e-10

    def test_commutes_with_input(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = random_psd(rng, 6)
            s = hermitian_sqrt(h)
            assert np.linalg.norm(s @ h - h @ s) / np.linalg.norm(h) < 1e-9

    def test_clamps_tiny_negative_eigenvalues(self):
        h = np.diag([1.0, -5e-11])
        s = hermitian_sqrt(h)
        assert np.allclose(s @ s, np.diag([1.0, 0.0]), atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            hermitian_sqrt(np.diag([1.0, -1e-6]))


class TestLsSolve:
    def test_identity_system(self):
        rng = np.random.default_rng(5)
        v = crand(rng, 4)
        assert np.allclose(ls_solve(np.eye(4), v), v)

    def test_scaled_identity(self):
        rng = np.random.default_rng(6)
        v = crand(rng, 4)
        assert np.allclose(ls_solve(2.0 * np.eye(4), v), v / 2.0)

    def test_normal_equation_residual(self):
        # the ridged normal equation g^H (g p - v) = -ridge p, with the
        # ridge 1e-8 tr(g^H g)/dim
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = crand(rng, 8, 4)
            v = crand(rng, 8)
            p = ls_solve(g, v)
            ridge = 1e-8 * np.linalg.norm(g) ** 2 / g.shape[1]
            residual = np.linalg.norm(g.conj().T @ (g @ p - v) + ridge * p)
            assert residual < 1e-9

    def test_ridge_keeps_rank_deficient_finite(self):
        rng = np.random.default_rng(8)
        col = crand(rng, 6, 1)
        g = np.hstack([col, col])  # rank 1
        p = ls_solve(g, crand(rng, 6))
        assert np.all(np.isfinite(p))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ls_solve(np.eye(3), np.zeros(4))

    def test_ridge_scale(self):
        # g = 3 I_5: tr(g^H g)/dim = 9, so (9 + 9e-8) p = 3 v
        v = np.arange(1.0, 6.0) + 0j
        np.testing.assert_allclose(ls_solve(3.0 * np.eye(5), v), 3.0 * v / (9.0 + 9e-8),
                                   rtol=1e-14)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestNonContiguousInputs:
    """Results depend on the values of a matrix, not on its memory layout."""

    def _view(self, layout, a):
        view = LAYOUTS[layout](a)
        assert np.array_equal(view, a) and not view.flags.c_contiguous
        return view

    def test_ls_solve(self, layout):
        rng = np.random.default_rng(10)
        g = self._view(layout, crand(rng, 6, 3))
        v = crand(rng, 6)
        p = ls_solve(g, v)
        np.testing.assert_allclose(p, ls_solve(np.ascontiguousarray(g), v),
                                   rtol=1e-12, atol=1e-14)

    def test_hermitian_sqrt(self, layout):
        rng = np.random.default_rng(12)
        h = self._view(layout, random_psd(rng, 5))
        np.testing.assert_allclose(hermitian_sqrt(h), hermitian_sqrt(np.ascontiguousarray(h)),
                                   rtol=1e-12, atol=1e-12)


class TestAsMatrixFiniteCheck:
    @pytest.mark.parametrize("layout", ["contiguous"] + sorted(LAYOUTS))
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)],
                             ids=["nan_real", "inf_imag"])
    def test_rejects_non_finite_entry(self, layout, bad):
        a = np.ones((3, 4), dtype=complex)
        a[1, 2] = bad
        if layout != "contiguous":
            a = LAYOUTS[layout](a)
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(a, "a")
