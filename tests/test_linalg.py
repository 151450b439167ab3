import numpy as np
import pytest

from decomap import linalg
from decomap.errors import LayoutMismatch, NotHermitian, NotPositiveDefinite
from decomap.linalg import TensorLayout

from conftest import random_matrix

# frozen scalar square roots of 0.8 and 0.2
SQRT_08 = 0.8944271909999159
SQRT_02 = 0.4472135954999579


class TestHermEig:
    def test_diagonal(self):
        dec = linalg.herm_eig(np.diag([2.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0])

    def test_sigma_x(self):
        dec = linalg.herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_rank_one_complex(self):
        m = np.array([[1.0, 1j], [-1j, 1.0]])
        dec = linalg.herm_eig(m)
        assert np.allclose(dec.eigenvalues, [0.0, 2.0])

    def test_reconstruct(self, rng):
        a = random_matrix(rng, 5)
        h = (a + a.conj().T) / 2
        assert np.allclose(linalg.herm_eig(h).reconstruct(), h)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(NotHermitian):
            linalg.herm_eig(random_matrix(rng, 3))

    def test_hermitian_test_is_scale_free(self, rng):
        a = random_matrix(rng, 3)
        h = (a + a.conj().T) / 2
        for scale in (1e-12, 1.0, 1e12):
            assert np.array_equal(linalg.require_hermitian(scale * h), scale * h)
            with pytest.raises(NotHermitian):
                linalg.require_hermitian(scale * a)

    def test_hermitian_deviation(self):
        x = np.array([[1.0, 2.0], [0.0, 1.0]])
        dev, bound = linalg.hermitian_deviation(x, 0.5)
        assert dev == pytest.approx(np.sqrt(8)) and bound == pytest.approx(np.sqrt(6) / 2)


class TestFracPower:
    def test_diagonal_sqrt(self):
        assert np.allclose(linalg.frac_power(np.diag([4.0, 9.0]), 0.5),
                           np.diag([2.0, 3.0]))

    def test_identity_fixed(self):
        assert np.allclose(linalg.frac_power(np.eye(3), 0.37), np.eye(3))

    def test_twelve_digit_sqrt(self):
        got = linalg.frac_power(np.diag([0.8, 0.2]), 0.5)
        assert abs(got[0, 0] - SQRT_08) < 1e-14
        assert abs(got[1, 1] - SQRT_02) < 1e-14

    def test_negative_power_needs_pd(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.frac_power(np.diag([1.0, 0.0]), -0.5)


class TestPsdProject:
    def test_clips_negative_eigenvalue(self):
        assert np.allclose(linalg.psd_project(np.diag([1.0, -1.0])),
                           np.diag([1.0, 0.0]))

    def test_psd_fixed_point(self, rng):
        p = linalg.sample_psd(4, 3)
        assert np.allclose(linalg.psd_project(p), p)

    def test_negative_identity(self):
        assert np.allclose(linalg.psd_project(-np.eye(2)), np.zeros((2, 2)))


class TestPartialTranspose:
    def test_unit_blocks(self):
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1.0
        x = np.kron(e12, e12)
        got = linalg.partial_transpose(x, TensorLayout((2, 2)), 2)
        assert np.allclose(got, np.kron(e12, e12.T))

    def test_swap_becomes_rank_one_projector(self):
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * i + j, 2 * j + i] = 1.0
        got = linalg.partial_transpose(swap, TensorLayout((2, 2)), 2)
        w = np.linalg.eigvalsh(got)
        assert np.allclose(sorted(w), [0.0, 0.0, 0.0, 2.0])
        assert abs(np.trace(got) - 2.0) < 1e-14

    def test_involution(self, rng):
        x = random_matrix(rng, 6)
        layout = TensorLayout((2, 3))
        assert np.allclose(
            linalg.partial_transpose(
                linalg.partial_transpose(x, layout, 2), layout, 2), x)


class TestHsInner:
    def test_matrix_units(self):
        e11 = np.diag([1.0, 0.0])
        e12 = np.zeros((2, 2))
        e12[0, 1] = 1.0
        assert linalg.hs_inner(e11, e11) == pytest.approx(1.0)
        assert linalg.hs_inner(e11, e12) == pytest.approx(0.0)

    def test_omega_normalized(self):
        rho = linalg.sample_density(3, 11)
        omega = linalg.frac_power(rho, 0.5)
        assert linalg.hs_inner(omega, omega) == pytest.approx(1.0)


class TestSamplers:
    def test_psd_deterministic(self):
        assert np.array_equal(linalg.sample_psd(3, 42), linalg.sample_psd(3, 42))

    def test_psd_nonnegative(self):
        for s in range(20):
            assert linalg.min_eig(linalg.sample_psd(4, s)) >= -1e-12

    def test_psd_hermitian_for_many_seeds(self):
        for s in range(100):
            linalg.herm_eig(linalg.sample_psd(4, s))

    def test_density_trace_one_faithful(self):
        for s in range(10):
            rho = linalg.sample_density(4, s)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert linalg.min_eig(rho) > 0

    def test_unitary(self):
        u = linalg.sample_unitary(4, 7)
        assert np.allclose(u @ u.conj().T, np.eye(4))

    def test_layout_validation(self):
        with pytest.raises(LayoutMismatch):
            TensorLayout((2, 3)).check(np.zeros((5, 5)))
