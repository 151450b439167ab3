import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomap import linalg, modular
from decomap.errors import LayoutMismatch, NotHermitian
from decomap.linalg import TensorLayout

from conftest import random_matrix

# frozen scalar square roots of 0.8 and 0.2
SQRT_08 = 0.8944271909999159
SQRT_02 = 0.4472135954999579


class TestHermEig:
    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(NotHermitian):
            linalg.require_hermitian(random_matrix(rng, 3))

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
    def test_twelve_digit_sqrt(self):
        got = modular.build_modular(np.diag([0.8, 0.2])).rho_power(0.5)
        assert abs(got[0, 0] - SQRT_08) < 1e-14
        assert abs(got[1, 1] - SQRT_02) < 1e-14


class TestPsdProject:
    def test_clips_negative_eigenvalue(self):
        assert np.allclose(linalg._psd_clip(np.diag([1.0, -1.0])),
                           np.diag([1.0, 0.0]))

    def test_psd_fixed_point(self, rng):
        p = linalg.sample_psd(4, 3)
        assert np.allclose(linalg._psd_clip(p), p)

    def test_negative_identity(self):
        assert np.allclose(linalg._psd_clip(-np.eye(2)), np.zeros((2, 2)))


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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    def test_against_explicit_indices(self, data, dims, seed):
        """Every layout of 1-3 factors, every factor: the entries moved one by
        one, and Γ applied twice is the identity, exactly."""
        factor = data.draw(st.integers(1, len(dims)), label="factor")
        layout = TensorLayout(dims)
        x = random_matrix(np.random.default_rng(seed), layout.side)
        got = linalg.partial_transpose(x, layout, factor)
        assert np.array_equal(got, explicit_partial_transpose(x, dims, factor))
        assert np.array_equal(linalg.partial_transpose(got, layout, factor), x)

    def test_factor_out_of_range(self):
        with pytest.raises(LayoutMismatch):
            linalg.partial_transpose(np.eye(4), TensorLayout((2, 2)), 0)

    @pytest.mark.parametrize("factor", [True, False, "2", 2.0, np.float64(1.0), None])
    def test_factor_not_an_integer(self, factor):
        """Rejected with the cache warm too: its key would take 2.0 for 2."""
        layout = TensorLayout((2, 2))
        linalg.partial_transpose(np.eye(4), layout, 1)
        linalg.partial_transpose(np.eye(4), layout, 2)
        with pytest.raises(LayoutMismatch):
            linalg.partial_transpose(np.eye(4), layout, factor)

    def test_numpy_integer_factor(self, rng):
        x = random_matrix(rng, 6)
        layout = TensorLayout((2, 3))
        assert np.array_equal(linalg.partial_transpose(x, layout, np.int64(2)),
                              linalg.partial_transpose(x, layout, 2))


def explicit_partial_transpose(x, dims, factor):
    """x^Γ entry by entry: the factor's digits of the row and column swapped."""
    out = np.empty_like(x)
    for i, j in np.ndindex(x.shape):
        row, col = list(np.unravel_index(i, dims)), list(np.unravel_index(j, dims))
        row[factor - 1], col[factor - 1] = col[factor - 1], row[factor - 1]
        out[np.ravel_multi_index(row, dims), np.ravel_multi_index(col, dims)] = x[i, j]
    return out


class TestFrobenius:
    @settings(max_examples=80, deadline=None)
    @given(shape=st.lists(st.integers(1, 6), min_size=2, max_size=3),
           scale=st.integers(-150, 150), seed=st.integers(0, 2**16),
           view=st.sampled_from(["plain", "swapaxes", "strided", "real", "imag"]))
    def test_bitwise_numpy_norm(self, shape, scale, seed, view):
        """Matrices and stacks, contiguous or not, complex or real: the same
        float, bit for bit, as np.linalg.norm."""
        rng = np.random.default_rng(seed)
        x = 10.0**scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        x = {"plain": x, "swapaxes": x.swapaxes(-1, -2), "strided": x[..., ::2, :],
             "real": x.real, "imag": x.imag}[view]
        assert linalg.frobenius(x).hex() == float(np.linalg.norm(x)).hex()


class TestHsInner:
    """np.vdot of two matrices is Tr(x* y), the pairing the split's witness
    check reads."""

    def test_matrix_units(self):
        e11 = np.diag([1.0, 0.0])
        e12 = np.zeros((2, 2))
        e12[0, 1] = 1.0
        assert np.vdot(e11, e11) == pytest.approx(1.0)
        assert np.vdot(e11, e12) == pytest.approx(0.0)

    def test_omega_normalized(self):
        rho = linalg.sample_density(3, 11)
        omega = modular.build_modular(rho).rho_power(0.5)
        assert np.vdot(omega, omega) == pytest.approx(1.0)


class TestSamplers:
    def test_psd_deterministic(self):
        assert np.array_equal(linalg.sample_psd(3, 42), linalg.sample_psd(3, 42))

    def test_psd_nonnegative(self):
        for s in range(20):
            assert linalg.min_eig(linalg.sample_psd(4, s)) >= -1e-12

    def test_psd_hermitian_for_many_seeds(self):
        for s in range(100):
            linalg.require_hermitian(linalg.sample_psd(4, s))

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

    @pytest.mark.parametrize("dims", [(2.7, 2), ("2", 2), (True, 4), (2, False), 2, None,
                                      (0, 2), (2, -1), (np.float64(2.0), 2)])
    def test_layout_dims_rejected(self, dims):
        with pytest.raises(LayoutMismatch):
            TensorLayout(dims)

    def test_layout_numpy_integer_dims(self):
        layout = TensorLayout((np.int64(2), np.int32(3)))
        assert layout == TensorLayout((2, 3))
        assert hash(layout) == hash(TensorLayout((2, 3)))
        assert all(type(d) is int for d in layout.dims)
