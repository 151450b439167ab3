import numpy as np
import pytest

from decomap import cones, linalg, modular
from decomap.errors import InvalidOption, NotDensity, NotFaithful, NotInCone

from conftest import random_matrix

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.T.copy()


class TestBuild:
    def test_tracial_delta_trivial(self, md_tracial2, rng):
        x = random_matrix(rng, 2)
        assert np.allclose(md_tracial2.delta(x, 0.7), x)

    def test_omega_of_skew_state(self, md_skew):
        assert np.allclose(md_skew.rho_half,
                           np.diag([0.8944271909999159, 0.4472135954999579]))

    def test_singular_state_rejected(self):
        with pytest.raises(NotFaithful):
            modular.build_modular(np.diag([1.0, 0.0]))

    def test_bad_trace_rejected(self):
        with pytest.raises(NotDensity):
            modular.build_modular(np.diag([1.0, 1.0]))

    def test_non_hermitian_rejected(self, rng):
        m = random_matrix(rng, 2)
        m = m / np.trace(m)
        with pytest.raises(NotDensity):
            modular.build_modular(m)


class TestApply:
    def test_u_swaps_units(self, md_skew):
        # the eigenbasis of a diagonal state is the standard basis
        assert np.allclose(md_skew.u(E12), E21)

    def test_jm_is_adjoint(self, md_skew):
        # J_m = x* is U J
        assert np.allclose(md_skew.u(md_skew.j(E12)), E21)

    def test_delta_scales_units(self, md_skew):
        got = md_skew.delta(E12, 1.0)
        assert np.allclose(got, 4.0 * E12)

    def test_tau_tracial_is_transpose(self, md_tracial2, rng):
        x = random_matrix(rng, 2)
        assert np.allclose(md_tracial2.tau(x), x.T)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_delta_rejects_non_finite_exponent(self, md_skew, t):
        with pytest.raises(InvalidOption):
            md_skew.delta(E12, t)


class TestIdentities:
    def test_skew_state_suite(self, md_skew):
        res = modular.check_identities(md_skew, 100, 5)
        assert max(res.values()) <= 1e-10

    def test_dimension_five(self):
        md = modular.build_modular(linalg.sample_density(5, 17))
        res = modular.check_identities(md, 50, 3)
        assert max(res.values()) <= 1e-9

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, md_skew, samples):
        with pytest.raises(InvalidOption):
            modular.check_identities(md_skew, samples, 0)


class TestTensor:
    def test_tracial_product(self):
        md = modular.tensor_modular(
            modular.build_modular(np.eye(2) / 2), modular.build_modular(np.eye(2) / 2))
        assert np.allclose(md.rho, np.eye(4) / 4)
        x = linalg.sample_ginibre(4, 4, 0)
        assert np.allclose(md.delta(x, 0.5), x)

    def test_omega_factorizes(self):
        a = modular.build_modular(linalg.sample_density(2, 1))
        b = modular.build_modular(linalg.sample_density(3, 2))
        md = modular.tensor_modular(a, b)
        assert np.allclose(md.rho_half, np.kron(a.rho_half, b.rho_half))

    def test_delta_quarter_factorizes(self, rng):
        a = modular.build_modular(linalg.sample_density(2, 4))
        b = modular.build_modular(linalg.sample_density(2, 5))
        md = modular.tensor_modular(a, b)
        x, y = random_matrix(rng, 2), random_matrix(rng, 2)
        lhs = md.delta(np.kron(x, y), 0.25)
        rhs = np.kron(a.delta(x, 0.25), b.delta(y, 0.25))
        assert np.linalg.norm(lhs - rhs) <= 1e-10


class TestConeVectorState:
    def test_omega_gives_rho(self, md_skew):
        assert np.allclose(
            cones.state_of_cone_vector(md_skew, md_skew.rho_half),
            md_skew.rho, atol=1e-12)

    def test_unit_projection_tracial(self, md_tracial2):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(cones.state_of_cone_vector(md_tracial2, e11), e11)

    def test_transpose_intertwines_states(self):
        md = modular.build_modular(linalg.sample_density(3, 8))
        g = linalg.sample_psd(3, 9)
        xi = md.rho_quarter @ g @ md.rho_quarter
        xi = xi / linalg.frobenius(xi)
        u_xi = md.u(xi)
        lhs = cones.state_of_cone_vector(md, u_xi)
        rhs = md.from_eigenbasis(md.to_eigenbasis(
            cones.state_of_cone_vector(md, xi)).T)
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_rejects_outside_vector(self, md_tracial2):
        sx = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
        with pytest.raises(NotInCone):
            cones.state_of_cone_vector(md_tracial2, sx)
