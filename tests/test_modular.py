import numpy as np
import pytest

from decomap import cones, linalg, modular
from decomap.errors import (
    InvalidOption,
    NotDensity,
    NotFaithful,
    NotInCone,
    ShapeMismatch,
)
from decomap.linalg import TensorLayout

from conftest import random_matrix

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.T.copy()


class TestBuild:
    def test_tracial_delta_trivial(self, md_tracial2, rng):
        x = random_matrix(rng, 2)
        assert np.allclose(md_tracial2.delta(x, 0.7), x)

    def test_omega_of_skew_state(self, md_skew):
        assert np.allclose(md_skew.rho_power(0.5),
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

    def test_each_image_computed_once(self, monkeypatch):
        """U ξ, J ξ and U J_m ξ are computed once and read by every identity
        that needs them: 21 basis changes per call, each one to_eigenbasis
        and one from_eigenbasis."""
        md = modular.build_modular(linalg.sample_density(3, 0))
        calls = {"to": 0, "from": 0}

        def spy(name, fn):
            def counted(self, x):
                calls[name] += 1
                return fn(self, x)
            return counted

        monkeypatch.setattr(modular.ModularData, "to_eigenbasis",
                            spy("to", modular.ModularData.to_eigenbasis))
        monkeypatch.setattr(modular.ModularData, "from_eigenbasis",
                            spy("from", modular.ModularData.from_eigenbasis))
        modular.check_identities(md, 50, 0)
        assert calls == {"to": 21, "from": 21}


def identities_oracle(md, samples, seed):
    """The identity residuals sample by sample, each on 2-D matrices, from
    the draws of check_identities: one normal array holding the real and
    imaginary parts of a, ξ, ψ and g, then one uniform t per sample."""
    n = md.dim
    rng = np.random.default_rng(seed)
    frob = linalg.frobenius
    re, im = rng.standard_normal((2, 4, samples, n, n))
    ts = rng.uniform(-1.0, 1.0, samples)
    res = {}

    def record(name, value):
        res[name] = max(res.get(name, 0.0), float(value))

    for s in range(samples):
        a, xi, psi, g = re[:, s] + 1j * im[:, s]
        a, xi, psi = a / frob(a), xi / frob(xi), psi / frob(psi)
        record("u_squared", frob(md.u(md.u(xi)) - xi))
        record("u_selfadjoint", abs(np.vdot(md.u(xi), psi) - np.vdot(xi, md.u(psi))))
        jm = xi.conj().T
        record("j_eq_u_jm", frob(md.j(xi) - md.u(jm)))
        record("commute_j_jm", frob(md.j(jm) - md.j(xi).conj().T))
        record("commute_j_u", frob(md.j(md.u(xi)) - md.u(md.j(xi))))
        record("commute_jm_u", frob(md.u(xi).conj().T - md.u(jm)))
        t = float(ts[s])
        record("j_delta_commute", frob(md.j(md.delta(xi, t)) - md.delta(md.j(xi), t)))
        record("tau_polar", frob(md.tau(xi) - md.u(md.delta(xi, 0.5))))
        record("u_delta_u", frob(md.u(md.delta(md.u(xi), 1.0)) - md.delta(xi, -1.0)))
        at = md.u(a)
        record("transpose_via_j", frob(at @ xi - md.j(a.conj().T @ md.j(xi))))
        record("commutant_map", frob(md.u(a @ md.u(xi)) - xi @ at))
        pos = g @ g.conj().T
        pos /= frob(pos)
        image = md.tau(pos @ md.rho_power(0.5))
        record("tau_v0_invariance", max(0.0, -linalg.min_eig(image @ md.rho_power(-0.5))))
    return res


def reference_ops(md):
    """Each operator written out on one matrix, as plain products."""
    v, lam = md.eigenbasis, md.eigenvalues

    def into(x):
        return v.conj().T @ x @ v

    def out(x):
        return v @ x @ v.conj().T

    return {
        "to_eigenbasis": into,
        "from_eigenbasis": out,
        "delta": lambda x, t: out(np.outer(lam**t, lam**-t) * into(x)),
        "j": lambda x: out(into(x).conj()),
        "u": lambda x: out(into(x).T),
        "tau": lambda x: out((lam**-0.5)[:, None] * into(x).T * (lam**0.5)[None, :]),
    }


STATES = [np.diag([0.8, 0.2]), linalg.sample_density(3, 17),
          np.kron(linalg.sample_density(2, 4), linalg.sample_density(2, 5))]


class TestStacks:
    @pytest.mark.parametrize("rho", STATES)
    @pytest.mark.parametrize("name", ["to_eigenbasis", "from_eigenbasis", "j", "u", "tau"])
    def test_stack_matches_matrices(self, rho, name, rng):
        md = modular.build_modular(rho)
        xs = random_matrix(rng, 2 * 3 * md.dim, md.dim).reshape(2, 3, md.dim, md.dim)
        ref = reference_ops(md)[name]
        got = getattr(md, name)(xs)
        assert got.shape == xs.shape
        for i in range(2):
            for s in range(3):
                assert np.array_equal(getattr(md, name)(xs[i, s]), ref(xs[i, s]))
                slack = 1e-14 * linalg.frobenius(xs[i, s])
                assert np.max(np.abs(got[i, s] - ref(xs[i, s]))) <= slack

    @pytest.mark.parametrize("rho", STATES)
    def test_delta_exponent_per_matrix(self, rho, rng):
        md = modular.build_modular(rho)
        xs = random_matrix(rng, 4 * md.dim, md.dim).reshape(4, md.dim, md.dim)
        ts = np.array([-1.0, -0.3, 0.5, 1.0])
        ref = reference_ops(md)["delta"]
        stacked = md.delta(xs, ts)
        shared = md.delta(xs, 0.5)
        for s, t in enumerate(ts):
            assert np.array_equal(md.delta(xs[s], t), ref(xs[s], t))
            assert np.max(np.abs(stacked[s] - ref(xs[s], t))) <= 1e-13 * linalg.frobenius(xs[s])
            assert np.max(np.abs(shared[s] - ref(xs[s], 0.5))) <= 1e-13 * linalg.frobenius(xs[s])

    def test_trailing_shape_checked(self, md_skew):
        with pytest.raises(ShapeMismatch):
            md_skew.u(np.zeros((3, 3, 3)))
        with pytest.raises(ShapeMismatch):
            md_skew.j(np.zeros(2))

    def test_non_finite_exponent_in_stack_rejected(self, md_skew):
        with pytest.raises(InvalidOption):
            md_skew.delta(np.zeros((2, 2, 2)), np.array([0.5, np.nan]))


class TestIdentitiesOracle:
    @pytest.mark.parametrize("rho", STATES)
    @pytest.mark.parametrize("samples,seed", [(1, 0), (7, 3), (50, 11)])
    def test_matches_sample_loop(self, rho, samples, seed):
        md = modular.build_modular(rho)
        got = modular.check_identities(md, samples, seed)
        want = identities_oracle(md, samples, seed)
        assert list(got) == list(want)
        for name in want:
            assert abs(got[name] - want[name]) <= 1e-12, name

    @pytest.mark.parametrize("samples,seed", [(1, 0), (7, 3), (50, 11)])
    def test_same_samples(self, samples, seed):
        """A non-unitary "eigenbasis" breaks six identities by amounts of
        order one that depend on the samples, far above rounding: agreeing
        on them shows that the oracle reads the samples check_identities
        draws."""
        md = modular.ModularData(np.array([0.7, 0.3]),
                                 np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex),
                                 TensorLayout((2,)))
        got = modular.check_identities(md, samples, seed)
        want = identities_oracle(md, samples, seed)
        assert sum(value > 0.5 for value in want.values()) == 6
        for name in want:
            assert abs(got[name] - want[name]) <= 1e-12 * max(1.0, want[name]), name


class TestTensor:
    def test_tracial_product(self):
        md = modular.tensor_modular(
            modular.build_modular(np.eye(2) / 2), modular.build_modular(np.eye(2) / 2))
        assert np.allclose(md.rho_power(1), np.eye(4) / 4)
        x = linalg.sample_ginibre(4, 4, 0)
        assert np.allclose(md.delta(x, 0.5), x)

    @pytest.mark.parametrize("t", [0.25, -0.25, 0.5, -0.5, 1.0, -1.0])
    def test_omega_factorizes(self, t):
        """Powers of a tensor state are the Kronecker products of the
        factors' powers."""
        a = modular.build_modular(linalg.sample_density(2, 1))
        b = modular.build_modular(linalg.sample_density(3, 2))
        md = modular.tensor_modular(a, b)
        assert np.allclose(md.rho_power(t), np.kron(a.rho_power(t), b.rho_power(t)))

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
            cones.state_of_cone_vector(md_skew, md_skew.rho_power(0.5)),
            md_skew.rho_power(1), atol=1e-12)

    def test_unit_projection_tracial(self, md_tracial2):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(cones.state_of_cone_vector(md_tracial2, e11), e11)

    def test_transpose_intertwines_states(self):
        md = modular.build_modular(linalg.sample_density(3, 8))
        g = linalg.sample_psd(3, 9)
        xi = md.rho_power(0.25) @ g @ md.rho_power(0.25)
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
