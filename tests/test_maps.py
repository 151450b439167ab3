import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomap import dykstra, linalg, maps, modular
from decomap.errors import BadChoi, InvalidOption, NoDetailedBalance, NonFinite, UnknownKind
from decomap.linalg import TensorLayout

from conftest import SIGMA_X, assert_split, assert_witness, random_matrix


def swap(n=2):
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[n * i + j, n * j + i] = 1.0
    return s


def choi_m3_map():
    """A positive, non-decomposable map on M_3 (diagonal-reinforced sign flip)."""
    def act(a):
        d = [a[0, 0] + a[1, 1], a[1, 1] + a[2, 2], a[2, 2] + a[0, 0]]
        return np.diag(d).astype(complex) - (a - np.diag(np.diag(a)))
    return maps.map_from_action(act, 3, 3, label="m3-nondecomposable")


def _lowest_eig_on_sphere(h4, theta, phi):
    """Smallest eigenvalue of (x* (x) I) H (x (x) I) at Bloch angles (theta, phi)."""
    x = np.stack((np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)), axis=-1)
    return np.linalg.eigvalsh(np.einsum("...i,ipjq,...j->...pq", x.conj(), h4, x))[..., 0]


def product_minimum(h, n):
    """min <x (x) y|H|x (x) y> over unit x in C^2, y in C^n.

    The minimum over y is an eigenvalue, so only the Bloch sphere of x is
    searched: a 41 x 80 grid, then a 5 x 5 zoom that halves its step 60 times
    around each of the 8 lowest grid points.
    """
    h4 = h.reshape(2, n, 2, n)
    theta, phi = np.meshgrid(np.linspace(0, np.pi, 41),
                             np.linspace(0, 2 * np.pi, 80, endpoint=False), indexing="ij")
    values = _lowest_eig_on_sphere(h4, theta, phi)
    offsets = np.linspace(-1, 1, 5)
    best = np.inf
    for idx in np.argsort(values, axis=None)[:8]:
        t, p, step = theta.flat[idx], phi.flat[idx], np.pi / 40
        for _ in range(60):
            tt, pp = np.meshgrid(t + step * offsets, p + step * offsets, indexing="ij")
            v = _lowest_eig_on_sphere(h4, tt, pp)
            k = np.argmin(v)
            t, p, step = tt.flat[k], pp.flat[k], step / 2
        best = min(best, float(v.flat[k]))
    return best


class TestRepresentation:
    def test_identity_choi(self):
        phi = maps.identity_map(2)
        expected = sum(np.kron(e, e) for e in
                       (np.eye(2)[i][:, None] @ np.eye(2)[j][None, :]
                        for i in range(2) for j in range(2)))
        assert np.allclose(phi.choi, expected)
        assert abs(np.trace(phi.choi) - 2.0) < 1e-14

    def test_transposition_choi_is_swap(self):
        assert np.allclose(maps.transposition_map(2).choi, swap())

    def test_adjoint_rank_one(self):
        phi = maps.adjoint_map(SIGMA_X)
        w = np.linalg.eigvalsh(phi.choi)
        assert np.allclose(sorted(w)[:3], [0, 0, 0], atol=1e-12)
        assert w[-1] == pytest.approx(2.0)

    def test_apply(self, rng):
        a = random_matrix(rng, 2)
        assert np.allclose(maps.apply_map(maps.identity_map(2), a), a)
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(maps.apply_map(maps.transposition_map(2), e12), e12.T)
        e11 = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(maps.apply_map(maps.adjoint_map(SIGMA_X), e11),
                           np.diag([0.0, 1.0]))

    def test_superoperator_matches_action(self, rng):
        phi = maps.adjoint_map(linalg.sample_ginibre(3, 2, 0))
        a = random_matrix(rng, 2)
        s = maps.superoperator(phi)
        assert np.allclose((s @ a.reshape(-1)).reshape(3, 3), maps.apply_map(phi, a))

    def test_bad_choi_rejected(self, rng):
        with pytest.raises(BadChoi):
            maps.make_map(random_matrix(rng, 4), 2, 2)

    def test_non_finite_choi_rejected(self):
        choi = maps.identity_map(2).choi.copy()
        choi[0, 0] = np.nan
        with pytest.raises(BadChoi):
            maps.make_map(choi, 2, 2)

    def test_registry_keys(self, tmp_path):
        assert maps.map_from_key("identity:3").dim_in == 3
        assert np.allclose(maps.map_from_key("transpose:2").choi, swap())
        mixed = maps.map_from_key("mix:0.5:identity:2:transpose:2")
        assert np.allclose(mixed.choi, (maps.identity_map(2).choi + swap()) / 2)
        comp = maps.map_from_key("compose-t:transpose:2")
        assert np.allclose(comp.choi, maps.identity_map(2).choi)
        loader = lambda name: SIGMA_X
        adu = maps.map_from_key("adu:sx", loader=loader)
        assert np.allclose(adu.choi, maps.adjoint_map(SIGMA_X).choi)
        with pytest.raises(UnknownKind):
            maps.map_from_key("nonsense:1")


class TestGlobalPositivity:
    def test_identity_cp(self):
        gp = maps.global_positivity_test(maps.identity_map(3))
        assert gp.completely_positive
        assert abs(gp.min_eig_choi) <= 1e-12

    def test_transposition_not_cp_but_ccp(self):
        gp = maps.global_positivity_test(maps.transposition_map(2))
        assert not gp.completely_positive and gp.completely_copositive
        assert gp.min_eig_choi == pytest.approx(-1.0)

    def test_even_mix_positive_but_not_cp(self):
        # (a + a^t)/2 is positive and decomposable, yet neither CP nor co-CP:
        # the Choi matrix pairs to -1/2 against the antisymmetric vector
        phi = maps.mix_maps(0.5, maps.identity_map(2), maps.transposition_map(2))
        gp = maps.global_positivity_test(phi)
        assert not gp.completely_positive and not gp.completely_copositive
        assert gp.min_eig_choi == pytest.approx(-0.5)
        assert gp.min_eig_choi_pt == pytest.approx(-0.5)
        res = maps.k_positivity_search(phi, 1, restarts=16, seed=0)
        assert not res.violation_found


class TestKPositivity:
    def test_transposition_k2_violation(self):
        res = maps.k_positivity_search(maps.transposition_map(2), 2, restarts=8, seed=0)
        assert res.violation_found
        assert res.value == pytest.approx(-1.0, abs=1e-6)
        v = res.vector
        direct = np.real(v.conj() @ maps.transposition_map(2).choi @ v)
        assert direct == pytest.approx(res.value, abs=1e-9)

    def test_transposition_k1_clean(self):
        res = maps.k_positivity_search(maps.transposition_map(2), 1, restarts=16, seed=0)
        assert not res.violation_found

    def test_identity_clean(self):
        for k in (1, 2):
            res = maps.k_positivity_search(maps.identity_map(2), k, restarts=8, seed=1)
            assert not res.violation_found

    def test_no_restarts_rejected(self):
        # with no restart the search would report value inf and "no violation"
        with pytest.raises(InvalidOption):
            maps.k_positivity_search(maps.identity_map(2), 1, restarts=0)


class TestSkSampler:
    def test_identity_never_violates(self):
        res = maps.sk_sampler(maps.identity_map(2), 2, trials=20, seed=0)
        assert not res.violation_found

    def test_transposition_never_violates(self):
        # inputs have PSD block transpose, so the output is a PSD conjugate
        res = maps.sk_sampler(maps.transposition_map(2), 2, trials=20, seed=1)
        assert not res.violation_found

    def test_non_finite_map_rejected(self):
        choi = maps.identity_map(2).choi.copy()
        choi[0, 0] = np.nan
        with pytest.raises(NonFinite):
            maps.sk_sampler(maps.MapObject(2, 2, choi), 1, trials=2)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        # with no trial the sampler would report "no violation" untested
        with pytest.raises(InvalidOption):
            maps.sk_sampler(maps.identity_map(2), 1, trials=trials)

    def test_infeasible_point_is_no_violation(self, monkeypatch):
        # a projection that returns its indefinite input, outside both cones
        monkeypatch.setattr(dykstra, "project_intersection",
                            lambda x, pair, tol, max_iter: dykstra.DykstraResult(
                                point=x, residual=1.0, iterations=max_iter, converged=False))
        res = maps.sk_sampler(maps.identity_map(2), 2, trials=5, seed=0)
        assert not res.violation_found and res.witness is None and res.trials == 5

    def test_m3_map_has_sk_witness(self):
        """Targeted search exhibits the S_3 failure random sampling misses."""
        phi = choi_m3_map()
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 1)

        def proj_double_psd(c):
            return linalg.herm_part(dykstra.project_intersection(
                c, pair, tol=1e-12, max_iter=2000).point)

        choi4 = phi.choi.reshape(3, 3, 3, 3)
        rng = np.random.default_rng(1)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        c = proj_double_psd(g @ g.conj().T)
        c /= np.trace(c).real
        for _ in range(150):
            out = maps.amplify(phi, 3, c)
            _, vecs = np.linalg.eigh(linalg.herm_part(out))
            vv = np.outer(vecs[:, 0], vecs[:, 0].conj())
            grad = np.einsum("irjs,prqs->ipjq", vv.reshape(3, 3, 3, 3),
                             choi4.conj()).reshape(9, 9)
            c = proj_double_psd(c - 0.15 * grad)
            c /= np.trace(c).real
        assert linalg.psd_deficit(c) <= 1e-10
        assert linalg.psd_deficit(pair.pt(c)) <= 1e-8
        assert linalg.min_eig(maps.amplify(phi, 3, c)) < -0.01


class TestDecompose:
    def test_identity(self):
        res = maps.decompose(maps.identity_map(2))
        assert res.converged and res.residual <= 1e-8
        assert np.allclose(res.cp_part.choi, maps.identity_map(2).choi, atol=1e-6)

    def test_transposition(self):
        res = maps.decompose(maps.transposition_map(2))
        assert res.converged and res.residual <= 1e-8
        pt = linalg.partial_transpose(res.ccp_part.choi, TensorLayout((2, 2)), 2)
        assert linalg.psd_deficit(pt) <= 1e-7

    def test_random_mix(self):
        u, v = linalg.sample_unitary(3, 1), linalg.sample_unitary(3, 2)
        phi = maps.mix_maps(0.35, maps.adjoint_map(u),
                            maps.compose_transpose(maps.adjoint_map(v)))
        res = maps.decompose(phi, tol=1e-6)
        assert res.converged

    def test_m3_map_stagnates(self):
        res = maps.decompose(choi_m3_map(), tol=1e-6)
        assert not res.converged
        assert res.residual > 0.1
        assert res.stop_reason == "certified"

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-9, 9), seed=st.integers(0, 2**32 - 1))
    def test_scaled_m3_map_certified(self, k, seed):
        """No scale hides non-decomposability: Choi's map times 10^k, under
        random local unitaries, ends with a witness that checks from scratch."""
        local = np.kron(linalg.sample_unitary(3, seed), linalg.sample_unitary(3, seed + 1))
        choi = 10.0**k * local @ choi_m3_map().choi @ local.conj().T
        res = maps.decompose(maps.make_map(choi, 3, 3))
        assert res.stop_reason == "certified" and not res.converged
        assert_witness(res.witness, choi, TensorLayout((3, 3)))
        assert_split(res.cp_part.choi, res.ccp_part.choi, res.residual, choi,
                     TensorLayout((3, 3)))

    def test_small_scale_residual_is_relative(self):
        choi = 1e-6 * maps.identity_map(2).choi
        res = maps.decompose(maps.make_map(choi, 2, 2))
        assert res.converged and res.residual <= 1e-8 * np.linalg.norm(choi)

    @pytest.mark.parametrize("margin", [1e-1, 1e-3])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [2, 3])
    def test_block_positive_maps_decompose(self, n, seed, margin):
        """Størmer–Woronowicz oracle: every positive map M_2 -> M_2 or
        M_2 -> M_3 is decomposable.  C = H - (mu - margin) I is block
        positive, with mu the minimum of H over product vectors."""
        h = linalg.sample_hermitian(2 * n, seed)
        choi = h - (product_minimum(h, n) - margin) * np.eye(2 * n)
        res = maps.decompose(maps.make_map(choi, 2, n), tol=1e-8)
        assert res.stop_reason == "converged" and res.residual <= 1e-8
        assert_split(res.cp_part.choi, res.ccp_part.choi, res.residual, choi,
                     TensorLayout((2, n)))


class TestDetailedBalance:
    def test_identity_self_adjoint(self):
        md = modular.build_modular(linalg.sample_density(2, 3))
        db = maps.db_adjoint(maps.identity_map(2), md)
        assert db.holds
        assert np.allclose(db.adjoint.choi, maps.identity_map(2).choi, atol=1e-10)
        assert db.pairing_residual <= 1e-12

    def test_unitary_conjugation_tracial(self):
        w = linalg.sample_unitary(2, 9)
        md = modular.build_modular(np.eye(2) / 2)
        db = maps.db_adjoint(maps.adjoint_map(w), md)
        assert db.holds
        assert np.allclose(db.adjoint.choi, maps.adjoint_map(w.conj().T).choi,
                           atol=1e-10)

    def test_transposition_self_adjoint_tracial(self):
        md = modular.build_modular(np.eye(2) / 2)
        db = maps.db_adjoint(maps.transposition_map(2), md)
        assert db.holds
        assert np.allclose(db.adjoint.choi, maps.transposition_map(2).choi, atol=1e-10)


class TestTransfer:
    def test_identity_transfer(self):
        md = modular.build_modular(linalg.sample_density(2, 12))
        t = maps.transfer_operator(maps.identity_map(2), md, samples=5)
        assert np.allclose(t.matrix, np.eye(4))
        assert t.delta_commutation_residual <= 1e-12

    def test_trace_map_rank_one(self):
        md = modular.build_modular(np.eye(2) / 2)
        phi = maps.map_from_action(lambda a: np.trace(a) / 2 * np.eye(2), 2, 2)
        t = maps.transfer_operator(phi, md, samples=0)
        s = np.linalg.svd(t.matrix, compute_uv=False)
        assert int((s > 1e-10).sum()) == 1
        omega = md.rho_half.reshape(-1)
        assert np.allclose(t.matrix @ omega, omega)

    def test_cp_unital_delta_commutation(self):
        md = modular.build_modular(linalg.sample_density(2, 40))
        # conjugation by a rho-commuting unitary satisfies detailed balance
        u = md.eigenbasis @ np.diag(np.exp(1j * np.array([0.3, 1.1]))) @ md.eigenbasis.conj().T
        t = maps.transfer_operator(maps.adjoint_map(u), md, samples=10)
        assert t.db.holds
        assert t.delta_commutation_residual <= 1e-8
        assert t.cone_preservation_residual <= 1e-8


class TestConeCriteria:
    def test_identity_all_pass(self):
        md = modular.build_modular(np.eye(2) / 2)
        rep = maps.cone_criterion_check(maps.identity_map(2), md, k=2, trials=3, seed=0)
        assert rep.transfer.db.holds
        assert rep.worst("p") <= 1e-8
        assert rep.worst("hull") <= 1e-8

    def test_transposition_fails_p_at_level_two(self):
        md = modular.build_modular(np.eye(2) / 2)
        rep = maps.cone_criterion_check(maps.transposition_map(2), md, k=2,
                                        trials=5, seed=1)
        assert rep.levels[1]["p"] <= 1e-8
        assert rep.levels[2]["p"] >= 0.4
        assert rep.worst("pt") <= 1e-8
        assert rep.worst("hull") <= 1e-8

    def test_even_mix_hull_passes(self):
        md = modular.build_modular(np.eye(2) / 2)
        phi = maps.mix_maps(0.5, maps.identity_map(2), maps.transposition_map(2))
        rep = maps.cone_criterion_check(phi, md, k=2, trials=5, seed=2)
        assert rep.worst("hull") <= 1e-8

    def test_requires_detailed_balance(self):
        md = modular.build_modular(np.diag([0.8, 0.2]))
        # a generic unitary conjugation does not commute with this state
        phi = maps.adjoint_map(linalg.sample_unitary(2, 77))
        with pytest.raises(NoDetailedBalance):
            maps.cone_criterion_check(phi, md, k=1, trials=1, seed=0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        md = modular.build_modular(np.eye(2) / 2)
        with pytest.raises(InvalidOption):
            maps.cone_criterion_check(maps.identity_map(2), md, k=1, trials=trials, seed=0)
