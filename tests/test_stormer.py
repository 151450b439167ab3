import numpy as np
import pytest

from decomap import linalg, maps, stormer
from decomap.errors import InvalidOption, NotInFace, NotPositiveEvidence, NotUnital

from conftest import SIGMA_X

E1 = np.array([1.0, 0.0])
FACE_E1 = stormer.FaceSpec(xi=E1, eta=E1)


def ad_sigma_x():
    return maps.adjoint_map(SIGMA_X, label="ad-sx")


def diagonal_flip():
    return maps.map_from_action(
        lambda a: np.diag([a[1, 1], a[0, 0]]).astype(complex), 2, 2, label="diag-flip")


class TestFaceMembership:
    def test_ad_sigma_x_in_face(self):
        assert stormer.face_membership(ad_sigma_x(), FACE_E1)

    def test_identity_not_in_face(self):
        assert not stormer.face_membership(maps.identity_map(2), FACE_E1)

    def test_non_unital_not_in_face(self):
        phi = maps.map_from_action(lambda a: 2.0 * SIGMA_X @ a @ SIGMA_X, 2, 2)
        assert not stormer.face_membership(phi, FACE_E1)


class TestFaceSampler:
    def test_sample_in_face(self):
        phi = stormer.sample_face_map(FACE_E1, 1, seed=0)
        assert stormer.face_membership(phi, FACE_E1)

    def test_symmetric_example_members(self):
        phi, face = stormer.symmetric_face_example()
        assert stormer.face_membership(phi, face)
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(maps.apply_map(phi, e12),
                           (SIGMA_X @ e12 @ SIGMA_X + SIGMA_X @ e12.T @ SIGMA_X) / 2)

    def test_samples_positive(self):
        for seed in range(10):
            phi = stormer.sample_face_map(FACE_E1, 2, seed=seed)
            res = maps.k_positivity_search(phi, 1, restarts=8, seed=seed)
            assert not res.violation_found

    def test_random_faces(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            face = stormer.FaceSpec(xi=xi / np.linalg.norm(xi),
                                    eta=eta / np.linalg.norm(eta))
            phi = stormer.sample_face_map(face, 2, seed=seed)
            assert stormer.face_membership(phi, face)


class TestBuild:
    def test_ad_sigma_x_matrix(self):
        data = stormer.build_local_decomposition(ad_sigma_x(), E1, face=FACE_E1)
        assert data.face_case and data.k_dim == 4
        assert data.alpha == pytest.approx(np.sqrt(2.0))
        assert abs(data.beta) <= 1e-12
        expected = np.array([[0, 0, 1, 0], [np.sqrt(2.0), 0, 0, 0]])
        assert np.allclose(data.v_eta_face_matrix, expected, atol=1e-12)

    def test_symmetric_example_matrix(self):
        phi, face = stormer.symmetric_face_example()
        data = stormer.build_local_decomposition(phi, face.eta, face=face)
        r = 1.0 / np.sqrt(2.0)
        assert data.alpha == pytest.approx(r)
        assert data.beta == pytest.approx(r)
        expected = np.array([[0, 0, 1, 0], [r, r, 0, 0]])
        assert np.allclose(data.v_eta_face_matrix, expected, atol=1e-12)

    def test_basis_orthonormal_for_face_maps(self):
        for seed in range(10):
            phi = stormer.sample_face_map(FACE_E1, 2, seed=seed)
            data = stormer.build_local_decomposition(phi, E1, face=FACE_E1)
            assert data.basis_orthonormality_residual <= 1e-10

    def test_face_ideals(self):
        data = stormer.build_local_decomposition(ad_sigma_x(), E1, face=FACE_E1)
        assert len(data.left_ideal_basis) == 2
        assert len(data.right_ideal_basis) == 2
        for b in data.left_ideal_basis:       # left ideal M_2 e_11: second column 0
            assert np.allclose(b[:, 1], 0.0, atol=1e-10)
        for b in data.right_ideal_basis:      # right ideal e_11 M_2: second row 0
            assert np.allclose(b[1, :], 0.0, atol=1e-10)

    def test_jordan_property(self):
        rng = np.random.default_rng(3)
        phi = stormer.sample_face_map(FACE_E1, 2, seed=6)
        data = stormer.build_local_decomposition(phi, E1, face=FACE_E1)
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = data.rho_of(a @ b + b @ a)
            rhs = data.rho_of(a) @ data.rho_of(b) + data.rho_of(b) @ data.rho_of(a)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_rho_unital(self):
        phi = stormer.sample_face_map(FACE_E1, 2, seed=7)
        data = stormer.build_local_decomposition(phi, E1, face=FACE_E1)
        assert np.allclose(data.rho_of(np.eye(2)), np.eye(4), atol=1e-10)

    def test_generic_path_dimension(self):
        u, v = linalg.sample_unitary(2, 11), linalg.sample_unitary(2, 12)
        phi = maps.mix_maps(0.4, maps.adjoint_map(u),
                            maps.compose_transpose(maps.adjoint_map(v)))
        rng = np.random.default_rng(7)
        eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        eta /= np.linalg.norm(eta)
        data = stormer.build_local_decomposition(phi, eta)
        assert not data.face_case
        assert data.k_dim == 8
        assert data.v_lsq_residual <= 1e-10

    def test_rejects_non_unital(self):
        phi = maps.map_from_action(lambda a: 0.5 * a, 2, 2)
        with pytest.raises(NotUnital):
            stormer.build_local_decomposition(phi, E1)

    def test_rejects_non_positive(self):
        # unital but not positive: phi(e11) = diag(1.5, -0.5)
        phi = maps.map_from_action(
            lambda a: 2.0 * a - np.trace(a) / 2 * np.eye(2), 2, 2)
        with pytest.raises(NotPositiveEvidence):
            stormer.build_local_decomposition(phi, E1)


def reference_gram_blocks(phi, eta):
    """The 32-call loop that filled the Gram forms from omega_eta directly."""
    m = 2
    units = [(i, j) for i in range(m) for j in range(m)]
    gl = np.zeros((m * m, m * m), dtype=complex)
    gr = np.zeros((m * m, m * m), dtype=complex)
    for a, (i, j) in enumerate(units):
        for b, (p, q) in enumerate(units):
            ua, ub = linalg._unit(m, i, j), linalg._unit(m, p, q)
            gl[a, b] = 0.5 * stormer._omega(phi, eta, ua.conj().T @ ub)
            gr[a, b] = 0.5 * stormer._omega(phi, eta, ub @ ua.conj().T)
    return gl, gr


class TestGramBlocks:
    @pytest.mark.parametrize("case", ["face", "generic"])
    def test_match_omega_loop(self, case):
        rng = np.random.default_rng(21)
        eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        eta /= np.linalg.norm(eta)
        if case == "face":
            phi = stormer.sample_face_map(stormer.FaceSpec(xi=E1, eta=eta), 2, seed=3)
        else:
            u, v = linalg.sample_unitary(2, 11), linalg.sample_unitary(2, 12)
            phi = maps.mix_maps(0.4, maps.adjoint_map(u),
                                maps.compose_transpose(maps.adjoint_map(v)))
        w = np.array([[stormer._omega(phi, eta, linalg._unit(2, i, j)) for j in range(2)]
                      for i in range(2)])
        for got, want in zip(stormer._gram_blocks(w), reference_gram_blocks(phi, eta)):
            assert np.array_equal(got, want)


def reference_face_forms(phi, eta, xi):
    """Gram matrix and rho_eta(E_pq) of the face basis k1..k4, each inner
    product evaluated through phi itself: (omega(a1* b1) + omega(b2 a2*)) / 2."""
    xb = stormer.complete_basis(xi)
    e = {(i, j): np.outer(xb[:, i], xb[:, j].conj()) for i in range(2) for j in range(2)}
    s2 = np.sqrt(2)
    reps = [(s2 * e[0, 1], s2 * e[0, 1]), (s2 * e[1, 0], s2 * e[1, 0]),
            (e[1, 1], e[1, 1]), (e[1, 1], -e[1, 1])]

    def inner(pa, pb):
        return 0.5 * stormer._omega(phi, eta, pa[0].conj().T @ pb[0]) \
            + 0.5 * stormer._omega(phi, eta, pb[1] @ pa[1].conj().T)

    gram = np.array([[inner(ra, rb) for rb in reps] for ra in reps])
    rho = np.zeros((2, 2, 4, 4), dtype=complex)
    for p in range(2):
        for q in range(2):
            u = linalg._unit(2, p, q)
            for t, (r1, r2) in enumerate(reps):
                rho[p, q, :, t] = [inner(ra, (u @ r1, r2 @ u)) for ra in reps]
    return gram, rho


def locdec_oracle(phi, data, samples, seed):
    """Worst residual of phi(a) eta = V rho(a) V* eta, sample by sample."""
    v = data.v_eta
    v_star_eta = v.conj().T @ data.eta
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a /= np.linalg.norm(a)
        rho_a = sum(a[i, j] * data.rho_units[i, j] for i in range(2) for j in range(2))
        lhs = maps.apply_map(phi, a) @ data.eta
        worst = max(worst, float(np.linalg.norm(lhs - v @ (rho_a @ v_star_eta))))
    return worst


def face_cases():
    rng = np.random.default_rng(31)
    cases = [stormer.symmetric_face_example(), (ad_sigma_x(), FACE_E1)]
    for seed in range(3):
        xi, eta = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        face = stormer.FaceSpec(xi=xi / np.linalg.norm(xi), eta=eta / np.linalg.norm(eta))
        cases.append((stormer.sample_face_map(face, 2, seed=seed), face))
    return cases


class TestFaceFromOmega:
    @pytest.mark.parametrize("case", range(5))
    def test_forms_match_per_entry_omega(self, case):
        phi, face = face_cases()[case]
        data = stormer.build_local_decomposition(phi, face.eta, face=face)
        assert data.face_case
        gram, rho = reference_face_forms(phi, face.eta, face.xi)
        assert np.max(np.abs(data.rho_units - rho)) <= 1e-12
        ortho = np.max(np.abs(gram - np.eye(4)))
        assert abs(data.basis_orthonormality_residual - ortho) <= 1e-12

    def test_face_build_evaluates_phi_a_few_times(self, monkeypatch):
        calls = [0]
        inner = stormer.apply_map

        def counted(phi, a):
            calls[0] += 1
            return inner(phi, a)

        monkeypatch.setattr(stormer, "apply_map", counted)
        phi, face = stormer.symmetric_face_example()
        data = stormer.build_local_decomposition(phi, face.eta, face=face)
        assert data.face_case
        assert calls[0] <= 12

    @pytest.mark.parametrize("case", ["face", "generic"])
    def test_rho_of_stack(self, case, rng):
        if case == "face":
            phi, face = stormer.symmetric_face_example()
            data = stormer.build_local_decomposition(phi, face.eta, face=face)
        else:
            u, v = linalg.sample_unitary(2, 11), linalg.sample_unitary(2, 12)
            phi = maps.mix_maps(0.4, maps.adjoint_map(u),
                                maps.compose_transpose(maps.adjoint_map(v)))
            data = stormer.build_local_decomposition(phi, np.array([0.6, 0.8]))
        assert data.rho_units.shape == (2, 2, data.k_dim, data.k_dim)
        a = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        stacked = data.rho_of(a)
        for s in range(5):
            want = sum(a[s, i, j] * data.rho_units[i, j] for i in range(2) for j in range(2))
            assert np.max(np.abs(stacked[s] - want)) <= 1e-14 * np.linalg.norm(a[s])
            assert np.array_equal(stacked[s], data.rho_of(a[s]))


class TestVerifyOracle:
    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("samples,seed", [(1, 0), (20, 4), (100, 0)])
    def test_matches_sample_loop(self, case, samples, seed):
        phi, face = face_cases()[case]
        data = stormer.build_local_decomposition(phi, face.eta, face=face)
        rep = stormer.verify_locdec(phi, face.eta, samples, seed=seed, data=data)
        assert rep.samples == samples
        assert abs(rep.max_residual - locdec_oracle(phi, data, samples, seed)) <= 1e-12

    def test_generic_case(self):
        u, v = linalg.sample_unitary(2, 11), linalg.sample_unitary(2, 12)
        phi = maps.mix_maps(0.4, maps.adjoint_map(u),
                            maps.compose_transpose(maps.adjoint_map(v)))
        eta = np.array([0.6, 0.8j])
        data = stormer.build_local_decomposition(phi, eta)
        assert not data.face_case
        rep = stormer.verify_locdec(phi, eta, 30, seed=2, data=data)
        assert abs(rep.max_residual - locdec_oracle(phi, data, 30, 2)) <= 1e-12


class TestVerify:
    def test_ad_sigma_x(self):
        rep = stormer.verify_locdec(ad_sigma_x(), E1, 100, seed=0)
        assert rep.max_residual <= 1e-10

    def test_identity(self):
        rep = stormer.verify_locdec(maps.identity_map(2), E1, 50, seed=1)
        assert rep.max_residual <= 1e-10

    def test_face_maps_with_random_eta(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            phi = stormer.sample_face_map(FACE_E1, 2, seed=seed)
            eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            eta /= np.linalg.norm(eta)
            rep = stormer.verify_locdec(phi, eta, 20, seed=seed)
            assert rep.max_residual <= 1e-9

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(InvalidOption):
            stormer.verify_locdec(ad_sigma_x(), E1, samples, seed=0)


class TestProp41:
    def test_symmetric_example_holds(self):
        phi, face = stormer.symmetric_face_example()
        rep = stormer.check_prop41(phi, face)
        assert rep.conditions_hold and rep.equality_holds
        assert not rep.inconsistent
        assert rep.global_residual <= 1e-10
        assert rep.alpha == pytest.approx(1 / np.sqrt(2.0))
        assert rep.beta == pytest.approx(1 / np.sqrt(2.0))

    def test_ad_sigma_x_fails_consistently(self):
        rep = stormer.check_prop41(ad_sigma_x(), FACE_E1)
        assert not rep.conditions_hold and not rep.equality_holds
        assert not rep.inconsistent
        # the trace condition fails by exactly 1 and so does the equality at eta2
        assert rep.alfabeta_residual == pytest.approx(1.0)
        assert rep.eta2_residuals["e11"] == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_flip_fails_consistently(self):
        rep = stormer.check_prop41(diagonal_flip(), FACE_E1)
        assert not rep.conditions_hold and not rep.equality_holds
        assert not rep.inconsistent
        assert rep.alfabeta_residual == pytest.approx(1.0)

    def test_sampled_face_maps_consistent(self):
        for seed in range(10):
            phi = stormer.sample_face_map(FACE_E1, 2, seed=seed)
            rep = stormer.check_prop41(phi, FACE_E1)
            assert not rep.inconsistent

    def test_rejects_map_outside_face(self):
        with pytest.raises(NotInFace):
            stormer.check_prop41(maps.identity_map(2), FACE_E1)
