import numpy as np
import pytest

from decomap import linalg, maps, stormer
from decomap.linalg import DEFAULT
from decomap.errors import (InvalidOption, NotInFace, NotPositiveEvidence, NotUnital,
                            ShapeMismatch)

from conftest import SIGMA_X, unit

E1 = np.array([1.0, 0.0])
FACE_E1 = stormer.FaceSpec(xi=E1, eta=E1)


def ad_sigma_x():
    return maps.adjoint_map(SIGMA_X, label="ad-sx")


def mixed_map():
    """0.4 ad(u) + 0.6 ad(v) o t: positive and unital, not in a face at a random eta."""
    u, v = linalg.sample_unitary(2, 11), linalg.sample_unitary(2, 12)
    return maps.mix_maps(0.4, maps.adjoint_map(u), maps.compose_transpose(maps.adjoint_map(v)))


def both_paths():
    """A face map at its face vector e1 and the mixed map at a complex eta."""
    return [(stormer.sample_face_map(FACE_E1, 2, seed=6), E1, True),
            (mixed_map(), np.array([0.6, 0.8j]), False)]


def diagonal_flip():
    return maps.map_from_action(
        lambda a: np.diag([a[1, 1], a[0, 0]]).astype(complex), 2, 2, label="diag-flip")


def in_face(phi, face, tol=DEFAULT.cone):
    """The face conditions, evaluated through maps.apply_map independently of
    the construction: phi is unital and phi(xi xi*) eta = 0."""
    unital = np.linalg.norm(maps.apply_map(phi, np.eye(2)) - np.eye(2))
    killed = np.linalg.norm(maps.apply_map(phi, np.outer(face.xi, face.xi.conj())) @ face.eta)
    return unital <= tol and killed <= tol


def build_takes_face_path(phi, face):
    return stormer.build_local_decomposition(phi, face.eta, face=face).face_case


class TestFaceMembership:
    """The build's face test against the oracle: the build takes the face
    path exactly on the maps the oracle puts in the face."""

    def test_ad_sigma_x_in_face(self):
        assert in_face(ad_sigma_x(), FACE_E1)
        assert build_takes_face_path(ad_sigma_x(), FACE_E1)

    def test_identity_not_in_face(self):
        assert not in_face(maps.identity_map(2), FACE_E1)
        assert not build_takes_face_path(maps.identity_map(2), FACE_E1)

    def test_non_unital_not_in_face(self):
        phi = maps.map_from_action(lambda a: 2.0 * SIGMA_X @ a @ SIGMA_X, 2, 2)
        assert not in_face(phi, FACE_E1)
        with pytest.raises(NotUnital):
            build_takes_face_path(phi, FACE_E1)


class TestFaceSampler:
    def test_sample_in_face(self):
        phi = stormer.sample_face_map(FACE_E1, 1, seed=0)
        assert in_face(phi, FACE_E1)
        assert build_takes_face_path(phi, FACE_E1)

    @pytest.mark.parametrize("terms", [0, -1])
    def test_no_terms_rejected(self, terms):
        """No term leaves the zero map, which is not unital."""
        with pytest.raises(InvalidOption):
            stormer.sample_face_map(FACE_E1, terms, seed=0)

    def test_symmetric_example_members(self):
        phi, face = stormer.symmetric_face_example()
        assert in_face(phi, face)
        assert build_takes_face_path(phi, face)
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
            assert in_face(phi, face)
            assert build_takes_face_path(phi, face)


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
        for phi, eta, face_case in both_paths():
            data = stormer.build_local_decomposition(phi, eta)
            assert data.face_case == face_case
            for _ in range(5):
                a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                lhs = data.rho_of(a @ b + b @ a)
                rhs = data.rho_of(a) @ data.rho_of(b) + data.rho_of(b) @ data.rho_of(a)
                assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_rho_unital(self):
        for phi, eta, face_case in both_paths():
            data = stormer.build_local_decomposition(phi, eta)
            assert data.face_case == face_case
            assert np.allclose(data.rho_of(np.eye(2)), np.eye(data.k_dim), atol=1e-10)

    def test_generic_path_dimension(self):
        phi = mixed_map()
        rng = np.random.default_rng(7)
        eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        eta /= np.linalg.norm(eta)
        data = stormer.build_local_decomposition(phi, eta)
        assert not data.face_case
        assert data.k_dim == 8
        assert data.v_lsq_residual <= 1e-10

    @pytest.mark.parametrize("case", ["mixed", 1e-2, 1e-3, 1e-4, 1e-5])
    def test_generic_rho_is_rep_plus_antirep(self, case):
        """In the generic basis rho_eta(a) = (I_r (x) a) (+) (I_r (x) a)^T.
        The mixed map is 0.4 ad(sx) + 0.6 ad(v) o t, v a real rotation, at
        eta = (0.6, 0.8i); the others are the sigma_x example at eta = e1 +
        delta (0, 1 + 0.5i), near its face, where lam_min(w) = delta^2 / 4.
        At delta = 1e-5 that falls below the kernel cutoff: w reads rank one
        and K_eta four dimensional, and V_eta misses phi by about delta / 2."""
        if case == "mixed":
            v = np.array([[0.6, 0.8], [-0.8, 0.6]])
            phi = maps.mix_maps(0.4, ad_sigma_x(),
                                maps.compose_transpose(maps.adjoint_map(v)))
            eta = np.array([0.6, 0.8j])
        else:
            phi = stormer.symmetric_face_example()[0]
            eta = np.array([1.0, case * (1 + 0.5j)])
            eta /= np.linalg.norm(eta)
        data = stormer.build_local_decomposition(phi, eta)
        assert not data.face_case
        r = data.k_dim // 4
        for p in range(2):
            for q in range(2):
                rep = np.kron(np.eye(r), unit(2, p, q))
                want = np.zeros((4 * r, 4 * r), dtype=complex)
                want[:2 * r, :2 * r], want[2 * r:, 2 * r:] = rep, rep.T
                assert np.max(np.abs(data.rho_units[p, q] - want)) <= 1e-12
        if case == 1e-5:
            assert data.k_dim == 4
        else:
            assert data.k_dim == 8
            assert data.v_lsq_residual <= 1e-12

    @pytest.mark.parametrize("eps, face_case, ideal, k_dim", [
        (5e-11, True, 2, 4), (1.5e-10, True, 2, 4), (3e-10, False, 0, 8)])
    def test_one_kernel_cut(self, eps, face_case, ideal, k_dim):
        """(1 − ε)·sigma_x example + ε·identity at e1, no face given: lam_0
        of w is ε.  One cut at lam / 2 < DEFAULT.kernel decides the ideals,
        K_eta and the face candidate, so where u_0 is null for the ideals
        (ε = 1.5e-10) the face path is taken too, with residuals of order ε."""
        sym = stormer.symmetric_face_example()[0]
        phi = maps.make_map((1 - eps) * sym.choi + eps * maps.identity_map(2).choi, 2, 2)
        data = stormer.build_local_decomposition(phi, E1)
        assert data.face_case == face_case
        assert (len(data.left_ideal_basis), len(data.right_ideal_basis)) == (ideal, ideal)
        assert data.k_dim == k_dim
        assert data.basis_orthonormality_residual <= 2 * eps
        assert data.v_lsq_residual <= 2.7e-10

    def test_rejects_non_unital(self):
        phi = maps.map_from_action(lambda a: 0.5 * a, 2, 2)
        with pytest.raises(NotUnital):
            stormer.build_local_decomposition(phi, E1)

    @pytest.mark.parametrize("eta,xi", [([1.0, 0.0, 0.0], None),
                                        ([1.0, 0.0, 0.0], [1.0, 0.0]),
                                        ([1.0, 0.0], [1.0, 0.0, 0.0]),
                                        ([1.0], None),
                                        ([np.nan, 0.0], None),
                                        ([1.0, 0.0], [np.nan, 0.0])],
                             ids=["eta-3", "eta-3-xi-2", "xi-3", "eta-1", "eta-nan",
                                  "xi-nan"])
    def test_rejects_vectors_not_in_c2(self, eta, xi):
        """A vector of length other than 2, or with a NaN entry (whose norm
        compares false with everything), is a ShapeMismatch."""
        with pytest.raises(ShapeMismatch):
            face = None if xi is None else stormer.FaceSpec(xi=xi, eta=eta)
            stormer.build_local_decomposition(maps.identity_map(2), eta, face=face)

    def test_rejects_non_positive(self):
        # unital but not positive: phi(e11) = diag(1.5, -0.5)
        phi = maps.map_from_action(
            lambda a: 2.0 * a - np.trace(a) / 2 * np.eye(2), 2, 2)
        with pytest.raises(NotPositiveEvidence):
            stormer.build_local_decomposition(phi, E1)


def omega(phi, eta, a):
    """omega_eta(a) = <eta, phi(a) eta>, of a or of each matrix of a stack,
    evaluated through maps.apply_map, independently of the construction."""
    return eta.conj() @ maps.apply_map(phi, a) @ eta


def reference_gram_blocks(phi, eta):
    """The 32-call loop that filled the Gram forms from omega_eta directly."""
    m = 2
    units = [(i, j) for i in range(m) for j in range(m)]
    gl = np.zeros((m * m, m * m), dtype=complex)
    gr = np.zeros((m * m, m * m), dtype=complex)
    for a, (i, j) in enumerate(units):
        for b, (p, q) in enumerate(units):
            ua, ub = unit(m, i, j), unit(m, p, q)
            gl[a, b] = 0.5 * omega(phi, eta, ua.conj().T @ ub)
            gr[a, b] = 0.5 * omega(phi, eta, ub @ ua.conj().T)
    return gl, gr


def oracle_gram(phi, eta):
    """blockdiag(gl, gr): the inner product of K_eta on pairs (a1, a2)."""
    gram = np.zeros((8, 8), dtype=complex)
    gram[:4, :4], gram[4:, 4:] = reference_gram_blocks(phi, eta)
    return gram


def spectral_basis(phi, eta):
    """K_eta's basis from the spectrum of w, as the rows of a K x 8 array of
    pairs (a1, a2): Gram eigenmatrices over sqrt(lam_k / 2), left ones first."""
    w = omega(phi, eta, np.eye(4, dtype=complex).reshape(2, 2, 2, 2))
    return basis_of_spectrum(*np.linalg.eigh(linalg.herm_part(w)))


def basis_of_spectrum(lam, u):
    """spectral_basis from a given eigendecomposition (lam, u)."""
    keep = lam / 2 > DEFAULT.kernel
    left, right = stormer._eigenmatrices(u[:, keep] / np.sqrt(lam[keep] / 2))
    zero = np.zeros((len(left), 4))
    return np.concatenate([np.hstack([left.reshape(-1, 4), zero]),
                           np.hstack([zero, right.reshape(-1, 4)])])


class TestGramBlocks:
    """The spectral construction against the Gram forms filled from omega_eta."""

    @pytest.mark.parametrize("case", ["face", "generic"])
    def test_match_omega_loop(self, case):
        rng = np.random.default_rng(21)
        eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        eta /= np.linalg.norm(eta)
        if case == "face":
            phi = stormer.sample_face_map(stormer.FaceSpec(xi=E1, eta=eta), 2, seed=3)
        else:
            phi = mixed_map()
        data = stormer.build_local_decomposition(phi, eta)
        assert data.face_case == (case == "face")
        gram = oracle_gram(phi, eta)
        for g, basis in ((gram[:4, :4], data.left_ideal_basis),
                         (gram[4:, 4:], data.right_ideal_basis)):
            assert len(basis) == np.sum(np.linalg.eigvalsh(g) < DEFAULT.kernel)
            for b in basis:
                assert np.linalg.norm(b) == pytest.approx(1.0)
                assert np.linalg.norm(g @ b.reshape(-1)) <= 1e-12
        basis = spectral_basis(phi, eta)
        assert len(basis) == 8 - len(data.left_ideal_basis) - len(data.right_ideal_basis)
        assert np.max(np.abs(basis.conj() @ gram @ basis.T - np.eye(len(basis)))) <= 1e-12

    @pytest.mark.parametrize("eta", [np.array([0.6, 0.8j]), np.array([1.0, 0.0]),
                                     np.array([1.0, 1.0]) / np.sqrt(2.0)])
    def test_generic_path_in_oracle_basis(self, eta):
        """rho_eta(E_pq) is left / right multiplication by E_pq read in the basis
        through the oracle Gram forms, and V_eta maps the coordinates of
        (E_pq, E_pq) to phi(E_pq) eta."""
        phi = mixed_map()
        data = stormer.build_local_decomposition(phi, eta)
        assert not data.face_case and data.k_dim == 8
        gram = oracle_gram(phi, eta)
        basis = spectral_basis(phi, eta).T                          # 8 x K
        for p in range(2):
            for q in range(2):
                e = unit(2, p, q)
                act = np.zeros((8, 8), dtype=complex)
                act[:4, :4], act[4:, 4:] = np.kron(e, np.eye(2)), np.kron(np.eye(2), e.T)
                rho = basis.conj().T @ gram @ act @ basis
                assert np.max(np.abs(data.rho_units[p, q] - rho)) <= 1e-12
                coords = basis.conj().T @ gram @ np.concatenate([e.reshape(-1)] * 2)
                image = maps.apply_map(phi, e) @ eta
                assert np.linalg.norm(data.v_eta @ coords - image) <= 1e-12


class TestOneEigh:
    @pytest.mark.parametrize("case", ["generic", "face-given", "face-detected"])
    def test_one_2x2_eigh_outside_seesaw(self, case, monkeypatch):
        """The construction makes one eigh, of w; the positivity see-saw's
        are stacks of its live restarts."""
        if case == "generic":
            phi, eta, face = mixed_map(), np.array([0.6, 0.8j]), None
        else:
            phi, face = stormer.symmetric_face_example()
            eta, face = face.eta, (face if case == "face-given" else None)
        shapes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        data = stormer.build_local_decomposition(phi, eta, face=face)
        assert data.face_case == (case != "generic")
        assert [s for s in shapes if len(s) == 2] == [(2, 2)]
        assert all(len(s) == 3 and s[0] <= 8 and s[1:] == (2, 2)
                   for s in shapes if len(s) != 2)


def face_pairs(phi, eta, xi):
    """The face basis k1..k4 as pairs (a1, a2), and the inner product of
    K_eta evaluated through phi itself: (omega(a1* b1) + omega(b2 a2*)) / 2."""
    xb = stormer.complete_basis(xi)
    e = {(i, j): np.outer(xb[:, i], xb[:, j].conj()) for i in range(2) for j in range(2)}
    s2 = np.sqrt(2)
    reps = [(s2 * e[0, 1], s2 * e[0, 1]), (s2 * e[1, 0], s2 * e[1, 0]),
            (e[1, 1], e[1, 1]), (e[1, 1], -e[1, 1])]

    def inner(pa, pb):
        return 0.5 * omega(phi, eta, pa[0].conj().T @ pb[0]) \
            + 0.5 * omega(phi, eta, pb[1] @ pa[1].conj().T)
    return reps, inner


def reference_face_forms(phi, eta, xi):
    """Gram matrix and rho_eta(E_pq) of the face basis k1..k4, each inner
    product evaluated through phi itself."""
    reps, inner = face_pairs(phi, eta, xi)
    gram = np.array([[inner(ra, rb) for rb in reps] for ra in reps])
    rho = np.zeros((2, 2, 4, 4), dtype=complex)
    for p in range(2):
        for q in range(2):
            u = unit(2, p, q)
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


class TestMeasuredResiduals:
    """The orthonormality and V_eta residuals are measured on both paths, each
    against an oracle that reads K_eta's inner product through phi.  Moving
    the input off the construction's assumptions by delta makes each of
    them about delta, so a residual reported as a constant would fail."""

    @pytest.mark.parametrize("delta", [0.0, 1e-6, 1e-3])
    def test_generic_orthonormality(self, delta):
        """max|G - I| over the kept basis, here read off the spectrum of
        w + delta·H, under the Gram forms filled from omega_eta."""
        phi, eta = mixed_map(), np.array([0.6, 0.8j])
        units = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)
        w = omega(phi, eta, units)
        lam, u = np.linalg.eigh(linalg.herm_part(w) + delta * linalg.sample_hermitian(2, 5))
        big_phi = maps.apply_map(phi, units) @ eta
        data = stormer._build_generic(big_phi, eta, w, lam, u, [], [])
        basis = basis_of_spectrum(lam, u)
        oracle = np.max(np.abs(basis.conj() @ oracle_gram(phi, eta) @ basis.T
                               - np.eye(len(basis))))
        assert abs(data.basis_orthonormality_residual - oracle) <= 1e-12
        assert (oracle >= delta / 10) if delta else (oracle <= 1e-12)

    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("delta", [0.0, 1e-5])
    def test_face_lsq_residual(self, case, delta):
        """||V_eta D - Phi|| with D the k1..k4 coordinates of the pairs
        (E_ij, E_ij) and Phi the phi(E_ij) eta; xi is moved off the face by
        delta, and tol raised to 1e-3 so that the face path still runs."""
        phi, face = face_cases()[case]
        xi = face.xi + delta * np.array([1.0, 1.0j])
        xi /= np.linalg.norm(xi)
        data = stormer.build_local_decomposition(
            phi, face.eta, face=stormer.FaceSpec(xi=xi, eta=face.eta), tol=1e-3)
        assert data.face_case
        reps, inner = face_pairs(phi, face.eta, xi)
        units = [unit(2, i, j) for i in range(2) for j in range(2)]
        coords = np.array([[inner(k, (e, e)) for e in units] for k in reps])
        images = np.array([maps.apply_map(phi, e) @ face.eta for e in units]).T
        oracle = np.linalg.norm(data.v_eta @ coords - images)
        assert abs(data.v_lsq_residual - oracle) <= 1e-12
        assert (oracle >= delta / 100) if delta else (oracle <= 1e-12)


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

    @staticmethod
    def count_evaluations(monkeypatch):
        calls = [0]
        inner = stormer.apply_map

        def counted(phi, a):
            calls[0] += 1
            return inner(phi, a)

        monkeypatch.setattr(stormer, "apply_map", counted)
        return calls

    def test_face_build_evaluates_phi_a_few_times(self, monkeypatch):
        """One build applies phi once, to the stack of matrix units, on the
        face path (face given or detected) and on the generic path."""
        phi, face = stormer.symmetric_face_example()
        calls = self.count_evaluations(monkeypatch)
        for eta, given, face_case in ((face.eta, face, True), (face.eta, None, True),
                                      (np.array([0.6, 0.8j]), None, False)):
            calls[0] = 0
            data = stormer.build_local_decomposition(phi, eta, face=given)
            assert data.face_case == face_case
            assert calls[0] == 1

    def test_prop41_evaluates_phi_twice(self, monkeypatch):
        """One build, which also decides the face, and one for phi(e)."""
        phi, face = stormer.symmetric_face_example()
        calls = self.count_evaluations(monkeypatch)
        stormer.check_prop41(phi, face)
        assert calls[0] == 2

    @pytest.mark.parametrize("case", ["face", "generic"])
    def test_rho_of_stack(self, case, rng):
        if case == "face":
            phi, face = stormer.symmetric_face_example()
            data = stormer.build_local_decomposition(phi, face.eta, face=face)
        else:
            phi = mixed_map()
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
        rep = stormer.verify_locdec(phi, data, samples, seed=seed)
        assert rep.samples == samples
        assert abs(rep.max_residual - locdec_oracle(phi, data, samples, seed)) <= 1e-12

    def test_generic_case(self):
        phi = mixed_map()
        eta = np.array([0.6, 0.8j])
        data = stormer.build_local_decomposition(phi, eta)
        assert not data.face_case
        rep = stormer.verify_locdec(phi, data, 30, seed=2)
        assert abs(rep.max_residual - locdec_oracle(phi, data, 30, 2)) <= 1e-12


class TestVerify:
    def test_ad_sigma_x(self):
        data = stormer.build_local_decomposition(ad_sigma_x(), E1, seed=0)
        rep = stormer.verify_locdec(ad_sigma_x(), data, 100, seed=0)
        assert rep.max_residual <= 1e-10

    def test_identity(self):
        data = stormer.build_local_decomposition(maps.identity_map(2), E1, seed=1)
        rep = stormer.verify_locdec(maps.identity_map(2), data, 50, seed=1)
        assert rep.max_residual <= 1e-10

    def test_face_maps_with_random_eta(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            phi = stormer.sample_face_map(FACE_E1, 2, seed=seed)
            eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            eta /= np.linalg.norm(eta)
            data = stormer.build_local_decomposition(phi, eta, seed=seed)
            rep = stormer.verify_locdec(phi, data, 20, seed=seed)
            assert rep.max_residual <= 1e-9

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        data = stormer.build_local_decomposition(ad_sigma_x(), E1)
        with pytest.raises(InvalidOption):
            stormer.verify_locdec(ad_sigma_x(), data, samples, seed=0)


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

    @pytest.mark.parametrize("action,error", [
        (lambda a: 2.0 * a, NotUnital),
        (lambda a: 0.5 * a + 0.5 * SIGMA_X @ a @ SIGMA_X, NotInFace),
        (lambda a: 1.5 * a - 0.5 * a.T, NotPositiveEvidence),
        (lambda a: 1.5 * SIGMA_X @ a @ SIGMA_X - 0.5 * SIGMA_X @ a.T @ SIGMA_X,
         NotPositiveEvidence),
        (lambda a: 2.0 * SIGMA_X @ a @ SIGMA_X, NotUnital),
    ], ids=["2id", "half-id-half-ad-sx", "not-positive-outside-face",
            "not-positive-in-face", "2ad-sx"])
    def test_error_table(self, action, error):
        """The build's checks come first: unital, then positive, then the
        face, so a map that fails one of the first two says which."""
        with pytest.raises(error):
            stormer.check_prop41(maps.map_from_action(action, 2, 2), FACE_E1)
