"""Local decomposition of positive unital maps at a fixed vector.

Given a positive unital phi: M_2 -> M_2 and a unit vector eta, the state
omega_eta(a) = <eta, phi(a) eta> induces a left ideal L, a right ideal R,
the quotient Hilbert space K_eta = M_2/L + M_2/R with its averaged inner
product, a unital Jordan morphism rho_eta and an operator V_eta with
phi(a) eta = V_eta rho_eta(a) V_eta* eta.  phi is applied once, to the
stack of matrix units, and all the construction takes from phi is read
from Phi[i, j] = phi(E_ij) eta.  The state is held as the 2 x 2 matrix
w[i, j] = omega_eta(E_ij) = <eta, Phi[i, j]> (density matrix w^T), and
all of it comes from one eigh w = u diag(lam) u*: the Gram forms
I (x) w / 2, w^T (x) I / 2 have eigenvalue lam_k / 2 on outer(e_i, u_k),
outer(conj(u_k), e_j), which span L and R at the null vectors of w and,
scaled, are an orthonormal basis of K_eta at the others.  One assembly
takes that basis, or the face case's below, as pairs k_s = (r0[s], r1[s])
and reads rho_eta(E_pq), the Gram residual and the coordinates of the
pairs (E_ij, E_ij) from w by the same contractions.  In the generic basis
rho_eta(a) is (I_r (x) a) (+) (I_r (x) a)^T, a representation plus an
anti-representation; any rho_eta is stored as the (2, 2, K, K) array of
rho_eta(E_ij).

When phi lies in a maximal face (phi(|xi><xi|) eta = 0) the ideals are
known exactly, K_eta is four dimensional with an explicit orthonormal
basis, and V_eta, read from Phi, is a two-by-four array whose entries
decide whether the local identity upgrades to the global equality
phi(a) = V_eta rho_eta(a) V_eta* (the trace-condition iff).  Face
membership is decided only by the build, from Phi, and check_prop41 is
one build plus one evaluation of phi on the matrix units along xi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NotInFace,
    NotPositiveEvidence,
    NotUnital,
    ShapeMismatch,
)
from .linalg import DEFAULT
from .maps import (
    MapObject,
    adjoint_map,
    apply_map,
    compose_transpose,
    k_positivity_search,
    map_from_action,
)

_UNIT_TOL = 1e-12           # |‖v‖ − 1| accepted: a unit vector given to twelve digits
_PHASE_FLOOR = 1e-12        # |alpha| below this has no phase worth pinning
_RCOND = 1e-10              # pinv cutoff for V_eta, relative to d_mat's top singular value


def _unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= _UNIT_TOL:     # NaN fails too
        raise ShapeMismatch(f"vector must be normalized, |v| = {norm}")
    return v


def complete_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis whose first column is v (phase preserved)."""
    n = v.shape[0]
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(n)])[:, :n])
    phase = v.conj() @ q[:, 0]
    q[:, 0] = q[:, 0] * (phase.conjugate() / abs(phase))
    return q


@dataclass(frozen=True)
class FaceSpec:
    """Maximal face data: the defining pair of unit vectors."""

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", _unit_vector(self.xi))
        object.__setattr__(self, "eta", _unit_vector(self.eta))


def sample_face_map(face: FaceSpec, terms: int, seed: int) -> MapObject:
    """Random positive unital member of the face.

    Convex combination of ``terms`` conjugations a -> U a U* with U xi
    orthogonal to eta, and as many co-conjugations a -> V a^t V* with
    V conj(xi) orthogonal to eta; both constraints make the face condition
    exact by construction.  InvalidOption unless terms ≥ 1 and seed ≥ 0 are integers.
    """
    linalg._check_count("terms", terms)
    linalg._check_count("seed", seed, least=0)
    if face.xi.shape[0] != 2 or face.eta.shape[0] != 2:
        raise DimensionMismatch("face sampling is implemented for m = n = 2")
    rng = np.random.default_rng(seed)
    eta1, eta2 = complete_basis(face.eta).T
    xi1, xi2 = complete_basis(face.xi).T
    xic = face.xi.conj()
    xic_basis = complete_basis(xic / np.linalg.norm(xic))
    xic1, xic2 = xic_basis.T

    def constrained_unitary(src1, src2):
        # maps src1 -> phase * eta2 (orthogonal to eta), src2 -> phase * eta1
        th1, th2 = rng.uniform(0, 2 * np.pi, size=2)
        return (np.exp(1j * th1) * np.outer(eta2, src1.conj())
                + np.exp(1j * th2) * np.outer(eta1, src2.conj()))

    weights = rng.dirichlet(np.ones(2 * terms))
    side = 4
    choi = np.zeros((side, side), dtype=complex)
    for t in range(terms):
        u = constrained_unitary(xi1, xi2)
        choi += weights[t] * adjoint_map(u).choi
        v = constrained_unitary(xic1, xic2)
        choi += weights[terms + t] * compose_transpose(adjoint_map(v)).choi
    return MapObject(2, 2, choi, label=f"face-sample:{seed}")


def symmetric_face_example() -> tuple[MapObject, FaceSpec]:
    """The equal-weight sigma_x example in the face of (e1, e1)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    phi = map_from_action(lambda a: 0.5 * sx @ a @ sx + 0.5 * sx @ a.T @ sx, 2, 2,
                          label="sym-face")
    face = FaceSpec(xi=np.array([1.0, 0.0]), eta=np.array([1.0, 0.0]))
    return phi, face


@dataclass
class StormerData:
    """All objects of the local-decomposition construction."""

    left_ideal_basis: list[np.ndarray]
    right_ideal_basis: list[np.ndarray]
    k_dim: int
    rho_units: np.ndarray                      # (2, 2, k_dim, k_dim): rho_eta(E_ij)
    v_eta: np.ndarray                          # dim_out x k_dim, standard basis
    eta: np.ndarray
    eta_basis: np.ndarray
    face_case: bool
    alpha: complex | None
    beta: complex | None
    v_eta_face_matrix: np.ndarray | None       # 2 x 4 in the (k, eta) bases
    basis_orthonormality_residual: float
    v_lsq_residual: float
    v_norm: float

    def rho_of(self, a: np.ndarray) -> np.ndarray:
        """Jordan morphism matrix of a, or of each matrix of a stack, by linearity."""
        return np.einsum("...ij,ijkl->...kl", a, self.rho_units)


def _units_along(xi: np.ndarray) -> np.ndarray:
    """Matrix units of the basis x_1 = xi, x_2 as one stack: e[i, j] = x_i x_j*."""
    xb = complete_basis(xi)
    return np.einsum("pi,qj->ijpq", xb, xb.conj())


def _eigenmatrices(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """outer(e_i, x_k) and outer(conj(x_k), e_j) for each column x_k of x, as
    stacks in the order (k, i) and (k, j).  For an eigenvector x_k of w they
    are eigenmatrices of the Gram forms I (x) w / 2 and w^T (x) I / 2."""
    eye = np.eye(len(x))
    left = np.einsum("ip,qk->kipq", eye, x)
    right = np.einsum("pk,jq->kjpq", x.conj(), eye)
    return left.reshape(-1, *eye.shape), right.reshape(-1, *eye.shape)


def build_local_decomposition(
    phi: MapObject,
    eta,
    face: FaceSpec | None = None,
    seed: int = 0,
    tol: float = DEFAULT.cone,
) -> StormerData:
    """Carry out the quotient construction for (phi, eta).

    One eigh of w gives the ideal bases (Gram eigenvalue lam_k / 2 below
    ``DEFAULT.kernel``) and the face candidate conj(u_0), the kernel vector
    of the density matrix w^T when lam_0 is below ``DEFAULT.kernel``.  In a
    maximal face (detected that way or supplied explicitly) the explicit
    four-element basis is emitted; otherwise K_eta has the basis of the
    other Gram eigenmatrices.  tol must be finite and positive; it is raised
    to at least ``DEFAULT.cone``: the face candidate comes from a kernel
    read at ``DEFAULT.kernel``, so the construction resolves no finer.
    """
    linalg._check_tol(tol)
    if (phi.dim_in, phi.dim_out) != (2, 2):
        raise DimensionMismatch("the construction is implemented for M_2 -> M_2")
    eta = _unit_vector(eta)
    xi = face.xi if face is not None else None
    if eta.shape != (2,) or (xi is not None and xi.shape != (2,)):
        raise ShapeMismatch("eta and xi must be vectors of C^2")
    tol = max(tol, DEFAULT.cone)
    images = apply_map(phi, np.eye(4, dtype=complex).reshape(2, 2, 2, 2))
    unital_res = np.linalg.norm(images[0, 0] + images[1, 1] - np.eye(2))
    if unital_res > tol:
        raise NotUnital(f"phi(I) deviates from I by {unital_res:.3e}")
    search = k_positivity_search(phi, k=1, restarts=8, seed=seed)
    if search.violation_found:
        raise NotPositiveEvidence(
            f"positivity violated on a product vector, value {search.value:.3e}")

    big_phi = images @ eta                          # big_phi[i, j] = phi(E_ij) eta
    w = big_phi @ eta.conj()                        # w[i, j] = omega_eta(E_ij)
    lam, u = np.linalg.eigh(linalg.herm_part(w))
    left_basis, right_basis = map(list, _eigenmatrices(u[:, lam / 2 < DEFAULT.kernel]))

    if face is None and lam[0] < DEFAULT.kernel:
        xi = u[:, 0].conj()             # w^T u_0* = lam_0 u_0*
    if xi is not None and np.linalg.norm(
            np.einsum("i,j,ijp->p", xi, xi.conj(), big_phi)) <= tol:
        return _build_face_case(big_phi, eta, xi, w, left_basis, right_basis)
    return _build_generic(big_phi, eta, w, lam, u, left_basis, right_basis)


def _assemble(big_phi, eta, w, r0, r1, left_basis, right_basis, v_eta=None,
              eta_basis=None, alpha=None, beta=None):
    """StormerData for the basis k_s = (r0[s], r1[s]) of K_eta, read from w.

    omega_eta(x) = sum_ij x_ij w[i, j], so the averaged inner product
    <(a1, a2), (b1, b2)> = (omega(a1* b1) + omega(b2 a2*)) / 2, rho_eta(E_pq)
    and the coordinates <k_s, (E_ij, E_ij)> = (conj(r0[s]) w + w conj(r1[s]))
    [i, j] / 2 are contractions against w, in any basis of pairs.  V_eta maps
    those coordinates to big_phi[i, j] = phi(E_ij) eta: it is given in the
    face case (with eta_basis, alpha and beta), solved for by pinv otherwise.
    """
    k_dim = len(r0)
    # rho_units[p, q, s, t] = <k_s, (E_pq r0[t], r1[t] E_pq)>
    rho_units = 0.5 * (np.einsum("spi,ij,tqj->pqst", r0.conj(), w, r0)
                       + np.einsum("tip,ij,sjq->pqst", r1, w, r1.conj()))
    # rho_eta(1) is the Gram matrix of the basis
    ortho = np.max(np.abs(rho_units[0, 0] + rho_units[1, 1] - np.eye(k_dim)))
    # column (i, j): the pair (E_ij, E_ij) in K_eta coordinates, and phi(E_ij) eta
    d_mat = 0.5 * (r0.conj() @ w + w @ r1.conj()).reshape(k_dim, 4)
    phi_mat = big_phi.reshape(4, 2).T
    face_case = v_eta is not None
    if not face_case:
        v_eta = phi_mat @ np.linalg.pinv(d_mat, rcond=_RCOND)
        eta_basis = complete_basis(eta)
    return StormerData(
        left_ideal_basis=left_basis,
        right_ideal_basis=right_basis,
        k_dim=k_dim,
        rho_units=rho_units,
        v_eta=v_eta,
        eta=eta,
        eta_basis=eta_basis,
        face_case=face_case,
        alpha=alpha,
        beta=beta,
        v_eta_face_matrix=eta_basis.conj().T @ v_eta if face_case else None,
        basis_orthonormality_residual=float(ortho),
        v_lsq_residual=float(np.linalg.norm(v_eta @ d_mat - phi_mat)),
        v_norm=float(np.linalg.norm(v_eta, 2)),
    )


def _build_face_case(big_phi, eta, xi, w, left_basis, right_basis):
    """The face case: the explicit basis k1..k4 along xi, V_eta k_s =
    phi(r0[s]) eta for s < 3 and V_eta k4 = 0; alpha and beta are <eta2,
    V_eta k1> = sqrt(2) <eta2, phi(e_12) eta> and the same with e_21."""
    e = _units_along(xi)
    s2 = np.sqrt(2)
    r0 = np.array([s2 * e[0, 1], s2 * e[1, 0], e[1, 1], e[1, 1]])
    r1 = np.array([s2 * e[0, 1], s2 * e[1, 0], e[1, 1], -e[1, 1]])
    v_eta = np.zeros((2, 4), dtype=complex)           # V_eta k4 = 0
    v_eta[:, :3] = np.einsum("sij,ijp->ps", r0[:3], big_phi)
    eb = complete_basis(eta)
    eta1, eta2 = eb.T
    # pin the free phase of eta2 so alpha is real nonnegative when possible
    alpha0 = eta2.conj() @ v_eta[:, 0]
    if abs(alpha0) > _PHASE_FLOOR:
        eta2 = eta2 * (alpha0 / abs(alpha0))
        eb = np.column_stack([eta1, eta2])
    alpha, beta = eta2.conj() @ v_eta[:, :2]
    return _assemble(big_phi, eta, w, r0, r1, left_basis, right_basis, v_eta=v_eta,
                     eta_basis=eb, alpha=complex(alpha), beta=complex(beta))


def _build_generic(big_phi, eta, w, lam, u, left_basis, right_basis):
    """K_eta on the Gram eigenmatrices of each side whose lam_k / 2 exceeds
    ``DEFAULT.kernel``, scaled by 1 / sqrt(lam_k / 2) to be orthonormal: left
    ones as (a, 0) first, then right ones as (0, b).  In this basis rho_eta(a)
    comes out as (I_r (x) a) (+) (I_r (x) a)^T."""
    keep = lam / 2 > DEFAULT.kernel
    left, right = _eigenmatrices(u[:, keep] / np.sqrt(lam[keep] / 2))
    zero = np.zeros_like(left)
    return _assemble(big_phi, eta, w, np.concatenate([left, zero]),
                     np.concatenate([zero, right]), left_basis, right_basis)


@dataclass
class LocdecReport:
    samples: int
    max_residual: float
    v_norm: float
    k_dim: int
    face_case: bool


def verify_locdec(phi: MapObject, data: StormerData, samples: int,
                  seed: int = 0) -> LocdecReport:
    """Max residual of phi(a) eta = V rho(a) V* eta over random a, eta = data.eta.

    Each a is a unit complex Ginibre matrix: one (samples, 2, 2, 2) normal
    draw of ``default_rng(seed)`` holds its real, then its imaginary part.
    InvalidOption unless samples ≥ 1 and seed ≥ 0 are integers.
    """
    linalg._check_count("samples", samples)
    linalg._check_count("seed", seed, least=0)
    eta_v = data.eta
    v = data.v_eta
    v_star_eta = v.conj().T @ eta_v
    z = np.random.default_rng(seed).standard_normal((samples, 2, 2, 2))
    re, im = z[:, 0], z[:, 1]
    # sqrt(re·re + im·im) per matrix, the sums np.linalg.norm makes on one matrix
    norm = np.sqrt(np.einsum("sij,sij->s", re, re) + np.einsum("sij,sij->s", im, im))
    a = (re + 1j * im) / norm[:, None, None]
    lhs = apply_map(phi, a) @ eta_v
    rhs = (data.rho_of(a) @ v_star_eta) @ v.T
    worst = float(np.max(np.linalg.norm(lhs - rhs, axis=-1)))
    return LocdecReport(samples=samples, max_residual=worst, v_norm=data.v_norm,
                        k_dim=data.k_dim, face_case=data.face_case)


@dataclass
class Prop41Report:
    """Trace-condition residuals versus the global-equality residual."""

    tr_residuals: dict[str, float]
    alfabeta_residual: float
    global_residual: float
    eta2_residuals: dict[str, float]
    conditions_hold: bool
    equality_holds: bool
    inconsistent: bool
    alpha: complex
    beta: complex


def check_prop41(phi: MapObject, face: FaceSpec, tol: float = DEFAULT.cone) -> Prop41Report:
    """Check the iff between the trace conditions and the global equality.

    One build decides the face: a map it does not put on the face path
    raises NotInFace (NotUnital and NotPositiveEvidence come from the build
    first).  phi(e), e the matrix units along xi, is the one evaluation of
    phi beside the build's, independent of it, for the global equality.
    The iff verdict uses a tenfold hysteresis band: an inconsistency is
    flagged only when one side fails by more than 10*tol while the other
    holds within tol.
    """
    data = build_local_decomposition(phi, face.eta, face=face, tol=tol)
    if not data.face_case:
        raise NotInFace("map does not satisfy the face conditions")
    e = _units_along(face.xi)
    phi_e = apply_map(phi, e)
    eta1, eta2 = data.eta_basis.T

    tr = {
        "e12": abs(np.trace(phi_e[0, 1])),
        "e21": abs(np.trace(phi_e[1, 0])),
        "e22": abs(np.trace(phi_e[1, 1]) - 1.0),
    }
    rhs = 2.0 * (abs(eta2.conj() @ phi_e[0, 1] @ eta1) ** 2
                 + abs(eta2.conj() @ phi_e[1, 0] @ eta1) ** 2)
    alfabeta = abs(np.trace(phi_e[0, 0]) - rhs)

    v = data.v_eta
    diff = phi_e - v @ data.rho_of(e) @ v.conj().T
    units = [(i, j) for i in range(2) for j in range(2)]
    global_res = max(float(np.linalg.norm(diff[i, j])) for i, j in units)
    eta2_res = {f"e{i + 1}{j + 1}": float(np.linalg.norm(diff[i, j] @ eta2))
                for i, j in units}

    cond_res = max(max(tr.values()), alfabeta)
    conditions_hold = cond_res <= tol
    equality_holds = global_res <= tol
    inconsistent = (cond_res > 10 * tol and global_res <= tol) or \
                   (global_res > 10 * tol and cond_res <= tol)
    return Prop41Report(
        tr_residuals={k: float(x) for k, x in tr.items()},
        alfabeta_residual=float(alfabeta),
        global_residual=global_res,
        eta2_residuals=eta2_res,
        conditions_hold=conditions_hold,
        equality_holds=equality_holds,
        inconsistent=inconsistent,
        alpha=data.alpha,
        beta=data.beta,
    )
