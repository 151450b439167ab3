"""Membership tests and samplers for the modular cone family.

The cones V_beta, the natural cone P = V_{1/4}, the tensor cones P_n and
P_n^tau, their convex hull and intersection are all decided on one
reduction r = rho^{-beta} xi rho^{beta - 1/2} (beta = 1/4 but for V_beta),
taken once per question in the rho-eigenbasis, where the partial transpose
of the second tensor factor realizes I (x) U exactly.  Its Hermitian
deviation is gated once against tol·‖r‖; then each closed-form kind is a
PSD test by one ``eigh`` (of r and r^Γ stacked for the intersection), and
the hull a split.  The tensor kinds read their two-factor layout from the
state as one ``dykstra.PPTPair`` per question, whose Γ every step of the
question takes.  The intersection probe reports the worst membership
residual of its samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dykstra, linalg
from .errors import (
    LayoutMismatch,
    NotInCone,
    ShapeMismatch,
    UnsupportedKind,
)
from .linalg import DEFAULT
from .modular import ModularData, build_modular, tensor_modular

# cone kinds
VBETA = "vbeta"
NATURAL = "natural"
NATURAL_TENSOR = "natural_tensor"
TRANSPOSED_TENSOR = "transposed_tensor"
HULL = "hull"
INTERSECTION = "intersection"

_TENSOR_KINDS = (NATURAL_TENSOR, TRANSPOSED_TENSOR, HULL, INTERSECTION)
_KINDS = (VBETA, NATURAL) + _TENSOR_KINDS


@dataclass(frozen=True)
class ConeSpec:
    """Which cone membership is tested against.

    ``beta`` is V_beta's exponent and is given for that kind only.  The
    tensor kinds take their layout from the state, which must have two
    factors; the transposition unitary U always acts on the second one.
    """

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedKind(f"unknown cone kind {self.kind!r}")
        if self.kind == VBETA:
            if self.beta is None or not 0.0 <= self.beta <= 0.5:
                raise UnsupportedKind(f"beta must be in [0, 1/2], got {self.beta}")
        elif self.beta is not None:
            raise UnsupportedKind(f"{self.kind} takes no beta, got {self.beta}")


@dataclass
class MembershipResult:
    inside: bool
    residual: float
    witness: np.ndarray | None = None
    stop_reason: str | None = None      # the hull's split: converged, certified or capped
    iterations: int | None = None       # ... and its iteration count


def _pair(md: ModularData, kind: str) -> dykstra.PPTPair | None:
    """The state's cone pair, Γ on the second factor, for a tensor kind, None
    for the others: its ``pt`` re-checks no matrix that was checked already."""
    if kind not in _TENSOR_KINDS:
        return None
    if len(md.layout.dims) != 2:
        raise LayoutMismatch(f"{kind} requires a 2-factor layout, got {md.layout.dims}")
    return dykstra.PPTPair(md.layout, 2)


def _reduction_eig(md: ModularData, xi: np.ndarray, beta: float = 0.25):
    """rho^{-beta} xi rho^{beta - 1/2} in eigenbasis coordinates."""
    return md.weigh(md.to_eigenbasis(np.asarray(xi, dtype=complex)), -beta, beta - 0.5)


def _pull_back(md: ModularData, w: np.ndarray, beta: float = 0.25,
               pair: dykstra.PPTPair | None = None) -> np.ndarray:
    """Unit V with <V, xi> a positive multiple of <w, r>, r the reduction of xi.

    r is R(xi), or its second-factor partial transpose when ``pair`` is
    given.  R and the partial transpose are self-adjoint for the
    Hilbert-Schmidt pairing, so V = R(w^Gamma) mapped back from the
    eigenbasis: a witness for the reduction becomes one for xi.
    """
    if pair is not None:
        w = pair.pt(w)
    v = md.from_eigenbasis(md.weigh(w, -beta, beta - 0.5))
    return v / linalg.frobenius(v)


def _psd_verdict(md: ModularData, r: np.ndarray, bound: float, beta: float,
                 views: tuple[dykstra.PPTPair | None, ...]) -> MembershipResult:
    """PSD-ness of each view of r: r itself for None, r^Γ for a pair.

    One batched ``eigh`` of the stacked Hermitian views.  The lowest
    eigenvalue over them, the first view's on a tie, is held against
    ``bound``; an outside verdict's witness is its eigenvector, pulled back.
    """
    h = linalg.herm_part(r)
    w, v = np.linalg.eigh(np.stack([h if pair is None else pair.pt(h) for pair in views]))
    low = int(np.argmin(w[:, 0]))
    lam = float(w[low, 0])
    if lam >= -bound:
        return MembershipResult(inside=True, residual=max(0.0, -lam))
    u = v[low, :, 0]
    return MembershipResult(inside=False, residual=-lam,
                            witness=_pull_back(md, np.outer(u, u.conj()), beta, views[low]))


def _hull_verdict(md: ModularData, c: np.ndarray, tol: float, pair: dykstra.PPTPair,
                  max_iter: int) -> MembershipResult:
    """Membership in co(P_n u P_n^tau) of the xi whose reduction is c: split c = a + b."""
    scale = 2.0 ** np.frexp(linalg.frobenius(c))[1]
    split = dykstra.split_sum(c / scale, pair, tol=tol, max_iter=max_iter)
    witness = None if split.witness is None else _pull_back(md, split.witness)
    return MembershipResult(inside=split.converged, residual=split.residual * scale,
                            witness=witness, stop_reason=split.stop_reason,
                            iterations=split.iterations)


def cone_membership(md: ModularData, spec: ConeSpec, xi, tol: float = DEFAULT.cone,
                    max_iter: int = DEFAULT.max_iter) -> MembershipResult:
    """Membership test for every cone kind.

    xi is checked once, at entry: a NaN or Inf entry raises NonFinite for
    every kind, as a tol that is not finite and positive or a max_iter
    not an integer ≥ 1 raises InvalidOption.  Its reduction r is taken once and its
    Hermitian deviation is gated once, against tol·‖r‖: no member has a non-Hermitian
    reduction, so a larger deviation reads outside, with the deviation as
    residual and no witness.  The tensor kinds read their layout from ``md``.  Every kind
    but the hull is decided by one ``eigh``, of r, of r^Γ for the
    transposed tensor cone, or of both stacked for the intersection: the
    lowest eigenvalue is held against tol·‖r‖, so scaling xi changes no
    verdict, and an outside verdict's witness, from the view that reads
    lowest, pairs negatively with xi and non-negatively with every member.
    The hull splits r = a + b, a and b^Γ PSD, in at most ``max_iter``
    iterations, on r scaled exactly by a power of two into norm [1/2, 1).
    Its residual ‖r − a − b‖ is at r's scale, its witness is the split's
    dual witness when the split proves xi outside, and its stop reason and
    iteration count tell a capped solve from a refuted one.
    """
    linalg._check_tol(tol)
    linalg._check_count("max_iter", max_iter)
    xi = linalg._as_matrix(xi)
    if xi.shape != (md.dim, md.dim):
        raise LayoutMismatch(f"expected {md.dim}x{md.dim}, got {xi.shape}")
    pair = _pair(md, spec.kind)
    beta = spec.beta if spec.kind == VBETA else 0.25
    r = _reduction_eig(md, xi, beta)
    dev, bound = linalg.hermitian_deviation(r, tol)
    if dev > bound:
        return MembershipResult(inside=False, residual=dev)
    if spec.kind == HULL:
        return _hull_verdict(md, r, tol, pair, max_iter)
    views = {TRANSPOSED_TENSOR: (pair,), INTERSECTION: (None, pair)}.get(spec.kind, (None,))
    return _psd_verdict(md, r, bound, beta, views)


def state_of_cone_vector(md: ModularData, xi) -> np.ndarray:
    """Density matrix of the vector state of a unit natural-cone vector.

    omega_xi(a) = (xi, a xi) = Tr((xi xi*) a), so the density is xi xi*.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (md.dim, md.dim):
        raise ShapeMismatch(f"expected {md.dim}x{md.dim}, got {xi.shape}")
    norm = linalg.frobenius(xi)
    if abs(norm - 1.0) > DEFAULT.cone:
        raise NotInCone(f"cone vector must be normalized, |xi| = {norm}")
    res = cone_membership(md, ConeSpec(NATURAL), xi)
    if not res.inside:
        raise NotInCone(f"vector not in the natural cone (residual {res.residual:.3e})")
    return xi @ xi.conj().T


def sample_cone(md: ModularData, spec: ConeSpec, seed) -> np.ndarray:
    """Draw an exact member of the requested cone (hull excluded).

    Every kind is rho^beta G G* rho^{1/2 - beta} in eigenbasis coordinates,
    beta = 1/4 but for V_beta, after G G* is made a member of the reduced
    cone: partially transposed for the transposed tensor cone, lifted by
    ``PPTPair.lift`` for the intersection (G G* + μI with the least μ ≥ 0
    that makes its second-factor partial transpose PSD, since I^Γ = I), so
    no solve is made.  InvalidOption unless seed ≥ 0 is an integer.
    """
    linalg._check_count("seed", seed, least=0)
    if spec.kind == HULL:
        raise UnsupportedKind(
            "hull samples are convex combinations of natural and transposed samples"
        )
    pair = _pair(md, spec.kind)
    a = md.to_eigenbasis(linalg.sample_psd(md.dim, seed))
    if spec.kind == TRANSPOSED_TENSOR:
        a = pair.pt(a)
    elif spec.kind == INTERSECTION:
        a = pair.lift(a)
    beta = spec.beta if spec.kind == VBETA else 0.25
    return md.from_eigenbasis(md.weigh(a, beta, 0.5 - beta))


@dataclass
class ProbeReport:
    dims: tuple[int, int]
    trials: int
    max_residual: float
    note: str


_PROBE_NOTE = (
    "Finite-dimensional check only: each intersection sample is exhibited in the "
    "double-PSD form. The corresponding closure equality for general "
    "infinite-dimensional algebras remains open and is out of numerical reach."
)


def probe_finite_dim_equality(m: int, n: int, rho_seed, trials: int) -> ProbeReport:
    """Exhibit intersection samples in the double-PSD generator form.

    Every sample xi of P_n n P_n^tau is reduced to a = rho^{-1/4} xi
    rho^{-1/4}; the probe certifies that both a and its second-factor
    partial transpose are PSD, i.e. that the two descriptions of the
    intersection coincide at desk scale.  It reports the worst
    ``cone_membership`` residual of its samples.  InvalidOption unless
    m, n ≥ 1, rho_seed ≥ 0 and trials ≥ 1 are integers.
    """
    linalg._check_count("m", m)
    linalg._check_count("n", n)
    linalg._check_count("rho_seed", rho_seed, least=0)
    linalg._check_count("trials", trials)
    md = tensor_modular(
        build_modular(linalg.sample_density(m, rho_seed, ridge=1e-2)),
        build_modular(linalg.sample_density(n, rho_seed + 1, ridge=1e-2)),
    )
    spec = ConeSpec(INTERSECTION)
    max_res = max(cone_membership(md, spec, sample_cone(md, spec, rho_seed + 1000 + t)).residual
                  for t in range(trials))
    return ProbeReport(dims=(m, n), trials=trials, max_residual=max_res, note=_PROBE_NOTE)


# -- commutant-form generators of the transposed cone ------------------------

def _generator(md: ModularData, x: np.ndarray) -> np.ndarray:
    """The generator sum_kl (a_k ⊗ b̄_l) Ω (a_l* ⊗ b_kᵀ), Ω = Λ^½, of terms
    (a_k, b_k) in eigenbasis coordinates, mapped back from the eigenbasis.

    It reads the terms only through x[i, j, p, q] = sum_k a_k[i, j] b_k[p, q],
    so it is one contraction of x, Λ^½ and x̄; md is the tensor state.
    """
    m, n = x.shape[0], x.shape[2]
    root = np.sqrt(md.eigenvalues).reshape(m, n)
    gen = np.einsum("iaqb,ab,japb->ipjq", x, root, x.conj())
    return md.from_eigenbasis(gen.reshape(m * n, m * n))


def transposed_tensor_generator(md_a: ModularData, md_b: ModularData,
                                terms: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Generator of the transposed cone built from commutant images.

    Each second-factor term enters through the automorphism that swaps
    left and right multiplication (conjugation by U), so the resulting
    vectors generate P^tau instead of P.  Conjugates and transposes are
    taken in the second factor's eigenbasis.
    """
    x = np.zeros((md_a.dim, md_a.dim, md_b.dim, md_b.dim), dtype=complex)
    for a, b in terms:
        x += np.multiply.outer(md_a.to_eigenbasis(a), md_b.to_eigenbasis(b))
    return _generator(tensor_modular(md_a, md_b), x)


def fit_transposed_generator(md_a: ModularData, md_b: ModularData, xi) -> tuple[float, np.ndarray]:
    """Reproduce a transposed-cone vector inside the generator family.

    Solves for the generating operator w in least-squares (PSD square root)
    form, re-evaluates the generator formula on it (its matrix-unit terms
    (E_ij, w[i, :, j, :]) give x = w with its middle factors swapped) and
    returns the Frobenius distance to xi together with the reconstruction.
    """
    m, n = md_a.dim, md_b.dim
    md = tensor_modular(md_a, md_b)
    xi = np.asarray(xi, dtype=complex)
    eta_e = linalg.partial_transpose(md.to_eigenbasis(xi), md.layout, 2)
    c = md.weigh(eta_e, -0.25, -0.25)
    w_c, v_c = np.linalg.eigh(linalg.herm_part(c))
    sqrt_c = (v_c * np.sqrt(np.maximum(w_c, 0.0))) @ v_c.conj().T
    w = md.weigh(sqrt_c, 0.25, -0.25)
    recon = _generator(md, w.reshape(m, n, m, n).transpose(0, 2, 1, 3))
    return linalg.frobenius(recon - xi), recon
