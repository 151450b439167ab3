"""Membership tests and samplers for the modular cone family.

The cones V_beta, the natural cone P = V_{1/4}, the tensor cones P_n and
P_n^tau, their convex hull and intersection are all decided on the
rho^{-1/4}-conjugated reduction, which turns every membership question
into a PSD (or PSD-after-partial-transpose) test.  All reductions are
evaluated in the rho-eigenbasis, where the partial transpose of the
second tensor factor realizes I (x) U exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dykstra, linalg
from .errors import (
    InvalidOption,
    LayoutMismatch,
    NotInCone,
    ShapeMismatch,
    UnsupportedKind,
)
from .linalg import DEFAULT, TensorLayout, _unit
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

# intersection samples are projected this close to {a ⪰ 0, a^Γ ⪰ 0}, well
# inside DEFAULT.cone, so they read inside at the default tolerance
_SAMPLE_TOL = 1e-12


@dataclass(frozen=True)
class ConeSpec:
    """Which cone membership is tested against.

    Tensor kinds require a 2-factor layout; the transposition unitary U
    always acts on the second factor.
    """

    kind: str
    beta: float | None = None
    layout: TensorLayout | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedKind(f"unknown cone kind {self.kind!r}")
        if self.kind == VBETA:
            if self.beta is None or not 0.0 <= self.beta <= 0.5:
                raise UnsupportedKind(f"beta must be in [0, 1/2], got {self.beta}")
        if self.kind in _TENSOR_KINDS:
            if self.layout is None or len(self.layout.dims) != 2:
                raise LayoutMismatch(f"{self.kind} requires a 2-factor layout")


@dataclass
class MembershipResult:
    inside: bool
    residual: float
    witness: np.ndarray | None = None
    stop_reason: str | None = None      # the hull's split: converged, certified or capped
    iterations: int | None = None       # ... and its iteration count


def _check_tensor(md: ModularData, spec: ConeSpec) -> None:
    if md.layout.dims != spec.layout.dims:
        raise LayoutMismatch(
            f"modular data has layout {md.layout.dims}, cone expects {spec.layout.dims}"
        )


def _reduction_eig(md: ModularData, xi: np.ndarray, beta: float = 0.25):
    """rho^{-beta} xi rho^{beta - 1/2} in eigenbasis coordinates."""
    return md.weigh(md.to_eigenbasis(np.asarray(xi, dtype=complex)), -beta, beta - 0.5)


def _pull_back(md: ModularData, w: np.ndarray, beta: float = 0.25,
               layout: TensorLayout | None = None) -> np.ndarray:
    """Unit V with <V, xi> a positive multiple of <w, r>, r the reduction of xi.

    r is R(xi), or its second-factor partial transpose when ``layout`` is
    given.  R and the partial transpose are self-adjoint for the
    Hilbert-Schmidt pairing, so V = R(w^Gamma) mapped back from the
    eigenbasis: a witness for the reduction becomes one for xi.
    """
    if layout is not None:
        w = linalg.partial_transpose(w, layout, 2)
    v = md.from_eigenbasis(md.weigh(w, -beta, beta - 0.5))
    return v / linalg.frobenius(v)


def _verdict(md: ModularData, xi: np.ndarray, tol: float, beta: float = 0.25,
             layout: TensorLayout | None = None) -> MembershipResult:
    """Decide PSD-ness of the reduction r of xi (partially transposed when
    ``layout`` is given), with symmetrization and a witness that pairs
    negatively with xi and non-negatively with every member.

    The Hermitian deviation and the lowest eigenvalue of r are held against
    tol·‖r‖, so the verdict does not change when xi is scaled; the residual
    is the absolute deviation or deficit.
    """
    r = _reduction_eig(md, xi, beta)
    if layout is not None:
        r = linalg.partial_transpose(r, layout, 2)
    dev, bound = linalg.hermitian_deviation(r, tol)
    if dev > bound:
        return MembershipResult(inside=False, residual=dev, witness=None)
    w, v = np.linalg.eigh(linalg.herm_part(r))
    if w[0] >= -bound:
        return MembershipResult(inside=True, residual=max(0.0, -float(w[0])))
    return MembershipResult(inside=False, residual=-float(w[0]),
                            witness=_pull_back(md, np.outer(v[:, 0], v[:, 0].conj()),
                                               beta, layout))


def _hull_verdict(md: ModularData, xi: np.ndarray, tol: float, layout: TensorLayout,
                  max_iter: int) -> MembershipResult:
    """Membership of xi in co(P_n u P_n^tau): split the reduction c = a + b."""
    c = _reduction_eig(md, xi)
    dev, bound = linalg.hermitian_deviation(c, tol)
    if dev > bound:
        return MembershipResult(inside=False, residual=dev)
    scale = 2.0 ** np.frexp(linalg.frobenius(c))[1]
    split = dykstra.split_sum(c / scale, dykstra.PPTPair(layout, 2), tol=tol,
                              max_iter=max_iter)
    witness = None if split.witness is None else _pull_back(md, split.witness)
    return MembershipResult(inside=split.converged, residual=split.residual * scale,
                            witness=witness, stop_reason=split.stop_reason,
                            iterations=split.iterations)


def cone_membership(md: ModularData, spec: ConeSpec, xi, tol: float = DEFAULT.cone,
                    max_iter: int = DEFAULT.max_iter) -> MembershipResult:
    """Membership test for every cone kind.

    All kinds but the hull are decided in closed form, from the lowest
    eigenvalue of the reduction (partially transposed for the transposed
    tensor cone, both for the intersection).  The hull co(P_n u P_n^tau) is
    decided by split feasibility, c = a + b with a PSD and b^{t2} PSD for
    the reduction c, in at most ``max_iter`` iterations.  The split runs on
    c/s, s the power of two that brings ‖c‖ into [1/2, 1) (an exact
    scaling), so the verdict does not change when xi is scaled; the residual
    ‖c − a − b‖ is reported at c's scale.  An outside hull verdict carries a
    witness exactly when it is proved: the split's dual witness W of c,
    pulled back so that it pairs negatively with xi and non-negatively with
    every member of the hull.  The split's stop reason and iteration count
    come along, so a capped solve, which reads outside without a proof, can
    be told from a refuted one.  No member of the hull has a non-Hermitian
    reduction, so one whose deviation exceeds tol·‖c‖ reads outside, as for
    the other kinds: the residual is the deviation, with no witness and no
    split.
    """
    xi = np.asarray(xi, dtype=complex)
    n = md.dim
    if xi.shape != (n, n):
        raise LayoutMismatch(f"expected {n}x{n}, got {xi.shape}")
    if spec.kind == VBETA:
        return _verdict(md, xi, tol, spec.beta)
    if spec.kind != NATURAL:
        _check_tensor(md, spec)
    if spec.kind in (NATURAL, NATURAL_TENSOR):
        return _verdict(md, xi, tol)
    if spec.kind == TRANSPOSED_TENSOR:
        return _verdict(md, xi, tol, layout=spec.layout)
    if spec.kind == HULL:
        return _hull_verdict(md, xi, tol, spec.layout, max_iter)
    # intersection: both reductions PSD
    plain = _verdict(md, xi, tol)
    transposed = _verdict(md, xi, tol, layout=spec.layout)
    worse = max(plain, transposed, key=lambda m: m.residual)
    return MembershipResult(inside=plain.inside and transposed.inside,
                            residual=worse.residual, witness=worse.witness)


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
    cone: partially transposed for the transposed tensor cone, projected
    onto {a >= 0, a^{t2} >= 0} for the intersection.
    """
    if spec.kind == HULL:
        raise UnsupportedKind(
            "hull samples are convex combinations of natural and transposed samples"
        )
    if spec.kind in _TENSOR_KINDS:
        _check_tensor(md, spec)
    n = md.dim
    g = linalg.sample_ginibre(n, n, seed)
    a = md.to_eigenbasis(g @ g.conj().T)
    if spec.kind == TRANSPOSED_TENSOR:
        a = linalg.partial_transpose(a, spec.layout, 2)
    elif spec.kind == INTERSECTION:
        a = dykstra.project_intersection(a, dykstra.PPTPair(spec.layout, 2),
                                         tol=_SAMPLE_TOL).point
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


def probe_finite_dim_equality(
    m: int,
    n: int,
    rho_seed,
    trials: int,
) -> ProbeReport:
    """Exhibit intersection samples in the double-PSD generator form.

    Every sample xi of P_n n P_n^tau is reduced to a = rho^{-1/4} xi
    rho^{-1/4}; the probe certifies that both a and its second-factor
    partial transpose are PSD, i.e. that the two descriptions of the
    intersection coincide at desk scale.
    """
    if trials < 1:
        raise InvalidOption(f"trials must be at least 1, got {trials}")
    md = tensor_modular(
        build_modular(linalg.sample_density(m, rho_seed, ridge=1e-2)),
        build_modular(linalg.sample_density(n, rho_seed + 1, ridge=1e-2)),
    )
    layout = TensorLayout((m, n))
    spec = ConeSpec(INTERSECTION, layout=layout)
    pair = dykstra.PPTPair(layout, 2)
    max_res = 0.0
    for t in range(trials):
        xi = sample_cone(md, spec, rho_seed + 1000 + t)
        a = _reduction_eig(md, xi)
        w, w_pt = pair.min_eigs(a)
        max_res = max(max_res, -w, linalg.hermitian_deviation(a)[0], -w_pt)
    return ProbeReport(dims=(m, n), trials=trials, max_residual=max_res, note=_PROBE_NOTE)


# -- commutant-form generators of the transposed cone ------------------------

def transposed_tensor_generator(md_a: ModularData, md_b: ModularData,
                                terms: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Generator of the transposed cone built from commutant images.

    Each second-factor term enters through the automorphism that swaps
    left and right multiplication (conjugation by U), so the resulting
    vectors generate P^tau instead of P.  Conjugates and transposes are
    taken in the second factor's eigenbasis.
    """
    md = tensor_modular(md_a, md_b)
    terms_e = [(md_a.to_eigenbasis(a), md_b.to_eigenbasis(b)) for a, b in terms]
    gen = np.zeros((md.dim, md.dim), dtype=complex)
    for a_k, b_k in terms_e:
        for a_l, b_l in terms_e:
            # (a_k ⊗ b̄_l) Ω (a_l* ⊗ b_kᵀ), Ω = Λ^½ in the tensor eigenbasis
            gen += md.weigh(np.kron(a_k, b_l.conj()), 0, 0.5) @ np.kron(a_l.conj().T, b_k.T)
    return md.from_eigenbasis(gen)


def fit_transposed_generator(md_a: ModularData, md_b: ModularData, xi) -> tuple[float, np.ndarray]:
    """Reproduce a transposed-cone vector inside the generator family.

    Solves for the generating operator in least-squares (PSD square root)
    form, expands it in matrix-unit product terms, re-evaluates the
    generator formula and returns the Frobenius distance to xi together
    with the reconstruction.
    """
    m, n = md_a.dim, md_b.dim
    md = tensor_modular(md_a, md_b)
    layout = TensorLayout((m, n))
    xi = np.asarray(xi, dtype=complex)
    eta_e = linalg.partial_transpose(md.to_eigenbasis(xi), layout, 2)
    c = md.weigh(eta_e, -0.25, -0.25)
    w_c, v_c = np.linalg.eigh(linalg.herm_part(c))
    sqrt_c = (v_c * np.sqrt(np.maximum(w_c, 0.0))) @ v_c.conj().T
    w = md.weigh(sqrt_c, 0.25, -0.25)
    blocks = w.reshape(m, n, m, n)
    terms = []
    for i in range(m):
        for j in range(m):
            terms.append((md_a.from_eigenbasis(_unit(m, i, j)),
                          md_b.from_eigenbasis(blocks[i, :, j, :])))
    recon = transposed_tensor_generator(md_a, md_b, terms)
    return float(np.linalg.norm(recon - xi)), recon
