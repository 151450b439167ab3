"""Finite-dimensional modular (Tomita-Takesaki) data for a faithful state.

The GNS space of (M_n, rho) is identified with M_n under the trace inner
product, with cyclic vector Omega = rho^{1/2}.  All basis-dependent
operators (the conjugation J, the transposition unitary U, the induced
map tau) are evaluated in the rho-eigenbasis: inputs in the standard
basis are rotated in and out by the cached eigenbasis unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotDensity, NotFaithful, NotHermitian, NotInCone, ShapeMismatch
from .linalg import DEFAULT, TensorLayout

# operator kinds accepted by apply_modular
DELTA_POWER = "delta_power"           # x -> rho^t x rho^{-t}
MODULAR_CONJUGATION_JM = "jm"         # x -> x*
CONJUGATION_J = "j"                   # entrywise conjugate in the eigenbasis
TRANSPOSITION_U = "u"                 # transpose in the eigenbasis
TAU = "tau"                           # x -> rho^{-1/2} x^t rho^{1/2}
MODULAR_MORPHISM_J = "jsmall"         # x -> j_m(x) Omega = Omega x*

_KINDS = (DELTA_POWER, MODULAR_CONJUGATION_JM, CONJUGATION_J,
          TRANSPOSITION_U, TAU, MODULAR_MORPHISM_J)


@dataclass(frozen=True)
class ModularData:
    """Faithful density rho, its eigenbasis and cached fractional powers.

    ``rho_half`` is the cyclic vector Omega = rho^{1/2}.  ``eigenbasis``
    columns are the chosen eigenvectors x_i; for tensor states built by
    :func:`tensor_modular` it is the Kronecker product of the factor
    eigenbases, so factor-wise transposes in eigenbasis coordinates
    implement I (x) U exactly.
    """

    rho: np.ndarray
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    rho_quarter: np.ndarray
    rho_inv_quarter: np.ndarray
    rho_half: np.ndarray              # Omega
    rho_inv_half: np.ndarray
    layout: TensorLayout

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        v = self.eigenbasis
        return v.conj().T @ x @ v

    def from_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        v = self.eigenbasis
        return v @ x @ v.conj().T

    def rho_power(self, t: float) -> np.ndarray:
        v = self.eigenbasis
        return (v * self.eigenvalues**t) @ v.conj().T


def build_modular(rho) -> ModularData:
    """Validate rho as a faithful density matrix and cache modular data."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotDensity(f"expected a square matrix, got {rho.shape}")
    n = rho.shape[0]
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise NotDensity(f"trace {np.trace(rho)} is not 1")
    try:
        dec = linalg.herm_eig(rho)
    except NotHermitian as exc:
        raise NotDensity(str(exc)) from exc
    lam = dec.eigenvalues
    if lam.min() <= DEFAULT.pd_floor:
        raise NotFaithful(f"minimum eigenvalue {lam.min():.3e} not positive")
    v = dec.eigenvectors

    def power(t):
        return (v * lam**t) @ v.conj().T

    return ModularData(
        rho=dec.reconstruct(),
        eigenvalues=lam,
        eigenbasis=v,
        rho_quarter=power(0.25),
        rho_inv_quarter=power(-0.25),
        rho_half=power(0.5),
        rho_inv_half=power(-0.5),
        layout=TensorLayout((n,)),
    )


def apply_modular(md: ModularData, kind: str, x, t: float = 0.0) -> np.ndarray:
    """Apply one of the modular operators to an n x n matrix.

    ``kind`` is one of the module-level constants; DELTA_POWER takes the
    exponent ``t``.  J and J_m are conjugate-linear as implemented.
    """
    x = np.asarray(x, dtype=complex)
    n = md.dim
    if x.shape != (n, n):
        raise ShapeMismatch(f"expected {n}x{n}, got {x.shape}")
    if kind == DELTA_POWER:
        if not np.isfinite(t):
            raise ShapeMismatch("DeltaPower exponent must be finite")
        xe = md.to_eigenbasis(x)
        lam = md.eigenvalues
        scale = np.outer(lam**t, lam**-t)
        return md.from_eigenbasis(scale * xe)
    if kind == MODULAR_CONJUGATION_JM:
        return x.conj().T
    if kind == CONJUGATION_J:
        return md.from_eigenbasis(md.to_eigenbasis(x).conj())
    if kind == TRANSPOSITION_U:
        return md.from_eigenbasis(md.to_eigenbasis(x).T)
    if kind == TAU:
        xe = md.to_eigenbasis(x)
        lam = md.eigenvalues
        out = (lam**-0.5)[:, None] * xe.T * (lam**0.5)[None, :]
        return md.from_eigenbasis(out)
    if kind == MODULAR_MORPHISM_J:
        return md.rho_half @ x.conj().T
    raise ShapeMismatch(f"unknown modular operator kind {kind!r}; expected one of {_KINDS}")


def tensor_modular(md_a: ModularData, md_b: ModularData) -> ModularData:
    """Modular data of rho_A (x) rho_B with Kronecker-structured eigenbasis."""
    dims = md_a.layout.dims + md_b.layout.dims
    return ModularData(
        rho=np.kron(md_a.rho, md_b.rho),
        eigenvalues=np.kron(md_a.eigenvalues, md_b.eigenvalues),
        eigenbasis=np.kron(md_a.eigenbasis, md_b.eigenbasis),
        rho_quarter=np.kron(md_a.rho_quarter, md_b.rho_quarter),
        rho_inv_quarter=np.kron(md_a.rho_inv_quarter, md_b.rho_inv_quarter),
        rho_half=np.kron(md_a.rho_half, md_b.rho_half),
        rho_inv_half=np.kron(md_a.rho_inv_half, md_b.rho_inv_half),
        layout=TensorLayout(dims),
    )


def state_of_cone_vector(md: ModularData, xi) -> np.ndarray:
    """Density matrix of the vector state of a unit natural-cone vector.

    omega_xi(a) = (xi, a xi) = Tr((xi xi*) a), so the density is xi xi*.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (md.dim, md.dim):
        raise ShapeMismatch(f"expected {md.dim}x{md.dim}, got {xi.shape}")
    norm = linalg.frobenius(xi)
    tol = DEFAULT.cone
    if abs(norm - 1.0) > tol:
        raise NotInCone(f"cone vector must be normalized, |xi| = {norm}")
    reduction = md.rho_inv_quarter @ xi @ md.rho_inv_quarter
    dev = linalg.frobenius(reduction - reduction.conj().T)
    deficit = linalg.psd_deficit(reduction)
    if dev > tol or deficit > tol:
        raise NotInCone(
            f"vector not in the natural cone (deficit {deficit:.3e}, "
            f"Hermitian deviation {dev:.3e})"
        )
    return xi @ xi.conj().T


def check_identities(md: ModularData, samples: int, seed) -> dict[str, float]:
    """Max residuals of the modular identities over random samples.

    Each entry is named after the identity it checks; all vanish
    analytically, so the values measure floating-point conditioning only.
    """
    n = md.dim
    rng = np.random.default_rng(seed)

    def rand():
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return m / linalg.frobenius(m)

    def app(kind, x, t=0.0):
        return apply_modular(md, kind, x, t)

    res: dict[str, float] = {}

    def record(name, value):
        res[name] = max(res.get(name, 0.0), float(value))

    for _ in range(max(1, samples)):
        a, xi, psi = rand(), rand(), rand()
        # U is an involution and self-adjoint
        record("u_squared", linalg.frobenius(app(TRANSPOSITION_U, app(TRANSPOSITION_U, xi)) - xi))
        lhs = linalg.hs_inner(app(TRANSPOSITION_U, xi), psi)
        rhs = linalg.hs_inner(xi, app(TRANSPOSITION_U, psi))
        record("u_selfadjoint", abs(lhs - rhs))
        # J = U J_m
        record("j_eq_u_jm", linalg.frobenius(
            app(CONJUGATION_J, xi) - app(TRANSPOSITION_U, app(MODULAR_CONJUGATION_JM, xi))))
        # pairwise commutation of J, J_m, U
        for name, k1, k2 in (
            ("commute_j_jm", CONJUGATION_J, MODULAR_CONJUGATION_JM),
            ("commute_j_u", CONJUGATION_J, TRANSPOSITION_U),
            ("commute_jm_u", MODULAR_CONJUGATION_JM, TRANSPOSITION_U),
        ):
            record(name, linalg.frobenius(app(k1, app(k2, xi)) - app(k2, app(k1, xi))))
        # J commutes with Delta powers
        t = float(rng.uniform(-1.0, 1.0))
        record("j_delta_commute", linalg.frobenius(
            app(CONJUGATION_J, app(DELTA_POWER, xi, t)) - app(DELTA_POWER, app(CONJUGATION_J, xi), t)))
        # polar form tau = U Delta^{1/2}
        record("tau_polar", linalg.frobenius(
            app(TAU, xi) - app(TRANSPOSITION_U, app(DELTA_POWER, xi, 0.5))))
        # U Delta U = Delta^{-1}
        record("u_delta_u", linalg.frobenius(
            app(TRANSPOSITION_U, app(DELTA_POWER, app(TRANSPOSITION_U, xi), 1.0))
            - app(DELTA_POWER, xi, -1.0)))
        # a^t xi = J a* J xi  (transpose taken in the eigenbasis)
        at = md.from_eigenbasis(md.to_eigenbasis(a).T)
        record("transpose_via_j", linalg.frobenius(
            at @ xi - app(CONJUGATION_J, a.conj().T @ app(CONJUGATION_J, xi))))
        # commutant mapping: U L_a U = R_{a^t}
        record("commutant_map", linalg.frobenius(
            app(TRANSPOSITION_U, a @ app(TRANSPOSITION_U, xi)) - xi @ at))
        # U Delta^{1/2} maps a Omega with a >= 0 into V_0
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pos = g @ g.conj().T
        pos /= linalg.frobenius(pos)
        image = app(TAU, pos @ md.rho_half)
        record("tau_v0_invariance", linalg.psd_deficit(image @ md.rho_inv_half))
    return res
