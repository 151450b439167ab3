"""Finite-dimensional modular (Tomita-Takesaki) data for a faithful state.

The GNS space of (M_n, rho) is identified with M_n under the trace inner
product, with cyclic vector Omega = rho^{1/2}.  A state is held as its
spectrum, rho = V diag(lam) V*, and every object of the modular theory is
a function of it: ``rho_power(t)`` for rho^t (Omega is ``rho_power(0.5)``),
``weigh(x, a, b)`` for Lambda^a x Lambda^b on eigenbasis coordinates, and
the modular operators ``delta(x, t)`` for Delta^t, ``j`` for the
conjugation J, ``u`` for the transposition unitary U and ``tau`` for
U Delta^{1/2}; the modular conjugation J_m is plain ``x.conj().T``.  The
basis-dependent ones (J, U, tau) are evaluated in the rho-eigenbasis:
inputs in the standard basis are rotated in and out by the eigenbasis
unitary.  Every operator takes one matrix or a stack (..., n, n) and acts
on the last two axes, so :func:`check_identities` checks each identity
once over all of its samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    InvalidOption,
    NotDensity,
    NotFaithful,
    NotHermitian,
    ShapeMismatch,
)
from .linalg import DEFAULT, TensorLayout

_TRACE_TOL = 1e-10          # |Tr ρ − 1| accepted: a density given to ten digits

@dataclass(frozen=True)
class ModularData:
    """Faithful density rho held as its spectrum: eigenvalues and eigenbasis.

    ``eigenbasis`` columns are the chosen eigenvectors x_i; for tensor
    states built by :func:`tensor_modular` it is the Kronecker product of
    the factor eigenbases, so factor-wise transposes in eigenbasis
    coordinates implement I (x) U exactly.
    """

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
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
        """rho^t from the spectrum; rho_power(0.5) is Omega."""
        v = self.eigenbasis
        return (v * self.eigenvalues**t) @ v.conj().T

    def weigh(self, x: np.ndarray, a: float, b: float) -> np.ndarray:
        """Lambda^a x Lambda^b on eigenbasis coordinates (a matrix or a stack)."""
        lam = self.eigenvalues
        return (lam**a)[:, None] * x * (lam**b)[None, :]

    def _square(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape[-2:] != (self.dim, self.dim):
            raise ShapeMismatch(f"expected (..., {self.dim}, {self.dim}), got {x.shape}")
        return x

    def delta(self, x, t) -> np.ndarray:
        """Delta^t: x -> rho^t x rho^{-t}; t is one number or one per matrix."""
        x = self._square(x)
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise InvalidOption(f"Delta exponent must be finite, got {t}")
        lam = self.eigenvalues
        t = t[..., None, None]
        scale = lam[:, None] ** t * lam[None, :] ** -t
        return self.from_eigenbasis(scale * self.to_eigenbasis(x))

    def j(self, x) -> np.ndarray:
        """Conjugation J: entrywise complex conjugate in the eigenbasis."""
        return self.from_eigenbasis(self.to_eigenbasis(self._square(x)).conj())

    def u(self, x) -> np.ndarray:
        """Transposition unitary U: transpose in the eigenbasis."""
        return self.from_eigenbasis(self.to_eigenbasis(self._square(x)).mT)

    def tau(self, x) -> np.ndarray:
        """tau = U Delta^{1/2}: x -> rho^{-1/2} x^t rho^{1/2} in the eigenbasis."""
        xe = self.to_eigenbasis(self._square(x))
        return self.from_eigenbasis(self.weigh(xe.mT, -0.5, 0.5))


def build_modular(rho) -> ModularData:
    """Validate rho as a faithful density matrix and hold it as its spectrum."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotDensity(f"expected a square matrix, got {rho.shape}")
    n = rho.shape[0]
    if abs(np.trace(rho).real - 1.0) > _TRACE_TOL or abs(np.trace(rho).imag) > _TRACE_TOL:
        raise NotDensity(f"trace {np.trace(rho)} is not 1")
    try:
        rho = linalg.require_hermitian(rho)
    except NotHermitian as exc:
        raise NotDensity(str(exc)) from exc
    lam, v = np.linalg.eigh(rho)
    if lam.min() <= DEFAULT.pd_floor:
        raise NotFaithful(f"minimum eigenvalue {lam.min():.3e} not positive")
    return ModularData(eigenvalues=lam, eigenbasis=v, layout=TensorLayout((n,)))


def tensor_modular(md_a: ModularData, md_b: ModularData) -> ModularData:
    """Modular data of rho_A (x) rho_B with Kronecker-structured eigenbasis."""
    return ModularData(
        eigenvalues=np.kron(md_a.eigenvalues, md_b.eigenvalues),
        eigenbasis=np.kron(md_a.eigenbasis, md_b.eigenbasis),
        layout=TensorLayout(md_a.layout.dims + md_b.layout.dims),
    )


def check_identities(md: ModularData, samples: int, seed) -> dict[str, float]:
    """Max residuals of the modular identities over random samples.

    Each entry is named after the identity it checks; all vanish
    analytically, so the values measure floating-point conditioning only.
    A sample is three unit complex Ginibre matrices a, ξ, ψ, one complex
    Ginibre g and a Δ exponent t uniform in [−1, 1).  The generator of
    ``seed`` makes two draws: the normals of a, ξ, ψ and g as one
    (2, 4, samples, n, n) array of real and imaginary parts, then the t of
    every sample.  Every identity is one pass over the sample stack.
    InvalidOption unless samples ≥ 1 and seed ≥ 0 are integers.
    """
    linalg._check_count("samples", samples)
    linalg._check_count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal((2, 4, samples, md.dim, md.dim))
    z = re + 1j * im
    z[:3] /= np.linalg.norm(z[:3], axis=(-2, -1), keepdims=True)
    a, xi, psi, g = z
    t = rng.uniform(-1.0, 1.0, samples)

    def worst(x):
        return float(np.max(np.linalg.norm(x, axis=(-2, -1))))

    def adj(x):
        return x.conj().mT

    u, j = md.u, md.j
    jm = adj(xi)
    at = u(a)
    pos = g @ adj(g)
    pos /= np.linalg.norm(pos, axis=(-2, -1))[:, None, None]
    image = md.tau(pos @ md.rho_power(0.5)) @ md.rho_power(-0.5)
    return {
        # U is an involution and self-adjoint; J_m is x -> x*
        "u_squared": worst(u(u(xi)) - xi),
        "u_selfadjoint": float(np.max(np.abs(
            np.sum(u(xi).conj() * psi, axis=(-2, -1))
            - np.sum(xi.conj() * u(psi), axis=(-2, -1))))),
        # J = U J_m
        "j_eq_u_jm": worst(j(xi) - u(jm)),
        # pairwise commutation of J, J_m, U
        "commute_j_jm": worst(j(jm) - adj(j(xi))),
        "commute_j_u": worst(j(u(xi)) - u(j(xi))),
        "commute_jm_u": worst(adj(u(xi)) - u(jm)),
        # J commutes with Delta powers
        "j_delta_commute": worst(j(md.delta(xi, t)) - md.delta(j(xi), t)),
        # polar form tau = U Delta^{1/2}
        "tau_polar": worst(md.tau(xi) - u(md.delta(xi, 0.5))),
        # U Delta U = Delta^{-1}
        "u_delta_u": worst(u(md.delta(u(xi), 1.0)) - md.delta(xi, -1.0)),
        # a^t xi = J a* J xi  (transpose taken in the eigenbasis)
        "transpose_via_j": worst(at @ xi - j(adj(a) @ j(xi))),
        # commutant mapping: U L_a U = R_{a^t}
        "commutant_map": worst(u(a @ u(xi)) - xi @ at),
        # U Delta^{1/2} maps a Omega with a >= 0 into V_0
        "tau_v0_invariance": max(0.0, -float(np.min(
            np.linalg.eigvalsh(linalg.herm_part(image))[:, 0]))),
    }
