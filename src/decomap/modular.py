"""Finite-dimensional modular (Tomita-Takesaki) data for a faithful state.

The GNS space of (M_n, rho) is identified with M_n under the trace inner
product, with cyclic vector Omega = rho^{1/2}.  The modular operators are
methods of :class:`ModularData`: ``delta(x, t)`` for Delta^t, ``j`` for
the conjugation J, ``u`` for the transposition unitary U and ``tau`` for
U Delta^{1/2}; the modular conjugation J_m is plain ``x.conj().T``.  The
basis-dependent ones (J, U, tau) are evaluated in the rho-eigenbasis:
inputs in the standard basis are rotated in and out by the cached
eigenbasis unitary.
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
from .linalg import DEFAULT, TensorLayout, frobenius

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

    def _square(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise ShapeMismatch(f"expected {self.dim}x{self.dim}, got {x.shape}")
        return x

    def delta(self, x, t: float) -> np.ndarray:
        """Delta^t: x -> rho^t x rho^{-t}."""
        x = self._square(x)
        if not np.isfinite(t):
            raise InvalidOption(f"Delta exponent must be finite, got {t}")
        lam = self.eigenvalues
        scale = np.outer(lam**t, lam**-t)
        return self.from_eigenbasis(scale * self.to_eigenbasis(x))

    def j(self, x) -> np.ndarray:
        """Conjugation J: entrywise complex conjugate in the eigenbasis."""
        return self.from_eigenbasis(self.to_eigenbasis(self._square(x)).conj())

    def u(self, x) -> np.ndarray:
        """Transposition unitary U: transpose in the eigenbasis."""
        return self.from_eigenbasis(self.to_eigenbasis(self._square(x)).T)

    def tau(self, x) -> np.ndarray:
        """tau = U Delta^{1/2}: x -> rho^{-1/2} x^t rho^{1/2} in the eigenbasis."""
        xe = self.to_eigenbasis(self._square(x))
        lam = self.eigenvalues
        return self.from_eigenbasis((lam**-0.5)[:, None] * xe.T * (lam**0.5)[None, :])


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


def check_identities(md: ModularData, samples: int, seed) -> dict[str, float]:
    """Max residuals of the modular identities over random samples.

    Each entry is named after the identity it checks; all vanish
    analytically, so the values measure floating-point conditioning only.
    """
    if samples < 1:
        raise InvalidOption(f"samples must be at least 1, got {samples}")
    n = md.dim
    rng = np.random.default_rng(seed)

    def rand():
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return m / frobenius(m)

    res: dict[str, float] = {}

    def record(name, value):
        res[name] = max(res.get(name, 0.0), float(value))

    for _ in range(samples):
        a, xi, psi = rand(), rand(), rand()
        # U is an involution and self-adjoint; J_m is x -> x*
        record("u_squared", frobenius(md.u(md.u(xi)) - xi))
        record("u_selfadjoint", abs(linalg.hs_inner(md.u(xi), psi)
                                    - linalg.hs_inner(xi, md.u(psi))))
        # J = U J_m
        jm = xi.conj().T
        record("j_eq_u_jm", frobenius(md.j(xi) - md.u(jm)))
        # pairwise commutation of J, J_m, U
        record("commute_j_jm", frobenius(md.j(jm) - md.j(xi).conj().T))
        record("commute_j_u", frobenius(md.j(md.u(xi)) - md.u(md.j(xi))))
        record("commute_jm_u", frobenius(md.u(xi).conj().T - md.u(jm)))
        # J commutes with Delta powers
        t = float(rng.uniform(-1.0, 1.0))
        record("j_delta_commute", frobenius(md.j(md.delta(xi, t)) - md.delta(md.j(xi), t)))
        # polar form tau = U Delta^{1/2}
        record("tau_polar", frobenius(md.tau(xi) - md.u(md.delta(xi, 0.5))))
        # U Delta U = Delta^{-1}
        record("u_delta_u", frobenius(md.u(md.delta(md.u(xi), 1.0)) - md.delta(xi, -1.0)))
        # a^t xi = J a* J xi  (transpose taken in the eigenbasis)
        at = md.u(a)
        record("transpose_via_j", frobenius(at @ xi - md.j(a.conj().T @ md.j(xi))))
        # commutant mapping: U L_a U = R_{a^t}
        record("commutant_map", frobenius(md.u(a @ md.u(xi)) - xi @ at))
        # U Delta^{1/2} maps a Omega with a >= 0 into V_0
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pos = g @ g.conj().T
        pos /= frobenius(pos)
        image = md.tau(pos @ md.rho_half)
        record("tau_v0_invariance", linalg.psd_deficit(image @ md.rho_inv_half))
    return res
