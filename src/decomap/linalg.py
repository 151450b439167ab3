"""Dense complex linear algebra kernels.

Everything downstream (modular data, cone tests, map hierarchies) is built
on the Hermitian checks, PSD projections, partial transposes and seeded
Ginibre ensembles collected here.  Matrices are plain complex numpy arrays.
The numerical tolerances live in one constant record, :data:`DEFAULT`
(a :class:`Tolerances`), which the package reads directly instead of
passing it around; a ``tol`` is held against the norm of its input, so a
verdict does not change when the input is scaled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LayoutMismatch,
    NonFinite,
    NotHermitian,
    ShapeMismatch,
)


@dataclass(frozen=True)
class Tolerances:
    """The package's numerical tolerances; read through the constant ``DEFAULT``."""

    herm_rel: float = 1e-10       # Hermitian deviation, relative
    pd_floor: float = 1e-12       # strict positivity floor
    kernel: float = 1e-10         # Gram-form kernel cutoff
    cone: float = 1e-8            # default tol: cones, splits, Størmer's construction
    eig: float = 1e-9             # default tol: CP / k-positivity and identity residuals
    certificate: float = 1e-10    # Tr(WC) margin / (‖W‖‖C‖): above eigh's error, ~side·ε
    max_iter: int = 5000          # default Dykstra iteration cap


DEFAULT = Tolerances()


@dataclass(frozen=True)
class TensorLayout:
    """Ordered factor dimensions of a tensor-product matrix side."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 1 for d in self.dims):
            raise LayoutMismatch(f"factor dimensions must be positive: {self.dims}")

    @property
    def side(self) -> int:
        return math.prod(self.dims)

    def check(self, x: np.ndarray) -> None:
        if x.shape != (self.side, self.side):
            raise LayoutMismatch(
                f"layout {self.dims} annotates side {self.side}, matrix is {x.shape}"
            )


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return x


def frobenius(x) -> float:
    """‖x‖_F of a matrix or a stack: bit for bit ``float(np.linalg.norm(x))``.

    It is numpy's own formula without the wrapper's dispatch: the entries in
    memory order, then sqrt(re·re + im·im) of float64 parts.
    """
    x = np.asarray(x).ravel(order="K")
    if x.dtype.kind == "c":
        return _norm_reader(x)()
    if x.dtype.kind != "f":
        x = x.astype(float)
    return math.sqrt(x.dot(x))


def _norm_reader(x: np.ndarray):
    """``frobenius`` of the complex buffer x, as a call without arguments that
    reads x as it is then.  Its flat real and imaginary views are made once,
    in memory order, so x must be C-contiguous (or already flat)."""
    x = x.reshape(-1)
    re, im = x.real, x.imag
    return lambda: math.sqrt(re.dot(re) + im.dot(im))


def herm_part(x: np.ndarray) -> np.ndarray:
    """(x + x*)/2 of a matrix, or of each matrix of a stack."""
    return (x + x.conj().mT) / 2


def _unit(n: int, i: int, j: int) -> np.ndarray:
    """Matrix unit E_ij of M_n."""
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def hermitian_deviation(x: np.ndarray, rel: float = DEFAULT.herm_rel) -> tuple[float, float]:
    """‖x − x*‖ and the bound rel·‖x‖ it is held against (Frobenius norms)."""
    return frobenius(x - x.conj().T), rel * frobenius(x)


def require_hermitian(x) -> np.ndarray:
    """x as a finite Hermitian matrix (its Hermitian part), or a typed error."""
    x = _as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise NotHermitian(f"matrix is not square: {x.shape}")
    dev, bound = hermitian_deviation(x)
    if dev > bound:
        raise NotHermitian(f"Hermitian deviation {dev:.3e} exceeds {bound:.3e}")
    return herm_part(x)


def _psd_clip(x: np.ndarray) -> np.ndarray:
    """Clip the negative eigenvalues of the Hermitian part; no validation.

    Works on a matrix or on a stack of matrices (one batched ``eigh``); x is
    left as it was.
    """
    return _clipper(x, np.empty(x.shape, dtype=complex))()


def _clipper(x: np.ndarray, out: np.ndarray):
    """The PSD clip of the Hermitian part of the buffer x into the buffer out,
    as a call without arguments that reads x as it is then.

    It writes (x + x*)/2 into out and clips that in place with
    :func:`_eig_clipper`.  A solve makes one per buffer pair and calls it
    every iteration: xᵀ and the clip's own workspace are made here, once.
    """
    xt = x.swapaxes(-1, -2)
    clip_out = _eig_clipper(out, out)

    def clip() -> np.ndarray:
        np.conjugate(xt, out=out)
        np.add(out, x, out=out)
        np.divide(out, _TWO, out=out)
        return clip_out()
    return clip


def _eig_clipper(x: np.ndarray, out: np.ndarray):
    """The PSD clip of the Hermitian matrix (or stack) whose lower triangle
    is the buffer x's, into the buffer out (which may be x), as a call
    without arguments that reads x as it is then.

    ``eigh`` reads only the lower triangle and the real part of the
    diagonal, so x's upper triangle is never read: x needs to be Hermitian
    only up to what that triangle holds, and no symmetrization is made.  The
    clip is V·max(w, 0)·V*.  The scaled eigenvectors' buffer is made here,
    once; ``eigh`` is looked up at each call.
    """
    vw = np.empty(x.shape, dtype=complex)

    def clip() -> np.ndarray:
        w, v = np.linalg.eigh(x)
        np.maximum(w, _ZERO, out=w)
        np.multiply(v, w[..., None, :], out=vw)
        return np.matmul(vw, np.conjugate(v, out=v).swapaxes(-1, -2), out=out)
    return clip


# 0-d operands: the same ufunc loops as the Python scalars 2 and 0.0, without
# converting a scalar on every call (× ½ or h + h would differ from ÷ 2 and
# × 2 in the sign of zero entries)
_TWO = np.array(2.0 + 0.0j)
_ZERO = np.array(0.0)


def min_eig(h: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part."""
    return float(np.linalg.eigvalsh(herm_part(h))[0])


@functools.cache
def _pt_index(layout: TensorLayout, factor: int) -> np.ndarray:
    """Flat source index of every entry of x^Γ, so that x^Γ = x.take(index).

    Γ transposes the indices of factor ``factor`` (1-based).  It is a
    permutation of the entries, so it moves values without arithmetic.
    """
    k = len(layout.dims)
    if not 1 <= factor <= k:
        raise LayoutMismatch(f"factor {factor} out of range for {layout.dims}")
    side = layout.side
    index = np.arange(side * side).reshape(layout.dims + layout.dims)
    index = index.swapaxes(factor - 1, k + factor - 1).reshape(side, side)
    index.flags.writeable = False
    return index


def partial_transpose(x, layout: TensorLayout, factor: int) -> np.ndarray:
    """Transpose the indices of one tensor factor (1-based) only."""
    x = _as_matrix(x)
    layout.check(x)
    return x.take(_pt_index(layout, factor))


def sample_ginibre(rows: int, cols: int, seed) -> np.ndarray:
    """Complex Ginibre matrix: i.i.d. standard complex Gaussian entries."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def sample_psd(n: int, seed) -> np.ndarray:
    """Random PSD matrix G G* with G complex Ginibre; deterministic in seed."""
    g = sample_ginibre(n, n, seed)
    return g @ g.conj().T


def sample_hermitian(n: int, seed) -> np.ndarray:
    """Random Hermitian matrix, GUE-style (Hermitian part of Ginibre)."""
    return herm_part(sample_ginibre(n, n, seed))


def sample_unitary(n: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix, phases fixed."""
    q, r = np.linalg.qr(sample_ginibre(n, n, seed))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_density(n: int, seed, ridge: float = 0.0) -> np.ndarray:
    """Random faithful density matrix (GG* + ridge * I, trace-normalized)."""
    w = sample_psd(n, seed)
    w = w + ridge * (np.trace(w).real / n) * np.eye(n)
    return w / np.trace(w).real
