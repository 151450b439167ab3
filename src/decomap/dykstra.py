"""The two-cone engine: Dykstra projection and Douglas–Rachford splitting.

Every solve runs on one cone pair, :class:`PPTPair`: K1 = {a ⪰ 0} and
K2 = {a : a^Γ ⪰ 0}, with Γ the partial transpose of one tensor factor.

* ``project_intersection``: the nearest point of K1 ∩ K2 by Dykstra, whose
  correction terms make the iterates reach the nearest point, not just any
  point.  It stops converged, stagnated or at ``max_iter``.
* ``split_sum``: c = a + b with a ∈ K1, b ∈ K2, which needs *a* split, not
  the nearest one.  It stops ``converged``, ``certified`` by a dual witness
  that proves c ∉ K1 + K2, or ``capped`` at ``max_iter``.

Inputs are validated once, when a pair is built and when a solve starts.
Callers reach the solvers through this module, one call per solve, which
lets the benchmark count solves and stop reasons by wrapping them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidOption
from .linalg import DEFAULT, TensorLayout, frobenius

_WITNESS_EVERY = 8      # split iterations between dual-witness checks


@dataclass(frozen=True)
class PPTPair:
    """The cones {a ⪰ 0} and {a : a^Γ ⪰ 0}, Γ transposing factor ``factor``."""

    layout: TensorLayout
    factor: int

    def __post_init__(self):
        object.__setattr__(self, "_plan", linalg._pt_plan(self.layout, self.factor))

    def validate(self, x, max_iter: int) -> np.ndarray:
        """x as a finite complex matrix of the pair's side, or a typed error.

        Also rejects an iteration cap below one, which leaves no iterate.
        """
        if max_iter < 1:
            raise InvalidOption(f"max_iter must be at least 1, got {max_iter}")
        x = linalg._as_matrix(x)
        self.layout.check(x)
        return x

    def pt(self, x: np.ndarray) -> np.ndarray:
        """The partial transpose Γ (an involution)."""
        return linalg._permute(x, *self._plan)

    def proj1(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of {a ⪰ 0} to the Hermitian part of x."""
        return linalg._psd_clip(x)

    def proj2(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of {a : a^Γ ⪰ 0} to the Hermitian part of x."""
        return self.pt(linalg._psd_clip(self.pt(x)))


@dataclass
class DykstraResult:
    point: np.ndarray           # final K1-feasible iterate (intersection flavour)
    residual: float
    iterations: int
    converged: bool


@dataclass
class SplitResult:
    part1: np.ndarray
    part2: np.ndarray
    residual: float             # ||c - part1 - part2||_F
    iterations: int
    stop_reason: str            # "converged", "certified" or "capped"
    witness: np.ndarray | None = None   # unit dual witness when certified

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _stagnated(history: list[float]) -> bool:
    window = DEFAULT.dykstra_window
    if len(history) <= window:
        return False
    old = history[-window - 1]
    new = history[-1]
    return old - new < DEFAULT.dykstra_progress * max(1.0, old)


def project_intersection(
    x0: np.ndarray,
    pair: PPTPair,
    tol: float = DEFAULT.cone,
    max_iter: int = DEFAULT.max_iter,
) -> DykstraResult:
    """Dykstra projection of x0 onto K1 ∩ K2.

    The residual is the distance between the two one-sided projections,
    which vanishes exactly on the intersection.
    """
    x = pair.validate(x0, max_iter)
    proj1, proj2 = pair.proj1, pair.proj2
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    history: list[float] = []
    for it in range(1, max_iter + 1):
        xp = x + p
        y = proj1(xp)
        p = xp - y
        yq = y + q
        x = proj2(yq)
        q = yq - x
        res = frobenius(x - y)
        history.append(res)
        if res <= tol:
            return DykstraResult(point=x, residual=res, iterations=it, converged=True)
        if _stagnated(history):
            break
    return DykstraResult(point=x, residual=history[-1], iterations=len(history), converged=False)


def split_sum(
    c: np.ndarray,
    pair: PPTPair,
    tol: float = DEFAULT.cone,
    max_iter: int = DEFAULT.max_iter,
) -> SplitResult:
    """Decide c = a + b with a ∈ K1, b ∈ K2 by Douglas–Rachford.

    On the stack z = [a, b^Γ] both cones are the PSD cone, so an iteration
    x = P_affine(z), y = clip(2x − z), z += y − x makes one batched clip, and
    the parts (y's slots) lie in their cones at every stop.  Infeasible
    iterates diverge along a certificate direction (Banjac et al., JOTA
    2019), which :func:`_witness` reads off the gap.
    """
    c = pair.validate(c, max_iter)
    pt = pair.pt
    bound = tol * min(1.0, frobenius(c))
    z = np.stack((c, pt(c))) / 2
    for it in range(1, max_iter + 1):
        g = (c - z[0] - pt(z[1])) / 2
        step = np.stack((g, pt(g)))
        y = linalg._psd_clip(z + 2 * step)
        a, b = y[0], pt(y[1])
        gap = c - a - b
        res = frobenius(gap)
        if res <= bound:
            return SplitResult(a, b, res, it, "converged")
        if it % _WITNESS_EVERY == 0:
            witness = _witness(gap, c, pt)
            if witness is not None:
                return SplitResult(a, b, res, it, "certified", witness)
        z = y - step
    return SplitResult(a, b, res, max_iter, "capped")


def _witness(gap: np.ndarray, c: np.ndarray, pt) -> np.ndarray | None:
    """Unit W with W ⪰ 0, W^Γ ⪰ 0 and Tr(W c) < 0, proving c ∉ K1 + K2, or None.

    W is the PSD part of −gap plus the multiple of I (I^Γ = I) that makes
    W^Γ PSD: a decomposable entanglement witness.
    """
    w = linalg._psd_clip(-gap)
    w += max(0.0, -linalg.min_eig(pt(w))) * np.eye(len(w))
    w_norm = frobenius(w)
    if np.vdot(w, c).real < -DEFAULT.certificate * w_norm * frobenius(c):
        return w / w_norm
    return None
