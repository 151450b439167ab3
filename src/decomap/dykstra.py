"""Dykstra alternating projections for the two-cone pair of the package.

Every Dykstra problem in decomap runs on one cone pair, :class:`PPTPair`:
K1 = {a ⪰ 0} and K2 = {a : a^Γ ⪰ 0}, with Γ the partial transpose of one
tensor factor.  Two flavours are used throughout the package:

* projection onto the intersection K1 ∩ K2, and
* the split feasibility question c = a + b with a ∈ K1, b ∈ K2
  (membership of c in the Minkowski sum K1 + K2).

Plain alternating projections would only find a point of an intersection
of translates; Dykstra's correction terms make the iterates converge to
the actual nearest point, which is what turns the final residual into a
meaningful distance estimate.

The split keeps one stacked state [a, b^Γ]: the partial transpose only
permutes entries, so both of its cones become the PSD cone and each
iteration projects the two parts with one batched ``eigh``.  The
intersection runs its two projections one after the other, as Dykstra
must: the second projects the output of the first.

Inputs are validated once, when a pair is built and when a solve starts
(finite entries, the pair's side, ``max_iter >= 1``); the projections
inside the loop run on trusted arrays and validate nothing.  Callers reach
the two solvers through this module (``dykstra.split_sum(...)``,
``dykstra.project_intersection(...)``), one call per solve, and the
iteration cap is the parameter ``max_iter``: the benchmark counts solves
and their stop reasons (converged, stagnated or capped at ``max_iter``) by
wrapping these two attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidOption
from .linalg import DEFAULT, TensorLayout, frobenius


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
    converged: bool
    deficit: np.ndarray | None  # normalized unsplit direction when infeasible


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
    """Decide c = a + b with a ∈ K1, b ∈ K2 by Dykstra in the product space.

    The product-space sets are C1 = K1 × K2 (cone projections, with Dykstra
    corrections) and the affine constraint C2 = {(a, b) : a + b = c}
    (exact projection, no correction needed for an affine set).  The state
    is the stack s = [a, b^Γ] with its correction p = [pa, pb^Γ]: Γ only
    permutes entries, so in these coordinates C1 is the PSD cone on both
    slots and one batched clip projects onto it.
    """
    c = pair.validate(c, max_iter)
    pt = pair.pt
    half = c / 2
    s = np.stack((half, pt(half)))
    p = np.zeros_like(s)
    history: list[float] = []
    best = None
    for it in range(1, max_iter + 1):
        y = s + p
        s1 = linalg._psd_clip(y)
        p = y - s1
        a1, b1 = s1[0], pt(s1[1])
        gap = c - a1 - b1
        res = frobenius(gap)
        history.append(res)
        if best is None or res < best[0]:
            best = (res, a1, b1, gap)
        if res <= tol:
            return SplitResult(part1=a1, part2=b1, residual=res, iterations=it,
                               converged=True, deficit=None)
        # affine step: distribute the split gap evenly
        g = gap / 2
        s = s1 + np.stack((g, pt(g)))
        if _stagnated(history):
            break
    res, a1, b1, gap = best
    scale = frobenius(gap)
    deficit = gap / scale if scale > 0 else gap
    return SplitResult(part1=a1, part2=b1, residual=res, iterations=len(history),
                       converged=False, deficit=deficit)
