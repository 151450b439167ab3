"""The two-cone engine: Dykstra projection and Douglas–Rachford splitting.

Every solve runs on one cone pair, :class:`PPTPair`: K1 = {a ⪰ 0} and
K2 = {a : a^Γ ⪰ 0}, with Γ the partial transpose of one tensor factor.

* ``project_intersection``: the nearest point of K1 ∩ K2 by Dykstra, whose
  correction terms make the iterates reach the nearest point, not just any
  point.  Anderson acceleration with a safeguard extrapolates the Dykstra
  step from its last images and keeps Dykstra's invariant, so the limit is
  the same nearest point in far fewer steps.  It stops converged, stagnated
  or at ``max_iter``; every Dykstra step counts as an iteration.
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
_MEMORY = 5             # Anderson differences kept by project_intersection
_RIDGE = 1e-14          # their least-squares ridge, relative to the Gram trace


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
    point: np.ndarray           # P2's last output, so K2-feasible (intersection flavour)
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
    """Nearest point of K1 ∩ K2 to x0: Dykstra's projection, Anderson-accelerated.

    T is one Dykstra step on the stacked state u = [x, p, q]:
    y = P1(x + p), x' = P2(y + q), p' = x + p − y, q' = y + q − x'.
    From the third step on, the next state is the type-II Anderson
    extrapolation G[-1] − ΔG·γ of the last images G = T(U) (Walker & Ni,
    SIAM J. Numer. Anal. 2011), with real γ fitted by least squares to the
    residuals T(U) − U.  Its weights sum to one, so it keeps Dykstra's
    invariant x0 − x = p + q, which is why a fixed point's x is the nearest
    point of the intersection and not just any point of it; real weights keep
    Hermitian iterates Hermitian.  An extrapolated state is kept only if
    ‖T(u) − u‖ there is no larger than at the state it replaced (Zhang,
    O'Donoghue & Boyd, SIAM J. Optim. 2020); otherwise the memory is cleared
    and the plain step taken.

    ``iterations`` counts the evaluations of T, rejected ones included: two
    ``eigh`` each.  The residual ‖x' − y‖ vanishes exactly on the
    intersection; the stagnation stop reads it at accepted states only.  The
    point is P2's output x', so it lies in K2.
    """
    x = pair.validate(x0, max_iter)
    proj1, proj2 = pair.proj1, pair.proj2
    u = np.stack((x, np.zeros_like(x), np.zeros_like(x)))
    states: list[np.ndarray] = []       # Anderson memory: states U ...
    images: list[np.ndarray] = []       # ... and their images T(U)
    fallback = None                     # (T(u), ‖T(u) − u‖) of the state u extrapolated from
    history: list[float] = []
    for it in range(1, max_iter + 1):
        x, p, q = u
        xp = x + p
        y = proj1(xp)
        yq = y + q
        x = proj2(yq)
        tu = np.stack((x, xp - y, yq - x))
        step = frobenius(tu - u)
        if fallback is not None:
            plain, plain_step = fallback
            fallback = None
            if step > plain_step:
                states.clear()
                images.clear()
                u = plain
                continue
        point = x
        res = frobenius(x - y)
        history.append(res)
        if res <= tol:
            return DykstraResult(point=point, residual=res, iterations=it, converged=True)
        if _stagnated(history):
            break
        states.append(u)
        images.append(tu)
        if len(images) < 2:
            u = tu
            continue
        del states[:-_MEMORY - 1], images[:-_MEMORY - 1]
        fallback = (tu, step)
        u = _anderson(states, images)
    return DykstraResult(point=point, residual=history[-1], iterations=it, converged=False)


def _anderson(states: list[np.ndarray], images: list[np.ndarray]) -> np.ndarray:
    """The type-II Anderson state G[-1] − ΔG·γ, F = G − U.

    γ minimises ‖F[-1] − ΔF·γ‖ on the real view, through its normal
    equations with a ridge of ``_RIDGE`` times their trace.
    """
    g = np.array(images).reshape(len(images), -1)
    f = (g - np.array(states).reshape(g.shape)).view(float)
    df = f[1:] - f[:-1]
    gram = df @ df.T
    # the floor keeps the system regular when all residuals are equal (γ = 0)
    gram += (_RIDGE * np.trace(gram) + np.finfo(float).tiny) * np.eye(len(gram))
    gamma = np.linalg.solve(gram, df @ f[-1])
    return (g[-1] - gamma @ (g[1:] - g[:-1])).reshape(images[-1].shape)


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
