"""The two-cone engine: Dykstra projection and Douglas–Rachford splitting.

Every solve runs on one cone pair, :class:`PPTPair`: K1 = {a ⪰ 0} and
K2 = {a : a^Γ ⪰ 0}, with Γ the partial transpose of one tensor factor.

* ``project_intersection``: the nearest point of K1 ∩ K2 by Dykstra, whose
  correction terms make the iterates reach the nearest point, not just any
  point.  Anderson acceleration with a safeguard extrapolates the Dykstra
  step from its last images and keeps Dykstra's invariant, so the limit is
  the same nearest point in far fewer steps.  It stops converged or capped
  at ``max_iter``; every Dykstra step counts as an iteration.
* ``split_sum``: c = a + b with a ∈ K1, b ∈ K2, which needs *a* split, not
  the nearest one.  It stops ``converged``, ``certified`` by a dual witness
  that proves c ∉ K1 + K2, or ``capped`` at ``max_iter``.

The pair also answers the pointwise question, λmin of x and of x^Γ
(``PPTPair.min_eigs``), for the CP / co-CP test, the intersection probe and
the S_k sampler's re-check.

Inputs are validated once, when a pair is built and when a solve starts;
``split_sum`` also takes its input's Hermitian part there, once.  Callers
reach the solvers through this module, one call per solve, which lets the
benchmark count solves and stop reasons by wrapping them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidOption
from .linalg import DEFAULT, TensorLayout

_WITNESS_EVERY = 8      # split iterations between dual-witness checks
_MEMORY = 5             # Anderson differences kept by project_intersection
_RIDGE = 1e-14          # their least-squares ridge, relative to the Gram trace
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PPTPair:
    """The cones {a ⪰ 0} and {a : a^Γ ⪰ 0}, Γ transposing factor ``factor``."""

    layout: TensorLayout
    factor: int

    def __post_init__(self):
        object.__setattr__(self, "_index", linalg._pt_index(self.layout, self.factor))

    def validate(self, x, max_iter: int) -> np.ndarray:
        """x as a finite complex matrix of the pair's side, or a typed error.

        Also rejects an iteration cap below one, which leaves no iterate.
        """
        if max_iter < 1:
            raise InvalidOption(f"max_iter must be at least 1, got {max_iter}")
        x = linalg._as_matrix(x)
        self.layout.check(x)
        return x

    def pt(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The partial transpose Γ (an involution), into ``out`` if given."""
        # the index is in range, so "clip" only drops take's buffered range check
        return x.take(self._index, out=out, mode="clip")

    def min_eigs(self, x: np.ndarray) -> tuple[float, float]:
        """λmin of the Hermitian parts of x and of x^Γ, x of the pair's side.

        One batched ``eigvalsh`` of the stack [x, x^Γ]; LAPACK solves each
        matrix of a stack on its own, so each value is bit for bit that of
        ``linalg.min_eig`` on the matrix alone.
        """
        w = np.linalg.eigvalsh(linalg.herm_part(np.stack((x, self.pt(x)))))
        return float(w[0, 0]), float(w[1, 0])


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
    residuals F = T(U) − U.  Its weights sum to one, so it keeps Dykstra's
    invariant x0 − x = p + q, which is why a fixed point's x is the nearest
    point of the intersection and not just any point of it; real weights keep
    Hermitian iterates Hermitian.  An extrapolated state is kept only if
    ‖T(u) − u‖ there is no larger than at the state it replaced (Zhang,
    O'Donoghue & Boyd, SIAM J. Optim. 2020); otherwise the memory is cleared
    and the plain step taken.

    ``iterations`` counts the evaluations of T, rejected ones included: two
    ``eigh`` each.  The residual ‖x' − y‖ vanishes exactly on the
    intersection and is read at accepted states only.  The solve stops
    converged, once it is at most ``tol``, or capped after ``max_iter``
    evaluations.  The point is P2's output x', so it lies in K2.

    The memory is two fixed buffers of ``_MEMORY + 1`` rows, oldest first:
    G and F, whose row is written where T(u) and T(u) − u are computed.
    The two clips, the norms of every F row and of x' − y, and the
    extrapolation of each memory length read fixed buffers through
    workspaces made once per solve, the extrapolation's when the solve
    first keeps that many rows.
    """
    x = pair.validate(x0, max_iter)
    pt = pair.pt
    u = np.zeros((3,) + x.shape, dtype=complex)
    u[0] = x
    x, p, q = u                 # views of the state's rows
    images = np.empty((_MEMORY + 1,) + u.shape, dtype=complex)     # G = T(U)
    residuals = np.empty_like(images)                               # F = T(U) − U
    step_norms = [linalg._norm_reader(f) for f in residuals]        # ‖T(u) − u‖ by row
    slots = [(tu, *tu) for tu in images]                            # T(u) and its rows
    extrapolate = [None] * (len(images) + 1)     # by rows kept, made on first use
    xp, y, yq, t, d = np.empty((5,) + x.shape, dtype=complex)
    clip_y = linalg._clipper(xp, y)         # y = P1(xp)
    clip_d = linalg._clipper(t, d)          # d = clip(yq^Γ), so P2(yq) = d^Γ
    res_norm = linalg._norm_reader(d)
    kept = 0                    # rows of the memory in use
    plain_step = None           # ‖T(u) − u‖ at the state u was extrapolated from
    for it in range(1, max_iter + 1):
        if kept == len(images):     # drop the oldest row (a rejection clears them all)
            images[:-1] = images[1:]
            residuals[:-1] = residuals[1:]
            kept -= 1
        tu, x1, p1, q1 = slots[kept]
        np.add(x, p, out=xp)
        clip_y()
        np.add(y, q, out=yq)
        pt(yq, out=t)
        pt(clip_d(), out=x1)
        np.subtract(xp, y, out=p1)
        np.subtract(yq, x1, out=q1)
        np.subtract(tu, u, out=residuals[kept])
        step = step_norms[kept]()
        if plain_step is not None:
            rejected = step > plain_step
            plain_step = None
            if rejected:
                u[...] = images[kept - 1]
                point = x           # the last accepted x', whose row a shift may reuse
                kept = 0
                continue
        point = x1
        np.subtract(point, y, out=d)
        res = res_norm()
        if res <= tol:
            return DykstraResult(point=point.copy(), residual=res, iterations=it,
                                 converged=True)
        kept += 1
        if kept < 2:
            u[...] = tu
            continue
        plain_step = step
        if extrapolate[kept] is None:
            extrapolate[kept] = _anderson(images[:kept], residuals[:kept], u)
        extrapolate[kept]()
    return DykstraResult(point=point.copy(), residual=res, iterations=max_iter,
                         converged=False)


def _anderson(images: np.ndarray, residuals: np.ndarray, out: np.ndarray):
    """The type-II Anderson state G[-1] − ΔG·γ of the memory rows ``images``
    (G) and ``residuals`` (F), written into ``out``, as a call without
    arguments that reads the rows as they are then.

    γ minimises ‖F[-1] − ΔF·γ‖ on the real view, through its normal
    equations with a ridge of ``_RIDGE`` times their trace.  A solve makes
    one per memory length: the flat views of the rows and the ΔF, ΔG, Gram,
    right-hand-side and correction buffers are made here, once, when the
    solve first extrapolates from that many rows.
    """
    g = images.reshape(len(images), -1)
    f = residuals.reshape(len(g), -1).view(float)
    g_new, g_old, g_last = g[1:], g[:-1], g[-1]
    f_new, f_old, f_last = f[1:], f[:-1], f[-1]
    out = out.reshape(g_last.shape)
    df = np.empty(f_new.shape)
    df_t = df.T
    dg = np.empty(g_new.shape, dtype=complex)
    gram = np.empty((len(df), len(df)))
    diagonal = gram.reshape(-1)[::len(gram) + 1]
    rhs = np.empty(len(df))
    correction = np.empty_like(out)

    def extrapolate() -> None:
        np.subtract(f_new, f_old, out=df)
        np.matmul(df, df_t, out=gram)
        # the floor keeps the system regular when all residuals are equal (γ = 0)
        np.add(diagonal, _RIDGE * gram.trace() + _TINY, out=diagonal)
        gamma = np.linalg.solve(gram, np.matmul(df, f_last, out=rhs))
        np.subtract(g_new, g_old, out=dg)
        np.subtract(g_last, np.matmul(gamma, dg, out=correction), out=out)
    return extrapolate


def split_sum(
    c: np.ndarray,
    pair: PPTPair,
    tol: float = DEFAULT.cone,
    max_iter: int = DEFAULT.max_iter,
) -> SplitResult:
    """Decide c = a + b with a ∈ K1, b ∈ K2 by Douglas–Rachford.

    On the stack z = [a, b^Γ] both cones are the PSD cone, so an iteration
    x = P_affine(z), y = clip(2x − z), z' = z + y − x makes one batched clip,
    and the parts (y's slots) lie in their cones at every stop.  Infeasible
    iterates diverge along a certificate direction (Banjac et al., JOTA
    2019), which :func:`_witness` reads off the gap.

    The loop carries the affine step g, not z.  With P_affine(z) =
    z + [g, g^Γ], g = (c − z₀ − z₁^Γ)/2, the update is z' = y − [g, g^Γ],
    so z'₀ + z'₁^Γ = a + b − 2g and the next step is g' = g + gap/2, gap =
    c − a − b.  The next clip's argument 2x' − z' = z' + 2[g', g'^Γ] is
    s' = y + [h, h^Γ] with h = 2g' − g = g + gap.  Per iteration that is
    h = g + gap, gap /= 2, g += gap, h^Γ and s = y + [h, h^Γ], on buffers
    made once per solve; Γ permutes entries, so it commutes with them.

    c is made Hermitian once, at entry; every later Hermitian matrix of the
    loop is one only up to rounding, and the clip reads just the lower
    triangle of s (``linalg._eig_clipper``), as ``eigh`` does.  An iterate
    is thereby clipped as the Hermitian matrix its lower triangle defines,
    which differs from the Hermitian part of s by rounding; the stop rules
    and the witness read the parts and the gap as computed, so what a stop
    reason proves does not rest on that choice.

    The start is the mean of the two extreme splits, one with all of c's PSD
    part in a and one with all of c^Γ's PSD part in b^Γ:
    z = ½([c₊, (c − c₊)^Γ] + [c − P^Γ, P]) with P = (c^Γ)₊, that is
    a = c/2 + (|c| − |c^Γ|^Γ)/4 and b = c − a.  One batched clip of
    [c, c^Γ] gives c₊ and P, so it costs one ``eigh``, the price of an
    iteration.  DR converges from any start, and on an infeasible c its
    divergence direction does not depend on the start; the stop rules are
    those of every iteration and a certificate is checked on its own, so the
    start moves iteration counts, never what a stop reason proves.
    """
    c = linalg.herm_part(pair.validate(c, max_iter))
    pt = pair.pt
    c_norm = linalg.frobenius(c)
    c_trace = np.trace(c).real
    bound = tol * min(1.0, c_norm)
    s, y, hh = np.empty((3, 2) + c.shape, dtype=complex)
    z0, z1 = s                  # the start's z, built where the first s goes
    a, y1 = y
    h, h_pt = hh
    g, b, gap = np.empty((3,) + c.shape, dtype=complex)
    clip = linalg._eig_clipper(s, y)
    gap_norm = linalg._norm_reader(gap)
    two = linalg._TWO
    s[0] = c
    pt(c, out=s[1])
    clip()                      # y = [c₊, P], P = (c^Γ)₊
    pt(y1, out=b)
    np.subtract(c, b, out=z0)
    np.add(a, z0, out=z0)       # c₊ + (c − P^Γ)
    np.subtract(c, a, out=gap)
    pt(gap, out=z1)
    np.add(z1, y1, out=z1)      # (c − c₊)^Γ + P
    np.divide(s, two, out=s)
    pt(z1, out=h)               # z[1]^Γ
    np.subtract(c, z0, out=g)
    np.subtract(g, h, out=g)
    np.divide(g, two, out=g)
    np.multiply(g, two, out=h)
    pt(h, out=h_pt)
    np.add(s, hh, out=s)        # s = z + 2[g, g^Γ]
    for it in range(1, max_iter + 1):
        clip()
        pt(y1, out=b)
        np.subtract(c, a, out=gap)
        np.subtract(gap, b, out=gap)
        res = gap_norm()
        if res <= bound:
            return SplitResult(a, b, res, it, "converged")
        if it % _WITNESS_EVERY == 0:
            witness = _witness(gap, c, c_trace, c_norm, pt)
            if witness is not None:
                return SplitResult(a, b, res, it, "certified", witness)
        np.add(g, gap, out=h)
        np.divide(gap, two, out=gap)
        np.add(g, gap, out=g)
        pt(h, out=h_pt)
        np.add(y, hh, out=s)
    return SplitResult(a, b, res, max_iter, "capped")


def _witness(gap: np.ndarray, c: np.ndarray, c_trace: float, c_norm: float,
             pt) -> np.ndarray | None:
    """Unit W with W ⪰ 0, W^Γ ⪰ 0 and Tr(W c) < 0, proving c ∉ K1 + K2, or None.

    W = P + sI with P the PSD part of −gap and s ≥ 0 the multiple of I
    (I^Γ = I) that makes W^Γ PSD: a decomposable entanglement witness.  It
    certifies when Tr(W c) < −κ‖W‖‖c‖, κ = ``DEFAULT.certificate``.  c_trace
    is Re Tr c and c_norm is ‖c‖, both read once per solve.

    Before the second eigensolve (for s), a bound rules most checks out.
    s ≤ ‖P^Γ‖_F = ‖P‖_F, since Γ permutes entries, and ‖W‖ ≥ ‖P‖, since
    Tr P ≥ 0; so Tr(W c) = Tr(P c) + s·Tr c ≥ Tr(P c) + min(0, Tr c)·‖P‖.
    If that lower bound is at least −(κ/2)‖P‖‖c‖, no s can reach −κ‖W‖‖c‖
    and the check returns None without forming P^Γ.  The κ/2 margin (5e-11
    relative) is more than three decades above the rounding of these sums
    (about side²·ε), so the bound returns None only where the full check
    would: it never changes a verdict.
    """
    w = linalg._psd_clip(-gap)              # P, then W in place
    norm = linalg._norm_reader(w)
    p_norm = norm()
    lower = np.vdot(w, c).real + min(0.0, c_trace) * p_norm
    if lower >= -0.5 * DEFAULT.certificate * p_norm * c_norm:
        return None
    w += max(0.0, -linalg.min_eig(pt(w))) * np.eye(len(w))
    w_norm = norm()
    if np.vdot(w, c).real < -DEFAULT.certificate * w_norm * c_norm:
        return w / w_norm
    return None
