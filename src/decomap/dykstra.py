"""The two-cone engine: Dykstra projection and Douglas–Rachford splitting.

Every solve runs on one cone pair, :class:`PPTPair`: K1 = {a ⪰ 0} and
K2 = {a : a^Γ ⪰ 0}, with Γ the partial transpose of one tensor factor.

* ``project_intersection``: the nearest point of K1 ∩ K2 by plain Dykstra.
  It stops converged or capped at ``max_iter``.  No module of the package
  calls it: every point of K1 ∩ K2 the package needs is a lift (below).  It
  stays public because the benchmark wraps it by name.
* ``split_sum``: c = a + b with a ∈ K1, b ∈ K2, which needs *a* split, not
  the nearest one.  It stops ``converged``, ``certified`` by a dual witness
  that proves c ∉ K1 + K2, or ``capped`` at ``max_iter``; a CP or co-CP c
  stops converged at iteration 0, on the start's extreme split.  Its
  witness checks run at iteration 1, and at every 8th once the gap has
  stopped falling fast.  It runs Douglas–Rachford in two phases: on the
  product space [a, b^Γ] for 8 iterations, up to the first scheduled
  check, which gets past the plateaus that two-set DR meets from the
  start, then two-set DR on a ∈ K1 ∩ (c − K2), which needs about
  40% of the product-space iterations; c or c^Γ, whichever has the
  smaller negative part, is the one solved, so both take the same course.

The pair also answers the pointwise question, λmin of x and of x^Γ
(``PPTPair.min_eigs``), for the CP / co-CP test and the S_k sampler's
re-check, and it makes a point of K1 ∩ K2 without a solve
(``PPTPair.lift``): a PSD w plus the least multiple of I that puts w^Γ in
the PSD cone, since I^Γ = I.  A lift takes a matrix or a stack of them,
with one batched ``eigvalsh``.  The split's dual witness (one matrix) and
the S_k sampler's points (all of a call's trials as one stack) and
``cones.sample_cone``'s intersection members are built that way; no caller
asks for the nearest point.

Inputs are validated once, when a pair is built and when a solve starts;
each solver also takes its input's Hermitian part there, once, and its
clips then read only the lower triangle of their argument
(``linalg._eig_clipper``), so no iterate is symmetrized again.  Callers
reach the solvers through this module, one call per solve, which lets the
benchmark count solves and stop reasons by wrapping them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT, TensorLayout

_WITNESS_EVERY = 8      # split iterations between witness checks, after the one at 1
_SETTLED = 0.8          # a scheduled check runs only if ‖gap‖ fell by less than a fifth


@dataclass(frozen=True)
class PPTPair:
    """The cones {a ⪰ 0} and {a : a^Γ ⪰ 0}, Γ transposing factor ``factor``."""

    layout: TensorLayout
    factor: int

    def __post_init__(self):
        object.__setattr__(self, "_index", linalg._pt_index(self.layout, self.factor))

    def validate(self, x, tol: float, max_iter: int) -> np.ndarray:
        """x as a finite complex matrix of the pair's side, or a typed error.

        Also rejects a tol that is not finite and positive, and an iteration
        cap that is not an integer of at least one (``InvalidOption``).
        """
        linalg._check_tol(tol)
        linalg._check_count("max_iter", max_iter)
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
        w = linalg.min_eig(np.stack((x, self.pt(x))))
        return float(w[0]), float(w[1])

    def lift(self, w: np.ndarray) -> np.ndarray:
        """w + μI, in place and returned, with μ = max(0, −λmin(w^Γ)).

        μ is the least multiple of I that puts w^Γ in the PSD cone (I^Γ = I),
        so a PSD w becomes a point of K1 ∩ K2 on the boundary of K2, or stays
        as it is when w^Γ is already PSD (adding μI = 0 writes a −0 entry as
        +0).  w may be a matrix or a stack (..., side, side), each matrix
        lifted by its own μ; one (batched) ``eigvalsh``, which solves each
        matrix of a stack on its own, so a slice of a stacked lift is the
        lift of that matrix alone, bit for bit.
        """
        w_pt = w.reshape(w.shape[:-2] + (-1,)).take(self._index, axis=-1)
        # zero first: np.maximum keeps it on a tie, so −0 reads as +0, as max(0.0, ·) does
        mu = np.maximum(linalg._ZERO, -linalg.min_eig(w_pt))
        w += np.multiply.outer(mu, np.eye(w.shape[-1]))
        return w


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
    """Nearest point of K1 ∩ K2 to x0 by plain Dykstra.

    One step on the state (x, p, q), from (x0, 0, 0), is
    y = P1(x + p), p' = x + p − y, x' = P2(y + q), q' = y + q − x';
    keeping x0 − x = p + q makes the limit the nearest point of the
    intersection, not just any point of it.  x0 means its Hermitian part,
    taken once at entry: the anti-Hermitian part is orthogonal to every
    Hermitian matrix, so the nearest point is the same.

    ``iterations`` counts the steps, two ``eigh`` each.  The solve stops
    converged once ‖x' − y‖, zero exactly on the intersection, is at most
    ``tol``, or capped after ``max_iter`` steps; the point x' lies in K2.
    PSD inputs stop within two steps; indefinite ones take about 220 on
    average at tol 1e-11, some thousands.  No module of the package calls
    it (``PPTPair.lift`` makes the points of K1 ∩ K2 that ``cones`` and
    ``maps`` draw); it is kept, public, because the benchmark wraps it by
    name.
    """
    x = linalg.herm_part(pair.validate(x0, tol, max_iter))
    p, q, xp, y, yq, t, d = np.zeros((7,) + x.shape, dtype=complex)
    clip_y = linalg._eig_clipper(xp, y)     # y = P1(xp)
    clip_d = linalg._eig_clipper(t, d)      # d = clip(yq^Γ), so P2(yq) = d^Γ
    res_norm = linalg._norm_reader(d)
    for it in range(1, max_iter + 1):
        np.add(x, p, out=xp)
        clip_y()
        np.subtract(xp, y, out=p)
        np.add(y, q, out=yq)
        pair.pt(yq, out=t)
        pair.pt(clip_d(), out=x)
        np.subtract(yq, x, out=q)
        np.subtract(x, y, out=d)
        res = res_norm()
        if res <= tol:
            return DykstraResult(point=x, residual=res, iterations=it, converged=True)
    return DykstraResult(point=x, residual=res, iterations=max_iter, converged=False)


def split_sum(
    c: np.ndarray,
    pair: PPTPair,
    tol: float = DEFAULT.cone,
    max_iter: int = DEFAULT.max_iter,
) -> SplitResult:
    """Decide c = a + b with a ∈ K1, b ∈ K2 by Douglas–Rachford, in two phases.

    Both phases stop the same way: converged once ‖gap‖ ≤ tol·min(1, ‖c‖),
    gap = c − a − b, certified when :func:`_witness` reads a dual witness off
    the gap at a check, or capped after ``max_iter``.  The parts lie in their
    cones at every stop.  A certified solve's residual is that of the
    iteration whose gap gave the witness: it shows the solve did not
    converge, and is not a distance to the cone.

    **Witness checks.**  One runs at iteration 1, whose gap already
    certifies Choi's map, its local conjugates and GUE inputs.  One is
    scheduled at each multiple of ``_WITNESS_EVERY`` and runs only once the
    gap has settled, that is when the iteration lowered ‖gap‖ by less than a
    fifth (‖gap_it‖ > ``_SETTLED``·‖gap_it−1‖), or when it is the last
    iteration, ``max_iter``, so that no solve loses its last check before
    the cap.  Douglas–Rachford's fixed-point residual does not increase, and
    it tends to the minimal displacement between the two sets, which is
    nonzero exactly when no split exists; infeasible iterates diverge along
    a certificate direction (Bauschke & Moursi, Math. Program. 164, 2017;
    Banjac, Goulart, Stellato & Boyd, JOTA 183, 2019).  So a witness shows up
    only once the gap stops falling, and a check made while it still falls
    fast is one ``eigh`` spent for nothing.  The rule reads the norm the stop
    test already takes.  A check only reads the gap, so a solve it does not
    stop takes the same course as without it: skipping one can move where a
    solve stops, never what a stop proves.

    **Iteration 0.**  When the smaller of ‖c₋‖ and ‖(c^Γ)₋‖, which the
    orientation rule below reads, is within the stop bound, the oriented
    parts are set to the extreme split (c₊, 0) and the solve returns
    ``converged`` with ``iterations`` 0, at no further ``eigh``.  Its gap
    c − c₊ is −c₋, so its residual is the c₋ norm the orientation read,
    which is ‖c − c₊‖ bit for bit: IEEE subtraction is antisymmetric.  So a
    CP or co-CP c, whose c or c^Γ is PSD to within the bound, runs no
    iteration, and ``iterations`` 0 in a result or a report means exactly
    that.

    **Phase 1, iterations 1 to ``_WITNESS_EVERY``: product-space DR,** up to
    the first scheduled witness check.  On the stack z = [a, b^Γ] both cones
    are the PSD cone, so an iteration x = P_affine(z), y = clip(2x − z),
    z' = z + y − x makes one batched clip.
    The loop carries the affine step g, not z.  With P_affine(z) =
    z + [g, g^Γ], g = (c − z₀ − z₁^Γ)/2, the update is z' = y − [g, g^Γ],
    so z'₀ + z'₁^Γ = a + b − 2g and the next step is g' = g + gap/2.  The
    next clip's argument 2x' − z' = z' + 2[g', g'^Γ] is s' = y + [h, h^Γ]
    with h = 2g' − g = g + gap.  Per iteration that is h = g + gap,
    gap /= 2, g += gap, h^Γ and s = y + [h, h^Γ]; Γ permutes entries, so it
    commutes with them.

    **Phase 2, from iteration ``_WITNESS_EVERY`` + 1: two-set DR on a.**
    The split is a point a of K1 ∩ (c − K2), and DR on that pair runs on one
    matrix zz, from the a-slot of P_affine(z), s₀ − g: a = clip(zz),
    b = (clip((c − 2a + zz)^Γ))^Γ, gap = c − a − b, zz += gap.  That is two
    single-matrix ``eigh`` per iteration, against one of the doubled stack,
    and far fewer iterations where the split is feasible (local linear rate:
    Bauschke, Bello Cruz, Nghia, Phan & Wang, J. Approx. Theory 2014).  On
    the 100 criterion-6 maps the two phases take 1798 iterations in all and at
    most 46 on one map, against 4917 and 304 for product-space DR throughout.
    Two-set DR from the start plateaus on rank-1 + rank-1^Γ M_2 mixes (6 →
    649 iterations on one); the product-space phase gets past them, and a
    switch anywhere from 6 to 12 iterations keeps the maximum at 50 or below,
    while a switch at 4 lets it reach 300.

    **Orientation.**  The start's batched clip of [c, c^Γ] gives both
    negative parts.  When ‖c₋‖ > ‖(c^Γ)₋‖ the solve runs on c^Γ, whose
    split (a', b') gives c's as (b'^Γ, a'^Γ), with the witness W^Γ and the
    residual recomputed from the returned parts.  Two-set DR treats its two
    sets unlike each other, and this rule makes c and c^Γ (φ and t∘φ) take
    the same course, bit for bit, at no extra ``eigh``.

    c is made Hermitian once, at entry; every later Hermitian matrix of the
    loop is one only up to rounding, and the clips read just the lower
    triangle of their argument (``linalg._eig_clipper``), as ``eigh`` does.
    An iterate is thereby clipped as the Hermitian matrix its lower triangle
    defines, which differs from its Hermitian part by rounding; the stop
    rules and the witness read the parts and the gap as computed, so what a
    stop reason proves does not rest on that choice.

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
    c_in = linalg.herm_part(pair.validate(c, tol, max_iter))
    pt = pair.pt
    s, y, hh = np.empty((3, 2) + c_in.shape, dtype=complex)
    a, y1 = y
    h, h_pt = hh
    g, b, gap = np.empty((3,) + c_in.shape, dtype=complex)
    clip = linalg._eig_clipper(s, y)
    gap_norm = linalg._norm_reader(gap)
    two = linalg._TWO
    s[0] = c_in
    pt(c_in, out=s[1])
    clip()                      # y = [c₊, P], P = (c^Γ)₊
    np.subtract(y, s, out=hh)   # [c₋, (c^Γ)₋]
    neg, neg_pt = linalg._norm_reader(h)(), linalg._norm_reader(h_pt)()
    flip = neg > neg_pt
    c = c_in
    if flip:
        c = pt(c_in)
        y[...] = y[::-1].copy()
    c_norm = linalg.frobenius(c)
    c_trace = np.trace(c).real
    bound = tol * min(1.0, c_norm)

    def stop(res, it, reason, witness=None):
        if not flip:
            return SplitResult(a, b, res, it, reason, witness)
        part1, part2 = pt(b), pt(a)
        np.subtract(c_in, part1, out=gap)
        np.subtract(gap, part2, out=gap)
        return SplitResult(part1, part2, gap_norm(), it, reason,
                           None if witness is None else pt(witness))

    last = 0.0                  # ‖gap‖ of the previous iteration

    def checked(it):
        """The stop that iteration it's parts and gap reach, or None; at
        ``max_iter`` it is ``capped``, so every solve returns from a loop."""
        nonlocal last
        res = gap_norm()
        if res <= bound:
            return stop(res, it, "converged")
        if it == 1 or (it % _WITNESS_EVERY == 0
                       and (res > _SETTLED * last or it == max_iter)):
            witness = _witness(gap, c, c_trace, c_norm, pair)
            if witness is not None:
                return stop(res, it, "certified", witness)
        if it == max_iter:
            return stop(res, it, "capped")
        last = res
        return None

    if min(neg, neg_pt) <= bound:   # c or c^Γ is PSD to within the bound
        b.fill(0)                   # the extreme split (c₊, 0), whose gap is −c₋
        return stop(min(neg, neg_pt), 0, "converged")

    z = np.stack((a + (c - pt(y1)), pt(c - a) + y1)) / 2
    g[...] = (c - z[0] - pt(z[1])) / 2
    s[...] = z + 2 * np.stack((g, pt(g)))
    for it in range(1, min(max_iter, _WITNESS_EVERY) + 1):
        clip()
        pt(y1, out=b)
        np.subtract(c, a, out=gap)
        np.subtract(gap, b, out=gap)
        done = checked(it)
        if done is not None:
            return done
        np.add(g, gap, out=h)
        np.divide(gap, two, out=gap)
        np.add(g, gap, out=g)
        pt(h, out=h_pt)
        np.add(y, hh, out=s)
    zz = s[0]
    np.subtract(zz, g, out=zz)
    clip_a = linalg._eig_clipper(zz, a)         # a = clip(zz)
    clip_b = linalg._eig_clipper(h_pt, y1)      # y1 = clip(h^Γ), so b = y1^Γ
    for it in range(_WITNESS_EVERY + 1, max_iter + 1):
        clip_a()
        np.multiply(a, two, out=h)
        np.subtract(c, h, out=h)
        np.add(h, zz, out=h)                    # h = c − 2a + zz
        pt(h, out=h_pt)
        clip_b()
        pt(y1, out=b)
        np.subtract(c, a, out=gap)
        np.subtract(gap, b, out=gap)
        done = checked(it)
        if done is not None:
            return done
        np.add(zz, gap, out=zz)


def _witness(gap: np.ndarray, c: np.ndarray, c_trace: float, c_norm: float,
             pair: PPTPair) -> np.ndarray | None:
    """Unit W with W ⪰ 0, W^Γ ⪰ 0 and Tr(W c) < 0, proving c ∉ K1 + K2, or None.

    W = P + sI with P the PSD part of −gap and s ≥ 0 the least multiple of I
    that makes W^Γ PSD (``PPTPair.lift``): a decomposable entanglement
    witness.  It certifies when Tr(W c) < −κ‖W‖‖c‖, κ =
    ``DEFAULT.certificate``.  c_trace is Re Tr c and c_norm is ‖c‖, both
    read once per solve.

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
    pair.lift(w)
    w_norm = norm()
    if np.vdot(w, c).real < -DEFAULT.certificate * w_norm * c_norm:
        return w / w_norm
    return None
