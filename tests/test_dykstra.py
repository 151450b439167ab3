from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomap import dykstra, linalg, maps
from decomap.errors import InvalidOption, LayoutMismatch, NonFinite
from decomap.linalg import TensorLayout

from conftest import (EIG_SLACK, assert_split, assert_witness, decomposable_test_set,
                      product_minimum, random_matrix)

LAYOUTS = [(2, 2), (2, 3), (3, 3)]      # sides 4, 6 and 9


def stagnated(history, window=100, progress=1e-12):
    """The residual fell by less than ``progress`` (relative, floored at one)
    over the last ``window`` iterations."""
    if len(history) <= window:
        return False
    old = history[-window - 1]
    return old - history[-1] < progress * max(1.0, old)


def reference_split_sum(c, pair, tol=linalg.DEFAULT.cone, max_iter=linalg.DEFAULT.max_iter):
    """Product-space Dykstra with two separate projections per iteration and a
    stagnation stop: a verdict oracle for the split.  Returns ``converged``."""
    proj1, proj2 = ref_projections(pair)
    a = c / 2
    b = c / 2
    pa = np.zeros_like(c)
    pb = np.zeros_like(c)
    history = []
    for _ in range(max_iter):
        a1 = proj1(a + pa)
        b1 = proj2(b + pb)
        pa = a + pa - a1
        pb = b + pb - b1
        gap = c - a1 - b1
        res = linalg.frobenius(gap)
        history.append(res)
        if res <= tol:
            return True
        a = a1 + gap / 2
        b = b1 + gap / 2
        if stagnated(history):
            break
    return False


def reference_intersection(x0, pair, tol=1e-13, max_iter=20000):
    """Plain Dykstra on (x, p, q), no acceleration and no stagnation stop: the
    nearest-point reference for project_intersection.  Returns (point, steps)."""
    proj1, proj2 = ref_projections(pair)
    x = np.asarray(x0, dtype=complex)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for it in range(1, max_iter + 1):
        xp = x + p
        y = proj1(xp)
        p = xp - y
        yq = y + q
        x = proj2(yq)
        q = yq - x
        if linalg.frobenius(x - y) <= tol:
            break
    return x, it


def choi_map_choi():
    """Choi matrix of Choi's positive, non-decomposable map on M_3."""
    def act(a):
        d = [a[0, 0] + a[1, 1], a[1, 1] + a[2, 2], a[2, 2] + a[0, 0]]
        return np.diag(d).astype(complex) - (a - np.diag(np.diag(a)))
    return maps.map_from_action(act, 3, 3).choi


def assert_valid_split(res, c, pair):
    """Invariants of every stop: parts in their cones, the residual recomputed
    from them, and the stop reason backed by its evidence."""
    assert_split(res.part1, res.part2, res.residual, c, pair.layout)
    assert res.converged == (res.stop_reason == "converged")
    if res.stop_reason == "converged":
        assert res.residual <= linalg.DEFAULT.cone * min(1.0, linalg.frobenius(c))
    if res.stop_reason == "certified":
        assert_witness(res.witness, c, pair.layout)
    else:
        assert res.witness is None


# -- the reference loops ---------------------------------------------------------
# The solvers in their fresh-array form: a new array for every intermediate,
# Γ as reshape → swapaxes → reshape, the norm through np.linalg.norm.  The
# intersection loop is the one from before the loops moved to per-solve
# buffers, copied verbatim except for the kernel names (ref_*).  The split
# loop is the g/h recurrence of split_sum, written with the same operations
# on fresh arrays.  The buffered loops must return exactly what these
# return, bit for bit, with the same counts and stop reasons.

_REF_WITNESS_EVERY = 8
_REF_MEMORY = 5
_REF_RIDGE = 1e-14


def ref_frobenius(x):
    return float(np.linalg.norm(x))


def ref_eig_clip(x):
    """The PSD clip of the Hermitian matrix whose lower triangle is x's; x
    is not symmetrized."""
    w, v = np.linalg.eigh(x)
    return (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def ref_psd_clip(x):
    return ref_eig_clip((x + x.conj().swapaxes(-1, -2)) / 2)


def ref_pt(pair):
    dims, factor = pair.layout.dims, pair.factor
    shape, side, k = dims + dims, pair.layout.side, len(dims)
    return lambda x: np.swapaxes(x.reshape(shape), factor - 1, k + factor - 1).reshape(side, side)


def ref_projections(pair):
    """The pair's two projections from the reference kernels: the PSD clip,
    and Γ ∘ clip ∘ Γ."""
    pt = ref_pt(pair)
    return ref_psd_clip, lambda x: pt(ref_psd_clip(pt(x)))


def ref_project_intersection(x0, pair, tol=linalg.DEFAULT.cone,
                             max_iter=linalg.DEFAULT.max_iter):
    x = pair.validate(x0, max_iter)
    pt = ref_pt(pair)
    proj1, proj2 = ref_psd_clip, lambda x: pt(ref_psd_clip(pt(x)))
    u = np.stack((x, np.zeros_like(x), np.zeros_like(x)))
    states: list[np.ndarray] = []       # Anderson memory: states U ...
    images: list[np.ndarray] = []       # ... and their images T(U)
    fallback = None                     # (T(u), ‖T(u) − u‖) of the state u extrapolated from
    for it in range(1, max_iter + 1):
        x, p, q = u
        xp = x + p
        y = proj1(xp)
        yq = y + q
        x = proj2(yq)
        tu = np.stack((x, xp - y, yq - x))
        step = ref_frobenius(tu - u)
        if fallback is not None:
            plain, plain_step = fallback
            fallback = None
            if step > plain_step:
                states.clear()
                images.clear()
                u = plain
                continue
        point = x
        res = ref_frobenius(x - y)
        if res <= tol:
            return dykstra.DykstraResult(point=point, residual=res, iterations=it,
                                         converged=True)
        states.append(u)
        images.append(tu)
        if len(images) < 2:
            u = tu
            continue
        del states[:-_REF_MEMORY - 1], images[:-_REF_MEMORY - 1]
        fallback = (tu, step)
        u = ref_anderson(states, images)
    return dykstra.DykstraResult(point=point, residual=res, iterations=max_iter,
                                 converged=False)


def ref_anderson(states, images):
    g = np.array(images).reshape(len(images), -1)
    f = (g - np.array(states).reshape(g.shape)).view(float)
    df = f[1:] - f[:-1]
    gram = df @ df.T
    # the floor keeps the system regular when all residuals are equal (γ = 0)
    gram += (_REF_RIDGE * np.trace(gram) + np.finfo(float).tiny) * np.eye(len(gram))
    gamma = np.linalg.solve(gram, df @ f[-1])
    return (g[-1] - gamma @ (g[1:] - g[:-1])).reshape(images[-1].shape)


def ref_split_sum(c, pair, tol=linalg.DEFAULT.cone, max_iter=linalg.DEFAULT.max_iter):
    c = pair.validate(c, max_iter)
    c = (c + c.conj().T) / 2
    pt = ref_pt(pair)
    bound = tol * min(1.0, ref_frobenius(c))
    y = ref_eig_clip(np.stack((c, pt(c))))     # [c₊, (c^Γ)₊]
    z = np.stack((y[0] + (c - pt(y[1])), pt(c - y[0]) + y[1])) / 2
    g = (c - z[0] - pt(z[1])) / 2
    s = z + 2 * np.stack((g, pt(g)))
    for it in range(1, max_iter + 1):
        y = ref_eig_clip(s)
        a, b = y[0], pt(y[1])
        gap = c - a - b
        res = ref_frobenius(gap)
        if res <= bound:
            return dykstra.SplitResult(a, b, res, it, "converged")
        if it % _REF_WITNESS_EVERY == 0:
            witness = ref_witness(gap, c, pt)
            if witness is not None:
                return dykstra.SplitResult(a, b, res, it, "certified", witness)
        h = g + gap
        g = g + gap / 2
        s = y + np.stack((h, pt(h)))
    return dykstra.SplitResult(a, b, res, max_iter, "capped")


def ref_split_sum_resym(c, pair, tol=linalg.DEFAULT.cone, max_iter=linalg.DEFAULT.max_iter):
    """The split loop as it was before the g/h recurrence: z carried, every
    clip's argument symmetrized, c taken as given."""
    c = pair.validate(c, max_iter)
    pt = ref_pt(pair)
    bound = tol * min(1.0, ref_frobenius(c))
    y = ref_psd_clip(np.stack((c, pt(c))))     # [c₊, (c^Γ)₊]
    z = np.stack((y[0] + (c - pt(y[1])), pt(c - y[0]) + y[1])) / 2
    for it in range(1, max_iter + 1):
        g = (c - z[0] - pt(z[1])) / 2
        step = np.stack((g, pt(g)))
        y = ref_psd_clip(z + 2 * step)
        a, b = y[0], pt(y[1])
        gap = c - a - b
        res = ref_frobenius(gap)
        if res <= bound:
            return dykstra.SplitResult(a, b, res, it, "converged")
        if it % _REF_WITNESS_EVERY == 0:
            witness = ref_witness(gap, c, pt)
            if witness is not None:
                return dykstra.SplitResult(a, b, res, it, "certified", witness)
        z = y - step
    return dykstra.SplitResult(a, b, res, max_iter, "capped")


def ref_witness(gap, c, pt):
    w = ref_psd_clip(-gap)
    w += max(0.0, -linalg.min_eig(pt(w))) * np.eye(len(w))
    w_norm = ref_frobenius(w)
    if np.vdot(w, c).real < -linalg.DEFAULT.certificate * w_norm * ref_frobenius(c):
        return w / w_norm
    return None


def assert_same_split(c, pair, **kw):
    got, ref = dykstra.split_sum(c, pair, **kw), ref_split_sum(c, pair, **kw)
    assert (got.residual, got.iterations, got.stop_reason) == \
        (ref.residual, ref.iterations, ref.stop_reason)
    assert np.array_equal(got.part1, ref.part1) and np.array_equal(got.part2, ref.part2)
    assert (got.witness is None) == (ref.witness is None)
    assert got.witness is None or np.array_equal(got.witness, ref.witness)
    return got


def assert_same_intersection(x0, pair, **kw):
    got, ref = (dykstra.project_intersection(x0, pair, **kw),
                ref_project_intersection(x0, pair, **kw))
    assert (got.residual, got.iterations, got.converged) == \
        (ref.residual, ref.iterations, ref.converged)
    assert np.array_equal(got.point, ref.point)
    return got


def local_conjugates(c, n, count, seed):
    """(Zᵀ ⊗ W) c (Zᵀ ⊗ W)* for Haar-random Z, W on C^n."""
    out = []
    for i in range(count):
        z, w = (linalg.sample_unitary(n, seed + 2 * i + j) for j in range(2))
        local = np.kron(z.T, w)
        out.append(local @ c @ local.conj().T)
    return out


class TestStackedSplit:
    """The split's verdicts against the Dykstra oracle, and its invariants."""

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_feasible(self, dims):
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        side = pair.layout.side
        for seed in range(3):
            c = linalg.sample_psd(side, seed) + pair.pt(linalg.sample_psd(side, seed + 10))
            got = dykstra.split_sum(c, pair)
            assert got.stop_reason == "converged" and reference_split_sum(c, pair)
            assert_valid_split(got, c, pair)

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_indefinite(self, dims):
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        for seed in range(3):
            c = linalg.sample_hermitian(pair.layout.side, seed)
            got = dykstra.split_sum(c, pair)
            assert got.stop_reason != "capped"
            assert got.converged == reference_split_sum(c, pair)
            assert_valid_split(got, c, pair)

    def test_choi_map_certified(self):
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        c = choi_map_choi()
        got = dykstra.split_sum(c, pair)
        assert got.stop_reason == "certified" and not reference_split_sum(c, pair)
        assert_valid_split(got, c, pair)

    def test_capped_without_witness(self):
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        c = choi_map_choi()
        got = dykstra.split_sum(c, pair, max_iter=5)
        assert (got.stop_reason, got.iterations) == ("capped", 5)
        assert_valid_split(got, c, pair)

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_psd_clip_on_a_stack(self, dims, rng):
        side = int(np.prod(dims))
        stack = np.stack([random_matrix(rng, side) for _ in range(3)])
        clipped = linalg._psd_clip(stack)
        assert clipped.shape == stack.shape
        for x, y in zip(stack, clipped):
            assert np.array_equal(y, linalg._psd_clip(x))


class TestStart:
    """The split started from the mean of its two extreme splits: each family
    keeps the stop reason its mathematics fixes, and the criterion-6 maps stay
    within an iteration budget that the old start, [c/2, c^Γ/2], exceeds
    (10090 iterations in all, 2131 on one map)."""

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_psd_plus_ppt_converges(self, dims):
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        side = pair.layout.side
        rng = np.random.default_rng(500 + side)
        for _ in range(4):
            p1, p2 = (g @ g.conj().T for g in
                      (random_matrix(rng, side, rng.integers(1, side + 1)) for _ in range(2)))
            c = p1 + pair.pt(p2)
            got = dykstra.split_sum(c, pair)
            assert got.stop_reason == "converged"
            assert_valid_split(got, c, pair)

    @pytest.mark.parametrize("n", [2, 3])
    def test_block_positive_maps_converge(self, n):
        """Størmer–Woronowicz: a block-positive C on C^2 ⊗ C^n, n ≤ 3, is
        decomposable; here C = H − (μ − 1e-1)·I, μ = H's product minimum."""
        pair = dykstra.PPTPair(TensorLayout((2, n)), 2)
        for seed in range(100, 104):
            c = block_positive_choi(n, seed, 1e-1)
            got = dykstra.split_sum(c, pair)
            assert got.stop_reason == "converged"
            assert_valid_split(got, c, pair)

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_gue_certified(self, dims):
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        for seed in range(200, 204):
            c = linalg.sample_hermitian(pair.layout.side, seed)
            got = dykstra.split_sum(c, pair)
            assert got.stop_reason == "certified"
            assert_valid_split(got, c, pair)

    def test_criterion_6_budget(self):
        iterations = []
        for phi in decomposable_test_set():
            c = linalg.require_hermitian(phi.choi)
            got = dykstra.split_sum(c, dykstra.PPTPair(phi.layout, 2))
            assert got.converged
            iterations.append(got.iterations)
        assert sum(iterations) <= 5500 and max(iterations) <= 400


def assert_in_k2(x, pair):
    slack = EIG_SLACK * max(1.0, linalg.frobenius(x))
    assert linalg.min_eig(pair.pt(x)) >= -slack


class TestAcceleratedIntersection:
    """Anderson-accelerated Dykstra against the plain loop it accelerates."""

    @pytest.mark.parametrize("dims", LAYOUTS)
    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("sample", [linalg.sample_hermitian, linalg.sample_psd])
    def test_nearest_point(self, dims, factor, sample):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        for seed in range(3):
            x0 = sample(pair.layout.side, seed)
            got = dykstra.project_intersection(x0, pair, tol=1e-11)
            ref, _ = reference_intersection(x0, pair)
            assert got.converged
            assert linalg.frobenius(got.point - ref) <= 1e-9 * max(1.0, linalg.frobenius(x0))
            assert_in_k2(got.point, pair)

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_member_stops_at_once(self, dims):
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        a, b = dims
        x0 = sum(np.kron(linalg.sample_psd(a, s), linalg.sample_psd(b, s + 1))
                 for s in range(3))        # separable, so in both cones
        got = dykstra.project_intersection(x0, pair)
        assert got.converged and got.iterations == 1

    @pytest.mark.parametrize("dims", LAYOUTS)
    @pytest.mark.parametrize("factor", [1, 2])
    def test_two_plain_steps_are_bit_identical(self, dims, factor):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        vec = np.zeros(pair.layout.side)
        vec[[(pair.layout.dims[1] + 1) * i for i in range(min(dims))]] = 1.0
        x0 = np.outer(vec, vec)            # entangled, PSD, with PSD image in K2
        assert linalg.min_eig(pair.pt(x0)) < -0.1
        assert linalg.min_eig(ref_projections(pair)[1](x0)) >= -EIG_SLACK
        got = dykstra.project_intersection(x0, pair)
        ref, steps = reference_intersection(x0, pair, tol=linalg.DEFAULT.cone)
        assert got.converged and got.iterations == steps == 2
        assert np.array_equal(got.point, ref)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_capped_point_lies_in_k2(self, max_iter):
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        got = dykstra.project_intersection(linalg.sample_hermitian(9, 0), pair,
                                           max_iter=max_iter)
        assert not got.converged and got.iterations == max_iter
        assert_in_k2(got.point, pair)

    def test_unreachable_tol_runs_to_the_cap(self):
        # the residual levels off at rounding, far above tol: the solve stops
        # only at max_iter, with the last accepted iterate
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        got = dykstra.project_intersection(linalg.sample_hermitian(9, 0), pair,
                                           tol=1e-300, max_iter=500)
        assert not got.converged and got.iterations == 500
        assert 0.0 < got.residual <= 1e-11
        assert_in_k2(got.point, pair)

    def test_sampler_solves_converge(self):
        """The 180 solves of the S_k sampler benchmark, k in 1..3 and m in {2, 3}:
        all converge, bit-identical to the reference loop."""
        for i in range(60):
            m = 2 if i % 2 else 2 + (i // 2) % 2
            k = 1 + i % 3
            pair = dykstra.PPTPair(TensorLayout((k, m)), 1)
            for t in range(3):
                x0 = linalg.sample_hermitian(k * m, 5000 + 3 * i + t)
                assert assert_same_intersection(x0, pair, tol=1e-11).converged


class TestBitIdentical:
    """The buffered loops against the reference loops: the same floating-point
    operations in the same order, so equal arrays, not close ones."""

    def test_criterion_6_maps(self):
        for phi in decomposable_test_set():
            c = linalg.require_hermitian(phi.choi)
            assert_same_split(c, dykstra.PPTPair(phi.layout, 2), tol=1e-6)

    def test_choi_map_conjugates(self):
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        stops = {assert_same_split(c, pair).stop_reason
                 for c in local_conjugates(choi_map_choi(), 3, 12, 900)}
        assert stops == {"certified"}

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_gue_inputs(self, dims, factor):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        for seed in range(2):
            x = linalg.sample_hermitian(pair.layout.side, 40 + seed)
            assert_same_split(x, pair)
            assert_same_intersection(x, pair, tol=1e-11)
            # far below rounding: the Anderson memory fills, shifts and is
            # reset, and several of these caps fall on a rejected step
            # right after a shift, which must return the last accepted point
            for cap in (10, 12, 20, 30, 60):
                assert_same_intersection(x, pair, tol=1e-300, max_iter=cap)

    @pytest.mark.parametrize("max_iter", [1, 7, 8, 9])
    def test_capped_on_the_witness_cadence(self, max_iter):
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        for c in (choi_map_choi(), linalg.sample_hermitian(9, 3)):
            assert_same_split(c, pair, max_iter=max_iter)
            assert_same_intersection(c, pair, max_iter=max_iter)


def block_positive_choi(n, seed, margin):
    """H − (μ − margin)·I on C^2 ⊗ C^n, μ = H's product minimum: block-positive,
    so decomposable for n ≤ 3 (Størmer–Woronowicz), at distance about
    ``margin`` from the boundary of the block-positive cone."""
    h = linalg.sample_hermitian(2 * n, seed)
    return h - (product_minimum(h, n) - margin) * np.eye(2 * n)


class TestAgainstResymmetrizedLoop:
    """split_sum against the loop it replaced, which carried z and symmetrized
    every clip's argument.  The two differ by rounding only, so every input
    keeps its stop reason and iteration count, and the parts agree within
    1e-10·max(1, ‖c‖)."""

    @staticmethod
    def assert_same_course(c, pair):
        got, ref = dykstra.split_sum(c, pair), ref_split_sum_resym(c, pair)
        assert (got.stop_reason, got.iterations) == (ref.stop_reason, ref.iterations)
        slack = 1e-10 * max(1.0, linalg.frobenius(c))
        assert linalg.frobenius(got.part1 - ref.part1) <= slack
        assert linalg.frobenius(got.part2 - ref.part2) <= slack
        return got

    def test_criterion_6_maps(self):
        for phi in decomposable_test_set():
            c = linalg.require_hermitian(phi.choi)
            assert self.assert_same_course(c, dykstra.PPTPair(phi.layout, 2)).converged

    def test_choi_map_conjugates(self):
        """Local conjugates are Hermitian only up to rounding: the old loop
        split them as given, split_sum splits their Hermitian part."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        stops = {self.assert_same_course(c, pair).stop_reason
                 for c in local_conjugates(choi_map_choi(), 3, 12, 900)}
        assert stops == {"certified"}

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_gue_inputs(self, dims, factor):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        for seed in range(2):
            self.assert_same_course(linalg.sample_hermitian(pair.layout.side, 40 + seed),
                                    pair)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("margin", [1e-1, 1e-3])
    def test_block_positive_maps(self, n, margin):
        pair = dykstra.PPTPair(TensorLayout((2, n)), 2)
        for seed in range(100, 104):
            c = block_positive_choi(n, seed, margin)
            assert self.assert_same_course(c, pair).converged


class TestHermitianBoundary:
    """The split makes its input Hermitian once, at entry, and its clip reads
    only the lower triangle of its argument, as eigh does."""

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_eig_clipper_reads_the_lower_triangle(self, dims, rng):
        """A garbage upper triangle and imaginary diagonal are never read: the
        clip equals, bit for bit, that of the Hermitian completion of the
        lower triangle, on a matrix and on a stack."""
        side = int(np.prod(dims))
        x = np.stack([random_matrix(rng, side) for _ in range(3)])
        lower = np.tril(x, -1)
        completion = lower + lower.conj().swapaxes(-1, -2) + np.eye(side) * x.real
        for got_in, want_in in ((x, completion), (x[0], completion[0])):
            got = linalg._eig_clipper(got_in, np.empty_like(got_in))()
            want = linalg._eig_clipper(want_in, np.empty_like(want_in))()
            assert np.array_equal(got, want)
            assert np.array_equal(want, linalg._psd_clip(want_in))

    @pytest.mark.parametrize("dims, make", [
        ((3, 3), choi_map_choi),                                    # certified
        ((3, 3), lambda: linalg.sample_hermitian(9, 7)),            # certified
        ((2, 3), lambda: block_positive_choi(3, 101, 1e-3)),        # converged
    ])
    def test_anti_hermitian_noise_is_dropped(self, dims, make, rng):
        """c + ε·A, A anti-Hermitian and ε = 1e-14·‖c‖, has c's Hermitian part
        to the last bit, so its split is c's."""
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        c = make()
        x = random_matrix(rng, len(c))
        noise = (x - x.conj().T) / 2
        assert np.array_equal(noise, -noise.conj().T)
        noisy = c + 1e-14 * linalg.frobenius(c) * noise
        assert not np.array_equal(noisy, c)
        got, want = dykstra.split_sum(noisy, pair), dykstra.split_sum(c, pair)
        assert (got.residual, got.iterations, got.stop_reason) == \
            (want.residual, want.iterations, want.stop_reason)
        assert np.array_equal(got.part1, want.part1)
        assert np.array_equal(got.part2, want.part2)
        assert (got.witness is None) == (want.witness is None)
        assert got.witness is None or np.array_equal(got.witness, want.witness)


def candidate_witness(gap, pair):
    """The unnormalised W = P + sI that ref_witness tests, P the PSD part of −gap."""
    w = ref_psd_clip(-gap)
    w += max(0.0, -linalg.min_eig(ref_pt(pair)(w))) * np.eye(len(w))
    return w


class TestWitnessBound:
    """The trace bound that lets _witness skip its second eigensolve returns
    None only where the full check does, so it never changes a verdict."""

    @settings(max_examples=200, deadline=None)
    @given(dims=st.sampled_from(LAYOUTS), factor=st.sampled_from([1, 2]),
           separable=st.booleans(), gap_scale=st.integers(-6, 6),
           c_scale=st.integers(-6, 6), seed=st.integers(0, 2**16),
           shift=st.floats(-3.0, 3.0), ratio=st.one_of(st.none(), st.floats(-2.0, 0.0)))
    def test_same_answer_as_the_full_check(self, dims, factor, separable, gap_scale,
                                           c_scale, seed, shift, ratio):
        """Random Hermitian c with Tr c of either sign, and a random Hermitian
        gap or minus a separable one (then P^Γ ⪰ 0 and s is about 0, where
        the bound is tightest).  With ``ratio``, c is first moved along the
        candidate W until Tr(Wc)/(‖W‖‖c‖) = ratio·κ: on either side of the
        certification threshold −κ, within 2κ of zero."""
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        side = pair.layout.side
        rng = np.random.default_rng(seed)
        if separable:
            gap = -sum(np.kron(*(linalg.sample_psd(d, rng.integers(2**32)) for d in dims))
                       for _ in range(2))
        else:
            gap = linalg.herm_part(random_matrix(rng, side))
        gap *= 10.0**gap_scale
        c = linalg.herm_part(random_matrix(rng, side))
        c = 10.0**c_scale * (c + shift * linalg.frobenius(c) / side * np.eye(side))
        w = candidate_witness(gap, pair)
        w_norm = ref_frobenius(w)
        if ratio is not None and w_norm > 0:
            target = ratio * linalg.DEFAULT.certificate * w_norm
            t = 0.0
            for _ in range(4):      # Tr(W c_t) = target·‖c_t‖ for c_t = c + tW
                t = (target * ref_frobenius(c + t * w) - np.vdot(w, c).real) / w_norm**2
            c = c + t * w
        got = dykstra._witness(gap, c, np.trace(c).real, linalg.frobenius(c), pair.pt)
        ref = ref_witness(gap, c, ref_pt(pair))
        assert (got is None) == (ref is None)
        assert got is None or np.array_equal(got, ref)


class CallCounter:
    """Counts of linalg.frobenius, np.linalg.eigh and np.linalg.eigvalsh calls,
    and per witness check whether it passed the trace bound and how many
    eigvalsh calls it made."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(("frobenius", "eigh", "eigvalsh"), 0)
        self.checks = []                    # (passed the bound, eigvalsh calls)
        self.paused = False
        for module, name in ((linalg, "frobenius"), (np.linalg, "eigh"),
                             (np.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, self._counted(getattr(module, name), name))
        monkeypatch.setattr(dykstra, "_witness", self._checked(dykstra._witness))

    def _counted(self, fn, name):
        def counted(*args, **kwargs):
            if not self.paused:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _checked(self, witness):
        def checked(gap, c, c_trace, c_norm, pt):
            before = self.calls["eigvalsh"]
            out = witness(gap, c, c_trace, c_norm, pt)
            made = self.calls["eigvalsh"] - before
            self.paused = True
            p = ref_psd_clip(-gap)
            p_norm = ref_frobenius(p)
            lower = np.vdot(p, c).real + min(0.0, c_trace) * p_norm
            self.paused = False
            self.checks.append((lower < -0.5 * linalg.DEFAULT.certificate * p_norm * c_norm,
                                made))
            return out
        return checked


class TestCallsPerSolve:
    """Per-iteration work stays off the traced public functions: a solve calls
    linalg.frobenius a fixed number of times however long it runs, the split
    one eigh for its start, one per iteration and one per witness check, and
    eigvalsh only on the witness checks that pass the trace bound."""

    @pytest.mark.parametrize("make, max_iters", [
        (choi_map_choi, (1, 8, 5000)),                          # certified at 16
        (lambda: linalg.sample_hermitian(9, 3), (1, 5000)),     # certified at 8
        (lambda: linalg.sample_psd(9, 1) + 0.1 * linalg.sample_hermitian(9, 2),
         (5, 50, 400)),                                         # capped, checks skipped
    ])
    def test_split(self, make, max_iters, monkeypatch):
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        c = make()
        counts = []
        for max_iter in max_iters:
            calls = CallCounter(monkeypatch)
            res = dykstra.split_sum(c, pair, tol=1e-300, max_iter=max_iter)
            checks = res.iterations // 8
            assert len(calls.checks) == checks
            assert calls.calls["eigh"] == res.iterations + checks + 1    # + the start
            assert all(made == int(ok) for ok, made in calls.checks)
            assert calls.calls["eigvalsh"] == sum(ok for ok, _ in calls.checks)
            counts.append(calls.calls["frobenius"])
            monkeypatch.undo()
        assert counts == [1] * len(max_iters)

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_intersection(self, dims, monkeypatch):
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        x0 = linalg.sample_hermitian(pair.layout.side, 0)
        for max_iter in (1, 10, 60):
            calls = CallCounter(monkeypatch)
            res = dykstra.project_intersection(x0, pair, tol=1e-300, max_iter=max_iter)
            assert res.iterations == max_iter
            assert calls.calls == {"frobenius": 0, "eigh": 2 * max_iter, "eigvalsh": 0}
            monkeypatch.undo()

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_anderson_workspaces(self, dims, monkeypatch):
        """An Anderson workspace is built when a solve first keeps that many
        rows: none for a solve that converges at its first step, and each
        memory length at most once however often rejections reset it."""
        builds, runs = Counter(), Counter()
        anderson = dykstra._anderson

        def counted(images, residuals, out):
            rows = len(images)
            builds[rows] += 1
            extrapolate = anderson(images, residuals, out)

            def run():
                runs[rows] += 1
                extrapolate()
            return run

        monkeypatch.setattr(dykstra, "_anderson", counted)
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        res = dykstra.project_intersection(np.eye(pair.layout.side), pair, max_iter=60)
        assert (res.iterations, res.converged, builds) == (1, True, Counter())
        x0 = linalg.sample_hermitian(pair.layout.side, 0)
        res = dykstra.project_intersection(x0, pair, tol=1e-300, max_iter=60)
        assert res.iterations == 60
        assert set(builds) <= set(range(2, dykstra._MEMORY + 2))
        assert max(builds.values()) == 1
        # the memory grows 2, 3, ... once; a length below the full one runs
        # again only after a rejection has cleared the memory
        assert runs[2] > 1


@pytest.mark.parametrize("dims", LAYOUTS)
@pytest.mark.parametrize("factor", [1, 2])
class TestPPTPair:
    """The unvalidated partial transpose against the validating public kernel."""

    def test_pt_is_an_involution(self, dims, factor, rng):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        x = random_matrix(rng, pair.layout.side)
        assert np.array_equal(pair.pt(x),
                              linalg.partial_transpose(x, pair.layout, factor))
        assert np.array_equal(pair.pt(pair.pt(x)), x)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("factor", [1, 2])
def test_min_eigs_match_min_eig(dims, factor):
    """One batched eigvalsh of [x, x^Γ] gives, bit for bit, the two lowest
    eigenvalues that min_eig finds on each matrix alone."""
    layout = TensorLayout(dims)
    pair = dykstra.PPTPair(layout, factor)
    for seed in range(8):
        h = linalg.sample_hermitian(layout.side, seed)
        got = pair.min_eigs(h)
        want = (linalg.min_eig(h), linalg.min_eig(linalg.partial_transpose(h, layout, factor)))
        assert [type(w) for w in got] == [float, float]
        assert [w.hex() for w in got] == [w.hex() for w in want]


class TestValidation:
    def test_factor_out_of_range(self):
        with pytest.raises(LayoutMismatch):
            dykstra.PPTPair(TensorLayout((2, 2)), 3)

    def test_solvers_reject_wrong_side(self, rng):
        pair = dykstra.PPTPair(TensorLayout((2, 2)), 2)
        with pytest.raises(LayoutMismatch):
            dykstra.split_sum(random_matrix(rng, 6), pair)
        with pytest.raises(LayoutMismatch):
            dykstra.project_intersection(random_matrix(rng, 6), pair)

    def test_solvers_reject_non_finite(self):
        pair = dykstra.PPTPair(TensorLayout((2, 2)), 2)
        c = np.eye(4, dtype=complex)
        c[1, 2] = np.inf
        with pytest.raises(NonFinite):
            dykstra.split_sum(c, pair)
        with pytest.raises(NonFinite):
            dykstra.project_intersection(c, pair)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_solvers_reject_max_iter_below_one(self, max_iter):
        pair = dykstra.PPTPair(TensorLayout((2, 2)), 2)
        c = np.eye(4, dtype=complex)
        with pytest.raises(InvalidOption):
            dykstra.split_sum(c, pair, max_iter=max_iter)
        with pytest.raises(InvalidOption):
            dykstra.project_intersection(c, pair, max_iter=max_iter)
