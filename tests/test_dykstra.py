import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decomap import dykstra, linalg
from decomap.errors import InvalidOption, LayoutMismatch, NonFinite
from decomap.linalg import TensorLayout

from conftest import (EIG_SLACK, assert_split, assert_witness, choi_map_choi,
                      decomposable_test_set, generalized_choi, generalized_choi_family,
                      local_conjugates, product_minimum, random_matrix)

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


def late_certified():
    """Choi matrix of Φ[2, 1.3s, s/1.3] with bc = (1 − 1e-3)/4, just past the
    decomposable boundary bc = (3 − a)²/4: not decomposable, and the split
    certifies it only at iteration 32, where Choi's map certifies at 1."""
    s = np.sqrt((1 - 1e-3) / 4)
    return generalized_choi(2.0, 1.3 * s, s / 1.3).choi


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
# Γ as reshape → swapaxes → reshape, the norm through np.linalg.norm.  Both
# take their input's Hermitian part once, at entry, and clip with
# ref_eig_clip, which reads the lower triangle and symmetrizes nothing.  The
# intersection loop is plain Dykstra on (x, p, q); the split loop is
# split_sum's two phases, the g/h recurrence for iterations 1 to 8 and then
# two-set DR on zz, in the orientation its start picks, after the same
# iteration-0 return of the extreme split (c₊, 0).  Its witness checks are
# not gated: it checks at iteration 1 and at every 8th, so it is the oracle
# that split_sum's gate, which skips a scheduled check while the gap still
# falls fast, moves no stop.  Each is written with the same operations as its
# buffered loop, on fresh arrays, and the buffered loops must return exactly
# what these return, bit for bit, with the same counts and stop reasons.

_REF_WITNESS_EVERY = 8
_REF_SETTLED = 0.8      # split_sum's gate: a scheduled check runs once ‖gap‖ falls by < 1/5


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


def ref_projections(pair, clip=ref_psd_clip):
    """The pair's two projections from the reference kernels: the PSD clip,
    and Γ ∘ clip ∘ Γ."""
    pt = ref_pt(pair)
    return clip, lambda x: pt(clip(pt(x)))


def ref_project_intersection(x0, pair, tol=linalg.DEFAULT.cone,
                             max_iter=linalg.DEFAULT.max_iter):
    x = pair.validate(x0, tol, max_iter)
    x = (x + x.conj().T) / 2
    proj1, proj2 = ref_projections(pair, ref_eig_clip)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for it in range(1, max_iter + 1):
        xp = x + p
        y = proj1(xp)
        p = xp - y
        yq = y + q
        x = proj2(yq)
        q = yq - x
        res = ref_frobenius(x - y)
        if res <= tol:
            return dykstra.DykstraResult(point=x, residual=res, iterations=it,
                                         converged=True)
    return dykstra.DykstraResult(point=x, residual=res, iterations=max_iter,
                                 converged=False)


def ref_split_sum(c, pair, tol=linalg.DEFAULT.cone, max_iter=linalg.DEFAULT.max_iter,
                  norms=None):
    """The split's reference loop; ``norms``, a list if given, receives each
    iteration's ‖gap‖."""
    c_in = pair.validate(c, tol, max_iter)
    c_in = (c_in + c_in.conj().T) / 2
    pt = ref_pt(pair)
    s = np.stack((c_in, pt(c_in)))
    y = ref_eig_clip(s)                         # [c₊, (c^Γ)₊]
    neg = y - s                                 # [c₋, (c^Γ)₋]
    neg_norms = ref_frobenius(neg[0]), ref_frobenius(neg[1])
    flip = neg_norms[0] > neg_norms[1]
    c = c_in
    if flip:
        c, y = pt(c_in), y[::-1]
    bound = tol * min(1.0, ref_frobenius(c))
    if norms is None:
        norms = []

    def stop(a, b, res, it, reason, witness=None):
        if not flip:
            return dykstra.SplitResult(a, b, res, it, reason, witness)
        part1, part2 = pt(b), pt(a)
        return dykstra.SplitResult(part1, part2, ref_frobenius(c_in - part1 - part2), it,
                                   reason, None if witness is None else pt(witness))

    def checked(a, b, gap, it):
        res = ref_frobenius(gap)
        norms.append(res)
        if res <= bound:
            return stop(a, b, res, it, "converged")
        if it == 1 or it % _REF_WITNESS_EVERY == 0:
            witness = ref_witness(gap, c, pt)
            if witness is not None:
                return stop(a, b, res, it, "certified", witness)
        if it == max_iter:
            return stop(a, b, res, it, "capped")
        return None

    # iteration 0: the extreme split (c₊, 0), when the oriented c is PSD to within the bound
    if min(neg_norms) <= bound:
        a, b = y[0], np.zeros_like(c)
        res = ref_frobenius(c - a - b)
        if res <= bound:
            return stop(a, b, res, 0, "converged")
    # phase 1: product-space DR on [a, b^Γ], carrying the affine step g
    z = np.stack((y[0] + (c - pt(y[1])), pt(c - y[0]) + y[1])) / 2
    g = (c - z[0] - pt(z[1])) / 2
    s = z + 2 * np.stack((g, pt(g)))
    for it in range(1, min(max_iter, _REF_WITNESS_EVERY) + 1):
        y = ref_eig_clip(s)
        a, b = y[0], pt(y[1])
        gap = c - a - b
        done = checked(a, b, gap, it)
        if done is not None:
            return done
        h = g + gap
        g = g + gap / 2
        s = y + np.stack((h, pt(h)))
    # phase 2: two-set DR on a ∈ K1 ∩ (c − K2), from the a-slot of P_affine(z)
    zz = s[0] - g
    for it in range(_REF_WITNESS_EVERY + 1, max_iter + 1):
        a = ref_eig_clip(zz)
        b = pt(ref_eig_clip(pt(c - 2 * a + zz)))
        gap = c - a - b
        done = checked(a, b, gap, it)
        if done is not None:
            return done
        zz = zz + gap


def ref_witness(gap, c, pt):
    w = ref_psd_clip(-gap)
    w += max(0.0, -linalg.min_eig(pt(w))) * np.eye(len(w))
    w_norm = ref_frobenius(w)
    if np.vdot(w, c).real < -linalg.DEFAULT.certificate * w_norm * ref_frobenius(c):
        return w / w_norm
    return None


def assert_same_course(got, want):
    """Two split results equal bit for bit, witness included."""
    assert (got.residual, got.iterations, got.stop_reason) == \
        (want.residual, want.iterations, want.stop_reason)
    assert np.array_equal(got.part1, want.part1) and np.array_equal(got.part2, want.part2)
    assert (got.witness is None) == (want.witness is None)
    assert got.witness is None or np.array_equal(got.witness, want.witness)


def assert_same_split(c, pair, **kw):
    got = dykstra.split_sum(c, pair, **kw)
    assert_same_course(got, ref_split_sum(c, pair, **kw))
    return got


def assert_same_intersection(x0, pair, **kw):
    got, ref = (dykstra.project_intersection(x0, pair, **kw),
                ref_project_intersection(x0, pair, **kw))
    assert (got.residual, got.iterations, got.converged) == \
        (ref.residual, ref.iterations, ref.converged)
    assert np.array_equal(got.point, ref.point)
    return got


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
        """A cap before the solve converges or certifies: a criterion-6 M_3 mix
        (converged at 37) and a map that certifies at 32."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        for c in (linalg.require_hermitian(decomposable_test_set()[1].choi), late_certified()):
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
    within an iteration budget: 1798 iterations in all and 46 on one map.
    Product-space DR throughout takes 4917 and 304, and two-set DR from the
    start 649 on mix 38 alone."""

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
        """The first iteration's gap already gives a witness."""
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        for seed in range(200, 204):
            c = linalg.sample_hermitian(pair.layout.side, seed)
            got = dykstra.split_sum(c, pair)
            assert (got.stop_reason, got.iterations) == ("certified", 1)
            assert_valid_split(got, c, pair)

    def test_criterion_6_budget(self):
        iterations = []
        for phi in decomposable_test_set():
            c = linalg.require_hermitian(phi.choi)
            got = dykstra.split_sum(c, dykstra.PPTPair(phi.layout, 2))
            assert got.converged
            iterations.append(got.iterations)
        assert sum(iterations) <= 2200 and max(iterations) <= 80


def assert_in_k2(x, pair):
    slack = EIG_SLACK * max(1.0, linalg.frobenius(x))
    assert linalg.min_eig(pair.pt(x)) >= -slack


class TestProjectIntersection:
    """The nearest point of the intersection, its stops and its capped points."""

    @pytest.mark.parametrize("dims", LAYOUTS)
    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("sample", [linalg.sample_hermitian, linalg.sample_psd])
    def test_nearest_point(self, dims, factor, sample):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        for seed in range(3):
            x0 = sample(pair.layout.side, seed)
            got = dykstra.project_intersection(x0, pair, tol=1e-11)
            ref = ref_project_intersection(x0, pair, tol=1e-13, max_iter=20000).point
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
        ref = ref_project_intersection(x0, pair)
        assert got.converged and got.iterations == ref.iterations == 2
        assert np.array_equal(got.point, ref.point)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_capped_point_lies_in_k2(self, max_iter):
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        got = dykstra.project_intersection(linalg.sample_hermitian(9, 0), pair,
                                           max_iter=max_iter)
        assert not got.converged and got.iterations == max_iter
        assert_in_k2(got.point, pair)

    def test_unreachable_tol_runs_to_the_cap(self):
        # the residual levels off at rounding, far above tol: the solve stops
        # only at max_iter, with the last iterate
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        got = dykstra.project_intersection(linalg.sample_hermitian(9, 0), pair,
                                           tol=1e-300, max_iter=500)
        assert not got.converged and got.iterations == 500
        assert 0.0 < got.residual <= 1e-11
        assert_in_k2(got.point, pair)


def block_positive_choi(n, seed, margin):
    """H − (μ − margin)·I on C^2 ⊗ C^n, μ = H's product minimum: block-positive,
    so decomposable for n ≤ 3 (Størmer–Woronowicz), at distance about
    ``margin`` from the boundary of the block-positive cone."""
    h = linalg.sample_hermitian(2 * n, seed)
    return h - (product_minimum(h, n) - margin) * np.eye(2 * n)


class TestBitIdentical:
    """The buffered loops against the reference loops: the same floating-point
    operations in the same order, so equal arrays, not close ones."""

    def test_criterion_6_maps(self):
        for phi in decomposable_test_set():
            c = linalg.require_hermitian(phi.choi)
            assert_same_split(c, dykstra.PPTPair(phi.layout, 2), tol=1e-6)

    def test_choi_map_conjugates(self):
        """Each conjugate certifies at iteration 1, with a witness that holds
        from scratch."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        for c in local_conjugates(choi_map_choi(), 3, 12, 900):
            got = assert_same_split(c, pair)
            assert (got.stop_reason, got.iterations) == ("certified", 1)
            assert_witness(got.witness, c, pair.layout)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_gue_inputs(self, dims, factor):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        for seed in range(2):
            x = linalg.sample_hermitian(pair.layout.side, 40 + seed)
            assert_same_split(x, pair)
            assert_same_intersection(x, pair, tol=1e-11)
            # far below rounding: every one of these solves runs to its cap
            for cap in (10, 12, 20, 30, 60):
                assert_same_intersection(x, pair, tol=1e-300, max_iter=cap)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("margin", [1e-1, 1e-3])
    def test_block_positive_maps(self, n, margin):
        pair = dykstra.PPTPair(TensorLayout((2, n)), 2)
        for seed in range(100, 104):
            assert assert_same_split(block_positive_choi(n, seed, margin), pair).converged

    def test_late_certified(self):
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        got = assert_same_split(late_certified(), pair)
        assert (got.stop_reason, got.iterations) == ("certified", 32)

    def test_generalized_choi_family(self):
        """The family's 24 maps at a cap of 200: the 20 that stop on their own
        do so at 0 (the a = 1 maps with r > 0, co-CP), at 12 to 175
        (converged) or at 1 to 48 (certified); the other 4 run to the cap,
        where a check runs whether or not the gap has settled."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        stops = [assert_same_split(generalized_choi(a, b, c).choi, pair, max_iter=200)
                 for _, a, b, c in generalized_choi_family()]
        assert sum(res.stop_reason == "capped" for res in stops) == 4

    @pytest.mark.parametrize("a", [1.5, 1.75, 2.75])
    def test_generalized_choi_grid(self, a):
        """Φ[a, b, c] for b, c in {0, 0.1, 0.25, …, 1.5}: certifications at 8
        to 80 iterations, past the unconditional check at 1, where a gate that
        skipped a settled gap's check would stop later than the ungated loop
        (a gate at 0.95 in place of 0.8 delays 14 maps of the full a grid by
        one check, all of them in these rows)."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        grid = (0, 0.1, 0.25, 0.5, 0.75, 1, 1.25, 1.5)
        stops = [assert_same_split(generalized_choi(a, b, c).choi, pair)
                 for b in grid for c in grid]
        assert max(res.iterations for res in stops
                   if res.stop_reason == "certified") > _REF_WITNESS_EVERY

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_transposed_input_takes_the_same_course(self, dims):
        """c and c^Γ run in one orientation, the one whose input has the
        smaller negative part: the split of c is that of c^Γ with its parts
        swapped and transposed, bit for bit, and so is the witness."""
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        side = pair.layout.side
        inputs = [linalg.sample_hermitian(side, seed) for seed in range(4)]
        inputs += [linalg.require_hermitian(phi.choi) for phi in decomposable_test_set()
                   if phi.layout.dims == dims][:4]
        for c in inputs:
            got, other = (dykstra.split_sum(x, pair) for x in (c, pair.pt(c)))
            assert (got.iterations, got.stop_reason) == (other.iterations, other.stop_reason)
            assert np.array_equal(got.part1, pair.pt(other.part2))
            assert np.array_equal(got.part2, pair.pt(other.part1))
            assert (got.witness is None) == (other.witness is None)
            assert got.witness is None or np.array_equal(got.witness, pair.pt(other.witness))

    @pytest.mark.parametrize("max_iter", [1, 7, 8, 9, 16, 17])
    def test_capped_on_the_witness_cadence(self, max_iter):
        """Caps on and beside the checks at 1, 8 and 16: Choi's map and a GUE
        input certify at 1, the late map caps at each of them."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        for c in (choi_map_choi(), linalg.sample_hermitian(9, 3)):
            assert assert_same_split(c, pair, max_iter=max_iter).iterations == 1
            assert_same_intersection(c, pair, max_iter=max_iter)
        got = assert_same_split(late_certified(), pair, max_iter=max_iter)
        assert (got.stop_reason, got.iterations) == ("capped", max_iter)


class TestWitnessChecksReadOnly:
    """A witness check reads the gap, c and c's norm and trace, and writes
    none of them: with every check made to find nothing, a solve takes the
    same course, bit for bit, so a check changes only where a solve stops."""

    def test_converging_solves(self, monkeypatch):
        inputs = [(linalg.require_hermitian(phi.choi), dykstra.PPTPair(phi.layout, 2))
                  for phi in decomposable_test_set()]
        inputs += [(block_positive_choi(n, seed, margin), dykstra.PPTPair(TensorLayout((2, n)), 2))
                   for n in (2, 3) for margin in (1e-1, 1e-3) for seed in range(100, 104)]
        real = [dykstra.split_sum(c, pair) for c, pair in inputs]
        assert all(res.converged for res in real)
        monkeypatch.setattr(dykstra, "_witness", lambda *args: None)
        for (c, pair), want in zip(inputs, real):
            assert_same_course(dykstra.split_sum(c, pair), want)

    def test_certified_solves_run_to_the_same_parts(self, monkeypatch):
        """Capped where the real solve certified, a solve whose checks find
        nothing returns the real one's parts and residual."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        inputs = [late_certified(), choi_map_choi(), linalg.sample_hermitian(9, 3)]
        real = [dykstra.split_sum(c, pair) for c in inputs]
        assert [res.stop_reason for res in real] == ["certified"] * 3
        monkeypatch.setattr(dykstra, "_witness", lambda *args: None)
        for c, want in zip(inputs, real):
            got = dykstra.split_sum(c, pair, max_iter=want.iterations)
            assert got.stop_reason == "capped" and got.witness is None
            assert (got.residual, got.iterations) == (want.residual, want.iterations)
            assert np.array_equal(got.part1, want.part1)
            assert np.array_equal(got.part2, want.part2)


class TestHermitianBoundary:
    """Both solvers make their input Hermitian once, at entry, and their
    clips read only the lower triangle of their argument, as eigh does."""

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

    @pytest.mark.parametrize("dims", LAYOUTS)
    @pytest.mark.parametrize("factor", [1, 2])
    def test_intersection_reads_the_hermitian_part(self, dims, factor, rng):
        """A non-Hermitian x0 is projected as its Hermitian part, bit for bit."""
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        for _ in range(3):
            x0 = random_matrix(rng, pair.layout.side)
            assert_same_intersection_result(x0, linalg.herm_part(x0), pair, tol=1e-11)

    @pytest.mark.parametrize("dims, make", [
        ((3, 3), choi_map_choi),
        ((3, 3), lambda: linalg.sample_hermitian(9, 7)),
        ((2, 3), lambda: block_positive_choi(3, 101, 1e-3)),
    ])
    def test_intersection_drops_anti_hermitian_noise(self, dims, make, rng):
        """x0 + ε·A, A anti-Hermitian and ε = 1e-14·‖x0‖, has x0's Hermitian
        part to the last bit, so its projection is x0's."""
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        x0 = make()
        x = random_matrix(rng, len(x0))
        noisy = x0 + 1e-14 * linalg.frobenius(x0) * (x - x.conj().T) / 2
        assert not np.array_equal(noisy, x0)
        assert_same_intersection_result(noisy, x0, pair, tol=1e-11)


def assert_same_intersection_result(x0, x1, pair, **kw):
    got, want = (dykstra.project_intersection(x0, pair, **kw),
                 dykstra.project_intersection(x1, pair, **kw))
    assert (got.residual, got.iterations, got.converged) == \
        (want.residual, want.iterations, want.converged)
    assert np.array_equal(got.point, want.point)


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
        got = dykstra._witness(gap, c, np.trace(c).real, linalg.frobenius(c), pair)
        ref = ref_witness(gap, c, ref_pt(pair))
        assert (got is None) == (ref is None)
        assert got is None or np.array_equal(got, ref)


class CallCounter:
    """Counts of linalg.frobenius, linalg.herm_part, np.linalg.eigh and
    np.linalg.eigvalsh calls, and per witness check whether it passed the
    trace bound and how many eigvalsh calls it made."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(("frobenius", "herm_part", "eigh", "eigvalsh"), 0)
        self.checks = []                    # (passed the bound, eigvalsh calls)
        self.paused = False
        for module, name in ((linalg, "frobenius"), (linalg, "herm_part"),
                             (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, self._counted(getattr(module, name), name))
        monkeypatch.setattr(dykstra, "_witness", self._checked(dykstra._witness))

    def _counted(self, fn, name):
        def counted(*args, **kwargs):
            if not self.paused:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _checked(self, witness):
        def checked(gap, c, c_trace, c_norm, pair):
            before = self.calls["eigvalsh"]
            out = witness(gap, c, c_trace, c_norm, pair)
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


def gated_checks(norms, max_iter):
    """The iterations at which split_sum makes a witness check, given the
    ‖gap‖ of each iteration it ran, norms[it − 1] at iteration it, none of
    them converged: iteration 1, and each multiple of 8 at which ‖gap‖ fell
    by less than a fifth or which is max_iter."""
    return [it for it in range(1, len(norms) + 1)
            if it == 1 or it % _REF_WITNESS_EVERY == 0
            and (norms[it - 1] > _REF_SETTLED * norms[it - 2] or it == max_iter)]


class TestCallsPerSolve:
    """Per-iteration work stays off the traced public functions: a solve calls
    linalg.frobenius a fixed number of times however long it runs, the split
    one eigh for its start, one per phase-1 iteration, two per phase-2
    iteration and one per witness check (at iteration 1, unless the solve
    converged there, and at each 8th where the gap has settled or the cap
    is), and eigvalsh only on the witness checks that pass the trace bound."""

    @pytest.mark.parametrize("make, max_iters", [
        (choi_map_choi, (1, 8, 5000)),                          # certified at 1
        (lambda: linalg.sample_hermitian(9, 3), (1, 5000)),     # certified at 1
        (lambda: linalg.sample_psd(9, 1) + 0.1 * linalg.sample_hermitian(9, 2),
         (5, 50, 400)),                                         # capped, checks skipped
        (late_certified, (1, 8, 9, 5000)),                      # certified at 32
    ])
    def test_split(self, make, max_iters, monkeypatch):
        """The checks are the ones the gate prescribes from the solve's own
        ‖gap‖ per iteration, read off the bit-identical reference loop."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        c = make()
        counts = []
        for max_iter in max_iters:
            norms = []
            ref = ref_split_sum(c, pair, tol=1e-300, max_iter=max_iter, norms=norms)
            calls = CallCounter(monkeypatch)
            res = dykstra.split_sum(c, pair, tol=1e-300, max_iter=max_iter)
            assert (res.iterations, res.stop_reason) == (ref.iterations, ref.stop_reason)
            checks = len(gated_checks(norms, max_iter))     # tol 1e-300: none converges
            phase2 = max(0, res.iterations - 8)
            assert len(calls.checks) == checks
            # the start, one per phase-1 iteration, two per phase-2 iteration
            assert calls.calls["eigh"] == 1 + res.iterations + phase2 + checks
            assert all(made == int(ok) for ok, made in calls.checks)
            assert calls.calls["eigvalsh"] == sum(ok for ok, _ in calls.checks)
            counts.append(calls.calls["frobenius"])
            monkeypatch.undo()
        assert counts == [1] * len(max_iters)

    def test_cp_and_co_cp_stop_at_iteration_0(self, monkeypatch):
        """A PSD c and the Γ of one stop on the start's eigh alone, with the
        extreme split (c₊, 0), or (0, P^Γ) for P = (c^Γ)₊."""
        pair = dykstra.PPTPair(TensorLayout((2, 3)), 2)
        psd = linalg.herm_part(linalg.sample_psd(6, 4))
        for c, empty in ((psd, 2), (pair.pt(psd), 1)):
            calls = CallCounter(monkeypatch)
            res = dykstra.split_sum(c, pair)
            assert (res.stop_reason, res.iterations) == ("converged", 0)
            assert calls.calls["eigh"] == 1 and not calls.checks
            assert not np.any(getattr(res, f"part{empty}"))
            assert_valid_split(res, c, pair)
            monkeypatch.undo()

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_intersection(self, dims, monkeypatch):
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        x0 = linalg.sample_hermitian(pair.layout.side, 0)
        for max_iter in (1, 10, 60):
            calls = CallCounter(monkeypatch)
            res = dykstra.project_intersection(x0, pair, tol=1e-300, max_iter=max_iter)
            assert res.iterations == max_iter
            assert calls.calls == {"frobenius": 0, "herm_part": 1, "eigh": 2 * max_iter,
                                   "eigvalsh": 0}
            monkeypatch.undo()


class TestWitnessGate:
    """A check scheduled at a multiple of 8 runs only once the gap has
    settled, and always at max_iter."""

    def test_check_at_the_cap_always_runs(self, monkeypatch):
        """With every other scheduled check skipped, the late map still
        certifies at a cap of 32, where it certifies ungated, with checks at 1
        and 32 only; at a cap of 33 it caps, after the check at 1 alone."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        c = late_certified()
        monkeypatch.setattr(dykstra, "_SETTLED", np.inf)
        for max_iter, stop, checks in ((32, "certified", 2), (33, "capped", 1)):
            calls = CallCounter(monkeypatch)
            got = dykstra.split_sum(c, pair, max_iter=max_iter)
            assert (got.stop_reason, got.iterations, len(calls.checks)) == \
                (stop, max_iter, checks)
            assert_valid_split(got, c, pair)


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


@pytest.mark.parametrize("dims", LAYOUTS)
@pytest.mark.parametrize("factor", [1, 2])
class TestLift:
    """PPTPair.lift adds the least multiple of I that puts w^Γ in the PSD
    cone, in place."""

    def test_ppt_input_keeps_its_bits(self, dims, factor):
        # a product of two positive definite factors: w^Γ is positive definite, μ = 0
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        w = linalg.herm_part(np.kron(*(linalg.sample_psd(d, 20 + d) for d in dims)))
        before = w.copy()
        assert linalg.min_eig(pair.pt(w)) > 0
        assert pair.lift(w) is w
        assert w.tobytes() == before.tobytes()

    def test_lifts_onto_the_boundary(self, dims, factor):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        for seed in range(8):
            p = linalg.herm_part(linalg._psd_clip(linalg.sample_hermitian(pair.layout.side, seed)))
            mu = -linalg.min_eig(linalg.partial_transpose(p, pair.layout, factor))
            assert mu > 0
            w = pair.lift(p.copy())
            assert np.array_equal(w, p + mu * np.eye(len(p)))
            floor = 1e-12 * np.linalg.norm(w)
            assert np.linalg.eigvalsh(w)[0] >= mu - floor
            assert abs(np.linalg.eigvalsh(
                linalg.partial_transpose(w, pair.layout, factor))[0]) <= floor


def reference_lift(pair, w):
    """PPTPair.lift of one matrix as a single-matrix formula: one ``min_eig``
    and w + μ·I, μ a Python float."""
    return w + max(0.0, -linalg.min_eig(pair.pt(w))) * np.eye(len(w))


def signed_zero_input(pair, seed):
    """The Hermitian PSD part of a draw with a real and an imaginary −0.0 in
    an off-diagonal pair of entries, which a lift by +μ·I writes as +0.0."""
    w = linalg.herm_part(linalg._psd_clip(linalg.sample_hermitian(pair.layout.side, seed)))
    w[0, 1] = w[1, 0] = complex(-0.0, -0.0)
    return w


@pytest.mark.parametrize("dims", LAYOUTS)
@pytest.mark.parametrize("factor", [1, 2])
class TestStackedLift:
    """A lift takes a stack; each slice is the single-matrix lift bit for bit,
    and the single-matrix lift is the formula it always was, down to the
    sign of each zero, so the split's witness and every count stay put."""

    def inputs(self, pair):
        ppt = linalg.herm_part(np.kron(*(linalg.sample_psd(d, 20 + d)
                                         for d in pair.layout.dims)))
        w = [linalg.herm_part(linalg._psd_clip(linalg.sample_hermitian(pair.layout.side, s)))
             for s in range(4)]
        return np.array(w + [ppt, signed_zero_input(pair, 5)])

    def test_single_matrix_is_the_reference_formula(self, dims, factor):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        for w in self.inputs(pair):
            want = reference_lift(pair, w)
            got = pair.lift(w.copy())
            assert got.tobytes() == want.tobytes()
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(got, part)),
                                      np.signbit(getattr(want, part)))

    def test_signed_zeros_are_written_as_the_formula_writes_them(self, dims, factor):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        w = signed_zero_input(pair, 5)
        assert np.signbit(w[0, 1].real) and np.signbit(w[0, 1].imag)
        got = pair.lift(w.copy())
        assert not np.signbit(got[0, 1].real) and not np.signbit(got[0, 1].imag)

    @pytest.mark.parametrize("shape", [(6,), (1,), (2, 3)])
    def test_slices_of_a_stack_are_single_lifts(self, dims, factor, shape):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        side = pair.layout.side
        stack = self.inputs(pair)[:np.prod(shape)].reshape(shape + (side, side))
        singles = [pair.lift(w.copy()) for w in stack.reshape(-1, side, side)]
        got = pair.lift(stack.copy())
        assert got.shape == stack.shape
        for g, want in zip(got.reshape(-1, side, side), singles):
            assert g.tobytes() == want.tobytes()

    def test_stack_is_lifted_in_place(self, dims, factor):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        stack = self.inputs(pair)
        assert pair.lift(stack) is stack


class TestValidation:
    def test_factor_out_of_range(self):
        with pytest.raises(LayoutMismatch):
            dykstra.PPTPair(TensorLayout((2, 2)), 3)

    @pytest.mark.parametrize("factor", [True, False, "2", 2.0, np.float64(2.0), None])
    def test_factor_not_an_integer(self, factor):
        """Rejected with the index cache warm too: its key would take 2.0 for 2
        and True for 1."""
        dykstra.PPTPair(TensorLayout((2, 2)), 1)
        dykstra.PPTPair(TensorLayout((2, 2)), 2)
        with pytest.raises(LayoutMismatch):
            dykstra.PPTPair(TensorLayout((2, 2)), factor)

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
