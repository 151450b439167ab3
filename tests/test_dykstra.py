import numpy as np
import pytest

from decomap import dykstra, linalg, maps
from decomap.errors import InvalidOption, LayoutMismatch, NonFinite
from decomap.linalg import TensorLayout

from conftest import EIG_SLACK, assert_split, assert_witness, random_matrix

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
    a = c / 2
    b = c / 2
    pa = np.zeros_like(c)
    pb = np.zeros_like(c)
    history = []
    for _ in range(max_iter):
        a1 = pair.proj1(a + pa)
        b1 = pair.proj2(b + pb)
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
    x = np.asarray(x0, dtype=complex)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for it in range(1, max_iter + 1):
        xp = x + p
        y = pair.proj1(xp)
        p = xp - y
        yq = y + q
        x = pair.proj2(yq)
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
        assert linalg.min_eig(pair.proj2(x0)) >= -EIG_SLACK
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
        """The 180 solves of the S_k sampler benchmark: k in 1..3, m in {2, 3}."""
        for i in range(60):
            m = 2 if i % 2 else 2 + (i // 2) % 2
            k = 1 + i % 3
            pair = dykstra.PPTPair(TensorLayout((k, m)), 1)
            for t in range(3):
                x0 = linalg.sample_hermitian(k * m, 5000 + 3 * i + t)
                assert dykstra.project_intersection(x0, pair, tol=1e-11).converged


@pytest.mark.parametrize("dims", LAYOUTS)
@pytest.mark.parametrize("factor", [1, 2])
class TestPPTPair:
    """The unvalidated projections against the validating public kernels."""

    def test_proj1_matches_psd_project(self, dims, factor):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        for seed in range(3):
            h = linalg.sample_hermitian(pair.layout.side, seed)
            assert np.array_equal(pair.proj1(h), linalg.psd_project(h))

    def test_proj2_matches_transposed_psd_project(self, dims, factor):
        layout = TensorLayout(dims)
        pair = dykstra.PPTPair(layout, factor)
        for seed in range(3):
            h = linalg.sample_hermitian(layout.side, seed)
            ref = linalg.partial_transpose(
                linalg.psd_project(linalg.partial_transpose(h, layout, factor)),
                layout, factor)
            assert np.array_equal(pair.proj2(h), ref)

    def test_pt_is_an_involution(self, dims, factor, rng):
        pair = dykstra.PPTPair(TensorLayout(dims), factor)
        x = random_matrix(rng, pair.layout.side)
        assert np.array_equal(pair.pt(x),
                              linalg.partial_transpose(x, pair.layout, factor))
        assert np.array_equal(pair.pt(pair.pt(x)), x)


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
