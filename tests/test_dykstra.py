import numpy as np
import pytest

from decomap import dykstra, linalg, maps
from decomap.errors import InvalidOption, LayoutMismatch, NonFinite
from decomap.linalg import TensorLayout

from conftest import random_matrix

LAYOUTS = [(2, 2), (2, 3), (3, 3)]      # sides 4, 6 and 9


def reference_split_sum(c, pair, tol=linalg.DEFAULT.cone, max_iter=linalg.DEFAULT.max_iter):
    """The split as two separate projections per iteration, a and b kept apart."""
    a = c / 2
    b = c / 2
    pa = np.zeros_like(c)
    pb = np.zeros_like(c)
    history = []
    best = None
    for it in range(1, max_iter + 1):
        a1 = pair.proj1(a + pa)
        b1 = pair.proj2(b + pb)
        pa = a + pa - a1
        pb = b + pb - b1
        gap = c - a1 - b1
        res = linalg.frobenius(gap)
        history.append(res)
        if best is None or res < best[0]:
            best = (res, a1, b1, gap)
        if res <= tol:
            return dykstra.SplitResult(a1, b1, res, it, True, None)
        a = a1 + gap / 2
        b = b1 + gap / 2
        if dykstra._stagnated(history):
            break
    res, a1, b1, gap = best
    scale = linalg.frobenius(gap)
    return dykstra.SplitResult(a1, b1, res, len(history), False,
                               gap / scale if scale > 0 else gap)


def choi_map_choi():
    """Choi matrix of Choi's positive, non-decomposable map on M_3."""
    def act(a):
        d = [a[0, 0] + a[1, 1], a[1, 1] + a[2, 2], a[2, 2] + a[0, 0]]
        return np.diag(d).astype(complex) - (a - np.diag(np.diag(a)))
    return maps.map_from_action(act, 3, 3).choi


def assert_same_split(got, want):
    for name in ("part1", "part2", "deficit"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        assert g is None or np.array_equal(g, w), name
    assert (got.residual, got.iterations, got.converged) == \
        (want.residual, want.iterations, want.converged)


class TestStackedSplit:
    """The stacked [a, b^Γ] solver against the two-projection loop, bit for bit."""

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_feasible(self, dims):
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        side = pair.layout.side
        for seed in range(3):
            c = linalg.sample_psd(side, seed) + pair.pt(linalg.sample_psd(side, seed + 10))
            got = dykstra.split_sum(c, pair)
            assert got.converged
            assert_same_split(got, reference_split_sum(c, pair))

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_indefinite(self, dims):
        pair = dykstra.PPTPair(TensorLayout(dims), 2)
        for seed in range(3):
            c = linalg.sample_hermitian(pair.layout.side, seed)
            assert_same_split(dykstra.split_sum(c, pair), reference_split_sum(c, pair))

    def test_choi_map_stagnates_identically(self):
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 2)
        c = choi_map_choi()
        got = dykstra.split_sum(c, pair)
        assert not got.converged and got.iterations < linalg.DEFAULT.max_iter
        assert_same_split(got, reference_split_sum(c, pair))

    @pytest.mark.parametrize("dims", LAYOUTS)
    def test_psd_clip_on_a_stack(self, dims, rng):
        side = int(np.prod(dims))
        stack = np.stack([random_matrix(rng, side) for _ in range(3)])
        clipped = linalg._psd_clip(stack)
        assert clipped.shape == stack.shape
        for x, y in zip(stack, clipped):
            assert np.array_equal(y, linalg._psd_clip(x))


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
