import numpy as np
import pytest

from decomap import dykstra, linalg
from decomap.errors import LayoutMismatch, NonFinite
from decomap.linalg import TensorLayout

from conftest import random_matrix

LAYOUTS = [(2, 2), (2, 3), (3, 3)]      # sides 4, 6 and 9


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
