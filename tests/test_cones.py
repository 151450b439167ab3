import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decomap import cones, linalg, modular
from decomap.errors import HullNotSupportedHere, LayoutMismatch, UnsupportedKind
from decomap.linalg import TensorLayout

from conftest import SIGMA_X, assert_separates


@pytest.fixture
def md_tensor22():
    return modular.tensor_modular(
        modular.build_modular(np.eye(2) / 2), modular.build_modular(np.eye(2) / 2))


def hull_sample(md, layout, seed, weight=0.5):
    """Convex combination of a natural and a transposed tensor sample."""
    a = cones.sample_cone(md, cones.ConeSpec(cones.NATURAL_TENSOR, layout=layout), seed)
    b = cones.sample_cone(md, cones.ConeSpec(cones.TRANSPOSED_TENSOR, layout=layout), seed + 1)
    return weight * a + (1.0 - weight) * b


def swap(n=2):
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[n * i + j, n * j + i] = 1.0
    return s


class TestSpecValidation:
    def test_vbeta_range(self):
        with pytest.raises(UnsupportedKind):
            cones.ConeSpec(cones.VBETA, beta=0.75)

    def test_tensor_needs_layout(self):
        with pytest.raises(LayoutMismatch):
            cones.ConeSpec(cones.HULL)

    def test_hull_needs_dedicated_test(self, md_tensor22):
        spec = cones.ConeSpec(cones.HULL, layout=TensorLayout((2, 2)))
        with pytest.raises(HullNotSupportedHere):
            cones.cone_membership(md_tensor22, spec, np.eye(4))


class TestMembership:
    def test_psd_in_natural_tracial(self, md_tracial2):
        res = cones.cone_membership(
            md_tracial2, cones.ConeSpec(cones.NATURAL), np.diag([1.0, 0.0]))
        assert res.inside and res.residual == 0.0

    def test_sigma_x_outside_natural_tracial(self, md_tracial2):
        res = cones.cone_membership(md_tracial2, cones.ConeSpec(cones.NATURAL), SIGMA_X)
        assert not res.inside
        # reduction is sqrt(2) * sigma_x, most negative eigenvalue -sqrt(2)
        assert res.residual == pytest.approx(np.sqrt(2.0))
        assert res.witness is not None

    def test_v0_membership_by_construction(self, md_skew):
        xi = linalg.sample_psd(2, 7) @ md_skew.rho_power(0.5)
        res = cones.cone_membership(md_skew, cones.ConeSpec(cones.VBETA, beta=0.0), xi)
        assert res.inside

    def test_samples_are_members(self):
        md = modular.build_modular(linalg.sample_density(3, 2))
        for beta in (0.0, 0.125, 0.25, 0.375, 0.5):
            spec = cones.ConeSpec(cones.VBETA, beta=beta)
            xi = cones.sample_cone(md, spec, 5)
            assert cones.cone_membership(md, spec, xi, tol=1e-9).inside
        # every other kind, on a non-tracial tensor state
        layout = TensorLayout((2, 3))
        md = modular.tensor_modular(modular.build_modular(linalg.sample_density(2, 3)),
                                    modular.build_modular(linalg.sample_density(3, 4)))
        for kind in (cones.NATURAL, cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR,
                     cones.INTERSECTION):
            spec = cones.ConeSpec(kind, layout=layout)
            for seed in range(3):
                xi = cones.sample_cone(md, spec, 5 + seed)
                assert cones.cone_membership(md, spec, xi, tol=1e-9).inside, (kind, seed)

    def test_omega_is_natural_sample_with_identity_seed_matrix(self, md_skew):
        res = cones.cone_membership(
            md_skew, cones.ConeSpec(cones.NATURAL), md_skew.rho_power(0.5))
        assert res.inside

    def test_transposed_sample_reduction(self, md_tensor22):
        layout = TensorLayout((2, 2))
        spec = cones.ConeSpec(cones.TRANSPOSED_TENSOR, layout=layout)
        xi = cones.sample_cone(md_tensor22, spec, 3)
        r = md_tensor22.rho_power(-0.25) @ xi @ md_tensor22.rho_power(-0.25)
        pt = linalg.partial_transpose(r, layout, 2)
        assert linalg.psd_deficit(pt) <= 1e-10


class TestUMapping:
    def test_u_maps_vbeta_to_complement(self):
        md = modular.build_modular(linalg.sample_density(3, 13))
        for beta in (0.0, 0.125, 0.25, 0.375, 0.5):
            for s in range(5):
                xi = cones.sample_cone(md, cones.ConeSpec(cones.VBETA, beta=beta), 17 + s)
                u_xi = md.u(xi)
                res = cones.cone_membership(
                    md, cones.ConeSpec(cones.VBETA, beta=0.5 - beta), u_xi, tol=1e-8)
                assert res.inside

    def test_natural_cone_u_invariant(self):
        md = modular.build_modular(linalg.sample_density(4, 19))
        xi = cones.sample_cone(md, cones.ConeSpec(cones.NATURAL), 23)
        u_xi = md.u(xi)
        assert cones.cone_membership(md, cones.ConeSpec(cones.NATURAL), u_xi).inside


class TestHull:
    def test_psd_member_trivially(self, md_tensor22):
        c = np.eye(4) / 2
        res = cones.hull_membership(md_tensor22, c, TensorLayout((2, 2)))
        assert res.inside

    def test_swap_inside_via_transposed_part(self, md_tensor22):
        # SWAP has PSD partial transpose, so the split a = 0, b = SWAP works
        res = cones.hull_membership(md_tensor22, swap(), TensorLayout((2, 2)))
        assert res.inside

    def test_negative_identity_outside(self, md_tensor22):
        res = cones.hull_membership(md_tensor22, -np.eye(4), TensorLayout((2, 2)))
        assert not res.inside
        assert res.residual >= 1.0
        assert res.witness is not None

    def test_hull_samples_inside(self, md_tensor22):
        layout = TensorLayout((2, 2))
        for s in range(5):
            xi = hull_sample(md_tensor22, layout, 100 + 2 * s, weight=0.3)
            assert cones.hull_membership(md_tensor22, xi, layout).inside


class TestWitnesses:
    """An outside verdict's witness V separates xi from the cone:
    Re<V, xi> < 0, and Re<V, eta> >= 0 for every member eta."""

    LAYOUT = TensorLayout((2, 2))

    @pytest.fixture
    def md(self):
        # a steep spectrum: the reduction's coordinates differ most from xi's
        return modular.tensor_modular(modular.build_modular(np.diag([0.995, 0.005])),
                                      modular.build_modular(np.diag([0.99, 0.01])))

    def outside(self, md, seed):
        """A natural-cone member minus a random rank-one term."""
        rng = np.random.default_rng(seed)
        member = cones.sample_cone(md, cones.ConeSpec(cones.NATURAL_TENSOR, layout=self.LAYOUT),
                                   seed)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return member - 0.1 * linalg.frobenius(member) * np.outer(g, g.conj()) / np.vdot(g, g).real

    @pytest.mark.parametrize("kind", [cones.NATURAL, cones.NATURAL_TENSOR,
                                      cones.TRANSPOSED_TENSOR, cones.INTERSECTION])
    def test_cone_witnesses(self, md, kind):
        spec = cones.ConeSpec(kind, layout=self.LAYOUT)
        members = [cones.sample_cone(md, spec, 500 + s) for s in range(5)]
        for seed in range(40):
            xi = self.outside(md, seed)
            res = cones.cone_membership(md, spec, xi)
            assert not res.inside
            assert_separates(res.witness, xi, members)

    def test_vbeta_witnesses(self, md):
        spec = cones.ConeSpec(cones.VBETA, beta=0.1)
        members = [cones.sample_cone(md, spec, 500 + s) for s in range(5)]
        for seed in range(20):
            h = linalg.sample_hermitian(4, seed)      # indefinite: xi is outside
            xi = md.rho_power(0.1) @ h @ md.rho_power(0.4)
            res = cones.cone_membership(md, spec, xi)
            assert not res.inside
            assert_separates(res.witness, xi, members)

    def test_hull_witnesses(self, md):
        members = [cones.sample_cone(md, cones.ConeSpec(kind, layout=self.LAYOUT), 500 + s)
                   for kind in (cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR)
                   for s in range(5)]
        certified = 0
        for seed in range(40):
            xi = self.outside(md, seed)
            res = cones.hull_membership(md, xi, self.LAYOUT)
            if res.witness is not None:
                certified += 1
                assert_separates(res.witness, xi, members)
        assert certified >= 30


class TestScaleInvariance:
    """Cones are invariant under positive scaling, and so are the verdicts:
    a member times 10^k stays inside and a non-member stays outside."""

    LAYOUT = TensorLayout((2, 2))
    MD = modular.tensor_modular(modular.build_modular(np.diag([0.9, 0.1])),
                                modular.build_modular(linalg.sample_density(2, 6)))
    SPECS = [cones.ConeSpec(cones.VBETA, beta=0.1), cones.ConeSpec(cones.NATURAL),
             cones.ConeSpec(cones.NATURAL_TENSOR, layout=LAYOUT),
             cones.ConeSpec(cones.TRANSPOSED_TENSOR, layout=LAYOUT),
             cones.ConeSpec(cones.INTERSECTION, layout=LAYOUT)]

    @settings(max_examples=60, deadline=None)
    @given(kind=st.integers(0, 4), k=st.integers(-9, 9), seed=st.integers(0, 2**16))
    @example(kind=1, k=8, seed=3)       # a natural-cone member x 1e8
    @example(kind=1, k=-9, seed=3)      # a non-member x 1e-9
    def test_scaled_verdicts(self, kind, k, seed):
        spec = self.SPECS[kind]
        member = cones.sample_cone(self.MD, spec, seed)
        # the reduction of -member is minus a nonzero PSD matrix
        for xi, inside in ((member, True), (-member, False)):
            assert cones.cone_membership(self.MD, spec, xi).inside == inside
            assert cones.cone_membership(self.MD, spec, 10.0**k * xi).inside == inside

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-9, 9), seed=st.integers(0, 2**16))
    @example(k=8, seed=3)               # a hull member x 1e8
    def test_scaled_hull_verdicts(self, k, seed):
        member = hull_sample(self.MD, self.LAYOUT, seed)
        for xi, inside in ((member, True), (-member, False)):
            res = cones.hull_membership(self.MD, 10.0**k * xi, self.LAYOUT)
            assert res.inside == inside
            assert (res.witness is None) == inside

    def test_hull_residual_at_input_scale(self):
        # an outside verdict's residual is the gap ‖c − a − b‖ of xi's own reduction
        member = hull_sample(self.MD, self.LAYOUT, 3)
        small = cones.hull_membership(self.MD, -member, self.LAYOUT)
        large = cones.hull_membership(self.MD, -1e6 * member, self.LAYOUT)
        assert large.residual == pytest.approx(1e6 * small.residual, rel=1e-9)


class TestGenerators:
    @pytest.fixture
    def factors(self):
        return (modular.build_modular(linalg.sample_density(2, 31)),
                modular.build_modular(linalg.sample_density(2, 32)))

    def test_generator_in_transposed_cone(self, factors):
        md_a, md_b = factors
        md = modular.tensor_modular(md_a, md_b)
        rng = np.random.default_rng(2)
        terms = [(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                  rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                 for _ in range(2)]
        gen = cones.transposed_tensor_generator(md_a, md_b, terms)
        spec = cones.ConeSpec(cones.TRANSPOSED_TENSOR, layout=TensorLayout((2, 2)))
        assert cones.cone_membership(md, spec, gen, tol=1e-7).inside

    def test_reverse_fit(self, factors):
        md_a, md_b = factors
        md = modular.tensor_modular(md_a, md_b)
        spec = cones.ConeSpec(cones.TRANSPOSED_TENSOR, layout=TensorLayout((2, 2)))
        for s in range(5):
            xi = cones.sample_cone(md, spec, 41 + s)
            dist, recon = cones.fit_transposed_generator(md_a, md_b, xi)
            assert dist <= 1e-6 * max(1.0, linalg.frobenius(xi))
            assert np.allclose(recon, xi, atol=1e-6)


class TestProbe:
    def test_tracial_two_by_two(self):
        rep = cones.probe_finite_dim_equality(2, 2, 51, 20)
        assert rep.max_residual <= 1e-9

    def test_two_by_three(self):
        rep = cones.probe_finite_dim_equality(2, 3, 52, 20)
        assert rep.max_residual <= 1e-8

    def test_empty(self):
        rep = cones.probe_finite_dim_equality(2, 2, 53, 0)
        assert rep.trials == 0 and rep.residuals == []

    def test_note_mentions_scope(self):
        rep = cones.probe_finite_dim_equality(2, 2, 54, 1)
        assert "open" in rep.note
