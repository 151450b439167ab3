import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decomap import cones, dykstra, linalg, modular
from decomap.errors import InvalidOption, LayoutMismatch, NonFinite, UnsupportedKind
from decomap.linalg import TensorLayout

from conftest import SIGMA_X, assert_separates, random_matrix


@pytest.fixture
def md_tensor22():
    return modular.tensor_modular(
        modular.build_modular(np.eye(2) / 2), modular.build_modular(np.eye(2) / 2))


def hull_sample(md, seed, weight=0.5):
    """Convex combination of a natural and a transposed tensor sample."""
    a = cones.sample_cone(md, cones.ConeSpec(cones.NATURAL_TENSOR), seed)
    b = cones.sample_cone(md, cones.ConeSpec(cones.TRANSPOSED_TENSOR), seed + 1)
    return weight * a + (1.0 - weight) * b


def hull_member(md, xi):
    return cones.cone_membership(md, cones.ConeSpec(cones.HULL), xi)


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

    @pytest.mark.parametrize("kind", [cones.NATURAL, cones.NATURAL_TENSOR,
                                      cones.TRANSPOSED_TENSOR, cones.HULL,
                                      cones.INTERSECTION])
    def test_beta_only_for_vbeta(self, kind):
        """Only V_beta reads beta: a beta on any other kind is an error, not
        a silent answer at beta = 1/4."""
        with pytest.raises(UnsupportedKind):
            cones.ConeSpec(kind, beta=0.3)
        with pytest.raises(UnsupportedKind):
            cones.ConeSpec(kind, beta=0.25)

    def test_tensor_kinds_need_two_factor_state(self, md_tracial2):
        """The tensor kinds read their layout from the state, which must have
        two factors; the hull has no sampler at all."""
        for kind in (cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR, cones.HULL,
                     cones.INTERSECTION):
            with pytest.raises(LayoutMismatch, match=f"^{kind} requires a 2-factor layout"):
                cones.cone_membership(md_tracial2, cones.ConeSpec(kind), np.eye(2))
        for kind in (cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR, cones.INTERSECTION):
            with pytest.raises(LayoutMismatch, match=f"^{kind} requires a 2-factor layout"):
                cones.sample_cone(md_tracial2, cones.ConeSpec(kind), 0)
        with pytest.raises(UnsupportedKind):
            cones.sample_cone(md_tracial2, cones.ConeSpec(cones.HULL), 0)

    def test_hull_kind_answers(self, md_tensor22):
        """cone_membership decides the hull like every other kind, and
        max_iter caps its split.  The swap F is co-PSD, so its split needs no
        iteration; F + 2F^Γ is neither PSD nor co-PSD, and caps at 1."""
        spec = cones.ConeSpec(cones.HULL)
        res = cones.cone_membership(md_tensor22, spec, np.eye(4))
        assert res.inside and res.stop_reason == "converged"
        res = cones.cone_membership(md_tensor22, spec, swap(), max_iter=1)
        assert res.inside and (res.stop_reason, res.iterations) == ("converged", 0)
        layout = TensorLayout((2, 2))
        mix = swap() + 2 * linalg.partial_transpose(swap(), layout, 2)
        assert linalg.min_eig(mix) < 0
        assert linalg.min_eig(linalg.partial_transpose(mix, layout, 2)) < 0
        res = cones.cone_membership(md_tensor22, spec, mix, max_iter=1)
        assert not res.inside and (res.stop_reason, res.iterations) == ("capped", 1)
        with pytest.raises(LayoutMismatch):
            cones.cone_membership(md_tensor22, spec, np.eye(3))

    @pytest.mark.parametrize("kind", [cones.VBETA, cones.NATURAL, cones.NATURAL_TENSOR,
                                      cones.TRANSPOSED_TENSOR, cones.HULL,
                                      cones.INTERSECTION])
    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, md_tensor22, kind, max_iter):
        """Every kind checks max_iter at entry, not only the hull, whose
        split is the one reader of it."""
        spec = cones.ConeSpec(kind, beta=0.25 if kind == cones.VBETA else None)
        with pytest.raises(InvalidOption, match="max_iter"):
            cones.cone_membership(md_tensor22, spec, np.eye(4), max_iter=max_iter)


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
        md = modular.tensor_modular(modular.build_modular(linalg.sample_density(2, 3)),
                                    modular.build_modular(linalg.sample_density(3, 4)))
        for kind in (cones.NATURAL, cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR,
                     cones.INTERSECTION):
            spec = cones.ConeSpec(kind)
            for seed in range(3):
                xi = cones.sample_cone(md, spec, 5 + seed)
                assert cones.cone_membership(md, spec, xi, tol=1e-9).inside, (kind, seed)

    def test_omega_is_natural_sample_with_identity_seed_matrix(self, md_skew):
        res = cones.cone_membership(
            md_skew, cones.ConeSpec(cones.NATURAL), md_skew.rho_power(0.5))
        assert res.inside

    @pytest.mark.parametrize("kind", [cones.VBETA, cones.NATURAL, cones.NATURAL_TENSOR,
                                      cones.TRANSPOSED_TENSOR, cones.HULL,
                                      cones.INTERSECTION])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_xi_is_an_error(self, md_tensor22, kind, bad):
        """A NaN or Inf entry of xi raises NonFinite at entry for every kind,
        not a verdict with residual nan or an error from deep in numpy."""
        xi = np.eye(4, dtype=complex)
        xi[1, 2] = bad
        spec = cones.ConeSpec(kind, beta=0.25 if kind == cones.VBETA else None)
        with pytest.raises(NonFinite):
            cones.cone_membership(md_tensor22, spec, xi)

    def test_state_of_non_finite_vector_is_an_error(self, md_tracial2):
        """A NaN passes the norm check (it compares false) and is caught by
        cone_membership's entry check, not read as outside the cone."""
        with pytest.raises(NonFinite):
            cones.state_of_cone_vector(md_tracial2, np.array([[np.nan, 0], [0, 0]]))

    def test_transposed_sample_reduction(self, md_tensor22):
        layout = TensorLayout((2, 2))
        spec = cones.ConeSpec(cones.TRANSPOSED_TENSOR)
        xi = cones.sample_cone(md_tensor22, spec, 3)
        r = md_tensor22.rho_power(-0.25) @ xi @ md_tensor22.rho_power(-0.25)
        pt = linalg.partial_transpose(r, layout, 2)
        assert linalg.min_eig(pt) >= -1e-10


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_intersection_draws_stop_within_two_steps(dims, monkeypatch):
    """Every intersection draw is a PSD Wishart matrix, and its nearest-point
    solve converges by its second Dykstra step: project_intersection needs
    no acceleration for the draws the package makes."""
    solves = []
    solve = dykstra.project_intersection

    def spy(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(dykstra, "project_intersection", spy)
    md = modular.tensor_modular(modular.build_modular(linalg.sample_density(dims[0], 3)),
                                modular.build_modular(linalg.sample_density(dims[1], 4)))
    spec = cones.ConeSpec(cones.INTERSECTION)
    for seed in range(50):
        cones.sample_cone(md, spec, seed)
    assert len(solves) == 50
    assert all(res.converged and res.iterations <= 2 for res in solves)


class TestIntersection:
    """The intersection is decided by one batched eigh of the reduction and
    its partial transpose: it answers as the two tensor kinds asked apart."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]), seed=st.integers(0, 2**16),
           kind=st.sampled_from([cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR,
                                 cones.INTERSECTION, None]),
           sign=st.sampled_from([1.0, -1.0]))
    def test_agrees_with_both_tensor_kinds(self, dims, seed, kind, sign):
        md = modular.tensor_modular(
            modular.build_modular(linalg.sample_density(dims[0], seed)),
            modular.build_modular(linalg.sample_density(dims[1], seed + 1)))
        # a member of a tensor cone or its negative, or an indefinite Hermitian xi
        xi = sign * (linalg.sample_hermitian(md.dim, seed) if kind is None
                     else cones.sample_cone(md, cones.ConeSpec(kind), seed))
        res = cones.cone_membership(md, cones.ConeSpec(cones.INTERSECTION), xi)
        plain, transposed = (cones.cone_membership(md, cones.ConeSpec(k), xi)
                             for k in (cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR))
        assert res.inside == (plain.inside and transposed.inside)
        assert res.residual == max(plain.residual, transposed.residual)
        # the view that reads lower, the natural one on a tie
        lower = transposed if transposed.residual > plain.residual else plain
        if lower.witness is None:
            assert res.witness is None
        else:
            assert res.witness.tobytes() == lower.witness.tobytes()


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
        res = hull_member(md_tensor22, c)
        assert res.inside

    def test_swap_inside_via_transposed_part(self, md_tensor22):
        # SWAP has PSD partial transpose, so the split a = 0, b = SWAP works
        res = hull_member(md_tensor22, swap())
        assert res.inside

    def test_negative_identity_outside(self, md_tensor22):
        res = hull_member(md_tensor22, -np.eye(4))
        assert not res.inside
        assert res.residual >= 1.0
        assert res.witness is not None

    def test_hull_samples_inside(self, md_tensor22):
        for s in range(5):
            xi = hull_sample(md_tensor22, 100 + 2 * s, weight=0.3)
            assert hull_member(md_tensor22, xi).inside

    def test_non_hermitian_reads_outside(self, md_tensor22, rng):
        """No hull member has a non-Hermitian reduction: the hull reads one
        outside, as natural_tensor does, with the same residual (the
        deviation) and no witness or split."""
        spec = cones.ConeSpec(cones.NATURAL_TENSOR)
        for _ in range(3):
            xi = random_matrix(rng, 4)
            hull = hull_member(md_tensor22, xi)
            natural = cones.cone_membership(md_tensor22, spec, xi)
            assert not hull.inside and not natural.inside
            assert hull.residual == natural.residual > 0.1
            assert hull.witness is None and natural.witness is None
            assert hull.stop_reason is None and hull.iterations is None


class TestWitnesses:
    """An outside verdict's witness V separates xi from the cone:
    Re<V, xi> < 0, and Re<V, eta> >= 0 for every member eta."""

    @pytest.fixture
    def md(self):
        # a steep spectrum: the reduction's coordinates differ most from xi's
        return modular.tensor_modular(modular.build_modular(np.diag([0.995, 0.005])),
                                      modular.build_modular(np.diag([0.99, 0.01])))

    def outside(self, md, seed):
        """A natural-cone member minus a random rank-one term."""
        rng = np.random.default_rng(seed)
        member = cones.sample_cone(md, cones.ConeSpec(cones.NATURAL_TENSOR),
                                   seed)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return member - 0.1 * linalg.frobenius(member) * np.outer(g, g.conj()) / np.vdot(g, g).real

    @pytest.mark.parametrize("kind", [cones.NATURAL, cones.NATURAL_TENSOR,
                                      cones.TRANSPOSED_TENSOR, cones.INTERSECTION])
    def test_cone_witnesses(self, md, kind):
        spec = cones.ConeSpec(kind)
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
        members = [cones.sample_cone(md, cones.ConeSpec(kind), 500 + s)
                   for kind in (cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR)
                   for s in range(5)]
        certified = 0
        for seed in range(40):
            xi = self.outside(md, seed)
            res = hull_member(md, xi)
            if res.witness is not None:
                certified += 1
                assert_separates(res.witness, xi, members)
        assert certified >= 30


class TestScaleInvariance:
    """Cones are invariant under positive scaling, and so are the verdicts:
    a member times 10^k stays inside and a non-member stays outside."""

    MD = modular.tensor_modular(modular.build_modular(np.diag([0.9, 0.1])),
                                modular.build_modular(linalg.sample_density(2, 6)))
    SPECS = [cones.ConeSpec(cones.VBETA, beta=0.1), cones.ConeSpec(cones.NATURAL),
             cones.ConeSpec(cones.NATURAL_TENSOR),
             cones.ConeSpec(cones.TRANSPOSED_TENSOR),
             cones.ConeSpec(cones.INTERSECTION)]

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
        member = hull_sample(self.MD, seed)
        for xi, inside in ((member, True), (-member, False)):
            res = hull_member(self.MD, 10.0**k * xi)
            assert res.inside == inside
            assert (res.witness is None) == inside

    def test_hull_residual_at_input_scale(self):
        # an outside verdict's residual is the gap ‖c − a − b‖ of xi's own reduction
        member = hull_sample(self.MD, 3)
        small = hull_member(self.MD, -member)
        large = hull_member(self.MD, -1e6 * member)
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
        spec = cones.ConeSpec(cones.TRANSPOSED_TENSOR)
        assert cones.cone_membership(md, spec, gen, tol=1e-7).inside

    def test_reverse_fit(self, factors):
        md_a, md_b = factors
        md = modular.tensor_modular(md_a, md_b)
        spec = cones.ConeSpec(cones.TRANSPOSED_TENSOR)
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
        # with no trial the probe would pass untested
        for trials in (0, -1):
            with pytest.raises(InvalidOption):
                cones.probe_finite_dim_equality(2, 2, 53, trials)

    @pytest.mark.parametrize("trials", [2.5, True, "20", None])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(InvalidOption, match="trials must be an integer"):
            cones.probe_finite_dim_equality(2, 2, 53, trials)

    def test_note_mentions_scope(self):
        rep = cones.probe_finite_dim_equality(2, 2, 54, 1)
        assert "open" in rep.note


class TestOnePairPerQuestion:
    """Every tensor question takes Γ from the one ``PPTPair`` of the state's
    layout, so no answer calls ``linalg.partial_transpose``, which re-checks
    its input; only ``fit_transposed_generator``, given an outside xi, does."""

    @pytest.fixture
    def md(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("linalg.partial_transpose called")

        monkeypatch.setattr(linalg, "partial_transpose", refuse)
        return modular.tensor_modular(modular.build_modular(linalg.sample_density(2, 3)),
                                      modular.build_modular(linalg.sample_density(3, 4)))

    @pytest.mark.parametrize("kind", [cones.VBETA, cones.NATURAL, cones.NATURAL_TENSOR,
                                      cones.TRANSPOSED_TENSOR, cones.HULL,
                                      cones.INTERSECTION])
    def test_membership_inside_and_outside(self, md, kind):
        spec = cones.ConeSpec(kind, beta=0.25 if kind == cones.VBETA else None)
        for seed in range(3):
            xi = (hull_sample(md, 10 + 2 * seed) if kind == cones.HULL
                  else cones.sample_cone(md, spec, 10 + seed))
            assert cones.cone_membership(md, spec, xi).inside, (kind, seed)
            outside = cones.cone_membership(md, spec, -xi)
            assert not outside.inside and outside.witness is not None, (kind, seed)

    def test_probe(self, md):
        assert cones.probe_finite_dim_equality(2, 3, 52, 3).max_residual <= 1e-8
