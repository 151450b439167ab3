from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decomap import cones, dykstra, linalg, maps, modular
from decomap.errors import (BadChoi, DimensionMismatch, InvalidOption, NoDetailedBalance,
                            ShapeMismatch, UnknownKind)
from decomap.linalg import TensorLayout

from conftest import (SIGMA_X, assert_separates, assert_split, assert_witness,
                      choi_map_choi, criterion_worst, decomposable_test_set,
                      generalized_choi, generalized_choi_decomposable,
                      generalized_choi_family, generalized_choi_positive,
                      local_conjugates, product_minimum, random_matrix, unit)


def swap(n=2):
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[n * i + j, n * j + i] = 1.0
    return s


def choi_m3_map(scale=1.0):
    """A positive, non-decomposable map on M_3 (diagonal-reinforced sign flip)."""
    def act(a):
        d = [a[0, 0] + a[1, 1], a[1, 1] + a[2, 2], a[2, 2] + a[0, 0]]
        return scale * (np.diag(d).astype(complex) - (a - np.diag(np.diag(a))))
    return maps.map_from_action(act, 3, 3, label="m3-nondecomposable")


class TestRepresentation:
    def test_identity_choi(self):
        phi = maps.identity_map(2)
        expected = sum(np.kron(e, e) for e in
                       (np.eye(2)[i][:, None] @ np.eye(2)[j][None, :]
                        for i in range(2) for j in range(2)))
        assert np.allclose(phi.choi, expected)
        assert abs(np.trace(phi.choi) - 2.0) < 1e-14

    def test_transposition_choi_is_swap(self):
        assert np.allclose(maps.transposition_map(2).choi, swap())

    def test_adjoint_rank_one(self):
        phi = maps.adjoint_map(SIGMA_X)
        w = np.linalg.eigvalsh(phi.choi)
        assert np.allclose(sorted(w)[:3], [0, 0, 0], atol=1e-12)
        assert w[-1] == pytest.approx(2.0)

    def test_apply(self, rng):
        a = random_matrix(rng, 2)
        assert np.allclose(maps.apply_map(maps.identity_map(2), a), a)
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(maps.apply_map(maps.transposition_map(2), e12), e12.T)
        e11 = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(maps.apply_map(maps.adjoint_map(SIGMA_X), e11),
                           np.diag([0.0, 1.0]))

    def test_superoperator_matches_action(self, rng):
        phi = maps.adjoint_map(linalg.sample_ginibre(3, 2, 0))
        a = random_matrix(rng, 2)
        s = maps.superoperator(phi)
        assert np.allclose((s @ a.reshape(-1)).reshape(3, 3), maps.apply_map(phi, a))

    def test_bad_choi_rejected(self, rng):
        with pytest.raises(BadChoi):
            maps.make_map(random_matrix(rng, 4), 2, 2)

    def test_tiny_non_hermitian_choi_rejected(self):
        # relative deviation ‖C − C*‖/‖C‖ ≈ 1.6: not Hermitian at any scale
        choi = 1e-12 * np.random.default_rng(0).standard_normal((4, 4))
        with pytest.raises(BadChoi):
            maps.make_map(choi, 2, 2)

    def test_non_finite_choi_rejected(self):
        choi = maps.identity_map(2).choi.copy()
        choi[0, 0] = np.nan
        with pytest.raises(BadChoi):
            maps.make_map(choi, 2, 2)

    def test_map_object_checks_its_choi(self, rng):
        """Every map, however made, holds a finite Hermitian Choi matrix of
        its side, and keeps the Hermitian part of the one it is given."""
        with pytest.raises(BadChoi):
            maps.MapObject(2, 2, np.eye(3))
        h = linalg.herm_part(random_matrix(rng, 4))
        near = h + 1e-14 * random_matrix(rng, 4)
        phi = maps.MapObject(2, 2, near)
        assert np.array_equal(phi.choi, linalg.herm_part(near))
        with pytest.raises(BadChoi):
            maps.mix_maps(np.nan, maps.identity_map(2), maps.transposition_map(2))

    @pytest.mark.parametrize("choi,dim_in,dim_out", [
        (np.eye(5), 2.5, 2),            # side 5.0 == 5: the shape check alone passes it
        (np.zeros((0, 0)), 0, 3),       # an empty Choi matrix of side 0
        (np.eye(2), True, 2),           # a bool is not a dimension
    ])
    def test_map_object_checks_its_dims(self, choi, dim_in, dim_out):
        with pytest.raises(BadChoi, match="positive integers"):
            maps.make_map(choi, dim_in, dim_out)

    @pytest.mark.parametrize("make", [
        lambda: maps.identity_map(True),
        lambda: maps.transposition_map(2.0),
        lambda: maps.map_from_action(lambda a: a, 2.5, 2),
    ], ids=["identity-True", "transpose-2.0", "action-2.5-2"])
    def test_map_from_action_checks_its_dims(self, make):
        """The maps built from an action check their dimensions as MapObject
        does, before a float or a bool reaches numpy."""
        with pytest.raises(BadChoi, match="positive integers"):
            make()

    def test_registry_keys(self, tmp_path):
        assert maps.map_from_key("identity:3").dim_in == 3
        assert np.allclose(maps.map_from_key("transpose:2").choi, swap())
        mixed = maps.map_from_key("mix:0.5:identity:2:transpose:2")
        assert np.allclose(mixed.choi, (maps.identity_map(2).choi + swap()) / 2)
        comp = maps.map_from_key("compose-t:transpose:2")
        assert np.allclose(comp.choi, maps.identity_map(2).choi)
        loader = lambda name: SIGMA_X
        adu = maps.map_from_key("adu:sx", loader=loader)
        assert np.allclose(adu.choi, maps.adjoint_map(SIGMA_X).choi)
        with pytest.raises(UnknownKind):
            maps.map_from_key("nonsense:1")

    @pytest.mark.parametrize("depth", [0, 1, 8, 16])
    def test_nested_mix_read_in_one_pass(self, depth, monkeypatch):
        """A left-nested mix of depth d builds each of its d + 1 leaves once."""
        built = []
        identity_map = maps.identity_map
        monkeypatch.setattr(maps, "identity_map", lambda n: built.append(n) or identity_map(n))
        key = "identity:2"
        for _ in range(depth):
            key = f"mix:0.5:{key}:identity:2"
        phi = maps.map_from_key(key)
        assert built == [2] * (depth + 1)
        assert phi.label == key
        assert np.array_equal(phi.choi, identity_map(2).choi)

    def test_mismatched_mix_is_a_dimension_mismatch(self):
        """Operands of different dimensions raise the mix's own error, and the
        loader sees only complete adu names."""
        names = []
        loader = lambda name: names.append(name) or SIGMA_X
        with pytest.raises(DimensionMismatch):
            maps.map_from_key("mix:0.5:adu:u:identity:3", loader=loader)
        assert names == ["u"]

    @pytest.mark.parametrize("key", [
        "identity:2:3",                                 # a token after the map
        "mix:0.5:identity:2:identity:2:transpose:2",    # a third mix operand
        "adu:u:v",                                      # a name with a colon
        "mix:0.5:identity:2",                           # a missing operand
        "compose-t",
        "mix:0.5:identity:2:nonsense:2",
    ])
    def test_malformed_keys_are_unknown_kind(self, key):
        with pytest.raises(UnknownKind):
            maps.map_from_key(key, loader=lambda name: SIGMA_X)

    @pytest.mark.parametrize("key, label", [
        ("mix:0.25:adu:u:compose-t:adu:v", "mix:0.25:adu:u:compose-t:adu:v"),
        ("mix:.5:identity:02:transpose:+2", "mix:.5:identity:2:transpose:2"),
        ("compose-t:mix:1e-1:transpose:2:identity:2", "compose-t:mix:1e-1:transpose:2:identity:2"),
    ])
    def test_labels_built_from_operands(self, key, label):
        """λ keeps its spelling; an integer gets its canonical one at any depth."""
        assert maps.map_from_key(key, loader=lambda name: SIGMA_X).label == label


def kron_sum_choi(action, m, n):
    """The Kronecker sum Σ_ij E_ij ⊗ φ(E_ij) through make_map: the reference
    that map_from_action's placement must equal bit for bit."""
    units = [unit(m, i, j) for i in range(m) for j in range(m)]
    choi = sum(np.kron(e, np.asarray(action(e), dtype=complex)) for e in units)
    return maps.make_map(choi, m, n).choi


def _adu_matrices():
    rng = np.random.default_rng(17)
    mats = {}
    for r in range(1, 5):
        for c in range(1, 5):
            mats[f"re{r}x{c}"] = rng.standard_normal((r, c))
            mats[f"c{r}x{c}"] = random_matrix(rng, r, c)
    # signed zeros and negative entries in v
    mats["signed"] = np.array([[-0.0, -1.0, 0.0], [2.0, -0.0, -3.0]])
    mats["signed_c"] = np.array([[-0.0 - 1j, 1.0 - 0.0j], [-2.0 + 0.0j, -0.0 - 0.0j]])
    return mats


ADU = _adu_matrices()


def adu_action(v):
    v = np.asarray(v, dtype=complex)
    return lambda a: v @ a @ v.conj().T


class TestPlacement:
    """map_from_action places each unit's image as a block of C instead of
    summing m² Kronecker products; the bytes are compared, so the sign of
    every zero counts."""

    @staticmethod
    def assert_same_bytes(phi, ref):
        assert phi.choi.dtype == ref.dtype and phi.choi.shape == ref.shape
        assert phi.choi.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_identity_and_transpose(self, n):
        self.assert_same_bytes(maps.map_from_key(f"identity:{n}"),
                               kron_sum_choi(lambda a: a, n, n))
        self.assert_same_bytes(maps.map_from_key(f"transpose:{n}"),
                               kron_sum_choi(lambda a: a.T, n, n))

    @pytest.mark.parametrize("name", list(ADU))
    def test_adu(self, name):
        v = ADU[name]
        rows, cols = v.shape
        phi = maps.map_from_key(f"adu:{name}", loader=ADU.get)
        self.assert_same_bytes(phi, kron_sum_choi(adu_action(v), cols, rows))
        # a -> v a^t v*: the Kronecker sum of the composed action
        phi_t = maps.map_from_key(f"compose-t:adu:{name}", loader=ADU.get)
        self.assert_same_bytes(phi_t, kron_sum_choi(lambda a: adu_action(v)(a.T),
                                                    cols, rows))

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_mix(self, lam):
        phi = maps.map_from_key(f"mix:{lam}:adu:c3x3:transpose:3", loader=ADU.get)
        ref = (lam * kron_sum_choi(adu_action(ADU["c3x3"]), 3, 3)
               + (1.0 - lam) * kron_sum_choi(lambda a: a.T, 3, 3))
        self.assert_same_bytes(phi, ref)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_signed_zero_images(self, n):
        # images whose zeros carry signs: -0 - 0j above the diagonal, -0 + 0j
        # below it, a pair that the Hermitian part alone keeps at -0; the sum
        # writes +0 there, and so must the placement
        zeros = np.where(np.triu(np.ones((n, n))) > 0, complex(-0.0, -0.0),
                         complex(-0.0, 0.0))
        action = lambda a: np.where(a != 0, a, zeros)
        ref = kron_sum_choi(action, n, n)
        self.assert_same_bytes(maps.map_from_action(action, n, n), ref)
        assert not np.signbit(ref.view(float)).any()

    def test_action_of_choi_m3_map(self):
        def act(a):
            d = [a[0, 0] + a[1, 1], a[1, 1] + a[2, 2], a[2, 2] + a[0, 0]]
            return np.diag(d).astype(complex) - (a - np.diag(np.diag(a)))
        self.assert_same_bytes(choi_m3_map(), kron_sum_choi(act, 3, 3))

    @pytest.mark.parametrize("dim_in, dim_out", [(0, 0), (-1, -1), (0, 2), (2, 0), (-1, 1)])
    def test_dimensions_checked(self, dim_in, dim_out):
        with pytest.raises(BadChoi, match="at least 1"):
            maps.map_from_action(lambda a: a, dim_in, dim_out)

    @pytest.mark.parametrize("action", [lambda a: a, lambda a: a[:1], lambda a: a[0],
                                        lambda a: 1.0],
                             ids=["wrong-side", "not-square", "vector", "scalar"])
    def test_image_shape_checked(self, action):
        with pytest.raises(BadChoi, match="image of a matrix unit"):
            maps.map_from_action(action, 2, 3)


class TestGlobalPositivity:
    def test_identity_cp(self):
        gp = maps.global_positivity_test(maps.identity_map(3))
        assert gp.completely_positive
        assert abs(gp.min_eig_choi) <= 1e-12

    def test_transposition_not_cp_but_ccp(self):
        gp = maps.global_positivity_test(maps.transposition_map(2))
        assert not gp.completely_positive and gp.completely_copositive
        assert gp.min_eig_choi == pytest.approx(-1.0)

    def test_even_mix_positive_but_not_cp(self):
        # (a + a^t)/2 is positive and decomposable, yet neither CP nor co-CP:
        # the Choi matrix pairs to -1/2 against the antisymmetric vector
        phi = maps.mix_maps(0.5, maps.identity_map(2), maps.transposition_map(2))
        gp = maps.global_positivity_test(phi)
        assert not gp.completely_positive and not gp.completely_copositive
        assert gp.min_eig_choi == pytest.approx(-0.5)
        assert gp.min_eig_choi_pt == pytest.approx(-0.5)
        res = maps.k_positivity_search(phi, 1, restarts=16, seed=0)
        assert not res.violation_found


class TestScaledVerdicts:
    """CP, co-CP and k-positivity are cone properties: phi and 10^k phi get
    the same verdicts."""

    @staticmethod
    def scaled(phi, k):
        return maps.make_map(10.0**k * phi.choi, phi.dim_in, phi.dim_out)

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(-12, 12))
    @example(k=-10)
    def test_global_positivity(self, k):
        for phi, cp, ccp in ((maps.transposition_map(2), False, True),
                             (maps.identity_map(2), True, False)):
            gp = maps.global_positivity_test(self.scaled(phi, k))
            assert (gp.completely_positive, gp.completely_copositive) == (cp, ccp)

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(-12, 12))
    @example(k=-10)
    def test_k_positivity(self, k):
        t3 = maps.k_positivity_search(self.scaled(maps.transposition_map(3), k), 2,
                                      restarts=8)
        assert t3.violation_found
        ident = maps.k_positivity_search(self.scaled(maps.identity_map(3), k), 2,
                                         restarts=8)
        assert not ident.violation_found

    @pytest.mark.parametrize("e", [-30, -20, 0, 30])
    def test_seesaw_course_is_scale_free(self, e):
        """Φ[1, 1.5, (1 − 1e-6)/1.5] is not positive, by a product minimum of
        about −6.3e-8·‖C‖.  A restart stops at a sweep that gains at most
        1e-12·‖C‖, so phi and 2^e phi (exact in floating point) run the same
        sweeps to the same value/‖C‖, and the violation is found at each."""
        phi = generalized_choi(1, 1.5, (1 - 1e-6) / 1.5)
        ref = maps.k_positivity_search(phi, 1)
        res = maps.k_positivity_search(maps.make_map(2.0**e * phi.choi, 3, 3), 1)
        assert ref.violation_found and res.violation_found
        assert np.array_equal(res.sweeps, ref.sweeps)
        assert res.value / 2.0**e == pytest.approx(ref.value, rel=1e-12)


class TestKPositivity:
    def test_transposition_k2_violation(self):
        res = maps.k_positivity_search(maps.transposition_map(2), 2, restarts=8, seed=0)
        assert res.violation_found
        assert res.value == pytest.approx(-1.0, abs=1e-6)
        v = res.vector
        direct = np.real(v.conj() @ maps.transposition_map(2).choi @ v)
        assert direct == pytest.approx(res.value, abs=1e-9)

    def test_transposition_k1_clean(self):
        res = maps.k_positivity_search(maps.transposition_map(2), 1, restarts=16, seed=0)
        assert not res.violation_found

    def test_identity_clean(self):
        for k in (1, 2):
            res = maps.k_positivity_search(maps.identity_map(2), k, restarts=8, seed=1)
            assert not res.violation_found

    def test_no_restarts_rejected(self):
        # with no restart the search would report value inf and "no violation"
        with pytest.raises(InvalidOption):
            maps.k_positivity_search(maps.identity_map(2), 1, restarts=0)

    BAD_ARGUMENTS = [
        ("k", 1.5, DimensionMismatch, "k must be an integer"),
        ("k", 1.0, DimensionMismatch, "k must be an integer"),
        ("k", True, DimensionMismatch, "k must be an integer"),
        ("k", 0, DimensionMismatch, "k must be an integer of at least 1"),
        ("k", 3, DimensionMismatch, r"k must be in 1\.\.2"),
        ("restarts", 2.5, InvalidOption, "restarts must be an integer"),
        ("restarts", True, InvalidOption, "restarts must be an integer"),
        ("restarts", -1, InvalidOption, "restarts must be at least 1"),
        ("seed", -1, InvalidOption, "seed must be at least 0"),
        ("seed", 1.5, InvalidOption, "seed must be an integer"),
        ("seed", True, InvalidOption, "seed must be an integer"),
        ("seed", None, InvalidOption, "seed must be an integer"),
    ]

    @pytest.mark.parametrize("name,value,error,match", BAD_ARGUMENTS,
                             ids=[f"{name}={value!r}" for name, value, *_ in BAD_ARGUMENTS])
    def test_bad_arguments_rejected(self, name, value, error, match):
        args = {"k": 1, "restarts": 2, "seed": 0, name: value}
        with pytest.raises(error, match=match):
            maps.k_positivity_search(maps.transposition_map(2), **args)

    def test_numpy_integer_arguments_accepted(self):
        phi = maps.transposition_map(3)
        res = maps.k_positivity_search(phi, np.int64(2), restarts=np.int32(3), seed=np.uint8(4))
        ref = maps.k_positivity_search(phi, 2, restarts=3, seed=4)
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.sweeps, ref.sweeps)


def seesaw_starts(n, k, restarts, seed):
    """The restarts' starts, drawn in turn from one generator: real part, then
    imaginary part, restart after restart."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            for _ in range(restarts)]


def seesaw_once(choi4, m, n, k, start, qr=False):
    """One restart of the see-saw as a loop of its own: (value, vector, sweeps).
    x and the start are orthonormalized by QR when k > 1, or always with
    ``qr``."""
    qr = qr or k > 1
    y = np.linalg.qr(start)[0] if qr else start
    value = np.inf
    for sweep in range(1, 61):
        a = np.einsum("pr,ipjq,qs->risj", y.conj(), choi4, y).reshape(k * m, k * m)
        _, vecs = np.linalg.eigh((a + a.conj().T) / 2)
        x = vecs[:, 0].reshape(k, m).T
        if qr:
            x, _ = np.linalg.qr(x)
        b = np.einsum("ir,ipjq,js->rpsq", x.conj(), choi4, x).reshape(k * n, k * n)
        w2, vecs2 = np.linalg.eigh((b + b.conj().T) / 2)
        y = vecs2[:, 0].reshape(k, n).T
        new_value = float(w2[0])
        stalled = value - new_value <= 1e-12 * np.linalg.norm(choi4)
        value = new_value
        if stalled:
            break
    v = np.einsum("ir,pr->ip", x, y).reshape(-1)
    v /= np.linalg.norm(v)
    return float(np.real(v.conj() @ choi4.reshape(m * n, m * n) @ v)), v, sweep


def seesaw_oracle(phi, k, restarts, seed, qr=False):
    """Restart after restart, the first minimum kept: (best index, values, sweeps)."""
    m, n = phi.dim_in, phi.dim_out
    runs = [seesaw_once(phi.choi.reshape(m, n, m, n), m, n, k, start, qr)
            for start in seesaw_starts(n, k, restarts, seed)]
    values = np.array([run[0] for run in runs])
    best = 0
    for r in range(restarts):
        if values[r] < values[best]:
            best = r
    return best, values, np.array([run[2] for run in runs]), runs[best][1]


def random_choi_map(n, seed):
    return maps.make_map(linalg.sample_hermitian(n * n, seed), n, n)


# a diagonal Choi matrix on which some restarts stall at their second sweep
# and others run a third
STALL_MIX = maps.make_map(np.diag([2.0, 3, 0, 4, 1, 6, 5, -2, -1]), 3, 3)


class TestBatchedSeesaw:
    CASES = [(maps.transposition_map(3), 2, 32, 0), (maps.transposition_map(2), 1, 16, 0),
             (random_choi_map(2, 4), 1, 8, 3), (random_choi_map(2, 5), 2, 8, 9),
             (random_choi_map(3, 6), 2, 12, 1), (random_choi_map(3, 7), 3, 6, 2),
             (maps.identity_map(3), 2, 8, 1), (STALL_MIX, 1, 8, 0)]

    @pytest.mark.parametrize("phi,k,restarts,seed", CASES)
    def test_matches_restart_loop(self, phi, k, restarts, seed):
        best, values, sweeps, vector = seesaw_oracle(phi, k, restarts, seed)
        res = maps.k_positivity_search(phi, k, restarts=restarts, seed=seed)
        slack = 1e-12 * max(1.0, np.linalg.norm(phi.choi))
        assert int(np.argmin(res.values)) == best
        assert res.violation_found == (values[best] < -1e-9)
        assert res.value == pytest.approx(values[best], abs=slack)
        assert np.max(np.abs(res.values - values)) <= slack
        assert np.array_equal(res.sweeps, sweeps)
        if res.violation_found:
            assert np.max(np.abs(res.vector - vector)) <= slack

    @pytest.mark.parametrize("phi,k,restarts,seed", CASES)
    def test_restarts_are_independent(self, phi, k, restarts, seed):
        """Restart r's value and sweep count are the same, bit for bit, in a
        search of r + 1 restarts and in one of the full count."""
        res = maps.k_positivity_search(phi, k, restarts=restarts, seed=seed)
        for r in range(restarts):
            head = maps.k_positivity_search(phi, k, restarts=r + 1, seed=seed)
            assert np.array_equal(head.values, res.values[:r + 1])
            assert np.array_equal(head.sweeps, res.sweeps[:r + 1])

    @pytest.mark.parametrize("phi,k,restarts,seed", [c for c in CASES if c[1] == 1])
    def test_dropped_qr_is_a_no_op(self, phi, k, restarts, seed):
        """At k = 1 a see-saw that still orthonormalizes x (and the start) by
        QR reaches the same values and verdict."""
        res = maps.k_positivity_search(phi, k, restarts=restarts, seed=seed)
        best, values, _, _ = seesaw_oracle(phi, k, restarts, seed, qr=True)
        slack = 1e-12 * max(1.0, np.linalg.norm(phi.choi))
        assert np.max(np.abs(res.values - values)) <= slack
        assert res.violation_found == (values[best] < -1e-9)

    def test_zero_map_stalls_at_the_second_sweep(self):
        """With ‖C‖ = 0 the stall threshold is 0, and a sweep that gains
        nothing is the last."""
        res = maps.k_positivity_search(maps.make_map(np.zeros((4, 4)), 2, 2), 1, restarts=4)
        assert res.sweeps.tolist() == [2] * 4 and not res.violation_found

    def test_stalled_restarts_freeze_while_others_run(self):
        res = maps.k_positivity_search(STALL_MIX, 1, restarts=8, seed=0)
        assert res.sweeps.min() == 2 and res.sweeps.max() > 2
        _, values, sweeps, _ = seesaw_oracle(STALL_MIX, 1, 8, 0)
        assert np.array_equal(res.sweeps, sweeps)
        assert np.array_equal(res.values, values)

    def test_single_restart(self):
        phi = random_choi_map(2, 4)
        res = maps.k_positivity_search(phi, 1, restarts=1, seed=5)
        value, vector, sweeps = seesaw_once(phi.choi.reshape(2, 2, 2, 2), 2, 2, 1,
                                            seesaw_starts(2, 1, 1, 5)[0])
        assert res.values.shape == (1,) and res.sweeps.tolist() == [sweeps]
        assert res.value == res.values[0] == pytest.approx(value, abs=1e-12)
        assert res.violation_found == (value < -1e-9)

    def test_record_shapes(self):
        res = maps.k_positivity_search(maps.transposition_map(3), 2, restarts=5, seed=0)
        assert res.values.shape == (5,) and res.sweeps.shape == (5,)
        assert res.value == res.values.min()
        assert np.all((res.sweeps >= 1) & (res.sweeps <= 60))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
class TestStackedAmplify:
    """id_k (x) phi takes a stack; each slice is the single-matrix call bit
    for bit."""

    def blocks(self, k, m, count):
        return np.array([linalg.sample_hermitian(k * m, 300 + s) for s in range(count)])

    @pytest.mark.parametrize("shape", [(5,), (1,), (2, 3)])
    def test_slices_are_single_calls(self, k, m, n, shape):
        phi = maps.make_map(linalg.sample_hermitian(m * n, 7), m, n)
        side = k * m
        stack = self.blocks(k, m, int(np.prod(shape))).reshape(shape + (side, side))
        got = maps.amplify(phi, k, stack)
        assert got.shape == shape + (k * n, k * n)
        for g, c in zip(got.reshape(-1, k * n, k * n), stack.reshape(-1, side, side)):
            assert g.tobytes() == maps.amplify(phi, k, c).tobytes()

    def test_single_matrix_is_the_block_contraction(self, k, m, n):
        # block (i, j) of the output is phi of block (i, j) of the input,
        # phi(x) = sum_pq x_pq phi(E_pq) with phi(E_pq) block (p, q) of the Choi matrix
        phi = maps.make_map(linalg.sample_hermitian(m * n, 8), m, n)
        images = phi.choi.reshape(m, n, m, n)
        c = self.blocks(k, m, 1)[0]
        out = maps.amplify(phi, k, c).reshape(k, n, k, n)
        blocks = c.reshape(k, m, k, m)
        for i in range(k):
            for j in range(k):
                x = blocks[i, :, j]
                ref = sum(x[p, q] * images[p, :, q] for p in range(m) for q in range(m))
                assert np.allclose(out[i, :, j], ref, atol=1e-12)

    def test_wrong_block_side_rejected(self, k, m, n):
        phi = maps.make_map(linalg.sample_hermitian(m * n, 9), m, n)
        with pytest.raises(ShapeMismatch):
            maps.amplify(phi, k, np.zeros((3, k * m + 1, k * m + 1)))
        with pytest.raises(ShapeMismatch):
            maps.amplify(phi, k, np.zeros(k * m))


def reduction_map(m):
    """a -> Tr(a) I - 2a on M_m: not positive (a rank-one projection goes to
    I - 2P, with eigenvalue -1), so it fails S_k at every k."""
    return maps.map_from_action(lambda a: np.trace(a) * np.eye(m) - 2 * a, m, m,
                                label=f"reduction:{m}")


def sk_oracle(phi, k, trials, seed):
    """The sampler trial by trial, from the single-matrix functions only:
    (violation_found, trials, worst_output_eig, witness)."""
    m = phi.dim_in
    pair = dykstra.PPTPair(TensorLayout((k, m)), 1)
    floor = -linalg.DEFAULT.cone
    worst = np.inf
    for t in range(trials):
        h = linalg.sample_hermitian(k * m, seed + t)
        c = pair.lift(linalg.herm_part(linalg._psd_clip(h)))
        out = maps.amplify(phi, k, c)
        w = linalg.min_eig(out)
        violated = w < floor * linalg.frobenius(out)
        if violated and min(linalg.min_eig(c),
                            linalg.min_eig(pair.pt(c))) < floor * linalg.frobenius(c):
            continue
        worst = min(worst, w)
        if violated:
            return True, t + 1, worst, c
    return False, trials, worst, None


def sampled_points(phi, k, trials, seed):
    """The sampler's points, read from its one stacked ``amplify`` call."""
    stacks = []
    amplify = maps.amplify

    def spy(phi, level, c):
        stacks.append(c.copy())
        return amplify(phi, level, c)

    with mock.patch.object(maps, "amplify", spy):
        res = maps.sk_sampler(phi, k, trials=trials, seed=seed)
    assert len(stacks) == 1 and stacks[0].shape == (trials, k * phi.dim_in, k * phi.dim_in)
    return res, stacks[0]


class TestSkSampler:
    def test_identity_never_violates(self):
        res = maps.sk_sampler(maps.identity_map(2), 2, trials=20, seed=0)
        assert not res.violation_found

    def test_transposition_never_violates(self):
        # inputs have PSD block transpose, so the output is a PSD conjugate
        res = maps.sk_sampler(maps.transposition_map(2), 2, trials=20, seed=1)
        assert not res.violation_found

    def test_non_finite_map_rejected(self):
        # the map is refused where it is built, so no sampler sees it
        choi = maps.identity_map(2).choi.copy()
        choi[0, 0] = np.nan
        with pytest.raises(BadChoi):
            maps.MapObject(2, 2, choi)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        # with no trial the sampler would report "no violation" untested
        with pytest.raises(InvalidOption):
            maps.sk_sampler(maps.identity_map(2), 1, trials=trials)

    @pytest.mark.parametrize("trials", [2.5, 3.0, True, False, "3", None])
    def test_non_integer_trials_rejected(self, trials):
        # a float reached range() as a bare TypeError; True ran one trial
        # and reported trials: True
        with pytest.raises(InvalidOption, match="trials must be an integer"):
            maps.sk_sampler(maps.identity_map(2), 1, trials=trials)

    def test_numpy_integer_trials_accepted(self):
        assert maps.sk_sampler(maps.identity_map(2), 1, trials=np.int64(2)).trials == 2

    @pytest.mark.parametrize("k", [0, -1, -3, 1.5, 2.0, True, None])
    def test_bad_level_rejected(self, k):
        # k = 0 raised LayoutMismatch with a message about the layout
        with pytest.raises(DimensionMismatch, match="k must be an integer of at least 1"):
            maps.sk_sampler(maps.identity_map(2), k, trials=3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("trials", range(1, 8))
    def test_matches_single_trial_oracle(self, k, m, trials):
        """Bit for bit the sampler run trial by trial, on a map with no
        violation, one that shows it at once and (m = 3) Choi's map."""
        phis = [maps.identity_map(m), reduction_map(m)]
        if m == 3:
            phis.append(maps.make_map(choi_map_choi(), 3, 3))
        for phi in phis:
            for seed in (0, 17 * trials + k):
                res = maps.sk_sampler(phi, k, trials=trials, seed=seed)
                found, used, worst, witness = sk_oracle(phi, k, trials, seed)
                assert (res.violation_found, res.trials) == (found, used)
                assert repr(res.worst_output_eig) == repr(worst)
                if witness is None:
                    assert res.witness is None
                else:
                    assert np.array_equal(res.witness, witness)
                    assert res.witness.tobytes() == witness.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trials_are_independent(self, k):
        """Trial t's point depends on seed + t alone: it is the first point of
        a call at seed + t, whatever the trial count."""
        phi = maps.identity_map(2)
        _, points = sampled_points(phi, k, 6, 40)
        for t in range(6):
            for trials in (1, 6 - t):
                _, alone = sampled_points(phi, k, trials, 40 + t)
                assert alone[0].tobytes() == points[t].tobytes()

    def test_infeasible_point_is_no_violation(self, monkeypatch):
        """Without the lift, each point is the PSD part P of its draw, whose
        block transpose is not PSD: the transposition maps P to an output
        with P^Γ's spectrum, a violation on every trial, which only the
        sampler's re-check of the set keeps from being reported."""
        phi, layout = maps.transposition_map(2), TensorLayout((2, 2))
        for t in range(5):
            p = linalg._psd_clip(linalg.sample_hermitian(4, t))
            assert np.linalg.eigvalsh(linalg.partial_transpose(p, layout, 1))[0] < -1e-3
            assert np.linalg.eigvalsh(maps.amplify(phi, 2, p))[0] < -1e-3

        monkeypatch.setattr(dykstra.PPTPair, "lift", lambda pair, w: w)
        res = maps.sk_sampler(phi, 2, trials=5, seed=0)
        assert not res.violation_found and res.witness is None and res.trials == 5
        assert res.worst_output_eig == np.inf

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 3), m=st.integers(2, 3), seed=st.integers(0, 2**16))
    def test_points_lie_on_the_boundary_of_the_set(self, k, m, seed):
        """Every point is in the set, both λmin at least −1e-12·‖c‖, and on its
        boundary: μ is the least multiple of I, so one λmin is at most
        1e-12·‖c‖.  The exception is a draw inside the set (h ≻ 0 and
        h^Γ ≻ 0, seen at k = 1 only); its point may be interior."""
        trials = 3
        layout = TensorLayout((k, m))
        res, points = sampled_points(maps.identity_map(m), k, trials, seed)
        assert not res.violation_found and len(points) == trials
        for t, c in enumerate(points):
            assert np.array_equal(c, c.conj().T)
            floor = 1e-12 * np.linalg.norm(c)
            low = min(np.linalg.eigvalsh(c)[0],
                      np.linalg.eigvalsh(linalg.partial_transpose(c, layout, 1))[0])
            assert low >= -floor
            h = linalg.sample_hermitian(k * m, seed + t)
            inside = (np.linalg.eigvalsh(h)[0] > 0
                      and np.linalg.eigvalsh(linalg.partial_transpose(h, layout, 1))[0] > 0)
            assert low <= floor or inside

    @pytest.mark.parametrize("seed", range(20))
    def test_reduction_map_violates_on_the_first_trial(self, seed):
        """a -> Tr(a) I - 2a on M_2 fails S_2, and the first point shows it."""
        phi = maps.map_from_action(lambda a: np.trace(a) * np.eye(2) - 2 * a, 2, 2)
        res = maps.sk_sampler(phi, 2, trials=1, seed=seed)
        assert res.violation_found and res.trials == 1
        assert np.linalg.eigvalsh(maps.amplify(phi, 2, res.witness))[0] < 0

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-12, 12), seed=st.integers(0, 2**16), level=st.integers(1, 2))
    @example(k=-10, seed=0, level=2)    # read "no violation" against an absolute floor
    @example(k=9, seed=0, level=1)      # the identity read a violation
    def test_scaled_verdicts(self, k, seed, level):
        """No scale hides an S_k violation or makes one up: a -> Tr(a) I - 2a
        times 10^k ends with a witness that checks from scratch, and the
        identity times 10^k ends with none."""
        phi = maps.map_from_action(lambda a: 10.0**k * (np.trace(a) * np.eye(2) - 2 * a), 2, 2)
        res = maps.sk_sampler(phi, level, trials=20, seed=seed)
        assert res.violation_found
        c = res.witness
        floor = -1e-8 * np.linalg.norm(c)
        assert np.linalg.eigvalsh(c)[0] >= floor
        assert np.linalg.eigvalsh(linalg.partial_transpose(c, TensorLayout((level, 2)), 1))[0] >= floor
        assert np.linalg.eigvalsh(maps.amplify(phi, level, c))[0] < 0
        ident = maps.make_map(10.0**k * maps.identity_map(2).choi, 2, 2)
        assert not maps.sk_sampler(ident, level, trials=5, seed=seed).violation_found

    def test_m3_map_has_sk_witness(self):
        """The split's certificate exhibits the S_3 failure random sampling
        misses, for Choi's map and four local-unitary conjugates.  W ⪰ 0,
        W^{t2} ⪰ 0 with Tr(W C) < 0; X = swap(Wᵀ), swap exchanging the
        tensor factors, is PSD with X^{t1} = swap((W^{t2})ᵀ) PSD, and
        <Ω|(id_3 ⊗ φ)(X)|Ω> = Tr(W C) < 0 for Ω = Σ_i e_i ⊗ e_i."""
        pair = dykstra.PPTPair(TensorLayout((3, 3)), 1)
        for choi in [choi_map_choi()] + local_conjugates(choi_map_choi(), 3, 4, 7):
            phi = maps.make_map(choi, 3, 3)
            res = maps.decompose(phi)
            assert res.stop_reason == "certified"
            x = res.witness.T.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)
            assert linalg.min_eig(x) >= -1e-10
            assert linalg.min_eig(pair.pt(x)) >= -1e-8
            assert linalg.min_eig(maps.amplify(phi, 3, x)) < -0.01


class TestDecompose:
    def test_identity(self):
        res = maps.decompose(maps.identity_map(2))
        assert res.converged and res.residual <= 1e-8
        assert np.allclose(res.cp_part.choi, maps.identity_map(2).choi, atol=1e-6)

    def test_transposition(self):
        res = maps.decompose(maps.transposition_map(2))
        assert res.converged and res.residual <= 1e-8
        pt = linalg.partial_transpose(res.ccp_part.choi, TensorLayout((2, 2)), 2)
        assert linalg.min_eig(pt) >= -1e-7

    def test_random_mix(self):
        u, v = linalg.sample_unitary(3, 1), linalg.sample_unitary(3, 2)
        phi = maps.mix_maps(0.35, maps.adjoint_map(u),
                            maps.compose_transpose(maps.adjoint_map(v)))
        res = maps.decompose(phi, tol=1e-6)
        assert res.converged

    def test_m3_map_stagnates(self):
        res = maps.decompose(choi_m3_map(), tol=1e-6)
        assert not res.converged
        assert res.residual > 0.1
        assert res.stop_reason == "certified"

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-9, 9), seed=st.integers(0, 2**32 - 1))
    def test_scaled_m3_map_certified(self, k, seed):
        """No scale hides non-decomposability: Choi's map times 10^k, under
        random local unitaries, ends with a witness that checks from scratch."""
        local = np.kron(linalg.sample_unitary(3, seed), linalg.sample_unitary(3, seed + 1))
        choi = 10.0**k * local @ choi_m3_map().choi @ local.conj().T
        res = maps.decompose(maps.make_map(choi, 3, 3))
        assert res.stop_reason == "certified" and not res.converged
        assert_witness(res.witness, choi, TensorLayout((3, 3)))
        assert_split(res.cp_part.choi, res.ccp_part.choi, res.residual, choi,
                     TensorLayout((3, 3)))

    def test_small_scale_residual_is_relative(self):
        choi = 1e-6 * maps.identity_map(2).choi
        res = maps.decompose(maps.make_map(choi, 2, 2))
        assert res.converged and res.residual <= 1e-8 * np.linalg.norm(choi)

    @pytest.mark.parametrize("margin", [1e-1, 1e-3])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [2, 3])
    def test_block_positive_maps_decompose(self, n, seed, margin):
        """Størmer–Woronowicz oracle: every positive map M_2 -> M_2 or
        M_2 -> M_3 is decomposable.  C = H - (mu - margin) I is block
        positive, with mu the minimum of H over product vectors."""
        h = linalg.sample_hermitian(2 * n, seed)
        choi = h - (product_minimum(h, n) - margin) * np.eye(2 * n)
        res = maps.decompose(maps.make_map(choi, 2, n), tol=1e-8)
        assert res.stop_reason == "converged" and res.residual <= 1e-8
        assert_split(res.cp_part.choi, res.ccp_part.choi, res.residual, choi,
                     TensorLayout((2, n)))


def failures_equal(rep, other):
    """The same criteria fail, at the same level, with the same stop reason
    and witness."""
    return rep.failures.keys() == other.failures.keys() and all(
        (f.level, f.stop_reason) == (g.level, g.stop_reason)
        and np.array_equal(f.witness, g.witness)
        for f, g in ((rep.failures[c], other.failures[c]) for c in rep.failures))


# The split caps on the r = +1e-6 tier's three maps with a > 1, reading
# outside a decomposable map, so that tier stays in the family with its truth
# but is not asserted until the split reaches it.  Its co-CP a = 1 map stops
# at iteration 0 (TestGeneralizedChoi::test_co_cp_member_converges_at_iteration_0).
_CAPPED_TIERS = (1e-6,)


def _asserted_family():
    """The positive members of the family whose verdicts are asserted."""
    return [p for p in generalized_choi_family()
            if p[0] not in _CAPPED_TIERS and generalized_choi_positive(*p[1:])]


_FAMILY_IDS = [f"r{p[0]:+.0e}-a{p[1]}" for p in _asserted_family()]


class TestGeneralizedChoi:
    """Exact oracle: the positive and decomposable generalized Choi maps are
    known in closed form, so each verdict has a truth to meet."""

    def test_choi_map_is_a_member(self):
        phi = generalized_choi(2, 1, 0)
        assert np.array_equal(phi.choi, choi_map_choi())
        assert generalized_choi_positive(2, 1, 0)
        assert not generalized_choi_decomposable(2, 1, 0)
        assert maps.decompose(phi).stop_reason == "certified"

    def test_family_truth(self):
        family = generalized_choi_family()
        positive = {(r, a) for r, a, b, c in family if generalized_choi_positive(a, b, c)}
        # a = 1 needs bc >= 1, and at r = -1e-1 a + b + c falls below 3
        assert positive == {(r, a) for r, a, _, _ in family
                            if r > 0 or (r > -1e-1 and a > 1)}
        for r, a, b, c in family:
            assert generalized_choi_decomposable(a, b, c) == (r > 0)

    def test_co_cp_member_converges_at_iteration_0(self):
        """Φ[1, b, c] at r = +1e-6 is co-CP, C^Γ PSD to rounding: the split's
        start already holds the split (0, C) and returns it.  It capped at
        5000 iterations and read "not decomposable" before."""
        [(r, a, b, c)] = [p for p in generalized_choi_family() if p[:2] == (1e-6, 1.0)]
        phi = generalized_choi(a, b, c)
        assert generalized_choi_decomposable(a, b, c)
        res = maps.decompose(phi)
        assert (res.stop_reason, res.iterations) == ("converged", 0)
        assert_split(res.cp_part.choi, res.ccp_part.choi, res.residual, phi.choi, phi.layout)

    @pytest.mark.parametrize("r,a,b,c", _asserted_family(), ids=_FAMILY_IDS)
    def test_verdicts(self, r, a, b, c):
        phi = generalized_choi(a, b, c)
        res = maps.decompose(phi)
        if generalized_choi_decomposable(a, b, c):
            assert res.stop_reason == "converged"
        else:
            assert res.stop_reason == "certified"
            assert_witness(res.witness, phi.choi, phi.layout)


class TestGeneralizedChoiEquivalences:
    """The paper's equivalences on the exact oracle family: the Hilbert-space
    characterization (the hull criterion at level m) and complex inputs of
    known answer agree with decompose and with the closed form."""

    @pytest.mark.parametrize("r,a,b,c", _asserted_family(), ids=_FAMILY_IDS)
    def test_hull_criterion_at_level_m(self, r, a, b, c):
        """Φ / (a + b + c − 1) is unital and trace-preserving, so it has a
        detailed-balance adjoint for the tracial state of M_3.  The hull
        criterion holds at every level up to 3 exactly when Φ is decomposable;
        otherwise it fails first at level 3, with a certified split."""
        phi = generalized_choi(a, b, c)
        normalized = maps.make_map(phi.choi / (a + b + c - 1), 3, 3)
        rep = maps.cone_criterion_check(normalized, modular.build_modular(np.eye(3) / 3),
                                        k=3, trials=2, seed=0)
        decomposable = generalized_choi_decomposable(a, b, c)
        assert rep.holds("hull") == decomposable
        assert (maps.decompose(phi).stop_reason == "converged") == decomposable
        assert all(f.level == 3 for f in rep.failures.values())
        assert max(max(rep.levels[level].values()) for level in (1, 2)) <= 1e-12
        if not decomposable:
            assert rep.failures["hull"].stop_reason == "certified"

    @pytest.mark.parametrize("r,a,b,c", _asserted_family(), ids=_FAMILY_IDS)
    def test_levels_above_m_repeat_level_m(self, r, a, b, c):
        """Level m = 3 decides every level above it: k = 5 reports levels 4
        and 5 equal to level 3, and the same failures as k = 3."""
        phi = generalized_choi(a, b, c)
        normalized = maps.make_map(phi.choi / (a + b + c - 1), 3, 3)
        md = modular.build_modular(np.eye(3) / 3)
        at_m, above = (maps.cone_criterion_check(normalized, md, k=k, trials=2, seed=0)
                       for k in (3, 5))
        assert above.levels[4] == above.levels[5] == above.levels[3] == at_m.levels[3]
        assert failures_equal(above, at_m)

    @pytest.mark.parametrize("r,a,b,c", _asserted_family(), ids=_FAMILY_IDS)
    def test_local_conjugates(self, r, a, b, c):
        """(Zᵀ ⊗ W) C (Zᵀ ⊗ W)* is a complex input of the same verdict, and
        both cones are covariant under it: the same stop, in as many steps."""
        phi = generalized_choi(a, b, c)
        want = "converged" if generalized_choi_decomposable(a, b, c) else "certified"
        base = maps.decompose(phi)
        assert base.stop_reason == want
        for choi in local_conjugates(phi.choi, 3, 3, seed=int(100 * a)):
            res = maps.decompose(maps.make_map(choi, 3, 3))
            assert (res.stop_reason, res.iterations) == (want, base.iterations)


class TestDecomposeScale:
    """Decomposability is a cone property: 10^k φ splits when φ does."""

    @staticmethod
    def inputs():
        ckl = [generalized_choi(a, b, c) for r, a, b, c in generalized_choi_family()
               if r == 1e-1]
        return decomposable_test_set()[::10] + ckl

    @pytest.mark.parametrize("k", [-12, -9, -6, -3, 0, 3, 6])
    def test_decomposable_maps_converge(self, k):
        for phi in self.inputs():
            res = maps.decompose(maps.make_map(10.0**k * phi.choi, phi.dim_in, phi.dim_out))
            assert res.stop_reason == "converged", (phi.label, k)

    @pytest.mark.xfail(strict=True, reason=(
        "split_sum stops at gap <= tol·min(1, ‖c‖), an absolute bound above "
        "‖c‖ = 1 that falls below the rounding of c at 1e9; the scale-free "
        "decompose of ROADMAP item 4 mends it"))
    def test_large_scale_converges(self):
        phi = maps.map_from_key("mix:0.5:identity:3:transpose:3")
        res = maps.decompose(maps.make_map(1e9 * phi.choi, 3, 3))
        assert res.stop_reason == "converged"


# (r, a) of the family maps whose split caps at the default max_iter at scale 1
_AUDIT_CAPPED = {(1e-6, 1.5), (1e-6, 2.0), (1e-6, 2.5), (-1e-6, 1.0)}


def _audit_corpus():
    """The generalized Choi family but its capped maps, and every fifth
    criterion-6 map, as test parameters."""
    family = [pytest.param(generalized_choi(a, b, c), id=f"r{r:+.0e}-a{a}")
              for r, a, b, c in generalized_choi_family() if (r, a) not in _AUDIT_CAPPED]
    return family + [pytest.param(phi, id=f"crit6-{5 * i}")
                     for i, phi in enumerate(decomposable_test_set()[::5])]


class TestImplicationsAndScale:
    """The package's own verdicts obey the hierarchy: CP or co-CP implies
    decomposable, and decomposable implies positive, so a k = 1 violation
    rules out both CP and co-CP.  No verdict moves when the Choi matrix is
    scaled exactly, by a power of two, from 2^-30 to 2^20.  (At 2^30 most
    splits cap: ``TestDecomposeScale::test_large_scale_converges``.)"""

    @staticmethod
    def verdicts(phi, scale=1.0):
        phi = maps.make_map(scale * phi.choi, phi.dim_in, phi.dim_out)
        gp = maps.global_positivity_test(phi)
        return (gp.completely_positive, gp.completely_copositive,
                maps.decompose(phi).stop_reason,
                maps.k_positivity_search(phi, 1, restarts=8).violation_found)

    @pytest.mark.parametrize("phi", _audit_corpus())
    def test_implications_hold_at_every_scale(self, phi):
        cp, ccp, stop, violated = base = self.verdicts(phi)
        if cp or ccp:
            assert stop == "converged"
        if stop == "converged":
            assert not violated
        if violated:
            assert not (cp or ccp)
        for e in (-30, -10, 10, 20):
            assert self.verdicts(phi, 2.0 ** e) == base, e


def _after_transpose(phi):
    """t∘φ: C ↦ C^Γ2."""
    return maps.make_map(linalg.partial_transpose(phi.choi, phi.layout, 2),
                         phi.dim_in, phi.dim_out)


def _adjoint(phi):
    """φ*: C ↦ F C̄ F, F the factor swap."""
    m, n = phi.dim_in, phi.dim_out
    c = phi.choi.reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)
    return maps.make_map(c.conj(), n, m)


def _conjugate(phi):
    """φ̄: C ↦ C̄."""
    return maps.make_map(phi.choi.conj(), phi.dim_in, phi.dim_out)


class TestDecomposeSymmetries:
    """t∘φ, φ* and φ̄ are decomposable exactly when φ is, and the split
    treats them alike: the same stop reason in the same number of steps."""

    def test_adjoint_of_a_conjugation(self, rng):
        v = random_matrix(rng, 3, 2)
        assert np.array_equal(_adjoint(maps.adjoint_map(v)).choi,
                              maps.adjoint_map(v.conj().T).choi)

    def test_adjoint_trace_pairing(self, rng):
        """Tr(b* φ(a)) = Tr(φ*(b)* a)."""
        phi = maps.make_map(linalg.sample_hermitian(6, 3), 2, 3)
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        lhs = np.vdot(b, maps.apply_map(phi, a))
        rhs = np.vdot(maps.apply_map(_adjoint(phi), b), a)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_same_stop(self):
        inputs = [maps.make_map(c, 3, 3) for c in local_conjugates(choi_map_choi(), 3, 12, 900)]
        inputs += decomposable_test_set()[::4]
        for phi in inputs:
            res = maps.decompose(phi)
            for variant in (_after_transpose, _adjoint, _conjugate):
                other = maps.decompose(variant(phi))
                assert (other.stop_reason, other.iterations) == \
                    (res.stop_reason, res.iterations), (phi.label, variant.__name__)


def reference_db_adjoint(phi, rho):
    """phi^beta = rho^{-1} phi^*(rho .) built one matrix unit at a time, with
    the trace dual phi^* read off the superoperator, and the residual of
    Tr(rho a* phi(b)) = Tr(rho phi^beta(a*) b) over every pair of matrix units,
    one trace at a time.  Returns the Choi matrix and that residual."""
    n = phi.dim_in
    unit = lambda i, j: np.eye(n)[:, [i]] @ np.eye(n)[[j], :]
    s_dag = maps.superoperator(phi).conj().T
    trace_dual = lambda x: (s_dag @ x.conj().T.reshape(-1)).reshape(n, n).conj().T
    choi = sum(np.kron(unit(i, j), np.linalg.inv(rho) @ trace_dual(rho @ unit(i, j)))
               for i in range(n) for j in range(n))
    beta = maps.MapObject(n, n, (choi + choi.conj().T) / 2)
    pairing = max(abs(np.trace(rho @ unit(i, j).T @ maps.apply_map(phi, unit(p, q)))
                      - np.trace(rho @ maps.apply_map(beta, unit(i, j).T) @ unit(p, q)))
                  for i in range(n) for j in range(n) for p in range(n) for q in range(n))
    return choi, pairing


class TestDetailedBalance:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_matches_reference(self, n, seed):
        """The one-contraction adjoint against the matrix-unit loop: the same
        Choi matrix where the adjoint exists (a conjugation by a unitary that
        commutes with rho), the same pairing residual for every map."""
        md = modular.build_modular(linalg.sample_density(n, seed))
        rng = np.random.default_rng(seed)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        u = md.eigenbasis @ np.diag(phases) @ md.eigenbasis.conj().T
        choi = random_matrix(rng, n * n)
        phis = [maps.adjoint_map(u), maps.adjoint_map(random_matrix(rng, n)),
                maps.make_map(choi + choi.conj().T, n, n)]
        for phi in phis:
            db = maps.db_adjoint(phi, md, seed=seed)
            ref_choi, ref_pairing = reference_db_adjoint(phi, md.rho_power(1))
            if phi is phis[0]:
                assert np.abs(db.adjoint.choi - ref_choi).max() <= 1e-14 * np.linalg.norm(ref_choi)
            assert db.pairing_residual == pytest.approx(ref_pairing, abs=1e-13)

    def test_identity_self_adjoint(self):
        md = modular.build_modular(linalg.sample_density(2, 3))
        db = maps.db_adjoint(maps.identity_map(2), md)
        assert db.holds
        assert np.allclose(db.adjoint.choi, maps.identity_map(2).choi, atol=1e-10)
        assert db.pairing_residual <= 1e-12

    def test_unitary_conjugation_tracial(self):
        w = linalg.sample_unitary(2, 9)
        md = modular.build_modular(np.eye(2) / 2)
        db = maps.db_adjoint(maps.adjoint_map(w), md)
        assert db.holds
        assert np.allclose(db.adjoint.choi, maps.adjoint_map(w.conj().T).choi,
                           atol=1e-10)

    def test_transposition_self_adjoint_tracial(self):
        md = modular.build_modular(np.eye(2) / 2)
        db = maps.db_adjoint(maps.transposition_map(2), md)
        assert db.holds
        assert np.allclose(db.adjoint.choi, maps.transposition_map(2).choi, atol=1e-10)


class TestTransfer:
    def test_identity_transfer(self):
        md = modular.build_modular(linalg.sample_density(2, 12))
        t = maps.transfer_operator(maps.identity_map(2), md)
        assert np.allclose(t.matrix, np.eye(4))
        assert t.delta_commutation_residual <= 1e-12

    def test_trace_map_rank_one(self):
        md = modular.build_modular(np.eye(2) / 2)
        phi = maps.map_from_action(lambda a: np.trace(a) / 2 * np.eye(2), 2, 2)
        t = maps.transfer_operator(phi, md)
        s = np.linalg.svd(t.matrix, compute_uv=False)
        assert int((s > 1e-10).sum()) == 1
        omega = md.rho_power(0.5).reshape(-1)
        assert np.allclose(t.matrix @ omega, omega)

    def test_cp_unital_delta_commutation(self):
        md = modular.build_modular(linalg.sample_density(2, 40))
        # conjugation by a rho-commuting unitary satisfies detailed balance
        u = md.eigenbasis @ np.diag(np.exp(1j * np.array([0.3, 1.1]))) @ md.eigenbasis.conj().T
        t = maps.transfer_operator(maps.adjoint_map(u), md)
        assert t.db.holds
        assert t.delta_commutation_residual <= 1e-8
        # cone preservation: level 1 of the P_n criterion
        rep = maps.cone_criterion_check(maps.adjoint_map(u), md, k=1, trials=10)
        assert rep.levels[1]["p"] <= 1e-8

    def test_dimension_mismatch(self):
        """m ≠ n, or a state of another dimension, is rejected (by db_adjoint,
        which the transfer operator builds first)."""
        md = modular.build_modular(np.eye(2) / 2)
        with pytest.raises(DimensionMismatch):
            maps.transfer_operator(maps.make_map(np.eye(6), 2, 3), md)
        with pytest.raises(DimensionMismatch):
            maps.transfer_operator(maps.identity_map(3), md)


def criterion_image(rep, xi, m, level):
    """(T_phi (x) I)* xi on C^m (x) C^level, from the report's transfer matrix."""
    td4 = rep.transfer.matrix.conj().T.reshape(m, m, m, m)
    image = np.einsum("abcd,cpdq->apbq", td4, xi.reshape(m, level, m, level))
    return image.reshape(m * level, m * level)


def tensor_level(md, level):
    return modular.tensor_modular(md, modular.build_modular(np.eye(level) / level))


class TestConeCriteria:
    def test_identity_all_pass(self):
        md = modular.build_modular(np.eye(2) / 2)
        rep = maps.cone_criterion_check(maps.identity_map(2), md, k=2, trials=3, seed=0)
        assert rep.transfer.db.holds
        assert criterion_worst(rep, "p") <= 1e-8
        assert criterion_worst(rep, "hull") <= 1e-8

    def test_transposition_fails_p_at_level_two(self):
        md = modular.build_modular(np.eye(2) / 2)
        rep = maps.cone_criterion_check(maps.transposition_map(2), md, k=2,
                                        trials=5, seed=1)
        assert rep.levels[1]["p"] <= 1e-8
        assert rep.levels[2]["p"] >= 0.4
        assert criterion_worst(rep, "pt") <= 1e-8
        assert criterion_worst(rep, "hull") <= 1e-8

    def test_even_mix_hull_passes(self):
        md = modular.build_modular(np.eye(2) / 2)
        phi = maps.mix_maps(0.5, maps.identity_map(2), maps.transposition_map(2))
        rep = maps.cone_criterion_check(phi, md, k=2, trials=5, seed=2)
        assert criterion_worst(rep, "hull") <= 1e-8

    def test_halved_choi_map_fails_hull_at_level_three(self):
        """Negative control: Choi's map, halved so that it is unital and
        trace-preserving, is positive but not decomposable.  Level 3 = m
        decides it with a witness that separates the image from the hull."""
        md = modular.build_modular(np.eye(3) / 3)
        phi = choi_m3_map(0.5)
        assert maps.cone_criterion_check(phi, md, k=2, trials=10, seed=0).holds("hull")
        rep = maps.cone_criterion_check(phi, md, k=3, trials=10, seed=0)
        assert not rep.holds("hull")
        failure = rep.failures["hull"]
        assert failure.level == 3 and rep.levels[3]["hull"] > 0.1
        mdt = tensor_level(md, 3)
        omega = np.eye(3).reshape(-1)
        quarter = mdt.rho_power(0.25)
        image = criterion_image(rep, quarter @ np.outer(omega, omega) @ quarter, 3, 3)
        members = [cones.sample_cone(mdt, cones.ConeSpec(kind), 900 + s)
                   for kind in (cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR)
                   for s in range(5)]
        assert_separates(failure.witness, image, members)

    def test_failures_carry_the_stop_reason(self):
        """A refuted hull reads ``certified``; p / pt failures carry no stop reason."""
        rep = maps.cone_criterion_check(choi_m3_map(0.5), modular.build_modular(np.eye(3) / 3),
                                        k=3, trials=10, seed=0)
        assert rep.failures["hull"].level == 3
        assert rep.failures["hull"].stop_reason == "certified"
        rep = maps.cone_criterion_check(maps.transposition_map(2),
                                        modular.build_modular(np.eye(2) / 2), k=2, trials=2)
        assert rep.failures["p"].stop_reason is None

    @pytest.mark.parametrize("i", range(4))
    def test_omega_probe_decides_level_m(self, i):
        """At level m = 2 the Omega probe is exact: where it reads inside, so
        do random rank-one members rho^{1/4} vv* rho^{1/4} of P_2."""
        md = modular.build_modular(np.eye(2) / 2)
        phi = maps.mix_maps((i + 1) / 5, maps.identity_map(2),
                            maps.compose_transpose(maps.adjoint_map(linalg.sample_unitary(2, 6600 + i))))
        rep = maps.cone_criterion_check(phi, md, k=2, trials=2, seed=i)
        assert rep.holds("hull")
        mdt = tensor_level(md, 2)
        hull = cones.ConeSpec(cones.HULL)
        rng = np.random.default_rng(i)
        for _ in range(5):
            v = random_matrix(rng, 4, 1)
            xi = mdt.rho_power(0.25) @ (v @ v.conj().T) @ mdt.rho_power(0.25)
            image = criterion_image(rep, xi, 2, 2)
            assert cones.cone_membership(mdt, hull, image).inside

    def test_one_hull_solve_per_level_from_m(self, monkeypatch):
        calls = []
        split_sum = dykstra.split_sum
        monkeypatch.setattr(dykstra, "split_sum",
                            lambda c, pair, **kw: calls.append(pair.layout.dims[1])
                            or split_sum(c, pair, **kw))
        md = modular.build_modular(np.diag([0.7, 0.3]))
        rep = maps.cone_criterion_check(maps.identity_map(2), md, k=4, trials=3, seed=0)
        assert calls == [1, 1, 1, 2]                # levels above m = 2 make no solve
        assert rep.levels[3] == rep.levels[4] == rep.levels[2]
        assert rep.holds("p") and rep.holds("hull")
        assert rep.failures["pt"].level == 2        # (Omega Omega*)^Gamma is the swap
        at_m = maps.cone_criterion_check(maps.identity_map(2), md, k=2, trials=3, seed=0)
        assert failures_equal(rep, at_m)

    def test_requires_detailed_balance(self):
        md = modular.build_modular(np.diag([0.8, 0.2]))
        # a generic unitary conjugation does not commute with this state
        phi = maps.adjoint_map(linalg.sample_unitary(2, 77))
        with pytest.raises(NoDetailedBalance):
            maps.cone_criterion_check(phi, md, k=1, trials=1, seed=0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        md = modular.build_modular(np.eye(2) / 2)
        with pytest.raises(InvalidOption):
            maps.cone_criterion_check(maps.identity_map(2), md, k=1, trials=trials, seed=0)

    @pytest.mark.parametrize("trials", [2.5, True, "2", None])
    def test_non_integer_trials_rejected(self, trials):
        # below level m the trials reach range(); at k = 1 < m = 2 they did
        md = modular.build_modular(np.eye(2) / 2)
        with pytest.raises(InvalidOption, match="trials must be an integer"):
            maps.cone_criterion_check(maps.identity_map(2), md, k=1, trials=trials, seed=0)

    @pytest.mark.parametrize("k", [0, -1, 1.5, True])
    def test_bad_level_rejected(self, k):
        md = modular.build_modular(np.eye(2) / 2)
        with pytest.raises(DimensionMismatch, match="k must be an integer of at least 1"):
            maps.cone_criterion_check(maps.identity_map(2), md, k=k, trials=2, seed=0)
