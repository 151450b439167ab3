import json

import numpy as np
import pytest

from decomap import linalg, maps, modular, stormer


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def md_skew():
    """Modular data for the diag(0.8, 0.2) state."""
    return modular.build_modular(np.diag([0.8, 0.2]))


@pytest.fixture
def md_tracial2():
    return modular.build_modular(np.eye(2) / 2)


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def unit(n, i, j):
    """Matrix unit E_ij of M_n."""
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def matrix_json(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


EIG_SLACK = 1e-12       # eigh backward error allowed, relative to the matrix norm


def _min_eig(x):
    return np.linalg.eigvalsh((x + x.conj().T) / 2)[0]


def criterion_worst(rep, criterion):
    """The worst residual of one cone criterion over a report's levels."""
    return max(level[criterion] for level in rep.levels.values())


def assert_split(part1, part2, residual, c, layout):
    """A split from scratch: part1 PSD, part2 PSD after its factor-2 partial
    transpose, and the residual recomputed from the parts."""
    slack = EIG_SLACK * max(1.0, np.linalg.norm(c))
    assert _min_eig(part1) >= -slack
    assert _min_eig(linalg.partial_transpose(part2, layout, 2)) >= -slack
    assert residual == pytest.approx(np.linalg.norm(c - part1 - part2), rel=1e-12)


def assert_witness(w, c, layout):
    """A decomposable witness from scratch: unit W with W and W^{t2} PSD and
    Tr(W c) < 0, which proves that c is not PSD + PPT."""
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert _min_eig(w) >= -EIG_SLACK
    assert _min_eig(linalg.partial_transpose(w, layout, 2)) >= -EIG_SLACK
    assert np.vdot(w, c).real < 0


def assert_separates(witness, xi, members):
    """An outside verdict's witness V separates xi from the cone: unit V with
    Re<V, xi> < 0 and Re<V, eta> >= 0 for every member eta."""
    assert linalg.frobenius(witness) == pytest.approx(1.0)
    assert np.vdot(witness, xi).real < 0
    for eta in members:
        assert np.vdot(witness, eta).real >= -1e-12 * linalg.frobenius(eta)


def choi_map_choi():
    """Choi matrix of Choi's positive, non-decomposable map on M_3."""
    def act(a):
        d = [a[0, 0] + a[1, 1], a[1, 1] + a[2, 2], a[2, 2] + a[0, 0]]
        return np.diag(d).astype(complex) - (a - np.diag(np.diag(a)))
    return maps.map_from_action(act, 3, 3).choi


def local_conjugates(c, n, count, seed):
    """(Zᵀ ⊗ W) c (Zᵀ ⊗ W)* for Haar-random Z, W on C^n."""
    out = []
    for i in range(count):
        z, w = (linalg.sample_unitary(n, seed + 2 * i + j) for j in range(2))
        local = np.kron(z.T, w)
        out.append(local @ c @ local.conj().T)
    return out


def generalized_choi(a, b, c):
    """The generalized Choi map Φ[a, b, c] on M_3:
    X ↦ diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33, b x11 + c x22 + a x33) − X.
    Φ[2, 1, 0] is Choi's map."""
    def act(x):
        d = np.diag(x)
        return np.diag([a * d[0] + b * d[1] + c * d[2], c * d[0] + a * d[1] + b * d[2],
                        b * d[0] + c * d[1] + a * d[2]]) - x
    return maps.map_from_action(act, 3, 3, label=f"choi[{a},{b},{c}]")


def generalized_choi_positive(a, b, c):
    """Closed form for b, c >= 0: Φ[a, b, c] is positive iff a >= 1,
    a + b + c >= 3 and (1 <= a <= 2 implies bc >= (2 - a)^2)."""
    return a >= 1 and a + b + c >= 3 and (not 1 <= a <= 2 or b * c >= (2 - a) ** 2)


def generalized_choi_decomposable(a, b, c):
    """Closed form for a positive Φ[a, b, c]: decomposable iff
    (a <= 3 implies bc >= (3 - a)^2 / 4)."""
    return a > 3 or b * c >= (3 - a) ** 2 / 4


def generalized_choi_family():
    """(r, a, b, c) for a in {1, 1.5, 2, 2.5}, b/c = 1.69 and
    bc = (3 - a)^2 / 4 · (1 + r): r > 0 decomposable, r < 0 not."""
    out = []
    for r in (1e-1, 1e-3, 1e-6, -1e-6, -1e-3, -1e-1):
        for a in (1.0, 1.5, 2.0, 2.5):
            s = np.sqrt((3 - a) ** 2 / 4 * (1 + r))
            out.append((r, a, 1.3 * s, s / 1.3))
    return out


def decomposable_test_set():
    """The 100 maps of criterion 6: 50 explicit mixes + 50 face-family maps."""
    out = []
    for i in range(50):
        n = 2 + i % 2
        u = linalg.sample_unitary(n, 1000 + i)
        v = linalg.sample_unitary(n, 2000 + i)
        lam = (i + 1) / 51.0
        out.append(maps.mix_maps(lam, maps.adjoint_map(u),
                                 maps.compose_transpose(maps.adjoint_map(v)),
                                 label=f"mix-{i}"))
    rng = np.random.default_rng(3000)
    for i in range(50):
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        face = stormer.FaceSpec(xi=xi / np.linalg.norm(xi),
                                eta=eta / np.linalg.norm(eta))
        out.append(stormer.sample_face_map(face, 1 + i % 3, seed=3100 + i))
    return out


def _lowest_eig_on_sphere(h4, theta, phi):
    """Smallest eigenvalue of (x* (x) I) H (x (x) I) at Bloch angles (theta, phi)."""
    x = np.stack((np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)), axis=-1)
    return np.linalg.eigvalsh(np.einsum("...i,ipjq,...j->...pq", x.conj(), h4, x))[..., 0]


def product_minimum(h, n):
    """min <x (x) y|H|x (x) y> over unit x in C^2, y in C^n.

    The minimum over y is an eigenvalue, so only the Bloch sphere of x is
    searched: a 41 x 80 grid, then a 5 x 5 zoom that halves its step 60 times
    around each of the 8 lowest grid points.
    """
    h4 = h.reshape(2, n, 2, n)
    theta, phi = np.meshgrid(np.linspace(0, np.pi, 41),
                             np.linspace(0, 2 * np.pi, 80, endpoint=False), indexing="ij")
    values = _lowest_eig_on_sphere(h4, theta, phi)
    offsets = np.linspace(-1, 1, 5)
    best = np.inf
    for idx in np.argsort(values, axis=None)[:8]:
        t, p, step = theta.flat[idx], phi.flat[idx], np.pi / 40
        for _ in range(60):
            tt, pp = np.meshgrid(t + step * offsets, p + step * offsets, indexing="ij")
            v = _lowest_eig_on_sphere(h4, tt, pp)
            k = np.argmin(v)
            t, p, step = tt.flat[k], pp.flat[k], step / 2
        best = min(best, float(v.flat[k]))
    return best


def block_positive_choi(n, seed, margin):
    """H − (μ − margin)·I on C^2 ⊗ C^n, μ = H's product minimum: block-positive,
    so decomposable for n ≤ 3 (Størmer–Woronowicz), at distance about
    ``margin`` from the boundary of the block-positive cone."""
    h = linalg.sample_hermitian(2 * n, seed)
    return h - (product_minimum(h, n) - margin) * np.eye(2 * n)
