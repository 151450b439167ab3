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
