import json

import numpy as np
import pytest

from decomap import linalg, modular


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
