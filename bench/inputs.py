"""Seeded input generators for the decomap benchmark.

Everything here uses numpy alone: the program under test receives only the
matrices, files and argument lists built below, never a helper of its own.
Every input carries the verdict that the mathematics fixes for it, so the
benchmark can check each answer against a known one.

Choi convention (the package's): C = sum_ij E_ij (x) phi(E_ij), input factor
first; the co-positive cone is the factor-2 partial transpose of the PSD cone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# -- matrices ----------------------------------------------------------------

def ginibre(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(rng, n):
    q, r = np.linalg.qr(ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def wishart(rng, n):
    g = ginibre(rng, n)
    return g @ g.conj().T


def density(rng, n):
    """Faithful density matrix with spectrum bounded away from zero."""
    w = wishart(rng, n) + 0.05 * n * np.eye(n)
    w = (w + w.conj().T) / 2
    return w / np.trace(w).real


def herm_power(h, t):
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * w**t) @ v.conj().T


def partial_transpose(x, dims, factor):
    """Transpose the indices of one factor (1 or 2) of a two-factor matrix."""
    m, n = dims
    t = x.reshape(m, n, m, n)
    t = np.swapaxes(t, 0, 2) if factor == 1 else np.swapaxes(t, 1, 3)
    return t.reshape(m * n, m * n)


def choi_of(action, m, n):
    """Choi matrix of a linear map given as a callable on m x m matrices."""
    c = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            e = np.zeros((m, m), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(e, action(e))
    return c


def conj_choi(u):
    """Choi matrix of a -> u a u*: the rank-one projector on vec(u^T)."""
    v = u.T.reshape(-1)
    return np.outer(v, v.conj())


def co_conj_choi(u):
    """Choi matrix of a -> u a^T u*: factor-1 transpose of conj_choi."""
    n = u.shape[1]
    return partial_transpose(conj_choi(u), (n, u.shape[0]), 1)


def choi_map(a):
    """Choi's positive, non-decomposable map on M_3.

    phi(a)_ii = a_ii + a_(i+1)(i+1) (indices mod 3), phi(a)_ij = -a_ij off the
    diagonal: the member Phi[2, 1, 0] of the Cho-Kye-Lee family, which is
    positive and, since b c = 0 < 1/4, not decomposable.
    """
    d = np.diag([a[0, 0] + a[1, 1], a[1, 1] + a[2, 2], a[2, 2] + a[0, 0]])
    return d - (a - np.diag(np.diag(a)))


def orthogonal_unit(v):
    """The unit vector of C^2 orthogonal to the unit vector v."""
    return np.array([-np.conj(v[1]), np.conj(v[0])])


def unit_vector(rng, n):
    v = ginibre(rng, n, 1).reshape(-1)
    return v / np.linalg.norm(v)


def mix_choi(rng, n, lam):
    """lam * (a -> u a u*) + (1 - lam) * (a -> v a^T v*) on M_n: decomposable."""
    return lam * conj_choi(haar_unitary(rng, n)) + (1 - lam) * co_conj_choi(haar_unitary(rng, n))


def face_choi(rng, terms):
    """Random positive unital M_2 map in the maximal face of a random (xi, eta).

    A convex combination of conjugations by unitaries U with U xi orthogonal
    to eta and of co-conjugations a -> V a^T V* with V conj(xi) orthogonal
    to eta; every term is decomposable, so the sum is.
    """
    xi, eta = unit_vector(rng, 2), unit_vector(rng, 2)
    eta_perp = orthogonal_unit(eta)

    def unitary_sending(src):
        # src -> phase * eta_perp, src_perp -> phase * eta
        th = rng.uniform(0, 2 * np.pi, size=2)
        return (np.exp(1j * th[0]) * np.outer(eta_perp, src.conj())
                + np.exp(1j * th[1]) * np.outer(eta, orthogonal_unit(src).conj()))

    weights = rng.dirichlet(np.ones(2 * terms))
    c = np.zeros((4, 4), dtype=complex)
    for t in range(terms):
        c += weights[t] * conj_choi(unitary_sending(xi))
        c += weights[terms + t] * co_conj_choi(unitary_sending(xi.conj()))
    return c


BASE_SEED = 0               # stream of the fixed base maps


def input_rng(seed, stream, index):
    """Independent generator for input `index` of a stream, so any one input
    can be rebuilt without the others."""
    return np.random.default_rng([seed, stream, index])


def decomposable_choi(rng, index, count):
    """Input `index` of the criterion-6 family of `count` decomposable maps.

    Odd indices are M_2 face maps with 1-3 terms; even ones alternate M_2 and
    M_3 mixes whose weights walk a fixed grid in (0, 1).  The weight sets
    the solver's iteration count (up to ~3000 near 0 and 1 on M_3), so it
    comes from the grid, not from the generator.
    """
    if index % 2:
        return 2, face_choi(rng, 1 + (index // 2) % 3)
    j = index // 2
    n = 2 + j % 2
    lam = (j // 2 + 1) / ((count + 3) // 4 + 1)
    return n, mix_choi(rng, n, lam)


def local_conjugate(choi, n, rng):
    """Choi matrix of a -> W phi(Z a Z*) W* for Haar-random W, Z on C^n.

    That is (Z^T (x) W) C (Z^T (x) W)*.  Local unitaries preserve the PSD
    and the co-PSD cone and commute with both projections, so the split
    solver takes the same path, with the same iteration count, on every
    conjugate of a map; positivity and decomposability are preserved too.
    """
    z, w = haar_unitary(rng, n), haar_unitary(rng, n)
    local = np.kron(z.T, w)
    return local @ choi @ local.conj().T


def choi_map_matrix():
    """Choi matrix of Choi's map."""
    return choi_of(choi_map, 3, 3)


# -- CLI request files ---------------------------------------------------------

def matrix_json(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def vector_json(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


@dataclass(frozen=True)
class Request:
    """One CLI request: argv and the verdict the mathematics fixes for it."""

    argv: tuple[str, ...]
    expected: str          # "satisfied" or "violated"

    @property
    def command(self) -> str:
        return self.argv[0]


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def write_cli_inputs(rng, root: Path) -> tuple[list[Request], list[Request]]:
    """Write the request files under root; return (pass mix, cold requests).

    Requests use the flags the README shows, and each carries the verdict
    the mathematics fixes for it:

    * modular-check on a random faithful state: the identities hold.
    * cone-member, V_beta at beta = 1/4: rho^b G G* rho^(1/2-b) is inside,
      its negative is outside.
    * hull-member, dims 2,2, first factor rho, tracial second factor:
      P (A + B^t2) P with P = (rho (x) I/2)^(1/4) and A, B >= 0 is inside;
      its negative has a negative trace and is outside.
    * probe on a random pair of states: the intersection samples exist.
    * map-analyze: conjugations pass cp and kpos=2; co-conjugations fail cp;
      the transposition of M_3 passes ccp but fails kpos=2.
    * decompose: mixes of a conjugation and a co-conjugation split.
    * transfer-check: a conjugation by a state-commuting unitary has a
      positive unital detailed-balance adjoint and maps P_n into P_n.
    * stormer-build / stormer-verify: the local decomposition exists and
      holds for every positive unital M_2 map at any eta.
    * prop41 on lam ad(sx) + (1 - lam) ad(sx) o t in the face of (e1, e1):
      the trace condition on alpha, beta holds iff lam = 1/2.

    One pass of the closed loop holds 85 requests.  Light ones take 2-50 ms
    and the one transfer-check about 0.5 s; 20 M_3 decompose requests of
    equal cost (~80 ms) come between, so the tail percentile (ten samples
    beyond it per pass) lands in the middle of that block and the median in
    the light bulk, never on the edge between two kinds.  The cold requests
    are the first of each subcommand.
    """
    root.mkdir(parents=True, exist_ok=True)
    count = [0]

    def put(obj) -> str:
        count[0] += 1
        path = root / f"in{count[0]:03d}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def adu_file(key, mats):
        return put({"key": key, "matrices": {k: matrix_json(v) for k, v in mats.items()}})

    mix: list[Request] = []
    cold: dict[str, Request] = {}

    def add(argv, expected, repeats):
        req = Request(tuple(argv), expected)
        cold.setdefault(req.command, req)
        mix.extend([req] * repeats)

    # The work of one request must not swing with the seed, or the pass
    # figures would measure the draw.  Where the cost of a request depends
    # on its data (Dykstra iteration counts), requests are local-unitary
    # conjugates of one fixed base drawn from `base`: both cones and every
    # projection are covariant under local unitaries, so the solver takes
    # the same path, while every matrix entry changes with the seed.  The
    # transfer-check request and the program-side seeds are fixed outright.
    base = np.random.default_rng([0, 5])

    add(["transfer-check", "--map", adu_file("adu:u", {"u": np.diag([1, np.exp(1j * np.pi / 3)])}),
         "--rho", put(matrix_json(np.diag([0.8, 0.2]))), "--k", "2", "--trials", "10",
         "--seed", "0"], "satisfied", 1)

    for n, distinct, repeats in ((3, 20, 1), (2, 4, 2)):
        mixes = [(haar_unitary(base, n), haar_unitary(base, n)) for _ in range(distinct)]
        for j, (u0, v0) in enumerate(mixes):
            w, z = haar_unitary(rng, n), haar_unitary(rng, n)
            lam = 0.5 if n == 3 else (j + 1) / (distinct + 1)
            path = adu_file(f"mix:{lam!r}:adu:u:compose-t:adu:v",
                            {"u": w @ u0 @ z, "v": w @ v0 @ z.conj()})
            add(["decompose", "--map", path, "--tol", "1e-8", "--max-iter", "5000"],
                "satisfied", repeats)

    for n in (2, 3, 4, 3):
        rho = put(matrix_json(density(rng, n)))
        add(["modular-check", "--rho", rho, "--samples", "50",
             "--seed", str(int(rng.integers(0, 1000)))],
            "satisfied", 2)

    for i, n in enumerate((2, 2, 3, 3)):
        r = density(rng, n)
        xi = herm_power(r, 0.25) @ wishart(rng, n) @ herm_power(r, 0.25)
        sign, expected = (1, "satisfied") if i % 2 == 0 else (-1, "violated")
        add(["cone-member", "--rho", put(matrix_json(r)), "--xi",
             put(matrix_json(sign * xi)), "--cone", '{"kind":"vbeta","beta":0.25}'],
            expected, 2)

    hull_base = [wishart(base, 4) + partial_transpose(wishart(base, 4), (2, 2), 2)
                 for _ in range(2)]
    for i in range(4):
        r = density(rng, 2)
        p = herm_power(np.kron(r, np.eye(2) / 2), 0.25)
        local = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        c = local @ hull_base[i // 2] @ local.conj().T
        sign, expected = (1, "satisfied") if i % 2 == 0 else (-1, "violated")
        add(["hull-member", "--rho", put(matrix_json(r)), "--xi",
             put(matrix_json(sign * p @ c @ p)), "--dims", "2,2"], expected, 2)

    for dims, probe_seed in (("2,2", "1"), ("2,3", "2")):
        add(["probe", "--dims", dims, "--trials", "20", "--seed", probe_seed], "satisfied", 2)

    for n in (2, 3):
        u = haar_unitary(rng, n)
        add(["map-analyze", "--map", adu_file("adu:u", {"u": u}), "--tests", "cp,kpos=2",
             "--seed", "0"], "satisfied", 2)
        add(["map-analyze", "--map", adu_file("compose-t:adu:u", {"u": u}),
             "--tests", "cp,ccp", "--seed", "0"], "violated", 2)
    add(["map-analyze", "--map", put({"key": "transpose:3"}), "--tests", "ccp,kpos=2",
         "--seed", "0"], "violated", 2)

    face = put({"xi": vector_json([1, 0]), "eta": vector_json([1, 0])})
    for lam in (0.5, 0.25, 0.75):
        path = adu_file(f"mix:{lam!r}:adu:sx:compose-t:adu:sx", {"sx": SIGMA_X})
        add(["stormer-build", "--map", path, "--face", face], "satisfied", 2)
        add(["stormer-verify", "--map", path, "--face", face, "--samples", "100"],
            "satisfied", 2)
        add(["prop41", "--map", path, "--face", face],
            "satisfied" if lam == 0.5 else "violated", 2)

    order = rng.permutation(len(mix))
    return [mix[i] for i in order], list(cold.values())

