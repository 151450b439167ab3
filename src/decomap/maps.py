"""Linear maps between matrix algebras and the positivity test hierarchy.

A map phi: M_m -> M_n is stored through its Choi matrix with the fixed
convention C = sum_ij E_ij (x) phi(E_ij) (first factor the input algebra);
partial transposes for co-positivity always act on factor 2.  On top of
that representation sit the CP/co-CP tests, the Schmidt-rank-constrained
see-saw for k-positivity (all restarts as one batched pass, their starts
drawn restart-major from one generator per search, with no QR at k = 1), the
block-matrix sampler for the S_k condition (all trials as one stack, three
batched eigensolves a call), the Douglas–Rachford
decomposition split, detailed-balance adjoints, GNS transfer operators
and the cone criteria for (weak) k-decomposability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones, dykstra, linalg
from .errors import (
    BadChoi,
    DimensionMismatch,
    NoDetailedBalance,
    NonFinite,
    NotHermitian,
    ShapeMismatch,
    UnknownKind,
)
from .linalg import DEFAULT, TensorLayout
from .modular import ModularData, build_modular, tensor_modular


@dataclass(frozen=True)
class MapObject:
    """Linear map M_m -> M_n as a Choi matrix with dimension metadata.

    m and n must be positive integers and the Choi matrix (m n) x (m n),
    finite and Hermitian up to ``DEFAULT.herm_rel``, or ``BadChoi`` is
    raised; its Hermitian part is kept.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray
    label: str = ""

    def __post_init__(self):
        _check_dims(self.dim_in, self.dim_out)
        choi = np.asarray(self.choi, dtype=complex)
        side = self.dim_in * self.dim_out
        if choi.shape != (side, side):
            raise BadChoi(f"Choi matrix must be {side}x{side}, got {choi.shape}")
        try:
            object.__setattr__(self, "choi", linalg.require_hermitian(choi))
        except (NonFinite, NotHermitian) as exc:
            raise BadChoi(f"Choi matrix: {exc}") from None

    @property
    def layout(self) -> TensorLayout:
        return TensorLayout((self.dim_in, self.dim_out))


def _check_dims(dim_in, dim_out) -> None:
    """Reject map dimensions that are not positive integers (``BadChoi``)."""
    if not all(linalg._is_int(d) and d > 0 for d in (dim_in, dim_out)):
        raise BadChoi(f"dimensions must be positive integers (at least 1), got {dim_in!r} "
                      f"and {dim_out!r}")


def make_map(choi, dim_in: int, dim_out: int, label: str = "") -> MapObject:
    """Wrap an explicit Choi matrix; ``MapObject`` validates it."""
    return MapObject(dim_in, dim_out, choi, label=label)


def map_from_action(action, dim_in: int, dim_out: int, label: str = "") -> MapObject:
    """Build the Choi matrix of a callable a -> phi(a) on matrix units.

    The action is evaluated once on each unit E_ij, and block (i, j) of C
    is its image: the stack of images, read as the tensor [i, j, p, q], is
    C[(i, p), (j, q)] after one transpose.  Adding zero writes every zero
    as +0, as the Kronecker sum sum_ij E_ij (x) phi(E_ij) does, so C is
    that sum bit for bit.
    """
    _check_dims(dim_in, dim_out)
    units = np.eye(dim_in * dim_in, dtype=complex).reshape(-1, dim_in, dim_in)
    images = np.empty((len(units), dim_out, dim_out), dtype=complex)
    for image, e in zip(images, units):
        fe = np.asarray(action(e), dtype=complex)
        if fe.shape != image.shape:
            raise BadChoi(f"image of a matrix unit must be {dim_out}x{dim_out}, "
                          f"got {fe.shape}")
        image[...] = fe
    choi = np.empty((dim_in, dim_out, dim_in, dim_out), dtype=complex)
    np.add(images.reshape(dim_in, dim_in, dim_out, dim_out).transpose(0, 2, 1, 3), 0.0,
           out=choi)
    side = dim_in * dim_out
    return make_map(choi.reshape(side, side), dim_in, dim_out, label=label)


def identity_map(n: int) -> MapObject:
    return map_from_action(lambda a: a, n, n, label=f"identity:{n}")


def transposition_map(n: int) -> MapObject:
    return map_from_action(lambda a: a.T, n, n, label=f"transpose:{n}")


def adjoint_map(v: np.ndarray, label: str = "") -> MapObject:
    """Conjugation a -> v a v*; ShapeMismatch unless v is a matrix."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {v.shape}")
    vh = v.conj().T
    return map_from_action(lambda a: v @ a @ vh, v.shape[1], v.shape[0],
                           label=label or "adu")


def mix_maps(lam: float, phi: MapObject, psi: MapObject, label: str = "") -> MapObject:
    if (phi.dim_in, phi.dim_out) != (psi.dim_in, psi.dim_out):
        raise DimensionMismatch("mixed maps must share dimensions")
    with np.errstate(over="ignore", invalid="ignore"):      # MapObject rejects inf / nan
        choi = lam * phi.choi + (1.0 - lam) * psi.choi
    return MapObject(phi.dim_in, phi.dim_out, choi,
                     label=label or f"mix:{lam}:{phi.label}:{psi.label}")


def compose_transpose(phi: MapObject) -> MapObject:
    """phi o t, i.e. a -> phi(a^t); Choi picks up a factor-1 transpose."""
    pt1 = linalg.partial_transpose(phi.choi, phi.layout, 1)
    return MapObject(phi.dim_in, phi.dim_out, pt1, label=f"compose-t:{phi.label}")


def map_from_key(key: str, loader=None) -> MapObject:
    """Resolve a registry key like ``identity:2`` or ``mix:0.5:k1:k2``.

    The key's ``:``-separated tokens are read once, left to right; each form
    takes a fixed set of operands: ``identity:n``, ``transpose:n``,
    ``adu:<name>`` (one token), ``compose-t:<key>`` and
    ``mix:<λ>:<key>:<key>``.  The key must end where its map ends.  Labels
    are built from the operands, so a key's label is its text up to the
    spelling of integers.  ``loader`` maps the name in an ``adu`` key to a
    matrix.
    """
    tokens = iter(key.split(":"))

    def take() -> str:
        token = next(tokens, None)
        if token is None:
            raise UnknownKind(f"registry key {key!r} ends inside a map")
        return token

    def number(kind, text: str):
        try:
            return kind(text)
        except ValueError:
            raise UnknownKind(f"bad number {text!r} in registry key {key!r}") from None

    def parse() -> MapObject:
        form = take()
        if form == "identity":
            return identity_map(number(int, take()))
        if form == "transpose":
            return transposition_map(number(int, take()))
        if form == "adu":
            if loader is None:
                raise UnknownKind("adu keys need a matrix loader")
            name = take()
            return adjoint_map(np.asarray(loader(name), dtype=complex), label=f"adu:{name}")
        if form == "compose-t":
            return compose_transpose(parse())
        if form == "mix":
            text = take()
            lam = number(float, text)
            left = parse()
            right = parse()
            return mix_maps(lam, left, right, label=f"mix:{text}:{left.label}:{right.label}")
        raise UnknownKind(f"unknown registry key {key!r}")

    phi = parse()
    if next(tokens, None) is not None:
        raise UnknownKind(f"registry key {key!r} goes on after its map ends")
    return phi


def apply_map(phi: MapObject, a) -> np.ndarray:
    """Contract the Choi matrix against a: phi(a) = sum_ij a_ij phi(E_ij).

    ``a`` may be a stack (..., m, m); phi acts on each matrix.  It is the
    k = 1 case of :func:`amplify`.
    """
    return amplify(phi, 1, a)


def amplify(phi: MapObject, k: int, c) -> np.ndarray:
    """id_k (x) phi applied to a block matrix in M_k(M_m).

    ``c`` may be a stack (..., k m, k m); id_k (x) phi acts on each matrix.
    DimensionMismatch unless k ≥ 1 is an integer.
    """
    _check_level(k)
    c = np.asarray(c, dtype=complex)
    m, n = phi.dim_in, phi.dim_out
    if c.shape[-2:] != (k * m, k * m):
        raise ShapeMismatch(f"expected (..., {k * m}, {k * m}), got {c.shape}")
    c4 = c.reshape(c.shape[:-2] + (k, m, k, m))
    choi4 = phi.choi.reshape(m, n, m, n)
    out = np.einsum("...ipjq,prqs->...irjs", c4, choi4)
    return out.reshape(c.shape[:-2] + (k * n, k * n))


def superoperator(phi: MapObject) -> np.ndarray:
    """Matrix of phi on row-major vectorized inputs (n^2 x m^2)."""
    m, n = phi.dim_in, phi.dim_out
    return phi.choi.reshape(m, n, m, n).transpose(1, 3, 0, 2).reshape(n * n, m * m)


# -- positivity hierarchy ----------------------------------------------------

@dataclass
class GlobalPositivity:
    completely_positive: bool
    completely_copositive: bool
    min_eig_choi: float
    min_eig_choi_pt: float


def global_positivity_test(phi: MapObject, tol: float = DEFAULT.eig) -> GlobalPositivity:
    """CP iff the Choi matrix C is PSD; co-CP iff its factor-2 partial transpose
    is; each lowest eigenvalue is held against −tol·‖C‖, tol finite and
    positive."""
    linalg._check_tol(tol)
    floor = -tol * linalg.frobenius(phi.choi)
    w, w_pt = dykstra.PPTPair(phi.layout, 2).min_eigs(phi.choi)
    return GlobalPositivity(
        completely_positive=w >= floor,
        completely_copositive=w_pt >= floor,
        min_eig_choi=w,
        min_eig_choi_pt=w_pt,
    )


@dataclass
class KPositivityResult:
    """One-sided verdict: a violation certifies non-k-positivity exactly;
    its absence is heuristic evidence only.

    ``values`` and ``sweeps`` hold each restart's final value and the
    number of sweeps it ran, 2 to 60 (the sweep that stalled counts);
    ``value`` is the first minimum of ``values``.
    """

    k: int
    violation_found: bool
    value: float
    vector: np.ndarray | None
    restarts: int
    values: np.ndarray
    sweeps: np.ndarray


_SWEEPS = 60                # see-saw sweeps per restart, at most


def _seesaw(choi4: np.ndarray, k: int, y: np.ndarray, stall: float):
    """See-saw minimization of <v|C|v> over v = sum_r x_r (x) y_r, all restarts at once.

    ``y`` is the stack (R, n, k) of the restarts' starts, isometries when
    k > 1 (at k = 1 any nonzero vector will do).  Each sweep
    fixes y and takes the lowest eigenvector of the compressed Choi matrix
    for x (orthonormalized by QR when k > 1; at k = 1 it is a unit vector
    already), then fixes x and does the same for y.
    A restart whose sweep lowers its value by at most ``stall`` is frozen
    after that sweep; the others run on, up to ``_SWEEPS`` sweeps.  Returns
    the unit Schmidt vectors (R, m n), their values <v|C|v> and the sweep
    counts.
    """
    m, n = choi4.shape[:2]
    count = len(y)
    xs = np.empty((count, m, k), dtype=complex)
    yts = np.empty((count, k, n), dtype=complex)     # each restart's y, transposed
    values = np.full(count, np.inf)
    sweeps = np.zeros(count, dtype=int)
    live = np.arange(count)
    for _ in range(_SWEEPS):
        a = np.einsum("Rpr,ipjq,Rqs->Rrisj", y.conj(), choi4, y).reshape(-1, k * m, k * m)
        _, vecs = np.linalg.eigh(linalg.herm_part(a))
        x = vecs[..., 0].reshape(-1, k, m).mT
        if k > 1:
            x, _ = np.linalg.qr(x)
        b = np.einsum("Rir,ipjq,Rjs->Rrpsq", x.conj(), choi4, x).reshape(-1, k * n, k * n)
        w, vecs = np.linalg.eigh(linalg.herm_part(b))
        xs[live] = x
        yts[live] = vecs[..., 0].reshape(-1, k, n)
        sweeps[live] += 1
        stalled = values[live] - w[:, 0] <= stall
        values[live] = w[:, 0]
        live = live[~stalled]
        if not live.size:
            break
        y = yts[live].mT
    # norms and values as stacked (1 x mn) products, which round as the
    # products of a single vector do
    v = np.einsum("Rir,Rpr->Rip", xs, yts.mT).reshape(count, 1, m * n)
    v /= np.sqrt(v.real @ v.real.mT + v.imag @ v.imag.mT)
    values = (v.conj() @ choi4.reshape(m * n, m * n) @ v.mT)[:, 0, 0].real
    return v[:, 0], values, sweeps


def k_positivity_search(phi: MapObject, k: int, restarts: int = 32, seed: int = 0,
                        tol: float = DEFAULT.eig) -> KPositivityResult:
    """Multi-restart see-saw minimizing <v|C|v> over Schmidt rank <= k unit v.

    One generator, ``default_rng(seed)``, draws every restart's start,
    restart-major: ``standard_normal((restarts, 2, n, k))``, real and
    imaginary parts on axis 1, so restart r's start is a complex Ginibre
    n x k matrix set by (seed, r) alone, the same at any restart count
    above r.  It is orthonormalized by QR when k > 1; at k = 1 it is used
    as drawn, since the see-saw's first x, the lowest eigenvector of
    (y* (x) I) C (y (x) I), depends on neither y's norm nor its phase.
    All restarts run as one batched see-saw.  A value below −tol·‖C‖, C
    the Choi matrix, is verified by direct evaluation and certifies that
    phi is not k-positive; otherwise no violation was found.  k must be an
    integer in 1..min(m, n) (``DimensionMismatch``); restarts an integer
    of at least 1, seed one of at least 0 and tol finite and positive
    (``InvalidOption``).
    """
    m, n = phi.dim_in, phi.dim_out
    _check_level(k)
    if k > min(m, n):
        raise DimensionMismatch(f"k must be in 1..{min(m, n)}, got {k}")
    linalg._check_count("restarts", restarts)
    linalg._check_count("seed", seed, least=0)
    linalg._check_tol(tol)
    g = np.random.default_rng(seed).standard_normal((restarts, 2, n, k))
    y = g[:, 0] + 1j * g[:, 1]
    if k > 1:
        y, _ = np.linalg.qr(y)
    c_norm = linalg.frobenius(phi.choi)
    vecs, values, sweeps = _seesaw(phi.choi.reshape(m, n, m, n), k, y,
                                   DEFAULT.stall * c_norm)
    best = int(np.argmin(values))
    found = values[best] < -tol * c_norm
    return KPositivityResult(k=k, violation_found=bool(found), value=float(values[best]),
                             vector=vecs[best] if found else None, restarts=restarts,
                             values=values, sweeps=sweeps)


def _check_level(k) -> None:
    """Reject a level k that is not an integer of at least 1: the block
    matrices live in M_k(M_m)."""
    if not linalg._is_int(k) or k < 1:
        raise DimensionMismatch(f"k must be an integer of at least 1, got {k!r}")


@dataclass
class SkResult:
    """Outcome of the block-matrix sampler for the S_k condition."""

    k: int
    violation_found: bool
    witness: np.ndarray | None
    trials: int
    worst_output_eig: float


def sk_sampler(phi: MapObject, k: int, trials: int, seed: int = 0) -> SkResult:
    """Sample [a_ij] with [a_ij] and [a_ji] PSD; test λmin([phi(a_ij)]) against
    −DEFAULT.cone·‖[phi(a_ij)]‖, a scale-free floor.

    Trial t draws a Hermitian h of M_k(M_m) (``sample_hermitian`` at seed
    seed + t) and tests the point P + μI: P is h's PSD part and μ the least
    multiple of I that makes the block transpose PSD (``PPTPair.lift``); no
    iterative solve is made.  The trials run as one stack, so a call makes
    three batched eigensolves over them (the clip, the lift and the outputs'
    ``eigvalsh``); LAPACK solves each matrix of a stack on its own, so trial
    t's point and values are those it would get alone, set by seed + t.  The
    trials are then read in order.  A violation is reported only for a point
    of the set: λmin of [a_ij] and of [a_ji] at least −DEFAULT.cone·‖[a_ij]‖.
    The first one ends the read, ``trials`` counting the trials read;
    ``worst_output_eig`` is taken over the trials read that are not set
    aside (inf if every one is).  k must be an integer of at least 1
    (``DimensionMismatch``), and so must trials, and seed ≥ 0 (``InvalidOption``).
    """
    _check_level(k)
    linalg._check_count("trials", trials)
    linalg._check_count("seed", seed, least=0)
    m = phi.dim_in
    pair = dykstra.PPTPair(TensorLayout((k, m)), 1)    # block transpose [a_ji]
    draws = np.array([linalg.sample_hermitian(k * m, seed + t) for t in range(trials)])
    # the clip is Hermitian only up to rounding; the points are made exactly so
    points = pair.lift(linalg.herm_part(linalg._psd_clip(draws)))
    outs = amplify(phi, k, points)
    lows = linalg.min_eig(outs).tolist()
    worst = np.inf
    for t, (c, out, w) in enumerate(zip(points, outs, lows)):
        violated = w < -DEFAULT.cone * linalg.frobenius(out)
        if violated and min(pair.min_eigs(c)) < -DEFAULT.cone * linalg.frobenius(c):
            continue            # the point fell short: not a sample of the set
        worst = min(worst, w)
        if violated:
            return SkResult(k=k, violation_found=True, witness=c.copy(), trials=t + 1,
                            worst_output_eig=w)
    return SkResult(k=k, violation_found=False, witness=None, trials=trials,
                    worst_output_eig=worst)


@dataclass
class DecompositionResult:
    cp_part: MapObject
    ccp_part: MapObject
    residual: float
    iterations: int
    converged: bool
    stop_reason: str                    # "converged", "certified" or "capped"
    witness: np.ndarray | None = None   # unit decomposable witness when certified


def decompose(phi: MapObject, tol: float = DEFAULT.cone,
              max_iter: int = DEFAULT.max_iter) -> DecompositionResult:
    """Split the Choi matrix as C1 + C2 with C1 PSD and C2^{t2} PSD.

    ``converged``: decomposable up to the residual, at most tol·min(1, ‖C‖).
    ``certified``: not decomposable; W ⪰ 0, W^{t2} ⪰ 0 and Tr(W C) < 0.
    ``capped``: no verdict within ``max_iter`` iterations.
    """
    split = dykstra.split_sum(phi.choi, dykstra.PPTPair(phi.layout, 2), tol=tol,
                              max_iter=max_iter)
    mk = lambda c, tag: MapObject(phi.dim_in, phi.dim_out, c, label=f"{phi.label}{tag}")
    return DecompositionResult(
        cp_part=mk(split.part1, "#cp"),
        ccp_part=mk(split.part2, "#ccp"),
        residual=split.residual,
        iterations=split.iterations,
        converged=split.converged,
        stop_reason=split.stop_reason,
        witness=split.witness,
    )


# -- detailed balance and transfer operators ---------------------------------

@dataclass
class DetailedBalanceResult:
    """Adjoint with respect to the weighted pairing w(a* phi(b)) = w(phi_b(a*) b).

    ``adjoint`` is None when the positivity search found a violation, in
    which case the detailed-balance condition fails.
    """

    adjoint: MapObject | None
    unital: bool
    positive_evidence: bool
    unital_residual: float
    pairing_residual: float
    positivity_value: float

    @property
    def holds(self) -> bool:
        return self.unital and self.positive_evidence


def db_adjoint(phi: MapObject, md: ModularData, tol: float = DEFAULT.cone,
               seed: int = 0) -> DetailedBalanceResult:
    """Solve the nondegenerate pairing for phi^beta = rho^{-1} phi^*(rho .),
    phi^* the trace dual: Tr(x phi(b)) = Tr(phi^*(x) b)."""
    if phi.dim_in != phi.dim_out:
        raise DimensionMismatch("detailed balance needs m = n")
    n = phi.dim_in
    if md.dim != n:
        raise DimensionMismatch(f"state dimension {md.dim} does not match map {n}")
    rho = md.rho_power(1)
    # the Choi matrix of phi^beta, one contraction of phi's Choi tensor
    choi = np.einsum("ac,qi,bjcq->iajb", np.linalg.inv(rho), rho,
                     phi.choi.reshape(n, n, n, n)).reshape(n * n, n * n)
    # a non-Hermitian Choi matrix means the pairing solution does not
    # preserve Hermiticity, so it cannot be a positive map
    herm_dev, herm_bound = linalg.hermitian_deviation(choi, tol)
    beta = MapObject(n, n, linalg.herm_part(choi), label=f"db-adjoint({phi.label})")
    # residual of Tr(rho a* phi(b)) = Tr(rho beta(a*) b) over matrix units a, b
    units = np.eye(n * n).reshape(n * n, n, n)
    pair = lambda a, b: np.einsum("xy,syz,tzx->st", rho, a, b)
    pairing = np.max(np.abs(pair(units.mT, apply_map(phi, units))
                            - pair(apply_map(beta, units.mT), units)))
    unital_residual = float(np.linalg.norm(apply_map(beta, np.eye(n)) - np.eye(n)))
    search = k_positivity_search(beta, k=1, restarts=16, seed=seed, tol=tol)
    positive = herm_dev <= herm_bound and not search.violation_found
    unital = unital_residual <= tol
    return DetailedBalanceResult(
        adjoint=beta if positive else None, unital=unital, positive_evidence=positive,
        unital_residual=unital_residual, pairing_residual=float(pairing),
        positivity_value=search.value)


@dataclass
class TransferOperator:
    """Matrix of a Omega -> phi(a) Omega on vectorized GNS coordinates."""

    matrix: np.ndarray
    db: DetailedBalanceResult
    delta_commutation_residual: float


def transfer_operator(phi: MapObject, md: ModularData, tol: float = DEFAULT.cone,
                      seed: int = 0) -> TransferOperator:
    """Build T_phi with its Delta-commutation residual (zero under detailed
    balance) and its detailed-balance adjoint.  Cone preservation is level 1
    of the ``p`` criterion of :func:`cone_criterion_check`.  m = n and the
    state's dimension are checked by :func:`db_adjoint`, built first."""
    db = db_adjoint(phi, md, tol=tol, seed=seed)
    n = phi.dim_in
    t_mat = (np.kron(np.eye(n), md.rho_power(0.5).T) @ superoperator(phi)
             @ np.kron(np.eye(n), md.rho_power(-0.5).T))
    delta_q = np.kron(md.rho_power(0.25), md.rho_power(-0.25).T)
    delta_res = float(np.linalg.norm(t_mat @ delta_q - delta_q @ t_mat))
    return TransferOperator(matrix=t_mat, db=db, delta_commutation_residual=delta_res)


CRITERIA = ("p", "pt", "hull")      # images in P_n, in P_n^tau, in their hull
_CRITERION_SPECS = tuple(cones.ConeSpec(kind)   # in the order of CRITERIA
                         for kind in (cones.NATURAL_TENSOR, cones.TRANSPOSED_TENSOR, cones.HULL))


@dataclass
class CriterionFailure:
    """The first level where a cone criterion failed, and the witness and
    stop reason of its first image there that read outside.  For the hull
    the stop reason is the split's, ``certified`` (with a witness) or
    ``capped`` (without one, so not refuted); it is None for ``p`` / ``pt``."""

    level: int
    witness: np.ndarray | None
    stop_reason: str | None


@dataclass
class CriterionReport:
    """Worst residuals of the three cone criteria per tensor level n; a
    criterion holds when all its membership tests read inside."""

    levels: dict[int, dict[str, float]]
    failures: dict[str, CriterionFailure]
    transfer: TransferOperator

    def holds(self, criterion: str) -> bool:
        return criterion not in self.failures


def cone_criterion_check(phi: MapObject, md_m: ModularData, k: int, trials: int,
                         seed: int = 0, tol: float = DEFAULT.cone) -> CriterionReport:
    """Test (T_phi (x) I)* images of P_n against P_n, P_n^tau and their hull.

    At n >= m every vector of C^m (x) C^n is (I (x) X) Omega, Omega =
    sum_{i<m} e_i (x) e_i, and the cones and T* (x) id commute with congruence
    by I (x) X: the image of the extreme ray rho^{1/4} Omega Omega* rho^{1/4}
    decides level n; it lies in C^m (x) C^m, so levels above m repeat level
    m (Omega = vec(I_m)) without a solve.  Below m, ``trials`` members from
    seeds seed + 4099 n + t are tested.  Requires a positive unital
    detailed-balance adjoint; the M_n factor carries the tracial state.
    """
    _check_level(k)
    linalg._check_count("trials", trials)
    m = phi.dim_in
    transfer = transfer_operator(phi, md_m, tol=tol, seed=seed)
    if not transfer.db.holds:
        raise NoDetailedBalance(
            f"map {phi.label!r} has no positive unital detailed-balance adjoint "
            f"(unital residual {transfer.db.unital_residual:.2e}, "
            f"positivity value {transfer.db.positivity_value:.2e})"
        )
    td4 = transfer.matrix.conj().T.reshape(m, m, m, m)
    levels: dict[int, dict[str, float]] = {}
    failures: dict[str, CriterionFailure] = {}
    for level in range(1, min(k, m) + 1):
        mdt = tensor_modular(md_m, build_modular(np.eye(level) / level))
        if level == m:
            omega = np.eye(m).reshape(-1, 1)
            quarter = mdt.rho_power(0.25)
            probes = [quarter @ (omega @ omega.T) @ quarter]
        else:
            probes = [cones.sample_cone(mdt, _CRITERION_SPECS[0], seed + 4099 * level + t)
                      for t in range(trials)]
        worst = dict.fromkeys(CRITERIA, 0.0)
        for xi in probes:
            xi4 = xi.reshape(m, level, m, level)
            image = np.einsum("abcd,cpdq->apbq", td4, xi4).reshape(m * level, m * level)
            for name, spec in zip(CRITERIA, _CRITERION_SPECS):
                res = cones.cone_membership(mdt, spec, image, tol)
                worst[name] = max(worst[name], res.residual)
                if not res.inside:
                    failures.setdefault(
                        name, CriterionFailure(level, res.witness, res.stop_reason))
        levels[level] = worst
    levels.update({level: dict(levels[m]) for level in range(m + 1, k + 1)})
    return CriterionReport(levels=levels, failures=failures, transfer=transfer)
