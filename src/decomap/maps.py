"""Linear maps between matrix algebras and the positivity test hierarchy.

A map phi: M_m -> M_n is stored through its Choi matrix with the fixed
convention C = sum_ij E_ij (x) phi(E_ij) (first factor the input algebra);
partial transposes for co-positivity always act on factor 2.  On top of
that representation sit the CP/co-CP tests, the Schmidt-rank-constrained
see-saw for k-positivity, the block-matrix sampler for the S_k
condition, the Dykstra decomposition solver, detailed-balance adjoints,
GNS transfer operators and the cone criteria for (weak) k-decomposability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones, dykstra, linalg
from .errors import (
    BadChoi,
    DimensionMismatch,
    InvalidOption,
    NoDetailedBalance,
    ShapeMismatch,
    UnknownKind,
)
from .linalg import DEFAULT, TensorLayout, _unit
from .modular import ModularData, build_modular, tensor_modular


@dataclass(frozen=True)
class MapObject:
    """Linear map M_m -> M_n as a Choi matrix with dimension metadata."""

    dim_in: int
    dim_out: int
    choi: np.ndarray
    label: str = ""

    @property
    def layout(self) -> TensorLayout:
        return TensorLayout((self.dim_in, self.dim_out))


def make_map(choi, dim_in: int, dim_out: int, label: str = "") -> MapObject:
    """Wrap an explicit Choi matrix after validating shape and Hermiticity."""
    choi = np.asarray(choi, dtype=complex)
    side = dim_in * dim_out
    if choi.shape != (side, side):
        raise BadChoi(f"Choi matrix must be {side}x{side}, got {choi.shape}")
    if not np.all(np.isfinite(choi)):
        raise BadChoi("Choi matrix contains NaN or Inf entries")
    dev = float(np.linalg.norm(choi - choi.conj().T))
    if dev > DEFAULT.herm_rel * max(1.0, linalg.frobenius(choi)):
        raise BadChoi(f"Choi matrix Hermitian deviation {dev:.3e} too large")
    return MapObject(dim_in=dim_in, dim_out=dim_out, choi=linalg.herm_part(choi),
                     label=label)


def map_from_action(action, dim_in: int, dim_out: int, label: str = "") -> MapObject:
    """Build the Choi matrix of a callable a -> phi(a) on matrix units."""
    side = dim_in * dim_out
    choi = np.zeros((side, side), dtype=complex)
    for i in range(dim_in):
        for j in range(dim_in):
            block = np.asarray(action(_unit(dim_in, i, j)), dtype=complex)
            choi += np.kron(_unit(dim_in, i, j), block)
    return make_map(choi, dim_in, dim_out, label=label)


def identity_map(n: int) -> MapObject:
    return map_from_action(lambda a: a, n, n, label=f"identity:{n}")


def transposition_map(n: int) -> MapObject:
    return map_from_action(lambda a: a.T, n, n, label=f"transpose:{n}")


def adjoint_map(v: np.ndarray, label: str = "") -> MapObject:
    """Conjugation a -> v a v*."""
    v = np.asarray(v, dtype=complex)
    n = v.shape[1]
    return map_from_action(lambda a: v @ a @ v.conj().T, n, v.shape[0],
                           label=label or "adu")


def mix_maps(lam: float, phi: MapObject, psi: MapObject, label: str = "") -> MapObject:
    if (phi.dim_in, phi.dim_out) != (psi.dim_in, psi.dim_out):
        raise DimensionMismatch("mixed maps must share dimensions")
    return MapObject(phi.dim_in, phi.dim_out,
                     lam * phi.choi + (1.0 - lam) * psi.choi,
                     label=label or f"mix:{lam}:{phi.label}:{psi.label}")


def compose_transpose(phi: MapObject, label: str = "") -> MapObject:
    """phi o t, i.e. a -> phi(a^t); Choi picks up a factor-1 transpose."""
    pt1 = linalg.partial_transpose(phi.choi, phi.layout, 1)
    return MapObject(phi.dim_in, phi.dim_out, pt1,
                     label=label or f"compose-t:{phi.label}")


def map_from_key(key: str, loader=None) -> MapObject:
    """Resolve a registry key like ``identity:2`` or ``mix:0.5:k1:k2``.

    ``loader`` maps the name in an ``adu:<name>`` key to a matrix.
    """
    def number(kind, text: str, s: str):
        try:
            return kind(text)
        except ValueError:
            raise UnknownKind(f"bad number {text!r} in registry key {s!r}") from None

    def parse(s: str) -> MapObject:
        if s.startswith("identity:"):
            return identity_map(number(int, s.split(":", 1)[1], s))
        if s.startswith("transpose:"):
            return transposition_map(number(int, s.split(":", 1)[1], s))
        if s.startswith("adu:"):
            name = s.split(":", 1)[1]
            if loader is None:
                raise UnknownKind("adu keys need a matrix loader")
            return adjoint_map(np.asarray(loader(name), dtype=complex), label=s)
        if s.startswith("compose-t:"):
            return compose_transpose(parse(s.split(":", 1)[1]), label=s)
        if s.startswith("mix:"):
            lam_str, _, rest = s.split(":", 1)[1].partition(":")
            lam = number(float, lam_str, s)
            # try every split of the remainder into two parseable keys
            idx = rest.find(":")
            while idx != -1:
                try:
                    left = parse(rest[:idx])
                    right = parse(rest[idx + 1:])
                    return mix_maps(lam, left, right, label=s)
                except (UnknownKind, DimensionMismatch):
                    idx = rest.find(":", idx + 1)
            raise UnknownKind(f"cannot split mix key {s!r}")
        raise UnknownKind(f"unknown registry key {s!r}")

    return parse(key)


def apply_map(phi: MapObject, a) -> np.ndarray:
    """Contract the Choi matrix against a: phi(a) = sum_ij a_ij phi(E_ij)."""
    a = np.asarray(a, dtype=complex)
    m, n = phi.dim_in, phi.dim_out
    if a.shape != (m, m):
        raise ShapeMismatch(f"expected {m}x{m}, got {a.shape}")
    c4 = phi.choi.reshape(m, n, m, n)
    return np.einsum("ij,ipjq->pq", a, c4)


def amplify(phi: MapObject, k: int, c) -> np.ndarray:
    """id_k (x) phi applied to a block matrix in M_k(M_m)."""
    c = np.asarray(c, dtype=complex)
    m, n = phi.dim_in, phi.dim_out
    if c.shape != (k * m, k * m):
        raise ShapeMismatch(f"expected {k * m}x{k * m}, got {c.shape}")
    c4 = c.reshape(k, m, k, m)
    choi4 = phi.choi.reshape(m, n, m, n)
    return np.einsum("ipjq,prqs->irjs", c4, choi4).reshape(k * n, k * n)


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


def global_positivity_test(phi: MapObject, tol: float = 1e-9) -> GlobalPositivity:
    """CP iff the Choi matrix is PSD; co-CP iff its factor-2 partial transpose is."""
    choi = linalg.require_hermitian(phi.choi)
    w = linalg.min_eig(choi)
    w_pt = linalg.min_eig(linalg.partial_transpose(choi, phi.layout, 2))
    return GlobalPositivity(
        completely_positive=w >= -tol,
        completely_copositive=w_pt >= -tol,
        min_eig_choi=w,
        min_eig_choi_pt=w_pt,
    )


@dataclass
class KPositivityResult:
    """One-sided verdict: a violation certifies non-k-positivity exactly;
    its absence is heuristic evidence only."""

    k: int
    violation_found: bool
    value: float
    vector: np.ndarray | None
    restarts: int


def _schmidt_vector(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """v = sum_r x[:, r] (x) y[:, r], row-major factor order (input, output)."""
    return np.einsum("ir,pr->ip", x, y).reshape(-1)


def _seesaw_once(choi4, m, n, k, rng):
    y, _ = np.linalg.qr(linalg.sample_ginibre(n, k, rng.integers(2**63)))
    value = np.inf
    x = None
    for _ in range(60):                 # at most 60 see-saw sweeps
        a = np.einsum("pr,ipjq,qs->risj", y.conj(), choi4, y).reshape(k * m, k * m)
        w, vecs = np.linalg.eigh((a + a.conj().T) / 2)
        x = vecs[:, 0].reshape(k, m).T
        q, r = np.linalg.qr(x)
        y_eff = y @ r.T
        b = np.einsum("ir,ipjq,js->rpsq", q.conj(), choi4, q).reshape(k * n, k * n)
        w2, vecs2 = np.linalg.eigh((b + b.conj().T) / 2)
        y = vecs2[:, 0].reshape(k, n).T
        x = q
        new_value = float(w2[0])
        if value - new_value < 1e-12:
            value = new_value
            break
        value = new_value
    v = _schmidt_vector(x, y)
    v /= np.linalg.norm(v)
    return float(np.real(v.conj() @ choi4.reshape(m * n, m * n) @ v)), v


def k_positivity_search(phi: MapObject, k: int, restarts: int = 32, seed: int = 0,
                        tol: float = 1e-9) -> KPositivityResult:
    """Multi-restart see-saw minimizing <v|C|v> over Schmidt rank <= k unit v.

    A value below -tol is verified by direct evaluation and certifies that
    phi is not k-positive; otherwise no violation was found.
    """
    m, n = phi.dim_in, phi.dim_out
    if not 1 <= k <= min(m, n):
        raise DimensionMismatch(f"k must be in 1..{min(m, n)}, got {k}")
    if restarts < 1:
        raise InvalidOption(f"restarts must be at least 1, got {restarts}")
    choi4 = phi.choi.reshape(m, n, m, n)
    best_value, best_vec = np.inf, None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        value, v = _seesaw_once(choi4, m, n, k, rng)
        if value < best_value:
            best_value, best_vec = value, v
    found = best_value < -tol
    return KPositivityResult(k=k, violation_found=found, value=best_value,
                             vector=best_vec if found else None, restarts=restarts)


@dataclass
class SkResult:
    """Outcome of the block-matrix sampler for the S_k condition."""

    k: int
    violation_found: bool
    witness: np.ndarray | None
    trials: int
    worst_output_eig: float


def _in_sk_set(c: np.ndarray, pair: dykstra.PPTPair) -> bool:
    """[a_ij] and [a_ji] PSD, up to DEFAULT.cone relative to the norm of c."""
    floor = -DEFAULT.cone * linalg.frobenius(c)
    return linalg.min_eig(c) >= floor and linalg.min_eig(pair.pt(c)) >= floor


def sk_sampler(phi: MapObject, k: int, trials: int, seed: int = 0) -> SkResult:
    """Sample [a_ij] with [a_ij] and [a_ji] PSD; test [phi(a_ij)] >= 0.

    A violation is reported only for a point that passes :func:`_in_sk_set`;
    ``worst_output_eig`` is taken over the trials that are not set aside
    (inf if every trial is).
    """
    linalg.require_hermitian(phi.choi)
    if trials < 1:
        raise InvalidOption(f"trials must be at least 1, got {trials}")
    m = phi.dim_in
    pair = dykstra.PPTPair(TensorLayout((k, m)), 1)    # block transpose [a_ji]
    worst = np.inf
    for t in range(trials):
        h = linalg.sample_hermitian(k * m, seed + t)
        res = dykstra.project_intersection(h, pair, tol=1e-11, max_iter=DEFAULT.max_iter)
        c = linalg.herm_part(res.point)
        w = linalg.min_eig(amplify(phi, k, c))
        if w < -DEFAULT.cone and not _in_sk_set(c, pair):
            continue            # the projection fell short: not a sample of the set
        worst = min(worst, w)
        if w < -DEFAULT.cone:
            return SkResult(k=k, violation_found=True, witness=c, trials=t + 1,
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


def decompose(phi: MapObject, tol: float = 1e-8,
              max_iter: int = DEFAULT.max_iter) -> DecompositionResult:
    """Split the Choi matrix as C1 + C2 with C1 PSD and C2^{t2} PSD.

    ``converged``: decomposable up to the residual, at most tol·min(1, ‖C‖).
    ``certified``: not decomposable; W ⪰ 0, W^{t2} ⪰ 0 and Tr(W C) < 0.
    ``capped``: no verdict within ``max_iter`` iterations.
    """
    choi = linalg.require_hermitian(phi.choi)
    split = dykstra.split_sum(choi, dykstra.PPTPair(phi.layout, 2), tol=tol,
                              max_iter=max_iter)
    mk = lambda c, tag: MapObject(phi.dim_in, phi.dim_out, linalg.herm_part(c),
                                  label=f"{phi.label}{tag}")
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


def db_adjoint(phi: MapObject, md: ModularData, tol: float = 1e-8,
               seed: int = 0) -> DetailedBalanceResult:
    """Solve the nondegenerate pairing for phi^beta = rho^{-1} phi^*(rho .)."""
    if phi.dim_in != phi.dim_out:
        raise DimensionMismatch("detailed balance needs m = n")
    n = phi.dim_in
    rho = md.rho
    if rho.shape != (n, n):
        raise DimensionMismatch(f"state dimension {rho.shape} does not match map {n}")
    rho_inv = np.linalg.inv(rho)
    s_dag = superoperator(phi).conj().T

    def trace_dual(x):
        # phi^*(x) with Tr(x phi(b)) = Tr(phi^*(x) b)
        y = (s_dag @ x.conj().T.reshape(-1)).reshape(n, n)
        return y.conj().T

    choi = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            choi += np.kron(_unit(n, i, j), rho_inv @ trace_dual(rho @ _unit(n, i, j)))
    # a non-Hermitian Choi matrix means the pairing solution does not
    # preserve Hermiticity, so it cannot be a positive map
    herm_dev = float(np.linalg.norm(choi - choi.conj().T))
    beta = MapObject(n, n, linalg.herm_part(choi), label=f"db-adjoint({phi.label})")
    # residual of the defining identity on matrix-unit pairs
    pairing = 0.0
    for i in range(n):
        for j in range(n):
            a = _unit(n, i, j)
            for p in range(n):
                for q in range(n):
                    b = _unit(n, p, q)
                    lhs = np.trace(rho @ a.conj().T @ apply_map(phi, b))
                    rhs = np.trace(rho @ apply_map(beta, a.conj().T) @ b)
                    pairing = max(pairing, abs(lhs - rhs))
    unital_residual = float(np.linalg.norm(apply_map(beta, np.eye(n)) - np.eye(n)))
    search = k_positivity_search(beta, k=1, restarts=16, seed=seed, tol=tol)
    positive = herm_dev <= tol * max(1.0, linalg.frobenius(choi)) \
        and not search.violation_found
    unital = unital_residual <= tol
    return DetailedBalanceResult(
        adjoint=beta if positive else None,
        unital=unital,
        positive_evidence=positive,
        unital_residual=unital_residual,
        pairing_residual=float(pairing),
        positivity_value=search.value,
    )


@dataclass
class TransferOperator:
    """Matrix of a Omega -> phi(a) Omega on vectorized GNS coordinates."""

    matrix: np.ndarray
    db: DetailedBalanceResult
    delta_commutation_residual: float
    cone_preservation_residual: float


def transfer_operator(phi: MapObject, md: ModularData, tol: float = 1e-8,
                      samples: int = 100, seed: int = 0) -> TransferOperator:
    """Build T_phi and record its modular compatibility diagnostics.

    Delta-commutation and cone preservation are guaranteed only under
    detailed balance; the residuals are reported either way.
    """
    if phi.dim_in != phi.dim_out:
        raise DimensionMismatch("transfer operators need m = n")
    n = phi.dim_in
    if md.dim != n:
        raise DimensionMismatch(f"modular data dimension {md.dim} != map {n}")
    s = superoperator(phi)
    right_half = np.kron(np.eye(n), md.rho_half.T)
    right_inv_half = np.kron(np.eye(n), md.rho_inv_half.T)
    t_mat = right_half @ s @ right_inv_half
    delta_q = np.kron(md.rho_quarter, md.rho_inv_quarter.T)
    delta_res = float(np.linalg.norm(t_mat @ delta_q - delta_q @ t_mat))
    spec = cones.ConeSpec(cones.NATURAL)
    worst = 0.0
    t_dag = t_mat.conj().T
    for i in range(samples):
        xi = cones.sample_cone(md, spec, seed + i)
        image = (t_dag @ xi.reshape(-1)).reshape(n, n)
        worst = max(worst, cones.cone_membership(md, spec, image, tol).residual)
    db = db_adjoint(phi, md, tol=tol, seed=seed)
    return TransferOperator(matrix=t_mat, db=db,
                            delta_commutation_residual=delta_res,
                            cone_preservation_residual=worst)


@dataclass
class CriterionReport:
    """Worst residuals of the three cone criteria per tensor level n."""

    levels: dict[int, dict[str, float]]
    trials: int
    transfer: TransferOperator      # built without cone-preservation samples

    def worst(self, criterion: str) -> float:
        return max(level[criterion] for level in self.levels.values())


def cone_criterion_check(phi: MapObject, md_m: ModularData, k: int, trials: int,
                         seed: int = 0, tol: float = DEFAULT.cone) -> CriterionReport:
    """Test (T_phi (x) I)* images of P_n against P_n, P_n^tau and their hull.

    Requires the detailed-balance adjoint to exist as a positive unital
    map.  The auxiliary state on the M_n tensor factor is the tracial
    state.
    """
    if k < 1:
        raise DimensionMismatch(f"k must be at least 1, got {k}")
    if trials < 1:
        raise InvalidOption(f"trials must be at least 1, got {trials}")
    m = phi.dim_in
    transfer = transfer_operator(phi, md_m, tol=tol, samples=0, seed=seed)
    if not transfer.db.holds:
        raise NoDetailedBalance(
            f"map {phi.label!r} has no positive unital detailed-balance adjoint "
            f"(unital residual {transfer.db.unital_residual:.2e}, "
            f"positivity value {transfer.db.positivity_value:.2e})"
        )
    td4 = transfer.matrix.conj().T.reshape(m, m, m, m)
    levels: dict[int, dict[str, float]] = {}
    for level in range(1, k + 1):
        mdt = tensor_modular(md_m, build_modular(np.eye(level) / level))
        layout = TensorLayout((m, level))
        spec_p = cones.ConeSpec(cones.NATURAL_TENSOR, layout=layout)
        spec_pt = cones.ConeSpec(cones.TRANSPOSED_TENSOR, layout=layout)
        worst = {"p": 0.0, "pt": 0.0, "hull": 0.0}
        for t in range(trials):
            xi = cones.sample_cone(mdt, spec_p, seed + 4099 * level + t)
            xi4 = xi.reshape(m, level, m, level)
            image = np.einsum("abcd,cpdq->apbq", td4, xi4).reshape(m * level, m * level)
            worst["p"] = max(worst["p"], cones.cone_membership(mdt, spec_p, image, tol).residual)
            worst["pt"] = max(worst["pt"], cones.cone_membership(mdt, spec_pt, image, tol).residual)
            worst["hull"] = max(worst["hull"], cones.hull_membership(
                mdt, image, layout, tol).residual)
        levels[level] = worst
    return CriterionReport(levels=levels, trials=trials, transfer=transfer)
