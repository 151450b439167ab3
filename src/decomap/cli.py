"""Command-line surface: JSON in, JSON report out, verdict as exit code.

Matrix files are ``{"rows": r, "cols": c, "entries": [[re, im], ...]}``
row-major; vectors are the one-column special case (or a bare list of
[re, im] pairs).  Map files either name a registry key
(``identity:n``, ``transpose:n``, ``adu:<matrix>``, ``mix:l:<k1>:<k2>``,
``compose-t:<key>``) or carry an explicit Choi matrix.  Every report
echoes the request, the library version and the seed, so identical
requests reproduce identical reports byte for byte (excluding the
wall-time field).

Exit codes: 0 criterion satisfied / inside / conditions hold,
1 violated / outside / conditions fail, 2 error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, cones, maps, modular, stormer
from .errors import DecomapError, ParseError
from .linalg import TensorLayout


# -- JSON (de)serialization ---------------------------------------------------

def _entry_pairs(raw, count: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != count:
        raise ParseError(f"expected {count} entries, got "
                         f"{len(raw) if isinstance(raw, list) else type(raw).__name__}")
    flat = np.empty(count, dtype=complex)
    for idx, pair in enumerate(raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, (int, float)) for x in pair)):
            raise ParseError(f"entry {idx} is not a [re, im] pair: {pair!r}")
        if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
            raise ParseError(f"entry {idx} is not finite: {pair!r}")
        flat[idx] = complex(pair[0], pair[1])
    return flat


def parse_matrix(obj) -> np.ndarray:
    """Matrix from the row-major {rows, cols, entries} schema."""
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise ParseError("matrix JSON needs 'rows', 'cols' and 'entries'")
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise ParseError(f"bad dimensions rows={rows!r} cols={cols!r}")
    return _entry_pairs(obj["entries"], rows * cols).reshape(rows, cols)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def parse_matrix_file(path: str) -> np.ndarray:
    return parse_matrix(_load_json(path))


def _vector_from_obj(obj, where: str) -> np.ndarray:
    if isinstance(obj, list):
        return _entry_pairs(obj, len(obj))
    m = parse_matrix(obj)
    if 1 not in m.shape:
        raise ParseError(f"{where}: expected a vector, got shape {m.shape}")
    return m.reshape(-1)


def parse_map_file(path: str) -> maps.MapObject:
    """Map from a registry-key or explicit-Choi JSON file."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: map JSON must be an object")
    if "key" in obj:
        embedded = obj.get("matrices", {})

        def loader(name):
            if name in embedded:
                return parse_matrix(embedded[name])
            return parse_matrix_file(name)

        return maps.map_from_key(obj["key"], loader=loader)
    if {"dim_in", "dim_out", "choi"} <= set(obj):
        try:
            dim_in, dim_out = int(obj["dim_in"]), int(obj["dim_out"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: dim_in and dim_out must be integers") from exc
        return maps.make_map(parse_matrix(obj["choi"]), dim_in, dim_out,
                             label=obj.get("label", ""))
    raise ParseError(f"{path}: map JSON needs 'key' or dim_in/dim_out/choi")


def parse_face_file(path: str) -> stormer.FaceSpec:
    obj = _load_json(path)
    if not isinstance(obj, dict) or not {"xi", "eta"} <= set(obj):
        raise ParseError(f"{path}: face JSON needs 'xi' and 'eta'")
    return stormer.FaceSpec(xi=_vector_from_obj(obj["xi"], path),
                            eta=_vector_from_obj(obj["eta"], path))


def parse_cone_spec(text: str) -> cones.ConeSpec:
    """Cone mini-language: {"kind": ..., "beta": ..., "dims": [m, n]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed cone JSON: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("cone JSON needs a 'kind' field")
    kind = obj["kind"]
    dims = obj.get("dims")
    layout = None
    if dims is not None:
        if (not isinstance(dims, list) or len(dims) != 2
                or not all(isinstance(d, int) and d > 0 for d in dims)):
            raise ParseError(f"bad cone dims {dims!r}")
        layout = TensorLayout(tuple(dims))
    return cones.ConeSpec(kind=kind, beta=obj.get("beta"), layout=layout)


# -- report plumbing ----------------------------------------------------------

def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.complexfloating, complex)):
        return [float(value.real), float(value.imag)]
    return value


def render_report(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2)


def _modular_data(rho_path: str, rho_b_path: str | None,
                  layout: TensorLayout | None) -> modular.ModularData:
    """Plain state, or product state for a two-factor layout.

    For two-factor cones the --rho file is the first-factor density; the
    second factor defaults to the tracial state of the layout dimension
    and can be overridden with --rho-b.
    """
    rho = parse_matrix_file(rho_path)
    if layout is None:
        return modular.build_modular(rho)
    m, n = layout.dims
    if rho.shape != (m, m):
        raise ParseError(f"--rho must be {m}x{m} for dims {layout.dims}")
    rho_b = parse_matrix_file(rho_b_path) if rho_b_path else np.eye(n) / n
    return modular.tensor_modular(modular.build_modular(rho),
                                  modular.build_modular(rho_b))


# -- command handlers: each returns (payload, verdict) ------------------------

def _cmd_modular_check(args):
    md = modular.build_modular(parse_matrix_file(args.rho))
    res = modular.check_identities(md, args.samples, args.seed)
    worst = max(res.values())
    return {"residuals": res, "max_residual": worst}, worst <= args.tol


def _cmd_cone_member(args):
    spec = parse_cone_spec(args.cone)
    md = _modular_data(args.rho, args.rho_b, spec.layout)
    xi = parse_matrix_file(args.xi)
    res = cones.cone_membership(md, spec, xi, tol=args.tol)
    payload = {"inside": res.inside, "residual": res.residual}
    if res.witness is not None:
        payload["witness"] = res.witness
    return payload, res.inside


def _cmd_hull_member(args):
    m, n = _parse_dims(args.dims)
    layout = TensorLayout((m, n))
    md = _modular_data(args.rho, args.rho_b, layout)
    xi = parse_matrix_file(args.xi)
    res = cones.hull_membership(md, xi, layout, tol=args.tol, max_iter=args.max_iter)
    payload = {"inside": res.inside, "residual": res.residual}
    if res.witness is not None:
        payload["witness"] = res.witness
    return payload, res.inside


def _cmd_probe(args):
    m, n = _parse_dims(args.dims)
    rep = cones.probe_finite_dim_equality(m, n, args.seed, args.trials, tol=args.tol)
    ok = rep.max_residual <= args.tol
    return {"dims": list(rep.dims), "trials": rep.trials,
            "max_residual": rep.max_residual, "note": rep.note}, ok


def _cmd_map_analyze(args):
    phi = parse_map_file(args.map)
    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    payload: dict = {"label": phi.label}
    verdict = True
    gp = None
    for test in tests:
        if test in ("cp", "ccp"):
            if gp is None:
                gp = maps.global_positivity_test(phi, tol=args.tol)
                payload["min_eig_choi"] = gp.min_eig_choi
                payload["min_eig_choi_pt"] = gp.min_eig_choi_pt
            ok = gp.completely_positive if test == "cp" else gp.completely_copositive
            payload[test] = ok
        elif test.startswith("kpos="):
            try:
                k = int(test.split("=", 1)[1])
            except ValueError as exc:
                raise ParseError(f"bad test {test!r}; kpos needs an integer K") from exc
            res = maps.k_positivity_search(phi, k, restarts=args.restarts,
                                           seed=args.seed, tol=args.tol)
            ok = not res.violation_found
            payload[f"kpos_{k}"] = {"violation_found": res.violation_found,
                                    "value": res.value, "restarts": res.restarts}
        else:
            raise ParseError(f"unknown test {test!r}; use cp, ccp or kpos=K")
        verdict = verdict and ok
    return payload, verdict


def _cmd_decompose(args):
    phi = parse_map_file(args.map)
    res = maps.decompose(phi, tol=args.tol, max_iter=args.max_iter)
    return {
        "label": phi.label,
        "converged": res.converged,
        "residual": res.residual,
        "iterations": res.iterations,
        "cp_part": res.cp_part.choi,
        "ccp_part": res.ccp_part.choi,
    }, res.converged


def _cmd_transfer_check(args):
    phi = parse_map_file(args.map)
    md = modular.build_modular(parse_matrix_file(args.rho))
    report = maps.cone_criterion_check(phi, md, args.k, args.trials,
                                       seed=args.seed, tol=args.tol)
    transfer = report.transfer
    criteria = {name: report.worst(name) <= args.tol for name in ("p", "pt", "hull")}
    # the hull criterion is the (weak) decomposability verdict; the p / pt
    # criteria are stricter sub-verdicts and legitimately fail for maps
    # that are only decomposable
    verdict = criteria["hull"]
    return {
        "label": phi.label,
        "delta_commutation_residual": transfer.delta_commutation_residual,
        "db_unital_residual": transfer.db.unital_residual,
        "db_pairing_residual": transfer.db.pairing_residual,
        "levels": {str(k): v for k, v in report.levels.items()},
        "criteria": criteria,
    }, verdict


def _stormer_inputs(args):
    phi = parse_map_file(args.map)
    face = parse_face_file(args.face) if args.face else None
    if args.eta:
        eta = _vector_from_obj(_load_json(args.eta), args.eta)
    elif face is not None:
        eta = face.eta
    else:
        raise ParseError("need --eta or --face to fix the vector")
    return phi, face, eta


def _cmd_stormer_build(args):
    phi, face, eta = _stormer_inputs(args)
    data = stormer.build_local_decomposition(phi, eta, face=face, seed=args.seed,
                                             tol=args.tol)
    payload = {
        "label": phi.label,
        "k_dim": data.k_dim,
        "face_case": data.face_case,
        "v_norm": data.v_norm,
        "v_eta": data.v_eta,
        "basis_orthonormality_residual": data.basis_orthonormality_residual,
        "v_lsq_residual": data.v_lsq_residual,
        "left_ideal_dim": len(data.left_ideal_basis),
        "right_ideal_dim": len(data.right_ideal_basis),
    }
    if data.face_case:
        payload["alpha"] = data.alpha
        payload["beta"] = data.beta
    return payload, True


def _cmd_stormer_verify(args):
    phi, face, eta = _stormer_inputs(args)
    data = stormer.build_local_decomposition(phi, eta, face=face, seed=args.seed,
                                             tol=max(args.tol, 1e-8))
    rep = stormer.verify_locdec(phi, eta, args.samples, seed=args.seed, data=data)
    ok = rep.max_residual <= args.tol
    return {"label": phi.label, "samples": rep.samples,
            "max_residual": rep.max_residual, "v_norm": rep.v_norm,
            "k_dim": rep.k_dim, "face_case": rep.face_case}, ok


def _cmd_prop41(args):
    phi = parse_map_file(args.map)
    face = parse_face_file(args.face)
    rep = stormer.check_prop41(phi, face, tol=args.tol)
    verdict = rep.conditions_hold and rep.equality_holds
    return {
        "label": phi.label,
        "tr_residuals": rep.tr_residuals,
        "alfabeta_residual": rep.alfabeta_residual,
        "global_residual": rep.global_residual,
        "eta2_residuals": rep.eta2_residuals,
        "conditions_hold": rep.conditions_hold,
        "equality_holds": rep.equality_holds,
        "inconsistent": rep.inconsistent,
        "alpha": rep.alpha,
        "beta": rep.beta,
    }, verdict


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        m, n = (int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad dims {text!r}, expected 'm,n'") from exc
    if m <= 0 or n <= 0:
        raise ParseError(f"dims must be positive, got {text!r}")
    return m, n


_HANDLERS = {
    "modular-check": _cmd_modular_check,
    "cone-member": _cmd_cone_member,
    "hull-member": _cmd_hull_member,
    "probe": _cmd_probe,
    "map-analyze": _cmd_map_analyze,
    "decompose": _cmd_decompose,
    "transfer-check": _cmd_transfer_check,
    "stormer-build": _cmd_stormer_build,
    "stormer-verify": _cmd_stormer_verify,
    "prop41": _cmd_prop41,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="decomap",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        p = sub.add_parser(name)
        for flag, spec in flags.items():
            p.add_argument(f"--{flag}", **spec)
        return p

    req_str = {"required": True}
    opt_str = {"default": None}
    tol = lambda default: {"type": float, "default": default}
    intp = lambda default=None, required=False: (
        {"type": int, "required": True} if required else {"type": int, "default": default})

    add("modular-check", rho=req_str, samples=intp(50), seed=intp(required=True),
        tol=tol(1e-9))
    add("cone-member", rho=req_str, xi=req_str, cone=req_str,
        **{"rho-b": opt_str}, tol=tol(1e-8))
    add("hull-member", rho=req_str, xi=req_str, dims=req_str,
        **{"rho-b": opt_str}, tol=tol(1e-8), **{"max-iter": intp(5000)})
    add("probe", dims=req_str, trials=intp(20), seed=intp(required=True), tol=tol(1e-8))
    add("map-analyze", map=req_str, tests={"default": "cp,ccp"}, tol=tol(1e-9),
        seed=intp(0), restarts=intp(32))
    add("decompose", map=req_str, tol=tol(1e-8), **{"max-iter": intp(5000)})
    add("transfer-check", map=req_str, rho=req_str, k=intp(2),
        trials=intp(10), seed=intp(required=True), tol=tol(1e-8))
    add("stormer-build", map=req_str, face=opt_str, eta=opt_str, seed=intp(0),
        tol=tol(1e-8))
    add("stormer-verify", map=req_str, face=opt_str, eta=opt_str,
        samples=intp(50), seed=intp(0), tol=tol(1e-9))
    add("prop41", map=req_str, face=req_str, tol=tol(1e-8))
    return parser


def run(argv: list[str]) -> tuple[dict, int]:
    """Dispatch one request; returns the report dict and the exit code."""
    start = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {
        "command": args.command,
        "request": {k.replace("_", "-"): v for k, v in sorted(vars(args).items())
                    if k != "command"},
        "version": __version__,
        "seed": getattr(args, "seed", None),
    }
    try:
        if report["seed"] is not None and report["seed"] < 0:
            raise ParseError(f"--seed must be non-negative, got {report['seed']}")
        payload, verdict = _HANDLERS[args.command](args)
    except DecomapError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["verdict"] = "error"
        code = 2
    else:
        report["result"] = payload
        report["verdict"] = "satisfied" if verdict else "violated"
        code = 0 if verdict else 1
    report["wall_time"] = time.perf_counter() - start
    return report, code


def main(argv: list[str] | None = None) -> None:
    report, code = run(sys.argv[1:] if argv is None else argv)
    print(render_report(report))
    sys.exit(code)


if __name__ == "__main__":
    main()
