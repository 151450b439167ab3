"""Command-line surface: JSON in, JSON report out, verdict as exit code.

Matrix files are ``{"rows": r, "cols": c, "entries": [[re, im], ...]}``
row-major; vectors are the one-column special case (or a bare list of
[re, im] pairs).  Map files either name a registry key
(``identity:n``, ``transpose:n``, ``adu:<matrix>``, ``mix:l:<k1>:<k2>``,
``compose-t:<key>``) or carry an explicit Choi matrix.  Every report
echoes the request, the library version and the seed, so identical
requests reproduce identical reports byte for byte (excluding the
wall-time field).  Its ``result`` holds the fields of the library's
result record, minus those that are None, with maps written as their
Choi matrix and the map's ``label`` added for ``--map`` commands.

Exit codes: 0 criterion satisfied / inside / conditions hold,
1 violated / outside / conditions fail, 2 error or malformed request
(such as a count below 1, or a ``--tol`` that is not finite and
positive).  A request that argparse itself rejects also exits 2, with
usage on stderr and no report.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__, cones, linalg, maps, modular, stormer
from .errors import DecomapError, ParseError
from .linalg import DEFAULT, TensorLayout


# -- JSON (de)serialization ---------------------------------------------------

def _is_number(x) -> bool:
    """A JSON number: an int or a float, and not a bool (which Python counts
    as an int)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_dim(x) -> bool:
    """A positive JSON integer: not a bool, a float or a string."""
    return linalg._is_int(x) and x > 0


def _entry_pairs(raw, count: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != count:
        raise ParseError(f"expected {count} entries, got "
                         f"{len(raw) if isinstance(raw, list) else type(raw).__name__}")
    flat = np.empty(count, dtype=complex)
    for idx, pair in enumerate(raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(_is_number(x) for x in pair)):
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
    if not (_is_dim(rows) and _is_dim(cols)):
        raise ParseError(f"bad dimensions rows={rows!r} cols={cols!r}")
    return _entry_pairs(obj["entries"], rows * cols).reshape(rows, cols)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": m.view(float).reshape(-1, 2).tolist(),
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
        key, embedded = obj["key"], obj.get("matrices", {})
        if not isinstance(key, str):
            raise ParseError(f"{path}: 'key' must be a string, got {key!r}")
        if not isinstance(embedded, dict):
            raise ParseError(f"{path}: 'matrices' must be an object")

        def loader(name):
            if name in embedded:
                return parse_matrix(embedded[name])
            return parse_matrix_file(name)

        return maps.map_from_key(key, loader=loader)
    if {"dim_in", "dim_out", "choi"} <= set(obj):
        dim_in, dim_out = obj["dim_in"], obj["dim_out"]
        if not (_is_dim(dim_in) and _is_dim(dim_out)):
            raise ParseError(f"{path}: dim_in and dim_out must be positive integers, "
                             f"got {dim_in!r} and {dim_out!r}")
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise ParseError(f"{path}: 'label' must be a string, got {label!r}")
        return maps.make_map(parse_matrix(obj["choi"]), dim_in, dim_out, label=label)
    raise ParseError(f"{path}: map JSON needs 'key' or dim_in/dim_out/choi")


def parse_face_file(path: str) -> stormer.FaceSpec:
    obj = _load_json(path)
    if not isinstance(obj, dict) or not {"xi", "eta"} <= set(obj):
        raise ParseError(f"{path}: face JSON needs 'xi' and 'eta'")
    return stormer.FaceSpec(xi=_vector_from_obj(obj["xi"], path),
                            eta=_vector_from_obj(obj["eta"], path))


def parse_cone_spec(text: str) -> tuple[cones.ConeSpec, TensorLayout | None]:
    """Cone mini-language: {"kind": ..., "beta": ..., "dims": [m, n]}.

    Returns the spec and the layout of the state, None without ``dims``.
    """
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
        if not isinstance(dims, list) or len(dims) != 2 or not all(map(_is_dim, dims)):
            raise ParseError(f"bad cone dims {dims!r}")
        layout = TensorLayout(tuple(dims))
    beta = obj.get("beta")
    if beta is not None and not _is_number(beta):
        raise ParseError(f"cone beta must be a number, got {beta!r}")
    return cones.ConeSpec(kind=kind, beta=beta), layout


# -- report plumbing ----------------------------------------------------------

def _jsonable(value):
    if isinstance(value, maps.MapObject):
        return matrix_to_json(value.choi)
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(v) for f in dataclasses.fields(value)
                if (v := getattr(value, f.name)) is not None}
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


_encode_str = json.encoder.encode_basestring_ascii     # json's ensure_ascii escapes


def render_report(report: dict) -> str:
    """The bytes of ``json.dumps(report, sort_keys=True, indent=2)``.

    ``indent`` turns json's C encoder off, so the report is walked here once
    into one list of parts instead.  A report the walk cannot finish (a
    cycle, or nesting past the recursion limit) goes to json whole, which
    renders it or raises its own error.
    """
    parts: list[str] = []
    try:
        _emit(report, parts, "\n")
    except RecursionError:
        return _dumps(report, "\n")
    return "".join(parts)


def _dumps(value, nl: str) -> str:
    """json's own text of a value the walk does not take, indented to ``nl``."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", nl)


def _emit(value, parts: list[str], nl: str) -> None:
    """Append the text of ``value``; ``nl`` starts each of its lines.

    Only the exact types json writes natively are walked (so ``type(x) is``,
    not ``isinstance``); a subclass, a non-str key or any other type goes to
    json itself and renders, or fails, as it would there.
    """
    kind = type(value)
    if kind is str:
        parts.append(_encode_str(value))
    elif kind is float:
        parts.append(float.__repr__(value) if math.isfinite(value)
                     else "NaN" if value != value
                     else "Infinity" if value > 0 else "-Infinity")
    elif kind is dict and {*map(type, value)} <= {str}:
        if not value:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            parts.append(sep + _encode_str(key) + ": ")
            _emit(value[key], parts, inner)
            sep = "," + inner
        parts.append(nl + "}")
    elif kind is list:
        if not value:
            parts.append("[]")
        elif not _emit_pairs(value, parts, nl):
            inner = nl + "  "
            sep = "[" + inner
            for item in value:
                parts.append(sep)
                _emit(item, parts, inner)
                sep = "," + inner
            parts.append(nl + "]")
    elif kind is int:
        parts.append(int.__repr__(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    else:
        parts.append(_dumps(value, nl))


def _emit_pairs(value: list, parts: list[str], nl: str) -> bool:
    """Matrix entries, a list of finite [re, im] float pairs, in C-level
    passes with no Python call per number; False, with nothing appended, for
    any other list (finite huge numbers whose sum overflows included)."""
    if {*map(type, value)} != {list} or {*map(len, value)} != {2}:
        return False
    flat = [*itertools.chain.from_iterable(value)]
    if {*map(type, flat)} != {float} or not math.isfinite(sum(flat)):
        return False
    item, number = nl + "  ", nl + "    "
    pair = f"[{number}%s,{number}%s{item}]"
    body = ("," + item).join([pair] * len(value)) % tuple(map(float.__repr__, flat))
    parts.append("[" + item + body + nl + "]")
    return True


def _modular_data(rho_path: str, rho_b_path: str | None,
                  layout: TensorLayout | None) -> modular.ModularData:
    """Plain state, or product state for a two-factor layout.

    For two-factor cones the --rho file is the first-factor density; the
    second factor defaults to the tracial state of the layout dimension
    and can be overridden with --rho-b, which must match it.
    """
    rho = parse_matrix_file(rho_path)
    if layout is None:
        if rho_b_path:
            raise ParseError("--rho-b needs a two-factor layout (dims)")
        return modular.build_modular(rho)
    m, n = layout.dims
    if rho.shape != (m, m):
        raise ParseError(f"--rho must be {m}x{m} for dims {layout.dims}")
    rho_b = parse_matrix_file(rho_b_path) if rho_b_path else np.eye(n) / n
    if rho_b.shape != (n, n):
        raise ParseError(f"--rho-b must be {n}x{n} for dims {layout.dims}")
    return modular.tensor_modular(modular.build_modular(rho),
                                  modular.build_modular(rho_b))


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        m, n = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad dims {text!r}, expected 'm,n'") from exc
    if m <= 0 or n <= 0:
        raise ParseError(f"dims must be positive, got {text!r}")
    return m, n


# -- command handlers: (args, parsed --map or None) -> (result, verdict) -----

def _cmd_modular_check(args, phi):
    md = modular.build_modular(parse_matrix_file(args.rho))
    res = modular.check_identities(md, args.samples, args.seed)
    worst = max(res.values())
    return {"residuals": res, "max_residual": worst}, worst <= args.tol


def _cmd_cone_member(args, phi):
    spec, layout = parse_cone_spec(args.cone)
    md = _modular_data(args.rho, args.rho_b, layout)
    res = cones.cone_membership(md, spec, parse_matrix_file(args.xi), tol=args.tol)
    return res, res.inside


def _cmd_hull_member(args, phi):
    layout = TensorLayout(_parse_dims(args.dims))
    md = _modular_data(args.rho, args.rho_b, layout)
    res = cones.cone_membership(md, cones.ConeSpec(cones.HULL),
                                parse_matrix_file(args.xi), tol=args.tol,
                                max_iter=args.max_iter)
    return res, res.inside


def _cmd_probe(args, phi):
    m, n = _parse_dims(args.dims)
    rep = cones.probe_finite_dim_equality(m, n, args.seed, args.trials)
    return rep, rep.max_residual <= args.tol


def _cmd_map_analyze(args, phi):
    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    if not tests:
        raise ParseError(f"--tests {args.tests!r} names no test; use cp, ccp or kpos=K")
    payload: dict = {}
    verdict = True
    gp = None
    for test in tests:
        if test in ("cp", "ccp"):
            gp = gp or maps.global_positivity_test(phi, tol=args.tol)
            payload.update(min_eig_choi=gp.min_eig_choi,
                           min_eig_choi_pt=gp.min_eig_choi_pt)
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


def _cmd_decompose(args, phi):
    res = maps.decompose(phi, tol=args.tol, max_iter=args.max_iter)
    return res, res.converged


def _cmd_transfer_check(args, phi):
    md = modular.build_modular(parse_matrix_file(args.rho))
    report = maps.cone_criterion_check(phi, md, args.k, args.trials,
                                       seed=args.seed, tol=args.tol)
    # the hull criterion is the (weak) decomposability verdict; the p / pt
    # criteria are stricter sub-verdicts and legitimately fail for maps
    # that are only decomposable
    payload = {
        "delta_commutation_residual": report.transfer.delta_commutation_residual,
        "db_unital_residual": report.transfer.db.unital_residual,
        "db_pairing_residual": report.transfer.db.pairing_residual,
        "levels": report.levels,
        "criteria": {name: report.holds(name) for name in maps.CRITERIA},
    }
    if not report.holds("hull"):
        payload["hull_failure"] = report.failures["hull"]
    return payload, report.holds("hull")


def _stormer_build(args, phi) -> stormer.StormerData:
    """The local decomposition at the eta of --face, or of --eta without one."""
    if args.face and args.eta:
        raise ParseError("--face fixes eta: give --face or --eta, not both")
    if args.face:
        face = parse_face_file(args.face)
        eta = face.eta
    elif args.eta:
        face, eta = None, _vector_from_obj(_load_json(args.eta), args.eta)
    else:
        raise ParseError("need --eta or --face to fix the vector")
    return stormer.build_local_decomposition(phi, eta, face=face, seed=args.seed,
                                             tol=args.tol)


def _cmd_stormer_build(args, phi):
    data = _stormer_build(args, phi)
    payload = {
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
        payload.update(alpha=data.alpha, beta=data.beta)
    return payload, True


def _cmd_stormer_verify(args, phi):
    data = _stormer_build(args, phi)
    rep = stormer.verify_locdec(phi, data, args.samples, seed=args.seed)
    return rep, rep.max_residual <= args.tol


def _cmd_prop41(args, phi):
    rep = stormer.check_prop41(phi, parse_face_file(args.face), tol=args.tol)
    return rep, rep.conditions_hold and rep.equality_holds


# -- the subcommand table: name -> (handler, {flag: argparse spec}) ----------

def _default(value) -> dict:
    """An optional flag parsed as the type of its default."""
    return {"type": type(value), "default": value}


_REQ = {"required": True}
_OPT = {"default": None}
_SEED = {"type": int, "required": True}
_TOL = _default(DEFAULT.cone)
_EIG_TOL = _default(DEFAULT.eig)
_MAX_ITER = _default(DEFAULT.max_iter)


_HANDLERS = {
    "modular-check": (_cmd_modular_check, {
        "rho": _REQ, "samples": _default(50), "seed": _SEED, "tol": _EIG_TOL}),
    "cone-member": (_cmd_cone_member, {
        "rho": _REQ, "xi": _REQ, "cone": _REQ, "rho-b": _OPT, "tol": _TOL}),
    "hull-member": (_cmd_hull_member, {
        "rho": _REQ, "xi": _REQ, "dims": _REQ, "rho-b": _OPT, "tol": _TOL,
        "max-iter": _MAX_ITER}),
    "probe": (_cmd_probe, {
        "dims": _REQ, "trials": _default(20), "seed": _SEED, "tol": _TOL}),
    "map-analyze": (_cmd_map_analyze, {
        "map": _REQ, "tests": _default("cp,ccp"), "tol": _EIG_TOL,
        "seed": _default(0), "restarts": _default(32)}),
    "decompose": (_cmd_decompose, {"map": _REQ, "tol": _TOL, "max-iter": _MAX_ITER}),
    "transfer-check": (_cmd_transfer_check, {
        "map": _REQ, "rho": _REQ, "k": _default(2), "trials": _default(10),
        "seed": _SEED, "tol": _TOL}),
    "stormer-build": (_cmd_stormer_build, {
        "map": _REQ, "face": _OPT, "eta": _OPT, "seed": _default(0), "tol": _TOL}),
    "stormer-verify": (_cmd_stormer_verify, {
        "map": _REQ, "face": _OPT, "eta": _OPT, "samples": _default(50),
        "seed": _default(0), "tol": _EIG_TOL}),
    "prop41": (_cmd_prop41, {"map": _REQ, "face": _REQ, "tol": _TOL}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="decomap",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _HANDLERS.items():
        p = sub.add_parser(name)
        for flag, spec in flags.items():
            p.add_argument(f"--{flag}", **spec)
    return parser


def run(argv: list[str]) -> tuple[dict, int]:
    """Dispatch one request; returns the JSON-ready report and the exit code."""
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
    request = vars(args)
    echo = {k.replace("_", "-"): v for k, v in sorted(request.items()) if k != "command"}
    if not math.isfinite(args.tol):
        echo["tol"] = str(args.tol)       # rejected below; keeps the report strict JSON
    report = {
        "command": args.command,
        "request": echo,
        "version": __version__,
        "seed": request.get("seed"),
    }
    try:
        if report["seed"] is not None and report["seed"] < 0:
            raise ParseError(f"--seed must be non-negative, got {report['seed']}")
        for count in ("samples", "trials", "restarts"):
            if request.get(count, 1) < 1:
                raise ParseError(f"--{count} must be at least 1, got {request[count]}")
        if not 0.0 < args.tol < math.inf:
            raise ParseError(f"--tol must be finite and positive, got {args.tol}")
        phi = parse_map_file(args.map) if "map" in request else None
        result, verdict = _HANDLERS[args.command][0](args, phi)
    except DecomapError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["verdict"] = "error"
        code = 2
    else:
        result = _jsonable(result)
        if phi is not None:
            result["label"] = phi.label
        report["result"] = result
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
