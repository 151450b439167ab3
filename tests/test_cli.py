import enum
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decomap
from decomap import cli, linalg, maps
from decomap.errors import ParseError
from decomap.linalg import TensorLayout

from conftest import (EIG_SLACK, SIGMA_X, choi_map_choi, matrix_json, random_matrix,
                      write_json)

CI_WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"
README = Path(__file__).parents[1] / "README.md"

# named inputs of the request tables below: a name in argv becomes a JSON file
FILES = {
    "id_x": {"key": "identity:x"},
    "t3": {"key": "transpose:3"},
    "rho": matrix_json(np.eye(2) / 2),
    # Choi's map a -> diag(a00 + a11, a11 + a22, a22 + a00) - (a - diag(a)) on M_3
    "choi": {"dim_in": 3, "dim_out": 3, "choi": matrix_json(choi_map_choi())},
    # conjugation by a 3x2 matrix: a CP map M_2 -> M_3
    "adu32": {"key": "adu:v",
              "matrices": {"v": matrix_json([[1, 1j], [0.5, 2 - 1j], [0, -1]])}},
    # the transposition of M_2 as an explicit Choi matrix (the swap) x 1e-10
    "swap_small": {"dim_in": 2, "dim_out": 2,
                   "choi": matrix_json(1e-10 * np.eye(4)[[0, 2, 1, 3]])},
    # 0.4 ad(sx) + 0.6 ad(v) o t, v a real rotation: at eta = (0.6, 0.8i) it
    # lies in no face
    "generic": {"key": "mix:0.4:adu:u:compose-t:adu:v",
                "matrices": {"u": matrix_json(SIGMA_X),
                             "v": matrix_json([[0.6, 0.8], [-0.8, 0.6]])}},
    "eta": [[0.6, 0], [0, 0.8]],
}


@pytest.fixture
def rho_skew_file(tmp_path):
    return write_json(tmp_path / "rho.json", matrix_json(np.diag([0.8, 0.2])))


@pytest.fixture
def transpose_map_file(tmp_path):
    return write_json(tmp_path / "t.json", {"key": "transpose:2"})


@pytest.fixture
def sym_map_file(tmp_path):
    return write_json(tmp_path / "sym.json", {
        "key": "mix:0.5:adu:sx:compose-t:adu:sx",
        "matrices": {"sx": matrix_json(SIGMA_X)},
    })


@pytest.fixture
def face_file(tmp_path):
    return write_json(tmp_path / "face.json",
                      {"xi": [[1, 0], [0, 0]], "eta": [[1, 0], [0, 0]]})


def rendered(report):
    """The report's text, checked to be the bytes json.dumps gives it."""
    text = cli.render_report(report)
    assert text == json.dumps(report, sort_keys=True, indent=2)
    return text


def strip_wall_time(text):
    return "\n".join(l for l in text.splitlines() if '"wall_time"' not in l)


def with_files(tmp_path, argv, inputs):
    """argv with each name in ``inputs`` replaced by a JSON file of its value."""
    return [write_json(tmp_path / f"{a}.json", inputs[a]) if a in inputs else a
            for a in argv]


def key_paths(obj, prefix=""):
    """Every key path of a nested dict, dot-joined."""
    for key, value in obj.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from key_paths(value, f"{prefix}{key}.")


class TestParsing:
    def test_one_by_one(self):
        m = cli.parse_matrix({"rows": 1, "cols": 1, "entries": [[1, 0]]})
        assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_round_trip(self, rng):
        for _ in range(100):
            m = random_matrix(rng, rng.integers(1, 5), rng.integers(1, 5))
            assert np.array_equal(cli.parse_matrix(cli.matrix_to_json(m)), m)

    def test_entries_written_as_pairs(self, rng):
        m = random_matrix(rng, 3, 4)
        m[0, 0] = complex(-0.0, -0.0)
        for x in (m, m.T, m[:, 1], m.real):         # views, a vector, a real matrix
            x2 = np.asarray(x, dtype=complex).reshape(len(x), -1)
            want = [[float(z.real), float(z.imag)] for z in x2.reshape(-1)]
            got = cli.matrix_to_json(x)
            assert (got["rows"], got["cols"]) == x2.shape
            assert json.dumps(got["entries"]) == json.dumps(want)

    def test_entry_count_mismatch(self):
        with pytest.raises(ParseError):
            cli.parse_matrix({"rows": 2, "cols": 2, "entries": [[1, 0]]})

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            cli.parse_matrix({"rows": 1, "cols": 1, "entries": [[float("nan"), 0]]})

    def test_malformed_map_file(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"nope": 1})
        with pytest.raises(ParseError):
            cli.parse_map_file(path)


# report-like trees for render_report's byte contract
KEYS = st.text() | st.integers(0, 20).map(str) | st.sampled_from(
    ["10", "2", "", "\u00e9", "\u65e5\u672c", "\x00", "\n\t\x1f", '"\\/', "\u2028", "\ud800"])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 1e22, math.nan, math.inf,
                                        -math.inf])
INTS = st.integers() | st.sampled_from([2**63, 2**64 + 1, -2**63 - 1])
SPOILERS = {"int": INTS, "bool": st.booleans(), "nan": st.just(math.nan),
            "inf": st.sampled_from([math.inf, -math.inf])}


@st.composite
def pair_lists(draw):
    """Matrix entries (finite [re, im] float pairs), or such a list with one
    member that must leave the fast path: a stray int, bool, NaN or infinity,
    or a member of three numbers."""
    pairs = draw(st.lists(st.lists(FINITE, min_size=2, max_size=2), min_size=1, max_size=5))
    spoil = draw(st.sampled_from([None, "triple", *SPOILERS]))
    i, j = draw(st.integers(0, len(pairs) - 1)), draw(st.integers(0, 1))
    if spoil == "triple":
        pairs[i].append(draw(FINITE))
    elif spoil is not None:
        pairs[i][j] = draw(SPOILERS[spoil])
    return pairs


LEAVES = st.none() | st.booleans() | INTS | FLOATS | KEYS | pair_lists()
TREES = st.dictionaries(KEYS, st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=16))


class Colour(enum.IntEnum):
    RED = 1


def self_containing():
    loop: dict = {"a": [1.0]}
    loop["a"].append(loop)
    return {"result": loop}


class TestRender:
    """render_report writes the bytes of json.dumps(report, sort_keys=True,
    indent=2): sorted keys, two-space indents, ASCII escapes, NaN and
    Infinity as json spells them."""

    @settings(max_examples=150, deadline=None)
    @given(tree=TREES)
    @example(tree={"entries": [[1, 2.0]]})
    @example(tree={"2": 0, "10": {"b": [], "a": {}}})
    @example(tree={"x": math.nan, "y": -math.inf, "entries": [[math.nan, 0.0], [0.0, 1.0]]})
    @example(tree={"entries": [[0.5, -0.0], [1e16, 5e-324, 1e22]]})
    def test_same_bytes_as_json(self, tree):
        assert cli.render_report(tree) == json.dumps(tree, sort_keys=True, indent=2)

    @pytest.mark.parametrize("report", [
        {"a": np.float64(0.1), "b": [Colour.RED, np.float64(-0.0)]},
        {"a": {"b": (1, {"d": [2.5, [0.5, 1.5]], "c": None})}},
        {"a": {1: "one", 2.5: [True], 0: {}}, "b": {False: 0, True: 1}, "c": {None: 2}},
        {"a": {"name": type("Name", (str,), {})("\u00e9")}},
    ], ids=["number-subclasses", "tuple", "non-str-keys", "str-subclass"])
    def test_other_values_as_json_writes_them(self, report):
        """A number or str subclass (whose repr is not json's), a tuple and a
        non-str key leave the walk for json itself, which writes them as it
        always has."""
        assert cli.render_report(report) == json.dumps(report, sort_keys=True, indent=2)

    @pytest.mark.parametrize("report", [
        {"a": [1.0, object()]},
        {"a": {"b": np.int64(3)}},
        {"a": {"b": 1, 2: 0}},
        self_containing(),
    ], ids=["object", "numpy-int", "mixed-keys", "cycle"])
    def test_rejected_as_json_rejects_it(self, report):
        """A report json.dumps rejects raises json's error: an unknown type,
        keys that do not sort, and a cycle (past the recursion limit)."""
        with pytest.raises((TypeError, ValueError)) as want:
            json.dumps(report, sort_keys=True, indent=2)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            cli.render_report(report)


class TestCommands:
    def test_modular_check(self, rho_skew_file):
        report, code = cli.run(["modular-check", "--rho", rho_skew_file,
                                "--samples", "20", "--seed", "0"])
        assert code == 0 and report["verdict"] == "satisfied"
        assert report["result"]["max_residual"] <= 1e-9

    def test_map_analyze_transposition(self, transpose_map_file):
        report, code = cli.run(["map-analyze", "--map", transpose_map_file,
                                "--tests", "cp,ccp", "--seed", "0"])
        assert code == 1 and report["verdict"] == "violated"
        assert report["result"]["cp"] is False
        assert report["result"]["ccp"] is True
        assert report["result"]["min_eig_choi"] == pytest.approx(-1.0)

    def test_decompose(self, transpose_map_file):
        report, code = cli.run(["decompose", "--map", transpose_map_file])
        assert code == 0 and report["result"]["converged"]

    def test_prop41_symmetric(self, sym_map_file, face_file):
        report, code = cli.run(["prop41", "--map", sym_map_file, "--face", face_file])
        assert code == 0
        assert report["result"]["conditions_hold"] and report["result"]["equality_holds"]

    def test_stormer_verify(self, sym_map_file, face_file):
        report, code = cli.run(["stormer-verify", "--map", sym_map_file,
                                "--face", face_file, "--samples", "20"])
        assert code == 0 and report["result"]["max_residual"] <= 1e-9

    def test_stormer_build(self, sym_map_file, face_file):
        report, code = cli.run(["stormer-build", "--map", sym_map_file,
                                "--face", face_file])
        assert code == 0 and report["result"]["k_dim"] == 4
        assert report["result"]["face_case"] is True

    def test_cone_member(self, tmp_path, rho_skew_file):
        from decomap import modular
        omega = modular.build_modular(np.diag([0.8, 0.2])).rho_power(0.5)
        xi_file = write_json(tmp_path / "xi.json", matrix_json(omega))
        report, code = cli.run(["cone-member", "--rho", rho_skew_file,
                                "--xi", xi_file, "--cone", '{"kind": "natural"}'])
        assert code == 0 and report["result"]["inside"]

    def test_cone_member_outside(self, tmp_path):
        rho_file = write_json(tmp_path / "r.json", matrix_json(np.eye(2) / 2))
        xi_file = write_json(tmp_path / "xi.json", matrix_json(SIGMA_X))
        report, code = cli.run(["cone-member", "--rho", rho_file,
                                "--xi", xi_file, "--cone", '{"kind": "natural"}'])
        assert code == 1 and not report["result"]["inside"]

    def test_hull_member(self, tmp_path):
        rho_file = write_json(tmp_path / "r.json", matrix_json(np.eye(2) / 2))
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * i + j, 2 * j + i] = 1.0
        xi_file = write_json(tmp_path / "xi.json", matrix_json(swap))
        report, code = cli.run(["hull-member", "--rho", rho_file,
                                "--xi", xi_file, "--dims", "2,2"])
        assert code == 0 and report["result"]["inside"]
        assert report["result"]["stop_reason"] == "converged"

    def test_hull_member_reports_a_cap(self, tmp_path):
        """A capped split reads outside (exit 1) as before, but says it was
        capped and carries no witness, unlike a refuted member.  The swap F
        is co-CP (F^Γ ⪰ 0), so its split needs no iteration even at a cap of
        1; F + 2F^Γ is neither PSD nor co-PSD, and caps there."""
        swap = np.eye(4)[[0, 2, 1, 3]]
        mix = swap + 2 * linalg.partial_transpose(swap, TensorLayout((2, 2)), 2)
        assert linalg.min_eig(mix) < 0
        assert linalg.min_eig(linalg.partial_transpose(mix, TensorLayout((2, 2)), 2)) < 0
        rho_file = write_json(tmp_path / "r.json", matrix_json(np.eye(2) / 2))
        swap_file = write_json(tmp_path / "swap.json", matrix_json(swap))
        mix_file = write_json(tmp_path / "mix.json", matrix_json(mix))
        minus_file = write_json(tmp_path / "m1.json", matrix_json(-np.eye(4)))
        base = ["hull-member", "--rho", rho_file, "--dims", "2,2"]
        report, code = cli.run([*base, "--xi", swap_file, "--max-iter", "1"])
        result = report["result"]
        assert code == 0 and result["inside"]
        assert (result["stop_reason"], result["iterations"]) == ("converged", 0)
        report, code = cli.run([*base, "--xi", mix_file, "--max-iter", "1"])
        result = report["result"]
        assert code == 1 and not result["inside"] and "witness" not in result
        assert (result["stop_reason"], result["iterations"]) == ("capped", 1)
        report, code = cli.run([*base, "--xi", minus_file])
        result = report["result"]
        assert code == 1 and result["stop_reason"] == "certified" and "witness" in result

    def test_hull_member_non_hermitian_reads_outside(self, tmp_path):
        """A non-Hermitian --xi is outside the hull (exit 1, not an error), as
        it is outside natural_tensor: the same residual and no witness."""
        rho_file = write_json(tmp_path / "r.json", matrix_json(np.eye(2) / 2))
        xi_file = write_json(tmp_path / "xi.json", matrix_json(np.triu(np.ones((4, 4)))))
        hull, hull_code = cli.run(["hull-member", "--rho", rho_file, "--xi", xi_file,
                                   "--dims", "2,2"])
        cone, cone_code = cli.run(["cone-member", "--rho", rho_file, "--xi", xi_file,
                                   "--cone", '{"kind": "natural_tensor", "dims": [2, 2]}'])
        assert hull_code == cone_code == 1
        assert hull["verdict"] == cone["verdict"] == "violated"
        assert hull["result"] == cone["result"] == {"inside": False,
                                                    "residual": cone["result"]["residual"]}

    @pytest.mark.parametrize("xi, code", [("swap", 0), ("minus_one", 1), ("upper", 1),
                                          ("sample", 0)],
                             ids=["swap", "minus_one", "upper", "sample"])
    def test_cone_member_answers_hull(self, tmp_path, xi, code):
        """cone-member with the hull kind gives hull-member's report: the
        same verdict, residual, witness, stop reason and iterations.  A hull
        member scaled by 1e8 is inside; -I and a non-Hermitian xi are not."""
        from decomap import cones, linalg, modular
        rho_b = linalg.sample_density(2, 7)
        md = modular.tensor_modular(modular.build_modular(np.diag([0.9, 0.1])),
                                    modular.build_modular(rho_b))
        sample = sum(0.5 * cones.sample_cone(md, cones.ConeSpec(kind), seed)
                     for kind, seed in ((cones.NATURAL_TENSOR, 1), (cones.TRANSPOSED_TENSOR, 2)))
        xi = {"swap": np.eye(4)[[0, 2, 1, 3]], "minus_one": -np.eye(4),
              "upper": np.triu(np.ones((4, 4))), "sample": 1e8 * sample}[xi]
        rho_args = ["--rho", write_json(tmp_path / "ra.json", matrix_json(np.diag([0.9, 0.1]))),
                    "--rho-b", write_json(tmp_path / "rb.json", matrix_json(rho_b)),
                    "--xi", write_json(tmp_path / "xi.json", matrix_json(xi))]
        hull, hull_code = cli.run(["hull-member", *rho_args, "--dims", "2,2"])
        cone, cone_code = cli.run(["cone-member", *rho_args,
                                   "--cone", '{"kind": "hull", "dims": [2, 2]}'])
        assert hull_code == cone_code == code
        assert hull["verdict"] == cone["verdict"]
        assert hull["result"] == cone["result"]

    def test_probe(self):
        report, code = cli.run(["probe", "--dims", "2,3", "--trials", "5",
                                "--seed", "1"])
        assert code == 0 and report["result"]["max_residual"] <= 1e-8

    @pytest.mark.parametrize("argv, code, holds", [
        (["decompose", "--map", "choi"], 1, lambda r: r["stop_reason"] == "certified"),
        (["map-analyze", "--map", "adu32", "--tests", "cp"], 0, lambda r: r["cp"] is True),
        (["map-analyze", "--map", "swap_small", "--tests", "cp"], 1,
         lambda r: r["cp"] is False),
        (["stormer-build", "--map", "generic", "--eta", "eta"], 0,
         lambda r: r["face_case"] is False and r["k_dim"] == 8),
        (["stormer-verify", "--map", "generic", "--eta", "eta", "--samples", "100"], 0,
         lambda r: r["max_residual"] <= 1e-10),
        (["probe", "--dims", "3,3", "--trials", "20", "--seed", "0"], 0,
         lambda r: r["max_residual"] <= 1e-8),
    ], ids=["choi-certified", "adu-3x2-cp", "swap-1e-10-not-cp", "stormer-build-generic",
            "stormer-verify-generic", "probe-3x3"])
    def test_answer(self, tmp_path, argv, code, holds):
        """Choi's map is proved not decomposable; a CP map M_2 -> M_3 is CP,
        and the transposition times 1e-10 is not (verdicts are scale-free);
        Stormer's construction takes its generic path (K_eta of dimension 8)
        for a map in no face, and phi(a) eta = V rho(a) V* eta holds; probe's
        intersection samples at dims 3,3 are exhibited in the double-PSD form."""
        report, got = cli.run(with_files(tmp_path, argv, FILES))
        assert got == code
        result = json.loads(rendered(report), parse_constant=pytest.fail)["result"]
        assert holds(result), result

    def test_transfer_check_identity(self, tmp_path, monkeypatch):
        rho_file = write_json(tmp_path / "r.json", matrix_json(np.eye(2) / 2))
        map_file = write_json(tmp_path / "m.json", {"key": "identity:2"})
        built = []
        transfer_operator = maps.transfer_operator
        monkeypatch.setattr(maps, "transfer_operator",
                            lambda *a, **kw: built.append(a) or transfer_operator(*a, **kw))
        report, code = cli.run(["transfer-check", "--map", map_file,
                                "--rho", rho_file, "--k", "2", "--trials", "3",
                                "--seed", "0"])
        assert code == 0
        assert len(built) == 1
        assert report["result"]["criteria"]["p"] is True
        assert report["result"]["criteria"]["hull"] is True

    @pytest.mark.parametrize("k, code", [(2, 0), (3, 1), (5, 1)])
    def test_transfer_check_halved_choi_map(self, tmp_path, k, code):
        """Choi's map halved on M_3 with the tracial state: level 3 = m
        proves it outside the hull, and the report carries the witness.
        Level 3 decides every level above it: levels 4 and 5 repeat it.

        A certified level's hull residual is ‖c − a − b‖ at the iteration
        whose gap gave the witness, here the first: it shows that the split
        did not converge, far above 100·tol, and is not a distance to the
        cone.  The witness, not the residual, is the proof: unit, PSD and
        PSD after its factor-2 partial transpose."""
        map_file = write_json(tmp_path / "m.json", {
            "dim_in": 3, "dim_out": 3, "choi": matrix_json(0.5 * choi_map_choi())})
        rho_file = write_json(tmp_path / "r.json", matrix_json(np.eye(3) / 3))
        report, got = cli.run(["transfer-check", "--map", map_file, "--rho", rho_file,
                               "--k", str(k), "--trials", "10", "--seed", "0"])
        assert got == code
        result = report["result"]
        assert result["criteria"]["hull"] is (k == 2)
        if k > 2:
            assert result["hull_failure"]["level"] == 3
            assert result["hull_failure"]["stop_reason"] == "certified"
            residual = result["levels"]["3"]["hull"]
            assert residual == pytest.approx(0.36, abs=0.01)
            assert residual > 100 * linalg.DEFAULT.cone
            witness = cli.parse_matrix(result["hull_failure"]["witness"])
            assert np.linalg.norm(witness) == pytest.approx(1.0)
            for view in (witness, linalg.partial_transpose(witness, TensorLayout((3, 3)), 2)):
                assert np.linalg.eigvalsh((view + view.conj().T) / 2)[0] >= -EIG_SLACK
            assert all(result["levels"][str(level)] == result["levels"]["3"]
                       for level in range(4, k + 1))
        else:
            assert "hull_failure" not in result


class TestContract:
    def test_error_exit_code(self, tmp_path):
        report, code = cli.run(["modular-check", "--rho",
                                str(tmp_path / "missing.json"), "--seed", "0"])
        assert code == 2 and report["verdict"] == "error"
        assert report["error"]["type"] == "ParseError"

    def test_determinism(self, tmp_path, transpose_map_file, rho_skew_file, sym_map_file,
                         face_file):
        """Every subcommand that draws: two runs give the same report bytes
        apart from wall_time."""
        rho_tracial = write_json(tmp_path / "tracial.json", matrix_json(np.eye(2) / 2))
        requests = [
            ["map-analyze", "--map", transpose_map_file, "--tests", "cp,ccp,kpos=2",
             "--seed", "3"],
            ["modular-check", "--rho", rho_skew_file, "--samples", "50", "--seed", "3"],
            ["stormer-verify", "--map", sym_map_file, "--face", face_file,
             "--samples", "100", "--seed", "3"],
            ["probe", "--dims", "2,3", "--trials", "5", "--seed", "3"],
            ["transfer-check", "--map", sym_map_file, "--rho", rho_tracial,
             "--k", "2", "--trials", "3", "--seed", "3"],
        ]
        for argv in requests:
            out = []
            for _ in range(2):
                report, _ = cli.run(argv)
                assert report["verdict"] != "error", argv
                out.append(strip_wall_time(rendered(report)))
            assert out[0] == out[1], argv[0]

    def test_report_metadata(self, rho_skew_file):
        report, _ = cli.run(["modular-check", "--rho", rho_skew_file, "--seed", "4"])
        assert report["seed"] == 4
        assert report["version"]
        assert report["request"]["rho"] == rho_skew_file

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ["decompose", "--map", "id", "--max-iter", "0"],
        ["hull-member", "--rho", "rho", "--xi", "xi", "--dims", "2,2", "--max-iter", "0"],
        ["map-analyze", "--map", "id", "--tests", "kpos=x"],
        ["decompose", "--map", "id_x"],
        ["decompose", "--map", "mix_abc"],
        ["decompose", "--map", "choi_dim_a"],
        ["probe", "--dims", "2,2", "--seed", "-1"],
        ["transfer-check", "--map", "id", "--rho", "rho", "--k", "0", "--seed", "0"],
        ["map-analyze", "--map", "id", "--tests", "kpos=2", "--restarts", "0"],
        ["transfer-check", "--map", "id", "--rho", "rho", "--trials", "0", "--seed", "0"],
        ["probe", "--dims", "2,2", "--trials", "0", "--seed", "0"],
        ["modular-check", "--rho", "rho", "--samples", "0", "--seed", "0"],
        ["stormer-verify", "--map", "id", "--eta", "eta", "--samples", "0"],
        ["map-analyze", "--map", "id", "--tests", ""],
        ["map-analyze", "--map", "id", "--tests", ","],
        ["decompose", "--map", "id", "--tol", "nan"],
        ["decompose", "--map", "id", "--tol", "-1"],
        ["cone-member", "--rho", "rho", "--xi", "xi2", "--cone", '{"kind": "natural"}',
         "--tol", "inf"],
    ], ids=["decompose-max-iter-0", "hull-max-iter-0", "kpos-x", "identity-x",
            "mix-weight-abc", "choi-dim-a", "seed-negative", "transfer-k-0",
            "kpos-restarts-0", "transfer-trials-0", "probe-trials-0",
            "modular-samples-0", "stormer-samples-0", "tests-empty", "tests-comma",
            "tol-nan", "tol-negative", "tol-inf"])
    def test_malformed_request_is_error_report(self, tmp_path, argv):
        inputs = {
            "id": {"key": "identity:2"},
            "eta": [[1, 0], [0, 0]],
            "id_x": {"key": "identity:x"},
            "mix_abc": {"key": "mix:abc:identity:2:identity:2"},
            "choi_dim_a": {"dim_in": "a", "dim_out": 2, "choi": matrix_json(np.eye(4))},
            "rho": matrix_json(np.eye(2) / 2),
            "xi": matrix_json(np.eye(4)),
            "xi2": matrix_json(np.eye(2) / np.sqrt(2)),
        }
        report, code = cli.run(with_files(tmp_path, argv, inputs))
        assert code == 2 and report["verdict"] == "error"
        json.loads(rendered(report), parse_constant=pytest.fail)

    @pytest.mark.parametrize("argv, inputs, error", [
        (["decompose", "--map", "map"], {"map": {"key": 5}}, "ParseError"),
        (["decompose", "--map", "map"],
         {"map": {"key": "adu:u", "matrices": 5}}, "ParseError"),
        (["cone-member", "--rho", "rho", "--xi", "xi",
          "--cone", '{"kind": "vbeta", "beta": "0.3"}'], {}, "ParseError"),
        (["cone-member", "--rho", "rho", "--xi", "xi",
          "--cone", '{"kind": "vbeta", "beta": false}'], {}, "ParseError"),
        (["cone-member", "--rho", "rho1", "--xi", "xi",
          "--cone", '{"kind": "natural_tensor", "dims": [true, 2]}'],
         {"rho1": matrix_json(np.eye(1))}, "ParseError"),
        (["modular-check", "--rho", "rho", "--seed", "0"],
         {"rho": {"rows": True, "cols": 1, "entries": [[1, 0]]}}, "ParseError"),
        (["modular-check", "--rho", "rho", "--seed", "0"],
         {"rho": {"rows": 1, "cols": 1, "entries": [[True, 0]]}}, "ParseError"),
        (["decompose", "--map", "map"],
         {"map": {"dim_in": "2", "dim_out": True, "choi": matrix_json(np.eye(2))}},
         "ParseError"),
        (["decompose", "--map", "map"],
         {"map": {"dim_in": 2.7, "dim_out": 2, "choi": matrix_json(np.eye(4))}},
         "ParseError"),
        (["decompose", "--map", "map"],
         {"map": {"dim_in": 1, "dim_out": 1, "choi": matrix_json(np.eye(1)),
                  "label": float("nan")}}, "ParseError"),
        (["map-analyze", "--map", "map", "--tests", "kpos=2"],
         {"map": {"key": "mix:nan:identity:2:transpose:2"}}, "BadChoi"),
        (["map-analyze", "--map", "map", "--tests", "kpos=2"],
         {"map": {"key": "mix:1e308:adu:v:transpose:2",
                  "matrices": {"v": matrix_json(2 * np.eye(2))}}}, "BadChoi"),
        (["decompose", "--map", "map"], {"map": {"key": "identity:0"}}, "BadChoi"),
        (["decompose", "--map", "map"], {"map": {"key": "transpose:-1"}}, "BadChoi"),
        (["stormer-build", "--map", "id", "--eta", "eta3"], {}, "ShapeMismatch"),
        (["stormer-verify", "--map", "id", "--eta", "eta3"], {}, "ShapeMismatch"),
        (["stormer-build", "--map", "id", "--face", "face"],
         {"face": {"xi": [[1, 0], [0, 0]], "eta": [[1, 0], [0, 0], [0, 0]]}}, "ShapeMismatch"),
        (["stormer-verify", "--map", "id", "--face", "face"],
         {"face": {"xi": [[1, 0], [0, 0]], "eta": [[1, 0], [0, 0], [0, 0]]}}, "ShapeMismatch"),
        (["stormer-build", "--map", "id", "--face", "face", "--eta", "eta2"],
         {"face": {"xi": [[1, 0], [0, 0]], "eta": [[1, 0], [0, 0]]},
          "eta2": [[0, 0], [1, 0]]}, "ParseError"),
        (["hull-member", "--rho", "rho", "--rho-b", "rho3", "--xi", "xi6", "--dims", "2,2"],
         {}, "ParseError"),
        (["cone-member", "--rho", "rho", "--rho-b", "rho3", "--xi", "xi6",
          "--cone", '{"kind": "natural_tensor", "dims": [2, 2]}'], {}, "ParseError"),
        (["cone-member", "--rho", "rho", "--rho-b", "rho3", "--xi", "xi",
          "--cone", '{"kind": "natural"}'], {}, "ParseError"),
        (["decompose", "--map", "map"],
         {"map": {"key": "mix:0.5:adu:u:identity:3", "matrices": {"u": matrix_json(np.eye(2))}}},
         "DimensionMismatch"),
        (["prop41", "--map", "id", "--face", "face"],
         {"face": {"xi": [[1, 0], [0, 0]], "eta": [[1, 0], [0, 0]]}}, "NotInFace"),
    ], ids=["key-number", "matrices-number", "beta-string", "beta-bool", "cone-dims-bool",
            "rows-bool", "entry-bool", "dims-string-and-bool", "dim-float", "label-nan",
            "mix-weight-nan", "mix-overflow", "identity-0",
            "transpose-negative", "stormer-build-eta-3", "stormer-verify-eta-3",
            "stormer-build-face-eta-3", "stormer-verify-face-eta-3",
            "stormer-build-face-and-eta", "hull-rho-b-3x3",
            "cone-rho-b-3x3", "rho-b-one-factor", "mix-dims-differ", "prop41-not-in-face"])
    def test_malformed_json_is_error_report(self, tmp_path, argv, inputs, error):
        """JSON of the wrong type or size exits 2 with a typed, strict-JSON error
        report, never a traceback: a bool is not a number, dims are JSON
        integers, Stormer's vectors are in C^2, a --face fixes eta so an --eta
        beside it would drop the face's, a --rho-b must fit the second
        factor of dims (a one-factor state reads none), and the identity,
        unital and positive, is outside the face of (e1, e1)."""
        inputs = {"rho": matrix_json(np.eye(2) / 2), "xi": matrix_json(np.eye(2) / 2),
                  "rho3": matrix_json(np.eye(3) / 3), "xi6": matrix_json(np.eye(6)),
                  "id": {"key": "identity:2"}, "eta3": [[1, 0], [0, 0], [0, 0]], **inputs}
        report, code = cli.run(with_files(tmp_path, argv, inputs))
        assert code == 2 and report["verdict"] == "error"
        assert report["error"]["type"] == error
        json.loads(rendered(report), parse_constant=pytest.fail)

    @pytest.mark.parametrize("cone, error, prefix", [
        ('{"kind": "transposed_tensor"}', "LayoutMismatch",
         "transposed_tensor requires a 2-factor layout"),
        ('{"kind": "natural", "beta": 0.3}', "UnsupportedKind", "natural takes no beta"),
    ], ids=["tensor-kind-without-dims", "beta-on-natural"])
    def test_cone_spec_error(self, tmp_path, cone, error, prefix):
        """A tensor kind without dims has a one-factor state, and only V_beta
        reads beta: both exit 2 with a typed error, not a verdict."""
        rho_file = write_json(tmp_path / "r.json", matrix_json(np.eye(2) / 2))
        report, code = cli.run(["cone-member", "--rho", rho_file, "--xi", rho_file,
                                "--cone", cone])
        assert code == 2 and report["verdict"] == "error"
        assert report["error"]["type"] == error
        assert report["error"]["message"].startswith(prefix)
        json.loads(rendered(report), parse_constant=pytest.fail)

    def test_non_finite_tol_echoed_as_text(self, transpose_map_file):
        report, code = cli.run(["decompose", "--map", transpose_map_file, "--tol", "nan"])
        assert code == 2 and report["request"]["tol"] == "nan"
        json.loads(rendered(report), parse_constant=pytest.fail)

    @pytest.mark.parametrize("argv", [
        ["no-such-command"],
        ["decompose"],
        ["probe", "--dims", "2,2", "--seed", "x"],
    ], ids=["unknown-subcommand", "missing-map", "seed-not-integer"])
    def test_argparse_error_exits_2_without_report(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err

    def test_report_shapes(self, tmp_path, rho_skew_file, transpose_map_file,
                           sym_map_file, face_file):
        """Key paths under report["result"], one request per subcommand."""
        rho2 = write_json(tmp_path / "r.json", matrix_json(np.eye(2) / 2))
        sx = write_json(tmp_path / "sx.json", matrix_json(SIGMA_X))
        minus_one = write_json(tmp_path / "m1.json", matrix_json(-np.eye(4)))
        id_map = write_json(tmp_path / "id.json", {"key": "identity:2"})
        face = ["--map", sym_map_file, "--face", face_file]
        requests = [
            ["modular-check", "--rho", rho_skew_file, "--samples", "2", "--seed", "0"],
            ["cone-member", "--rho", rho2, "--xi", sx, "--cone", '{"kind": "natural"}'],
            ["hull-member", "--rho", rho2, "--xi", minus_one, "--dims", "2,2"],
            ["probe", "--dims", "2,2", "--trials", "1", "--seed", "0"],
            ["map-analyze", "--map", transpose_map_file, "--tests", "cp,ccp,kpos=1",
             "--restarts", "2"],
            ["decompose", "--map", transpose_map_file],
            ["transfer-check", "--map", id_map, "--rho", rho2, "--k", "1",
             "--trials", "1", "--seed", "0"],
            ["stormer-build", *face],
            ["stormer-verify", *face, "--samples", "2"],
            ["prop41", *face],
        ]
        matrix = lambda name: [name, f"{name}.cols", f"{name}.entries", f"{name}.rows"]
        expected = {
            "modular-check": ["max_residual", "residuals", "residuals.commutant_map",
                              "residuals.commute_j_jm", "residuals.commute_j_u",
                              "residuals.commute_jm_u", "residuals.j_delta_commute",
                              "residuals.j_eq_u_jm", "residuals.tau_polar",
                              "residuals.tau_v0_invariance", "residuals.transpose_via_j",
                              "residuals.u_delta_u", "residuals.u_selfadjoint",
                              "residuals.u_squared"],
            "cone-member": ["inside", "residual", *matrix("witness")],
            "hull-member": ["inside", "iterations", "residual", "stop_reason",
                            *matrix("witness")],
            "probe": ["dims", "max_residual", "note", "trials"],
            "map-analyze": ["ccp", "cp", "kpos_1", "kpos_1.restarts", "kpos_1.value",
                            "kpos_1.violation_found", "label", "min_eig_choi",
                            "min_eig_choi_pt"],
            "decompose": [*matrix("ccp_part"), "converged", *matrix("cp_part"),
                          "iterations", "label", "residual", "stop_reason"],
            "transfer-check": ["criteria", "criteria.hull", "criteria.p", "criteria.pt",
                               "db_pairing_residual", "db_unital_residual",
                               "delta_commutation_residual", "label", "levels",
                               "levels.1", "levels.1.hull", "levels.1.p", "levels.1.pt"],
            "stormer-build": ["alpha", "basis_orthonormality_residual", "beta",
                              "face_case", "k_dim", "label", "left_ideal_dim",
                              "right_ideal_dim", *matrix("v_eta"), "v_lsq_residual",
                              "v_norm"],
            "stormer-verify": ["face_case", "k_dim", "label", "max_residual", "samples",
                               "v_norm"],
            "prop41": ["alfabeta_residual", "alpha", "beta", "conditions_hold",
                       "equality_holds", "eta2_residuals", "eta2_residuals.e11",
                       "eta2_residuals.e12", "eta2_residuals.e21", "eta2_residuals.e22",
                       "global_residual", "inconsistent", "label", "tr_residuals",
                       "tr_residuals.e12", "tr_residuals.e21", "tr_residuals.e22"],
        }

        assert sorted(r[0] for r in requests) == sorted(cli._HANDLERS)
        for argv in requests:
            report, _ = cli.run(argv)
            result = json.loads(rendered(report))["result"]
            assert sorted(key_paths(result)) == expected[argv[0]], argv[0]

    def test_report_shapes_without_optional_fields(self, tmp_path, rho_skew_file):
        """Key paths when the optional fields are absent: inside verdicts carry
        no witness, and a map in no face gets no alpha / beta."""
        rho2 = write_json(tmp_path / "r.json", matrix_json(np.eye(2) / 2))
        omega = write_json(tmp_path / "omega.json",
                           matrix_json(np.diag(np.sqrt([0.8, 0.2]))))
        swap = write_json(tmp_path / "swap.json", matrix_json(np.eye(4)[[0, 2, 1, 3]]))
        generic = write_json(tmp_path / "generic.json", {
            "key": "mix:0.3:adu:u:compose-t:adu:sx",
            "matrices": {"u": matrix_json(np.diag([1, 1j])), "sx": matrix_json(SIGMA_X)},
        })
        eta = write_json(tmp_path / "eta.json", [[0.6, 0], [0.8, 0]])
        requests = [
            ["cone-member", "--rho", rho_skew_file, "--xi", omega,
             "--cone", '{"kind": "natural"}'],
            ["hull-member", "--rho", rho2, "--xi", swap, "--dims", "2,2"],
            ["stormer-build", "--map", generic, "--eta", eta],
        ]
        expected = {
            "cone-member": ["inside", "residual"],
            "hull-member": ["inside", "iterations", "residual", "stop_reason"],
            "stormer-build": ["basis_orthonormality_residual", "face_case", "k_dim",
                              "label", "left_ideal_dim", "right_ideal_dim", "v_eta",
                              "v_eta.cols", "v_eta.entries", "v_eta.rows",
                              "v_lsq_residual", "v_norm"],
        }

        for argv in requests:
            report, code = cli.run(argv)
            assert code == 0, argv[0]
            result = json.loads(rendered(report))["result"]
            assert sorted(key_paths(result)) == expected[argv[0]], argv[0]
        assert result["face_case"] is False


def run_fresh(argv):
    """``python -m decomap.cli`` in a new interpreter that imports this package."""
    path = [str(Path(decomap.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "decomap.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


class TestFreshInterpreter:
    """What only a new process shows: the exit status, stdout holding one
    strict-JSON report (or nothing, beside an argparse usage), and report
    bytes that do not depend on the process."""

    @pytest.mark.parametrize("argv, code, verdict", [
        (["modular-check", "--rho", "rho", "--samples", "50", "--seed", "0"], 0, "satisfied"),
        (["map-analyze", "--map", "t3", "--tests", "kpos=2"], 1, "violated"),
        (["decompose", "--map", "id_x"], 2, "error"),
        (["probe", "--dims", "2,2", "--seed", "x"], 2, None),
    ], ids=["exit-0", "exit-1", "exit-2", "usage-exit-2"])
    def test_exit_status_and_stdout(self, tmp_path, argv, code, verdict):
        """The modular identities hold on the tracial state; the transposition
        of M_3 is not 2-positive (with kpos alone, exit 1 is a violation
        found); a bad registry key is an error report; a seed that is not an
        integer is an argparse usage.  A report's stdout is its sorted-key,
        two-space-indented JSON and one newline."""
        proc = run_fresh(with_files(tmp_path, argv, FILES))
        assert proc.returncode == code
        if verdict is None:
            assert proc.stdout == "" and "usage:" in proc.stderr
        else:
            report = json.loads(proc.stdout, parse_constant=pytest.fail)
            assert report["verdict"] == verdict and proc.stderr == ""
            assert proc.stdout == json.dumps(report, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ["modular-check", "--rho", "rho", "--samples", "50", "--seed", "0"],
        ["stormer-verify", "--map", "generic", "--eta", "eta", "--samples", "100"],
    ], ids=["modular-check", "stormer-verify"])
    def test_same_report_in_two_interpreters(self, tmp_path, argv):
        argv = with_files(tmp_path, argv, FILES)
        one, two = run_fresh(argv), run_fresh(argv)
        assert one.returncode == two.returncode == 0
        assert strip_wall_time(one.stdout) == strip_wall_time(two.stdout)


def cli_requests(text):
    """The lines of a workflow that run a decomap subcommand themselves."""
    subcommands = "|".join(map(re.escape, cli._HANDLERS))
    command = re.compile(rf"decomap\.cli\b|\bdecomap\s+({subcommands})\b")
    return [line.strip() for line in text.splitlines() if command.search(line)]


def test_ci_makes_no_cli_request():
    """The CLI contract has one home, the request tables of this suite: a CI
    step that runs decomap itself would be a second one that no local run
    checks."""
    assert cli_requests(CI_WORKFLOW.read_text(encoding="utf-8")) == []
    sample = ("PYTHONPATH=src python -m decomap.cli probe --dims 2,2\n"
              "  decomap decompose --map m.json\n"
              "python3 bench/run.py --workload decompose --seed 0\n")
    assert cli_requests(sample) == sample.splitlines()[:1] + ["decomap decompose --map m.json"]


def test_readme_usage_parses():
    """Every README line that starts with a ``decomap`` request parses with the
    CLI's own parser (parsed, not run), and each subcommand is shown once."""
    parser = cli.build_parser()
    shown = []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("decomap "):
            argv = shlex.split(line)[1:]
            parser.parse_args(argv)
            shown.append(argv[0])
    assert sorted(shown) == sorted(cli._HANDLERS)
