import json

import numpy as np
import pytest

from decomap import cli, maps
from decomap.errors import ParseError

from conftest import SIGMA_X, matrix_json, random_matrix, write_json


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


def strip_wall_time(text):
    return "\n".join(l for l in text.splitlines() if '"wall_time"' not in l)


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
        capped and carries no witness, unlike a refuted member."""
        rho_file = write_json(tmp_path / "r.json", matrix_json(np.eye(2) / 2))
        swap_file = write_json(tmp_path / "swap.json", matrix_json(np.eye(4)[[0, 2, 1, 3]]))
        minus_file = write_json(tmp_path / "m1.json", matrix_json(-np.eye(4)))
        base = ["hull-member", "--rho", rho_file, "--dims", "2,2"]
        report, code = cli.run([*base, "--xi", swap_file, "--max-iter", "1"])
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

    @pytest.mark.parametrize("xi", ["swap", "minus_one", "upper", "sample"])
    def test_cone_member_answers_hull(self, tmp_path, xi):
        """cone-member with the hull kind gives hull-member's report: the
        same verdict, residual, witness, stop reason and iterations."""
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
        assert hull_code == cone_code != 2
        assert hull["verdict"] == cone["verdict"]
        assert hull["result"] == cone["result"]

    def test_probe(self):
        report, code = cli.run(["probe", "--dims", "2,3", "--trials", "5",
                                "--seed", "1"])
        assert code == 0 and report["result"]["max_residual"] <= 1e-8

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

    @pytest.mark.parametrize("k, code", [(2, 0), (3, 1)])
    def test_transfer_check_halved_choi_map(self, tmp_path, k, code):
        """Choi's map halved on M_3 with the tracial state: level 3 = m
        proves it outside the hull, and the report carries the witness."""
        choi = np.zeros((9, 9))
        for i in range(3):
            choi[4 * i, 4 * i] += 0.5
            choi[3 * i + (i - 1) % 3, 3 * i + (i - 1) % 3] += 0.5
            for j in range(3):
                if j != i:
                    choi[4 * i, 4 * j] -= 0.5
        map_file = write_json(tmp_path / "m.json",
                              {"dim_in": 3, "dim_out": 3, "choi": matrix_json(choi)})
        rho_file = write_json(tmp_path / "r.json", matrix_json(np.eye(3) / 3))
        report, got = cli.run(["transfer-check", "--map", map_file, "--rho", rho_file,
                               "--k", str(k), "--trials", "10", "--seed", "0"])
        assert got == code
        result = report["result"]
        assert result["criteria"]["hull"] is (k == 2)
        if k == 3:
            assert result["hull_failure"]["level"] == 3
            assert result["hull_failure"]["stop_reason"] == "certified"
            assert result["levels"]["3"]["hull"] == pytest.approx(0.17, abs=0.01)
            witness = cli.parse_matrix(result["hull_failure"]["witness"])
            assert np.linalg.norm(witness) == pytest.approx(1.0)
        else:
            assert "hull_failure" not in result


class TestContract:
    def test_error_exit_code(self, tmp_path):
        report, code = cli.run(["modular-check", "--rho",
                                str(tmp_path / "missing.json"), "--seed", "0"])
        assert code == 2 and report["verdict"] == "error"
        assert report["error"]["type"] == "ParseError"

    def test_determinism(self, transpose_map_file):
        out = []
        for _ in range(2):
            report, _ = cli.run(["map-analyze", "--map", transpose_map_file,
                                 "--tests", "cp,ccp,kpos=2", "--seed", "3"])
            out.append(strip_wall_time(cli.render_report(report)))
        assert out[0] == out[1]

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
        argv = [write_json(tmp_path / f"{a}.json", inputs[a]) if a in inputs else a
                for a in argv]
        report, code = cli.run(argv)
        assert code == 2 and report["verdict"] == "error"

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
        (["hull-member", "--rho", "rho", "--rho-b", "rho3", "--xi", "xi6", "--dims", "2,2"],
         {}, "ParseError"),
        (["cone-member", "--rho", "rho", "--rho-b", "rho3", "--xi", "xi6",
          "--cone", '{"kind": "natural_tensor", "dims": [2, 2]}'], {}, "ParseError"),
        (["cone-member", "--rho", "rho", "--rho-b", "rho3", "--xi", "xi",
          "--cone", '{"kind": "natural"}'], {}, "ParseError"),
    ], ids=["key-number", "matrices-number", "beta-string", "beta-bool", "cone-dims-bool",
            "rows-bool", "entry-bool", "dims-string-and-bool", "dim-float", "label-nan",
            "mix-weight-nan", "mix-overflow", "identity-0",
            "transpose-negative", "stormer-build-eta-3", "stormer-verify-eta-3",
            "stormer-build-face-eta-3", "stormer-verify-face-eta-3", "hull-rho-b-3x3",
            "cone-rho-b-3x3", "rho-b-one-factor"])
    def test_malformed_json_is_error_report(self, tmp_path, argv, inputs, error):
        """JSON of the wrong type or size exits 2 with a typed, strict-JSON error
        report, never a traceback: a bool is not a number, dims are JSON
        integers, Stormer's vectors are in C^2, and a --rho-b must fit the
        second factor of dims (a one-factor state reads none)."""
        inputs = {"rho": matrix_json(np.eye(2) / 2), "xi": matrix_json(np.eye(2) / 2),
                  "rho3": matrix_json(np.eye(3) / 3), "xi6": matrix_json(np.eye(6)),
                  "id": {"key": "identity:2"}, "eta3": [[1, 0], [0, 0], [0, 0]], **inputs}
        argv = [write_json(tmp_path / f"{a}.json", inputs[a]) if a in inputs else a
                for a in argv]
        report, code = cli.run(argv)
        assert code == 2 and report["verdict"] == "error"
        assert report["error"]["type"] == error
        json.loads(cli.render_report(report), parse_constant=pytest.fail)

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
        json.loads(cli.render_report(report), parse_constant=pytest.fail)

    def test_non_finite_tol_echoed_as_text(self, transpose_map_file):
        report, code = cli.run(["decompose", "--map", transpose_map_file, "--tol", "nan"])
        assert code == 2 and report["request"]["tol"] == "nan"
        json.loads(cli.render_report(report), parse_constant=pytest.fail)

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

        def key_paths(obj, prefix=""):
            for key, value in obj.items():
                yield prefix + key
                if isinstance(value, dict):
                    yield from key_paths(value, f"{prefix}{key}.")

        assert sorted(r[0] for r in requests) == sorted(cli._HANDLERS)
        for argv in requests:
            report, _ = cli.run(argv)
            result = json.loads(cli.render_report(report))["result"]
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

        def key_paths(obj, prefix=""):
            for key, value in obj.items():
                yield prefix + key
                if isinstance(value, dict):
                    yield from key_paths(value, f"{prefix}{key}.")

        for argv in requests:
            report, code = cli.run(argv)
            assert code == 0, argv[0]
            result = json.loads(cli.render_report(report))["result"]
            assert sorted(key_paths(result)) == expected[argv[0]], argv[0]
        assert result["face_case"] is False
