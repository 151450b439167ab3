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
        from decomap import linalg
        omega = linalg.frac_power(np.diag([0.8, 0.2]), 0.5)
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
