import csv
import json

import numpy as np
import pytest

from bsdkit.autgroups import aut_to_json, random_automorphism
from bsdkit.cli import main
from bsdkit.domains import parse_spec
from bsdkit.polymaps import catalog, coeff_distance, polymap_from_json, polymap_to_json


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    rc = main([*argv, "--out", str(out)])
    return rc, out


class TestVerifyCommand:
    def test_fu_single_domain(self, tmp_path):
        rc, out = run(tmp_path, "verify", "fu", "--domain", "I:2,2",
                      "--samples", "200", "--seed", "42", "--no-timestamp")
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["summary"] == {"total": 1, "passed": 1, "failed": 0}
        assert data["reports"][0]["check_id"] == "fu:I:2,2"
        assert "timestamp" not in data

    def test_timestamp_present_by_default(self, tmp_path):
        rc, out = run(tmp_path, "verify", "fu", "--domain", "I:2,2", "--samples", "20")
        assert rc == 0
        assert "timestamp" in json.loads(out.read_text())

    def test_failing_check_exits_one(self, tmp_path):
        rc, _ = run(tmp_path, "verify", "fu", "--domain", "IV:3",
                    "--samples", "40", "--no-timestamp")
        assert rc == 1

    def test_properness_with_map_selector(self, tmp_path):
        rc, out = run(tmp_path, "verify", "properness", "--map-a", "gen-whitney",
                      "--dims", "2,2", "--samples", "100", "--no-timestamp")
        assert rc == 0
        assert json.loads(out.read_text())["reports"][0]["pass"]

    def test_coeff_command(self, tmp_path):
        rc, out = run(tmp_path, "verify", "coeff", "--domain", "I:2,2",
                      "--samples", "5", "--no-timestamp")
        assert rc == 0
        assert json.loads(out.read_text())["summary"]["total"] == 4

    def test_csv_format(self, tmp_path):
        rc, out = run(tmp_path, "verify", "fu", "--domain", "III:2",
                      "--samples", "20", "--format", "csv", name="out.csv")
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "check_id"
        assert rows[1][-1] == "true"


class TestDistinguishCommand:
    def test_separates_parameters(self, tmp_path):
        rc, out = run(tmp_path, "distinguish", "--map-a", "f_t:0.2",
                      "--map-b", "f_t:0.8", "--no-timestamp")
        assert rc == 0
        assert json.loads(out.read_text())["verdict"] == "inequivalent"

    def test_same_parameter_indistinguishable(self, tmp_path):
        rc, out = run(tmp_path, "distinguish", "--map-a", "f_t:0.5",
                      "--map-b", "f_t:0.5", "--no-timestamp")
        assert rc == 0
        assert json.loads(out.read_text())["verdict"] == "indistinguishable-by-invariants"

    def test_dangelo_selector_carries_theta(self, tmp_path):
        rc, out = run(tmp_path, "distinguish", "--map-a", "dangelo:2,0.5",
                      "--map-b", "dangelo:2,0.5", "--no-timestamp")
        assert rc == 0
        assert json.loads(out.read_text())["verdict"] == "indistinguishable-by-invariants"

    def test_dangelo_without_theta_names_what_is_missing(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "distinguish", "--map-a", "dangelo:2", "--map-b", "dangelo:2")
        assert rc == 2
        assert "dangelo needs a dimension and --theta" in capsys.readouterr().err


class TestSweepCommand:
    def read_matrix(self, path):
        rows = list(csv.reader(path.read_text().splitlines()))
        return np.array([[float(x) for x in row[1:]] for row in rows[1:]])

    def test_f_t_grid(self, tmp_path):
        rc, out = run(tmp_path, "sweep", "--family", "f_t", "--grid", "0:1:0.1", name="m.csv")
        assert rc == 0
        m = self.read_matrix(out)
        assert m.shape == (11, 11)
        assert np.allclose(np.diag(m), 0.0)
        off = m[~np.eye(11, dtype=bool)]
        assert off.min() >= 0.015

    def test_single_point_grid(self, tmp_path):
        rc, out = run(tmp_path, "sweep", "--family", "f_t", "--grid", "0.5:0.5:0.1", name="m.csv")
        assert rc == 0
        assert self.read_matrix(out).shape == (1, 1)

    def test_G_t_22_matches_g_t(self, tmp_path):
        rc, out_g = run(tmp_path, "sweep", "--family", "G_t", "--dims", "2,2",
                        "--grid", "0:1:0.25", name="g.csv")
        assert rc == 0
        rc, out_l = run(tmp_path, "sweep", "--family", "g_t", "--grid", "0:1:0.25", name="l.csv")
        assert rc == 0
        assert np.max(np.abs(self.read_matrix(out_g) - self.read_matrix(out_l))) <= 1e-12

    def test_dims_for_a_family_without_dims_exits_two(self, tmp_path):
        rc, _ = run(tmp_path, "sweep", "--family", "f_t", "--dims", "9,9",
                    "--grid", "0:1:0.5", name="m.csv")
        assert rc == 2

    def test_G_t_without_dims_names_them(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "sweep", "--family", "G_t", "--grid", "0:1:0.5", name="m.csv")
        assert rc == 2
        assert "--dims r,s" in capsys.readouterr().err


class TestSampleEval:
    def test_sample_interior(self, tmp_path):
        rc, out = run(tmp_path, "sample", "--domain", "II:3", "--seed", "7", "--no-timestamp")
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["region"] == "interior"
        assert data["generic_norm"] > 0
        assert len(data["value"]) == 9

    def test_eval_map(self, tmp_path):
        rc, out = run(tmp_path, "eval", "--map-a", "whitney-ball:2", "--seed", "3",
                      "--no-timestamp")
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["image_classification"] == "interior"
        assert data["map"]["source"] == "I:1,2"

    @pytest.mark.parametrize("positional,flag_form", [
        (["G_t:2,2,0.5"], ["G_t:0.5", "--dims", "2,2"]),
        (["G_t:2,2,0.5"], ["G_t", "--dims", "2,2", "--t", "0.5"]),
        (["standard:2,2,3,3"], ["standard", "--dims", "2,2,3,3"]),
        (["dangelo:3,0.5"], ["dangelo:3", "--theta", "0.5"]),
    ])
    def test_eval_positional_and_flag_forms_agree(self, tmp_path, positional, flag_form):
        maps = []
        for name, selector in (("a.json", positional), ("b.json", flag_form)):
            rc, out = run(tmp_path, "eval", "--map-a", *selector, "--no-timestamp", name=name)
            assert rc == 0
            maps.append(polymap_from_json(json.loads(out.read_text())["map"]))
        assert coeff_distance(*maps) == 0.0

    def test_eval_map_file_roundtrip(self, tmp_path):
        payload = polymap_to_json(catalog("f_t", t=0.25))
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps(payload))
        rc, out = run(tmp_path, "eval", "--map-file", str(map_file), "--no-timestamp")
        assert rc == 0
        assert json.loads(out.read_text())["map"]["target"] == "I:4,4"

    def test_eval_aut_file(self, tmp_path):
        element = random_automorphism(parse_spec("III:2"), 11)
        aut_file = tmp_path / "aut.json"
        aut_file.write_text(json.dumps(aut_to_json(element)))
        rc, out = run(tmp_path, "eval", "--aut-file", str(aut_file), "--seed", "5",
                      "--no-timestamp")
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["membership_pass"] is True
        assert data["membership_residual"] <= 1e-10


class TestDeterminismAndErrors:
    def test_byte_identical_with_no_timestamp(self, tmp_path):
        args = ["invariants", "--map-a", "f_t:0.3", "--no-timestamp"]
        _, out1 = run(tmp_path, *args, name="a.json")
        _, out2 = run(tmp_path, *args, name="b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_invariants_schema(self, tmp_path):
        rc, out = run(tmp_path, "invariants", "--map-a", "f_t:0.5", "--no-timestamp")
        assert rc == 0
        data = json.loads(out.read_text())
        assert set(data["degrees"]) == {"1", "2"}
        assert len(data["degrees"]["1"]) == 4

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BSDKIT_SEED", "1234")
        _, out1 = run(tmp_path, "sample", "--domain", "I:2,2", "--no-timestamp", name="a.json")
        monkeypatch.setenv("BSDKIT_SEED", "5678")
        _, out2 = run(tmp_path, "sample", "--domain", "I:2,2", "--no-timestamp", name="b.json")
        assert out1.read_text() != out2.read_text()

    @pytest.mark.parametrize("argv", [
        ["distinguish", "--map-a", "nope:1", "--map-b", "f_t:0.5"],
        ["invariants", "--map-a", "f_t:1.5"],
        ["sample", "--domain", "V:3"],
        ["sweep", "--family", "f_t", "--grid", "oops"],
        ["verify", "nothing"],
        ["invariants", "--map-a", "f-sec4:1"],
        ["invariants", "--map-a", "whitney-ball:2,3"],
        ["verify", "properness", "--map-a", "gen-whitney", "--dims", "2,2,2"],
    ])
    def test_usage_errors_exit_two(self, argv, capsys):
        assert main([*argv, "--no-timestamp"]) == 2
