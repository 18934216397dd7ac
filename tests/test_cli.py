import argparse
import csv
import inspect
import json
import random
import time

import numpy as np
import pytest

import bsdkit.cli
import bsdkit.domains
from bsdkit.autgroups import aut_to_json, random_automorphism
from bsdkit.cli import main
from bsdkit.domains import parse_spec
from bsdkit.invariants import distinguish
from bsdkit.polymaps import catalog, coeff_distance, polymap_from_json, polymap_to_json
from bsdkit.verify import (check_coefficient_lemma, check_composition_rule, check_F_U_lemma,
                           check_properness)


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

    def test_factorization_notes_the_exact_coefficients(self, tmp_path):
        rc, out = run(tmp_path, "verify", "factorization", "--map-a", "whitney-ball:2",
                      "--no-timestamp")
        assert rc == 0
        [report] = json.loads(out.read_text())["reports"]
        assert report["pass"]
        assert [note.split(":")[0] for note in report["notes"]] == ["1", "z12*conj(w12)"]

    def test_factorization_lattice_too_small_exits_two(self, tmp_path):
        rc, _ = run(tmp_path, "verify", "factorization", "--map-a", "whitney-ball:2",
                    "--samples", "3", "--no-timestamp")
        assert rc == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_tolerance_exits_two(self, tmp_path, capsys, tol):
        rc, out = run(tmp_path, "verify", "fu", "--domain", "I:2,2", "--samples", "5",
                      "--tol", tol, "--no-timestamp")
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: --tol must be nonnegative and finite, got {float(tol)}\n"

    def test_zero_tolerance_is_accepted(self, tmp_path):
        rc, out = run(tmp_path, "verify", "fu", "--domain", "I:2,2", "--samples", "5",
                      "--tol", "0", "--no-timestamp")
        assert rc in (0, 1)
        assert json.loads(out.read_text())["reports"][0]["tolerance"] == 0.0

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

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_tolerance_exits_two(self, tmp_path, capsys, tol):
        rc, out = run(tmp_path, "distinguish", "--map-a", "f_t:0.3", "--map-b", "f_t:0.3",
                      "--tol", tol, "--no-timestamp")
        assert rc == 2 and not out.exists()
        assert "tol must be nonnegative and finite" in capsys.readouterr().err

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

    def test_a_grid_outside_the_unit_interval_gets_the_builder_error(self, tmp_path, capsys):
        # the grid's largest point is built first, so the error names it
        rc, out = run(tmp_path, "sweep", "--family", "f_t", "--grid", "0:2:0.5", name="m.csv")
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == "error: family parameter t must lie in [0, 1], got 2.0\n"

    @pytest.mark.parametrize("grid,built", [
        ("0:1.5:0.0015", [1.5]),
        ("-0.5:1:0.5", [1.0, -0.5]),
        ("0:1:0.5", [1.0, 0.0, 0.5, 1.0]),
    ])
    def test_the_grid_ends_are_checked_before_the_map_loop(self, tmp_path, monkeypatch,
                                                           grid, built):
        calls, select_map = [], bsdkit.cli.select_map

        def counted(family, dims=None, t=None):
            calls.append(t)
            return select_map(family, dims=dims, t=t)

        monkeypatch.setattr(bsdkit.cli, "select_map", counted)
        rc, _ = run(tmp_path, "sweep", "--family", "G_t", "--dims", "3,3", f"--grid={grid}",
                    name="m.csv")
        assert rc == (0 if built[-1] == 1.0 else 2)
        assert calls == built

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
        ["sample", "--domain", "I:2,2"],
        ["eval", "--map-a", "whitney-ball:2"],
        ["verify", "fu", "--domain", "I:2,2", "--samples", "5"],
    ])
    def test_malformed_seed_env_exits_two_with_an_error_line(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("BSDKIT_SEED", "abc")
        assert main([*argv, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: BSDKIT_SEED must be an integer, got 'abc'\n"
        assert captured.out == ""
        assert main([*argv, "--seed", "3", "--no-timestamp"]) == 0  # --seed wins

    @pytest.mark.parametrize("argv", [
        ["verify", "all"],
        ["sample", "--domain", "I:2,2"],
        ["eval", "--map-a", "whitney-ball:2"],
    ])
    def test_negative_seed_exits_two_with_an_error_line(self, argv, monkeypatch, capsys):
        assert main([*argv, "--seed", "-1", "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be nonnegative, got -1\n"
        assert captured.out == ""
        monkeypatch.setenv("BSDKIT_SEED", "-5")
        assert main([*argv, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: BSDKIT_SEED must be nonnegative, got -5\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["distinguish", "--map-a", "nope:1", "--map-b", "f_t:0.5"],
        ["invariants", "--map-a", "f_t:1.5"],
        ["sample", "--domain", "V:3"],
        ["sweep", "--family", "f_t", "--grid", "oops"],
        ["verify", "nothing"],
        ["invariants", "--map-a", "f-sec4:1"],
        ["invariants", "--map-a", "whitney-ball:2,3"],
        ["verify", "properness", "--map-a", "gen-whitney", "--dims", "2,2,2"],
        ["sweep", "--family", "f_t", "--grid", "nan:1:0.5"],
        ["sweep", "--family", "f_t", "--grid", "0:1:nan"],
        ["sweep", "--family", "f_t", "--grid=0:inf:0.5"],
        ["sweep", "--family", "f_t", "--grid=-inf:1:0.5"],
        ["sweep", "--family", "f_t", "--grid=0:1:inf"],
        ["sweep", "--family", "f_t", "--grid", "1:0:0.1"],
        ["sweep", "--family", "f_t", "--grid", "0:2:0.5"],
    ])
    def test_usage_errors_exit_two(self, argv, capsys):
        assert main([*argv, "--no-timestamp"]) == 2


class TestCheckFlags:
    @pytest.mark.parametrize("argv", [
        ["verify", "coeff", "--samples", "-1"],
        ["verify", "coeff", "--samples", "0"],
        ["verify", "properness", "--map-a", "f-sec4", "--samples", "0"],
        ["verify", "properness", "--map-a", "f-sec4", "--samples", "-3"],
        ["verify", "fu", "--domain", "I:2,2", "--samples", "-5"],
        ["verify", "composition", "--samples", "0"],
    ])
    def test_non_positive_samples_exit_two_with_an_error_line(self, argv, capsys):
        assert main([*argv, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --samples must be positive, got {argv[-1]}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv,check,count", [
        (["verify", "fu", "--domain", "III:2"], check_F_U_lemma, "n_samples"),
        (["verify", "composition"], check_composition_rule, "n_samples"),
        (["verify", "coeff", "--domain", "II:4"], check_coefficient_lemma, "n_bases"),
        (["verify", "properness", "--map-a", "whitney-ball:2"], check_properness, "n_samples"),
    ])
    def test_defaults_come_from_the_check_signature(self, tmp_path, argv, check, count):
        params = inspect.signature(check).parameters
        rc, out = run(tmp_path, *argv, "--no-timestamp")
        assert rc == 0
        for report in json.loads(out.read_text())["reports"]:
            assert report["samples"] == params[count].default
            assert report["tolerance"] == params["tol"].default

    def test_distinguish_default_comes_from_its_signature(self, tmp_path, monkeypatch):
        # A stand-in with another default shows whether the CLI passes its own.
        seen = []

        def recording(fa, fb, tol=0.25):
            seen.append(tol)
            return distinguish(fa, fb, tol)

        monkeypatch.setattr(bsdkit.cli, "distinguish", recording)
        argv = ["distinguish", "--map-a", "f_t:0.3", "--map-b", "f_t:0.4", "--no-timestamp"]
        assert run(tmp_path, *argv)[0] == 0
        assert run(tmp_path, *argv, "--tol", "0.5")[0] == 0
        assert seen == [0.25, 0.5]

    @pytest.mark.parametrize("argv,named", [
        (["all", "--tol", "-1", "--samples", "-3"], "--tol"),
        (["all", "--tol", "0.5"], "--tol"),
        (["all", "--samples", "3"], "--samples"),
        (["all", "--domain", "I:2,2"], "--domain"),
        (["fu", "--map-a", "f-sec4"], "--map-a"),
        (["coeff", "--domain", "I:2,2", "--dims", "2,2"], "--dims"),
        (["composition", "--domain", "V:9", "--map-a", "nope", "--samples", "3"], "--domain"),
        (["properness", "--map-a", "f-sec4", "--domain", "I:2,2"], "--domain"),
        (["factorization", "--map-a", "f-sec4", "--domain", "I:2,2"], "--domain"),
    ])
    def test_verify_all_rejects_them_before_any_check_runs(self, monkeypatch, capsys, argv,
                                                           named):
        # every check rejects the options it does not read, `all` --tol and --samples too
        def no_run(*args, **kwargs):
            raise AssertionError("a check was called")

        monkeypatch.setattr(bsdkit.cli, "run_all", no_run)
        for name in bsdkit.verify.__all__:
            if name.startswith("check_"):
                monkeypatch.setattr(bsdkit.verify, name, no_run)
        assert main(["verify", *argv, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {named} does not apply to verify {argv[0]}\n"
        assert captured.out == ""

    def test_given_flags_reach_the_check(self, tmp_path):
        rc, out = run(tmp_path, "verify", "coeff", "--domain", "III:2", "--samples", "3",
                      "--tol", "0.5", "--no-timestamp")
        assert rc == 0
        reports = json.loads(out.read_text())["reports"]
        assert [(r["samples"], r["tolerance"]) for r in reports] == [(3, 0.5)] * 3


class TestMalformedFiles:
    MAP = {"source": "I:1,2", "target": "I:1,3",
           "entries": [{"row": 1, "col": 1, "terms": [{"exps": {"z11": 1}, "re": 1.0}]}]}

    @pytest.mark.parametrize("option,text", [
        ("--map-file", json.dumps({"source": "I:1,2", "target": "I:1,3"})),
        ("--map-file", "this is not JSON {"),
        ("--map-file", json.dumps({**MAP, "entries": [
            {"row": 1, "col": 1, "terms": [{"exps": {"z11": 1}, "re": "x"}]}]})),
        ("--aut-file", json.dumps({"spec": "I:1,2"})),
    ], ids=["map-without-entries", "map-not-json", "map-non-numeric-re", "aut-without-matrix"])
    def test_exits_two_with_an_error_line(self, tmp_path, capsys, option, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc, _ = run(tmp_path, "eval", option, str(path), "--no-timestamp")
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    NAN_MAP = {**MAP, "entries": [
        {"row": 1, "col": 1, "terms": [{"exps": {"z11": 1}, "re": float("nan")}]}]}
    NAN_AUT = {"spec": "I:1,2", "matrix": [[1.0, 0.0]] * 8 + [[float("nan"), 0.0]]}

    @pytest.mark.parametrize("command,option,data", [
        ("eval", "--aut-file", NAN_AUT),
        ("invariants", "--map-file", NAN_MAP),
        ("eval", "--map-file", NAN_MAP),
    ], ids=["eval-aut-nan", "invariants-map-nan", "eval-map-nan"])
    def test_non_finite_json_exits_two_with_one_error_line(self, tmp_path, capsys, command,
                                                           option, data):
        # Python's json reads NaN and Infinity, so the loaders must reject them
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, out = run(tmp_path, command, option, str(path), "--no-timestamp")
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_map_with_a_duplicate_entry_exits_two_with_one_error_line(self, tmp_path, capsys):
        # z11 and then z11^2 at row 1, col 1 once loaded as z11^2 alone
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({**self.MAP, "entries": [
            *self.MAP["entries"],
            {"row": 1, "col": 1, "terms": [{"exps": {"z11": 2}, "re": 1.0}]}]}))
        rc, out = run(tmp_path, "verify", "properness", "--map-file", str(path),
                      "--no-timestamp")
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err == "error: duplicate entry at (row 1, col 1)\n"

    def test_well_formed_map_still_loads(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(self.MAP))
        rc, _ = run(tmp_path, "eval", "--map-file", str(path), "--no-timestamp")
        assert rc == 0


class TestOptionsWhereRead:
    COMMANDS = {
        "invariants": ["invariants", "--map-a", "f_t:0.3"],
        "distinguish": ["distinguish", "--map-a", "f_t:0.3", "--map-b", "f_t:0.4"],
        "sweep": ["sweep", "--family", "f_t", "--grid", "0:1:0.5"],
        "sample": ["sample", "--domain", "I:2,2"],
        "eval": ["eval", "--map-a", "whitney-ball:2"],
    }
    REMOVED = {
        "invariants": ["--seed", "--tol", "--samples", "--format"],
        "distinguish": ["--seed", "--samples", "--format"],
        "sweep": ["--seed", "--tol", "--samples", "--format"],
        "sample": ["--tol", "--samples", "--format"],
        "eval": ["--tol", "--samples", "--format", "--domain"],
    }

    @pytest.mark.parametrize("command,option", [(c, o) for c, opts in REMOVED.items() for o in opts])
    def test_option_a_command_does_not_read_exits_two(self, tmp_path, capsys, command, option):
        value = "csv" if option == "--format" else "IV:3" if option == "--domain" else "1"
        rc, out = run(tmp_path, *self.COMMANDS[command], option, value, "--no-timestamp")
        assert rc == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_runs_without_them(self, tmp_path, command):
        rc, out = run(tmp_path, *self.COMMANDS[command], "--no-timestamp")
        assert rc == 0 and out.exists()


@pytest.fixture
def fresh_parser():
    """An empty parser cache before and after the test, so the test builds
    its own grammar and leaves none behind."""
    bsdkit.cli._build_parser.cache_clear()
    yield
    bsdkit.cli._build_parser.cache_clear()


class TestParserBuiltOnce:
    def test_ten_calls_build_the_grammar_once(self, tmp_path, monkeypatch, capsys, fresh_parser):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(bsdkit.cli.argparse.ArgumentParser, "__init__", counting_init)
        calls = [
            ["distinguish", "--map-a", "f_t:0.2", "--map-b", "f_t:0.8"],
            ["distinguish", "--map-a", "f_t:0.5", "--map-b", "f_t:0.5"],
            ["invariants", "--map-a", "f_t:0.3"],
            ["invariants", "--map-a", "g_t:0.7"],
            ["verify", "coeff", "--domain", "I:1,1"],
            ["verify", "coeff", "--domain", "I:1,2"],
            ["sample", "--domain", "I:2,2"],
            ["sample", "--domain", "IV:3", "--seed", "7"],
            ["distinguish", "--map-a", "f_t:0.3"],
            ["distinguish", "--map-a", "f_t:0.3", "--map-b", "f_t:0.4"],
        ]
        codes = [main([*argv, "--no-timestamp", "--out", str(tmp_path / f"{n}.json")])
                 for n, argv in enumerate(calls)]
        assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 2, 0]
        assert "the following arguments are required: --map-b" in capsys.readouterr().err
        # one top-level parser and one subparser per command, all from the first call
        assert built.count("bsdkit") == 1
        assert len(built) == 1 + len(bsdkit.cli._COMMANDS)

    def test_each_call_answers_as_a_first_call_would(self, tmp_path, capsys, fresh_parser):
        def outcome(argv, name):
            out = tmp_path / name
            rc = main([*argv, "--out", str(out)])
            captured = capsys.readouterr()
            return rc, captured.out, captured.err, out.read_text() if out.exists() else None

        calls = [
            ["distinguish", "--map-a", "dangelo:2", "--map-b", "dangelo:2"],
            ["--help"],
            ["distinguish", "--map-a", "f_t:0.2", "--map-b", "f_t:0.8", "--no-timestamp"],
            ["invariants", "--map-a", "f_t:0.3", "--no-timestamp"],
        ]
        in_sequence = [outcome(argv, f"seq-{n}.json") for n, argv in enumerate(calls)]
        first_calls = []
        for n, argv in enumerate(calls):
            bsdkit.cli._build_parser.cache_clear()
            first_calls.append(outcome(argv, f"first-{n}.json"))
        assert in_sequence == first_calls
        rejected, usage, compared, spectra = in_sequence
        assert rejected == (2, "", "error: dangelo needs a dimension and --theta\n", None)
        assert usage[0] == 0 and usage[1].startswith("usage: bsdkit")
        assert json.loads(compared[3])["verdict"] == "inequivalent"
        assert compared[:3] == spectra[:3] == (0, "", "")
        assert set(json.loads(spectra[3])["degrees"]) == {"1", "2"}


class TestCaps:
    @pytest.mark.parametrize("grid", ["0:1:1e-9", "0:1:0.000999", "-1e308:1e308:1", "0:1:1e-320"])
    def test_a_grid_over_the_cap_exits_two_before_it_is_built(self, grid, capsys):
        assert main(["sweep", "--family", "f_t", f"--grid={grid}", "--no-timestamp"]) == 2
        assert capsys.readouterr().err == (f"error: --grid {grid!r} has more than "
                                           f"{bsdkit.cli.MAX_GRID_POINTS} points\n")

    def test_the_largest_grid_under_the_cap_parses(self):
        assert len(bsdkit.cli._parse_grid("0:1:0.001")) == bsdkit.cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("argv", [
        ["sample", "--domain", "I:99999,99999"],
        ["sample", "--domain", "IV:4097"],
        ["sample", "--domain", "III:65"],
        ["invariants", "--map-a", "whitney-ball:99999"],
        ["verify", "properness", "--map-a", "gen-whitney", "--dims", "99999,99999"],
    ])
    def test_a_carrier_over_the_cap_exits_two(self, argv, capsys):
        assert main([*argv, "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(
            f"carrier entries, more than the cap {bsdkit.domains.MAX_CARRIER_ENTRIES}\n")

    # z11^100 on I:2,2 was killed while its 4.6e6 monomials of degree <= 100 were
    # enumerated, and G_t(32, 32) would have a 4032 x 524,800 degree-2 operator
    POWER_MAP = {"source": "I:2,2", "target": "I:2,2",
                 "entries": [{"row": 1, "col": 1, "terms": [{"exps": {"z11": 100}, "re": 1.0}]}]}

    @pytest.mark.parametrize("selector", ["z11^100", "G_t:32,32,0.5"])
    def test_a_map_over_the_operator_cap_exits_two_before_it_is_built(self, tmp_path, capsys,
                                                                      selector):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(self.POWER_MAP))
        argv = ["--map-file", str(path)] if selector == "z11^100" else ["--map-a", selector]
        start = time.perf_counter()
        assert main(["invariants", *argv, "--no-timestamp"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: map of ") and err.endswith(
            f"exceed {bsdkit.domains.MAX_OPERATOR_ENTRIES} entries\n")


def power_map(degree):
    """The map z11 -> z11^degree of I:1,1, as JSON."""
    return {"source": "I:1,1", "target": "I:1,1",
            "entries": [{"row": 1, "col": 1, "terms": [{"exps": {"z11": degree}, "re": 1.0}]}]}


class TestHighDegreeMaps:
    def test_a_degree_past_the_recursion_limit_evaluates(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(power_map(2000)))
        rc, out = run(tmp_path, "eval", "--map-file", str(path), "--no-timestamp")
        assert rc == 0
        assert json.loads(out.read_text())["map"]["entries"][0]["terms"][0]["exps"] == {"z11": 2000}

    @pytest.mark.parametrize("degree", [171, 2000])
    def test_spectra_past_float64_exit_two(self, tmp_path, capsys, degree):
        # sqrt(171!) overflows float64; the spectrum once read [NaN] with exit 0
        path = tmp_path / "map.json"
        path.write_text(json.dumps(power_map(degree)))
        rc, out = run(tmp_path, "invariants", "--map-file", str(path), "--no-timestamp")
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: weighted operators of a map of I:1,1 into I:1,1 exceed float64 "
            f"(its monomials reach degree {degree})\n")

    def test_degree_170_keeps_its_spectrum(self, tmp_path, capsys):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(power_map(170)))
        rc, out = run(tmp_path, "invariants", "--map-file", str(path), "--no-timestamp")
        assert rc == 0 and capsys.readouterr().err == ""
        assert json.loads(out.read_text())["degrees"] == {"170": [2.6939590968142025e+153]}


def reject_constant(name):
    raise ValueError(f"{name} in a JSON output")


def fuzz_calls(tmp_path, count):
    """``count`` seeded command lines over all six commands: every required
    option and about a third of the others, each with a value drawn from a
    small pool of good, edge and bad values."""
    good_map = tmp_path / "map.json"
    good_map.write_text(json.dumps(polymap_to_json(catalog("whitney-ball", n=2))))
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps(aut_to_json(random_automorphism(parse_spec("I:1,2"), 3))))
    not_json = tmp_path / "bad.json"
    not_json.write_text("{")
    files = [str(good_map), str(aut), str(not_json), str(tmp_path / "missing.json")]
    fractional_exponent = polymap_to_json(catalog("whitney-ball", n=2))
    fractional_exponent["entries"][0]["terms"][0]["exps"] = {"z11": 1.5}
    fractional_row = polymap_to_json(catalog("whitney-ball", n=2))
    fractional_row["entries"][0]["row"] = 1.5
    for name, data in (("pow171", power_map(171)), ("pow2000", power_map(2000)),
                       ("frac-exp", fractional_exponent), ("frac-row", fractional_row)):
        files.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    maps = ["whitney-ball:2", "f_t:0.3", "dangelo:2,0.5", "h_t", "G_t:2,2,0.5", "f_t:1.5",
            "nope", "whitney-ball:99999", "gen-whitney", ""]
    pools = {
        "--domain": ["I:1,1", "II:2", "III:1", "IV:2", "I:2,3", "I:3,2", "II:1", "IV:0", "V:3",
                     "I:2", "I:99999,99999", "x"],
        "--map-a": maps, "--map-b": maps, "--map-file": files, "--aut-file": files,
        "--seed": ["0", "7", "-1", "4294967296", "x"], "--dims": ["2,2", "1,1", "2", "x", "0,0"],
        "--t": ["0.5", "0", "-1", "nan"], "--theta": ["0.5", "2", "nan"],
        "--tol": ["1e-9", "0", "3", "nan"], "--samples": ["1", "3", "0", "-2", "x"],
        "--format": ["json", "csv", "xml"], "--family": ["f_t", "g_t", "G_t", "h_t", "q_t"],
        "--region": ["interior", "boundary", "edge"],
        "--grid": ["0:1:0.5", "0.5:0.5:0.1", "0:1:1e-9", "nan:1:0.5", "1:0:0.1", "0:1", "0:2:1"],
    }
    # per command: its positional choices, its required options, its other options
    commands = {
        "verify": [["fu", "coeff", "composition", "properness", "factorization", "nothing"], [],
                   ["--domain", "--map-a", "--map-file", "--t", "--theta", "--dims", "--seed",
                    "--tol", "--samples", "--format"]],
        "invariants": [[], [], ["--map-a", "--map-file", "--t", "--theta", "--dims"]],
        "distinguish": [[], ["--map-a", "--map-b"], ["--dims", "--tol"]],
        "sweep": [[], ["--family", "--grid"], ["--dims"]],
        "sample": [[], ["--domain"], ["--region", "--seed"]],
        "eval": [[], [], ["--map-a", "--map-file", "--aut-file", "--t", "--theta", "--dims",
                          "--seed"]],
    }
    rng = random.Random(1)
    for n in range(count):
        command = rng.choice(sorted(commands))
        positional, required, optional = commands[command]
        argv = [command, *([rng.choice(positional)] if positional else [])]
        for option in required + [o for o in optional if rng.random() < 0.3]:
            argv += [option, rng.choice(pools[option])]
        yield argv + ["--no-timestamp", "--out", str(tmp_path / f"out-{n}")]


class TestFuzz:
    def test_seeded_command_lines_exit_cleanly(self, tmp_path, capsys):
        codes = {}
        for argv in fuzz_calls(tmp_path, 600):
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc in (0, 1, 2) and "Traceback" not in err, (argv, rc, err)
            out = tmp_path / argv[-1]
            if out.exists() and argv[0] != "sweep" and "csv" not in argv:
                json.loads(out.read_text(), parse_constant=reject_constant)
            assert rc != 1 or argv[0] == "verify", argv
            codes.setdefault(argv[0], set()).add(rc)
        assert sorted(codes) == sorted(bsdkit.cli._COMMANDS)
        assert all(2 in c for c in codes.values()) and {0, 1} <= codes["verify"]
