import importlib.util
from pathlib import Path

import pytest

import bsdkit.verify

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_lines_with_a_token_outside_docstrings_and_comments(tmp_path, capsys):
    code_lines = load_tool("code_lines")
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '"""Module\n docstring."""\n'   # 2 docstring lines
        "\n"
        "# a comment\n"
        "def f(x):  # code with a comment\n"
        '    """One-line docstring."""\n'
        '    s = """a string\n'          # a string that is not a docstring: 2 code lines
        'on two lines"""\n'
        "    return (x,\n"
        "            s)\n")
    (package / "empty.py").write_text("")
    assert code_lines.count(package / "mod.py") == (10, 5)
    assert code_lines.main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0      0 empty.py", "    10      5 mod.py", "    10      5 total"]
    code_lines.main([str(ROOT / "src")])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][2] == "total" and len(rows) > 2
    assert [sum(int(row[k]) for row in rows[:-1]) for k in (0, 1)] == list(map(int, rows[-1][:2]))


def test_sample_digest_moves_with_one_draw_of_one_report(monkeypatch, capsys):
    sample_digest = load_tool("sample_digest")
    first = sample_digest.digests(7)
    assert list(first) == [row.check_id for row in bsdkit.verify.run_all(7)]
    assert sample_digest.digests(7) == first
    # Negate the points of the first sampler call only: later reports that
    # share its key stack get the run memo's unnegated points.
    sampler, calls = bsdkit.verify.sample_points, []

    def negate_first(spec, region, keys):
        calls.append(spec)
        points = sampler(spec, region, keys)
        return -points if len(calls) == 1 else points

    monkeypatch.setattr(bsdkit.verify, "sample_points", negate_first)
    moved = sample_digest.digests(7)
    assert [check_id for check_id in first if moved[check_id] != first[check_id]] == [
        next(iter(first))]
    monkeypatch.undo()
    assert sample_digest.main(["7"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[1] for row in rows] == [*first, "total"]
    assert [row.split()[0] for row in rows[:-1]] == list(first.values())


def test_report_times_prints_a_median_per_report_family_and_pass(capsys):
    report_times = load_tool("report_times")
    checks = {name: getattr(bsdkit.verify, name) for name in bsdkit.verify.__all__}
    assert report_times.main(["7", "2"]) == 0
    assert {name: getattr(bsdkit.verify, name) for name in checks} == checks
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    ids = [row.check_id for row in bsdkit.verify.run_all(7)]
    families = list(dict.fromkeys(f"family:{check_id.partition(':')[0]}" for check_id in ids))
    assert [key for _, key in rows] == [*ids, *families, "pass"]
    ms = {key: float(value) for value, key in rows}
    assert all(value > 0 for value in ms.values())
    # with two passes each median is a mean, and the reports run inside their pass
    assert sum(ms[key] for key in families) <= ms["pass"] + 0.01


def test_report_times_prefix_runs_only_the_reports_that_start_with_it(capsys, monkeypatch):
    report_times = load_tool("report_times")
    ran, check = [], bsdkit.verify.check_properness
    monkeypatch.setattr(bsdkit.verify, "check_properness",
                        lambda *a, **k: ran.append(k["check_id"]) or check(*a, **k))
    assert report_times.main(["7", "1", "properness:dangelo"]) == 0
    keys = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    ids = [f"properness:dangelo({n},pi/4)" for n in (2, 3, 4)]
    assert keys == [*ids, "family:properness", "pass"]
    assert ran == 2 * ids  # the untimed pass, then the timed one
    with pytest.raises(ValueError, match="^no report id starts with 'nothing'$"):
        report_times.main(["7", "1", "nothing"])


def test_product_times_prints_both_forms_of_every_product_of_a_pass(capsys):
    product_times = load_tool("product_times")
    kernel, cutoff = bsdkit.linalg._stack_product, bsdkit.linalg._OUTER_MAX_INNER
    served = product_times.served(7)
    assert bsdkit.domains._stack_product is kernel and bsdkit.autgroups._stack_product is kernel
    assert served and all(count >= 1 for count, _, _ in served.values())
    assert all((a.shape, b.shape) == key for key, (_, a, b) in served.items())
    assert product_times.main(["7", "2"]) == 0
    assert bsdkit.linalg._OUTER_MAX_INNER == cutoff
    *rows, total = capsys.readouterr().out.splitlines()
    assert len(rows) == len(served)
    for row, ((sa, sb), (count, _, _)) in zip(rows, served.items()):
        calls, inner, matmul, outer, pick = row.split()[:5]
        assert (int(calls), int(inner)) == (count, sa[-1])
        assert float(matmul) > 0 and float(outer) > 0
        assert pick.rstrip("*") == ("outer" if 0 < sa[-1] <= cutoff else "@")
        assert row.endswith(f"{sa} x {sb}")
    assert total.startswith("total  @ ") and total.endswith(" us per pass")
