import importlib.util
from pathlib import Path

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
