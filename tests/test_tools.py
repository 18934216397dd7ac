import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_code_lines_counts_lines_with_a_token_outside_docstrings_and_comments(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
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
