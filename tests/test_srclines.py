import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quditswap"

spec = importlib.util.spec_from_file_location("srclines", TOOLS / "srclines.py")
srclines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(srclines)


def table(capsys, argv):
    """main's printed rows as {name: [code, docstring, comment, blank, lines]}."""
    assert srclines.main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", *srclines.KINDS, "lines"]
    return {name: [int(v) for v in values] for name, *values in map(str.split, rows)}


def test_each_module_counts_every_line_once(capsys):
    rows = table(capsys, [str(PACKAGE)])
    modules = sorted(PACKAGE.glob("*.py"))
    assert list(rows) == [path.name for path in modules] + ["total"]
    for path in modules:
        lines = len(path.read_text(encoding="utf-8").splitlines())
        assert sum(srclines.count(path).values()) == lines
        assert rows[path.name][-1] == sum(rows[path.name][:-1]) == lines
    assert rows["total"] == [sum(rows[path.name][i] for path in modules)
                             for i in range(5)]


def test_default_package_is_the_source_tree(capsys):
    assert table(capsys, []) == table(capsys, [str(PACKAGE)])


def test_a_known_module_counts_exactly(tmp_path, capsys):
    (tmp_path / "known.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "\n"
        "def f():\n"
        "    '''One-line docstring.'''\n"
        "    # an indented comment\n"
        "    return '''a string,\n"
        "\n"
        "not a docstring'''\n", encoding="utf-8")
    expected = {"code": 4, "docstring": 3, "comment": 2, "blank": 4}
    assert srclines.count(tmp_path / "known.py") == expected
    rows = table(capsys, [str(tmp_path)])
    assert rows == {"known.py": [4, 3, 2, 4, 13], "total": [4, 3, 2, 4, 13]}
