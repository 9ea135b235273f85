"""Count the lines of each module of src/quditswap by kind.

    python3 tools/srclines.py [package-dir]

Prints, per module and in total, its code, docstring, comment and blank
lines, which add up to the module's line count. Docstring lines are the
spans of module, class and function docstrings, taken from ast; a comment
line holds only a comment; a blank line holds only whitespace, outside a
docstring; every other line is code. Uses only the standard library.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The module's line count of each kind."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "quditswap"
    rows = [(path.name, count(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", {kind: sum(c[kind] for _, c in rows) for kind in KINDS}))
    print(f"{'module':<14}" + "".join(f"{kind:>10}" for kind in KINDS + ("lines",)))
    for name, counts in rows:
        values = [counts[kind] for kind in KINDS]
        print(f"{name:<14}" + "".join(f"{v:>10}" for v in values + [sum(values)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
