"""Every norm and accumulator column of a record is named in ``criteria``:
no other module of the package holds a string that builds a column name.

A column named in two places can drift apart, and a report that reads the
columns (a verdict, an error bar or a bound per accumulator) would then walk
a list that ``criteria.CriterionSpec.columns`` and
``criteria.bootstrap_columns`` no longer state alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torusmhd"
# an accumulator column's prefix and the bootstrap norms' suffix
MARKS = ("acc_", "_LN")


def _docstrings(tree) -> set[int]:
    """The ids of the docstring nodes of a module and its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def column_strings(source: str) -> list[tuple[int, str]]:
    """(line, text) of each string constant or f-string part holding a column
    mark; docstrings, which name columns without building them, left out."""
    tree = ast.parse(source)
    docs = _docstrings(tree)
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docs and any(m in node.value for m in MARKS)
    ]


def test_column_names_are_built_only_in_criteria():
    found = {
        f"{path.name}:{line}": text
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "criteria.py"
        for line, text in column_strings(path.read_text())
    }
    assert found == {}, "column names built outside criteria.py"


def test_the_guard_sees_constants_and_fstring_parts():
    source = '"""Writes acc_x and gradu_LN."""\nkey = f"acc_bootstrap_{tag}"\nrow["gradu_LN"] = 0.0\n'
    assert sorted(column_strings(source)) == [(2, "acc_bootstrap_"), (3, "gradu_LN")]
    # and criteria.py, where the names are built, is where it finds them
    assert column_strings((PACKAGE / "criteria.py").read_text())
