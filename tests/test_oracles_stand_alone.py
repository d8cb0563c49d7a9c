"""The reference implementations import nothing from the package they check.

tests/oracles.py is read with ast, not imported, so an import hidden behind a
branch or inside a function is found too.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def imported_modules(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return names


def test_oracles_import_no_mtqsim_module():
    names = imported_modules(ast.parse(ORACLES.read_text()))
    assert names  # the walk sees the module's own imports
    assert [n for n in names if n.split(".")[0] == "mtqsim"] == []
