"""Every top-level function and class in src/mtqsim is read outside its own body.

Code that only tests use belongs in tests/. So a library definition must be
named somewhere else: in another top-level statement of the library, in a
demo, in a README python block, or in bench/tracing.py's TRACED, which is read
with ast as test_traced_names.py reads it. "Named" means an ast Name or
Attribute node or an imported name, so a docstring or comment does not count.
The match is by name alone: a local variable of the same name counts too.
"""

import ast
import re
from pathlib import Path

from test_traced_names import traced_names

ROOT = Path(__file__).parents[1]
LIBRARY = ROOT / "src" / "mtqsim"


def names_in(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return names


def readers_outside_the_library() -> set[str]:
    names = {part for _, name in traced_names() for part in name.split(".")}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        names |= names_in(ast.parse(demo.read_text()))
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks  # the pattern still finds README's examples
    for block in blocks:
        names |= names_in(ast.parse(block))
    return names


def test_every_library_definition_has_a_reader():
    # (file, top-level statement, names in it) for every statement of the library
    statements = [
        (path.name, node, names_in(node))
        for path in sorted(LIBRARY.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    outside = readers_outside_the_library()
    unread = [
        f"{file}:{node.name}"
        for file, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in outside
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]
    assert unread == []
