"""Every name a genqr module imports is used in that module.

No lint package is installed, so this stdlib-`ast` check stands in for an
unused-import rule: a deletion must not leave its imports behind. The
package `__init__.py` (whose imports are re-exports) and `__future__`
imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "genqr"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never mentions."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`; `import a.b as c` binds `c`
            imported += [(node.lineno, a.asname or a.name.partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json\nfrom typing import List, Dict\n"
              "def f(x: List[int]) -> None:\n    os.path.join(json.dumps(x))\n")
    assert unused_imports(source) == [(4, "Dict")]
    assert unused_imports("import warnings\n") == [(1, "warnings")]
