"""No module under `src/tempcoh/` imports a name it never reads.

An import statement that carries `# noqa: F401` on any of its lines is
exempt: `cli` keeps such bindings because the benchmark patches them by
name. The check reads the modules with the standard library's `ast` only.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tempcoh"
NOQA = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in source order,
    leaving out `__future__` imports and statements marked NOQA."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imported = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any(NOQA in line for line in
                       lines[node.lineno - 1:node.end_lineno])):
            continue
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
    return [name for _, name in sorted(imported) if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from json import (dumps,  # noqa: F401\n"
              "                  loads)\n"
              "from math import inf, pi\n"
              "def f(x: np.ndarray) -> float:\n"
              "    return pi\n")
    assert unused_imports(source) == ["os", "inf"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
