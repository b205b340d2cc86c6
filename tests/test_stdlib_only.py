"""fanlex needs nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import fanlex

SOURCES = sorted(Path(fanlex.__file__).parent.glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "fanlex" and top not in sys.stdlib_module_names:
                    outside.add(f"{path.name}: {name}")
    assert not outside
