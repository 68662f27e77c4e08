"""Every module reads every name it imports.

The package's `__init__.py` is left out: its imports are the public API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """Names bound by an import in `path` that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def checked_files():
    files = sorted((ROOT / "src" / "matroid_invariants").glob("*.py"))
    files = [f for f in files if f.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    files += sorted((ROOT / "demos").glob("*.py"))
    return files


def test_no_unused_imports():
    found = [
        "%s:%d %s" % (f.relative_to(ROOT), line, name)
        for f in checked_files()
        for line, name in unused_imports(f)
    ]
    assert not found, "imported but never read: " + ", ".join(found)


def test_unused_import_scan_sees_reads_and_misses(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import comb, factorial\n"
        "def f(x: Fraction) -> int:\n"
        "    return comb(x, 2) + os.sep.count('/')\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(3, "j"), (4, "factorial")]
