"""Every module reads every name it imports, and importing the package and
its CLI loads none of the modules that only some commands read.

The package's `__init__.py` is left out: its imports are the public API.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import matroid_invariants

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


# modules that no command needs at start-up: `sweep` imports the process pool
# (with multiprocessing and logging) when it starts one, the report classes
# are plain classes (no dataclasses, with inspect), and only interval
# endpoints in `realroots` are fractions
DEFERRED_MODULES = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "logging", "fractions")


def loaded_in_fresh_interpreter(body):
    """Modules that `body` loads in a fresh interpreter, with what it
    prints; the difference leaves out what `site` or a .pth file loads."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        + body
        + "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(matroid_invariants.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    *printed, added = proc.stdout.splitlines()
    return added.split(), printed


def test_importing_the_package_and_cli_loads_no_deferred_module():
    added, _ = loaded_in_fresh_interpreter("import matroid_invariants, matroid_invariants.cli\n")
    assert "matroid_invariants.cli" in added
    found = sorted(set(added) & set(DEFERRED_MODULES))
    assert not found, "imported by matroid_invariants and its cli: " + ", ".join(found)


def test_certifying_interlacing_loads_no_fractions():
    # interlacing is read off an integer remainder sequence at +-inf, so
    # no rational evaluation point is made
    added, printed = loaded_in_fresh_interpreter(
        "from matroid_invariants.cli import main\n"
        "assert main(['certify', 'vamos', 'interlace']) == 0\n"
    )
    assert any("interlace" in line for line in printed), printed
    assert "matroid_invariants.realroots" in added
    assert "fractions" not in added
