"""Private names that one ``qwcount`` module imports from another.

A private helper shared across modules couples them.  Every such import is
listed in ``ALLOWED``, so adding one is a visible change to this file.
"""

import ast
from pathlib import Path

import qwcount

# (importing module, defining module, name)
ALLOWED = {
    ("analysis", "linalg", "_eigen_residual"),
    ("analysis", "linalg", "_gram_defect"),
    ("analysis", "linalg", "_identity_distance"),
    ("analysis", "phase_estimation", "_circuit_marginal"),
    ("analysis", "reduced", "_reduce_operator"),
    ("analysis", "walk", "_ancilla_blocks"),
    ("analysis", "walk", "_arc_marks"),
    ("analysis", "walk", "_oracle_signs"),
    ("analysis", "walk", "_shift_map"),
    ("analysis", "walk", "_step_from_coin"),
    ("counting", "walk", "_check_part"),
    ("reduced", "walk", "_arc_marks"),
}


def _private_imports():
    found = set()
    for path in Path(qwcount.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and not module.startswith("qwcount."):
                continue
            source = module.removeprefix("qwcount.")
            found.update((path.stem, source, alias.name) for alias in node.names
                         if alias.name.startswith("_") and not alias.name.startswith("__"))
    return found


def test_private_cross_module_imports_are_listed():
    assert _private_imports() == ALLOWED
