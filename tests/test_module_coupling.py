"""Private names that one ``qwcount`` module imports from another, public
names that no ``qwcount`` module uses, and the package's public names.

A private helper shared across modules couples them.  Every such import is
listed in ``ALLOWED``, so adding one is a visible change to this file.  A
public function or class that no module of the package references is there
for callers outside it only; each is listed in ``UNREFERENCED`` with the
caller that keeps it, so adding one is a visible change too.  A module's
``__all__`` is the one declaration of what it publishes: the package
republishes it whole with ``import *`` and lists no name of its own.
"""

import ast
from collections import Counter
from pathlib import Path
from types import ModuleType

import qwcount

# (importing module, defining module, name)
ALLOWED = {
    ("analysis", "linalg", "_eigen_residual"),
    ("analysis", "linalg", "_gram_defect"),
    ("analysis", "linalg", "_identity_distance"),
    ("analysis", "phase_estimation", "_circuit_marginal"),
    ("analysis", "reduced", "_invariant_basis"),
    ("analysis", "reduced", "_reduce_operator"),
    ("analysis", "walk", "_ancilla_blocks"),
    ("analysis", "walk", "_arc_marks"),
    ("analysis", "walk", "_oracle_signs"),
    ("analysis", "walk", "_step_from_coin"),
    ("reduced", "walk", "_arc_marks"),
}


# (defining module, name): the callers outside the package that keep it.
UNREFERENCED = {
    ("analysis", "bound_satisfaction_mass"): "the benchmark's workloads",
    ("analysis", "joint_success_mass"): "the benchmark's workloads",
    ("counting", "grover_count"): "the benchmark's workloads and acceptance criterion 09",
    ("linalg", "mat_mul"): "the benchmark's tracer test",
    ("counting", "adjusted_partial_count_error_bound"): "acceptance criterion 07",
    ("counting", "adjusted_full_count_error_bound"): "acceptance criterion 08",
    ("reduced", "reduce_operator"): "acceptance criterion 02",
    ("reduced", "invariant_basis"): "acceptance criterion 02",
    ("linalg", "eigen_residual"): "acceptance criterion 03",
    ("phase_estimation", "good_estimate_mass"): "acceptance criterion 06",
    ("phase_estimation", "fourier_kernel"): "the benchmark's tracer test and acceptance criterion 05",
    ("phase_estimation", "sample"): "acceptance criterion 11",
}


def _modules():
    for path in Path(qwcount.__file__).parent.glob("*.py"):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _private_imports():
    found = set()
    for stem, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and not module.startswith("qwcount."):
                continue
            source = module.removeprefix("qwcount.")
            found.update((stem, source, alias.name) for alias in node.names
                         if alias.name.startswith("_") and not alias.name.startswith("__"))
    return found


def test_private_cross_module_imports_are_listed():
    assert _private_imports() == ALLOWED


def _unreferenced_public_names():
    """Top-level public functions and classes that no ``Name`` or
    ``Attribute`` node of the package reads; an import is neither."""
    defined, referenced = set(), set()
    for stem, tree in _modules():
        defined.update((stem, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {(stem, name) for stem, name in defined if name not in referenced}


def test_public_names_no_module_uses_are_listed():
    assert _unreferenced_public_names() == set(UNREFERENCED)


def _top_level_names(tree):
    """Names a module's own top-level statements bind: functions, classes
    and assignment targets; an import binds none."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(name.id for target in node.targets for name in ast.walk(target)
                         if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))
    return names


def _declared(tree):
    """The module's ``__all__`` as a list, or None if it declares none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_package_republishes_each_module_all_once():
    trees = dict(_modules())
    star_imports = {(stem, node.module) for stem, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)}
    assert {stem for stem, _ in star_imports} == {"__init__"}
    assert {alias.name for node in ast.walk(trees["__init__"]) if isinstance(node, ast.ImportFrom)
            for alias in node.names} == {"*"}
    declared = {stem: names for stem, tree in trees.items() if (names := _declared(tree)) is not None}
    republished = {module for _, module in star_imports}
    assert republished <= set(declared)

    public = {name for name, value in vars(qwcount).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == {name for module in republished for name in declared[module]}

    counts = Counter(name for names in declared.values() for name in names)
    assert {name for name, count in counts.items() if count > 1} == set()
    assert {(stem, name) for stem, names in declared.items() for name in names
            if name not in _top_level_names(trees[stem])} == set()
