"""Imports of the package and of the tests.

Every name that a module of the package or of the tests imports is used in
it (the package ``__init__.py`` is left out: its imports are the public
exports), every module-level private function or class of the package has
a caller in the package, no two modules of the package define the same
constant, and the package imports nothing but the standard library, numpy
and itself.
"""

import ast
import glob
import math
import os
import re
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _unused_imports(path):
    """Names bound by an import in ``path`` that no expression of it reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    paths = glob.glob(os.path.join(ROOT, "src", "mixedform", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "tests", "*.py"))
    assert len(paths) > 10
    unused = {}
    for path in sorted(paths):
        names = _unused_imports(path)
        if names and os.path.basename(path) != "__init__.py":
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}


def test_every_private_definition_has_a_caller_in_the_package():
    # a module-level _helper that only tests reach (or nothing) is dead code
    trees = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "mixedform", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), filename=path)
    assert len(trees) > 5
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    private = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(private) > 5
    assert [entry for entry in private if entry.split()[-1] not in referenced] == []


def _constant_value(node):
    """The value of a constant expression (numbers and math/numpy attributes such as
    ``2.0 * np.pi``), or None for any other expression."""
    allowed = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop,
               ast.Attribute, ast.Name, ast.Load)
    if not all(isinstance(n, allowed) for n in ast.walk(node)) or any(
            isinstance(n, ast.Name) and n.id not in ("math", "np") for n in ast.walk(node)):
        return None
    return eval(compile(ast.Expression(node), "<constant>", "eval"),
                {"__builtins__": {}, "math": math, "np": np})


def test_no_constant_is_defined_twice():
    # a module-level constant restated with the same name and value in a second
    # module is a copy that can drift; the shared one belongs in one module
    # (``SAMPLE_SPREAD`` and its siblings differ in value by family, so they stay)
    seen, copies = {}, []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "mixedform", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", node.targets[0].id)):
                continue
            value = _constant_value(node.value)
            if value is None:
                continue
            name, where = node.targets[0].id, f"{os.path.basename(path)}:{node.lineno}"
            for other, other_value in seen.get(name, []):
                if other_value == value:
                    copies.append(f"{name} at {other} and {where}")
            seen.setdefault(name, []).append((where, value))
    assert copies == []


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "mixedform"}
    paths = glob.glob(os.path.join(ROOT, "src", "mixedform", "*.py"))
    assert len(paths) > 5
    foreign = []
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue        # relative imports stay inside the package
            foreign += [f"{os.path.basename(path)}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
