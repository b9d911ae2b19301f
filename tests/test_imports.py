"""Every name a library module imports is used in that module, every
private helper is used somewhere in the package, private names are
imported only from ``configs``, and JSON is encoded only by
``errors.canonical_json``.

No linter ships with the project, so these are stdlib-``ast`` stand-ins
for an unused-import check, a dead-code check, a layering check and a
one-encoder check.
``__init__.py`` is exempt from the import check (its imports are the
package's re-exports), and so are ``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "krawlp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_modules_are_found():
    assert {"lp.py", "configs.py", "oracle.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_no_dead_private_helpers():
    # A top-level ``_name`` function or class must be referenced by name
    # (``_name``) or attribute (``module._name``) in some module.
    defined = {}
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined, "no private helpers found"
    dead = [f"{where}: {name}" for name, where in defined.items() if name not in referenced]
    assert dead == []


def test_private_imports_come_only_from_configs():
    # configs owns the shared kernels (tuple to sd entries, the parity
    # transform, gathers); every other module keeps its privates to itself.
    # Dunder names such as ``__version__`` are not private.
    stray = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "configs":
                names = [a.name for a in node.names]
                names = [n for n in names if n.startswith("_") and not n.startswith("__")]
                stray += [f"{path.name}:{node.lineno}: {node.module}.{n}" for n in names]
    assert stray == []


def test_json_is_encoded_only_by_canonical_json():
    # Byte-identical records, artifacts and cache files rest on one
    # encoding (sorted keys, no spaces), so ``json.dumps`` (or a bare
    # ``dumps``) is called in one place: the body of errors.canonical_json.
    allowed, calls = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "canonical_json":
                if path.name == "errors.py":
                    allowed.update(map(id, ast.walk(node)))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "dumps":
                    calls.append((id(node), f"{path.name}:{node.lineno}"))
    assert len([where for key, where in calls if key in allowed]) == 1
    assert [where for key, where in calls if key not in allowed] == []
