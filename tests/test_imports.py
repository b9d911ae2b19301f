"""Every name a library module imports is used in that module, every
private helper is used somewhere in the package, private names are
imported only from ``configs``, only ``configs`` builds a configuration
unchecked, JSON is encoded only by ``errors.canonical_json``, and every
memo cache is typed, every ``krawlp`` name the ``perfbench/`` scripts
reach exists in the package, and every call they make into it binds to
its signature.

No linter ships with the project, so these are stdlib-``ast`` stand-ins
for an unused-import check, a dead-code check, two layering checks, a
one-encoder check, a typed-cache check and two checks of the benchmark's
entry points.
``__init__.py`` is exempt from the import check (its imports are the
package's re-exports), and so are ``__future__`` imports.
"""

import ast
import importlib
import inspect
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


def test_proved_constructors_stay_in_configs():
    # ``_proved_sd`` and ``_proved_venn`` skip every check of SDConfig and
    # VennConfig; only the configs operations whose arithmetic proves the
    # fields may call them, so no other module names them at all.
    proved = {"_proved_sd", "_proved_venn"}
    defined, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if path.name == "configs.py":
                if isinstance(node, ast.FunctionDef) and node.name in proved:
                    defined.add(node.name)
                continue
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [a.name for a in node.names] + [a.asname for a in node.names]
            stray += [f"{path.name}:{node.lineno}: {n}" for n in names if n in proved]
    assert defined == proved
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


def test_every_lru_cache_is_typed():
    # An untyped cache keys 3.0 and True like 3 and 1, so once warm it
    # answers an argument that its function's gate refuses when cold.
    # Every use of ``lru_cache`` must be a call that passes typed=True.
    typed, uses = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(
                k.arg == "typed" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in node.keywords
            ):
                typed.add(id(node.func))
            elif getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
                uses.append((id(node), f"{path.name}:{node.lineno}"))
    assert uses, "no lru_cache found"
    assert [where for key, where in uses if key not in typed] == []


BENCH = SRC.parent.parent / "perfbench"


def _krawlp_imports(tree: ast.Module) -> tuple[dict[str, str], list[tuple]]:
    # The names a script binds from krawlp: {name: module} for each krawlp
    # module, and (name, module, attr, line) for each
    # ``from krawlp[.mod] import attr``.
    modules: dict[str, str] = {}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "krawlp":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "krawlp":
            for alias in node.names:
                imported.append((alias.asname or alias.name, node.module, alias.name, node.lineno))
                if node.module == "krawlp":
                    modules[alias.asname or alias.name] = f"krawlp.{alias.name}"
    return modules, imported


def _krawlp_names(tree: ast.Module) -> list[tuple[str, str, int]]:
    # (module, name, line) for every name a script takes from krawlp: each
    # ``from krawlp[.mod] import name`` and each ``mod.attr`` read through
    # a name bound to a krawlp module.
    modules, imported = _krawlp_imports(tree)
    names = [(module, attr, line) for _, module, attr, line in imported]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.append((modules[node.value.id], node.attr, node.lineno))
    return names


def _has(module: str, name: str) -> bool:
    # ``from krawlp import cli`` takes a submodule, which the package's
    # own namespace holds only once something has imported it.
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_reaches_only_names_the_package_has():
    # perfbench/ drives the package from outside; a refactor that renames
    # or drops a name it uses fails here rather than in a benchmark run.
    scripts = sorted(BENCH.glob("*.py"))
    assert scripts, "no benchmark scripts found"
    reached, missing = set(), []
    for path in scripts:
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, name, line in _krawlp_names(tree):
            reached.add(f"{module}.{name}")
            if not _has(module, name):
                missing.append(f"{path.name}:{line}: {module}.{name}")
    assert {
        "krawlp.cli.run_suite",
        "krawlp.configs.forbidden_configs",
        "krawlp.lp.check_feasibility",
        "krawlp.oracle.CodeSet",
    } <= reached
    assert missing == []


def _callee(node: ast.expr, modules: dict, imported: dict) -> tuple[str, object] | None:
    # ``(dotted name, object)`` of the krawlp function or class an
    # expression names, through a ``from`` import or a module attribute.
    if isinstance(node, ast.Name) and node.id in imported:
        module, name = imported[node.id]
    elif (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ):
        module, name = modules[node.value.id], node.attr
    else:
        return None
    target = getattr(importlib.import_module(module), name, None)
    return (f"{module}.{name}", target) if callable(target) else None


def test_benchmark_calls_bind_to_the_package_signatures():
    # A direct call into krawlp, or one made as ``rec.call(label, fn, *args)``,
    # must bind to the callee's signature, so a parameter added, dropped or
    # renamed fails here rather than as a failed benchmark run.  A call with
    # a starred argument is skipped: its argument count is not in the source.
    reached, unbound = set(), []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules, froms = _krawlp_imports(tree)
        imported = {local: (module, attr) for local, module, attr, _ in froms}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target, args = _callee(node.func, modules, imported), node.args
            if target is None and getattr(node.func, "attr", None) == "call" and len(args) > 1:
                target, args = _callee(args[1], modules, imported), args[2:]
            starred = any(isinstance(a, ast.Starred) for a in args)
            if target is None or starred or any(k.arg is None for k in node.keywords):
                continue
            name, fn = target
            reached.add(name)
            try:
                inspect.signature(fn).bind(*args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                unbound.append(f"{path.name}:{node.lineno}: {name}: {exc}")
    assert {
        "krawlp.lp.profile_of_code",
        "krawlp.lp.check_feasibility",
        "krawlp.krawtchouk.load_table",
        "krawlp.simplex.solve_exact",
        "krawlp.oracle.CodeSet",
    } <= reached
    assert unbound == []
