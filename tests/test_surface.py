"""The library's public surface is what the package itself runs.

Every public module-level function, class and constant of
``stochlogistic`` must be loaded by name somewhere in the package: as a
name read in an expression or annotation, or as an attribute; so must
every public method and property of its classes, as an attribute.  An
``import`` is not a use, so a name that only tests reach fails here;
such API is either wired into a subcommand or deleted.  The package
``__init__`` imports nothing, so each name has one import path, its
module's.  Likewise every field of a dataclass must be read as an
attribute somewhere in the package.  The benchmark's span tracer (``stochbench/spans.py``) names
the functions it times; every one of them must still exist, or a traced
run drops that metric.  And ``src/`` stays within a budget of non-blank
lines; a change that must raise it says why.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stochlogistic"


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                names.extend(e.id for e in elts if isinstance(e, ast.Name))
    return [n for n in names if not n.startswith("_")]


def _loaded_names(tree: ast.Module) -> set[str]:
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
    return loaded


def test_every_public_name_is_loaded_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = set().union(*(_loaded_names(tree) for tree in trees.values()))
    unused = [
        f"{module[:-3]}.{name}"
        for module, tree in trees.items()
        if module != "__init__.py"
        for name in _public_definitions(tree)
        if name not in loaded
    ]
    assert not unused, f"public names that nothing in src/ loads: {unused}"


def test_every_public_method_and_property_is_loaded_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = set().union(*(_loaded_names(tree) for tree in trees.values()))
    unused = [
        f"{module[:-3]}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in loaded
    ]
    assert not unused, f"public methods and properties that nothing in src/ loads: {unused}"


def test_package_init_imports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [
        ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not imports, f"stochlogistic/__init__.py re-exports names; import them from their module: {imports}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _read_attributes(tree: ast.Module) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*(_read_attributes(tree) for tree in trees.values()))
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            fields = [
                node.target.id
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            ]
            unread.extend(f"{module[:-3]}.{cls.name}.{f}" for f in fields if f not in read)
    assert not unread, f"dataclass fields that nothing in src/ reads: {unread}"


def _load_spans():
    spec = importlib.util.spec_from_file_location("stochbench_spans", ROOT / "stochbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_is_present():
    # before any call, a span that exists reports zero calls; a renamed or
    # deleted function is missing from the aggregate and its metric absent
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        metrics = spans.layer_metrics(tracer.aggregate())
    finally:
        tracer.uninstall()
    assert sorted(set(spans.METRICS) - set(metrics)) == []


#: Standing budget of non-blank lines in src/stochlogistic/*.py.
LOC_BUDGET = 1530


def test_src_stays_within_the_line_budget():
    counts = {
        path.name: sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted(SRC.glob("*.py"))
    }
    total = sum(counts.values())
    assert total <= LOC_BUDGET, (
        f"src/ has {total} non-blank lines, over the budget of {LOC_BUDGET}: {counts}"
    )
