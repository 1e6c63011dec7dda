"""Static hygiene of the package source, read with ``ast``: no module imports
a name it never uses (the re-exports of ``__init__.py`` aside), and no
private module-level name is left that nothing in the package references.
Every function the benchmark's tracer wraps must still exist."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polybounds"
TREES = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


def _reads(tree) -> set:
    """Names a module reads: loaded bare names, attribute names, and names
    imported from elsewhere in the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", [m for m in TREES if not m.endswith("__init__.py")])
def test_no_unused_import(module):
    tree = TREES[module]
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - used) == []


@pytest.mark.parametrize("module", list(TREES))
def test_no_unreferenced_private_name(module):
    defined = set()
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    referenced = set().union(*(_reads(tree) for tree in TREES.values()))
    assert sorted(private - referenced) == []


def test_every_traced_name_resolves():
    # perfbench/tracing.py is loaded as it stands; a name it lists that the
    # package no longer defines would otherwise surface only in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # a method is looked up in its own class's namespace, as the tracer does
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
