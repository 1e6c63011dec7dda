"""Static hygiene of the package source, read with ``ast``: no module imports
a name it never uses (the re-exports of ``__init__.py`` aside), no private
module-level name is left that nothing in the package references, and every
exported name is read by the package, the CLI or the acceptance gate, or is
listed with its reason.  Every function the benchmark's tracer wraps must
still exist, its rendering span must time each document once, and the SDP
requests must complete under it."""

import ast
import importlib.util
import json
import types
from pathlib import Path

import numpy as np
import pytest

import polybounds

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polybounds"
TREES = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


#: Exported names that no package module and not the acceptance gate read,
#: each with the reason it stays.
_UNREACHED = {
    "mutual_information": "the reference that entropic_chsh is tested against bit for bit",
    "shannon_cone_check": "ROADMAP item 14 decides the Shannon-cone code",
    "oracle_vertex_average": "perfbench/tracing.py wraps it, so deleting it changes the benchmark",
}


def _reads(node, inside=frozenset()) -> set:
    """Names a tree reads: loaded bare names, attribute names and ``from ...
    import`` names, each outside the body of the ``def`` or ``class`` that
    defines it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    elif isinstance(node, ast.ImportFrom):
        found = {alias.name for alias in node.names}
    else:
        found = set()
    return (found - inside).union(*(_reads(child, inside) for child in ast.iter_child_nodes(node)))


def export_breaches(exports: set, trees, unreached: dict) -> list:
    """Each way the exports break the rule that every exported name is read
    by one of ``trees`` or listed in ``unreached``, and no more than that."""
    read = set().union(*map(_reads, trees))
    return sorted(
        [f"{name} is exported but read nowhere" for name in exports - read - unreached.keys()]
        + [f"{name} is in _UNREACHED but read" for name in unreached.keys() & read]
        + [f"{name} is in _UNREACHED but not exported" for name in unreached.keys() - exports]
    )


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


def test_every_export_is_read_or_listed():
    # submodules are exempt, and a name the tracer wraps is not thereby read
    exports = {name for name in polybounds.__all__ if not isinstance(getattr(polybounds, name), types.ModuleType)}
    trees = [tree for module, tree in TREES.items() if not module.endswith("__init__.py")]
    trees.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    assert export_breaches(exports, trees, _UNREACHED) == []


def test_the_export_rule_names_each_breach():
    tree = ast.parse("from polybounds import listed_but_read\nused()\n\ndef lonely():\n    return lonely()\n")
    exports = {"used", "lonely", "listed_but_read"}
    unreached = {"listed_but_read": "planted", "gone": "planted"}
    assert export_breaches(exports, [tree], unreached) == [
        "gone is in _UNREACHED but not exported",
        "listed_but_read is in _UNREACHED but read",
        "lonely is exported but read nowhere",
    ]


def _tracing():
    """perfbench/tracing.py, loaded as it stands."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    # a name the tracer lists that the package no longer defines would
    # otherwise surface only in a traced run
    tracing = _tracing()
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


def test_rendering_spans_do_not_nest(tmp_path, capsys):
    # cli.canonical_ms_per_doc sums the cli.canonical_json spans: a span
    # inside another would count its time twice
    cli = importlib.import_module("polybounds.cli")
    chsh = {"schema": 1, "kind": "npa", "payload": {"functional": [[1, 1], [1, -1]]}}
    single, batch = tmp_path / "single.json", tmp_path / "batch.json"
    single.write_text(json.dumps(chsh))
    batch.write_text(json.dumps([chsh, {**chsh, "kind": "gap"}, {"schema": 1}]))
    tracer = _tracing().Tracer()
    main = tracer.root(cli.main)
    tracer.install()
    try:
        assert main(["npa", "--input", str(single)]) == 0
        assert main(["npa", "--batch", str(batch)]) == 2
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span: name for _, span, _, name, *_ in tracer.spans}
    parents = [parent for _, _, parent, name, *_ in tracer.spans if name == "cli.canonical_json"]
    assert len(parents) == 1 + 3
    assert [names.get(parent) for parent in parents] == ["cli.main"] * 4


def test_tracer_runs_the_sdp_requests(tmp_path, capsys):
    # a level-1 IV gap request is answered in closed form and reaches no
    # solver; an audited npa request reaches sdp_solve, whose observer reads
    # the problem's dimension and the result's iterations
    cli = importlib.import_module("polybounds.cli")
    table = np.full((2, 2, 2), 0.25).tolist()
    requests = (
        ("gap", {"schema": 1, "kind": "gap", "payload": {"table": table}, "options": {"npa_level": "1"}}),
        ("npa", {"schema": 1, "kind": "npa", "payload": {"functional": [[1, 1], [1, -1]]}, "options": {"audit": True}}),
    )
    tracing = _tracing()
    tracer = tracing.Tracer()
    main = tracer.root(cli.main)
    tracer.install()
    try:
        for request, (kind, doc) in enumerate(requests):
            tracer.request = request
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc))
            assert main([kind, "--input", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    solves = [(request, info) for request, _, _, name, *_, info in tracer.spans if name == "sdp.sdp_solve"]
    assert [request for request, _ in solves] == [1]
    size, iterations, raised, _, _ = solves[0][1]
    assert (size, raised) == (5, False) and iterations > 0
    assert tracing.summarize(tracer.spans, {0: 1, 1: 1}, 2)["sdp.calls"] == 1


def test_tracer_sees_both_endpoint_solves_of_a_level1ab_table(tmp_path, capsys):
    # each endpoint of a 1ab interval is one sdp_solve call, so the traced
    # sdp.* metrics count IV endpoints like any other solve
    cli = importlib.import_module("polybounds.cli")
    doc = {"schema": 1, "kind": "gap", "payload": {"table": np.full((2, 2, 2), 0.25).tolist()}}
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({**doc, "options": {"npa_level": "1ab"}}))
    tracing = _tracing()
    tracer = tracing.Tracer()
    main = tracer.root(cli.main)
    tracer.install()
    try:
        tracer.request = 0
        assert main(["gap", "--input", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    solves = [info for *_, name, _, _, _, _, info in tracer.spans if name == "sdp.sdp_solve"]
    assert [(size, raised) for size, _, raised, _, _ in solves] == [(9, False)] * 2
    assert all(iterations > 0 for _, iterations, _, _, _ in solves)
    assert tracing.summarize(tracer.spans, {0: 1}, 1)["sdp.calls"] == 2
