"""Guards on the package layout that other code relies on."""

import ast
import graphlib
import importlib
import importlib.util
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lcdlab"
# Layers whose code was deleted, not renamed: the syndrome kernel, then the
# backtracking canonical form and the GL(k,2) table, whose work is now
# part of classify.dedupe.
ABSENT_LAYERS = {"classify.coset_bfs", "canonical.backtrack", "canonical.gl_table"}


def test_private_names_stay_private_and_bench_layers_resolve():
    # (a) no module imports an underscore name from a sibling module
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("lcdlab")):
                leaks += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not leaks, leaks
    # (b) every layer the bench trace wraps is still where it looks for it
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, mod_name, attr, _ in spans.LAYERS:
        obj = importlib.import_module(f"lcdlab.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None and name not in ABSENT_LAYERS:
            missing.append(f"{name} -> lcdlab.{mod_name}.{attr}")
    assert not missing, missing


def _public_definitions(tree):
    """Every public module-level function and class, and every public
    method of a module-level class."""
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node] + inner:
            if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                    and not d.name.startswith("_")):
                yield d


def _names(source: str) -> set[str]:
    """The identifiers of Python source; comments and strings name nothing."""
    return {tok.string
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NAME}


def test_public_names_have_a_caller():
    # a public name must be named by the code of another package module, of
    # the bench or of the README's library examples; what only the tests
    # name lives in tests/
    readme = (ROOT / "README.md").read_text()
    outside = set().union(
        *map(_names, re.findall(r"```python\n(.*?)```", readme, re.S)),
        *(_names(path.read_text()) for path in (ROOT / "bench").rglob("*.py")))
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    idle = []
    for path, source in sources.items():
        lines = source.splitlines(keepends=True)
        named = outside.union(*(_names(text) for other, text in sources.items()
                                if other != path))
        for d in _public_definitions(ast.parse(source)):
            # the defining module counts without the definition itself
            rest = _names("".join(lines[:d.lineno - 1] + lines[d.end_lineno:]))
            if d.name not in named | rest:
                idle.append(f"{path.name}: {d.name}")
    assert not idle, idle


def test_package_imports_at_module_level_without_cycles():
    # an import of a package module inside a function hides a dependency;
    # with every one at module level the import graph must be acyclic
    nested, graph = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = ([node.module] if node.module
                         else [alias.name for alias in node.names])
                graph.setdefault(path.stem, set()).update(names)
                if node not in tree.body:
                    nested.append(f"{path.name}:{node.lineno} {' '.join(names)}")
    assert not nested, nested
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
