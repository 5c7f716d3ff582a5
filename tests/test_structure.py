"""Guards on the package layout that other code relies on."""

import ast
import importlib
import importlib.util
import pathlib

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
