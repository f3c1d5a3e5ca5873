import ast
from pathlib import Path

import adasel

REMOVED = ["FlowPoint", "GeodesicKernel", "as_feature_vector",
           "emit_report", "geodesic_flow", "kernel_distance", "parse_report"]

PACKAGE = Path(adasel.__file__).parent
FORMAT_MODULES = {"csv", "json"}
FILE_CALLS = {"open", "read_text", "write_text"}


def test_public_names_resolve_once_from_the_package_root():
    names = adasel.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(adasel, name), name
    assert not set(REMOVED) & set(names)
    assert not any(hasattr(adasel, name) for name in REMOVED)


def _format_uses(tree):
    """(line, name) for each import of csv or json and each call of open,
    read_text or write_text in a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Call):
            names = [getattr(node.func, "id", getattr(node.func, "attr", ""))]
        else:
            continue
        yield from ((node.lineno, name) for name in names
                    if name in FORMAT_MODULES | FILE_CALLS)


def test_only_dataio_knows_a_file_format():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "dataio.py":
            continue
        tree = ast.parse(path.read_text())
        uses = set(_format_uses(tree))
        if path.name == "cli.py":
            # load_synth_config, which reads the synth settings, is the one
            # reader outside dataio, and cli imports json for it
            reader = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef)
                          and node.name == "load_synth_config")
            uses = {(line, name) for line, name
                    in uses - set(_format_uses(reader))
                    if name not in FORMAT_MODULES}
        found += [f"{path.name}:{line}: {name}" for line, name in sorted(uses)]
    assert not found
