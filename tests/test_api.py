import ast
import importlib
import inspect
from pathlib import Path

import adasel
from adasel.design import build_design_profile
from adasel.harness import SyntheticConfig

REMOVED = ["FlowPoint", "GeodesicKernel", "as_feature_vector",
           "emit_report", "geodesic_flow", "kernel_distance", "parse_report"]

PACKAGE = Path(adasel.__file__).parent
BENCHMARK = Path(__file__).parent.parent / "perfbench"
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
        uses = set(_format_uses(ast.parse(path.read_text())))
        found += [f"{path.name}:{line}: {name}" for line, name in sorted(uses)]
    assert not found


def _dict_keywords(tree) -> dict[str, list[str]]:
    """The keywords of each ``name = dict(k=...)`` in a syntax tree."""
    return {node.targets[0].id: [kw.arg for kw in node.value.keywords]
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "dict"}


def _imported(module: str, name: str):
    """What ``from module import name`` binds, or None if it fails."""
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        pass  # not a submodule
    return getattr(importlib.import_module(module), name, None)


def test_the_benchmark_calls_only_what_the_package_has():
    # perfbench imports adasel from the checkout it measures; a name, an
    # attribute or a keyword it uses that the package lost breaks the
    # benchmark, so check each one here
    signatures = {"build_design_profile": inspect.signature(
                      build_design_profile),
                  "SyntheticConfig": inspect.signature(SyntheticConfig)}
    broken, modules_used, called = [], set(), set()
    for path in sorted(BENCHMARK.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "adasel"):
                continue
            for alias in node.names:
                obj = _imported(node.module, alias.name)
                if obj is None:
                    broken.append(f"{path.name}:{node.lineno}: "
                                  f"{node.module}.{alias.name}")
                elif inspect.ismodule(obj):
                    modules[alias.asname or alias.name] = obj
        modules_used |= set(modules)
        dicts = _dict_keywords(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)):
                broken.append(f"{path.name}:{node.lineno}: "
                              f"{node.value.id}.{node.attr}")
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in signatures:
                called.add(name)
                keywords = [k for kw in node.keywords
                            for k in ([kw.arg] if kw.arg
                                      else dicts[kw.value.id])]
                try:
                    signatures[name].bind(*node.args,
                                          **dict.fromkeys(keywords))
                except TypeError as exc:
                    broken.append(f"{path.name}:{node.lineno}: {name}: {exc}")
    assert modules_used >= {"dataio", "design", "runtime"}
    assert called == set(signatures)
    assert not broken
