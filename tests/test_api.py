import ast
import builtins
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import adasel
from adasel import dataio
from adasel.design import (AlgoParamCombo, PlatformSpec, ProfileConfig,
                           ScenarioProfile, build_design_profile)
from adasel.harness import SyntheticConfig, generate_synthetic
from conftest import design_for

REMOVED = ["FlowPoint", "GeodesicKernel", "PerformanceRecord",
           "as_feature_vector", "emit_report", "geodesic_flow",
           "kernel_distance", "mean_similarity", "parse_report",
           "select_combo", "similarity"]

PACKAGE = Path(adasel.__file__).parent
BENCHMARK = Path(__file__).parent.parent / "perfbench"
FORMAT_MODULES = {"csv", "json"}
FILE_CALLS = {"open", "read_text", "write_text"}
# the reference GFK path (explicit principal angles, the dense kernel and its
# flow integral), kept for the tests and the benchmark's oracle
REFERENCE_PATH = {"SubspaceBasis", "PrincipalDecomposition",
                  "principal_angles", "orthogonal_complement", "gfk_kernel",
                  "flow_samples", "kernel_integral_oracle"}
SELECTOR_MODULES = ["design.py", "runtime.py", "dataio.py", "harness.py",
                    "cli.py"]
# the third-party packages pyproject.toml's dependencies name
DEPENDENCIES = {"numpy"}


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


def test_dataio_parses_json_in_one_place():
    # documents, trace lines and synth settings all go through one checked
    # reader, so every JSON input gets the same typed errors
    tree = ast.parse((PACKAGE / "dataio.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", ""))
             == "loads"]
    assert len(calls) == 1, calls


def test_gfk_coefficients_take_one_series_branch():
    # the per-angle coefficients switch to a series in one place, so the
    # runtime distance and the dense kernel cannot disagree on where
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    getattr(operand, "id", getattr(operand, "attr", ""))
                    == "SERIES_ANGLE"
                    for operand in [node.left, *node.comparators]):
                found.append(f"{path.name}:{node.lineno}")
    assert len(found) <= 1, found


def test_design_ranks_the_table_once():
    # the platform choice and the labels both read the one ranking that
    # build_design_profile makes, so neither can rank the table again
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                found += [f"{path.name}: {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id",
                                      getattr(node.func, "attr", ""))
                          == "rank_combos"]
    assert found == ["design.py: build_design_profile"]


def test_dataio_reads_csv_in_one_place():
    # the performance table and the window truth go through one table
    # reader, so every row rule is stated once
    tree = ast.parse((PACKAGE / "dataio.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", ""))
             == "reader"]
    assert len(calls) == 1, calls


def test_dataio_checks_json_scalars_by_exact_type():
    # bool is a subclass of int and passes isinstance against int, float,
    # Integral and Real, so a JSON true would read as a number; every JSON
    # scalar goes through _require's exact types instead
    tree = ast.parse((PACKAGE / "dataio.py").read_text())
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"):
            continue
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            name = getattr(kind, "id", getattr(kind, "attr", None))
            if name in {"int", "float", "Integral", "Real"}:
                found.append(f"dataio.py:{node.lineno}: {name}")
    assert not found


def test_dataio_takes_record_keys_from_the_dataclasses():
    # a combo's, a platform's and a profile config's JSON keys are their
    # field names, read from the annotations; a key spelled out in dataio
    # could drift from its field
    names = {f.name for cls in (AlgoParamCombo, PlatformSpec, ProfileConfig)
             for f in dataclasses.fields(cls)} - {"id"}
    tree = ast.parse((PACKAGE / "dataio.py").read_text())
    found = [f"dataio.py:{node.lineno}: {node.value!r}"
             for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, str) and node.value in names]
    assert not found


def test_every_design_record_field_is_read_by_the_selector():
    # a field that design, the runtime and the CLI never read is carried,
    # type-checked, written and read back for no decision
    read = {node.attr for name in ["design.py", "runtime.py", "cli.py"]
            for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.__name__}.{f.name}"
              for cls in (AlgoParamCombo, PlatformSpec, ProfileConfig,
                          ScenarioProfile)
              for f in dataclasses.fields(cls) if f.name not in read]
    assert not unread


def _names_used(tree):
    """(line, name) for each name a syntax tree imports from a module, reads
    or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_the_selector_uses_nothing_of_the_reference_path():
    # the selector works on plain arrays: a basis is an a x b matrix and a
    # decision is one stacked distance pass, so none of its modules needs
    # the reference path's types or functions
    found = []
    for name in SELECTOR_MODULES:
        uses = set(_names_used(ast.parse((PACKAGE / name).read_text())))
        found += [f"{name}:{line}: {used}" for line, used in sorted(uses)
                  if used in REFERENCE_PATH]
    assert not found


def test_the_package_root_exports_nothing_of_the_reference_path():
    # the root is the selector's API; the reference path is imported from
    # adasel.subspace and adasel.gfk
    assert not REFERENCE_PATH & set(adasel.__all__)
    assert not [name for name in REFERENCE_PATH if hasattr(adasel, name)]


def _raised_names(tree):
    """The name of each class that a ``raise`` in a syntax tree raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield getattr(exc, "id", getattr(exc, "attr", None))


def test_every_error_type_is_raised_somewhere():
    # an error class that nothing raises is documentation no failure obeys
    errors = importlib.import_module("adasel.errors")
    declared = {name for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, errors.AdaselError)
                and cls is not errors.AdaselError}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        raised.update(_raised_names(ast.parse(path.read_text())))
    assert sorted(declared - raised) == []


def test_no_builtin_exception_is_raised():
    # a bare ValueError escapes the CLI's error mapping and callers' except
    # AdaselError clauses; every failure has a typed error
    builtin = {name for name, cls in vars(builtins).items()
               if isinstance(cls, type) and issubclass(cls, BaseException)}
    found = {f"{path.name}: {name}" for path in PACKAGE.glob("*.py")
             for name in _raised_names(ast.parse(path.read_text()))
             if name in builtin}
    assert sorted(found) == []


def test_the_cli_loads_no_third_party_module_but_its_dependencies():
    # an interpreter without site-packages' start-up hooks (-S), which
    # sees only adasel and the dependencies' own directories
    import numpy
    code = ("import json, sys, adasel.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    path = os.pathsep.join([str(PACKAGE.parent),
                            str(Path(numpy.__file__).parents[1])])
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path),
                         check=True).stdout
    loaded = {name.split(".")[0] for name in json.loads(out)}
    assert (loaded - set(sys.stdlib_module_names)
            - {"__main__", "adasel"}) == DEPENDENCIES


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


def test_the_benchmark_round_trips_a_trace_of_the_package(tmp_path):
    # the benchmark's runtime pass reads decision attributes by name, which
    # the check above does not see; run that pass on a small design
    spec = importlib.util.spec_from_file_location("perfbench_stage",
                                                  BENCHMARK / "stage.py")
    stage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage)
    dataset = generate_synthetic(SyntheticConfig(
        dim_ambient=12, dim_subspace=2, n_scenarios=2, n_combos=2,
        frames_per_scenario=8, n_windows=6, noise_sigma=0.05, seed=9))
    profile = design_for(dataset)
    stream = dataio.FeatureStream(frames=dataset.test_stream, labels=None)
    result = stage._pass(profile, stream, tmp_path / "trace.jsonl", None)
    assert result["roundtrip_ok"]
    assert result["profile_reference"] == dataio.profile_digest(profile)
