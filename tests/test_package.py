import ast
import dataclasses
import importlib
import inspect
import math
import re
import types
from collections import Counter
from pathlib import Path

import wavetrace

LAYERS = ("specfun", "surface", "herglotz", "spectra", "sweep", "verify")


def test_exports_are_the_layer_all_lists():
    exported = {
        name for name, value in vars(wavetrace).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = set().union(*(importlib.import_module(f"wavetrace.{layer}").__all__ for layer in LAYERS))
    assert listed == exported


def test_one_export_list_per_layer():
    # __init__ star-imports each layer, so its __all__ is the one list of
    # the names the package exports; __init__ binds only __version__ itself
    tree = ast.parse(Path(wavetrace.__file__).read_text(encoding="utf-8"))
    star_imports, bound = [], []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and [a.name for a in node.names] == ["*"]:
            star_imports.append(node.module)
        elif isinstance(node, ast.Assign):
            bound += [target.id for target in node.targets]
        else:
            assert isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant), ast.dump(node)
    assert star_imports == list(LAYERS)
    assert bound == ["__version__"]


def test_every_export_is_used_inside_the_package():
    # the library keeps only what a subcommand runs: a name that only the
    # tests call belongs in tests/oracles.py, not in a layer's __all__
    used = set()
    for path in Path(wavetrace.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    unused = sorted(
        name for layer in LAYERS for name in importlib.import_module(f"wavetrace.{layer}").__all__
        if name not in used
    )
    assert not unused


def test_cli_is_the_one_writer_of_artifacts():
    # the library returns plain records; only wavetrace.cli fixes a file format
    for layer in LAYERS:
        module = importlib.import_module(f"wavetrace.{layer}")
        tree = ast.parse(inspect.getsource(module))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "json" not in imported, layer
        writers = [
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and re.fullmatch(r"to_dict|to_json.*|to_csv.*", node.name)
        ]
        assert not writers, (layer, writers)


def test_sweep_knows_no_oracle_and_no_geometry():
    # find_dips takes any spectrum: the trace oracle lives in herglotz, the
    # single-layer oracle in spectra, and the grids in surface
    tree = ast.parse(inspect.getsource(importlib.import_module("wavetrace.sweep")))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= set((node.module or "").split("."))
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
    assert not imported & {"herglotz", "surface", "spectra"}


def test_one_home_for_the_pool_size():
    # every pool has one worker per CPU, sized by sweep._map alone: no other
    # module builds a pool or reads the CPU count, and no export takes a size
    for path in Path(wavetrace.__file__).parent.glob("*.py"):
        if path.name != "sweep.py":
            text = path.read_text(encoding="utf-8")
            assert "ThreadPoolExecutor" not in text and "cpu_count" not in text, path.name
    sized = [
        name for layer in LAYERS for name in importlib.import_module(f"wavetrace.{layer}").__all__
        if inspect.isfunction(function := getattr(wavetrace, name))
        and "threads" in inspect.signature(function).parameters
    ]
    assert not sized


def test_one_home_for_the_plane_wave_directions():
    # the plane waves are formed by herglotz's one assembler alone: no other
    # module reads a direction grid's directions or draws random directions
    for path in Path(wavetrace.__file__).parent.glob("*.py"):
        if path.stem not in ("surface", "herglotz"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
            assert not names & {"directions", "_random_unit_vectors"}, path.name


def test_every_defaulted_parameter_is_passed_inside_the_package():
    # a parameter that only the tests set keeps a branch that only the tests
    # reach: each defaulted parameter of a layer's module-level functions,
    # exported or private, is passed, by position or by keyword, by some
    # call inside the package
    calls = {}
    for path in Path(wavetrace.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                n_positional = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                calls.setdefault(name, []).append((n_positional, {kw.arg for kw in node.keywords}))
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    unpassed = []
    for layer in LAYERS:
        module = importlib.import_module(f"wavetrace.{layer}")
        for name, function in vars(module).items():
            if not inspect.isfunction(function) or function.__module__ != module.__name__:
                continue
            for i, param in enumerate(inspect.signature(function).parameters.values()):
                if param.default is not param.empty and not any(
                    param.name in keywords or (param.kind in positional and n_positional > i)
                    for n_positional, keywords in calls.get(name, [])
                ):
                    unpassed.append(f"{name}({param.name})")
    assert not unpassed


def test_every_dataclass_field_is_read_outside_its_class():
    # a field that no code reads is computed and validated for nothing: each
    # field of a layer's dataclass is read as an attribute somewhere in the
    # package outside its own class body. The records the CLI writes whole
    # through asdict are read by the artifacts' readers, not here.
    written_whole = {"Dip", "EigenvalueRecord", "VerificationReport"}

    def reads(tree):
        return Counter(
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )

    package = Path(wavetrace.__file__).parent
    everywhere = sum((reads(ast.parse(path.read_text(encoding="utf-8"))) for path in package.glob("*.py")), Counter())
    unread = []
    for layer in LAYERS:
        module = importlib.import_module(f"wavetrace.{layer}")
        for node in ast.parse(inspect.getsource(module)).body:
            cls = getattr(module, getattr(node, "name", ""), None)
            if isinstance(node, ast.ClassDef) and dataclasses.is_dataclass(cls) and node.name not in written_whole:
                own = reads(node)
                unread += [
                    f"{node.name}.{f.name}" for f in dataclasses.fields(cls) if everywhere[f.name] == own[f.name]
                ]
    assert not unread
