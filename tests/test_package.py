import ast
import importlib
import inspect
import re
import types

import wavetrace

LAYERS = ("specfun", "surface", "herglotz", "spectra", "sweep", "verify")

# closed forms and wrappers only the tests use; the references live in tests/oracles.py
TEST_ONLY = (
    "plane_wave_trace", "single_layer_matrix", "sph_hankel1", "funk_hecke",
    "helmholtz_residual", "single_layer_symbol", "ball_eigenfunction",
)


def test_exports_are_the_layer_all_lists():
    exported = {
        name for name, value in vars(wavetrace).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = set().union(*(importlib.import_module(f"wavetrace.{layer}").__all__ for layer in LAYERS))
    assert listed == exported
    assert not [name for name in TEST_ONLY if hasattr(wavetrace, name)]


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
