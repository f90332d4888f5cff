"""The benchmark's tracer patches pmvi functions by name; every name it lists
must exist, so a refactor that drops one fails here, not in the benchmark."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def layer_functions() -> tuple:
    """``LAYER_FUNCTIONS`` read from the tracer's source (not imported)."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_FUNCTIONS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {TRACER}")


def test_every_traced_layer_resolves_to_a_pmvi_callable():
    names = layer_functions()
    assert len(names) == len(set(names)) > 0
    missing = []
    for qualname in names:
        module_name, attr = qualname.rsplit(".", 1)
        module = importlib.import_module(f"pmvi.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(qualname)
    assert missing == []
