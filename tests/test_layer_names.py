"""Names that live outside the package must resolve in it.

The benchmark's tracer patches pmvi functions by name, README's "Key entry
points" table documents public names and its "Library quickstart" block
calls them; a refactor that drops or reshapes one fails here, not in the
benchmark or in a reader's hands."""

import ast
import importlib
import re
from pathlib import Path

import pmvi
from test_uncertainty import count_calls

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
README = ROOT / "README.md"


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


def readme_entry_points() -> list:
    """Every backticked name in the first column of README's "Key entry points" table."""
    lines = README.read_text().splitlines()
    start = lines.index("Key entry points:")
    rows = []
    for line in lines[start + 1 :]:
        if rows and not line.startswith("|"):
            break
        if line.startswith("|"):
            rows.append(line)
    cells = [row.split("|")[1] for row in rows[2:]]  # skip the header and the rule
    return [name for cell in cells for name in re.findall(r"`([A-Za-z_]\w*)`", cell)]


def test_every_readme_entry_point_resolves_in_pmvi():
    names = readme_entry_points()
    assert len(names) >= 20
    assert [name for name in names if name not in pmvi.__all__ or not hasattr(pmvi, name)] == []


def test_readme_quickstart_runs(capsys, monkeypatch):
    text = README.read_text()
    block = text[text.index("## Library quickstart") :].split("```python\n", 1)[1].split("```", 1)[0]
    grams = count_calls(monkeypatch, "value_iteration.gram_matrices")
    exec(compile(block, f"{README}:quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2].startswith("certificate:")
    assert len(grams) == 1  # the certificate reads the run's own unit bonus
