"""The names the benchmark's traced run wraps must exist and stay public,
and every other public name must have a caller in the package.

``perfbench/spans.py`` wraps, by name, every function in each layer
module's ``__all__``; a missing name makes it raise, and a renamed one
silently zeroes that layer's metric.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

from torusmhd.grid import make_grid

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "torusmhd"

# public names kept without a caller in the package, each for a reason
NO_CALLER_YET = {
    "criteria.monitored_field": "perfbench/spans.py times it in TIMED",
    "criteria.gronwall_rhs": "the plane-gradient balance reports will call it",
    "dynamics.advective_dt_bound": "run telemetry will report the CFL number from it",
    "io.read_series_csv": "resuming a run will read the series back",
    "io.read_manifest": "resuming a run will read the manifest back",
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_layer_exports_exist(spans):
    for short in spans.LAYER_MODULES:
        mod = importlib.import_module(f"torusmhd.{short}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"torusmhd.{short}.__all__ names missing {missing}"


def test_traced_names_are_public_functions(spans):
    grid_methods = {f"grid.{m}" for m in spans.GRID_METHODS}
    names = [n for n in spans.TIMED if n not in grid_methods]
    names += [f"verify.{fn}" for fn in spans.VERIFY_REPORTS]
    names.append("field.gradient")
    for qual in names:
        short, attr = qual.split(".")
        mod = importlib.import_module(f"torusmhd.{short}")
        assert attr in mod.__all__, f"{qual} is not in torusmhd.{short}.__all__"
        fn = getattr(mod, attr)
        assert isinstance(fn, types.FunctionType), f"{qual} is not a function"
        assert fn.__module__ == mod.__name__, f"{qual} is defined elsewhere"


def test_transform_extras_read_the_grid(spans):
    # the traced run sizes every transform through these; a grid attribute
    # they read going away must fail here, not only under tracing
    g = make_grid(4, 8)
    coeffs = np.zeros((3,) + g.shape, dtype=complex)
    assert spans._sample_extra((g, coeffs), {}) == [16**4, 3]
    assert spans._sample_extra((g, coeffs, 10), {}) == [10**4, 3]
    assert spans._sample_extra((g, coeffs), {"m_eval": 12}) == [12**4, 3]
    values = np.zeros((2,) + (12,) * 4)
    assert spans._analyze_extra((g, values), {}) == [12**4, 2]
    assert spans._analyze_extra((g, values[0]), {}) == [12**4, 1]


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts]
    return []


def _references(node, inside=frozenset()):
    """Names and attributes used in ``node``, leaving out imports, ``__all__``
    and each definition's uses of its own name."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return set()
    if isinstance(node, ast.Assign) and _exports(ast.Module([node], [])):
        return set()
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    out = set()
    if isinstance(node, ast.Name) and node.id not in inside:
        out.add(node.id)
    if isinstance(node, ast.Attribute) and node.attr not in inside:
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        out |= _references(child, inside)
    return out


def test_public_names_have_a_caller(spans):
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_references(t) for t in trees.values()))
    public = [f"{m}.{n}" for m in spans.LAYER_MODULES for n in _exports(trees[m])]
    orphans = [q for q in public if q.split(".")[1] not in used]
    assert sorted(set(orphans) - set(NO_CALLER_YET)) == [], "public names with no caller"
    # an exception that gained a caller or went away leaves the list
    assert sorted(set(NO_CALLER_YET) - set(orphans)) == []
