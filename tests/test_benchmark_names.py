"""The names the benchmark's traced run wraps must exist and stay public.

``perfbench/spans.py`` wraps, by name, every function in each layer
module's ``__all__``; a missing name makes it raise, and a renamed one
silently zeroes that layer's metric.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

from torusmhd.grid import make_grid

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
