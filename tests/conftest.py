import atexit
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration as hypothesis_configuration

from torusmhd import io as tio
from torusmhd.field import SpectralField
from torusmhd.grid import Grid, make_grid

# hypothesis keeps its files under .hypothesis/ in the working directory
# unless told otherwise, even for derandomized tests; a throwaway home,
# removed at exit, keeps a test run from littering the checkout
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="torusmhd-hypothesis-")
hypothesis_configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture(scope="session")
def grid2():
    return make_grid(2, 16)


@pytest.fixture(scope="session")
def grid3():
    return make_grid(3, 12)


@pytest.fixture(scope="session")
def grid4():
    return make_grid(4, 12)


@pytest.fixture
def sample_calls(monkeypatch):
    """(components, grid modes) of every Grid.sample call the test makes, in order."""
    calls = []
    sample = Grid.sample

    def counting(self, coeffs, m_eval=None, rows=None):
        calls.append((coeffs.shape[0], m_eval or self.eval_modes))
        return sample(self, coeffs, m_eval, rows)

    monkeypatch.setattr(Grid, "sample", counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# -- helpers the tests import from here ----------------------------------------


def field_from_function(grid, fn, components=1):
    """Sample ``fn(x1, ..., xd)`` (returning (components, ...) values) on the
    evaluation grid and band-project: analytic test fields."""
    xs = grid.coordinates(grid.eval_modes)
    vals = np.asarray(fn(*xs), dtype=float)
    target = (components,) + (grid.eval_modes,) * grid.dim
    vals = np.broadcast_to(vals, target) if vals.shape != target else vals
    return SpectralField.from_samples(grid, vals)


def l2_inner(f, g):
    """L2 inner product summed over components, exact via Parseval."""
    assert f.grid == g.grid and f.components == g.components
    return f.grid.parseval_sum((np.conj(f.coeffs) * g.coeffs).real)


def reversed_conj(c, dim):
    """conj(c(-k)) on the full ``(M,)*dim`` layout, by flipping and rolling
    every axis: a reference independent of the package's index maps."""
    axes = tuple(range(c.ndim - dim, c.ndim))
    return np.conj(np.roll(np.flip(c, axis=axes), 1, axis=axes))


def save_config(path, config):
    """Write a configuration as the JSON document ``io.load_config`` reads."""
    Path(path).write_text(json.dumps(tio.config_to_dict(config), indent=2) + "\n")


def write_raw_snapshot(path, grid, coeffs, time=0.0, nu=0.0, eta=0.0):
    """Write any coefficient array in the SPC4 layout, bypassing the field checks."""
    header = tio._HEADER.pack(
        tio.SNAPSHOT_MAGIC, tio.SNAPSHOT_VERSION, grid.dim, grid.modes_per_axis,
        coeffs.shape[0], grid.side_length, time, nu, eta,
    )
    Path(path).write_bytes(header + np.ascontiguousarray(coeffs, dtype="<c16").tobytes())
