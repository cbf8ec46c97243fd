"""Norms, anisotropic functionals and the accumulators of the run's table.

Quadratic quantities (L2 norms, the energy, the W/X/Y/Z functionals) are
evaluated exactly in coefficient space via Parseval, as
:meth:`~torusmhd.grid.Grid.parseval_sum` over the stored band, where each
mode with k_last > 0 also stands for its conjugate.  General L^p norms
sample the field on the fixed oversampled grid ``Grid.eval_modes`` (2M
points per axis), accumulate |f|^2 one component at a time, and quadrature
|f|^p there.  :func:`lp_norms` serves several magnitudes built from shared
components in one pass, sampling each component once.  For even integer p,
|f|^p of a K-band field is band-limited to pK and the quadrature is exact
when 2M > pK: |u|^6 is exact at M = 16 (K = 5) on 32 points, but not at
M = 48 (K = 16) on 96.  Otherwise it is the documented approximation.

It is not sized per exponent by ``Grid.alias_free_modes(p, 0)``: rounding
p = 3 up to degree 4 moves ``gradu_LN`` by up to 9.2e-9 relative, past the
1e-9 that ``perfbench/reference.json`` (computed on 2M) is checked to, and
degree 8 at M = 32 would need 84 > 64 points.

A record streams the evaluation grid in slabs (:meth:`Grid.slabs`), so its
L^p samples hold at most a slab of rows each.  The slabs are sized by what
the pass holds: its most sums open at once, plus one part's samples and the
half layout they come from.  The monitor's dim-4 M = 16 MHD record (T1.4
smallness, T1.5, bootstrap) keeps three sums open (grad u, grad u3, grad
u4) and streams 32^4 points in 2 slabs: 20.5 MiB traced, against 40.8 MiB
as one.  A dim-3 M = 48 record with one sum open is one slab and makes the
same operations as a full-grid pass, while a dim-4 M = 32 MHD record
streams 64^4 points in 8 slabs: 5.6-6.4 s at 227 MiB max RSS in-process on
a 2-core x86-64 box, against 6.6-7.1 s and 749 MiB on the full grid.

Where a record's time goes: a dim-4 M = 16 record with T1.4 smallness,
T1.5 and the bootstrap samples 35 parts on 32^4 points in about 0.4 s on a
2-core x86-64 box.  The pruned transforms of ``Grid.sample`` take about 60%
of it; :func:`lp_norms`' elementwise work (squares, in-place sums, sqrt,
powers, quadrature) is most of the other 40%.

A run keeps its numbers in one table, :class:`~torusmhd.dynamics.Recorder`:
one row per record holding the diagnostics, the energy ledger and each
accumulator, which :func:`accumulate` advances from the previous row's values.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .field import SpectralField, sample_part

__all__ = [
    "lp_norm",
    "lp_norms",
    "l2_norm",
    "energy",
    "wxyz",
    "WXYZ",
    "accumulate",
]

WXYZ = namedtuple("WXYZ", ["W", "X", "Y", "Z"])


def lp_norm(field: SpectralField, p: float, m_eval: int | None = None) -> float:
    """L^p norm of |f| (pointwise Euclidean magnitude for vector fields).

    p = inf takes the collocation maximum on the evaluation grid.
    """
    parts = [("f", None, c) for c in range(field.components)]
    return lp_norms({"f": field}, {"f": (parts, (p,))}, m_eval)["f", p]


def lp_norms(
    fields: Mapping[str, SpectralField],
    request: Mapping[Hashable, tuple[Iterable[tuple], Sequence[float]]],
    m_eval: int | None = None,
) -> dict[tuple[Hashable, float], float]:
    """``{(key, p): norm}`` for magnitudes built from shared parts, in one pass.

    ``request`` maps a key to its parts and exponents; a part is (field name
    in ``fields``, derivative axis or None, component), and the fields share
    one grid.  The pass streams the evaluation grid slab by slab
    (:meth:`~torusmhd.grid.Grid.slabs`).  In each slab every distinct part is
    sampled once, in (field, axis, component) order, with one part's samples
    alive at a time; its square joins the |f|^2 sum of every key holding it,
    and a sum becomes its slab's maximum or quadrature of |f|^p as soon as
    its last part is in.  Each key adds into one buffer of its own, in place:
    of the keys whose sums a part starts, the first takes the squared samples
    themselves and every further one a copy.  A norm is the maximum over the
    slabs, or the slab quadratures added in slab order, to the power 1/p.  A
    key's parts must be distinct; a repeated exponent is served once.
    """
    bad = [p for _parts, ps in request.values() for p in ps if not (p >= 1)]
    if bad:
        raise ValueError(f"p must be >= 1 or inf, got {bad[0]}")
    holders: dict[tuple, list[Hashable]] = {}
    for key, (parts, _ps) in request.items():
        parts = list(parts)
        if len(set(parts)) < len(parts):
            raise ValueError(f"the parts of {key!r} must be distinct, got {parts}")
        for part in parts:
            holders.setdefault(part, []).append(key)
    names = list(fields)
    visit = sorted(holders, key=lambda q: (names.index(q[0]), -1 if q[1] is None else q[1], q[2]))
    last = {key: part for part in visit for key in holders[part]}
    if not visit:
        return {}
    open_sums, most_open = set(), 0
    for part in visit:
        open_sums.update(holders[part])
        most_open = max(most_open, len(open_sums))
        open_sums -= {key for key in holders[part] if last[key] == part}
    grid = fields[visit[0][0]].grid
    m = m_eval or grid.eval_modes
    slab_values: dict[tuple[Hashable, float], list[float]] = {}
    # a slab holds the open sums, one part's samples and their half layout
    for rows in grid.slabs(m, most_open + 2):
        sums: dict[Hashable, np.ndarray] = {}
        for name, axis, comp in visit:
            sq = sample_part(fields[name], comp, axis, m, rows)
            sq *= sq
            taken = False
            for key in holders[name, axis, comp]:
                if key in sums:
                    sums[key] += sq
                else:
                    sums[key], taken = (sq.copy() if taken else sq), True
                if last[key] == (name, axis, comp):
                    mag = np.sqrt(sums.pop(key))
                    for p in dict.fromkeys(request[key][1]):  # a repeated p once
                        slab_values.setdefault((key, p), []).append(
                            float(mag.max()) if p == math.inf else grid.quadrature(mag**p)
                        )
                    del mag
            del sq  # freed before the next part is sampled, not when replaced
    return {  # np.max keeps a NaN slab's NaN
        (key, p): float(np.max(vals)) if p == math.inf
        else sum(vals) ** (1.0 / p)
        for (key, p), vals in slab_values.items()
    }


def l2_norm(field: SpectralField) -> float:
    """Parseval L2 norm, exact in coefficient space."""
    return math.sqrt(field.grid.parseval_sum(np.abs(field.coeffs) ** 2))


def energy(u: SpectralField, b: SpectralField) -> float:
    """Squared L2 norm of the state: ||u||^2 + ||b||^2 (a zero b adds 0.0)."""
    return l2_norm(u) ** 2 + l2_norm(b) ** 2


def wxyz(u: SpectralField, b: SpectralField, plane: tuple[int, int] = (0, 1)) -> WXYZ:
    """The four anisotropic dissipation functionals of a (u, b) state.

    W restricts the gradient to the two ``plane`` axes, X is the full
    gradient energy, Y crosses the plane gradient with the full one, Z is
    the Laplacian energy.  All are squared norms summed over u and b; a zero b
    adds 0.0.
    """
    g = u.grid
    if g.dim != 4:
        raise ValueError("anisotropic functionals are defined on dim-4 grids")
    if len(plane) != 2 or len(set(plane)) != 2 or not all(0 <= a < 4 for a in plane):
        raise ValueError(f"plane must be two distinct axes in 0..3, got {plane}")
    k2_plane = sum(g.wave_axes[a] ** 2 for a in plane)
    k2 = g.k_squared
    vals = [0.0, 0.0, 0.0, 0.0]
    for f in (u, b):
        power = np.abs(f.coeffs) ** 2
        for i, weight in enumerate((k2_plane, k2, k2_plane * k2, k2 * k2)):
            # a zero weight leaves 0.0, not 0 * an overflowed inf = nan
            density = np.multiply(weight, power, out=np.zeros_like(power), where=weight > 0)
            vals[i] += g.parseval_sum(density)
    return WXYZ(*vals)


def accumulate(
    acc: float | None, prev: float | None, value: float, r: float, dt: float
) -> float:
    """The accumulator after a record of ``value``: the running sup for r = inf,
    else the integral of value^r advanced by the trapezoid over the interval
    dt from the previous record's ``prev``.

    The first record (``acc`` None) seeds an integral at 0 and a sup at the
    value; a zero-width interval adds nothing, and a finite record whose r-th
    power passes the float range makes the integral inf.  A NaN record stays
    NaN in the sup as in the integral.
    """
    if not (r > 0):
        raise ValueError(f"exponent r must be positive or inf, got {r}")
    if r == math.inf:
        # max keeps a NaN acc; a NaN value wins too, as in np.maximum
        return value if acc is None or math.isnan(value) else max(acc, value)
    if acc is None:
        return 0.0
    if dt == 0:
        return acc
    try:
        return acc + 0.5 * dt * (prev**r + value**r)
    except OverflowError:
        return math.inf
