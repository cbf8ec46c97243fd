"""Regularity-criterion bookkeeping: admissible exponent regions, monitored
quantities, the name of every norm and accumulator column of a record, each
in one (norm column, quantity, p, accumulator column, r) of
:attr:`CriterionSpec.columns` or :func:`bootstrap_columns`, and what each
criterion reads from one row of its run's table: its verdict
(:func:`verdicts`) and its Gronwall right-hand side (:func:`gronwall_rhs`).

Admissibility is decided in exact rational arithmetic on the binary values
of the inputs, so boundary pairs land on the correct side deterministically.
The convention 1/inf = 0 applies throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .field import SpectralField, partial_derivative
from .norms import lp_norms

__all__ = [
    "Theorem",
    "CriterionSpec",
    "admissible",
    "bootstrap_columns",
    "bootstrap_trigger",
    "gronwall_rhs",
    "monitored_field",
    "monitored_norms",
    "PRESSURE_TAGS",
    "SPLIT_TAGS",
    "p_label",
    "SMALLNESS_ENDPOINTS",
    "verdicts",
]


class Theorem(Enum):
    T1_1 = "T1_1"
    T1_2 = "T1_2"
    T1_3 = "T1_3"
    T1_4 = "T1_4"
    T1_5 = "T1_5"
    CLASSICAL_U = "CLASSICAL_U"
    CLASSICAL_GRADU = "CLASSICAL_GRADU"
    CLASSICAL_GRADPI = "CLASSICAL_GRADPI"


# each theorem's monitored quantities, in column order, and its family: two
# velocity components (and b), their gradients, two pressure partials, or the
# whole field of a classical criterion
_THEOREMS = {
    Theorem.T1_1: (("u3", "u4"), "velocity"),
    Theorem.T1_2: (("grad_u3", "grad_u4"), "gradient"),
    Theorem.T1_3: (("u3", "u4", "b"), "velocity"),
    Theorem.T1_4: (("grad_u3", "grad_u4", "grad_b"), "gradient"),
    Theorem.T1_5: (("dpi3", "dpi4"), "pressure"),
    Theorem.CLASSICAL_U: (("u",), "classical"),
    Theorem.CLASSICAL_GRADU: (("grad_u",), "classical"),
    Theorem.CLASSICAL_GRADPI: (("grad_pi",), "classical"),
}
# the scaling endpoint of each family with a Gronwall functional: the open
# lower bound of p, reached only by the smallness clause
_ENDPOINTS = {"velocity": Fraction(6), "gradient": Fraction(12, 5)}
SMALLNESS_ENDPOINTS = {
    t: _ENDPOINTS[family] for t, (_q, family) in _THEOREMS.items() if family in _ENDPOINTS
}

# each monitored quantity as its parts (field, derivative axis, component):
# None is no derivative, "*" every axis or component, "3"/"4" a free axis
_PARTS = {
    "u": ("u", None, "*"), "u3": ("u", None, "3"), "u4": ("u", None, "4"),
    "b": ("b", None, "*"), "grad_u": ("u", "*", "*"), "grad_u3": ("u", "*", "3"),
    "grad_u4": ("u", "*", "4"), "grad_b": ("b", "*", "*"),
    "dpi3": ("pi", "3", 0), "dpi4": ("pi", "4", 0), "grad_pi": ("pi", "*", 0),
}
# the quantities sampled from the pressure: a record needs it for one of these
PRESSURE_TAGS = frozenset(t for t, (f, _a, _c) in _PARTS.items() if f == "pi")
# the quantities that need the two-component split of dim 4
SPLIT_TAGS = frozenset(t for t, (_f, a, c) in _PARTS.items() if {a, c} & {"3", "4"})


def _as_frac(x) -> Fraction | float:
    if x == math.inf:
        return math.inf
    return Fraction(x)


def _inv(x) -> Fraction:
    # 1/inf = 0
    return Fraction(0) if x == math.inf else 1 / Fraction(x)


def admissible(theorem: Theorem, p, r, dim: int = 4) -> bool:
    """Whether the integrability pair (p, r) lies in the theorem's region.

    ``dim`` enters only the classical (dimension-generic) criteria.  Values
    are compared exactly as rationals, including the open/closed endpoints.
    """
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem {theorem}")
    family = _THEOREMS[theorem][1]
    pf, rf = _as_frac(p), _as_frac(r)
    if pf != math.inf and pf < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if rf != math.inf and rf < 1:
        raise ValueError(f"r must be >= 1 or inf, got {r}")
    ip, ir = _inv(pf), _inv(rf)
    scal = 4 * ip + 2 * ir

    if family in _ENDPOINTS and pf <= _ENDPOINTS[family]:
        return False
    if family == "velocity":
        return scal <= ip + Fraction(1, 2)
    if family == "gradient":
        return scal <= (Fraction(5, 4) + ip if pf <= 4 else 1 + 2 * ip)
    if family == "pressure":
        return Fraction(12, 7) < pf < 6 and scal < Fraction(8, 3)
    if theorem is Theorem.CLASSICAL_U:
        return pf > dim and dim * ip + 2 * ir <= 1
    if theorem is Theorem.CLASSICAL_GRADU:
        r_cap = Fraction(2) if dim <= 2 else min(Fraction(2), Fraction(dim, dim - 2))
        return dim * ip + 2 * ir == 2 and 1 < rf <= r_cap
    return pf >= Fraction(dim, 3) and dim * ip + 2 * ir <= 3  # CLASSICAL_GRADPI


def p_label(p) -> str:
    if p == math.inf:
        return "inf"
    fp = float(p)
    return str(int(fp)) if fp == int(fp) else f"{fp:g}"


@dataclass(frozen=True)
class CriterionSpec:
    """One monitored criterion: a theorem plus per-quantity (p, r) pairs.

    ``pairs`` maps every canonical monitored quantity of the theorem to its
    integrability pair.  In smallness mode the pairs are pinned to the
    endpoint exponent with r = inf and only the running sup is tracked.
    """

    theorem: Theorem
    pairs: tuple[tuple[str, tuple[float, float]], ...] = ()
    smallness: bool = False

    def __post_init__(self):
        comps = _THEOREMS[self.theorem][0]
        if self.smallness:
            if self.theorem not in SMALLNESS_ENDPOINTS:
                raise ValueError(
                    f"smallness mode is not defined for {self.theorem.value}"
                )
            endpoint = float(SMALLNESS_ENDPOINTS[self.theorem])
            filled = tuple((c, (endpoint, math.inf)) for c in comps)
            object.__setattr__(self, "pairs", filled)
            return
        given = dict(self.pairs)
        if set(given) != set(comps):
            raise ValueError(
                f"{self.theorem.value} monitors {list(comps)}, got pairs for "
                f"{sorted(given)}"
            )
        ordered = tuple((c, (float(given[c][0]), float(given[c][1]))) for c in comps)
        object.__setattr__(self, "pairs", ordered)
        # the classical regions depend on the dimension, which only the run
        # configuration knows; it checks those pairs
        if not self.classical:
            self.check_admissible(4)

    @property
    def classical(self) -> bool:
        return _THEOREMS[self.theorem][1] == "classical"

    def check_admissible(self, dim: int) -> None:
        """Raise unless every pair lies in the theorem's region in ``dim``."""
        for c, (p, r) in self.pairs:
            if not admissible(self.theorem, p, r, dim):
                raise ValueError(
                    f"pair (p={p:g}, r={r:g}) for '{c}' is outside the "
                    f"{self.label} admissible region in dim {dim}"
                )

    @property
    def label(self) -> str:
        return self.theorem.value

    @property
    def columns(self) -> tuple[tuple[str, str, float, str, float], ...]:
        """(norm column, quantity, p, accumulator column, r) of each monitored
        quantity, in column order."""
        return tuple(
            (f"L{p_label(p)}_{c}", c, p, f"acc_{self.label}_{c}", r) for c, (p, r) in self.pairs
        )

    def accumulated(self, row: Mapping[str, float]) -> dict[str, float]:
        """This criterion's accumulator values in ``row`` (a table row by
        column), by accumulator column."""
        return {acc: row[acc] for _norm, _q, _p, acc, _r in self.columns}


def verdicts(
    row: Mapping[str, float], criteria: Sequence[CriterionSpec], status: str
) -> dict[str, str]:
    """``{label: verdict}`` of each criterion on a run whose table ends at
    ``row``: ``"diverged"`` for a run of that status, else
    ``"accumulators_finite"`` while every accumulator of the criterion is
    finite, and ``"accumulator_divergent"`` once one is inf or NaN."""
    return {
        spec.label: "diverged" if status == "diverged"
        else "accumulators_finite" if all(map(math.isfinite, spec.accumulated(row).values()))
        else "accumulator_divergent"
        for spec in criteria
    }


def _parts(tag: str, fields: dict, free_axes: tuple[int, int]) -> tuple[tuple, ...]:
    """The parts of a tag, axis-major like ``gradient``'s components."""
    if tag not in _PARTS:
        raise ValueError(f"unknown monitored quantity '{tag}'")
    name, axis, comp = _PARTS[tag]
    if fields[name] is None:  # only the pressure is optional
        raise ValueError(f"monitored quantity '{tag}' requires the pressure")
    dim = fields[name].grid.dim
    pick = {None: (None,), 0: (0,), "*": range(dim), "3": free_axes[:1], "4": free_axes[1:]}
    if any(not 0 <= a < dim for k in {axis, comp} & {"3", "4"} for a in pick[k]):
        raise ValueError(f"monitored quantity '{tag}' picks a free axis outside dimension {dim}")
    return tuple((name, a, c) for a in pick[axis] for c in pick[comp])


def monitored_field(
    tag: str,
    u: SpectralField,
    b: SpectralField,
    pi: SpectralField | None = None,
    free_axes: tuple[int, int] = (2, 3),
) -> SpectralField:
    """Resolve a canonical monitored-quantity tag to a concrete field.

    ``free_axes`` are the (0-based) component axes playing the role of the
    two monitored directions; the default matches the dim-4 convention.
    """
    fields = {"u": u, "b": b, "pi": pi}
    blocks = []
    for name, axis, comp in _parts(tag, fields, free_axes):
        part = fields[name].component(comp)
        blocks.append(part if axis is None else partial_derivative(part, axis))
    return SpectralField(u.grid, np.concatenate([f.coeffs for f in blocks]))


def monitored_norms(
    request: Mapping[str, Sequence[float]],
    u: SpectralField,
    b: SpectralField,
    pi: SpectralField | None = None,
    free_axes: tuple[int, int] = (2, 3),
) -> dict[tuple[str, float], float]:
    """``{(tag, p): norm}`` for ``request`` = {tag: exponents}, in one pass of
    :func:`~torusmhd.norms.lp_norms`: tags share the parts they overlap in.  A
    quantity of an identically zero field is 0.0 at every p, sampled nowhere."""
    fields = {"u": u, "b": b, "pi": pi}
    parts = {tag: (_parts(tag, fields, free_axes), ps) for tag, ps in request.items()}
    live = {k: f for k, f in fields.items() if f is not None and np.any(f.coeffs)}
    zero = {(tag, p): 0.0 for tag, ps in request.items() if _PARTS[tag][0] not in live for p in ps}
    return zero | lp_norms(live, {t: v for t, v in parts.items() if _PARTS[t][0] in live})


def bootstrap_columns(dim: int) -> tuple[tuple[str, str, float, str, float], ...]:
    """The bootstrap's (norm column, quantity, p, accumulator column, r):
    ||grad u||_{L^N} and ||grad b||_{L^N} at N = ``dim``, integrated squared."""
    return tuple((f"grad{f}_LN", f"grad_{f}", dim, f"acc_bootstrap_grad{f}_LN", 2.0) for f in "ub")


def bootstrap_trigger(row: Mapping[str, float]) -> float:
    """Integral of ||grad u||_{L^N}^2 + ||grad b||_{L^N}^2 accumulated up to
    ``row`` (a table row by column), read from its two bootstrap accumulators.
    """
    total = 0.0
    for _norm, _q, _p, key, _r in bootstrap_columns(4):  # the same in every dim
        if key not in row:
            raise ValueError(f"row is missing bootstrap column '{key}'")
        total += row[key]
    return total


def _velocity_exponents(p: float) -> tuple[float, float, float]:
    # norm, X and Z exponents of the velocity-type functional on [6, inf]
    if p == math.inf:
        return 2.0, 1.0, 0.0
    return 2 * p / (p - 2), (p - 4) / (p - 2), 2 / (p - 2)


def _gradient_exponents(p: float) -> tuple[float, float, float]:
    # norm, X and Z exponents of the gradient-type functional on [12/5, inf]
    if p == math.inf:
        return 1.0, 1.0, 0.0
    if p <= 4:
        d = 3 * p - 4
        return 4 * p / d, 4 * (p - 2) / d, (4 - p) / d
    return p / (p - 2), 1.0, 0.0


def gronwall_rhs(row: Mapping[str, float], spec: CriterionSpec) -> dict[str, float]:
    """The Gronwall right-hand side of a criterion at the state of ``row`` (a
    table row by column): ||q||_p^a X^b Z^c for each monitored quantity q, by
    ``rhs_{label}_{q}``, with the norm and the functionals X, Z of the
    anisotropic plane read from the row.  A finite term past the float range
    reads inf.

    Only the velocity and gradient families carry such a functional; the
    pressure criterion and the classical monitors are rejected.
    """
    family = _THEOREMS[spec.theorem][1]
    if family not in _ENDPOINTS:
        raise ValueError(f"no Gronwall functional is defined for {spec.theorem.value}")
    expo = _velocity_exponents if family == "velocity" else _gradient_exponents
    out = {}
    for norm, comp, p, _acc, _r in spec.columns:
        a_n, a_x, a_z = expo(p)
        try:
            term = row[norm] ** a_n * row["X"] ** a_x * row["Z"] ** a_z
        except OverflowError:  # a finite power past the float range
            term = math.inf
        out[f"rhs_{spec.label}_{comp}"] = term
    return out
