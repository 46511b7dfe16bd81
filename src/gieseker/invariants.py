"""Twisted invariants of the classifying stack of line bundles, in the
two explicit genus-0 cases, computed as truncation-stable integers.

The three-pointed case reduces to a single block variable per degree.
The four-pointed case is computed on the boundary fiber: an endless chain
of rational curves whose fixed points carry the labels (d+n-1, 1, -n) and
whose charts give tangent weights (1,-1) and (-1,1).  Two independent
engines compute the chain Euler characteristic: explicit section
progressions glued over the nodes, and per-component fixed-point terms
expanded by exact division.  The invariant is the weight-zero part, and
finiteness shows up as stability under window padding.

Both invariants read the class's weight at a fixed point from
``class_weight``.  On the chain every component has degree -q and both
section formulas commute with shifting the fiber, so the sections at pt_n
are read at weight zero by pairing that weight with the sections of one
component whose left fiber sits at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Callable, Iterable, Mapping, Optional

from .atlas import FixedComponentLabel, Partition, nt2b
from .character import (
    AdmissibleClassSpec,
    LaurentCharacter,
    char_add,
    char_mul,
    class_weight,
    degree_range,
    vanishing_bounds,
    weight_zero_pairing,
    weight_zero_part,
)
from .errors import DomainError
from .modular_graph import ModularGraph

Vector = tuple[Fraction, Fraction]

TANGENT_Z: Vector = (Fraction(1), Fraction(-1))

CHAIN_MARKINGS_PLUS = ("1", "2")
CHAIN_MARKINGS_MINUS = ("3", "4")

# Every span of points one request evaluates holds at most this many: a
# chain window, its padding and the truncation sweep (all read from one
# span per degree), and the degrees of the three-point truncation table.
MAX_CHAIN_POINTS = 10_000


def chain_base_graph() -> ModularGraph:
    """The nodal four-pointed genus-0 curve: two rational components, one
    node, two marked points on each side.  Vertex ``a`` is the plus side
    (it carries the smallest id, fixing the orientation convention)."""
    return ModularGraph.build(
        {"a": 0, "b": 0},
        edges=[("a", "b")],
        tails={"1": "a", "2": "a", "3": "b", "4": "b"},
    )


def chain_point_blocks() -> dict[str, tuple[str, ...]]:
    blocks = {label: ("a",) for label in CHAIN_MARKINGS_PLUS}
    blocks.update({label: ("b",) for label in CHAIN_MARKINGS_MINUS})
    return blocks


def _vec_add(a: Vector, b: Vector) -> Vector:
    return (a[0] + b[0], a[1] + b[1])


def _vec_scale(c, a: Vector) -> Vector:
    c = Fraction(c)
    return (c * a[0], c * a[1])


@dataclass(frozen=True)
class InvariantResult:
    value: int
    contributing_degrees: tuple[int, ...]
    breakdown: Mapping[int, int]
    stabilization_truncation: int


@dataclass(frozen=True)
class ChainModel:
    total_degree: int
    window: tuple[int, int]


def _chain_label(d: int, n: int) -> FixedComponentLabel:
    partition = Partition.of([("a",), ("b",)])
    return FixedComponentLabel(partition, {("a",): d + n - 1, ("b",): -n})


def build_chain_model(d: int, spec: AdmissibleClassSpec, window: tuple[int, int]) -> ChainModel:
    """Chain of rational curves over the boundary point, truncated to the
    fixed points pt_n with n in the window; component n joins pt_n and
    pt_{n+1}, where the blocks carry degrees (d+n-1, -n).  The chain's
    shape does not depend on ``spec``; the class enters through the line
    data."""
    if window[0] > window[1]:
        raise DomainError("empty chain window")
    return ChainModel(d, window)


# -- line data on the chain ---------------------------------------------------


@dataclass(frozen=True)
class ChainLineData:
    """Restriction of a class to the chain: a line bundle given by its
    per-component integer degrees and per-fixed-point fiber exponents,
    times an optional locally-constant multiplier character per point."""

    degrees: Mapping[int, int]
    fibers: Mapping[int, Vector]
    multipliers: Optional[Mapping[int, LaurentCharacter]] = None

    def multiplier(self, n: int) -> LaurentCharacter:
        if self.multipliers is None:
            return LaurentCharacter.one(2)
        return self.multipliers[n]


def _check_line_data(model: ChainModel, line: ChainLineData) -> None:
    lo, hi = model.window
    for n in range(lo, hi + 1):
        if n not in line.fibers:
            raise DomainError(f"missing fiber weight at point {n}")
    for n in range(lo, hi):
        if n not in line.degrees:
            raise DomainError(f"missing degree on component {n}")
        m = line.degrees[n]
        expected = _vec_add(line.fibers[n], _vec_scale(-m, TANGENT_Z))
        if tuple(line.fibers[n + 1]) != expected:
            raise DomainError(
                f"inconsistent fiber weights across component {n}: "
                f"degree {m} forces {expected}, got {tuple(line.fibers[n + 1])}"
            )


def _sections_progression(m: int, fiber: Vector) -> LaurentCharacter:
    """chi of a degree-m line bundle on one component, by the arithmetic
    progression of section weights: m+1 lattice points stepping by the
    tangent direction away from the given end for m >= 0, zero for
    m = -1, and minus the interior progression for m <= -2."""
    if m >= 0:
        terms: dict = {}
        for j in range(m + 1):
            exp = _vec_add(fiber, _vec_scale(-j, TANGENT_Z))
            terms[exp] = terms.get(exp, 0) + 1
        return LaurentCharacter.from_terms(2, terms)
    if m == -1:
        return LaurentCharacter.zero(2)
    terms = {}
    for j in range(1, -m):
        exp = _vec_add(fiber, _vec_scale(j, TANGENT_Z))
        terms[exp] = terms.get(exp, 0) - 1
    return LaurentCharacter.from_terms(2, terms)


def _divide_one_minus(numerator: LaurentCharacter, direction: Vector) -> LaurentCharacter:
    """Exact division by (1 - t^direction); the quotient exists exactly
    when the coefficients along each direction line sum to zero."""
    lines: dict[Vector, dict[Fraction, int]] = {}
    for exp, coef in numerator.terms:
        # position along the direction line through exp
        k = None
        for e, u in zip(exp, direction):
            if u != 0:
                k = e / u
                break
        if k is None:
            raise DomainError("division direction is zero")
        anchor = _vec_add(exp, _vec_scale(-k, direction))
        lines.setdefault(anchor, {})[k] = lines.setdefault(anchor, {}).get(k, 0) + coef
    out: dict = {}
    for anchor, coefs in lines.items():
        ks = sorted(coefs)
        running = 0
        # q(x) = n(x)/(1-x): coefficient of x^k in q is the prefix sum of n
        position = ks[0]
        while position <= ks[-1]:
            running += coefs.get(position, 0)
            if running:
                exp = _vec_add(anchor, _vec_scale(position, direction))
                out[exp] = out.get(exp, 0) + running
            position += 1
        if running != 0:
            raise DomainError("inexact division: geometric series does not terminate")
    return LaurentCharacter.from_terms(2, out)


def _sections_localization(m: int, fiber: Vector) -> LaurentCharacter:
    """chi of a degree-m line bundle on one component, by summing the two
    fixed-point terms t^{phi}/(1 - t^{-tangent}) and expanding exactly;
    the fiber at the right end is the given one minus m tangent steps."""
    numerator = char_add(
        LaurentCharacter.monomial(2, _vec_add(fiber, _vec_scale(-m, TANGENT_Z))),
        LaurentCharacter.monomial(2, _vec_add(fiber, TANGENT_Z), -1),
    )
    return _divide_one_minus(numerator, TANGENT_Z)


def _chain_chi(model: ChainModel, line: ChainLineData, engine: str) -> LaurentCharacter:
    """The fiber term at the window's left end plus, for each component n,
    its sections minus the fiber at pt_n, each times pt_n's multiplier:
    charts overlap in one fiber at every interior node."""
    _check_line_data(model, line)
    sections = _sections_progression if engine == "cech" else _sections_localization
    lo, hi = model.window
    total = char_mul(LaurentCharacter.monomial(2, line.fibers[lo]), line.multiplier(lo))
    for n in range(lo, hi):
        fiber = line.fibers[n]
        local = char_add(sections(line.degrees[n], fiber), -LaurentCharacter.monomial(2, fiber))
        total = char_add(total, char_mul(local, line.multiplier(n)))
    return total


def chain_euler_character_cech(model: ChainModel, line: ChainLineData) -> LaurentCharacter:
    """Euler characteristic of the line data over the truncated chain:
    per-component section progressions minus one fiber term per interior
    node (the overlap of consecutive charts)."""
    return _chain_chi(model, line, "cech")


def chain_euler_character_localization(model: ChainModel, line: ChainLineData) -> LaurentCharacter:
    """Same contract as the Cech route, computed from per-component
    fixed-point contributions expanded as exact geometric progressions."""
    return _chain_chi(model, line, "localization")


# -- the (0,3) invariant ------------------------------------------------------


def invariant_g0_n3(
    spec: AdmissibleClassSpec, scan: Optional[Iterable[int]] = None
) -> InvariantResult:
    """Three-pointed genus-0 invariant: the moduli space is one point per
    total degree d with a one-dimensional stabilizer, so each degree gives
    the weight-zero part of the class's weight on one genus-0 block of
    degree d that carries every marked point."""
    degrees = sorted(scan) if scan is not None else list(degree_range(spec, 0, 3))
    block = ("v",)
    partition = Partition.of([block])
    point_blocks = {ev.label: block for ev in spec.evaluations}
    breakdown = {
        d: weight_zero_part(
            class_weight(spec, FixedComponentLabel(partition, {block: d}), {block: 0}, point_blocks)
        )
        for d in degrees
    }
    contributing = tuple(sorted(d for d, v in breakdown.items() if v))
    truncation = max((abs(d) for d in contributing), default=0)
    return InvariantResult(sum(breakdown.values()), contributing, breakdown, truncation)


# -- the (0,4) boundary invariant ----------------------------------------------


def _chain_values(
    spec: AdmissibleClassSpec, d: int, span: tuple[int, int], engine: str
) -> Callable[[int, int], int]:
    """Weight-zero chain value on any sub-window [a, b] of the span, from
    one pass over the span's fixed points: fiber(a) plus sections(n) -
    fiber(n) for each n in [a, b), where fiber(n) is the weight-zero part
    of the class's weight W_n at pt_n and sections(n) pairs W_n with the
    sections of a degree -q component whose left fiber is at the origin."""
    lo, hi = span
    if hi - lo + 1 > MAX_CHAIN_POINTS:
        raise DomainError(
            f"the span [{lo}, {hi}] holds {hi - lo + 1} points, above the cap of {MAX_CHAIN_POINTS}"
        )
    genera, point_blocks = {("a",): 0, ("b",): 0}, chain_point_blocks()
    weights = (class_weight(spec, _chain_label(d, n), genera, point_blocks) for n in range(lo, hi + 1))
    first = next(weights)  # an unassigned marking is reported before a fractional q
    if spec.q.denominator != 1:
        raise DomainError(
            "the boundary-chain computation needs integer component degrees; "
            f"the twist line bundle has degree -q = {-spec.q} per component"
        )
    sections = _sections_progression if engine == "cech" else _sections_localization
    unit = sections(-int(spec.q), (Fraction(0), Fraction(0)))
    fiber = {}
    prefix = {lo: 0}  # prefix[n]: sections(k) - fiber(k) summed over k < n
    for n, weight in enumerate(chain((first,), weights), lo):
        fiber[n] = weight_zero_part(weight)
        prefix[n + 1] = prefix[n] + weight_zero_pairing(unit, weight) - fiber[n]
    return lambda a, b: fiber[a] + prefix[b] - prefix[a]


def _auto_window(spec: AdmissibleClassSpec, d: int, pad: int) -> tuple[int, int]:
    bounds = vanishing_bounds(spec, chain_base_graph(), d)
    (r,) = nt2b(chain_base_graph())
    return (bounds.lower(r) - pad, bounds.upper(r) + pad)


def _window_bound(spec: AdmissibleClassSpec, degrees: Iterable[int]) -> int:
    """Largest |end| of the auto windows at the given degrees."""
    return max((abs(end) for d in degrees for end in _auto_window(spec, d, 2)), default=0)


def _stable_from(values: list[int], final: int) -> int:
    """Smallest t from which every value equals ``final`` (the last index
    when the last value differs)."""
    stable = len(values) - 1
    for t in range(len(values) - 1, -1, -1):
        if values[t] != final:
            break
        stable = t
    return stable


def _invariant_g0_n4(
    spec: AdmissibleClassSpec,
    engine: str,
    window: Optional[tuple[int, int]] = None,
    scan: Optional[Iterable[int]] = None,
) -> tuple[InvariantResult, list[int]]:
    """The invariant and its truncation sweep: the value summed over the
    windows [-t, t] for t = 0..t_max.  Each degree's chain is evaluated
    once, over the widest window any of these values reads."""
    degrees = sorted(set(scan)) if scan is not None else list(degree_range(spec, 0, 4))
    # the sweep runs over the degrees that can carry weight zero at all
    # (elsewhere the diagonal weight is non-zero on every window, so the
    # value is zero there)
    sweep = set(degrees) & set(degree_range(spec, 0, 4))
    t_max = _window_bound(spec, sweep) + 3
    breakdown = {}
    sweep_on = []  # the chain values of the sweep's degrees, each over a span holding [-t_max, t_max]
    for d in degrees:
        win = window if window is not None else _auto_window(spec, d, 2)
        if win[0] > win[1]:
            raise DomainError("empty chain window")
        padded = (win[0] - 3, win[1] + 3)
        span = (min(padded[0], -t_max), max(padded[1], t_max)) if d in sweep else padded
        value_on = _chain_values(spec, d, span, engine)
        value, check = value_on(*win), value_on(*padded)
        if check != value:
            raise RuntimeError(
                "stabilization failure: enlarging the chain window changed the "
                f"value at degree {d} ({value} -> {check})"
            )
        breakdown[d] = value
        if d in sweep:
            sweep_on.append(value_on)
    sweep_values = [sum(value_on(-t, t) for value_on in sweep_on) for t in range(t_max + 1)]
    contributing = tuple(sorted(d for d, v in breakdown.items() if v))
    total = sum(breakdown.values())
    truncation = _stable_from(sweep_values, total)
    return InvariantResult(total, contributing, breakdown, truncation), sweep_values


def invariant_g0_n4_boundary(
    spec: AdmissibleClassSpec,
    window: Optional[tuple[int, int]] = None,
    scan: Optional[Iterable[int]] = None,
) -> InvariantResult:
    """Four-pointed genus-0 invariant over the boundary fiber, via the
    Cech engine; checks the value on a padded window and insists on stability."""
    return _invariant_g0_n4(spec, "cech", window, scan)[0]


def invariant_g0_n4_localization(
    spec: AdmissibleClassSpec,
    window: Optional[tuple[int, int]] = None,
    scan: Optional[Iterable[int]] = None,
) -> InvariantResult:
    """Independent route to the same number, via exact geometric series."""
    return _invariant_g0_n4(spec, "localization", window, scan)[0]


# -- stabilization reports -------------------------------------------------


@dataclass(frozen=True)
class StabilizationReport:
    case: str
    rows: tuple[tuple[int, int], ...]
    observed: int
    predicted: int
    value: int


def stabilization_report(spec: AdmissibleClassSpec, case: str) -> StabilizationReport:
    """Truncation -> value table demonstrating that the invariant becomes
    constant no later than the vanishing-bound prediction."""
    if case == "g0n3":
        supported = degree_range(spec, 0, 3)
        predicted = max((abs(d) for d in supported), default=0)
        final = invariant_g0_n3(spec).value
        t_max = predicted + 3
        if 2 * t_max + 1 > MAX_CHAIN_POINTS:
            raise DomainError(
                f"the span [{-t_max}, {t_max}] holds {2 * t_max + 1} points, "
                f"above the cap of {MAX_CHAIN_POINTS}"
            )
        # each degree is evaluated once; row t sums the degrees in [-t, t]
        at = invariant_g0_n3(spec, scan=range(-t_max, t_max + 1)).breakdown
        values = list(accumulate(at[t] + at[-t] if t else at[0] for t in range(t_max + 1)))
    elif case == "g0n4-boundary":
        # the invariant's own sweep runs over t = 0..predicted + 3
        predicted = _window_bound(spec, degree_range(spec, 0, 4))
        result, values = _invariant_g0_n4(spec, "cech")
        final = result.value
    else:
        raise DomainError(f"unknown case {case!r}")
    observed = _stable_from(values, final)
    if observed > predicted:
        raise RuntimeError(
            f"observed stabilization {observed} exceeds the predicted bound {predicted}"
        )
    return StabilizationReport(case, tuple(enumerate(values)), observed, predicted, final)
