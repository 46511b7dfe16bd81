"""Exact multivariate Laurent characters and fixed-point weight formulas.

Characters live in the group ring of a rational character lattice: finite
integer combinations of monomials t_0^{a_0} ... t_{k-1}^{a_{k-1}} with
rational exponents, one variable per partition block.  Invariance means
the exponent vector is exactly zero; there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .atlas import (
    Block,
    FixedComponentLabel,
    MultidegreeBounds,
    Partition,
    uniform_bounds,
)
from .errors import DomainError
from .modular_graph import ModularGraph, total_genus

Exponent = tuple[Fraction, ...]
Rational = Union[int, Fraction]


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, eq=True)
class LaurentCharacter:
    """Finite exponent-vector -> integer-coefficient map, zero
    coefficients never stored, all exponent vectors of equal arity."""

    arity: int
    terms: tuple[tuple[Exponent, int], ...]

    @classmethod
    def from_terms(cls, arity: int, terms: Mapping[Exponent, int]) -> "LaurentCharacter":
        clean = {}
        for exp, coef in terms.items():
            if len(exp) != arity:
                raise DomainError("exponent arity mismatch")
            if coef:
                clean[tuple(_frac(x) for x in exp)] = coef
        return cls(arity, tuple(sorted(clean.items())))

    @classmethod
    def zero(cls, arity: int) -> "LaurentCharacter":
        return cls(arity, ())

    @classmethod
    def one(cls, arity: int) -> "LaurentCharacter":
        return cls.monomial(arity, (0,) * arity)

    @classmethod
    def monomial(cls, arity: int, exponent: Sequence[Rational], coef: int = 1) -> "LaurentCharacter":
        return cls.from_terms(arity, {tuple(_frac(x) for x in exponent): coef})

    def coefficient(self, exponent: Sequence[Rational]) -> int:
        key = tuple(_frac(x) for x in exponent)
        for exp, coef in self.terms:
            if exp == key:
                return coef
        return 0

    def __add__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        return char_add(self, other)

    def __mul__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        return char_mul(self, other)

    def __neg__(self) -> "LaurentCharacter":
        return LaurentCharacter(self.arity, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        return char_add(self, -other)


def _check_arity(a: LaurentCharacter, b: LaurentCharacter) -> None:
    if a.arity != b.arity:
        raise DomainError(f"arity mismatch: {a.arity} vs {b.arity}")


def char_add(a: LaurentCharacter, b: LaurentCharacter) -> LaurentCharacter:
    _check_arity(a, b)
    acc = dict(a.terms)
    for exp, coef in b.terms:
        acc[exp] = acc.get(exp, 0) + coef
    return LaurentCharacter.from_terms(a.arity, acc)


def char_mul(a: LaurentCharacter, b: LaurentCharacter) -> LaurentCharacter:
    _check_arity(a, b)
    acc: dict[Exponent, int] = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            key = tuple(x + y for x, y in zip(e1, e2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return LaurentCharacter.from_terms(a.arity, acc)


def char_pow(a: LaurentCharacter, k: int) -> LaurentCharacter:
    """Non-negative powers always; negative powers only for single-term
    units (invertible monomials with coefficient +-1)."""
    if k < 0:
        if len(a.terms) != 1 or a.terms[0][1] not in (1, -1):
            raise DomainError("negative power of a non-unit character")
        exp, coef = a.terms[0]
        inv = LaurentCharacter.monomial(a.arity, tuple(-x for x in exp), coef)
        return char_pow(inv, -k)
    out = LaurentCharacter.one(a.arity)
    base = a
    while k:
        if k & 1:
            out = char_mul(out, base)
        base = char_mul(base, base)
        k >>= 1
    return out


def weight_zero_part(a: LaurentCharacter) -> int:
    """Coefficient of the all-zero exponent vector: the invariant part of
    a torus character, which is what pushing forward to a point keeps."""
    return a.coefficient((0,) * a.arity)


def weight_zero_pairing(a: LaurentCharacter, b: LaurentCharacter) -> int:
    """Weight-zero part of the product a*b without multiplying: the sum of
    a[e] b[-e] over the exponents e of a."""
    _check_arity(a, b)
    coefs = dict(b.terms)
    return sum(c * coefs.get(tuple(-x for x in e), 0) for e, c in a.terms)


def format_fraction(x: Rational) -> str:
    f = _frac(x)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(text: Union[str, int]) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed rational {text!r}") from exc


def character_to_json(a: LaurentCharacter) -> dict:
    return {
        "terms": [
            {"exp": [format_fraction(x) for x in exp], "coef": coef}
            for exp, coef in a.terms
        ]
    }


def character_from_json(data: dict) -> LaurentCharacter:
    if not isinstance(data, dict) or set(data) != {"terms"}:
        raise DomainError("character document must be {\"terms\": [...]}")
    terms: dict[Exponent, int] = {}
    arity = None
    for row in data["terms"]:
        exp = tuple(parse_fraction(x) for x in row["exp"])
        if arity is None:
            arity = len(exp)
        elif arity != len(exp):
            raise DomainError("exponent arity mismatch")
        terms[exp] = terms.get(exp, 0) + int(row["coef"])
    return LaurentCharacter.from_terms(arity or 0, terms)


# -- admissible class data ---------------------------------------------------


@dataclass(frozen=True)
class EvaluationInsertion:
    """Evaluation class at a marked point, optionally tensored with a
    power of the cotangent line there."""

    label: str
    weight: int
    descendant: int = 0

    def __post_init__(self):
        if self.descendant < 0:
            raise DomainError("descendant exponent must be non-negative")


# An index power p raises a character of up to two terms to the p-th
# power at every fixed point, so its work grows with p (the coefficient's
# digits with it); a power of 10^30 never finishes.
MAX_INDEX_POWER = 16


@dataclass(frozen=True)
class IndexInsertion:
    """A power of the index class of the weight-lambda representation."""

    weight: int
    power: int

    def __post_init__(self):
        if self.power < 0:
            raise DomainError("index classes support non-negative powers only")
        if self.power > MAX_INDEX_POWER:
            raise DomainError(f"index power {self.power} is above the cap of {MAX_INDEX_POWER}")


@dataclass(frozen=True)
class AdmissibleClassSpec:
    """Twist exponent q > 0 plus evaluation/descendant and index factors."""

    q: Fraction
    evaluations: tuple[EvaluationInsertion, ...] = ()
    indices: tuple[IndexInsertion, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "q", _frac(self.q))
        if self.q <= 0:
            raise DomainError("twist exponent q must be positive")


# -- fixed-point weights -----------------------------------------------------


def line_bundle_weight(
    label: FixedComponentLabel, genera: Mapping[Block, int], q: Rational
) -> LaurentCharacter:
    """Fiber of the twist line bundle at a fixed point: the single
    monomial with exponent q(n_r + 1 - g_r) in each block variable."""
    q = _frac(q)
    if q <= 0:
        raise DomainError("twist exponent q must be positive")
    blocks = label.partition.blocks
    exponent = tuple(q * (label.sums[b] + 1 - genera[b]) for b in blocks)
    return LaurentCharacter.monomial(len(blocks), exponent)


def evaluation_weight(partition: Partition, block: Block, weight: int) -> LaurentCharacter:
    """Fiber of an evaluation class: sections over the block carrying the
    marked point transform with weight -lambda; other blocks see nothing."""
    if block not in partition.blocks:
        raise DomainError("marked point must sit on a block of the partition")
    arity = len(partition.blocks)
    exponent = [Fraction(0)] * arity
    exponent[partition.blocks.index(block)] = Fraction(-weight)
    return LaurentCharacter.monomial(arity, tuple(exponent))


def descendant_weight(partition: Partition) -> LaurentCharacter:
    """Cotangent lines at marked points sit on stable components, which
    the stabilizer torus fixes pointwise, so the weight is zero."""
    return LaurentCharacter.one(len(partition.blocks))


def index_character(
    label: FixedComponentLabel, genera: Mapping[Block, int], weight: int
) -> LaurentCharacter:
    """Euler characteristic of the weight-lambda bundle at a fixed point:
    (lambda n_r + 1 - g_r) in each block variable t_r^{-lambda}.
    Coefficients may vanish or go negative."""
    blocks = label.partition.blocks
    arity = len(blocks)
    out = LaurentCharacter.zero(arity)
    for i, b in enumerate(blocks):
        coef = weight * label.sums[b] + 1 - genera[b]
        exponent = [Fraction(0)] * arity
        exponent[i] = Fraction(-weight)
        out = char_add(out, LaurentCharacter.monomial(arity, tuple(exponent), coef))
    return out


def class_weight(
    spec: AdmissibleClassSpec,
    label: FixedComponentLabel,
    genera: Mapping[Block, int],
    point_blocks: Mapping[str, Block],
) -> LaurentCharacter:
    """Fiber character of the full admissible class at a fixed point:
    line bundle times evaluation/descendant factors times index powers."""
    out = line_bundle_weight(label, genera, spec.q)
    for ev in spec.evaluations:
        if ev.label not in point_blocks:
            raise DomainError(f"marked point {ev.label} has no block assignment")
        out = char_mul(out, evaluation_weight(label.partition, point_blocks[ev.label], ev.weight))
        # descendant factor: weight zero on stable components
    for ins in spec.indices:
        out = char_mul(out, char_pow(index_character(label, genera, ins.weight), ins.power))
    return out


# -- vanishing bounds and degree support ------------------------------------


def _insertion_bound(spec: AdmissibleClassSpec) -> int:
    return sum(abs(ev.weight) for ev in spec.evaluations) + sum(
        ins.power * abs(ins.weight) for ins in spec.indices
    )


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def vanishing_bounds(
    spec: AdmissibleClassSpec, base: ModularGraph, total_degree: int
) -> MultidegreeBounds:
    """Bounds beyond which no fixed-point character of the class can have
    a zero exponent: the line-bundle exponent grows linearly in the label
    while insertions shift it by at most the sum of their weights.
    Conservative over-estimates, uniform over the partitions."""
    if spec.q <= 0:
        raise DomainError("twist exponent q must be positive")
    pad = _ceil(Fraction(_insertion_bound(spec)) / spec.q)
    g = total_genus(base)
    upper = pad + g + 2
    lower = -(pad + g + 2 + abs(total_degree))
    return uniform_bounds(base, upper, lower)


def degree_range(spec: AdmissibleClassSpec, genus: int, markings: int) -> tuple[int, ...]:
    """Total degrees where the diagonal weight of the class can vanish.

    At any fixed label the diagonal exponent of the line bundle equals
    q(d + 1 - g) and every insertion shifts all terms by the constant
    -(sum of evaluation weights + weighted index powers), so at most one
    integer degree survives."""
    if markings < 0:
        raise DomainError("marking count must be non-negative")
    shift = sum(ev.weight for ev in spec.evaluations) + sum(
        ins.power * ins.weight for ins in spec.indices
    )
    d = Fraction(shift) / spec.q - 1 + genus
    if d.denominator == 1:
        return (int(d),)
    return ()
