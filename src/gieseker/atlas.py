"""Stabilizer partitions, fixed-point labels, finite-type bands, and twists.

Over a fixed base curve, the trivialization torus has one factor per base
vertex.  The stabilizer of a stratum is encoded by the partition of base
vertices generated by paths through unbubbled nodes; fixed loci of a
partition's subtorus carry integer labels (the block-wise degree sums).
The finite-type bands cut the infinite chains of degree splittings down
to finitely many strata, and the twist lattice (column span of the
intersection matrix) moves multidegrees between band representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .degeneration import (
    DegeneracyType,
    DeformationOfBase,
    deformation_of,
    induced_blocks,
    make_deformation,
)
from .errors import DomainError
from .modular_graph import Edge, ModularGraph, require_valid

Block = tuple[str, ...]


@dataclass(frozen=True, eq=True)
class Partition:
    """Partition of the base vertex set; blocks are sorted tuples, listed
    with the block containing the smallest vertex id first."""

    blocks: tuple[Block, ...]

    @classmethod
    def of(cls, blocks: Iterable[Iterable[str]]) -> "Partition":
        normal = tuple(sorted((tuple(sorted(b)) for b in blocks)))
        return cls(normal)

    def block_of(self, v: str) -> Block:
        for block in self.blocks:
            if v in block:
                return block
        raise DomainError(f"vertex {v} not covered by the partition")


def _check_partition(base: ModularGraph, partition: Partition) -> None:
    members = [v for b in partition.blocks for v in b]
    if sorted(members) != sorted(base.vertices) or len(set(members)) != len(members):
        raise DomainError("blocks must partition the base vertex set")
    if any(not b for b in partition.blocks):
        raise DomainError("empty partition block")


@dataclass(frozen=True)
class FixedComponentLabel:
    """Connected-component label of a fixed locus: the block-wise degree
    sums (stable components plus bubbles internal to the block)."""

    partition: Partition
    sums: Mapping[Block, int]


@dataclass(frozen=True)
class MultidegreeBounds:
    """Per-partition integers N_u(R) > N_l(R) cutting the band."""

    bounds: Mapping[Partition, tuple[int, int]]

    def __post_init__(self):
        for r, (upper, lower) in self.bounds.items():
            if upper <= lower:
                raise DomainError(f"bounds for {r.blocks} must satisfy upper > lower")

    def upper(self, r: Partition) -> int:
        return self.bounds[r][0]

    def lower(self, r: Partition) -> int:
        return self.bounds[r][1]


def require_partition_table(
    base: ModularGraph, table: Mapping[Partition, object], what: str
) -> list[Partition]:
    """Check that a per-partition table has one entry for each partition
    of ``nt2b(base)`` and no other; returns ``nt2b(base)``.  ``what``
    names the entries in the error text."""
    partitions = nt2b(base)
    known = set(partitions)
    for r in table:
        if r not in known:
            raise DomainError(f"{what} given for {r.blocks}, not a non-trivial 2-block partition of the base")
    for r in partitions:
        if r not in table:
            raise DomainError(f"no {what} given for the partition {r.blocks}")
    return partitions


def uniform_bounds(base: ModularGraph, upper: int, lower: int) -> MultidegreeBounds:
    return MultidegreeBounds({r: (upper, lower) for r in nt2b(base)})


def minimal_bounds(base: ModularGraph, n: Union[int, Mapping[Partition, int]]) -> MultidegreeBounds:
    """The extremal band N_u(R) = N(R) = N_l(R) + 1; a per-partition
    table must give N for every partition of ``nt2b(base)`` and no other."""
    if isinstance(n, int):
        return uniform_bounds(base, n, n - 1)
    partitions = require_partition_table(base, n, "N")
    return MultidegreeBounds({r: (n[r], n[r] - 1) for r in partitions})


# -- stabilizers ---------------------------------------------------------


def stabilizer_partition(defo: DeformationOfBase, bubbled: Iterable[Edge] = None) -> Partition:
    """Join base vertices connected by a path avoiding bubble vertices:
    vertices in one deformed component, or linked by an unbubbled kept
    node, rescale together.  The dropped and the unbubbled kept edges are
    all edges but the bubbled ones, so these are the blocks induced by
    keeping just the bubbled edges."""
    if bubbled is None:
        bubbled = defo.bubbled_edges
    bubbled = set(bubbled)
    if not bubbled <= set(defo.kept_edges):
        raise DomainError("bubbled edges must be kept edges of the deformation")
    return Partition.of(induced_blocks(defo.base, bubbled))


def nt2b(base: ModularGraph) -> list[Partition]:
    """All non-trivial 2-block partitions of the base vertex set, in a
    deterministic order (the block containing the smallest id comes
    first, partitions ordered by that block)."""
    require_valid(base, "base graph")
    verts = sorted(base.vertices)
    if len(verts) < 2:
        return []
    first, rest = verts[0], verts[1:]
    out = []
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            plus = tuple(sorted((first,) + combo))
            minus = tuple(sorted(set(verts) - set(plus)))
            out.append(Partition((plus, minus)))
    return out


def plus_block(r: Partition) -> Block:
    """Orientation convention: the block containing the smallest vertex id."""
    return min(r.blocks, key=lambda b: min(b))


# -- fixed labels, bands, tails -------------------------------------------


def _resolve(stratum: Union[DegeneracyType, DeformationOfBase], base: ModularGraph) -> DeformationOfBase:
    if isinstance(stratum, DeformationOfBase):
        if stratum.base != base:
            raise DomainError("deformation is over a different base")
        return stratum
    return deformation_of(stratum, base)


class _Reading(NamedTuple):
    """A stratum read against a partition r whose splitting edges all
    survive as nodes."""

    content: dict[Block, int]  # degree carried by each block
    k: int  # k(R), the number of splitting edges
    plain: tuple[Edge, ...]  # splitting nodes without a bubble
    inner: dict[Block, int]  # base edges with both ends in each block


def _reading(defo: DeformationOfBase, r: Partition) -> Optional[_Reading]:
    """One pass over the base edges; ``None`` when a splitting edge of r
    was smoothed.  A block's degree content is that of the stable
    components inside it plus the bubbles on its internal nodes; bubbles
    on splitting nodes sit between blocks and count for neither.  The
    blocks of a deformation are the components of its dropped edges, so
    no smoothed splitting edge means that each lies inside one block."""
    block_of = {v: block for block in r.blocks for v in block}
    attach = defo.base.attach
    kept, bubbled = set(defo.kept_edges), set(defo.bubbled_edges)
    content = dict.fromkeys(r.blocks, 0)
    inner = dict.fromkeys(r.blocks, 0)
    k, plain = 0, []
    for e in defo.base.edges():
        b1, b2 = block_of[attach[e[0]]], block_of[attach[e[1]]]
        if b1 == b2:
            inner[b1] += 1
            if e in bubbled:
                content[b1] += 1
        elif e not in kept:
            return None
        else:
            k += 1
            if e not in bubbled:
                plain.append(e)
    for dblock, d in defo.block_degrees.items():
        content[block_of[dblock[0]]] += d
    return _Reading(content, k, tuple(plain), inner)


def _minus_block(r: Partition) -> Block:
    plus = plus_block(r)
    return next(b for b in r.blocks if b != plus)


def _every_node(base: ModularGraph) -> DeformationOfBase:
    """The unbubbled stratum that keeps every node of the base, so every
    splitting edge of every partition."""
    points = tuple((v,) for v in sorted(base.vertices))
    return DeformationOfBase(base, base.edges(), points, dict.fromkeys(points, 0), ())


def edge_count(base: ModularGraph, partition: Partition) -> int:
    """k(R), the number of splitting edges of the partition."""
    _check_partition(base, partition)
    return _reading(_every_node(base), partition).k


def fixed_label(
    stratum: Union[DegeneracyType, DeformationOfBase],
    base: ModularGraph,
    r: Partition,
) -> FixedComponentLabel:
    """Label of the fixed-locus component containing the stratum, or a
    failure when the stratum is not fixed by the partition's subtorus
    (some splitting edge of r lacks a bubble)."""
    defo = _resolve(stratum, base)
    _check_partition(base, r)
    reading = _reading(defo, r)
    if reading is None:
        raise DomainError("not fixed: a splitting edge of the partition was smoothed")
    if reading.plain:
        raise DomainError(f"not fixed: splitting edges without bubbles: {list(reading.plain)}")
    return FixedComponentLabel(r, reading.content)


def _band_inequalities(
    defo: DeformationOfBase, r: Partition, upper: int, lower: int, total: int
) -> bool:
    """The two partial-sum inequalities for one partition; vacuous when a
    splitting edge of r was smoothed (the partial sums are undefined and
    the stratum sits over a less degenerate curve)."""
    reading = _reading(defo, r)
    if reading is None:
        return True
    return (
        reading.content[plus_block(r)] >= total + lower - reading.k + 1
        and reading.content[_minus_block(r)] >= -upper + 1
    )


def in_band(
    stratum: Union[DegeneracyType, DeformationOfBase],
    base: ModularGraph,
    bounds: MultidegreeBounds,
) -> bool:
    """Whether the stratum lies in the finite-type band of the bounds,
    which must cover exactly ``nt2b(base)``."""
    defo = _resolve(stratum, base)
    total = defo.total_degree
    return all(
        _band_inequalities(defo, r, bounds.upper(r), bounds.lower(r), total)
        for r in require_partition_table(base, bounds.bounds, "bounds")
    )


def tail_membership(
    stratum: Union[DegeneracyType, DeformationOfBase],
    base: ModularGraph,
    r: Partition,
    upper: int,
    lower: int,
) -> str:
    """Classify the stratum against one partition's infinite tails:
    ``"Z"`` (upper tail), ``"W"`` (lower tail) or ``"none"``.

    The stratum is near the fixed loci of r only if every splitting edge
    of r survives as a node (bubbled or plain).  Reading the plain nodes
    as upper-side smoothings gives the Z-label -content(minus); reading
    them as lower-side smoothings gives the W-label, which exceeds it by
    the number of plain splitting nodes.  The band is exactly the
    complement of the two tails."""
    defo = _resolve(stratum, base)
    _check_partition(base, r)
    if len(r.blocks) != 2:
        raise DomainError(f"tails are defined for 2-block partitions, got {len(r.blocks)} blocks")
    if upper <= lower:
        raise DomainError("tail bounds must satisfy upper > lower")
    reading = _reading(defo, r)
    if reading is None:
        return "none"
    n_z = -reading.content[_minus_block(r)]
    n_w = n_z + len(reading.plain)
    if n_z >= upper:
        return "Z"
    if n_w <= lower:
        return "W"
    return "none"


# -- twists ----------------------------------------------------------------


@dataclass(frozen=True)
class IntersectionData:
    """Intersection matrix of the base's special fiber: off-diagonal
    entries count splitting edges between components, diagonals count
    (negatively) the splitting-edge ends.  Columns span the twist lattice."""

    vertices: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]


def intersection_data(base: ModularGraph) -> IntersectionData:
    require_valid(base, "base graph")
    verts = tuple(base.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    matrix = [[0] * n for _ in range(n)]
    for e in base.split_edges():
        v1, v2 = base.edge_endpoints(e)
        i, j = index[v1], index[v2]
        matrix[i][j] += 1
        matrix[j][i] += 1
        matrix[i][i] -= 1
        matrix[j][j] -= 1
    return IntersectionData(verts, tuple(tuple(row) for row in matrix))


def twist(
    multidegree: Mapping[str, int],
    coefficients: Mapping[str, int],
    data: IntersectionData,
) -> dict[str, int]:
    """Shift a multidegree by the matrix-vector product with the twist
    coefficients; total degree is preserved (columns sum to zero)."""
    if set(multidegree) != set(data.vertices) or set(coefficients) != set(data.vertices):
        raise DomainError("multidegree and coefficients must be indexed by the base vertices")
    out = {}
    for i, v in enumerate(data.vertices):
        out[v] = multidegree[v] + sum(
            data.matrix[i][j] * coefficients[w] for j, w in enumerate(data.vertices)
        )
    return out


def _reduced_inverse(data: IntersectionData) -> list[list[Fraction]]:
    """Rational inverse of the intersection matrix with the first vertex's
    row and column removed.  It gives the twist coefficients of a
    degree-preserving shift with the first vertex's coefficient fixed at
    0, which loses nothing: the first column is minus the sum of the
    others, and the first row's equation follows from the total.
    Nonsingular on a connected base: its determinant counts spanning
    trees."""
    size = len(data.vertices) - 1
    rows = [
        [Fraction(x) for x in data.matrix[i + 1][1:]] + [Fraction(int(i == j)) for j in range(size)]
        for i in range(size)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[size:] for row in rows]


def band_representatives(
    multidegree: Mapping[str, int],
    base: ModularGraph,
    n: Union[int, Mapping[Partition, int]],
) -> list[dict[str, int]]:
    """All twists of a multidegree whose unbubbled stratum lies in the
    minimal band S_N, ordered by their degree tuples in the vertex order
    of ``intersection_data(base)``.

    The minimal band pins the plus-block sum of each partition R to k(R)
    consecutive integers.  The partition splitting off one vertex v thus
    bounds its degree to a window of deg(v) integers (non-loop edge
    ends), and the first vertex's degree follows from the total, so the
    search walks the product of the other vertices' windows.  It keeps a
    candidate that meets every partition's inequalities and differs from
    the input by a vector of the twist lattice.  On a two-vertex base the
    minimal band admits exactly one representative; on larger bases the
    windows of N can be inconsistent, and then DomainError is raised."""
    data = intersection_data(base)
    verts = data.vertices
    if set(multidegree) != set(verts):
        raise DomainError("multidegree must be indexed by the base vertices")
    bounds = minimal_bounds(base, n)
    if len(verts) == 1:
        return [dict(multidegree)]
    total = sum(multidegree.values())
    # each partition's window for the plus-block sum, and the one-vertex
    # windows it implies
    tests, windows = [], {}
    every_node = _every_node(base)
    for r in nt2b(base):
        plus, minus = plus_block(r), _minus_block(r)
        k = _reading(every_node, r).k
        low, high = total + bounds.lower(r) - k + 1, total + bounds.upper(r) - 1
        tests.append((tuple(v in plus for v in verts), low, high))
        if len(plus) == 1:
            windows[plus[0]] = range(low, high + 1)
        if len(minus) == 1:
            windows[minus[0]] = range(total - high, total - low + 1)
    inverse = _reduced_inverse(data)
    start = tuple(multidegree[v] for v in verts[1:])
    keys = []
    for rest in itertools.product(*(windows[v] for v in verts[1:])):
        key = (total - sum(rest),) + rest
        if any(
            not low <= sum(d for d, m in zip(key, mask) if m) <= high for mask, low, high in tests
        ):
            continue
        shift = [d - s for d, s in zip(rest, start)]
        if all(sum(a * x for a, x in zip(row, shift)).denominator == 1 for row in inverse):
            keys.append(key)
    reps = [dict(zip(verts, key)) for key in sorted(keys)]
    for rep in reps:  # cross-check through the public band predicate
        defo = make_deformation(base, base.edges(), {(v,): rep[v] for v in base.vertices})
        if not in_band(defo, base, bounds):
            raise AssertionError("twist search produced an out-of-band representative")
    if not reps:
        raise DomainError("no twist of the multidegree lies in the minimal band")
    if len(verts) == 2 and len(reps) != 1:
        raise AssertionError("minimal band on a two-vertex base must have a unique representative")
    return reps


# -- block geometry helpers -------------------------------------------------


def block_effective_genus(defo: DeformationOfBase, r: Partition) -> dict[Block, int]:
    """Arithmetic-genus convention for a block's subcurve: one minus its
    structure-sheaf Euler characteristic.  Components contribute 1 - g,
    each internal kept node (bubbled or not) subtracts one.  A smoothed
    node inside a block raises its component's genus by as much as it
    removes a node, so this is 1 - sum(1 - g_v) + e over the block's base
    vertices v and the base edges e with both ends in it."""
    _check_partition(defo.base, r)
    reading = _reading(defo, r)
    if reading is None:
        raise DomainError("deformed components must refine the partition")
    return {
        block: 1 - sum(1 - defo.base.genus[v] for v in block) + reading.inner[block]
        for block in r.blocks
    }


# -- JSON -------------------------------------------------------------------


def partition_to_json(r: Partition) -> dict:
    return {"blocks": [list(b) for b in r.blocks]}


def intersection_to_json(data: IntersectionData) -> dict:
    return {"matrix": [list(row) for row in data.matrix]}
