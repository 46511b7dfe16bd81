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
from typing import Iterable, Mapping, Union

from .degeneration import (
    DegeneracyType,
    DeformationOfBase,
    component_genus,
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


def split_edges_of(base: ModularGraph, partition: Partition) -> tuple[Edge, ...]:
    """Base edges joining distinct blocks."""
    _check_partition(base, partition)
    out = []
    for e in base.edges():
        v1, v2 = base.edge_endpoints(e)
        if partition.block_of(v1) != partition.block_of(v2):
            out.append(e)
    return tuple(out)


def edge_count(base: ModularGraph, partition: Partition) -> int:
    """k(R), the number of splitting edges of the partition."""
    return len(split_edges_of(base, partition))


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


def uniform_bounds(base: ModularGraph, upper: int, lower: int) -> MultidegreeBounds:
    return MultidegreeBounds({r: (upper, lower) for r in nt2b(base)})


def minimal_bounds(base: ModularGraph, n: Union[int, Mapping[Partition, int]]) -> MultidegreeBounds:
    """The extremal band N_u(R) = N(R) = N_l(R) + 1; a per-partition
    table must give N for every partition of ``nt2b(base)`` and no other."""
    partitions = nt2b(base)
    if isinstance(n, int):
        return MultidegreeBounds({r: (n, n - 1) for r in partitions})
    known = set(partitions)
    for r in n:
        if r not in known:
            raise DomainError(f"N given for {r.blocks}, not a non-trivial 2-block partition of the base")
    for r in partitions:
        if r not in n:
            raise DomainError(f"no N given for the partition {r.blocks}")
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


def _classify_edges(defo: DeformationOfBase, r: Partition):
    """Kept edges sorted into split (joining blocks of r) and internal."""
    split, internal = [], []
    for e in defo.kept_edges:
        v1, v2 = defo.base.edge_endpoints(e)
        if r.block_of(v1) != r.block_of(v2):
            split.append(e)
        else:
            internal.append(e)
    return tuple(split), tuple(internal)


def _refines(defo: DeformationOfBase, r: Partition) -> bool:
    """Whether every deformed component lies inside one block of r, i.e.
    no splitting edge of r was smoothed."""
    return all(len({r.block_of(v) for v in block}) == 1 for block in defo.blocks)


def _block_content(defo: DeformationOfBase, r: Partition) -> dict[Block, int]:
    """Degree carried by each block of r: stable components inside it
    plus bubbles on its internal nodes.  Bubbles on splitting nodes sit
    between blocks and count for neither."""
    content = {block: 0 for block in r.blocks}
    for dblock, d in defo.block_degrees.items():
        content[r.block_of(dblock[0])] += d
    for e in defo.bubbled_edges:
        v1, v2 = defo.base.edge_endpoints(e)
        b1, b2 = r.block_of(v1), r.block_of(v2)
        if b1 == b2:
            content[b1] += 1
    return content


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
    if not _refines(defo, r):
        raise DomainError("not fixed: a splitting edge of the partition was smoothed")
    split, _ = _classify_edges(defo, r)
    missing = [e for e in split if e not in set(defo.bubbled_edges)]
    if missing:
        raise DomainError(f"not fixed: splitting edges without bubbles: {missing}")
    dropped_split = set(split_edges_of(base, r)) - set(defo.kept_edges)
    if dropped_split:
        raise DomainError("not fixed: a splitting edge of the partition was smoothed")
    return FixedComponentLabel(r, _block_content(defo, r))


def _band_inequalities(
    defo: DeformationOfBase, r: Partition, upper: int, lower: int, total: int
) -> bool:
    """The two partial-sum inequalities for one partition; vacuous when a
    splitting edge of r was smoothed (the partial sums are undefined and
    the stratum sits over a less degenerate curve)."""
    if not _refines(defo, r):
        return True
    content = _block_content(defo, r)
    plus = plus_block(r)
    minus = next(b for b in r.blocks if b != plus)
    k = edge_count(defo.base, r)
    return (
        content[plus] >= total + lower - k + 1
        and content[minus] >= -upper + 1
    )


def in_band(
    stratum: Union[DegeneracyType, DeformationOfBase],
    base: ModularGraph,
    bounds: MultidegreeBounds,
) -> bool:
    """Whether the stratum lies in the finite-type band of the bounds."""
    defo = _resolve(stratum, base)
    total = defo.total_degree
    return all(
        _band_inequalities(defo, r, bounds.upper(r), bounds.lower(r), total)
        for r in nt2b(base)
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
    if upper <= lower:
        raise DomainError("tail bounds must satisfy upper > lower")
    if not _refines(defo, r):
        return "none"
    split, _ = _classify_edges(defo, r)
    if set(split_edges_of(base, r)) - set(defo.kept_edges):
        return "none"
    content = _block_content(defo, r)
    plus = plus_block(r)
    minus = next(b for b in r.blocks if b != plus)
    smoothed = len([e for e in split if e not in set(defo.bubbled_edges)])
    n_z = -content[minus]
    n_w = n_z + smoothed
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

    def column(self, v: str) -> tuple[int, ...]:
        j = self.vertices.index(v)
        return tuple(row[j] for row in self.matrix)


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
    for r in nt2b(base):
        plus = plus_block(r)
        (minus,) = (b for b in r.blocks if b != plus)
        k = edge_count(base, r)
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
    each internal kept node (bubbled or not) subtracts one."""
    _check_partition(defo.base, r)
    if not _refines(defo, r):
        raise DomainError("deformed components must refine the partition")
    genus = {}
    comp_genus = component_genus(defo)
    _, internal = _classify_edges(defo, r)
    for block in r.blocks:
        chi = sum(1 - comp_genus[dblock] for dblock in defo.blocks if dblock[0] in block)
        nodes = [e for e in internal if r.block_of(defo.base.edge_endpoints(e)[0]) == block]
        genus[block] = 1 - (chi - len(nodes))
    return genus


# -- JSON -------------------------------------------------------------------


def partition_to_json(r: Partition) -> dict:
    return {"blocks": [list(b) for b in r.blocks]}


def partition_from_json(data: dict) -> Partition:
    if not isinstance(data, dict) or set(data) != {"blocks"}:
        raise DomainError("partition document must be {\"blocks\": [[...], ...]}")
    return Partition.of(data["blocks"])


def intersection_to_json(data: IntersectionData) -> dict:
    return {"matrix": [list(row) for row in data.matrix]}
