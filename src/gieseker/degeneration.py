"""Multidegree-labelled graphs, Gieseker validity, and the degeneration calculus.

A degeneracy type is a modular graph together with a bundle degree on each
vertex.  It is a valid stratum label when every unstable vertex is a
Gieseker bubble (a genus-0 vertex with exactly two node branches carrying
degree 1), no two bubbles are adjacent, and contracting the bubbles leaves
a stable graph.  The three elementary degenerations and their inverse
resolutions generate the closure order on stratum labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError
from .modular_graph import (
    Edge,
    ModularGraph,
    _derived,
    _digest,
    canonical_key,
    components,
    contract,
    graph_from_json,
    graph_to_json,
    require_valid,
    stable_vertex,
)

MAX_CLOSURE_STRATA = 50_000
MAX_DEFORMATION_TRIES = 20_000


@dataclass(frozen=True, eq=True)
class DegeneracyType:
    """A modular graph with a multidegree labelling, one stratum label."""

    graph: ModularGraph
    multidegree: Mapping[str, int]

    @property
    def total_degree(self) -> int:
        return sum(self.multidegree.values())


def _require_labelled(dt: DegeneracyType) -> None:
    require_valid(dt.graph)
    if set(dt.multidegree) != set(dt.graph.vertices):
        raise DomainError("multidegree not defined on exactly the vertex set")


def degeneracy_key(dt: DegeneracyType) -> str:
    """Canonical digest of the labelled graph (degrees included)."""
    return _digest(canonical_key(dt.graph, extra=dict(dt.multidegree)))


@dataclass(frozen=True)
class GiesekerVerdict:
    valid: bool
    bubbles: frozenset[str]
    reasons: tuple[str, ...]


def _vertex_rule(g: ModularGraph, v, genus: int, halves, degree: int):
    """The Gieseker rule at a vertex with these genus, half-edges and
    degree (a half-edge not in ``g`` is a new node's): why it fails, or
    ``None``, and whether it is a bubble.  Any other passing vertex is stable."""
    if genus == 0 and len(halves) < 2:
        return f"genus-0 vertex {v} has fewer than 2 special points", False
    if genus == 0 and len(halves) == 2:
        if any(h in g.tails for h in halves):
            return f"unstable vertex {v} carries a marked point (bubbles only at nodes)", False
        if g.involution.get(halves[0]) == halves[1]:
            return f"unstable vertex {v} closes up into a self-edge", False
        if degree != 1:
            return f"bubble degree != 1 at vertex {v}", False
        return None, True
    if genus == 1 and not halves:
        # Contracting bubbles keeps every other vertex's special-point
        # count, so the contraction is stable when each non-bubble vertex
        # is.  Only a one-vertex graph has a vertex without special
        # points, so this reason never precedes another.
        return f"contraction unstable: genus-1 vertex {v} has no special point", False
    return None, False


def classify_gieseker(dt: DegeneracyType) -> GiesekerVerdict:
    """Decide whether the labelled graph is a Gieseker stratum label."""
    _require_labelled(dt)
    g = dt.graph
    halves: dict[str, list[str]] = {v: [] for v in g.vertices}
    for h, v in g.attach.items():
        halves[v].append(h)
    rules = {v: _vertex_rule(g, v, g.genus[v], halves[v], dt.multidegree[v]) for v in g.vertices}
    reasons = [reason for reason, _ in rules.values() if reason is not None]
    bubbles = {v for v, (_, bubble) in rules.items() if bubble}
    if len(bubbles) >= 2:  # otherwise no two bubbles can be adjacent
        for e in g.edges():
            v1, v2 = g.edge_endpoints(e)
            if v1 in bubbles and v2 in bubbles:
                reasons.append(f"adjacent bubbles {v1}, {v2}")
    return GiesekerVerdict(not reasons, frozenset(bubbles), tuple(reasons))


@dataclass(frozen=True)
class Stabilization:
    """Stable model of a Gieseker type.  Bundle data is dropped; the
    contraction map sends kept vertices to themselves and each bubble to
    the node marker of the merged edge (its sorted half-edge pair)."""

    graph: ModularGraph
    contraction: Mapping[str, object]


def stabilize(dt: DegeneracyType) -> Stabilization:
    verdict = classify_gieseker(dt)
    if not verdict.valid:
        raise DomainError("not a Gieseker type: " + "; ".join(verdict.reasons))
    g = dt.graph
    involution = dict(g.involution)
    contraction: dict[str, object] = {v: v for v in g.vertices if v not in verdict.bubbles}
    for b in sorted(verdict.bubbles):
        hb1, hb2 = sorted(g.halves_at(b))
        hu, hw = involution[hb1], involution[hb2]
        involution[hu], involution[hw] = hw, hu
        contraction[b] = (hu, hw) if hu < hw else (hw, hu)
    attach = {h: g.attach[h] for h in g.half_edges if g.attach[h] not in verdict.bubbles}
    genus = {v: g.genus[v] for v in g.vertices if v not in verdict.bubbles}
    return Stabilization(_derived(g, genus, attach, {h: involution[h] for h in attach}), contraction)


# -- elementary deformations (smoothings) and degenerations --------------


def deform_resolve_self(dt: DegeneracyType, edge: Edge) -> DegeneracyType:
    """Delete a self-edge and raise the genus of its vertex by one."""
    _require_labelled(dt)
    if edge not in dt.graph.edges() or not dt.graph.is_self_edge(edge):
        raise DomainError(f"{edge} is not a self-edge")
    return _resolved(dt, edge)


def deform_resolve_split(dt: DegeneracyType, edge: Edge) -> DegeneracyType:
    """Merge the two endpoints of a splitting edge, adding genera and
    degrees; other edges between them become self-edges."""
    _require_labelled(dt)
    if edge not in dt.graph.edges() or dt.graph.is_self_edge(edge):
        raise DomainError(f"{edge} is not a splitting edge")
    return _resolved(dt, edge)


def _resolved(dt: DegeneracyType, edge: Edge) -> DegeneracyType:
    """Smooth the node ``edge``, summing degrees over merged vertices."""
    graph, vmap = contract(dt.graph, [edge])
    degrees = dict.fromkeys(graph.vertices, 0)
    for v, d in dt.multidegree.items():
        degrees[vmap[v]] += d
    return DegeneracyType(graph, degrees)


def _move_ids(g: ModularGraph) -> tuple[str, str, str, str]:
    """The ids the moves from ``g`` add: a split's new vertex, a bubble, and
    the two half-edges of the new node.  Each move below takes all four."""
    vertices, halves = set(g.vertices), set(g.half_edges)
    split = next(f"w{i}" for i in itertools.count() if f"w{i}" not in vertices)
    bubble = next(f"b{i}" for i in itertools.count() if f"b{i}" not in vertices)
    h1, h2 = itertools.islice((f"x{i}" for i in itertools.count() if f"x{i}" not in halves), 2)
    return split, bubble, h1, h2


def _grown(dt, genus, attach, involution, degrees) -> DegeneracyType:
    """``dt`` with entries of its maps set; new vertices and half-edges go last."""
    g = dt.graph
    genus = {**{v: g.genus[v] for v in g.vertices}, **genus}
    attach = {**{h: g.attach[h] for h in g.half_edges}, **attach}
    graph = _derived(g, genus, attach, {**g.involution, **involution})
    return DegeneracyType(graph, {**dt.multidegree, **degrees})


def _self_node(dt, v, _w, _b, h1, h2) -> DegeneracyType:
    return _grown(dt, {v: dt.graph.genus[v] - 1}, {h1: v, h2: v}, {h1: h2, h2: h1}, {})


def _split(dt, v, g1, d1, moved, w, _b, h1, h2) -> DegeneracyType:
    genus, degrees = {v: g1, w: dt.graph.genus[v] - g1}, {v: d1, w: dt.multidegree[v] - d1}
    return _grown(dt, genus, {**dict.fromkeys(moved, w), h1: v, h2: w}, {h1: h2, h2: h1}, degrees)


def _bubble(dt, edge, side, _w, b, hb1, hb2) -> DegeneracyType:
    (h1, h2), degrees = edge, {b: 1, side: dt.multidegree[side] - 1}
    return _grown(dt, {b: 0}, {hb1: b, hb2: b}, {h1: hb1, hb1: h1, h2: hb2, hb2: h2}, degrees)


def degenerate_self(dt: DegeneracyType, vertex: str) -> DegeneracyType:
    """Lower the genus of ``vertex`` by one and add a self-edge."""
    _require_labelled(dt)
    g = dt.graph
    if vertex not in g.vertices:
        raise DomainError(f"unknown vertex {vertex}")
    if g.genus[vertex] < 1:
        raise DomainError(f"vertex {vertex} has genus 0, nothing to degenerate")
    return _self_node(dt, vertex, *_move_ids(g))


def degenerate_split(
    dt: DegeneracyType,
    vertex: str,
    genus_split: tuple[int, int],
    degree_split: tuple[int, int],
    moved: Iterable[str] = (),
) -> DegeneracyType:
    """Split ``vertex`` into two vertices joined by a new edge.  ``moved``
    lists the incident half-edges that migrate to the new vertex; genera
    and degrees must split additively."""
    _require_labelled(dt)
    g = dt.graph
    if vertex not in g.vertices:
        raise DomainError(f"unknown vertex {vertex}")
    g1, g2 = genus_split
    d1, d2 = degree_split
    if g1 < 0 or g2 < 0 or g1 + g2 != g.genus[vertex]:
        raise DomainError(f"genus split {genus_split} does not sum to {g.genus[vertex]}")
    if d1 + d2 != dt.multidegree[vertex]:
        raise DomainError(f"degree split {degree_split} does not sum to {dt.multidegree[vertex]}")
    moved = set(moved)
    if not all(h in g.attach and g.attach[h] == vertex for h in moved):
        raise DomainError("moved half-edges must be attached to the split vertex")
    return _split(dt, vertex, g1, d1, moved, *_move_ids(g))


def gieseker_bubble(dt: DegeneracyType, edge: Edge, side: str) -> DegeneracyType:
    """Replace an edge between stable vertices by a bubble (genus 0,
    degree 1) joined to both ends, subtracting 1 from the degree on
    ``side``."""
    _require_labelled(dt)
    g = dt.graph
    if edge not in g.edges():
        raise DomainError(f"unknown edge {edge}")
    v1, v2 = g.edge_endpoints(edge)
    for v in {v1, v2}:
        if not stable_vertex(g, v):
            raise DomainError(f"edge endpoint {v} is not a stable vertex")
    if side not in (v1, v2):
        raise DomainError(f"side {side} is not an endpoint of {edge}")
    return _bubble(dt, edge, side, *_move_ids(g))


# -- closure enumeration -------------------------------------------------


def _elementary_moves(dt: DegeneracyType, band: tuple[int, int]):
    """The elementary degenerations of a Gieseker label inside the band
    that are Gieseker labels inside it.  Being Gieseker is local: each
    vertex passes ``_vertex_rule`` and no two bubbles are adjacent.  A
    self-node keeps a stable vertex stable and a bubble joins two stable
    ends, so neither needs a check.  A split must pass the rule at both
    vertices, and a new bubble must not meet an old one across its old
    half-edge; both sides are bubbles only when a bubble of degree 2 splits.
    Splits draw both degrees from the band, and a bubble needs degree 1 in
    it and leaves its side's degree at least ``lo``.  A split and its mirror
    (genera and degrees swapped, the complement moved) give isomorphic
    labels and pass or fail together, so only the one met first is yielded."""
    lo, hi = band
    g = dt.graph
    ids = new_v, _, h1, h2 = _move_ids(g)
    # the unstable vertices of a Gieseker label are its bubbles
    bubbles = {v for v in g.vertices if not stable_vertex(g, v)}
    toward = {h for h, j in g.involution.items() if g.attach[j] in bubbles}
    for v in g.vertices:
        if g.genus[v] >= 1:
            yield "degenerate_self", _self_node(dt, v, *ids)
    for v in g.vertices:
        gv, dv = g.genus[v], dt.multidegree[v]
        halves = g.halves_at(v)
        sides = [  # the half-edges of each side, the new node's last
            (moved, [h for h in halves if h not in moved] + [h1], [*moved, h2])
            for r in range(len(halves) + 1)
            for moved in itertools.combinations(halves, r)
        ]
        for g1 in range(gv + 1):
            for d1 in range(max(lo, dv - hi), min(hi, dv - lo) + 1):
                for moved, at1, at2 in sides:
                    key, mkey = (g1, d1, len(moved)), (gv - g1, dv - d1, len(halves) - len(moved))
                    if key > mkey or key == mkey and halves and halves[0] not in moved:
                        continue  # the mirror split came first and gives the same label
                    fault1, bubble1 = _vertex_rule(g, v, g1, at1, d1)
                    fault2, bubble2 = _vertex_rule(g, new_v, gv - g1, at2, dv - d1)
                    # a new bubble's first half-edge is its old one
                    meets = bubble1 and at1[0] in toward or bubble2 and at2[0] in toward
                    if not (fault1 or fault2 or meets):
                        yield "degenerate_split", _split(dt, v, g1, d1, moved, *ids)
    if lo <= 1 <= hi:
        for e in g.edges():
            v1, v2 = g.edge_endpoints(e)
            if v1 in bubbles or v2 in bubbles:
                continue
            for side in sorted({v1, v2}):
                if dt.multidegree[side] - 1 >= lo:
                    yield "gieseker_bubble", _bubble(dt, e, side, *ids)


def closure_poset(
    dt: DegeneracyType,
    band: tuple[int, int],
    max_strata: int = MAX_CLOSURE_STRATA,
) -> tuple[dict[str, DegeneracyType], list[tuple[str, str, str]]]:
    """Breadth-first closure of a stratum label under the elementary
    degenerations, with multidegrees confined to the band ``(lo, hi)``.

    The start is checked once; every move yields a Gieseker label inside
    the band, so no candidate needs a verdict.  Returns the strata keyed
    by canonical digest and the covering arrows labelled by operation; the
    walk keys by canonical encoding and digests each stratum once, at the end.
    """
    lo, hi = band
    if lo > hi:
        raise DomainError("empty degree band")
    if not classify_gieseker(dt).valid:
        raise DomainError("closure of a non-Gieseker label")
    if not all(lo <= d <= hi for d in dt.multidegree.values()):
        raise DomainError("starting multidegree outside the band")
    start = canonical_key(dt.graph, extra=dt.multidegree)
    strata = {start: dt}
    arrows = set()
    frontier = [start]
    while frontier:
        next_frontier = []
        for key in frontier:
            for op, cand in _elementary_moves(strata[key], band):
                ck = canonical_key(cand.graph, extra=cand.multidegree)
                arrows.add((key, ck, op))
                if ck not in strata:
                    strata[ck] = cand
                    next_frontier.append(ck)
                    if len(strata) > max_strata:
                        raise DomainError("closure enumeration exceeded the stratum cap")
        frontier = next_frontier
    digest = {key: _digest(key) for key in strata}
    arrows = sorted((digest[src], digest[dst], op) for src, dst, op in arrows)
    return {digest[k]: s for k, s in strata.items()}, arrows


def closure_strata(
    dt: DegeneracyType, band: tuple[int, int], max_strata: int = MAX_CLOSURE_STRATA
) -> dict[str, DegeneracyType]:
    """Digest-keyed set of strata in the closure of ``dt`` within the band."""
    return closure_poset(dt, band, max_strata)[0]


# -- deformations of a base graph ----------------------------------------


@dataclass(frozen=True)
class DeformationOfBase:
    """A stratum over a fixed base: the kept nodes, the partition of base
    vertices into deformed components, the stable degree on each block,
    and which kept nodes carry bubbles."""

    base: ModularGraph
    kept_edges: tuple[Edge, ...]
    blocks: tuple[tuple[str, ...], ...]
    block_degrees: Mapping[tuple[str, ...], int]
    bubbled_edges: tuple[Edge, ...]

    @property
    def total_degree(self) -> int:
        return sum(self.block_degrees.values()) + len(self.bubbled_edges)


def induced_blocks(base: ModularGraph, kept_edges: Iterable[Edge]) -> tuple[tuple[str, ...], ...]:
    """Partition forced by a choice of kept edges: the components of the
    dropped ones (vertices merge only along smoothed nodes)."""
    kept = set(kept_edges)
    blocks = components(base, (e for e in base.edges() if e not in kept))
    return tuple(sorted(tuple(sorted(block)) for block in blocks))


def make_deformation(
    base: ModularGraph,
    kept_edges: Iterable[Edge],
    block_degrees: Mapping[tuple[str, ...], int],
    bubbled_edges: Iterable[Edge] = (),
) -> DeformationOfBase:
    """Build a deformation from its kept edges; the partition is forced
    (blocks are the components of the dropped edges, which are the only
    way vertices can merge)."""
    kept = tuple(sorted(set(kept_edges)))
    if not set(kept) <= set(base.edges()):
        raise DomainError("kept edges must be edges of the base")
    blocks = induced_blocks(base, kept)
    if set(block_degrees) != set(blocks):
        raise DomainError("block degrees must be indexed by the induced blocks")
    bubbled = tuple(sorted(set(bubbled_edges)))
    if not set(bubbled) <= set(kept):
        raise DomainError("bubbled edges must be kept edges")
    return DeformationOfBase(base, kept, blocks, dict(block_degrees), bubbled)


def quotient_graph(defo: DeformationOfBase) -> tuple[ModularGraph, Mapping[str, str]]:
    """Stable model of the deformation (no bubbles): the base with its
    dropped edges contracted, so vertices are the blocks (named by their
    smallest member, in base order), kept edges survive with their base
    half-edge ids, and dropped edges internal to a block feed its genus."""
    kept = set(defo.kept_edges)
    return contract(defo.base, [e for e in defo.base.edges() if e not in kept])


def component_genus(defo: DeformationOfBase) -> dict[tuple[str, ...], int]:
    """Genus of each deformed component (dropped internal edges add to it)."""
    graph, vmap = quotient_graph(defo)
    return {block: graph.genus[vmap[block[0]]] for block in defo.blocks}


def find_isomorphism(g1: ModularGraph, g2: ModularGraph):
    """Genus- and tail-respecting isomorphism, as a (vertex map, edge map)
    pair, or ``None``.  Tail labels must match pointwise, so vertices
    carrying tails are pinned."""
    return next(filter(None, _isomorphisms(g1, g2)), None)


def _valences(g: ModularGraph) -> list[tuple[int, int]]:
    """Each vertex's genus and count of edge ends, sorted: an isomorphism keeps them."""
    ends = [g.attach[h] for h, j in g.involution.items() if h != j]
    return sorted([(g.genus[v], ends.count(v)) for v in g.vertices])


def _isomorphisms(g1: ModularGraph, g2: ModularGraph):
    """One entry per vertex map tried: the (vertex map, edge map) pair if
    it is an isomorphism, else ``None``.  Edges are grouped by their ends
    in ``edges()`` order, which is sorted."""
    edges1, edges2 = g1.edges(), g2.edges()
    if len(g1.vertices) != len(g2.vertices) or len(edges1) != len(edges2):
        return
    if g1.tail_labels() != g2.tail_labels():
        return
    pinned: dict[str, str] = {}
    at2 = {label: g2.attach[h] for h, label in g2.tails.items()}
    for h, label in g1.tails.items():
        target = at2[label]
        v = g1.attach[h]
        if pinned.get(v, target) != target:
            return
        pinned[v] = target
    free1 = [v for v in sorted(g1.vertices) if v not in pinned]
    used = set(pinned.values())
    free2 = [v for v in sorted(g2.vertices) if v not in used]
    if len(used) != len(pinned):
        return
    # with one free vertex or none there is one map to try, so this saves none
    if len(free2) > 1 and _valences(g1) != _valences(g2):
        return
    pairs2: dict[tuple[str, str], list[Edge]] = {}
    for e in edges2:
        pairs2.setdefault(tuple(sorted(g2.edge_endpoints(e))), []).append(e)
    counts2 = {k: len(v) for k, v in pairs2.items()}
    for perm in itertools.permutations(free2):
        vmap = {**pinned, **dict(zip(free1, perm))}
        if any(g1.genus[v] != g2.genus[vmap[v]] for v in g1.vertices):
            yield None
            continue
        pairs1: dict[tuple[str, str], list[Edge]] = {}
        for e in edges1:
            pairs1.setdefault(tuple(sorted((vmap[v] for v in g1.edge_endpoints(e)))), []).append(e)
        if {k: len(v) for k, v in pairs1.items()} != counts2:
            yield None
            continue
        yield vmap, {e1: e2 for key, group in pairs1.items() for e1, e2 in zip(group, pairs2[key])}


def deformation_of(dt: DegeneracyType, base: ModularGraph) -> DeformationOfBase:
    """Express a Gieseker type over ``base``: contract its bubbles, then
    search for kept edges whose quotient matches the stable model.  Each
    choice of kept edges (the leading ``None``) and each vertex map tried
    on its quotient counts against ``MAX_DEFORMATION_TRIES``."""
    require_valid(base, "base graph")
    st = stabilize(dt)
    markers = {marker for marker in st.contraction.values() if isinstance(marker, tuple)}
    tried = itertools.count(1)
    # The quotient keeps exactly the kept edges, and an isomorphism needs
    # as many edges as the stable model has.
    for kept in itertools.combinations(base.edges(), len(st.graph.edges())):
        quotient, _ = contract(base, [e for e in base.edges() if e not in kept])
        for match in itertools.chain([None], _isomorphisms(quotient, st.graph)):
            if next(tried) > MAX_DEFORMATION_TRIES:
                raise DomainError(f"deformation search exceeded {MAX_DEFORMATION_TRIES} tries")
            if match is not None:
                vmap, emap = match
                blocks = induced_blocks(base, kept)
                degrees = {b: dt.multidegree[vmap[b[0]]] for b in blocks}
                bubbled = tuple(sorted(e for e in kept if emap[e] in markers))
                return DeformationOfBase(base, kept, blocks, degrees, bubbled)
    raise DomainError("not expressible as a deformation of the base")


# -- JSON interface ------------------------------------------------------


def degeneracy_to_json(dt: DegeneracyType) -> dict:
    data = graph_to_json(dt.graph)
    data["multidegree"] = {v: dt.multidegree[v] for v in dt.graph.vertices}
    return data


def degeneracy_from_json(data: dict) -> DegeneracyType:
    if not isinstance(data, dict) or "multidegree" not in data:
        raise DomainError("degeneracy document must carry a multidegree")
    rest = {k: v for k, v in data.items() if k != "multidegree"}
    graph = graph_from_json(rest)
    if not isinstance(data["multidegree"], dict):
        raise DomainError("multidegree must be an object")
    try:
        multidegree = {v: int(d) for v, d in data["multidegree"].items()}
    except (TypeError, ValueError) as exc:
        raise DomainError(f"multidegree values must be integers: {exc}") from exc
    return DegeneracyType(graph, multidegree)
