"""Modular graphs of marked nodal curves.

A modular graph records the combinatorial type of a marked nodal curve:
one vertex per irreducible component (labelled with the genus of its
normalization), one half-edge per special point, an involution pairing the
two branches of each node, and labelled tails for the marked points.
Self-edges are involution 2-cycles whose half-edges share a vertex.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import DomainError

# An edge is the sorted pair of half-edge ids forming an involution 2-cycle.
Edge = tuple[str, str]

MAX_CANONICAL_VERTICES = 12
MAX_CANONICAL_ORDERINGS = 2_000_000


@dataclass(frozen=True, eq=True)
class ModularGraph:
    """Immutable modular graph.

    ``genus`` maps vertex id to the genus of the component's normalization,
    ``attach`` maps half-edge id to its vertex, ``involution`` is the node
    pairing (tails are its fixed points), and ``tails`` maps each fixed
    half-edge to its marked-point label.

    The mappings must not change after construction: ``validate`` checks a
    graph once and keeps the report on it for every later call.
    """

    vertices: tuple[str, ...]
    genus: Mapping[str, int]
    half_edges: tuple[str, ...]
    attach: Mapping[str, str]
    involution: Mapping[str, str]
    tails: Mapping[str, str]
    _report: Optional["ValidationReport"] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        genus: Mapping[str, int],
        edges: Iterable[tuple[str, str]] = (),
        tails: Mapping[str, str] = (),
    ) -> "ModularGraph":
        """Assemble a graph from vertex genera, edges ``(v1, v2)`` and a
        mapping of marked-point labels to vertices.  Half-edge ids are
        generated deterministically (``e{k}a``/``e{k}b`` and ``t_{label}``).
        """
        vertices = tuple(genus)
        halves: list[str] = []
        attach: dict[str, str] = {}
        involution: dict[str, str] = {}
        tail_map: dict[str, str] = {}
        for k, (v1, v2) in enumerate(edges):
            h1, h2 = f"e{k}a", f"e{k}b"
            halves += [h1, h2]
            attach[h1], attach[h2] = v1, v2
            involution[h1], involution[h2] = h2, h1
        for label in sorted(dict(tails)):
            h = f"t_{label}"
            halves.append(h)
            attach[h] = dict(tails)[label]
            involution[h] = h
            tail_map[h] = label
        return cls(vertices, dict(genus), tuple(halves), attach, involution, tail_map)

    # -- derived views -------------------------------------------------

    def edges(self) -> tuple[Edge, ...]:
        """Involution 2-cycles as sorted half-edge pairs, in sorted order."""
        seen = set()
        out = []
        for h in self.half_edges:
            j = self.involution[h]
            if j != h:
                e = (h, j) if h < j else (j, h)
                if e not in seen:
                    seen.add(e)
                    out.append(e)
        return tuple(sorted(out))

    def edge_endpoints(self, edge: Edge) -> tuple[str, str]:
        return (self.attach[edge[0]], self.attach[edge[1]])

    def is_self_edge(self, edge: Edge) -> bool:
        v1, v2 = self.edge_endpoints(edge)
        return v1 == v2

    def split_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges() if not self.is_self_edge(e))

    def self_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges() if self.is_self_edge(e))

    def halves_at(self, v: str) -> tuple[str, ...]:
        return tuple(h for h in self.half_edges if self.attach[h] == v)

    def tails_at(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(self.tails[h] for h in self.halves_at(v) if h in self.tails))

    def tail_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.tails.values()))


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(g: ModularGraph) -> ValidationReport:
    """Check every structural invariant; total, never raises.  The first
    call walks the graph and stores the report on it."""
    if g._report is None:
        object.__setattr__(g, "_report", _check_structure(g))
    return g._report


def _check_structure(g: ModularGraph) -> ValidationReport:
    errors: list[str] = []
    if len(set(g.vertices)) != len(g.vertices):
        errors.append("duplicate vertex ids")
    if len(set(g.half_edges)) != len(g.half_edges):
        errors.append("duplicate half-edge ids")
    vset, hset = set(g.vertices), set(g.half_edges)
    if set(g.genus) != vset:
        errors.append("genus map not defined on exactly the vertex set")
    else:
        for v, gv in g.genus.items():
            if not isinstance(gv, int) or gv < 0:
                errors.append(f"genus of {v} is not a non-negative integer")
    if set(g.attach) != hset:
        errors.append("attachment map not defined on exactly the half-edge set")
    else:
        for h, v in g.attach.items():
            if v not in vset:
                errors.append(f"half-edge {h} attaches to unknown vertex {v}")
    if set(g.involution) != hset or any(v not in hset for v in g.involution.values()):
        errors.append("involution not a map of the half-edge set to itself")
    else:
        if any(g.involution[g.involution[h]] != h for h in g.half_edges):
            errors.append("involution not self-inverse")
        else:
            fixed = {h for h in g.half_edges if g.involution[h] == h}
            if set(g.tails) != fixed:
                errors.append("tail labels not a bijection from the involution fixed points")
            elif len(set(g.tails.values())) != len(g.tails):
                errors.append("tail labels not distinct")
    if not errors and len(components(g, g.involution.items())) > 1:
        errors.append("disconnected")
    if not g.vertices:
        errors.append("empty vertex set")
    return ValidationReport(tuple(errors))


def require_valid(g: ModularGraph, what: str = "graph") -> None:
    """Raise DomainError listing the violations of an invalid graph."""
    report = validate(g)
    if not report.ok:
        raise DomainError(f"invalid {what}: " + "; ".join(report.errors))


# -- graph surgery -----------------------------------------------------


def components(g: ModularGraph, pairs: Iterable[tuple[str, str]]) -> tuple[tuple[str, ...], ...]:
    """Vertex sets of the connected components of the graph on ``g``'s
    vertices whose edges are the half-edge pairs ``pairs``.  Each block
    starts with its first vertex in ``g.vertices`` order, and the blocks
    come in that order.  Vertex ids are never ordered, so ids of mixed
    types are fine."""
    adjacent: dict[str, list[str]] = {v: [] for v in g.vertices}
    for h, j in pairs:
        v, w = g.attach[h], g.attach[j]
        if v != w:
            adjacent[v].append(w)
            adjacent[w].append(v)
    seen: set[str] = set()
    blocks = []
    for v in g.vertices:
        if v not in seen:
            seen.add(v)
            block = [v]
            for u in block:  # the block grows while it is walked
                for w in adjacent[u]:
                    if w not in seen:
                        seen.add(w)
                        block.append(w)
            blocks.append(tuple(block))
    return tuple(blocks)


def contract(g: ModularGraph, edges: Iterable[Edge]) -> tuple[ModularGraph, dict[str, str]]:
    """Smooth the nodes ``edges``: each block of vertices they span becomes
    one vertex, named by its smallest member, whose genus is the block's
    genus sum plus its first Betti number in the contracted edges.  The
    surviving vertices and half-edges keep their order, and tails are
    unchanged.  Returns the contracted graph and the map from each vertex
    of ``g`` to its vertex in it."""
    edges = tuple(edges)
    vmap = {v: min(block) for block in components(g, edges) for v in block}
    genus = {v: 1 for v in g.vertices if vmap[v] == v}
    for v in g.vertices:
        genus[vmap[v]] += g.genus[v] - 1
    for h, _ in edges:
        genus[vmap[g.attach[h]]] += 1
    gone = {h for e in edges for h in e}
    attach = {h: vmap[g.attach[h]] for h in g.half_edges if h not in gone}
    return _derived(g, genus, attach, {h: g.involution[h] for h in attach}), vmap


def _derived(g: ModularGraph, genus: dict, attach: dict, involution: dict) -> ModularGraph:
    """A graph cut from ``g``, with its tails: vertices in ``genus`` order,
    half-edges in ``attach`` order.  Surgery keeps a valid graph valid, so
    an ok report stored on ``g`` carries over; else the walk is lazy."""
    graph = ModularGraph(tuple(genus), genus, tuple(attach), attach, involution, dict(g.tails))
    if g._report is not None and g._report.ok:
        object.__setattr__(graph, "_report", g._report)
    return graph


def total_genus(g: ModularGraph) -> int:
    """Sum of vertex genera plus the first Betti number of the graph."""
    require_valid(g)
    return sum(g.genus.values()) + len(g.edges()) - len(g.vertices) + 1


def special_point_count(g: ModularGraph, v: str) -> int:
    """Half-edges at ``v``; a self-node counts twice on the normalization."""
    if v not in g.vertices:
        raise DomainError(f"unknown vertex {v}")
    return len(g.halves_at(v))


def stable_vertex(g: ModularGraph, v: str) -> bool:
    """Whether ``v`` is stable: >= 3 special points at genus 0, >= 1 at genus 1."""
    gv = g.genus[v]
    return gv > 1 or special_point_count(g, v) >= (3 if gv == 0 else 1)


def is_stable(g: ModularGraph) -> bool:
    """Every genus-0 vertex carries >= 3 special points, genus-1 >= 1."""
    require_valid(g)
    return all(stable_vertex(g, v) for v in g.vertices)


# -- canonical form ----------------------------------------------------
#
# Exhaustive minimization of a faithful encoding over vertex orderings,
# restricted to the classes of an iterated degree/genus/tail refinement.
# The encoding reconstructs the graph, so equal encodings are isomorphic
# by construction and the refinement only prunes the search.


def _refined_classes(g: ModularGraph, profiles, pairs):
    order = sorted(set(profiles.values()))
    color = {v: order.index(profiles[v]) for v in g.vertices}
    neighbors = {v: [] for v in g.vertices}  # with multiplicity, per split-edge end
    for v1, v2 in pairs:
        if v1 != v2:
            neighbors[v1].append(v2)
            neighbors[v2].append(v1)
    while len(order) < len(g.vertices):  # distinct colors cannot split further
        keys = {v: (color[v], tuple(sorted(color[w] for w in neighbors[v]))) for v in g.vertices}
        refined = sorted(set(keys.values()))
        color = {v: refined.index(keys[v]) for v in g.vertices}
        if len(refined) == len(order):
            break
        order = refined
    classes: dict[int, list[str]] = {}
    for v in sorted(g.vertices):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def _canonical_order(
    g: ModularGraph,
    extra: Optional[Mapping[str, int]] = None,
    max_vertices: int = MAX_CANONICAL_VERTICES,
):
    """Minimal encoding (each vertex's genus, label and sorted tails in the
    order, then the edges' endpoint positions) and the order achieving it."""
    require_valid(g)
    if len(g.vertices) > max_vertices:
        raise DomainError(
            f"canonical form limited to {max_vertices} vertices, got {len(g.vertices)}"
        )
    tails: dict[str, list[str]] = {v: [] for v in g.vertices}
    points, loops = dict.fromkeys(g.vertices, 0), dict.fromkeys(g.vertices, 0)
    pairs = []  # the endpoints of each edge
    for h, v in g.attach.items():
        points[v] += 1
        j = g.involution[h]
        if h in g.tails:
            tails[v].append(g.tails[h])
        elif h < j:
            pairs.append((v, g.attach[j]))
            loops[v] += v == g.attach[j]
    label = {v: (1, extra[v]) if extra is not None else (0, 0) for v in g.vertices}
    rows = {v: (g.genus[v], label[v], tuple(sorted(tails[v]))) for v in g.vertices}
    classes = _refined_classes(g, {v: (*rows[v], points[v], loops[v]) for v in g.vertices}, pairs)
    count = 1
    for cls in classes:
        for k in range(2, len(cls) + 1):
            count *= k
        if count > MAX_CANONICAL_ORDERINGS:
            raise DomainError("canonical form: ordering search space too large")
    best = None
    for perm_choice in itertools.product(*(itertools.permutations(c) for c in classes)):
        order = [v for chunk in perm_choice for v in chunk]
        position = {v: i for i, v in enumerate(order)}
        erows = sorted(tuple(sorted((position[v1], position[v2]))) for v1, v2 in pairs)
        enc = (tuple(rows[v] for v in order), tuple(erows))
        if best is None or enc < best[0]:
            best = (enc, tuple(order))
    return best


def canonical_key(g: ModularGraph, extra: Optional[Mapping[str, int]] = None):
    """Isomorphism-invariant encoding (with optional per-vertex labels)."""
    return _canonical_order(g, extra)[0]


@dataclass(frozen=True)
class CanonicalGraph:
    graph: ModularGraph
    digest: str
    vertex_map: Mapping[str, str]
    half_edge_map: Mapping[str, str]


def canonical_form(g: ModularGraph, max_vertices: int = MAX_CANONICAL_VERTICES) -> CanonicalGraph:
    """Relabel ``g`` canonically; isomorphic graphs get identical digests."""
    enc, order = _canonical_order(g, None, max_vertices)
    position = {v: i for i, v in enumerate(order)}
    vertex_map = {v: f"v{position[v]}" for v in g.vertices}
    genus = {vertex_map[v]: g.genus[v] for v in g.vertices}

    half_edge_map: dict[str, str] = {}
    labels = g.tail_labels()
    for h, label in g.tails.items():
        half_edge_map[h] = f"t{labels.index(label)}"

    def edge_key(e: Edge):
        v1, v2 = g.edge_endpoints(e)
        return (tuple(sorted((position[v1], position[v2]))), e)

    halves: list[str] = []
    attach: dict[str, str] = {}
    involution: dict[str, str] = {}
    tails: dict[str, str] = {}
    for k, e in enumerate(sorted(g.edges(), key=edge_key)):
        ends = sorted(e, key=lambda h: (position[g.attach[h]], h))
        for offset, h in enumerate(ends):
            name = f"h{2 * k + offset}"
            half_edge_map[h] = name
            halves.append(name)
            attach[name] = vertex_map[g.attach[h]]
        involution[f"h{2 * k}"] = f"h{2 * k + 1}"
        involution[f"h{2 * k + 1}"] = f"h{2 * k}"
    for h, label in sorted(g.tails.items(), key=lambda kv: kv[1]):
        name = half_edge_map[h]
        halves.append(name)
        attach[name] = vertex_map[g.attach[h]]
        involution[name] = name
        tails[name] = label

    canon = ModularGraph(
        tuple(f"v{i}" for i in range(len(order))),
        genus,
        tuple(halves),
        attach,
        involution,
        tails,
    )
    return CanonicalGraph(canon, _digest(enc), vertex_map, half_edge_map)


def _digest(enc) -> str:
    """The sha256 hex digest of a canonical encoding."""
    return hashlib.sha256(json.dumps(enc, sort_keys=True).encode()).hexdigest()


# -- JSON interface ----------------------------------------------------


def graph_to_json(g: ModularGraph) -> dict:
    return {
        "vertices": [{"id": v, "genus": g.genus[v]} for v in g.vertices],
        "half_edges": [{"id": h, "vertex": g.attach[h]} for h in g.half_edges],
        "involution": [list(e) for e in g.edges()],
        "tails": {h: g.tails[h] for h in sorted(g.tails)},
    }


def graph_from_json(data: dict) -> ModularGraph:
    if not isinstance(data, dict):
        raise DomainError("graph document must be a JSON object")
    allowed = {"vertices", "half_edges", "involution", "tails"}
    unknown = set(data) - allowed
    if unknown:
        raise DomainError(f"unknown graph keys: {sorted(unknown)}")
    missing = allowed - set(data)
    if missing:
        raise DomainError(f"missing graph keys: {sorted(missing)}")
    try:
        vertices = tuple(row["id"] for row in data["vertices"])
        genus = {row["id"]: row["genus"] for row in data["vertices"]}
        half_edges = tuple(row["id"] for row in data["half_edges"])
        attach = {row["id"]: row["vertex"] for row in data["half_edges"]}
    except (TypeError, KeyError) as exc:
        raise DomainError(f"malformed graph document: {exc}") from exc
    if not all(isinstance(v, Hashable) for v in attach.values()):
        raise DomainError("half-edge vertices must be vertex ids, not lists or objects")
    if not isinstance(data["involution"], list):
        raise DomainError("involution must be a list of half-edge pairs")
    if not isinstance(data["tails"], dict):
        raise DomainError("tails must be an object mapping half-edge ids to labels")
    involution = {h: h for h in half_edges}
    for pair in data["involution"]:
        if not isinstance(pair, list) or len(pair) != 2 or not all(
            isinstance(h, Hashable) for h in pair
        ):
            raise DomainError(f"involution entries must be pairs of half-edge ids, got {pair!r}")
        h1, h2 = pair
        involution[h1] = h2
        involution[h2] = h1
    tails = {h: str(label) for h, label in data["tails"].items()}
    return ModularGraph(vertices, genus, half_edges, attach, involution, tails)
