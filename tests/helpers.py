"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the library's internals: isomorphism is a
raw search over vertex bijections, and the closure oracle re-implements
the elementary operations on a flat array representation.
"""

from __future__ import annotations

import itertools
import random

from gieseker import DegeneracyType, ModularGraph, make_deformation
from gieseker.degeneration import induced_blocks

# -- random graphs ------------------------------------------------------


def enumerate_deformations(base, span):
    """Every deformation of the base with block degrees in [-span, span]
    and every bubbling pattern on the kept edges."""
    edges = base.edges()
    for r in range(len(edges) + 1):
        for kept in itertools.combinations(edges, r):
            blocks = induced_blocks(base, kept)
            for degrees in itertools.product(range(-span, span + 1), repeat=len(blocks)):
                for nb in range(len(kept) + 1):
                    for bubbled in itertools.combinations(kept, nb):
                        yield make_deformation(base, kept, dict(zip(blocks, degrees)), bubbled)


def random_graph(
    rng: random.Random,
    max_vertices: int = 5,
    max_extra_edges: int = 3,
    max_loops: int = 2,
    max_genus: int = 2,
    max_tails: int = 4,
) -> ModularGraph:
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    genus = {v: rng.randint(0, max_genus) for v in names}
    edges = []
    for i in range(1, n):  # random spanning tree keeps it connected
        edges.append((names[rng.randrange(i)], names[i]))
    for _ in range(rng.randint(0, max_extra_edges)):
        edges.append((rng.choice(names), rng.choice(names)))
    for _ in range(rng.randint(0, max_loops)):
        v = rng.choice(names)
        edges.append((v, v))
    tails = {}
    for k in range(rng.randint(0, max_tails)):
        tails[str(k + 1)] = rng.choice(names)
    return ModularGraph.build(genus, edges, tails)


def cycle_over_path(n: int) -> tuple[DegeneracyType, ModularGraph]:
    """An unmarked n-cycle base of genus-1 vertices, and a label of its
    genus (a path with one doubled edge) that does not lie over it.  The
    two differ in their valences, so a search refuses the label at once."""
    names = [f"v{i}" for i in range(n)]
    base = ModularGraph.build(dict.fromkeys(names, 1), [(names[i], names[i - 1]) for i in range(n)])
    path = ModularGraph.build(dict.fromkeys(names, 1), [*zip(names, names[1:]), (names[0], names[1])])
    return DegeneracyType(path, dict.fromkeys(names, 0)), base


def chorded_cycles(n: int) -> tuple[DegeneracyType, ModularGraph]:
    """An unmarked n-cycle of genus-1 vertices with the chord (v0, v2) as
    the base, and with the chord (v0, v4) as a label that does not lie
    over it.  Genera and valences agree, so a search for the label over
    the base tries every vertex map."""
    names = [f"v{i}" for i in range(n)]
    cycle = [(names[i], names[i - 1]) for i in range(n)]
    base = ModularGraph.build(dict.fromkeys(names, 1), [*cycle, (names[0], names[2])])
    label = ModularGraph.build(dict.fromkeys(names, 1), [*cycle, (names[0], names[4])])
    return DegeneracyType(label, dict.fromkeys(names, 0)), base


def random_degeneracy(rng: random.Random, graph: ModularGraph, span: int = 5) -> DegeneracyType:
    return DegeneracyType(graph, {v: rng.randint(-span, span) for v in graph.vertices})


def relabel(graph: ModularGraph, rng: random.Random) -> ModularGraph:
    """Random renaming of vertices and half-edges (tail labels fixed)."""
    verts = list(graph.vertices)
    rng.shuffle(verts)
    vmap = {v: f"R{i}" for i, v in enumerate(verts)}
    halves = list(graph.half_edges)
    rng.shuffle(halves)
    hmap = {h: f"H{i}" for i, h in enumerate(halves)}
    return ModularGraph(
        tuple(vmap[v] for v in verts),
        {vmap[v]: graph.genus[v] for v in graph.vertices},
        tuple(hmap[h] for h in halves),
        {hmap[h]: vmap[graph.attach[h]] for h in graph.half_edges},
        {hmap[h]: hmap[graph.involution[h]] for h in graph.half_edges},
        {hmap[h]: label for h, label in graph.tails.items()},
    )


# -- brute-force isomorphism oracle --------------------------------------


def _edge_multiset(graph: ModularGraph, vmap=None):
    out = []
    for e in graph.edges():
        v1, v2 = graph.edge_endpoints(e)
        if vmap is not None:
            v1, v2 = vmap[v1], vmap[v2]
        out.append(tuple(sorted((v1, v2))))
    return sorted(out)


def brute_isomorphic(g1: ModularGraph, g2: ModularGraph, degrees1=None, degrees2=None) -> bool:
    """Search over all vertex bijections for one preserving genus, tail
    labels pointwise, edge multisets, and (optionally) degree labels."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges()) != len(g2.edges()):
        return False
    if sorted(g1.tails.values()) != sorted(g2.tails.values()):
        return False
    tails2 = {label: g2.attach[h] for h, label in g2.tails.items()}
    target_edges = _edge_multiset(g2)
    for perm in itertools.permutations(g2.vertices):
        vmap = dict(zip(g1.vertices, perm))
        if any(g1.genus[v] != g2.genus[vmap[v]] for v in g1.vertices):
            continue
        if degrees1 is not None and any(
            degrees1[v] != degrees2[vmap[v]] for v in g1.vertices
        ):
            continue
        if any(vmap[g1.attach[h]] != tails2[label] for h, label in g1.tails.items()):
            continue
        if _edge_multiset(g1, vmap) == target_edges:
            return True
    return False


def brute_isomorphic_dt(dt1: DegeneracyType, dt2: DegeneracyType) -> bool:
    return brute_isomorphic(
        dt1.graph, dt2.graph, dict(dt1.multidegree), dict(dt2.multidegree)
    )


# -- independent closure oracle -------------------------------------------
#
# States are flat records: genera list, degree list, tail placement list,
# and an edge multiset of index pairs.  Certificates are computed by raw
# minimization over all vertex permutations (no refinement), and the
# elementary operations are re-derived from scratch.


def state_of(dt: DegeneracyType):
    names = list(dt.graph.vertices)
    index = {v: i for i, v in enumerate(names)}
    genera = [dt.graph.genus[v] for v in names]
    degrees = [dt.multidegree[v] for v in names]
    tails = sorted((label, index[dt.graph.attach[h]]) for h, label in dt.graph.tails.items())
    edges = sorted(
        tuple(sorted((index[v1], index[v2])))
        for (v1, v2) in (dt.graph.edge_endpoints(e) for e in dt.graph.edges())
    )
    return (tuple(genera), tuple(degrees), tuple(tails), tuple(edges))


def certificate(state):
    genera, degrees, tails, edges = state
    n = len(genera)
    best = None
    for perm in itertools.permutations(range(n)):
        pos = {old: new for new, old in enumerate(perm)}
        enc = (
            tuple(sorted((pos[i], genera[i], degrees[i]) for i in range(n))),
            tuple(sorted((label, pos[i]) for label, i in tails)),
            tuple(sorted(tuple(sorted((pos[a], pos[b]))) for a, b in edges)),
        )
        if best is None or enc < best:
            best = enc
    return best


def oracle_special_points(state, v):
    _, _, tails, edges = state
    count = sum(1 for _, i in tails if i == v)
    for a, b in edges:
        count += (a == v) + (b == v)
    return count


def oracle_valid(state) -> bool:
    genera, degrees, tails, edges = state
    n = len(genera)
    bubbles = set()
    for v in range(n):
        sp = oracle_special_points(state, v)
        if genera[v] == 0 and sp < 2:
            return False
        if genera[v] == 1 and sp < 1:
            return False
        if genera[v] == 0 and sp == 2:
            if any(i == v for _, i in tails):
                return False
            incident = [e for e in edges if v in e]
            if len(incident) != 2:  # one self-edge
                return False
            if degrees[v] != 1:
                return False
            bubbles.add(v)
    for a, b in edges:
        if a in bubbles and b in bubbles:
            return False
    return True


def _oracle_moves(state, band):
    lo, hi = band
    genera, degrees, tails, edges = state
    n = len(genera)
    for v in range(n):
        if genera[v] >= 1:
            new_edges = tuple(sorted(edges + ((v, v),)))
            g2 = list(genera)
            g2[v] -= 1
            yield (tuple(g2), degrees, tails, new_edges)
    for v in range(n):
        slots = [("t", k) for k, (_, i) in enumerate(tails) if i == v]
        for k, (a, b) in enumerate(edges):
            if a == v:
                slots.append(("e", k, 0))
            if b == v:
                slots.append(("e", k, 1))
        for g1 in range(genera[v] + 1):
            for d1 in range(max(lo, degrees[v] - hi), min(hi, degrees[v] - lo) + 1):
                for r in range(len(slots) + 1):
                    for moved in itertools.combinations(slots, r):
                        new_tails = list(tails)
                        new_edges = [list(e) for e in edges]
                        for slot in moved:
                            if slot[0] == "t":
                                label, _ = new_tails[slot[1]]
                                new_tails[slot[1]] = (label, n)
                            else:
                                new_edges[slot[1]][slot[2]] = n
                        new_edges.append([v, n])
                        yield (
                            genera[:v] + (g1,) + genera[v + 1 :] + (genera[v] - g1,),
                            degrees[:v] + (d1,) + degrees[v + 1 :] + (degrees[v] - d1,),
                            tuple(sorted(new_tails)),
                            tuple(sorted(tuple(sorted(e)) for e in new_edges)),
                        )
    if lo <= 1 <= hi:
        for k, (a, b) in enumerate(edges):
            stable = True
            for v in {a, b}:
                sp = oracle_special_points(state, v)
                if (genera[v] == 0 and sp < 3) or (genera[v] == 1 and sp < 1):
                    stable = False
            if not stable:
                continue
            for side in {a, b}:
                if degrees[side] - 1 < lo:
                    continue
                new_edges = [list(e) for e in edges]
                new_edges[k] = [a, n]
                new_edges.append([b, n])
                new_degrees = list(degrees) + [1]
                new_degrees[side] -= 1
                yield (
                    genera + (0,),
                    tuple(new_degrees),
                    tails,
                    tuple(sorted(tuple(sorted(e)) for e in new_edges)),
                )


def oracle_closure(dt: DegeneracyType, band) -> set:
    """Independent BFS over certificates of Gieseker-valid states."""
    start = state_of(dt)
    seen = {certificate(start): start}
    frontier = [start]
    while frontier:
        new_frontier = []
        for state in frontier:
            for cand in _oracle_moves(state, band):
                if not all(band[0] <= d <= band[1] for d in cand[1]):
                    continue
                if not oracle_valid(cand):
                    continue
                cert = certificate(cand)
                if cert not in seen:
                    seen[cert] = cand
                    new_frontier.append(cand)
        frontier = new_frontier
    return set(seen)
