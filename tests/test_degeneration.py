import itertools
import random

import pytest
from hypothesis import given, strategies as st

from gieseker import (
    DegeneracyType,
    DomainError,
    ModularGraph,
    classify_gieseker,
    closure_poset,
    closure_strata,
    deform_resolve_self,
    deform_resolve_split,
    deformation_of,
    degeneracy_from_json,
    degeneracy_key,
    degeneracy_to_json,
    degenerate_self,
    degenerate_split,
    gieseker_bubble,
    is_stable,
    make_deformation,
    quotient_graph,
    stabilize,
    total_genus,
    validate,
)
from gieseker import degeneration
from gieseker.degeneration import _elementary_moves, _require_labelled, component_genus
from gieseker.modular_graph import stable_vertex
from helpers import (
    brute_isomorphic_dt,
    certificate,
    oracle_closure,
    random_degeneracy,
    random_graph,
    state_of,
)


def seeds(label):
    return st.integers(0, 10**6).map(lambda s: random.Random(f"{label}:{s}"))


def bubble_chain(d1, dm, d2):
    graph = ModularGraph.build(
        {"u": 0, "m": 0, "w": 0},
        edges=[("u", "m"), ("m", "w")],
        tails={"1": "u", "2": "u", "3": "w", "4": "w"},
    )
    return DegeneracyType(graph, {"u": d1, "m": dm, "w": d2})


def four_tail_vertex(d):
    graph = ModularGraph.build({"v": 0}, tails={"1": "v", "2": "v", "3": "v", "4": "v"})
    return DegeneracyType(graph, {"v": d})


def two_vertex_type(da, db):
    graph = ModularGraph.build(
        {"a": 0, "b": 0},
        edges=[("a", "b")],
        tails={"1": "a", "2": "a", "3": "b", "4": "b"},
    )
    return DegeneracyType(graph, {"a": da, "b": db})


class TestClassify:
    def test_valid_bubble_chain(self):
        verdict = classify_gieseker(bubble_chain(3, 1, -2))
        assert verdict.valid
        assert verdict.bubbles == frozenset({"m"})

    def test_bubble_degree_must_be_one(self):
        verdict = classify_gieseker(bubble_chain(3, 0, -2))
        assert not verdict.valid
        assert any("degree != 1" in r for r in verdict.reasons)

    def test_adjacent_bubbles(self):
        graph = ModularGraph.build(
            {"u": 0, "m1": 0, "m2": 0, "w": 0},
            edges=[("u", "m1"), ("m1", "m2"), ("m2", "w")],
            tails={"1": "u", "2": "u", "3": "w", "4": "w"},
        )
        verdict = classify_gieseker(DegeneracyType(graph, {"u": 0, "m1": 1, "m2": 1, "w": 0}))
        assert not verdict.valid
        assert any("adjacent bubbles" in r for r in verdict.reasons)

    def test_no_bubbles_at_marked_points(self):
        graph = ModularGraph.build(
            {"u": 0, "w": 1}, edges=[("u", "w")], tails={"1": "u"}
        )
        verdict = classify_gieseker(DegeneracyType(graph, {"u": 1, "w": 0}))
        assert not verdict.valid
        assert any("marked point" in r for r in verdict.reasons)

    def test_every_reason_in_order(self):
        graph = ModularGraph.build(
            {"h": 2, "a": 0, "b": 0, "d": 0, "e": 0, "f": 0},
            edges=[("h", "a"), ("h", "b"), ("h", "d"), ("d", "h"), ("h", "e"), ("e", "f"), ("f", "h")],
            tails={"1": "b"},
        )
        degrees = {"h": 0, "a": 0, "b": 1, "d": 0, "e": 1, "f": 1}
        verdict = classify_gieseker(DegeneracyType(graph, degrees))
        assert verdict.bubbles == frozenset({"e", "f"})
        assert verdict.reasons == (
            "genus-0 vertex a has fewer than 2 special points",
            "unstable vertex b carries a marked point (bubbles only at nodes)",
            "bubble degree != 1 at vertex d",
            "adjacent bubbles e, f",
        )

    def test_bare_genus_one_vertex(self):
        verdict = classify_gieseker(DegeneracyType(ModularGraph.build({"a": 1}), {"a": 0}))
        assert verdict.reasons == ("contraction unstable: genus-1 vertex a has no special point",)

def test_key_invariance_under_relabelling():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, max_vertices=4)
        dt = random_degeneracy(rng, g)
        verts = list(g.vertices)
        rng.shuffle(verts)
        vmap = {v: f"R{i}" for i, v in enumerate(verts)}
        halves = list(g.half_edges)
        rng.shuffle(halves)
        hmap = {h: f"H{i}" for i, h in enumerate(halves)}
        g2 = ModularGraph(
            tuple(vmap[v] for v in verts),
            {vmap[v]: g.genus[v] for v in g.vertices},
            tuple(hmap[h] for h in halves),
            {hmap[h]: vmap[g.attach[h]] for h in g.half_edges},
            {hmap[h]: hmap[g.involution[h]] for h in g.half_edges},
            {hmap[h]: label for h, label in g.tails.items()},
        )
        dt2 = DegeneracyType(g2, {vmap[v]: dt.multidegree[v] for v in g.vertices})
        assert degeneracy_key(dt) == degeneracy_key(dt2)
        assert classify_gieseker(dt).valid == classify_gieseker(dt2).valid


class TestStabilize:
    def test_contract_chain(self):
        st_ = stabilize(bubble_chain(3, 1, -2))
        assert set(st_.graph.vertices) == {"u", "w"}
        assert is_stable(st_.graph)
        assert len(st_.graph.edges()) == 1
        assert st_.contraction["u"] == "u"
        assert isinstance(st_.contraction["m"], tuple)

    def test_bubble_on_one_vertex_gives_self_edge(self):
        graph = ModularGraph.build(
            {"v": 1, "m": 0},
            edges=[("v", "m"), ("m", "v")],
            tails={"1": "v"},
        )
        dt = DegeneracyType(graph, {"v": 2, "m": 1})
        st_ = stabilize(dt)
        assert st_.graph.vertices == ("v",)
        assert len(st_.graph.self_edges()) == 1
        assert total_genus(st_.graph) == total_genus(graph)

    def test_elliptic_boundary_modification(self):
        # one-marked-point rational curve with a self-node, and its unique
        # modification carrying multidegree (d-1, 1)
        sigma = ModularGraph.build({"v": 0}, edges=[("v", "v")], tails={"1": "v"})
        assert is_stable(sigma) and total_genus(sigma) == 1
        modification = ModularGraph.build(
            {"v": 0, "m": 0}, edges=[("v", "m"), ("m", "v")], tails={"1": "v"}
        )
        d = 5
        dt = DegeneracyType(modification, {"v": d - 1, "m": 1})
        verdict = classify_gieseker(dt)
        assert verdict.valid and verdict.bubbles == frozenset({"m"})
        st_ = stabilize(dt)
        assert degeneracy_key(DegeneracyType(st_.graph, {"v": 0})) == degeneracy_key(
            DegeneracyType(sigma, {"v": 0})
        )

    def test_no_bubbles_identity(self):
        dt = two_vertex_type(2, 3)
        st_ = stabilize(dt)
        assert st_.graph == dt.graph
        assert st_.contraction == {"a": "a", "b": "b"}

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            stabilize(bubble_chain(3, 2, -2))


class TestResolve:
    def test_resolve_self_edge(self):
        loop = ModularGraph.build({"v": 0}, edges=[("v", "v")], tails={"1": "v"})
        dt = DegeneracyType(loop, {"v": 3})
        out = deform_resolve_self(dt, loop.edges()[0])
        assert out.graph.genus == {"v": 1}
        assert out.multidegree == {"v": 3}
        assert not out.graph.edges()
        assert total_genus(out.graph) == total_genus(loop)

    def test_resolve_split_with_parallel_edge(self):
        graph = ModularGraph.build({"a": 0, "b": 0}, edges=[("a", "b"), ("a", "b")])
        dt = DegeneracyType(graph, {"a": 2, "b": 3})
        out = deform_resolve_split(dt, graph.edges()[0])
        assert out.graph.vertices == ("a",)
        assert out.multidegree == {"a": 5}
        assert len(out.graph.self_edges()) == 1
        assert total_genus(out.graph) == total_genus(graph) == 1

    def test_resolve_split_single_edge(self):
        graph = ModularGraph.build({"a": 1, "b": 2}, edges=[("a", "b")])
        dt = DegeneracyType(graph, {"a": -1, "b": 4})
        out = deform_resolve_split(dt, graph.edges()[0])
        assert out.graph.vertices == ("a",)
        assert out.graph.genus == {"a": 3}
        assert out.multidegree == {"a": 3}

    def test_resolve_split_rejects_self_edge(self):
        loop = ModularGraph.build({"v": 0}, edges=[("v", "v")])
        dt = DegeneracyType(loop, {"v": 0})
        with pytest.raises(DomainError):
            deform_resolve_split(dt, loop.edges()[0])


class TestDegenerate:
    def test_split_to_paper_shape(self):
        dt = four_tail_vertex(5)
        out = degenerate_split(dt, "v", (0, 0), (2, 3), moved=("t_3", "t_4"))
        assert sorted(out.multidegree.values()) == [2, 3]
        assert len(out.graph.edges()) == 1
        assert classify_gieseker(out).valid
        # the two sides carry two tails each
        blocks = {v: out.graph.tails_at(v) for v in out.graph.vertices}
        assert sorted(map(len, blocks.values())) == [2, 2]

    def test_bubble_side_selects_degree_drop(self):
        dt = two_vertex_type(2, 3)
        edge = dt.graph.edges()[0]
        left = gieseker_bubble(dt, edge, "a")
        assert sorted(left.multidegree.values()) == [1, 1, 3]
        right = gieseker_bubble(dt, edge, "b")
        assert sorted(right.multidegree.values()) == [1, 2, 2]
        assert classify_gieseker(left).valid and classify_gieseker(right).valid

    def test_degenerate_self_on_elliptic(self):
        graph = ModularGraph.build({"v": 1}, tails={"1": "v"})
        dt = DegeneracyType(graph, {"v": 4})
        out = degenerate_self(dt, "v")
        assert out.graph.genus == {"v": 0}
        assert len(out.graph.self_edges()) == 1
        assert out.multidegree == {"v": 4}
        with pytest.raises(DomainError):
            degenerate_self(out, "v")

    def test_bubble_requires_stable_endpoints(self):
        dt = bubble_chain(3, 1, -2)
        edge = dt.graph.edges()[0]
        with pytest.raises(DomainError):
            gieseker_bubble(dt, edge, "u")


@given(seeds("roundtrip"))
def test_degenerate_resolve_roundtrips(rng):
    g = random_graph(rng, max_vertices=3, max_extra_edges=1, max_loops=0, max_genus=2)
    dt = random_degeneracy(rng, g)
    genus0 = total_genus(dt.graph)
    degree0 = dt.total_degree
    for _ in range(4):
        choice = rng.random()
        verts = list(dt.graph.vertices)
        if choice < 0.5:
            v = rng.choice(verts)
            gv, dv = dt.graph.genus[v], dt.multidegree[v]
            g1 = rng.randint(0, gv)
            d1 = rng.randint(-3, 3)
            halves = dt.graph.halves_at(v)
            moved = tuple(h for h in halves if rng.random() < 0.5)
            out = degenerate_split(dt, v, (g1, gv - g1), (d1, dv - d1), moved)
            fresh = tuple(sorted(set(out.graph.half_edges) - set(dt.graph.half_edges)))
            back = deform_resolve_split(out, fresh)
            assert brute_isomorphic_dt(back, dt)
            dt = out
        else:
            v = rng.choice(verts)
            if dt.graph.genus[v] < 1:
                continue
            out = degenerate_self(dt, v)
            fresh = tuple(sorted(set(out.graph.half_edges) - set(dt.graph.half_edges)))
            back = deform_resolve_self(out, fresh)
            assert brute_isomorphic_dt(back, dt)
            dt = out
        assert total_genus(dt.graph) == genus0
        assert dt.total_degree == degree0


class TestClosure:
    def test_already_maximal(self):
        dt = two_vertex_type(1, -1)
        # band too tight for bubbles or splits
        strata = closure_strata(dt, (-1, 1))
        # bubble side a: (0,1,-1) fits; side b: (1,1,-2) does not
        assert len(strata) == 2
        strata = closure_strata(four_tail_vertex(2), (2, 2))
        assert len(strata) == 1

    def test_zero_transfer_band(self):
        strata = closure_strata(four_tail_vertex(0), (0, 0))
        # smooth vertex plus the three 2+2 tail splittings with degrees (0,0)
        assert len(strata) == 4
        shapes = sorted(len(s.graph.vertices) for s in strata.values())
        assert shapes == [1, 2, 2, 2]

    def test_contains_expected_splittings(self):
        d = 0
        strata = closure_strata(four_tail_vertex(d), (-3, 3))
        keys = set(strata)
        for n in range(-3, 4):
            expected = two_vertex_type(d + n, -n)
            if -3 <= d + n <= 3:
                assert degeneracy_key(expected) in keys
        for n in range(-2, 4):
            if -3 <= d + n - 1 <= 3:
                expected = bubble_chain(d + n - 1, 1, -n)
                assert degeneracy_key(expected) in keys

    def test_closed_under_one_more_round(self):
        dt = two_vertex_type(1, 0)
        band = (-2, 2)
        strata, arrows = closure_poset(dt, band)
        for s in strata.values():
            again = closure_strata(s, band)
            assert set(again) <= set(strata)
        assert all(src in strata and dst in strata for src, dst, _ in arrows)

    def test_matches_independent_oracle(self):
        dt = two_vertex_type(1, -1)
        band = (-2, 2)
        strata = closure_strata(dt, band)
        oracle = oracle_closure(dt, band)
        assert len(strata) == len(oracle)
        assert {certificate(state_of(s)) for s in strata.values()} == oracle

    def test_moves_from_a_label_in_the_band_stay_in_it(self):
        """Why ``closure_poset`` checks only its start against the band."""
        rng = random.Random("moves-stay-in-band")
        moves = 0
        for _ in range(150):
            g = random_graph(rng, max_vertices=3, max_extra_edges=1, max_loops=1, max_tails=2)
            lo = rng.randint(-3, 2)
            band = (lo, lo + rng.randint(0, 3))
            dt = DegeneracyType(g, {v: rng.randint(*band) for v in g.vertices})
            for _, cand in _elementary_moves(dt, band):
                moves += 1
                assert all(band[0] <= d <= band[1] for d in cand.multidegree.values())
        assert moves > 1000

    def test_arrows_sorted_without_repeats(self):
        _, arrows = closure_poset(two_vertex_type(1, 0), (-2, 2))
        assert arrows == sorted(set(arrows))

    def test_band_must_contain_start(self):
        with pytest.raises(DomainError):
            closure_strata(four_tail_vertex(5), (0, 1))

    def test_one_verdict_per_closure(self, monkeypatch):
        calls = []

        def counting(dt):
            calls.append(dt)
            return classify_gieseker(dt)

        monkeypatch.setattr(degeneration, "classify_gieseker", counting)
        strata, _ = closure_poset(four_tail_vertex(0), (-2, 2))
        assert len(strata) > 10 and len(calls) == 1


class TestDeformationOf:
    def test_smooth_over_two_vertex_base(self):
        base = two_vertex_type(0, 0).graph
        smooth = DegeneracyType(
            ModularGraph.build({"s": 0}, tails={"1": "s", "2": "s", "3": "s", "4": "s"}),
            {"s": 7},
        )
        defo = deformation_of(smooth, base)
        assert defo.kept_edges == ()
        assert defo.blocks == (("a", "b"),)
        assert defo.block_degrees == {("a", "b"): 7}
        assert defo.bubbled_edges == ()

    def test_bubble_on_the_node(self):
        base = two_vertex_type(0, 0).graph
        defo = deformation_of(bubble_chain(2, 1, -1), base)
        assert defo.kept_edges == base.edges()
        assert defo.blocks == (("a",), ("b",))
        assert defo.bubbled_edges == base.edges()
        assert defo.block_degrees == {("a",): 2, ("b",): -1}

    def test_two_edge_base_resolving_one(self):
        base = ModularGraph.build(
            {"a": 0, "b": 0},
            edges=[("a", "b"), ("a", "b")],
            tails={"1": "a", "2": "a", "3": "b"},
        )
        resolved = DegeneracyType(
            ModularGraph.build(
                {"c": 0}, edges=[("c", "c")], tails={"1": "c", "2": "c", "3": "c"}
            ),
            {"c": 4},
        )
        defo = deformation_of(resolved, base)
        assert len(defo.kept_edges) == 1
        assert defo.blocks == (("a", "b"),)
        assert defo.block_degrees == {("a", "b"): 4}

    def test_failure_reported(self):
        base = two_vertex_type(0, 0).graph
        stranger = DegeneracyType(
            ModularGraph.build({"s": 1}, tails={"1": "s", "2": "s", "3": "s", "4": "s"}),
            {"s": 0},
        )
        with pytest.raises(DomainError):
            deformation_of(stranger, base)

    def test_make_deformation_checks(self):
        base = two_vertex_type(0, 0).graph
        with pytest.raises(DomainError):
            make_deformation(base, base.edges(), {("a", "b"): 1})


@given(seeds("dt-json"))
def test_degeneracy_json_roundtrip(rng):
    dt = random_degeneracy(rng, random_graph(rng, max_vertices=4))
    assert degeneracy_from_json(degeneracy_to_json(dt)) == dt


# -- graph surgery against the hand-written contractions it replaced ------
#
# The references below are the earlier per-caller implementations: the two
# resolutions, quotient_graph/component_genus over a union-find partition,
# and a breadth-first connectivity walk.  modular_graph.contract and
# modular_graph.components must reproduce them.


def reference_resolve_self(dt, edge):
    _require_labelled(dt)
    g = dt.graph
    if edge not in g.edges() or not g.is_self_edge(edge):
        raise DomainError(f"{edge} is not a self-edge")
    v = g.attach[edge[0]]
    keep = [h for h in g.half_edges if h not in edge]
    graph = ModularGraph(
        g.vertices,
        {u: gu + (1 if u == v else 0) for u, gu in g.genus.items()},
        tuple(keep),
        {h: g.attach[h] for h in keep},
        {h: g.involution[h] for h in keep},
        dict(g.tails),
    )
    return DegeneracyType(graph, dict(dt.multidegree))


def reference_resolve_split(dt, edge):
    _require_labelled(dt)
    g = dt.graph
    if edge not in g.edges() or g.is_self_edge(edge):
        raise DomainError(f"{edge} is not a splitting edge")
    v1, v2 = sorted(g.edge_endpoints(edge))
    keep = [h for h in g.half_edges if h not in edge]
    genus = {u: gu for u, gu in g.genus.items() if u != v2}
    genus[v1] = g.genus[v1] + g.genus[v2]
    degrees = {u: d for u, d in dt.multidegree.items() if u != v2}
    degrees[v1] = dt.multidegree[v1] + dt.multidegree[v2]
    graph = ModularGraph(
        tuple(u for u in g.vertices if u != v2),
        genus,
        tuple(keep),
        {h: (v1 if g.attach[h] == v2 else g.attach[h]) for h in keep},
        {h: g.involution[h] for h in keep},
        dict(g.tails),
    )
    return DegeneracyType(graph, degrees)


def reference_blocks(base, kept):
    parent = {v: v for v in base.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in base.edges():
        if e not in kept:
            v1, v2 = base.edge_endpoints(e)
            parent[find(v1)] = find(v2)
    groups = {}
    for v in sorted(base.vertices):
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def reference_component_genus(base, kept, blocks):
    dropped = [e for e in base.edges() if e not in kept]
    out = {}
    for block in blocks:
        internal = [e for e in dropped if set(base.edge_endpoints(e)) <= set(block)]
        out[block] = sum(base.genus[v] for v in block) + len(internal) - len(block) + 1
    return out


def reference_quotient_graph(base, kept, blocks):
    block_name = {block: block[0] for block in blocks}
    vmap = {v: block_name[b] for b in blocks for v in b}
    genus = {block_name[b]: gb for b, gb in reference_component_genus(base, kept, blocks).items()}
    halves = [h for h in base.half_edges if h in base.tails or any(h in e for e in kept)]
    graph = ModularGraph(
        tuple(block_name[b] for b in blocks),
        genus,
        tuple(halves),
        {h: vmap[base.attach[h]] for h in halves},
        {h: (base.involution[h] if base.involution[h] in halves else h) for h in halves},
        dict(base.tails),
    )
    return graph, vmap


def reference_connected(g):
    seen = {g.vertices[0]}
    frontier = [g.vertices[0]]
    while frontier:
        v = frontier.pop()
        for h in g.half_edges:
            if g.attach[h] == v:
                w = g.attach[g.involution[h]]
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return seen == set(g.vertices)


def surgery_graph(rng):
    """A multigraph with loops and parallel edges, connected only by chance
    when no spanning tree is drawn, with its vertex and half-edge tuples
    shuffled so that neither is sorted."""
    names = rng.sample("abcdfhkmpqrtwz", rng.randint(1, 6))
    pairs = [(rng.choice(names[:i]), names[i]) for i in range(1, len(names)) if rng.random() < 0.85]
    pairs += [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 4))]
    pairs += [(v, v) for v in rng.sample(names, rng.randint(0, min(2, len(names))))]
    pairs += [pairs[rng.randrange(len(pairs))] for _ in range(rng.randint(0, 2)) if pairs]
    built = ModularGraph.build(
        {v: rng.randint(0, 2) for v in names},
        pairs,
        {str(k): rng.choice(names) for k in range(1, rng.randint(1, 4))},
    )
    vertices, halves = list(built.vertices), list(built.half_edges)
    rng.shuffle(vertices)
    rng.shuffle(halves)
    return ModularGraph(
        tuple(vertices), built.genus, tuple(halves), built.attach, built.involution, built.tails
    )


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DomainError as exc:
        return "error", str(exc)


def test_graph_surgery_matches_the_hand_contractions():
    rng = random.Random(2009)
    seen = dict.fromkeys(
        ("loops", "parallel", "unsorted", "disconnected", "self", "split", "error", "merged"), 0
    )
    quotients = 0
    for _ in range(500):
        g = surgery_graph(rng)
        dt = DegeneracyType(g, {v: rng.randint(-3, 3) for v in g.vertices})
        ends = [tuple(sorted(g.edge_endpoints(e))) for e in g.edges()]
        seen["loops"] += bool(g.self_edges())
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["unsorted"] += list(g.vertices) != sorted(g.vertices)

        connected = reference_connected(g)
        seen["disconnected"] += not connected
        assert ("disconnected" not in validate(g).errors) == connected

        edge = rng.choice(g.edges() + (("x0", "x1"),))
        for new, old in (
            (deform_resolve_self, reference_resolve_self),
            (deform_resolve_split, reference_resolve_split),
        ):
            got, want = outcome(new, dt, edge), outcome(old, dt, edge)
            assert got == want
            if got[0] == "ok":
                assert got[1].graph == want[1].graph
                seen["self" if new is deform_resolve_self else "split"] += 1
            else:
                seen["error"] += 1
        if not connected:
            continue

        kept = tuple(e for e in g.edges() if rng.random() < 0.5)
        blocks = reference_blocks(g, kept)
        defo = make_deformation(g, kept, {b: 0 for b in blocks})
        assert defo.blocks == blocks
        seen["merged"] += len(blocks) < len(g.vertices)
        quotients += 1
        assert component_genus(defo) == reference_component_genus(g, set(kept), blocks)
        (q, vmap), (q_ref, vmap_ref) = quotient_graph(defo), reference_quotient_graph(g, kept, blocks)
        assert vmap == vmap_ref
        assert sorted(q.vertices) == sorted(q_ref.vertices)
        assert (q.genus, q.half_edges, q.attach, q.involution, q.tails) == (
            q_ref.genus,
            q_ref.half_edges,
            q_ref.attach,
            q_ref.involution,
            q_ref.tails,
        )
    assert quotients >= 300 and min(seen.values()) >= 50, (quotients, seen)


def reference_moves(dt, band):
    """Every elementary degeneration inside the band, each built through
    the public functions, valid or not."""
    lo, hi = band
    g = dt.graph
    for v in g.vertices:
        if g.genus[v] >= 1:
            yield "degenerate_self", degenerate_self(dt, v)
    for v in g.vertices:
        gv, dv = g.genus[v], dt.multidegree[v]
        halves = g.halves_at(v)
        for g1 in range(gv + 1):
            for d1 in range(max(lo, dv - hi), min(hi, dv - lo) + 1):
                for r in range(len(halves) + 1):
                    for moved in itertools.combinations(halves, r):
                        yield (
                            "degenerate_split",
                            degenerate_split(dt, v, (g1, gv - g1), (d1, dv - d1), moved),
                        )
    if lo <= 1 <= hi:
        for e in g.edges():
            v1, v2 = g.edge_endpoints(e)
            if not all(stable_vertex(g, v) for v in {v1, v2}):
                continue
            for side in sorted({v1, v2}):
                if dt.multidegree[side] - 1 >= lo:
                    yield "gieseker_bubble", gieseker_bubble(dt, e, side)


def reference_closure_poset(dt, band, max_strata):
    """The closure that gives every candidate a Gieseker verdict."""
    lo, hi = band
    if lo > hi:
        raise DomainError("empty degree band")
    if not classify_gieseker(dt).valid:
        raise DomainError("closure of a non-Gieseker label")
    if not all(lo <= d <= hi for d in dt.multidegree.values()):
        raise DomainError("starting multidegree outside the band")
    start = degeneracy_key(dt)
    strata = {start: dt}
    arrows = set()
    frontier = [start]
    while frontier:
        next_frontier = []
        for key in frontier:
            for op, cand in reference_moves(strata[key], band):
                if not classify_gieseker(cand).valid:
                    continue
                ck = degeneracy_key(cand)
                arrows.add((key, ck, op))
                if ck not in strata:
                    strata[ck] = cand
                    next_frontier.append(ck)
                    if len(strata) > max_strata:
                        raise DomainError("closure enumeration exceeded the stratum cap")
        frontier = next_frontier
    return strata, sorted(arrows)


def closure_outcome(closure, dt, band, cap):
    try:
        strata, arrows = closure(dt, band, cap)
    except DomainError as exc:
        return "error", str(exc)
    return "ok", arrows, {key: degeneracy_to_json(s) for key, s in strata.items()}


def oracle_label(rng):
    """A label of arithmetic genus at most 2 with at most two markings,
    Gieseker four times in five or more, a band of width at most 5 (empty
    now and then) and a stratum cap."""
    while True:
        g = random_graph(rng, max_vertices=3, max_extra_edges=1, max_loops=1, max_tails=2)
        if total_genus(g) > 2:
            continue
        lo = rng.randint(-3, 2)
        band = (lo, lo + rng.randint(-1 if rng.random() < 0.05 else 0, 5))
        off = 1 if rng.random() < 0.05 else 0  # a start outside the band
        dt = DegeneracyType(g, {v: rng.randint(lo, max(band) + off) for v in g.vertices})
        if rng.random() < 0.2 or classify_gieseker(dt).valid:
            return dt, band, rng.choice((4, 16, 64, 128))


def test_closure_matches_the_generate_then_verdict_closure():
    rng = random.Random("closure-oracle")
    seen = dict.fromkeys(("ok", "degenerate_self", "degenerate_split", "gieseker_bubble"), 0)
    errors = set()
    for _ in range(300):
        dt, band, cap = oracle_label(rng)
        got = closure_outcome(closure_poset, dt, band, cap)
        assert got == closure_outcome(reference_closure_poset, dt, band, cap), (dt, band, cap)
        if got[0] == "error":
            errors.add(got[1])
            continue
        seen["ok"] += 1
        for _, _, op in got[1]:
            seen[op] += 1
    assert min(seen.values()) >= 100, seen
    assert errors == {
        "closure of a non-Gieseker label",
        "starting multidegree outside the band",
        "closure enumeration exceeded the stratum cap",
        "empty degree band",
    }
