import random

import pytest
from hypothesis import given, strategies as st

from gieseker import (
    DomainError,
    ModularGraph,
    canonical_form,
    graph_from_json,
    graph_to_json,
    is_stable,
    nt2b,
    special_point_count,
    total_genus,
    validate,
)
from gieseker import modular_graph
from helpers import brute_isomorphic, random_graph, relabel


def seeds(label):
    return st.integers(0, 10**6).map(lambda s: random.Random(f"{label}:{s}"))


def test_validate_minimal_graph():
    g = ModularGraph.build({"v": 1})
    assert validate(g).ok


def test_validate_involution_three_cycle():
    g = ModularGraph(
        ("v",),
        {"v": 0},
        ("h1", "h2", "h3"),
        {"h1": "v", "h2": "v", "h3": "v"},
        {"h1": "h2", "h2": "h3", "h3": "h1"},
        {},
    )
    report = validate(g)
    assert not report.ok
    assert any("self-inverse" in err for err in report.errors)


def test_validate_disconnected():
    g = ModularGraph(("a", "b"), {"a": 0, "b": 0}, (), {}, {}, {})
    report = validate(g)
    assert not report.ok
    assert any("disconnected" in err for err in report.errors)


def test_validate_vertex_ids_of_mixed_types():
    # JSON documents may name vertices by numbers and strings at once; the
    # connectivity check never orders ids, so such a graph stays valid.
    joined = ModularGraph.build({1: 1, "a": 1}, edges=[(1, "a")])
    assert validate(joined).ok
    apart = ModularGraph.build({1: 1, "a": 1})
    assert validate(apart).errors == ("disconnected",)


def test_total_genus_examples():
    one_loop = ModularGraph.build({"v": 1}, edges=[("v", "v")])
    assert total_genus(one_loop) == 2
    two_verts = ModularGraph.build({"a": 0, "b": 0}, edges=[("a", "b")])
    assert total_genus(two_verts) == 0
    banana = ModularGraph.build({"a": 0, "b": 0}, edges=[("a", "b"), ("a", "b")])
    assert total_genus(banana) == 1


def test_total_genus_rejects_invalid():
    g = ModularGraph(("a", "b"), {"a": 0, "b": 0}, (), {}, {}, {})
    with pytest.raises(DomainError):
        total_genus(g)


def test_stored_report_is_not_part_of_equality():
    checked = ModularGraph.build({"a": 0, "b": 1}, edges=[("a", "b")], tails={"1": "a", "2": "a"})
    fresh = ModularGraph.build({"a": 0, "b": 1}, edges=[("a", "b")], tails={"1": "a", "2": "a"})
    assert validate(checked).ok
    assert checked == fresh
    assert repr(checked) == repr(fresh)


def test_structure_is_walked_once_per_graph(monkeypatch):
    walks = []
    walk = modular_graph._check_structure
    monkeypatch.setattr(modular_graph, "_check_structure", lambda g: walks.append(g) or walk(g))
    g = ModularGraph.build({"v": 1}, edges=[("v", "v")])
    validate(g)
    validate(g)
    assert total_genus(g) == 2
    assert walks == [g]


def test_invalid_graph_rejected_on_every_call():
    g = ModularGraph(("a", "b"), {"a": 0, "b": 0}, (), {}, {}, {})
    first = validate(g)
    for _ in range(3):
        assert validate(g) == first
        assert not validate(g).ok
        with pytest.raises(DomainError, match="invalid graph: disconnected"):
            total_genus(g)
        with pytest.raises(DomainError, match="invalid base graph: disconnected"):
            nt2b(g)


def test_special_point_count():
    g = ModularGraph.build({"a": 0, "b": 0}, edges=[("a", "b")], tails={"1": "a", "2": "a"})
    assert special_point_count(g, "a") == 3
    assert special_point_count(g, "b") == 1
    isolated = ModularGraph.build({"v": 2})
    assert special_point_count(isolated, "v") == 0
    loop = ModularGraph.build({"v": 1}, edges=[("v", "v")])
    assert special_point_count(loop, "v") == 2
    with pytest.raises(DomainError):
        special_point_count(g, "zzz")


def test_is_stable():
    three_tails = ModularGraph.build({"v": 0}, tails={"1": "v", "2": "v", "3": "v"})
    assert is_stable(three_tails)
    loop = ModularGraph.build({"v": 0}, edges=[("v", "v")])
    assert not is_stable(loop)
    bare_elliptic = ModularGraph.build({"v": 1})
    assert not is_stable(bare_elliptic)


def test_canonical_relabelled_presentations_agree():
    g1 = ModularGraph.build({"a": 0, "b": 1}, edges=[("a", "b")], tails={"1": "a"})
    g2 = ModularGraph.build({"y": 1, "x": 0}, edges=[("y", "x")], tails={"1": "x"})
    assert canonical_form(g1).digest == canonical_form(g2).digest


def test_canonical_distinguishes_genus_placement():
    g1 = ModularGraph.build({"a": 0, "b": 1}, edges=[("a", "b")], tails={"1": "a"})
    g2 = ModularGraph.build({"a": 1, "b": 0}, edges=[("a", "b")], tails={"1": "a"})
    assert canonical_form(g1).digest != canonical_form(g2).digest
    assert not brute_isomorphic(g1, g2)


def test_canonical_self_edge_vs_split_graph():
    # same total genus, different shape
    loop = ModularGraph.build({"v": 1}, edges=[("v", "v")])
    split = ModularGraph.build({"a": 1, "b": 1}, edges=[("a", "b")])
    assert total_genus(loop) == total_genus(split) == 2
    assert canonical_form(loop).digest != canonical_form(split).digest
    assert not brute_isomorphic(loop, split)


def test_canonical_size_limit():
    genus = {f"v{i}": 0 for i in range(13)}
    edges = [(f"v{i}", f"v{i+1}") for i in range(12)]
    g = ModularGraph.build(genus, edges)
    with pytest.raises(DomainError):
        canonical_form(g)


def test_canonical_graph_is_well_formed_relabelling():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng)
        cf = canonical_form(g)
        assert validate(cf.graph).ok
        assert brute_isomorphic(g, cf.graph)
        assert sorted(cf.vertex_map) == sorted(g.vertices)
        assert sorted(cf.half_edge_map) == sorted(g.half_edges)


@given(seeds("relabel"))
def test_digest_invariant_under_relabelling(rng):
    g = random_graph(rng, max_vertices=7)
    h = relabel(g, rng)
    assert canonical_form(g).digest == canonical_form(h).digest
    assert total_genus(g) == total_genus(h)
    assert is_stable(g) == is_stable(h)


@given(seeds("pairs"))
def test_digest_agreement_matches_brute_isomorphism(rng):
    g1 = random_graph(rng, max_vertices=4, max_extra_edges=2, max_genus=1, max_tails=2)
    g2 = random_graph(rng, max_vertices=4, max_extra_edges=2, max_genus=1, max_tails=2)
    same = canonical_form(g1).digest == canonical_form(g2).digest
    assert same == brute_isomorphic(g1, g2)


def test_digest_agreement_up_to_seven_vertices():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(5, 7)
        g1 = random_graph(rng, max_vertices=n, max_extra_edges=2, max_genus=1, max_tails=2)
        g2 = relabel(g1, rng) if rng.random() < 0.5 else random_graph(
            rng, max_vertices=n, max_extra_edges=2, max_genus=1, max_tails=2
        )
        same = canonical_form(g1).digest == canonical_form(g2).digest
        assert same == brute_isomorphic(g1, g2)


@given(seeds("json"))
def test_json_roundtrip_lossless(rng):
    g = random_graph(rng)
    assert graph_from_json(graph_to_json(g)) == g


def test_json_rejects_unknown_keys():
    doc = graph_to_json(ModularGraph.build({"v": 0}))
    doc["extra"] = 1
    with pytest.raises(DomainError):
        graph_from_json(doc)
