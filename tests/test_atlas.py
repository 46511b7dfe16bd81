import itertools
import random
import time
from fractions import Fraction

import pytest

from gieseker import (
    DegeneracyType,
    DomainError,
    FixedComponentLabel,
    ModularGraph,
    MultidegreeBounds,
    Partition,
    band_representatives,
    block_effective_genus,
    edge_count,
    fixed_label,
    in_band,
    intersection_data,
    make_deformation,
    minimal_bounds,
    nt2b,
    plus_block,
    stabilizer_partition,
    tail_membership,
    twist,
    uniform_bounds,
)
from gieseker.atlas import _check_partition
from gieseker.degeneration import component_genus, induced_blocks
from helpers import enumerate_deformations, random_graph


def two_vertex_base():
    return ModularGraph.build(
        {"a": 0, "b": 0},
        edges=[("a", "b")],
        tails={"1": "a", "2": "a", "3": "b", "4": "b"},
    )


def chain_strata(base, d):
    """C*-type and point-type deformations of the two-vertex base."""

    def cstar(n):
        return make_deformation(base, base.edges(), {("a",): d + n, ("b",): -n})

    def pt(n):
        return make_deformation(
            base, base.edges(), {("a",): d + n - 1, ("b",): -n}, bubbled_edges=base.edges()
        )

    return cstar, pt


class TestStabilizerPartition:
    def test_kept_edge_no_bubble_joins(self):
        base = two_vertex_base()
        defo = make_deformation(base, base.edges(), {("a",): 1, ("b",): 2})
        assert stabilizer_partition(defo).blocks == (("a", "b"),)

    def test_bubble_separates(self):
        base = two_vertex_base()
        defo = make_deformation(
            base, base.edges(), {("a",): 1, ("b",): 2}, bubbled_edges=base.edges()
        )
        assert stabilizer_partition(defo).blocks == (("a",), ("b",))

    def test_parallel_edge_path_around_bubble(self):
        base = ModularGraph.build(
            {"a": 0, "b": 0},
            edges=[("a", "b"), ("a", "b")],
            tails={"1": "a", "2": "a", "3": "b"},
        )
        defo = make_deformation(
            base,
            base.edges(),
            {("a",): 1, ("b",): 0},
            bubbled_edges=base.edges()[:1],
        )
        assert stabilizer_partition(defo).blocks == (("a", "b"),)


def union_find_stabilizer_partition(defo, bubbled):
    """Reference: join each deformed component, then the ends of every
    unbubbled kept edge, with a union-find over the base vertices."""
    base = defo.base
    parent = {v: v for v in base.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(v, w):
        parent[find(v)] = find(w)

    for block in defo.blocks:
        for v in block[1:]:
            union(block[0], v)
    for e in defo.kept_edges:
        if e not in bubbled:
            v1, v2 = base.edge_endpoints(e)
            union(v1, v2)
    groups = {}
    for v in base.vertices:
        groups.setdefault(find(v), []).append(v)
    return Partition.of(groups.values())


def test_stabilizer_partition_matches_union_find():
    rng = random.Random(8)
    joined = 0  # cases where an unbubbled kept edge joins two blocks
    for _ in range(300):
        base = random_graph(rng, max_vertices=6, max_extra_edges=4, max_loops=4, max_tails=0)
        edges = base.edges()
        kept = [e for e in edges if rng.random() < 0.6]
        bubbled = [e for e in kept if rng.random() < 0.5]
        blocks = induced_blocks(base, kept)
        defo = make_deformation(base, kept, {b: 0 for b in blocks}, bubbled)
        expected = union_find_stabilizer_partition(defo, set(bubbled))
        assert stabilizer_partition(defo) == expected
        joined += expected.blocks != defo.blocks
        subset = [e for e in bubbled if rng.random() < 0.5]
        assert stabilizer_partition(defo, subset) == union_find_stabilizer_partition(defo, set(subset))
    assert joined >= 50


class TestNT2B:
    def test_single_vertex(self):
        assert nt2b(ModularGraph.build({"v": 1}, edges=[("v", "v")])) == []

    def test_two_vertices(self):
        parts = nt2b(two_vertex_base())
        assert len(parts) == 1
        assert parts[0].blocks == (("a",), ("b",))

    def test_four_vertices(self):
        g = ModularGraph.build(
            {"p": 1, "q": 1, "r": 1, "s": 1},
            edges=[("p", "q"), ("q", "r"), ("r", "s")],
        )
        parts = nt2b(g)
        assert len(parts) == 7
        assert len(set(parts)) == 7
        for r in parts:
            assert "p" in plus_block(r)


class TestFixedLabel:
    def test_chain_point_label(self):
        base = two_vertex_base()
        (r,) = nt2b(base)
        d, n = 4, 2
        _, pt = chain_strata(base, d)
        label = fixed_label(pt(n), base, r)
        assert label.sums == {("a",): d + n - 1, ("b",): -n}

    def test_unbubbled_is_not_fixed(self):
        base = two_vertex_base()
        (r,) = nt2b(base)
        cstar, _ = chain_strata(base, 4)
        with pytest.raises(DomainError):
            fixed_label(cstar(0), base, r)

    def test_three_chain_middle_block(self):
        base = ModularGraph.build(
            {"u": 0, "v": 0, "w": 0},
            edges=[("u", "v"), ("v", "w")],
            tails={"1": "u", "2": "u", "3": "v", "4": "w", "5": "w"},
        )
        defo = make_deformation(
            base,
            base.edges(),
            {("u",): 3, ("v",): -1, ("w",): 2},
            bubbled_edges=base.edges(),
        )
        r = Partition.of([("u", "w"), ("v",)])
        label = fixed_label(defo, base, r)
        assert label.sums == {("u", "w"): 5, ("v",): -1}

    def test_internal_bubble_counts_to_its_block(self):
        # partition separating w only; the u-v bubble is internal to the
        # plus block, so its unit of degree belongs to that block's sum
        base = ModularGraph.build(
            {"u": 0, "v": 0, "w": 0},
            edges=[("u", "v"), ("v", "w")],
            tails={"1": "u", "2": "u", "3": "v", "4": "w", "5": "w"},
        )
        defo = make_deformation(
            base,
            base.edges(),
            {("u",): 3, ("v",): -1, ("w",): 2},
            bubbled_edges=base.edges(),
        )
        r = Partition.of([("u", "v"), ("w",)])
        label = fixed_label(defo, base, r)
        assert label.sums == {("u", "v"): 3, ("w",): 2}
        total = defo.total_degree
        split_bubbles = 1  # only the v-w node separates the blocks
        assert sum(label.sums.values()) + split_bubbles == total


def test_fixed_label_degree_identity():
    # block sums plus the bubbled splitting edges recover the total degree
    base = ModularGraph.build(
        {"u": 0, "v": 0, "w": 0},
        edges=[("u", "v"), ("v", "w"), ("u", "v")],
        tails={"1": "u", "2": "v", "3": "w"},
    )
    checked = 0
    for defo in enumerate_deformations(base, 2):
        for r in nt2b(base):
            try:
                label = fixed_label(defo, base, r)
            except DomainError:
                continue
            split_bubbled = sum(
                1
                for e in defo.bubbled_edges
                if r.block_of(base.edge_endpoints(e)[0]) != r.block_of(base.edge_endpoints(e)[1])
            )
            assert sum(label.sums.values()) + split_bubbled == defo.total_degree
            checked += 1
    assert checked > 0


class TestBand:
    def test_chain_sweep_inclusion(self):
        base = two_vertex_base()
        d = 3
        cstar, pt = chain_strata(base, d)
        bounds = uniform_bounds(base, 5, 2)
        assert [n for n in range(-10, 11) if in_band(cstar(n), base, bounds)] == [2, 3, 4]
        assert [n for n in range(-10, 11) if in_band(pt(n), base, bounds)] == [3, 4]

    def test_minimal_band_special_fiber(self):
        base = two_vertex_base()
        d = 3
        cstar, pt = chain_strata(base, d)
        bounds = minimal_bounds(base, 4)
        assert [n for n in range(-10, 11) if in_band(cstar(n), base, bounds)] == [3]
        assert [n for n in range(-10, 11) if in_band(pt(n), base, bounds)] == []

    def test_smooth_stratum_always_in_band(self):
        base = two_vertex_base()
        smooth = make_deformation(base, [], {("a", "b"): 3})
        assert in_band(smooth, base, uniform_bounds(base, 1, 0))

    def test_monotone_in_bounds(self):
        base = two_vertex_base()
        cstar, pt = chain_strata(base, 3)
        for n in range(-6, 7):
            for s in (cstar(n), pt(n)):
                inner = in_band(s, base, uniform_bounds(base, 4, 1))
                outer = in_band(s, base, uniform_bounds(base, 6, -1))
                assert not inner or outer

    def test_accepts_degeneracy_type_input(self):
        base = two_vertex_base()
        dt = DegeneracyType(base, {"a": 5, "b": -2})
        assert in_band(dt, base, uniform_bounds(base, 3, 1))


class TestTails:
    def test_chain_sweep_matches_spec(self):
        base = two_vertex_base()
        (r,) = nt2b(base)
        cstar, pt = chain_strata(base, 3)
        for n in range(-20, 21):
            cm = tail_membership(cstar(n), base, r, 5, 2)
            pm = tail_membership(pt(n), base, r, 5, 2)
            assert cm == ("Z" if n >= 5 else "W" if n < 2 else "none")
            assert pm == ("Z" if n >= 5 else "W" if n <= 2 else "none")

    def test_partition_of_strata_is_exact(self):
        base = two_vertex_base()
        (r,) = nt2b(base)
        bounds = uniform_bounds(base, 5, 2)
        cstar, pt = chain_strata(base, 3)
        for n in range(-20, 21):
            for s in (cstar(n), pt(n)):
                member = tail_membership(s, base, r, 5, 2)
                assert in_band(s, base, bounds) == (member == "none")

    def test_smoothed_split_edge_is_neither(self):
        base = two_vertex_base()
        (r,) = nt2b(base)
        smooth = make_deformation(base, [], {("a", "b"): 3})
        assert tail_membership(smooth, base, r, 5, 2) == "none"

    @pytest.mark.parametrize(
        "blocks, kept",
        [([("u", "v", "w")], [0, 1]), ([("u",), ("v",), ("w",)], [])],
        ids=["one-block", "three-block"],
    )
    def test_partition_must_have_two_blocks(self, blocks, kept):
        base = ModularGraph.build({"u": 0, "v": 0, "w": 0}, edges=[("u", "v"), ("v", "w")])
        kept_edges = [base.edges()[i] for i in kept]
        defo = make_deformation(base, kept_edges, {b: 0 for b in induced_blocks(base, kept_edges)})
        with pytest.raises(DomainError, match=f"2-block partitions, got {len(blocks)} blocks"):
            tail_membership(defo, base, Partition.of(blocks), 5, 2)


class TestThreeVertexTrichotomy:
    def exhaustive_check(self, base, span=2):
        checked = 0
        partitions = nt2b(base)
        for defo in enumerate_deformations(base, span):
            for r in partitions:
                upper, lower = 2, 0
                member = tail_membership(defo, base, r, upper, lower)
                table = {r2: (100, -100) for r2 in partitions}
                table[r] = (upper, lower)
                passes = in_band(defo, base, MultidegreeBounds(table))
                assert passes == (member == "none")
            checked += 1
        assert checked > 0

    def test_chain_base(self):
        base = ModularGraph.build(
            {"u": 0, "v": 0, "w": 0},
            edges=[("u", "v"), ("v", "w")],
            tails={"1": "u", "2": "u", "3": "v", "4": "w", "5": "w"},
        )
        self.exhaustive_check(base, span=2)

    def test_multigraph_base(self):
        base = ModularGraph.build(
            {"u": 0, "v": 1, "w": 0},
            edges=[("u", "v"), ("u", "v"), ("v", "w"), ("w", "w")],
            tails={"1": "u", "2": "u", "3": "u", "4": "w", "5": "w"},
        )
        self.exhaustive_check(base, span=2)


class TestIntersection:
    def test_two_vertex_single_edge(self):
        data = intersection_data(two_vertex_base())
        assert data.matrix == ((-1, 1), (1, -1))

    def test_two_vertex_double_edge(self):
        base = ModularGraph.build(
            {"a": 0, "b": 0}, edges=[("a", "b"), ("a", "b")], tails={"1": "a", "2": "b"}
        )
        assert intersection_data(base).matrix == ((-2, 2), (2, -2))

    def test_self_edges_do_not_count(self):
        base = ModularGraph.build({"v": 1}, edges=[("v", "v")])
        assert intersection_data(base).matrix == ((0,),)

    def test_symmetric_zero_column_sums_random(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, max_vertices=6, max_extra_edges=4)
            m = intersection_data(g).matrix
            n = len(m)
            assert all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
            assert all(sum(m[i][j] for i in range(n)) == 0 for j in range(n))


class TestTwist:
    def test_zero_coefficients(self):
        base = two_vertex_base()
        data = intersection_data(base)
        d = {"a": 4, "b": -1}
        assert twist(d, {"a": 0, "b": 0}, data) == d

    def test_unit_coefficient(self):
        base = two_vertex_base()
        data = intersection_data(base)
        assert twist({"a": 4, "b": -1}, {"a": 1, "b": 0}, data) == {"a": 3, "b": 0}

    def test_total_degree_preserved(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, max_vertices=5, max_extra_edges=3, max_tails=2)
            data = intersection_data(g)
            d = {v: rng.randint(-6, 6) for v in g.vertices}
            c = {v: rng.randint(-4, 4) for v in g.vertices}
            out = twist(d, c, data)
            assert sum(out.values()) == sum(d.values())


class TestBandRepresentatives:
    def test_two_vertex_example(self):
        base = two_vertex_base()
        reps = band_representatives({"a": 7, "b": -4}, base, 2)
        assert reps == [{"a": 4, "b": -1}]

    def test_in_band_input_is_returned(self):
        base = two_vertex_base()
        reps = band_representatives({"a": 4, "b": -1}, base, 2)
        assert {"a": 4, "b": -1} in reps

    def test_three_chain_unique(self):
        # on a three-vertex chain the minimal-band windows pin the
        # multidegree; uniform N is consistent exactly for N in {1, 2}
        base = ModularGraph.build(
            {"u": 0, "v": 0, "w": 0},
            edges=[("u", "v"), ("v", "w")],
            tails={"1": "u", "2": "u", "3": "v", "4": "w", "5": "w"},
        )
        rng = random.Random(9)
        for _ in range(10):
            d = {v: rng.randint(-10, 10) for v in base.vertices}
            for n in (1, 2):
                reps = band_representatives(d, base, n)
                assert len(reps) == 1
                assert sum(reps[0].values()) == sum(d.values())

    def test_three_chain_per_partition_bounds(self):
        base = ModularGraph.build(
            {"u": 0, "v": 0, "w": 0},
            edges=[("u", "v"), ("v", "w")],
            tails={"1": "u", "2": "u", "3": "v", "4": "w", "5": "w"},
        )
        r_u = Partition.of([("u",), ("v", "w")])
        r_w = Partition.of([("u", "v"), ("w",)])
        r_v = Partition.of([("u", "w"), ("v",)])
        rng = random.Random(21)
        for _ in range(10):
            d = {v: rng.randint(-10, 10) for v in base.vertices}
            # choose windows pinning an arbitrary coherent target
            target_v, target_w = rng.randint(-3, 3), rng.randint(-3, 3)
            table = {
                r_w: 1 - target_w,
                r_u: 1 - target_v - target_w,
                r_v: 1 - target_v,
            }
            reps = band_representatives(d, base, table)
            assert len(reps) == 1
            assert reps[0]["v"] == target_v and reps[0]["w"] == target_w

    def test_inconsistent_windows_reported(self):
        base = ModularGraph.build(
            {"u": 0, "v": 0, "w": 0},
            edges=[("u", "v"), ("v", "w")],
            tails={"1": "u", "2": "u", "3": "v", "4": "w", "5": "w"},
        )
        with pytest.raises(DomainError):
            band_representatives({"u": 0, "v": 0, "w": 0}, base, 5)

    @pytest.mark.parametrize("degrees", [{"u": 1, "v": 0}, {"u": 1, "v": 0, "w": 0, "x": 2}])
    def test_multidegree_keys_must_be_the_vertices(self, degrees):
        base = ModularGraph.build({"u": 0, "v": 0, "w": 0}, edges=[("u", "v"), ("v", "w")])
        with pytest.raises(DomainError, match="indexed by the base vertices"):
            band_representatives(degrees, base, 1)

    def test_partition_table_must_cover_nt2b(self):
        base = ModularGraph.build({"u": 0, "v": 0, "w": 0}, edges=[("u", "v"), ("v", "w")])
        table = {r: 1 for r in nt2b(base)}
        del table[Partition.of([("u", "v"), ("w",)])]
        missing = r"\(\('u', 'v'\), \('w',\)\)"
        with pytest.raises(DomainError, match=missing):
            minimal_bounds(base, table)
        with pytest.raises(DomainError, match=missing):
            band_representatives({"u": 1, "v": 0, "w": 0}, base, table)

    def test_partition_table_names_only_nt2b(self):
        base = two_vertex_base()
        table = {r: 2 for r in nt2b(base)}
        table[Partition.of([("x",), ("y",)])] = 7
        extra = r"\(\('x',\), \('y',\)\)"
        with pytest.raises(DomainError, match=extra):
            minimal_bounds(base, table)
        with pytest.raises(DomainError, match=extra):
            band_representatives({"a": 7, "b": -4}, base, table)


def box_search_reference(multidegree, base, n):
    """The coefficient-box search that ``band_representatives`` replaced,
    kept as its reference: every twist coefficient vector with the first
    vertex's entry 0 and the others in a box of side
    2 (|total| + sum |d| + 10 |V|) + 1, filtered by the minimal-band
    inequalities and sorted by degree tuple."""
    data = intersection_data(base)
    bounds = minimal_bounds(base, n)
    total = sum(multidegree.values())
    box = abs(total) + sum(abs(d) for d in multidegree.values()) + 10 * len(base.vertices)
    verts = data.vertices
    if len(verts) == 1:
        return [dict(multidegree)]
    free = verts[1:]
    tests = []
    for r in nt2b(base):
        plus = plus_block(r)
        mask = tuple(v in plus for v in verts)
        k = edge_count(base, r)
        tests.append((mask, total + bounds.lower(r) - k + 1, -bounds.upper(r) + 1))
    base_vector = tuple(multidegree[v] for v in verts)
    found = {}
    for combo in itertools.product(range(-box, box + 1), repeat=len(free)):
        key = tuple(
            base_vector[i]
            + sum(data.matrix[i][j + 1] * combo[j] for j in range(len(free)))
            for i in range(len(verts))
        )
        if key in found:
            continue
        ok = True
        for mask, plus_min, minus_min in tests:
            p_plus = sum(d for d, m in zip(key, mask) if m)
            if p_plus < plus_min or total - p_plus < minus_min:
                ok = False
                break
        if ok:
            found[key] = dict(zip(verts, key))
    if not found:
        raise DomainError("twist search box exhausted without a band representative")
    return [found[key] for key in sorted(found)]


ORACLE_BASES = [
    # the three bases of the benchmark's twist-bands workload
    ({"u": 0, "v": 0, "w": 0}, [("u", "v"), ("v", "w")]),
    ({"u": 1, "v": 0, "w": 2}, [("u", "v"), ("v", "w"), ("u", "w")]),
    ({"u": 0, "v": 1, "w": 0}, [("u", "v"), ("u", "v"), ("v", "w"), ("w", "w")]),
    # a triple edge, and doubled edges with a loop; vertex order not sorted
    ({"b": 0, "a": 0}, [("a", "b")] * 3),
    ({"y": 1, "x": 0, "z": 0}, [("x", "y"), ("x", "y"), ("y", "z"), ("y", "z"), ("x", "x")]),
]


def test_band_representatives_match_box_search():
    rng = random.Random("band-representatives-oracle")
    outcomes = {"reps": 0, "errors": 0}
    for case in range(300):
        genus, edges = ORACLE_BASES[case % len(ORACLE_BASES)]
        base = ModularGraph.build(genus, edges)
        d = {v: rng.randint(-10, 10) for v in genus}
        if case % 3 == 2:
            n = {r: rng.randint(-2, 5) for r in nt2b(base)}
        else:
            n = rng.randint(-2, 5)
        try:
            expected = box_search_reference(d, base, n)
        except DomainError:
            with pytest.raises(DomainError):
                band_representatives(d, base, n)
            outcomes["errors"] += 1
        else:
            assert band_representatives(d, base, n) == expected, (case, d, n)
            outcomes["reps"] += 1
    assert min(outcomes.values()) >= 50


def _is_twist(vertices, edges, delta):
    """Whether delta is the Laplacian of the edges times an integer vector,
    by a rational solve of the system with the first vertex's row and
    column removed (nonsingular on a connected graph)."""
    index = {v: i for i, v in enumerate(vertices)}
    size = len(vertices)
    laplacian = [[0] * size for _ in range(size)]
    for a, b in edges:
        if a != b:
            i, j = index[a], index[b]
            laplacian[i][j] += 1
            laplacian[j][i] += 1
            laplacian[i][i] -= 1
            laplacian[j][j] -= 1
    rows = [[Fraction(x) for x in laplacian[i][1:]] + [Fraction(delta[i])] for i in range(1, size)]
    for col in range(size - 1):
        pivot = next(r for r in range(col, size - 1) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size - 1):
            if r != col:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return all((rows[i][-1] / rows[i][i]).denominator == 1 for i in range(size - 1))


class TestBeyondThreeVertices:
    def test_four_chain_in_milliseconds(self):
        base = ModularGraph.build(
            {"p": 0, "q": 0, "r": 0, "s": 0}, edges=[("p", "q"), ("q", "r"), ("r", "s")]
        )
        start = time.perf_counter()
        reps = band_representatives({"p": 3, "q": -1, "r": 0, "s": 2}, base, 1)
        assert time.perf_counter() - start < 0.1
        assert reps == [{"p": 4, "q": 0, "r": 0, "s": 0}]

    def test_trees_and_cycles(self):
        """Each partition's N is drawn so that a random target multidegree
        lies in the band.  The target is a twist of the input on a tree,
        and on a cycle exactly when the test's own solve says so; half of
        the inputs are drawn as twists of the target."""
        rng = random.Random("band-representatives-trees-cycles")
        found = {"tree": 0, "cycle": 0}
        for case in range(120):
            names = [f"v{i}" for i in range(rng.choice((4, 5)))]
            shape = ("tree", "cycle")[case % 2]
            if shape == "tree":
                edges = [(names[rng.randrange(i)], names[i]) for i in range(1, len(names))]
            else:
                order = rng.sample(names, len(names))
                edges = [(order[i - 1], order[i]) for i in range(len(order))]
            base = ModularGraph.build({v: 0 for v in names}, edges)
            vertices = list(base.vertices)
            d = {v: rng.randint(-10, 10) for v in vertices}
            total = sum(d.values())
            target = {v: rng.randint(-4, 4) for v in vertices[1:]}
            target[vertices[0]] = total - sum(target.values())
            if rng.random() < 0.5:  # make the target a twist on cycles too
                coefficients = {v: rng.randint(-3, 3) for v in vertices}
                d = twist(target, coefficients, intersection_data(base))
            windows, table = {}, {}
            for size in range(1, len(names)):
                for rest in itertools.combinations(sorted(names)[1:], size - 1):
                    plus = {sorted(names)[0], *rest}
                    k = sum(1 for a, b in edges if (a in plus) != (b in plus))
                    n_r = sum(target[v] for v in plus) - total + rng.randint(1, k)
                    windows[frozenset(plus)] = (total + n_r - k, total + n_r - 1)
                    table[Partition.of([plus, set(names) - plus])] = n_r
            target_is_twist = _is_twist(vertices, edges, [target[v] - d[v] for v in vertices])
            try:
                reps = band_representatives(d, base, table)
            except DomainError:
                assert not target_is_twist
                continue
            found[shape] += 1
            for rep in reps:
                assert sum(rep.values()) == total
                assert _is_twist(vertices, edges, [rep[v] - d[v] for v in vertices])
                for plus, (low, high) in windows.items():
                    assert low <= sum(rep[v] for v in plus) <= high
            assert (target in reps) == target_is_twist
            if shape == "tree":
                assert reps == [target]
        assert min(found.values()) >= 20


class TestMinimalBandStabilizers:
    def test_ex_chain_sweep(self):
        base = two_vertex_base()
        cstar, pt = chain_strata(base, 3)
        bounds = minimal_bounds(base, 2)
        for n in range(-20, 21):
            for s in (cstar(n), pt(n)):
                if in_band(s, base, bounds):
                    assert stabilizer_partition(s).blocks == ((("a", "b")),)

    def test_three_vertex_base_sweep(self):
        base = ModularGraph.build(
            {"u": 0, "v": 0, "w": 0},
            edges=[("u", "v"), ("v", "w")],
            tails={"1": "u", "2": "u", "3": "v", "4": "w", "5": "w"},
        )
        bounds = minimal_bounds(base, 1)
        hits = 0
        for defo in enumerate_deformations(base, 2):
            if in_band(defo, base, bounds):
                hits += 1
                assert stabilizer_partition(defo).blocks == (("u", "v", "w"),)
        assert hits > 0


# -- reading a stratum against a partition ----------------------------------
#
# The references below are the per-question edge sweeps that the single
# partition reading replaced: split/internal kept edges, a refinement test
# over the deformed components, the block content, and a second check for
# smoothed splitting edges.


def _reference_split_edges(base, r):
    _check_partition(base, r)
    out = []
    for e in base.edges():
        v1, v2 = base.edge_endpoints(e)
        if r.block_of(v1) != r.block_of(v2):
            out.append(e)
    return tuple(out)


def _reference_classify(defo, r):
    split, internal = [], []
    for e in defo.kept_edges:
        v1, v2 = defo.base.edge_endpoints(e)
        (split if r.block_of(v1) != r.block_of(v2) else internal).append(e)
    return tuple(split), tuple(internal)


def _reference_refines(defo, r):
    return all(len({r.block_of(v) for v in block}) == 1 for block in defo.blocks)


def _reference_content(defo, r):
    content = {block: 0 for block in r.blocks}
    for dblock, d in defo.block_degrees.items():
        content[r.block_of(dblock[0])] += d
    for e in defo.bubbled_edges:
        v1, v2 = defo.base.edge_endpoints(e)
        if r.block_of(v1) == r.block_of(v2):
            content[r.block_of(v1)] += 1
    return content


def reference_fixed_label(defo, base, r):
    _check_partition(base, r)
    if not _reference_refines(defo, r):
        raise DomainError("not fixed: a splitting edge of the partition was smoothed")
    split, _ = _reference_classify(defo, r)
    missing = [e for e in split if e not in set(defo.bubbled_edges)]
    if missing:
        raise DomainError(f"not fixed: splitting edges without bubbles: {missing}")
    if set(_reference_split_edges(base, r)) - set(defo.kept_edges):
        raise DomainError("not fixed: a splitting edge of the partition was smoothed")
    return FixedComponentLabel(r, _reference_content(defo, r))


def reference_tail_membership(defo, base, r, upper, lower):
    _check_partition(base, r)
    if len(r.blocks) != 2:
        raise DomainError(f"tails are defined for 2-block partitions, got {len(r.blocks)} blocks")
    if upper <= lower:
        raise DomainError("tail bounds must satisfy upper > lower")
    if not _reference_refines(defo, r):
        return "none"
    split, _ = _reference_classify(defo, r)
    if set(_reference_split_edges(base, r)) - set(defo.kept_edges):
        return "none"
    minus = next(b for b in r.blocks if b != plus_block(r))
    n_z = -_reference_content(defo, r)[minus]
    n_w = n_z + len([e for e in split if e not in set(defo.bubbled_edges)])
    return "Z" if n_z >= upper else "W" if n_w <= lower else "none"


def reference_in_band(defo, base, bounds):
    for r in nt2b(base):
        if not _reference_refines(defo, r):
            continue
        content = _reference_content(defo, r)
        minus = next(b for b in r.blocks if b != plus_block(r))
        k = len(_reference_split_edges(base, r))
        if content[plus_block(r)] < defo.total_degree + bounds.lower(r) - k + 1:
            return False
        if content[minus] < -bounds.upper(r) + 1:
            return False
    return True


def reference_block_effective_genus(defo, r):
    _check_partition(defo.base, r)
    if not _reference_refines(defo, r):
        raise DomainError("deformed components must refine the partition")
    comp_genus = component_genus(defo)
    _, internal = _reference_classify(defo, r)
    genus = {}
    for block in r.blocks:
        chi = sum(1 - comp_genus[dblock] for dblock in defo.blocks if dblock[0] in block)
        nodes = [e for e in internal if r.block_of(defo.base.edge_endpoints(e)[0]) == block]
        genus[block] = 1 - (chi - len(nodes))
    return genus


def _outcome(fn, *args):
    """A value (dicts as item lists, so block order counts) or an error
    type and text."""
    try:
        value = fn(*args)
    except DomainError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(value, FixedComponentLabel):
        return ("value", value.partition, list(value.sums.items()))
    if isinstance(value, dict):
        return ("value", list(value.items()))
    return ("value", value)


def _random_partitions(rng, base, defo):
    verts = list(base.vertices)
    yield Partition.of([verts])
    yield stabilizer_partition(defo)
    yield from rng.sample(nt2b(base), min(3, len(nt2b(base))))
    labels = [rng.randrange(3) for _ in verts]
    yield Partition.of([[v for v, x in zip(verts, labels) if x == i] for i in set(labels)])
    if len(verts) > 1:  # not a partition of the base: a vertex left out
        yield Partition.of([verts[1:]])


def test_partition_reading_matches_the_per_question_sweeps():
    rng = random.Random("partition-reading-oracle")
    outcomes = {"value": 0, "error": 0}
    for _ in range(600):
        base = random_graph(rng, max_vertices=5, max_extra_edges=3, max_loops=2)
        kept = [e for e in base.edges() if rng.random() < 0.7]
        blocks = induced_blocks(base, kept)
        bubbled = [e for e in kept if rng.random() < 0.5]
        defo = make_deformation(base, kept, {b: rng.randint(-4, 4) for b in blocks}, bubbled)
        for r in _random_partitions(rng, base, defo):
            upper = rng.randint(-3, 5)
            lower = rng.randint(-6, upper)  # tail_membership rejects lower == upper
            cases = [
                (fixed_label, reference_fixed_label, (defo, base, r)),
                (tail_membership, reference_tail_membership, (defo, base, r, upper, lower)),
                (block_effective_genus, reference_block_effective_genus, (defo, r)),
                (edge_count, lambda b, p: len(_reference_split_edges(b, p)), (base, r)),
                (in_band, reference_in_band, (defo, base, uniform_bounds(base, upper + 1, lower))),
            ]
            for fn, reference, args in cases:
                outcome = _outcome(fn, *args)
                assert outcome == _outcome(reference, *args), (fn.__name__, base, defo, r)
                outcomes[outcome[0]] += 1
    assert min(outcomes.values()) > 1000


class TestInBandTable:
    def test_missing_partition_named(self):
        base = ModularGraph.build({"u": 0, "v": 0, "w": 0}, edges=[("u", "v"), ("v", "w")])
        defo = make_deformation(base, base.edges(), {("u",): 0, ("v",): 0, ("w",): 0})
        table = {r: (5, 2) for r in nt2b(base)}
        del table[Partition.of([("u", "v"), ("w",)])]
        with pytest.raises(DomainError, match=r"no bounds given for the partition \(\('u', 'v'\), \('w',\)\)"):
            in_band(defo, base, MultidegreeBounds(table))

    def test_foreign_partition_named(self):
        base = two_vertex_base()
        defo = make_deformation(base, base.edges(), {("a",): 0, ("b",): 0})
        table = {r: (5, 2) for r in nt2b(base)}
        table[Partition.of([("x",), ("y",)])] = (7, 6)
        with pytest.raises(DomainError, match=r"\(\('x',\), \('y',\)\), not a non-trivial 2-block"):
            in_band(defo, base, MultidegreeBounds(table))
