"""The three workloads: inputs made from the seed, the requests, and the
checks that run on their replies.

Each workload keeps a fixed list of slots that sets how much work every
request does, and draws from ``--seed`` the concrete input of each slot
within that work profile, plus the order of the requests.  Request costs
span two to three orders of magnitude between slots, so letting the seed
pick the slots themselves would move the latency percentiles between
seeds by far more than any useful regression bound.

A request returns its reply; replies are compared across rounds and
checked once per slot after the timed section.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import checks

# -- strata-closure -------------------------------------------------------------

# Starting shapes: vertex genera, edges between vertex indices, and the
# vertex of each marking.
SHAPES = {
    "g1m1": ((1,), (), (0,)),
    "g1m2": ((1,), (), (0, 0)),
    "g1m3": ((1,), (), (0, 0, 0)),
    "g2m0": ((2,), (), ()),
    "g2m1": ((2,), (), (0,)),
    "g0loop_m1": ((0,), ((0, 0),), (0,)),
    "g0loop_m2": ((0,), ((0, 0),), (0, 0)),
    "g1loop_m1": ((1,), ((0, 0),), (0,)),
    "g0loop2": ((0,), ((0, 0), (0, 0)), ()),
    "e11": ((1, 1), ((0, 1),), ()),
    "e10m2": ((1, 0), ((0, 1),), (1, 1)),
    "e10m3": ((1, 0), ((0, 1),), (0, 1, 1)),
    "e11m1": ((1, 1), ((0, 1),), (0,)),
}

# (shape, band, multidegree, closure size in strata), cheapest first.
# Most closures are small, as in interactive use; the latency median sits
# on six copies of one 23-stratum closure and the 90th percentile on
# four copies of one 114-stratum closure, so that neither percentile
# hinges on which of two neighbouring closures happens to be faster.
CLOSURE_SLOTS = (
    ("g1m2", (-2, -1), (-1,), 2),
    ("g2m0", (1, 2), (1,), 3),
    ("g1m1", (1, 5), (3,), 3),
    ("e10m2", (-1, 0), (-1, 0), 2),
    ("g1m3", (1, 5), (2,), 14),
    ("g2m1", (-2, -1), (-2,), 10),
    ("g0loop_m1", (-2, 1), (0,), 2),
    ("g0loop2", (0, 3), (0,), 3),
    ("e11", (-2, 0), (0, -1), 4),
    ("e10m3", (1, 3), (2, 1), 8),
    ("g0loop_m2", (1, 3), (3,), 9),
    ("e11m1", (-2, 0), (0, 0), 9),
    ("e11m1", (1, 3), (1, 3), 12),
    ("g0loop_m2", (0, 2), (1,), 9),
    ("g0loop2", (0, 2), (1,), 7),
    ("g1m2", (1, 5), (4,), 22),
    ("e11", (-1, 3), (0, -1), 9),
    ("g1loop_m1", (0, 2), (0,), 13),
    *[("g1m3", (-2, 0), (0,), 23)] * 6,
    ("e10m2", (-1, 3), (3, 2), 9),
    ("g1m3", (-2, 0), (-1,), 54),
    ("e10m3", (0, 2), (1, 2), 31),
    ("g0loop_m2", (0, 4), (4,), 30),
    ("e11", (-2, 1), (-1, 1), 24),
    ("g0loop2", (-2, 2), (-1,), 19),
    ("g1m2", (-2, 1), (0,), 34),
    ("g2m1", (1, 5), (4,), 88),
    ("g2m0", (-1, 2), (2,), 45),
    ("e11m1", (0, 1), (1, 1), 70),
    ("g1loop_m1", (0, 4), (1,), 52),
    ("g1m3", (0, 4), (1,), 94),
    ("g0loop2", (-2, 2), (0,), 26),
    *[("g2m1", (-1, 1), (-1,), 114)] * 4,
    ("g1m3", (0, 3), (2,), 226),
    ("g2m1", (-1, 1), (0,), 223),
)

MARKING_NAMES = tuple(str(k) for k in range(1, 10))


def _present_label(rng: random.Random, shape: str, degrees) -> dict:
    """A degeneracy-type document for the shape, with vertex and
    half-edge names, their order and the marking names drawn at random."""
    genera, edges, tails = SHAPES[shape]
    vnames = [f"c{k}" for k in rng.sample(range(100), len(genera))]
    hnames = iter(f"h{k}" for k in rng.sample(range(1000), 2 * len(edges) + len(tails)))
    labels = sorted(rng.sample(MARKING_NAMES, len(tails)))
    half_edges, involution, tail_map = [], [], {}
    for a, b in edges:
        ha, hb = next(hnames), next(hnames)
        half_edges += [{"id": ha, "vertex": vnames[a]}, {"id": hb, "vertex": vnames[b]}]
        involution.append([ha, hb] if rng.random() < 0.5 else [hb, ha])
    for label, v in zip(labels, tails):
        h = next(hnames)
        half_edges.append({"id": h, "vertex": vnames[v]})
        tail_map[h] = label
    rng.shuffle(half_edges)
    rng.shuffle(involution)
    vertices = [{"id": vnames[i], "genus": g} for i, g in enumerate(genera)]
    rng.shuffle(vertices)
    return {
        "vertices": vertices,
        "half_edges": half_edges,
        "involution": involution,
        "tails": tail_map,
        "multidegree": {vnames[i]: d for i, d in enumerate(degrees)},
    }


def _run_cli(cli, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


class StrataClosure:
    name = "strata-closure"
    # closures with at most this many strata are also compared with the
    # benchmark's own breadth-first closure (larger ones take seconds)
    ORACLE_MAX_STRATA = 120

    def __init__(self, seed: int, inputs: Path, program):
        rng = random.Random(f"{self.name}:{seed}")
        self.cli = program.cli
        self.cases = []
        for shape, band, degrees, size in CLOSURE_SLOTS:
            doc = _present_label(rng, shape, degrees)
            self.cases.append({"doc": doc, "band": band, "size": size})
        rng.shuffle(self.cases)
        self.argvs = []
        for i, case in enumerate(self.cases):
            path = inputs / f"label-{i}.json"
            path.write_text(json.dumps(case["doc"]))
            band = case["band"]
            self.argvs.append(["strata", "--base", str(path), "--band", f"{band[0]},{band[1]}"])

    def requests(self):
        return [lambda argv=argv: _run_cli(self.cli, argv) for argv in self.argvs]

    def strata(self, i: int, reply: str) -> int:
        return len(json.loads(reply)["strata"])

    def check(self, i: int, reply: str) -> list[str]:
        case = self.cases[i]
        return checks.check_strata(
            case["doc"], case["band"], reply, case["size"] <= self.ORACLE_MAX_STRATA
        )


# -- g0n4-invariants --------------------------------------------------------------

# Work profiles of the invariant requests: (q, evaluations as (side of
# the node, weight), index insertions as (lambda, power)); "+" is the
# side of markings 1 and 2.  A profile fixes the fiber weights along the
# chain (they depend on each side's weight sum), the chain window (it
# depends on the sum of absolute weights), the term counts, and whether
# the degree (sum of weights)/q - 1 is an integer: together, the cost of
# the request, given in the comments for a 2-core Xeon VM.  A quarter
# have no integral degree and cost only the frontend; the latency median
# sits on six copies of one profile and the 90th percentile on six
# copies of another.
G0N4_SLOTS = (
    (2, (("+", 3),), ((-1, 2),)),  # 2 ms
    (3, (("-", -5),), ()),
    (3, (("+", -5), ("-", 1)), ()),
    (3, (("+", -1), ("-", 5)), ()),
    (2, (("+", -4), ("-", 2), ("+", -3)), ()),
    (3, (("-", 6),), ((-2, 2),)),
    (3, (("+", 4), ("+", -1), ("-", -4)), ((-2, 0),)),
    (2, (("+", 3),), ((-1, 2), (1, 0))),
    (2, (("-", 0), ("+", -1)), ()),
    (3, (("-", -4), ("-", -4), ("-", 3)), ((1, 1),)),
    (2, (("+", 6), ("-", -4), ("-", -5)), ((-2, 1), (-2, 2))),
    (3, (("-", -6), ("+", -6), ("-", -6)), ((-2, 2),)),
    (1, (("-", 1),), ()),  # 15 ms
    (1, (("+", 0),), ()),
    (1, (("+", 3),), ()),
    (2, (("-", -2),), ()),
    (1, (("+", -3),), ()),
    (1, (("+", 0), ("+", 0)), ((0, 2),)),
    (1, (("-", -1), ("+", 4)), ()),
    (1, (("-", -1),), ((0, 1),)),
    (3, (("-", 3),), ()),
    (1, (("-", 5),), ()),  # 52 ms
    *[(2, (("+", 6), ("-", 2)), ())] * 6,  # 89 ms
    (1, (("-", 1), ("+", 5)), ((-1, 0),)),  # 112 ms
    (2, (("-", 5), ("-", -2), ("-", 5)), ()),
    (1, (("+", -6), ("+", 1)), ()),
    (1, (("+", -1), ("-", -5)), ((-1, 0),)),
    (2, (("-", -6),), ((0, 0),)),
    (1, (("+", 1), ("-", 5), ("+", 0)), ((2, 0),)),
    (1, (("-", -6), ("+", 2), ("-", 1)), ()),
    (3, (("+", -5), ("-", -6), ("+", 2)), ()),
    (3, (("-", -5), ("-", 2)), ((0, 2),)),
    (3, (("-", 2), ("-", -4), ("+", 6)), ((-2, 0), (-1, 1))),
    (3, (("-", 0), ("+", 1)), ((-2, 2),)),
    (2, (("+", -1), ("+", -5), ("-", 2)), ((2, 1), (2, 0))),
    (1, (("-", 5),), ((-2, 1),)),
    (3, (("+", 6), ("+", -5), ("+", -4)), ()),
    (1, (("+", 0),), ((2, 2), (-1, 0))),  # 205 ms
    *[(1, (("-", 5), ("+", 4)), ((0, 2), (0, 0)))] * 6,  # 319 ms
    (2, (("+", 0), ("-", -2), ("-", 2)), ((2, 2), (1, 2))),  # 449 ms
    (1, (("+", 6), ("+", 3)), ((2, 0), (1, 0))),
    (1, (("+", 5), ("-", -3), ("-", -3)), ((-1, 2),)),  # 568 ms
)


def _weights_like(rng: random.Random, weights: list[int]) -> list[int]:
    """Weights in [-6, 6] with the count, sum and sum of absolute values
    of ``weights``."""
    while True:
        out = [rng.randint(-6, 6) for _ in weights]
        if sum(out) == sum(weights) and sum(map(abs, out)) == sum(map(abs, weights)):
            return out


class G0N4Invariants:
    name = "g0n4-invariants"

    def __init__(self, seed: int, inputs: Path, program):
        rng = random.Random(f"{self.name}:{seed}")
        self.cli = program.cli
        self.invariants = program.invariants
        self.character = program.character
        self.specs = []
        for q, evaluations, indices in G0N4_SLOTS:
            rows = []
            for side, labels in (("+", "12"), ("-", "34")):
                weights = _weights_like(rng, [w for s, w in evaluations if s == side])
                rows += [
                    {"label": rng.choice(labels), "lambda": w, "descendant": rng.randint(0, 2)}
                    for w in weights
                ]
            rng.shuffle(rows)
            self.specs.append(
                {
                    "q": str(q),
                    "evaluations": rows,
                    "indices": [{"lambda": lam, "power": p} for lam, p in indices],
                }
            )
        rng.shuffle(self.specs)
        self.argvs = []
        for i, spec in enumerate(self.specs):
            path = inputs / f"spec-{i}.json"
            path.write_text(json.dumps(spec))
            self.argvs.append(["invariant", "--case", "g0n4-boundary", "--spec", str(path)])

    def requests(self):
        return [lambda argv=argv: _run_cli(self.cli, argv) for argv in self.argvs]

    def strata(self, i: int, reply: str) -> int:
        """Fixed points pt_n of the chain window at each scanned degree."""
        total = 0
        for d in json.loads(reply)["breakdown"]:
            lo, hi = checks.chain_window(self.specs[i], int(d))
            total += hi - lo + 1
        return total

    def chain_value(self, spec_doc, d, window, engine):
        """Weight-zero part of the chain Euler characteristic of the
        benchmark's own restriction of the class, by one of the
        program's two engines."""
        ch, inv = self.character, self.invariants
        degrees, fibers, multipliers = checks.chain_line(spec_doc, d, window)
        line = inv.ChainLineData(
            degrees, fibers, {n: ch.LaurentCharacter.from_terms(2, m) for n, m in multipliers.items()}
        )
        model = inv.build_chain_model(d, ch.AdmissibleClassSpec(Fraction(spec_doc["q"])), window)
        if engine == "cech":
            return ch.weight_zero_part(inv.chain_euler_character_cech(model, line))
        return ch.weight_zero_part(inv.chain_euler_character_localization(model, line))

    def check(self, i: int, reply: str) -> list[str]:
        return checks.check_g0n4(self.specs[i], reply, self.chain_value)


# -- twist-bands --------------------------------------------------------------------

# Three-vertex bases: a chain (a tree), a triangle carrying genus, and a
# double edge with a loop.  Four-vertex bases take seconds per request.
TWIST_BASES = {
    "chain": ({"u": 0, "v": 0, "w": 0}, (("u", "v"), ("v", "w")),
              {"1": "u", "2": "u", "3": "v", "4": "w", "5": "w"}),
    "triangle": ({"u": 1, "v": 0, "w": 2}, (("u", "v"), ("v", "w"), ("u", "w")),
                 {"1": "v", "2": "v"}),
    "double-loop": ({"u": 0, "v": 1, "w": 0}, (("u", "v"), ("u", "v"), ("v", "w"), ("w", "w")),
                    {"1": "u", "2": "u", "3": "u", "4": "w", "5": "w"}),
}
TWIST_SLOTS = 60


def _twist_structures():
    """Work profiles drawn once from a fixed seed: base, N, total degree
    and the sum of absolute degrees, which fix the twist search box."""
    rng = random.Random("twist-bands:structure")
    out = []
    for i in range(TWIST_SLOTS):
        base = sorted(TWIST_BASES)[i % len(TWIST_BASES)]
        degrees = [rng.randint(-10, 10) for _ in range(3)]
        while sum(map(abs, degrees)) > 10:
            degrees = [rng.randint(-10, 10) for _ in range(3)]
        out.append((base, rng.choice((1, 2)), sum(degrees), sum(map(abs, degrees))))
    return out


class TwistBands:
    name = "twist-bands"

    def __init__(self, seed: int, inputs: Path, program):
        rng = random.Random(f"{self.name}:{seed}")
        self.atlas = program.atlas
        self.degeneration = program.degeneration
        graph = program.modular_graph.ModularGraph
        self.bases = {
            name: graph.build(genus, edges, tails) for name, (genus, edges, tails) in TWIST_BASES.items()
        }
        profiles: dict[tuple[int, int], list] = {}
        for degrees in itertools.product(range(-10, 11), repeat=3):
            profiles.setdefault((sum(degrees), sum(map(abs, degrees))), []).append(degrees)
        self.cases = []
        for base, n, total, abs_sum in _twist_structures():
            degrees = rng.choice(profiles[total, abs_sum])
            upper = n + rng.randint(-1, 2)
            genus, edges, _ = TWIST_BASES[base]
            self.cases.append(
                {
                    "base": base,
                    "vertices": sorted(genus),
                    "edges": [list(e) for e in edges],
                    "multidegree": dict(zip(sorted(genus), degrees)),
                    "n": n,
                    "bounds": (upper, upper - rng.randint(1, 4)),
                }
            )
        rng.shuffle(self.cases)

    def _request(self, case):
        atlas, degeneration = self.atlas, self.degeneration
        base = self.bases[case["base"]]
        upper, lower = case["bounds"]
        bounds = atlas.uniform_bounds(base, upper, lower)
        partitions = atlas.nt2b(base)
        rows = []
        for rep in atlas.band_representatives(case["multidegree"], base, case["n"]):
            stratum = degeneration.DegeneracyType(base, rep)
            blocks = atlas.stabilizer_partition(degeneration.deformation_of(stratum, base)).blocks
            tails = [atlas.tail_membership(stratum, base, r, upper, lower) for r in partitions]
            rows.append((rep, blocks, atlas.in_band(stratum, base, bounds), tails))
        return rows

    def requests(self):
        return [lambda case=case: self._request(case) for case in self.cases]

    def strata(self, i: int, reply) -> int:
        """Band representatives, each an unbubbled stratum over the base."""
        return len(reply)

    def check(self, i: int, reply) -> list[str]:
        return checks.check_twist(self.cases[i], reply)


WORKLOADS = {w.name: w for w in (StrataClosure, G0N4Invariants, TwistBands)}
