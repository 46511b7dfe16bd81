"""Output checks computed apart from the program.

Every check takes the generated inputs and the program's outputs (as the
requests returned them) and returns a list of failure messages; an empty
list means the outputs passed.  Nothing here imports ``gieseker`` except
the cross-engine check of the four-point invariant, which by design
compares the program's two independent engines.

States are flat records ``(genera, degrees, tails, edges)`` over vertex
indices: ``tails`` is a sorted tuple of ``(label, vertex)`` and ``edges``
a sorted tuple of sorted vertex pairs (a self-edge is ``(v, v)``).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

# -- flat states -------------------------------------------------------------


class MalformedOutput(ValueError):
    """A document emitted by the program does not describe a labelled graph."""


def flat_state(doc: dict):
    """Flat state of a degeneracy-type document, checking that every
    half-edge is either a tail or one end of exactly one node."""
    try:
        names = [row["id"] for row in doc["vertices"]]
        index = {v: i for i, v in enumerate(names)}
        genera = tuple(int(row["genus"]) for row in doc["vertices"])
        attach = {row["id"]: row["vertex"] for row in doc["half_edges"]}
        degrees = tuple(int(doc["multidegree"][v]) for v in names)
        pairs = [tuple(pair) for pair in doc["involution"]]
        tail_map = dict(doc["tails"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedOutput(f"unreadable document: {exc!r}") from exc
    if len(index) != len(names) or set(doc["multidegree"]) != set(names):
        raise MalformedOutput("vertex ids repeat or the multidegree misses a vertex")
    used = [h for pair in pairs for h in pair] + list(tail_map)
    if sorted(used) != sorted(attach) or any(v not in index for v in attach.values()):
        raise MalformedOutput("half-edges are not exactly the node ends and the tails")
    tails = tuple(sorted((str(label), index[attach[h]]) for h, label in tail_map.items()))
    edges = tuple(
        sorted(tuple(sorted((index[attach[a]], index[attach[b]]))) for a, b in pairs)
    )
    return genera, degrees, tails, edges


def special_points(state, v: int) -> int:
    _, _, tails, edges = state
    return sum(1 for _, i in tails if i == v) + sum((a == v) + (b == v) for a, b in edges)


def connected(state) -> bool:
    genera, _, _, edges = state
    n = len(genera)
    if n == 0:
        return False
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == n


def gieseker_valid(state) -> bool:
    """A connected labelled graph is a Gieseker stratum label when every
    unstable vertex is a degree-1 genus-0 bubble on two distinct nodes
    without marked points, and no two bubbles share a node."""
    genera, degrees, tails, edges = state
    if not connected(state):
        return False
    bubbles = set()
    for v in range(len(genera)):
        sp = special_points(state, v)
        if not ((genera[v] == 0 and sp < 3) or (genera[v] == 1 and sp < 1)):
            continue
        marked = any(i == v for _, i in tails)
        if genera[v] != 0 or sp != 2 or marked or (v, v) in edges or degrees[v] != 1:
            return False
        bubbles.add(v)
    return not any(a in bubbles and b in bubbles for a, b in edges)


def arithmetic_genus(state) -> int:
    genera, _, _, edges = state
    return sum(genera) + len(edges) - len(genera) + 1


def certificate(state):
    """Isomorphism certificate by exhaustive minimisation: vertices are
    sorted by an invariant profile, and every ordering inside each group
    of equal profiles is tried."""
    genera, degrees, tails, edges = state
    n = len(genera)
    profile = [
        (
            genera[v],
            degrees[v],
            tuple(sorted(label for label, i in tails if i == v)),
            sum((a == v) + (b == v) for a, b in edges),
        )
        for v in range(n)
    ]
    groups = [[v for v in range(n) if profile[v] == p] for p in sorted(set(profile))]
    best = None
    for choice in itertools.product(*(itertools.permutations(g) for g in groups)):
        position = {v: i for i, v in enumerate(v for chunk in choice for v in chunk)}
        enc = tuple(sorted(tuple(sorted((position[a], position[b]))) for a, b in edges))
        if best is None or enc < best:
            best = enc
    return tuple(sorted(profile)), best


# -- independent closure -------------------------------------------------------


def _stable(state, v: int) -> bool:
    genera = state[0]
    sp = special_points(state, v)
    return not ((genera[v] == 0 and sp < 3) or (genera[v] == 1 and sp < 1))


def _normal(genera, degrees, tails, edges):
    return (
        tuple(genera),
        tuple(degrees),
        tuple(sorted(tails)),
        tuple(sorted(tuple(sorted(e)) for e in edges)),
    )


def degenerations(state, band):
    """Every single elementary degeneration of a flat state: a self-node
    from one genus, a split of one vertex into two joined by a new node
    (genus, degree and special points shared out in every way, degrees
    kept inside the band), and a degree-1 bubble on a node between
    stable vertices."""
    lo, hi = band
    genera, degrees, tails, edges = state
    n = len(genera)
    for v in range(n):
        if genera[v] >= 1:
            g = list(genera)
            g[v] -= 1
            yield _normal(g, degrees, tails, list(edges) + [(v, v)])
    for v in range(n):
        ends = [("t", k) for k, (_, i) in enumerate(tails) if i == v]
        ends += [("e", k, side) for k, e in enumerate(edges) for side in (0, 1) if e[side] == v]
        for g1 in range(genera[v] + 1):
            for d1 in range(max(lo, degrees[v] - hi), min(hi, degrees[v] - lo) + 1):
                for r in range(len(ends) + 1):
                    for moved in itertools.combinations(ends, r):
                        new_tails = list(tails)
                        new_edges = [list(e) for e in edges]
                        for end in moved:
                            if end[0] == "t":
                                new_tails[end[1]] = (new_tails[end[1]][0], n)
                            else:
                                new_edges[end[1]][end[2]] = n
                        g = list(genera) + [genera[v] - g1]
                        g[v] = g1
                        d = list(degrees) + [degrees[v] - d1]
                        d[v] = d1
                        yield _normal(g, d, new_tails, new_edges + [[v, n]])
    if not lo <= 1 <= hi:
        return
    for k, (a, b) in enumerate(edges):
        if not (_stable(state, a) and _stable(state, b)):
            continue
        for side in sorted({a, b}):
            if degrees[side] - 1 < lo:
                continue
            d = list(degrees) + [1]
            d[side] -= 1
            new_edges = [list(e) for j, e in enumerate(edges) if j != k] + [[a, n], [b, n]]
            yield _normal(list(genera) + [0], d, tails, new_edges)


def closure_certificates(start, band) -> set:
    """Breadth-first closure of a flat start state under the elementary
    degenerations, keeping Gieseker-valid states inside the band."""
    lo, hi = band
    seen = {certificate(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for cand in degenerations(state, band):
                if not all(lo <= d <= hi for d in cand[1]) or not gieseker_valid(cand):
                    continue
                cert = certificate(cand)
                if cert not in seen:
                    seen.add(cert)
                    nxt.append(cand)
        frontier = nxt
    return seen


# -- workload checks ----------------------------------------------------------


def check_strata(start_doc: dict, band, output: str, with_closure: bool) -> list[str]:
    """Checks on one ``gieseker strata`` reply."""
    lo, hi = band
    try:
        strata = json.loads(output)["strata"]
        start = flat_state(start_doc)
        states = [flat_state(row["type"]) for row in strata]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable strata reply: {exc!r}"]
    failures = []
    genus0, degree0 = arithmetic_genus(start), sum(start[1])
    for row, state in zip(strata, states):
        digest = row.get("digest")
        if not gieseker_valid(state):
            failures.append(f"stratum {digest} is not a Gieseker label")
        if not all(lo <= d <= hi for d in state[1]):
            failures.append(f"stratum {digest} has a degree outside the band {band}")
        if sum(state[1]) != degree0:
            failures.append(f"stratum {digest} changes the total degree")
        if arithmetic_genus(state) != genus0:
            failures.append(f"stratum {digest} changes the arithmetic genus")
    certs = [certificate(s) for s in states]
    if len(set(certs)) != len(certs):
        failures.append(f"{len(certs) - len(set(certs))} strata are emitted twice")
    if certificate(start) not in set(certs):
        failures.append("the starting label is missing from its own closure")
    if with_closure:
        expected = closure_certificates(start, band)
        missing, extra = len(expected - set(certs)), len(set(certs) - expected)
        if missing or extra:
            failures.append(f"closure differs from the independent one: {missing} missing, {extra} extra")
    return failures


def expected_g0n4_degree(spec_doc: dict):
    """The only total degree where the diagonal weight can vanish, or
    ``None`` when that degree is not an integer."""
    q = Fraction(spec_doc["q"])
    shift = sum(int(row["lambda"]) for row in spec_doc.get("evaluations", []))
    shift += sum(int(row["power"]) * int(row["lambda"]) for row in spec_doc.get("indices", []))
    d = Fraction(shift) / q - 1
    return int(d) if d.denominator == 1 else None


def chain_window(spec_doc: dict, d: int, extra: int = 0) -> tuple[int, int]:
    """The fixed points pt_n that can carry weight zero, padded by two on
    each side as the program pads them, plus ``extra``: insertions shift
    the diagonal exponent by at most their total weight, so beyond
    ceil(weight / q) + 2 no term has weight zero."""
    q = Fraction(spec_doc["q"])
    weight = sum(abs(int(row["lambda"])) for row in spec_doc.get("evaluations", []))
    weight += sum(
        int(row["power"]) * abs(int(row["lambda"])) for row in spec_doc.get("indices", [])
    )
    pad = -((-weight * q.denominator) // q.numerator)
    return (-(pad + 4 + abs(d)) - extra, pad + 4 + extra)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = (ea[0] + eb[0], ea[1] + eb[1])
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def chain_line(spec_doc: dict, d: int, window: tuple[int, int]):
    """The class restricted to the boundary chain at total degree d, from
    the weight formulas alone: every component has degree -q; at pt_n,
    whose blocks carry degrees (d+n-1, -n) and genus 0, the twist line
    bundle has exponents q(d+n, 1-n), each evaluation shifts the block of
    its point by -lambda, and each index class contributes
    ((lambda(d+n-1)+1) t_a^-lambda + (-lambda n + 1) t_b^-lambda)^power.
    Returns (degrees, fibers, multipliers) keyed by n."""
    q = int(spec_doc["q"])
    shift = [Fraction(0), Fraction(0)]
    for row in spec_doc.get("evaluations", []):
        shift[0 if str(row["label"]) in ("1", "2") else 1] -= int(row["lambda"])
    lo, hi = window
    fibers, multipliers = {}, {}
    for n in range(lo, hi + 1):
        fibers[n] = (q * (d + n) + shift[0], q * (1 - n) + shift[1])
        mult = {(Fraction(0), Fraction(0)): 1}
        for row in spec_doc.get("indices", []):
            lam = int(row["lambda"])
            factor = {(Fraction(-lam), Fraction(0)): lam * (d + n - 1) + 1}
            on_b = (Fraction(0), Fraction(-lam))  # the same exponent when lambda is 0
            factor[on_b] = factor.get(on_b, 0) + (-lam * n + 1)
            factor = {e: c for e, c in factor.items() if c}
            for _ in range(int(row["power"])):
                mult = _poly_mul(mult, factor)
        multipliers[n] = mult
    return {n: -q for n in range(lo, hi)}, fibers, multipliers


def check_g0n4(spec_doc: dict, output: str, chain_value) -> list[str]:
    """Checks on one ``gieseker invariant --case g0n4-boundary`` reply.
    ``chain_value(spec_doc, d, window, engine)`` evaluates the
    weight-zero part of the chain Euler characteristic of ``chain_line``
    with the program's ``"cech"`` or ``"localization"`` engine."""
    try:
        reply = json.loads(output)
        value = reply["value"]
        breakdown = {int(d): v for d, v in reply["breakdown"].items()}
        contributing = list(reply["contributing_degrees"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable invariant reply: {exc!r}"]
    failures = []
    d = expected_g0n4_degree(spec_doc)
    allowed = {d} if d is not None else set()
    if not set(contributing) <= allowed or set(breakdown) != allowed:
        failures.append(
            f"degrees {sorted(breakdown)} (contributing {contributing}) outside {sorted(allowed)}"
        )
    if sum(breakdown.values()) != value:
        failures.append("breakdown does not sum to the value")
    if d is None or d not in breakdown:
        return failures
    local = chain_value(spec_doc, d, chain_window(spec_doc, d), "localization")
    if local != breakdown[d]:
        failures.append(f"Cech value {breakdown[d]} differs from the localization value {local}")
    wide = chain_value(spec_doc, d, chain_window(spec_doc, d, 6), "cech")
    if wide != breakdown[d]:
        failures.append(f"value {breakdown[d]} changes to {wide} on a padded window")
    return failures


def partitions(vertices):
    """Non-trivial 2-block partitions, the plus block holding the
    smallest vertex id."""
    verts = sorted(vertices)
    first, rest = verts[0], verts[1:]
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            plus = (first,) + combo
            yield plus, tuple(v for v in verts if v not in plus)


def _lattice_coefficients(vertices, edges, delta):
    """Solve delta = L c over the rationals with c at the first vertex
    fixed to zero, where L is the intersection matrix built from the
    non-loop edges; returns None when no solution exists."""
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for a, b in edges:
        if a == b:
            continue
        i, j = index[a], index[b]
        matrix[i][j] += 1
        matrix[j][i] += 1
        matrix[i][i] -= 1
        matrix[j][j] -= 1
    rows = [matrix[i][1:] + [Fraction(delta[i])] for i in range(1, n)]
    m = n - 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    coeffs = [Fraction(0)] + [rows[i][m] / rows[i][i] for i in range(m)]
    if any(sum(matrix[i][j] * coeffs[j] for j in range(n)) != delta[i] for i in range(n)):
        return None
    return coeffs


def check_twist(case: dict, reply) -> list[str]:
    """Checks on one band-representative request.  ``case`` holds the
    base's vertices and edges (as vertex pairs), the multidegree, N and
    the uniform (upper, lower) bounds used for band and tail queries;
    ``reply`` is a list of ``(representative, stabilizer blocks,
    in_band, tails)`` rows, tails in the order of ``partitions``."""
    vertices, edges = case["vertices"], [tuple(e) for e in case["edges"]]
    start, n_min = case["multidegree"], case["n"]
    upper, lower = case["bounds"]
    total = sum(start.values())
    split = [e for e in edges if e[0] != e[1]]
    is_tree = len(split) == len(vertices) - 1
    failures = []
    if not reply:
        failures.append("no band representative")
    if is_tree and len(reply) != 1:
        failures.append(f"a tree base has {len(reply)} representatives, not one")
    for rep, blocks, band_flag, tails in reply:
        name = "representative " + ",".join(f"{v}={rep[v]}" for v in vertices)
        if sum(rep.values()) != total:
            failures.append(f"{name} changes the total degree")
        delta = [rep[v] - start[v] for v in vertices]
        coeffs = _lattice_coefficients(vertices, edges, delta)
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            failures.append(f"{name} is not a twist of the input multidegree")
        expected_tails = []
        for plus, minus in partitions(vertices):
            k = sum(1 for a, b in split if (a in plus) != (b in plus))
            p_plus = sum(rep[v] for v in plus)
            if p_plus < total + (n_min - 1) - k + 1 or total - p_plus < -n_min + 1:
                failures.append(f"{name} breaks the minimal-band inequality of {plus}|{minus}")
            n_z = -(total - p_plus)
            expected_tails.append("Z" if n_z >= upper else "W" if n_z + k <= lower else "none")
        if list(tails) != expected_tails:
            failures.append(f"{name} tail labels {list(tails)} differ from {expected_tails}")
        if band_flag != all(t == "none" for t in tails):
            failures.append(f"{name} in_band={band_flag} disagrees with its tails")
        if [sorted(b) for b in blocks] != [sorted(vertices)]:
            failures.append(f"{name} stabilizer {blocks} is not the trivial partition")
    if len({tuple(rep[v] for v in vertices) for rep, *_ in reply}) != len(reply):
        failures.append("a representative is listed twice")
    return failures
