"""Batch command-line frontend with stable JSON/DOT/CSV interfaces.

Machine output goes to stdout, diagnostics to stderr; exit 0 on success,
1 on domain errors (malformed documents, violated preconditions), 2 on
usage errors.  Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import AbstractSet, Optional

from . import atlas, character, degeneration, invariants, modular_graph
from .errors import DomainError

SPEC_KEYS = {"q", "evaluations", "indices", "genus", "markings", "total_degree"}


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _integer(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be an integer, got {value!r}") from exc


def _rows(rows, kind: str, required: AbstractSet[str], optional: AbstractSet[str] = frozenset()) -> list:
    """Check a list of row objects against their required and optional keys."""
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise DomainError(f"{kind} rows must be a list of objects")
    for row in rows:
        extra = set(row) - required - optional
        if extra:
            raise DomainError(f"unknown {kind} keys: {sorted(extra)}")
        missing = required - set(row)
        if missing:
            raise DomainError(f"{kind} rows require the keys {sorted(missing)}")
    return rows


def parse_spec_document(data: dict):
    """Parse a spec document into the class data plus case-specific keys;
    unknown keys are rejected."""
    if not isinstance(data, dict):
        raise DomainError("spec document must be a JSON object")
    unknown = set(data) - SPEC_KEYS
    if unknown:
        raise DomainError(f"unknown spec keys: {sorted(unknown)}")
    if "q" not in data:
        raise DomainError("spec document requires the key 'q'")
    evaluations = [
        character.EvaluationInsertion(
            str(row["label"]),
            _integer(row["lambda"], "evaluation lambda"),
            _integer(row.get("descendant", 0), "evaluation descendant"),
        )
        for row in _rows(
            data.get("evaluations", []), "evaluation", {"label", "lambda"}, {"descendant"}
        )
    ]
    indices = [
        character.IndexInsertion(
            _integer(row["lambda"], "index lambda"), _integer(row["power"], "index power")
        )
        for row in _rows(data.get("indices", []), "index", {"lambda", "power"})
    ]
    spec = character.AdmissibleClassSpec(
        character.parse_fraction(data["q"]), tuple(evaluations), tuple(indices)
    )
    case_info = {k: data[k] for k in ("genus", "markings", "total_degree") if k in data}
    return spec, case_info


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"{what} must be two comma-separated integers, got {text!r}") from exc
    return lo, hi


# -- subcommands ----------------------------------------------------------


def _cmd_validate(args) -> int:
    graph = modular_graph.graph_from_json(_load_json(args.graph))
    report = modular_graph.validate(graph)
    _emit({"valid": report.ok, "errors": list(report.errors)})
    return 0


def _cmd_strata(args) -> int:
    dt = degeneration.degeneracy_from_json(_load_json(args.base))
    band = _parse_pair(args.band, "--band")
    strata, arrows = degeneration.closure_poset(dt, band)
    if args.dot:
        lines = ["digraph strata {"]
        for digest in sorted(strata):
            node = strata[digest]
            genera = sorted(node.graph.genus[v] for v in node.graph.vertices)
            degs = sorted(node.multidegree.values())
            label = f"g={genera} d={degs} e={len(node.graph.edges())}"
            lines.append(f'  "{digest}" [label="{label}"];')
        for src, dst, op in arrows:
            lines.append(f'  "{src}" -> "{dst}" [label="{op}"];')
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit(
            {
                "strata": [
                    {"digest": digest, "type": degeneration.degeneracy_to_json(strata[digest])}
                    for digest in sorted(strata)
                ]
            }
        )
    return 0


def _cmd_stabilizer(args) -> int:
    dt = degeneration.degeneracy_from_json(_load_json(args.type))
    base = modular_graph.graph_from_json(_load_json(args.base))
    defo = degeneration.deformation_of(dt, base)
    partition = atlas.stabilizer_partition(defo)
    _emit(atlas.partition_to_json(partition))
    return 0


def _load_bounds(args, base) -> atlas.MultidegreeBounds:
    if args.bounds:
        table = {}
        for row in _rows(_load_json(args.bounds), "bounds", {"blocks", "upper", "lower"}):
            try:
                r = atlas.Partition.of(row["blocks"])
            except TypeError as exc:
                raise DomainError(f"bounds blocks must be lists of vertex ids: {exc}") from exc
            table[r] = (_integer(row["upper"], "bounds upper"), _integer(row["lower"], "bounds lower"))
        atlas.require_partition_table(base, table, "bounds")
        return atlas.MultidegreeBounds(table)
    if args.upper is None or args.lower is None:
        raise DomainError("provide either --bounds or both --upper and --lower")
    return atlas.uniform_bounds(base, args.upper, args.lower)


def _cmd_band(args) -> int:
    dt = degeneration.degeneracy_from_json(_load_json(args.type))
    base = modular_graph.graph_from_json(_load_json(args.base))
    bounds = _load_bounds(args, base)
    defo = degeneration.deformation_of(dt, base)
    tails = [
        {
            "blocks": [list(b) for b in r.blocks],
            "membership": atlas.tail_membership(defo, base, r, bounds.upper(r), bounds.lower(r)),
        }
        for r in atlas.nt2b(base)
    ]
    _emit({"in_band": atlas.in_band(defo, base, bounds), "tails": tails})
    return 0


def _cmd_twist_lattice(args) -> int:
    base = modular_graph.graph_from_json(_load_json(args.base))
    _emit(atlas.intersection_to_json(atlas.intersection_data(base)))
    return 0


def _cmd_weights(args) -> int:
    spec, _ = parse_spec_document(_load_json(args.spec))
    dt = degeneration.degeneracy_from_json(_load_json(args.type))
    base = modular_graph.graph_from_json(_load_json(args.base))
    defo = degeneration.deformation_of(dt, base)
    partition = atlas.stabilizer_partition(defo)
    label = atlas.fixed_label(defo, base, partition)
    genera = atlas.block_effective_genus(defo, partition)
    point_blocks = {
        lab: partition.block_of(base.attach[h]) for h, lab in base.tails.items()
    }
    weight = character.class_weight(spec, label, genera, point_blocks)
    _emit(character.character_to_json(weight))
    return 0


def _invariant_result_json(result: invariants.InvariantResult) -> dict:
    return {
        "value": result.value,
        "contributing_degrees": list(result.contributing_degrees),
        "breakdown": {str(d): v for d, v in sorted(result.breakdown.items())},
        "stabilization_truncation": result.stabilization_truncation,
    }


def _check_case_info(case_info: dict, case: str) -> None:
    if case_info.get("genus", 0) != 0:
        raise DomainError(f"case {case} computes genus-0 invariants only")
    expected = 3 if case == "g0n3" else 4
    if case_info.get("markings", expected) != expected:
        raise DomainError(f"case {case} carries exactly {expected} markings")


def _cmd_invariant(args) -> int:
    spec, case_info = parse_spec_document(_load_json(args.spec))
    _check_case_info(case_info, args.case)
    window = _parse_pair(args.window, "--window") if args.window else None
    scan = None
    if case_info.get("total_degree", "scan") != "scan":
        scan = [_integer(case_info["total_degree"], "total_degree")]
    if args.case == "g0n3":
        if window is not None:
            raise DomainError("--window applies only to the g0n4-boundary case")
        result = invariants.invariant_g0_n3(spec, scan=scan)
    else:
        result = invariants.invariant_g0_n4_boundary(spec, window=window, scan=scan)
    _emit(_invariant_result_json(result))
    return 0


def _cmd_stabilize(args) -> int:
    spec, case_info = parse_spec_document(_load_json(args.spec))
    _check_case_info(case_info, args.case)
    report = invariants.stabilization_report(spec, args.case)
    rows = [f"{t},{value}" for t, value in report.rows]
    sys.stdout.write("truncation,value\n" + "\n".join(rows) + "\n")
    sys.stderr.write(
        f"observed={report.observed} predicted={report.predicted} value={report.value}\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gieseker",
        description="Exact degeneration combinatorics and equivariant chain characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a modular-graph document")
    p.add_argument("graph")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("strata", help="closure of a stratum label within a degree band")
    p.add_argument("--base", required=True, help="degeneracy-type document")
    p.add_argument("--band", required=True, help="lo,hi degree band")
    p.add_argument("--dot", action="store_true", help="emit the poset as DOT")
    p.set_defaults(run=_cmd_strata)

    p = sub.add_parser("stabilizer", help="stabilizer partition of a stratum over a base")
    p.add_argument("--type", required=True)
    p.add_argument("--base", required=True)
    p.set_defaults(run=_cmd_stabilizer)

    p = sub.add_parser("band", help="band membership and tail classification")
    p.add_argument("--type", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--upper", type=int)
    p.add_argument("--lower", type=int)
    p.add_argument("--bounds", help="per-partition bounds document")
    p.set_defaults(run=_cmd_band)

    p = sub.add_parser("twist-lattice", help="intersection matrix of a base graph")
    p.add_argument("--base", required=True)
    p.set_defaults(run=_cmd_twist_lattice)

    p = sub.add_parser("weights", help="fixed-point character of an admissible class")
    p.add_argument("--spec", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--base", required=True)
    p.set_defaults(run=_cmd_weights)

    p = sub.add_parser("invariant", help="compute a twisted invariant")
    p.add_argument("--case", required=True, choices=["g0n3", "g0n4-boundary"])
    p.add_argument("--spec", required=True)
    p.add_argument("--window", help="a,b chain window override")
    p.set_defaults(run=_cmd_invariant)

    p = sub.add_parser("stabilize", help="emit the truncation table as CSV")
    p.add_argument("--case", required=True, choices=["g0n3", "g0n4-boundary"])
    p.add_argument("--spec", required=True)
    p.set_defaults(run=_cmd_stabilize)

    return parser


# Parsing leaves no state on the parser, so every call shares one.
_PARSER = build_parser()

PAIR_FLAGS = {"--band", "--window"}


def _normalize_argv(argv: list[str]) -> list[str]:
    """Glue pair-valued flags to their argument so values like ``-3,3``
    are not mistaken for options."""
    out = []
    it = iter(argv)
    for token in it:
        if token in PAIR_FLAGS:
            value = next(it, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.run(args)
    except (DomainError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
