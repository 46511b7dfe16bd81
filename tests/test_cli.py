import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gieseker import (
    DegeneracyType,
    ModularGraph,
    chain_base_graph,
    closure_strata,
    degeneracy_to_json,
    graph_to_json,
)
from gieseker.cli import main


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def base_file(tmp_path):
    return write(tmp_path, "base.json", graph_to_json(chain_base_graph()))


@pytest.fixture
def point_file(tmp_path):
    graph = ModularGraph.build(
        {"a": 0, "bub": 0, "b": 0},
        edges=[("a", "bub"), ("bub", "b")],
        tails={"1": "a", "2": "a", "3": "b", "4": "b"},
    )
    dt = DegeneracyType(graph, {"a": 1, "bub": 1, "b": -2})
    return write(tmp_path, "pt.json", degeneracy_to_json(dt))


@pytest.fixture
def spec_file(tmp_path):
    return write(
        tmp_path,
        "spec.json",
        {"q": "1/1", "evaluations": [{"label": "1", "lambda": 3}], "indices": []},
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_valid_graph(capsys, base_file):
    code, out, _ = run(capsys, ["validate", base_file])
    assert code == 0
    assert json.loads(out) == {"valid": True, "errors": []}


def test_validate_reports_violations(capsys, tmp_path):
    doc = {
        "vertices": [{"id": "a", "genus": 0}, {"id": "b", "genus": 0}],
        "half_edges": [],
        "involution": [],
        "tails": {},
    }
    code, out, _ = run(capsys, ["validate", write(tmp_path, "bad.json", doc)])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("disconnected" in e for e in payload["errors"])


def test_malformed_json_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": [,]}')
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 1
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("tails", []),
        ("involution", 5),
        ("involution", [[["x"], "h"]]),
        ("half_edges", [{"id": "h", "vertex": {"id": "a"}}]),
        ("half_edges", [{"id": "h", "vertex": ["a"]}]),
        ("half_edges", [{"id": {"h": 1}, "vertex": "a"}]),
        ("vertices", [{"id": ["a"], "genus": 0}]),
    ],
    ids=[
        "tails-not-object",
        "involution-not-list",
        "unhashable-pair-member",
        "object-vertex-reference",
        "list-vertex-reference",
        "object-half-edge-id",
        "list-vertex-id",
    ],
)
def test_malformed_graph_document_exits_one(capsys, tmp_path, field, value):
    doc = {
        "vertices": [{"id": "a", "genus": 0}],
        "half_edges": [{"id": "h", "vertex": "a"}],
        "involution": [],
        "tails": {"h": "1"},
    }
    doc[field] = value
    code, out, err = run(capsys, ["validate", write(tmp_path, "graph.json", doc)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_unknown_spec_key_exits_one(capsys, tmp_path, point_file, base_file):
    spec = write(tmp_path, "spec.json", {"q": 1, "surprise": True})
    code, _, err = run(capsys, ["weights", "--spec", spec, "--type", point_file, "--base", base_file])
    assert code == 1
    assert "surprise" in err


def test_usage_error_exits_two(capsys):
    code, _, _ = run(capsys, ["invariant", "--case", "bogus", "--spec", "x.json"])
    assert code == 2


def test_invariant_g0n3(capsys, spec_file):
    code, out, _ = run(capsys, ["invariant", "--case", "g0n3", "--spec", spec_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["breakdown"] == {"2": 1}


def test_invariant_g0n4_with_window(capsys, tmp_path):
    spec = write(tmp_path, "spec4.json", {"q": 1, "evaluations": [], "indices": []})
    code, out, _ = run(capsys, ["invariant", "--case", "g0n4-boundary", "--spec", spec, "--window", "-6,6"])
    assert code == 0
    assert json.loads(out)["value"] == -1


def test_invariant_total_degree_override(capsys, tmp_path):
    spec = write(tmp_path, "spec_d.json", {"q": 1, "total_degree": 5})
    code, out, _ = run(capsys, ["invariant", "--case", "g0n3", "--spec", spec])
    assert code == 0
    assert json.loads(out) == {
        "value": 0,
        "contributing_degrees": [],
        "breakdown": {"5": 0},
        "stabilization_truncation": 0,
    }


def test_strata_dot_matches_library_count(capsys, tmp_path):
    dt = DegeneracyType(chain_base_graph(), {"a": 1, "b": -1})
    dt_file = write(tmp_path, "dt.json", degeneracy_to_json(dt))
    code, out, _ = run(capsys, ["strata", "--base", dt_file, "--band", "-2,2", "--dot"])
    assert code == 0
    node_lines = [line for line in out.splitlines() if "[label=" in line and "->" not in line]
    assert len(node_lines) == len(closure_strata(dt, (-2, 2)))


def test_stabilizer_and_band(capsys, point_file, base_file):
    code, out, _ = run(capsys, ["stabilizer", "--type", point_file, "--base", base_file])
    assert code == 0
    assert json.loads(out) == {"blocks": [["a"], ["b"]]}
    code, out, _ = run(
        capsys,
        ["band", "--type", point_file, "--base", base_file, "--upper", "5", "--lower", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["in_band"] is False
    assert payload["tails"][0]["membership"] == "W"


def test_band_with_bounds_file(capsys, tmp_path, point_file, base_file):
    bounds = write(
        tmp_path,
        "bounds.json",
        [{"blocks": [["a"], ["b"]], "upper": 5, "lower": 0}],
    )
    code, out, _ = run(
        capsys, ["band", "--type", point_file, "--base", base_file, "--bounds", bounds]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["in_band"] is True
    assert payload["tails"][0]["membership"] == "none"


def test_bounds_file_naming_a_foreign_partition_exits_one(capsys, tmp_path, point_file, base_file):
    bounds = write(
        tmp_path,
        "bounds.json",
        [
            {"blocks": [["a"], ["b"]], "upper": 5, "lower": 0},
            {"blocks": [["x"], ["y"]], "upper": 7, "lower": 6},
        ],
    )
    code, out, err = run(
        capsys, ["band", "--type", point_file, "--base", base_file, "--bounds", bounds]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "(('x',), ('y',))" in err


def test_bounds_file_missing_a_partition_exits_one(capsys, tmp_path, point_file, base_file):
    bounds = write(tmp_path, "bounds.json", [])
    code, out, err = run(
        capsys, ["band", "--type", point_file, "--base", base_file, "--bounds", bounds]
    )
    assert code == 1
    assert out == ""
    assert err == "error: no bounds given for the partition (('a',), ('b',))\n"


@pytest.mark.parametrize("kind", ["directory", "undecodable-bytes"])
def test_unreadable_document_exits_one(capsys, tmp_path, kind):
    path = tmp_path
    if kind == "undecodable-bytes":
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}")


def test_twist_lattice(capsys, base_file):
    code, out, _ = run(capsys, ["twist-lattice", "--base", base_file])
    assert code == 0
    assert json.loads(out) == {"matrix": [[-1, 1], [1, -1]]}


def test_weights_roundtrips_character_schema(capsys, spec_file, point_file, base_file):
    code, out, _ = run(capsys, ["weights", "--spec", spec_file, "--type", point_file, "--base", base_file])
    assert code == 0
    from gieseker import character_from_json

    char = character_from_json(json.loads(out))
    assert char.arity == 2


def test_stabilize_emits_csv(capsys, spec_file):
    code, out, err = run(capsys, ["stabilize", "--case", "g0n3", "--spec", spec_file])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "truncation,value"
    assert all(len(line.split(",")) == 2 for line in lines[1:])
    assert "observed=" in err


def test_outputs_are_deterministic(capsys, spec_file, point_file, base_file):
    for argv in (
        ["invariant", "--case", "g0n3", "--spec", spec_file],
        ["weights", "--spec", spec_file, "--type", point_file, "--base", base_file],
        ["band", "--type", point_file, "--base", base_file, "--upper", "4", "--lower", "1"],
    ):
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second


def test_case_specific_keys_validated(capsys, tmp_path):
    spec = write(tmp_path, "wrong.json", {"q": 1, "markings": 4})
    code, _, err = run(capsys, ["invariant", "--case", "g0n3", "--spec", spec])
    assert code == 1
    assert "3 markings" in err
    spec_ok = write(tmp_path, "ok.json", {"q": 1, "genus": 0, "markings": 3})
    code, out, _ = run(capsys, ["invariant", "--case", "g0n3", "--spec", spec_ok])
    assert code == 0
    assert json.loads(out)["value"] == 1


MALFORMED_SPECS = {
    "non-integer lambda": {"q": "1", "evaluations": [{"label": "1", "lambda": "x"}]},
    "non-integer descendant": {"q": 1, "evaluations": [{"label": "1", "lambda": 1, "descendant": "x"}]},
    "non-integer power": {"q": 1, "indices": [{"lambda": 1, "power": "x"}]},
    "non-integer total_degree": {"q": 1, "total_degree": "x"},
    "evaluation without label": {"q": 1, "evaluations": [{"lambda": 1}]},
    "index without power": {"q": 1, "indices": [{"lambda": 1}]},
    "evaluation row not an object": {"q": 1, "evaluations": [3]},
    "evaluations not a list": {"q": 1, "evaluations": None},
    "q not a rational": {"q": 1.5},
}


@pytest.mark.parametrize(
    "case",
    [*MALFORMED_SPECS, "non-integer multidegree", "non-integer bound", "bounds blocks not lists"],
)
def test_malformed_documents_exit_one(capsys, tmp_path, case, point_file, base_file):
    if case in MALFORMED_SPECS:
        spec = write(tmp_path, "spec.json", MALFORMED_SPECS[case])
        argv = ["invariant", "--case", "g0n3", "--spec", spec]
    elif case == "non-integer multidegree":
        doc = degeneracy_to_json(DegeneracyType(chain_base_graph(), {"a": 1, "b": -1}))
        doc["multidegree"] = {"a": "z", "b": -1}
        argv = ["strata", "--base", write(tmp_path, "dt.json", doc), "--band", "-2,2"]
    else:
        row = {"blocks": [["a"], ["b"]], "upper": 5, "lower": 0}
        if case == "non-integer bound":
            row["upper"] = "five"
        else:
            row["blocks"] = [["a", 1], ["b"]]
        bounds = write(tmp_path, "bounds.json", [row])
        argv = ["band", "--type", point_file, "--base", base_file, "--bounds", bounds]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


# Documents whose work the caps bound: without them each hangs or ends in
# a traceback.  Each runs in its own process with a timeout, so that a
# regression fails instead of hanging the suite.
CAPPED = {
    "index power 10^30, g0n3": ({"q": 1, "indices": [{"lambda": 1, "power": 10**30}]}, ["invariant", "--case", "g0n3"]),
    "index power 10^30, g0n4": ({"q": 1, "indices": [{"lambda": 1, "power": 10**30}]}, ["invariant", "--case", "g0n4-boundary"]),
    "evaluation lambda 10^23": ({"q": 1, "evaluations": [{"label": "1", "lambda": 10**23}]}, ["invariant", "--case", "g0n4-boundary"]),
    "total degree 10^26": ({"q": 1, "total_degree": 10**26}, ["invariant", "--case", "g0n4-boundary"]),
    "q = 1/10^23": ({"q": f"1/{10**23}", "evaluations": [{"label": "1", "lambda": 1}]}, ["invariant", "--case", "g0n4-boundary"]),
    "lambda-0 index power 10^30": ({"q": 1, "indices": [{"lambda": 0, "power": 10**30}]}, ["invariant", "--case", "g0n4-boundary"]),
    "stabilize, evaluation lambda 10^6": ({"q": 1, "evaluations": [{"label": "1", "lambda": 10**6}]}, ["stabilize", "--case", "g0n3"]),
    "window of 2*10^8 points": ({"q": 1}, ["invariant", "--case", "g0n4-boundary", "--window", "-100000000,100000000"]),
}


@pytest.mark.parametrize("case", list(CAPPED))
def test_capped_documents_exit_one_without_hanging(tmp_path, case):
    import gieseker

    spec, argv = CAPPED[case]
    src = str(Path(gieseker.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gieseker.cli", *argv, "--spec", write(tmp_path, "spec.json", spec)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
