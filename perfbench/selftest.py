"""Self-test of the benchmark's output checks: each check must pass on a
real reply and fail on the same reply with a planted fault.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Faults: a stratum dropped from a closure, a stratum listed twice, a
four-point invariant off by one, and a band representative shifted by a
vector outside the twist lattice.  Exits 0 when every clean reply passes
and every fault is caught.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
from run import load_program
from workloads import G0N4Invariants, StrataClosure, TwistBands


def expect(label: str, failures: list[str], needle) -> bool:
    """``needle`` None: the reply must pass; else a failure must contain it."""
    if needle is None:
        ok = not failures
    else:
        ok = any(needle in message for message in failures)
    print(f"{'PASS' if ok else 'FAIL'} {label}: {failures[:3] if failures else 'no failures'}")
    return ok


def main() -> int:
    root = Path.cwd()
    program = load_program(root)
    inputs = root / ".perfbench" / "inputs" / "selftest"
    inputs.mkdir(parents=True, exist_ok=True)
    results = []

    closure = StrataClosure(0, inputs, program)
    i = next(
        k
        for k, case in enumerate(closure.cases)
        if 20 <= case["size"] <= closure.ORACLE_MAX_STRATA
    )
    reply = closure.requests()[i]()
    results.append(expect("closure as emitted", closure.check(i, reply), None))
    data = json.loads(reply)
    dropped = json.dumps({"strata": data["strata"][:-1]})
    results.append(expect("closure with a dropped stratum", closure.check(i, dropped), "closure differs"))
    doubled = json.dumps({"strata": data["strata"] + data["strata"][:1]})
    results.append(expect("closure with a duplicated stratum", closure.check(i, doubled), "emitted twice"))

    invariants = G0N4Invariants(0, inputs, program)
    i = next(k for k, spec in enumerate(invariants.specs) if checks.expected_g0n4_degree(spec) is not None)
    reply = invariants.requests()[i]()
    results.append(expect("invariant as emitted", invariants.check(i, reply), None))
    data = json.loads(reply)
    data["value"] += 1
    data["breakdown"] = {d: v + 1 for d, v in data["breakdown"].items()}
    off_by_one = json.dumps(data)
    results.append(
        expect("invariant off by one", invariants.check(i, off_by_one), "differs from the localization value")
    )
    results.append(expect("invariant off by one", invariants.check(i, off_by_one), "on a padded window"))

    twists = TwistBands(0, inputs, program)
    i = next(k for k, case in enumerate(twists.cases) if case["base"] == "triangle")
    reply = twists.requests()[i]()
    results.append(expect("band representatives as emitted", twists.check(i, reply), None))
    # the triangle's lattice has index 3 among total-degree-zero vectors
    shifted = [({**rep, "u": rep["u"] + 1, "v": rep["v"] - 1}, *rest) for rep, *rest in reply]
    results.append(
        expect("representative shifted off the lattice", twists.check(i, shifted), "not a twist")
    )

    print(f"selftest: {sum(results)} of {len(results)} as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
