"""Benchmark of the gieseker package: one client, a closed loop, one thread.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload strata-closure --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the working directory; the
benchmark writes its input documents, result and span files under
``.perfbench/`` there.  The timed section runs whole rounds over the
workload's requests until ``--seconds`` have passed; the outputs are
checked afterwards, untimed.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics from a run with spans around every public
function of the program's modules (see ``tracing.py``).
"""

from __future__ import annotations

import time

_MODULE_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def process_age() -> float:
    """Seconds since this process started (from /proc on Linux, at
    clock-tick resolution), else since this module was loaded."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _MODULE_START


def load_program(root: Path) -> SimpleNamespace:
    """Import the package from ``src/`` of the checkout, never from an
    installed copy."""
    src = root / "src"
    if not (src / "gieseker" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gieseker sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    package = importlib.import_module("gieseker")
    if Path(package.__file__).resolve().parent != (src / "gieseker").resolve():
        raise SystemExit(f"perfbench: imported gieseker from {package.__file__}, not from {src}")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"gieseker.{layer}") for layer in LAYERS}
    )


# Median of ``calibration_slice`` on the host the reference figures in
# README.md come from (2-core Xeon VM, Python 3.11), when it ran fastest.
CALIBRATION_REF_S = 0.00105


def calibration_slice() -> float:
    """Geometric mean of the times of two fixed loops: integer arithmetic,
    and Fraction sums in a small dict keyed by tuples.  Contention for the
    shared core slows the program's requests more than the first and less
    than the second, and about as much as their geometric mean.  The
    garbage collector is paused, so that the program's heap cannot change
    the slice's time; every object the slice makes is freed by reference
    counting before it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc = (acc + i * i) % 1_000_003
        t1 = time.perf_counter()
        table = {}
        for i in range(400):
            key = (i % 23, i % 7)
            table[key] = table.get(key, Fraction(0)) + Fraction(i, 11)
        t2 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return math.sqrt((t1 - t0) * (t2 - t1))


def run_rounds(requests, seconds: float, tracer=None, min_requests: int = 0):
    """Whole rounds over the requests until ``seconds`` have passed and
    at least ``min_requests`` requests have been sent.

    The CPU speed of a shared host drifts by tens of percent within
    seconds and over minutes, so a calibration slice runs between any two
    requests, and each request's time is also given divided by the speed
    factor around it (the mean of the slices just before and just after
    it, over ``CALIBRATION_REF_S``): its time at the reference speed.
    The end-to-end metrics use those."""
    replies = [None] * len(requests)
    samples = [[] for _ in requests]  # raw latency of each completed request, per slot
    scaled = [[] for _ in requests]  # the same at the reference speed
    round_s, speed, busy, errors, mismatched = [], [], [], [], set()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        before = calibration_slice()
        slices, round_busy = [before], 0.0
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.request_id = len(round_s) * len(requests) + i
            t0 = time.perf_counter()
            try:
                reply = request()
            except Exception as exc:  # a failed request is counted, not fatal
                errors.append(f"request {i}: {type(exc).__name__}: {exc}")
                continue
            finally:
                latency = time.perf_counter() - t0
                after = calibration_slice()
                slices.append(after)
                bracket, before = before + after, after
            samples[i].append(latency)
            scaled[i].append(latency * 2 * CALIBRATION_REF_S / bracket)
            round_busy += scaled[i][-1]
            if replies[i] is None:
                replies[i] = reply
            elif reply != replies[i]:
                mismatched.add(i)
        round_s.append(time.perf_counter() - round_start)
        speed.append(statistics.median(slices) / CALIBRATION_REF_S)
        busy.append(round_busy)
        attempted = sum(map(len, samples)) + len(errors)
        if time.perf_counter() - start >= seconds and attempted >= min_requests:
            break
    return SimpleNamespace(
        elapsed=time.perf_counter() - start,
        rounds=len(round_s),
        round_s=round_s,
        speed=speed,
        busy=busy,
        samples=samples,
        scaled=scaled,
        completed=sum(map(len, samples)),
        errors=errors,
        replies=replies,
        mismatched=mismatched,
    )


def check_replies(workload, run) -> list[str]:
    failures = [f"request {i} gave different replies in different rounds" for i in sorted(run.mismatched)]
    for i, reply in enumerate(run.replies):
        if reply is not None:
            failures += [f"request {i}: {msg}" for msg in workload.check(i, reply)]
    return failures


def end_to_end(workload, run, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics; timings at the reference speed.  Throughputs
    are per second of request time: with one client in a closed loop the
    next request is sent as soon as the previous one returns."""
    ms = sorted(1000 * x for xs in run.scaled for x in xs)
    busy_s = sum(run.busy)
    strata = sum(len(xs) * workload.strata(i, r) for i, (xs, r) in enumerate(zip(run.samples, run.replies)) if xs)
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (run.completed / busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "strata_per_s": (strata / busy_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# Per-function metrics of the traced run, as (metric, function, field).
FUNCTION_METRICS = (
    ("modular_graph.validate.calls", "modular_graph.validate", "calls"),
    ("modular_graph.validate.self_s", "modular_graph.validate", "self_s"),
    ("modular_graph.canonical_key.calls", "modular_graph.canonical_key", "calls"),
    ("modular_graph.canonical_key.self_s", "modular_graph.canonical_key", "self_s"),
    ("degeneration.classify_gieseker.calls", "degeneration.classify_gieseker", "calls"),
    ("degeneration.degeneracy_key.calls", "degeneration.degeneracy_key", "calls"),
    ("degeneration.deformation_of.self_s", "degeneration.deformation_of", "self_s"),
    ("atlas.band_representatives.self_s", "atlas.band_representatives", "self_s"),
    ("atlas.nt2b.calls", "atlas.nt2b", "calls"),
    ("character.char_mul.calls", "character.char_mul", "calls"),
    ("character.char_mul.self_s", "character.char_mul", "self_s"),
    ("character.class_weight.calls", "character.class_weight", "calls"),
    ("invariants.build_chain_model.calls", "invariants.build_chain_model", "calls"),
    ("invariants.build_chain_model.self_s", "invariants.build_chain_model", "self_s"),
)

RESULT_HOOKS = {
    "degeneration.classify_gieseker": lambda t, verdict: t.count("valid_verdicts", int(verdict.valid)),
    "degeneration.closure_poset": lambda t, poset: t.count("strata_emitted", len(poset[0])),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, untraced, traced) -> dict:
    """Per-request figures of the traced rounds, times at the reference speed."""
    n = traced.completed
    speed = statistics.median(traced.speed)
    layers = tracer.layer_totals()
    functions = tracer.function_totals()
    out = {}
    for layer in LAYERS:
        calls, self_s = layers[layer]
        out[f"{layer}.self_s"] = (self_s / speed / n, "s/req")
        out[f"{layer}.calls"] = (calls / n, "calls/req")
    for metric, function, field in FUNCTION_METRICS:
        calls, self_s = functions[function]
        out[metric] = (self_s / speed / n, "s/req") if field == "self_s" else (calls / n, "calls/req")
    stdout = sum(
        len(xs) * len(r.encode()) for xs, r in zip(traced.samples, traced.replies) if isinstance(r, str)
    )
    out["cli.stdout_bytes"] = (stdout / n, "B/req")
    verdicts = functions["degeneration.classify_gieseker"][0]
    valid = tracer.counters.get("valid_verdicts", 0)
    keys = functions["degeneration.degeneracy_key"][0]
    emitted = tracer.counters.get("strata_emitted", 0)
    out["degeneration.valid_verdicts"] = (valid / n, "count/req")
    out["degeneration.valid_ratio"] = (_ratio(valid, verdicts), "ratio")
    out["degeneration.strata_emitted"] = (emitted / n, "count/req")
    out["degeneration.new_strata_ratio"] = (_ratio(emitted, keys), "ratio")
    ratio = statistics.median(traced.busy) / statistics.median(untraced.busy)
    out["trace.overhead_ratio"] = (ratio, "ratio")
    out["trace.spans"] = (tracer.span_count / n, "spans/req")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.environ.pop("GK_THREADS", None)  # one thread: the program stays serial

    root = Path.cwd()
    program = load_program(root)
    out_dir = root / ".perfbench"
    inputs = out_dir / "inputs" / f"{args.workload}-seed{args.seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, inputs, program)
    requests = workload.requests()
    setup_s = process_age()

    if args.trace:
        # the first third runs untraced, to measure the tracing overhead
        runs = [run_rounds(requests, args.seconds / 3)]
        tracer = Tracer()
        tracer.install(RESULT_HOOKS)
        runs.append(run_rounds(requests, max(0.0, args.seconds - runs[0].elapsed), tracer))
        tracer.uninstall()
    else:
        # at least 100 requests: ten samples beyond the 90th percentile
        runs = [run_rounds(requests, args.seconds, min_requests=100)]
    run = runs[-1]
    errors = [message for r in runs for message in r.errors]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(
        f"{args.workload} seed {args.seed}: {len(requests)} requests a round, {run.rounds} rounds, "
        f"{run.completed} samples in {run.elapsed:.2f} s, {len(errors)} failed"
    )
    for message in errors[:10]:
        print(f"  failed {message}")
    t0 = time.perf_counter()
    failures = check_replies(workload, run)
    if any(a != b for a, b in zip(runs[0].replies, run.replies)):
        failures.append("traced and untraced rounds gave different replies")
    print(f"checks: {len(run.replies)} distinct replies, {len(failures)} failures, {time.perf_counter() - t0:.2f} s")
    for message in failures[:20]:
        print(f"  FAIL {message}")

    if args.trace:
        metrics = per_layer(tracer, *runs)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        kept = tracer.write_spans(spans_path)
        print(f"trace: {tracer.span_count} spans, {kept} written to {spans_path.relative_to(root)}")
    else:
        metrics = end_to_end(workload, run, setup_s, peak_rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": sum(r.completed for r in runs) + len(errors),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details = {
        "failures": failures,
        "errors": errors,
        "round_s": run.round_s,
        "speed": run.speed,
        "samples_s": run.samples,
        "scaled_s": run.scaled,
    }
    result_path.write_text(json.dumps({**result, **details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
