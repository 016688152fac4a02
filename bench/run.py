"""circuflow benchmark: one workload, one seed, one fixed-length run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is loaded from ``src/`` (no
install).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.  The line before it records the environment (Python version,
git commit, CPU count and the ``python -c pass`` floor).

A run goes on past ``--seconds`` until it has made at least 200 ops, so
that ``op_ms_p95`` has at least ten samples beyond it.  A traced run
alternates untraced and traced ops over its whole length: the untraced
ones are the reference for ``trace_overhead_ratio``, and the traced ones
record spans around every call the benchmark makes, written to
``bench/out/trace-<workload>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
from array import array
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

ROOT = workloads.ROOT
# Set-up is probed this many times at even intervals over the measured loop,
# so the reported median spans the machine's drift over the run.
SETUP_PROBES = 16
MIN_OPS = 200
# op_ms_p50 is the mean of the medians of this many consecutive slices of a run's ops.
P50_SLICES = 20
# A traced run traces every other op; the phase flips every TRACE_PHASE ops,
# so each position of the cli_oneshot mix is traced as often as not.
TRACE_PHASE = len(workloads.CLI_MIX)
FLOOR_PROBES = 7
WARMUP_OPS = {"cli_oneshot": 2, "batch_pipeline": 200, "whatif_sweep": 50}
TIMED_LAYERS = (
    "interpreter.process",
    "cli.import",
    "cli.main",
    "documents.parse_account",
    "documents.parse_economy",
    "documents.parse_scenario",
    "documents.render_scenario",
    "accounts.validate",
    "accounts.waste_share",
    "metrics.metric_suite",
    "valuemap.attribute_value",
    "scenarios.apply_scenario",
    "render.machine",
    "render.plain",
    "render.markdown",
    "render.svg",
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program() -> dict:
    """Import the program from this checkout's src/ tree."""
    src = ROOT / "src"
    if not (src / "circuflow" / "__init__.py").is_file() or not (ROOT / workloads.ACCOUNT).is_file():
        _fail(f"no circuflow source tree and reference data under {ROOT}")
    sys.path.insert(0, str(src))
    names = ("documents", "accounts", "metrics", "valuemap", "scenarios", "render")
    modules = {name: importlib.import_module(f"circuflow.{name}") for name in names}
    if not Path(modules["documents"].__file__).resolve().is_relative_to(src):
        _fail("circuflow was imported from outside this checkout")
    return modules


def _child_seconds(argv: list[str]) -> float:
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=workloads.child_env(), stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - start


def _setup_probe(workload) -> float:
    """A fresh interpreter timing the import of the workload's modules and the reference parse."""
    out = subprocess.run(
        [sys.executable, "bench/child.py", "setup", workload.modules, workloads.ACCOUNT, workloads.ECONOMY],
        cwd=ROOT,
        env=workloads.child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout.strip())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def _measure(workload, seconds: float, first: int, recorder=None, probes: int = 0):
    """Closed loop until the deadline has passed and at least MIN_OPS ops ran.

    With a ``recorder`` every other op is traced.  ``probes`` set-up probes
    run between ops at even intervals; they are not part of any op's time.
    Returns the untraced and the traced op latencies, the failure messages
    and the set-up probe times.
    """
    null = tracing.NullTracer()
    untraced, traced, failures, setup_times = array("d"), array("d"), [], []
    index = first
    start = perf_counter()
    deadline = start + seconds
    while index - first < MIN_OPS or perf_counter() < deadline:
        if len(setup_times) < probes and perf_counter() >= start + len(setup_times) * seconds / probes:
            setup_times.append(_setup_probe(workload))
        trace = recorder is not None and (index + index // TRACE_PHASE) % 2 == 1
        tracer = recorder if trace else null
        tracer.begin_op(index)
        elapsed, problem = workload.op(index, tracer)
        tracer.end_op()
        (traced if trace else untraced).append(elapsed)
        if problem is not None:
            failures.append(f"op {index}: {problem}")
        index += 1
    while len(setup_times) < probes:  # probes that slow ops pushed past the deadline
        setup_times.append(_setup_probe(workload))
    return untraced, traced, failures, setup_times


def _p50(latencies) -> float:
    """Median op latency, taken per slice of the run and averaged over the slices.

    The machine's speed drifts in episodes of a few seconds, and in a slow
    episode the body of the latency distribution shifts further than its
    mean and its tail.  One median over the whole run jumps with the share
    of slow time in the run; the mean of per-slice medians moves in
    proportion to it.
    """
    n = len(latencies)
    return statistics.fmean(
        statistics.median(latencies[i * n // P50_SLICES:(i + 1) * n // P50_SLICES]) for i in range(P50_SLICES)
    )


def _p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18] if len(values) > 1 else values[0]


def _end_to_end(name, workload, latencies, setup_s) -> dict:
    if name == "cli_oneshot":
        rss_kb = max(workload.child_rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (_p50(latencies) * 1e3, "ms"),
        "op_ms_p95": (_p95(latencies) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _per_layer(workload, recorder, floor_ms, untraced, traced, attempted, failed) -> dict:
    stats = recorder.layer_stats()
    out = {"interpreter.floor_ms": (floor_ms, "ms")}
    for layer in TIMED_LAYERS:
        st = stats.get(layer, {"count": 0, "busy_s": 0.0, "p50_s": 0.0})
        if layer in tracing.MS_LAYERS:
            out[f"{layer}_ms"] = (st["p50_s"] * 1e3, "ms")
        else:
            out[f"{layer}_us"] = (st["p50_s"] * 1e6, "us")
        out[f"{layer}.count"] = (st["count"], "count")
        out[f"{layer}.busy_s"] = (st["busy_s"], "s")
    loaded = workload.modules_loaded
    out["cli.modules_loaded"] = (int(statistics.median(loaded)) if loaded else 0, "count")
    per_step = recorder.us_per_step()
    out["scenarios.us_per_step"] = (statistics.median(per_step) if per_step else 0.0, "us")
    out["scenarios.steps"] = (workload.steps, "count")
    out["render.bytes_out"] = (workload.bytes_out, "count")
    for module, count in workload.expected_errors.items():
        out[f"{module}.expected_errors"] = (count, "count")
    for module, seconds in recorder.self_seconds().items():
        out[f"{module}.self_s"] = (seconds, "s")
    out["trace_overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    out["failed_ratio"] = (failed / attempted, "ratio")
    out["trace.spans"] = (len(recorder.spans), "count")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    modules = _load_program()
    warnings.simplefilter("ignore")  # provenance warnings are part of the inputs, not failures
    workload = workloads.WORKLOADS[args.workload](args.seed)

    floor_ms = statistics.median(
        _child_seconds([sys.executable, "-c", "pass"]) for _ in range(FLOOR_PROBES)
    ) * 1e3
    workload.setup(modules)
    env = {
        "python": platform.python_version(),
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "interpreter.floor_ms": floor_ms,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"env": env}))

    # Warm-up ops are checked and counted as attempted but not timed; the
    # input stream goes on from where warm-up left it.
    null = tracing.NullTracer()
    next_op = WARMUP_OPS[args.workload]
    failures = [f"warm-up op {i}: {p}" for i in range(next_op) if (p := workload.op(i, null)[1])]
    attempted = next_op
    workload.reset_counters()

    if args.trace:
        recorder = tracing.Tracer()
        origin = perf_counter()
        untraced, traced, more, _ = _measure(workload, args.seconds, next_op, recorder=recorder)
        failures += more
        attempted += len(untraced) + len(traced)
        metrics = _per_layer(workload, recorder, floor_ms, untraced, traced, attempted, len(failures))
        workloads.OUT.mkdir(exist_ok=True)
        recorder.write(workloads.OUT / f"trace-{args.workload}.json", origin)
    else:
        latencies, _, more, setup_times = _measure(workload, args.seconds, next_op, probes=SETUP_PROBES)
        failures += more
        attempted += len(latencies)
        metrics = _end_to_end(args.workload, workload, latencies, statistics.median(setup_times))

    for message in failures[:5]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
