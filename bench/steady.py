"""Steadiness check: repeat runs with fresh seeds and compare spreads to the bounds.

    python3 bench/steady.py

Runs ``bench/run.py --trace 0`` ten times per workload of BENCHMARK.json,
for its ``run_seconds``, one seed per run, interleaving the workloads so
that drift on the machine hits all of them alike (the CLI mix order also
changes with the seed).  It does this twice, with other seeds the second
time.  For every end-to-end metric it prints the median and the larger
of the two sets' spreads, (q3 - q1) / median, next to the bound in
BENCHMARK.json: a spread under a third of the bound is ``ok``, one within
the bound ``within``, and one beyond it ``OVER``.  It also prints how far
the second set's median moved in the worse direction.  The check fails
if any spread is over its bound or any second median is worse by more
than the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def _run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops\n{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {(k, w): {name: [] for name in metrics} for k in range(SETS) for w in names}
    for k in range(SETS):
        for i in range(RUNS):
            for j in range(len(names)):
                workload = names[(i + j) % len(names)]
                seed = 100 + 1000 * k + i
                got = _run(workload, seed, spec["run_seconds"])
                for name in metrics:
                    values[k, workload][name].append(got[name])
                print(f"set {k} run {i} {workload} seed {seed}: "
                      + " ".join(f"{n}={got[n]:.6g}" for n in metrics), flush=True)

    summary = {}
    steady = True
    for workload in names:
        print(f"\n{workload}")
        for name, m in metrics.items():
            row = {}
            for k in range(SETS):
                median, q1, q3, spread = _spread(values[k, workload][name])
                row[f"set{k}"] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            spread = max(row[f"set{k}"]["spread"] for k in range(SETS))
            status = "ok" if spread <= m["bound"] / 3 else "within" if spread <= m["bound"] else "OVER"
            m0, m1 = row["set0"]["median"], row["set1"]["median"]
            worse = (m1 - m0) / m0 if m["better"] == "lower" else (m0 - m1) / m0
            row["second_worse_by"] = worse
            if status == "OVER" or worse > m["bound"]:
                steady = False
            line = (f"  {name:12s} median {m0:.6g} {m['unit']}  spread {spread:.3f}  "
                    f"bound {m['bound']}  {status}  second median worse by {worse:+.3f}")
            print(line)
            summary[f"{workload}.{name}"] = row
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({"steady": steady}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
