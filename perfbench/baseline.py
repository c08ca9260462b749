"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 perfbench/baseline.py --runs 10 [--workloads ref_sweep ...] [--write]

For each workload this makes --runs untraced runs on seeds 1..runs and
one traced run on seed 1, one process at a time.  It prints, for each
end-to-end metric, the median, the quartiles (statistics.quantiles with
n=4) and the spread: the distance between the quartiles as a share of the
median, next to a third of the metric's bound in BENCHMARK.json.  With
--write it stores all of that, the per-layer numbers of the traced run
and its exact-repeat counters in perfbench/baseline.json, keeping the
entries of workloads not run; traced runs compare their counters with
that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(machine block, result line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d trace %d failed (exit %d):\n%s"
                         % (workload, seed, trace, proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: output check missed" % (workload, seed))
    return json.loads(lines[0])["machine"], result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS))
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    path = HERE / "baseline.json"
    out = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    out.update(run_seconds=seconds, runs=args.runs)
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            machine, result = run(workload, seed, seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        _, traced = run(workload, 1, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry = {"end_to_end": {}, "per_layer": layers,
                 "counters": {k: layers[k] for k in EXACT_COUNTERS}}
        for name, vals in values.items():
            s = summary(vals)
            entry["end_to_end"][name] = s
            ok = name == "setup_s" or s["spread"] <= bounds[name] / 3
            steady &= ok
            print("%-15s %-15s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound/3 %.4f)%s" % (workload, name, s["median"], s["q1"], s["q3"],
                                        s["spread"], bounds[name] / 3,
                                        "" if ok else "  WIDE"), flush=True)
        out["workloads"][workload] = entry
        out["machine"] = machine
    if args.write:
        path.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
