"""drobox benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload ref_sweep --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The run times set-up in fresh processes, then
starts one fresh worker process that repeats the workload's operations
through ``drobox.cli.main`` for --seconds (never cutting a pass short),
checks every output against its reference, and prints:

  * a ``{"machine": ...}`` line: CPU, versions, BLAS and its thread count;
  * a ``{"samples": ...}`` line: how many passes and set-ups the medians
    rest on, and any failed operation;
  * last, ``{"correct", "attempted", "failed", "metrics"}``: with
    --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.

Every run also writes its passes (and, when traced, its spans) to
``.perfbench_out/`` in the checkout.  The exit code is 0 when every
output check passed, 1 when one missed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTERS, layer_metrics, median_metrics, self_times  # noqa: E402
from workloads import DERIVED, SHIPPED, WORKLOADS  # noqa: E402

# One BLAS thread: with two, the dense Cholesky in drobox.sdp reorders its
# sums, which changes iteration and failure counts, and the run competes
# with other work for the second core.
BLAS_THREADS = "1"
SETUP_REPEATS = 4
TIME_BUDGET = 170.0  # seconds for the whole run


class BenchError(Exception):
    """The run could not be made; exit 2 without a result line."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def write_derived_configs(work: Path):
    for name, (base, search) in DERIVED.items():
        cfg = json.loads((ROOT / SHIPPED[base]).read_text())
        cfg["search"] = dict(search)
        (work / (name + ".json")).write_text(json.dumps(cfg, indent=2))


def time_setups(base_argv: list, env: dict, deadline: float) -> list:
    """Seconds from spawning a fresh worker to its "ready" line, for one
    untimed warm-up (bytecode and file caches) and SETUP_REPEATS timed runs."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(base_argv + ["--setup"], stdout=subprocess.PIPE, env=env)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("set-up process failed (exit %r)" % proc.returncode)
        times.append(elapsed)
    return times[1:]


def run_worker(base_argv: list, env: dict, args, result: Path, deadline: float):
    argv = base_argv + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--result", str(result)]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within %.0f s" % TIME_BUDGET)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("worker failed (exit %r)" % proc.returncode)
    return json.loads(result.read_text())


def end_to_end(res: dict, setups: list) -> dict:
    passes = [p for p in res["passes"] if not p["traced"]]
    ops = [op for p in passes for op in p["ops"]]
    proved = sum(1 for op in ops if op["proof"] == "optimal"
                 or (op["verb"] == "certify" and op["verdict"] == "certified"))
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "proved_frac": proved / len(ops),
        "certified_frac": sum(1 for op in ops if op["verdict"] == "certified") / len(ops),
        "ok_frac": sum(1 for op in ops if not op["error"]) / len(ops),
    }


def per_layer(res: dict, workload: str) -> dict:
    n_ops = len(WORKLOADS[workload])
    traced = [p for p in res["passes"] if p["traced"]]
    plain = [p for p in res["passes"] if not p["traced"]]
    per_pass = []
    for p in traced:
        for op in p["ops"]:
            accounted = sum(self_times([s for s in res["spans"] if s[3] == op["op"]]).values())
            if abs(accounted - op["seconds"]) > 1e-3 * op["seconds"] + 1e-4:
                raise BenchError("layer self times cover %.6f s of the %.6f s of op %d"
                                 % (accounted, op["seconds"], op["op"]))
        first = p["ops"][0]["op"]
        per_pass.append(layer_metrics([s for s in res["spans"]
                                       if first <= s[3] < first + n_ops]))
    metrics = median_metrics(per_pass)
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall"] for p in plain)
    metrics["setup.import_s"] = res["setup"]["import_s"]
    metrics["setup.validate_s"] = res["setup"]["validate_s"]
    metrics["counters.drift"] = len(drifted(per_pass, workload))
    return metrics


def drifted(per_pass: list, workload: str) -> list:
    """Exact-repeat counters that differ between the traced passes of this
    run, or from the counters recorded in baseline.json."""
    refs = per_pass[1:]
    baseline = HERE / "baseline.json"
    if baseline.exists():
        recorded = json.loads(baseline.read_text())["workloads"].get(workload, {})
        if "counters" in recorded:
            refs.append(recorded["counters"])
    out = []
    for key in EXACT_COUNTERS:
        seen = {ref[key] for ref in refs if key in ref}
        if seen - {per_pass[0][key]}:
            out.append(key)
            print("drift: %s=%r, other runs %s" % (key, per_pass[0][key], sorted(seen)),
                  file=sys.stderr)
    return out


def declared(trace: int) -> list:
    """The metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    deadline = time.perf_counter() + TIME_BUDGET
    if not (ROOT / "src" / "drobox" / "cli.py").is_file():
        print("error: no drobox sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / ("work-%s-%d" % (args.workload, os.getpid()))
    try:
        work.mkdir(parents=True)
        write_derived_configs(work)
        env = worker_env()
        base_argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
                     "--work", str(work), "--workload", args.workload]
        setups = time_setups(base_argv, env, deadline)
        res = run_worker(base_argv, env, args, work / "result.json", deadline)
        if args.trace:
            values = per_layer(res, args.workload)
        else:
            values = end_to_end(res, setups)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared(args.trace)}
    ops = [op for p in res["passes"] for op in p["ops"]]
    failures = [op for op in ops if op["error"]]
    samples = {"workload": args.workload, "seed": args.seed,
               "passes": sum(1 for p in res["passes"] if not p["traced"]),
               "traced_passes": sum(1 for p in res["passes"] if p["traced"]),
               "setups": len(setups)}
    record = {"machine": res["machine"], "samples": samples, "setup_s": setups,
              "passes": res["passes"], "metrics": metrics, "spans": res["spans"]}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (out_dir / name).write_text(json.dumps(record))
    for op in failures:
        print("miss: op %d: %s" % (op["op"], op["error"]), file=sys.stderr)
    print(json.dumps({"machine": res["machine"]}))
    print(json.dumps({"samples": samples}))
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
