"""One fresh benchmark process: set-up only, or set-up plus timed passes.

run.py starts this file with the BLAS thread count and PYTHONPATH fixed
in the environment.  With --setup it imports drobox, loads and validates
every config the workload uses, prints "ready" and exits; run.py times
that from process start.  Otherwise it repeats the workload's
operations through ``drobox.cli.main`` until --seconds have passed and
writes every pass, operation outcome and span to --result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import DERIVED, OBJECTIVE_RTOL, SHIPPED, WORKLOADS  # noqa: E402

VERDICT_EXIT = {"certified": 0, "falsified": 3}  # anything else exits 1


def config_file(root: Path, work: Path, name: str) -> Path:
    return work / (name + ".json") if name in DERIVED else root / SHIPPED[name]


def setup(root: Path, work: Path, ops) -> dict:
    """Import drobox, then load and validate each config at each step the
    workload uses (a stored record's own step for a certify)."""
    import drobox
    from drobox import cli
    from drobox.model import lattice_points, validate_spec

    if not Path(drobox.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit("drobox was imported from %s, not from %s"
                         % (drobox.__file__, root / "src"))
    t1 = time.perf_counter()
    steps = []
    for op in ops:
        delta = op.delta
        if op.verb == "certify":
            delta = json.loads((HERE / "records" / op.record).read_text())["delta"]
        if (op.config, delta) not in steps:
            steps.append((op.config, delta))
    for name, delta in steps:
        spec, fn = cli.build_instance(cli.load_config(str(config_file(root, work, name))))
        report = validate_spec(spec, fn, lattice_points(spec.edge, spec.m, delta))
        if not report.passed:
            raise SystemExit("config %s fails validation at delta=%r" % (name, delta))
    t2 = time.perf_counter()
    return {"import_s": t1 - T_START, "validate_s": t2 - t1}


def op_argv(root: Path, work: Path, op, seed: int, out: Path) -> list:
    argv = [op.verb, "--config", str(config_file(root, work, op.config)),
            "--delta", repr(op.delta), "--seed", str(seed % 2**32), "--out-dir", str(out)]
    if op.mode is not None:
        argv += ["--mode", op.mode]
    if op.record is not None:
        argv += ["--solution", str(HERE / "records" / op.record)]
    return argv


def expected_exit(op, out: Path):
    """Outcome fields from the written output and the exit code the
    documented mapping gives them."""
    if op.verb == "solve":
        rec = json.loads((out / "result.json").read_text())
        verdict = (rec.get("certificate") or {}).get("verdict")
        if rec["status"] == "infeasible-model":
            code = 4
        else:
            code = VERDICT_EXIT.get(verdict, 1) if verdict is not None else 1
        return {"proof": rec.get("proof"), "objective": rec.get("objective"),
                "verdict": verdict}, code
    rec = json.loads((out / "certificate.json").read_text())
    return {"proof": None, "objective": None, "verdict": rec["verdict"]}, \
        VERDICT_EXIT.get(rec["verdict"], 1)


def check(op, code: int, fields: dict, want_code: int) -> str:
    """Empty when the operation passes every output check, else the reason."""
    if code != want_code:
        return "exit code %r, documented mapping gives %d" % (code, want_code)
    if fields["verdict"] == "falsified":
        return "verdict falsified"
    if op.objective is not None:
        got = fields["objective"]
        if got is None or abs(got - op.objective) > OBJECTIVE_RTOL * abs(op.objective):
            return "objective %r, reference %r" % (got, op.objective)
    return ""


def run_pass(root, work, ops, seed, tracer, first_op_id) -> dict:
    from drobox import cli

    main = cli.main if tracer is None else tracer.span("cli", cli.main)
    outcomes = []
    wall = 0.0
    for n, op in enumerate(ops):
        out = work / ("op%d" % n)
        shutil.rmtree(out, ignore_errors=True)
        argv = op_argv(root, work, op, seed, out)
        if tracer is not None:
            tracer.op = first_op_id + n
        error = ""
        code = None
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an operation that raises is a failed one
            error = "raised %s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        wall += dt
        fields = {"proof": None, "objective": None, "verdict": None}
        if not error:
            try:
                fields, want = expected_exit(op, out)
                error = check(op, code, fields, want)
            except (OSError, ValueError, KeyError) as exc:
                error = "output unreadable: %s" % exc
        outcomes.append({"op": first_op_id + n, "verb": op.verb, "code": code,
                         "seconds": dt, "error": error, **fields})
    return {"traced": tracer is not None, "wall": wall, "ops": outcomes}


def machine(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--result")
    args = ap.parse_args()
    root, work = Path(args.root), Path(args.work)
    ops = WORKLOADS[args.workload]

    setup_times = setup(root, work, ops)
    if args.setup:
        print("ready", flush=True)
        return 0

    # Closed loop: passes back to back until --seconds have passed, never
    # cutting one short.  A traced run alternates untraced and traced
    # passes, so that slow spells hit both kinds alike, and makes at least
    # one of each.
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    passes = []
    while not passes or time.perf_counter() < deadline or (tracer and len(passes) < 2):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(root, work, ops, args.seed,
                                   tracer if traced else None, len(passes) * len(ops)))
        finally:
            if traced:
                tracer.uninstall()

    result = {
        "machine": machine(root),
        "setup": setup_times,
        "passes": passes,
        "spans": tracer.spans if tracer is not None else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
