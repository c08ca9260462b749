"""Batch front end: validate, solve, sweep, and certify from JSON configs.

Verbs
    validate  check a config's instance invariants, print the report
    solve     assemble and solve at one lattice step, then self-certify
    sweep     repeat solve over a list of steps, emit a CSV table
    certify   re-run the certificate on a stored result record

Config schema (one JSON object; statistical parameters are explicit and
never defaulted, solver knobs carry defaults):

    {
      "description": "free text, ignored",
      "edge": 1.0,
      "mu": [0.0, 0.0],
      "sigma": [[2.0, 0.5], [0.5, 1.0]],
      "eps_mu": 0.1,
      "eps_sigma": 1.0,
      "b": 0.1,
      "confidence_sets": [{"lower": [0.0, 0.0],
                           "upper": [0.5, 0.5], "eps": 0.2}],
      "function": {"heights": [1.0], "mode": "variable"},
      "delta": 0.1,
      "deltas": [0.1, 0.05],
      "search": {"mode": "enumerate", "node_limit": 100000,
                 "time_limit": 3600.0, "gap_tol": 0.0},
      "samples": 10000,
      "seed": 0,
      "out_dir": "."
    }

function.mode is either the string "variable" (variable boxes, width-sum
objective) or an object: {"kind": "variable", "c_minus": [[...]],
"c_plus": [[...]], "sense": "min", "constraints": [...]} for explicit
corner costs, or {"kind": "fixed", "boxes": [{"lower": [...],
"upper": [...]}], "objective": [...], "constraints": [{"coeffs": [...],
"sense": ">=", "rhs": 0.0}]} for fixed boxes with height decisions.

Outputs land in --out-dir (default: the config's out_dir, else the
current directory): result.json, sweep.csv, sweep_plot.csv,
certificate.json, solver.log.  Every sweep column except wall_time is
deterministic for a fixed seed and platform.

Exit codes: 0 certified (or validation passed), 1 invalid or
inconclusive, 2 parse or usage error, 3 falsified, 4 infeasible.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .assemble import assemble_case1, assemble_case2, decode_duals
from .certify import certify_solution
from .lipschitz import lipschitz_certificate, max_safe_step
from .model import (
    AmbiguitySpec,
    BoxRegion,
    ConfidenceSet,
    Decision,
    DualSolution,
    FixedBoxes,
    LinearConstraint,
    SimpleFunctionSpec,
    VariableBoxes,
    lattice_points,
    validate_spec,
)
from .search import SearchOptions, run_search
from .sdp import solve_sdp

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """A diagnostic with the exit code it maps to (1 invalid, 2 parse)."""

    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# config parsing


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc), 2)
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg), 2
        )
    if not isinstance(cfg, dict):
        raise ConfigError("%s: top level must be a JSON object" % path, 2)
    return cfg


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError("config is missing the required key %r" % key)
    return cfg[key]


def _box_from(obj, what: str) -> BoxRegion:
    if not isinstance(obj, dict) or "lower" not in obj or "upper" not in obj:
        raise ConfigError("%s must be an object with lower and upper" % what)
    return BoxRegion(obj["lower"], obj["upper"])


def _constraints_from(items, what: str) -> tuple:
    out = []
    for n, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError("%s[%d] must be an object" % (what, n))
        try:
            out.append(
                LinearConstraint(
                    np.asarray(item["coeffs"], dtype=float),
                    item["sense"],
                    float(item["rhs"]),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError("%s[%d]: %s" % (what, n, exc))
    return tuple(out)


def build_instance(cfg: dict) -> tuple:
    """Turn a parsed config into (AmbiguitySpec, SimpleFunctionSpec)."""
    extra = []
    for n, item in enumerate(cfg.get("confidence_sets", [])):
        box = _box_from(item, "confidence_sets[%d]" % n)
        if "eps" not in item:
            raise ConfigError("confidence_sets[%d] is missing eps" % n)
        extra.append(ConfidenceSet(box, float(item["eps"])))
    try:
        spec = AmbiguitySpec.with_normalization(
            edge=float(_need(cfg, "edge")),
            mu=_need(cfg, "mu"),
            sigma=_need(cfg, "sigma"),
            eps_mu=float(_need(cfg, "eps_mu")),
            eps_sigma=float(_need(cfg, "eps_sigma")),
            b=float(_need(cfg, "b")),
            extra_sets=tuple(extra),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid instance parameters: %s" % exc)

    fdef = _need(cfg, "function")
    if not isinstance(fdef, dict) or "heights" not in fdef:
        raise ConfigError("function must be an object with a heights list")
    heights = list(fdef["heights"])
    mode_def = fdef.get("mode", "variable")
    try:
        if mode_def == "variable":
            mode = VariableBoxes()
        elif isinstance(mode_def, dict) and mode_def.get("kind") == "variable":
            mode = VariableBoxes(
                c_minus=np.asarray(mode_def["c_minus"], dtype=float),
                c_plus=np.asarray(mode_def["c_plus"], dtype=float),
                sense=mode_def.get("sense", "min"),
                constraints=_constraints_from(
                    mode_def.get("constraints", []), "function.mode.constraints"
                ),
            )
        elif isinstance(mode_def, dict) and mode_def.get("kind") == "fixed":
            boxes = tuple(
                _box_from(b, "function.mode.boxes[%d]" % n)
                for n, b in enumerate(mode_def.get("boxes", []))
            )
            objective = mode_def.get("objective")
            mode = FixedBoxes(
                boxes,
                objective=None
                if objective is None
                else np.asarray(objective, dtype=float),
                constraints=_constraints_from(
                    mode_def.get("constraints", []), "function.mode.constraints"
                ),
            )
        else:
            raise ConfigError(
                'function.mode must be "variable" or an object with kind'
                ' "variable" or "fixed"'
            )
        fn = SimpleFunctionSpec(k=len(heights), heights=heights, mode=mode)
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError("invalid function definition: %s" % exc)
    return spec, fn


def search_options(cfg: dict, args) -> SearchOptions:
    knobs = dict(cfg.get("search", {}))
    if args.mode is not None:
        knobs["mode"] = args.mode
    if args.time_limit is not None:
        knobs["time_limit"] = args.time_limit
    allowed = {"mode", "node_limit", "time_limit", "gap_tol"}
    unknown = set(knobs) - allowed
    if unknown:
        raise ConfigError("unknown search knobs: %s" % sorted(unknown))
    try:
        return SearchOptions(**knobs)
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid search options: %s" % exc)


def _single_delta(cfg: dict, args) -> float:
    if args.delta:
        if len(args.delta) != 1:
            raise ConfigError("this command takes exactly one --delta", 2)
        return float(args.delta[0])
    if "delta" in cfg:
        return float(cfg["delta"])
    raise ConfigError('config is missing "delta" and no --delta was given')


def _out_dir(cfg: dict, args) -> Path:
    out = Path(args.out_dir if args.out_dir is not None else cfg.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(cfg: dict, args) -> int:
    return int(args.seed if args.seed is not None else cfg.get("seed", 0))


# ---------------------------------------------------------------------------
# shared solve core


def _json_box(box: BoxRegion) -> dict:
    return {"lower": box.lower.tolist(), "upper": box.upper.tolist()}


def _json_float(value: float):
    return float(value) if math.isfinite(value) else None


def _jsonable(obj):
    """Recursively map non-finite floats to null so the output is strict JSON."""
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    return obj


def _solve_once(spec, fn, delta: float, opts: SearchOptions, seed: int,
                samples: int) -> dict:
    """Assemble, solve, certify; return a result record dictionary.

    The record always carries delta, L, delta_max, margin, status and
    timings; solution fields (objective, heights, boxes, duals,
    certificate) appear when a solution exists.  An instance too large
    for enumerate_boxes raises ConfigError.
    """
    cert_bundle = lipschitz_certificate(spec, fn)
    L = cert_bundle.L
    record = {
        "delta": delta,
        "L": L,
        "delta_max": max_safe_step(spec, L),
        "objective": None,
        "node_count": 0,
        "certificate": None,
    }
    t0 = time.perf_counter()
    lattice = lattice_points(spec.edge, spec.m, delta)
    record["margin"] = L * delta * math.sqrt(spec.m)

    decision = None
    duals = None
    if isinstance(fn.mode, FixedBoxes):
        record["case"] = "fixed"
        model = assemble_case1(spec, fn, lattice, L)
        sol = solve_sdp(model.program)
        record["proof"] = "optimal" if sol.status == "optimal" else sol.status
        if sol.status == "infeasible":
            record["status"] = "infeasible-model"
        elif sol.status != "optimal":
            record["status"] = "unknown"
        else:
            record["status"] = "solved"
            record["objective"] = float(sol.objective)
            heights = np.array(
                [sol.value("x[%d]" % i) for i in range(len(fn.mode.boxes))]
            )
            decision = Decision(heights=heights, boxes=list(fn.mode.boxes))
            duals = decode_duals(sol, model)
    else:
        record["case"] = "variable"
        model = assemble_case2(spec, fn, lattice, L)
        try:
            inc = run_search(model, opts)
        except ValueError as exc:
            # enumerate_boxes rejects instances beyond its guard; any
            # other ValueError is a bug
            if not str(exc).startswith("instance-too-large"):
                raise
            raise ConfigError(str(exc)) from exc
        record["status"] = inc.status
        record["proof"] = inc.proof
        record["node_count"] = inc.node_count
        if inc.status == "solved":
            record["objective"] = _json_float(inc.objective)
            decision = Decision(
                heights=np.asarray(fn.heights, dtype=float), boxes=list(inc.boxes)
            )
            duals = inc.dual_vars
    record["solve_seconds"] = time.perf_counter() - t0

    if decision is not None:
        record["heights"] = [float(h) for h in decision.heights]
        record["boxes"] = [_json_box(b) for b in decision.boxes]
        record["duals"] = {
            "Y1": np.asarray(duals.Y1).tolist(),
            "Y2": np.asarray(duals.Y2).tolist(),
            "y": np.asarray(duals.y).tolist(),
        }
        t1 = time.perf_counter()
        cert = certify_solution(
            decision, duals, spec, delta=delta, n_samples=samples, seed=seed
        )
        record["certify_seconds"] = time.perf_counter() - t1
        record["certificate"] = cert.as_record()
    return record


def _exit_for(record: dict) -> int:
    if record["status"] == "infeasible-model":
        return 4
    cert = record.get("certificate")
    if cert is None:
        return 1
    return {"certified": 0, "falsified": 3}.get(cert["verdict"], 1)


class _SearchLogFile:
    """Context manager teeing drobox.search progress lines into a file."""

    def __init__(self, path: Path):
        self.handler = logging.FileHandler(path, mode="a")
        self.handler.setFormatter(logging.Formatter("%(message)s"))
        self.target = logging.getLogger("drobox.search")

    def __enter__(self):
        self.old_level = self.target.level
        self.target.setLevel(logging.DEBUG)
        self.target.addHandler(self.handler)
        return self

    def __exit__(self, *exc):
        self.target.removeHandler(self.handler)
        self.target.setLevel(self.old_level)
        self.handler.close()
        return False


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    spec, fn = build_instance(cfg)
    delta = _single_delta(cfg, args)
    try:
        lattice = lattice_points(spec.edge, spec.m, delta)
    except ValueError as exc:
        raise ConfigError(str(exc))
    report = validate_spec(spec, fn, lattice)
    print(report.summary())
    print("overall: %s" % ("pass" if report.passed else "FAIL"))
    return 0 if report.passed else 1


def _validate_step(spec, fn, delta):
    """Raise ConfigError, after printing each failed check, unless the
    instance passes validation at step delta."""
    try:
        lattice = lattice_points(spec.edge, spec.m, delta)
    except ValueError as exc:
        raise ConfigError(str(exc))
    report = validate_spec(spec, fn, lattice)
    if not report.passed:
        for check in report.failures():
            print("FAIL %s %s" % (check.name, check.detail), file=sys.stderr)
        raise ConfigError("config failed validation")


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    delta = _single_delta(cfg, args)
    spec, fn = build_instance(cfg)
    _validate_step(spec, fn, delta)
    opts = search_options(cfg, args)
    out = _out_dir(cfg, args)
    with _SearchLogFile(out / "solver.log"):
        record = _solve_once(
            spec, fn, delta, opts, _seed(cfg, args), int(cfg.get("samples", 10_000))
        )
    path = out / "result.json"
    path.write_text(json.dumps(_jsonable(record), indent=2, sort_keys=True) + "\n")
    code = _exit_for(record)
    if code == 4:
        print(
            "infeasible at delta=%.9g; guaranteed-feasible steps need "
            "delta <= delta_max=%.9g" % (delta, record["delta_max"]),
            file=sys.stderr,
        )
    else:
        verdict = (record.get("certificate") or {}).get("verdict", "none")
        print(
            "status=%s proof=%s objective=%s verdict=%s -> %s"
            % (record["status"], record["proof"], record["objective"], verdict, path)
        )
    return code


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.delta:
        deltas = [float(d) for d in args.delta]
    elif "deltas" in cfg:
        deltas = [float(d) for d in cfg["deltas"]]
    elif "delta" in cfg:
        deltas = [float(cfg["delta"])]
    else:
        raise ConfigError('config is missing "deltas" and no --delta was given')
    spec, fn = build_instance(cfg)
    opts = search_options(cfg, args)
    out = _out_dir(cfg, args)
    seed = _seed(cfg, args)
    samples = int(cfg.get("samples", 10_000))

    rows = []
    with _SearchLogFile(out / "solver.log"):
        for delta in deltas:
            t0 = time.perf_counter()
            try:
                _validate_step(spec, fn, delta)
                record = _solve_once(spec, fn, delta, opts, seed, samples)
            except ConfigError as exc:
                logger.warning("sweep row delta=%.9g failed: %s", delta, exc)
                rows.append(
                    {
                        "delta": delta,
                        "objective": None,
                        "nodes": 0,
                        "wall_time": time.perf_counter() - t0,
                        "certified": "error",
                        "proof": "",
                    }
                )
                continue
            if record["status"] == "infeasible-model":
                marker = "infeasible"
            elif record["certificate"] is None:
                marker = "inconclusive"
            else:
                marker = record["certificate"]["verdict"]
            rows.append(
                {
                    "delta": delta,
                    "objective": record["objective"],
                    "nodes": record["node_count"],
                    "wall_time": time.perf_counter() - t0,
                    "certified": marker,
                    "proof": record["proof"],
                }
            )

    table = out / "sweep.csv"
    with table.open("w") as fh:
        fh.write("delta,objective,nodes,wall_time,certified,proof\n")
        for row in rows:
            obj = "" if row["objective"] is None else "%.10g" % row["objective"]
            fh.write(
                "%.10g,%s,%d,%.3f,%s,%s\n"
                % (row["delta"], obj, row["nodes"], row["wall_time"], row["certified"],
                   row["proof"])
            )
    plot = out / "sweep_plot.csv"
    with plot.open("w") as fh:
        for row in rows:
            if row["objective"] is not None:
                fh.write("%.10g,%.10g\n" % (row["delta"], row["objective"]))
    print("wrote %s and %s" % (table, plot))

    markers = [row["certified"] for row in rows]
    if all(m == "certified" for m in markers):
        return 0
    if "falsified" in markers:
        return 3
    if "infeasible" in markers:
        return 4
    return 1


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    spec, fn = build_instance(cfg)
    try:
        record = json.loads(Path(args.solution).read_text())
    except OSError as exc:
        raise ConfigError("cannot read solution %s: %s" % (args.solution, exc), 2)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "%s: line %d column %d: %s"
            % (args.solution, exc.lineno, exc.colno, exc.msg),
            2,
        )
    for key in ("delta", "heights", "boxes", "duals"):
        if key not in record or record[key] is None:
            raise ConfigError("solution record has no %r field" % key)
    delta = float(record["delta"])
    _validate_step(spec, fn, delta)
    decision = Decision(
        heights=np.asarray(record["heights"], dtype=float),
        boxes=[BoxRegion(b["lower"], b["upper"]) for b in record["boxes"]],
    )
    duals = DualSolution(
        Y1=np.asarray(record["duals"]["Y1"], dtype=float),
        Y2=np.asarray(record["duals"]["Y2"], dtype=float),
        y=np.asarray(record["duals"]["y"], dtype=float),
        spec=spec,
    )
    if args.delta:
        if len(args.delta) != 1:
            raise ConfigError("certify takes at most one --delta", 2)
        fine_step = float(args.delta[0])
        try:
            fine = lattice_points(spec.edge, spec.m, fine_step)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if fine_step > delta / 2.0 + 1e-12:
            print(
                "warning: fine step %.9g is coarser than delta/2=%.9g; "
                "the verdict will be inconclusive" % (fine_step, delta / 2.0),
                file=sys.stderr,
            )
    else:
        fine = None
    cert = certify_solution(
        decision,
        duals,
        spec,
        delta=delta,
        fine_lattice=fine,
        n_samples=int(cfg.get("samples", 10_000)),
        seed=_seed(cfg, args),
    )
    out = _out_dir(cfg, args)
    path = out / "certificate.json"
    path.write_text(
        json.dumps(_jsonable(cert.as_record()), indent=2, sort_keys=True) + "\n"
    )
    print("verdict=%s worst_case=%s -> %s" % (
        cert.verdict, cert.worst_case_expectation, path))
    return {"certified": 0, "falsified": 3}.get(cert.verdict, 1)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drobox",
        description="validate, solve, sweep, and certify robust box designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "validate": cmd_validate,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "certify": cmd_certify,
    }
    for name, fn in handlers.items():
        sp = sub.add_parser(name)
        sp.set_defaults(handler=fn)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument(
            "--delta",
            action="append",
            type=float,
            help="lattice step; repeatable for sweep, fine step for certify",
        )
        sp.add_argument("--out-dir", help="output directory")
        sp.add_argument("--seed", type=int, help="sampling seed override")
        sp.add_argument("--time-limit", type=float, help="search seconds")
        sp.add_argument("--mode", choices=("bnb", "enumerate"))
        if name == "certify":
            sp.add_argument(
                "--solution", required=True, help="result record to re-check"
            )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
