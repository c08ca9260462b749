"""Batch front end: validate, solve, sweep, and certify from JSON configs.

Verbs, and the flags each reads besides --config and --delta
    validate  check a config's instance invariants, print the report
    solve     solve at one lattice step (fixed boxes: the SDP on the lattice
              rows that bind; variable boxes: the box search), self-certify;
              --out-dir, --seed, --time-limit, --mode
    sweep     repeat solve over a list of steps (--delta repeats), emit a
              CSV table; the same flags as solve
    certify   re-run the certificate on a stored result record, on the
              fine lattice of --delta when given; --out-dir, --seed,
              --solution

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

Exit codes: 2 for a parse or usage error (a flag the verb does not
read is one), 1 for an invalid input, which prints one "error: ..."
line, and otherwise by outcome: 0 certified (or validation passed),
3 falsified, 4 infeasible, 1 anything else (inconclusive, no
solution).  A sweep exits 3 if any step is falsified, else 4 if any is
infeasible, else 1 if any step is neither certified nor either of
those, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

# uncalled: perfbench/tracer.py wraps assemble_case2 until that hook moves (ROADMAP item 1)
from .assemble import assemble_case1, assemble_case2, decode_fixed
from .certify import Pricer, certify_solution, column_generation
from .lipschitz import lipschitz_certificate, max_safe_step, safety_margin
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
from .search import InstanceTooLarge, SearchInstance, SearchOptions, run_search
from .sdp import solve_sdp

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """A diagnostic with the exit code it maps to (1 invalid, 2 parse)."""

    def __init__(self, message: str, exit_code: int = 1):
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# config parsing


def load_config(path: str, what: str = "config") -> dict:
    """Parse a JSON object from path: a config, or a stored solution record."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("cannot read %s %s: %s" % (what, path, exc), 2)
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg), 2
        )
    if not isinstance(cfg, dict):
        raise ConfigError("%s: top level must be a JSON object" % path, 2)
    return cfg


def _float(value, what: str) -> float:
    """A JSON number as a float; a boolean or a string is not a number."""
    try:
        if not isinstance(value, (bool, str)):
            return float(value)
    except (ValueError, TypeError):
        pass
    raise ConfigError("%s must be a number, got %r" % (what, value))


def _floats(value, what: str) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array, for
    validation to judge its shape; a boolean or a string is not a number.
    A ragged list raises ValueError."""
    def numeric(v):
        return all(map(numeric, v)) if isinstance(v, list) else not isinstance(v, (bool, str))

    if not numeric(value):
        raise ConfigError("%s must hold numbers only, got %r" % (what, value))
    return np.asarray(value, dtype=float)


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError("config is missing the required key %r" % key)
    return cfg[key]


def _box_from(obj, what: str) -> BoxRegion:
    if not isinstance(obj, dict) or "lower" not in obj or "upper" not in obj:
        raise ConfigError("%s must be an object with lower and upper" % what)
    try:
        return BoxRegion(_floats(obj["lower"], what), _floats(obj["upper"], what))
    except (ValueError, TypeError) as exc:
        raise ConfigError("%s: %s" % (what, exc))


def _constraints_from(items, what: str) -> tuple:
    out = []
    for n, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError("%s[%d] must be an object" % (what, n))
        try:
            out.append(
                LinearConstraint(
                    _floats(item["coeffs"], "%s[%d].coeffs" % (what, n)),
                    item["sense"],
                    _float(item["rhs"], "%s[%d].rhs" % (what, n)),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError("%s[%d]: %s" % (what, n, exc))
    return tuple(out)


def build_instance(cfg: dict) -> tuple:
    """Turn a parsed config into (AmbiguitySpec, SimpleFunctionSpec)."""
    sets = cfg.get("confidence_sets", [])
    if not isinstance(sets, list):
        raise ConfigError("confidence_sets must be a list")
    extra = []
    for n, item in enumerate(sets):
        box = _box_from(item, "confidence_sets[%d]" % n)
        if "eps" not in item:
            raise ConfigError("confidence_sets[%d] is missing eps" % n)
        extra.append(ConfidenceSet(box, _float(item["eps"], "confidence_sets[%d].eps" % n)))
    try:
        spec = AmbiguitySpec.with_normalization(
            edge=_float(_need(cfg, "edge"), "edge"),
            mu=_floats(_need(cfg, "mu"), "mu"),
            sigma=_floats(_need(cfg, "sigma"), "sigma"),
            eps_mu=_float(_need(cfg, "eps_mu"), "eps_mu"),
            eps_sigma=_float(_need(cfg, "eps_sigma"), "eps_sigma"),
            b=_float(_need(cfg, "b"), "b"),
            extra_sets=tuple(extra),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid instance parameters: %s" % exc)

    fdef = _need(cfg, "function")
    if not isinstance(fdef, dict) or not isinstance(fdef.get("heights"), list):
        raise ConfigError("function must be an object with a heights list")
    mode_def = fdef.get("mode", "variable")
    try:
        heights = _floats(fdef["heights"], "function.heights")
        if mode_def == "variable":
            mode = VariableBoxes()
        elif isinstance(mode_def, dict) and mode_def.get("kind") == "variable":
            mode = VariableBoxes(
                c_minus=_floats(mode_def["c_minus"], "function.mode.c_minus"),
                c_plus=_floats(mode_def["c_plus"], "function.mode.c_plus"),
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
                else _floats(objective, "function.mode.objective"),
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
    knobs = cfg.get("search", {})
    if not isinstance(knobs, dict):
        raise ConfigError("search must be an object")
    knobs = dict(knobs)
    if args.mode is not None:
        knobs["mode"] = args.mode
    if args.time_limit is not None:
        knobs["time_limit"] = args.time_limit
    allowed = {"mode", "node_limit", "time_limit", "gap_tol"}
    unknown = set(knobs) - allowed
    if unknown:
        raise ConfigError("unknown search knobs: %s" % sorted(unknown))
    for key in [key for key in ("node_limit", "time_limit", "gap_tol") if key in knobs]:
        value = _float(knobs[key], "search." + key)
        if key == "node_limit" and not (value == math.inf or value.is_integer()):
            raise ConfigError("search.node_limit must be an integer or inf, got %r" % knobs[key])
    try:
        return SearchOptions(**knobs)
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid search options: %s" % exc)


def _one_delta(args) -> Optional[float]:
    """The --delta given on the command line, None without one."""
    if not args.delta:
        return None
    if len(args.delta) != 1:
        raise ConfigError("%s takes at most one --delta" % args.command, 2)
    return args.delta[0]


def _single_delta(cfg: dict, args) -> float:
    delta = _one_delta(args)
    if delta is not None:
        return delta
    if "delta" in cfg:
        return _float(cfg["delta"], "delta")
    raise ConfigError('config is missing "delta" and no --delta was given')


def _lattice(spec: AmbiguitySpec, delta: float):
    try:
        return lattice_points(spec.edge, spec.m, delta)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _out_dir(cfg: dict, args) -> Path:
    out = args.out_dir if args.out_dir is not None else cfg.get("out_dir", ".")
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except (OSError, TypeError) as exc:
        raise ConfigError("cannot use out_dir %r: %s" % (out, exc))
    return Path(out)


def _sampling(cfg: dict, args) -> tuple:
    """(seed, samples) of the certificate's sampling check."""
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    samples = cfg.get("samples", 10_000)
    for name, value, least in (("seed", seed, 0), ("samples", samples, 1)):
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ConfigError("%s must be an integer >= %d, got %r" % (name, least, value))
    return seed, samples


def _solution_from(record: dict, spec: AmbiguitySpec) -> tuple:
    """(delta, Decision, DualSolution) of a stored result record, every
    field present and shaped for the instance; a null box is empty."""
    for key in ("delta", "heights", "boxes", "duals"):
        if record.get(key) is None:
            raise ConfigError("solution record has no %r field" % key)
    duals = record["duals"]
    for key in ("Y1", "Y2", "y"):
        if not isinstance(duals, dict) or duals.get(key) is None:
            raise ConfigError("solution record has no 'duals.%s' field" % key)
    try:
        delta = _float(record["delta"], "solution record: delta")
        heights = _floats(record["heights"], "solution record: heights")
        Y1, Y2, y = (_floats(duals[key], "solution record: duals." + key)
                     for key in ("Y1", "Y2", "y"))
        boxes = [None if box is None else _box_from(box, "solution record: boxes[%d]" % n)
                 for n, box in enumerate(record["boxes"])]
    except (ValueError, TypeError) as exc:
        raise ConfigError("invalid solution record: %s" % exc)
    m = spec.m
    shapes = [("heights", heights.shape, (len(boxes),)), ("duals.Y1", Y1.shape, (m + 1, m + 1)),
              ("duals.Y2", Y2.shape, (m, m)), ("duals.y", y.shape, (len(spec.confidence_sets),))]
    shapes += [("boxes[%d]" % n, box.lower.shape, (m,))
               for n, box in enumerate(boxes) if box is not None]
    for name, got, want in shapes:
        if got != want:
            raise ConfigError("solution record: %s has shape %s, expected %s" % (name, got, want))
    numbers = [("delta", delta), ("heights", heights), ("duals.Y1", Y1), ("duals.Y2", Y2),
               ("duals.y", y)]
    numbers += [("boxes[%d]" % n, np.r_[box.lower, box.upper])
                for n, box in enumerate(boxes) if box is not None]
    for name, value in numbers:
        if not np.all(np.isfinite(value)):
            raise ConfigError("solution record: %s holds a non-finite number" % name)
    return delta, Decision.nonempty(heights, boxes), DualSolution(Y1, Y2, y, spec)


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# shared solve core


def _json_box(box: Optional[BoxRegion]) -> Optional[dict]:
    return None if box is None else {"lower": box.lower.tolist(), "upper": box.upper.tolist()}


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


def _solve_fixed(spec, fn, lattice, margin: float):
    """The solve of the fixed-box SDP on the lattice rows that bind.

    certify.column_generation adds the most violated lattice rows to a
    master, assemble_case1 on the active atoms; an infeasible master, a
    relaxation, ends the solve.  A row's slack is the box indicators times
    the heights plus the Pricer row of zero atom values, less margin.
    """
    pts = lattice.points
    inside = np.stack([box.contains(pts) for box in fn.mode.boxes], axis=1).astype(float)
    pricer = Pricer(spec, pts, np.zeros(lattice.n_points))

    def solve(active):
        return solve_sdp(assemble_case1(spec, fn, lattice, margin, atoms=active).program)

    def price(sol):
        heights, d = decode_fixed(sol, spec, fn.k)
        return inside @ heights + pricer(d.Y1, d.Y2, d.y) - margin

    _, sol = column_generation(lattice, spec, solve, price, final=("infeasible",))
    return sol


def _solve_once(spec, fn, lattice, opts: SearchOptions, seed: int,
                samples: int) -> dict:
    """Solve (fixed boxes: _solve_fixed; variable: the search), certify.

    Returns the result record.  It always carries delta, L, delta_max,
    margin, status and timings; solution fields (objective, heights,
    boxes, null for an empty one, duals, certificate) appear when a
    solution exists.  An instance too large for enumerate_boxes raises
    ConfigError.
    """
    delta = lattice.delta
    memo = {}  # measure masters, shared by the search and the certificate
    L = lipschitz_certificate(spec, fn).L
    margin = safety_margin(L, delta, spec.m)
    record = {
        "delta": delta,
        "L": L,
        "delta_max": max_safe_step(spec, L),
        "margin": margin,
        "objective": None,
        "node_count": 0,
        "certificate": None,
    }
    t0 = time.perf_counter()

    boxes = duals = None
    if isinstance(fn.mode, FixedBoxes):
        record["case"] = "fixed"
        sol = _solve_fixed(spec, fn, lattice, margin)
        record["proof"] = sol.status
        record["status"] = {"optimal": "solved", "infeasible": "infeasible-model"}.get(
            sol.status, "unknown")
        if sol.status == "optimal":
            record["objective"] = float(sol.objective)
            heights, duals = decode_fixed(sol, spec, fn.k)
            boxes = fn.mode.boxes
    else:
        record["case"] = "variable"
        try:
            inc = run_search(SearchInstance(spec, fn, lattice, margin, memo), opts)
        except InstanceTooLarge as exc:
            raise ConfigError(str(exc)) from exc
        record["status"] = inc.status
        record["proof"] = inc.proof
        record["node_count"] = inc.node_count
        if inc.status == "solved":
            record["objective"] = _json_float(inc.objective)
            heights, boxes, duals = fn.heights, inc.boxes, inc.dual_vars
    record["solve_seconds"] = time.perf_counter() - t0

    if boxes is not None:
        record["heights"] = [float(h) for h in heights]
        record["boxes"] = [_json_box(b) for b in boxes]
        record["duals"] = {key: np.asarray(getattr(duals, key)).tolist()
                           for key in ("Y1", "Y2", "y")}
        t1 = time.perf_counter()
        cert = certify_solution(Decision.nonempty(heights, boxes), duals, spec,
                                delta=delta, n_samples=samples, seed=seed, memo=memo)
        record["certify_seconds"] = time.perf_counter() - t1
        record["certificate"] = cert.as_record()
    return record


_EXIT = {"certified": 0, "falsified": 3, "infeasible": 4}  # any other outcome: 1


def _outcome(record: dict) -> str:
    """infeasible, the certificate's verdict, or inconclusive."""
    if record["status"] == "infeasible-model":
        return "infeasible"
    return (record["certificate"] or {}).get("verdict", "inconclusive")


@contextlib.contextmanager
def _search_log(path: Path):
    """Tee drobox.search progress lines into a file."""
    handler = logging.FileHandler(path, mode="a")
    handler.setFormatter(logging.Formatter("%(message)s"))
    target = logging.getLogger("drobox.search")
    old_level = target.level
    target.setLevel(logging.DEBUG)
    target.addHandler(handler)
    try:
        yield
    finally:
        target.removeHandler(handler)
        target.setLevel(old_level)
        handler.close()


# ---------------------------------------------------------------------------
# commands


def _lattice_boxes(spec, fn, lattice) -> tuple:
    """(spec, fn) with each box whose bounds lie on the lattice replaced by
    the lattice's own box; validation reports any other box.  An object is
    rebuilt only when a bound moves."""
    def snap(region):
        if isinstance(region, BoxRegion):
            try:
                box = lattice.box(*lattice.indices([region.lower, region.upper]))
            except ValueError:
                return region
            if np.any(box.lower != region.lower) or np.any(box.upper != region.upper):
                return box
        return region

    sets = [ConfidenceSet(snap(c.region), c.eps) for c in spec.confidence_sets]
    if any(new.region is not c.region for new, c in zip(sets, spec.confidence_sets)):
        spec = dataclasses.replace(spec, confidence_sets=sets)
    if isinstance(fn.mode, FixedBoxes):
        boxes = [snap(box) for box in fn.mode.boxes]
        if any(new is not box for new, box in zip(boxes, fn.mode.boxes)):
            fn = dataclasses.replace(fn, mode=dataclasses.replace(fn.mode, boxes=boxes))
    return spec, fn


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    spec, fn = build_instance(cfg)
    lattice = _lattice(spec, _single_delta(cfg, args))
    report = validate_spec(*_lattice_boxes(spec, fn, lattice), lattice)
    print(report.summary())
    print("overall: %s" % ("pass" if report.passed else "FAIL"))
    if not report.passed:
        raise ConfigError("config failed validation")
    return 0


def _validate_step(spec, fn, delta) -> tuple:
    """(spec, fn, lattice) of step delta, each box on the lattice replaced
    by the lattice's own box; raises ConfigError, after printing each
    failed check, unless that instance passes validation."""
    lattice = _lattice(spec, delta)
    spec, fn = _lattice_boxes(spec, fn, lattice)
    report = validate_spec(spec, fn, lattice)
    if not report.passed:
        for check in report.failures():
            print("FAIL %s %s" % (check.name, check.detail), file=sys.stderr)
        raise ConfigError("config failed validation")
    return spec, fn, lattice


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    delta = _single_delta(cfg, args)
    spec, fn, lattice = _validate_step(*build_instance(cfg), delta)
    opts = search_options(cfg, args)
    seed, samples = _sampling(cfg, args)
    out = _out_dir(cfg, args)
    with _search_log(out / "solver.log"):
        record = _solve_once(spec, fn, lattice, opts, seed, samples)
    path = _write_json(out / "result.json", record)
    outcome = _outcome(record)
    if outcome == "infeasible":
        print(
            "infeasible at delta=%.9g; guaranteed-feasible steps need "
            "delta <= delta_max=%.9g" % (delta, record["delta_max"]),
            file=sys.stderr,
        )
    else:
        verdict = (record["certificate"] or {}).get("verdict", "none")
        print(
            "status=%s proof=%s objective=%s verdict=%s -> %s"
            % (record["status"], record["proof"], record["objective"], verdict, path)
        )
    return _EXIT.get(outcome, 1)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.delta:
        deltas = args.delta
    elif "deltas" in cfg or "delta" in cfg:
        steps = cfg["deltas"] if "deltas" in cfg else [cfg["delta"]]
        if not isinstance(steps, list) or not steps:
            raise ConfigError("deltas must be a non-empty list of steps")
        deltas = [_float(d, "each delta") for d in steps]
    else:
        raise ConfigError('config is missing "deltas" and no --delta was given')
    spec, fn = build_instance(cfg)
    opts = search_options(cfg, args)
    seed, samples = _sampling(cfg, args)
    out = _out_dir(cfg, args)

    rows = []
    with _search_log(out / "solver.log"):
        for delta in deltas:
            t0 = time.perf_counter()
            record = {"objective": None, "node_count": 0, "proof": ""}
            try:
                record = _solve_once(*_validate_step(spec, fn, delta), opts, seed, samples)
                outcome = _outcome(record)
            except ConfigError as exc:
                logger.warning("sweep row delta=%.9g failed: %s", delta, exc)
                outcome = "error"
            rows.append((delta, record["objective"], record["node_count"],
                         time.perf_counter() - t0, outcome, record["proof"]))

    table = out / "sweep.csv"
    plot = out / "sweep_plot.csv"
    with table.open("w") as fh, plot.open("w") as plot_fh:
        fh.write("delta,objective,nodes,wall_time,certified,proof\n")
        for delta, obj, nodes, wall_time, outcome, proof in rows:
            fh.write("%.10g,%s,%d,%.3f,%s,%s\n" % (
                delta, "" if obj is None else "%.10g" % obj, nodes, wall_time, outcome, proof))
            if obj is not None:
                plot_fh.write("%.10g,%.10g\n" % (delta, obj))
    print("wrote %s and %s" % (table, plot))

    codes = {_EXIT.get(row[4], 1) for row in rows}
    return next((code for code in (3, 4, 1) if code in codes), 0)


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    spec, fn = build_instance(cfg)
    delta, decision, duals = _solution_from(load_config(args.solution, "solution"), spec)
    spec = _validate_step(spec, fn, delta)[0]
    duals = dataclasses.replace(duals, spec=spec)
    seed, samples = _sampling(cfg, args)
    out = _out_dir(cfg, args)
    fine_step = _one_delta(args)
    fine = None
    if fine_step is not None:
        fine = _lattice(spec, fine_step)
        if fine_step > delta / 2.0 + 1e-12:
            print(
                "warning: fine step %.9g is coarser than delta/2=%.9g; "
                "the verdict will be inconclusive" % (fine_step, delta / 2.0),
                file=sys.stderr,
            )
    cert = certify_solution(
        decision, duals, spec, delta=delta, fine_lattice=fine, n_samples=samples, seed=seed
    )
    path = _write_json(out / "certificate.json", cert.as_record())
    print("verdict=%s worst_case=%s -> %s" % (
        cert.verdict, cert.worst_case_expectation, path))
    return _EXIT.get(cert.verdict, 1)


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drobox",
        description="validate, solve, sweep, and certify robust box designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each verb registers only the flags it reads besides --config and --delta
    solve_flags = ("--out-dir", "--seed", "--time-limit", "--mode")
    verbs = {
        "validate": (cmd_validate, ()),
        "solve": (cmd_solve, solve_flags),
        "sweep": (cmd_sweep, solve_flags),
        "certify": (cmd_certify, ("--out-dir", "--seed", "--solution")),
    }
    flag_args = {
        "--out-dir": {"help": "output directory"},
        "--seed": {"type": int, "help": "sampling seed override"},
        "--time-limit": {"type": float, "help": "search seconds"},
        "--mode": {"choices": ("bnb", "enumerate")},
        "--solution": {"required": True, "help": "result record to re-check"},
    }
    for name, (handler, flags) in verbs.items():
        sp = sub.add_parser(name)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument(
            "--delta",
            action="append",
            type=float,
            help="lattice step; repeatable for sweep, fine step for certify",
        )
        for flag in flags:
            sp.add_argument(flag, **flag_args[flag])
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
