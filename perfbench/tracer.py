"""Spans around the drobox layers, recorded from the benchmark's own files.

Tracer.install wraps each public callable under the name its caller
looks it up by: modules bind names with ``from .x import y``, so every
binding gets its own wrapper (``drobox.search.solve_sdp`` and
``drobox.certify.solve_sdp`` are two of them).  A span holds its name,
start, end, parent span and operation id, plus a few counters read from
the call's arguments or result.  Spans stay in memory until the run ends.

layer_metrics turns the spans of one pass into per-layer numbers.  A
layer's self time is its spans' durations minus the time their child
spans cover, so the self times of all layers, ``cli`` included, add up
to the traced wall time of the operations.
"""

from __future__ import annotations

import functools
import statistics
import time


def _program_size(program) -> tuple:
    """(rows, vars) of a conic program: scalar rows plus the svec rows of
    each LMI, and scalar variables plus the svec entries of PSD blocks."""
    rows = len(program.rows) + sum(
        d * (d + 1) // 2 for d in (lmi.const.shape[0] for lmi in program.lmis))
    cols = len(program.scalar_vars) + len(program.binary_vars) + sum(
        d * (d + 1) // 2 for d in program.psd_vars.values())
    return rows, cols


def _sdp_attrs(args, kwargs, sol):
    rows, cols = _program_size(args[0])
    return {"status": sol.status, "iters": sol.iterations, "rows": rows, "vars": cols}


def _assemble_attrs(args, kwargs, model):
    return {"rows": model.program.n_rows, "binaries": len(model.program.binary_vars)}


def _search_attrs(args, kwargs, inc):
    return {"nodes": inc.node_count}


def _atoms_attrs(args, kwargs, result):
    return {"atoms": args[2].n_points}


class Tracer:
    """In-memory span recorder.  Not thread-safe: drobox is single-threaded."""

    def __init__(self):
        self.spans = []  # [id, parent, name, op, start, end, attrs]
        self._stack = []
        self._saved = []
        self.op = None

    def span(self, name, fn, attrs=None):
        """Return fn wrapped so that every call records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, self.op, time.perf_counter(), None, {}]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer boundary the CLI reaches."""
        import drobox.certify
        import drobox.cli
        import drobox.search
        from drobox.sdp import ConicProgram

        targets = [
            (drobox.cli, "validate_spec", "model.validate", None),
            (drobox.cli, "lipschitz_certificate", "lipschitz", None),
            (drobox.cli, "max_safe_step", "lipschitz", None),
            (drobox.cli, "assemble_case1", "assemble", _assemble_attrs),
            (drobox.cli, "assemble_case2", "assemble", _assemble_attrs),
            (ConicProgram, "fix_binaries", "sdp.resolve", None),
            (ConicProgram, "relax_binaries", "sdp.resolve", None),
            (drobox.cli, "solve_sdp", "sdp.solve", _sdp_attrs),
            (drobox.search, "solve_sdp", "sdp.solve", _sdp_attrs),
            (drobox.certify, "solve_sdp", "sdp.solve", _sdp_attrs),
            (drobox.cli, "run_search", "search", _search_attrs),
            (drobox.search, "adversary_problem", "search.adversary", None),
            (drobox.cli, "certify_solution", "certify", None),
            (drobox.certify, "adversary_problem", "certify.adversary", _atoms_attrs),
            (drobox.certify, "sample_fc", "certify.sample", None),
        ]
        for owner, attr, name, attrs in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, attrs))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# Layers in reporting order; each reports its self time as "<layer>_s"
# or, for a bare module name, "<layer>.s".  cli is reported as
# cli.other_s: config parsing, JSON writing and everything else that no
# other span covers.
LAYERS = ("model.validate", "lipschitz", "assemble", "sdp.resolve", "sdp.solve",
          "search", "search.adversary", "certify", "certify.adversary",
          "certify.sample", "cli")

_TIME_NAMES = {
    "model.validate": "model.validate_s", "lipschitz": "lipschitz.s",
    "assemble": "assemble.s", "sdp.resolve": "sdp.resolve_s",
    "sdp.solve": "sdp.solve_s", "search": "search.s",
    "search.adversary": "search.adversary_s", "certify": "certify.s",
    "certify.adversary": "certify.adversary_s", "certify.sample": "certify.sample_s",
    "cli": "cli.other_s",
}

# Counters that must repeat exactly between runs of the same code.
EXACT_COUNTERS = ("assemble.rows", "assemble.binaries", "sdp.resolves", "sdp.solves",
                  "sdp.iters", "sdp.optimal", "sdp.infeasible", "sdp.failed",
                  "sdp.rows_max", "sdp.vars_max", "search.nodes",
                  "search.adversary_calls", "certify.atoms")


def self_times(spans) -> dict:
    """Self time per span name over the given spans (a closed set: every
    child of a listed span is listed too)."""
    child_time = {}
    for sid, parent, _name, _op, start, end, _attrs in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, _parent, name, _op, start, end, _attrs in spans:
        out[name] += (end - start) - child_time.get(sid, 0.0)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced pass."""
    selfs = self_times(spans)
    out = {_TIME_NAMES[name]: selfs[name] for name in LAYERS}
    by_id = {s[0]: s for s in spans}
    sdp = [s for s in spans if s[2] == "sdp.solve"]
    statuses = [s[6]["status"] for s in sdp]
    in_search = [s for s in sdp if s[1] is not None and by_id[s[1]][2] == "search"]
    out.update({
        "assemble.rows": sum(s[6]["rows"] for s in spans if s[2] == "assemble"),
        "assemble.binaries": sum(s[6]["binaries"] for s in spans if s[2] == "assemble"),
        "sdp.resolves": sum(1 for s in spans if s[2] == "sdp.resolve"),
        "sdp.solves": len(sdp),
        "sdp.iters": sum(s[6]["iters"] for s in sdp),
        "sdp.optimal": statuses.count("optimal"),
        "sdp.infeasible": statuses.count("infeasible"),
        "sdp.failed": len(statuses) - statuses.count("optimal")
        - statuses.count("infeasible"),
        "sdp.rows_max": max((s[6]["rows"] for s in sdp), default=0),
        "sdp.vars_max": max((s[6]["vars"] for s in sdp), default=0),
        "search.total_s": sum((s[5] - s[4] for s in spans if s[2] == "search"), 0.0),
        "search.nodes": sum(s[6]["nodes"] for s in spans if s[2] == "search"),
        "search.adversary_calls": sum(1 for s in spans if s[2] == "search.adversary"),
        "search.yield": (sum(1 for s in in_search if s[6]["status"] == "optimal")
                         / len(in_search) if in_search else 0.0),
        "certify.total_s": sum((s[5] - s[4] for s in spans if s[2] == "certify"), 0.0),
        "certify.atoms": sum(s[6]["atoms"] for s in spans
                             if s[2] == "certify.adversary"),
    })
    out["sdp.s_per_iter"] = out["sdp.solve_s"] / out["sdp.iters"] if out["sdp.iters"] else 0.0
    return out


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes (counters repeat, so theirs is exact)."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
