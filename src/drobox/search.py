"""Search drivers for the variable-box models built by assemble_case2.

Two independent routes to the same answer.  solve_bnb runs branch and
bound on the box membership binaries: every node solves the SDP
relaxation for a bound, a rounding heuristic probes integral candidates,
and jump binaries are never branched on (once both endpoints of a lattice
step are decided, the jump pair follows by propagation; equal endpoints
take the no-jump pair, which is feasible whenever the wasteful double
jump is).  enumerate_boxes is an exact oracle for tiny instances: it
walks lattice-aligned candidate boxes, as lattice index pairs, in
nondecreasing bound order and screens each with one measure pool: a
candidate falls when some held lattice measure gives it an expected
value below b + margin (weak duality).  The pool starts with a point
mass on every feasible lattice atom.  A candidate that passes gets its
own adversary measure program solved first (a value below b + margin
rules it out, and its measure joins the pool), and the fixed SDP of the
survivors is solved honestly; the first candidate whose true objective
beats every open bound is optimal.  run_search dispatches on
SearchOptions.mode, "bnb" or "enumerate".

Progress goes to the drobox.search logger as machine-parseable key=value
lines: node=, bound=, incumbent=, gap= (all in minimization scale).
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assemble import (
    AssembledModel,
    canonical_assignment,
    decode_box,
    decode_duals,
    implied_jumps,
)
from .certify import adversary_problem
from .model import BoxRegion, Decision, DualSolution, WholeDomain
from .sdp import SdpSolution, SolveOptions, solve_sdp

LOG = logging.getLogger("drobox.search")

_INTEGRAL_TOL = 1e-6


@dataclass(frozen=True)
class SearchOptions:
    """Knobs shared by both search drivers.

    node_limit counts SDP relaxation solves in solve_bnb and candidates
    that reach a solve in enumerate_boxes.  gap_tol is an absolute gap on
    the objective; 0 demands a full proof.
    """

    mode: str = "bnb"
    node_limit: int = 100_000
    time_limit: float = 3600.0
    gap_tol: float = 0.0

    def __post_init__(self):
        if self.mode not in ("bnb", "enumerate"):
            raise ValueError("mode must be bnb or enumerate")
        if self.gap_tol < 0:
            raise ValueError("gap_tol must be >= 0")
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class Incumbent:
    """Best solution a search run produced, plus how much it proved.

    objective follows the model's stated sense; for an infeasible model it
    is +inf when minimizing and -inf when maximizing.  boxes contains one
    BoxRegion per simple-function box (the width-0 origin sentinel stands
    in for an unused box).  dual_vars holds the (Y1, Y2, y) values of the
    fixed SDP that certified the incumbent; they satisfy every assembled
    row with the incumbent binaries substituted.  proof is "optimal",
    "gap-limit" or "resource-limit"; status is "solved",
    "infeasible-model" or "unknown" (resource limit hit before any
    conclusion).
    """

    objective: float
    boxes: tuple
    dual_vars: Optional[DualSolution]
    node_count: int
    wall_time: float
    proof: str
    status: str


def root_relaxation(model: AssembledModel,
                    options: Optional[SolveOptions] = None) -> SdpSolution:
    """Solve the model with every binary relaxed to [0, 1]."""
    return solve_sdp(model.program.relax_binaries(), options)


# ---------------------------------------------------------------------------
# Shared helpers


def _require_variable(model: AssembledModel):
    if model.case != "variable":
        raise TypeError("search drivers need a variable-mode model")


def _bt_names(model: AssembledModel) -> list:
    return ["bt[%d,%d]" % (i, f)
            for i in range(model.fn.k) for f in range(model.lattice.n_points)]


def _decode_quiet(values: dict, model: AssembledModel) -> tuple:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tuple(decode_box(values, model))


def _quantum_ceil(value: float, quantum) -> float:
    if quantum is None or not math.isfinite(value):
        return value
    return math.ceil(value / quantum - 1e-9) * quantum


class _BestCell:
    """Monotone incumbent store in minimization scale."""

    def __init__(self):
        self.scaled = math.inf
        self.objective = math.nan
        self.boxes = ()
        self.duals = None

    @property
    def have(self) -> bool:
        return math.isfinite(self.scaled)

    def offer(self, scaled: float, objective: float, boxes: tuple,
              duals: DualSolution) -> bool:
        if scaled >= self.scaled - 1e-12:
            return False
        self.scaled = scaled
        self.objective = objective
        self.boxes = boxes
        self.duals = duals
        return True


# ---------------------------------------------------------------------------
# Branch and bound


def solve_bnb(model: AssembledModel, opts: Optional[SearchOptions] = None) -> Incumbent:
    """Branch-and-bound over membership binaries with SDP node relaxations.

    Node selection is best-bound with depth-first plunging; ties break on
    insertion order, which follows lattice index order.  Only bt variables
    are branched; jump binaries come from implied_jumps.  Limits never
    raise: the incumbent is returned with proof "resource-limit".
    """
    _require_variable(model)
    opts = opts or SearchOptions()
    t0 = time.perf_counter()
    program = model.program
    sgn = 1.0 if program.obj_sense == "min" else -1.0
    quantum = model.objective_quantum
    bt_names = _bt_names(model)
    grid_slack = (quantum - 1e-9) if quantum else 1e-12

    best = _BestCell()
    node_count = 0
    hit_limit = False
    gap_pruned = [False]
    counter = itertools.count()
    heap = []  # (scaled bound, seq, fixed bt dict)
    stack = []  # plunge pile, same tuples, LIFO
    tried = set()

    def global_bound(extra: float) -> float:
        vals = [extra]
        if heap:
            vals.append(heap[0][0])
        vals.extend(entry[0] for entry in stack)
        return min(vals)

    def log_progress(level: int, extra_bound: float):
        bound = global_bound(extra_bound)
        inc = best.scaled if best.have else math.inf
        LOG.log(level, "node=%d bound=%.9g incumbent=%.9g gap=%.9g",
                node_count, bound, inc, max(inc - bound, 0.0))

    def try_assignment(bt_values: dict) -> bool:
        """Fix a full binary assignment and offer the honest solve."""
        key = frozenset(name for name in bt_names if bt_values[name] > 0.5)
        if key in tried:
            return False
        tried.add(key)
        assign = dict(bt_values)
        assign.update(implied_jumps(bt_values, model))
        sol = solve_sdp(program.fix_binaries(assign))
        if sol.status != "optimal":
            return False
        accepted = best.offer(sgn * sol.objective, sol.objective,
                              _decode_quiet(assign, model), decode_duals(sol, model))
        if accepted:
            log_progress(logging.INFO, math.inf)
        return accepted

    def membership(fixed: dict, values: dict, name: str) -> float:
        if name in fixed:
            return fixed[name]
        return float(np.clip(values.get(name, 0.0), 0.0, 1.0))

    def round_to_boxes(fixed: dict, values: dict, theta: float) -> dict:
        """Bounding rectangle of each box's relaxed support above theta."""
        lattice = model.lattice
        out = {}
        for i in range(model.fn.k):
            member = np.array([membership(fixed, values, "bt[%d,%d]" % (i, f))
                               for f in range(lattice.n_points)])
            sel = np.nonzero(member > theta)[0]
            chosen = np.zeros(lattice.n_points, dtype=bool)
            if sel.size:
                multis = np.array(np.unravel_index(sel, lattice.shape)).T
                lo, hi = multis.min(axis=0), multis.max(axis=0)
                all_multis = np.array(
                    np.unravel_index(np.arange(lattice.n_points), lattice.shape)).T
                chosen = np.all((all_multis >= lo) & (all_multis <= hi), axis=1)
            for f in range(lattice.n_points):
                out["bt[%d,%d]" % (i, f)] = 1.0 if chosen[f] else 0.0
        return out

    def prunable(bound: float) -> bool:
        if not best.have:
            return False
        if bound >= best.scaled - grid_slack:
            return True
        if bound >= best.scaled - opts.gap_tol:
            gap_pruned[0] = True
            return True
        return False

    def pick_branch(fixed: dict, values: dict):
        fracs = {}
        for name in bt_names:
            if name in fixed:
                continue
            v = membership(fixed, values, name)
            frac = min(v, 1.0 - v)
            if frac > _INTEGRAL_TOL:
                fracs[name] = frac
        if not fracs:
            return None
        lattice = model.lattice
        best_line, best_mass = None, 0.0
        for i in range(model.fn.k):
            for j in range(lattice.dim):
                for line in lattice.lines(j):
                    members = ["bt[%d,%d]" % (i, f) for f in line]
                    mass = sum(fracs.get(n, 0.0) for n in members)
                    if mass > best_mass + 1e-15:
                        best_mass = mass
                        best_line = members
        return max(best_line, key=lambda n: (fracs.get(n, 0.0), -bt_names.index(n)))

    # A cheap honest start: all boxes spanning the whole domain.
    try_assignment({name: 1.0 for name in bt_names})

    heapq.heappush(heap, (-math.inf, next(counter), {}))
    while heap or stack:
        if node_count >= opts.node_limit or time.perf_counter() - t0 > opts.time_limit:
            hit_limit = True
            break
        entry = stack.pop() if stack else heapq.heappop(heap)
        bound0, _, fixed = entry
        if prunable(bound0):
            continue
        node_count += 1
        derived = implied_jumps(fixed, model)
        sol = solve_sdp(program.relax_binaries({**fixed, **derived}))
        if sol.status == "infeasible":
            log_progress(logging.DEBUG, math.inf)
            continue
        if sol.status == "optimal":
            bound = max(bound0, _quantum_ceil(sgn * sol.objective, quantum))
            values = sol.primal
        else:
            bound = bound0  # keep the inherited bound; explore blind
            values = None
        if prunable(bound):
            log_progress(logging.DEBUG, math.inf)
            continue
        unfixed = [n for n in bt_names if n not in fixed]
        if values is not None:
            for theta in (0.5, 1e-3):
                try_assignment(round_to_boxes(fixed, values, theta))
            if prunable(bound):
                log_progress(logging.DEBUG, math.inf)
                continue
            branch_var = pick_branch(fixed, values)
            if branch_var is None:
                rounded = {n: (fixed[n] if n in fixed else
                               (1.0 if membership(fixed, values, n) >= 0.5 else 0.0))
                           for n in bt_names}
                try_assignment(rounded)
                if not (best.have and best.scaled <= bound + 1e-6) and unfixed:
                    branch_var = unfixed[0]  # integral node failed its honest solve
                else:
                    log_progress(logging.DEBUG, bound)
                    continue
            prefer = 1.0 if membership(fixed, values, branch_var) >= 0.5 else 0.0
        else:
            if not unfixed:
                log_progress(logging.DEBUG, math.inf)
                continue
            branch_var = unfixed[0]
            prefer = 1.0
        other = dict(fixed)
        other[branch_var] = 1.0 - prefer
        heapq.heappush(heap, (bound, next(counter), other))
        plunge = dict(fixed)
        plunge[branch_var] = prefer
        stack.append((bound, next(counter), plunge))
        log_progress(logging.DEBUG, bound)

    wall = time.perf_counter() - t0
    if best.have:
        if hit_limit and (heap or stack):
            proof = "resource-limit"
        elif gap_pruned[0]:
            proof = "gap-limit"
        else:
            proof = "optimal"
        return Incumbent(best.objective, best.boxes, best.duals,
                         node_count, wall, proof, "solved")
    if hit_limit:
        return Incumbent(sgn * math.inf, (), None, node_count, wall,
                         "resource-limit", "unknown")
    return Incumbent(sgn * math.inf, (), None, node_count, wall,
                     "optimal", "infeasible-model")


# ---------------------------------------------------------------------------
# Exact enumeration for tiny instances


class _MeasurePool:
    """Lattice measures that rule candidate boxes out without a solve.

    Summing the assembled lattice rows with the weights of any measure in
    the discrete ambiguity family, and dropping the PSD and sign terms,
    shows every feasible candidate must give the measure expected value
    at least b + margin.  Candidates falling short for any held measure
    are infeasible.  The pool starts with a point mass on each lattice
    atom that is a feasible measure on its own, and grows by the
    adversary measures enumerate_boxes solves for.

    Each measure is held as one row of grids: its zero-padded prefix-sum
    grid, flattened.  The mass of a lattice box is then a signed sum over
    its 2^m padded corners (inclusion-exclusion), for all measures at once.
    """

    def __init__(self, model: AssembledModel):
        spec = model.spec
        lattice = model.lattice
        self.shape = lattice.shape
        self.heights = np.asarray(model.fn.heights, dtype=float)
        self.threshold = spec.b + model.margin - 1e-7
        d = lattice.points - spec.mu
        dist = np.einsum("ni,ij,nj->n", d, np.linalg.inv(spec.sigma), d)
        ok = dist <= min(spec.eps_mu, spec.eps_sigma) + 1e-12
        for cs in spec.confidence_sets:
            if isinstance(cs.region, WholeDomain):
                continue
            inside = np.asarray(cs.region.contains(lattice.points), dtype=bool)
            if cs.eps > 0:
                ok &= inside
            elif -cs.eps < 1.0:
                ok &= ~inside
        # corner u picks the lower end (sign -1) or one past the upper end
        # (sign +1) per axis
        self.picks = list(itertools.product((0, 1), repeat=lattice.dim))
        self.signs = np.array([math.prod(1.0 if u else -1.0 for u in pick)
                               for pick in self.picks])
        self.grids = self._prefix(np.eye(lattice.n_points)[ok])

    def _prefix(self, weights) -> np.ndarray:
        grid = np.asarray(weights, dtype=float).reshape((-1,) + self.shape)
        for ax in range(1, grid.ndim):
            grid = np.cumsum(grid, axis=ax)
        grid = np.pad(grid, [(0, 0)] + [(1, 0)] * len(self.shape))
        return grid.reshape(grid.shape[0], math.prod(grid.shape[1:]))

    def add(self, weights: np.ndarray):
        self.grids = np.vstack([self.grids, self._prefix(weights)])

    def corners(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Flat padded-grid indices of the corners of boxes, in signs order.

        lo and hi are (n, m) axis indices of the lower and upper corners.
        The empty box lo = 0, hi = -1 puts every corner on the zero pad.
        """
        ends = (lo, hi + 1)
        padded = tuple(n + 1 for n in self.shape)
        return np.stack(
            [np.ravel_multi_index(tuple(ends[u][:, j] for j, u in enumerate(pick)), padded)
             for pick in self.picks], axis=1)

    def ruled_out(self, corners) -> bool:
        """Whether some measure gives these boxes, one corners row per
        height, an expected value below the threshold."""
        value = sum(h * (self.grids[:, c] @ self.signs)
                    for h, c in zip(self.heights, corners))
        return bool(np.any(value < self.threshold))


def _candidate_stream(model: AssembledModel, i: int, sgn: float) -> tuple:
    """All candidate boxes for one index, sorted by optimistic bound.

    Returns (bound, lo, hi): the scaled bound of each candidate and the
    (n, m) axis indices of its lower and upper corners.  The empty box is
    lo = 0, hi = -1; it sorts first among equal bounds, and other ties
    break on (lo, hi) in lexicographic order.  For the width-sum
    objective the bound is exact.  Under an explicit corner objective the
    empty box leaves its corner variables anywhere in the feasible
    triangle 0 <= lo <= hi <= edge, so its bound takes the best corner.
    """
    lattice = model.lattice
    mode = model.fn.mode
    axis = lattice.axis
    m = lattice.dim
    first, last = np.triu_indices(lattice.n_axis)
    combo = np.indices((first.size,) * m).reshape(m, -1).T
    lo = np.vstack([np.zeros((1, m), dtype=int), first[combo]])
    hi = np.vstack([np.full((1, m), -1), last[combo]])
    total = 0.0
    if mode.width_sum:
        for j in range(m):
            total = total + (axis[hi[1:, j]] - axis[lo[1:, j]])
        bound = np.concatenate([[0.0], total])
    else:
        cm = np.atleast_2d(mode.c_minus)[i]
        cp = np.atleast_2d(mode.c_plus)[i]
        edge = lattice.edge
        empty = sum(min(sgn * (cm[j] * a + cp[j] * b)
                        for a, b in ((0.0, 0.0), (0.0, edge), (edge, edge)))
                    for j in range(m))
        for j in range(m):
            total = total + (cm[j] * axis[lo[1:, j]] + cp[j] * axis[hi[1:, j]])
        bound = np.concatenate([[float(empty)], sgn * total])
    is_box = np.arange(bound.size) > 0
    keys = [hi[:, j] for j in reversed(range(m))] + [lo[:, j] for j in reversed(range(m))]
    order = np.lexsort(keys + [is_box, bound])
    return bound[order], lo[order], hi[order]


def _box_at(lattice, stream, n: int):
    _, lo, hi = stream
    if hi[n, 0] < lo[n, 0]:
        return None
    return BoxRegion(lattice.axis[lo[n]], lattice.axis[hi[n]])


def enumerate_boxes(model: AssembledModel,
                    opts: Optional[SearchOptions] = None) -> Incumbent:
    """Exact search over lattice-aligned boxes for tiny instances.

    Candidates stream in nondecreasing bound order from a lazy product
    heap, as lattice index pairs; a BoxRegion is built only for one that
    reaches a solve.  A candidate the measure pool (seeded with the
    feasible point masses) does not rule out gets its adversary measure
    program solved on the assembly lattice first: a
    measure whose expected value falls below b + margin proves the fixed
    SDP infeasible by weak duality, and joins the pool.  Every other
    candidate is fixed through canonical_assignment and solved honestly;
    that optimal solve is the proof of feasibility and supplies the
    duals.  Feasible candidates re-enter the heap keyed by their true
    objective, so popping one proves optimality.  node_count reports the
    candidates that reached a solve.
    """
    _require_variable(model)
    opts = opts or SearchOptions()
    lattice = model.lattice
    k = model.fn.k
    if k > 2 or lattice.dim > 2 or lattice.n_axis > 26:
        raise ValueError(
            "instance-too-large: enumerate_boxes handles k <= 2, m <= 2 "
            "and at most 26 lattice points per axis")
    t0 = time.perf_counter()
    sgn = 1.0 if model.program.obj_sense == "min" else -1.0
    streams = [_candidate_stream(model, i, sgn) for i in range(k)]
    pool = _MeasurePool(model)
    corners = [pool.corners(lo, hi) for _, lo, hi in streams]
    bounds = [bound.tolist() for bound, _, _ in streams]
    counter = itertools.count()

    heap = []
    start = (0,) * k
    heapq.heappush(heap, (sum(bounds[i][0] for i in range(k)), 1,
                          next(counter), start))
    seen = {start}
    solves = 0
    hit_limit = False
    unknown_best = math.inf
    best = _BestCell()

    def finish(objective, boxes, duals):
        proof = "optimal" if unknown_best >= sgn * objective - 1e-9 else "gap-limit"
        LOG.info("node=%d bound=%.9g incumbent=%.9g gap=0",
                 solves, sgn * objective, sgn * objective)
        return Incumbent(objective, boxes, duals, solves,
                         time.perf_counter() - t0, proof, "solved")

    while heap:
        if solves >= opts.node_limit or time.perf_counter() - t0 > opts.time_limit:
            hit_limit = True
            break
        bound, flag, _, payload = heapq.heappop(heap)
        if flag == 0:
            return finish(*payload)
        if best.have and bound >= best.scaled - 1e-9:
            # every open candidate is bounded below by this pop
            return finish(best.objective, best.boxes, best.duals)
        for i in range(k):
            nxt = payload[:i] + (payload[i] + 1,) + payload[i + 1:]
            if nxt[i] < len(bounds[i]) and nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (sum(bounds[i][nxt[i]] for i in range(k)),
                                      1, next(counter), nxt))
        if pool.ruled_out([corners[i][payload[i]] for i in range(k)]):
            continue
        solves += 1
        boxes = [_box_at(lattice, streams[i], payload[i]) for i in range(k)]
        nonempty = [(h, b) for h, b in zip(model.fn.heights, boxes) if b is not None]
        if nonempty:
            decision = Decision(np.array([h for h, _ in nonempty]),
                                tuple(b for _, b in nonempty))
            _, value, weights = adversary_problem(decision, model.spec, lattice)
            if value < pool.threshold:  # a stalled solve's nan rules nothing out
                pool.add(weights)
                continue
        assign = canonical_assignment(boxes, model)
        sol = solve_sdp(model.program.fix_binaries(assign))
        if sol.status == "optimal":
            scaled = sgn * sol.objective
            decoded = tuple(b if b is not None
                            else BoxRegion(np.zeros(lattice.dim), np.zeros(lattice.dim))
                            for b in boxes)
            duals = decode_duals(sol, model)
            best.offer(scaled, sol.objective, decoded, duals)
            heapq.heappush(heap, (max(scaled, bound), 0, next(counter),
                                  (sol.objective, decoded, duals)))
            LOG.info("node=%d bound=%.9g incumbent=%.9g gap=%.9g",
                     solves, bound, best.scaled, max(best.scaled - bound, 0.0))
        elif sol.status != "infeasible":
            unknown_best = min(unknown_best, bound)

    wall = time.perf_counter() - t0
    if best.have:
        return Incumbent(best.objective, best.boxes, best.duals, solves, wall,
                         "resource-limit", "solved")
    if hit_limit:
        return Incumbent(sgn * math.inf, (), None, solves, wall,
                         "resource-limit", "unknown")
    if math.isfinite(unknown_best):
        return Incumbent(sgn * math.inf, (), None, solves, wall,
                         "gap-limit", "unknown")
    return Incumbent(sgn * math.inf, (), None, solves, wall,
                     "optimal", "infeasible-model")


# ---------------------------------------------------------------------------
# Driver


def run_search(model: AssembledModel,
               opts: Optional[SearchOptions] = None) -> Incumbent:
    """Run the search opts.mode names: solve_bnb or enumerate_boxes."""
    opts = opts or SearchOptions()
    if opts.mode == "enumerate":
        return enumerate_boxes(model, opts)
    return solve_bnb(model, opts)
