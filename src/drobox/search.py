"""Search drivers for a SearchInstance: spec, function, lattice, margin.

The instance is the one owner of the search objective: its sense, quantum,
scaled corner costs and each height's empty-box bound, computed once.  The
drivers never build assemble_case2's mixed-binary program.  Two independent
routes to the same answer, built from the same proof steps.  One pool of
lattice measures screens sets of boxes: a set falls when some held measure
gives it an expected value below b + margin (weak duality).  The pool starts
with a point mass on every feasible lattice atom (Pricer.point_masses), read
off one count grid.  Callers hand it the lattice index corners (lo, hi) of
each box, and only the pool knows how its measures are stored.  A set of
boxes that passes gets its own adversary measure program solved, each
distinct master once (by the instance's one certify.Pricer): a value below
b + margin rules it out, and its measure joins the pool; otherwise the final
master's duals, checked against every lattice row and the threshold row,
prove it feasible.  A master's value is the expectation of its measure
repaired into the ambiguity family (certify.Pricer.repair), and it stops
at the first interior-point iterate whose repaired value falls below the
threshold ("stopped", exit=stopped on the drobox.sdp summary line).  So
the threshold is b + margin exactly, and every measure that rules a set
out is a member of the family and joins the pool.

Both drivers run one best-first loop, which owns the limits, the pruning
by the objective quantum and gap_tol, the incumbent and the proof; they
differ only in how a batch of nodes, those tied at the best bound up to
the first leaf, expands.  enumerate_boxes, an exact oracle for
tiny instances, sorts every candidate set of lattice-aligned boxes
(lattice index pairs) by bound, equal bounds in lexicographic order of
their stream positions read from the last height, and screens the list
against the pool in blocks: only a candidate the pool keeps is popped,
and its one child is the next kept candidate.  The pool only grows, so
a candidate it rules out never pops and never bounds the proof; each of
its batches is one candidate.  solve_bnb is efficient subwindow search: a
node holds, per height, either the empty box or an interval of lattice
indices for each corner coordinate, and expands by halving its widest
interval.  Heights are positive, so the node's outer box has its largest
expectation under every measure, and one pool screen of it drops the
whole node.  A batch is one integer array: one screen, one halving and
one bound pass serve all its nodes, and the open nodes wait in the heap
as arrays of equal bound.  run_search dispatches on SearchOptions.mode.

Progress goes to the drobox.search logger as machine-parseable key=value
lines: node=, bound=, incumbent=, gap= (all in minimization scale).
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .certify import Pricer, adversary_problem
from .model import AmbiguitySpec, Decision, DualSolution, Lattice, SimpleFunctionSpec, VariableBoxes
# uncalled: perfbench/tracer.py wraps solve_sdp here until that hook moves (ROADMAP item 1)
from .sdp import solve_sdp

LOG = logging.getLogger("drobox.search")


@dataclass(frozen=True)
class SearchOptions:
    """Knobs of the search drivers.

    node_limit counts, in either driver, the sets of boxes that pass the
    measure pool and reach a solve of their adversary measure program.
    gap_tol is an absolute gap on the objective that lets either driver
    stop early, with proof "gap-limit"; 0 demands a full proof.
    """

    mode: str = "bnb"
    node_limit: int = 100_000
    time_limit: float = 3600.0
    gap_tol: float = 0.0

    def __post_init__(self):
        if self.mode not in ("bnb", "enumerate"):
            raise ValueError("mode must be bnb or enumerate")
        # written so that NaN fails each test and +inf passes
        if not self.gap_tol >= 0:
            raise ValueError("gap_tol must be >= 0")
        if not self.node_limit >= 1:
            raise ValueError("node_limit must be >= 1")
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class Incumbent:
    """Best solution a search run produced, plus how much it proved.

    objective follows the mode's objective sense; for an infeasible model
    it is +inf when minimizing and -inf when maximizing.  boxes holds one
    BoxRegion per simple-function box, or None for an empty one.
    dual_vars holds the incumbent's checked measure-master duals (Y1, Y2,
    y): PSD, nonnegative, every lattice row at the margin and the
    threshold row to within 1e-9.  proof is "optimal",
    "gap-limit" or "resource-limit"; status is "solved",
    "infeasible-model" or "unknown" (resource limit hit before any
    conclusion).
    """

    objective: float
    boxes: tuple
    dual_vars: Optional[DualSolution]
    node_count: int
    proof: str
    status: str


@dataclass(frozen=True, eq=False)
class SearchInstance:
    """A variable-box instance as the search drivers read it.

    margin is the right-hand side of every lattice row, and pricer the measure
    program of the lattice (certify.Pricer), built once.  sgn is +1 when the
    mode's objective is minimized and -1 when maximized; the drivers minimize
    sgn times the objective.  quantum is the lattice step when every objective
    value is a multiple of it (the width sum without user constraints), else None.
    corner_costs holds the scaled (k, m) objective coefficients of the lower and
    upper corners (the width sum is -1 on lower and +1 on upper corners), and
    empty_bounds each height's scaled objective of an empty box: its corners
    float in 0 <= lo <= hi <= edge, so each axis takes the best of (0, 0),
    (0, edge) and (edge, edge).
    """

    spec: AmbiguitySpec
    fn: SimpleFunctionSpec
    lattice: Lattice
    margin: float
    pricer: Pricer = field(init=False, repr=False)
    sgn: float = field(init=False)
    quantum: Optional[float] = field(init=False)
    corner_costs: tuple = field(init=False, repr=False)
    empty_bounds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        mode = self.fn.mode
        if not isinstance(mode, VariableBoxes):
            raise TypeError("search drivers need a VariableBoxes decision mode")
        if np.any(self.fn.heights <= 0.0):
            raise ValueError("variable mode requires strictly positive heights")
        object.__setattr__(self, "pricer", Pricer(self.spec, self.lattice.points))
        object.__setattr__(self, "sgn", 1.0 if mode.objective_sense == "min" else -1.0)
        object.__setattr__(self, "quantum", self.lattice.delta
                           if mode.width_sum and not mode.constraints else None)
        ones = np.ones((self.fn.k, self.lattice.dim))
        costs = (-ones, ones) if mode.width_sum else (self.sgn * mode.c_minus, self.sgn * mode.c_plus)
        object.__setattr__(self, "corner_costs", costs)
        object.__setattr__(self, "empty_bounds", tuple(
            float(np.sum(np.minimum(0.0, np.minimum(cp, cm + cp) * self.lattice.edge)))
            for cm, cp in zip(*costs)))


# ---------------------------------------------------------------------------
# Shared helpers


_SCREEN_BUDGET = 1 << 18  # array elements per screen: 2 MB of corner masses
_GRID_SETUP = 1 << 12  # a count-grid seed screen's fixed cost per box, in atom comparisons


def _quantum_ceil(value: np.ndarray, quantum) -> np.ndarray:
    """value rounded up, elementwise, to a multiple of quantum (None: unchanged)."""
    if quantum is None:
        return value
    return np.ceil(value / quantum - 1e-9) * quantum


def _padded_prefix(values: np.ndarray, shape: tuple) -> np.ndarray:
    """The zero-padded prefix-sum grid of values on a lattice, flattened."""
    grid = np.reshape(values, shape)
    for ax in range(grid.ndim):
        grid = np.cumsum(grid, axis=ax)
    return np.pad(grid, [(1, 0)] * grid.ndim).ravel()


class _MeasurePool:
    """Lattice measures that rule sets of boxes out without a solve.

    Summing the lattice rows with the weights of any measure in
    the discrete ambiguity family, and dropping the PSD and sign terms,
    shows every feasible set of boxes must give the measure expected
    value at least b + margin.  Sets falling short for any held measure
    are infeasible.  The pool starts with a point mass on each lattice
    atom that is a feasible measure on its own, and grows by the
    adversary measures the search drivers solve for.

    The seed is atoms, the (n_atoms, m) lattice indices of its point masses,
    and counts, their padded prefix-count grid.  A set's seed value is the
    least height sum over the membership patterns some atom realizes, tested
    atom by atom or counted by inclusion-exclusion over the 2^k box
    intersections at their 2^m padded corners, whichever costs a screen less
    (atom_cost and grid_cost a set, in atom comparisons, and _GRID_SETUP).
    Each added measure is a row of added, its padded prefix-sum grid.
    """

    def __init__(self, inst: SearchInstance):
        lattice = inst.lattice
        self.shape = lattice.shape
        self.threshold = inst.spec.b + inst.margin
        ok = inst.pricer.point_masses()
        self.atoms = np.argwhere(ok.reshape(self.shape))
        self.counts = _padded_prefix(ok.astype(np.int64), self.shape)
        self.heights = np.asarray(inst.fn.heights, dtype=float)
        k, m = len(self.heights), lattice.dim
        # n_atoms k m comparisons, or 2^k (2^m + k m) grid operations at two comparisons each
        self.atom_cost, self.grid_cost = len(self.atoms) * k * m, 2 * 2 ** k * (2 ** m + k * m)
        # corner u picks per axis the lower end (sign -1) or one past the upper end (sign +1);
        # weights holds height times sign, per height and then per corner
        self.picks = np.array(list(itertools.product((0, 1), repeat=m)))
        self.signs = np.prod(np.where(self.picks, 1, -1), axis=1)
        self.weights = np.kron(self.heights, self.signs)
        padded = [n + 1 for n in self.shape]
        self.strides = np.array([math.prod(padded[j + 1:]) for j in range(m)])
        self.added = np.empty((0, math.prod(padded)))
        self.n_added = 0

    def add(self, weights: np.ndarray):
        if self.n_added == len(self.added):
            grown = np.empty((2 * len(self.added) + 1, self.added.shape[1]))
            grown[:self.n_added] = self.added
            self.added = grown
        self.added[self.n_added] = _padded_prefix(np.asarray(weights, dtype=float), self.shape)
        self.n_added += 1

    def block(self) -> int:
        """How many sets of boxes one screen takes: _SCREEN_BUDGET array elements, each set
        taking the cheaper seed cost, k 2^m corners and their masses under each added measure."""
        per_set = min(self.atom_cost, self.grid_cost) + self.weights.size * (self.n_added + 1)
        return max(1, _SCREEN_BUDGET // per_set)

    def _corners(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Flat padded corners (..., 2^m) of boxes with index corners lo, hi."""
        return (lo @ self.strides)[..., None] + ((hi + 1 - lo) * self.strides) @ self.picks.T

    def _atom_seed(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The seed's least value for each set, atom by atom."""
        inside = np.all((lo[:, :, None] <= self.atoms) & (self.atoms <= hi[:, :, None]), axis=-1)
        return (self.heights @ inside.reshape(len(self.heights), -1)).reshape(
            inside.shape[1:]).min(axis=1, initial=np.inf)

    def _grid_seed(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The seed's least value for each set, from the count grid."""
        # pattern q holds box i in bit i: its height sum and the corners of its boxes' intersection
        h_q, lo_q = np.zeros(1), np.zeros_like(lo[:1])
        hi_q = np.zeros_like(hi[:1]) + self.shape - 1
        for i, h in enumerate(self.heights):
            h_q, lo_q = np.append(h_q, h_q + h), np.concatenate([lo_q, np.maximum(lo_q, lo[i])])
            hi_q = np.concatenate([hi_q, np.minimum(hi_q, hi[i])])
        # atoms in every box of q (an empty intersection holds none), then in exactly those boxes
        exact = self.counts[self._corners(lo_q, np.maximum(hi_q, lo_q - 1))] @ self.signs
        for i in range(len(self.heights)):
            pair = exact.reshape(2 ** i, 2, -1)
            pair[:, 0] -= pair[:, 1]
        return np.where(exact > 0, h_q[:, None], np.inf).min(axis=0)

    def ruled_out(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whether some measure gives each set of boxes an expected value
        below the threshold.

        lo and hi are (k, n, m): per height, the lattice indices of the
        lower and upper corners of n sets of boxes; the empty box is
        lo = 0, hi = -1.  Returns n verdicts, screened a block() of sets
        at a time.
        """
        n = lo.shape[1]
        lowest = np.empty(n)
        step = self.block()
        by_grid = n * (self.atom_cost - self.grid_cost) >= _GRID_SETUP * len(self.heights)
        seed = self._grid_seed if by_grid else self._atom_seed
        for start in range(0, n, step):
            los, his = lo[:, start:start + step], hi[:, start:start + step]
            # padded corners of every box, in weights order
            c = self._corners(los, his)
            c = c.transpose(1, 0, 2).reshape(c.shape[1], -1)
            lowest[start:start + step] = np.minimum(
                seed(los, his),
                (self.added[:self.n_added, c] @ self.weights).min(axis=0, initial=np.inf))
        return lowest < self.threshold


def _box_bounds(inst: SearchInstance, i, a, b, c, d):
    """Scaled objective bound of height i's box over lo in [a, b], hi in [c, d].

    a, b, c and d are corner coordinates, arrays of shape (..., m), or
    (..., k, m) when i is slice(None), for every height's box at once.
    Each corner term takes the better end of its interval, and a width is
    at least 0.  With a = b and c = d this is the box's exact objective.
    """
    cm, cp = inst.corner_costs
    term = np.minimum(cm[i] * a, cm[i] * b) + np.minimum(cp[i] * c, cp[i] * d)
    if inst.fn.mode.width_sum:
        term = np.maximum(term, 0.0)
    return np.sum(term, axis=-1)


def _leaf_objective(inst: SearchInstance, boxes: list):
    """Scaled objective of a set of boxes, or None when no corner choice
    meets the user constraints.

    A nonempty box has its lattice corners, and an empty one (None) takes
    its best corners (inst.empty_bounds).  Under user constraints one LP over
    all corners, those of nonempty boxes pinned, decides both.
    """
    mode = inst.fn.mode
    k, m = inst.fn.k, inst.lattice.dim
    if not mode.constraints:
        return sum(inst.empty_bounds[i] if box is None
                   else float(_box_bounds(inst, i, box.lower, box.lower, box.upper, box.upper))
                   for i, box in enumerate(boxes))
    from scipy.optimize import milp

    lower = np.zeros((2, k, m))
    upper = np.full((2, k, m), inst.lattice.edge)
    for i, box in enumerate(boxes):
        if box is not None:
            lower[:, i] = upper[:, i] = box.lower, box.upper
    cons = mode.constraints
    rows = np.vstack([np.hstack([np.eye(k * m), -np.eye(k * m)])]  # lo <= hi
                     + [con.coeffs for con in cons])
    row_lo = [-np.inf] * (k * m) + [-np.inf if con.sense == "<=" else con.rhs for con in cons]
    row_hi = [0.0] * (k * m) + [np.inf if con.sense == ">=" else con.rhs for con in cons]
    res = milp(np.concatenate([np.ravel(c) for c in inst.corner_costs]),
               bounds=(lower.ravel(), upper.ravel()), constraints=(rows, row_lo, row_hi))
    return float(res.fun) if res.status == 0 else None


def _solve_candidate(inst: SearchInstance, boxes: list, pool: _MeasurePool) -> tuple:
    """Decide one set of boxes, a BoxRegion or None (empty) per height.

    Boxes whose corners no choice fits to the user constraints are
    "infeasible" without a solve.  Otherwise their adversary measure
    program is solved on the assembly lattice, with the pool's threshold.
    Its value is the expectation of its measure repaired into the
    ambiguity family (certify.adversary_problem), whether the master
    stopped on an iterate or converged.  A value below the threshold
    rules the boxes out ("infeasible"), and the measure joins the pool.
    Else the final master's duals, whose lattice rows hold at the margin,
    prove them feasible ("optimal") once their threshold row holds to
    within 1e-9.  A stalled program, a short threshold row, or a value
    below the threshold with no anchor to repair the measure leaves them
    "unresolved".  Returns (status, found): found is (objective, boxes,
    duals) when "optimal".
    """
    scaled = _leaf_objective(inst, boxes)
    if scaled is None:
        return "infeasible", None
    status, value, weights, duals = adversary_problem(
        Decision.nonempty(inst.fn.heights, boxes), inst.spec, inst.lattice,
        stop_below=pool.threshold, margin=inst.margin, price=inst.pricer)
    if status not in ("optimal", "stopped"):
        return "unresolved", None
    if value < pool.threshold:
        if weights is None:  # no anchor, so no member of the family to show
            return "unresolved", None
        pool.add(weights)
        return "infeasible", None
    if duals.dual_objective() < inst.spec.b - 1e-9:
        return "unresolved", None
    return "optimal", (inst.sgn * scaled, tuple(boxes), duals)


def _log_progress(level: int, nodes: int, bound: float, incumbent: float):
    LOG.log(level, "node=%d bound=%.9g incumbent=%.9g gap=%.9g",
            nodes, bound, incumbent, max(incumbent - bound, 0.0))


def _best_first(inst: SearchInstance, pool: _MeasurePool, roots: list, expand,
                opts: SearchOptions, t0: float, seed: Optional[tuple] = None) -> Incumbent:
    """The best-first loop both search drivers run.

    roots and the children expand(batch) returns are (bound, group, leaf)
    triples, bounds in minimization scale: group holds nodes that share the
    bound, in push order, and leaf says that its last node may hold a set
    of boxes to decide (no other node of it does).  Nodes pop best bound
    first, ties in push order.  One pop takes, as a batch, the groups tied
    at the best bound, up to and including the first that ends in a leaf
    or brings the batch to one screen's block of nodes (pool.block()).
    expand(batch), batch being a list of groups, returns (children, boxes):
    children hold the children of the batch's nodes, each group in node
    order, and boxes the set of boxes the batch's leaf holds (None without
    a leaf, or with one the pool rules out).  Only a leaf's solve changes
    the incumbent or the pool, so each node of a batch is expanded as if it
    had popped alone.  A node whose bound cannot beat the incumbent by a
    full objective quantum is dropped, as is one within gap_tol of it (the
    proof then stops at "gap-limit"), so popping one ends the run.  Each
    leaf counts as a node and is decided by _solve_candidate; one whose
    solve ends neither optimal nor infeasible keeps its bound, and leaves
    the proof at "gap-limit" when that bound is below the incumbent.  seed
    is a starting incumbent (objective, boxes, duals).  The time limit is
    checked before each batch that survives the prune test; the node limit
    only when a leaf is about to be counted, so a run whose next pop ends
    the proof needs no node budget for it.  Limits never raise: the
    incumbent is returned with proof "resource-limit".
    """
    grid_slack = (inst.quantum - 1e-9) if inst.quantum else 1e-9
    slack = max(grid_slack, opts.gap_tol)
    best = seed
    best_scaled = math.inf if seed is None else inst.sgn * seed[0]
    heap = []
    counter = itertools.count()
    nodes = 0
    hit_limit = gap_pruned = False
    unknown_best = math.inf

    def prunable(bound: float) -> bool:
        nonlocal gap_pruned
        if bound < best_scaled - slack:
            return False
        gap_pruned = gap_pruned or bound < best_scaled - grid_slack
        return True

    def push(children):
        for bound, group, leaf in children:
            if not prunable(bound):
                heapq.heappush(heap, (bound, next(counter), leaf, group))

    push(roots)
    if best is not None:
        _log_progress(logging.INFO, 0, heap[0][0] if heap else best_scaled, best_scaled)
    while heap:
        bound, _, leaf, group = heapq.heappop(heap)
        if prunable(bound):
            break  # every open node is bounded below by this one
        if time.perf_counter() - t0 > opts.time_limit:
            hit_limit = True
            break
        batch, size, cap = [group], len(group), pool.block()
        while not leaf and size < cap and heap and heap[0][0] == bound:
            _, _, leaf, group = heapq.heappop(heap)
            batch.append(group)
            size += len(group)
        children, boxes = expand(batch)
        push(children)
        if boxes is None:
            continue
        if nodes >= opts.node_limit:
            hit_limit = True
            break
        nodes += 1
        status, found = _solve_candidate(inst, boxes, pool)
        if found is not None:
            if inst.sgn * found[0] < best_scaled - 1e-12:
                best, best_scaled = found, inst.sgn * found[0]
                _log_progress(logging.INFO, nodes, bound, best_scaled)
        elif status != "infeasible":
            unknown_best = min(unknown_best, bound)
        _log_progress(logging.DEBUG, nodes, bound, best_scaled)

    if hit_limit:
        proof = "resource-limit"
    elif gap_pruned or unknown_best < best_scaled - 1e-9:
        proof = "gap-limit"
    else:
        proof = "optimal"
    if best is not None:
        return Incumbent(*best, nodes, proof, "solved")
    status = "infeasible-model" if proof == "optimal" else "unknown"
    return Incumbent(inst.sgn * math.inf, (), None, nodes, proof, status)


# ---------------------------------------------------------------------------
# Exact enumeration for tiny instances

_ENUMERATE_CAP = 200_000  # candidate sets of boxes; the k = 2 reference at 0.1 has 19 million


class InstanceTooLarge(ValueError):
    """An instance beyond enumerate_boxes' guard: a user error, not a bug."""


def _candidate_stream(inst: SearchInstance, i: int) -> tuple:
    """All candidate boxes for one index, sorted by optimistic bound.

    Returns (bound, lo, hi): the scaled bound of each candidate and the
    (n, m) axis indices of its lower and upper corners.  The empty box is
    lo = 0, hi = -1 with its empty_bounds entry; it sorts first among equal
    bounds, and other ties break on (lo, hi) in lexicographic order.
    Every other bound is the box's exact objective.
    """
    lattice, m = inst.lattice, inst.lattice.dim
    first, last = np.triu_indices(lattice.n_axis)
    combo = np.indices((first.size,) * m).reshape(m, -1).T
    lo = np.vstack([np.zeros((1, m), dtype=int), first[combo]])
    hi = np.vstack([np.full((1, m), -1), last[combo]])
    lo_at, hi_at = lattice.axis[lo[1:]], lattice.axis[hi[1:]]
    bound = np.concatenate([[inst.empty_bounds[i]],
                            _box_bounds(inst, i, lo_at, lo_at, hi_at, hi_at)])
    is_box = np.arange(bound.size) > 0
    keys = [hi[:, j] for j in reversed(range(m))] + [lo[:, j] for j in reversed(range(m))]
    order = np.lexsort(keys + [is_box, bound])
    return bound[order], lo[order], hi[order]


def enumerate_boxes(inst: SearchInstance,
                    opts: Optional[SearchOptions] = None) -> Incumbent:
    """Exact search over lattice-aligned boxes for tiny instances.

    Every candidate set of boxes, one entry of each height's stream, is
    listed once as stream positions and sorted by bound, the sum of its
    entries' bounds.  Equal bounds sort by the positions in lexicographic
    order read from the last height, so with one height the list is the
    stream itself.  The measure pool screens the whole list once, a block
    at a time, while it holds only its seed (the feasible point masses),
    and the list keeps the survivors.  Then only a candidate the pool
    keeps is a node of _best_first: a leaf decided by _solve_candidate
    from its adversary measure program alone, whose one child is the next
    candidate the pool keeps.  The pool only grows, so a skipped candidate
    would be ruled out when popped too, and a popped one is screened again
    first.  A candidate the pool rules out therefore never bounds the
    proof: with gap_tol > 0 it cannot end a run at "gap-limit".  A
    candidate's bound is its exact objective, so once the incumbent is no
    worse than the next pop it is optimal.  node_count reports the
    candidates that reached a solve, and a BoxRegion is built only for
    those.  An instance with more than _ENUMERATE_CAP candidate sets of
    boxes (the product of the per-height candidate counts) raises
    InstanceTooLarge.
    """
    opts = opts or SearchOptions()
    lattice = inst.lattice
    k = inst.fn.k
    sets = (1 + (lattice.n_axis * (lattice.n_axis + 1) // 2) ** lattice.dim) ** k
    if sets > _ENUMERATE_CAP:
        raise InstanceTooLarge(
            "instance-too-large: enumerate_boxes takes at most %d candidate sets "
            "of boxes, this instance has %d; --mode bnb has no such limit"
            % (_ENUMERATE_CAP, sets))
    t0 = time.perf_counter()
    streams = [_candidate_stream(inst, i) for i in range(k)]
    pool = _MeasurePool(inst)
    # stream positions of every set, sorted by bound and then by the
    # positions, the last height's first
    pos = np.indices([len(bound) for bound, _, _ in streams]).reshape(k, sets)
    bound = sum(s[0][p] for s, p in zip(streams, pos))
    order = np.lexsort(tuple(pos) + (bound,))
    pos, bound = pos[:, order], bound[order]

    def kept(start: int):
        """Positions from start on that the pool keeps, a block at a time."""
        while start < sets:
            stop = start + pool.block()
            lo, hi = (np.stack([s[j][p[start:stop]] for s, p in zip(streams, pos)])
                      for j in (1, 2))
            yield from (start + np.flatnonzero(~pool.ruled_out(lo, hi))).tolist()
            start = stop

    # the seed never changes, so its verdicts hold for the whole run
    keep = list(kept(0))
    pos, bound, sets = pos[:, keep], bound[keep], len(keep)

    def child(n) -> list:
        return [] if n is None else [(float(bound[n]), [n], True)]

    def expand(batch: list) -> tuple:
        [[n]] = batch  # every candidate is a leaf, so a batch is one candidate
        # the pool may have grown since n was screened
        survivors = kept(n)
        first = next(survivors, None)
        if first != n:
            return child(first), None
        return child(next(survivors, None)), [lattice.box(lo[p], hi[p])
                                               for (_, lo, hi), p in zip(streams, pos[:, n])]

    return _best_first(inst, pool, child(next(kept(0), None)), expand, opts, t0)


# ---------------------------------------------------------------------------
# Branch and bound over box-corner intervals


def solve_bnb(inst: SearchInstance, opts: Optional[SearchOptions] = None) -> Incumbent:
    """Best-first branch and bound over sets of lattice-aligned boxes.

    A node gives each height either the empty box or, on each axis j,
    lattice index intervals lo_j in [a_j, b_j] and hi_j in [c_j, d_j]: a
    (k, 4, m) integer array of rows a, b, c, d, the empty box being rows
    0, 0, -1, -1.  A node with some a_j > d_j holds no box and is never
    made.  The roots take every empty/nonempty choice with whole-axis
    intervals.  Heights are positive, so the outer box (lo = a, hi = d) has
    the largest expectation in the node under every measure, and a node
    the measure pool rules out on it is dropped whole.  The node bound
    takes the best end of each interval, summed over the heights in order
    and rounded up to the objective quantum.  A node whose intervals all
    have width 0 holds one box per height: it is a leaf of _best_first,
    and node_count reports the leaves that reach a solve.  Nodes live in
    _best_first's groups as (nodes, k, 4, m) int32 arrays, and a batch is
    their concatenation: one ruled_out call screens every outer box, each
    inner node halves its widest interval without a solve, and one
    vectorized _box_bounds pass bounds every child.  The children go back
    as groups of one bound each, in node order.  The whole-domain boxes,
    decided by _solve_candidate with the pool before the loop, seed the
    incumbent; their value is one constant, so with a feasible point mass
    they take no measure master (certify.adversary_problem).
    """
    opts = opts or SearchOptions()
    t0 = time.perf_counter()
    lattice = inst.lattice
    k, m, top = inst.fn.k, lattice.dim, lattice.n_axis - 1
    pool = _MeasurePool(inst)
    empty_bounds = np.array(inst.empty_bounds)

    def bounded(nodes: np.ndarray) -> list:
        """nodes as _best_first's (bound, group, leaf) triples.

        A node's bound sums its heights' bounds in order.  A group holds
        nodes of one bound in node order, at most one screen's block of
        them, and a leaf ends its group.
        """
        per = np.where(nodes[:, :, 3, 0] < 0, empty_bounds, _box_bounds(
            inst, slice(None), *lattice.axis[nodes].transpose(2, 0, 1, 3)))
        total = per[:, 0]
        for i in range(1, k):
            total = total + per[:, i]
        total = _quantum_ceil(total, inst.quantum)
        leaf = (nodes[:, :, 1::2] == nodes[:, :, ::2]).all(axis=(1, 2, 3))
        order = np.argsort(total, kind="stable")
        total, leaf = total[order], leaf[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (total[1:] != total[:-1]) | leaf[:-1]
        runs, cap = np.flatnonzero(new).tolist() + [len(order)], pool.block()
        bounds, leaves = total.tolist(), leaf.tolist()
        return [(bounds[s], nodes[order[s:min(s + cap, e)]], leaves[min(s + cap, e) - 1])
                for start, e in zip(runs, runs[1:]) for s in range(start, e, cap)]

    def expand(batch: list) -> tuple:
        nodes = np.concatenate(batch)
        outer = nodes[:, :, [0, 3]].transpose(2, 1, 0, 3)  # lo = a and hi = d, per height
        nodes = nodes[~pool.ruled_out(*outer)]
        # widths of the lo (row 0) and hi (row 1) intervals of each box, flat per node
        widths = (nodes[:, :, 1::2] - nodes[:, :, ::2]).reshape(len(nodes), 2 * k * m)
        boxes = None
        if len(nodes) and not widths[-1].any():  # only a batch's last node can be a leaf
            boxes = [lattice.box(p[0], p[3]) for p in nodes[-1]]
            nodes, widths = nodes[:-1], widths[:-1]
        i, half, j = np.unravel_index(widths.argmax(axis=1), (k, 2, m))
        r, row = np.arange(len(nodes)), 2 * half
        mid = (nodes[r, i, row, j] + nodes[r, i, row + 1, j]) // 2
        # each node's lower half, then its upper half
        halves = np.repeat(nodes[:, None], 2, axis=1)
        halves[r, 0, i, row + 1, j] = mid
        halves[r, 1, i, row, j] = mid + 1
        children = halves.reshape(-1, k, 4, m)
        # a child with some a_j > d_j holds no box; an empty box (d = -1) has none to hold
        a, d = children[:, :, 0], children[:, :, 3]
        return bounded(children[((a <= d) | (d < 0)).all(axis=(1, 2))]), boxes

    _, seed = _solve_candidate(inst, [lattice.box([0] * m, [top] * m)] * k, pool)
    empty = np.array([[0] * m, [0] * m, [-1] * m, [-1] * m])
    full = np.array([[0] * m, [top] * m, [0] * m, [top] * m])
    roots = np.array([[empty if e else full for e in choice]
                      for choice in itertools.product((True, False), repeat=k)], dtype=np.int32)
    return _best_first(inst, pool, bounded(roots), expand, opts, t0, seed)


# ---------------------------------------------------------------------------
# Driver


def run_search(inst: SearchInstance,
               opts: Optional[SearchOptions] = None) -> Incumbent:
    """Run the search opts.mode names: solve_bnb or enumerate_boxes."""
    opts = opts or SearchOptions()
    if opts.mode == "enumerate":
        return enumerate_boxes(inst, opts)
    return solve_bnb(inst, opts)
