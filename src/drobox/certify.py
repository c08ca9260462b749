"""Independent checks that a solved decision really is robust.

The adversary oracle minimizes the decision's expected value over
probability measures supported on a fine lattice and constrained to the
ambiguity set.  Discrete supports form a subfamily of the full ambiguity
set, so the oracle value is an upper bound on the true adversarial
minimum: a value below b falsifies the decision, while a value at or
above b is a necessary check only, never a full proof.  The proof of
feasibility is duals that meet every lattice row and the threshold row;
on the assembly lattice the search takes them from this same measure
program (see Pricer.lattice_duals), and everything else here is defense
in depth on top of them.

Pricer is the one owner of the lattice measure program: it builds each master,
prices every atom (the lattice row under explicit duals, which is a master's
reduced cost under its multipliers), maps a master's multipliers to duals and
names the atoms whose point mass is feasible.  A column depends on its atom
alone, so one Pricer serves every decision on its lattice (the search builds
one, the certificate one) and solves each master that does not stop, and each
anchor centre, once.  Its arrays (rows, moments) are also the sampled rows of
the assembled programs.  The program has one column per lattice atom, so it is
solved by column generation (column_generation, which the fixed-box solve of
`drobox solve` shares).  The certificate's first master adds to the coarsest
seed the atoms where the answer's own duals price lowest.  A decision constant
on the lattice takes no master: its worst case is the constant.

The search needs less than a master's optimum: one measure of the family
below its threshold rules a set of boxes out (weak duality).  Pricer.repair
maps any weights into the family, by normalizing the mass and mixing in one
anchor measure per master, so given a threshold each interior-point iterate
is repaired and checked, and the first below it ends the master with status
"stopped" (a round line with status=stopped).  A search master's value is
its repaired expectation, stopped or converged, so the pool of the search
takes only measures of the family and never compares an unrepaired value.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import (
    AmbiguitySpec,
    Decision,
    DualSolution,
    Lattice,
    WholeDomain,
    lattice_points,
    smoothed_indicator,
    smoothed_indicator_lower,
)
from .sdp import ConicProgram, solve_sdp

LOG = logging.getLogger("drobox.certify")

# Column generation: points per axis of the first seed, fewest atoms to
# add per round, and the reduced cost that counts as negative.
_SEED_POINTS = 5
_MIN_ENTERING = 10
_PRICE_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Outcome of the three-part robustness check for one decision."""

    worst_case_expectation: float
    duality_gap: float
    fc_min_sampled: float
    fine_delta: float
    samples: int
    verdict: str  # certified | falsified | inconclusive

    def as_record(self) -> dict:
        return asdict(self)


# what column generation and Pricer.lattice_duals read of a master's solve; weights >= 0 if optimal
_Master = NamedTuple("_Master", [("status", str), ("objective", float), ("row_duals", np.ndarray),
                                 ("lmi_duals", list), ("weights", np.ndarray)])


class Pricer:
    """The lattice measure program on atoms pts, and its lattice row.

    Under explicit duals (Y1, Y2, y) the lattice row of atom values vals at t_j is

        v_j - <F1(t_j), Y1> + <(t_j - mu)(t_j - mu)^T, Y2> - sum_i y_i rows[j, i],

    with rows[j, i] = sgn(eps_i) 1[t_j in C_i], one signed indicator column
    per confidence set, the normalization pair included.  It is also the
    reduced cost of atom t_j's column in the measure program (master), whose
    multipliers reduced_costs reads as such duals.  Only this class knows
    the master's rows: the mass row, then one row per set in confidence.
    vals may be one number for every atom, except for master, solved and constant_master.
    """

    def __init__(self, spec: AmbiguitySpec, pts: np.ndarray):
        self.spec = spec
        self.d = pts - spec.mu
        sets = spec.confidence_sets
        self.eps = np.array([cs.eps for cs in sets])
        self.rows = (np.stack([cs.region.contains(pts) for cs in sets], axis=1)
                     * np.copysign(1.0, self.eps))
        # the sets of the master's confidence rows, in row order: the mass
        # equality already covers the normalization pair and any whole domain
        self.confidence = [i for i, cs in enumerate(sets)
                           if i >= 2 and not isinstance(cs.region, WholeDomain)]
        self._solved, self._centers = {}, {}  # see solved and center

    def __call__(self, vals, Y1: np.ndarray, Y2: np.ndarray, y: np.ndarray) -> np.ndarray:
        spec, m = self.spec, self.spec.m
        first = (float(np.sum(spec.sigma * Y1[:m, :m])) + spec.eps_mu * Y1[m, m]
                 + self.d @ (Y1[:m, m] + Y1[m, :m]))
        second = np.einsum("ni,ni->n", self.d @ Y2, self.d)
        return vals - self.rows @ y - first + second

    def moments(self, active) -> tuple:
        """F1(t) = [[Sigma, t - mu], [(t - mu)^T, eps_mu]] and (t - mu)(t - mu)^T
        of the atoms active, as (n, m+1, m+1) and (n, m, m) arrays."""
        spec, m = self.spec, self.spec.m
        d = self.d[active]
        block = np.empty((d.shape[0], m + 1, m + 1))
        block[:, :m, :m] = spec.sigma
        block[:, :m, m] = block[:, m, :m] = d
        block[:, m, m] = spec.eps_mu
        return block, d[:, :, None] * d[:, None, :]

    def master(self, vals: Optional[np.ndarray], active: np.ndarray) -> ConicProgram:
        """The discrete-measure program of vals over the atoms active (flat
        indices); with vals None, its constraints alone (Pricer.center)."""
        spec, m = self.spec, self.spec.m
        names = ["w[%d]" % j for j in range(active.size)]
        program = ConicProgram()
        for name in names:
            program.add_scalar(name, nonneg=True)
        program.add_row(dict.fromkeys(names, 1.0), "==", 1.0, name="mass")
        rows = self.rows[active]
        for i in self.confidence:
            lin = {names[j]: rows[j, i] for j in np.flatnonzero(rows[:, i])}
            program.add_row(lin, ">=", self.eps[i], name="confidence[%d]" % i)
        block, outer = self.moments(active)
        program.add_lmi(dict(zip(names, block)), np.zeros((m + 1, m + 1)), name="first-moment")
        program.add_lmi(dict(zip(names, -outer)), spec.eps_sigma * spec.sigma,
                        name="second-moment")
        if vals is not None:
            program.set_objective("min", {name: float(v) for name, v in zip(names, vals[active])})
        return program

    def solved(self, vals: np.ndarray, active: np.ndarray, stop=None) -> _Master:
        """The master as solved (LP objective, weights clipped at 0, multipliers);
        stop is solve_sdp's.  The solver is deterministic, so a master kept
        (any that did not stop) answers a later call as a fresh solve would."""
        key = (active.tobytes(), vals[active].tobytes())
        if key not in self._solved:
            sol = solve_sdp(self.master(vals, active), stop=stop)
            found = _Master(sol.status, sol.objective, sol.row_duals, sol.lmi_duals, np.array(
                [max(sol.primal["w[%d]" % j], 0.0) for j in range(active.size) if sol.primal]))
            if sol.status == "stopped":
                return found
            self._solved[key] = found
        return self._solved[key]

    def center(self, active: np.ndarray) -> Optional[np.ndarray]:
        """The weights the constraints alone, solved with no objective, end at
        (strictly inside every block and row when some measure on the atoms
        is), kept as solved; None unless that solve is optimal."""
        key = active.tobytes()
        if key not in self._centers:
            sol = solve_sdp(self.master(None, active))
            self._centers[key] = None if sol.status != "optimal" else np.array(
                [sol.primal["w[%d]" % j] for j in range(active.size)])
        return self._centers[key]

    def master_y(self, row_duals: np.ndarray) -> np.ndarray:
        """y of a master's row duals: the mass-row dual as y[1], each
        confidence-row dual in its set's place, 0 everywhere else."""
        y = np.zeros(self.rows.shape[1])
        y[1], y[self.confidence] = row_duals[0], row_duals[1:]
        return y

    def reduced_costs(self, vals: np.ndarray, sol) -> np.ndarray:
        """Every atom's reduced cost against a master's multipliers."""
        return self(vals, *sol.lmi_duals, self.master_y(sol.row_duals))

    def lattice_duals(self, vals: np.ndarray, sol, margin: float) -> DualSolution:
        """A master's multipliers as duals whose lattice rows hold at margin.

        Y1 and Y2 are the LMI duals projected onto the PSD cone, and y past the
        normalization pair is the confidence-row duals clipped at 0.  The pair
        then moves the lowest row over every atom to margin.  The caller checks
        the threshold row, dual_objective() >= b.
        """
        Y1, Y2 = ((V * np.maximum(w, 0.0)) @ V.T for w, V in map(np.linalg.eigh, sol.lmi_duals))
        y = np.maximum(self.master_y(np.r_[0.0, sol.row_duals[1:]]), 0.0)
        shift = float(self(vals, Y1, Y2, y).min()) - margin
        y[:2] = max(-shift, 0.0), max(shift, 0.0)
        return DualSolution(Y1, Y2, y, self.spec)

    def constant_master(self, vals: np.ndarray) -> Optional[tuple]:
        """(active, master) of the optimum when vals is one constant c, without a solve.

        Every measure of the ambiguity set has expectation c, so the point mass
        on the first atom point_masses names is optimal, and so are the
        multipliers c on the mass row and 0 on every other row and LMI: each
        atom's reduced cost is 0.  None when vals varies or no point mass is
        feasible.
        """
        if np.any(vals != vals[0]):
            return None
        atoms = np.flatnonzero(self.point_masses())
        if atoms.size == 0:
            return None
        m = self.spec.m
        duals = np.zeros(1 + len(self.confidence))
        duals[0] = vals[0]
        return atoms[:1], _Master("optimal", float(vals[0]), duals,
                                  [np.zeros((m + 1, m + 1)), np.zeros((m, m))], np.ones(1))

    def _distance(self, atoms) -> np.ndarray:
        """(t - mu)^T Sigma^-1 (t - mu) at the atoms.  By Schur complements the
        point mass on t meets both moment blocks when it is at most
        min(eps_mu, eps_sigma), and holds them positive definite when it is
        below."""
        d = self.d[atoms]
        return np.einsum("ni,ij,nj->n", d, np.linalg.inv(self.spec.sigma), d)

    def point_masses(self) -> np.ndarray:
        """Whether the point mass at each atom is a measure of the ambiguity set:
        (t - mu)^T Sigma^-1 (t - mu) <= min(eps_mu, eps_sigma), and every
        confidence row sgn(eps_i) 1[t in C_i] >= eps_i."""
        spec = self.spec
        moments = self._distance(slice(None)) <= min(spec.eps_mu, spec.eps_sigma) + 1e-12
        return moments & np.all(self.rows >= self.eps, axis=1)

    def repair(self, active: np.ndarray, anchor: Optional[np.ndarray] = None
               ) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """A map of weights on the atoms active into the ambiguity family, or None.

        The map clips the weights at 0 and normalizes their mass, then mixes
        the measure with the anchor, a measure on the atoms active, by the
        least weight theta that restores every moment block and confidence
        row of the master.  The blocks are F1(t) and, at mass 1, the
        second-moment cap eps_sigma Sigma - (t - mu)(t - mu)^T
        (Pricer.moments).  A block sum_j w_j B(t_j), with the anchor's block
        L L^T, needs theta >= u / (1 + u) when -u < 0 is the least eigenvalue
        of L^-1 (sum_j w_j B(t_j)) L^-T, and a confidence row at r < eps_i
        needs theta >= (eps_i - r) / (r_anchor - r).  The anchor defaults to
        the point mass on the active atom nearest mu in
        (t - mu)^T Sigma^-1 (t - mu), the most moment slack, among those
        strictly inside every block and row.  None when there is no such
        atom, or the anchor given is not strictly inside every block and row.
        """
        spec = self.spec
        rows = self.rows[active][:, self.confidence]
        eps = self.eps[self.confidence]
        if anchor is None:
            dist = self._distance(active)
            strict = np.flatnonzero((dist < min(spec.eps_mu, spec.eps_sigma))
                                    & np.all(rows > eps, axis=1))
            if strict.size == 0:
                return None
            anchor = np.zeros(active.size)
            anchor[strict[np.argmin(dist[strict])]] = 1.0
        anchor = np.maximum(anchor, 0.0)
        anchor = anchor / anchor.sum()
        first, outer = self.moments(active)
        blocks = (first, spec.eps_sigma * spec.sigma - outer)
        r_anchor = anchor @ rows
        if not np.all(r_anchor > eps):
            return None
        try:
            roots = [np.linalg.inv(np.linalg.cholesky(np.tensordot(anchor, B, 1)))
                     for B in blocks]
        except np.linalg.LinAlgError:  # a block of the anchor is not positive definite
            return None

        def mix(w: np.ndarray) -> np.ndarray:
            w = np.maximum(w, 0.0)
            w = w / w.sum()
            theta = [0.0]
            for B, R in zip(blocks, roots):
                u = max(-float(np.linalg.eigvalsh(R @ np.tensordot(w, B, 1) @ R.T)[0]), 0.0)
                theta.append(u / (1.0 + u))
            r = w @ rows
            short = r < eps
            theta.extend(((eps - r)[short] / (r_anchor - r)[short]).tolist())
            return (1.0 - max(theta)) * w + max(theta) * anchor

        return mix


def _seeds(lattice: Lattice, spec: AmbiguitySpec):
    """Active atom sets to start column generation from, coarse to fine.

    Each is a sublattice with 5, 9, 17, ... points per axis, ends
    included, plus the atom nearest mu; the last is the whole lattice.
    """
    n = lattice.n_axis
    near = np.clip(np.round(spec.mu / lattice.delta), 0, n - 1).astype(int)
    near_flat = np.ravel_multi_index(tuple(near), lattice.shape)
    per_axis = _SEED_POINTS
    while per_axis < n:
        idx = np.unique(np.round(np.linspace(0, n - 1, per_axis)).astype(int))
        flat = np.ravel_multi_index(
            tuple(np.meshgrid(*([idx] * lattice.dim), indexing="ij")), lattice.shape)
        yield np.union1d(flat.ravel(), near_flat)
        per_axis = 2 * per_axis - 1
    yield np.arange(lattice.n_points)


def column_generation(lattice: Lattice, spec: AmbiguitySpec, solve, price, *,
                      stop_below: float = -math.inf, final: tuple = (),
                      first: Optional[np.ndarray] = None) -> tuple:
    """Solve a program with one column (or row) per lattice atom, a few atoms at a time.

    solve(active) solves the master, the program restricted to the atoms
    active (sorted flat lattice indices), and price(sol) gives every
    atom's reduced cost against an optimal master.  Each round solves the
    master and prices the whole lattice; the most negative atoms, at
    least 10 and up to as many as are active, join the master.  The rounds
    stop when no atom prices below -1e-9: the master's duals are then
    feasible for the whole lattice, so its optimum is the lattice optimum.
    With stop_below they also stop once a master's value falls below it.

    The rounds start from first, if given, and else from the coarsest of
    _seeds.  A master whose status is in final ends them as it is; any
    other non-optimal one restarts them from the next start (the coarsest
    seed after first, then the next finer seed), and one on the whole
    lattice ends them.  Returns (active, sol) of the last master.  Rounds
    go to the drobox.certify logger at DEBUG level as key=value lines:
    round=, atoms=, value=, min_reduced_cost=, status=.
    """
    rounds = 0
    starts = _seeds(lattice, spec)
    if first is not None:
        starts = itertools.chain([first], starts)
    for active in starts:
        while True:
            rounds += 1
            sol = solve(active)
            if sol.status != "optimal":
                LOG.debug("round=%d atoms=%d value=nan min_reduced_cost=nan status=%s",
                          rounds, active.size, sol.status)
                if sol.status in final:
                    return active, sol
                break
            cost = price(sol)
            cost[active] = np.inf
            lowest = float(cost.min())
            LOG.debug("round=%d atoms=%d value=%.9g min_reduced_cost=%.3g status=optimal",
                      rounds, active.size, sol.objective, lowest)
            if lowest >= -_PRICE_TOL or sol.objective < stop_below:
                return active, sol
            entering = np.flatnonzero(cost < -_PRICE_TOL)
            count = max(_MIN_ENTERING, active.size)
            if entering.size > count:
                entering = entering[np.argpartition(cost[entering], count)[:count]]
            active = np.union1d(active, entering)
    return active, sol


def _hinted_start(lattice: Lattice, spec: AmbiguitySpec, price: Pricer, vals: np.ndarray,
                  duals: DualSolution) -> Optional[np.ndarray]:
    """The coarsest seed plus the atoms where the duals' lattice row is lowest.

    By complementary slackness the worst-case measure sits where the lattice
    row of the answer's duals is lowest.  The atoms whose row lies below the
    seed's lowest by more than _PRICE_TOL, at most _MIN_ENTERING of them,
    join the seed; None when there are none, so the rounds start from the
    seed alone.
    """
    seed = next(_seeds(lattice, spec))
    rows = price(vals, duals.Y1, duals.Y2, duals.y)
    entering = np.flatnonzero(rows < rows[seed].min() - _PRICE_TOL)
    if entering.size == 0:
        return None
    if entering.size > _MIN_ENTERING:
        entering = entering[np.argpartition(rows[entering], _MIN_ENTERING)[:_MIN_ENTERING]]
    return np.union1d(seed, entering)


def adversary_problem(decision: Decision, spec: AmbiguitySpec, fine_lattice: Lattice,
                      *, stop_below: float = -math.inf, margin: Optional[float] = None,
                      duals: Optional[DualSolution] = None, price: Optional[Pricer] = None):
    """Solve the discrete-measure adversary and keep the measure.

    Returns (status, value, weights, duals): the minimizing probability
    vector over fine_lattice.points and, given a margin, the final
    master's multipliers, whose lattice rows hold at margin (see
    Pricer.lattice_duals).  weights is None unless optimal or stopped, and
    for a search master with no anchor (below); duals is None unless
    optimal with a margin.
    The measure is constrained by the first-moment block, the
    second-moment cap, the extra confidence rows, and a single total-mass
    equality; exact indicators evaluate the decision on the atoms.  price,
    by default a new one, is the Pricer of spec on fine_lattice.points.

    A decision that takes one value on every atom (the whole-domain boxes,
    say) needs no master when some point mass is feasible: its worst case
    is that constant, the measure that point mass (Pricer.constant_master).
    Any other program is solved by column_generation with no final status,
    so only an infeasible or stalled master on the whole lattice is
    reported as it ended, with no weights.  Given the duals of an answer
    for this decision, the first master is the coarsest seed plus the
    atoms where their lattice row is lowest (_hinted_start); if its rounds
    meet a non-optimal master they restart from the plain seed.  The start
    depends only on the decision, the duals and the lattice.  A master
    whose value falls below stop_below ends the rounds: its measure is
    feasible on the lattice, so its value is an upper bound on the optimum,
    which suffices to rule a candidate out.

    A finite stop_below (the search's threshold) gives every master one
    anchor: the point mass on its most slack strictly feasible atom, or
    else its constraints-only centre (Pricer.center).  Pricer.repair on
    that anchor maps each interior-point iterate's weights into the
    ambiguity family, and the first iterate whose repaired expectation
    falls below stop_below ends the solve with status "stopped" (logged as
    status=stopped).  A search master's value and weights, stopped or
    converged, are its repaired expectation and measure; a master with no
    anchor converges, with its LP objective as value and no weights.  A
    constant decision's point mass is in the family as it is.
    """
    vals = decision.evaluate(fine_lattice.points)
    price = price or Pricer(spec, fine_lattice.points)
    search = math.isfinite(stop_below)

    def solve(active):
        mix = price.repair(active) if search else None
        if search and mix is None and price.center(active) is not None:
            mix = price.repair(active, price.center(active))
        stop = None if mix is None else lambda w: float(vals[active] @ mix(w)) < stop_below
        found = price.solved(vals, active, stop)
        if mix is not None and found.status in ("optimal", "stopped"):
            repaired = mix(found.weights)
            return found._replace(objective=float(vals[active] @ repaired), weights=repaired)
        return found._replace(weights=None) if search else found

    constant = price.constant_master(vals)
    if constant is not None:
        active, sol = constant
    else:
        first = None if duals is None else _hinted_start(fine_lattice, spec, price, vals, duals)
        active, sol = column_generation(fine_lattice, spec, solve,
                                        lambda sol: price.reduced_costs(vals, sol),
                                        stop_below=stop_below, final=("stopped",), first=first)
    if sol.status not in ("optimal", "stopped"):
        return sol.status, float("nan"), None, None
    weights = None
    if sol.weights is not None:
        weights = np.zeros(fine_lattice.n_points)
        weights[active] = sol.weights
    mapped = (None if margin is None or sol.status != "optimal"
              else price.lattice_duals(vals, sol, margin))
    return sol.status, float(sol.objective), weights, mapped


def adversary_oracle(decision: Decision, spec: AmbiguitySpec, fine_lattice: Lattice, *,
                     duals: Optional[DualSolution] = None) -> float:
    """Minimum expectation of the decision over fine-lattice measures.

    Returns nan when the discrete subfamily is empty (oracle infeasible);
    the caller should treat that as inconclusive.  A finite value below b
    falsifies the decision outright.  duals, an answer's duals for this
    decision, are adversary_problem's.
    """
    return adversary_problem(decision, spec, fine_lattice, duals=duals)[1]


def weak_duality_gap(dual_solution: DualSolution, oracle_value: float) -> float:
    """oracle_value minus the certified dual lower bound; >= -1e-6 expected."""
    return float(oracle_value - dual_solution.dual_objective())


def fc_values(decision: Decision, dual_solution: DualSolution, spec: AmbiguitySpec,
              t, delta: float) -> np.ndarray:
    """The smoothed dual integrand f^c at points t, tent width delta.

    Indicator terms use the tent on the safe side of their sign: the upper
    tent where the term must not shrink (nonnegative heights, negative-eps
    confidence rows) and the lower tent where it must not grow.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    out = np.zeros(t.shape[0])
    for h, box in zip(decision.heights, decision.boxes):
        if h >= 0:
            ind = smoothed_indicator(t, box, delta)
        else:
            ind = smoothed_indicator_lower(t, box, delta)
        out += h * ind
    # plus q(t), the moment terms: the lattice row of these values and zero y
    out = Pricer(spec, t)(out, dual_solution.Y1, dual_solution.Y2,
                          np.zeros(len(spec.confidence_sets)))
    for cs, yi in zip(spec.confidence_sets, dual_solution.y):
        sgn = math.copysign(1.0, cs.eps)
        if isinstance(cs.region, WholeDomain):
            ind = 1.0
        elif sgn > 0:
            ind = smoothed_indicator_lower(t, cs.region, delta)
        else:
            ind = smoothed_indicator(t, cs.region, delta)
        out -= sgn * yi * ind
    return out


def sample_fc(decision: Decision, dual_solution: DualSolution, spec: AmbiguitySpec,
              n_samples: int = 10_000, seed: int = 0, *, delta: float):
    """Minimum of f^c over uniform random points; returns (fc_min, argmin).

    delta is the assembly step that sets the tent width; it is keyword
    only because no stated argument determines it.  Deterministic for a
    fixed seed.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, spec.edge, size=(n_samples, spec.m))
    vals = fc_values(decision, dual_solution, spec, t, delta)
    j = int(np.argmin(vals))
    return float(vals[j]), t[j].copy()


def _duals_prove(duals: DualSolution, b: float) -> bool:
    """Whether the duals meet the threshold row and their sign conditions."""
    lowest = min(np.linalg.eigvalsh(Y).min() for Y in (duals.Y1, duals.Y2))
    return (duals.dual_objective() >= b - 1e-6 and lowest >= -1e-9
            and bool(np.all(duals.y[2:] >= -1e-9)))


def certify_solution(decision: Decision, dual_solution: DualSolution,
                     spec: AmbiguitySpec, delta: float,
                     fine_lattice: Optional[Lattice] = None,
                     n_samples: int = 10_000, seed: int = 0) -> Certificate:
    """Run all three checks and fold them into one Certificate.

    delta is the assembly step.  The fine lattice defaults to half that
    step; a coarser fine lattice than delta/2 cannot support the verdict
    and yields inconclusive, as does an infeasible oracle.  "certified"
    also needs the duals to be a proof: dual_objective() >= b - 1e-6, Y1
    and Y2 PSD and y >= 0 past the normalization pair, whose two rows
    only enter as a difference, both to -1e-9.  The oracle's first master
    holds the fine-lattice atoms where the lattice row of dual_solution is
    lowest (adversary_problem), so re-certifying a stored answer repeats the
    certificate its solve wrote.
    """
    if fine_lattice is None:
        fine_lattice = lattice_points(spec.edge, spec.m, delta / 2.0)
    fc_min, _ = sample_fc(
        decision, dual_solution, spec, n_samples=n_samples, seed=seed, delta=delta
    )
    gap = float("nan")
    value = float("nan")
    if fine_lattice.delta <= delta / 2.0 + 1e-12:
        value = adversary_oracle(decision, spec, fine_lattice, duals=dual_solution)
        if not math.isnan(value):
            gap = weak_duality_gap(dual_solution, value)
    if math.isnan(value):
        verdict = "inconclusive"
    elif value < spec.b - 1e-6:
        verdict = "falsified"
    elif fc_min >= -1e-6 and _duals_prove(dual_solution, spec.b):
        verdict = "certified"
    else:
        verdict = "inconclusive"
    return Certificate(
        worst_case_expectation=value,
        duality_gap=gap,
        fc_min_sampled=fc_min,
        fine_delta=fine_lattice.delta,
        samples=n_samples,
        verdict=verdict,
    )
