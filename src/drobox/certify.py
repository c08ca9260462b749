"""Independent checks that a solved decision really is robust.

The adversary oracle minimizes the decision's expected value over
probability measures supported on a fine lattice and constrained to the
ambiguity set.  Discrete supports form a subfamily of the full ambiguity
set, so the oracle value is an upper bound on the true adversarial
minimum: a value below b falsifies the decision, while a value at or
above b is a necessary check only, never a full proof.  The full proof is
the feasibility of the assembled program itself; everything in this
module is defense in depth on top of it.  The same measure program, on
the assembly lattice, lets enumerate_boxes rule candidates out before
their assembled solve.

Zero-width boxes are kept as stated in both checks.  The empty-box
sentinel produced by decoding (width 0 at the origin) is therefore
treated like a point box there; its only effect is the mass an adversary
is forced to place exactly on that point, which is zero for every
instance met in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
        return {
            "worst_case_expectation": self.worst_case_expectation,
            "duality_gap": self.duality_gap,
            "fc_min_sampled": self.fc_min_sampled,
            "fine_delta": self.fine_delta,
            "samples": self.samples,
            "verdict": self.verdict,
        }


def _measure_program(spec: AmbiguitySpec, pts: np.ndarray,
                     vals: np.ndarray) -> ConicProgram:
    """Discrete-measure program over the atoms pts with values vals."""
    m = spec.m
    names = ["w[%d]" % j for j in range(pts.shape[0])]
    program = ConicProgram()
    for name in names:
        program.add_scalar(name, nonneg=True)
    program.add_row(dict.fromkeys(names, 1.0), "==", 1.0, name="mass")
    for i, cs in enumerate(spec.confidence_sets):
        if isinstance(cs.region, WholeDomain):
            continue  # the mass equality already covers the normalization pair
        sgn = math.copysign(1.0, cs.eps)
        inside = np.asarray(cs.region.contains(pts), dtype=bool)
        lin = {names[j]: sgn for j in np.flatnonzero(inside)}
        program.add_row(lin, ">=", cs.eps, name="confidence[%d]" % i)

    d = pts - spec.mu
    block_coeffs = {}
    outer_coeffs = {}
    for j, name in enumerate(names):
        blk = np.zeros((m + 1, m + 1))
        blk[:m, :m] = spec.sigma
        blk[:m, m] = d[j]
        blk[m, :m] = d[j]
        blk[m, m] = spec.eps_mu
        block_coeffs[name] = blk
        outer_coeffs[name] = -np.outer(d[j], d[j])
    program.add_lmi(block_coeffs, np.zeros((m + 1, m + 1)), name="first-moment")
    program.add_lmi(outer_coeffs, spec.eps_sigma * spec.sigma, name="second-moment")
    program.set_objective("min", {name: float(v) for name, v in zip(names, vals)})
    return program


def adversary_problem(decision: Decision, spec: AmbiguitySpec, fine_lattice: Lattice):
    """Solve the discrete-measure adversary and keep the measure.

    Returns (status, value, weights) where weights is the minimizing
    probability vector over fine_lattice.points (None unless optimal).
    The measure is constrained by the first-moment block, the
    second-moment cap, the extra confidence rows, and a single total-mass
    equality; exact indicators evaluate the decision on the atoms.  A
    stalled interior-point run is reported as it ended, with no weights.
    """
    pts = fine_lattice.points
    sol = solve_sdp(_measure_program(spec, pts, decision.evaluate(pts)))
    if sol.status != "optimal":
        return sol.status, float("nan"), None
    names = ["w[%d]" % j for j in range(pts.shape[0])]
    weights = np.array([max(sol.primal[name], 0.0) for name in names])
    return sol.status, float(sol.objective), weights


def adversary_oracle(decision: Decision, spec: AmbiguitySpec,
                     fine_lattice: Lattice) -> float:
    """Minimum expectation of the decision over fine-lattice measures.

    Returns nan when the discrete subfamily is empty (oracle infeasible);
    the caller should treat that as inconclusive.  A finite value below b
    falsifies the decision outright.
    """
    return adversary_problem(decision, spec, fine_lattice)[1]


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
    n = t.shape[0]
    m = spec.m
    out = np.zeros(n)
    for h, box in zip(decision.heights, decision.boxes):
        if h >= 0:
            ind = smoothed_indicator(t, box, delta)
        else:
            ind = smoothed_indicator_lower(t, box, delta)
        out += h * ind
    Y1 = dual_solution.Y1
    Y2 = dual_solution.Y2
    d = t - spec.mu
    const = float(np.sum(spec.sigma * Y1[:m, :m])) + spec.eps_mu * Y1[m, m]
    out -= const + 2.0 * d @ Y1[:m, m]
    out += np.einsum("ni,ij,nj->n", d, Y2, d)
    for cs, yi in zip(spec.confidence_sets, dual_solution.y):
        sgn = math.copysign(1.0, cs.eps)
        if isinstance(cs.region, WholeDomain):
            ind = np.ones(n)
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


def certify_solution(decision: Decision, dual_solution: DualSolution,
                     spec: AmbiguitySpec, delta: float,
                     fine_lattice: Optional[Lattice] = None,
                     n_samples: int = 10_000, seed: int = 0) -> Certificate:
    """Run all three checks and fold them into one Certificate.

    delta is the assembly step.  The fine lattice defaults to half that
    step; a coarser fine lattice than delta/2 cannot support the verdict
    and yields inconclusive, as does an infeasible oracle.
    """
    if fine_lattice is None:
        fine_lattice = lattice_points(spec.edge, spec.m, delta / 2.0)
    fc_min, _ = sample_fc(
        decision, dual_solution, spec, n_samples=n_samples, seed=seed, delta=delta
    )
    gap = float("nan")
    value = float("nan")
    if fine_lattice.delta <= delta / 2.0 + 1e-12:
        value = adversary_oracle(decision, spec, fine_lattice)
        if not math.isnan(value):
            gap = weak_duality_gap(dual_solution, value)
    if math.isnan(value):
        verdict = "inconclusive"
    elif value < spec.b - 1e-6:
        verdict = "falsified"
    elif fc_min >= -1e-6:
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
