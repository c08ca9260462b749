"""Trace bounds, Lipschitz constant, and the safe discretization step.

The discretized dual model enforces its lattice rows with a safety margin
L * delta * sqrt(m).  L bounds the Lipschitz constant (Euclidean norm) of
the moment part q(t) = -<block(t), Y1> + <outer(t), Y2> over the domain,
uniformly over dual matrices whose traces respect the bounds computed
here.  The trace bounds come from the dual row at the mean together with
the threshold row; their denominators are the smallest eigenvalues of the
moment matrices at the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from drobox.model import AmbiguitySpec, SimpleFunctionSpec, VariableBoxes
from drobox.sdp import ConicProgram, solve_sdp

SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class LipschitzCertificate:
    """Everything needed to justify one discretization step choice."""

    tr_y1_max: float
    tr_y2_max: float
    L: float
    delta_max: float
    lambda_min_block: float
    lambda_min_sigma: float
    feasible_step_exists: bool = True


def sym_min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    Raises ValueError when the input is not symmetric to within a 1e-10
    relative tolerance; symmetrizing silently would hide modelling bugs.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    return float(np.min(np.linalg.eigvalsh(a)))


def max_height_sum_at_mean(spec: AmbiguitySpec, fn: SimpleFunctionSpec) -> float:
    """Largest value the simple function can take at the mean.

    Variable boxes: heights are fixed positive data and every box may cover
    the mean, so the sum of positive heights.  Fixed boxes: the indicators
    at the mean are constants; with pinned heights this is a plain
    evaluation, otherwise one LP over the height polytope.  validate_spec
    runs that LP too, so it goes through drobox.sdp (scipy.optimize is slow
    to import), and its outcome is kept in mode.height_lp: one command
    builds one mode and solves the LP once, for every step.  Raises
    ValueError when the LP is unbounded, infeasible (an empty polytope) or
    fails.
    """
    if isinstance(fn.mode, VariableBoxes):
        return float(np.sum(np.maximum(fn.heights, 0.0)))

    mode = fn.mode
    at_mean = np.array([1.0 if box.contains(spec.mu) else 0.0 for box in mode.boxes])
    if mode.heights_pinned:
        return float(at_mean @ fn.heights)
    key = at_mean.tobytes()
    if key not in mode.height_lp:
        mode.height_lp[key] = _height_lp(fn, at_mean)
    outcome = mode.height_lp[key]
    if isinstance(outcome, str):
        raise ValueError(outcome)
    return outcome


def _height_lp(fn: SimpleFunctionSpec, at_mean: np.ndarray):
    """max at_mean . h over the height polytope, or the error message."""
    program = ConicProgram()
    names = [program.add_scalar("h[%d]" % i) for i in range(fn.k)]
    for row in fn.mode.constraints:
        program.add_row(dict(zip(names, row.coeffs)), row.sense, row.rhs)
    program.set_objective("max", dict(zip(names, at_mean)))
    # the trace bound wants the optimum itself, not one within 1e-8; a
    # tolerance that tight can miss an unbounded ray, which the default finds
    sol = solve_sdp(program, tol=1e-12)
    if sol.status == "numerical-failure":
        sol = solve_sdp(program)
    if sol.status == "unbounded":
        return "height polytope leaves the value at the mean unbounded"
    if sol.status != "optimal":
        return "height polytope is empty or the LP failed: %s" % sol.status
    return float(sol.objective)


def trace_bounds(spec: AmbiguitySpec, fn: SimpleFunctionSpec) -> tuple[float, float]:
    """Upper bounds on Tr(Y1) and Tr(Y2) for feasible dual matrices.

    Returns (tr_y1_max, tr_y2_max), unrounded:

        tr_y1_max = (S + |b|) / lambda_min(blockdiag(Sigma, 1))
        tr_y2_max = 1 / (eps_sigma * lambda_min(Sigma))

    with S the largest value of the simple function at the mean.  Raises
    ValueError when either eigenvalue is nonpositive.
    """
    return _trace_bounds(spec, fn)[:2]


def _trace_bounds(spec: AmbiguitySpec, fn: SimpleFunctionSpec) -> tuple:
    """trace_bounds' (tr_y1_max, tr_y2_max), then lambda_min(blockdiag(Sigma,
    1)) and lambda_min(Sigma), its denominators."""
    lam_sigma = sym_min_eig(spec.sigma)
    block = np.zeros((spec.m + 1, spec.m + 1))
    block[: spec.m, : spec.m] = spec.sigma
    block[spec.m, spec.m] = 1.0
    lam_block = sym_min_eig(block)
    if lam_sigma <= 0.0 or lam_block <= 0.0:
        raise ValueError("covariance must be strictly positive definite")
    if spec.eps_sigma <= 0.0:
        raise ValueError("eps_sigma must be positive")
    s_max = max_height_sum_at_mean(spec, fn)
    numerator = max(s_max + abs(spec.b), 0.0)
    return numerator / lam_block, 1.0 / (spec.eps_sigma * lam_sigma), lam_block, lam_sigma


def lipschitz_constant(spec: AmbiguitySpec, tr_y1_max: float, tr_y2_max: float) -> float:
    """Lipschitz bound for the moment part of the dual integrand.

        L = 2 * tr_y1_max + (M - min_j mu_j) * tr_y2_max * 2 * sqrt(m)

    Requires min_j mu_j <= M / 2 (the domain reaches far enough past the
    mean on some axis for this radius bound to hold).
    """
    m, M = spec.m, spec.edge
    mu_min = float(np.min(spec.mu))
    if mu_min > M / 2.0:
        raise ValueError("need min_j mu_j <= edge / 2")
    return 2.0 * tr_y1_max + (M - mu_min) * tr_y2_max * 2.0 * math.sqrt(m)


def max_safe_step(spec: AmbiguitySpec, L: float) -> float:
    """Largest step delta with guaranteed-feasible margin, (1 - b) / (L sqrt(m)).

    Returns 0.0 when b >= 1 (no margin is available at any step) and +inf
    when L == 0 (the moment part is constant).
    """
    if L < 0.0:
        raise ValueError("L must be nonnegative")
    if spec.b >= 1.0:
        return 0.0
    if L == 0.0:
        return math.inf
    return (1.0 - spec.b) / (L * math.sqrt(spec.m))


def safety_margin(L: float, delta: float, m: int) -> float:
    """The lattice-row margin L * delta * sqrt(m)."""
    return L * delta * math.sqrt(m)


def lipschitz_certificate(spec: AmbiguitySpec, fn: SimpleFunctionSpec) -> LipschitzCertificate:
    """Compute the full certificate for one instance."""
    tr1, tr2, lam_block, lam_sigma = _trace_bounds(spec, fn)
    L = lipschitz_constant(spec, tr1, tr2)
    delta_max = max_safe_step(spec, L)
    return LipschitzCertificate(
        tr_y1_max=tr1,
        tr_y2_max=tr2,
        L=L,
        delta_max=delta_max,
        lambda_min_block=lam_block,
        lambda_min_sigma=lam_sigma,
        feasible_step_exists=spec.b < 1.0,
    )
