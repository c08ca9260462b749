"""Core data model for distributionally robust box-constraint instances.

The domain is the hypercube T = [0, M]^m.  A decision is a simple function
v(t) = sum_i x_i * 1_{B_i}(t) built from axis-aligned boxes B_i inside T.
The ambiguity set over probability measures P on T combines

* a first-moment trust region: the (m+1) x (m+1) block matrix
  [[Sigma, E_P[t] - mu], [(E_P[t] - mu)^T, eps_mu]] must be PSD,
* a second-moment cap: E_P[(t - mu)(t - mu)^T] <= eps_sigma * Sigma in the
  Loewner order,
* confidence rows sign(eps_i) * P(T_i) >= eps_i over box or whole-domain
  regions T_i.  The first two rows are always the normalization pair
  (T, -1), (T, +1), which together force P(T) = 1.

This module holds the instance types, the exact and smoothed indicators and
the regular lattice used by the discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

ALIGNMENT_TOL = 1e-9


def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BoxRegion:
    """Closed axis-aligned box, the product of [lower_j, upper_j] over axes."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _readonly(np.atleast_1d(np.asarray(self.lower, dtype=float)))
        up = _readonly(np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if lo.ndim != 1 or up.shape != lo.shape:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if np.any(up < lo):
            raise ValueError(
                "box has upper < lower: lower=%s upper=%s" % (lo.tolist(), up.tolist())
            )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, t) -> np.ndarray:
        """Closed membership test; t has shape (m,) or (N, m)."""
        t = np.asarray(t, dtype=float)
        return np.all((t >= self.lower) & (t <= self.upper), axis=-1)

    def __repr__(self):
        return "BoxRegion(%s, %s)" % (self.lower.tolist(), self.upper.tolist())


class WholeDomain:
    """Marker region standing for the whole domain T in confidence rows."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def contains(self, t) -> np.ndarray:
        """Every point is in T; t has shape (m,) or (N, m)."""
        return np.ones(np.shape(t)[:-1], dtype=bool)

    def __repr__(self):
        return "WholeDomain()"


Region = Union[BoxRegion, WholeDomain]


@dataclass(frozen=True, eq=False)
class ConfidenceSet:
    """One confidence row: sign(eps) * P(region) >= eps."""

    region: Region
    eps: float


def normalization_pair() -> tuple[ConfidenceSet, ConfidenceSet]:
    """The two whole-domain rows forcing P(T) = 1."""
    return (ConfidenceSet(WholeDomain(), -1.0), ConfidenceSet(WholeDomain(), 1.0))


@dataclass(frozen=True, eq=False)
class AmbiguitySpec:
    """Moment ambiguity set over probability measures on [0, edge]^m.

    confidence_sets is an ordered tuple whose first two entries must be the
    normalization pair; further entries are instance-specific confidence
    rows.  Value-level invariants (SPD covariance, eps ranges, mean
    membership) are checked by validate_spec, not at construction, so that
    invalid instances can be loaded and reported.
    """

    edge: float
    mu: np.ndarray
    sigma: np.ndarray
    eps_mu: float
    eps_sigma: float
    b: float
    confidence_sets: tuple[ConfidenceSet, ...]

    def __post_init__(self):
        mu = _readonly(np.atleast_1d(np.asarray(self.mu, dtype=float)))
        sigma = _readonly(np.asarray(self.sigma, dtype=float))
        if sigma.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError("sigma must be square with side len(mu)")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "confidence_sets", tuple(self.confidence_sets))

    @property
    def m(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def with_normalization(
        cls, edge, mu, sigma, eps_mu, eps_sigma, b, extra_sets: Sequence[ConfidenceSet] = ()
    ) -> "AmbiguitySpec":
        """Build a spec with the normalization pair prepended automatically."""
        return cls(
            edge=edge,
            mu=mu,
            sigma=sigma,
            eps_mu=eps_mu,
            eps_sigma=eps_sigma,
            b=b,
            confidence_sets=normalization_pair() + tuple(extra_sets),
        )


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """One scalar linear side constraint a . z {<=,>=,==} rhs.

    For fixed-box instances z is the height vector (length k).  For
    variable-box instances z is the concatenation (x_minus row-major,
    x_plus row-major) of the box bound matrices, length 2*k*m.
    """

    coeffs: np.ndarray
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError("sense must be one of <=, >=, ==")
        object.__setattr__(self, "coeffs", _readonly(np.atleast_1d(self.coeffs)))


@dataclass(frozen=True, eq=False)
class FixedBoxes:
    """Boxes are data; heights are the decision, ranging over a polytope.

    With no constraints and no objective the heights are pinned to the
    values stored on the SimpleFunctionSpec (pure feasibility check).
    An objective vector, when given, is minimized over the polytope.
    """

    boxes: tuple[BoxRegion, ...]
    objective: np.ndarray | None = None
    constraints: tuple[LinearConstraint, ...] = ()
    # outcome of lipschitz.max_height_sum_at_mean's LP per objective: the
    # polytope is fixed, so validation and the trace bounds of every step
    # share one solve per instance
    height_lp: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.objective is not None:
            object.__setattr__(self, "objective", _readonly(self.objective))

    @property
    def heights_pinned(self) -> bool:
        return self.objective is None and not self.constraints


@dataclass(frozen=True, eq=False)
class VariableBoxes:
    """Heights are data; box bounds are the decision.

    With c_minus / c_plus both None the objective is the total width sum
    (minimized), linearized through auxiliary variables.  Otherwise the
    objective is sum_ij c_minus[i,j] * x_minus[i,j] + c_plus[i,j] * x_plus[i,j]
    with the given sense.  constraints cut the bound polytope further; the
    domain bounds 0 <= x_minus <= x_plus <= edge are always enforced.
    """

    c_minus: np.ndarray | None = None
    c_plus: np.ndarray | None = None
    sense: str = "max"
    constraints: tuple[LinearConstraint, ...] = ()

    def __post_init__(self):
        if (self.c_minus is None) != (self.c_plus is None):
            raise ValueError("c_minus and c_plus must be given together")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be min or max")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.c_minus is not None:
            object.__setattr__(self, "c_minus", _readonly(np.atleast_2d(self.c_minus)))
            object.__setattr__(self, "c_plus", _readonly(np.atleast_2d(self.c_plus)))

    @property
    def width_sum(self) -> bool:
        return self.c_minus is None

    @property
    def objective_sense(self) -> str:
        """min for the width sum, else sense."""
        return "min" if self.width_sum else self.sense


@dataclass(frozen=True, eq=False)
class SimpleFunctionSpec:
    """Simple function v(t) = sum_{i<k} heights[i] * 1_{B_i}(t)."""

    k: int
    heights: np.ndarray
    mode: Union[FixedBoxes, VariableBoxes]

    def __post_init__(self):
        object.__setattr__(self, "heights", _readonly(np.atleast_1d(self.heights)))


@dataclass(frozen=True, eq=False)
class Decision:
    """A concrete simple function: heights plus boxes, ready to evaluate."""

    heights: np.ndarray
    boxes: tuple[BoxRegion, ...]

    def __post_init__(self):
        object.__setattr__(self, "heights", _readonly(np.atleast_1d(self.heights)))
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if len(self.boxes) != self.heights.shape[0]:
            raise ValueError("need one box per height")

    @classmethod
    def nonempty(cls, heights, boxes) -> "Decision":
        """The decision of the heights whose box is not None (empty)."""
        pairs = [(h, box) for h, box in zip(heights, boxes) if box is not None]
        return cls([h for h, _ in pairs], [box for _, box in pairs])

    def evaluate(self, t) -> np.ndarray:
        """v(t) with exact indicators; t has shape (m,) or (N, m)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape[:-1], dtype=float)
        for h, box in zip(self.heights, self.boxes):
            out = out + h * box.contains(t)
        return out


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Dual variables (Y1, Y2, y) of the discretized robust constraint.

    Y1 is the (m+1) x (m+1) multiplier of the first-moment rows, Y2 the
    m x m multiplier of the second-moment cap, y the nonnegative vector of
    confidence-row multipliers ordered like spec.confidence_sets.
    """

    Y1: np.ndarray
    Y2: np.ndarray
    y: np.ndarray
    spec: AmbiguitySpec

    def __post_init__(self):
        object.__setattr__(self, "Y1", _readonly(self.Y1))
        object.__setattr__(self, "Y2", _readonly(self.Y2))
        object.__setattr__(self, "y", _readonly(np.atleast_1d(self.y)))

    def dual_objective(self) -> float:
        """sum_i eps_i * y_i - eps_sigma * <Sigma, Y2>, the certified lower bound."""
        eps = np.array([cs.eps for cs in self.spec.confidence_sets])
        return float(eps @ self.y - self.spec.eps_sigma * np.sum(self.spec.sigma * self.Y2))


# ---------------------------------------------------------------------------
# Lattice


def _on_lattice(values, delta: float) -> np.ndarray:
    """Whether each value is within ALIGNMENT_TOL of a multiple of delta,
    relative to the multiple's size; False for NaN and inf."""
    r = np.asarray(values, dtype=float) / delta
    with np.errstate(invalid="ignore"):
        off = np.abs(r - np.round(r))
    return np.isfinite(r) & (off <= ALIGNMENT_TOL * np.maximum(1.0, np.abs(r)))


@dataclass(frozen=True, eq=False)
class Lattice:
    """Regular grid with step delta on [0, edge]^m, boundary included.

    points is an (N, m) array in row-major order: the last coordinate
    varies fastest.  axis holds the shared per-axis values.
    """

    delta: float
    edge: float
    dim: int
    axis: np.ndarray
    points: np.ndarray
    shape: tuple[int, ...]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_axis(self) -> int:
        return self.axis.shape[0]

    def indices(self, values) -> np.ndarray:
        """Axis indices of coordinate values, an int array of their shape;
        raises ValueError for a value off the lattice or outside [0, edge]."""
        idx = np.round(np.asarray(values, dtype=float) / self.delta)
        if not np.all(_on_lattice(values, self.delta) & (idx >= 0) & (idx < self.n_axis)):
            raise ValueError("values %r are not all on the lattice axis" % (values,))
        return idx.astype(int)

    def box(self, lo, hi) -> BoxRegion | None:
        """The box of axis-index corners lo and hi; None (empty) when hi < lo."""
        if np.any(np.asarray(hi) < np.asarray(lo)):
            return None
        return BoxRegion(self.axis[lo], self.axis[hi])


def lattice_points(edge: float, dim: int, delta: float) -> Lattice:
    """Build the regular lattice with step delta on [0, edge]^dim.

    delta must divide edge to within a 1e-9 relative tolerance; both
    boundaries are included, so each axis carries edge/delta + 1 values.
    """
    if not (0 < delta < math.inf and 0 < edge < math.inf):
        raise ValueError("edge and delta must be positive and finite")
    steps = round(edge / delta)
    if steps < 1 or not _on_lattice(edge, delta):
        raise ValueError("delta=%r does not divide edge=%r" % (delta, edge))
    axis = np.linspace(0.0, edge, steps + 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack(grids, axis=-1).reshape(-1, dim)
    pts.setflags(write=False)
    ax = axis.copy()
    ax.setflags(write=False)
    return Lattice(
        delta=float(delta),
        edge=float(edge),
        dim=int(dim),
        axis=ax,
        points=pts,
        shape=(steps + 1,) * dim,
    )


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append("%s  %-28s %s" % (mark, c.name, c.detail))
        return "\n".join(lines)


def validate_spec(
    spec: AmbiguitySpec, fn: SimpleFunctionSpec, lattice: Lattice
) -> ValidationReport:
    """Check every instance invariant and report pass/fail per check.

    Nothing raises here (shape errors aside); the CLI turns a failing
    report into exit code 1.  Fixed boxes that pass every other check get
    one more: the LP of lipschitz.max_height_sum_at_mean, which the trace
    bounds need, must have a finite optimum over the height polytope.
    """
    m, M = spec.m, spec.edge
    mode = fn.mode
    checks: list[CheckResult] = []

    def add(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))

    def in_domain(boxes) -> bool:
        return all(b.dim == m and np.all(b.lower >= 0) and np.all(b.upper <= M) for b in boxes)

    def aligned(boxes) -> bool:
        return all(np.all(_on_lattice(np.r_[b.lower, b.upper], lattice.delta)) for b in boxes)

    cs_boxes = [c.region for c in spec.confidence_sets if isinstance(c.region, BoxRegion)]
    numbers = [M, spec.mu, spec.sigma, spec.eps_mu, spec.eps_sigma, spec.b, fn.heights]
    numbers += [getattr(mode, key, None) for key in ("objective", "c_minus", "c_plus")]
    numbers += [v for c in mode.constraints for v in (c.coeffs, c.rhs)]
    numbers += [v for b in cs_boxes + list(getattr(mode, "boxes", ())) for v in (b.lower, b.upper)]
    add("numbers_finite", all(np.all(np.isfinite(v)) for v in numbers if v is not None),
        "edge, mu, sigma, eps_mu, eps_sigma, b, heights, boxes, objective and constraints")
    sym = bool(np.allclose(spec.sigma, spec.sigma.T, rtol=0, atol=0))
    lam = float(np.min(np.linalg.eigvalsh((spec.sigma + spec.sigma.T) / 2.0)))
    add(
        "sigma_spd",
        sym and lam > 0.0,
        "symmetric=%s min_eig=%.3e" % (sym, lam),
    )
    add("eps_mu_nonnegative", spec.eps_mu >= 0.0, "eps_mu=%g" % spec.eps_mu)
    add(
        "eps_sigma_at_least_one",
        spec.eps_sigma >= 1.0,
        "eps_sigma=%g (the second-moment cap requires eps_sigma >= 1)" % spec.eps_sigma,
    )
    add("edge_positive", M > 0.0, "edge=%g" % M)
    add(
        "mean_in_domain",
        bool(np.all(spec.mu >= 0.0) and np.all(spec.mu <= M)),
        "mu=%s" % spec.mu.tolist(),
    )
    add(
        "mean_in_lower_half",
        bool(np.min(spec.mu) <= M / 2.0),
        "min(mu)=%g edge/2=%g" % (float(np.min(spec.mu)), M / 2.0),
    )

    cs = spec.confidence_sets
    pair_ok = (
        len(cs) >= 2
        and isinstance(cs[0].region, WholeDomain)
        and isinstance(cs[1].region, WholeDomain)
        and cs[0].eps == -1.0
        and cs[1].eps == 1.0
    )
    add("normalization_pair", pair_ok, "first two rows must be (T,-1),(T,+1)")
    eps_ok = all(-1.0 <= c.eps <= 1.0 and c.eps != 0.0 for c in cs)
    add("confidence_eps_range", eps_ok, "each eps_i in [-1,1] and nonzero")
    mean_ok, mean_detail = True, ""
    for i, c in enumerate(cs[2:], start=2):
        inside = bool(c.region.contains(spec.mu))
        if inside != (c.eps > 0.0):
            mean_ok = False
            mean_detail = "row %d: mu inside=%s but eps=%g" % (i, inside, c.eps)
            break
    add("mean_membership_matches_sign", mean_ok, mean_detail)
    add("confidence_regions_in_domain", in_domain(cs_boxes), "")

    add("heights_length", fn.k >= 1 and fn.heights.shape == (fn.k,),
        "heights shape %s, need a non-empty (k,) vector" % (fn.heights.shape,))
    if isinstance(fn.mode, FixedBoxes):
        boxes = fn.mode.boxes
        add("box_count", len(boxes) == fn.k, "%d boxes for k=%d" % (len(boxes), fn.k))
        add("boxes_in_domain", in_domain(boxes), "")
        add("fixed_boxes_lattice_aligned", aligned(boxes), "delta=%g" % lattice.delta)
        if fn.mode.objective is not None:
            add("objective_shape", fn.mode.objective.shape == (fn.k,), "need a (k,) objective")
    else:
        add(
            "variable_heights_positive",
            bool(np.all(fn.heights > 0.0)),
            "heights=%s" % fn.heights.tolist(),
        )
        if not fn.mode.width_sum:
            shape_ok = fn.mode.c_minus.shape == (fn.k, m) and fn.mode.c_plus.shape == (fn.k, m)
            add("objective_shape", shape_ok, "need (k, m) coefficient matrices")
    want = fn.k if isinstance(fn.mode, FixedBoxes) else 2 * fn.k * m
    lengths = [c.coeffs.shape for c in fn.mode.constraints]
    add("constraint_lengths", all(n == (want,) for n in lengths),
        "coeffs shapes %s, need (%d,)" % (lengths, want))

    add("confidence_boxes_lattice_aligned", aligned(cs_boxes), "delta=%g" % lattice.delta)

    add(
        "lattice_matches_instance",
        lattice.dim == m and abs(lattice.edge - M) <= ALIGNMENT_TOL * max(1.0, M),
        "lattice dim=%d edge=%g" % (lattice.dim, lattice.edge),
    )
    if isinstance(fn.mode, FixedBoxes) and all(c.passed for c in checks):
        from .lipschitz import max_height_sum_at_mean  # lipschitz imports this module

        try:
            add("height_value_at_mean_bounded", True,
                "max=%g" % max_height_sum_at_mean(spec, fn))
        except ValueError as exc:
            add("height_value_at_mean_bounded", False, str(exc))
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Indicators


def smoothed_indicator(t, box: BoxRegion, delta: float) -> np.ndarray:
    """Upper tent: 1 on the box, linear decay to 0 at distance delta outside.

    Per axis the factor is clip(1 - d_j / delta, 0, 1) with d_j the distance
    from t_j to [lower_j, upper_j]; the result is the product over axes.
    Dominates the exact indicator pointwise.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = np.asarray(t, dtype=float)
    dist = np.maximum(box.lower - t, t - box.upper)
    factors = np.clip(1.0 - np.maximum(dist, 0.0) / delta, 0.0, 1.0)
    return np.prod(factors, axis=-1)


def smoothed_indicator_lower(t, box: BoxRegion, delta: float) -> np.ndarray:
    """Lower tent: 0 outside the box, linear rise to 1 at depth delta inside.

    Per axis the factor is clip(min(t_j - lower_j, upper_j - t_j) / delta,
    0, 1).  Dominated by the exact indicator pointwise; on boxes narrower
    than 2 * delta the peak stays below 1, which keeps the safe side.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = np.asarray(t, dtype=float)
    depth = np.minimum(t - box.lower, box.upper - t)
    factors = np.clip(depth / delta, 0.0, 1.0)
    return np.prod(factors, axis=-1)
