"""Discretization of the robust constraint into finite conic programs.

Both assembly paths share the dual variables (Y1, Y2, y) and two row
families: the threshold row tying the dual objective to the required level
b, and one sampled row per lattice point with the safety margin
L * delta * sqrt(m) on the right-hand side.

Fixed mode (boxes are data, heights decide) samples exact indicator values
and yields a plain SDP over the height polytope.  Variable mode (heights
are data, box bounds decide) replaces indicator values with binary
membership variables b~ per (box, lattice point) and encodes "the b~
pattern is a lattice-aligned box" through jump binaries: per box, axis and
lattice point a pair (dm, dp) balanced against the consecutive b~
difference along the axis, at most two jumps per grid line, and bound
rows pinning the box corners x-, x+ to the jump positions.  The width-sum
objective is linearized through auxiliaries z >= +-(x+ - x-) and
minimized.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    BoxRegion,
    DualSolution,
    FixedBoxes,
    Lattice,
    SimpleFunctionSpec,
    VariableBoxes,
    WholeDomain,
    first_moment_block,
    second_moment_outer,
)
from .sdp import ConicProgram, dump_program


@dataclass(frozen=True, eq=False)
class AssembledModel:
    """A compiled instance: conic program plus decoding metadata.

    var_index maps structured keys to program variable names:
    ("Y1",), ("Y2",), ("y", i), ("x", i) in fixed mode, and in variable
    mode ("bt", i, flat), ("dm", i, axis, flat), ("dp", i, axis, flat),
    ("xm", i, axis), ("xp", i, axis) plus ("z", i, axis) when the
    width-sum objective is active.
    """

    program: ConicProgram
    var_index: dict
    margin: float
    lattice: Lattice
    spec: object
    fn: SimpleFunctionSpec
    case: str  # "fixed" | "variable"
    objective_quantum: Optional[float]

    def dump(self) -> str:
        return dump_program(self.program)


def _confidence_indicator(region, t) -> float:
    if isinstance(region, WholeDomain):
        return 1.0
    return 1.0 if bool(region.contains(t)) else 0.0


def _add_dual_variables(program: ConicProgram, spec, var_index: dict):
    m = spec.m
    program.add_psd("Y1", m + 1)
    program.add_psd("Y2", m)
    var_index[("Y1",)] = "Y1"
    var_index[("Y2",)] = "Y2"
    for i in range(len(spec.confidence_sets)):
        name = "y[%d]" % i
        program.add_scalar(name, nonneg=True)
        var_index[("y", i)] = name


def decode_duals(sol, model: AssembledModel) -> DualSolution:
    """The (Y1, Y2, y) values of an optimal solve of model.program."""
    spec = model.spec
    return DualSolution(
        Y1=sol.value("Y1"),
        Y2=sol.value("Y2"),
        y=np.array([sol.value("y[%d]" % i) for i in range(len(spec.confidence_sets))]),
        spec=spec,
    )


def _add_threshold_row(program: ConicProgram, spec):
    lin = {}
    for i, cs in enumerate(spec.confidence_sets):
        lin["y[%d]" % i] = cs.eps
    program.add_row(lin, ">=", spec.b,
                    mats={"Y2": -spec.eps_sigma * spec.sigma}, name="threshold")


def _lattice_row_base(spec, t):
    """Dual-side terms of a sampled row at lattice point t."""
    lin = {}
    for i, cs in enumerate(spec.confidence_sets):
        ind = _confidence_indicator(cs.region, t)
        if ind:
            lin["y[%d]" % i] = -math.copysign(1.0, cs.eps) * ind
    mats = {"Y1": -first_moment_block(t, spec), "Y2": second_moment_outer(t, spec)}
    return lin, mats


def _margin_value(spec, lattice, L, margin_override):
    if margin_override is not None:
        return float(margin_override)
    margin = L * lattice.delta * math.sqrt(spec.m)
    if margin <= 0.0:
        raise ValueError("safety margin must be positive, got %g" % margin)
    return margin


def assemble_case1(spec, fn: SimpleFunctionSpec, lattice: Lattice,
                   L: float) -> AssembledModel:
    """Fixed boxes, heights as the decision: a plain SDP.

    Rows: the threshold row, one sampled row per lattice point with exact
    indicator values, the user's height constraints, and (when the mode is
    pinned) equality rows freezing the heights to fn.heights.  The
    objective vector, when present, is minimized.
    """
    mode = fn.mode
    if not isinstance(mode, FixedBoxes):
        raise TypeError("assemble_case1 expects a FixedBoxes decision mode")
    if len(mode.boxes) == 0:
        raise ValueError("at least one box is required")
    for box in mode.boxes:
        for j in range(lattice.dim):
            lattice.index_of_value(box.lower[j])
            lattice.index_of_value(box.upper[j])
    margin = _margin_value(spec, lattice, L, None)

    program = ConicProgram()
    var_index: dict = {}
    k = len(mode.boxes)
    for i in range(k):
        name = "x[%d]" % i
        program.add_scalar(name)
        var_index[("x", i)] = name
    _add_dual_variables(program, spec, var_index)
    _add_threshold_row(program, spec)

    for f in range(lattice.n_points):
        t = lattice.points[f]
        lin, mats = _lattice_row_base(spec, t)
        for i, box in enumerate(mode.boxes):
            if bool(box.contains(t)):
                lin["x[%d]" % i] = 1.0
        program.add_row(lin, ">=", margin, mats=mats, name="lattice[%d]" % f)

    if mode.heights_pinned:
        for i in range(k):
            program.add_row({"x[%d]" % i: 1.0}, "==", float(fn.heights[i]),
                            name="pin[%d]" % i)
        program.set_objective("min", {})
    else:
        for n, con in enumerate(mode.constraints):
            coeffs = {("x[%d]" % i): float(con.coeffs[i]) for i in range(k)
                      if con.coeffs[i] != 0.0}
            program.add_row(coeffs, con.sense, con.rhs, name="user[%d]" % n)
        if mode.objective is not None:
            program.set_objective(
                "min", {("x[%d]" % i): float(mode.objective[i]) for i in range(k)}
            )
        else:
            program.set_objective("min", {})
    return AssembledModel(program, var_index, margin, lattice, spec, fn,
                          "fixed", None)


def assemble_case2(spec, fn: SimpleFunctionSpec, lattice: Lattice, L: float,
                   margin_override: Optional[float] = None) -> AssembledModel:
    """Variable boxes with fixed positive heights: the mixed-binary model.

    Binary variables: membership bt per (box, lattice point) and jump
    pairs (dm, dp) per (box, axis, lattice point).  Continuous variables:
    box corners xm, xp per (box, axis), the dual block, and (width-sum
    mode) the linearization auxiliaries z.  margin_override is a testing
    hook that replaces the safety margin on the sampled rows.
    """
    mode = fn.mode
    if not isinstance(mode, VariableBoxes):
        raise TypeError("assemble_case2 expects a VariableBoxes decision mode")
    heights = np.asarray(fn.heights, dtype=float)
    if np.any(heights <= 0.0):
        raise ValueError("variable mode requires strictly positive heights")
    margin = _margin_value(spec, lattice, L, margin_override)
    k = fn.k
    m = lattice.dim
    edge = lattice.edge
    delta = lattice.delta
    n_points = lattice.n_points

    program = ConicProgram()
    var_index: dict = {}
    for i in range(k):
        for f in range(n_points):
            name = "bt[%d,%d]" % (i, f)
            program.add_binary(name)
            var_index[("bt", i, f)] = name
    for i in range(k):
        for j in range(m):
            for f in range(n_points):
                dm = "dm[%d,%d,%d]" % (i, j, f)
                dp = "dp[%d,%d,%d]" % (i, j, f)
                program.add_binary(dm)
                program.add_binary(dp)
                var_index[("dm", i, j, f)] = dm
                var_index[("dp", i, j, f)] = dp
    for i in range(k):
        for j in range(m):
            xm = "xm[%d,%d]" % (i, j)
            xp = "xp[%d,%d]" % (i, j)
            program.add_scalar(xm, nonneg=True)
            program.add_scalar(xp, nonneg=True)
            var_index[("xm", i, j)] = xm
            var_index[("xp", i, j)] = xp
    if mode.width_sum:
        for i in range(k):
            for j in range(m):
                z = "z[%d,%d]" % (i, j)
                program.add_scalar(z, nonneg=True)
                var_index[("z", i, j)] = z
    _add_dual_variables(program, spec, var_index)
    _add_threshold_row(program, spec)

    for f in range(n_points):
        t = lattice.points[f]
        lin, mats = _lattice_row_base(spec, t)
        for i in range(k):
            lin["bt[%d,%d]" % (i, f)] = float(heights[i])
        program.add_row(lin, ">=", margin, mats=mats, name="lattice[%d]" % f)

    # jump balance: bt(next along axis) - bt(here) = dm - dp, with bt = 0
    # past the upper edge of the domain
    for i in range(k):
        for j in range(m):
            for f in range(n_points):
                multi = lattice.multi_of_flat(f)
                lin = {"bt[%d,%d]" % (i, f): -1.0,
                       "dm[%d,%d,%d]" % (i, j, f): -1.0,
                       "dp[%d,%d,%d]" % (i, j, f): 1.0}
                if multi[j] + 1 < lattice.n_axis:
                    nxt = list(multi)
                    nxt[j] += 1
                    lin["bt[%d,%d]" % (i, lattice.flat_of_multi(nxt))] = 1.0
                program.add_row(lin, "==", 0.0, name="jump[%d,%d,%d]" % (i, j, f))

    for i in range(k):
        for j in range(m):
            xm = "xm[%d,%d]" % (i, j)
            xp = "xp[%d,%d]" % (i, j)
            for nline, line in enumerate(lattice.lines(j)):
                pos = lattice.points[line, j]
                dms = ["dm[%d,%d,%d]" % (i, j, f) for f in line]
                dps = ["dp[%d,%d,%d]" % (i, j, f) for f in line]
                bts = ["bt[%d,%d]" % (i, f) for f in line]
                tag = "[%d,%d,%d]" % (i, j, nline)
                lin = {u: 1.0 for u in dms}
                lin.update({u: 1.0 for u in dps})
                program.add_row(lin, "<=", 2.0, name="budget" + tag)
                lin = {xm: 1.0}
                lin.update({u: -(float(p) + delta) for u, p in zip(dms, pos)})
                program.add_row(lin, ">=", 0.0, name="xlo" + tag)
                lin = {xp: 1.0}
                lin.update({u: (edge - float(p)) for u, p in zip(dps, pos)})
                program.add_row(lin, "<=", edge, name="xhi" + tag)
                lin = {xp: 1.0, xm: -1.0}
                lin.update({u: (float(p) + delta) for u, p in zip(dms, pos)})
                lin.update({u: -float(p) for u, p in zip(dps, pos)})
                program.add_row(lin, ">=", 0.0, name="wlow" + tag)
                lin = {xp: 1.0, xm: -1.0}
                lin.update({u: -delta for u in bts})
                program.add_row(lin, ">=", -delta, name="wline" + tag)
            program.add_row({xp: 1.0}, "<=", edge, name="xmax[%d,%d]" % (i, j))
            program.add_row({xp: 1.0, xm: -1.0}, ">=", 0.0,
                            name="wnn[%d,%d]" % (i, j))

    quantum: Optional[float] = None
    if mode.width_sum:
        obj = {}
        for i in range(k):
            for j in range(m):
                z = "z[%d,%d]" % (i, j)
                xm = "xm[%d,%d]" % (i, j)
                xp = "xp[%d,%d]" % (i, j)
                program.add_row({z: 1.0, xp: -1.0, xm: 1.0}, ">=", 0.0,
                                name="zlo[%d,%d]" % (i, j))
                program.add_row({z: 1.0, xp: 1.0, xm: -1.0}, ">=", 0.0,
                                name="zhi[%d,%d]" % (i, j))
                obj[z] = 1.0
        program.set_objective("min", obj)
        if not mode.constraints:
            quantum = delta
    else:
        obj = {}
        c_minus = np.asarray(mode.c_minus, dtype=float)
        c_plus = np.asarray(mode.c_plus, dtype=float)
        for i in range(k):
            for j in range(m):
                obj["xm[%d,%d]" % (i, j)] = float(c_minus[i, j])
                obj["xp[%d,%d]" % (i, j)] = float(c_plus[i, j])
        program.set_objective(mode.sense, obj)

    for n, con in enumerate(mode.constraints):
        coeffs = np.asarray(con.coeffs, dtype=float)
        lin = {}
        for i in range(k):
            for j in range(m):
                cm = float(coeffs[i * m + j])
                cp = float(coeffs[k * m + i * m + j])
                if cm:
                    lin["xm[%d,%d]" % (i, j)] = cm
                if cp:
                    lin["xp[%d,%d]" % (i, j)] = cp
        program.add_row(lin, con.sense, con.rhs, name="user[%d]" % n)

    return AssembledModel(program, var_index, margin, lattice, spec, fn,
                          "variable", quantum)


def decode_box(values: dict, model: AssembledModel) -> list:
    """Read lattice-aligned boxes off a binary assignment.

    values maps program variable names to numbers (e.g. SdpSolution.primal
    after fixing binaries, or a canonical assignment).  Per box the b~
    support must form a full lattice rectangle; an all-zero pattern decodes
    to the width-0 sentinel box at the origin with a warning.
    """
    if model.case != "variable":
        raise ValueError("decode_box applies to variable-mode models")
    lattice = model.lattice
    out = []
    for i in range(model.fn.k):
        vals = np.array([values["bt[%d,%d]" % (i, f)] for f in range(lattice.n_points)],
                        dtype=float)
        if np.any(np.minimum(np.abs(vals), np.abs(vals - 1.0)) > 1e-6):
            raise ValueError("fractional membership values for box %d" % i)
        support = np.nonzero(vals > 0.5)[0]
        if support.size == 0:
            warnings.warn("box %d has empty support; decoding as the empty sentinel" % i)
            out.append(BoxRegion(np.zeros(lattice.dim), np.zeros(lattice.dim)))
            continue
        pts = lattice.points[support]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        expected = 1
        for j in range(lattice.dim):
            expected *= int(round((hi[j] - lo[j]) / lattice.delta)) + 1
        if expected != support.size:
            raise ValueError(
                "inconsistent assignment for box %d: support is not a lattice rectangle" % i
            )
        out.append(BoxRegion(lo, hi))
    return out


def implied_jumps(bt: dict, model: AssembledModel) -> dict:
    """Jump binaries implied by decided membership values.

    bt maps membership names "bt[i,f]" to 0 or 1 and may be partial.  For
    each lattice step the jump row forces dm - dp = next - here, with
    "next" equal to 0 past the upper boundary.  Wherever both endpoints
    are decided the difference pins (dm, dp) up to the wasteful (1, 1)
    choice at equal endpoints; that choice burns per-line jump budget and
    tightens nothing, so the returned pair is always the sparse one.
    Steps with an undecided endpoint get no entry.
    """
    lattice = model.lattice
    out = {}
    for i in range(model.fn.k):
        grid = np.array([bt.get("bt[%d,%d]" % (i, f), np.nan)
                         for f in range(lattice.n_points)], dtype=float)
        grid = grid.reshape(lattice.shape)
        for j in range(lattice.dim):
            pad_shape = list(lattice.shape)
            pad_shape[j] = 1
            shifted = np.concatenate(
                [np.take(grid, range(1, lattice.n_axis), axis=j), np.zeros(pad_shape)],
                axis=j)
            diff = (shifted - grid).reshape(-1)
            for f in np.nonzero(~np.isnan(diff))[0]:
                out["dm[%d,%d,%d]" % (i, j, f)] = 1.0 if diff[f] > 0.5 else 0.0
                out["dp[%d,%d,%d]" % (i, j, f)] = 1.0 if diff[f] < -0.5 else 0.0
    return out


def canonical_assignment(boxes, model: AssembledModel) -> dict:
    """Binary assignment putting each given box into the encoding.

    boxes is a sequence of BoxRegion or None (empty).  Width-0 sentinel
    boxes count as empty.  Returns values for every binary variable:
    b~ = box membership, and the jumps implied_jumps derives from it (a
    dm jump one step below each interior lower edge, a dp jump at each
    upper edge, both on grid lines meeting the box).
    """
    if model.case != "variable":
        raise ValueError("canonical_assignment applies to variable-mode models")
    lattice = model.lattice
    values = {}
    for i in range(model.fn.k):
        box = boxes[i]
        if box is not None and np.all(box.upper == 0.0) and np.all(box.widths == 0.0):
            box = None  # the origin sentinel decode_box emits for empty supports
        if box is None:
            member = np.zeros(lattice.n_points, dtype=bool)
        else:
            for j in range(lattice.dim):
                lattice.index_of_value(box.lower[j])
                lattice.index_of_value(box.upper[j])
            member = np.asarray(box.contains(lattice.points), dtype=bool)
        for f in range(lattice.n_points):
            values["bt[%d,%d]" % (i, f)] = 1.0 if member[f] else 0.0
    values.update(implied_jumps(values, model))
    return values
