"""Discretization of the robust constraint into finite conic programs.

Both assembly paths share the dual variables (Y1, Y2, y) and two row
families: the threshold row tying the dual objective to the required level
b, and one sampled row per lattice point with the safety margin on the
right-hand side.  The caller computes that margin, L * delta * sqrt(m),
once per solve and passes it in.

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

Fixed mode can also build the sampled rows of a few lattice points only:
`drobox solve` adds the rows that bind as it goes, in the loop of
certify.column_generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import Pricer
from .model import DualSolution, FixedBoxes, Lattice, SimpleFunctionSpec, VariableBoxes
from .sdp import ConicProgram


@dataclass(frozen=True, eq=False)
class AssembledModel:
    """A compiled instance: conic program plus decoding metadata.

    var_index maps the structured keys of the mixed-binary variables to
    their program names: ("bt", i, flat), ("dm", i, axis, flat),
    ("dp", i, axis, flat), ("xm", i, axis), ("xp", i, axis) plus
    ("z", i, axis) when the width-sum objective is active.  It is empty in
    fixed mode, where decode_fixed reads the solve.
    """

    program: ConicProgram
    var_index: dict
    lattice: Lattice
    spec: object
    fn: SimpleFunctionSpec
    case: str  # "fixed" | "variable"


def _add_dual_variables(program: ConicProgram, spec):
    m = spec.m
    program.add_psd("Y1", m + 1)
    program.add_psd("Y2", m)
    for i in range(len(spec.confidence_sets)):
        program.add_scalar("y[%d]" % i, nonneg=True)


def decode_fixed(sol, spec, k: int) -> tuple:
    """(heights, DualSolution) of an optimal solve of an assemble_case1 program
    with k boxes."""
    heights = [sol.value("x[%d]" % i) for i in range(k)]
    y = np.array([sol.value("y[%d]" % i) for i in range(len(spec.confidence_sets))])
    return heights, DualSolution(Y1=sol.value("Y1"), Y2=sol.value("Y2"), y=y, spec=spec)


def _add_threshold_row(program: ConicProgram, spec):
    lin = {}
    for i, cs in enumerate(spec.confidence_sets):
        lin["y[%d]" % i] = cs.eps
    program.add_row(lin, ">=", spec.b,
                    mats={"Y2": -spec.eps_sigma * spec.sigma}, name="threshold")


def _lattice_rows(spec, lattice: Lattice, atoms: np.ndarray):
    """The dual-side terms (lin, mats) of the sampled row of each atom, read
    from the Pricer of the atoms: -sgn(eps_i) 1[t in C_i] on y[i], -F1(t) on
    Y1 and (t - mu)(t - mu)^T on Y2."""
    price = Pricer(spec, lattice.points[atoms], 0.0)
    first, outer = price.moments(slice(None))
    for signs, Y1, Y2 in zip(price.rows, -first, outer):
        yield {"y[%d]" % i: -float(signs[i]) for i in np.flatnonzero(signs)}, {"Y1": Y1, "Y2": Y2}


def assemble_case1(spec, fn: SimpleFunctionSpec, lattice: Lattice,
                   margin: float, atoms: Optional[np.ndarray] = None) -> AssembledModel:
    """Fixed boxes, heights as the decision: a plain SDP.

    Rows: the threshold row, one sampled row per lattice point with exact
    indicator values and margin on the right, the user's height
    constraints, and (when the mode is pinned) equality rows freezing the
    heights to fn.heights.  The objective vector, when present, is
    minimized.  With atoms, the flat indices of some lattice points, only
    their sampled rows are built: a relaxation of the full program.
    """
    mode = fn.mode
    if not isinstance(mode, FixedBoxes):
        raise TypeError("assemble_case1 expects a FixedBoxes decision mode")
    if len(mode.boxes) == 0:
        raise ValueError("at least one box is required")
    lattice.indices([np.r_[box.lower, box.upper] for box in mode.boxes])

    program = ConicProgram()
    k = len(mode.boxes)
    for i in range(k):
        program.add_scalar("x[%d]" % i)
    _add_dual_variables(program, spec)
    _add_threshold_row(program, spec)

    if atoms is None:
        atoms = np.arange(lattice.n_points)
    pts = lattice.points[atoms]
    inside = np.stack([box.contains(pts) for box in mode.boxes], axis=1)
    for f, hits, (lin, mats) in zip(atoms, inside, _lattice_rows(spec, lattice, atoms)):
        for i in np.flatnonzero(hits):
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
    return AssembledModel(program, {}, lattice, spec, fn, "fixed")


def assemble_case2(spec, fn: SimpleFunctionSpec, lattice: Lattice,
                   margin: float) -> AssembledModel:
    """Variable boxes with fixed positive heights: the mixed-binary model.

    Binary variables: membership bt per (box, lattice point) and jump
    pairs (dm, dp) per (box, axis, lattice point).  Continuous variables:
    box corners xm, xp per (box, axis), the dual block, and (width-sum
    mode) the linearization auxiliaries z.  margin is the right-hand side
    of the sampled rows.
    """
    mode = fn.mode
    if not isinstance(mode, VariableBoxes):
        raise TypeError("assemble_case2 expects a VariableBoxes decision mode")
    heights = np.asarray(fn.heights, dtype=float)
    if np.any(heights <= 0.0):
        raise ValueError("variable mode requires strictly positive heights")
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
    _add_dual_variables(program, spec)
    _add_threshold_row(program, spec)

    all_atoms = np.arange(n_points)
    for f, (lin, mats) in enumerate(_lattice_rows(spec, lattice, all_atoms)):
        for i in range(k):
            lin["bt[%d,%d]" % (i, f)] = float(heights[i])
        program.add_row(lin, ">=", margin, mats=mats, name="lattice[%d]" % f)

    # jump balance: bt(next along axis) - bt(here) = dm - dp, with bt = 0
    # past the upper edge of the domain; the next atom along axis j is
    # a stride of j further, and none past the upper face (-1)
    index = all_atoms.reshape(lattice.shape)
    after = []
    for j in range(m):
        nxt = index + index.strides[j] // index.itemsize
        np.moveaxis(nxt, j, 0)[-1] = -1
        after.append(nxt.ravel())
    for i in range(k):
        for j in range(m):
            for f in range(n_points):
                lin = {"bt[%d,%d]" % (i, f): -1.0,
                       "dm[%d,%d,%d]" % (i, j, f): -1.0,
                       "dp[%d,%d,%d]" % (i, j, f): 1.0}
                if after[j][f] >= 0:
                    lin["bt[%d,%d]" % (i, after[j][f])] = 1.0
                program.add_row(lin, "==", 0.0, name="jump[%d,%d,%d]" % (i, j, f))

    # the grid lines along axis j, each by increasing coordinate j, in
    # row-major order of the other coordinates
    for i in range(k):
        for j in range(m):
            xm = "xm[%d,%d]" % (i, j)
            xp = "xp[%d,%d]" % (i, j)
            for nline, line in enumerate(np.moveaxis(index, j, -1).reshape(-1, lattice.n_axis)):
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

    obj = {}
    if mode.width_sum:
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
    else:
        for i in range(k):
            for j in range(m):
                obj["xm[%d,%d]" % (i, j)] = float(mode.c_minus[i, j])
                obj["xp[%d,%d]" % (i, j)] = float(mode.c_plus[i, j])
    program.set_objective(mode.objective_sense, obj)

    for n, con in enumerate(mode.constraints):
        cm, cp = con.coeffs.reshape(2, k, m)
        lin = {}
        for i in range(k):
            for j in range(m):
                if cm[i, j]:
                    lin["xm[%d,%d]" % (i, j)] = float(cm[i, j])
                if cp[i, j]:
                    lin["xp[%d,%d]" % (i, j)] = float(cp[i, j])
        program.add_row(lin, con.sense, con.rhs, name="user[%d]" % n)

    return AssembledModel(program, var_index, lattice, spec, fn, "variable")
