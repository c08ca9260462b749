"""Shared helpers for checking assembled programs row by row in tests,
and for putting given boxes into the binary encoding of assemble_case2
and reading them back off it."""

import numpy as np

from drobox.assemble import AssembledModel
from drobox.model import BoxRegion


def evaluate_rows(program, values, prefixes=None):
    """Signed slack of scalar rows of a ConicProgram at given values.

    values maps scalar/binary variable names to floats and PSD block names
    to symmetric matrices.  Variables present in an evaluated row but
    missing from values raise KeyError.  With prefixes given, only rows
    whose name starts with one of them are evaluated.  Returns a dict
    name -> slack where slack >= 0 means the row holds (equality rows
    report -|lhs - rhs|).
    """
    out = {}
    for idx, row in enumerate(program.rows):
        if prefixes is not None and not row.name.startswith(tuple(prefixes)):
            continue
        lhs = 0.0
        for v, c in row.lin.items():
            lhs += c * float(values[v])
        for v, mat in row.mats.items():
            lhs += float(np.sum(np.asarray(values[v]) * mat))
        if row.sense == ">=":
            slack = lhs - row.rhs
        elif row.sense == "<=":
            slack = row.rhs - lhs
        else:
            slack = -abs(lhs - row.rhs)
        out[row.name or "row[%d]" % idx] = slack
    return out


CORNER_ROW_PREFIXES = ("xlo", "xhi", "wlow", "wline", "xmax", "wnn")
BINARY_ROW_PREFIXES = ("jump", "budget")


def binary_rows_ok(model, binvals, tol=1e-9):
    """Whether a binary assignment satisfies the jump and budget rows."""
    slacks = evaluate_rows(model.program, binvals, BINARY_ROW_PREFIXES)
    return min(slacks.values()) >= -tol


def corner_feasible(model, binvals):
    """Whether some corner choice (x-, x+) completes a binary assignment.

    Substitutes the binaries into every corner row and asks scipy's LP for
    a feasible point over the nonnegative corner variables.  The width
    auxiliaries are skipped: z is unbounded above, so the zlo/zhi rows
    never cut feasibility.
    """
    from scipy.optimize import linprog

    k = model.fn.k
    m = model.lattice.dim
    names = [model.var_index[("xm", i, j)] for i in range(k) for j in range(m)]
    names += [model.var_index[("xp", i, j)] for i in range(k) for j in range(m)]
    col = {n: c for c, n in enumerate(names)}
    a_ub, b_ub = [], []
    for row in model.program.rows:
        if not row.name.startswith(CORNER_ROW_PREFIXES):
            continue
        coef = np.zeros(len(names))
        rhs = row.rhs
        for v, c in row.lin.items():
            if v in col:
                coef[col[v]] = c
            else:
                rhs -= c * float(binvals[v])
        if row.sense == ">=":
            coef, rhs = -coef, -rhs
        a_ub.append(coef)
        b_ub.append(rhs)
    res = linprog(
        np.zeros(len(names)),
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        bounds=[(0.0, None)] * len(names),
        method="highs",
    )
    return res.status == 0


def zero_duals(spec):
    """All-zero dual block: Y1, Y2 and every confidence multiplier."""
    m = spec.m
    vals = {"Y1": np.zeros((m + 1, m + 1)), "Y2": np.zeros((m, m))}
    for i in range(len(spec.confidence_sets)):
        vals["y[%d]" % i] = 0.0
    return vals


def fallback_values(model):
    """The always-available assignment: every box covers the whole domain.

    Binaries come from the canonical whole-domain assignment, corners are
    (0, edge) on every axis, width auxiliaries equal the edge length, and
    the dual block is y = (0, b, 0, ...) with zero matrices.
    """
    from drobox.model import BoxRegion

    lattice = model.lattice
    spec = model.spec
    full = BoxRegion(np.zeros(lattice.dim), np.full(lattice.dim, lattice.edge))
    vals = canonical_assignment([full] * model.fn.k, model)
    for i in range(model.fn.k):
        for j in range(lattice.dim):
            vals["xm[%d,%d]" % (i, j)] = 0.0
            vals["xp[%d,%d]" % (i, j)] = lattice.edge
            if ("z", i, j) in model.var_index:
                vals["z[%d,%d]" % (i, j)] = lattice.edge
    vals.update(zero_duals(spec))
    vals["y[1]"] = spec.b
    return vals


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

    boxes is a sequence of BoxRegion or None (empty).  Returns values for every binary variable:
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
        if box is None:
            member = np.zeros(lattice.n_points, dtype=bool)
        else:
            lattice.indices(np.r_[box.lower, box.upper])
            member = np.asarray(box.contains(lattice.points), dtype=bool)
        for f in range(lattice.n_points):
            values["bt[%d,%d]" % (i, f)] = 1.0 if member[f] else 0.0
    values.update(implied_jumps(values, model))
    return values


def decode_box(values: dict, model: AssembledModel) -> list:
    """Read lattice-aligned boxes off a binary assignment.

    values maps program variable names to numbers (e.g. SdpSolution.primal
    after fixing binaries, or a canonical assignment).  Per box the b~
    support must form a full lattice rectangle; an all-zero pattern decodes
    to None, the empty box.
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
            out.append(None)
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
