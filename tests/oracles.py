"""Independent reference computations used by several test modules.

Everything here is deliberately implemented from first principles (dense
linear algebra, brute force) rather than through the package's own code
paths, so test expectations do not inherit implementation bugs.  The one
exception is kkt_residuals, which reads the solver's standard form through
drobox.sdp._compile to place the duals of a solution.
"""

from dataclasses import dataclass

import numpy as np

from drobox.sdp import _compile, smat, svec, svec_len


def indicator_box(t, box) -> np.ndarray:
    """Exact closed-box indicator; t has shape (m,) or (N, m)."""
    return box.contains(t).astype(float)


def first_moment_block(t, spec) -> np.ndarray:
    """The (m+1) x (m+1) matrix F1(t) = [[Sigma, t - mu], [(t - mu)^T, eps_mu]]."""
    d = np.asarray(t, dtype=float) - spec.mu
    return np.block([[spec.sigma, d[:, None]], [d[None, :], np.array([[spec.eps_mu]])]])


def second_moment_outer(t, spec) -> np.ndarray:
    """(t - mu)(t - mu)^T, the integrand of the second-moment cap."""
    d = np.asarray(t, dtype=float) - spec.mu
    return np.outer(d, d)


def family_violation(weights, points, spec) -> float:
    """How far weights on points lie outside the discrete ambiguity family; 0 inside.

    The largest of: the most negative weight; |mass - 1|; minus the least
    eigenvalue, by numpy.linalg.eigvalsh, of sum_j w_j F1(t_j) and of
    eps_sigma Sigma - sum_j w_j (t_j - mu)(t_j - mu)^T; and each confidence
    row's shortfall eps - sgn(eps) P(C), P(C) the mass in C.
    """
    w = np.asarray(weights, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    first = sum(wj * first_moment_block(t, spec) for wj, t in zip(w, pts))
    second = spec.eps_sigma * spec.sigma - sum(
        wj * second_moment_outer(t, spec) for wj, t in zip(w, pts))
    rows = [cs.eps - np.copysign(1.0, cs.eps) * float(w @ indicator_box(pts, cs.region))
            for cs in spec.confidence_sets]
    return max(0.0, -float(w.min()), abs(float(w.sum()) - 1.0),
               -float(np.linalg.eigvalsh(first).min()),
               -float(np.linalg.eigvalsh(second).min()), *rows)


def random_spd(rng, m, scale=1.0):
    a = rng.normal(size=(m, m))
    return scale * (a @ a.T + (0.05 + rng.uniform()) * np.eye(m))


def schur_equivalence_violations(n_trials, seed, tol=1e-8):
    """Count disagreements between the block-PSD test and the Schur form.

    For random (sigma, mu, eps_mu, t) the matrix
    [[sigma, d], [d^T, eps_mu]] with d = t - mu is PSD exactly when
    d^T sigma^{-1} d <= eps_mu.  Returns the number of trials where the
    eigenvalue test and the quadratic-form test disagree beyond tol.
    """
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n_trials):
        m = int(rng.integers(1, 4))
        sigma = random_spd(rng, m)
        mu = rng.normal(size=m)
        eps_mu = float(rng.uniform(0.0, 2.0))
        t = mu + rng.normal(scale=1.5, size=m)
        d = t - mu
        block = np.zeros((m + 1, m + 1))
        block[:m, :m] = sigma
        block[:m, m] = d
        block[m, :m] = d
        block[m, m] = eps_mu
        psd = np.min(np.linalg.eigvalsh(block)) >= -tol
        form = float(d @ np.linalg.solve(sigma, d))
        inside = form <= eps_mu + tol
        if psd != inside:
            bad += 1
    return bad


def poly_part_batch(t, Y1, Y2, spec):
    """Vectorized moment part q(t) for t of shape (N, m)."""
    t = np.atleast_2d(np.asarray(t, dtype=float))
    m = spec.m
    d = t - spec.mu
    u = Y1[:m, m]
    const = float(np.sum(spec.sigma * Y1[:m, :m])) + spec.eps_mu * Y1[m, m]
    quad = np.einsum("ni,ij,nj->n", d, Y2, d)
    return -(const + 2.0 * d @ u) + quad


def lipschitz_excess(spec, L, tr_y1, tr_y2, n_pairs, seed):
    """Worst violation of |q(t) - q(s)| <= L * |t - s|_2 over random data.

    Draws random PSD dual matrices scaled to sit exactly on the trace
    bounds and random point pairs in the domain; returns the maximum of
    |q(t) - q(s)| - L * |t - s|_2 (negative when the bound holds).
    """
    rng = np.random.default_rng(seed)
    m = spec.m
    worst = -np.inf
    n_blocks = 5
    per_block = n_pairs // n_blocks
    for _ in range(n_blocks):
        a1 = rng.normal(size=(m + 1, m + 1))
        Y1 = a1 @ a1.T
        Y1 *= tr_y1 / np.trace(Y1)
        a2 = rng.normal(size=(m, m))
        Y2 = a2 @ a2.T
        Y2 *= tr_y2 / np.trace(Y2)
        t = rng.uniform(0.0, spec.edge, size=(per_block, m))
        s = rng.uniform(0.0, spec.edge, size=(per_block, m))
        gap = np.abs(poly_part_batch(t, Y1, Y2, spec) - poly_part_batch(s, Y1, Y2, spec))
        dist = np.linalg.norm(t - s, axis=1)
        worst = max(worst, float(np.max(gap - L * dist)))
    return worst


def dual_integrand(t, heights, boxes, Y1, Y2, y, spec, smoothed=False, delta=None):
    """Reference evaluation of the dual row integrand f or f^c at points t.

    t has shape (N, m).  With smoothed=False this is the exact lattice-row
    expression; with smoothed=True the indicators are replaced by the safe
    tent for the corresponding sign (upper tent where the term must not
    shrink, lower tent where it must not grow).
    """
    from drobox.model import WholeDomain, smoothed_indicator, smoothed_indicator_lower

    t = np.atleast_2d(np.asarray(t, dtype=float))
    n = t.shape[0]
    val = np.zeros(n)
    for h, box in zip(heights, boxes):
        if smoothed:
            ind = smoothed_indicator(t, box, delta) if h >= 0 else smoothed_indicator_lower(t, box, delta)
        else:
            ind = indicator_box(t, box)
        val += h * ind
    for j in range(n):
        val[j] += -np.sum(first_moment_block(t[j], spec) * Y1)
        val[j] += np.sum(second_moment_outer(t[j], spec) * Y2)
    for cs, yi in zip(spec.confidence_sets, y):
        sgn = 1.0 if cs.eps > 0 else -1.0
        if isinstance(cs.region, WholeDomain):
            ind = np.ones(n)
        elif smoothed:
            if sgn > 0:
                ind = smoothed_indicator_lower(t, cs.region, delta)
            else:
                ind = smoothed_indicator(t, cs.region, delta)
        else:
            ind = indicator_box(t, cs.region)
        val -= sgn * ind * yi
    return val


def diagonal_sdp_batch(n_trials, seed):
    """Random diagonal semidefinite programs with an LP ground truth.

    Yields (program, ref_status, ref_objective).  Because every data matrix
    is diagonal, the matrix problem collapses to a linear program over the
    diagonal, solved here with scipy's HiGHS backend.
    """
    from scipy.optimize import linprog

    from drobox.sdp import ConicProgram

    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        d = int(rng.integers(2, 5))
        nr = int(rng.integers(1, 7))
        cd = rng.normal(size=d)
        ad = rng.normal(size=(nr, d))
        rhs = rng.normal(size=nr)
        p = ConicProgram()
        p.add_psd("Y", d)
        for r in range(nr):
            p.add_row({}, ">=", float(rhs[r]), mats={"Y": np.diag(ad[r])})
        p.add_row({}, "<=", 10.0, mats={"Y": np.eye(d)})
        p.set_objective("min", mats={"Y": np.diag(cd)})
        res = linprog(
            cd,
            A_ub=np.vstack([-ad, np.ones((1, d))]),
            b_ub=np.concatenate([-rhs, [10.0]]),
            bounds=[(0, None)] * d,
            method="highs",
        )
        status = {2: "infeasible", 3: "unbounded"}.get(res.status, "optimal")
        yield p, status, (float(res.fun) if status == "optimal" else None)


def eigmin_sdp_batch(n_trials, seed):
    """min <C, Y> over the spectraplex; the answer is the smallest eigenvalue."""
    from drobox.sdp import ConicProgram

    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        d = int(rng.integers(2, 6))
        raw = rng.normal(size=(d, d))
        c = (raw + raw.T) / 2.0
        p = ConicProgram()
        p.add_psd("Y", d)
        p.add_row({}, "==", 1.0, mats={"Y": np.eye(d)})
        p.set_objective("min", mats={"Y": c})
        yield p, float(np.min(np.linalg.eigvalsh(c)))


def dual_pair_sdp_batch(n_trials, seed):
    """Strictly feasible LMI-form / matrix-form program pairs.

    Yields (lmi_form, matrix_form): the first maximizes b.y subject to
    sum_i y_i A_i <= C and |y_i| <= 5, the second is its conic dual
    min <C, X> + 5 sum(p+q) with <A_i, X> + p_i - q_i = b_i.  Strong duality
    holds because y = 0 is strictly feasible (C is built strictly positive
    definite) and the box rows keep the maximum finite.
    """
    from drobox.sdp import ConicProgram

    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        mats = []
        for _ in range(k):
            raw = rng.normal(size=(d, d))
            mats.append((raw + raw.T) / 2.0)
        raw = rng.normal(size=(d, d))
        c = (raw + raw.T) / 2.0
        c = c + (abs(float(np.min(np.linalg.eigvalsh(c)))) + 1.0) * np.eye(d)
        bvec = rng.normal(size=k)

        lmi = ConicProgram()
        for i in range(k):
            lmi.add_scalar("y%d" % i)
        lmi.add_lmi({("y%d" % i): -mats[i] for i in range(k)}, c)
        for i in range(k):
            lmi.add_row({"y%d" % i: 1.0}, "<=", 5.0)
            lmi.add_row({"y%d" % i: 1.0}, ">=", -5.0)
        lmi.set_objective("max", {("y%d" % i): float(bvec[i]) for i in range(k)})

        mat = ConicProgram()
        mat.add_psd("X", d)
        for i in range(k):
            mat.add_scalar("p%d" % i, nonneg=True)
            mat.add_scalar("q%d" % i, nonneg=True)
        for i in range(k):
            mat.add_row({"p%d" % i: 1.0, "q%d" % i: -1.0}, "==", float(bvec[i]),
                        mats={"X": mats[i]})
        mat.set_objective(
            "min",
            {name: 5.0 for i in range(k) for name in ("p%d" % i, "q%d" % i)},
            mats={"X": c},
        )
        yield lmi, mat


def seed_screen_values(atoms, heights, lo, hi):
    """Least expected value of each set of boxes over point masses on atoms.

    atoms is (n_atoms, m) lattice indices; lo and hi are (k, n, m) lattice
    index corners of n sets of boxes, the empty box lo = 0, hi = -1.  An
    atom gives a set the sum of the heights of its boxes that contain it,
    tested atom by atom; a set is inf when there is no atom.
    """
    k, n, _ = lo.shape
    out = np.full(n, np.inf)
    for s in range(n):
        for a in atoms:
            value = sum(float(heights[i]) for i in range(k)
                        if np.all(lo[i, s] <= a) and np.all(a <= hi[i, s]))
            out[s] = min(out[s], value)
    return out


@dataclass
class KktResiduals:
    primal_infeasibility: float
    dual_infeasibility: float
    relative_gap: float
    psd_min_eig: dict

    @property
    def max_violation(self) -> float:
        worst_eig = min(self.psd_min_eig.values()) if self.psd_min_eig else 0.0
        return max(self.primal_infeasibility, self.dual_infeasibility,
                   self.relative_gap, max(0.0, -worst_eig))


def kkt_residuals(program, solution) -> KktResiduals:
    """Recompute the KKT residuals of a solution against its program.

    Primal infeasibility is the worst scalar-row violation and LMI/PSD
    eigenvalue deficit, read from the primal values.  The duals y are the
    solution's row and LMI duals in the compiled standard form
    min c.x, A x = b, x in K; dual infeasibility is how far c - A^T y lies
    outside K (least nonnegative entry, least eigenvalue of each PSD
    block), relative to 1 + max |c|, and the gap compares c.x, read from
    the objective, with b.y.
    """
    if solution.status != "optimal":
        raise ValueError("KKT residuals are defined for optimal solutions only")
    primal = solution.primal
    worst_p = 0.0
    for row in program.rows:
        lhs = sum(coef * primal[v] for v, coef in row.lin.items())
        lhs += sum(float(np.sum(mat * primal[v])) for v, mat in row.mats.items())
        if row.sense == ">=":
            worst_p = max(worst_p, (row.rhs - lhs) / max(1.0, abs(row.rhs)))
        elif row.sense == "<=":
            worst_p = max(worst_p, (lhs - row.rhs) / max(1.0, abs(row.rhs)))
        else:
            worst_p = max(worst_p, abs(lhs - row.rhs) / max(1.0, abs(row.rhs)))
    eigs = {}
    for name in program.psd_vars:
        eigs[name] = float(np.min(np.linalg.eigvalsh(primal[name])))
    for i, lmi in enumerate(program.lmis):
        mat = lmi.const.copy()
        for v, f in lmi.coeffs.items():
            mat = mat + primal[v] * f
        eigs["lmi[%d]%s" % (i, ":" + lmi.name if lmi.name else "")] = float(
            np.min(np.linalg.eigvalsh((mat + mat.T) / 2.0))
        )
    comp = _compile(program)
    y = comp.obj_sign * np.concatenate(
        [solution.row_duals] + [svec(Y) for Y in solution.lmi_duals])
    s = comp.c - comp.A.T @ y
    deficit = -float(np.min(s[: comp.n_nonneg], initial=0.0))
    start = comp.n_nonneg
    for d in comp.psd_dims:
        block = smat(s[start : start + svec_len(d)], d)
        deficit = max(deficit, -float(np.linalg.eigvalsh(block).min()))
        start += svec_len(d)
    dres = deficit / (1.0 + float(np.max(np.abs(comp.c), initial=0.0)))
    pobj = comp.obj_sign * (solution.objective - comp.obj_offset)
    dobj = float(comp.b @ y)
    gap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
    return KktResiduals(worst_p, dres, gap, eigs)
