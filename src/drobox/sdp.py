"""Conic programs and a primal-dual interior-point solver.

Programs mix free/nonnegative scalar variables, PSD matrix variables,
binary variables (which must be fixed or relaxed before solving), scalar
rows (>=, <=, ==) with optional matrix terms, and LMI rows.  The solver
compiles everything to the standard form

    min c.x   s.t.  A x = b,  x in K,   K = R+^l x PSD(d1) x PSD(d2) ...

(free scalars are split into differences of nonnegatives, inequality rows
get slack columns, LMI rows get PSD slack blocks) and runs a homogeneous
self-dual interior-point method with Nesterov-Todd scaling and Mehrotra
predictor-corrector steps.  The embedding detects primal infeasibility
and unboundedness; everything is deterministic for fixed input.

Each step solves normal equations with the m x m matrix A D A^T (D the
scaling).  The lattice programs have thousands of rows but only a handful
of columns that touch most of them, so that matrix is never formed
densely.  Before the iterations the columns are split once: a nonnegative
column with more than max(10, m // 10) nonzeros is dense, and so is every
PSD svec column; if m or more nonnegative columns are dense, none is,
since S is then at most m x m anyway.  The rows get a minimum-degree
order for the pattern of the sparse part, also once.  Each step forms
the sparse part
S = A_s D_s A_s^T with scipy.sparse, collects the scaled dense columns in
an m x r matrix V (r is about 10 to 15 on the lattice programs), and
LU-factors the augmented matrix [[S, V], [V^T, -I]] with SuperLU, border
last; its solutions solve (S + V V^T) z = r even where S alone is
singular.  Two rounds of iterative refinement against S z + V (V^T z)
follow each solve (Andersen, ACM TOMS 22(3), 1996; Vanderbei, Linear
Algebra Appl. 152, 1991).  See _NormalFactor.

Progress goes to the drobox.sdp logger as one DEBUG line per iteration in
key=value form: iter=, mu=, pres=, dres=, gap=, tau=, kappa=.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

LOG = logging.getLogger("drobox.sdp")

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Symmetric vectorization


def svec_len(d: int) -> int:
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=None)
def _svec_weights(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and weight of each svec entry; cached, so read-only."""
    r, c = np.triu_indices(d)
    w = np.where(r == c, 1.0, _SQRT2)
    for arr in (r, c, w):
        arr.flags.writeable = False
    return r, c, w


@functools.lru_cache(maxsize=None)
def _svec_basis(d: int) -> np.ndarray:
    """The symmetric matrices E_k with svec(E_k) = e_k, stacked; read-only."""
    r, c, w = _svec_weights(d)
    k = np.arange(r.size)
    E = np.zeros((r.size, d, d))
    E[k, r, c] = 1.0 / w
    E[k, c, r] = 1.0 / w
    E.flags.writeable = False
    return E


def _sym_kron(G: np.ndarray) -> np.ndarray:
    """Matrix of S -> G S G in svec coordinates; symmetric when G is."""
    r, c, w = _svec_weights(G.shape[0])
    return ((G @ _svec_basis(G.shape[0]) @ G)[:, r, c] * w).T


def svec(s: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix so that svec(A) . svec(B) = <A, B>."""
    d = s.shape[0]
    r, c, w = _svec_weights(d)
    return s[r, c] * w


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec."""
    r, c, w = _svec_weights(d)
    out = np.zeros((d, d))
    out[r, c] = v / w
    out = out + out.T
    out[np.arange(d), np.arange(d)] /= 2.0
    return out


# ---------------------------------------------------------------------------
# Program container


@dataclass
class _ScalarRow:
    lin: dict
    mats: dict
    sense: str
    rhs: float
    name: str


@dataclass
class _LmiRow:
    coeffs: dict
    const: np.ndarray
    name: str


class ConicProgram:
    """Builder for a mixed conic program.

    Scalar rows read  sum_j lin[j] * x_j + sum_V <mats[V], X_V>  {sense}  rhs.
    LMI rows read     sum_j coeffs[j] * x_j + const  is PSD.
    The objective follows the same term conventions.
    """

    def __init__(self):
        self.scalar_vars: dict[str, str] = {}  # name -> "free" | "nonneg"
        self.psd_vars: dict[str, int] = {}  # name -> dim
        self.binary_vars: list[str] = []
        self.rows: list[_ScalarRow] = []
        self.lmis: list[_LmiRow] = []
        self.obj_sense: str = "min"
        self.obj_lin: dict = {}
        self.obj_mats: dict = {}
        self.obj_offset: float = 0.0

    # -- variables ---------------------------------------------------------

    def add_scalar(self, name: str, nonneg: bool = False) -> str:
        self._check_fresh(name)
        self.scalar_vars[name] = "nonneg" if nonneg else "free"
        return name

    def add_psd(self, name: str, dim: int) -> str:
        self._check_fresh(name)
        if dim < 1:
            raise ValueError("psd dimension must be >= 1")
        self.psd_vars[name] = int(dim)
        return name

    def add_binary(self, name: str) -> str:
        self._check_fresh(name)
        self.binary_vars.append(name)
        return name

    def _check_fresh(self, name: str):
        if name in self.scalar_vars or name in self.psd_vars or name in self.binary_vars:
            raise ValueError("variable %r already declared" % name)

    # -- rows and objective --------------------------------------------------

    def add_row(self, lin: dict, sense: str, rhs: float, mats: Optional[dict] = None,
                name: str = "") -> int:
        if sense not in (">=", "<=", "=="):
            raise ValueError("sense must be >=, <= or ==")
        for v in lin:
            if v not in self.scalar_vars and v not in self.binary_vars:
                raise ValueError("unknown scalar variable %r" % v)
        mats = dict(mats or {})
        for v, m in mats.items():
            if v not in self.psd_vars:
                raise ValueError("unknown psd variable %r" % v)
            mats[v] = np.asarray(m, dtype=float)
        self.rows.append(_ScalarRow(dict(lin), mats, sense, float(rhs), name))
        return len(self.rows) - 1

    def add_lmi(self, coeffs: dict, const: np.ndarray, name: str = "") -> int:
        const = np.asarray(const, dtype=float)
        for v in coeffs:
            if v not in self.scalar_vars and v not in self.binary_vars:
                raise ValueError("unknown scalar variable %r" % v)
        self.lmis.append(
            _LmiRow({k: np.asarray(m, dtype=float) for k, m in coeffs.items()}, const, name)
        )
        return len(self.lmis) - 1

    def set_objective(self, sense: str, lin: Optional[dict] = None,
                      mats: Optional[dict] = None, offset: float = 0.0):
        if sense not in ("min", "max"):
            raise ValueError("sense must be min or max")
        self.obj_sense = sense
        self.obj_lin = dict(lin or {})
        self.obj_mats = {k: np.asarray(m, dtype=float) for k, m in (mats or {}).items()}
        self.obj_offset = float(offset)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    # -- binary resolution ---------------------------------------------------

    def resolve_binaries(self, fixed: dict, relax_remaining: bool) -> "ConicProgram":
        """Substitute fixed binaries; relax or reject the remaining ones.

        Relaxed binaries become nonnegative scalars with an upper-bound row
        x <= 1.  Rows whose variables are all substituted collapse to
        arithmetic: satisfied ones (within 1e-9) are dropped, violated ones
        are kept as an unsatisfiable marker row so the solve reports
        infeasible.  Returns a new program; self is unchanged.
        """
        unknown = set(fixed) - set(self.binary_vars)
        if unknown:
            raise ValueError("not binary variables: %s" % sorted(unknown))
        remaining = [v for v in self.binary_vars if v not in fixed]
        if remaining and not relax_remaining:
            raise ValueError("unfixed binaries: %s ..." % remaining[:4])
        out = ConicProgram()
        out.scalar_vars = dict(self.scalar_vars)
        out.psd_vars = dict(self.psd_vars)
        for v in remaining:
            out.scalar_vars[v] = "nonneg"
        fixed_f = {k: float(v) for k, v in fixed.items()}

        def reduce_lin(lin):
            new, shift = {}, 0.0
            for v, coef in lin.items():
                if v in fixed_f:
                    shift += coef * fixed_f[v]
                else:
                    new[v] = coef
            return new, shift

        for row in self.rows:
            lin, shift = reduce_lin(row.lin)
            rhs = row.rhs - shift
            if not lin and not row.mats:
                if row.sense == ">=":
                    ok = rhs <= 1e-9
                elif row.sense == "<=":
                    ok = rhs >= -1e-9
                else:
                    ok = abs(rhs) <= 1e-9
                if not ok:
                    out.rows.append(_ScalarRow({}, {}, "==", rhs, row.name))
                continue
            out.rows.append(_ScalarRow(lin, dict(row.mats), row.sense, rhs, row.name))
        for lmi in self.lmis:
            const = lmi.const.copy()
            coeffs = {}
            for v, mat in lmi.coeffs.items():
                if v in fixed_f:
                    const = const + fixed_f[v] * mat
                else:
                    coeffs[v] = mat
            out.lmis.append(_LmiRow(coeffs, const, lmi.name))
        obj_lin, obj_shift = reduce_lin(self.obj_lin)
        out.obj_sense = self.obj_sense
        out.obj_lin = obj_lin
        out.obj_mats = dict(self.obj_mats)
        out.obj_offset = self.obj_offset + obj_shift
        for v in remaining:
            out.rows.append(_ScalarRow({v: 1.0}, {}, "<=", 1.0, "ub[%s]" % v))
        return out

    def fix_binaries(self, values: dict) -> "ConicProgram":
        missing = [v for v in self.binary_vars if v not in values]
        if missing:
            raise ValueError("missing binary values: %s ..." % missing[:4])
        return self.resolve_binaries(values, relax_remaining=False)

    def relax_binaries(self, fixed: Optional[dict] = None) -> "ConicProgram":
        return self.resolve_binaries(dict(fixed or {}), relax_remaining=True)


# ---------------------------------------------------------------------------
# Compilation to standard form


@dataclass
class _Compiled:
    A: sp.csr_matrix
    b: np.ndarray
    c: np.ndarray
    n_nonneg: int
    psd_dims: list
    scalar_cols: dict  # name -> ("nonneg", col) | ("free", col_pos, col_neg)
    psd_offsets: dict  # name -> (svec column offset inside psd range, dim)
    row_of_scalar: list  # compiled row index per program row
    lmi_row_spans: list  # (row_start, dim) per lmi
    obj_sign: float
    obj_offset: float


def _compile(p: ConicProgram) -> _Compiled:
    if p.binary_vars:
        raise ValueError("fix or relax binary variables before solving")
    cols_nonneg = 0
    scalar_cols = {}
    for name, kind in p.scalar_vars.items():
        if kind == "nonneg":
            scalar_cols[name] = ("nonneg", cols_nonneg)
            cols_nonneg += 1
        else:
            scalar_cols[name] = ("free", cols_nonneg, cols_nonneg + 1)
            cols_nonneg += 2
    n_slack = sum(1 for r in p.rows if r.sense != "==")
    slack_base = cols_nonneg
    cols_nonneg += n_slack

    psd_dims, psd_offsets = [], {}
    off = 0
    for name, d in p.psd_vars.items():
        psd_offsets[name] = (off, d)
        psd_dims.append(d)
        off += svec_len(d)
    lmi_slack_offsets = []
    for lmi in p.lmis:
        d = lmi.const.shape[0]
        lmi_slack_offsets.append(off)
        psd_dims.append(d)
        off += svec_len(d)
    n_psd_cols = off
    n_cols = cols_nonneg + n_psd_cols

    rows_i, cols_j, vals = [], [], []
    b_list = []

    def put(r, c, v):
        if v != 0.0:
            rows_i.append(r)
            cols_j.append(c)
            vals.append(v)

    def put_scalar_term(r, name, coef):
        kind = scalar_cols[name]
        if kind[0] == "nonneg":
            put(r, kind[1], coef)
        else:
            put(r, kind[1], coef)
            put(r, kind[2], -coef)

    nrow = 0
    row_of_scalar = []
    slack_idx = 0
    psd_col_base = cols_nonneg
    for row in p.rows:
        for name, coef in row.lin.items():
            put_scalar_term(nrow, name, coef)
        for name, mat in row.mats.items():
            base, d = psd_offsets[name]
            v = svec(mat)
            for k in np.nonzero(v)[0]:
                put(nrow, psd_col_base + base + int(k), float(v[k]))
        if row.sense == ">=":
            put(nrow, slack_base + slack_idx, -1.0)
            slack_idx += 1
        elif row.sense == "<=":
            put(nrow, slack_base + slack_idx, 1.0)
            slack_idx += 1
        b_list.append(row.rhs)
        row_of_scalar.append(nrow)
        nrow += 1

    lmi_row_spans = []
    for lmi, off_u in zip(p.lmis, lmi_slack_offsets):
        d = lmi.const.shape[0]
        gvec = svec(lmi.const)
        span_start = nrow
        for k in range(svec_len(d)):
            # sum_j x_j svec(F_j)[k] - svec(U)[k] = -svec(G)[k]
            put(nrow, psd_col_base + off_u + k, -1.0)
            b_list.append(-float(gvec[k]))
            nrow += 1
        for name, mat in lmi.coeffs.items():
            v = svec(mat)
            for k in np.nonzero(v)[0]:
                kind = scalar_cols[name]
                if kind[0] == "nonneg":
                    put(span_start + int(k), kind[1], float(v[k]))
                else:
                    put(span_start + int(k), kind[1], float(v[k]))
                    put(span_start + int(k), kind[2], -float(v[k]))
        lmi_row_spans.append((span_start, d))

    c = np.zeros(n_cols)
    obj_sign = 1.0 if p.obj_sense == "min" else -1.0
    for name, coef in p.obj_lin.items():
        kind = scalar_cols[name]
        if kind[0] == "nonneg":
            c[kind[1]] += obj_sign * coef
        else:
            c[kind[1]] += obj_sign * coef
            c[kind[2]] -= obj_sign * coef
    for name, mat in p.obj_mats.items():
        base, d = psd_offsets[name]
        c[psd_col_base + base : psd_col_base + base + svec_len(d)] += obj_sign * svec(mat)

    A = sp.csr_matrix(
        (np.array(vals), (np.array(rows_i, dtype=np.int64), np.array(cols_j, dtype=np.int64))),
        shape=(nrow, n_cols),
    )
    return _Compiled(
        A=A,
        b=np.array(b_list),
        c=c,
        n_nonneg=cols_nonneg,
        psd_dims=psd_dims,
        scalar_cols=scalar_cols,
        psd_offsets={k: (psd_col_base + v[0], v[1]) for k, v in psd_offsets.items()},
        row_of_scalar=row_of_scalar,
        lmi_row_spans=lmi_row_spans,
        obj_sign=obj_sign,
        obj_offset=p.obj_offset,
    )


# ---------------------------------------------------------------------------
# Cone helpers for the composite cone R+^l x PSD(d1) x ...


class _Cone:
    def __init__(self, n_nonneg: int, psd_dims: list):
        self.l = n_nonneg
        self.dims = list(psd_dims)
        self.spans = []
        off = n_nonneg
        for d in self.dims:
            self.spans.append((off, off + svec_len(d), d))
            off += svec_len(d)
        self.n = off
        self.degree = n_nonneg + sum(self.dims)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.n)
        e[: self.l] = 1.0
        for a, b, d in self.spans:
            e[a:b] = svec(np.eye(d))
        return e

    def max_step(self, x: np.ndarray, dx: np.ndarray) -> float:
        """Largest alpha with x + alpha dx staying in the cone (x interior)."""
        alpha = math.inf
        if self.l:
            neg = dx[: self.l] < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(-x[: self.l][neg] / dx[: self.l][neg])))
        for a, b, d in self.spans:
            X = smat(x[a:b], d)
            D = smat(dx[a:b], d)
            if not (np.all(np.isfinite(X)) and np.all(np.isfinite(D))):
                return 0.0
            try:
                try:
                    Lx = np.linalg.cholesky(X)
                except np.linalg.LinAlgError:
                    w, v = np.linalg.eigh(X)
                    w = np.maximum(w, 1e-14 * max(1.0, float(w[-1])))
                    Lx = v * np.sqrt(w)
                W = np.linalg.solve(Lx, np.linalg.solve(Lx, D).T)
                if not np.all(np.isfinite(W)):
                    return 0.0
                lam = float(np.min(np.linalg.eigvalsh((W + W.T) / 2.0)))
            except np.linalg.LinAlgError:
                return 0.0
            if lam < 0:
                alpha = min(alpha, -1.0 / lam)
        return alpha


def _nt_scaling(cone: _Cone, x: np.ndarray, s: np.ndarray):
    """Nesterov-Todd scaling data per block.

    Returns (d_l, blocks) where d_l = x_l / s_l for the nonnegative part and
    blocks is a list of (W, G, G_inv, lam) per PSD block.  T is the NT
    matrix, G = T^(1/2), and lam = G S G = G^-1 X G^-1 is the scaled point.
    W = sym-kron(G), the svec matrix of S -> G S G, is symmetric and squares
    to H = sym-kron(T): H svec(S) = W W svec(S) = svec(T S T).
    """
    d_l = x[: cone.l] / s[: cone.l] if cone.l else np.zeros(0)
    blocks = []
    for a, b, d in cone.spans:
        X = smat(x[a:b], d)
        S = smat(s[a:b], d)
        wx, vx = np.linalg.eigh(X)
        wx = np.maximum(wx, 1e-300)
        Xh = (vx * np.sqrt(wx)) @ vx.T
        P = Xh @ S @ Xh
        wp, vp = np.linalg.eigh((P + P.T) / 2.0)
        wp = np.maximum(wp, 1e-300)
        Pmh = (vp * (wp ** -0.5)) @ vp.T
        T = Xh @ Pmh @ Xh
        T = (T + T.T) / 2.0
        wt, vt = np.linalg.eigh(T)
        wt = np.maximum(wt, 1e-300)
        G = (vt * np.sqrt(wt)) @ vt.T
        G_inv = (vt * (wt ** -0.5)) @ vt.T
        lam = G @ S @ G
        lam = (lam + lam.T) / 2.0
        blocks.append((_sym_kron(G), G, G_inv, lam))
    return d_l, blocks


def _apply_H(cone: _Cone, d_l, blocks, v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    out[: cone.l] = d_l * v[: cone.l]
    for (a, b, d), (W, _, _, _) in zip(cone.spans, blocks):
        out[a:b] = W @ (W @ v[a:b])
    return out


def _lyap_inv(lam: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Solve lam o N = M for N, with o the symmetric Jordan product."""
    w, v = np.linalg.eigh(lam)
    Mt = v.T @ M @ v
    denom = (w[:, None] + w[None, :]) / 2.0
    return v @ (Mt / denom) @ v.T


# ---------------------------------------------------------------------------
# Solver


@dataclass
class SolveOptions:
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER


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


@dataclass
class SdpSolution:
    status: str  # optimal | infeasible | unbounded | numerical-failure
    objective: float
    primal: dict
    row_duals: np.ndarray
    lmi_duals: list
    kkt: Optional[KktResiduals]
    iterations: int
    _internal: Optional[dict] = field(default=None, repr=False)

    def value(self, name: str):
        return self.primal[name]


class _NormalFactor:
    """Factor of the normal matrix M = A D A^T of the interior-point steps.

    D is diag(d) on the nonnegative block and H_j = W_j W_j^T on the PSD
    blocks.  The dense/sparse column split and a fill-reducing order of the
    rows are fixed once, at construction; S, V and solve() work in that
    order.  Each factor() forms S = A_s diag(d_s) A_s^T and
    V = [A_dense diag(sqrt(d_dense)), A_psd W], so that M = S + V V^T,
    and LU-factors [[S, V], [V^T, -I]]; the first m entries of its
    solutions solve M z = rhs.  The refinement in solve() matters once the
    barrier parameter gets small and M turns badly conditioned.
    """

    def __init__(self, A: sp.csr_matrix, cone: _Cone):
        self.m = A.shape[0]
        A_l = A[:, : cone.l].tocsc()
        self.dense = np.diff(A_l.indptr) > max(10, self.m // 10)
        if np.count_nonzero(self.dense) >= self.m:
            # a border that wide costs more than S itself, which is at
            # most m x m: short programs with many full columns (the
            # certify measure programs) split nothing
            self.dense[:] = False
        A_s = A_l[:, ~self.dense].tocsr()
        # S keeps its pattern across iterations, so its minimum-degree
        # order is taken once, by factoring on the diagonal the positive
        # definite matrix P P^T + I, P the 0/1 pattern of A_s; factor()
        # keeps that order and puts the dense border last.  SuperLU's own
        # per-call column order (COLAMD) gives several times the fill on
        # the B&B relaxations.
        ones = sp.csr_matrix((np.ones(A_s.nnz), A_s.indices, A_s.indptr), shape=A_s.shape)
        pattern = (ones @ ones.T + sp.identity(self.m)).tocsc()
        self.order = np.argsort(scipy.sparse.linalg.splu(
            pattern, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True)).perm_c)
        self.A_s = A_s[self.order]
        self.A_sT = self.A_s.T.tocsr()
        self.A_d = A_l[:, self.dense].toarray()[self.order]
        self.A_p = [A[:, a:b].toarray()[self.order] for a, b, _ in cone.spans]

    def factor(self, d_l: np.ndarray, roots: list):
        """Factor for scaling d_l and PSD blocks H_j = roots[j] roots[j]^T.

        Raises RuntimeError when the augmented matrix is not finite, or
        singular even after one diagonal shift.
        """
        A_s = self.A_s
        scaled = sp.csr_matrix((A_s.data * d_l[~self.dense][A_s.indices],
                                A_s.indices, A_s.indptr), shape=A_s.shape)
        self.S = (scaled @ self.A_sT).tocsc()
        self.V = np.hstack([self.A_d * np.sqrt(d_l[self.dense])]
                           + [Ap @ W for Ap, W in zip(self.A_p, roots)])
        if not (np.all(np.isfinite(self.S.data)) and np.all(np.isfinite(self.V))):
            raise RuntimeError("normal matrix is not finite")
        r = self.V.shape[1]
        aug = sp.bmat([[self.S, sp.csc_matrix(self.V)],
                       [sp.csc_matrix(self.V.T), -sp.identity(r, format="csc")]],
                      format="csc")
        try:
            self.lu = scipy.sparse.linalg.splu(aug, permc_spec="NATURAL")
        except RuntimeError:
            # redundant == rows make M exactly singular; retry once with a
            # diagonal shift of 1e-12 times the mean diagonal of M
            diag_m = self.S.diagonal() + np.einsum("ij,ij->i", self.V, self.V)
            shift = 1e-12 * (float(np.mean(np.abs(diag_m))) or 1.0)
            aug = aug + sp.diags(np.r_[np.full(self.m, shift), np.zeros(r)], format="csc")
            self.lu = scipy.sparse.linalg.splu(aug, permc_spec="NATURAL")

    def _solve_once(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(np.concatenate([rhs, np.zeros(self.V.shape[1])]))[: self.m]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs_o = rhs[self.order]
        z = self._solve_once(rhs_o)
        for _ in range(2):
            z = z + self._solve_once(rhs_o - self.S @ z - self.V @ (self.V.T @ z))
        out = np.empty_like(z)
        out[self.order] = z
        return out


def _solve_hsd(A: sp.csr_matrix, b: np.ndarray, c: np.ndarray, cone: _Cone,
               tol: float, max_iter: int) -> dict:
    # interior-point internals legitimately push floats to their limits;
    # non-finite iterates are caught explicitly, not via warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _hsd_loop(A, b, c, cone, tol, max_iter)


def _hsd_loop(A: sp.csr_matrix, b: np.ndarray, c: np.ndarray, cone: _Cone,
              tol: float, max_iter: int) -> dict:
    m = A.shape[0]
    fact = _NormalFactor(A, cone)

    x = cone.identity()
    s = cone.identity()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    nu = cone.degree + 1.0

    norm_b = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    norm_c = 1.0 + float(np.max(np.abs(c))) if c.size else 1.0
    amax = float(np.max(np.abs(A.data))) if A.nnz else 1.0
    At = A.T.tocsr()

    status = "numerical-failure"
    it = 0
    best_phi = math.inf
    best = None
    stall = 0
    for it in range(1, max_iter + 1):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s))
                and np.all(np.isfinite(y)) and math.isfinite(tau)
                and math.isfinite(kappa)):
            break
        r_p = A @ x - b * tau
        r_d = -(At @ y) - s + c * tau
        cx = float(c @ x)
        by = float(b @ y)
        r_g = cx - by + kappa
        mu = (float(x @ s) + tau * kappa) / nu

        # -- convergence -----------------------------------------------------
        xs = x / tau
        ys = y / tau
        ss = s / tau
        pres = float(np.max(np.abs(A @ xs - b))) / norm_b if m else 0.0
        dres = float(np.max(np.abs(At @ ys + ss - c))) / norm_c
        pobj = cx / tau
        dobj = by / tau
        gap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        phi = max(pres, dres, gap)
        LOG.debug("iter=%d mu=%.3g pres=%.3g dres=%.3g gap=%.3g tau=%.3g kappa=%.3g",
                  it, mu, pres, dres, gap, tau, kappa)
        if phi < best_phi:
            best_phi = phi
            best = (x.copy(), y.copy(), s.copy(), tau, kappa)
            stall = 0
        else:
            stall += 1
        if pres <= tol and dres <= tol and gap <= tol:
            status = "optimal"
            break

        # -- infeasibility certificates --------------------------------------
        if mu <= 1e-4:
            if by > 0.0:
                yn = y / by
                sn = s / by
                if float(np.max(np.abs(At @ yn + sn))) <= tol * (1.0 + amax):
                    status = "infeasible"
                    break
            if cx < 0.0:
                xn = x / (-cx)
                if (float(np.max(np.abs(A @ xn))) if m else 0.0) <= tol * (1.0 + amax):
                    status = "unbounded"
                    break
        if tau <= 1e-12 and kappa >= 1e-8:
            # ray detected but certificate quality poor
            break
        if stall >= 5 and mu <= 1e-6:
            # no residual progress near the floor; fall back to best iterate
            break

        # -- scaling and Schur factor ----------------------------------------
        try:
            d_l, blocks = _nt_scaling(cone, x, s)
        except np.linalg.LinAlgError:
            break
        try:
            fact.factor(d_l, [blk[0] for blk in blocks])
        except RuntimeError:
            break

        Hc = _apply_H(cone, d_l, blocks, c)
        k1 = fact.solve(A @ Hc + b)
        if not np.all(np.isfinite(k1)):
            break
        cHc = float(c @ Hc)
        cHAt_k = lambda vec: float(c @ _apply_H(cone, d_l, blocks, At @ vec))

        def direction(target_l, target_blocks, target_tk, eta):
            """Solve one Newton system; targets live in scaled space."""
            rc = np.empty(cone.n)
            if cone.l:
                rc[: cone.l] = target_l / x[: cone.l]
            for (a, bnd, d), blk, tmat in zip(cone.spans, blocks, target_blocks):
                _, G, G_inv, lam = blk
                D = _lyap_inv(lam, tmat)
                rc[a:bnd] = svec(G_inv @ D @ G_inv)
            g = rc - eta * r_d
            k2 = fact.solve(-eta * r_p - A @ _apply_H(cone, d_l, blocks, g))
            den = cHAt_k(k1) - float(b @ k1) - cHc - kappa / tau
            num = (-eta * r_g - float(c @ _apply_H(cone, d_l, blocks, At @ k2))
                   + float(b @ k2) - float(c @ _apply_H(cone, d_l, blocks, g))
                   - target_tk / tau)
            if abs(den) < 1e-300:
                return None
            dtau = num / den
            dy = k1 * dtau + k2
            dx = _apply_H(cone, d_l, blocks, At @ dy - c * dtau + g)
            ds = -(At @ dy) + c * dtau + eta * r_d
            dkappa = (target_tk - kappa * dtau) / tau
            if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))
                    and np.all(np.isfinite(ds)) and math.isfinite(dtau)
                    and math.isfinite(dkappa)):
                return None
            return dx, dy, ds, dtau, dkappa

        # nonneg target in scaled coordinates: lam_l * (dxh + dsh) = target_l
        # with our parametrization rc = target_l / x (see module notes)
        # affine pass
        tgt_l = -(x[: cone.l] * s[: cone.l]) if cone.l else np.zeros(0)
        tgt_blocks = []
        for (a, bnd, d), blk in zip(cone.spans, blocks):
            lam = blk[3]
            tgt_blocks.append(-(lam @ lam))
        res = direction(tgt_l, tgt_blocks, -tau * kappa, 1.0)
        if res is None:
            break
        dxa, dya, dsa, dtaua, dkappaa = res
        alpha_a = min(
            cone.max_step(x, dxa),
            cone.max_step(s, dsa),
            (-tau / dtaua) if dtaua < 0 else math.inf,
            (-kappa / dkappaa) if dkappaa < 0 else math.inf,
        )
        alpha_a = min(1.0, 0.99995 * alpha_a)
        mu_aff = (float((x + alpha_a * dxa) @ (s + alpha_a * dsa))
                  + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)) / nu
        # clip before cubing: a blown-up affine step must not overflow
        sigma = max(min(max(mu_aff / mu, 0.0), 1.0) ** 3, 1e-10)

        # corrector pass
        if cone.l:
            tgt_l = sigma * mu - x[: cone.l] * s[: cone.l] - dxa[: cone.l] * dsa[: cone.l]
        tgt_blocks = []
        for (a, bnd, d), blk in zip(cone.spans, blocks):
            _, G, G_inv, lam = blk
            dXh = G_inv @ smat(dxa[a:bnd], d) @ G_inv
            dSh = G @ smat(dsa[a:bnd], d) @ G
            corr = (dXh @ dSh + dSh @ dXh) / 2.0
            tgt_blocks.append(sigma * mu * np.eye(d) - lam @ lam - corr)
        tgt_tk = sigma * mu - tau * kappa - dtaua * dkappaa
        res = direction(tgt_l, tgt_blocks, tgt_tk, 1.0)
        if res is None:
            break
        dx, dy, ds, dtau, dkappa = res
        alpha = min(
            cone.max_step(x, dx),
            cone.max_step(s, ds),
            (-tau / dtau) if dtau < 0 else math.inf,
            (-kappa / dkappa) if dkappa < 0 else math.inf,
        )
        alpha = min(1.0, 0.99 * alpha)
        if alpha <= 1e-13:
            break
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status not in ("optimal", "infeasible", "unbounded"):
        # the iteration ended on a stall or a degenerate step; first see
        # whether the final iterate is a usable infeasibility ray at a
        # relaxed threshold, then fall back to the best feasible iterate
        loose = max(1e-7, 10.0 * tol) * (1.0 + amax)
        by = float(b @ y)
        cx = float(c @ x)
        if by > 0.0 and float(np.max(np.abs(At @ (y / by) + s / by))) <= loose:
            status = "infeasible"
        elif cx < 0.0 and (float(np.max(np.abs(A @ (x / (-cx))))) if m else 0.0) <= loose:
            status = "unbounded"
        elif best is not None and best_phi <= 10.0 * tol:
            # close enough that downstream checks (KKT at 1e-7, gaps at
            # 1e-6) still hold
            status = "optimal"
            x, y, s, tau, kappa = best

    return {
        "status": status,
        "x": x,
        "y": y,
        "s": s,
        "tau": tau,
        "kappa": kappa,
        "iterations": it,
    }


# ---------------------------------------------------------------------------
# Public entry points


def solve_sdp(program: ConicProgram, options: Optional[SolveOptions] = None) -> SdpSolution:
    """Solve a conic program with no unresolved binary variables."""
    opts = options or SolveOptions()
    comp = _compile(program)
    cone = _Cone(comp.n_nonneg, comp.psd_dims)

    if comp.A.shape[0] == 0:
        return _solve_unconstrained(program, comp, cone)

    raw = _solve_hsd(comp.A, comp.b, comp.c, cone, opts.tol, opts.max_iter)
    status = raw["status"]
    n_program_rows = len(comp.row_of_scalar)
    if status == "optimal":
        tau = raw["tau"]
        xs = raw["x"] / tau
        ys = raw["y"] / tau
        primal = _extract_primal(program, comp, xs)
        row_duals = np.array([ys[i] * comp.obj_sign for i in comp.row_of_scalar])
        lmi_duals = []
        for start, d in comp.lmi_row_spans:
            lmi_duals.append(smat(ys[start : start + svec_len(d)] * comp.obj_sign, d))
        internal_obj = float(comp.c @ xs)
        objective = comp.obj_sign * internal_obj + comp.obj_offset
        sol = SdpSolution(
            status="optimal",
            objective=objective,
            primal=primal,
            row_duals=row_duals,
            lmi_duals=lmi_duals,
            kkt=None,
            iterations=raw["iterations"],
            _internal={
                "x": xs,
                "y": ys,
                "s": raw["s"] / tau,
                "A": comp.A,
                "b": comp.b,
                "c": comp.c,
                "obj_sign": comp.obj_sign,
            },
        )
        sol.kkt = kkt_residuals(program, sol)
        return sol

    if status == "infeasible":
        worst = math.inf if program.obj_sense == "min" else -math.inf
        return SdpSolution(status, worst, {}, np.zeros(n_program_rows), [], None,
                           raw["iterations"])
    if status == "unbounded":
        worst = -math.inf if program.obj_sense == "min" else math.inf
        return SdpSolution(status, worst, {}, np.zeros(n_program_rows), [], None,
                           raw["iterations"])
    return SdpSolution("numerical-failure", math.nan, {}, np.zeros(n_program_rows), [],
                       None, raw["iterations"])


def _solve_unconstrained(program, comp, cone) -> SdpSolution:
    """Row-free program: the conic minimum is 0 or the problem is unbounded."""
    c = comp.c
    ok = np.all(c[: cone.l] >= 0)
    for a, b, d in cone.spans:
        if float(np.min(np.linalg.eigvalsh(smat(c[a:b], d)))) < 0:
            ok = False
    if ok:
        xs = np.zeros(cone.n)
        primal = _extract_primal(program, comp, xs)
        return SdpSolution("optimal", comp.obj_sign * 0.0 + comp.obj_offset, primal,
                           np.zeros(0), [], None, 0)
    worst = -math.inf if program.obj_sense == "min" else math.inf
    return SdpSolution("unbounded", worst, {}, np.zeros(0), [], None, 0)


def _extract_primal(program: ConicProgram, comp: _Compiled, xs: np.ndarray) -> dict:
    primal = {}
    for name, kind in comp.scalar_cols.items():
        if kind[0] == "nonneg":
            primal[name] = float(xs[kind[1]])
        else:
            primal[name] = float(xs[kind[1]] - xs[kind[2]])
    for name, (base, d) in comp.psd_offsets.items():
        primal[name] = smat(xs[base : base + svec_len(d)], d)
    return primal


def kkt_residuals(program: ConicProgram, solution: SdpSolution) -> KktResiduals:
    """Recompute KKT residuals of a solution against its program.

    Primal infeasibility is the worst scalar-row violation and LMI/PSD
    eigenvalue deficit; dual infeasibility and the complementarity gap are
    measured on the compiled standard form stored with the solution.
    """
    if solution.status != "optimal" or solution._internal is None:
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
    intr = solution._internal
    xs, ys, ss = intr["x"], intr["y"], intr["s"]
    A, bb, cc = intr["A"], intr["b"], intr["c"]
    dres = float(np.max(np.abs(A.T @ ys + ss - cc))) / (1.0 + float(np.max(np.abs(cc))))
    pobj = float(cc @ xs)
    dobj = float(bb @ ys)
    gap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
    return KktResiduals(worst_p, dres, gap, eigs)


def dump_program(p: ConicProgram) -> str:
    """Serialize a program to a readable text block for debugging.

    Format, one item per line:
        var <name> free|nonneg        scalar variable
        psdvar <name> <dim>           matrix variable
        binvar <name>                 binary variable
        objective min|max offset <v>  followed by indented terms
        row <i> <sense> <rhs> [name]  followed by indented terms
        lmi <i> <dim> [name]          followed by indented terms
    Terms:  "  lin <var> <coef>" or "  mat <var> <i> <j> <value>"
    (matrix entries are upper-triangle, symmetric completion implied).
    """
    out = []
    for name, kind in p.scalar_vars.items():
        out.append("var %s %s" % (name, kind))
    for name, d in p.psd_vars.items():
        out.append("psdvar %s %d" % (name, d))
    for name in p.binary_vars:
        out.append("binvar %s" % name)

    def emit_terms(lin, mats):
        for v, coef in lin.items():
            out.append("  lin %s %.17g" % (v, coef))
        for v, mat in mats.items():
            d = mat.shape[0]
            for i in range(d):
                for j in range(i, d):
                    if mat[i, j] != 0.0:
                        out.append("  mat %s %d %d %.17g" % (v, i, j, mat[i, j]))

    out.append("objective %s offset %.17g" % (p.obj_sense, p.obj_offset))
    emit_terms(p.obj_lin, p.obj_mats)
    for i, row in enumerate(p.rows):
        out.append("row %d %s %.17g%s" % (i, row.sense, row.rhs,
                                          (" " + row.name) if row.name else ""))
        emit_terms(row.lin, row.mats)
    for i, lmi in enumerate(p.lmis):
        out.append("lmi %d %d%s" % (i, lmi.const.shape[0],
                                    (" " + lmi.name) if lmi.name else ""))
        emit_terms({}, lmi.coeffs)
        d = lmi.const.shape[0]
        for r in range(d):
            for cc in range(r, d):
                if lmi.const[r, cc] != 0.0:
                    out.append("  const %d %d %.17g" % (r, cc, lmi.const[r, cc]))
    return "\n".join(out) + "\n"
