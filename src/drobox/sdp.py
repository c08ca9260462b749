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

Each step solves normal equations with the m x m matrix M = A D A^T
(D the scaling).  The programs the drobox verbs solve are short, masters
of about 10 (measure) to a few dozen (fixed boxes) rows, so M is formed
densely as a Schur complement, the slack column of each inequality row
adding to its diagonal only, and factored with one numpy Cholesky call
per iteration (Vandenberghe, "The CVXOPT linear and quadratic cone
program solvers", 2010).  The triangular factor is inverted once per
factor, so each solve is two matrix-vector products; two rounds of
iterative refinement against M follow it (Andersen, ACM TOMS 22(3),
1996).  numpy alone does this, so importing drobox loads no scipy.

Step lengths are taken in NT-scaled coordinates: with X = G lam G and
S = G^-1 lam G^-1, one eigendecomposition of lam gives both step lengths
and serves every Jordan-product solve (Vandenberghe, "The CVXOPT linear
and quadratic cone program solvers", 2010; Todd, Toh & Tutuncu, SIAM J.
Optim. 8(3), 1998).  The PSD blocks are handled as one padded
(blocks, D, D) stack, D the largest order (_Cone), so each step of an
iteration makes the same numpy calls whatever the number of blocks: four
stacked eigh for the scaling and one eigvalsh per step length.

A caller that needs less than the optimum passes solve_sdp a stop rule:
it reads each iterate's values of the program's scalar variables, and the
first iterate it accepts ends the solve with status and exit "stopped",
the solution holding that iterate (the search rules a set of boxes out on
an iterate whose repaired measure falls below its threshold).

Progress goes to the drobox.sdp logger as one DEBUG line per iteration in
key=value form: iter=, mu=, pres=, dres=, gap=, tau=, kappa=; and one
summary line per solve: exit=, status=, iters=, rows=, cols=, then pres=,
dres= and gap= of the iterate the solve returns (computed only when the
logger is at DEBUG).  exit= is SdpSolution.exit_reason, exit=stopped for
a solve its stop rule ended.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
    """Matrix of S -> G S G in svec coordinates, for G (..., d, d); symmetric when G is."""
    r, c, w = _svec_weights(G.shape[-1])
    G = G[..., None, :, :]
    return ((G @ _svec_basis(G.shape[-1]) @ G)[..., r, c] * w).swapaxes(-1, -2)


def svec(s: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix so that svec(A) . svec(B) = <A, B>."""
    d = s.shape[0]
    r, c, w = _svec_weights(d)
    return s[r, c] * w


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec."""
    r, c, w = _svec_weights(d)
    out = np.empty((d, d))
    out[r, c] = out[c, r] = v / w
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
        self.binary_vars: dict[str, None] = {}  # an insertion-ordered set
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
        self.binary_vars[name] = None
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
        unknown = [v for v in fixed if v not in self.binary_vars]
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
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    n_nonneg: int
    psd_dims: list
    scalar_cols: dict  # name -> its columns: (col,) if nonneg, (col_pos, col_neg) if free
    # (2, scalars) columns of each scalar's positive and negative part, in
    # scalar_vars order; a nonneg scalar's negative part is the zero column
    # that _scalar_values appends past the last
    scalar_index: np.ndarray
    psd_offsets: dict  # name -> (first svec column, dim)
    lmi_row_spans: list  # (row_start, dim) per lmi, after the program's rows
    obj_sign: float
    obj_offset: float


# sign of a scalar's coefficient on each of its columns: a free scalar is
# the difference of two adjacent nonnegative columns
_SPLIT = (1.0, -1.0)


def _compile(p: ConicProgram) -> _Compiled:
    if p.binary_vars:
        raise ValueError("fix or relax binary variables before solving")
    scalar_cols, n = {}, 0
    for name, kind in p.scalar_vars.items():
        scalar_cols[name] = (n,) if kind == "nonneg" else (n, n + 1)
        n += len(scalar_cols[name])
    slack = n
    n += sum(1 for r in p.rows if r.sense != "==")
    n_nonneg = n
    psd_dims, psd_offsets = [], {}
    for name, d in p.psd_vars.items():
        psd_offsets[name] = (n, d)
        psd_dims.append(d)
        n += svec_len(d)
    lmi_slacks = []
    for lmi in p.lmis:
        lmi_slacks.append(n)
        psd_dims.append(lmi.const.shape[0])
        n += svec_len(lmi.const.shape[0])

    n_rows = len(p.rows) + sum(svec_len(lmi.const.shape[0]) for lmi in p.lmis)
    A = np.zeros((n_rows, n))
    b = np.zeros(n_rows)
    for r, row in enumerate(p.rows):
        b[r] = row.rhs
        for name, coef in row.lin.items():
            for j, sign in zip(scalar_cols[name], _SPLIT):
                A[r, j] = sign * coef
        for name, mat in row.mats.items():
            base, d = psd_offsets[name]
            A[r, base : base + svec_len(d)] = svec(mat)
        if row.sense != "==":
            A[r, slack] = -1.0 if row.sense == ">=" else 1.0
            slack += 1

    # sum_j x_j svec(F_j) - svec(U) = -svec(G) for the LMI F(x) + G = U >= 0
    lmi_row_spans, start = [], len(p.rows)
    for lmi, off in zip(p.lmis, lmi_slacks):
        d = lmi.const.shape[0]
        span = slice(start, start + svec_len(d))
        A[span, off : off + svec_len(d)] = -np.eye(svec_len(d))
        b[span] = -svec(lmi.const)
        for name, mat in lmi.coeffs.items():
            for j, sign in zip(scalar_cols[name], _SPLIT):
                A[span, j] = sign * svec(mat)
        lmi_row_spans.append((start, d))
        start = span.stop

    c = np.zeros(n)
    obj_sign = 1.0 if p.obj_sense == "min" else -1.0
    for name, coef in p.obj_lin.items():
        for j, sign in zip(scalar_cols[name], _SPLIT):
            c[j] += sign * obj_sign * coef
    for name, mat in p.obj_mats.items():
        base, d = psd_offsets[name]
        c[base : base + svec_len(d)] += obj_sign * svec(mat)

    scalar_index = np.array([(cols[0], cols[1] if len(cols) == 2 else n)
                             for cols in scalar_cols.values()], dtype=int).reshape(-1, 2).T
    return _Compiled(A=A, b=b, c=c, n_nonneg=n_nonneg, psd_dims=psd_dims,
                     scalar_cols=scalar_cols, scalar_index=scalar_index,
                     psd_offsets=psd_offsets,
                     lmi_row_spans=lmi_row_spans, obj_sign=obj_sign,
                     obj_offset=p.obj_offset)


# ---------------------------------------------------------------------------
# Cone helpers for the composite cone R+^l x PSD(d1) x ...


class _Cone:
    """R+^l x PSD(d1) x PSD(d2) ..., its PSD blocks handled as one stack.

    The stack is an (nb, D, D) array, D the largest block order.  A block
    of smaller order sits in the top-left corner of its slice and is padded
    on the trailing diagonal, an exactly decoupled invariant subspace that
    every stacked product, eigendecomposition and Lyapunov solve keeps
    apart from the block.  to_stack gathers a vector's PSD columns into the
    stack and from_stack scatters a stack back to svec columns; root()
    gathers the block-diagonal sym-kron matrix on the PSD columns.
    """

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
        D = max(self.dims, default=0)
        self.eye = np.eye(D)
        # entries outside the blocks gather index 0 with scale 0 (the
        # loop gathers only finite vectors)
        gather = np.zeros((len(self.dims), D, D), int)
        scale = np.zeros(gather.shape)
        self.pad = np.zeros(gather.shape)
        scatter, weights = [], []
        root = np.zeros((off - n_nonneg,) * 2, int)
        self._in_root = np.zeros(root.shape)
        r_D, c_D, _ = _svec_weights(D)
        for j, (a, b, d) in enumerate(self.spans):
            r, c, w = _svec_weights(d)
            gather[j, r, c] = gather[j, c, r] = np.arange(a, b)
            scale[j, r, c] = scale[j, c, r] = 1.0 / w
            self.pad[j, range(d, D), range(d, D)] = 1.0
            scatter.append((j * D + r) * D + c)
            weights.append(w)
            # the order-D svec index of each of the block's svec entries
            at = np.flatnonzero((r_D < d) & (c_D < d))
            span = slice(a - n_nonneg, b - n_nonneg)
            root[span, span] = (j * svec_len(D) + at[:, None]) * svec_len(D) + at
            self._in_root[span, span] = 1.0
        self._gather, self._scale, self._root = gather, scale, root
        self._scatter = np.concatenate(scatter or [np.zeros(0, int)])
        self._weights = np.concatenate(weights or [np.zeros(0)])

    def identity(self) -> np.ndarray:
        e = np.zeros(self.n)
        e[: self.l] = 1.0
        for a, b, d in self.spans:
            e[a:b] = svec(np.eye(d))
        return e

    def to_stack(self, v: np.ndarray) -> np.ndarray:
        """The PSD blocks of v as symmetric matrices, padded with 1."""
        return v[self._gather] * self._scale + self.pad

    def from_stack(self, S: np.ndarray) -> np.ndarray:
        """svec columns of the stack's blocks, read from upper triangles."""
        return S.reshape(-1)[self._scatter] * self._weights

    def root(self, G: np.ndarray) -> np.ndarray:
        """blockdiag(sym-kron(G_j)) on the PSD columns, G the stack."""
        return _sym_kron(G).reshape(-1)[self._root] * self._in_root


@dataclass
class _Scaling:
    """Nesterov-Todd scaling at a point (x, s).

    d_l = x_l / s_l on the nonnegative block.  On the PSD stack, T is the
    NT matrix, G = T^(1/2), and lam = G S G = G^-1 X G^-1 is the scaled
    point, with eigenvalues w and eigenvectors v.  W = blockdiag of
    sym-kron(G_j), the svec matrix of S -> G S G, is the root of
    H = W W^T on the PSD columns: H svec(S) = svec(T S T) blockwise.
    """

    d_l: np.ndarray
    G: np.ndarray
    G_inv: np.ndarray
    lam: np.ndarray
    w: np.ndarray
    v: np.ndarray
    W: np.ndarray


def _mul_vt(v: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """v diag(scale) v^T for a stack of eigenvectors v."""
    return (v * scale[:, None, :]) @ v.transpose(0, 2, 1)


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.transpose(0, 2, 1)) / 2.0


def _nt_scaling(cone: _Cone, x: np.ndarray, s: np.ndarray) -> _Scaling:
    """Nesterov-Todd scaling of every block at once: four stacked eigh."""
    d_l = x[: cone.l] / s[: cone.l]
    if not cone.dims:  # a linear program: nothing to decompose
        stack, flat = np.zeros((0, 0, 0)), np.zeros((0, 0))
        return _Scaling(d_l, stack, stack, stack, flat, stack, flat)
    X = cone.to_stack(x)
    S = cone.to_stack(s)
    wx, vx = np.linalg.eigh(X)
    Xh = _mul_vt(vx, np.sqrt(np.maximum(wx, 1e-300)))
    wp, vp = np.linalg.eigh(_sym(Xh @ S @ Xh))
    wt, vt = np.linalg.eigh(_sym(Xh @ _mul_vt(vp, np.maximum(wp, 1e-300) ** -0.5) @ Xh))
    wt = np.maximum(wt, 1e-300)
    G = _mul_vt(vt, np.sqrt(wt))
    lam = _sym(G @ S @ G)
    return _Scaling(d_l, G, _mul_vt(vt, wt ** -0.5), lam, *np.linalg.eigh(lam), cone.root(G))


def _apply_H(cone: _Cone, nt: _Scaling, v: np.ndarray) -> np.ndarray:
    return np.concatenate((nt.d_l * v[: cone.l], nt.W @ (nt.W.T @ v[cone.l :])))


def _lyap_inv(nt: _Scaling, M: np.ndarray) -> np.ndarray:
    """Solve lam o N = M for N, with o the symmetric Jordan product."""
    vT = nt.v.transpose(0, 2, 1)
    denom = (nt.w[:, :, None] + nt.w[:, None, :]) / 2.0
    return nt.v @ ((vT @ M @ nt.v) / denom) @ vT


def _step_lengths(cone: _Cone, nt: _Scaling, x: np.ndarray, s: np.ndarray,
                  dx: np.ndarray, ds: np.ndarray):
    """Largest steps keeping x + alpha_x dx and s + alpha_s ds in the cone.

    nt is the NT scaling at (x, s).  In scaled coordinates X = G lam G
    and S = G^-1 lam G^-1, so X + a dX stays PSD while lam + a G^-1 dX G^-1
    does, that is while I + a lam^-1/2 (G^-1 dX G^-1) lam^-1/2 does, and
    likewise S + a dS with G dS G: the eigenpairs of lam serve both, and
    one eigvalsh call takes both sides of every block.  The padding of the
    scaled directions is 1, never their least eigenvalue.  Returns
    (alpha_x, alpha_s, (G^-1 dX G^-1, G dS G)).  A non-finite direction
    gives step 0.
    """
    scaled = (nt.G_inv @ cone.to_stack(dx) @ nt.G_inv, nt.G @ cone.to_stack(ds) @ nt.G)
    low = (math.inf, math.inf)
    if cone.dims:
        Q = nt.v * np.maximum(nt.w, 1e-300)[:, None, :] ** -0.5  # Q Q^T = lam^-1
        QT = Q.transpose(0, 2, 1)
        try:
            low = np.linalg.eigvalsh(np.concatenate([QT @ D @ Q for D in scaled]))
        except np.linalg.LinAlgError:
            return 0.0, 0.0, scaled
        low = low.reshape(2, -1).min(axis=1)
    alpha = []
    for low_k, v, dv in zip(low, (x[: cone.l], s[: cone.l]), (dx[: cone.l], ds[: cone.l])):
        ratio = np.divide(-v, dv, out=np.full(cone.l, math.inf), where=dv < 0)
        alpha.append(min(float(ratio.min(initial=math.inf)), 0.0 if math.isnan(low_k)
                         else -1.0 / low_k if low_k < 0 else math.inf))
    return alpha[0], alpha[1], scaled


# ---------------------------------------------------------------------------
# Solver


@dataclass
class SdpSolution:
    status: str  # optimal | stopped | infeasible | unbounded | numerical-failure
    objective: float
    primal: dict
    row_duals: np.ndarray
    lmi_duals: list
    iterations: int
    # how the iterations ended: converged | stopped (the stop rule accepted
    # the iterate the solution holds) | infeasible | unbounded (a
    # certificate) | stall (no progress near the floor; the fallback, the
    # best iterate or a looser infeasibility ray, gave the status) |
    # stall-failed | tau-collapse | non-finite | tiny-step | iteration-cap
    exit_reason: str = "converged"

    def value(self, name: str):
        return self.primal[name]


class _NormalFactor:
    """Cholesky factor of the normal matrix M = A D A^T of the interior-point steps.

    D is diag(d_l) on the nonnegative columns and H = W W^T on the PSD
    columns, W block diagonal, so M = (A_l diag(d_l)) A_l^T + (A_p W)(A_p W)^T,
    formed densely with BLAS.  A nonnegative column with at most one
    nonzero (the slack of an inequality row) adds d a^2 to one diagonal
    entry; those columns are split off once and added as a diagonal.
    numpy factors M = U^T U with U upper triangular (the factor LAPACK's
    dpotrf returns), and np.linalg.inv inverts U, exactly zero below its
    diagonal, so a solve is U^-1 (U^-T rhs).  solve() refines twice
    against M, which matters once the barrier parameter gets small and M
    turns badly conditioned.
    """

    def __init__(self, A: np.ndarray, cone: _Cone):
        A_l = A[:, : cone.l]
        unit = np.count_nonzero(A_l, axis=0) <= 1
        self.full = np.flatnonzero(~unit)
        self.unit = np.flatnonzero(unit)
        self.A_full = A_l[:, self.full]
        self.unit_row = np.argmax(A_l[:, self.unit] != 0, axis=0)
        self.unit_sq = A_l[self.unit_row, self.unit] ** 2
        self.A_p = A[:, cone.l :]

    def factor(self, d_l: np.ndarray, W: np.ndarray):
        """Factor for scaling d_l and H = W W^T on the PSD columns.

        Raises RuntimeError when M is not finite, or singular even after
        one diagonal shift.  Redundant == rows make M exactly singular; the
        retry shifts its diagonal by 1e-12 times its mean diagonal.
        """
        AW = self.A_p @ W
        M = (self.A_full * d_l[self.full]) @ self.A_full.T + AW @ AW.T
        M.flat[:: len(M) + 1] += np.bincount(self.unit_row, d_l[self.unit] * self.unit_sq,
                                             minlength=len(M))
        if not np.all(np.isfinite(M)):
            raise RuntimeError("normal matrix is not finite")
        try:
            U = np.linalg.cholesky(M, upper=True)
        except np.linalg.LinAlgError:
            try:
                U = np.linalg.cholesky(M + _shift(M.diagonal()) * np.eye(len(M)), upper=True)
            except np.linalg.LinAlgError:
                raise RuntimeError("normal matrix is singular") from None
        self.M, self.U_inv = M, np.linalg.inv(U)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        U_inv = self.U_inv
        z = U_inv @ (U_inv.T @ rhs)
        for _ in range(2):
            z = z + U_inv @ (U_inv.T @ (rhs - self.M @ z))
        return z


def _shift(diag_m: np.ndarray) -> float:
    return 1e-12 * (float(np.mean(np.abs(diag_m))) or 1.0)


def _residuals(r_p: np.ndarray, r_d: np.ndarray, cx: float, by: float, tau: float,
               norm_b: float, norm_c: float) -> tuple:
    """(pres, dres, gap) of the iterate (x, y, s) / tau from r_p = A x - b tau,
    r_d = c tau - A^T y - s, c.x and b.y: the scaled primal and dual
    residuals and the relative duality gap."""
    pres = float(np.abs(r_p).max()) / tau / norm_b
    dres = float(np.abs(r_d).max()) / tau / norm_c
    return pres, dres, abs(cx - by) / tau / (1.0 + max(abs(cx), abs(by)) / tau)


def _solve_hsd(A: np.ndarray, b: np.ndarray, c: np.ndarray, cone: _Cone,
               tol: float, stop: Optional[Callable]) -> dict:
    # interior-point internals legitimately push floats to their limits;
    # non-finite iterates are caught explicitly, not via warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _hsd_loop(A, b, c, cone, tol, stop)


def _hsd_loop(A: np.ndarray, b: np.ndarray, c: np.ndarray, cone: _Cone,
              tol: float, stop: Optional[Callable]) -> dict:
    m = A.shape[0]
    amax = float(np.max(np.abs(A), initial=0.0)) or 1.0
    At = A.T
    fact = _NormalFactor(A, cone)

    x = cone.identity()
    s = cone.identity()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    nu = cone.degree + 1.0

    norm_b = 1.0 + float(np.max(np.abs(b)))
    norm_c = 1.0 + float(np.max(np.abs(c))) if c.size else 1.0

    status = "numerical-failure"
    exit_reason = "iteration-cap"
    it = 0
    best_phi = math.inf
    best = None
    stall = 0
    for it in range(1, DEFAULT_MAX_ITER + 1):
        # one sum per vector: a non-finite entry makes it non-finite
        if not math.isfinite(float(x.sum() + s.sum() + y.sum()) + tau + kappa):
            exit_reason = "non-finite"
            break
        r_p = A @ x - b * tau
        r_d = -(At @ y) - s + c * tau
        cx = float(c @ x)
        by = float(b @ y)
        r_g = cx - by + kappa
        mu = (float(x @ s) + tau * kappa) / nu

        # -- convergence -----------------------------------------------------
        pres, dres, gap = _residuals(r_p, r_d, cx, by, tau, norm_b, norm_c)
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
            status, exit_reason = "optimal", "converged"
            break
        if stop is not None and stop(x / tau):
            status = exit_reason = "stopped"
            break

        # -- infeasibility certificates --------------------------------------
        if mu <= 1e-4:
            if by > 0.0:
                yn = y / by
                sn = s / by
                if float(np.max(np.abs(At @ yn + sn))) <= tol * (1.0 + amax):
                    status = exit_reason = "infeasible"
                    break
            if cx < 0.0:
                xn = x / (-cx)
                if float(np.max(np.abs(A @ xn))) <= tol * (1.0 + amax):
                    status = exit_reason = "unbounded"
                    break
        if tau <= 1e-12 and kappa >= 1e-8:
            # ray detected but certificate quality poor
            exit_reason = "tau-collapse"
            break
        if stall >= 5 and mu <= 1e-6:
            # no residual progress near the floor; fall back to best iterate
            exit_reason = "stall"
            break

        # -- scaling and Schur factor ----------------------------------------
        # every break from here to the step is a numerical breakdown
        exit_reason = "non-finite"
        try:
            nt = _nt_scaling(cone, x, s)
            fact.factor(nt.d_l, nt.W)
        except (np.linalg.LinAlgError, RuntimeError):
            break

        Hc = _apply_H(cone, nt, c)
        k1 = fact.solve(A @ Hc + b)
        if not np.all(np.isfinite(k1)):
            break
        den = (float(c @ _apply_H(cone, nt, At @ k1)) - float(b @ k1) - float(c @ Hc)
               - kappa / tau)
        if abs(den) < 1e-300:
            break

        def direction(target_l, target_psd, target_tk, eta):
            """Solve one Newton system; targets live in scaled space."""
            rc = np.concatenate((target_l / x[: cone.l],
                                 cone.from_stack(nt.G_inv @ _lyap_inv(nt, target_psd) @ nt.G_inv)))
            g = rc - eta * r_d
            Hg = _apply_H(cone, nt, g)
            k2 = fact.solve(-eta * r_p - A @ Hg)
            num = (-eta * r_g - float(c @ _apply_H(cone, nt, At @ k2)) + float(b @ k2)
                   - float(c @ Hg) - target_tk / tau)
            dtau = num / den
            dy = k1 * dtau + k2
            At_dy = At @ dy
            dx = _apply_H(cone, nt, At_dy - c * dtau + g)
            ds = -At_dy + c * dtau + eta * r_d
            dkappa = (target_tk - kappa * dtau) / tau
            if not math.isfinite(float(dx.sum() + dy.sum() + ds.sum()) + dtau + dkappa):
                return None
            return dx, dy, ds, dtau, dkappa

        def step(dx, ds, dtau, dkappa):
            alpha_x, alpha_s, scaled = _step_lengths(cone, nt, x, s, dx, ds)
            return min(alpha_x, alpha_s,
                       (-tau / dtau) if dtau < 0 else math.inf,
                       (-kappa / dkappa) if dkappa < 0 else math.inf), scaled

        # nonneg target in scaled coordinates: lam_l * (dxh + dsh) = target_l
        # with our parametrization rc = target_l / x (see module notes)
        # affine pass
        lam2 = nt.lam @ nt.lam
        res = direction(-(x[: cone.l] * s[: cone.l]), -lam2, -tau * kappa, 1.0)
        if res is None:
            break
        dxa, dya, dsa, dtaua, dkappaa = res
        alpha_a, (dXh, dSh) = step(dxa, dsa, dtaua, dkappaa)
        alpha_a = min(1.0, 0.99995 * alpha_a)
        mu_aff = (float((x + alpha_a * dxa) @ (s + alpha_a * dsa))
                  + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)) / nu
        # clip before cubing: a blown-up affine step must not overflow
        sigma = max(min(max(mu_aff / mu, 0.0), 1.0) ** 3, 1e-10)

        # corrector pass
        tgt_l = sigma * mu - x[: cone.l] * s[: cone.l] - dxa[: cone.l] * dsa[: cone.l]
        tgt_psd = sigma * mu * cone.eye - lam2 - (dXh @ dSh + dSh @ dXh) / 2.0
        tgt_tk = sigma * mu - tau * kappa - dtaua * dkappaa
        res = direction(tgt_l, tgt_psd, tgt_tk, 1.0)
        if res is None:
            break
        dx, dy, ds, dtau, dkappa = res
        alpha = min(1.0, 0.99 * step(dx, ds, dtau, dkappa)[0])
        if alpha <= 1e-13:
            exit_reason = "tiny-step"
            break
        exit_reason = "iteration-cap"
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status not in ("optimal", "stopped", "infeasible", "unbounded"):
        # the iteration ended on a stall or a degenerate step; first see
        # whether the final iterate is a usable infeasibility ray at a
        # relaxed threshold, then fall back to the best feasible iterate
        loose = max(1e-7, 10.0 * tol) * (1.0 + amax)
        by = float(b @ y)
        if by > 0.0 and float(np.max(np.abs(At @ (y / by) + s / by))) <= loose:
            status = "infeasible"
        elif best is not None and best_phi <= 10.0 * tol:
            # close enough that downstream checks (KKT at 1e-7, gaps at
            # 1e-6) still hold
            status = "optimal"
            x, y, s, tau, kappa = best
        elif exit_reason == "stall":
            exit_reason = "stall-failed"
    if LOG.isEnabledFor(logging.DEBUG):
        LOG.debug("exit=%s status=%s iters=%d rows=%d cols=%d pres=%.3g dres=%.3g gap=%.3g",
                  exit_reason, status, it, m, cone.n,
                  *_residuals(A @ x - b * tau, c * tau - At @ y - s, float(c @ x),
                              float(b @ y), tau, norm_b, norm_c))

    return {
        "status": status,
        "exit_reason": exit_reason,
        "x": x,
        "y": y,
        "tau": tau,
        "kappa": kappa,
        "iterations": it,
    }


# ---------------------------------------------------------------------------
# Public entry points


def solve_sdp(program: ConicProgram, tol: float = DEFAULT_TOL,
              stop: Optional[Callable[[np.ndarray], bool]] = None) -> SdpSolution:
    """Solve a conic program with no unresolved binary variables, to tol,
    in at most DEFAULT_MAX_ITER iterations.

    stop, if given, is called on every iterate of a program with rows,
    after the convergence test, with the iterate's values of the scalar
    variables in declaration order.  When it returns True the solve ends
    with status "stopped", the primal, objective and duals being that
    iterate's; it never raises.
    """
    comp = _compile(program)
    cone = _Cone(comp.n_nonneg, comp.psd_dims)

    if comp.A.shape[0] == 0:
        return _solve_unconstrained(program, comp, cone)

    raw = _solve_hsd(comp.A, comp.b, comp.c, cone, tol, None if stop is None
                     else lambda xs: stop(_scalar_values(comp, xs)))
    status = raw["status"]
    if status in ("optimal", "stopped"):
        tau = raw["tau"]
        xs = raw["x"] / tau
        ys = raw["y"] / tau
        primal = _extract_primal(comp, xs)
        row_duals = ys[: program.n_rows] * comp.obj_sign
        lmi_duals = []
        for start, d in comp.lmi_row_spans:
            lmi_duals.append(smat(ys[start : start + svec_len(d)] * comp.obj_sign, d))
        internal_obj = float(comp.c @ xs)
        objective = comp.obj_sign * internal_obj + comp.obj_offset
        return SdpSolution(
            status=status,
            objective=objective,
            primal=primal,
            row_duals=row_duals,
            lmi_duals=lmi_duals,
            iterations=raw["iterations"],
            exit_reason=raw["exit_reason"],
        )

    worst = {"infeasible": math.inf, "unbounded": -math.inf}.get(status, math.nan)
    return SdpSolution(status, comp.obj_sign * worst, {}, np.zeros(program.n_rows), [],
                       raw["iterations"], raw["exit_reason"])


def _solve_unconstrained(program, comp, cone) -> SdpSolution:
    """Row-free program: the conic minimum is 0 or the problem is unbounded."""
    c = comp.c
    ok = np.all(c[: cone.l] >= 0)
    for a, b, d in cone.spans:
        if float(np.min(np.linalg.eigvalsh(smat(c[a:b], d)))) < 0:
            ok = False
    if ok:
        xs = np.zeros(cone.n)
        primal = _extract_primal(comp, xs)
        return SdpSolution("optimal", comp.obj_sign * 0.0 + comp.obj_offset, primal,
                           np.zeros(0), [], 0)
    worst = -math.inf if program.obj_sense == "min" else math.inf
    return SdpSolution("unbounded", worst, {}, np.zeros(0), [], 0, "unbounded")


def _scalar_values(comp: _Compiled, xs: np.ndarray) -> np.ndarray:
    """The scalar variables' values at the standard-form point xs, in scalar_vars order."""
    pos, neg = np.append(xs, 0.0)[comp.scalar_index]
    return pos - neg


def _extract_primal(comp: _Compiled, xs: np.ndarray) -> dict:
    primal = dict(zip(comp.scalar_cols, _scalar_values(comp, xs).tolist()))
    for name, (base, d) in comp.psd_offsets.items():
        primal[name] = smat(xs[base : base + svec_len(d)], d)
    return primal
