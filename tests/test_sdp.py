import logging
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg

from drobox import cli, sdp
from drobox.assemble import assemble_case1
from drobox.certify import Pricer
from drobox.lipschitz import lipschitz_certificate, safety_margin
from drobox.model import AmbiguitySpec, BoxRegion, ConfidenceSet, lattice_points
from drobox.sdp import (
    ConicProgram,
    _Cone,
    _NormalFactor,
    _compile,
    _extract_primal,
    _nt_scaling,
    _step_lengths,
    smat,
    solve_sdp,
    svec,
    svec_len,
)
from oracles import diagonal_sdp_batch, dual_pair_sdp_batch, eigmin_sdp_batch, kkt_residuals


def lmi_correlation_program():
    # max t with [[1, t], [t, 1]] psd; the matrix is psd exactly for |t| <= 1
    p = ConicProgram()
    p.add_scalar("t")
    p.add_lmi({"t": np.array([[0.0, 1.0], [1.0, 0.0]])}, np.eye(2))
    p.set_objective("max", {"t": 1.0})
    return p


def test_offdiagonal_entry_maximization():
    sol = solve_sdp(lmi_correlation_program())
    assert (sol.status, sol.exit_reason) == ("optimal", "converged")
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    assert sol.primal["t"] == pytest.approx(1.0, abs=1e-6)


def test_trace_minimization_with_trace_floor():
    p = ConicProgram()
    p.add_psd("Y", 2)
    p.add_row({}, ">=", 2.0, mats={"Y": np.eye(2)})
    p.set_objective("min", mats={"Y": np.eye(2)})
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    assert np.trace(sol.primal["Y"]) == pytest.approx(2.0, abs=1e-6)


def test_linear_program_with_shadow_prices():
    # min x + 2y subject to x + y >= 1: optimum 1 at (1, 0), binding row
    # priced at 1.  The free variable z is pinned by an equality.
    p = ConicProgram()
    p.add_scalar("x", nonneg=True)
    p.add_scalar("y", nonneg=True)
    p.add_scalar("z")
    r0 = p.add_row({"x": 1.0, "y": 1.0}, ">=", 1.0)
    r1 = p.add_row({"z": 1.0, "x": 1.0}, "==", -2.0)
    p.set_objective("min", {"x": 1.0, "y": 2.0, "z": 0.0})
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert sol.primal["x"] == pytest.approx(1.0, abs=1e-6)
    assert sol.primal["y"] == pytest.approx(0.0, abs=1e-6)
    assert sol.primal["z"] == pytest.approx(-3.0, abs=1e-6)
    assert sol.row_duals[r0] == pytest.approx(1.0, abs=1e-6)
    assert sol.row_duals[r1] == pytest.approx(0.0, abs=1e-6)


def test_row_dual_signs_follow_shadow_price_convention():
    # For a maximization, a binding upper bound has a positive price.
    p = ConicProgram()
    p.add_scalar("x", nonneg=True)
    r = p.add_row({"x": 1.0}, "<=", 2.0)
    p.set_objective("max", {"x": 3.0})
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(6.0, abs=1e-6)
    assert sol.row_duals[r] == pytest.approx(3.0, abs=1e-6)

    # For a minimization, a binding upper bound has a negative price.
    p = ConicProgram()
    p.add_scalar("x", nonneg=True)
    r = p.add_row({"x": 1.0}, "<=", 2.0)
    p.set_objective("min", {"x": -3.0})
    sol = solve_sdp(p)
    assert sol.row_duals[r] == pytest.approx(-3.0, abs=1e-6)


def test_infeasible_scalar_rows_are_detected():
    p = ConicProgram()
    p.add_scalar("x", nonneg=True)
    p.add_row({"x": 1.0}, ">=", 1.0)
    p.add_row({"x": 1.0}, "<=", 0.0)
    p.set_objective("min", {"x": 1.0})
    sol = solve_sdp(p)
    assert sol.status == "infeasible"
    assert sol.objective == np.inf


def test_infeasible_lmi_is_detected():
    # -1 - y >= 0 and -1 + y >= 0 cannot hold together
    p = ConicProgram()
    p.add_scalar("y")
    p.add_lmi({"y": np.diag([-1.0, 1.0])}, -np.eye(2))
    p.set_objective("max", {"y": 1.0})
    sol = solve_sdp(p)
    assert sol.status == "infeasible"
    assert sol.objective == -np.inf


def test_unbounded_objective_is_detected():
    p = ConicProgram()
    p.add_scalar("x", nonneg=True)
    p.add_scalar("z", nonneg=True)
    p.add_row({"z": 1.0}, "<=", 1.0)
    p.set_objective("min", {"x": -1.0})
    sol = solve_sdp(p)
    assert sol.status == "unbounded"
    assert sol.objective == -np.inf


def test_row_free_program_minimizes_at_cone_origin():
    p = ConicProgram()
    p.add_psd("Y", 3)
    p.set_objective("min", mats={"Y": np.eye(3)})
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert sol.objective == 0.0

    p = ConicProgram()
    p.add_psd("Y", 2)
    p.set_objective("min", mats={"Y": np.diag([1.0, -1.0])})
    assert solve_sdp(p).status == "unbounded"


def test_solver_rejects_unresolved_binaries():
    p = ConicProgram()
    p.add_binary("u")
    p.add_row({"u": 1.0}, ">=", 0.0)
    p.set_objective("min", {"u": 1.0})
    with pytest.raises(ValueError):
        solve_sdp(p)


def test_fix_binaries_substitutes_into_rows_and_objective():
    p = ConicProgram()
    p.add_binary("u")
    p.add_binary("v")
    p.add_scalar("x", nonneg=True)
    p.add_row({"x": 1.0, "u": 2.0, "v": -1.0}, ">=", 1.0)
    p.add_lmi({"x": np.eye(2), "u": np.eye(2)}, np.zeros((2, 2)))
    p.set_objective("min", {"x": 1.0, "u": 10.0}, offset=1.0)
    fixed = p.fix_binaries({"u": 1, "v": 0})
    assert list(fixed.binary_vars) == []
    sol = solve_sdp(fixed)
    # row becomes x >= -1, objective x + 10 + 1, so the optimum sits at x = 0
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(11.0, abs=1e-6)
    with pytest.raises(ValueError):
        p.fix_binaries({"u": 1})
    with pytest.raises(ValueError):
        p.fix_binaries({"u": 1, "v": 0, "w": 1})


def test_relax_binaries_adds_unit_interval_bounds():
    p = ConicProgram()
    p.add_binary("u")
    p.add_binary("v")
    p.add_row({"u": 1.0, "v": 1.0}, ">=", 0.0)
    p.set_objective("max", {"u": 3.0, "v": 1.0})
    relaxed = p.relax_binaries()
    sol = solve_sdp(relaxed)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0, abs=1e-6)

    partially = p.relax_binaries({"u": 0})
    sol = solve_sdp(partially)
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    # the original program is untouched
    assert list(p.binary_vars) == ["u", "v"]


def test_lmi_dual_matrix_prices_the_largest_eigenvalue():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(3, 3))
    c = (raw + raw.T) / 2.0
    p = ConicProgram()
    p.add_scalar("y")
    p.add_lmi({"y": np.eye(3)}, -c)
    p.set_objective("min", {"y": 1.0})
    sol = solve_sdp(p)
    lam_max = float(np.max(np.linalg.eigvalsh(c)))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(lam_max, abs=1e-6)
    z = sol.lmi_duals[0]
    assert float(np.min(np.linalg.eigvalsh(z))) >= -1e-7
    assert np.trace(z) == pytest.approx(1.0, abs=1e-6)
    slack = sol.primal["y"] * np.eye(3) - c
    assert abs(float(np.sum(z * slack))) <= 1e-6


def test_diagonal_programs_match_linprog():
    for p, status, ref in diagonal_sdp_batch(40, seed=91):
        sol = solve_sdp(p)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(ref, abs=1e-5, rel=1e-5)
            assert kkt_residuals(p, sol).max_violation <= 1e-7


def test_spectraplex_minimum_is_smallest_eigenvalue():
    for p, ref in eigmin_sdp_batch(30, seed=92):
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref, abs=1e-6, rel=1e-6)
        assert kkt_residuals(p, sol).max_violation <= 1e-7


def test_lmi_and_matrix_forms_agree_by_strong_duality():
    for lmi_form, matrix_form in dual_pair_sdp_batch(30, seed=93):
        a = solve_sdp(lmi_form)
        b = solve_sdp(matrix_form)
        assert a.status == "optimal"
        assert b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, abs=2e-6, rel=2e-6)
        assert kkt_residuals(lmi_form, a).max_violation <= 1e-7
        assert kkt_residuals(matrix_form, b).max_violation <= 1e-7


def test_solver_is_deterministic():
    def run():
        p = ConicProgram()
        p.add_scalar("x", nonneg=True)
        p.add_scalar("w")
        p.add_psd("Y", 3)
        raw = np.arange(9.0).reshape(3, 3)
        c = (raw + raw.T) / 2.0
        p.add_row({"x": 1.0, "w": -2.0}, ">=", 0.3, mats={"Y": np.eye(3)})
        p.add_row({"w": 1.0}, "<=", 4.0)
        p.add_row({}, "==", 1.5, mats={"Y": np.eye(3)})
        p.add_lmi({"x": np.eye(2), "w": np.diag([1.0, -1.0])}, np.eye(2))
        p.set_objective("min", {"x": 2.0, "w": 0.1}, mats={"Y": c})
        return solve_sdp(p)

    a, b = run(), run()
    assert a.status == b.status == "optimal"
    assert a.objective == b.objective
    assert a.iterations == b.iterations
    for key in a.primal:
        assert np.array_equal(np.asarray(a.primal[key]), np.asarray(b.primal[key]))
    assert np.array_equal(a.row_duals, b.row_duals)
    for za, zb in zip(a.lmi_duals, b.lmi_duals):
        assert np.array_equal(za, zb)


def test_kkt_residuals_requires_an_optimal_solution():
    p = ConicProgram()
    p.add_scalar("x", nonneg=True)
    p.add_row({"x": 1.0}, ">=", 1.0)
    p.add_row({"x": 1.0}, "<=", 0.0)
    p.set_objective("min", {"x": 1.0})
    sol = solve_sdp(p)
    with pytest.raises(ValueError):
        kkt_residuals(p, sol)


def test_builder_rejects_unknown_names_and_bad_senses():
    p = ConicProgram()
    p.add_scalar("x")
    with pytest.raises(ValueError):
        p.add_row({"nope": 1.0}, ">=", 0.0)
    with pytest.raises(ValueError):
        p.add_row({"x": 1.0}, ">", 0.0)
    with pytest.raises(ValueError):
        p.add_row({"x": 1.0}, ">=", 0.0, mats={"Y": np.eye(2)})
    with pytest.raises(ValueError):
        p.add_scalar("x")
    with pytest.raises(ValueError):
        p.set_objective("minimize")
    p.add_binary("u")
    with pytest.raises(ValueError):
        p.add_scalar("u")
    with pytest.raises(ValueError):
        p.add_psd("x", 2)
    with pytest.raises(ValueError):
        p.add_lmi({"nope": np.eye(2)}, np.eye(2))
    with pytest.raises(ValueError):
        p.add_psd("Z", 0)


def _sym(rng, d):
    m = rng.normal(size=(d, d))
    return m + m.T


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sense", ["min", "max"])
def test_compile_evaluates_the_program_it_compiles(seed, sense):
    # at any standard-form point z, each compiled row is the program row's
    # left-hand side plus its slack term, each LMI span is
    # sum_j x_j svec(F_j) - svec(U), and c.z is the objective
    rng = np.random.default_rng(seed)
    p = ConicProgram()
    scalars = [p.add_scalar(n, nonneg=n.startswith("n")) for n in ("f0", "n0", "f1", "n1")]
    dims = {p.add_psd("X", 2): 2, p.add_psd("Y", 3): 3}
    for sense_r in (">=", "==", "<=", ">=", "<=", "=="):
        lin = {v: float(rng.normal()) for v in scalars if rng.random() < 0.7}
        mats = {v: _sym(rng, d) for v, d in dims.items() if rng.random() < 0.7}
        p.add_row(lin, sense_r, float(rng.normal()), mats=mats)
    p.add_lmi({"f1": _sym(rng, 3), "n0": _sym(rng, 3)}, _sym(rng, 3))
    p.set_objective(sense, {"f0": 1.5, "n1": -2.0}, mats={"Y": _sym(rng, 3)}, offset=0.75)
    comp = _compile(p)
    z = rng.normal(size=comp.A.shape[1])
    Az = comp.A @ z
    val = _extract_primal(comp, z)

    def lhs(lin, mats):
        return (sum(coef * val[v] for v, coef in lin.items())
                + sum(float(np.sum(mat * val[v])) for v, mat in mats.items()))

    slack = sum(len(cols) for cols in comp.scalar_cols.values())
    for r, row in enumerate(p.rows):
        want = lhs(row.lin, row.mats)
        if row.sense != "==":
            want += (-1.0 if row.sense == ">=" else 1.0) * z[slack]
            slack += 1
        assert Az[r] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert slack == comp.n_nonneg
    lmi = p.lmis[0]
    start, d = comp.lmi_row_spans[0]
    assert start == p.n_rows
    u_first = comp.n_nonneg + sum(svec_len(k) for k in dims.values())
    want = sum(val[v] * svec(f) for v, f in lmi.coeffs.items()) - z[u_first:]
    np.testing.assert_allclose(Az[start:], want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(comp.b, [row.rhs for row in p.rows] + list(-svec(lmi.const)))
    objective = comp.obj_sign * float(comp.c @ z) + comp.obj_offset
    assert objective == pytest.approx(lhs(p.obj_lin, p.obj_mats) + 0.75, rel=1e-12)


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_svec_preserves_inner_products(dim, seed):
    rng = np.random.default_rng(seed)
    raw_a = rng.normal(size=(dim, dim))
    raw_b = rng.normal(size=(dim, dim))
    a = (raw_a + raw_a.T) / 2.0
    b = (raw_b + raw_b.T) / 2.0
    assert float(svec(a) @ svec(b)) == pytest.approx(float(np.sum(a * b)), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(smat(svec(a), dim), a, atol=1e-14)


def test_iteration_cap_yields_numerical_failure_not_exception(monkeypatch):
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 1)
    p = lmi_correlation_program()
    sol = solve_sdp(p)
    assert sol.status == "numerical-failure"
    assert sol.exit_reason == "iteration-cap"
    assert np.isnan(sol.objective)


def test_blown_up_affine_step_is_a_numerical_failure(monkeypatch):
    # a huge direction with an unbounded step length drives mu_aff / mu far
    # past what a float can cube; the solve must still end in a status
    solve = _NormalFactor.solve
    monkeypatch.setattr(_NormalFactor, "solve", lambda self, rhs: 1e60 * solve(self, rhs))
    steps = _step_lengths
    monkeypatch.setattr(sdp, "_step_lengths",
                        lambda *args: (math.inf, math.inf, steps(*args)[2]))
    sol = solve_sdp(lmi_correlation_program())
    assert sol.status == "numerical-failure"
    assert sol.exit_reason in ("non-finite", "tiny-step")


def test_iterations_log_key_value_lines(caplog):
    with caplog.at_level(logging.DEBUG, logger="drobox.sdp"):
        sol = solve_sdp(lmi_correlation_program())
    pattern = re.compile(r"^iter=\d+( (mu|pres|dres|gap|tau|kappa)=[-+0-9.eEinfa]+){6}$")
    messages = [r.getMessage() for r in caplog.records if r.name == "drobox.sdp"]
    assert len(messages) == sol.iterations + 1
    for msg in messages[:-1]:
        assert pattern.match(msg), msg
    summary = re.match(r"^exit=converged status=optimal iters=%d rows=3 cols=5"
                       r" pres=(\S+) dres=(\S+) gap=(\S+)$" % sol.iterations, messages[-1])
    assert summary, messages[-1]
    # the residuals of the returned iterate, which converged at the default 1e-8
    assert all(0.0 <= float(v) <= 1e-8 for v in summary.groups()), messages[-1]


def stop_program():
    # min u - v + 2 w with u - v free (the split of a free scalar) and w >= 0,
    # u - v + w >= 1 and [[1, u - v], [u - v, 1]] psd: the optimum is u - v = 1
    p = ConicProgram()
    p.add_scalar("a")
    p.add_scalar("w", nonneg=True)
    p.add_row({"a": 1.0, "w": 1.0}, ">=", 1.0)
    p.add_lmi({"a": np.array([[0.0, 1.0], [1.0, 0.0]])}, np.eye(2))
    p.set_objective("min", {"a": -1.0, "w": 2.0})
    return p


@pytest.mark.parametrize("at", [1, 3])
def test_stop_ends_the_solve_on_the_iterate_it_accepts(caplog, at):
    # stop sees each iterate's scalar values in declaration order, the free
    # scalar read as the difference of its columns; the iterate it accepts
    # is the solution, with status and exit "stopped"
    seen = []

    def stop(values):
        seen.append(values.copy())
        return len(seen) == at

    with caplog.at_level(logging.DEBUG, logger="drobox.sdp"):
        sol = solve_sdp(stop_program(), stop=stop)
    assert (sol.status, sol.exit_reason, sol.iterations) == ("stopped", "stopped", at)
    assert [sol.primal["a"], sol.primal["w"]] == seen[-1].tolist()
    assert sol.objective == -seen[-1][0] + 2.0 * seen[-1][1]
    assert seen[-1][1] > 0.0 and len(sol.row_duals) == 1 and len(sol.lmi_duals) == 1
    if at == 1:  # the starting point: every standard-form column 1, tau 1
        assert seen[0].tolist() == [0.0, 1.0]
    summary = [r.getMessage() for r in caplog.records if r.name == "drobox.sdp"][-1]
    assert summary.startswith("exit=stopped status=stopped iters=%d " % at), summary


def test_a_stop_that_never_holds_changes_no_bit_of_the_solve():
    calls = []
    plain = solve_sdp(stop_program())
    ruled = solve_sdp(stop_program(), stop=lambda values: calls.append(1) or False)
    assert (ruled.status, ruled.exit_reason) == ("optimal", "converged")
    assert ruled.primal == plain.primal and ruled.objective == plain.objective
    assert ruled.primal["a"] == pytest.approx(1.0, abs=1e-6)
    assert np.array_equal(ruled.row_duals, plain.row_duals)
    # every iterate but the converged one, which ends the solve before stop
    assert len(calls) == plain.iterations - 1 == ruled.iterations - 1


def test_summary_residuals_cost_nothing_with_logging_off(monkeypatch, caplog):
    calls = []
    original = sdp._residuals
    monkeypatch.setattr(sdp, "_residuals", lambda *a: calls.append(1) or original(*a))
    with caplog.at_level(logging.INFO, logger="drobox.sdp"):
        quiet = solve_sdp(lmi_correlation_program())
    assert len(calls) == quiet.iterations
    with caplog.at_level(logging.DEBUG, logger="drobox.sdp"):
        solve_sdp(lmi_correlation_program())
    assert len(calls) == 2 * quiet.iterations + 1


def normal_factor_case(m, n_sparse, n_dense, psd_dims, rng, dense_only_row=None):
    """A random standard-form matrix and its cone.

    Sparse nonnegative columns touch one to three rows (never
    dense_only_row), dense ones touch every row, PSD columns are full.
    """
    cols = []
    for _ in range(n_sparse):
        rows = [r for r in range(m) if r != dense_only_row]
        pick = rng.choice(rows, size=int(rng.integers(1, 4)), replace=False)
        col = np.zeros(m)
        col[pick] = rng.normal(size=pick.size)
        cols.append(col)
    cols += [rng.normal(size=m) for _ in range(n_dense)]
    cols += [rng.normal(size=m) for d in psd_dims for _ in range(svec_len(d))]
    return np.column_stack(cols), _Cone(n_sparse + n_dense, list(psd_dims))


def assert_solves_normal_equations(A, cone, rng):
    """Factor A D A^T for a random scaling D and check it against numpy."""
    d_l = rng.uniform(0.5, 2.0, size=cone.l)
    W = scipy.linalg.block_diag(*[rng.normal(size=(n, n)) + 3.0 * np.eye(n)
                                  for n in map(svec_len, cone.dims)])
    D = scipy.linalg.block_diag(np.diag(d_l), W @ W.T)
    M = A @ D @ A.T
    fact = _NormalFactor(A, cone)
    fact.factor(d_l, W)
    for _ in range(3):
        rhs = rng.normal(size=M.shape[0])
        ref = np.linalg.solve(M, rhs)
        assert np.linalg.norm(fact.solve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_normal_factor_matches_dense_solve(seed):
    rng = np.random.default_rng(seed)
    assert_solves_normal_equations(*normal_factor_case(120, 400, 3, (2, 3), rng), rng)


def test_normal_factor_handles_rows_only_dense_columns_touch():
    # an == row touched only by dense columns
    rng = np.random.default_rng(4)
    A, cone = normal_factor_case(60, 200, 2, (2, 2), rng, dense_only_row=7)
    assert_solves_normal_equations(A, cone, rng)


def test_normal_factor_solves_a_wide_short_program():
    # the certify measure shape: 10 rows, thousands of columns touching
    # all of them, small PSD slack blocks
    rng = np.random.default_rng(5)
    A = rng.normal(size=(10, 3000 + 9))
    assert_solves_normal_equations(A, _Cone(3000, [3, 2]), rng)


def test_normal_factor_solves_more_full_columns_than_rows():
    # 40 full columns on 30 rows beside a sparse part whose own product
    # is far from half full
    rng = np.random.default_rng(8)
    A, cone = normal_factor_case(30, 60, 40, (2,), rng)
    sparse_part = A[:, :60] != 0
    assert np.count_nonzero(sparse_part.astype(int) @ sparse_part.T) < 30 * 30 / 2
    assert_solves_normal_equations(A, cone, rng)


def test_normal_factor_solves_a_measure_program_with_a_confidence_box():
    # the compiled measure program: one confidence box adds an 11th row,
    # and at least 1,000 atom columns have more than 10 nonzeros
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0, 0.0], sigma=[[2.0, 0.5], [0.5, 1.0]], eps_mu=0.1,
        eps_sigma=1.0, b=0.1,
        extra_sets=(ConfidenceSet(BoxRegion([0.0, 0.0], [0.5, 0.5]), 0.2),))
    pts = lattice_points(1.0, 2, 0.0125).points
    vals = BoxRegion([0.1, 0.1], [0.6, 0.6]).contains(pts).astype(float)
    comp = _compile(Pricer(spec, pts, vals).master(np.arange(len(pts))))
    cone = _Cone(comp.n_nonneg, comp.psd_dims)
    assert comp.A.shape[0] == 11
    assert np.sum(np.count_nonzero(comp.A[:, : cone.l], axis=0) > 10) >= 1000
    rng = np.random.default_rng(6)
    assert_solves_normal_equations(comp.A, cone, rng)


def test_normal_factor_shifts_a_short_program_with_a_repeated_row():
    # rows 0 and 1 repeat; with integer data M is exact, its second
    # Cholesky pivot is 4 - 2^2 = 0, and the shifted retry must succeed
    # without a warning
    rng = np.random.default_rng(7)
    dense = rng.integers(-1, 2, size=(6, 40 + 3)).astype(float)
    dense[:2] = 0.0
    dense[:2, :4] = 1.0
    cone = _Cone(40, [2])
    fact = _NormalFactor(dense, cone)
    d_l, W = np.ones(cone.l), 2.0 * np.eye(3)
    M = dense[:, :40] @ dense[:, :40].T + 4.0 * dense[:, 40:] @ dense[:, 40:].T
    assert scipy.linalg.lapack.dpotrf(M)[1] == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fact.factor(d_l, W)
        rhs = M @ rng.normal(size=6)
        z = fact.solve(rhs)
    assert np.linalg.norm(M @ z - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_normal_factor_inverts_a_tall_triangle_exactly_upper():
    # 150 rows, well past any measure master: the inverse stays upper triangular
    rng = np.random.default_rng(9)
    A = rng.normal(size=(150, 200 + 6))
    cone = _Cone(200, [3])
    fact = _NormalFactor(A, cone)
    fact.factor(rng.uniform(0.5, 2.0, size=200), rng.normal(size=(6, 6)) + 3.0 * np.eye(6))
    U = np.linalg.cholesky(fact.M, upper=True)
    assert np.all(np.tril(fact.U_inv, -1) == 0.0)
    assert np.max(np.abs(fact.U_inv @ U - np.eye(150))) <= 1e-12


def test_normal_factor_shifts_once_then_gives_up(monkeypatch):
    # a repeated row: the second pivot of M is exactly 4 - 2^2 = 0, so the
    # plain factor fails and the shifted one succeeds
    A = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    cone = _Cone(3, [])
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda M, **kw: calls.append(M) or cholesky(M, **kw))
    fact = _NormalFactor(A, cone)
    fact.factor(np.ones(3), np.zeros((0, 0)))
    assert len(calls) == 2
    shift = calls[1] - calls[0]
    assert shift[0, 0] > 0.0 and np.all(shift == shift[0, 0] * np.eye(3))
    # an indefinite M stays indefinite after the tiny shift
    calls.clear()
    with pytest.raises(RuntimeError, match="singular"):
        fact.factor(np.array([-1.0, 1.0, 1.0]), np.zeros((0, 0)))
    assert len(calls) == 2
    with pytest.raises(RuntimeError, match="not finite"):
        fact.factor(np.array([1.0, np.nan, 1.0]), np.zeros((0, 0)))


def test_fixed_demo_at_fine_step_reaches_reference_objective():
    config = Path(cli.__file__).with_name("configs") / "fixed_two_boxes.json"
    spec, fn = cli.build_instance(cli.load_config(str(config)))
    lattice = lattice_points(spec.edge, spec.m, 0.02)
    margin = safety_margin(lipschitz_certificate(spec, fn).L, lattice.delta, spec.m)
    model = assemble_case1(spec, fn, lattice, margin)
    sol = solve_sdp(model.program)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.2793752712, abs=1e-6)


def test_redundant_equality_rows_still_solve():
    # a repeated == row makes A D A^T exactly singular
    p = ConicProgram()
    p.add_scalar("x", nonneg=True)
    p.add_scalar("y", nonneg=True)
    p.add_row({"x": 1.0, "y": 1.0}, "==", 1.0)
    p.add_row({"x": 1.0, "y": 1.0}, "==", 1.0)
    p.set_objective("min", {"x": 1.0, "y": 2.0})
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert sol.primal["x"] == pytest.approx(1.0, abs=1e-6)


def random_interior_point(cone, rng):
    """A point well inside the cone and a direction, both svec-packed."""
    point = np.empty(cone.n)
    point[: cone.l] = rng.uniform(0.1, 2.0, size=cone.l)
    for a, b, d in cone.spans:
        raw = rng.normal(size=(d, d))
        point[a:b] = svec(raw @ raw.T + 0.1 * np.eye(d))
    return point, rng.normal(size=cone.n)


def reference_step(cone, point, direction):
    """min over blocks of -1 / lambda_min(X^-1/2 dX X^-1/2), by scipy."""
    alpha = math.inf
    neg = direction[: cone.l] < 0
    if np.any(neg):
        alpha = float(np.min(-point[: cone.l][neg] / direction[: cone.l][neg]))
    for a, b, d in cone.spans:
        w, v = scipy.linalg.eigh(smat(point[a:b], d))
        root_inv = (v * w ** -0.5) @ v.T
        low = scipy.linalg.eigh(root_inv @ smat(direction[a:b], d) @ root_inv,
                                eigvals_only=True)[0]
        if low < 0:
            alpha = min(alpha, -1.0 / low)
    return alpha


@pytest.mark.parametrize("seed", range(8))
def test_scaled_step_lengths_match_the_unscaled_reference(seed):
    rng = np.random.default_rng(seed)
    cone = _Cone(5, [1, 2, 3, 4])
    x, dx = random_interior_point(cone, rng)
    s, ds = random_interior_point(cone, rng)
    nt = _nt_scaling(cone, x, s)
    alpha_x, alpha_s, _ = _step_lengths(cone, nt, x, s, dx, ds)
    assert alpha_x == pytest.approx(reference_step(cone, x, dx), rel=1e-10)
    assert alpha_s == pytest.approx(reference_step(cone, s, ds), rel=1e-10)
    # a direction that stays inside the cone on every block never stops
    alpha_x, alpha_s, _ = _step_lengths(cone, nt, x, s, x, np.abs(x))
    assert (alpha_x, alpha_s) == (math.inf, math.inf)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sym_kron_of_the_root_squares_to_the_nt_map(dim):
    # the PSD blocks of orders 1 to 4 share one padded stack; the block of
    # order dim of the block-diagonal root W satisfies
    # W W^T svec(S) = svec(T S T) for the NT matrix T = G^2, which maps the
    # point's S to its X
    rng = np.random.default_rng(dim)
    block = dim - 1
    cone = _Cone(2, [1, 2, 3, 4])
    x, _ = random_interior_point(cone, rng)
    s, _ = random_interior_point(cone, rng)
    nt = _nt_scaling(cone, x, s)
    a, b, d = cone.spans[block]
    G = nt.G[block, :d, :d]
    T = G @ G
    X, S = smat(x[a:b], d), smat(s[a:b], d)
    np.testing.assert_allclose(T @ S @ T, X, atol=1e-9 * np.max(np.abs(X)))
    # the padding is decoupled exactly, and W is zero off its blocks
    assert np.all(nt.G[block, :d, d:] == 0.0)
    np.testing.assert_array_equal(nt.G[block, d:, d:], np.eye(4 - d))
    W = nt.W[a - cone.l : b - cone.l]
    assert np.all(np.delete(W, np.s_[a - cone.l : b - cone.l], axis=1) == 0.0)
    W = W[:, a - cone.l : b - cone.l]
    raw = rng.normal(size=(d, d))
    S = raw + raw.T
    np.testing.assert_allclose(W, W.T, atol=1e-14)
    np.testing.assert_allclose(W @ (W.T @ svec(S)), svec(T @ S @ T), atol=1e-11)


def eigenvalue_program(dims, scales, order):
    """min sum_j <C_j, X_j> s.t. tr X_j = 1 per block and one inactive row
    coupling all blocks: the optimum is sum_j lambda_min(C_j), with row
    duals lambda_min(C_j) and 0.  C_j has entries of size scales[j]; the
    blocks are declared in the given order."""
    rng = np.random.default_rng(0)
    Cs = [scale * (raw + raw.T) for raw, scale in
          zip((rng.normal(size=(d, d)) for d in dims), scales)]
    p = ConicProgram()
    for j in order:
        p.add_psd("X%d" % j, dims[j])
    for j, d in enumerate(dims):
        p.add_row({}, "==", 1.0, mats={"X%d" % j: np.eye(d)})
    p.add_row({}, "<=", 10.0, mats={"X%d" % j: (1.0 + j) * np.eye(d) for j, d in enumerate(dims)})
    p.set_objective("min", mats={"X%d" % j: C for j, C in enumerate(Cs)})
    return p, np.array([np.linalg.eigvalsh(C)[0] for C in Cs] + [0.0])


def test_block_order_does_not_change_the_solution():
    # orders 1, 2 and 4 pad the first two blocks; entries of 1e-4 to 1e2
    dims, scales = (1, 2, 4), (1e-4, 1.0, 1e2)
    first, duals = eigenvalue_program(dims, scales, (0, 1, 2))
    second, _ = eigenvalue_program(dims, scales, (2, 0, 1))
    a, b = solve_sdp(first), solve_sdp(second)
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, rel=1e-7)
    np.testing.assert_allclose(a.row_duals, b.row_duals, rtol=0.0, atol=1e-7)
    assert a.objective == pytest.approx(float(np.sum(duals)), rel=1e-7)
    np.testing.assert_allclose(a.row_duals, duals, rtol=0.0, atol=1e-6)
    for name in first.psd_vars:
        np.testing.assert_allclose(a.primal[name], b.primal[name], rtol=0.0, atol=1e-6)


def test_iterations_make_the_same_eigen_calls_for_any_number_of_blocks(monkeypatch):
    # the PSD blocks share one stack, so a scaled iteration makes a fixed
    # number of eigh and eigvalsh calls, however many blocks the cone has
    calls = {"eigh": 0, "eigvalsh": 0, "scaled": 0}

    def counting(name, fn):
        return lambda *args, **kw: calls.__setitem__(name, calls[name] + 1) or fn(*args, **kw)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(sdp, "_nt_scaling", counting("scaled", sdp._nt_scaling))
    per_iteration = []
    for dims in ((2, 3), (1, 2, 3, 4)):
        program, _ = eigenvalue_program(dims, (1.0,) * len(dims), range(len(dims)))
        for key in calls:
            calls[key] = 0
        assert solve_sdp(program).status == "optimal"
        assert calls["scaled"] > 0
        scaled = calls["scaled"]
        per_iteration.append((calls["eigh"] / scaled, calls["eigvalsh"] / scaled))
    assert per_iteration[0] == per_iteration[1]
