from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
import scipy.sparse as sp

from drobox import cli
from drobox.assemble import assemble_case1
from drobox.certify import _measure_program
from drobox.lipschitz import lipschitz_certificate
from drobox.model import AmbiguitySpec, BoxRegion, ConfidenceSet, lattice_points
from drobox.sdp import (
    ConicProgram,
    SolveOptions,
    _Cone,
    _NormalFactor,
    _compile,
    _sym_kron,
    dump_program,
    kkt_residuals,
    smat,
    solve_sdp,
    svec,
    svec_len,
)
from oracles import diagonal_sdp_batch, dual_pair_sdp_batch, eigmin_sdp_batch


def lmi_correlation_program():
    # max t with [[1, t], [t, 1]] psd; the matrix is psd exactly for |t| <= 1
    p = ConicProgram()
    p.add_scalar("t")
    p.add_lmi({"t": np.array([[0.0, 1.0], [1.0, 0.0]])}, np.eye(2))
    p.set_objective("max", {"t": 1.0})
    return p


def test_offdiagonal_entry_maximization():
    sol = solve_sdp(lmi_correlation_program())
    assert sol.status == "optimal"
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
    assert fixed.binary_vars == []
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
    assert p.binary_vars == ["u", "v"]


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
            assert sol.kkt.max_violation <= 1e-7


def test_spectraplex_minimum_is_smallest_eigenvalue():
    for p, ref in eigmin_sdp_batch(30, seed=92):
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref, abs=1e-6, rel=1e-6)
        assert sol.kkt.max_violation <= 1e-7


def test_lmi_and_matrix_forms_agree_by_strong_duality():
    for lmi_form, matrix_form in dual_pair_sdp_batch(30, seed=93):
        a = solve_sdp(lmi_form)
        b = solve_sdp(matrix_form)
        assert a.status == "optimal"
        assert b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, abs=2e-6, rel=2e-6)
        assert a.kkt.max_violation <= 1e-7
        assert b.kkt.max_violation <= 1e-7


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


def test_dump_program_is_stable_and_readable():
    p = lmi_correlation_program()
    text = dump_program(p)
    assert "var t free" in text
    assert "objective max offset 0" in text
    assert "lmi 0 2" in text
    assert text == dump_program(p)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_svec_preserves_inner_products(dim, seed):
    rng = np.random.default_rng(seed)
    raw_a = rng.normal(size=(dim, dim))
    raw_b = rng.normal(size=(dim, dim))
    a = (raw_a + raw_a.T) / 2.0
    b = (raw_b + raw_b.T) / 2.0
    assert float(svec(a) @ svec(b)) == pytest.approx(float(np.sum(a * b)), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(smat(svec(a), dim), a, atol=1e-14)


def test_iteration_cap_yields_numerical_failure_not_exception():
    p = lmi_correlation_program()
    sol = solve_sdp(p, SolveOptions(max_iter=1))
    assert sol.status == "numerical-failure"
    assert np.isnan(sol.objective)


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
    return sp.csr_matrix(np.column_stack(cols)), _Cone(n_sparse + n_dense, list(psd_dims))


def assert_solves_normal_equations(A, cone, rng):
    """Factor A D A^T for a random scaling D and check it against numpy."""
    d_l = rng.uniform(0.5, 2.0, size=cone.l)
    roots = [rng.normal(size=(n, n)) + 3.0 * np.eye(n)
             for n in map(svec_len, cone.dims)]
    D = scipy.linalg.block_diag(np.diag(d_l), *[W @ W.T for W in roots])
    M = A.toarray() @ D @ A.toarray().T
    fact = _NormalFactor(A, cone)
    fact.factor(d_l, roots)
    for _ in range(3):
        rhs = rng.normal(size=M.shape[0])
        ref = np.linalg.solve(M, rhs)
        assert np.linalg.norm(fact.solve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref)
    return fact


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_normal_factor_matches_dense_solve(seed):
    rng = np.random.default_rng(seed)
    fact = assert_solves_normal_equations(*normal_factor_case(120, 400, 3, (2, 3), rng), rng)
    assert int(np.sum(fact.dense)) == 3
    assert fact.V.shape == (120, 3 + 3 + 6)


def test_normal_factor_handles_rows_only_dense_columns_touch():
    # an == row touched only by dense columns leaves S singular
    rng = np.random.default_rng(4)
    A, cone = normal_factor_case(60, 200, 2, (2, 2), rng, dense_only_row=7)
    fact = assert_solves_normal_equations(A, cone, rng)
    assert np.any(np.diff(fact.S.tocsr().indptr) == 0)
    assert np.linalg.matrix_rank(fact.S.toarray()) < 60


def test_normal_factor_on_a_wide_short_program_splits_nothing():
    # the certify measure shape: 10 rows, thousands of columns touching
    # all of them, small PSD slack blocks
    rng = np.random.default_rng(5)
    A = sp.csr_matrix(rng.normal(size=(10, 3000 + 9)))
    fact = assert_solves_normal_equations(A, _Cone(3000, [3, 2]), rng)
    assert not np.any(fact.dense)
    assert fact.S.shape == (10, 10)


def test_normal_factor_keeps_the_border_narrow_on_a_measure_program():
    # one confidence box adds an 11th row, so every in-box atom off the
    # axes has more than max(10, 11 // 10) nonzeros; splitting them all
    # off would border S with a block of about 1,600 x 1,600
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0, 0.0], sigma=[[2.0, 0.5], [0.5, 1.0]], eps_mu=0.1,
        eps_sigma=1.0, b=0.1,
        extra_sets=(ConfidenceSet(BoxRegion([0.0, 0.0], [0.5, 0.5]), 0.2),))
    pts = lattice_points(1.0, 2, 0.0125).points
    vals = BoxRegion([0.1, 0.1], [0.6, 0.6]).contains(pts).astype(float)
    comp = _compile(_measure_program(spec, pts, vals, np.ones(len(pts), bool)))
    cone = _Cone(comp.n_nonneg, comp.psd_dims)
    assert comp.A.shape[0] == 11
    assert np.sum(np.diff(comp.A[:, : cone.l].tocsc().indptr) > 10) >= 1000
    rng = np.random.default_rng(6)
    fact = assert_solves_normal_equations(comp.A, cone, rng)
    assert not np.any(fact.dense)
    assert fact.V.shape == (11, cone.n - cone.l)


def test_fixed_demo_at_fine_step_reaches_reference_objective():
    config = Path(cli.__file__).with_name("configs") / "fixed_two_boxes.json"
    spec, fn = cli.build_instance(cli.load_config(str(config)))
    lattice = lattice_points(spec.edge, spec.m, 0.02)
    model = assemble_case1(spec, fn, lattice, lipschitz_certificate(spec, fn).L)
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


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sym_kron_of_the_root_squares_to_the_nt_map(dim):
    rng = np.random.default_rng(dim)
    raw = rng.normal(size=(dim, dim))
    T = raw @ raw.T + np.eye(dim)
    w, v = np.linalg.eigh(T)
    W = _sym_kron((v * np.sqrt(w)) @ v.T)
    raw = rng.normal(size=(dim, dim))
    S = raw + raw.T
    np.testing.assert_allclose(W, W.T, atol=1e-14)
    np.testing.assert_allclose(W @ (W @ svec(S)), svec(T @ S @ T), atol=1e-11)
