import itertools
import math

import numpy as np
import pytest

from drobox.assemble import (
    assemble_case1,
    assemble_case2,
)
from drobox.lipschitz import lipschitz_certificate, safety_margin
from drobox.model import (
    AmbiguitySpec,
    BoxRegion,
    ConfidenceSet,
    FixedBoxes,
    LinearConstraint,
    SimpleFunctionSpec,
    VariableBoxes,
    lattice_points,
)
from drobox.sdp import solve_sdp
from encoding_tools import (
    binary_rows_ok,
    canonical_assignment,
    corner_feasible,
    decode_box,
    evaluate_rows,
    fallback_values,
    zero_duals,
)
from oracles import dual_integrand, first_moment_block, second_moment_outer


@pytest.fixture
def ref_L(ref_spec, ref_fn):
    return lipschitz_certificate(ref_spec, ref_fn).L


@pytest.fixture
def ref_margin(ref_spec, ref_lattice, ref_L):
    return safety_margin(ref_L, ref_lattice.delta, ref_spec.m)


@pytest.fixture
def ref_model2(ref_spec, ref_fn, ref_lattice, ref_margin):
    return assemble_case2(ref_spec, ref_fn, ref_lattice, ref_margin)


@pytest.fixture
def fixed_fn():
    box = BoxRegion([0.0, 0.0], [1.0, 1.0])
    return SimpleFunctionSpec(k=1, heights=[1.0], mode=FixedBoxes((box,)))


@pytest.fixture
def line_spec():
    """1-D instance on [0, 0.2] used for the 3-point encoding example."""
    return AmbiguitySpec.with_normalization(
        edge=0.2, mu=[0.1], sigma=[[1.0]], eps_mu=0.05, eps_sigma=1.0, b=0.1
    )


def name_counts(program):
    out = {}
    for row in program.rows:
        key = row.name.split("[")[0]
        out[key] = out.get(key, 0) + 1
    return out


def lattice_rhs(program):
    """The set of right-hand sides of the sampled lattice rows."""
    return {row.rhs for row in program.rows if row.name.startswith("lattice")}


# ---------------------------------------------------------------------------
# fixed mode


def test_case1_row_counts(ref_spec, fixed_fn, ref_lattice, ref_margin):
    model = assemble_case1(ref_spec, fixed_fn, ref_lattice, ref_margin)
    counts = name_counts(model.program)
    assert counts == {"threshold": 1, "lattice": 121, "pin": 1}
    assert list(model.program.binary_vars) == []
    assert model.case == "fixed"
    assert lattice_rhs(model.program) == {ref_margin}


def _row_specs():
    """The specs of the lattice-row checks: the reference (normalization pair
    only), confidence boxes at eps > 0, eps < 0 and eps = -1, and 3-D."""
    sigma2 = [[2.0, 0.5], [0.5, 1.0]]
    return {
        "reference": AmbiguitySpec.with_normalization(1.0, [0.0, 0.0], sigma2, 0.1, 1.0, 0.1),
        "confidence": AmbiguitySpec.with_normalization(1.0, [0.2, 0.3], sigma2, 0.1, 1.2, 0.1, [
            ConfidenceSet(BoxRegion([0.0, 0.0], [0.5, 0.5]), 0.3),
            ConfidenceSet(BoxRegion([0.5, 0.5], [1.0, 1.0]), -0.2),
            ConfidenceSet(BoxRegion([0.5, 0.0], [1.0, 0.5]), -1.0),
        ]),
        "3-D": AmbiguitySpec.with_normalization(
            1.0, [0.1, 0.2, 0.3], np.eye(3) + 0.2 * np.ones((3, 3)), 0.1, 1.0, 0.1, [
                ConfidenceSet(BoxRegion([0.0] * 3, [0.5] * 3), 0.3),
                ConfidenceSet(BoxRegion([0.5] * 3, [1.0] * 3), -0.2),
            ]),
    }


@pytest.mark.parametrize("program", ["case1-all", "case1-atoms", "case2"])
@pytest.mark.parametrize("name", ["reference", "confidence", "3-D"])
def test_every_lattice_row_matches_the_oracles(name, program):
    # each sampled row reads
    # sum_i c_i x_i - sum_i sgn(eps_i) 1[t in C_i] y_i - <F1(t), Y1>
    #   + <(t - mu)(t - mu)^T, Y2> >= margin
    # with c_i = 1[t in B_i] for fixed boxes and c_i = heights[i] on bt[i, f]
    spec = _row_specs()[name]
    m = spec.m
    lattice = lattice_points(1.0, m, 0.1 if m == 2 else 0.25)
    boxes = (BoxRegion([0.0] * m, [0.5] * m), BoxRegion([0.5] + [0.0] * (m - 1), [1.0] * m))
    heights = [1.0, 0.5]
    atoms = np.arange(lattice.n_points)
    if program == "case2":
        fn = SimpleFunctionSpec(k=2, heights=heights, mode=VariableBoxes())
        model = assemble_case2(spec, fn, lattice, 0.05)
    else:
        fn = SimpleFunctionSpec(k=2, heights=heights, mode=FixedBoxes(boxes))
        if program == "case1-atoms":
            atoms = np.array([0, 3, 7, lattice.n_points - 1])
        model = assemble_case1(spec, fn, lattice, 0.05,
                               atoms=atoms if program == "case1-atoms" else None)
    rows = [r for r in model.program.rows if r.name.startswith("lattice")]
    assert [r.name for r in rows] == ["lattice[%d]" % f for f in atoms]
    for f, row in zip(atoms, rows):
        t = lattice.points[f]
        want = {}
        for i, cs in enumerate(spec.confidence_sets):
            signed = math.copysign(1.0, cs.eps) * float(cs.region.contains(t))
            if signed:
                want["y[%d]" % i] = -signed
        for i, (h, box) in enumerate(zip(heights, boxes)):
            if program == "case2":
                want["bt[%d,%d]" % (i, f)] = h
            elif box.contains(t):
                want["x[%d]" % i] = 1.0
        assert row.sense == ">=" and row.rhs == 0.05
        assert row.lin == want, (f, row.lin, want)
        assert list(row.mats) == ["Y1", "Y2"]
        np.testing.assert_array_equal(row.mats["Y1"], -first_moment_block(t, spec))
        np.testing.assert_array_equal(row.mats["Y2"], second_moment_outer(t, spec))


def test_jump_and_line_rows_step_along_each_axis():
    # on a 3 x 3 x 3 lattice: jump[i, j, f] ties bt at f to bt one step up
    # axis j (none on the upper face), and the lines along axis j come in
    # row-major order of the other coordinates, each by increasing t_j
    spec = _row_specs()["3-D"]
    lattice = lattice_points(1.0, 3, 0.5)
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())
    rows = {r.name: r for r in assemble_case2(spec, fn, lattice, 0.05).program.rows}
    for j in range(3):
        for f, multi in enumerate(itertools.product(range(3), repeat=3)):
            want = {"bt[0,%d]" % f: -1.0, "dm[0,%d,%d]" % (j, f): -1.0,
                    "dp[0,%d,%d]" % (j, f): 1.0}
            if multi[j] < 2:
                up = list(multi)
                up[j] += 1
                want["bt[0,%d]" % np.ravel_multi_index(up, lattice.shape)] = 1.0
            assert rows["jump[0,%d,%d]" % (j, f)].lin == want
        for nline, base in enumerate(itertools.product(range(3), repeat=2)):
            line = [np.ravel_multi_index(base[:j] + (a,) + base[j:], lattice.shape)
                    for a in range(3)]
            budget = ["dm[0,%d,%d]" % (j, f) for f in line] + ["dp[0,%d,%d]" % (j, f) for f in line]
            assert list(rows["budget[0,%d,%d]" % (j, nline)].lin) == budget
            lo = rows["xlo[0,%d,%d]" % (j, nline)].lin
            assert lo == {"xm[0,%d]" % j: 1.0,
                          **{"dm[0,%d,%d]" % (j, f): -(0.5 * a + 0.5) for a, f in enumerate(line)}}


def test_case1_partial_box_indicator(ref_spec, ref_lattice, ref_margin):
    box = BoxRegion([0.3, 0.3], [0.5, 0.5])
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=FixedBoxes((box,)))
    model = assemble_case1(ref_spec, fn, ref_lattice, ref_margin)
    hits = sum(
        1 for r in model.program.rows if r.name.startswith("lattice") and "x[0]" in r.lin
    )
    assert hits == 9  # 3 x 3 lattice points inside [0.3, 0.5]^2


def test_case1_misaligned_box_rejected(ref_spec, ref_lattice, ref_margin):
    fn = SimpleFunctionSpec(
        k=1, heights=[1.0], mode=FixedBoxes((BoxRegion([0.05, 0.0], [1.0, 1.0]),))
    )
    with pytest.raises(ValueError):
        assemble_case1(ref_spec, fn, ref_lattice, ref_margin)


def test_case1_empty_box_list_rejected(ref_spec, ref_lattice, ref_margin):
    fn = SimpleFunctionSpec(k=0, heights=[], mode=FixedBoxes(()))
    with pytest.raises(ValueError):
        assemble_case1(ref_spec, fn, ref_lattice, ref_margin)


def test_case1_requires_fixed_mode(ref_spec, ref_fn, ref_lattice, ref_margin):
    with pytest.raises(TypeError):
        assemble_case1(ref_spec, ref_fn, ref_lattice, ref_margin)


def test_case1_height_polytope(ref_spec, ref_lattice, ref_margin):
    """Non-pinned mode keeps heights free inside the user polytope."""
    box = BoxRegion([0.0, 0.0], [1.0, 1.0])
    mode = FixedBoxes(
        (box,),
        objective=np.array([1.0]),
        constraints=(LinearConstraint(np.array([1.0]), ">=", 0.5),),
    )
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=mode)
    model = assemble_case1(ref_spec, fn, ref_lattice, ref_margin)
    counts = name_counts(model.program)
    assert counts == {"threshold": 1, "lattice": 121, "user": 1}
    assert model.program.obj_sense == "min"
    assert model.program.obj_lin == {"x[0]": 1.0}


def test_case1_pinned_reference_is_feasible(ref_spec, fixed_fn, ref_lattice, ref_margin):
    model = assemble_case1(ref_spec, fixed_fn, ref_lattice, ref_margin)
    sol = solve_sdp(model.program)
    assert sol.status == "optimal"


def test_case1_solution_yields_nonnegative_smoothed_function(
    ref_spec, fixed_fn, ref_lattice, ref_margin
):
    """Any feasible point of the assembled SDP certifies f^c >= 0 on T."""
    model = assemble_case1(ref_spec, fixed_fn, ref_lattice, ref_margin)
    sol = solve_sdp(model.program)
    assert sol.status == "optimal"
    y = np.array([sol.value("y[%d]" % i) for i in range(2)])
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 1.0, size=(10_000, 2))
    vals = dual_integrand(
        t,
        [1.0],
        [fixed_fn.mode.boxes[0]],
        sol.value("Y1"),
        sol.value("Y2"),
        y,
        ref_spec,
        smoothed=True,
        delta=ref_lattice.delta,
    )
    assert float(vals.min()) >= -1e-9


# ---------------------------------------------------------------------------
# variable mode: counts and row content


def test_case2_counts(ref_model2):
    program = ref_model2.program
    assert len(program.binary_vars) == 121 + 484
    bt = [v for v in program.binary_vars if v.startswith("bt")]
    dm = [v for v in program.binary_vars if v.startswith("dm")]
    dp = [v for v in program.binary_vars if v.startswith("dp")]
    assert (len(bt), len(dm), len(dp)) == (121, 242, 242)
    counts = name_counts(program)
    assert counts == {
        "threshold": 1,
        "lattice": 121,
        "jump": 242,
        "budget": 22,
        "xlo": 22,
        "xhi": 22,
        "wlow": 22,
        "wline": 22,
        "xmax": 2,
        "wnn": 2,
        "zlo": 2,
        "zhi": 2,
    }
    assert program.n_rows == 482


def test_case2_lattice_row_uses_heights(ref_spec, ref_lattice, ref_margin):
    fn = SimpleFunctionSpec(k=1, heights=[0.7], mode=VariableBoxes())
    model = assemble_case2(ref_spec, fn, ref_lattice, ref_margin)
    row = next(r for r in model.program.rows if r.name == "lattice[5]")
    assert row.lin["bt[0,5]"] == pytest.approx(0.7)


def test_case2_requires_variable_mode(ref_spec, fixed_fn, ref_lattice, ref_margin):
    with pytest.raises(TypeError):
        assemble_case2(ref_spec, fixed_fn, ref_lattice, ref_margin)


def test_case2_rejects_nonpositive_heights(ref_spec, ref_lattice, ref_margin):
    fn = SimpleFunctionSpec(k=2, heights=[1.0, 0.0], mode=VariableBoxes())
    with pytest.raises(ValueError):
        assemble_case2(ref_spec, fn, ref_lattice, ref_margin)


def test_case2_margin_positive_and_override(ref_spec, ref_fn, ref_lattice, ref_L,
                                            ref_margin):
    assert ref_margin == pytest.approx(ref_L * 0.1 * np.sqrt(2.0))
    assert ref_margin > 0.0
    for margin in (ref_margin, 0.0):
        model = assemble_case2(ref_spec, ref_fn, ref_lattice, margin)
        assert lattice_rhs(model.program) == {margin}


def test_case2_explicit_corner_objective(ref_spec, ref_lattice, ref_margin):
    mode = VariableBoxes(
        c_minus=np.array([[1.0, 0.0]]), c_plus=np.array([[0.0, 1.0]]), sense="max"
    )
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=mode)
    model = assemble_case2(ref_spec, fn, ref_lattice, ref_margin)
    assert model.program.obj_sense == "max"
    assert ("z", 0, 0) not in model.var_index
    counts = name_counts(model.program)
    assert "zlo" not in counts and "zhi" not in counts
    assert model.program.n_rows == 478


def test_case2_user_constraint_row(ref_spec, ref_lattice, ref_margin):
    # coefficient layout: x- entries row-major, then x+ entries row-major
    con = LinearConstraint(np.array([1.0, 0.0, 0.0, 2.0]), "<=", 0.8)
    fn = SimpleFunctionSpec(
        k=1, heights=[1.0], mode=VariableBoxes(constraints=(con,))
    )
    model = assemble_case2(ref_spec, fn, ref_lattice, ref_margin)
    row = next(r for r in model.program.rows if r.name == "user[0]")
    assert row.lin == {"xm[0,0]": 1.0, "xp[0,1]": 2.0}
    assert row.sense == "<=" and row.rhs == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# variable mode: encoding semantics


def test_canonical_assignment_inner_box(ref_model2):
    box = BoxRegion([0.3, 0.3], [0.5, 0.5])
    vals = canonical_assignment([box], ref_model2)
    lattice = ref_model2.lattice
    on = [f for f in range(lattice.n_points) if vals["bt[0,%d]" % f] == 1.0]
    assert len(on) == 9
    dm_on = [
        (j, tuple(lattice.points[f]))
        for j in range(2)
        for f in range(lattice.n_points)
        if vals["dm[0,%d,%d]" % (j, f)] == 1.0
    ]
    dp_on = [
        (j, tuple(lattice.points[f]))
        for j in range(2)
        for f in range(lattice.n_points)
        if vals["dp[0,%d,%d]" % (j, f)] == 1.0
    ]
    # one up-jump per grid line through the box, one step below the lower
    # edge; one down-jump on the upper edge itself
    dm_expected = [
        (0, (0.2, 0.3)),
        (0, (0.2, 0.4)),
        (0, (0.2, 0.5)),
        (1, (0.3, 0.2)),
        (1, (0.4, 0.2)),
        (1, (0.5, 0.2)),
    ]
    dp_expected = [
        (0, (0.5, 0.3)),
        (0, (0.5, 0.4)),
        (0, (0.5, 0.5)),
        (1, (0.3, 0.5)),
        (1, (0.4, 0.5)),
        (1, (0.5, 0.5)),
    ]
    for got, want in ((dm_on, dm_expected), (dp_on, dp_expected)):
        assert len(got) == len(want)
        for (ja, ta), (jb, tb) in zip(sorted(got), want):
            assert ja == jb
            np.testing.assert_allclose(ta, tb, atol=1e-12)


def test_canonical_assignment_satisfies_encoding_rows(ref_model2):
    box = BoxRegion([0.3, 0.3], [0.5, 0.5])
    vals = canonical_assignment([box], ref_model2)
    assert binary_rows_ok(ref_model2, vals)
    vals["xm[0,0]"] = vals["xm[0,1]"] = 0.3
    vals["xp[0,0]"] = vals["xp[0,1]"] = 0.5
    slacks = evaluate_rows(
        ref_model2.program, vals, ("xlo", "xhi", "wlow", "wline", "xmax", "wnn")
    )
    assert min(slacks.values()) >= -1e-12
    # the corner rows pin the box exactly: moving any bound inward breaks a row
    vals["xm[0,0]"] = 0.3 - 1e-6
    slacks = evaluate_rows(ref_model2.program, vals, ("xlo",))
    assert min(slacks.values()) < 0


def test_canonical_assignment_whole_domain(ref_model2):
    vals = canonical_assignment([BoxRegion([0.0, 0.0], [1.0, 1.0])], ref_model2)
    lattice = ref_model2.lattice
    assert all(vals["bt[0,%d]" % f] == 1.0 for f in range(lattice.n_points))
    assert not any(
        vals["dm[0,%d,%d]" % (j, f)]
        for j in range(2)
        for f in range(lattice.n_points)
    )
    dp_points = [
        (j, lattice.points[f][j])
        for j in range(2)
        for f in range(lattice.n_points)
        if vals["dp[0,%d,%d]" % (j, f)] == 1.0
    ]
    assert len(dp_points) == 22
    assert all(pos == 1.0 for _, pos in dp_points)
    assert binary_rows_ok(ref_model2, vals)


def test_canonical_assignment_misaligned_box(ref_model2):
    with pytest.raises(ValueError):
        canonical_assignment([BoxRegion([0.05, 0.0], [0.5, 0.5])], ref_model2)


def test_decode_roundtrip_inner_box(ref_model2):
    box = BoxRegion([0.3, 0.3], [0.5, 0.5])
    vals = canonical_assignment([box], ref_model2)
    out = decode_box(vals, ref_model2)
    assert len(out) == 1
    np.testing.assert_allclose(out[0].lower, [0.3, 0.3])
    np.testing.assert_allclose(out[0].upper, [0.5, 0.5])


def test_decode_fallback_assignment(ref_model2):
    vals = fallback_values(ref_model2)
    out = decode_box(vals, ref_model2)
    np.testing.assert_allclose(out[0].lower, [0.0, 0.0])
    np.testing.assert_allclose(out[0].upper, [1.0, 1.0])


def test_decode_empty_support_is_none(ref_model2):
    # only None is the empty box; the point box at the origin decodes as itself
    assert decode_box(canonical_assignment([None], ref_model2), ref_model2) == [None]
    origin = BoxRegion([0.0, 0.0], [0.0, 0.0])
    out = decode_box(canonical_assignment([origin], ref_model2), ref_model2)
    np.testing.assert_array_equal(out[0].lower, [0.0, 0.0])
    np.testing.assert_array_equal(out[0].upper, [0.0, 0.0])


def test_decode_non_rectangle_support_rejected(ref_model2):
    box = BoxRegion([0.3, 0.3], [0.5, 0.5])
    vals = canonical_assignment([box], ref_model2)
    middle = np.ravel_multi_index((4, 4), ref_model2.lattice.shape)  # the point (0.4, 0.4)
    vals["bt[0,%d]" % middle] = 0.0
    with pytest.raises(ValueError, match="rectangle"):
        decode_box(vals, ref_model2)


def test_decode_fractional_values_rejected(ref_model2):
    vals = canonical_assignment([BoxRegion([0.3, 0.3], [0.5, 0.5])], ref_model2)
    vals["bt[0,0]"] = 0.4
    with pytest.raises(ValueError, match="fractional"):
        decode_box(vals, ref_model2)


def test_decode_requires_variable_model(ref_spec, fixed_fn, ref_lattice, ref_margin):
    model = assemble_case1(ref_spec, fixed_fn, ref_lattice, ref_margin)
    with pytest.raises(ValueError):
        decode_box({}, model)
    with pytest.raises(ValueError):
        canonical_assignment([None], model)


def test_fallback_assignment_residual(ref_model2, ref_spec, ref_margin):
    """The whole-domain box with dual y = (0, b) clears every row by 1 - b - margin."""
    vals = fallback_values(ref_model2)
    slacks = evaluate_rows(ref_model2.program, vals)
    assert min(slacks.values()) >= -1e-12
    lattice_slacks = [v for n, v in slacks.items() if n.startswith("lattice")]
    expected = 1.0 - ref_spec.b - ref_margin
    assert expected == pytest.approx(0.0031239, abs=2e-6)
    assert min(lattice_slacks) == pytest.approx(expected, abs=1e-9)
    assert max(lattice_slacks) == pytest.approx(expected, abs=1e-9)
    assert slacks["threshold"] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the 3-point line: exhaustive check of the jump encoding


def test_line_example_brute_force(line_spec):
    """On [0, 0.2] with delta 0.1 the box [0.1, 0.2] has a unique encoding.

    Enumerates all 512 binary assignments, keeps the ones satisfying the
    jump and budget rows together with some feasible corner pair, and
    checks them against the membership pattern (0, 1, 1).
    """
    lattice = lattice_points(0.2, 1, 0.1)
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())
    model = assemble_case2(line_spec, fn, lattice, 0.0)
    names = (
        ["bt[0,%d]" % f for f in range(3)]
        + ["dm[0,0,%d]" % f for f in range(3)]
        + ["dp[0,0,%d]" % f for f in range(3)]
    )
    survivors = []
    for bits in itertools.product((0.0, 1.0), repeat=9):
        vals = dict(zip(names, bits))
        if not binary_rows_ok(model, vals):
            continue
        if not corner_feasible(model, vals):
            continue
        survivors.append(bits)
    target = [s for s in survivors if s[:3] == (0.0, 1.0, 1.0)]
    assert len(target) == 1
    # jump one step below the lower edge, drop at the upper edge
    assert target[0][3:6] == (1.0, 0.0, 0.0)
    assert target[0][6:9] == (0.0, 0.0, 1.0)
    canon = canonical_assignment([BoxRegion([0.1], [0.2])], model)
    assert tuple(canon[n] for n in names) == target[0]
    # every surviving membership pattern is a contiguous run (or empty)
    for s in survivors:
        on = [f for f in range(3) if s[f] == 1.0]
        if on:
            assert on == list(range(min(on), max(on) + 1))


def test_line_example_corner_rows_pin_bounds(line_spec):
    lattice = lattice_points(0.2, 1, 0.1)
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())
    model = assemble_case2(line_spec, fn, lattice, 0.0)
    vals = canonical_assignment([BoxRegion([0.1], [0.2])], model)
    vals["xm[0,0]"] = 0.1
    vals["xp[0,0]"] = 0.2
    slacks = evaluate_rows(
        model.program, vals, ("xlo", "xhi", "wlow", "wline", "xmax", "wnn")
    )
    assert min(slacks.values()) >= -1e-12
    assert slacks["xlo[0,0,0]"] == pytest.approx(0.0, abs=1e-12)
    assert slacks["xhi[0,0,0]"] == pytest.approx(0.0, abs=1e-12)
    vals["xm[0,0]"] = 0.0999
    assert evaluate_rows(model.program, vals, ("xlo",))["xlo[0,0,0]"] < 0
    vals["xm[0,0]"] = 0.1
    vals["xp[0,0]"] = 0.2001
    assert evaluate_rows(model.program, vals, ("xhi",))["xhi[0,0,0]"] < 0


def test_empty_box_allows_zero_width(ref_model2):
    vals = canonical_assignment([None], ref_model2)
    assert binary_rows_ok(ref_model2, vals)
    for j in range(2):
        vals["xm[0,%d]" % j] = 0.0
        vals["xp[0,%d]" % j] = 0.0
    slacks = evaluate_rows(
        ref_model2.program, vals, ("xlo", "xhi", "wlow", "wline", "xmax", "wnn")
    )
    assert min(slacks.values()) >= -1e-12


def test_dump_round_trip_stability(ref_spec, ref_fn, ref_lattice, ref_margin):
    # two builds of one instance agree field by field, in the same order
    a, b = (assemble_case2(ref_spec, ref_fn, ref_lattice, ref_margin).program
            for _ in range(2))

    def same_terms(x, y):
        assert list(x) == list(y)
        for key in x:
            np.testing.assert_array_equal(x[key], y[key])

    for field in ("scalar_vars", "psd_vars", "binary_vars"):
        assert list(getattr(a, field).items()) == list(getattr(b, field).items())
    assert [(r.name, r.sense, r.rhs) for r in a.rows] == [(r.name, r.sense, r.rhs)
                                                          for r in b.rows]
    for ra, rb in zip(a.rows, b.rows):
        same_terms(ra.lin, rb.lin)
        same_terms(ra.mats, rb.mats)
    assert [lmi.name for lmi in a.lmis] == [lmi.name for lmi in b.lmis]
    for la, lb in zip(a.lmis, b.lmis):
        same_terms(la.coeffs, lb.coeffs)
        np.testing.assert_array_equal(la.const, lb.const)
    assert (a.obj_sense, a.obj_offset) == (b.obj_sense, b.obj_offset)
    same_terms(a.obj_lin, b.obj_lin)
    same_terms(a.obj_mats, b.obj_mats)
