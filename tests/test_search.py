import itertools
import logging
import re

import numpy as np
import pytest

from drobox.assemble import assemble_case1, assemble_case2
from drobox.lipschitz import lipschitz_certificate
from drobox.certify import adversary_problem
from drobox.model import (
    AmbiguitySpec,
    BoxRegion,
    Decision,
    FixedBoxes,
    SimpleFunctionSpec,
    VariableBoxes,
    first_moment_block,
    lattice_points,
    second_moment_outer,
)
from drobox.sdp import ConicProgram, solve_sdp
from drobox.search import (
    SearchOptions,
    _box_at,
    _candidate_stream,
    _MeasurePool,
    enumerate_boxes,
    root_relaxation,
    run_search,
    solve_bnb,
)
from oracles import dual_integrand


@pytest.fixture
def ref_model(ref_spec, ref_fn, ref_lattice):
    L = lipschitz_certificate(ref_spec, ref_fn).L
    return assemble_case2(ref_spec, ref_fn, ref_lattice, L)


def line_model(k=1, heights=(1.0,), b=0.1, delta=0.05, margin_override=None):
    """1-D instance on [0, 0.2]; small enough for fast MISDP solves."""
    spec = AmbiguitySpec.with_normalization(
        edge=0.2, mu=[0.1], sigma=[[1.0]], eps_mu=0.05, eps_sigma=1.0, b=b
    )
    fn = SimpleFunctionSpec(k=k, heights=list(heights), mode=VariableBoxes())
    L = lipschitz_certificate(spec, fn).L
    lattice = lattice_points(0.2, 1, delta)
    return assemble_case2(spec, fn, lattice, L, margin_override=margin_override)


# ---------------------------------------------------------------------------
# options


def test_options_reject_bad_values():
    with pytest.raises(ValueError):
        SearchOptions(mode="simplex")
    with pytest.raises(ValueError):
        SearchOptions(mode="both")
    with pytest.raises(ValueError):
        SearchOptions(gap_tol=-0.1)
    with pytest.raises(ValueError):
        SearchOptions(node_limit=0)
    with pytest.raises(ValueError):
        SearchOptions(time_limit=0.0)


# ---------------------------------------------------------------------------
# the reference instance at delta = 0.1


def test_reference_enumerate_optimum(ref_model):
    inc = enumerate_boxes(ref_model, SearchOptions())
    assert inc.proof == "optimal"
    assert inc.status == "solved"
    assert inc.objective == pytest.approx(2.0, abs=1e-6)
    assert len(inc.boxes) == 1
    np.testing.assert_allclose(inc.boxes[0].lower, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(inc.boxes[0].upper, [1.0, 1.0], atol=1e-9)
    assert inc.dual_vars is not None


def test_reference_bnb_optimum(ref_model):
    inc = solve_bnb(ref_model, SearchOptions())
    assert inc.proof == "optimal"
    assert inc.status == "solved"
    assert inc.objective == pytest.approx(2.0, abs=1e-6)


def test_incumbent_duals_satisfy_fixed_rows(ref_model, ref_spec):
    # spec'd invariant: the (Y1, Y2, y) stored with the incumbent satisfy
    # every lattice row (>= margin) and the threshold row (>= b) once the
    # incumbent binaries are substituted.
    inc = enumerate_boxes(ref_model, SearchOptions())
    d = inc.dual_vars
    f_vals = dual_integrand(
        ref_model.lattice.points,
        np.asarray(ref_model.fn.heights, dtype=float),
        list(inc.boxes),
        d.Y1,
        d.Y2,
        d.y,
        ref_spec,
    )
    assert float(np.min(f_vals)) >= ref_model.margin - 1e-7
    assert d.dual_objective() >= ref_spec.b - 1e-7
    assert float(np.min(d.y)) >= -1e-9
    assert float(np.linalg.eigvalsh(d.Y1).min()) >= -1e-8
    assert float(np.linalg.eigvalsh(d.Y2).min()) >= -1e-8


def test_enumerate_proves_the_reference_optimum_at_step_one_fifteenth(ref_spec, ref_fn):
    L = lipschitz_certificate(ref_spec, ref_fn).L
    model = assemble_case2(ref_spec, ref_fn, lattice_points(1.0, 2, 1 / 15), L)
    inc = enumerate_boxes(model, SearchOptions())
    assert inc.proof == "optimal"
    assert inc.status == "solved"
    assert inc.objective == pytest.approx(2.0, abs=1e-6)


def test_enumerate_rules_candidates_out_without_the_assembled_solve(ref_model, monkeypatch):
    # candidates whose adversary measure falls short never reach the
    # assembled program, yet each of them counts as a node
    fixes = []
    fix_binaries = ConicProgram.fix_binaries

    def spy(self, values):
        fixes.append(values)
        return fix_binaries(self, values)

    monkeypatch.setattr(ConicProgram, "fix_binaries", spy)
    inc = enumerate_boxes(ref_model, SearchOptions())
    assert inc.proof == "optimal"
    assert 1 <= len(fixes) < inc.node_count


def _feasible_point_masses(model):
    """One-hot weights of the lattice atoms whose point mass satisfies
    both moment constraints (the instances here have no confidence rows
    beyond the normalization pair)."""
    spec = model.spec
    pts = model.lattice.points
    out = []
    for f, t in enumerate(pts):
        first = np.linalg.eigvalsh(first_moment_block(t, spec)).min()
        second = np.linalg.eigvalsh(spec.eps_sigma * spec.sigma
                                    - second_moment_outer(t, spec)).min()
        if first >= -1e-12 and second >= -1e-12:
            out.append(np.eye(len(pts))[f])
    return out


@pytest.mark.parametrize("which", ["reference-quarter-step", "line-two-boxes",
                                   "reference-half-step-two-boxes"])
def test_measure_pool_screen_matches_brute_force(ref_spec, ref_fn, which):
    # the pool rules a candidate out exactly when one of its measures
    # gives the candidate's simple function an expected value below
    # b + margin, over every candidate (pair) of a small instance; on the
    # line every lattice point is an atom, so there the added measure
    # cannot rule out more than the point masses do
    adversary_box = BoxRegion([0.0, 0.0], [0.5, 0.5])
    if which == "reference-quarter-step":
        model = assemble_case2(ref_spec, ref_fn, lattice_points(1.0, 2, 0.25), 1.0,
                               margin_override=0.2)
    elif which == "line-two-boxes":
        model = line_model(k=2, heights=(0.6, 0.4), margin_override=0.35)
        adversary_box = BoxRegion([0.05], [0.15])
    else:
        fn = SimpleFunctionSpec(k=2, heights=[0.6, 0.4], mode=VariableBoxes())
        model = assemble_case2(ref_spec, fn, lattice_points(1.0, 2, 0.5), 1.0,
                               margin_override=0.2)
    lattice = model.lattice
    heights = np.asarray(model.fn.heights, dtype=float)
    status, _, weights = adversary_problem(Decision([1.0], (adversary_box,)),
                                           model.spec, lattice)
    assert status == "optimal"
    measures = _feasible_point_masses(model) + [weights]
    assert len(measures) >= 2
    pool = _MeasurePool(model)
    pool.add(weights)

    streams = [_candidate_stream(model, i, 1.0) for i in range(model.fn.k)]
    corners = [pool.corners(lo, hi) for _, lo, hi in streams]
    threshold = model.spec.b + model.margin - 1e-7
    verdicts = []
    for idx in itertools.product(*[range(len(bound)) for bound, _, _ in streams]):
        boxes = [_box_at(lattice, streams[i], n) for i, n in enumerate(idx)]
        kept = [(h, box) for h, box in zip(heights, boxes) if box is not None]
        values = np.zeros(lattice.n_points)
        if kept:
            values = Decision([h for h, _ in kept], [box for _, box in kept]).evaluate(
                lattice.points)
        expected = [float(w @ values) for w in measures]
        assert min(abs(e - threshold) for e in expected) > 1e-9  # no ties to split
        want = min(expected) < threshold
        assert pool.ruled_out([corners[i][n] for i, n in enumerate(idx)]) == want, boxes
        verdicts.append(want)
    n_boxes = {"reference-quarter-step": 226, "line-two-boxes": 16,
               "reference-half-step-two-boxes": 37}[which]
    assert len(verdicts) == n_boxes ** model.fn.k
    assert any(verdicts) and not all(verdicts)


# ---------------------------------------------------------------------------
# cross-solver agreement


def test_drivers_agree_on_small_instances(ref_model):
    models = [ref_model, line_model(), line_model(k=2, heights=(0.6, 0.4))]
    for model in models:
        a = enumerate_boxes(model, SearchOptions())
        b = solve_bnb(model, SearchOptions())
        assert a.proof == "optimal" and b.proof == "optimal"
        assert a.status == b.status == "solved"
        assert abs(a.objective - b.objective) <= 1e-6


def test_two_box_line_instance_splits():
    inc = enumerate_boxes(line_model(k=2, heights=(0.6, 0.4)), SearchOptions())
    assert inc.objective == pytest.approx(0.15, abs=1e-6)
    widths = sorted(float(np.sum(box.widths)) for box in inc.boxes)
    assert widths == pytest.approx([0.05, 0.10], abs=1e-9)


def test_run_search_modes_agree(ref_model):
    results = {
        mode: run_search(ref_model, SearchOptions(mode=mode))
        for mode in ("bnb", "enumerate")
    }
    for inc in results.values():
        assert inc.proof == "optimal"
        assert inc.objective == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# infeasibility and degenerate thresholds


def test_wide_margin_is_infeasible_model(ref_spec, ref_fn):
    L = lipschitz_certificate(ref_spec, ref_fn).L
    model = assemble_case2(ref_spec, ref_fn, lattice_points(1.0, 2, 0.5), L)
    for driver in (solve_bnb, enumerate_boxes):
        inc = driver(model, SearchOptions())
        assert inc.status == "infeasible-model"
        assert inc.proof == "optimal"
        assert inc.objective == np.inf
        assert inc.boxes == ()
        assert inc.dual_vars is None


def test_zero_threshold_zero_margin_empty_box():
    model = line_model(b=0.0, margin_override=0.0)
    for driver in (solve_bnb, enumerate_boxes):
        inc = driver(model, SearchOptions())
        assert inc.status == "solved"
        assert inc.objective == pytest.approx(0.0, abs=1e-7)
        assert all(float(np.sum(box.widths)) == 0.0 for box in inc.boxes)


# ---------------------------------------------------------------------------
# root relaxation


def test_root_relaxation_bounds_the_optimum(ref_model):
    rel = root_relaxation(ref_model)
    assert rel.status == "optimal"
    assert rel.objective <= 2.0 + 1e-6


def test_root_relaxation_without_binaries_is_plain_solve(
    ref_spec, ref_lattice
):
    fn = SimpleFunctionSpec(
        k=1,
        heights=[1.0],
        mode=FixedBoxes((BoxRegion([0.0, 0.0], [1.0, 1.0]),)),
    )
    L = lipschitz_certificate(ref_spec, fn).L
    model = assemble_case1(ref_spec, fn, ref_lattice, L)
    rel = root_relaxation(model)
    plain = solve_sdp(model.program)
    assert rel.status == plain.status == "optimal"
    assert rel.objective == pytest.approx(plain.objective, abs=1e-9)


def test_root_relaxation_detects_infeasible_margin(ref_spec, ref_fn):
    L = lipschitz_certificate(ref_spec, ref_fn).L
    model = assemble_case2(ref_spec, ref_fn, lattice_points(1.0, 2, 0.5), L)
    assert root_relaxation(model).status == "infeasible"


# ---------------------------------------------------------------------------
# limits, gaps, determinism


def test_node_limit_reports_resource_limit(ref_model):
    model = line_model(k=2, heights=(0.6, 0.4))
    inc = solve_bnb(model, SearchOptions(node_limit=5))
    assert inc.proof == "resource-limit"
    assert inc.status == "solved"  # seed incumbent exists
    assert inc.node_count <= 5
    assert inc.objective >= 0.15 - 1e-9

    # on the reference instance the first surviving candidate is infeasible,
    # so a one-solve budget ends with no conclusion
    inc = enumerate_boxes(ref_model, SearchOptions(node_limit=1))
    assert inc.proof == "resource-limit"
    assert inc.status == "unknown"
    assert inc.objective == np.inf


def test_time_limit_keeps_seed_incumbent(ref_model):
    inc = solve_bnb(ref_model, SearchOptions(time_limit=1e-9))
    assert inc.proof == "resource-limit"
    assert inc.status == "solved"
    assert np.isfinite(inc.objective)


def test_gap_tol_stops_early_within_band():
    model = line_model(k=2, heights=(0.6, 0.4))
    inc = solve_bnb(model, SearchOptions(gap_tol=0.2))
    assert inc.proof == "gap-limit"
    assert inc.status == "solved"
    # incumbent is feasible (>= optimum) and within gap_tol of it
    assert 0.15 - 1e-9 <= inc.objective <= 0.15 + 0.2 + 1e-6


def test_search_is_deterministic():
    model = line_model(k=2, heights=(0.6, 0.4))
    runs = [solve_bnb(model, SearchOptions()) for _ in range(2)]
    assert runs[0].objective == runs[1].objective
    assert runs[0].node_count == runs[1].node_count
    assert runs[0].proof == runs[1].proof
    for a, b in zip(runs[0].boxes, runs[1].boxes):
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)


def test_enumerate_rejects_large_instances():
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.1], sigma=[[1.0]], eps_mu=0.05, eps_sigma=1.0, b=0.1
    )
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())
    model = assemble_case2(spec, fn, lattice_points(1.0, 1, 0.025), 5.0)
    with pytest.raises(ValueError, match="instance-too-large"):
        enumerate_boxes(model, SearchOptions())

    with pytest.raises(ValueError, match="instance-too-large"):
        enumerate_boxes(
            line_model(k=3, heights=(0.5, 0.3, 0.2)), SearchOptions()
        )


# ---------------------------------------------------------------------------
# progress log contract


def test_progress_lines_are_key_value(caplog):
    model = line_model(k=2, heights=(0.6, 0.4))
    with caplog.at_level(logging.DEBUG, logger="drobox.search"):
        solve_bnb(model, SearchOptions(node_limit=8))
    pattern = re.compile(
        r"^node=\d+ bound=(inf|[-+0-9.eE]+) "
        r"incumbent=(inf|[-+0-9.eE]+) gap=(inf|[-+0-9.eE]+)$"
    )
    messages = [r.getMessage() for r in caplog.records]
    assert messages, "expected progress lines"
    for msg in messages:
        assert pattern.match(msg), msg
    # minimization: the reported bound never exceeds the incumbent
    for msg in messages:
        fields = dict(part.split("=") for part in msg.split())
        bound, incumbent = float(fields["bound"]), float(fields["incumbent"])
        if np.isfinite(bound) and np.isfinite(incumbent):
            assert bound <= incumbent + 1e-6
