import itertools
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drobox.assemble import assemble_case2
from drobox.lipschitz import lipschitz_certificate, safety_margin
from drobox.certify import Pricer, adversary_problem, certify_solution
from drobox.model import (
    AmbiguitySpec,
    BoxRegion,
    ConfidenceSet,
    Decision,
    DualSolution,
    FixedBoxes,
    LinearConstraint,
    SimpleFunctionSpec,
    VariableBoxes,
    WholeDomain,
    lattice_points,
)
from drobox.sdp import ConicProgram, SdpSolution, solve_sdp
from drobox.search import (
    SearchInstance,
    SearchOptions,
    _ENUMERATE_CAP,
    _SCREEN_BUDGET,
    _box_bounds,
    _candidate_stream,
    _MeasurePool,
    _leaf_objective,
    enumerate_boxes,
    run_search,
    solve_bnb,
)
from oracles import (dual_integrand, family_violation, first_moment_block, second_moment_outer,
                     seed_screen_values)


def search_instance(spec, fn, delta, margin=None):
    """The instance at step delta; margin defaults to the safety margin."""
    lattice = lattice_points(spec.edge, spec.m, delta)
    if margin is None:
        margin = safety_margin(lipschitz_certificate(spec, fn).L, lattice.delta, spec.m)
    return SearchInstance(spec, fn, lattice, margin)


@pytest.fixture
def ref_model(ref_spec, ref_fn):
    return search_instance(ref_spec, ref_fn, 0.1)


def line_model(k=1, heights=(1.0,), b=0.1, delta=0.05, margin=None, mode=None):
    """1-D instance on [0, 0.2]; small enough for fast searches."""
    spec = AmbiguitySpec.with_normalization(
        edge=0.2, mu=[0.1], sigma=[[1.0]], eps_mu=0.05, eps_sigma=1.0, b=b
    )
    fn = SimpleFunctionSpec(k=k, heights=list(heights), mode=mode or VariableBoxes())
    return search_instance(spec, fn, delta, margin)


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
    # NaN would switch a limit off; +inf is a limit never reached
    for knob in ("gap_tol", "node_limit", "time_limit"):
        with pytest.raises(ValueError):
            SearchOptions(**{knob: float("nan")})
        SearchOptions(**{knob: float("inf")})


# ---------------------------------------------------------------------------
# the search instance


def test_search_instance_rejects_fixed_boxes_and_zero_heights(ref_spec, ref_lattice):
    fixed = SimpleFunctionSpec(k=1, heights=[1.0], mode=FixedBoxes(
        (BoxRegion([0.0, 0.0], [1.0, 1.0]),)))
    with pytest.raises(TypeError):
        SearchInstance(ref_spec, fixed, ref_lattice, 0.1)
    zero = SimpleFunctionSpec(k=2, heights=[1.0, 0.0], mode=VariableBoxes())
    with pytest.raises(ValueError):
        SearchInstance(ref_spec, zero, ref_lattice, 0.1)


@pytest.mark.parametrize("mode,sense,quantum", [
    (VariableBoxes(sense="max"), "min", 0.1),
    (VariableBoxes(constraints=(LinearConstraint([1.0, 0.0, 0.0, 2.0], "<=", 0.8),)),
     "min", None),
    (VariableBoxes(c_minus=[[1.0, 0.0]], c_plus=[[0.0, 1.0]], sense="max"), "max", None),
    (VariableBoxes(c_minus=[[0.0, 0.0]], c_plus=[[1.0, 1.0]], sense="min"), "min", None),
], ids=["width-sum", "width-sum-constrained", "corners-max", "corners-min"])
def test_search_instance_objective_sense_and_quantum(ref_spec, ref_lattice, mode, sense,
                                                     quantum):
    # the width sum is minimized whatever mode.sense says, corner costs
    # follow mode.sense, and only the unconstrained width sum moves on the
    # lattice step; the search and the assembled program read one rule
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=mode)
    inst = SearchInstance(ref_spec, fn, ref_lattice, 0.1)
    assert mode.objective_sense == sense
    assert inst.sgn == (1.0 if sense == "min" else -1.0)
    assert inst.quantum == (None if quantum is None else pytest.approx(quantum))
    assert assemble_case2(ref_spec, fn, ref_lattice, 1.0).program.obj_sense == sense


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


@pytest.mark.parametrize("delta,objective", [(0.05, 1.7), (0.04, 1.56)])
def test_bnb_proves_the_reference_at_fine_steps(ref_spec, ref_fn, monkeypatch,
                                                delta, objective):
    # the box-corner search never solves a relaxed program
    relaxed = []
    relax = ConicProgram.relax_binaries

    def spy(self, fixed=None):
        relaxed.append(fixed)
        return relax(self, fixed)

    monkeypatch.setattr(ConicProgram, "relax_binaries", spy)
    inc = solve_bnb(search_instance(ref_spec, ref_fn, delta), SearchOptions(node_limit=50))
    assert inc.proof == "optimal"
    assert inc.status == "solved"
    assert inc.objective == pytest.approx(objective, abs=1e-6)
    assert relaxed == []


def test_incumbent_duals_satisfy_fixed_rows(ref_model, ref_spec):
    # spec'd invariant: the (Y1, Y2, y) stored with the incumbent satisfy
    # every lattice row (>= margin) at the incumbent boxes and the
    # threshold row (>= b), with either driver.
    for driver in (enumerate_boxes, solve_bnb):
        inc = driver(ref_model, SearchOptions())
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
    inc = enumerate_boxes(search_instance(ref_spec, ref_fn, 1 / 15), SearchOptions())
    assert inc.proof == "optimal"
    assert inc.status == "solved"
    assert inc.objective == pytest.approx(2.0, abs=1e-6)


def test_enumerate_rules_candidates_out_without_the_assembled_solve(ref_model, monkeypatch):
    # every set of boxes, bnb's whole-domain seed included, is decided by
    # its measure program alone: no driver fixes or relaxes the binaries of
    # an assembled program
    fixes = []
    for name in ("fix_binaries", "relax_binaries"):
        original = getattr(ConicProgram, name)

        def spy(self, *args, _original=original):
            fixes.append(args)
            return _original(self, *args)

        monkeypatch.setattr(ConicProgram, name, spy)
    for driver in (enumerate_boxes, solve_bnb):
        inc = driver(ref_model, SearchOptions())
        assert inc.proof == "optimal"
        assert inc.node_count >= 1
    assert fixes == []


def _feasible_point_masses(model):
    """One-hot weights of the lattice atoms whose point mass satisfies
    both moment constraints and every confidence row,
    sign(eps) * 1[t in C] >= eps."""
    spec = model.spec
    pts = model.lattice.points
    out = []
    for f, t in enumerate(pts):
        first = np.linalg.eigvalsh(first_moment_block(t, spec)).min()
        second = np.linalg.eigvalsh(spec.eps_sigma * spec.sigma
                                    - second_moment_outer(t, spec)).min()
        rows = all(np.copysign(1.0, cs.eps)
                   * (1.0 if isinstance(cs.region, WholeDomain) else float(cs.region.contains(t)))
                   >= cs.eps for cs in spec.confidence_sets)
        if first >= -1e-12 and second >= -1e-12 and rows:
            out.append(np.eye(len(pts))[f])
    return out


@pytest.mark.parametrize("which", ["reference-quarter-step", "line-two-boxes",
                                   "reference-half-step-two-boxes", "cube-quarter-step"])
def test_measure_pool_screen_matches_brute_force(ref_spec, ref_fn, monkeypatch, which):
    # the pool rules a candidate out exactly when one of its measures
    # gives the candidate's simple function an expected value below
    # b + margin, over every candidate (pair) of a small instance, screened
    # in one call; on the line every lattice point is an atom, so there the
    # added measures cannot rule out more than the point masses do
    import drobox.search as search

    adversary_boxes = [BoxRegion([0.0, 0.0], [0.5, 0.5]), BoxRegion([0.5, 0.0], [1.0, 0.5])]
    if which == "reference-quarter-step":
        model = search_instance(ref_spec, ref_fn, 0.25, margin=0.2)
    elif which == "line-two-boxes":
        model = line_model(k=2, heights=(0.6, 0.4), margin=0.35)
        adversary_boxes = [BoxRegion([0.05], [0.15]), BoxRegion([0.0], [0.1])]
    elif which == "cube-quarter-step":
        model = _cube_instance(0.25)
        adversary_boxes = [BoxRegion([0.0, 0.0, 0.0], [0.25, 0.5, 0.25]),
                           BoxRegion([0.25, 0.0, 0.0], [1.0, 0.25, 0.5])]
    else:
        fn = SimpleFunctionSpec(k=2, heights=[0.6, 0.4], mode=VariableBoxes())
        model = search_instance(ref_spec, fn, 0.5, margin=0.2)
    lattice = model.lattice
    heights = np.asarray(model.fn.heights, dtype=float)
    pool = _MeasurePool(model)
    measures = _feasible_point_masses(model)
    for box in adversary_boxes:
        status, _, weights, _ = adversary_problem(Decision([1.0], (box,)), model.spec, lattice)
        assert status == "optimal"
        pool.add(weights)
        measures.append(weights)
    assert pool.n_added < len(pool.added)  # the rows past n_added are not measures

    streams = [_candidate_stream(model, i) for i in range(model.fn.k)]
    sets = list(itertools.product(*[range(len(bound)) for bound, _, _ in streams]))
    lo, hi = (np.stack([stream[j][[idx[i] for idx in sets]]
                        for i, stream in enumerate(streams)]) for j in (1, 2))
    threshold = model.spec.b + model.margin
    want = []
    for idx in sets:
        boxes = [lattice.box(streams[i][1][n], streams[i][2][n]) for i, n in enumerate(idx)]
        kept = [(h, box) for h, box in zip(heights, boxes) if box is not None]
        values = np.zeros(lattice.n_points)
        if kept:
            values = Decision([h for h, _ in kept], [box for _, box in kept]).evaluate(
                lattice.points)
        expected = [float(w @ values) for w in measures]
        assert min(abs(e - threshold) for e in expected) > 1e-9  # no ties to split
        want.append(min(expected) < threshold)
    n_boxes = {"reference-quarter-step": 226, "line-two-boxes": 16,
               "reference-half-step-two-boxes": 37, "cube-quarter-step": 3376}[which]
    assert len(want) == n_boxes ** model.fn.k
    assert any(want) and not all(want)
    assert pool.ruled_out(lo, hi).tolist() == want
    # blocks of 7 sets: the same verdicts across many block boundaries
    per_set = min(pool.atom_cost, pool.grid_cost) + pool.weights.size * (pool.n_added + 1)
    monkeypatch.setattr(search, "_SCREEN_BUDGET", 7 * per_set)
    assert pool.block() == 7
    assert pool.ruled_out(lo, hi).tolist() == want


@st.composite
def _seed_screens(draw):
    """(m, n_axis, atom mask, heights, lo, hi): a random point-mass seed and
    random sets of boxes, each box empty or spanning lo <= hi per axis."""
    m, k, n_axis = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n_axis ** m, max_size=n_axis ** m)))
    heights = [0.25 * draw(st.integers(1, 8)) for _ in range(k)]
    sets = draw(st.integers(1, 6))
    lo, hi = np.zeros((k, sets, m), dtype=int), np.full((k, sets, m), -1)
    for i, s in itertools.product(range(k), range(sets)):
        if not draw(st.booleans()):
            continue  # the empty box
        ends = [sorted(draw(st.lists(st.integers(0, n_axis - 1), min_size=2, max_size=2)))
                for _ in range(m)]
        lo[i, s], hi[i, s] = np.array(ends).T
    return m, n_axis, mask, heights, lo, hi


_NO_ATOMS = (2, 3, np.zeros(9, dtype=bool), [1.0, 0.5],
             np.array([[[0, 0]], [[1, 1]]]), np.array([[[2, 2]], [[2, 2]]]))
_OVERLAPS = (2, 3, np.array([0, 1, 0, 1, 1, 0, 0, 0, 1], dtype=bool), [0.5, 0.75, 1.0],
             np.array([[[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 1], [0, 0]]]),
             np.array([[[1, 1], [-1, -1]], [[2, 2], [2, 2]], [[2, 1], [-1, -1]]]))


@settings(max_examples=150)
@given(_seed_screens())
@example(_NO_ATOMS)
@example(_OVERLAPS)
def test_seed_screens_match_the_atom_by_atom_definition(case):
    # the pool's seed value for a set, tested atom by atom or read from its
    # count grid by inclusion-exclusion over the box intersections, is the
    # least value any one atom gives the set; every lattice point meets the
    # moments, and a confidence row of eps < 0 on each atom outside the
    # mask takes it out of the seed
    m, n_axis, mask, heights, lo, hi = case
    lattice = lattice_points(n_axis - 1.0, m, 1.0)
    spec = AmbiguitySpec.with_normalization(
        edge=lattice.edge, mu=[0.0] * m, sigma=100.0 * np.eye(m), eps_mu=1.0, eps_sigma=1.0,
        b=0.1, extra_sets=tuple(ConfidenceSet(BoxRegion(t, t), -0.5)
                                for t in lattice.points[~mask]))
    fn = SimpleFunctionSpec(k=len(heights), heights=heights, mode=VariableBoxes())
    pool = _MeasurePool(SearchInstance(spec, fn, lattice, 0.0))
    atoms = np.argwhere(mask.reshape(lattice.shape))
    assert np.array_equal(pool.atoms, atoms)
    want = seed_screen_values(atoms, heights, lo, hi)
    assert np.array_equal(pool._atom_seed(lo, hi), want)
    assert np.array_equal(pool._grid_seed(lo, hi), want)
    assert pool.ruled_out(lo, hi).tolist() == (want < pool.threshold).tolist()


def _confidence_instance():
    """A 2-D instance centred at (0.5, 0.5) whose confidence rows keep
    [0, 0.5]^2 above 0.9 and [0.5, 1]^2 below 0.3."""
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.5, 0.5], sigma=[[2.0, 0.5], [0.5, 1.0]], eps_mu=0.1,
        eps_sigma=1.0, b=0.1,
        extra_sets=(ConfidenceSet(BoxRegion([0.0, 0.0], [0.5, 0.5]), 0.9),
                    ConfidenceSet(BoxRegion([0.5, 0.5], [1.0, 1.0]), -0.3)))
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())
    return SearchInstance(spec, fn, lattice_points(1.0, 2, 0.25), 0.1)


def _cube_instance(delta):
    """The 3-D instance with sigma = I + 0.2 * ones."""
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0, 0.0, 0.0], sigma=np.eye(3) + 0.2, eps_mu=0.1,
        eps_sigma=1.0, b=0.1)
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())
    return SearchInstance(spec, fn, lattice_points(1.0, 3, delta), 0.1)


@pytest.mark.parametrize("which", ["reference-quarter-step", "line", "cube-quarter-step",
                                   "confidence-rows"])
def test_measure_pool_point_masses_match_the_identity_build(ref_spec, ref_fn, which):
    # the pool's atom indices are the atoms of the one-hot reference build
    if which == "reference-quarter-step":
        model = search_instance(ref_spec, ref_fn, 0.25, margin=0.1)
    elif which == "line":
        model = line_model()
    elif which == "cube-quarter-step":
        model = _cube_instance(0.25)
    else:
        model = _confidence_instance()
    pool = _MeasurePool(model)
    flat = [int(np.argmax(w)) for w in _feasible_point_masses(model)]
    want = np.transpose(np.unravel_index(flat, model.lattice.shape))
    assert len(want) >= 2
    if which == "confidence-rows":
        # the moments allow 7 atoms; the first row keeps 4, the second 3
        assert len(want) == 3
    assert np.array_equal(pool.atoms, want)


def test_measure_pool_memory_stays_below_the_identity():
    # the seed is atom indices: one padded prefix grid per atom would take
    # 480 x 26^3 floats (67 MB) here, and an identity over all 15,625
    # atoms 1.95 GB
    model = _cube_instance(1 / 24)
    tracemalloc.start()
    try:
        pool = _MeasurePool(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pool.atoms.shape == (480, 3)
    assert peak < 0.05 * len(pool.atoms) * 26 ** 3 * 8


@pytest.mark.parametrize("sigma, eps_mu, delta, atoms, by_grid",
                         [([[2.0, 0.5], [0.5, 1.0]], 0.1, 0.05, 58, False),
                          ([[1.0]], 1.0, 1 / 20000, 20001, True)],
                         ids=["few-atoms", "many-atoms"])
def test_measure_pool_screens_twelve_boxes_in_bounded_memory(monkeypatch, sigma, eps_mu, delta,
                                                             atoms, by_grid):
    # with k = 12 the count grid reads 4,096 box intersections a set, so the
    # pool tests 58 atoms one by one and counts only 20,001; either way a
    # screen's arrays stay near _SCREEN_BUDGET elements, never 4^k
    m = len(sigma)
    spec = AmbiguitySpec.with_normalization(edge=1.0, mu=[0.0] * m, sigma=sigma,
                                            eps_mu=eps_mu, eps_sigma=1.0, b=0.1)
    fn = SimpleFunctionSpec(k=12, heights=[1.0 / 12] * 12, mode=VariableBoxes())
    lattice = lattice_points(1.0, m, delta)
    ends = np.random.default_rng(12).integers(0, lattice.shape[0], size=(2, 12, 200, m))
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    grid_screens = []
    grid_seed = _MeasurePool._grid_seed
    monkeypatch.setattr(_MeasurePool, "_grid_seed",
                        lambda self, lo, hi: grid_screens.append(1) or grid_seed(self, lo, hi))
    tracemalloc.start()
    try:
        pool = _MeasurePool(SearchInstance(spec, fn, lattice, 0.1))
        verdicts = pool.ruled_out(lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(pool.atoms), bool(grid_screens)) == (atoms, by_grid)
    assert peak < 4 * _SCREEN_BUDGET * 8
    seed = pool._atom_seed(lo[:, :20], hi[:, :20])
    assert verdicts[:20].tolist() == (seed < pool.threshold).tolist()
    assert np.array_equal(pool._grid_seed(lo[:, :20], hi[:, :20]), seed)


def test_measure_pool_adds_never_copy_the_seed():
    # added measures grow their own rows, apart from the atom-index seed:
    # a hundred adds to the 3-D pool at delta = 1/24 reallocate them seven
    # times, and the peak holds no more than the old and the new rows of
    # the last growth
    model = _cube_instance(1 / 24)
    pool = _MeasurePool(model)
    weights = np.full(model.lattice.n_points, 1.0 / model.lattice.n_points)
    grown = 0
    tracemalloc.start()
    try:
        for _ in range(100):
            rows = pool.added
            pool.add(weights)
            grown += pool.added is not rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (pool.n_added, len(pool.added), grown) == (100, 127, 7)
    assert peak < 1.6 * pool.added.nbytes


@pytest.mark.parametrize("delta,objective,sets,nodes", [(0.05, 1.7, 53_362, 16),
                                                        (0.04, 1.56, 123_202, 15)],
                         ids=["step-1/20", "step-1/25-near-the-cap"])
def test_enumerate_screens_the_sorted_list_in_blocks(ref_spec, ref_fn, monkeypatch,
                                                     delta, objective, sets, nodes):
    # only candidates the pool keeps pop: each solved candidate costs a
    # re-screen and a search for the next kept one, and the whole list at
    # most one screen per block (one screen per candidate made 53,179 at
    # delta = 1/20).  The point-mass seed is screened over the list once,
    # so the screens take little more than the candidate sets in all
    screens, screened = [], []
    ruled_out = _MeasurePool.ruled_out

    def spy(self, lo, hi):
        screens.append(self)
        screened.append(lo.shape[1])
        return ruled_out(self, lo, hi)

    monkeypatch.setattr(_MeasurePool, "ruled_out", spy)
    model = search_instance(ref_spec, ref_fn, delta)
    inc = enumerate_boxes(model, SearchOptions())
    assert (inc.proof, inc.status, inc.node_count) == ("optimal", "solved", nodes)
    assert inc.objective == pytest.approx(objective, abs=1e-6)
    assert len(_candidate_stream(model, 0)[0]) == sets <= _ENUMERATE_CAP
    pool = screens[-1]  # largest last, so its blocks are the smallest
    blocks = -(-sets // pool.block())
    assert len(screens) <= 2 * inc.node_count + blocks
    assert sum(screened) <= 1.1 * sets


# ---------------------------------------------------------------------------
# cross-solver agreement


def _small_instance(dim, k, eps, corners, margin):
    """A 1-D instance on [0, 0.2] at step 0.05, or the 2-D reference at step
    0.25 (one box) or 0.5 (two), with k boxes and, unless eps is None, a
    confidence cube at eps whose lattice indices run between the two corners
    (clipped to the axis) on every axis."""
    edge, mu, sigma, eps_mu, delta = ((0.2, [0.1], [[1.0]], 0.05, 0.05) if dim == 1 else
                                      (1.0, [0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]], 0.1,
                                       0.25 if k == 1 else 0.5))
    lattice = lattice_points(edge, dim, delta)
    lo, hi = sorted(min(c, lattice.n_axis - 1) for c in corners)
    extra = () if eps is None else (
        ConfidenceSet(lattice.box(np.full(dim, lo), np.full(dim, hi)), eps),)
    spec = AmbiguitySpec.with_normalization(edge=edge, mu=mu, sigma=sigma, eps_mu=eps_mu,
                                            eps_sigma=1.0, b=0.1, extra_sets=extra)
    fn = SimpleFunctionSpec(k=k, heights=[1.0] if k == 1 else [0.6, 0.4], mode=VariableBoxes())
    return SearchInstance(spec, fn, lattice, margin)


def test_drivers_agree_on_small_instances(ref_model):
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.1], sigma=[[1.0]], eps_mu=0.05, eps_sigma=1.0, b=0.1
    )
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())
    models = [ref_model, line_model(), line_model(k=2, heights=(0.6, 0.4)),
              search_instance(spec, fn, 0.025, margin=5.0 * 0.025),  # 862 candidates
              line_model(k=3, heights=(0.5, 0.3, 0.2)),  # 16^3 candidate sets
              # two boxes on the line with P([0, 0.1]) >= 0.3, and with P([0.1, 0.2]) <= 0.2
              _small_instance(1, 2, 0.3, (0, 2), 0.01), _small_instance(1, 2, -0.2, (2, 4), 0.01)]
    for model in models:
        a = enumerate_boxes(model, SearchOptions())
        b = solve_bnb(model, SearchOptions())
        assert a.proof == "optimal" and b.proof == "optimal"
        assert a.status == b.status == "solved"
        assert abs(a.objective - b.objective) <= 1e-6


@settings(max_examples=30)
@given(dim=st.sampled_from([1, 2]), k=st.sampled_from([1, 2]),
       eps=st.sampled_from([None, 0.3, -0.2]),
       corners=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       margin=st.sampled_from([0.0, 0.01, 0.05]))
def test_drivers_agree_and_the_pool_takes_only_members(dim, k, eps, corners, margin):
    # both drivers reach the same objective and proof, and every measure
    # either of them adds to its pool lies in the ambiguity family; an empty
    # family (no measure on the lattice meets the confidence box) is left out
    model = _small_instance(dim, k, eps, corners, margin)
    everywhere = np.arange(model.lattice.n_points)
    family = Pricer(model.spec, model.lattice.points, np.zeros(everywhere.size)).master(everywhere)
    assume(solve_sdp(family).status == "optimal")
    added = []
    add = _MeasurePool.add
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_MeasurePool, "add", lambda pool, w: added.append(w.copy()) or add(pool, w))
        a = enumerate_boxes(model, SearchOptions())
        b = solve_bnb(model, SearchOptions())
    assert a.proof == b.proof and a.status == b.status
    assert a.objective == b.objective or abs(a.objective - b.objective) <= 1e-6
    for w in added:
        support = np.flatnonzero(w)
        assert family_violation(w[support], model.lattice.points[support],
                                model.spec) <= 1e-12


@pytest.mark.parametrize("k,heights,objective", [(1, (1.0,), 0.05), (2, (0.6, 0.4), 0.0)])
def test_drivers_agree_without_a_feasible_point_mass(k, heights, objective):
    # 0.4 of the mass on each end of the line: no atom's point mass is in the
    # ambiguity set, so the pool starts empty and the seed screen finds no atom
    spec = AmbiguitySpec.with_normalization(
        edge=0.2, mu=[0.1], sigma=[[1.0]], eps_mu=0.05, eps_sigma=1.0, b=0.1,
        extra_sets=(ConfidenceSet(BoxRegion([0.0], [0.05]), 0.4),
                    ConfidenceSet(BoxRegion([0.15], [0.2]), 0.4)))
    fn = SimpleFunctionSpec(k=k, heights=list(heights), mode=VariableBoxes())
    model = search_instance(spec, fn, 0.05, margin=0.01)
    assert len(_MeasurePool(model).atoms) == 0
    added = []
    add = _MeasurePool.add
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_MeasurePool, "add", lambda pool, w: added.append(w.copy()) or add(pool, w))
        a, b = enumerate_boxes(model, SearchOptions()), solve_bnb(model, SearchOptions())
    # no atom anchors a repair, so the pool's measures are repaired on the
    # measure the master's constraints alone converge to
    assert added and all(family_violation(w, model.lattice.points, spec) <= 1e-12
                         for w in added)
    assert a.proof == b.proof == "optimal"
    assert a.objective == pytest.approx(objective, abs=1e-9)
    assert b.objective == pytest.approx(objective, abs=1e-9)


def test_two_box_line_instance_splits():
    # equal bounds pop in the order of the stream positions read from the
    # last height, so the first optimum reached gives height 0.4 the
    # narrower box, which comes first in its stream
    inc = enumerate_boxes(line_model(k=2, heights=(0.6, 0.4)), SearchOptions())
    assert inc.objective == pytest.approx(0.15, abs=1e-6)
    spans = [(box.lower[0], box.upper[0]) for box in inc.boxes]
    np.testing.assert_allclose(spans, [[0.0, 0.1], [0.15, 0.2]], atol=1e-9)


@pytest.mark.parametrize("mode,objective", [
    (VariableBoxes(c_minus=[[1], [1]], c_plus=[[-1], [-1]], sense="max"), -0.15),
    (VariableBoxes(c_minus=[[0], [0]], c_plus=[[1], [1]], sense="min"), 0.2),
])
def test_drivers_agree_on_corner_objectives(mode, objective):
    model = line_model(k=2, heights=(0.6, 0.4), mode=mode)
    a = enumerate_boxes(model, SearchOptions())
    b = solve_bnb(model, SearchOptions())
    assert a.proof == b.proof == "optimal"
    assert a.status == b.status == "solved"
    assert a.objective == pytest.approx(objective, abs=1e-6)
    assert abs(a.objective - b.objective) <= 1e-6
    if mode.sense == "max":
        spans = np.array(sorted((box.lower[0], box.upper[0]) for box in b.boxes))
        np.testing.assert_allclose(spans, [[0.0, 0.1], [0.15, 0.2]], atol=1e-9)
    else:
        # one box is empty (None), the other reaches the edge
        for inc in (a, b):
            kept = [box for box in inc.boxes if box is not None]
            assert len(kept) == 1
            assert kept[0].upper[0] == pytest.approx(0.2, abs=1e-9)


@pytest.mark.parametrize("c_minus,c_plus,sense", [
    (1, -1, "max"), (-2, 1, "min"), (0, -1, "min"), (1, 1, "max")])
def test_empty_box_bound_takes_the_best_corner(c_minus, c_plus, sense):
    # an empty box leaves its corners anywhere in 0 <= lo <= hi <= edge
    model = line_model(mode=VariableBoxes(c_minus=[[c_minus]], c_plus=[[c_plus]],
                                          sense=sense))
    sgn = 1.0 if sense == "min" else -1.0
    grid = np.linspace(0.0, 0.2, 21)
    want = min(sgn * (c_minus * lo + c_plus * hi)
               for lo in grid for hi in grid if lo <= hi)
    assert model.empty_bounds[0] == pytest.approx(want, abs=1e-12)


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
    model = search_instance(ref_spec, ref_fn, 0.5)
    for driver in (solve_bnb, enumerate_boxes):
        inc = driver(model, SearchOptions())
        assert inc.status == "infeasible-model"
        assert inc.proof == "optimal"
        assert inc.objective == np.inf
        assert inc.boxes == ()
        assert inc.dual_vars is None


def test_zero_threshold_zero_margin_empty_box():
    model = line_model(b=0.0, margin=0.0)
    for driver in (solve_bnb, enumerate_boxes):
        inc = driver(model, SearchOptions())
        assert inc.status == "solved"
        assert inc.objective == pytest.approx(0.0, abs=1e-7)
        assert all(box is None or float(np.sum(box.widths)) == 0.0 for box in inc.boxes)


def test_a_set_just_short_of_the_threshold_is_ruled_out_by_its_repaired_measure(ref_spec,
                                                                              ref_fn):
    # the pool's threshold is b + margin exactly: the box [0, 0.8]^2, whose
    # repaired worst-case measure falls 5e-8 short of it, is ruled out, and
    # that measure, a member of the family, joins the pool; every feasible
    # point mass lies in the box, so the seed alone keeps it
    import drobox.search as search

    lattice = lattice_points(1.0, 2, 0.1)
    boxes = [BoxRegion([0.0, 0.0], [0.8, 0.8])]
    decision = Decision([1.0], boxes)
    _, value, _, _ = adversary_problem(decision, ref_spec, lattice, stop_below=-1.0)
    inst = SearchInstance(ref_spec, ref_fn, lattice, value + 5e-8 - ref_spec.b)
    pool = _MeasurePool(inst)
    corners = np.zeros((1, 1, 2), dtype=int), np.full((1, 1, 2), 8)
    assert not pool.ruled_out(*corners)[0]
    added = []
    pool.add = lambda w: added.append(w) or _MeasurePool.add(pool, w)
    assert search._solve_candidate(inst, boxes, pool) == ("infeasible", None)
    assert pool.threshold == ref_spec.b + inst.margin
    [w] = added
    assert pool.threshold - 1e-7 < float(w @ decision.evaluate(lattice.points)) < pool.threshold
    assert family_violation(w, lattice.points, ref_spec) <= 1e-12
    assert pool.ruled_out(*corners)[0]


# ---------------------------------------------------------------------------
# limits, gaps, determinism


def test_node_limit_reports_resource_limit(ref_model, ref_spec, ref_fn):
    # on the reference instance the first surviving candidate is infeasible,
    # so a one-solve budget ends with no conclusion
    inc = enumerate_boxes(ref_model, SearchOptions(node_limit=1))
    assert inc.proof == "resource-limit"
    assert inc.status == "unknown"
    assert inc.objective == np.inf

    # at delta = 0.05 the sixteenth surviving candidate is the optimum: a
    # budget of fifteen ends with nothing, and sixteen both find and prove
    # it, since the limit only stops a seventeenth solve, which the proof
    # does not need
    fine = search_instance(ref_spec, ref_fn, 0.05)
    for limit, proof, status, objective in [(15, "resource-limit", "unknown", np.inf),
                                            (16, "optimal", "solved", 1.7),
                                            (17, "optimal", "solved", 1.7)]:
        inc = enumerate_boxes(fine, SearchOptions(node_limit=limit))
        assert (inc.proof, inc.status) == (proof, status), limit
        assert inc.objective == pytest.approx(objective, abs=1e-6)
        assert inc.node_count == min(limit, 16)

    # B&B keeps its whole-domain seed incumbent when the budget runs out
    inc = solve_bnb(fine, SearchOptions(node_limit=3))
    assert (inc.proof, inc.status) == ("resource-limit", "solved")
    assert inc.objective == pytest.approx(2.0, abs=1e-6)
    assert inc.node_count == 3
    inc = solve_bnb(fine, SearchOptions(node_limit=16))
    assert (inc.proof, inc.status, inc.node_count) == ("optimal", "solved", 16)
    assert inc.objective == pytest.approx(1.7, abs=1e-6)


def test_time_limit_keeps_seed_incumbent(ref_model):
    inc = solve_bnb(ref_model, SearchOptions(time_limit=1e-9))
    assert inc.proof == "resource-limit"
    assert inc.status == "solved"
    assert np.isfinite(inc.objective)


@pytest.mark.parametrize("driver", [solve_bnb, enumerate_boxes], ids=["bnb", "enumerate"])
def test_time_limit_stops_before_expanding(monkeypatch, ref_model, driver):
    # the time limit bounds inner nodes too: a spent clock stops the run
    # at its first pop, before any node is expanded
    import drobox.search as search

    expanded = []
    best_first = search._best_first

    def counting(model, pool, roots, expand, *rest):
        def spy(batch):
            expanded.extend(batch)
            return expand(batch)
        return best_first(model, pool, roots, spy, *rest)

    monkeypatch.setattr(search, "_best_first", counting)
    inc = driver(ref_model, SearchOptions(time_limit=1e-9))
    assert inc.proof == "resource-limit"
    assert (expanded, inc.node_count) == ([], 0)


def test_gap_tol_stops_early_within_band():
    model = line_model(k=2, heights=(0.6, 0.4))
    inc = solve_bnb(model, SearchOptions(gap_tol=0.2))
    assert inc.proof == "gap-limit"
    assert inc.status == "solved"
    # incumbent is feasible (>= optimum) and within gap_tol of it
    assert 0.15 - 1e-9 <= inc.objective <= 0.15 + 0.2 + 1e-6


@pytest.mark.parametrize("k,heights,nodes", [(1, (1.0,), 1), (2, (0.6, 0.4), 51)],
                         ids=["k1", "k2"])
@pytest.mark.parametrize("driver", [solve_bnb, enumerate_boxes], ids=["bnb", "enumerate"])
def test_failed_fixed_node_ends_gap_limit(monkeypatch, driver, k, heights, nodes):
    # every leaf's measure program stalls: the run must not claim a proof
    stalled = []

    def stall(decision, spec, lattice, **kwargs):
        stalled.append(decision)
        return "numerical-failure", float("nan"), None, None

    monkeypatch.setattr("drobox.search.adversary_problem", stall)
    inc = driver(line_model(k=k, heights=heights))
    assert stalled
    assert (inc.proof, inc.status) == ("gap-limit", "unknown")
    assert inc.objective == np.inf
    assert inc.node_count == nodes


@pytest.mark.parametrize("shortfall,proof", [(2e-9, "gap-limit"), (0.5e-9, "optimal")])
@pytest.mark.parametrize("driver", [solve_bnb, enumerate_boxes], ids=["bnb", "enumerate"])
def test_duals_short_of_the_threshold_row_leave_the_leaf_unresolved(
        monkeypatch, ref_model, driver, shortfall, proof):
    # lower y[1] - y[0] until each leaf's mapped duals meet the threshold
    # row b only to within shortfall: their lattice rows still hold, but
    # beyond 1e-9 they prove nothing, and no leaf may end optimal
    import drobox.search as search

    def short(decision, spec, lattice, **kwargs):
        out = adversary_problem(decision, spec, lattice, **kwargs)
        duals = out[3]
        if duals is None:
            return out
        excess = duals.dual_objective() - spec.b + shortfall
        y = np.array(duals.y)
        y[0] += max(excess - y[1], 0.0)
        y[1] -= min(excess, y[1])
        moved = DualSolution(duals.Y1, duals.Y2, y, spec)
        assert moved.dual_objective() == pytest.approx(spec.b - shortfall, abs=1e-12)
        return out[:3] + (moved,)

    monkeypatch.setattr(search, "adversary_problem", short)
    inc = driver(ref_model, SearchOptions())
    assert inc.proof == proof
    if proof == "optimal":
        assert inc.objective == pytest.approx(2.0, abs=1e-6)
    else:
        assert (inc.status, inc.objective) == ("unknown", np.inf)


@pytest.mark.parametrize("k,heights,objective,status", [
    (1, (1.0,), -np.inf, "infeasible-model"), (2, (0.6, 0.4), -0.15, "solved")])
def test_user_corner_constraint_decides_leaves_without_a_solve(k, heights, objective,
                                                               status, monkeypatch):
    # max sum(lo - hi) subject to hi <= 0.15 on box 0: a leaf that breaks
    # the constraint is infeasible without its measure program, and with
    # k = 1 the pool rules out every leaf that keeps it
    con = LinearConstraint([0.0] * k + [1.0] + [0.0] * (k - 1), "<=", 0.15)
    model = line_model(k=k, heights=heights, mode=VariableBoxes(
        c_minus=[[1]] * k, c_plus=[[-1]] * k, sense="max", constraints=[con]))
    his = []

    def adversary_spy(decision, *args, **kwargs):
        # box 0 is the one with its (distinct) height, unless it is empty
        his.extend(float(box.upper[0]) for h, box in zip(decision.heights, decision.boxes)
                   if h == heights[0])
        return adversary_problem(decision, *args, **kwargs)

    monkeypatch.setattr("drobox.search.adversary_problem", adversary_spy)
    for driver in (enumerate_boxes, solve_bnb):
        his.clear()
        inc = driver(model, SearchOptions())
        assert (inc.proof, inc.status) == ("optimal", status)
        assert inc.objective == pytest.approx(objective, abs=1e-6)
        assert all(hi <= 0.15 + 1e-12 for hi in his), his
        # with k = 2 the optimal leaf is proved by its measure program
        assert bool(his) == (k == 2)


def test_user_corner_constraint_skips_the_floating_corners_of_empty_boxes():
    # hi >= 0.1 on box 0: an empty box (None) leaves its corners free, so
    # only a nonempty box can break the constraint; the zero-width box at
    # the origin is a nonempty box whose corners are pinned at 0
    con = LinearConstraint([0.0, 1.0], ">=", 0.1)
    model = line_model(mode=VariableBoxes(c_minus=[[1]], c_plus=[[-1]], constraints=[con]))
    origin = BoxRegion([0.0], [0.0])
    assert _leaf_objective(model, [None]) == pytest.approx(0.0, abs=1e-12)
    assert _leaf_objective(model, [origin]) is None
    assert _leaf_objective(model, [BoxRegion([0.0], [0.05])]) is None
    assert _leaf_objective(model, [BoxRegion([0.05], [0.1])]) == pytest.approx(0.05)


@pytest.mark.parametrize("driver", [solve_bnb, enumerate_boxes], ids=["bnb", "enumerate"])
def test_zero_width_box_at_the_origin_is_not_the_empty_box(driver):
    # eps_mu = 0 and mu = 0 leave only the point mass at 0 in the ambiguity
    # set, so the point box [0, 0] keeps the expectation at 1 with width 0
    # while the empty box gives 0 < b
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0], sigma=[[1.0]], eps_mu=0.0, eps_sigma=1.0, b=0.1)
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())
    inc = driver(search_instance(spec, fn, 0.1), SearchOptions())
    assert (inc.proof, inc.status) == ("optimal", "solved")
    assert inc.objective == pytest.approx(0.0, abs=1e-12)
    assert (inc.boxes[0].lower.tolist(), inc.boxes[0].upper.tolist()) == ([0.0], [0.0])
    cert = certify_solution(Decision(fn.heights, inc.boxes), inc.dual_vars, spec, 0.1)
    assert cert.verdict == "certified"


@pytest.mark.parametrize("driver", [solve_bnb, enumerate_boxes], ids=["bnb", "enumerate"])
def test_user_constraint_on_empty_box_corners_proves_infeasible(driver):
    # lo >= 0.3 on box 0 of the 0.2 line: no box fits, and an empty box's
    # floating corners stay inside the domain, so every leaf is infeasible
    con = LinearConstraint([1.0, 0.0, 0.0, 0.0], ">=", 0.3)
    model = line_model(k=2, heights=(0.6, 0.4), mode=VariableBoxes(
        c_minus=[[1], [1]], c_plus=[[-1], [-1]], sense="max", constraints=[con]))
    inc = driver(model, SearchOptions())
    assert (inc.proof, inc.status) == ("optimal", "infeasible-model")
    assert inc.objective == -np.inf


def test_search_is_deterministic():
    model = line_model(k=2, heights=(0.6, 0.4))
    runs = [solve_bnb(model, SearchOptions()) for _ in range(2)]
    assert runs[0].objective == runs[1].objective
    assert runs[0].node_count == runs[1].node_count
    assert runs[0].proof == runs[1].proof
    for a, b in zip(runs[0].boxes, runs[1].boxes):
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)


def test_enumerate_rejects_large_instances(ref_spec, monkeypatch):
    # two boxes on the reference at delta = 0.1: 4,357^2 (about 19 million)
    # candidate sets of boxes, refused before any measure solve
    solves = []
    monkeypatch.setattr("drobox.search.adversary_problem",
                        lambda *args, **kwargs: solves.append(args))
    fn = SimpleFunctionSpec(k=2, heights=[0.6, 0.4], mode=VariableBoxes())
    with pytest.raises(ValueError, match="instance-too-large: .* 18983449;"):
        enumerate_boxes(search_instance(ref_spec, fn, 0.1), SearchOptions())
    assert solves == []


# ---------------------------------------------------------------------------
# bnb batches

# the sets of boxes solve_bnb decides, in order, the whole-domain seed first:
# per height the lattice index corners [lo, hi] of its box, None for an empty
# one.  A loop that expanded one node per pop decided the same sets.
_BNB_LEAVES = {
    "reference-0.05": [
        [[[0, 0], [20, 20]]], [[[0, 0], [8, 6]]], [[[0, 0], [10, 6]]], [[[0, 0], [10, 10]]],
        [[[0, 0], [15, 6]]], [[[0, 0], [8, 15]]], [[[0, 0], [10, 15]]], [[[0, 0], [15, 10]]],
        [[[0, 0], [20, 6]]], [[[0, 0], [8, 20]]], [[[0, 0], [10, 20]]], [[[0, 0], [20, 10]]],
        [[[0, 0], [15, 15]]], [[[0, 0], [20, 11]]], [[[0, 0], [20, 12]]], [[[0, 0], [20, 13]]],
        [[[0, 0], [20, 14]]]],
    "reference-1/30": [
        [[[0, 0], [30, 30]]], [[[0, 0], [13, 9]]], [[[0, 0], [15, 9]]], [[[0, 0], [13, 15]]],
        [[[0, 0], [15, 15]]], [[[0, 0], [22, 9]]], [[[0, 0], [13, 22]]], [[[0, 0], [22, 15]]],
        [[[0, 0], [15, 22]]], [[[0, 0], [30, 9]]], [[[0, 0], [13, 30]]], [[[0, 0], [22, 22]]],
        [[[0, 0], [15, 30]]], [[[0, 0], [30, 15]]]],
    "line-two-boxes": [[[[0], [4]], [[0], [4]]], [[[3], [4]], [[0], [2]]]],
    "two-boxes-0.1": [[[[0, 0], [10, 10]], [[0, 0], [10, 10]]],
                      [[[0, 0], [4, 3]], [[0, 0], [4, 3]]]],
    "two-boxes-0.05": [
        [[[0, 0], [20, 20]], [[0, 0], [20, 20]]], [[[0, 0], [8, 6]], None],
        [[[0, 0], [10, 10]], [[0, 0], [0, 5]]], [[[0, 0], [10, 15]], [[0, 0], [0, 0]]],
        [[[0, 0], [15, 10]], [[0, 0], [0, 0]]], [[[0, 0], [10, 15]], [[0, 0], [0, 5]]],
        [[[0, 0], [10, 20]], [[0, 0], [0, 0]]], [[[0, 0], [20, 10]], [[0, 0], [0, 0]]],
        [[[0, 0], [15, 15]], [[0, 0], [0, 0]]], [[[0, 0], [20, 6]], [[0, 0], [5, 0]]],
        [[[0, 0], [10, 20]], [[0, 0], [0, 5]]], [[[0, 0], [15, 15]], [[0, 0], [0, 5]]],
        [[[0, 0], [20, 10]], [[0, 0], [5, 0]]], [[[0, 0], [15, 15]], [[0, 0], [5, 0]]],
        [[[0, 0], [15, 20]], [[0, 0], [0, 0]]], [[[0, 0], [20, 15]], [[0, 0], [0, 0]]],
        [[[0, 0], [20, 20]], None]],
    "line-three-boxes": [[[[0], [8]], [[0], [8]], [[0], [8]]],
                         [[[3], [4]], [[0], [2]], [[5], [8]]]],
    "line-three-corner-costs": [[[[0], [4]], [[0], [4]], [[0], [4]]],
                                [[[3], [4]], [[0], [2]], None]],
}
_BNB_OBJECTIVES = {"reference-0.05": 1.7, "reference-1/30": 1.5, "line-two-boxes": 0.15,
                   "two-boxes-0.1": 4.0, "two-boxes-0.05": 2.0, "line-three-boxes": 0.15,
                   "line-three-corner-costs": -0.15}


def _bnb_case(which, ref_spec, ref_fn):
    two = SimpleFunctionSpec(k=2, heights=[0.6, 0.4], mode=VariableBoxes())
    # without the quantum's rounding, a bound shows the order of its three heights' sum
    corners = VariableBoxes(c_minus=[[1]] * 3, c_plus=[[-1]] * 3, sense="max")
    return {"reference-0.05": lambda: search_instance(ref_spec, ref_fn, 0.05),
            "reference-1/30": lambda: search_instance(ref_spec, ref_fn, 1 / 30),
            "line-two-boxes": lambda: line_model(k=2, heights=(0.6, 0.4)),
            "two-boxes-0.1": lambda: search_instance(ref_spec, two, 0.1),
            "two-boxes-0.05": lambda: search_instance(ref_spec, two, 0.05),
            "line-three-boxes": lambda: line_model(k=3, heights=(0.5, 0.3, 0.2), delta=0.025),
            "line-three-corner-costs": lambda: line_model(k=3, heights=(0.5, 0.3, 0.2),
                                                          mode=corners)}[which]()


def _one_node_bound(inst, node) -> float:
    """A node's bound as a loop over its heights computes it, one box at a time."""
    total = sum(inst.empty_bounds[i] if p[3, 0] < 0 else
                float(_box_bounds(inst, i, *inst.lattice.axis[p])) for i, p in enumerate(node))
    if inst.quantum is None:
        return total
    return math.ceil(total / inst.quantum - 1e-9) * inst.quantum


def _spy_bnb(monkeypatch) -> tuple:
    """Lists that fill with the sets of boxes solve_bnb decides, as in
    _BNB_LEAVES, and with the number of nodes in each batch it expands;
    every node of a root or child group must carry the group's bound as the
    one-node loop computes it, and only a group's last node may be a leaf."""
    import drobox.search as search

    leaves, batches = [], []
    solve, best_first = search._solve_candidate, search._best_first

    def checked(inst, groups):
        for bound, group, leaf in groups:
            assert len(group) > 0
            for j, node in enumerate(group):
                assert bound == _one_node_bound(inst, node)
                is_leaf = bool(np.all(node[:, [1, 3]] == node[:, [0, 2]]))
                assert is_leaf == (leaf and j == len(group) - 1)
        return groups

    def deciding(inst, boxes, pool):
        leaves.append([None if box is None else [inst.lattice.indices(box.lower).tolist(),
                                                 inst.lattice.indices(box.upper).tolist()]
                       for box in boxes])
        return solve(inst, boxes, pool)

    def batching(inst, pool, roots, expand, *rest):
        def spy(batch):
            batches.append(sum(len(group) for group in batch))
            children, boxes = expand(batch)
            return checked(inst, children), boxes
        return best_first(inst, pool, checked(inst, roots), spy, *rest)

    monkeypatch.setattr(search, "_solve_candidate", deciding)
    monkeypatch.setattr(search, "_best_first", batching)
    return leaves, batches


@pytest.mark.parametrize("which", list(_BNB_LEAVES))
def test_bnb_batches_decide_the_leaves_of_one_node_per_pop(ref_spec, ref_fn, monkeypatch,
                                                           which):
    # a batch screens, halves and bounds the run of tied nodes at once; no
    # leaf is decided before the batch's last node, so the leaves and their
    # order are those of one node per pop
    leaves, batches = _spy_bnb(monkeypatch)
    inc = solve_bnb(_bnb_case(which, ref_spec, ref_fn), SearchOptions())
    assert leaves == _BNB_LEAVES[which]
    assert (inc.proof, inc.status, inc.node_count) == ("optimal", "solved", len(leaves) - 1)
    assert inc.objective == pytest.approx(_BNB_OBJECTIVES[which], abs=1e-9)
    assert max(batches) > 1 and len(batches) < sum(batches)


@pytest.mark.parametrize("which", ["reference-0.05", "line-three-boxes"])
def test_bnb_with_one_set_per_screen_pops_one_node_at_a_time(ref_spec, ref_fn, monkeypatch,
                                                            which):
    # a screen budget of one set caps every group and batch at one node, so
    # the loop expands one node per pop, and decides the same leaves
    monkeypatch.setattr("drobox.search._SCREEN_BUDGET", 1)
    leaves, batches = _spy_bnb(monkeypatch)
    inc = solve_bnb(_bnb_case(which, ref_spec, ref_fn), SearchOptions())
    assert set(batches) == {1}
    assert leaves == _BNB_LEAVES[which]
    assert inc.objective == pytest.approx(_BNB_OBJECTIVES[which], abs=1e-9)


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, 7])
def test_bnb_node_limit_stops_at_a_leaf_that_ends_a_batch(ref_spec, ref_fn, monkeypatch,
                                                         limit):
    # each of these budgets runs out at the leaf of a batch that holds inner
    # nodes too: they are expanded, the leaf is not decided, and the run
    # keeps the seed incumbent with the leaves of one node per pop
    leaves, batches = _spy_bnb(monkeypatch)
    inc = solve_bnb(_bnb_case("reference-0.05", ref_spec, ref_fn),
                    SearchOptions(node_limit=limit))
    assert batches[-1] > 1
    assert leaves == _BNB_LEAVES["reference-0.05"][:limit + 1]
    assert (inc.proof, inc.status, inc.node_count) == ("resource-limit", "solved", limit)
    assert inc.objective == pytest.approx(2.0, abs=1e-9)


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
