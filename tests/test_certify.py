import dataclasses
import logging
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from drobox.certify import (
    Pricer,
    _duals_prove,
    _seeds,
    adversary_oracle,
    adversary_problem,
    certify_solution,
    column_generation,
    sample_fc,
    weak_duality_gap,
)
from drobox.lipschitz import lipschitz_certificate, safety_margin
from drobox.model import (
    AmbiguitySpec,
    BoxRegion,
    ConfidenceSet,
    Decision,
    DualSolution,
    SimpleFunctionSpec,
    VariableBoxes,
    lattice_points,
)
from drobox.sdp import _compile, solve_sdp, svec, svec_len
from drobox.search import SearchInstance, SearchOptions, enumerate_boxes
from oracles import dual_integrand, family_violation, first_moment_block


def searched(spec, fn, delta):
    """The enumerate_boxes incumbent at step delta, with the safety margin."""
    margin = safety_margin(lipschitz_certificate(spec, fn).L, delta, spec.m)
    lattice = lattice_points(spec.edge, spec.m, delta)
    return enumerate_boxes(SearchInstance(spec, fn, lattice, margin), SearchOptions())


@pytest.fixture
def line_spec():
    return AmbiguitySpec.with_normalization(
        edge=0.2, mu=[0.1], sigma=[[1.0]], eps_mu=0.05, eps_sigma=1.0, b=0.1
    )


def zero_dual(spec):
    m = spec.m
    return DualSolution(
        Y1=np.zeros((m + 1, m + 1)),
        Y2=np.zeros((m, m)),
        y=np.zeros(len(spec.confidence_sets)),
        spec=spec,
    )


def fallback_dual(spec):
    """y carries b on the (T, +1) normalization row, matrices zero."""
    m = spec.m
    y = np.zeros(len(spec.confidence_sets))
    y[1] = spec.b
    return DualSolution(
        Y1=np.zeros((m + 1, m + 1)), Y2=np.zeros((m, m)), y=y, spec=spec
    )


def full_box_decision(spec):
    box = BoxRegion(np.zeros(spec.m), np.full(spec.m, spec.edge))
    return Decision(heights=np.array([1.0]), boxes=[box])


# ---------------------------------------------------------------------------
# adversary oracle


def test_oracle_full_box_is_total_mass(ref_spec):
    value = adversary_oracle(
        full_box_decision(ref_spec), ref_spec, lattice_points(1.0, 2, 0.05)
    )
    assert value == pytest.approx(1.0, abs=1e-7)


def test_oracle_falsifies_tiny_box_under_huge_ambiguity():
    spec = AmbiguitySpec.with_normalization(
        edge=0.2, mu=[0.1], sigma=[[1.0]], eps_mu=100.0, eps_sigma=100.0, b=0.1
    )
    decision = Decision(
        heights=np.array([1.0]), boxes=[BoxRegion([0.1], [0.1])]
    )
    value = adversary_oracle(spec=spec, decision=decision,
                             fine_lattice=lattice_points(0.2, 1, 0.025))
    # a point mass on any other atom is admissible and escapes the box
    assert value <= 1e-7
    assert value < spec.b - 1e-6


def assert_feasible_measure(weights, spec, fine, decision, value):
    """weights is a probability vector over fine.points inside the
    discrete ambiguity family, with expectation value for decision."""
    assert weights.shape == (fine.n_points,)
    assert weights.min() >= 0.0
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-7)
    blocks = sum(
        w * first_moment_block(t, spec)
        for w, t in zip(weights, fine.points)
    )
    assert np.linalg.eigvalsh(blocks).min() >= -1e-7
    d = fine.points - spec.mu
    second = sum(w * np.outer(dj, dj) for w, dj in zip(weights, d))
    cap = spec.eps_sigma * spec.sigma - second
    assert np.linalg.eigvalsh(cap).min() >= -1e-7
    for cs in spec.confidence_sets[2:]:
        mass = float(weights @ cs.region.contains(fine.points))
        assert math.copysign(1.0, cs.eps) * mass >= cs.eps - 1e-7
    expect = float(weights @ decision.evaluate(fine.points))
    assert expect == pytest.approx(value, abs=1e-8)


def test_oracle_measure_is_feasible(line_spec):
    decision = Decision(
        heights=np.array([1.0]), boxes=[BoxRegion([0.05], [0.15])]
    )
    fine = lattice_points(0.2, 1, 0.025)
    status, value, weights, _ = adversary_problem(decision, line_spec, fine)
    assert status == "optimal"
    assert_feasible_measure(weights, line_spec, fine, decision, value)


def _column_generation_case(which, ref_spec, line_spec):
    if which == "reference":
        return (Decision([1.0], [BoxRegion([0.0, 0.0], [0.5, 0.5])]), ref_spec,
                lattice_points(1.0, 2, 0.05))
    if which == "line":
        return (Decision([1.0], [BoxRegion([0.05], [0.15])]), line_spec,
                lattice_points(0.2, 1, 0.0125))
    if which == "tight-moments":
        # a tight covariance makes both moment blocks bind (nonzero LMI
        # duals); the confidence rows, one of each sign, stay slack
        spec = AmbiguitySpec.with_normalization(
            edge=1.0, mu=[0.5, 0.5], sigma=[[0.02, 0.005], [0.005, 0.01]],
            eps_mu=0.1, eps_sigma=1.0, b=0.1,
            extra_sets=(ConfidenceSet(BoxRegion([0.3, 0.3], [0.55, 0.7]), 0.3),
                        ConfidenceSet(BoxRegion([0.55, 0.3], [0.7, 0.7]), -0.5)),
        )
        return (Decision([1.0], [BoxRegion([0.3, 0.3], [0.7, 0.7])]), spec,
                lattice_points(1.0, 2, 0.05))
    # 0.9 of the mass must sit on 0.0625, 0.075 or 0.0875, none of which is
    # on the 5-point seed 0, 0.05, ..., 0.2
    spec = AmbiguitySpec.with_normalization(
        edge=0.2, mu=[0.1], sigma=[[1.0]], eps_mu=0.05, eps_sigma=1.0, b=0.1,
        extra_sets=(ConfidenceSet(BoxRegion([0.06], [0.09]), 0.9),),
    )
    return (Decision([1.0], [BoxRegion([0.05], [0.15])]), spec,
            lattice_points(0.2, 1, 0.0125))


_ROUND_LINE = re.compile(
    r"^round=\d+ atoms=\d+ value=\S+ min_reduced_cost=\S+ status=[a-z-]+$")


@pytest.mark.parametrize("which", ["reference", "line", "confidence-off-seed",
                                   "tight-moments"])
def test_column_generation_matches_the_whole_lattice(ref_spec, line_spec, which, caplog):
    decision, spec, fine = _column_generation_case(which, ref_spec, line_spec)
    direct = solve_sdp(Pricer(spec, fine.points).master(decision.evaluate(fine.points),
                                                        np.arange(fine.n_points)))
    assert direct.status == "optimal"
    with caplog.at_level(logging.DEBUG, logger="drobox.certify"):
        status, value, weights, _ = adversary_problem(decision, spec, fine)
    assert status == "optimal"
    assert value == pytest.approx(direct.objective, abs=1e-7)
    assert_feasible_measure(weights, spec, fine, decision, value)
    lines = [r.getMessage() for r in caplog.records if r.name == "drobox.certify"]
    assert lines and all(_ROUND_LINE.match(line) for line in lines), lines
    assert lines[-1].endswith("status=optimal")
    atoms = [int(re.search(r"atoms=(\d+)", line).group(1)) for line in lines]
    assert max(atoms) < fine.n_points  # never the whole lattice
    if which == "confidence-off-seed":
        assert lines[0] == "round=1 atoms=5 value=nan min_reduced_cost=nan status=infeasible"
        assert atoms[1] == 9  # the seed grew to 9 points


def _random_psd_duals(spec, seed):
    rng = np.random.default_rng(seed)
    Z1, Z2 = rng.normal(size=(spec.m + 1, spec.m + 1)), rng.normal(size=(spec.m, spec.m))
    y = np.abs(rng.normal(size=len(spec.confidence_sets)))
    return DualSolution(Z1 @ Z1.T, Z2 @ Z2.T, y, spec)


def _round_lines(caplog, run):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="drobox.certify"):
        out = run()
    return out, [r.getMessage() for r in caplog.records if r.name == "drobox.certify"]


@pytest.mark.parametrize("which", ["reference", "line", "confidence-off-seed",
                                   "tight-moments"])
def test_hinted_start_matches_the_whole_lattice(ref_spec, line_spec, which, caplog):
    # the duals only choose the first master, so with the duals of its own
    # margin solve, or with any PSD duals, the answer is the lattice optimum
    decision, spec, fine = _column_generation_case(which, ref_spec, line_spec)
    direct = solve_sdp(Pricer(spec, fine.points).master(decision.evaluate(fine.points),
                                                        np.arange(fine.n_points)))
    own = adversary_problem(decision, spec, fine, margin=0.1)[3]
    seed, entered = next(_seeds(fine, spec)), []
    for duals in (own, _random_psd_duals(spec, 5), _random_psd_duals(spec, 6)):
        (status, value, weights, _), lines = _round_lines(
            caplog, lambda: adversary_problem(decision, spec, fine, duals=duals))
        assert status == "optimal"
        assert value == pytest.approx(direct.objective, abs=1e-7)
        assert_feasible_measure(weights, spec, fine, decision, value)
        # the first master: the seed plus the atoms whose row lies below the
        # seed's lowest, at most 10 of them
        rows = dual_integrand(fine.points, decision.heights, decision.boxes,
                              duals.Y1, duals.Y2, duals.y, spec)
        below = int(np.sum(rows < rows[seed].min() - 1e-9))
        assert lines[0].startswith("round=1 atoms=%d " % (seed.size + min(below, 10)))
        entered.append(below)
    assert which == "line" or max(entered) > 0


@pytest.mark.parametrize("which", ["reference", "line", "confidence-off-seed",
                                   "tight-moments"])
def test_duals_that_price_no_atom_below_the_seed_leave_the_plain_seed(ref_spec, line_spec,
                                                                     which, caplog):
    # zero duals price each atom at the decision's value, 0 on the seed's
    # atoms outside the box, so no atom enters and the rounds are those
    # without duals (zero heights take no master: see the constant tests)
    decision, spec, fine = _column_generation_case(which, ref_spec, line_spec)
    plain, want = _round_lines(caplog, lambda: adversary_problem(decision, spec, fine))
    hinted, lines = _round_lines(
        caplog, lambda: adversary_problem(decision, spec, fine, duals=zero_dual(spec)))
    assert lines == want
    assert lines[0].startswith("round=1 atoms=%d " % next(_seeds(fine, spec)).size)
    assert hinted[:2] == plain[:2] and np.array_equal(hinted[2], plain[2])


def _constant_cases(which, ref_spec, line_spec):
    """(decision, spec, fine, value): a decision with one value on every atom."""
    if which == "whole-domain":
        return full_box_decision(ref_spec), ref_spec, lattice_points(1.0, 2, 0.05), 1.0
    if which == "two-whole-domain-boxes":
        box = BoxRegion([0.0], [0.2])
        return (Decision([0.6, 0.4], [box, box]), line_spec, lattice_points(0.2, 1, 0.0125),
                0.6 + 0.4)
    # zero heights on a box that covers part of the lattice
    decision, spec, fine = _column_generation_case(which, ref_spec, line_spec)
    return Decision(np.zeros(len(decision.heights)), decision.boxes), spec, fine, 0.0


@pytest.mark.parametrize("which", ["whole-domain", "two-whole-domain-boxes", "reference",
                                   "line", "confidence-off-seed", "tight-moments"])
def test_constant_decision_takes_no_master(ref_spec, line_spec, which, monkeypatch, caplog):
    # every measure of the ambiguity set gives a constant its own value, so
    # with some feasible point mass that mass is a worst case, with or
    # without duals to hint the first master
    import drobox.certify as certify

    decision, spec, fine, value = _constant_cases(which, ref_spec, line_spec)
    # the mass row's multiplier alone prices every atom at reduced cost 0
    vals = decision.evaluate(fine.points)
    price = Pricer(spec, fine.points)
    _, master = price.constant_master(vals)
    assert master.objective == value and not price.reduced_costs(vals, master).any()
    solves = []
    monkeypatch.setattr(certify, "solve_sdp", lambda program, **kwargs: solves.append(program))
    for duals in (None, zero_dual(spec), _random_psd_duals(spec, 5)):
        (status, got, weights, _), lines = _round_lines(
            caplog, lambda: adversary_problem(decision, spec, fine, duals=duals))
        assert (status, got) == ("optimal", value)
        assert (solves, lines) == ([], [])
        support = np.flatnonzero(weights)
        assert weights[support].tolist() == [1.0]
        assert Pricer(spec, fine.points).point_masses()[support].all()
        assert_feasible_measure(weights, spec, fine, decision, value)


@pytest.mark.parametrize("which", ["whole-domain", "two-whole-domain-boxes"])
def test_constant_decision_duals_prove_it_when_the_value_less_margin_meets_b(
        ref_spec, line_spec, which):
    # the mass row's multiplier alone: every lattice row sits at the margin,
    # and the threshold row reads the value less the margin
    decision, spec, fine, value = _constant_cases(which, ref_spec, line_spec)
    for margin in (0.0, value - spec.b - 0.01, value - spec.b + 0.01):
        status, _, _, duals = adversary_problem(decision, spec, fine, margin=margin)
        assert status == "optimal"
        rows = dual_integrand(fine.points, decision.heights, decision.boxes,
                              duals.Y1, duals.Y2, duals.y, spec)
        assert rows.tolist() == [margin] * fine.n_points
        assert duals.dual_objective() == value - margin
        assert _duals_prove(duals, spec.b) == (value - margin >= spec.b)


def test_constant_decision_without_a_feasible_point_mass_solves_its_masters(line_spec,
                                                                           caplog):
    # half the mass on each end of the line: no point mass is feasible, so
    # column generation decides the constant, to the solver's accuracy
    spec = AmbiguitySpec.with_normalization(
        edge=0.2, mu=[0.1], sigma=[[1.0]], eps_mu=0.05, eps_sigma=1.0, b=0.1,
        extra_sets=(ConfidenceSet(BoxRegion([0.0], [0.05]), 0.4),
                    ConfidenceSet(BoxRegion([0.15], [0.2]), 0.4)))
    fine = lattice_points(0.2, 1, 0.0125)
    assert not Pricer(spec, fine.points).point_masses().any()
    decision = Decision([1.0], [BoxRegion([0.0], [0.2])])
    (status, value, weights, _), lines = _round_lines(
        caplog, lambda: adversary_problem(decision, spec, fine))
    assert status == "optimal" and lines
    assert value == pytest.approx(1.0, abs=1e-7)
    assert_feasible_measure(weights, spec, fine, decision, value)
    assert np.count_nonzero(weights > 1e-6) >= 2


def test_hinted_master_that_fails_falls_back_to_the_plain_seed(ref_spec, monkeypatch, caplog):
    # a failed first master restarts the rounds from the seed, and from
    # there they are the rounds without duals
    import drobox.certify as certify

    decision, spec, fine = _column_generation_case("reference", ref_spec, None)
    plain, want = _round_lines(caplog, lambda: adversary_problem(decision, spec, fine))
    solve, calls = certify.solve_sdp, []

    def fail_first(program, **kwargs):
        calls.append(len(program.scalar_vars))
        sol = solve(program, **kwargs)
        return dataclasses.replace(sol, status="numerical-failure") if len(calls) == 1 else sol

    monkeypatch.setattr(certify, "solve_sdp", fail_first)
    duals = _random_psd_duals(spec, 5)
    hinted, lines = _round_lines(caplog, lambda: adversary_problem(decision, spec, fine,
                                                                   duals=duals))
    assert calls[0] > calls[1] == next(_seeds(fine, spec)).size
    assert lines[0] == ("round=1 atoms=%d value=nan min_reduced_cost=nan "
                        "status=numerical-failure" % calls[0])
    assert [line.split(" ", 1)[1] for line in lines[1:]] == [
        line.split(" ", 1)[1] for line in want]
    assert hinted[:2] == plain[:2] and np.array_equal(hinted[2], plain[2])


def test_point_masses_are_the_atoms_whose_point_mass_is_in_the_ambiguity_set():
    # the definition, atom by atom: both moment constraints as eigenvalue
    # tests, and every confidence row sgn(eps) P(C) >= eps with P(C) = 1[t in C]
    sigma = np.array([[0.05, 0.01], [0.01, 0.03]])
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.2, 0.3], sigma=sigma, eps_mu=0.4, eps_sigma=1.5, b=0.1,
        extra_sets=(ConfidenceSet(BoxRegion([0.0, 0.0], [0.6, 0.35]), 0.5),
                    ConfidenceSet(BoxRegion([0.3, 0.0], [0.4, 1.0]), -0.2),
                    ConfidenceSet(BoxRegion([0.0, 0.5], [1.0, 1.0]), -1.0)))
    pts = lattice_points(1.0, 2, 0.05).points
    want = []
    for t in pts:
        d = t - spec.mu
        block = np.block([[sigma, d[:, None]], [d[None, :], np.array([[spec.eps_mu]])]])
        moments = min(np.linalg.eigvalsh(block).min(),
                      np.linalg.eigvalsh(spec.eps_sigma * sigma - np.outer(d, d)).min()) >= 0
        rows = all(math.copysign(1.0, cs.eps) * float(cs.region.contains(t)) >= cs.eps
                   for cs in spec.confidence_sets)
        want.append(moments and rows)
    got = Pricer(spec, pts).point_masses()
    assert got.tolist() == want
    assert 0 < got.sum() < len(pts)


@pytest.mark.parametrize("which", ["reference", "tight-moments"])
def test_pricing_matches_the_compiled_reduced_costs(ref_spec, which):
    # under any duals y, the reduced cost of weight column j in the
    # solver's own standard form is c_j - A_j^T y; random duals make every
    # term of the batched pricing count
    decision, spec, fine = _column_generation_case(which, ref_spec, None)
    vals = decision.evaluate(fine.points)
    price = Pricer(spec, fine.points)
    program = price.master(vals, np.arange(fine.n_points))
    comp = _compile(program)
    rng = np.random.default_rng(3)
    duals = SimpleNamespace(row_duals=rng.normal(size=program.n_rows), lmi_duals=[])
    y = np.zeros(comp.A.shape[0])
    y[: program.n_rows] = duals.row_duals  # program rows compile first, in order
    for start, d in comp.lmi_row_spans:
        Z = rng.normal(size=(d, d))
        duals.lmi_duals.append(Z + Z.T)
        y[start:start + svec_len(d)] = svec(Z + Z.T)
    n = fine.n_points
    compiled = comp.c[:n] - comp.A[:, :n].T @ y
    priced = price.reduced_costs(vals, duals)
    assert np.max(np.abs(priced - compiled)) <= 1e-12 * (1.0 + np.max(np.abs(compiled)))


@pytest.mark.parametrize("which", ["reference", "tight-moments", "confidence-off-seed"])
def test_memo_answers_a_repeated_master_bitwise(ref_spec, line_spec, monkeypatch, which):
    # a Pricer's kept masters change no bit of the answer: a fresh Pricer
    # solves what a call without one solves, and a second call solves nothing
    import drobox.certify as certify

    decision, spec, fine = _column_generation_case(which, ref_spec, line_spec)
    solves = []
    solve = certify.solve_sdp
    monkeypatch.setattr(certify, "solve_sdp",
                        lambda program, **kwargs: solves.append(1) or solve(program, **kwargs))
    price = Pricer(spec, fine.points)
    runs = [adversary_problem(decision, spec, fine, margin=0.1, price=p) for p in (None, price)]
    assert len(price._solved) == len(solves) // 2 >= 2
    solves.clear()
    runs.append(adversary_problem(decision, spec, fine, margin=0.1, price=price))
    assert solves == []
    for status, value, weights, duals in runs[1:]:
        assert (status, value) == runs[0][:2] and status == "optimal"
        assert np.array_equal(weights, runs[0][2])
        for key in ("Y1", "Y2", "y"):
            assert np.array_equal(getattr(duals, key), getattr(runs[0][3], key))


def test_column_generation_stops_below_the_threshold(ref_spec):
    decision, spec, fine = _column_generation_case("reference", ref_spec, None)
    _, optimum, _, _ = adversary_problem(decision, spec, fine)
    status, value, weights, _ = adversary_problem(decision, spec, fine, stop_below=1.0)
    # an iterate of the first master already falls below 1; its repaired
    # measure is feasible, so its value bounds the lattice optimum from above
    assert status == "stopped"
    assert optimum + 1e-6 < value < 1.0
    assert_feasible_measure(weights, spec, fine, decision, value)


def test_the_memo_keeps_converged_masters_only(ref_spec, monkeypatch):
    # a stopped master is not kept, so the search's call is solved again, to
    # the same answer; a converged master answers a later search call with
    # its repaired measure and a certificate call with its LP objective, each
    # bit for bit what a fresh solve gives
    import drobox.certify as certify

    decision, spec, fine = _column_generation_case("reference", ref_spec, None)
    solve, statuses = certify.solve_sdp, []

    def spy(program, **kwargs):
        sol = solve(program, **kwargs)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(certify, "solve_sdp", spy)
    price = Pricer(spec, fine.points)
    stopped = adversary_problem(decision, spec, fine, stop_below=1.0, price=price)
    assert stopped[0] == "stopped" and statuses == ["stopped"] and price._solved == {}
    again = adversary_problem(decision, spec, fine, stop_below=1.0, price=price)
    assert statuses == ["stopped"] * 2
    assert again[:2] == stopped[:2] and np.array_equal(again[2], stopped[2])

    # below every value no iterate stops: the masters converge and are kept
    searched = adversary_problem(decision, spec, fine, stop_below=-1.0, price=price)
    assert searched[0] == "optimal" and set(statuses[2:]) == {"optimal"}
    statuses.clear()
    hit = adversary_problem(decision, spec, fine, stop_below=-1.0, price=price)
    full = adversary_problem(decision, spec, fine, price=price)
    assert statuses == []
    fresh = [adversary_problem(decision, spec, fine, stop_below=-1.0),
             adversary_problem(decision, spec, fine)]
    for got, want in zip((hit, full), fresh):
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
    # the search's value is that of its repaired measure, a member of the
    # family; the certificate's is the LP objective of the raw weights
    assert abs(hit[1] - decision.evaluate(fine.points) @ hit[2]) <= 1e-15
    assert family_violation(hit[2], fine.points, spec) <= 1e-12
    assert not np.array_equal(full[2], hit[2])


def _line_with_confidence_rows():
    """The unit line at step 0.1 with P([0, 0.3]) >= 0.3 and P([0.7, 1]) <= 0.2;
    the moment blocks hold every measure, and only atoms up to 0.3 anchor."""
    line = lattice_points(1.0, 1, 0.1)
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.5], sigma=[[1.0]], eps_mu=1.0, eps_sigma=2.0, b=0.1,
        extra_sets=(ConfidenceSet(BoxRegion([0.0], [line.axis[3]]), 0.3),
                    ConfidenceSet(BoxRegion([line.axis[7]], [1.0]), -0.2)))
    return spec, line


def _repair_case(which, ref_spec):
    """(spec, lattice, active, weights): weights on the atoms active that
    break one constraint of the family by about 1e-6."""
    if which == "first-moment":
        # (1 - p) at mu = (0, 0) and p at (1, 1): sum_j w_j F1(t_j) loses its
        # positive semidefiniteness as p grows; bisect p to a least
        # eigenvalue of -1e-6, and put the mass off by 1e-7 too
        fine = lattice_points(1.0, 2, 0.05)
        active = next(_seeds(fine, ref_spec))
        ends = [np.flatnonzero((fine.points[active] == t).all(axis=1))[0]
                for t in ([0.0, 0.0], [1.0, 1.0])]

        def measure(p):
            w = np.zeros(active.size)
            w[ends] = 1.0 - p, p
            return w

        def least(p):
            return np.linalg.eigvalsh(sum(
                wj * first_moment_block(t, ref_spec)
                for wj, t in zip(measure(p), fine.points[active]))).min()

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if least(mid) > -1e-6 else (lo, mid)
        return ref_spec, fine, active, (1.0 + 1e-7) * measure(hi)
    spec, line = _line_with_confidence_rows()
    w = np.zeros(line.n_points)
    if which == "confidence-eps-positive":  # 1e-6 short of 0.3 in [0, 0.3]
        w[[3, 5]] = 0.3 - 1e-6, 0.7 + 1e-6
    else:  # 1e-6 over 0.2 in [0.7, 1]
        w[[8, 3]] = 0.2 + 1e-6, 0.8 - 1e-6
    return spec, line, np.arange(line.n_points), w


@pytest.mark.parametrize("which", ["first-moment", "confidence-eps-positive",
                                   "confidence-eps-negative"])
def test_repair_brings_weights_into_the_family(ref_spec, which):
    # the mixture with the anchor atom meets every block and row, and moves
    # the weights by little more than they broke the family
    spec, fine, active, w = _repair_case(which, ref_spec)
    pts = fine.points[active]
    assert 5e-7 <= family_violation(w, pts, spec) <= 2e-6
    mix = Pricer(spec, fine.points).repair(active)
    fixed = mix(w)
    assert family_violation(fixed, pts, spec) <= 1e-12
    assert np.abs(fixed - w).sum() <= 1e-4
    # a measure of the family is left as it is, up to rounding of its mass
    member = fixed / fixed.sum()
    assert np.abs(mix(member) - member).max() <= 1e-15


def test_repair_is_refused_without_a_strictly_feasible_anchor(ref_spec):
    spec, line = _line_with_confidence_rows()
    price = Pricer(spec, line.points)
    # no atom above 0.3 holds P([0, 0.3]) >= 0.3, let alone strictly
    assert price.repair(np.arange(4, 11)) is None
    # an anchor on the atom 0.8 breaks P([0.7, 1]) <= 0.2
    anchor = np.zeros(line.n_points)
    anchor[8] = 1.0
    assert price.repair(np.arange(line.n_points), anchor) is None
    assert price.repair(np.arange(line.n_points)) is not None
    # at mu = (0.05, 0.05) and eps_mu = 0.001 no atom at step 0.1 is even a
    # feasible point mass; the four around mu in equal parts are strictly inside
    tight = dataclasses.replace(ref_spec, mu=np.array([0.05, 0.05]), eps_mu=0.001)
    coarse = lattice_points(1.0, 2, 0.1)
    price = Pricer(tight, coarse.points)
    assert price.repair(np.arange(coarse.n_points)) is None
    square = np.flatnonzero(np.all(coarse.points <= 0.1 + 1e-12, axis=1))
    assert square.size == 4
    mix = price.repair(square, np.full(4, 0.25))
    fixed = mix(np.array([1.0, 0.0, 0.0, 0.0]))
    assert family_violation(fixed, coarse.points[square], tight) <= 1e-12


def test_search_repairs_on_the_analytic_center_without_an_anchor_atom(ref_spec):
    # with no strictly feasible atom, the measure the master's constraints
    # alone converge to anchors the repair, and an iterate so repaired
    # stops the master
    tight = dataclasses.replace(ref_spec, mu=np.array([0.05, 0.05]), eps_mu=0.001)
    coarse = lattice_points(1.0, 2, 0.1)
    decision = Decision([1.0], [BoxRegion([0.0, 0.0], [0.5, 0.5])])
    price = Pricer(tight, coarse.points)
    status, value, weights, _ = adversary_problem(decision, tight, coarse,
                                                  stop_below=1.5, price=price)
    assert status == "stopped" and value < 1.5
    assert any(center is not None for center in price._centers.values())
    assert family_violation(weights, coarse.points, tight) <= 1e-12


@pytest.mark.parametrize("statuses, final, first, sizes", [
    (["numerical-failure", "optimal"], (), None, [25, 81]),
    (["infeasible"] * 4, ("infeasible",), None, [25]),
    (["infeasible"] * 4, (), None, [25, 81, 289, 441]),
    (["numerical-failure", "optimal"], (), 30, [30, 25]),
    (["infeasible"] * 5, ("infeasible",), 30, [30]),
    (["infeasible"] * 5, (), 30, [30, 25, 81, 289, 441]),
], ids=["stall-restarts", "final-ends", "non-final-restarts", "first-falls-back",
        "first-final-ends", "first-non-final-restarts"])
def test_column_generation_restarts_a_non_optimal_master_unless_final(ref_spec, statuses,
                                                                     final, first, sizes):
    # a stub master on the 21 x 21 lattice, whose seeds hold 5 x 5, 9 x 9
    # and 17 x 17 atoms (mu is the corner atom) and then all 441; an
    # optimal master prices every atom at 0 and so ends the rounds.  A
    # non-optimal master on a given first set falls back to the 5 x 5 seed.
    lattice = lattice_points(1.0, 2, 0.05)
    seen, ends = [], iter(statuses)

    def solve(active):
        seen.append(active.size)
        return SimpleNamespace(status=next(ends), objective=1.0)

    active, sol = column_generation(lattice, ref_spec, solve,
                                    lambda sol: np.zeros(lattice.n_points), final=final,
                                    first=None if first is None else np.arange(first) * 7)
    assert seen == sizes
    assert (active.size, sol.status) == (sizes[-1], statuses[len(sizes) - 1])


def test_oracle_nonincreasing_under_refinement(line_spec):
    decision = Decision(
        heights=np.array([1.0]), boxes=[BoxRegion([0.05], [0.15])]
    )
    values = [
        adversary_oracle(decision, line_spec, lattice_points(0.2, 1, step))
        for step in (0.05, 0.025, 0.0125)
    ]
    assert values[0] >= values[1] - 1e-7
    assert values[1] >= values[2] - 1e-7


def test_oracle_infeasible_returns_nan(line_spec):
    # a confidence row demanding mass inside a sliver no atom hits
    spec = AmbiguitySpec.with_normalization(
        edge=0.2,
        mu=[0.1],
        sigma=[[1.0]],
        eps_mu=0.05,
        eps_sigma=1.0,
        b=0.1,
        extra_sets=(ConfidenceSet(BoxRegion([0.051], [0.074]), 0.9),),
    )
    value = adversary_oracle(
        full_box_decision(spec), spec, lattice_points(0.2, 1, 0.05)
    )
    assert math.isnan(value)


# ---------------------------------------------------------------------------
# weak duality


def test_gap_of_fallback_against_full_box(ref_spec):
    assert weak_duality_gap(fallback_dual(ref_spec), 1.0) == pytest.approx(
        0.9, abs=1e-12
    )


def test_gap_of_zero_dual(ref_spec):
    assert weak_duality_gap(zero_dual(ref_spec), 1.0) == pytest.approx(
        1.0, abs=1e-12
    )


def test_gap_nonnegative_for_solved_pair(ref_spec, ref_fn):
    inc = searched(ref_spec, ref_fn, 0.1)
    value = adversary_oracle(
        Decision(heights=np.asarray(ref_fn.heights, dtype=float),
                 boxes=list(inc.boxes)),
        ref_spec,
        lattice_points(1.0, 2, 0.05),
    )
    assert weak_duality_gap(inc.dual_vars, value) >= -1e-6


# ---------------------------------------------------------------------------
# f^c sampling


def test_sample_fc_zero_dual_box_floor(ref_spec):
    decision = Decision(
        heights=np.array([1.0]), boxes=[BoxRegion([0.3, 0.3], [0.5, 0.5])]
    )
    fc_min, argmin = sample_fc(
        decision, zero_dual(ref_spec), ref_spec, n_samples=2000, delta=0.1
    )
    assert fc_min == pytest.approx(0.0, abs=1e-12)
    assert not decision.boxes[0].contains(argmin)


def test_sample_fc_fallback_is_flat(ref_spec):
    fc_min, _ = sample_fc(
        full_box_decision(ref_spec),
        fallback_dual(ref_spec),
        ref_spec,
        delta=0.1,
    )
    # f^c = 1 - b everywhere on T
    assert fc_min == pytest.approx(1.0 - ref_spec.b, abs=1e-9)


def test_sample_fc_detects_corrupted_multiplier(ref_spec):
    corrupted = DualSolution(
        Y1=np.zeros((3, 3)),
        Y2=np.zeros((2, 2)),
        y=np.array([0.0, 1.5]),
        spec=ref_spec,
    )
    fc_min, _ = sample_fc(
        full_box_decision(ref_spec), corrupted, ref_spec, delta=0.1
    )
    assert fc_min == pytest.approx(1.0 - 1.5, abs=1e-9)
    assert fc_min < 0.0


def test_sample_fc_deterministic_per_seed(ref_spec):
    decision = Decision(
        heights=np.array([1.0]), boxes=[BoxRegion([0.2, 0.0], [0.9, 0.6])]
    )
    a = sample_fc(decision, zero_dual(ref_spec), ref_spec, seed=7, delta=0.1)
    b = sample_fc(decision, zero_dual(ref_spec), ref_spec, seed=7, delta=0.1)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])


def test_sample_fc_delta_is_keyword_only(ref_spec):
    with pytest.raises(TypeError):
        sample_fc(
            full_box_decision(ref_spec), zero_dual(ref_spec), ref_spec,
            100, 0, 0.1
        )


def test_fc_uses_lower_tent_for_negative_heights(ref_spec):
    # a negative height must not let f^c borrow mass outside the box, so
    # the tent sits inside: zero right at the boundary, -h at depth delta
    decision = Decision(
        heights=np.array([-0.5]), boxes=[BoxRegion([0.2, 0.2], [0.8, 0.8])]
    )
    from drobox.certify import fc_values

    dual = zero_dual(ref_spec)
    on_edge = fc_values(decision, dual, ref_spec, [[0.2, 0.5]], delta=0.1)
    deep = fc_values(decision, dual, ref_spec, [[0.5, 0.5]], delta=0.1)
    outside = fc_values(decision, dual, ref_spec, [[0.05, 0.5]], delta=0.1)
    assert on_edge[0] == pytest.approx(0.0, abs=1e-12)
    assert deep[0] == pytest.approx(-0.5, abs=1e-12)
    assert outside[0] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# end-to-end certificates


def test_certify_reference_solution(ref_spec, ref_fn):
    inc = searched(ref_spec, ref_fn, 0.1)
    decision = Decision(
        heights=np.asarray(ref_fn.heights, dtype=float), boxes=list(inc.boxes)
    )
    cert = certify_solution(decision, inc.dual_vars, ref_spec, delta=0.1)
    assert cert.verdict == "certified"
    assert cert.worst_case_expectation >= ref_spec.b - 1e-6
    assert cert.fc_min_sampled >= -1e-6
    assert cert.duality_gap >= -1e-6
    assert cert.fine_delta == pytest.approx(0.05)
    assert cert.samples == 10_000


def test_certify_maps_no_duals(ref_spec, ref_fn, ref_lattice, monkeypatch):
    # certify_solution reads only the adversary's value, so its oracle call
    # skips the dual mapping (two eigh and a pricing pass over every atom)
    import drobox.certify as certify

    inc = searched(ref_spec, ref_fn, 0.1)
    calls = []
    mapping = certify.Pricer.lattice_duals
    monkeypatch.setattr(certify.Pricer, "lattice_duals",
                        lambda self, *args: calls.append(args) or mapping(self, *args))
    decision = Decision(ref_fn.heights, inc.boxes)
    assert certify_solution(decision, inc.dual_vars, ref_spec, delta=0.1).verdict == "certified"
    assert calls == []
    # given a margin, as the search gives it, the duals are mapped
    assert adversary_problem(decision, ref_spec, ref_lattice, margin=0.1)[3] is not None
    assert len(calls) == 1


@pytest.mark.parametrize("which", ["reference", "tight-moments"])
def test_mapped_duals_put_the_lowest_lattice_row_at_the_margin(ref_spec, which):
    decision, spec, fine = _column_generation_case(which, ref_spec, None)
    status, _, _, duals = adversary_problem(decision, spec, fine, margin=0.3)
    assert status == "optimal"
    rows = dual_integrand(fine.points, decision.heights, decision.boxes,
                          duals.Y1, duals.Y2, duals.y, spec)
    assert float(rows.min()) == pytest.approx(0.3, abs=1e-10)


def test_certify_coarse_fine_lattice_is_inconclusive(ref_spec, ref_fn):
    inc = searched(ref_spec, ref_fn, 0.1)
    decision = Decision(
        heights=np.asarray(ref_fn.heights, dtype=float), boxes=list(inc.boxes)
    )
    cert = certify_solution(
        decision, inc.dual_vars, ref_spec, delta=0.1,
        fine_lattice=lattice_points(1.0, 2, 0.1),
    )
    assert cert.verdict == "inconclusive"
    assert math.isnan(cert.worst_case_expectation)


def test_certify_falsifies_gap_solution(line_spec):
    # the two-box optimum leaves a one-cell gap; the discretized model
    # accepts it (its guarantee is for the tent-smoothed constraint) but a
    # point mass inside the gap is admissible and drives the exact
    # expectation to zero, so the certificate must come back falsified
    fn = SimpleFunctionSpec(k=2, heights=[0.6, 0.4], mode=VariableBoxes())
    inc = searched(line_spec, fn, 0.05)
    assert inc.objective == pytest.approx(0.15, abs=1e-6)
    decision = Decision(
        heights=np.asarray(fn.heights, dtype=float), boxes=list(inc.boxes)
    )
    cert = certify_solution(decision, inc.dual_vars, line_spec, delta=0.05)
    assert cert.verdict == "falsified"
    assert cert.worst_case_expectation < line_spec.b - 1e-6
    # the smoothed constraint itself still holds for these duals
    assert cert.fc_min_sampled >= -1e-6
