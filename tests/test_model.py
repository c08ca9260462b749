import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drobox.certify import Pricer
from drobox.model import (
    AmbiguitySpec,
    BoxRegion,
    ConfidenceSet,
    Decision,
    DualSolution,
    FixedBoxes,
    SimpleFunctionSpec,
    VariableBoxes,
    WholeDomain,
    _on_lattice,
    lattice_points,
    normalization_pair,
    smoothed_indicator,
    smoothed_indicator_lower,
    validate_spec,
)
from oracles import (
    first_moment_block,
    indicator_box,
    schur_equivalence_violations,
    second_moment_outer,
)


def test_box_region_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        BoxRegion(lower=[0.6], upper=[0.2])


def test_box_region_membership_is_closed():
    box = BoxRegion(lower=[0.0, 0.3], upper=[0.5, 0.5])
    assert box.contains([0.5, 0.3])
    assert box.contains([0.0, 0.5])
    assert not box.contains([0.5 + 1e-12, 0.3])
    got = box.contains(np.array([[0.1, 0.4], [0.6, 0.4]]))
    assert got.tolist() == [True, False]


def test_first_moment_block_reference_value(ref_spec):
    # the Pricer's F1(t) and the oracle's, against the value by hand
    want = np.array([[2.0, 0.5, 1.0], [0.5, 1.0, 1.0], [1.0, 1.0, 0.1]])
    first, _ = Pricer(ref_spec, np.array([[0.3, 0.4], [1.0, 1.0]])).moments([1])
    np.testing.assert_allclose(first, [want], rtol=0, atol=0)
    np.testing.assert_allclose(first_moment_block([1.0, 1.0], ref_spec), want, rtol=0, atol=0)


def test_second_moment_outer_reference_value(ref_spec):
    want = [[0.09, 0.12], [0.12, 0.16]]
    _, outer = Pricer(ref_spec, np.array([[0.3, 0.4], [1.0, 1.0]])).moments([0])
    np.testing.assert_allclose(outer, [want], atol=1e-15)
    np.testing.assert_allclose(second_moment_outer([0.3, 0.4], ref_spec), want, atol=1e-15)


def moment_part(t, Y1, Y2, spec):
    """q(t), the lattice row of a zero-valued atom at t with y = 0."""
    zeros = np.zeros(len(spec.confidence_sets))
    return float(Pricer(spec, np.array([t]))(0.0, Y1, Y2, zeros)[0])


def test_pricer_moment_part_second_moment_identity(ref_spec):
    # Y1 = 0, Y2 = I: q(t) = |t - mu|^2 = 0.09 + 0.16
    q = moment_part([0.3, 0.4], np.zeros((3, 3)), np.eye(2), ref_spec)
    assert q == pytest.approx(0.25, abs=1e-15)


def test_pricer_moment_part_corner_reads_eps_mu(ref_spec):
    Y1 = np.zeros((3, 3))
    Y1[2, 2] = 1.0
    q = moment_part([0.3, 0.4], Y1, np.zeros((2, 2)), ref_spec)
    assert q == pytest.approx(-0.1, abs=1e-15)


def test_schur_complement_equivalence_1000_trials():
    # Block PSD test must agree with the quadratic-form test on random data.
    assert schur_equivalence_violations(1000, seed=20260819) == 0


def test_lattice_counts_and_row_major_order():
    lat = lattice_points(1.0, 2, 0.1)
    assert lat.n_points == 121
    assert lat.shape == (11, 11)
    np.testing.assert_allclose(lat.points[0], [0.0, 0.0])
    np.testing.assert_allclose(lat.points[1], [0.0, 0.1])   # last axis fastest
    np.testing.assert_allclose(lat.points[11], [0.1, 0.0])
    np.testing.assert_allclose(lat.points[-1], [1.0, 1.0])

    small = lattice_points(0.2, 1, 0.1)
    np.testing.assert_allclose(small.points[:, 0], [0.0, 0.1, 0.2])


def test_lattice_rejects_nondivisor_step():
    with pytest.raises(ValueError):
        lattice_points(1.0, 2, 0.3)


def test_lattice_accepts_inexact_divisor_within_tolerance():
    lat = lattice_points(1.0, 1, 1.0 / 3.0)
    assert lat.n_axis == 4


def test_lattice_index_helpers():
    lat = lattice_points(1.0, 2, 0.5)
    idx = lat.indices([[0.0, 0.5], [1.0, 0.5]])
    assert idx.dtype.kind == "i" and idx.tolist() == [[0, 1], [2, 1]]
    assert lat.indices(0.5) == 1
    for bad in (0.3, 1.5, -0.5, math.nan, math.inf):  # off the lattice or out of range
        with pytest.raises(ValueError):
            lat.indices([0.0, bad])
    assert lat.box([1, 0], [0, 2]) is None
    assert lat.box([0, 0], [-1, -1]) is None
    box = lattice_points(1.0, 2, 0.1).box([0, 3], [7, 3])
    assert box.lower.tolist() == [0.0, np.linspace(0, 1, 11)[3]]
    assert box.upper.tolist() == [np.linspace(0, 1, 11)[7], np.linspace(0, 1, 11)[3]]


def _aligned_reference(value: float, delta: float) -> bool:
    """The scalar alignment rule, one value at a time."""
    r = value / delta
    return math.isfinite(r) and abs(r - round(r)) <= 1e-9 * max(1.0, abs(r))


def test_on_lattice_matches_the_scalar_rule():
    values = [v * s for v in np.linspace(0.0, 3.0, 301) for s in (1.0, -1.0, 1.0 + 5e-10,
                                                                   1.0 + 5e-9)]
    values += [0.7, 0.7000000000000001, 1e300, math.nan, math.inf, -math.inf]
    for delta in (0.1, 1.0 / 12.0, 0.025, 1.0 / 3.0):
        want = [_aligned_reference(v, delta) for v in values]
        assert _on_lattice(values, delta).tolist() == want
        assert sum(want) > 10 and not all(want)


def test_smoothed_indicator_reference_value():
    box = BoxRegion(lower=[0.3], upper=[0.5])
    assert smoothed_indicator(np.array([0.25]), box, 0.1) == pytest.approx(0.5)
    assert smoothed_indicator(np.array([0.3]), box, 0.1) == pytest.approx(1.0)
    assert smoothed_indicator(np.array([0.2]), box, 0.1) == pytest.approx(0.0)
    assert smoothed_indicator(np.array([0.1]), box, 0.1) == pytest.approx(0.0)


def test_smoothed_indicator_lower_reference_values():
    box = BoxRegion(lower=[0.3], upper=[0.5])
    assert smoothed_indicator_lower(np.array([0.3]), box, 0.1) == pytest.approx(0.0)
    assert smoothed_indicator_lower(np.array([0.35]), box, 0.1) == pytest.approx(0.5)
    assert smoothed_indicator_lower(np.array([0.4]), box, 0.1) == pytest.approx(1.0)
    assert smoothed_indicator_lower(np.array([0.25]), box, 0.1) == pytest.approx(0.0)


coord = st.integers(min_value=-2, max_value=12).map(lambda v: v / 10.0)


@settings(max_examples=200)
@given(
    data=st.data(),
    dim=st.integers(min_value=1, max_value=3),
)
def test_tents_sandwich_the_indicator(data, dim):
    lows, highs, ts = [], [], []
    for _ in range(dim):
        a = data.draw(st.integers(0, 10))
        b = data.draw(st.integers(0, 10))
        lows.append(min(a, b) / 10.0)
        highs.append(max(a, b) / 10.0)
        ts.append(data.draw(coord))
    box = BoxRegion(lower=lows, upper=highs)
    t = np.array(ts)
    lo = smoothed_indicator_lower(t, box, 0.1)
    mid = indicator_box(t, box)
    hi = smoothed_indicator(t, box, 0.1)
    assert 0.0 <= lo <= mid + 1e-12
    assert mid <= hi + 1e-12
    assert hi <= 1.0


def test_validate_reference_instance_passes(ref_spec, ref_fn, ref_lattice):
    report = validate_spec(ref_spec, ref_fn, ref_lattice)
    assert report.passed, report.summary()


def test_validate_flags_eps_sigma_below_one(ref_fn, ref_lattice):
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0, 0.0], sigma=[[2.0, 0.5], [0.5, 1.0]],
        eps_mu=0.1, eps_sigma=0.5, b=0.1,
    )
    report = validate_spec(spec, ref_fn, ref_lattice)
    assert not report.passed
    names = [c.name for c in report.failures()]
    assert names == ["eps_sigma_at_least_one"]


def test_validate_flags_missing_normalization_pair(ref_fn, ref_lattice):
    spec = AmbiguitySpec(
        edge=1.0, mu=[0.0, 0.0], sigma=[[2.0, 0.5], [0.5, 1.0]],
        eps_mu=0.1, eps_sigma=1.0, b=0.1,
        confidence_sets=(ConfidenceSet(WholeDomain(), 1.0),),
    )
    report = validate_spec(spec, ref_fn, ref_lattice)
    assert "normalization_pair" in [c.name for c in report.failures()]


def test_validate_flags_mean_membership_mismatch(ref_fn, ref_lattice):
    # eps > 0 but the region does not contain the mean
    extra = ConfidenceSet(BoxRegion(lower=[0.5, 0.5], upper=[1.0, 1.0]), 0.3)
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0, 0.0], sigma=[[2.0, 0.5], [0.5, 1.0]],
        eps_mu=0.1, eps_sigma=1.0, b=0.1, extra_sets=[extra],
    )
    report = validate_spec(spec, ref_fn, ref_lattice)
    assert "mean_membership_matches_sign" in [c.name for c in report.failures()]


def test_validate_flags_misaligned_fixed_box(ref_spec, ref_lattice):
    fn = SimpleFunctionSpec(
        k=1,
        heights=[1.0],
        mode=FixedBoxes(boxes=(BoxRegion(lower=[0.0, 0.0], upper=[0.55, 1.0]),)),
    )
    report = validate_spec(ref_spec, fn, ref_lattice)
    assert "fixed_boxes_lattice_aligned" in [c.name for c in report.failures()]


def test_validate_flags_misaligned_confidence_box(ref_fn, ref_lattice):
    extra = ConfidenceSet(BoxRegion(lower=[0.0, 0.0], upper=[0.25, 1.0]), 0.3)
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0, 0.0], sigma=[[2.0, 0.5], [0.5, 1.0]],
        eps_mu=0.1, eps_sigma=1.0, b=0.1, extra_sets=[extra],
    )
    report = validate_spec(spec, ref_fn, ref_lattice)
    assert "confidence_boxes_lattice_aligned" in [c.name for c in report.failures()]


BOX_CHECKS = ("confidence_regions_in_domain", "boxes_in_domain", "fixed_boxes_lattice_aligned",
              "confidence_boxes_lattice_aligned")


@pytest.mark.parametrize("fixed_upper, cs_upper, failing", [
    ([0.5, 1.0], [0.3, 0.3], set()),
    ([0.55, 1.0], [0.3, 0.3], {"fixed_boxes_lattice_aligned"}),
    ([0.5, 1.0], [0.25, 0.3], {"confidence_boxes_lattice_aligned"}),
    ([0.5, 1.1], [0.3, 0.3], {"boxes_in_domain"}),
    ([0.5, 1.0], [1.2, 0.3], {"confidence_regions_in_domain"}),
    ([0.5], [0.3, 0.3], {"boxes_in_domain"}),
    ([0.5, 1.0], [0.3], {"confidence_regions_in_domain"}),
    ([0.55, 1.1], [1.25, 0.3], set(BOX_CHECKS)),
])
def test_validate_box_checks(ref_lattice, fixed_upper, cs_upper, failing):
    extra = ConfidenceSet(BoxRegion([0.0] * len(cs_upper), cs_upper), 0.3)
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0, 0.0], sigma=[[2.0, 0.5], [0.5, 1.0]],
        eps_mu=0.1, eps_sigma=1.0, b=0.1, extra_sets=[extra],
    )
    box = BoxRegion([0.0] * len(fixed_upper), fixed_upper)
    fn = SimpleFunctionSpec(k=1, heights=[1.0], mode=FixedBoxes(boxes=(box,)))
    report = validate_spec(spec, fn, ref_lattice)
    got = [(c.name, c.passed, c.detail) for c in report.checks if c.name in BOX_CHECKS]
    details = {"fixed_boxes_lattice_aligned": "delta=0.1",
               "confidence_boxes_lattice_aligned": "delta=0.1"}
    assert got == [(name, name not in failing, details.get(name, "")) for name in BOX_CHECKS]
    assert {c.name for c in report.failures()} == failing


def test_validate_flags_variable_heights_not_positive(ref_spec, ref_lattice):
    fn = SimpleFunctionSpec(k=1, heights=[0.0], mode=VariableBoxes())
    report = validate_spec(ref_spec, fn, ref_lattice)
    assert "variable_heights_positive" in [c.name for c in report.failures()]


def test_decision_evaluates_overlapping_boxes():
    dec = Decision(
        heights=[1.0, -0.5],
        boxes=(
            BoxRegion(lower=[0.0, 0.0], upper=[1.0, 1.0]),
            BoxRegion(lower=[0.5, 0.5], upper=[1.0, 1.0]),
        ),
    )
    t = np.array([[0.1, 0.1], [0.7, 0.9], [1.2, 0.5]])
    np.testing.assert_allclose(dec.evaluate(t), [1.0, 0.5, 0.0])


def test_dual_solution_objective(ref_spec):
    # y = (0, b): dual objective equals b when Y2 = 0.
    dual = DualSolution(
        Y1=np.zeros((3, 3)), Y2=np.zeros((2, 2)), y=[0.0, 0.1], spec=ref_spec
    )
    assert dual.dual_objective() == pytest.approx(0.1)
    dual2 = DualSolution(
        Y1=np.zeros((3, 3)), Y2=np.eye(2) * 0.5, y=[0.0, 0.1], spec=ref_spec
    )
    # subtract eps_sigma * <Sigma, Y2> = 1 * (2 + 1) * 0.5
    assert dual2.dual_objective() == pytest.approx(0.1 - 1.5)


def test_normalization_pair_shape():
    lo, hi = normalization_pair()
    assert isinstance(lo.region, WholeDomain) and lo.eps == -1.0
    assert isinstance(hi.region, WholeDomain) and hi.eps == 1.0
