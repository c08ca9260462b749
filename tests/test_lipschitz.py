import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drobox
from drobox.lipschitz import (
    lipschitz_certificate,
    lipschitz_constant,
    max_safe_step,
    safety_margin,
    sym_min_eig,
    trace_bounds,
)
from drobox.model import (
    AmbiguitySpec,
    BoxRegion,
    FixedBoxes,
    LinearConstraint,
    SimpleFunctionSpec,
    VariableBoxes,
)
from oracles import lipschitz_excess, poly_part_batch

LAMBDA_REF = (3.0 - math.sqrt(2.0)) / 2.0  # min eigenvalue of [[2,.5],[.5,1]]


def test_sym_min_eig_diagonal():
    assert sym_min_eig(np.diag([3.0, -1.0, 2.0])) == pytest.approx(-1.0)


def test_sym_min_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_min_eig(np.array([[1.0, 2.0], [1.9, 1.0]]))


def test_reference_trace_bounds(ref_spec, ref_fn):
    tr1, tr2 = trace_bounds(ref_spec, ref_fn)
    assert tr1 == pytest.approx(1.1 / LAMBDA_REF, rel=1e-12)
    assert tr2 == pytest.approx(1.0 / LAMBDA_REF, rel=1e-12)
    assert 1.38 <= tr1 <= 1.40
    assert 1.26 <= tr2 <= 1.30


def test_reference_lipschitz_constant_and_step(ref_spec, ref_fn):
    tr1, tr2 = trace_bounds(ref_spec, ref_fn)
    L = lipschitz_constant(ref_spec, tr1, tr2)
    assert L == pytest.approx((2.2 + 2.0 * math.sqrt(2.0)) / LAMBDA_REF, rel=1e-12)
    assert L == pytest.approx(6.34187, abs=5e-5)
    dmax = max_safe_step(ref_spec, L)
    assert dmax == pytest.approx(0.9 / (L * math.sqrt(2.0)), rel=1e-12)
    assert 0.098 <= dmax <= 0.101


def test_certificate_fields(ref_spec, ref_fn):
    cert = lipschitz_certificate(ref_spec, ref_fn)
    assert cert.lambda_min_block == pytest.approx(LAMBDA_REF, abs=1e-10)
    assert cert.lambda_min_sigma == pytest.approx(LAMBDA_REF, abs=1e-10)
    assert cert.feasible_step_exists
    assert cert.delta_max > 0


def test_trace_bounds_reject_indefinite_covariance(ref_fn):
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0, 0.0], sigma=[[1.0, 2.0], [2.0, 1.0]],
        eps_mu=0.1, eps_sigma=1.0, b=0.1,
    )
    with pytest.raises(ValueError):
        trace_bounds(spec, ref_fn)


def test_lipschitz_constant_requires_mean_in_lower_half(ref_fn):
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.8, 0.9], sigma=[[2.0, 0.5], [0.5, 1.0]],
        eps_mu=0.1, eps_sigma=1.0, b=0.1,
    )
    tr1, tr2 = trace_bounds(spec, ref_fn)
    with pytest.raises(ValueError):
        lipschitz_constant(spec, tr1, tr2)


def test_max_safe_step_flags():
    spec = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0], sigma=[[1.0]], eps_mu=0.1, eps_sigma=1.0, b=1.0
    )
    assert max_safe_step(spec, 5.0) == 0.0
    spec2 = AmbiguitySpec.with_normalization(
        edge=1.0, mu=[0.0], sigma=[[1.0]], eps_mu=0.1, eps_sigma=1.0, b=0.5
    )
    assert max_safe_step(spec2, 0.0) == math.inf
    with pytest.raises(ValueError):
        max_safe_step(spec2, -1.0)
    cert = lipschitz_certificate(
        spec, SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())
    )
    assert cert.delta_max == 0.0
    assert not cert.feasible_step_exists


def test_safety_margin_formula():
    assert safety_margin(6.0, 0.1, 2) == pytest.approx(0.6 * math.sqrt(2.0))


def test_fixed_boxes_height_sum_uses_indicators_at_mean(ref_spec):
    # One box holds the mean, the other does not; pinned heights.
    boxes = (
        BoxRegion(lower=[0.0, 0.0], upper=[0.5, 0.5]),
        BoxRegion(lower=[0.5, 0.5], upper=[1.0, 1.0]),
    )
    fn = SimpleFunctionSpec(k=2, heights=[0.7, 5.0], mode=FixedBoxes(boxes=boxes))
    tr1, _ = trace_bounds(ref_spec, fn)
    # only the first box covers mu = 0, so S = 0.7
    assert tr1 == pytest.approx((0.7 + 0.1) / LAMBDA_REF, rel=1e-12)


def test_fixed_boxes_height_polytope_lp(ref_spec):
    boxes = (
        BoxRegion(lower=[0.0, 0.0], upper=[0.5, 0.5]),
        BoxRegion(lower=[0.5, 0.5], upper=[1.0, 1.0]),
    )
    # heights on the simplex x1 + x2 = 1, x >= 0: the best value at the
    # mean puts everything on the covering box.
    cons = (
        LinearConstraint(coeffs=[1.0, 1.0], sense="==", rhs=1.0),
        LinearConstraint(coeffs=[1.0, 0.0], sense=">=", rhs=0.0),
        LinearConstraint(coeffs=[0.0, 1.0], sense=">=", rhs=0.0),
    )
    fn = SimpleFunctionSpec(
        k=2,
        heights=[0.5, 0.5],
        mode=FixedBoxes(boxes=boxes, objective=np.array([1.0, 0.0]), constraints=cons),
    )
    tr1, _ = trace_bounds(ref_spec, fn)
    assert tr1 == pytest.approx((1.0 + 0.1) / LAMBDA_REF, rel=1e-9)


def test_empirical_lipschitz_bound_10k_pairs(ref_spec, ref_fn):
    tr1, tr2 = trace_bounds(ref_spec, ref_fn)
    L = lipschitz_constant(ref_spec, tr1, tr2)
    excess = lipschitz_excess(ref_spec, L, tr1, tr2, n_pairs=10_000, seed=7)
    assert excess <= 1e-9


def test_poly_part_batch_matches_pricer(ref_spec):
    # the oracle's q(t) against the library's lattice row of zero-valued
    # atoms with y = 0, and against the moment matrices point by point
    from drobox.certify import Pricer
    from oracles import first_moment_block, second_moment_outer

    rng = np.random.default_rng(3)
    a1 = rng.normal(size=(3, 3))
    Y1 = a1 @ a1.T
    a2 = rng.normal(size=(2, 2))
    Y2 = a2 @ a2.T
    pts = rng.uniform(0, 1, size=(25, 2))
    batch = poly_part_batch(pts, Y1, Y2, ref_spec)
    zeros = np.zeros(len(ref_spec.confidence_sets))
    priced = Pricer(ref_spec, pts)(0.0, Y1, Y2, zeros)
    singles = [-np.sum(first_moment_block(p, ref_spec) * Y1)
               + np.sum(second_moment_outer(p, ref_spec) * Y2) for p in pts]
    np.testing.assert_allclose(batch, priced, atol=1e-12)
    np.testing.assert_allclose(batch, singles, atol=1e-12)


_NO_SCIPY_SCRIPT = """
import json, sys
from drobox import cli
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
report = [["import drobox.cli", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    report.append([" ".join(argv[:2]), code, loaded()])
print(json.dumps(report))
"""


def test_the_cli_loads_no_scipy(tmp_path):
    # numpy factors the normal matrix, so only the corner LP of a search
    # under user constraints needs scipy (scipy.optimize.milp)
    root = Path(drobox.__file__).resolve().parents[2]
    configs = root / "src" / "drobox" / "configs"
    ref, fixed = str(configs / "bin_creating.json"), str(configs / "fixed_two_boxes.json")
    out = ["--out-dir", str(tmp_path)]
    runs = [
        ["solve", "--config", ref, "--delta", "0.1", *out],
        ["solve", "--config", ref, "--delta", "0.1", "--mode", "bnb", *out],
        ["solve", "--config", fixed, "--delta", "0.1", *out],
        ["certify", "--config", ref, "--solution",
         str(root / "perfbench" / "records" / "bin_creating_d0.05.json"), *out],
    ]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(runs)],
                          env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert len(report) == 1 + len(runs)
    for what, code, modules in report:
        assert (code, modules) == (0, []), what
