"""End-to-end tests for the command line front end."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drobox import cli
from drobox.certify import Certificate
from drobox.cli import main

CONFIG_DIR = Path(cli.__file__).with_name("configs")
REFERENCE = str(CONFIG_DIR / "bin_creating.json")
FIXED_DEMO = str(CONFIG_DIR / "fixed_two_boxes.json")


def write_config(tmp_path, **overrides):
    cfg = json.loads(Path(REFERENCE).read_text())
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def solved_reference(tmp_path_factory):
    """One shared solve of the bundled reference config at delta 0.1."""
    out = tmp_path_factory.mktemp("solved")
    code = main(["solve", "--config", REFERENCE, "--out-dir", str(out)])
    record = json.loads((out / "result.json").read_text())
    return code, record, out


def test_validate_bundled_config_passes(capsys):
    assert main(["validate", "--config", REFERENCE]) == 0
    captured = capsys.readouterr()
    assert "overall: pass" in captured.out
    assert "eps_sigma_at_least_one" in captured.out


def test_validate_rejects_small_eps_sigma(tmp_path, capsys):
    path = write_config(tmp_path, eps_sigma=0.5)
    assert main(["validate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "requires eps_sigma >= 1" in captured.out


def test_validate_misaligned_delta_is_invalid(capsys):
    assert main(["validate", "--config", REFERENCE, "--delta", "0.3"]) == 1
    assert "does not divide" in capsys.readouterr().err


def test_missing_config_key_is_invalid(tmp_path, capsys):
    cfg = json.loads(Path(REFERENCE).read_text())
    del cfg["b"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    assert "'b'" in capsys.readouterr().err


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"edge": 1.0,,}')
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_missing_file_is_a_parse_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2


def test_solve_reference_is_certified(solved_reference):
    code, record, out = solved_reference
    assert code == 0
    assert record["status"] == "solved"
    assert record["proof"] == "optimal"
    assert record["objective"] == pytest.approx(2.0, abs=1e-6)
    assert record["certificate"]["verdict"] == "certified"
    assert record["delta_max"] == pytest.approx(0.100348308, abs=1e-8)
    assert record["boxes"] == [{"lower": [0.0, 0.0], "upper": [1.0, 1.0]}]
    assert (out / "solver.log").read_text().startswith("node=")


@pytest.mark.parametrize("mode", ["bnb", "enumerate"])
def test_variable_solve_makes_no_assembled_solve(tmp_path, monkeypatch, mode):
    # the search decides every set of boxes on the measure side: nothing
    # assembles the mixed-binary program, or fixes or relaxes its binaries
    import drobox.assemble
    from drobox.sdp import ConicProgram

    calls = []
    for name in ("fix_binaries", "relax_binaries"):
        monkeypatch.setattr(ConicProgram, name, lambda self, *a: calls.append(a))
    for module in (cli, drobox.assemble):
        monkeypatch.setattr(module, "assemble_case2", lambda *a, **kw: calls.append(a))
    assert main(["solve", "--config", REFERENCE, "--mode", mode,
                 "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "result.json").read_text())
    assert (record["proof"], record["objective"]) == ("optimal", pytest.approx(2.0))
    assert record["margin"] == pytest.approx(record["L"] * 0.1 * np.sqrt(2.0))
    assert calls == []


def _spy_master_solves(monkeypatch) -> tuple:
    """Record the (atoms, values) bytes of every measure master that is
    looked up and of every one that is built, and a None for each solve."""
    import drobox.certify as certify

    looked, masters = [], []
    lookup, build, solve = certify.Pricer.solved, certify.Pricer.master, certify.solve_sdp

    def key(price, vals, active):
        return price.d[active].tobytes() + vals[active].tobytes()

    monkeypatch.setattr(certify.Pricer, "solved", lambda self, vals, active, stop=None: (
        looked.append(key(self, vals, active)) or lookup(self, vals, active, stop)))
    monkeypatch.setattr(certify.Pricer, "master", lambda self, vals, active: masters.append(
        key(self, vals, active)) or build(self, vals, active))
    monkeypatch.setattr(certify, "solve_sdp", lambda program, **kwargs: masters.append(None)
                        or solve(program, **kwargs))
    return looked, masters


def test_enumerate_solve_solves_each_distinct_master_once(tmp_path, monkeypatch):
    # at delta = 1/20 the search and the certificate meet 21 measure masters
    # in their rounds, 17 of them distinct: the Pricer of each lattice solves
    # each distinct one once
    looked, masters = _spy_master_solves(monkeypatch)
    assert main(["solve", "--config", REFERENCE, "--delta", "0.05", "--mode", "enumerate",
                 "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "result.json").read_text())
    assert (record["proof"], record["objective"]) == ("optimal", pytest.approx(1.7))
    built = [key for key in masters if key is not None]
    assert len(looked) == 21 and len(set(looked)) == 17
    assert len(built) == len(masters) // 2 == len(set(built)) == 17


def test_no_master_carries_over_between_commands(tmp_path, monkeypatch):
    # each command builds its own Pricers, so a second solve in the same
    # process solves exactly the masters the first one did
    _, masters = _spy_master_solves(monkeypatch)
    argv = ["solve", "--config", REFERENCE, "--delta", "0.05", "--mode", "enumerate",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    first = masters[:]
    masters.clear()
    assert main(argv) == 0
    assert masters == first


def test_a_search_builds_one_pricer_for_its_lattice(tmp_path, monkeypatch):
    # the pool's seed and every master of the search read one Pricer of the
    # 21 x 21 search lattice; the certificate and the sampling build their own
    import drobox.certify as certify

    atoms = []
    init = certify.Pricer.__init__
    monkeypatch.setattr(certify.Pricer, "__init__", lambda self, spec, pts: (
        atoms.append(len(pts)) or init(self, spec, pts)))
    assert main(["solve", "--config", REFERENCE, "--delta", "0.05", "--mode", "bnb",
                 "--out-dir", str(tmp_path)]) == 0
    assert atoms.count(441) == 1


@pytest.mark.parametrize("mode", ["bnb", "enumerate"])
def test_no_feasible_point_mass_still_solves(tmp_path, mode):
    # with mu = (0.05, 0.05) and eps_mu = 0.001 no lattice atom at delta
    # = 0.1 is a feasible point mass, so the pool starts empty; both
    # drivers still prove the whole domain
    from drobox.search import SearchInstance, _MeasurePool

    path = write_config(tmp_path, mu=[0.05, 0.05], eps_mu=0.001)
    spec, fn = cli.build_instance(json.loads(Path(path).read_text()))
    pool = _MeasurePool(SearchInstance(spec, fn, cli._lattice(spec, 0.1), 0.5))
    assert len(pool.atoms) == 0 and pool.block() >= 1
    assert main(["solve", "--config", path, "--mode", mode, "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "result.json").read_text())
    assert (record["status"], record["proof"]) == ("solved", "optimal")
    assert record["objective"] == pytest.approx(2.0, abs=1e-9)
    assert record["boxes"] == [{"lower": [0.0, 0.0], "upper": [1.0, 1.0]}]
    assert record["certificate"]["verdict"] == "certified"


def test_solve_record_is_strict_json(solved_reference):
    _, record, out = solved_reference
    # strict parsers reject bare NaN; the writer must never emit it
    json.loads((out / "result.json").read_text(), parse_constant=lambda _: 1 / 0)
    duals = record["duals"]
    assert np.asarray(duals["Y1"]).shape == (3, 3)
    assert np.asarray(duals["Y2"]).shape == (2, 2)
    assert len(duals["y"]) == 2


def test_solve_infeasible_step_reports_delta_max(tmp_path, capsys):
    code = main(["solve", "--config", REFERENCE, "--delta", "0.2",
                 "--out-dir", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert "delta_max=0.100348308" in err
    record = json.loads((tmp_path / "result.json").read_text())
    assert record["status"] == "infeasible-model"
    assert record["objective"] is None


def test_solve_too_large_for_enumeration_is_invalid(tmp_path, capsys):
    code = main(["solve", "--config", REFERENCE, "--delta", "0.025",
                 "--mode", "enumerate", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: instance-too-large: ")
    assert "--mode bnb has no such limit" in err[0]


def test_solve_past_the_enumeration_limit_with_bnb(tmp_path, capsys):
    code = main(["solve", "--config", REFERENCE, "--delta", "0.025",
                 "--mode", "bnb", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "proof=optimal" in capsys.readouterr().out
    record = json.loads((tmp_path / "result.json").read_text())
    assert record["proof"] == "optimal"
    assert record["objective"] == pytest.approx(1.45, abs=1e-6)
    assert record["certificate"]["verdict"] == "certified"


def test_solve_cube_with_bnb(tmp_path):
    # the 3-D instance: sigma = I + 0.2 * ones, mu at the origin, the other
    # values of the reference config
    path = write_config(tmp_path, mu=[0.0, 0.0, 0.0],
                        sigma=(np.eye(3) + 0.2).tolist(), delta=1 / 12)
    assert main(["solve", "--config", path, "--mode", "bnb", "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "result.json").read_text())
    assert (record["status"], record["proof"], record["node_count"]) == ("solved", "optimal", 1)
    assert record["objective"] == pytest.approx(3.0, abs=1e-6)
    assert record["certificate"]["verdict"] == "certified"


@pytest.mark.parametrize("mode", ["bnb", "enumerate"])
def test_empty_box_is_recorded_as_null_and_recertifies(tmp_path, mode):
    # two boxes on the 0.2 line, min sum(hi): one box reaches the edge and
    # the other is empty, which the record keeps as null, not as a point box
    cfg = {"edge": 0.2, "mu": [0.1], "sigma": [[1.0]], "eps_mu": 0.05, "eps_sigma": 1.0,
           "b": 0.1, "delta": 0.05,
           "function": {"heights": [0.6, 0.4], "mode": {
               "kind": "variable", "c_minus": [[0], [0]], "c_plus": [[1], [1]],
               "sense": "min"}}}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path), "--mode", mode,
                 "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "result.json").read_text())
    assert record["objective"] == pytest.approx(0.2, abs=1e-6)
    assert record["heights"] == [0.6, 0.4]
    assert sorted(record["boxes"], key=lambda box: box is None) == [
        {"lower": [0.0], "upper": [0.2]}, None]
    assert record["certificate"]["verdict"] == "certified"
    assert main(["certify", "--config", str(path), "--solution",
                 str(tmp_path / "result.json"), "--out-dir", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert == record["certificate"]


def test_solve_fixed_demo_is_certified(tmp_path):
    code = main(["solve", "--config", FIXED_DEMO, "--out-dir", str(tmp_path)])
    assert code == 0
    record = json.loads((tmp_path / "result.json").read_text())
    assert record["case"] == "fixed"
    assert record["node_count"] == 0
    assert record["objective"] == pytest.approx(0.9968761, abs=1e-5)
    assert record["heights"][0] == pytest.approx(0.9968761, abs=1e-5)
    assert record["heights"][1] == pytest.approx(0.0031239, abs=1e-5)
    assert record["certificate"]["verdict"] == "certified"


# ---------------------------------------------------------------------------
# fixed boxes: masters on the lattice rows that bind, against the full program


def fixed_config(tmp_path, heights=None, mode=(), **overrides):
    """The fixed demo config with its heights, fields of its mode (a value
    of None deletes the field) or top-level fields replaced, written to
    tmp_path."""
    cfg = json.loads(Path(FIXED_DEMO).read_text())
    cfg.update(overrides)
    if heights is not None:
        cfg["function"]["heights"] = heights
    for key, value in dict(mode).items():
        if value is None:
            del cfg["function"]["mode"][key]
        else:
            cfg["function"]["mode"][key] = value
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def row_lhs(row, primal) -> float:
    """The left-hand side of one scalar row at the point primal."""
    lhs = sum(c * primal[v] for v, c in row.lin.items())
    return lhs + sum(float(np.sum(mat * primal[v])) for v, mat in row.mats.items())


def row_violation(program, primal) -> float:
    """The largest violation of any scalar row of program at the point primal."""
    worst = 0.0
    for row in program.rows:
        lhs = row_lhs(row, primal)
        gap = {">=": row.rhs - lhs, "<=": lhs - row.rhs, "==": abs(lhs - row.rhs)}[row.sense]
        worst = max(worst, gap)
    return worst


@pytest.mark.parametrize("argv", [
    ["solve", "--delta", "0.1"],
    ["sweep", "--delta", "0.1", "--delta", "0.05"],
    # a step that does not divide the edge fails alone, the others share it
    ["sweep", "--delta", "0.1", "--delta", "0.07", "--delta", "0.05"],
], ids=["solve", "sweep", "sweep-bad-step"])
def test_one_height_polytope_lp_per_command(tmp_path, monkeypatch, argv):
    # validation and the trace bounds of every step share one LP; the next
    # command builds its own instance and solves it again
    import drobox.lipschitz

    calls = []
    solve = drobox.lipschitz.solve_sdp
    monkeypatch.setattr(drobox.lipschitz, "solve_sdp",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    argv = argv + ["--config", FIXED_DEMO, "--out-dir", str(tmp_path)]
    for runs in (1, 2):
        assert main(argv) in (0, 1)
        assert len(calls) == runs


CONFIDENCE_PAIR = [{"lower": [0.0, 0.0], "upper": [0.5, 0.5], "eps": 0.3},
                   {"lower": [0.6, 0.6], "upper": [1.0, 1.0], "eps": -0.2}]


@pytest.mark.parametrize("delta, changes", [
    (0.1, {}), (0.05, {}), (0.025, {}),
    (0.05, {"heights": [0.9, 0.3], "mode": {"constraints": None, "objective": None}}),
    (0.05, {"confidence_sets": CONFIDENCE_PAIR}),
], ids=["d0.1", "d0.05", "d0.025", "pinned", "confidence-pair"])
def test_fixed_masters_meet_every_row_of_the_full_program(tmp_path, monkeypatch, delta,
                                                          changes):
    from drobox.assemble import assemble_case1
    from drobox.lipschitz import lipschitz_certificate, safety_margin
    from drobox.model import lattice_points
    from drobox.sdp import solve_sdp

    masters = []
    monkeypatch.setattr(cli, "assemble_case1", lambda *a, **kw: masters.append(
        assemble_case1(*a, **kw)) or masters[-1])
    spec, fn = cli.build_instance(cli.load_config(fixed_config(tmp_path, **changes)))
    lattice = lattice_points(spec.edge, spec.m, delta)
    margin = safety_margin(lipschitz_certificate(spec, fn).L, delta, spec.m)
    sol = cli._solve_fixed(spec, fn, lattice, margin)
    full = assemble_case1(spec, fn, lattice, margin)
    ref = solve_sdp(full.program)
    assert sol.status == ref.status == "optimal"
    assert masters[-1].program.n_rows < full.program.n_rows
    # 1e-8 in the solver's own scale, 1 + the largest right-hand side
    scale = 1.0 + max(abs(row.rhs) for row in full.program.rows)
    assert row_violation(full.program, sol.primal) <= 1e-8 * scale
    assert sol.objective == pytest.approx(ref.objective, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("changes", [{}, {"confidence_sets": CONFIDENCE_PAIR[:1]}],
                         ids=["demo", "confidence-box"])
def test_fixed_pricing_is_the_slack_of_every_full_lattice_row(tmp_path, monkeypatch, changes):
    # the pricing of the last master, at its solution, is lhs - rhs of
    # each lattice[f] row of the full program
    from drobox.assemble import assemble_case1
    from drobox.lipschitz import lipschitz_certificate, safety_margin
    from drobox.model import lattice_points

    priced = []
    real = cli.column_generation

    def spy(lattice, spec, solve, price, **kwargs):
        active, sol = real(lattice, spec, solve, price, **kwargs)
        priced.append(price(sol))
        return active, sol

    monkeypatch.setattr(cli, "column_generation", spy)
    spec, fn = cli.build_instance(cli.load_config(fixed_config(tmp_path, **changes)))
    lattice = lattice_points(spec.edge, spec.m, 0.05)
    margin = safety_margin(lipschitz_certificate(spec, fn).L, 0.05, spec.m)
    sol = cli._solve_fixed(spec, fn, lattice, margin)
    assert sol.status == "optimal"
    slack = {row.name: row_lhs(row, sol.primal) - row.rhs
             for row in assemble_case1(spec, fn, lattice, margin).program.rows}
    full = np.array([slack["lattice[%d]" % f] for f in range(lattice.n_points)])
    assert np.max(np.abs(priced[0] - full)) <= 1e-10


@pytest.mark.parametrize("config", [FIXED_DEMO, REFERENCE], ids=["fixed", "variable"])
def test_every_master_and_search_gets_the_record_margin(tmp_path, monkeypatch, config):
    # the margin is computed once per solve: each fixed-box master and the
    # search instance carry exactly the margin result.json reports
    margins = []
    real_assemble, real_search = cli.assemble_case1, cli.run_search

    def assemble(spec, fn, lattice, margin, **kwargs):
        margins.append(margin)
        return real_assemble(spec, fn, lattice, margin, **kwargs)

    def search(instance, opts):
        margins.append(instance.margin)
        return real_search(instance, opts)

    monkeypatch.setattr(cli, "assemble_case1", assemble)
    monkeypatch.setattr(cli, "run_search", search)
    assert main(["solve", "--config", config, "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "result.json").read_text())
    assert record["margin"] > 0.0
    assert len(margins) >= (2 if config == FIXED_DEMO else 1)
    assert margins == [record["margin"]] * len(margins)


def test_infeasible_fixed_master_ends_the_solve(tmp_path, monkeypatch, capsys):
    # every master is a relaxation of the full program, so the first
    # infeasible one proves the instance infeasible
    statuses = []
    real = cli.solve_sdp

    def spy(program, *args):
        sol = real(program, *args)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(cli, "solve_sdp", spy)
    path = fixed_config(tmp_path, b=5.0)
    assert main(["solve", "--config", path, "--delta", "0.025",
                 "--out-dir", str(tmp_path)]) == 4
    assert statuses == ["infeasible"]
    record = json.loads((tmp_path / "result.json").read_text())
    assert (record["status"], record["proof"]) == ("infeasible-model", "infeasible")


def test_stalled_fixed_master_moves_to_the_next_seed(tmp_path, monkeypatch):
    from dataclasses import replace

    rows = []
    real = cli.solve_sdp

    def first_stalls(program, *args):
        sol = real(program, *args)
        rows.append(program.n_rows)
        return replace(sol, status="numerical-failure") if len(rows) == 1 else sol

    assert main(["solve", "--config", FIXED_DEMO, "--delta", "0.05",
                 "--out-dir", str(tmp_path / "plain")]) == 0
    plain = json.loads((tmp_path / "plain" / "result.json").read_text())
    monkeypatch.setattr(cli, "solve_sdp", first_stalls)
    assert main(["solve", "--config", FIXED_DEMO, "--delta", "0.05",
                 "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "result.json").read_text())
    # 5 x 5 seed atoms, then the 9 x 9 seed, each with the threshold and 3 user rows
    assert rows[:2] == [25 + 4, 81 + 4]
    assert record["proof"] == "optimal"
    assert record["objective"] == pytest.approx(plain["objective"], rel=1e-6)


@pytest.mark.parametrize("verb", ["validate", "solve", "sweep"])
@pytest.mark.parametrize("polytope, message", [
    ("unbounded", "leaves the value at the mean unbounded"),
    ("empty", "is empty or the LP failed"),
])
def test_height_polytope_without_an_optimum_is_invalid(tmp_path, capsys, verb, polytope,
                                                       message):
    # an objective with no constraints, or contradictory equalities
    cons = json.loads(Path(FIXED_DEMO).read_text())["function"]["mode"]["constraints"]
    cons = [] if polytope == "unbounded" else cons + [
        {"coeffs": [1.0, 1.0], "sense": "==", "rhs": 2.0}]
    argv = [verb, "--config", fixed_config(tmp_path, mode={"constraints": cons}), "--delta",
            "0.05"]
    if verb != "validate":
        argv += ["--out-dir", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert re.search("FAIL +height_value_at_mean_bounded height polytope " + message,
                     captured.out + captured.err)
    if verb == "sweep":
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
        assert (row[1], row[4]) == ("", "error")
    else:
        assert [line for line in captured.err.splitlines() if line.startswith("error: ")] == [
            "error: config failed validation"]
        assert not (tmp_path / "result.json").exists()


def test_certify_round_trip_matches_solve(solved_reference, tmp_path):
    # the oracle's first master depends only on the decision, the duals and
    # the lattice, so certify repeats the certificate solve wrote, bit for bit
    for delta in json.loads(Path(REFERENCE).read_text())["deltas"]:
        out = tmp_path / repr(delta)
        if delta == solved_reference[1]["delta"]:
            _, record, solved = solved_reference
        else:
            solved = out / "solved"
            main(["solve", "--config", REFERENCE, "--delta", repr(delta),
                  "--out-dir", str(solved)])
            record = json.loads((solved / "result.json").read_text())
        code = main(["certify", "--config", REFERENCE,
                     "--solution", str(solved / "result.json"), "--out-dir", str(out)])
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] == record["certificate"]["verdict"] == "certified"
        assert cert["worst_case_expectation"] == record["certificate"]["worst_case_expectation"]


# worst cases of the stored delta = 0.05 records at three fine steps, as the
# certificate found them from the plain seed
_RECORD_WORST = {
    "bin_creating": {0.025: 0.5638237715, 0.0125: 0.5561715570, 0.00625: 0.5522438756},
    "fixed_two_boxes": {0.025: 0.5484380785, 0.0125: 0.5484380762, 0.00625: 0.5484380762},
}


@pytest.mark.parametrize("name, fine", [(name, fine) for name, worst in _RECORD_WORST.items()
                                        for fine in worst])
def test_stored_records_stay_certified_at_fine_steps(tmp_path, name, fine):
    record = Path(__file__).parents[1] / "perfbench" / "records" / ("%s_d0.05.json" % name)
    code = main(["certify", "--config", str(CONFIG_DIR / ("%s.json" % name)),
                 "--solution", str(record), "--delta", repr(fine), "--out-dir", str(tmp_path)])
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "certified"
    assert cert["worst_case_expectation"] == pytest.approx(_RECORD_WORST[name][fine], abs=1e-7)


def test_certify_reads_the_record_boxes_as_the_fine_lattice_writes_them(tmp_path):
    # solving at delta = 1/12 stores the corner 5/6 as 0.8333333333333333,
    # which the fine lattice at 1/60 writes 0.8333333333333334; read as it
    # is, the box would miss the 101 fine atoms on its upper faces
    from drobox.certify import adversary_oracle
    from drobox.model import Decision, lattice_points

    cfg = json.loads(Path(FIXED_DEMO).read_text())
    cfg["function"]["mode"]["boxes"][1]["upper"] = [5 / 6, 5 / 6]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path), "--delta", repr(1 / 12),
                 "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "result.json").read_text())
    fine = lattice_points(1.0, 2, 1 / 60)
    assert record["boxes"][1]["upper"] == [0.8333333333333333] * 2
    assert fine.axis[50] == 0.8333333333333334
    assert main(["certify", "--config", str(path), "--solution", str(tmp_path / "result.json"),
                 "--delta", repr(1 / 60), "--out-dir", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    spec, _ = cli.build_instance(cfg)
    own = Decision(record["heights"], [fine.box([0, 0], [60, 60]), fine.box([0, 0], [50, 50])])
    assert cert["worst_case_expectation"] == pytest.approx(adversary_oracle(own, spec, fine),
                                                           abs=1e-7)


def test_certify_coarse_fine_step_is_inconclusive(solved_reference, tmp_path, capsys):
    _, _, out = solved_reference
    code = main(["certify", "--config", REFERENCE,
                 "--solution", str(out / "result.json"),
                 "--delta", "0.1", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "coarser than delta/2" in capsys.readouterr().err
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "inconclusive"
    assert cert["worst_case_expectation"] is None


def test_certify_falsifies_shrunken_box(solved_reference, tmp_path):
    _, record, _ = solved_reference
    doctored = dict(record)
    doctored["boxes"] = [{"lower": [0.4, 0.4], "upper": [0.5, 0.5]}]
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored))
    code = main(["certify", "--config", REFERENCE, "--solution", str(path),
                 "--out-dir", str(tmp_path)])
    assert code == 3
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "falsified"
    assert cert["worst_case_expectation"] < 0.1 - 1e-6


def test_certify_requires_solution_fields(solved_reference, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"delta": 0.1}))
    code = main(["certify", "--config", REFERENCE, "--solution", str(path)])
    assert code == 1
    assert "has no" in capsys.readouterr().err


def test_certify_validates_the_instance(solved_reference, tmp_path, capsys, monkeypatch):
    _, _, out = solved_reference

    def must_not_run(*args, **kwargs):
        raise AssertionError("an invalid instance reached the certificate")

    monkeypatch.setattr(cli, "certify_solution", must_not_run)
    code = main(["certify", "--config", write_config(tmp_path, eps_sigma=0.5),
                 "--solution", str(out / "result.json"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "FAIL eps_sigma_at_least_one" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_certify_misaligned_fine_step_is_invalid(solved_reference, tmp_path, capsys):
    _, _, out = solved_reference
    code = main(["certify", "--config", REFERENCE,
                 "--solution", str(out / "result.json"),
                 "--delta", "0.7", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "does not divide" in err[0]


def test_certify_stored_record_at_the_finest_bench_step(tmp_path):
    # 25,921 atoms: the adversary needs column generation to finish here
    record = Path(__file__).parents[1] / "perfbench" / "records" / "bin_creating_d0.05.json"
    code = main(["certify", "--config", REFERENCE, "--solution", str(record),
                 "--delta", "0.00625", "--out-dir", str(tmp_path)])
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "certified"
    assert cert["fine_delta"] == 0.00625


def test_certify_zero_duals_are_inconclusive(tmp_path, capsys):
    # all-zero duals sample f^c at 0 and leave the oracle above b, but their
    # threshold row reads 0 < b: they prove nothing
    record = json.loads((Path(__file__).parents[1] / "perfbench" / "records"
                         / "bin_creating_d0.05.json").read_text())
    record["duals"] = {"Y1": np.zeros((3, 3)).tolist(), "Y2": np.zeros((2, 2)).tolist(),
                       "y": [0.0] * len(record["duals"]["y"])}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(record))
    code = main(["certify", "--config", REFERENCE, "--solution", str(path),
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "verdict=inconclusive" in capsys.readouterr().out
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "inconclusive"
    assert cert["fc_min_sampled"] >= 0.0
    assert cert["worst_case_expectation"] >= 0.1


def test_sweep_rows_in_input_order_with_failures(tmp_path, capsys):
    code = main(["sweep", "--config", REFERENCE, "--delta", "0.1",
                 "--delta", "0.3", "--delta", "0.2", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "delta,objective,nodes,wall_time,certified,proof"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.1"
    assert float(first[1]) == pytest.approx(2.0, abs=1e-6)
    assert first[4] == "certified"
    assert first[5] == "optimal"
    second = lines[2].split(",")
    assert second[0] == "0.3"
    assert second[1] == ""
    assert second[4] == "error"
    assert second[5] == ""
    third = lines[3].split(",")
    assert third[0] == "0.2"
    assert third[1] == ""
    assert third[4] == "infeasible"
    # one bad step must not sink the others, and infeasible wins the exit code
    assert code == 4
    plot = (tmp_path / "sweep_plot.csv").read_text().splitlines()
    assert len(plot) == 1
    assert plot[0].startswith("0.1,")


def test_sweep_all_certified_exits_zero(tmp_path):
    code = main(["sweep", "--config", REFERENCE, "--delta", "0.1",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[4] == "certified"


def test_sweep_validates_each_step(tmp_path, capsys):
    path = write_config(tmp_path, eps_sigma=0.5)
    code = main(["sweep", "--config", path, "--delta", "0.1",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "FAIL eps_sigma_at_least_one" in capsys.readouterr().err
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[1] == ""
    assert row[4] == "error"
    assert row[5] == ""


@pytest.mark.parametrize("mode", ["enumerate", "bnb"])
def test_solve_honours_confidence_sets(tmp_path, mode):
    # P([0, 0.5]^2) >= 0.9 pulls the box into that corner: 1.0 instead of
    # the 1.7 of the plain instance at this step
    path = write_config(tmp_path, confidence_sets=[
        {"lower": [0.0, 0.0], "upper": [0.5, 0.5], "eps": 0.9}])
    code = main(["solve", "--config", path, "--delta", "0.05", "--mode", mode,
                 "--out-dir", str(tmp_path)])
    assert code == 0
    record = json.loads((tmp_path / "result.json").read_text())
    assert (record["status"], record["proof"]) == ("solved", "optimal")
    assert record["objective"] == pytest.approx(1.0, abs=1e-6)
    assert record["boxes"] == [{"lower": [0.0, 0.0], "upper": [0.5, 0.5]}]
    assert record["node_count"] == 4
    assert len(record["duals"]["y"]) == 3
    assert record["certificate"]["verdict"] == "certified"
    assert record["certificate"]["worst_case_expectation"] == pytest.approx(0.9, abs=1e-6)


def test_sweep_too_large_for_enumeration_is_an_error_row(tmp_path, capsys):
    code = main(["sweep", "--config", REFERENCE, "--delta", "0.025",
                 "--mode", "enumerate", "--out-dir", str(tmp_path)])
    assert code == 1
    capsys.readouterr()
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "0.025"
    assert row[1] == ""
    assert row[4] == "error"


@pytest.mark.parametrize("verb", ["solve", "sweep"])
def test_internal_value_errors_propagate(tmp_path, monkeypatch, verb):
    # only instance-too-large is a user error; any other ValueError is a bug
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run_search", broken)
    with pytest.raises(ValueError, match="boom"):
        main([verb, "--config", REFERENCE, "--delta", "0.1", "--out-dir", str(tmp_path)])


# ---------------------------------------------------------------------------
# inputs that must end in one error line, and the flags and exits of each verb


def stored_record(tmp_path, solved_reference, name="record.json", **changes):
    """The shared reference record with top-level or duals fields replaced
    (a value of None deletes the field), written to tmp_path / name."""
    record = json.loads(json.dumps(solved_reference[1]))
    for key, value in changes.items():
        owner = record["duals"] if key in ("Y1", "Y2", "y") else record
        if value is None:
            del owner[key]
        else:
            owner[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def bad_inputs(tmp_path, solved_reference):
    """(name, argv) of each malformed input, every one an exit-1 error line."""
    out = str(tmp_path / "out")
    return [
        ("negative seed", ["solve", "--config", REFERENCE, "--seed", "-1",
                           "--out-dir", out]),
        ("no samples", ["solve", "--config", write_config(tmp_path, samples=0),
                        "--out-dir", out]),
        ("heights without boxes", ["certify", "--config", REFERENCE, "--solution",
                                   stored_record(tmp_path, solved_reference, "a.json",
                                                 heights=[1.0, 1.0]),
                                   "--out-dir", out]),
        ("no Y2", ["certify", "--config", REFERENCE, "--solution",
                   stored_record(tmp_path, solved_reference, "b.json", Y2=None),
                   "--out-dir", out]),
        ("nan time limit", ["solve", "--config", REFERENCE, "--time-limit", "nan",
                            "--out-dir", out]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_malformed_input_is_one_error_line(tmp_path, solved_reference, capsys,
                                           monkeypatch, case):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a malformed input reached a solve")

    monkeypatch.setattr(cli, "run_search", must_not_run)
    monkeypatch.setattr(cli, "certify_solution", must_not_run)
    name, argv = bad_inputs(tmp_path, solved_reference)[case]
    assert main(argv) == 1, name
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), (name, err)
    assert not (tmp_path / "out" / "result.json").exists()


@pytest.mark.parametrize("where", ["config-number", "under-a-file", "certify"])
def test_unusable_out_dir_is_one_error_line(tmp_path, capsys, monkeypatch, solved_reference,
                                            where):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an unusable out_dir reached a solve")

    monkeypatch.setattr(cli, "run_search", must_not_run)
    monkeypatch.setattr(cli, "certify_solution", must_not_run)
    (tmp_path / "file").write_text("")
    under_a_file = ["--out-dir", str(tmp_path / "file" / "sub")]
    if where == "config-number":
        argv = ["solve", "--config", write_config(tmp_path, out_dir=5)]
    elif where == "under-a-file":
        argv = ["solve", "--config", REFERENCE] + under_a_file
    else:
        argv = ["certify", "--config", REFERENCE, "--solution",
                stored_record(tmp_path, solved_reference)] + under_a_file
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "out" in err[0]


@pytest.mark.parametrize("changes, field", [
    ({"boxes": [{"lower": [0.0], "upper": [1.0]}]}, "boxes[0]"),
    ({"Y1": [[1.0, 0.0], [0.0, 1.0]]}, "duals.Y1"),
    ({"Y2": [[1.0]]}, "duals.Y2"),
    ({"y": [0.0, 0.0, 0.0]}, "duals.y"),
    # every number finite, as the config's are
    ({"delta": math.inf}, "delta"),
    ({"heights": [math.inf]}, "heights"),
    ({"boxes": [{"lower": [0.0, math.nan], "upper": [1.0, 1.0]}]}, "boxes[0]"),
    ({"Y1": [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, "duals.Y1"),
    ({"Y2": [[1.0, 0.0], [0.0, -math.inf]]}, "duals.Y2"),
    ({"y": [0.0, math.nan]}, "duals.y"),
    # a boolean or a string is not a number
    ({"delta": True}, "delta"),
    ({"heights": ["1.0"]}, "heights"),
    ({"boxes": [{"lower": [0.0, True], "upper": [1.0, 1.0]}]}, "boxes[0]"),
    ({"Y2": [[1.0, 0.0], [0.0, "1"]]}, "duals.Y2"),
])
def test_certify_checks_record_shapes(solved_reference, tmp_path, capsys, monkeypatch,
                                      changes, field):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a malformed record reached the certificate")

    monkeypatch.setattr(cli, "certify_solution", must_not_run)
    path = stored_record(tmp_path, solved_reference, **changes)
    assert main(["certify", "--config", REFERENCE, "--solution", path,
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: solution record: %s " % field)


def test_record_must_be_an_object(solved_reference, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["certify", "--config", REFERENCE, "--solution", str(path)]) == 2
    assert "top level must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--config", REFERENCE, "--mode", "bnb"],
    ["certify", "--config", REFERENCE, "--solution", "record.json", "--time-limit", "5"],
])
def test_flag_the_verb_does_not_read_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("verb, flags", [
    ("validate", set()),
    ("solve", {"--out-dir", "--seed", "--time-limit", "--mode"}),
    ("sweep", {"--out-dir", "--seed", "--time-limit", "--mode"}),
    ("certify", {"--out-dir", "--seed", "--solution"}),
])
def test_verb_help_lists_only_its_flags(capsys, verb, flags):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == {"--help", "--config", "--delta"} | flags


@pytest.fixture
def falsify(monkeypatch):
    """Make every certificate come back falsified."""
    def falsified(decision, duals, spec, **kwargs):
        return Certificate(0.0, 0.0, 0.0, 0.05, 1, "falsified")

    monkeypatch.setattr(cli, "certify_solution", falsified)


def test_solve_falsified_exits_3(falsify, tmp_path):
    assert main(["solve", "--config", REFERENCE, "--out-dir", str(tmp_path)]) == 3
    record = json.loads((tmp_path / "result.json").read_text())
    assert record["certificate"]["verdict"] == "falsified"


def test_sweep_falsified_beats_infeasible(falsify, tmp_path, capsys):
    code = main(["sweep", "--config", REFERENCE, "--delta", "0.1", "--delta", "0.2",
                 "--out-dir", str(tmp_path)])
    assert code == 3
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["falsified", "infeasible"]


def test_console_script_prints_no_traceback(tmp_path, solved_reference):
    # through sys.exit(main()), as the installed drobox script runs it
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for name, argv in bad_inputs(tmp_path, solved_reference):
        proc = subprocess.run([sys.executable, "-m", "drobox.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 1, (name, proc.stderr)
        assert len(err) == 1 and err[0].startswith("error: "), (name, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_box_bound_is_read_as_the_lattice_coordinate(tmp_path):
    # 0.7 is within the alignment tolerance of the lattice coordinate
    # 0.7000000000000001 at delta 0.1: both typings solve the lattice's box
    records = []
    for upper in (0.7, 0.7000000000000001):
        cfg = json.loads(Path(FIXED_DEMO).read_text())
        cfg["function"]["mode"]["boxes"][1] = {"lower": [0.0, 0.0], "upper": [upper, upper]}
        out = tmp_path / repr(upper)
        out.mkdir()
        (out / "config.json").write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(out / "config.json"), "--out-dir", str(out)]) == 0
        records.append(json.loads((out / "result.json").read_text()))
    axis = np.linspace(0.0, 1.0, 11)
    assert records[0]["boxes"][1] == {"lower": [0.0, 0.0], "upper": [axis[7], axis[7]]}
    for key in ("objective", "heights", "boxes"):
        assert records[0][key] == records[1][key]
    assert (records[0]["certificate"]["worst_case_expectation"]
            == records[1]["certificate"]["worst_case_expectation"])


def test_validated_confidence_box_holds_its_lattice_atoms():
    cfg = json.loads(Path(REFERENCE).read_text())
    cfg["confidence_sets"] = [{"lower": [0.0, 0.0], "upper": [0.3, 0.3], "eps": 0.2}]
    spec, fn, lattice = cli._validate_step(*cli.build_instance(cfg), 0.1)
    assert int(np.sum(spec.confidence_sets[2].region.contains(lattice.points))) == 16


def test_inverted_confidence_box_is_invalid(tmp_path, capsys):
    path = write_config(tmp_path, confidence_sets=[
        {"lower": [0.5, 0.5], "upper": [0.0, 0.0], "eps": 0.1}])
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: confidence_sets[0]: box has upper < lower")


@pytest.mark.parametrize("verb, overrides", [
    ("validate", {"delta": "x"}),
    ("validate", {"confidence_sets": [{"lower": [0.0, 0.0], "upper": [0.5, 0.5],
                                       "eps": "a"}]}),
    ("sweep", {"deltas": 0.1}),
    ("sweep", {"deltas": [0.1, None]}),
    ("validate", {"function": {"heights": 5}}),
    ("validate", {"function": {"heights": None}}),
    ("validate", {"confidence_sets": 5}),
    ("solve", {"search": 5}),
    ("solve", {"search": None}),
    ("solve", {"search": ["mode"]}),
    ("sweep", {"search": 5}),
    ("sweep", {"search": None}),
    ("sweep", {"search": ["mode"]}),
    # numbers validation must see as finite, and shapes it must see whole
    ("validate", {"edge": math.inf}),
    ("validate", {"b": math.nan}),
    ("validate", {"eps_mu": math.inf}),
    ("validate", {"eps_sigma": math.inf}),
    ("validate", {"function": {"heights": [math.inf]}}),
    ("validate", {"function": {"heights": []}}),
    ("validate", {"function": {"heights": [[1.0]]}}),
    ("validate", {"confidence_sets": [{"lower": [0.0, 0.0], "upper": [math.nan, 0.5],
                                       "eps": 0.2}]}),
    ("validate", {"function": {"heights": [1.0], "mode": {
        "kind": "variable", "c_minus": [[math.inf, -1.0]], "c_plus": [[1.0, 1.0]]}}}),
    ("validate", {"function": {"heights": [1.0], "mode": {
        "kind": "variable", "c_minus": [[-1.0, -1.0]], "c_plus": [[1.0, 1.0]],
        "constraints": [{"coeffs": [1.0, math.nan, 0.0, 0.0], "sense": "<=", "rhs": 2.0}]}}}),
    ("validate", {"function": {"heights": [1.0], "mode": {
        "kind": "variable", "c_minus": [[-1.0, -1.0]], "c_plus": [[1.0, 1.0]],
        "constraints": [{"coeffs": [1.0, 0.0, 0.0, 0.0], "sense": "<=", "rhs": math.inf}]}}}),
    ("sweep", {"deltas": []}),
    # a NaN search knob would switch its limit off: every test with NaN is false
    ("solve", {"search": {"time_limit": math.nan}}),
    ("solve", {"search": {"node_limit": math.nan}}),
    ("solve", {"search": {"gap_tol": math.nan}}),
    ("sweep", {"search": {"time_limit": math.nan}}),
    # a boolean or a string is not a number, nor a fraction a node count
    ("solve", {"delta": True}),
    ("sweep", {"deltas": [0.1, True]}),
    ("validate", {"b": True}),
    ("solve", {"confidence_sets": [{"lower": [0.0, 0.0], "upper": [0.5, 0.5], "eps": True}]}),
    ("validate", {"confidence_sets": [{"lower": [False, 0.0], "upper": [0.5, 0.5],
                                       "eps": 0.2}]}),
    ("validate", {"edge": "1.0"}),
    ("validate", {"mu": ["0.0", 0.0]}),
    ("validate", {"sigma": [[2.0, 0.5], [0.5, True]]}),
    ("validate", {"function": {"heights": [True]}}),
    ("validate", {"function": {"heights": [1.0], "mode": {
        "kind": "variable", "c_minus": [[-1.0, -1.0]], "c_plus": [[1.0, 1.0]],
        "constraints": [{"coeffs": [1.0, 0.0, 0.0, 0.0], "sense": "<=", "rhs": "2"}]}}}),
    ("solve", {"search": {"node_limit": True}}),
    ("solve", {"search": {"node_limit": 2.5}}),
    ("solve", {"search": {"time_limit": True}}),
])
def test_non_numeric_config_field_is_invalid(tmp_path, capsys, monkeypatch, verb, overrides):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an invalid config reached a solve")

    monkeypatch.setattr(cli, "_solve_once", must_not_run)
    argv = [verb, "--config", write_config(tmp_path, **overrides)]
    if verb != "validate":
        argv += ["--out-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("verb", ["validate", "solve"])
@pytest.mark.parametrize("kind, length", [("variable", 3), ("variable", 5),
                                          ("fixed", 1), ("fixed", 3),
                                          ("objective", 1), ("objective", 3)])
def test_constraint_coefficient_length_is_checked(tmp_path, capsys, verb, kind, length):
    # variable boxes need 2*k*m = 4 coefficients here, fixed boxes k = 2,
    # and so does the objective of fixed boxes
    check = "objective_shape" if kind == "objective" else "constraint_lengths"
    if kind == "variable":
        mode = {"kind": "variable", "c_minus": [[-1.0, -1.0]], "c_plus": [[1.0, 1.0]],
                "constraints": [{"coeffs": [1.0] * length, "sense": "<=", "rhs": 2.0}]}
        cfg = json.loads(Path(REFERENCE).read_text())
        cfg["function"]["mode"] = mode
    else:
        cfg = json.loads(Path(FIXED_DEMO).read_text())
        if kind == "objective":
            cfg["function"]["mode"]["objective"] = [1.0] * length
        else:
            cfg["function"]["mode"]["constraints"][0]["coeffs"] = [1.0] * length
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    argv = [verb, "--config", str(path)]
    if verb == "solve":
        argv += ["--out-dir", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert re.search(r"FAIL +%s" % check, captured.out + captured.err)
    err = captured.err.strip().splitlines()
    assert [line for line in err if line.startswith("error: ")] == [
        "error: config failed validation"]
    assert not (tmp_path / "result.json").exists()
