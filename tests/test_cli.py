"""End-to-end tests for the command line front end."""

import json
from pathlib import Path

import numpy as np
import pytest

from drobox import cli
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


def test_certify_round_trip_matches_solve(solved_reference, tmp_path):
    _, record, out = solved_reference
    code = main(["certify", "--config", REFERENCE,
                 "--solution", str(out / "result.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == record["certificate"]["verdict"] == "certified"
    assert cert["worst_case_expectation"] == pytest.approx(
        record["certificate"]["worst_case_expectation"], abs=1e-9
    )


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
