"""One traced benchmark pass runs end to end on the current package."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["bnb_small", "fixed_fine", "ref_sweep", "recertify_fine"])
def test_traced_bench_pass_checks_every_output(workload):
    # the run exits 1 when an output check misses and 2 when the tracer's
    # per-layer self times fail to add up to the traced wall time
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    metrics = result["metrics"]
    if workload in ("bnb_small", "ref_sweep"):
        assert metrics["search.adversary_calls"]["value"] > 0
    elif workload == "recertify_fine":
        assert metrics["certify.atoms"]["value"] > 0
    else:
        # the fixed-box masters hold the lattice rows that bind (at most 54
        # rows); one program of every lattice row has 2,605 at delta = 0.02
        assert metrics["sdp.rows_max"]["value"] < 200
