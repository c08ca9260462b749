"""One traced benchmark pass runs end to end on the current package."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).parents[1] / "perfbench" / "run.py"


def test_traced_bench_pass_checks_every_output():
    # the run exits 1 when an output check misses and 2 when the tracer's
    # per-layer self times fail to add up to the traced wall time
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "bnb_small", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["metrics"]["search.adversary_calls"]["value"] > 0
