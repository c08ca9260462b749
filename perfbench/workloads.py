"""Workload table of the drobox benchmark.

Each workload is a fixed tuple of CLI operations that run back to back in
one process (a closed loop with one client).  The operations and their
reference outputs live here so that the runner, the worker and the
baseline script read one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

SHIPPED = {
    "bin_creating": "src/drobox/configs/bin_creating.json",
    "fixed_two_boxes": "src/drobox/configs/fixed_two_boxes.json",
}

# B&B at delta = 1/12 runs 31 nodes (about 45 s); a node limit keeps one
# pass short while every node still solves a tall relaxed program.
BNB_NODE_LIMIT = 4

# Relative tolerance of the objective references.
OBJECTIVE_RTOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI call: `drobox solve` or `drobox certify`.

    config names a shipped config, or a derived one in DERIVED.  For a
    solve, delta is the lattice step; for a certify, it is the fine
    certification step and record is the stored result file under
    perfbench/records.  objective is the reference value of a solve.
    """

    verb: str
    config: str
    delta: float
    mode: Optional[str] = None
    record: Optional[str] = None
    objective: Optional[float] = None


# Configs the benchmark derives from a shipped one: (base, search knobs).
DERIVED = {
    "bin_creating_bnb": ("bin_creating",
                         {"mode": "bnb", "node_limit": BNB_NODE_LIMIT}),
}

_REF_STEPS = ((0.1, 2.0), (1 / 12, 2.0), (1 / 15, 2.0), (0.05, 1.7))
_FINE_STEPS = (0.025, 0.0125, 0.00625)
_RECORDS = (("bin_creating", "bin_creating_d0.05.json"),
            ("fixed_two_boxes", "fixed_two_boxes_d0.05.json"))

WORKLOADS = {
    # Why each workload is there, and the layers it stresses and bypasses,
    # is stated in BENCHMARK.json and perfbench/README.md.
    "ref_sweep": tuple(Op("solve", "bin_creating", d, mode="enumerate", objective=obj)
                       for d, obj in _REF_STEPS),
    "bnb_small": (Op("solve", "bin_creating_bnb", 0.1, mode="bnb", objective=2.0),
                  Op("solve", "bin_creating_bnb", 1 / 12, mode="bnb", objective=2.0)),
    "fixed_fine": (Op("solve", "fixed_two_boxes", 0.025, objective=0.3242190468),
                   Op("solve", "fixed_two_boxes", 0.02, objective=0.2793752712)),
    "recertify_fine": tuple(Op("certify", cfg, fine, record=rec)
                            for cfg, rec in _RECORDS for fine in _FINE_STEPS),
}
