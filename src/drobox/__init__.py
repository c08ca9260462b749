"""Safe discretized approximation of distributionally robust box constraints.

The package builds, solves, and certifies conservative finite approximations
of constraints of the form

    b <= min_{P in ambiguity set} E_P[ sum_i x_i * 1_{B_i}(t) ],

where the B_i are axis-aligned boxes inside the hypercube [0, M]^m and the
ambiguity set is a moment family (first-moment trust region, second-moment
cap, confidence rows).  Submodules:

* model      - instance types, indicators, lattices
* lipschitz  - trace bounds, Lipschitz constant, safe step, safety margin
* sdp        - conic programs and the interior-point solver
* assemble   - discretized dual models (fixed and variable boxes) on a
               margin the caller computes once per solve
* search     - branch and bound plus exhaustive box enumeration
* certify    - adversary oracle, duality gap, pointwise dual checks
* cli        - validate / solve / sweep / certify command line
"""

from drobox.assemble import (
    AssembledModel,
    assemble_case1,
    assemble_case2,
)
from drobox.certify import (
    Certificate,
    adversary_oracle,
    adversary_problem,
    certify_solution,
    fc_values,
    sample_fc,
    weak_duality_gap,
)
from drobox.lipschitz import (
    LipschitzCertificate,
    lipschitz_certificate,
    lipschitz_constant,
    max_safe_step,
    safety_margin,
    trace_bounds,
)
from drobox.model import (
    AmbiguitySpec,
    BoxRegion,
    ConfidenceSet,
    Decision,
    DualSolution,
    FixedBoxes,
    Lattice,
    LinearConstraint,
    SimpleFunctionSpec,
    ValidationReport,
    VariableBoxes,
    WholeDomain,
    lattice_points,
    smoothed_indicator,
    validate_spec,
)
from drobox.sdp import (
    ConicProgram,
    SdpSolution,
    smat,
    solve_sdp,
    svec,
)
from drobox.search import (
    Incumbent,
    SearchInstance,
    SearchOptions,
    enumerate_boxes,
    run_search,
    solve_bnb,
)

__version__ = "0.1.0"
