"""indcert: certificate-checked reductions of independence complexes of
grid-like graphs, with independent Euler-characteristic and Betti oracles."""

from .graphs import (
    FamilySpec,
    Graph,
    GraphError,
    cylinder,
    four_row_minus_corners,
    four_row_with_chord,
    generate_family,
    graphs_equal_labeled,
    grid,
    hex_cylinder,
    make_graph,
    moebius,
    moebius_hex_strip,
)
from .euler import (
    DEFAULT_FACE_BUDGET,
    FaceBudgetExceeded,
    FrontierBudgetExceeded,
    chi_four_row_grid,
    chi_reduced,
    edge_deletion_identity,
)
from .complexes import SimplicialComplex, collapse_oracle, independence_complex
from .homology import graph_betti
from .moves import (
    Certificate,
    OpStep,
    PreconditionError,
    ReplayReport,
    apply_step,
    check_step,
    replay,
)
from .certificates import (
    MarkedPatch,
    builtin_certificate,
    make_replacement,
)
from .verify import (
    SuiteConfig,
    WedgeShape,
    expected_shape,
    run_suite,
    verify_appendix,
    verify_case,
)

__version__ = "0.1.0"
