"""Exact-arithmetic toolkit for algebraic circuits and refutation certificates."""

from .poly import (
    ResourceLimitError,
    SparsePoly,
    UnassignedVariableError,
    Var,
    boolean_axiom,
    format_poly,
    parse_poly,
    parse_var,
)
from .circuit import (
    Circuit,
    CircuitBuilder,
    Metrics,
    circuit_sha256,
    eval_circuit,
    expand,
    format_circuit,
    measure,
    normalize_layered,
    parse_circuit,
    partial_evaluate,
    subcircuit,
)
from .gadget import (
    GadgetLedger,
    gadgetize,
    t_for,
)
from .refute import (
    NullstellensatzCertificate,
    assemble_refutation,
    certificate_from_json,
    certificate_to_json,
    gate_square_certificates,
)
from .verify import (
    DEFAULT_PIT_PRIME,
    ImageReport,
    PitConfig,
    VerifyReport,
    boolean_image,
    boolean_image_poly,
    verify_exact,
    verify_pit,
)
from .instances import (
    InstanceBundle,
    WVarSet,
    extract_clique_component,
    functional_identity_holds,
    gadgeted_ry_circuit,
    inverse_differences,
    lifted_subset_sum,
    mnc_instance,
    ry_circuit,
    subset_sum,
)
from .rank import (
    Partition,
    balanced_partitions,
    exact_rank,
    fullrank_witness,
    rank_matrix,
)

__version__ = "0.1.0"
