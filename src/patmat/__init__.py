"""Pattern matrices over {0, *, ?} and strong structural system analysis.

The package decides properties that must hold for every real matrix
consistent with a symbolic zero/nonzero/arbitrary pattern: full rank with
replayable certificates, controllability of descriptor systems,
input-state observability, output controllability, and target
controllability of directed networks.
"""

from .errors import (
    DimensionError,
    MembershipError,
    TextParseError,
    VertexRangeError,
)
from .network import (
    DirectedGraph,
    NetworkProblem,
    check_target_controllability,
    parse_graph,
    qualitative_pattern,
    selector_pattern,
)
from .pattern import (
    PatternMatrix,
    hstack,
    identity_pattern,
    parse_pattern_text,
    vstack,
)
from .rank import (
    RankVerdict,
    StallReport,
    full_column_rank,
    full_row_rank,
    grid_witness_search,
    numeric_rank,
    pencil_full_rank,
    refutation,
    refute_full_rank,
    strongly_nonsingular_square,
    verify_certificate,
    verify_refutation,
)
from .realization import (
    RealizationMatrix,
    ValueDistribution,
    contains,
    decompose_sum,
    derive_seed,
    sample_member,
)
from .symbols import QUEST, STAR, ZERO, Symbol, add_symbol, mul_symbol
from .systems import (
    AnalysisReport,
    ConditionCheck,
    StructuredDescriptorSystem,
    StructuredIOSystem,
    SystemProperty,
    Verdict,
    build_output_ctrl_pattern,
    check_descriptor,
    check_iso,
    check_output_controllability,
    check_ssc,
    member_is_regular,
    regularity_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
    "Symbol",
    "ZERO",
    "STAR",
    "QUEST",
    "add_symbol",
    "mul_symbol",
    "PatternMatrix",
    "identity_pattern",
    "hstack",
    "vstack",
    "parse_pattern_text",
    "RealizationMatrix",
    "ValueDistribution",
    "contains",
    "sample_member",
    "decompose_sum",
    "derive_seed",
    "RankVerdict",
    "StallReport",
    "full_row_rank",
    "full_column_rank",
    "verify_certificate",
    "verify_refutation",
    "strongly_nonsingular_square",
    "numeric_rank",
    "grid_witness_search",
    "refutation",
    "refute_full_rank",
    "pencil_full_rank",
    "Verdict",
    "SystemProperty",
    "ConditionCheck",
    "AnalysisReport",
    "StructuredDescriptorSystem",
    "StructuredIOSystem",
    "check_ssc",
    "check_descriptor",
    "check_iso",
    "build_output_ctrl_pattern",
    "check_output_controllability",
    "member_is_regular",
    "regularity_diagnostic",
    "DirectedGraph",
    "NetworkProblem",
    "qualitative_pattern",
    "selector_pattern",
    "check_target_controllability",
    "parse_graph",
    "DimensionError",
    "MembershipError",
    "TextParseError",
    "VertexRangeError",
]
