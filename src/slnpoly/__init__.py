"""Exact Yang-Baxter state-sum invariants for oriented singular links."""

from .laurent import LaurentPoly, parse_poly, quantum_int
from .spintensor import (
    PolyMatrix,
    crossing_matrix,
    kron,
    mat_mul,
    spin_set,
)
from .diagram import (
    BraidWord,
    Diagram,
    DiagramError,
    Orient,
    Tile,
    braid_to_diagram,
    close_braid,
    connected_sum,
    disjoint_union,
    from_json,
    mirror,
    parse_braid_word,
    to_json,
    validate,
    writhe,
)
from .evaluator import (
    EvalContext,
    OracleSizeError,
    evaluate_closed,
    evaluate_tangle,
    normalized_invariant,
    oracle_edge_enumeration,
    oracle_rotation_states,
)
from .braidrep import RepImage, check_monoid_relations, rho
from .identities import (
    CheckResult,
    all_passed,
    check_curl_vertex,
    check_gamma_extension,
    check_moy,
    check_singular_relations,
    check_unitarity,
    check_ybe,
)

__all__ = [
    "LaurentPoly", "parse_poly", "quantum_int",
    "PolyMatrix", "crossing_matrix", "kron", "mat_mul", "spin_set",
    "BraidWord", "Diagram", "DiagramError", "Orient", "Tile",
    "braid_to_diagram", "close_braid", "connected_sum", "disjoint_union",
    "from_json", "mirror", "parse_braid_word", "to_json", "validate", "writhe",
    "EvalContext", "OracleSizeError", "evaluate_closed", "evaluate_tangle",
    "normalized_invariant", "oracle_edge_enumeration", "oracle_rotation_states",
    "RepImage", "check_monoid_relations", "rho",
    "CheckResult", "all_passed", "check_curl_vertex", "check_gamma_extension",
    "check_moy", "check_singular_relations", "check_unitarity", "check_ybe",
]
