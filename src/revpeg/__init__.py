"""Reversible peg solitaire on graphs.

Pegs start on all but one vertex; a jump takes a peg over an adjacent peg
into a hole two steps away, and an unjump is the exact reversal. This
package classifies which graphs can be reduced to a single peg, produces
explicit move-sequence witnesses both by exhaustive search and by
constructive procedures, and checks the algebraic invariants that certify
the impossible cases.
"""

from .errors import (
    CapacityExceeded,
    DisconnectedGraph,
    EmbeddingNotFound,
    IllDefined,
    IllegalMove,
    IllegalMoveAt,
    InvariantViolation,
    NotDoublyFree,
    NotSameClass,
    NotSolvableStart,
    ParseError,
    PatternMismatch,
    PreconditionFailed,
    SolitaireError,
    ValidationError,
)
from .families import (
    cycle_graph,
    double_star,
    h_graph,
    path_graph,
    paw_graph,
    star_graph,
)
from .graphio import parse_graph, serialize_graph, witness_from_json, witness_to_json
from .model import (
    JUMP,
    UNJUMP,
    Configuration,
    Graph,
    Move,
    MoveKind,
    MoveSequence,
    apply_move,
    is_connected,
    is_legal,
    jump,
    legal_moves,
    replay,
    unjump,
)
from .oracle import (
    Classification,
    EquivalencePartition,
    Verdict,
    classify,
    equivalence_partition,
    min_unjumps,
    reachable_set,
    solve_from,
    witness_to,
)
from .hclasses import HClass, h_class_of
from .construct import (
    HEmbedding,
    WorkingTree,
    absorb_nearest_peg,
    find_h_embedding,
    find_spanning_tree,
    p4_move,
    shift_hole_onto_h,
    solve_constructive,
    solve_constructive_to,
    solve_cycle,
    solve_path,
    transform_within_h,
)
from .quaternion import Quaternion, q_mul
from .invariants import (
    BinaryWeighting,
    PathCycleVerdict,
    StarCertificate,
    binary_weighting,
    classify_cycle,
    classify_path,
    closed_form,
    doubly_free_predicate,
    lifted_cycle_weight,
    path_weight,
    star_certificate,
    total_binary_weight,
)

__version__ = "0.1.0"
