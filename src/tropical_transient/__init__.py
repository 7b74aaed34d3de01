"""Exact max-plus linear algebra and rank-one transients of matrix products.

The package studies finite families of square max-plus matrices whose
digraphs share a support, are strongly connected, and whose only critical
cycle is a weight-0 loop at node 1.  Products drawn from such a family
become tropically rank-one once they are long enough; the modules here
compute exact bounds on that transient length, fold and factor products,
and verify the underlying walk structure on the trellis digraph of a
factor sequence.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    check_length_sufficient,
    compute_bound_report,
    explicit_bound,
    implicit_bound,
    implicit_sequence_bound,
)
from .digraph import (
    CycleMeanResult,
    avoiding_walk_weights,
    best_paths_from_one,
    best_paths_to_one,
    geometrically_equivalent,
    is_irreducible,
    lambda_star,
    max_cycle_mean,
)
from .errors import (
    AssumptionError,
    BudgetExceededError,
    DimensionError,
    FamilyFileError,
    PivotError,
    TropicalError,
)
from .family import (
    AssumptionCheck,
    MatrixFamily,
    SupDerived,
    ValidationReport,
)
from .io import load_expected, load_family, load_sequence
from .matrix import TropicalMatrix, rank_one_factor
from .products import (
    ProductSequence,
    TransientEstimate,
    estimate_transient,
    fold,
)
from .semiring import EPSILON, Epsilon, Weight, weight_from_token, weight_token
from .trellis import (
    LemmaCheck,
    LemmaReport,
    TrellisDigraph,
    WalkSummary,
    best_avoiding_full_weight,
    best_through_one_weight,
    build_trellis,
    check_lemma_bounds,
    final_weights_all,
    initial_weights_all,
    optimal_final_walk,
    optimal_full_walk,
    optimal_initial_walk,
)

__all__ = [name for name in dir() if not name.startswith("_")]
