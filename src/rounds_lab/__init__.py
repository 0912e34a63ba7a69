"""Round-limited query algorithms under a batched oracle.

Submodules: oracle (hidden instances and transcripts), locate (search in a
sorted array by rank probes), select (search in an unsorted array), rank_sort
(sorting plus its adversary floor), cake (proportional division), reductions
(model adapters and the division-to-sorting bridge), harness (experiments
and reports), cli (console entry point).
"""

from .cake import (Allocation, PiecewiseDensity, parse_cake_file,
                   proportional_protocol, verify_proportional)
from .harness import (BoundRow, ExperimentConfig, bounds, emit_report,
                      run_experiment)
from .locate import locate_det, locate_det_dist, locate_det_subset, locate_rand
from .oracle import (EQUAL, GREATER, LESS, TARGET, ComparisonQuery,
                     HiddenInstance, RankQuery, Session, open_session)
from .rank_sort import forced_query_count, sort_rank, sorting_lower_bound
from .reductions import (ordered_to_locate_adapter, run_reduction,
                         unordered_to_select_adapter)
from .select import build_schedule, exact_expected_queries, select_det, select_rand

__all__ = [
    "Allocation", "PiecewiseDensity", "parse_cake_file",
    "proportional_protocol", "verify_proportional",
    "BoundRow", "ExperimentConfig", "bounds", "emit_report", "run_experiment",
    "locate_det", "locate_det_dist", "locate_det_subset", "locate_rand",
    "EQUAL", "GREATER", "LESS", "TARGET", "ComparisonQuery", "HiddenInstance",
    "RankQuery", "Session", "open_session",
    "forced_query_count", "sort_rank", "sorting_lower_bound",
    "ordered_to_locate_adapter", "run_reduction", "unordered_to_select_adapter",
    "build_schedule", "exact_expected_queries", "select_det", "select_rand",
]
