"""Core algorithms of the paper: prefix sums, blocking, updates, max trees."""

from repro.core.batch_update import (
    PointUpdate,
    apply_batch_to_prefix,
    apply_updates_naive,
    combine_duplicate_updates,
    contract_updates_to_blocks,
    delta_for_assignment,
    partition_updates,
    theorem2_region_bound,
)
from repro.core.blocked import (
    BlockedPartialPrefixSumCube,
    BlockedPrefixSumCube,
    block_contract,
)
from repro.core.bounds import (
    MaxBounds,
    ProgressiveBounds,
    progressive_bounds,
    progressive_max_bounds,
)
from repro.core.max_update import (
    MaxAssignment,
    MaxUpdateStats,
    apply_max_updates,
)
from repro.core.operators import (
    OPERATORS,
    PRODUCT,
    SUM,
    XOR,
    InvertibleOperator,
    get_operator,
)
from repro.core.prefix_sum import (
    PartialPrefixSumCube,
    PrefixSumCube,
    compute_prefix_array,
)
from repro.core.range_max import RangeMaxTree
from repro.core.tree_sum import TreeSumHierarchy

__all__ = [
    "BlockedPartialPrefixSumCube",
    "BlockedPrefixSumCube",
    "InvertibleOperator",
    "MaxAssignment",
    "MaxBounds",
    "MaxUpdateStats",
    "OPERATORS",
    "PRODUCT",
    "PartialPrefixSumCube",
    "PointUpdate",
    "PrefixSumCube",
    "ProgressiveBounds",
    "RangeMaxTree",
    "SUM",
    "TreeSumHierarchy",
    "XOR",
    "apply_batch_to_prefix",
    "apply_max_updates",
    "apply_updates_naive",
    "block_contract",
    "combine_duplicate_updates",
    "compute_prefix_array",
    "contract_updates_to_blocks",
    "delta_for_assignment",
    "get_operator",
    "partition_updates",
    "progressive_bounds",
    "progressive_max_bounds",
    "theorem2_region_bound",
]
