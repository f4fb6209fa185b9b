"""Query model, statistics, baselines, workloads and the engine facade."""

from repro.query.batch import (
    batch_max_index,
    boxes_to_arrays,
    normalize_query_arrays,
    prefix_sum_many,
    rolling_window_bounds,
)
from repro.query.engine import RangeQueryEngine
from repro.query.naive import (
    naive_max_index,
    naive_max_value,
    naive_range_sum,
    naive_sum_range,
)
from repro.query.observer import (
    WorkloadObserver,
    WorkloadSnapshot,
)
from repro.query.ranges import (
    RangeQuery,
    RangeSpec,
    SpecKind,
    canonical_box,
)
from repro.query.stats import QueryStatistics, average_statistics
from repro.query.workload import (
    WorkloadProfile,
    clustered_points,
    fixed_size_box,
    generate_query_log,
    make_cube,
    make_float_cube,
    random_box,
    random_query_arrays,
    run_query_log,
)

__all__ = [
    "QueryStatistics",
    "RangeQuery",
    "RangeQueryEngine",
    "RangeSpec",
    "SpecKind",
    "WorkloadObserver",
    "WorkloadProfile",
    "WorkloadSnapshot",
    "average_statistics",
    "batch_max_index",
    "boxes_to_arrays",
    "canonical_box",
    "clustered_points",
    "fixed_size_box",
    "generate_query_log",
    "make_cube",
    "make_float_cube",
    "naive_max_index",
    "naive_max_value",
    "naive_range_sum",
    "naive_sum_range",
    "normalize_query_arrays",
    "prefix_sum_many",
    "random_box",
    "random_query_arrays",
    "rolling_window_bounds",
    "run_query_log",
]
