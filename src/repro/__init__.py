"""repro — a reproduction of "Range Queries in OLAP Data Cubes".

Ho, Agrawal, Megiddo, Srikant — SIGMOD 1997.

The package implements the paper's two contributions — prefix-sum
range-sum structures (basic and blocked, with batch updates) and
branch-and-bound range-max trees (with batch updates) — plus every
substrate the paper builds on: the dense/extended/sparse cube models, the
§8–§9 cost model and physical-design optimizers, and the §10 sparse
engines (B+-tree, R*-tree, dense-region discovery).

Quickstart::

    import numpy as np
    from repro import DataCube, IntegerDimension, CategoricalDimension

    dims = [IntegerDimension("age", 1, 100),
            IntegerDimension("year", 1987, 1996),
            CategoricalDimension("type", ["home", "auto", "health"])]
    cube = DataCube.from_records(records, dims, measure="revenue")
    cube.build_index(block_size=1, max_fanout=4)
    cube.sum(age=(37, 52), year=(1988, 1996), type="auto")
"""

from repro._util import Box
from repro.core import (
    BlockedPrefixSumCube,
    InvertibleOperator,
    MaxAssignment,
    PartialPrefixSumCube,
    PointUpdate,
    PrefixSumCube,
    RangeMaxTree,
    TreeSumHierarchy,
    apply_max_updates,
    progressive_bounds,
)
from repro.cube import (
    CategoricalDimension,
    DataCube,
    DateDimension,
    Dimension,
    ExtendedDataCube,
    IntegerDimension,
)
from repro.index import (
    ArrayBackend,
    IndexSpec,
    InstrumentedIndex,
    MemmapBackend,
    MemoryBackend,
    RangeMaxIndex,
    RangeMaxIndexMixin,
    RangeSumIndex,
    RangeSumIndexMixin,
    available_indexes,
    create_index,
    register_index,
)
from repro.instrumentation import AccessCounter
from repro.optimizer import MaterializedCuboidSet
from repro.query import (
    QueryStatistics,
    RangeQuery,
    RangeQueryEngine,
    RangeSpec,
)
from repro.sparse import (
    SparseCube,
    SparseRangeMaxEngine,
    SparseRangeSum1D,
    SparseRangeSumEngine,
)

__version__ = "1.0.0"

__all__ = [
    "AccessCounter",
    "ArrayBackend",
    "BlockedPrefixSumCube",
    "Box",
    "CategoricalDimension",
    "DataCube",
    "DateDimension",
    "Dimension",
    "ExtendedDataCube",
    "IndexSpec",
    "InstrumentedIndex",
    "IntegerDimension",
    "InvertibleOperator",
    "MaterializedCuboidSet",
    "MaxAssignment",
    "MemmapBackend",
    "MemoryBackend",
    "PartialPrefixSumCube",
    "PointUpdate",
    "PrefixSumCube",
    "QueryStatistics",
    "RangeMaxIndex",
    "RangeMaxIndexMixin",
    "RangeMaxTree",
    "RangeQuery",
    "RangeQueryEngine",
    "RangeSpec",
    "RangeSumIndex",
    "RangeSumIndexMixin",
    "SparseCube",
    "SparseRangeMaxEngine",
    "SparseRangeSum1D",
    "SparseRangeSumEngine",
    "TreeSumHierarchy",
    "apply_max_updates",
    "available_indexes",
    "create_index",
    "progressive_bounds",
    "register_index",
    "__version__",
]
