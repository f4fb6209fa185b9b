"""Streaming ingestion: record batches → servable cuboid sets, one pass.

The paper's structures are built from a dense cube that is assumed to
exist; this package builds that cube — and every §9 cuboid chosen for
materialization — directly from a stream of fact-table records:

* :mod:`repro.ingest.batches` — batch sources (CSV always; Arrow and
  Parquet behind the soft ``pyarrow`` dependency);
* :mod:`repro.ingest.plan` — :class:`IngestPlan`: shape, cuboids,
  measure dtype, and the memory budget that decides when the build
  spills through a :class:`~repro.index.MemmapBackend`;
* :mod:`repro.ingest.accumulate` — the one-pass scatter accumulators;
* :mod:`repro.ingest.build` — :func:`ingest` (one pass, every cuboid).

``python -m repro.ingest data.csv --cuboids "0,1;1"`` runs a build from
the command line; ``docs/INGEST.md`` walks through the design.
"""

from repro.ingest.batches import (
    DEFAULT_BATCH_ROWS,
    ENV_DISABLE_PYARROW,
    IngestError,
    RecordBatch,
    batches_from_cube,
    batches_from_records,
    infer_shape,
    iter_arrow_batches,
    iter_csv_batches,
    iter_parquet_batches,
    open_batches,
    pyarrow_available,
)
from repro.ingest.build import (
    IngestResult,
    in_memory_reference,
    ingest,
)
from repro.ingest.plan import IngestPlan, group_by_dtype, plan_cuboids

__all__ = [
    "DEFAULT_BATCH_ROWS",
    "ENV_DISABLE_PYARROW",
    "IngestError",
    "IngestPlan",
    "IngestResult",
    "RecordBatch",
    "batches_from_cube",
    "batches_from_records",
    "group_by_dtype",
    "in_memory_reference",
    "infer_shape",
    "ingest",
    "iter_arrow_batches",
    "iter_csv_batches",
    "iter_parquet_batches",
    "open_batches",
    "plan_cuboids",
    "pyarrow_available",
]
