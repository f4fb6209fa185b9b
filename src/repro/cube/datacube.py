"""The user-facing OLAP data cube with attribute-level range queries.

:class:`DataCube` couples a dense measure array with named
:class:`~repro.cube.dimensions.Dimension` encoders and exposes the paper's
query classes in attribute space::

    cube = DataCube.from_records(records, dims, measure="revenue")
    cube.build_index(block_size=10, max_fanout=4)
    cube.sum(age=(37, 52), year=(1988, 1996), type="auto")   # range-sum
    cube.max(state="CA")                                     # range-max
    cube.average(year=1995)                                  # (sum, count)

Conditions per dimension: a 2-tuple for a contiguous range, a scalar for a
singleton, or omitted for ``all`` — mirroring the paper's query model.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cube.builder import build_measure_array
from repro.cube.dimensions import Dimension, dimension_shape
from repro.index.registry import IndexSpec
from repro.instrumentation import NULL_COUNTER, AccessCounter
from repro.query.engine import RangeQueryEngine
from repro.query.ranges import RangeQuery, RangeSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.index import ArrayBackend


class DataCube:
    """A dense d-dimensional MDDB with named dimensions.

    Args:
        dimensions: Ordered dimension encoders (the functional attributes).
        measures: Dense measure array matching the dimension shape.
        counts: Optional per-cell record counts (enables AVERAGE).
    """

    def __init__(
        self,
        dimensions: Sequence[Dimension],
        measures: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> None:
        self.dimensions = tuple(dimensions)
        expected = dimension_shape(self.dimensions)
        if tuple(measures.shape) != expected:
            raise ValueError(
                f"measure array shape {measures.shape} does not match the "
                f"dimension shape {expected}"
            )
        names = [dim.name for dim in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names in {names}")
        self.measures = np.asarray(measures)
        self.counts = None if counts is None else np.asarray(counts)
        self._by_name = {dim.name: j for j, dim in enumerate(self.dimensions)}
        self._engine: RangeQueryEngine | None = None

    @classmethod
    def from_records(
        cls,
        records: Iterable[Mapping[str, object]],
        dimensions: Sequence[Dimension],
        measure: str,
        dtype: np.dtype | type = np.int64,
    ) -> DataCube:
        """Aggregate raw records into a cube (see §1's MDDB construction)."""
        measures, counts = build_measure_array(
            records, dimensions, measure, dtype
        )
        return cls(dimensions, measures, counts)

    @property
    def shape(self) -> tuple[int, ...]:
        """Rank-domain shape of the cube."""
        return tuple(self.measures.shape)

    @property
    def ndim(self) -> int:
        """Number of functional attributes d."""
        return len(self.dimensions)

    def dimension(self, name: str) -> Dimension:
        """Look up a dimension encoder by name."""
        return self.dimensions[self._by_name[name]]

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------

    def build_index(
        self,
        block_size: int = 1,
        max_fanout: int | None = 4,
        prefix_dims: Sequence[str] | None = None,
        sum_index: str | IndexSpec | None = None,
        max_index: str | IndexSpec | None = None,
        backend: ArrayBackend | None = None,
    ) -> RangeQueryEngine:
        """Precompute the paper's structures over this cube.

        Args:
            block_size: ``1`` for the basic prefix-sum array (§3), larger
                for the blocked structure (§4).
            max_fanout: Fanout of the range-max/min trees (§6), or ``None``
                to skip them.
            prefix_dims: Dimension *names* to restrict prefix sums to
                (§9.1); mutually exclusive with ``block_size > 1``.
            sum_index: Explicit registry name or
                :class:`~repro.index.IndexSpec` for the range-sum
                structure — overrides ``block_size`` / ``prefix_dims``.
            max_index: Explicit registry spec for the range-max structure
                — overrides ``max_fanout``.
            backend: Array backend threaded into every structure (pass a
                :class:`~repro.index.MemmapBackend` for out-of-core).

        Returns:
            The engine (also retained on the cube for the query methods).
        """
        if sum_index is None:
            if prefix_dims is not None and block_size != 1:
                raise ValueError(
                    "prefix_dims and block_size > 1 cannot combine; pick "
                    "the §9.1 subset design or the §4 blocked design"
                )
            if prefix_dims is not None:
                sum_index = IndexSpec.of(
                    "partial_prefix_sum",
                    prefix_dims=tuple(
                        self._by_name[name] for name in prefix_dims
                    ),
                )
            elif block_size != 1:
                sum_index = IndexSpec.of(
                    "blocked_prefix_sum", block_size=block_size
                )
            else:
                sum_index = IndexSpec.of("prefix_sum")
        if max_index is None and max_fanout is not None:
            max_index = IndexSpec.of("range_max_tree", fanout=max_fanout)
        self._engine = RangeQueryEngine(
            self.measures,
            sum_index=sum_index,
            max_index=max_index,
            counts=self.counts,
            backend=backend,
        )
        # One measure (and counts) array: from now on, the engine's.
        self.measures = self._engine.base
        self.counts = self._engine.counts
        return self._engine

    @property
    def engine(self) -> RangeQueryEngine:
        """The built engine, constructing a default one on first use."""
        if self._engine is None:
            self.build_index()
        assert self._engine is not None
        return self._engine

    # ------------------------------------------------------------------
    # Attribute-level queries
    # ------------------------------------------------------------------

    def parse_query(self, conditions: Mapping[str, object]) -> RangeQuery:
        """Translate named conditions into a rank-space range query.

        Args:
            conditions: Per-dimension-name constraint — a 2-tuple
                ``(lo, hi)`` of attribute values for a range, a scalar for
                a singleton, or ``None``/omitted for ``all``.
        """
        from repro.cube.hierarchy import HierarchicalDimension, LevelValue

        unknown = set(conditions) - set(self._by_name)
        if unknown:
            raise KeyError(f"unknown dimensions: {sorted(unknown)}")
        specs = []
        for dim in self.dimensions:
            condition = conditions.get(dim.name)
            if condition is None:
                specs.append(RangeSpec.all())
            elif isinstance(condition, LevelValue):
                if not isinstance(dim, HierarchicalDimension):
                    raise TypeError(
                        f"dimension {dim.name!r} has no hierarchy levels"
                    )
                lo, hi = dim.resolve_level_value(condition)
                specs.append(RangeSpec.between(lo, hi))
            elif isinstance(condition, tuple) and len(condition) == 2:
                lo, hi = dim.encode_range(condition[0], condition[1])
                specs.append(RangeSpec.between(lo, hi))
            else:
                specs.append(RangeSpec.at(dim.encode(condition)))
        return RangeQuery(tuple(specs))

    def sum(
        self, counter: AccessCounter = NULL_COUNTER, **conditions: object
    ) -> object:
        """Range-SUM over the selected region."""
        return self.engine.sum(self.parse_query(conditions), counter)

    def count(
        self, counter: AccessCounter = NULL_COUNTER, **conditions: object
    ) -> object:
        """Range-COUNT of contributing records over the selected region."""
        return self.engine.count(self.parse_query(conditions), counter)

    def average(
        self, counter: AccessCounter = NULL_COUNTER, **conditions: object
    ) -> float:
        """Range-AVERAGE via the (sum, count) pair."""
        return self.engine.average(self.parse_query(conditions), counter)

    def max(
        self, counter: AccessCounter = NULL_COUNTER, **conditions: object
    ) -> tuple[dict[str, object], object]:
        """Range-MAX: decoded attribute coordinates and the max value."""
        index, value = self.engine.max(self.parse_query(conditions), counter)
        return self._decode_index(index), value

    def min(
        self, counter: AccessCounter = NULL_COUNTER, **conditions: object
    ) -> tuple[dict[str, object], object]:
        """Range-MIN via the min-ordered §6 tree."""
        index, value = self.engine.min(self.parse_query(conditions), counter)
        return self._decode_index(index), value

    def absorb(
        self,
        records: Iterable[Mapping[str, object]],
        measure: str,
    ) -> int:
        """Incrementally load new fact records (the §5 nightly batch).

        Each record is a measure delta (and a record count) at its cell,
        applied by the engine when an index is built (every structure
        stays exact without a rebuild), else by
        :func:`~repro.core.batch_update.write_batch`; a batch some cell
        cannot hold exactly raises ``UnfitUpdate`` and changes nothing.

        Args:
            records: New fact records, same schema as ``from_records``.
            measure: Key of the measure attribute.

        Returns:
            The number of distinct cells touched.
        """
        from repro.core.batch_update import PointUpdate, write_batch

        updates = [
            PointUpdate(
                tuple(dim.encode(record[dim.name]) for dim in self.dimensions),
                record[measure],
            )
            for record in records
        ]
        counted = (
            None
            if self.counts is None
            else [PointUpdate(update.index, 1) for update in updates]
        )
        if self._engine is not None:
            self._engine.apply_updates(updates, counted)
        else:
            write_batch(self.measures, updates, self.counts, counted)
        return len({update.index for update in updates})

    def cuboid(self, names: Sequence[str]) -> DataCube:
        """Project onto a cuboid: a group-by on the named dimensions (§9).

        The remaining dimensions take the value ``all`` — their axes are
        summed out of the measures (and counts).  The result is a normal
        :class:`DataCube`, so cuboid prefix sums and max trees build the
        same way as on the base cube.

        Args:
            names: Dimension names to keep, in the base cube's axis order.
        """
        keep = sorted(self._by_name[name] for name in names)
        if not keep:
            raise ValueError("a cuboid needs at least one dimension")
        if len(keep) != len(set(keep)):
            raise ValueError(f"duplicate dimension names in {list(names)}")
        dropped = tuple(
            j for j in range(self.ndim) if j not in set(keep)
        )
        measures = (
            self.measures.sum(axis=dropped) if dropped else self.measures
        )
        counts = None
        if self.counts is not None:
            counts = (
                self.counts.sum(axis=dropped) if dropped else self.counts
            )
        return DataCube(
            [self.dimensions[j] for j in keep], measures, counts
        )

    def _decode_index(self, index: Sequence[int]) -> dict[str, object]:
        return {
            dim.name: dim.decode(rank)
            for dim, rank in zip(self.dimensions, index)
        }
