"""The physical-design advisor: §9 end to end behind one call.

Section 9 describes three coupled decisions — which dimensions deserve
prefix sums, which cuboids to materialize, and with what block sizes.
:func:`advise` runs the whole pipeline from a query log and a space
budget and returns a :class:`PhysicalDesign`: the chosen plan, the §9.1
dimension diagnosis, a human-readable report, and a one-call
:meth:`PhysicalDesign.build` that materializes everything into a
servable :class:`~repro.optimizer.materialize.MaterializedCuboidSet`.

Typical use::

    design = advise(cube.shape, log.queries, space_budget=50_000)
    print(design.report())
    served = design.build(cube_array)
    served.range_sum(query)

The *online* form closes the loop: :func:`re_advise` consumes a
:class:`~repro.query.observer.WorkloadSnapshot` (live, decay-weighted
traffic) plus the incumbent plan and returns a :class:`DesignDelta` —
builds/drops/resizes with predicted gain, Theorem-2 update-cost
accounting, and a hysteresis gate so the serving layer only hot-swaps
when the predicted improvement clears a threshold.  Zero-traffic
windows degrade gracefully (the incumbent is kept; nothing raises).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.optimizer.cost_model import design_build_cost
from repro.optimizer.cuboid_selection import (
    CuboidSelector,
    Materialization,
    SelectionResult,
    workloads_from_log,
)
from repro.optimizer.dimension_selection import (
    active_range_lengths,
    exact_selection,
    heuristic_selection,
)
from repro.optimizer.materialize import MaterializedCuboidSet
from repro.query.observer import WorkloadSnapshot
from repro.query.ranges import RangeQuery

if TYPE_CHECKING:  # pragma: no cover
    from repro.index.backend import ArrayBackend


@dataclass(frozen=True)
class PhysicalDesign:
    """The advisor's output: diagnosis + plan + builder."""

    shape: tuple[int, ...]
    query_count: int
    range_heavy_dims: tuple[int, ...]  # §9.1 heuristic choice
    optimal_dims: tuple[int, ...]  # §9.1 exact choice
    column_sums: tuple[float, ...]  # the R_j row of Figure 12
    selection: SelectionResult  # §9.2/§9.3 plan

    @property
    def plan(self) -> tuple[Materialization, ...]:
        """The chosen ``(cuboid, block size)`` materializations."""
        return self.selection.chosen

    def build(
        self,
        cube: np.ndarray,
        backend: ArrayBackend | None = None,
    ) -> MaterializedCuboidSet:
        """Materialize the plan over a concrete cube.

        Args:
            cube: The base measure array the plan was advised for.
            backend: Array backend threaded into every cuboid structure
                (``MemmapBackend`` serves the plan out of core).
        """
        if tuple(cube.shape) != self.shape:
            raise ValueError(
                f"cube shape {cube.shape} does not match the advised "
                f"shape {self.shape}"
            )
        return MaterializedCuboidSet(cube, self.plan, backend=backend)

    def report(self, dim_names: Sequence[str] | None = None) -> str:
        """A human-readable summary of every decision."""
        names = (
            [f"d{j}" for j in range(len(self.shape))]
            if dim_names is None
            else list(dim_names)
        )
        lines = [
            f"Physical design for a {'×'.join(map(str, self.shape))} cube "
            f"({self.query_count} logged queries)",
            "",
            "Dimension diagnosis (§9.1):",
        ]
        threshold = 2 * self.query_count
        for j, total in enumerate(self.column_sums):
            verdict = "range-heavy" if total >= threshold else "passive"
            lines.append(
                f"  {names[j]:<14} R_j = {total:>10.0f}  ({verdict})"
            )
        lines.append(
            "  heuristic X' = {"
            + ", ".join(names[j] for j in self.range_heavy_dims)
            + "}; exact X' = {"
            + ", ".join(names[j] for j in self.optimal_dims)
            + "}"
        )
        lines.append("")
        lines.append("Materializations (§9.2–§9.3):")
        if not self.plan:
            lines.append("  (nothing pays off under this budget)")
        for chosen in self.plan:
            label = ", ".join(names[j] for j in chosen.key)
            lines.append(
                f"  prefix sums on ({label}) with b = "
                f"{chosen.block_size}  [{chosen.space:.0f} cells]"
            )
        lines.append("")
        baseline = self.selection.baseline_cost
        reduction = (
            self.selection.benefit / baseline if baseline > 0 else 0.0
        )
        lines.append(
            f"Space used: {self.selection.total_space:.0f} cells; "
            f"modeled workload cost cut: {reduction:.0%}"
        )
        return "\n".join(lines)


def advise(
    shape: Sequence[int],
    queries: Sequence[RangeQuery],
    space_budget: float,
    max_block: int = 128,
    restrict_prefix_dims: bool = False,
) -> PhysicalDesign:
    """Run the full §9 pipeline over a query log.

    Args:
        shape: Rank-domain shape of the base cube.
        queries: The logged queries (e.g. ``WorkloadObserver.queries``).
        space_budget: Auxiliary cells allowed for all prefix structures.
        max_block: Largest block size the selector considers.
        restrict_prefix_dims: Apply the §9.1 heuristic *per chosen
            cuboid*: dimensions the log never ranges over keep raw (the
            paper's "even for cuboids that include dimension d3, the
            prefix sum would only be computed on other dimensions").

    Returns:
        The complete design; call :meth:`PhysicalDesign.build` to
        materialize it.
    """
    shape = tuple(int(n) for n in shape)
    if not queries:
        raise ValueError("the advisor needs at least one logged query")
    lengths = active_range_lengths(queries, shape)
    heuristic_chosen, column_sums = heuristic_selection(lengths)
    exact_chosen, _ = exact_selection(lengths)
    workloads = workloads_from_log(queries, shape)
    selector = CuboidSelector(
        shape, workloads, space_budget, max_block=max_block
    )
    selection = selector.solve()
    if restrict_prefix_dims:
        selection = _restrict_plan_dims(selection, lengths, len(queries))
    return PhysicalDesign(
        shape=shape,
        query_count=len(queries),
        range_heavy_dims=tuple(heuristic_chosen),
        optimal_dims=tuple(exact_chosen),
        column_sums=tuple(float(v) for v in column_sums),
        selection=selection,
    )


@dataclass(frozen=True)
class DesignDelta:
    """A recommended plan change: incumbent vs candidate, with accounting.

    The online advisor's output.  Costs are modeled element accesses over
    the snapshot window's horizon (queries weighted by decay, updates
    charged Theorem-2 maintenance), so ``gain`` and ``build_cost`` share
    a currency and :attr:`should_swap` can gate actuation on a real
    amortization argument instead of a vibe.
    """

    shape: tuple[int, ...]
    incumbent: tuple[Materialization, ...]
    candidate: tuple[Materialization, ...]
    incumbent_cost: float
    candidate_cost: float
    build_cost: float
    hysteresis: float
    reason: str = ""

    @property
    def builds(self) -> tuple[Materialization, ...]:
        """Candidate members whose cuboid the incumbent does not cover."""
        have = {m.key for m in self.incumbent}
        return tuple(m for m in self.candidate if m.key not in have)

    @property
    def drops(self) -> tuple[Materialization, ...]:
        """Incumbent members the candidate abandons."""
        keep = {m.key for m in self.candidate}
        return tuple(m for m in self.incumbent if m.key not in keep)

    @property
    def resizes(self) -> tuple[tuple[Materialization, Materialization], ...]:
        """``(old, new)`` pairs sharing a cuboid but changing block size
        or prefix-dimension restriction (a rebuild, not an in-place op)."""
        old_by_key = {m.key: m for m in self.incumbent}
        pairs = []
        for new in self.candidate:
            old = old_by_key.get(new.key)
            if old is not None and (
                old.block_size != new.block_size
                or old.prefix_dims != new.prefix_dims
            ):
                pairs.append((old, new))
        return tuple(pairs)

    @property
    def is_noop(self) -> bool:
        """Whether the candidate is materially identical to the incumbent."""
        return not (self.builds or self.drops or self.resizes)

    @property
    def gain(self) -> float:
        """Modeled cost reduction per window horizon (may be ≤ 0)."""
        return self.incumbent_cost - self.candidate_cost

    @property
    def improvement_ratio(self) -> float:
        """``incumbent_cost / candidate_cost`` (1.0 when both are zero)."""
        if self.candidate_cost <= 0:
            return 1.0 if self.incumbent_cost <= 0 else float("inf")
        return self.incumbent_cost / self.candidate_cost

    @property
    def should_swap(self) -> bool:
        """Actuate only when the change clears the hysteresis threshold.

        A no-op never swaps; otherwise the modeled improvement ratio must
        reach ``hysteresis`` (e.g. 1.15 = "at least 15% better"), which
        keeps the controller from thrashing between near-tied plans on
        workload noise.
        """
        return (not self.is_noop) and (
            self.improvement_ratio >= self.hysteresis
        )

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready view (the serving layer's ``/advise`` payload)."""

        def _member(m: Materialization) -> dict[str, object]:
            return {
                "key": list(m.key),
                "block_size": m.block_size,
                "space": m.space,
                "prefix_dims": (
                    None if m.prefix_dims is None else list(m.prefix_dims)
                ),
            }

        return {
            "shape": list(self.shape),
            "incumbent": [_member(m) for m in self.incumbent],
            "candidate": [_member(m) for m in self.candidate],
            "builds": [_member(m) for m in self.builds],
            "drops": [_member(m) for m in self.drops],
            "resizes": [
                {"old": _member(a), "new": _member(b)}
                for a, b in self.resizes
            ],
            "incumbent_cost": self.incumbent_cost,
            "candidate_cost": self.candidate_cost,
            "build_cost": self.build_cost,
            "gain": self.gain,
            "improvement_ratio": self.improvement_ratio,
            "hysteresis": self.hysteresis,
            "should_swap": self.should_swap,
            "reason": self.reason,
        }

    def report(self) -> str:
        """A human-readable one-screen summary of the recommendation."""
        lines = [
            f"Design delta for a {'×'.join(map(str, self.shape))} cube:",
            f"  incumbent cost {self.incumbent_cost:.1f} → candidate "
            f"{self.candidate_cost:.1f} "
            f"(ratio {self.improvement_ratio:.2f}, "
            f"hysteresis {self.hysteresis:.2f})",
            f"  one-off build cost {self.build_cost:.0f}",
        ]
        for m in self.builds:
            lines.append(f"  + build ⟨{m.key}⟩ b={m.block_size}")
        for old, new in self.resizes:
            lines.append(
                f"  ~ resize ⟨{new.key}⟩ b={old.block_size}"
                f"→{new.block_size}"
            )
        for m in self.drops:
            lines.append(f"  - drop ⟨{m.key}⟩ b={m.block_size}")
        if self.is_noop:
            lines.append("  (no change recommended)")
        verdict = "SWAP" if self.should_swap else "HOLD"
        lines.append(f"  verdict: {verdict}" + (
            f" — {self.reason}" if self.reason else ""
        ))
        return "\n".join(lines)


def _hold(
    shape: tuple[int, ...],
    incumbent: tuple[Materialization, ...],
    hysteresis: float,
    reason: str,
) -> DesignDelta:
    """A keep-the-incumbent delta (the graceful-degradation path)."""
    return DesignDelta(
        shape=shape,
        incumbent=incumbent,
        candidate=incumbent,
        incumbent_cost=0.0,
        candidate_cost=0.0,
        build_cost=0.0,
        hysteresis=hysteresis,
        reason=reason,
    )


def re_advise(
    snapshot: WorkloadSnapshot,
    incumbent: Sequence[Materialization],
    space_budget: float,
    *,
    max_block: int = 128,
    hysteresis: float = 1.15,
    min_query_weight: float = 1.0,
    update_batch: float = 1.0,
) -> DesignDelta:
    """Re-run the §9.2/§9.3 pipeline against a live workload window.

    This is :func:`advise`'s online sibling.  It never raises on a quiet
    window: zero-traffic (or below-threshold) snapshots return a HOLD
    delta with the incumbent unchanged, so a periodic controller can call
    it unconditionally.

    Args:
        snapshot: The observer window (decay-weighted queries + update
            mix) to optimize for.
        incumbent: The currently-installed plan; used both as the greedy
            warm start and as the comparison baseline.
        space_budget: Auxiliary cells allowed for all prefix structures.
        max_block: Largest block size the selector considers.
        hysteresis: Minimum modeled ``incumbent/candidate`` cost ratio
            before :attr:`DesignDelta.should_swap` turns true.
        min_query_weight: Minimum decayed query weight the window must
            carry before re-planning is even attempted.
        update_batch: Average updates per §5 maintenance batch (amortizes
            the Theorem-2 update cost the selector charges each plan).

    Returns:
        The recommendation; inspect :attr:`DesignDelta.should_swap`
        before actuating.
    """
    if hysteresis < 1.0:
        raise ValueError(f"hysteresis must be >= 1.0, got {hysteresis}")
    shape = tuple(int(n) for n in snapshot.shape)
    incumbent = tuple(incumbent)
    if not snapshot.has_queries():
        return _hold(shape, incumbent, hysteresis, "no queries in window")
    if snapshot.query_weight < min_query_weight:
        return _hold(
            shape,
            incumbent,
            hysteresis,
            f"window weight {snapshot.query_weight:.2f} below "
            f"threshold {min_query_weight:.2f}",
        )
    workloads = snapshot.workloads()
    if not workloads:
        # Every retained query was the all-cells singleton: nothing a
        # prefix structure could speed up.
        return _hold(
            shape, incumbent, hysteresis, "window has no range traffic"
        )
    selector = CuboidSelector(
        shape,
        workloads,
        space_budget,
        max_block=max_block,
        update_weight=snapshot.update_weight,
        update_batch=update_batch,
    )
    selection = selector.solve(initial=incumbent)
    candidate = selection.chosen
    incumbent_cost = selector.total_cost(incumbent)
    base_cells = 1
    for n in shape:
        base_cells *= n
    old_by_key = {m.key: m for m in incumbent}
    build_cost = 0.0
    for member in candidate:
        old = old_by_key.get(member.key)
        if old is not None and old.block_size == member.block_size:
            continue  # kept as-is: nothing to build
        build_cost += design_build_cost(
            selector.cuboid_cells(member.key), len(member.key), base_cells
        )
    return DesignDelta(
        shape=shape,
        incumbent=incumbent,
        candidate=candidate,
        incumbent_cost=incumbent_cost,
        candidate_cost=selection.final_cost,
        build_cost=build_cost,
        hysteresis=hysteresis,
        reason="re-planned from live window",
    )


def advise_from_snapshot(
    snapshot: WorkloadSnapshot,
    space_budget: float,
    max_block: int = 128,
    restrict_prefix_dims: bool = False,
) -> PhysicalDesign:
    """The full §9 pipeline over an observer window instead of a raw log.

    Unlike :func:`re_advise` this has no incumbent to fall back on, so a
    zero-traffic window raises just like :func:`advise` does on an empty
    log.  Weighting carries through: cuboid selection sees the window's
    decay weights, while the §9.1 diagnosis uses the retained queries.
    """
    shape = tuple(int(n) for n in snapshot.shape)
    queries = [q for q, _ in snapshot.queries]
    if not queries:
        raise ValueError("the advisor needs at least one observed query")
    lengths = active_range_lengths(queries, shape)
    heuristic_chosen, column_sums = heuristic_selection(lengths)
    exact_chosen, _ = exact_selection(lengths)
    selector = CuboidSelector(
        shape,
        snapshot.workloads(),
        space_budget,
        max_block=max_block,
        update_weight=snapshot.update_weight,
    )
    selection = selector.solve()
    if restrict_prefix_dims:
        selection = _restrict_plan_dims(selection, lengths, len(queries))
    return PhysicalDesign(
        shape=shape,
        query_count=len(queries),
        range_heavy_dims=tuple(heuristic_chosen),
        optimal_dims=tuple(exact_chosen),
        column_sums=tuple(float(v) for v in column_sums),
        selection=selection,
    )


def _restrict_plan_dims(
    selection: SelectionResult, lengths, query_count: int
) -> SelectionResult:
    """Annotate each materialization with its §9.1 dimension subset.

    Within a cuboid, a dimension keeps prefix accumulation only when the
    log's heuristic column sum reaches ``2m`` (Figure 12's threshold);
    cuboids whose every dimension is range-light keep full accumulation
    (an all-raw structure would degenerate to a scan).
    """
    from dataclasses import replace

    column_sums = lengths.sum(axis=0)
    threshold = 2 * query_count
    annotated = []
    for chosen in selection.chosen:
        subset = tuple(
            j for j in chosen.key if column_sums[j] >= threshold
        )
        if subset and subset != chosen.key:
            annotated.append(replace(chosen, prefix_dims=subset))
        else:
            annotated.append(chosen)
    return replace(selection, chosen=tuple(annotated))
