"""Compliant box validation, including delegation (must-not-flag)."""

from repro._util import check_query_box
from repro.index.protocol import RangeSumIndexMixin
from repro.index.registry import register_index
from repro.query.batch import normalize_query_arrays


@register_index("fixture_validated_sum", kind="sum", persistable=False)
class ValidatedSum(RangeSumIndexMixin):
    def __init__(self, cube):
        self.cube = cube
        self.shape = cube.shape

    def _check_box(self, box):
        return check_query_box(box, self.shape)

    def range_sum(self, box, counter=None):
        if self._check_box(box):
            return 0
        return self.cube[box.slices()].sum()

    def sum_total(self, counter=None):
        # Validates transitively: sum_total -> range_sum -> _check_box.
        from repro._util import full_box

        return self.range_sum(full_box(self.shape), counter)

    def sum_many(self, lows, highs, counter=None):
        lo, hi = normalize_query_arrays(lows, highs, self.shape)
        return [self.cube[tuple(map(slice, low, high + 1))].sum()
                for low, high in zip(lo, hi)]

    def memory_cells(self):
        return 0

    def state_dict(self):
        return {}

    @classmethod
    def from_state(cls, state, backend=None):
        return cls(state["cube"])

    @property
    def max_cells(self):
        # Properties are not entry points.
        return self.cube.size


class UnregisteredHelper:
    """Not registered: the rule must ignore it entirely."""

    def query(self, box):
        return box
