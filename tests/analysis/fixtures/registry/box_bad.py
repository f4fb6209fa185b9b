"""Seeded ``box-validation`` violations (must-flag fixture)."""

from repro.index.protocol import RangeSumIndexMixin
from repro.index.registry import register_index


@register_index("fixture_unvalidated_sum", kind="sum", persistable=False)
class UnvalidatedSum(RangeSumIndexMixin):
    def __init__(self, cube):
        self.cube = cube
        self.shape = cube.shape

    def range_sum(self, box, counter=None):  # VIOLATION: no validation
        return self.cube[box.slices()].sum()

    def max_value(self, box):  # VIOLATION: no validation
        return self.cube[box.slices()].max()

    def range_sum_unchecked(self, box):  # VIOLATION: no suffix exempts
        return self.cube[box.slices()].sum()

    def memory_cells(self):
        return 0

    def state_dict(self):
        return {}

    @classmethod
    def from_state(cls, state, backend=None):
        return cls(state["cube"])
