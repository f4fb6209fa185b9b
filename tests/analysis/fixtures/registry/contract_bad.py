"""Seeded ``registry-contract`` violations (must-flag fixture)."""

from repro._util import check_query_box
from repro.index.protocol import RangeSumIndexMixin
from repro.index.registry import FuzzProfile, register_index


# VIOLATION: persistable (default True) but no state_dict/from_state,
# FuzzProfile.supports_updates (default True) but neither absorb nor an
# apply_updates of its own.
@register_index(
    "fixture_hollow_sum",
    kind="sum",
    fuzz_profile=FuzzProfile(dtypes=("int64",)),
)
class HollowSum(RangeSumIndexMixin):
    def __init__(self, cube):
        self.shape = cube.shape

    def range_sum(self, box, counter=None):
        check_query_box(box, self.shape)
        return 0

    def memory_cells(self):
        return 0


# VIOLATION: no mixin, missing most of the protocol surface.
@register_index("fixture_bare_max", kind="max", persistable=False)
class BareMax:
    def __init__(self, cube):
        self.shape = cube.shape

    def query(self, box, counter=None):
        check_query_box(box, self.shape, allow_empty=False)
        return None
