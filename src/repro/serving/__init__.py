"""The serving layer: an async OLAP range-query service.

Everything the paper's structures answer offline, this package serves
online: register cubes (with their §9 materialized plans, prefix-sum /
max-tree indexes, and naive fallbacks) on a :class:`QueryService`, bind
it to a port with :class:`ServingServer`, and range
sum/count/average/max/min plus slice and roll-up queries flow over a
stdlib-only JSON-over-HTTP surface.

In front of the tiers sit the pieces a real service needs: admission
control with explicit overload shedding, an exact LRU result cache
invalidated by update generations, and a request coalescer that merges
concurrent scalar queries into single kernel-backed batch gathers.
See ``docs/SERVING.md`` for the tour.
"""

from repro.serving.adaptive import AdaptiveController, SwapInFlight
from repro.serving.admission import AdmissionController
from repro.serving.cache import CacheKey, ResultCache, cache_key
from repro.serving.client import ServingClient, ServingClientError
from repro.serving.coalesce import COALESCIBLE, RequestCoalescer
from repro.serving.errors import (
    BadRequest,
    CubeInconsistent,
    Overloaded,
    QueryTimeout,
    ServingError,
    UnknownResource,
)
from repro.serving.http import ServingServer
from repro.serving.router import SCALAR_OPS, TIERS, TieredRouter
from repro.serving.rwlock import ReadWriteLock
from repro.serving.service import (
    QueryService,
    ServeConfig,
    ServedCube,
)

__all__ = [
    "COALESCIBLE",
    "SCALAR_OPS",
    "TIERS",
    "AdaptiveController",
    "AdmissionController",
    "BadRequest",
    "CacheKey",
    "CubeInconsistent",
    "Overloaded",
    "QueryService",
    "QueryTimeout",
    "ReadWriteLock",
    "RequestCoalescer",
    "ResultCache",
    "ServeConfig",
    "ServedCube",
    "ServingClient",
    "ServingClientError",
    "ServingError",
    "ServingServer",
    "SwapInFlight",
    "TieredRouter",
    "UnknownResource",
    "cache_key",
]
