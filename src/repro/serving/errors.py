"""The serving error taxonomy, mapped onto HTTP status codes.

Every failure the service can produce deliberately — malformed input,
unknown cube, shed load, expired deadline — is a :class:`ServingError`
subclass carrying its wire status.  The HTTP layer turns any of them
into a JSON error body; anything *else* escaping a handler is a bug and
surfaces as a 500 so the differential harness and the overload tests can
tell "declined by design" from "crashed".
"""

from __future__ import annotations


class ServingError(Exception):
    """Base class for all deliberate service-side failures."""

    #: HTTP status the error maps to on the wire.
    status = 500
    #: Stable machine-readable error code for clients.
    code = "internal"

    def payload(self) -> dict:
        """The JSON body the HTTP layer writes for this error."""
        return {"error": self.code, "message": str(self)}


class BadRequest(ServingError):
    """Malformed payload: bad JSON, bad ranges, unknown operator."""

    status = 400
    code = "bad_request"


class UnknownResource(ServingError):
    """Unknown endpoint or cube name."""

    status = 404
    code = "not_found"


class Overloaded(ServingError):
    """Admission control shed the request: in-flight and queue full.

    The 429 of the serving layer — the explicit signal that overload is
    being degraded gracefully instead of queueing without bound.
    """

    status = 429
    code = "overloaded"


class QueryTimeout(ServingError):
    """The per-request deadline expired (queue wait + execution)."""

    status = 504
    code = "timeout"


class CubeInconsistent(ServingError):
    """An update failed partway and the cube's tiers may disagree.

    Delta validation makes this unreachable for the failure modes the
    service anticipates (dtype/overflow rejections happen before any
    tier is touched), but if a tier structure still raises mid-apply the
    cube is quarantined: better an explicit 500 on every request than
    answers that depend on which tier a query happens to route to.
    """

    status = 500
    code = "cube_inconsistent"
