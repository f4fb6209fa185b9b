"""backend-lifecycle: every backend acquisition released or transferred.

The :class:`~repro.index.backend.ArrayBackend` contract (PR 6/8/9) makes
``make_backend()`` / ``subscope(tag)`` results *resources*: a
:class:`MemmapBackend` scope owns spill files that outlive garbage
collection, so an acquisition that reaches an exit path unreleased and
untransferred leaks disk for the life of the process — and the inverse
mistake, calling ``release()`` on a backend the *caller* provided,
unlinks sibling builds' live arrays (the PR 9 review bug: an aborted
``ingest_per_scan`` released a shared root, deleting spill files other
builds were still serving; that function has since been removed).

The rule runs :func:`repro.analysis.ownership.analyze_function` over
every function in scope and reports two distinct violations:

* a **leak** — an ``OWNED`` (or conditionally owned) acquisition
  reaching a ``return`` / ``raise`` / fall-through exit with no
  dominating ``release()`` or ownership transfer (return,
  attribute/subscript store, or being passed to another call).
  Exception paths count: an escape inside a ``try`` body does *not*
  satisfy the ``except``-handler's re-raise, because the exception may
  have fired first.
* a **caller-owned release** — ``release()`` on a parameter (or an
  unguarded release of a conditionally-owned binding).  Conditional
  ownership must release behind a flag (``if owns_root:``) or an
  identity test (``if build_backend is not None:``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import LintContext, Rule, Violation
from repro.analysis.ownership import Ownership, analyze_function

#: Method names whose call results are tracked resources.
ACQUISITION_ATTRS = frozenset({"subscope", "make_backend"})

_EXIT_LABELS = {
    "return": "the return path",
    "end": "the fall-through exit",
    "raise": "a raise path",
    "handler-raise": "the exception re-raise path",
}


def _is_acquisition(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in ACQUISITION_ATTRS
    )


class BackendLifecycleRule(Rule):
    """Backend scopes released on every exit path, never cross-released."""

    rule_id = "backend-lifecycle"
    description = (
        "make_backend()/subscope() acquisitions must be released or "
        "ownership-transferred on every exit path (exception paths "
        "included); releasing a caller-provided backend is a distinct "
        "violation"
    )
    scope = (
        "repro/serving",
        "repro/ingest",
        "repro/index",
        "repro/optimizer",
        "repro/kernels",
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            report = analyze_function(node, _is_acquisition)
            for leak in report.leaks:
                acq = leak.acquisition
                where = _EXIT_LABELS.get(leak.kind, leak.kind)
                exit_line = getattr(leak.exit_node, "lineno", node.lineno)
                yield self.violation(
                    context,
                    acq.node,
                    f"backend {acq.name!r} acquired here is neither "
                    f"released nor ownership-transferred on {where} "
                    f"(line {exit_line}) of {node.name!r}; release it "
                    "in a finally/except or transfer it via "
                    "return/attribute-store",
                )
            for bad in report.borrowed_releases:
                state = bad.acquisition.state
                if state is Ownership.MAYBE:
                    detail = (
                        "is only conditionally owned — guard the "
                        "release with the ownership flag recorded at "
                        "acquisition time (e.g. 'if owns_root:')"
                    )
                else:
                    detail = (
                        "is caller-provided — releasing it unlinks "
                        "arrays sibling builds may still be serving"
                    )
                yield self.violation(
                    context,
                    bad.node,
                    f"release of backend {bad.acquisition.name!r}, "
                    f"which {detail}",
                )
