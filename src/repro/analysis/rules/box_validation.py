"""Rule ``box-validation`` — registered entry points validate their boxes.

The shipped bug class (PR 3): query paths that index backend arrays with
unvalidated bounds either crash on out-of-range boxes or — worse —
silently answer the wrong region via negative-index wraparound, and the
empty-range identity rule (``check_query_box(..., allow_empty=True)``)
only holds when every entry point actually consults it.

The rule finds every ``@register_index`` class and requires each public
entry-point method defined on it (``query``, ``query_many``, and
anything starting with ``sum``/``max``/``range_sum``/``range_max``) to
validate before touching storage: either a direct call to
``check_query_box`` / ``normalize_query_arrays`` / ``validate_range``,
or delegation to another method of the same class that validates
(resolved as a fixpoint over the class's own call graph, so
``range_sum → _check_box → check_query_box`` passes).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import LintContext, Rule, Violation
from repro.analysis.rules._astutil import (
    decorator_call,
    has_decorator,
    terminal_name,
    walk_function_body,
)

#: Callables that perform the normative box/bounds validation.
_VALIDATORS = {
    "check_query_box",
    "normalize_query_arrays",
    "validate_range",
}

_ENTRY_EXACT = {"query", "query_many"}
_ENTRY_PREFIXES = ("sum", "max", "range_sum", "range_max")


def _is_entry_point(name: str) -> bool:
    if name.startswith("_"):
        return False
    return name in _ENTRY_EXACT or name.startswith(_ENTRY_PREFIXES)


class BoxValidationRule(Rule):
    """Entry points on registered indexes must call ``check_query_box``."""

    rule_id = "box-validation"
    description = (
        "public query/query_many/sum*/max* methods on @register_index "
        "classes must validate via check_query_box (directly or through "
        "a validated delegate) before touching backend arrays"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if decorator_call(node, "register_index") is None:
                continue
            yield from self._check_class(context, node)

    def _check_class(
        self, context: LintContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
        }
        validated = self._validated_fixpoint(methods)
        for name, func in sorted(methods.items()):
            if not _is_entry_point(name):
                continue
            if has_decorator(func, "property", "cached_property", "setter"):
                continue
            if name in validated:
                continue
            yield self.violation(
                context,
                func,
                f"entry point '{cls.name}.{name}' does not validate its "
                "query box: call check_query_box (or delegate to a "
                "method that does) before touching backend arrays",
            )

    @staticmethod
    def _validated_fixpoint(
        methods: dict[str, ast.FunctionDef],
    ) -> set[str]:
        """Methods that validate directly or via same-class delegation."""
        direct: set[str] = set()
        delegates: dict[str, set[str]] = {}
        for name, func in methods.items():
            called_self: set[str] = set()
            for call in _body_calls(func):
                target = call.func
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                ):
                    called_self.add(target.attr)
                if terminal_name(target) in _VALIDATORS:
                    direct.add(name)
            delegates[name] = called_self
        validated = set(direct)
        changed = True
        while changed:
            changed = False
            for name, called in delegates.items():
                if name not in validated and called & validated:
                    validated.add(name)
                    changed = True
        return validated


def _body_calls(func: ast.FunctionDef) -> Iterator[ast.Call]:
    for node in walk_function_body(func):
        if isinstance(node, ast.Call):
            yield node
