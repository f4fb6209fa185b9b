"""Rule ``registry-contract`` — registered classes honour their profile.

The registry (:mod:`repro.index.registry`) records *claims* about each
index: its ``kind`` decides which protocol it must satisfy, the
``persistable`` flag promises ``state_dict``/``from_state``, and a
``FuzzProfile(supports_updates=True)`` promises a real ``absorb`` (what
the mixins' ``apply_updates`` drives) or an own ``apply_updates``.  The
protocol mixins deliberately ship *abstract* placeholders for those
(they raise ``NotImplementedError``), so a class can register
capabilities it never implements and nothing fails until the
differential harness — or a user — exercises the gap.

This rule cross-references each ``@register_index`` class against the
actual source of ``repro/index/protocol.py`` (parsed, not imported):
the protocol classes define the required surface per kind, the mixin
classes define what is concretely inherited, and anything still missing
is reported at registration site.
"""

from __future__ import annotations

import ast
import importlib.util
from collections.abc import Iterator
from functools import lru_cache
from pathlib import Path

from repro.analysis.engine import LintContext, Rule, Violation
from repro.analysis.rules._astutil import (
    constant_bool,
    decorator_call,
    is_abstract_body,
    keyword_value,
    terminal_name,
)

#: Protocol class per registry kind, as defined in ``index/protocol.py``.
_PROTOCOLS = {"sum": "RangeSumIndex", "max": "RangeMaxIndex"}

#: Mixin bases whose concrete methods count as provided.
_MIXIN_BASES = ("RangeSumIndexMixin", "RangeMaxIndexMixin", "_IndexBase")


@lru_cache(maxsize=1)
def protocol_surface() -> dict[str, dict[str, bool]]:
    """Method tables of ``repro.index.protocol``, parsed from source.

    Returns:
        Map of class name → {method name → concretely implemented}.
        Protocol classes report every method as abstract; mixins report
        ``raise NotImplementedError`` placeholders as abstract and
        everything else as concrete.
    """
    spec = importlib.util.find_spec("repro.index.protocol")
    assert spec is not None and spec.origin is not None
    tree = ast.parse(Path(spec.origin).read_text(encoding="utf-8"))
    tables: dict[str, dict[str, bool]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods: dict[str, bool] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                methods[stmt.name] = not is_abstract_body(stmt)
        tables[node.name] = methods
    # Mixins extend _IndexBase; fold the base's table underneath.
    base = tables.get("_IndexBase", {})
    for mixin in ("RangeSumIndexMixin", "RangeMaxIndexMixin"):
        if mixin in tables:
            tables[mixin] = {**base, **tables[mixin]}
    return tables


class RegistryContractRule(Rule):
    """``@register_index`` classes must implement what they declare."""

    rule_id = "registry-contract"
    description = (
        "@register_index classes must statically implement the protocol "
        "surface (per kind) and the capabilities their registration "
        "declares (persistable -> state_dict/from_state, "
        "FuzzProfile.supports_updates -> absorb or an own apply_updates)"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        module_classes = {
            node.name: node
            for node in ast.walk(context.tree)
            if isinstance(node, ast.ClassDef)
        }
        for cls in module_classes.values():
            decorator = decorator_call(cls, "register_index")
            if decorator is None:
                continue
            yield from self._check_class(
                context, cls, decorator, module_classes
            )

    def _check_class(
        self,
        context: LintContext,
        cls: ast.ClassDef,
        decorator: ast.Call,
        module_classes: dict[str, ast.ClassDef],
    ) -> Iterator[Violation]:
        kind = self._registered_kind(decorator)
        provided = self._provided_methods(cls, module_classes)
        missing: list[str] = []

        protocol_cls = _PROTOCOLS.get(kind or "")
        if protocol_cls is not None:
            required = protocol_surface().get(protocol_cls, {})
            missing.extend(
                name
                for name in sorted(required)
                # apply_updates is capability-gated below: the _IndexBase
                # path ends in ``absorb``, whose NotImplementedError
                # default is the *declared* behaviour of a read-only index.
                if name != "apply_updates" and name not in provided
            )

        persistable = constant_bool(
            keyword_value(decorator, "persistable"), default=True
        )
        if persistable:
            missing.extend(
                name
                for name in ("state_dict", "from_state")
                if name not in provided
            )

        profile = keyword_value(decorator, "fuzz_profile")
        if (
            isinstance(profile, ast.Call)
            and terminal_name(profile.func) == "FuzzProfile"
        ):
            supports_updates = constant_bool(
                keyword_value(profile, "supports_updates"), default=True
            )
            own = {s.name for s in cls.body if isinstance(s, ast.FunctionDef)}
            if supports_updates and "apply_updates" not in own:
                missing += [
                    n for n in ("apply_updates", "absorb") if n not in provided
                ]

        if missing:
            unique = sorted(set(missing))
            yield self.violation(
                context,
                cls,
                f"registered index '{cls.name}' is missing concrete "
                f"implementations required by its registration: "
                f"{', '.join(unique)}",
            )

    @staticmethod
    def _registered_kind(decorator: ast.Call) -> str | None:
        value = keyword_value(decorator, "kind")
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
        return None

    def _provided_methods(
        self,
        cls: ast.ClassDef,
        module_classes: dict[str, ast.ClassDef],
        _seen: frozenset[str] = frozenset(),
    ) -> set[str]:
        """Concrete methods available on ``cls``: own defs (minus
        ``NotImplementedError`` placeholders), recognised mixin bases,
        and bases defined in the same module."""
        provided: set[str] = set()
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and not is_abstract_body(
                stmt
            ):
                provided.add(stmt.name)
        tables = protocol_surface()
        for base in cls.bases:
            base_name = terminal_name(base)
            if base_name is None or base_name in _seen:
                continue
            if base_name in _MIXIN_BASES:
                provided.update(
                    name
                    for name, concrete in tables.get(base_name, {}).items()
                    if concrete
                )
            elif base_name in module_classes and base_name != cls.name:
                provided.update(
                    self._provided_methods(
                        module_classes[base_name],
                        module_classes,
                        _seen | {cls.name},
                    )
                )
        return provided
