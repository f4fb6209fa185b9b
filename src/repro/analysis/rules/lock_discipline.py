"""lock-discipline: tier reads under the read lock, mutations under write.

The serving layer's correctness story (SERVING.md, "Update consistency")
is a writer-preferred rwlock per cube: tier computations hold the read
side so an update cannot tear the tiers mid-scan, and every mutation —
including the generation bump and result-cache invalidation that make
stale cache entries detectable — happens on the write side *before* the
lock is dropped.  PR 8's review found the failure mode this rule
automates: a generation bump sequenced after the ``write_locked`` block
let a racing read cache a stale answer under the new generation.

Three checks, all scoped to ``repro/serving``:

* **Tier computations** (``run_scalar`` / ``run_batch`` call sites in
  ``service.py`` / ``adaptive.py``) must run under the rwlock — either
  lexically inside an ``async with ...read_locked()/write_locked():``
  block, or inside a lambda/nested function handed to a *guard helper*
  (a callee, resolved through the project call graph, that only ever
  invokes that parameter under the lock — ``ServingService._run_read``
  is the canonical one), or in a function whose every resolved call
  site is itself under the lock.
* **Mutations** (``apply_updates`` / ``write_batch`` call sites in those
  files, plus every
  ``.generation`` bump and ``invalidate_cube(...)`` call anywhere in
  serving) must be under the *write* side, by the same lexical or
  interprocedural reasoning (the nested ``run()`` closure invoked
  inside ``_apply_update``'s write block is the motivating case).
* **Completeness**: every ``write_locked`` block that applies updates
  (directly or through a locally-resolved callee) must also bump
  ``.generation`` before the lock is released.

Resolution is optimistic: an unresolvable call or an empty caller set
means "no information" and the lexical evidence decides.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator

from repro.analysis.callgraph import FunctionInfo, ModuleInfo, Project
from repro.analysis.engine import LintContext, Rule, Violation
from repro.analysis.rules._astutil import terminal_name

#: Context-manager method names that take the rwlock.
READ_LOCKS = frozenset({"read_locked", "write_locked"})
WRITE_LOCKS = frozenset({"write_locked"})

#: Tier computations that must hold (at least) the read side.
READ_CALLS = frozenset({"run_scalar", "run_batch"})
#: Tier mutations that must hold the write side.
WRITE_CALLS = frozenset({"apply_updates", "write_batch"})

AnyFunction = ast.FunctionDef | ast.AsyncFunctionDef


class LockDisciplineRule(Rule):
    """rwlock read side for tier reads, write side for mutations."""

    rule_id = "lock-discipline"
    description = (
        "tier reads must hold the rwlock read side and mutations the "
        "write side; generation bumps and cache invalidation must not "
        "be reachable outside the write lock"
    )
    scope = ("repro/serving",)

    def __init__(self) -> None:
        self._guarded: dict[tuple[str, str, frozenset[str]], bool] = {}
        self._module_parents: dict[str, dict[ast.AST, ast.AST]] = {}

    def check(self, context: LintContext) -> Iterator[Violation]:
        project = context.project_view()
        module = project.module_for(context.path)
        if module is None:
            module = project.add_module(context.path, context.tree)
        parents = self._parents_for(module)

        yield from self._check_tier_calls(context, project, module, parents)
        yield from self._check_mutations(context, project, module, parents)
        yield from self._check_blocks_bump(context, project, module)

    # -- (A) tier computations ------------------------------------------

    def _check_tier_calls(
        self,
        context: LintContext,
        project: Project,
        module: ModuleInfo,
        parents: dict[ast.AST, ast.AST],
    ) -> Iterator[Violation]:
        for call in ast.walk(context.tree):
            if not isinstance(call, ast.Call):
                continue
            name = terminal_name(call.func)
            if name in READ_CALLS:
                kinds, side = READ_LOCKS, "read"
            elif name in WRITE_CALLS:
                kinds, side = WRITE_LOCKS, "write"
            else:
                continue
            if self._call_protected(call, kinds, project, module, parents):
                continue
            yield self.violation(
                context,
                call,
                f"tier {'mutation' if side == 'write' else 'computation'} "
                f"{name}() runs outside the rwlock {side} side — it can "
                "observe (or cause) torn tiers while an update is "
                "mid-batch",
            )

    # -- (B) generation bumps / cache invalidation ----------------------

    def _check_mutations(
        self,
        context: LintContext,
        project: Project,
        module: ModuleInfo,
        parents: dict[ast.AST, ast.AST],
    ) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if not any(
                    isinstance(t, ast.Attribute) and t.attr == "generation"
                    for t in targets
                ):
                    continue
                what = "generation bump"
            elif (
                isinstance(node, ast.Call)
                and terminal_name(node.func) == "invalidate_cube"
            ):
                what = "cache invalidation"
            else:
                continue
            if self._node_protected(
                node, WRITE_LOCKS, project, module, parents
            ):
                continue
            yield self.violation(
                context,
                node,
                f"{what} outside the write lock — a racing read can "
                "cache a stale answer under the new generation (or "
                "miss the invalidation entirely)",
            )

    # -- (C) mutation blocks must bump --------------------------------

    def _check_blocks_bump(
        self,
        context: LintContext,
        project: Project,
        module: ModuleInfo,
    ) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not _lock_items(node, WRITE_LOCKS):
                continue
            if not self._block_has(
                node, project, module, self._is_apply_updates
            ):
                continue
            if self._block_has(node, project, module, self._is_bump):
                continue
            yield self.violation(
                context,
                node,
                "this write-locked block applies updates but never "
                "bumps .generation before releasing the lock — readers "
                "admitted after the unlock can cache answers the "
                "update already invalidated",
            )

    def _is_apply_updates(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and terminal_name(node.func) in WRITE_CALLS
        )

    def _is_bump(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            return any(
                isinstance(t, ast.Attribute) and t.attr == "generation"
                for t in targets
            )
        return False

    def _block_has(
        self,
        block: ast.With | ast.AsyncWith,
        project: Project,
        module: ModuleInfo,
        predicate: Callable[[ast.AST], bool],
    ) -> bool:
        """Whether the block (or a locally-resolved callee) matches."""
        for stmt in block.body:
            for node in ast.walk(stmt):
                if predicate(node):
                    return True
                if isinstance(node, ast.Call):
                    resolved = project.resolve_call(node, module)
                    if resolved is not None and any(
                        predicate(inner)
                        for inner in ast.walk(resolved.node)
                    ):
                        return True
        return False

    # -- lock reasoning -------------------------------------------------

    def _parents_for(self, module: ModuleInfo) -> dict[ast.AST, ast.AST]:
        cached = self._module_parents.get(module.path)
        if cached is None:
            cached = {}
            for node in ast.walk(module.tree):
                for child in ast.iter_child_nodes(node):
                    cached.setdefault(child, node)
            self._module_parents[module.path] = cached
        return cached

    def _call_protected(
        self,
        call: ast.Call,
        kinds: frozenset[str],
        project: Project,
        module: ModuleInfo,
        parents: dict[ast.AST, ast.AST],
    ) -> bool:
        return self._node_protected(call, kinds, project, module, parents)

    def _node_protected(
        self,
        node: ast.AST,
        kinds: frozenset[str],
        project: Project,
        module: ModuleInfo,
        parents: dict[ast.AST, ast.AST],
        depth: int = 0,
    ) -> bool:
        if _under_lock(node, parents, kinds):
            return True
        if depth >= 3:
            return False
        # Inside a lambda / nested def passed to a guard helper?
        carrier, outer_call = _enclosing_callable_argument(node, parents)
        if carrier is not None and outer_call is not None:
            target = project.resolve_call(outer_call, module)
            if target is not None and isinstance(target, FunctionInfo):
                param = _param_for_argument(outer_call, carrier, target)
                if param is not None and self._param_guarded(
                    target, param, kinds
                ):
                    return True
        # Inside a function whose every resolved call site is locked?
        owner = project.enclosing_function(node)
        if owner is None:
            return False
        sites = project.callers(owner)
        if not sites:
            return False
        owner_module = project.by_path.get(owner.path)
        for caller, call_site in sites:
            caller_module = project.by_path.get(caller.path)
            if caller_module is None:
                return False
            site_parents = self._parents_for(caller_module)
            if not self._node_protected(
                call_site,
                kinds,
                project,
                caller_module,
                site_parents,
                depth + 1,
            ):
                return False
        del owner_module
        return True

    def _param_guarded(
        self, target: FunctionInfo, param: str, kinds: frozenset[str]
    ) -> bool:
        """Whether ``target`` only ever touches ``param`` under the lock.

        The interprocedural heart of the rule: a helper like
        ``ServingService._run_read`` whose sole use of its ``fn``
        parameter sits inside ``async with cube.rwlock.read_locked():``
        extends the lock to every callable its callers pass in.
        """
        key = (target.qualname, param, kinds)
        cached = self._guarded.get(key)
        if cached is not None:
            return cached
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(target.node):
            for child in ast.iter_child_nodes(node):
                parents.setdefault(child, node)
        loads = [
            node
            for node in ast.walk(target.node)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id == param
        ]
        result = bool(loads) and all(
            _under_lock(load, parents, kinds) for load in loads
        )
        self._guarded[key] = result
        return result


def _lock_items(
    node: ast.With | ast.AsyncWith, kinds: frozenset[str]
) -> bool:
    return any(
        isinstance(item.context_expr, ast.Call)
        and terminal_name(item.context_expr.func) in kinds
        for item in node.items
    )


def _under_lock(
    node: ast.AST,
    parents: dict[ast.AST, ast.AST],
    kinds: frozenset[str],
) -> bool:
    """Whether ``node`` sits in the *body* of a matching with-block."""
    current = node
    while True:
        parent = parents.get(current)
        if parent is None:
            return False
        if isinstance(parent, (ast.With, ast.AsyncWith)):
            in_body = any(
                current is stmt or _contains(stmt, current)
                for stmt in parent.body
            )
            if in_body and _lock_items(parent, kinds):
                return True
        current = parent


def _contains(container: ast.AST, node: ast.AST) -> bool:
    return any(node is child for child in ast.walk(container))


def _enclosing_callable_argument(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> tuple[ast.AST | None, ast.Call | None]:
    """The innermost lambda/def containing ``node`` that is itself an
    argument of a call, plus that call."""
    current = parents.get(node)
    while current is not None:
        if isinstance(
            current, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            holder = parents.get(current)
            if isinstance(holder, ast.keyword):
                holder = parents.get(holder)
            if isinstance(holder, ast.Call):
                return current, holder
            return None, None
        current = parents.get(current)
    return None, None


def _param_for_argument(
    call: ast.Call, argument: ast.AST, target: FunctionInfo
) -> str | None:
    """The ``target`` parameter name that receives ``argument``."""
    params = target.parameters()
    offset = 0
    if (
        target.is_method
        and params
        and params[0] in ("self", "cls")
        and isinstance(call.func, ast.Attribute)
    ):
        offset = 1
    for index, arg in enumerate(call.args):
        if arg is argument:
            position = offset + index
            return params[position] if position < len(params) else None
    for kw in call.keywords:
        if kw.value is argument:
            return kw.arg
    return None
