"""Rule ``determinism`` — no unseeded randomness in verify/benchmarks.

The differential harness's whole value is replayability: every scenario
is derived from an explicit seed token (``repro.verify.scenarios``), and
every benchmark pins its generator so numbers are comparable across
runs.  One ``np.random.rand()`` — or a ``default_rng()`` with no seed —
quietly breaks both.

The serving layer is held to the same standard: its worker pool sizes
must not float with the host's core count.
So is the optimizer: physical-design advice replayed from the same
observer window must reproduce the same plan, or the adaptive
controller's swap history becomes impossible to audit.

The streaming builder (``repro.ingest``) joins the scope for the same
reason as the optimizer: a streamed build must be replayable — the
bit-identity contract against the in-memory reference is only testable
when nothing in the ingest path draws from an ambient stream.

The rule flags, inside ``src/repro/verify``, ``src/repro/kernels``,
``src/repro/serving``, ``src/repro/optimizer``, ``src/repro/ingest``
and ``benchmarks/``:

* any draw from the numpy *global* stream (``np.random.<fn>`` other
  than constructing generators/bit-generators/seed-sequences),
* ``np.random.default_rng()`` / ``SeedSequence()`` called with no seed,
* any use of the stdlib ``random`` module's global stream (and
  ``random.Random()`` with no seed),
* worker pools sized implicitly: a ``ThreadPoolExecutor`` /
  ``ProcessPoolExecutor`` constructed without an explicit worker count
  scales with the host's core count, so benchmark numbers silently
  change between runners.

The repo convention is a locally constructed, explicitly seeded
``np.random.Generator`` passed down as ``rng``, and an explicit
``max_workers`` on every pool.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import LintContext, Rule, Violation
from repro.analysis.rules._astutil import numpy_aliases, terminal_name

#: Executor constructors whose worker count must be explicit.
_POOL_CONSTRUCTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor"}

#: ``np.random`` attributes that *construct* seedable objects.
_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

#: Constructors that must receive an explicit seed argument.
_NEED_SEED = {"default_rng", "SeedSequence", "PCG64", "MT19937", "Philox"}


class DeterminismRule(Rule):
    """Flag unseeded ``np.random`` / ``random`` usage."""

    rule_id = "determinism"
    description = (
        "repro/verify, repro/kernels, repro/serving, repro/optimizer, "
        "repro/ingest and benchmarks must not draw from unseeded global "
        "random streams or size worker pools off the host's core count; "
        "seed every generator explicitly and pin max_workers"
    )
    scope = (
        "repro/verify",
        "repro/kernels",
        "repro/serving",
        "repro/optimizer",
        "repro/ingest",
        "benchmarks",
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        np_names = numpy_aliases(context.tree)
        random_modules, random_names = _stdlib_random_imports(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_numpy(context, node, np_names)
            yield from self._check_stdlib(
                context, node, random_modules, random_names
            )
            yield from self._check_pool(context, node)

    def _check_numpy(
        self, context: LintContext, call: ast.Call, np_names: set[str]
    ) -> Iterator[Violation]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if not (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in np_names
        ):
            return
        name = f"{base.value.id}.random.{func.attr}"
        if func.attr not in _CONSTRUCTORS:
            yield self.violation(
                context,
                call,
                f"'{name}' draws from the unseeded numpy global stream; "
                "use an explicitly seeded np.random.default_rng(seed)",
            )
        elif func.attr in _NEED_SEED and not call.args and not call.keywords:
            yield self.violation(
                context,
                call,
                f"'{name}()' without a seed is entropy-seeded; pass an "
                "explicit seed for replayable runs",
            )

    def _check_pool(
        self, context: LintContext, call: ast.Call
    ) -> Iterator[Violation]:
        """Flag executor constructions with no explicit worker count."""
        name = terminal_name(call.func)
        if name not in _POOL_CONSTRUCTORS:
            return
        if call.args:
            return  # first positional argument is max_workers
        if any(k.arg == "max_workers" for k in call.keywords):
            return
        yield self.violation(
            context,
            call,
            f"'{name}()' without max_workers sizes the pool from the "
            "host's core count; pass an explicit max_workers so runs "
            "replay across runners",
        )

    def _check_stdlib(
        self,
        context: LintContext,
        call: ast.Call,
        modules: set[str],
        names: set[str],
    ) -> Iterator[Violation]:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ):
            if func.attr == "Random" and (call.args or call.keywords):
                return
            yield self.violation(
                context,
                call,
                f"stdlib '{func.value.id}.{func.attr}' uses the global "
                "random stream; use a seeded np.random.default_rng "
                "generator instead",
            )
        elif isinstance(func, ast.Name) and func.id in names:
            if func.id == "Random" and (call.args or call.keywords):
                return
            yield self.violation(
                context,
                call,
                f"stdlib random '{func.id}' uses an unseeded stream; use "
                "a seeded np.random.default_rng generator instead",
            )


def _stdlib_random_imports(
    tree: ast.Module,
) -> tuple[set[str], set[str]]:
    """``(module aliases, imported member names)`` for stdlib ``random``."""
    modules: set[str] = set()
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    modules.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return modules, names
