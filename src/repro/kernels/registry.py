"""The kernel registry and the backend-selection precedence chain.

Mirrors :mod:`repro.index.registry`: backends self-register under a short
name via :func:`register_kernel`, and everything else refers to them by
that name.  Selection follows a fixed precedence, most specific first:

1. an explicit ``kernel=`` argument at the call site;
2. the per-index override (the ``kernel`` attribute structures inherit
   from :class:`repro.index.protocol._IndexBase`, also settable through
   :class:`~repro.query.engine.RangeQueryEngine`'s ``kernel=`` kwarg);
3. the ``REPRO_KERNEL`` environment variable;
4. the default, ``"numpy"`` — the serial primitives.

Kernel instances are created lazily and cached per name: backends are
long-lived (the threaded backend owns a worker pool), so one instance
serves the whole process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from collections.abc import Callable

from repro.kernels.protocol import ExecutionKernel

#: Environment variable consulted by :func:`resolve_kernel` (step 3).
ENV_KERNEL = "REPRO_KERNEL"

#: The backend an unconfigured process runs on.
DEFAULT_KERNEL = "numpy"


@dataclass(frozen=True)
class KernelInfo:
    """Registry record for one execution backend."""

    name: str
    factory: Callable[[], ExecutionKernel]
    description: str = ""


_REGISTRY: dict[str, KernelInfo] = {}
_INSTANCES: dict[str, ExecutionKernel] = {}


def register_kernel(
    name: str, *, description: str = ""
) -> Callable[[Callable[[], ExecutionKernel]], Callable[[], ExecutionKernel]]:
    """Class/factory decorator registering an execution backend.

    Args:
        name: Registry name (``"numpy"``, ``"threaded"``, ``"numba"``...).
        description: One-line human summary (shown by benchmarks/docs).
    """

    def decorate(
        factory: Callable[[], ExecutionKernel],
    ) -> Callable[[], ExecutionKernel]:
        if name in _REGISTRY:
            raise ValueError(f"kernel {name!r} is already registered")
        _REGISTRY[name] = KernelInfo(
            name=name, factory=factory, description=description
        )
        return factory

    return decorate


def available_kernels() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))


def kernel_info(name: str) -> KernelInfo:
    """The registry record for ``name`` (raises ``KeyError`` on typos)."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown kernel {name!r}; available: "
            f"{', '.join(available_kernels())}"
        )
    return _REGISTRY[name]


def get_kernel(name: str) -> ExecutionKernel:
    """The (cached) backend instance registered under ``name``."""
    info = kernel_info(name)
    if name not in _INSTANCES:
        _INSTANCES[name] = info.factory()
    return _INSTANCES[name]


def resolve_kernel(
    selected: str | ExecutionKernel | None = None,
    override: str | ExecutionKernel | None = None,
) -> ExecutionKernel:
    """Resolve the backend per the precedence chain (module docstring).

    Args:
        selected: The call site's explicit choice (name or instance).
        override: The per-index override attribute, if any.

    Returns:
        A live :class:`ExecutionKernel`.  An unknown name — wherever it
        came from, including ``$REPRO_KERNEL`` — raises ``KeyError``
        loudly rather than silently falling back.
    """
    env = os.environ.get(ENV_KERNEL) or None
    for choice in (selected, override, env):
        if choice is None:
            continue
        if isinstance(choice, str):
            return get_kernel(choice)
        return choice
    return get_kernel(DEFAULT_KERNEL)
