"""Name → factory registry for every aggregate structure.

Before this layer, four private naming conventions coexisted: the engine
hardcoded one ``if/elif`` per structure, the §9 advisor and cost model
referred to structures by ad-hoc strings, ``io.py`` had bespoke
save/load per class, and the benchmarks instantiated classes directly.
The registry replaces all four: a structure is registered once, under
one canonical name, with its aggregate kind and capabilities, and every
consumer — :class:`~repro.query.engine.RangeQueryEngine`, the §9
materializer, generic persistence, benchmarks, user code — instantiates
it through :func:`create_index`.

Registering a custom index::

    from repro.index import register_index, RangeSumIndexMixin

    @register_index("my_sketch", kind="sum", persistable=False)
    class SketchSum(RangeSumIndexMixin):
        def __init__(self, cube, **params): ...
        def range_sum(self, box, counter=NULL_COUNTER): ...
        def apply_updates(self, updates): ...
        def memory_cells(self): ...

    engine = RangeQueryEngine(cube, sum_index="my_sketch")

Built-in structures register themselves at import time; the lazy loader
in :func:`_ensure_builtin_indexes` makes the registry self-populating
even when ``repro.index`` is imported before ``repro.core`` /
``repro.sparse``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable
from typing import Any

from repro.index.backend import ArrayBackend

#: Kinds an index may register under.
INDEX_KINDS = ("sum", "max")


@dataclass(frozen=True)
class FuzzProfile:
    """What the differential harness may throw at a registered index.

    Declared at registration time so :mod:`repro.verify` can generate
    scenarios for *every* index without per-structure special cases: the
    profile states which dtypes and operators the structure supports,
    the dimensionalities it accepts, and how to draw valid construction
    parameters for a given shape.

    Attributes:
        dtypes: Numpy dtype names the structure accepts as cube dtype.
        operators: Operator names (see :mod:`repro.core.operators`) the
            structure can be built with; empty for max-kind indexes,
            which have no operator parameter.  The scenario generator
            additionally filters by dtype (``xor`` needs integers,
            ``product`` a zero-free float domain).
        min_ndim: Smallest cube dimensionality supported.
        max_ndim: Largest cube dimensionality worth fuzzing.
        supports_updates: Whether ``apply_updates`` is implemented.
        sample_params: Optional ``(rng, shape) -> dict`` drawing valid
            construction parameters (block sizes, prefix dims, fanouts)
            for a cube of ``shape``; ``None`` means no parameters.
    """

    dtypes: tuple[str, ...]
    operators: tuple[str, ...] = ("sum",)
    min_ndim: int = 1
    max_ndim: int = 5
    supports_updates: bool = True
    sample_params: Callable[..., dict[str, Any]] | None = None


@dataclass(frozen=True)
class IndexInfo:
    """One registry entry: the canonical name and how to build it."""

    name: str
    kind: str
    cls: type[Any]
    factory: Callable[..., object]
    persistable: bool
    accepts_backend: bool
    sparse_input: bool
    description: str = field(default="", compare=False)
    fuzz_profile: FuzzProfile | None = field(default=None, compare=False)


_REGISTRY: dict[str, IndexInfo] = {}
_BUILTINS_LOADED = False


def _ensure_builtin_indexes() -> None:
    """Import the modules whose classes self-register (idempotent)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    # Imported for their ``@register_index`` side effects.
    import repro.core  # noqa: F401
    import repro.sparse  # noqa: F401


def register_index(
    name: str,
    *,
    kind: str,
    persistable: bool = True,
    sparse_input: bool = False,
    factory: Callable[..., object] | None = None,
    description: str = "",
    fuzz_profile: FuzzProfile | None = None,
) -> Callable[[type[Any]], type[Any]]:
    """Class decorator adding an index to the registry.

    Args:
        name: Canonical registry name (``snake_case``).
        kind: ``"sum"`` or ``"max"`` — which aggregate family it serves.
        persistable: Whether :func:`repro.io.save_index_manifest` supports it
            (structures built on pointer-heavy secondary indexes opt out).
        sparse_input: Whether the factory takes a
            :class:`~repro.sparse.SparseCube` instead of an ndarray.
        factory: Override the constructor as the build callable.
        description: One-line summary; defaults to the class docstring's
            first line.
        fuzz_profile: Capabilities advertised to the differential
            harness (:mod:`repro.verify`); indexes without one are
            skipped by the fuzzer but still usable everywhere else.
    """
    if kind not in INDEX_KINDS:
        raise ValueError(f"kind must be one of {INDEX_KINDS}, got {kind!r}")

    def decorator(cls: type[Any]) -> type[Any]:
        if name in _REGISTRY and _REGISTRY[name].cls is not cls:
            raise ValueError(
                f"index name {name!r} already registered by "
                f"{_REGISTRY[name].cls.__name__}"
            )
        build = factory or cls
        try:
            signature = inspect.signature(build)
            accepts_backend = "backend" in signature.parameters
        except (TypeError, ValueError):  # pragma: no cover - C callables
            accepts_backend = False
        summary = description
        if not summary and cls.__doc__:
            summary = cls.__doc__.strip().splitlines()[0]
        _REGISTRY[name] = IndexInfo(
            name=name,
            kind=kind,
            cls=cls,
            factory=build,
            persistable=persistable,
            accepts_backend=accepts_backend,
            sparse_input=sparse_input,
            description=summary,
            fuzz_profile=fuzz_profile,
        )
        cls.index_name = name
        return cls

    return decorator


def get_index_info(name: str) -> IndexInfo:
    """The registry entry for ``name`` (loading built-ins if needed).

    Raises:
        KeyError: Unknown name, with the known names in the message.
    """
    _ensure_builtin_indexes()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown index {name!r}; registered: {known}"
        ) from None


def create_index(
    name: str,
    cube: object,
    *,
    backend: ArrayBackend | None = None,
    **params: object,
) -> object:
    """Build a registered index over ``cube``.

    Args:
        name: Registry name (see :func:`available_indexes`).
        cube: The data cube — an ndarray, or a ``SparseCube`` for entries
            registered with ``sparse_input=True``.
        backend: Array backend, forwarded when the structure supports
            out-of-core allocation (silently ignored otherwise — sparse
            structures allocate through their own node stores).
        **params: Structure-specific construction parameters
            (``block_size``, ``fanout``, ``prefix_dims``...).

    Returns:
        The built structure (satisfying the kind's protocol).
    """
    info = get_index_info(name)
    if backend is not None and info.accepts_backend:
        params = {**params, "backend": backend}
    return info.factory(cube, **params)


def index_info_for(obj: object) -> IndexInfo:
    """The registry entry matching an instance or class.

    Raises:
        KeyError: When the class was never registered.
    """
    _ensure_builtin_indexes()
    cls = obj if isinstance(obj, type) else type(obj)
    name = getattr(cls, "index_name", None)
    if name is not None and name in _REGISTRY and _REGISTRY[name].cls is cls:
        return _REGISTRY[name]
    for info in _REGISTRY.values():
        if info.cls is cls:
            return info
    raise KeyError(f"{cls.__name__} is not a registered index")


def available_indexes(
    kind: str | None = None, persistable: bool | None = None
) -> tuple[str, ...]:
    """Registered names, optionally filtered by kind / persistability."""
    _ensure_builtin_indexes()
    names: Iterable[str] = sorted(_REGISTRY)
    if kind is not None:
        names = [n for n in names if _REGISTRY[n].kind == kind]
    if persistable is not None:
        names = [
            n for n in names if _REGISTRY[n].persistable == persistable
        ]
    return tuple(names)


@dataclass(frozen=True)
class IndexSpec:
    """A buildable ``(name, params)`` pair — the planner's currency.

    The engine, the §9 advisor, and user configuration all describe a
    physical design as a list of these; :meth:`build` turns one into a
    live structure through the registry.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **params: object) -> IndexSpec:
        """Convenience constructor: ``IndexSpec.of("blocked", b=8)``."""
        return cls(name, tuple(sorted(params.items())))

    @property
    def kind(self) -> str:
        """The registered aggregate kind of the named index."""
        return get_index_info(self.name).kind

    def as_dict(self) -> dict[str, Any]:
        """The params as a plain dict."""
        return dict(self.params)

    def build(
        self, cube: object, backend: ArrayBackend | None = None
    ) -> object:
        """Instantiate the spec over a cube via :func:`create_index`."""
        return create_index(
            self.name, cube, backend=backend, **self.as_dict()
        )

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({inner})"
