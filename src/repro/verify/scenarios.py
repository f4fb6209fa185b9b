"""Scenario generation and serialization for the differential harness.

A :class:`Scenario` is a *complete, deterministic* description of one
fuzzing episode: which index to build, over what shape/dtype/operator,
with which construction parameters and backend, and the sequence of
steps (queries, batch updates, persistence round-trips) to drive it
through.  Everything random is derived from the scenario's integer
seeds, so a scenario replays bit-identically from its token — the
shrinker and the CLI ``--replay`` flag both rely on this.

Generation is profile-driven: :func:`scenario_for` reads the
:class:`~repro.index.registry.FuzzProfile` an index registered and only
draws combinations the structure declares support for, with two
semantic filters on top (``xor`` needs an integer domain, ``product``
a zero-free float64 domain of exact powers of two).
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.index.registry import available_indexes, get_index_info

#: Hard cap on cube cells — keeps the naive oracle cheap per scenario.
MAX_CELLS = 2048

#: Seed-sequence tags separating the harness's random streams.
GEN_TAG = 0xD1FF01
DATA_TAG = 0xD1FF02
STEP_TAG = 0xD1FF03
ENGINE_TAG = 0xD1FF04

#: Step kinds a scenario may contain.
STEP_KINDS = ("query", "query_empty", "query_many", "update", "persist")

_TOKEN_PREFIX = "rv1-"


@dataclass(frozen=True)
class Scenario:
    """One deterministic fuzzing episode (see module docstring).

    Attributes:
        index: Registry name of the structure under test.
        seed: Root seed for cube data and step randomness.
        shape: Cube shape (possibly with size-1 axes).
        dtype: Numpy dtype name of the source cube.
        operator: Operator name for SUM-family indexes (``""`` for
            max-kind indexes, which take no operator).
        params: Sorted ``(name, value)`` construction parameters.
        backend: ``"memory"`` or ``"memmap"``.
        steps: ``(kind, step_seed)`` pairs; each step draws its own rng
            from ``step_seed`` so dropping steps during shrinking never
            shifts the randomness of the steps that remain.
        engine: Whether to also drive a :class:`RangeQueryEngine` built
            on this index through the derived-aggregate surface.
    """

    index: str
    seed: int
    shape: tuple[int, ...]
    dtype: str
    operator: str
    params: tuple[tuple[str, object], ...]
    backend: str
    steps: tuple[tuple[str, int], ...]
    engine: bool = False

    def param_dict(self) -> dict:
        """Construction parameters as a plain keyword dict."""
        return {name: value for name, value in self.params}

    def to_token(self) -> str:
        """Serialize to a compact, replayable seed string."""
        payload = {
            "index": self.index,
            "seed": self.seed,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "operator": self.operator,
            "params": [[k, v] for k, v in self.params],
            "backend": self.backend,
            "steps": [[kind, seed] for kind, seed in self.steps],
            "engine": self.engine,
        }
        raw = json.dumps(payload, separators=(",", ":")).encode()
        body = base64.urlsafe_b64encode(zlib.compress(raw, 9)).decode()
        return _TOKEN_PREFIX + body

    @classmethod
    def from_token(cls, token: str) -> Scenario:
        """Rebuild a scenario from :meth:`to_token` output (or raw JSON).

        Tokens minted while scenarios carried a ``"kernel"`` field still
        replay: the field is ignored.
        """
        token = token.strip()
        if token.startswith("{"):
            payload = json.loads(token)
        else:
            if token.startswith(_TOKEN_PREFIX):
                token = token[len(_TOKEN_PREFIX) :]
            raw = zlib.decompress(base64.urlsafe_b64decode(token.encode()))
            payload = json.loads(raw.decode())
        return cls(
            index=str(payload["index"]),
            seed=int(payload["seed"]),
            shape=tuple(int(n) for n in payload["shape"]),
            dtype=str(payload["dtype"]),
            operator=str(payload["operator"]),
            params=tuple(
                (str(k), _freeze(v)) for k, v in payload["params"]
            ),
            backend=str(payload["backend"]),
            steps=tuple(
                (str(kind), int(seed)) for kind, seed in payload["steps"]
            ),
            engine=bool(payload.get("engine", False)),
        )


def _freeze(value: object) -> object:
    """JSON round-trips tuples as lists; restore hashable params."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def fuzzable_indexes(
    names: Sequence[str] | None = None,
) -> tuple[str, ...]:
    """Registered index names that advertise a fuzz profile.

    Args:
        names: Optional subset to restrict to; unknown names raise
            through :func:`get_index_info` so typos fail loudly.
    """
    selected: Iterable[str] = names if names else available_indexes()
    return tuple(
        name
        for name in selected
        if get_index_info(name).fuzz_profile is not None
    )


def updates_allowed(
    supports_updates: bool, dtype: str, operator: str
) -> bool:
    """Whether the harness generates ``update`` steps for a combination.

    Update fuzzing covers signed-integer and float cubes: bool cells
    cannot absorb additive deltas (the source write saturates while the
    prefix array adds exactly), and unsigned cells reject the negative
    Python deltas the generator draws.  Those dtype/update pairs are a
    documented non-goal, not a silent gap — see ``docs/TESTING.md``.
    """
    if not supports_updates:
        return False
    if dtype == "bool" or dtype.startswith("uint"):
        return False
    return operator in ("sum", "xor", "")


def scenario_for(
    name: str,
    seed: int,
    *,
    force_backend: str | None = None,
) -> Scenario | None:
    """Draw the scenario for ``(name, seed)`` from the index's profile.

    Args:
        name: Registry name.
        seed: Root seed; the same pair always yields the same scenario.
        force_backend: Pin ``"memory"`` / ``"memmap"`` instead of letting
            the generator choose (ignored when the structure does not
            accept a backend).

    Returns:
        The scenario, or ``None`` when the index has no fuzz profile.
    """
    info = get_index_info(name)
    profile = info.fuzz_profile
    if profile is None:
        return None
    rng = np.random.default_rng(
        [GEN_TAG, zlib.crc32(name.encode()), seed]
    )
    ndim = int(rng.integers(profile.min_ndim, profile.max_ndim + 1))
    shape = _draw_shape(rng, ndim)
    dtype = str(rng.choice(profile.dtypes))
    operator = _draw_operator(rng, profile.operators, dtype)
    params: dict = (
        profile.sample_params(rng, shape) if profile.sample_params else {}
    )
    if info.accepts_backend:
        if force_backend is not None:
            backend = force_backend
        else:
            backend = "memmap" if rng.random() < 0.25 else "memory"
    else:
        backend = "memory"
    steps = _draw_steps(rng, info, profile, dtype, operator)
    engine = (
        info.kind == "sum"
        and not info.sparse_input
        and operator == "sum"
        and rng.random() < 0.3
    )
    return Scenario(
        index=name,
        seed=int(seed),
        shape=shape,
        dtype=dtype,
        operator=operator,
        params=tuple(sorted(params.items())),
        backend=backend,
        steps=steps,
        engine=engine,
    )


def _draw_shape(rng: np.random.Generator, ndim: int) -> tuple[int, ...]:
    """Small adversarial shapes: short axes, frequent size-1 axes."""
    sizes = [int(rng.integers(1, 9)) for _ in range(ndim)]
    if ndim > 1 and rng.random() < 0.3:
        sizes[int(rng.integers(0, ndim))] = 1
    while int(np.prod(sizes)) > MAX_CELLS:
        widest = int(np.argmax(sizes))
        sizes[widest] = max(1, sizes[widest] // 2)
    return tuple(sizes)


def _draw_operator(
    rng: np.random.Generator, operators: tuple[str, ...], dtype: str
) -> str:
    """Pick an operator the dtype can host exactly.

    ``xor`` is bitwise, so float cubes are excluded; ``product`` needs
    the zero-free power-of-two float64 domain the data generator builds.
    """
    if not operators:
        return ""
    allowed = [
        op
        for op in operators
        if not (op == "xor" and dtype.startswith("float"))
        and not (op == "product" and dtype != "float64")
    ]
    if not allowed:
        allowed = ["sum"]
    return str(rng.choice(allowed))


def _draw_steps(
    rng: np.random.Generator,
    info: object,
    profile: object,
    dtype: str,
    operator: str,
) -> tuple[tuple[str, int], ...]:
    """A step mix biased toward queries, honoring the capabilities."""
    kinds = ["query", "query", "query_many", "query_empty"]
    if updates_allowed(profile.supports_updates, dtype, operator):
        kinds.append("update")
        kinds.append("update")
    if info.persistable:
        kinds.append("persist")
    count = int(rng.integers(3, 9))
    return tuple(
        (str(rng.choice(kinds)), int(rng.integers(0, 2**31)))
        for _ in range(count)
    )
