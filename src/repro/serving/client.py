"""A small asyncio JSON client for the serving HTTP surface.

One :class:`ServingClient` holds one keep-alive connection and issues
sequential requests over it; concurrency comes from multiple clients
(exactly how the serving tests drive the service).
No dependencies beyond the standard library, so the demo script and the
tests run anywhere the server does.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any


class ServingClientError(Exception):
    """A non-2xx response, carrying the service's error payload."""

    def __init__(self, status: int, payload: dict) -> None:
        message = payload.get("message", payload.get("error", ""))
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServingClient:
    """JSON client over one keep-alive connection.

    Args:
        host: Server address.
        port: Server port.

    Use as an async context manager, or call :meth:`connect` /
    :meth:`aclose` explicitly.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def connect(self) -> None:
        """Open the connection (idempotent)."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def aclose(self) -> None:
        """Close the connection."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> ServingClient:
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Raw request
    # ------------------------------------------------------------------

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
    ) -> dict:
        """Issue one request; returns the parsed JSON body.

        Concurrent callers are serialized: one connection carries one
        request/response exchange at a time (HTTP/1.1, no pipelining).
        True concurrency — the kind the coalescer batches — needs one
        client per in-flight request.

        Raises:
            ServingClientError: On any non-2xx status (carries the
                server's error payload and status).
        """
        async with self._lock:
            await self.connect()
            assert self._reader is not None and self._writer is not None
            body = (
                b"" if payload is None else json.dumps(payload).encode()
            )
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "\r\n"
            )
            self._writer.write(head.encode("latin-1") + body)
            await self._writer.drain()
            status, response = await self._read_response()
        if not 200 <= status < 300:
            raise ServingClientError(status, response)
        return response

    async def _read_response(self) -> tuple[int, dict]:
        assert self._reader is not None
        status_line = (await self._reader.readline()).decode("latin-1")
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(
                f"malformed status line {status_line!r}"
            )
        status = int(parts[1])
        length = 0
        while True:
            line = (await self._reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self._reader.readexactly(length) if length else b"{}"
        return status, json.loads(raw)

    # ------------------------------------------------------------------
    # Endpoint sugar
    # ------------------------------------------------------------------

    async def query(
        self,
        cube: str,
        ranges: list[Any],
        op: str = "sum",
    ) -> dict:
        """``POST /query`` — one scalar aggregate."""
        return await self.request(
            "POST", "/query", {"cube": cube, "op": op, "ranges": ranges}
        )

    async def query_batch(
        self,
        cube: str,
        queries: list[list[Any]],
        op: str = "sum",
    ) -> dict:
        """``POST /query_batch`` — K same-operator aggregates."""
        return await self.request(
            "POST",
            "/query_batch",
            {"cube": cube, "op": op, "queries": queries},
        )

    async def slice(
        self,
        cube: str,
        fixed: dict[int | str, int],
        op: str = "sum",
    ) -> dict:
        """``POST /slice`` — fix dimensions, aggregate the rest."""
        return await self.request(
            "POST",
            "/slice",
            {"cube": cube, "op": op, "fixed": {str(k): v for k, v in fixed.items()}},
        )

    async def rollup(
        self,
        cube: str,
        dims: list[int],
        op: str = "sum",
    ) -> dict:
        """``POST /rollup`` — group-by over the kept dimensions."""
        return await self.request(
            "POST", "/rollup", {"cube": cube, "op": op, "dims": dims}
        )

    async def update(
        self,
        cube: str,
        updates: list[dict],
        count_updates: list[dict] | None = None,
    ) -> dict:
        """``POST /update`` — apply point deltas, bump the generation."""
        payload: dict[str, Any] = {"cube": cube, "updates": updates}
        if count_updates is not None:
            payload["count_updates"] = count_updates
        return await self.request("POST", "/update", payload)

    async def stats(self) -> dict:
        """``GET /stats``."""
        return await self.request("GET", "/stats")

    async def cubes(self) -> dict:
        """``GET /cubes``."""
        return await self.request("GET", "/cubes")

    async def healthz(self) -> dict:
        """``GET /healthz``."""
        return await self.request("GET", "/healthz")
