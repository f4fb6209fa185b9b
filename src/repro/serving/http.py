"""A minimal HTTP/1.1 front end for :class:`~repro.serving.QueryService`.

Hand-rolled on :func:`asyncio.start_server` — the serving layer takes no
runtime dependencies beyond the standard library.  The surface is JSON
over five POST endpoints and three GET endpoints:

========  ===============  ==============================================
method    path             handled by
========  ===============  ==============================================
POST      ``/query``       :meth:`QueryService.query`
POST      ``/query_batch``  :meth:`QueryService.query_batch`
POST      ``/slice``       :meth:`QueryService.slice`
POST      ``/rollup``      :meth:`QueryService.rollup`
POST      ``/update``      :meth:`QueryService.update`
POST      ``/advise``      :meth:`QueryService.advise` (dry-run advisor)
GET       ``/design``      :meth:`QueryService.describe_design`
GET       ``/stats``       :meth:`QueryService.stats`
GET       ``/cubes``       :meth:`QueryService.describe_cubes`
GET       ``/healthz``     liveness probe
========  ===============  ==============================================

Connections are keep-alive by default (HTTP/1.1 semantics); every
:class:`~repro.serving.errors.ServingError` maps to its status with a
JSON error body, anything else escaping a handler is a 500.  Each
connection handles one request at a time — concurrency comes from
concurrent connections, which is how the tests and ``benchmarks/e2e``
drive the service.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING

from repro.serving.errors import (
    BadRequest,
    ServingError,
    UnknownResource,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.service import QueryService

#: Reason phrases for the statuses the service actually emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

#: Largest accepted request body (a 4096-row batch fits comfortably).
MAX_BODY_BYTES = 8 << 20

#: Largest accepted request/header line.
MAX_LINE_BYTES = 16 << 10


class _ConnectionClosed(Exception):
    """Peer closed (or broke) the connection between requests."""


class ServingServer:
    """Bind a :class:`QueryService` to a TCP port.

    Args:
        service: The query service to expose.
        host: Bind address (loopback by default).
        port: TCP port; ``0`` picks a free one (read :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's main loop)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and close the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _ConnectionClosed:
                    break
                except BadRequest as exc:
                    self._write_response(
                        writer, exc.status, exc.payload(), False
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                status, payload = await self._dispatch(
                    method, path, body
                )
                self._write_response(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            # Shutdown cancelled this connection's task; ending it in a
            # cancelled state makes asyncio's stream callback log a
            # spurious traceback, so finish cleanly instead.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        request_line = await self._read_line(reader)
        if not request_line:
            return None
        parts = request_line.split()
        if len(parts) != 3:
            raise BadRequest(f"malformed request line {request_line!r}")
        method, path, version = parts
        if not version.startswith("HTTP/1."):
            raise BadRequest(f"unsupported protocol {version!r}")
        headers: dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            if not line:
                break
            name, _, value = line.partition(":")
            if not _:
                raise BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise BadRequest("malformed Content-Length") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        body = b""
        if length:
            body = await reader.readexactly(length)
        return method.upper(), path, headers, body

    async def _read_line(self, reader: asyncio.StreamReader) -> str:
        try:
            raw = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                raise _ConnectionClosed from None
            raw = exc.partial
        except asyncio.LimitOverrunError as exc:
            raise BadRequest("header line too long") from exc
        if len(raw) > MAX_LINE_BYTES:
            raise BadRequest("header line too long")
        return raw.decode("latin-1").rstrip("\r\n")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        try:
            if method == "GET":
                return 200, self._get(path)
            if method == "POST":
                return 200, await self._post(path, body)
            raise BadRequest(f"unsupported method {method}")
        except ServingError as exc:
            return exc.status, exc.payload()
        except Exception as exc:  # noqa: BLE001 — boundary: bug → 500
            return 500, {
                "error": "internal",
                "message": f"{type(exc).__name__}: {exc}",
            }

    def _get(self, path: str) -> dict:
        if path == "/healthz":
            return {"ok": True, "cubes": len(self.service.cubes)}
        if path == "/stats":
            return self.service.stats()
        if path == "/cubes":
            return self.service.describe_cubes()
        if path == "/design":
            return self.service.describe_design()
        raise UnknownResource(f"no GET endpoint {path!r}")

    async def _post(self, path: str, body: bytes) -> dict:
        try:
            payload = json.loads(body) if body else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        if path == "/query":
            return await self.service.query(payload)
        if path == "/query_batch":
            return await self.service.query_batch(payload)
        if path == "/slice":
            return await self.service.slice(payload)
        if path == "/rollup":
            return await self.service.rollup(payload)
        if path == "/update":
            return await self.service.update(payload)
        if path == "/advise":
            return await self.service.advise(payload)
        raise UnknownResource(f"no POST endpoint {path!r}")

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
