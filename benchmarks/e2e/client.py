"""The harness's own minimal asyncio HTTP/1.1 client.

One :class:`Connection` is one keep-alive socket carrying one request at
a time — the closed-loop unit of the HTTP workloads.  It is deliberately
not ``repro.serving.client``: the load generator is part of the
instrument, so it lives with the benchmark and stays fixed.
"""

from __future__ import annotations

import asyncio


class Connection:
    """A keep-alive connection to the service under test."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> Connection:
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, bytes]:
        """Send one request, wait for its reply: ``(status, body)``."""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        raw = await self._reader.readuntil(b"\r\n\r\n")
        status = int(raw[9:12])
        length = 0
        for line in raw.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass  # the server may already have gone away
