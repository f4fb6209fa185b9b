"""HTTP layer tests over real sockets: framing, status mapping, keep-alive."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.serving import (
    QueryService,
    ServeConfig,
    ServingClient,
    ServingClientError,
    ServingServer,
)

SHAPE = (7, 6, 5)


def serve(test_body, config: ServeConfig | None = None):
    """Run ``test_body(server, data)`` against a live server."""
    rng = np.random.default_rng(0x477F)
    data = rng.integers(-15, 16, size=SHAPE).astype(np.int64)

    async def run() -> None:
        service = QueryService(
            config or ServeConfig(coalesce_window_s=0.001)
        )
        service.register_cube("web", data)
        server = ServingServer(service)
        await server.start()
        try:
            await test_body(server, data)
        finally:
            await server.stop()

    asyncio.run(run())


def test_query_roundtrip_and_keep_alive() -> None:
    async def body(server, data) -> None:
        async with ServingClient(server.host, server.port) as client:
            # Several requests over ONE connection (keep-alive).
            for lo in range(4):
                result = await client.query(
                    "web", [[lo, 5], None, [0, 3]]
                )
                assert result["value"] == int(
                    data[lo : 6, :, 0:4].sum()
                )
            health = await client.healthz()
            assert health["ok"]
            catalog = await client.cubes()
            assert catalog["web"]["shape"] == list(SHAPE)

    serve(body)


def test_all_post_endpoints() -> None:
    async def body(server, data) -> None:
        async with ServingClient(server.host, server.port) as client:
            batch = await client.query_batch(
                "web", [[[0, 3], None, None], [[2, 2], [1, 4], [0, 0]]]
            )
            assert batch["values"][0] == int(data[0:4].sum())
            sliced = await client.slice("web", {1: 3})
            assert sliced["value"] == int(data[:, 3, :].sum())
            rolled = await client.rollup("web", [0])
            assert rolled["values"] == data.sum(axis=(1, 2)).tolist()
            updated = await client.update(
                "web", [{"index": [0, 0, 0], "delta": 5}]
            )
            assert updated["generation"] == 1
            stats = await client.stats()
            assert stats["cubes"]["web"]["generation"] == 1

    serve(body)


def test_error_statuses() -> None:
    async def body(server, data) -> None:
        async with ServingClient(server.host, server.port) as client:
            with pytest.raises(ServingClientError) as not_found:
                await client.query("nope", [None, None, None])
            assert not_found.value.status == 404
            with pytest.raises(ServingClientError) as bad:
                await client.query("web", [None])  # wrong arity
            assert bad.value.status == 400
            assert bad.value.payload["error"] == "bad_request"
            with pytest.raises(ServingClientError) as missing:
                await client.request("POST", "/wat", {})
            assert missing.value.status == 404
            with pytest.raises(ServingClientError) as get_missing:
                await client.request("GET", "/wat")
            assert get_missing.value.status == 404
            # The connection survives error responses.
            ok = await client.query("web", [None, None, None])
            assert ok["value"] == int(data.sum())

    serve(body)


def test_malformed_json_is_400() -> None:
    async def body(server, data) -> None:
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        body_bytes = b"{not json"
        writer.write(
            (
                "POST /query HTTP/1.1\r\n"
                f"Content-Length: {len(body_bytes)}\r\n\r\n"
            ).encode()
            + body_bytes
        )
        await writer.drain()
        status_line = await reader.readline()
        assert b"400" in status_line
        writer.close()
        await writer.wait_closed()

    serve(body)


def test_non_utf8_body_is_400() -> None:
    """A body that is not UTF-8 is the client's fault, not a 500."""

    async def body(server, data) -> None:
        status, payload = await server._dispatch(
            "POST", "/query", b'{"cube": "web\xff"}'
        )
        assert status == 400
        assert payload["error"] == "bad_request"

    serve(body)


def test_malformed_request_line_is_400_and_closes() -> None:
    async def body(server, data) -> None:
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        writer.write(b"NONSENSE\r\n\r\n")
        await writer.drain()
        status_line = await reader.readline()
        assert b"400" in status_line
        # Server closes after a framing error; read to EOF.
        while await reader.readline():
            pass
        writer.close()
        await writer.wait_closed()

    serve(body)


def test_connection_close_honored() -> None:
    async def body(server, data) -> None:
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        writer.write(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        await writer.drain()
        raw = await reader.read()  # EOF: server closed the connection
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert b"200" in head.split(b"\r\n")[0]
        assert b"Connection: close" in head
        assert json.loads(payload)["ok"] is True
        writer.close()
        await writer.wait_closed()

    serve(body)


def test_unhandled_handler_bug_maps_to_500() -> None:
    async def body(server, data) -> None:
        # Sabotage one service method to simulate an internal bug.
        async def explode(payload):
            raise ZeroDivisionError("synthetic bug")

        server.service.query = explode
        async with ServingClient(server.host, server.port) as client:
            with pytest.raises(ServingClientError) as failure:
                await client.query("web", [None, None, None])
            assert failure.value.status == 500
            assert failure.value.payload["error"] == "internal"

    serve(body)


def test_port_zero_binds_ephemeral() -> None:
    async def body(server, data) -> None:
        assert server.port != 0

    serve(body)
