"""TCP server tests: round-trips, pipelining, concurrency exactness,
wire abuse, and clean shutdown.

The headline test is the acceptance criterion: 8 concurrent TCP
clients interleaving adds of an ill-conditioned dataset into a
4-shard service must produce a ``value()`` bit-identical to the serial
exact sum.
"""

from __future__ import annotations

import asyncio
import struct

import numpy as np
import pytest

import repro.serve.server as server_mod
from repro import codec
from repro.core import exact_sum
from repro.data import generate
from repro.errors import ProtocolError, ServiceError
from repro.serve import (
    ReproServeClient,
    ReproServer,
    ReproService,
    ServeConfig,
)
from repro.serve.protocol import (
    FrameDecoder,
    decode_reply,
    encode_batch_frame,
    encode_frame,
    read_frame,
)
from tests.conftest import random_hard_array, ref_sum


def run(coro):
    return asyncio.run(coro)


async def start_stack(**kwargs):
    service = ReproService(ServeConfig(**kwargs))
    await service.start()
    server = ReproServer(service, port=0)
    await server.start()
    return service, server


async def stop_stack(service, server):
    await server.close()
    await service.close()


class TestRoundTrip:
    def test_ping_add_value(self, rng):
        async def main():
            service, server = await start_stack(shards=2)
            client = await ReproServeClient.connect(port=server.port)
            pong = await client.ping()
            assert pong["pong"] is True and pong["shards"] == 2
            x = random_hard_array(rng, 100)
            await client.add_array("s", x)
            assert await client.value("s") == ref_sum(x)
            await client.close()
            await stop_stack(service, server)

        run(main())

    def test_pipelined_requests_one_connection(self, rng):
        async def main():
            service, server = await start_stack(shards=4)
            client = await ReproServeClient.connect(port=server.port)
            x = random_hard_array(rng, 640)
            chunks = np.array_split(x, 64)
            # fire all requests without awaiting in between: responses
            # come back tagged by id and may complete out of order
            await asyncio.gather(
                *(client.add_array("p", chunk) for chunk in chunks)
            )
            assert await client.value("p") == ref_sum(x)
            assert await client.count("p") == 640
            await client.close()
            await stop_stack(service, server)

        run(main())

    def test_snapshot_restore_over_wire(self, rng):
        async def main():
            service, server = await start_stack(shards=3)
            client = await ReproServeClient.connect(port=server.port)
            x = random_hard_array(rng, 250)
            await client.add_array("a", x)
            blob = await client.snapshot("a")
            await client.restore("b", blob)
            assert await client.value("b") == ref_sum(x)
            value, count, _ = await client.drain("a")
            assert value == ref_sum(x) and count == 250
            await client.close()
            await stop_stack(service, server)

        run(main())

    def test_error_response_raises_typed(self):
        async def main():
            service, server = await start_stack(shards=1)
            client = await ReproServeClient.connect(port=server.port)
            with pytest.raises(ServiceError):
                await client.request("warp")
            # connection still healthy afterwards
            assert (await client.ping())["pong"] is True
            await client.close()
            await stop_stack(service, server)

        run(main())


class TestConcurrentExactness:
    """Acceptance criterion: K clients x M interleaved adds == serial sum."""

    @pytest.mark.parametrize("dist", ["sumzero", "anderson"])
    def test_eight_clients_four_shards_bit_identical(self, dist):
        async def main():
            service, server = await start_stack(shards=4)
            data = generate(dist, 8192, delta=600, seed=7)
            reference = exact_sum(data)
            parts = np.array_split(data, 8)

            async def client_task(chunk, i):
                client = await ReproServeClient.connect(port=server.port)
                # interleave: many small adds plus array batches
                pieces = np.array_split(chunk, 32)
                for j, piece in enumerate(pieces):
                    if j % 8 == 0 and piece.size:
                        for v in piece[:2]:
                            await client.add("hot", float(v))
                        if piece.size > 2:
                            await client.add_array("hot", piece[2:])
                    else:
                        await client.add_array("hot", piece)
                await client.close()

            await asyncio.gather(*(client_task(p, i) for i, p in enumerate(parts)))
            reader = await ReproServeClient.connect(port=server.port)
            got = await reader.value("hot")
            assert got == reference, (got, reference)
            assert got.hex() == reference.hex()
            assert await reader.count("hot") == data.size
            await reader.close()
            await stop_stack(service, server)

        run(main())

    def test_reads_interleaved_with_writes_stay_exact(self, rng):
        # every intermediate read must be *some* correctly rounded
        # prefix state; the final read must be the full exact sum
        async def main():
            service, server = await start_stack(shards=4)
            x = random_hard_array(rng, 2000)
            writer_done = asyncio.Event()

            async def writer():
                client = await ReproServeClient.connect(port=server.port)
                for chunk in np.array_split(x, 40):
                    await client.add_array("w", chunk)
                await client.close()
                writer_done.set()

            async def poller():
                client = await ReproServeClient.connect(port=server.port)
                while not writer_done.is_set():
                    await client.value("w")  # must never error or wedge
                    await asyncio.sleep(0)
                await client.close()

            await asyncio.gather(writer(), poller())
            client = await ReproServeClient.connect(port=server.port)
            assert await client.value("w") == ref_sum(x)
            await client.close()
            await stop_stack(service, server)

        run(main())


class TestWireAbuse:
    async def _raw_connection(self, server):
        return await asyncio.open_connection("127.0.0.1", server.port)

    def test_invalid_json_connection_survives(self):
        async def main():
            service, server = await start_stack(shards=1)
            reader, writer = await self._raw_connection(server)
            bad = b"this is not json\n"
            writer.write(struct.pack("!I", len(bad)) + bad)
            await writer.drain()
            resp = await read_frame(reader)
            assert resp["ok"] is False and resp["code"] == "protocol"
            assert resp["fatal"] is False
            # same connection, valid request: still served
            writer.write(encode_frame({"op": "ping", "id": 1}))
            await writer.drain()
            resp = await read_frame(reader)
            assert resp["ok"] is True and resp["pong"] is True
            writer.close()
            await writer.wait_closed()
            await stop_stack(service, server)

        run(main())

    def test_oversized_prefix_clean_close(self):
        async def main():
            service, server = await start_stack(shards=1)
            reader, writer = await self._raw_connection(server)
            writer.write(struct.pack("!I", 1 << 31) + b"x" * 64)
            await writer.drain()
            resp = await read_frame(reader)
            assert resp["ok"] is False and resp["code"] == "protocol"
            assert resp["fatal"] is True
            assert await reader.read() == b""  # server closed the connection
            writer.close()
            await writer.wait_closed()
            # the server itself is unharmed: fresh connections work
            client = await ReproServeClient.connect(port=server.port)
            assert (await client.ping())["pong"] is True
            await client.close()
            await stop_stack(service, server)

        run(main())

    def test_truncated_frame_then_disconnect(self):
        async def main():
            service, server = await start_stack(shards=1)
            reader, writer = await self._raw_connection(server)
            frame = encode_frame({"op": "ping"})
            writer.write(frame[: len(frame) - 2])  # cut mid-payload
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # server survives the half-frame disconnect
            client = await ReproServeClient.connect(port=server.port)
            assert (await client.ping())["pong"] is True
            await client.close()
            await stop_stack(service, server)

        run(main())

    def test_garbage_flood(self, rng):
        async def main():
            service, server = await start_stack(shards=1)
            for _ in range(5):
                reader, writer = await self._raw_connection(server)
                blob = rng.integers(0, 256, size=257).astype(np.uint8).tobytes()
                writer.write(blob)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            client = await ReproServeClient.connect(port=server.port)
            x = [1e16, 1.0, -1e16]
            await client.add_array("g", x)
            assert await client.value("g") == 1.0
            await client.close()
            await stop_stack(service, server)

        run(main())


class _SlowPingService(ReproService):
    """A service whose ``ping`` awaits, so requests overlap in handle."""

    def may_suspend(self, request):
        return request.get("op") == "ping"

    async def _op_ping(self, request):
        await asyncio.sleep(0.002)
        return await super()._op_ping(request)


class TestBackpressure:
    def test_max_inflight_bounds_requests_inside_handle(self):
        async def main():
            service = _SlowPingService(ServeConfig(shards=1))
            await service.start()
            server = ReproServer(service, port=0, max_inflight=2)
            await server.start()
            client = await ReproServeClient.connect(port=server.port)
            pongs = await asyncio.gather(*(client.ping() for _ in range(20)))
            assert all(p["pong"] is True for p in pongs)
            # peak requests inside ReproService.handle at once: the
            # connection's bound, and it was reached
            assert service.metrics.queue_depth_peak == 2
            await client.close()
            await stop_stack(service, server)

        run(main())


def _count_server_writes(monkeypatch):
    """Record the size of every server-side ``transport.write``."""
    writes = []
    original = server_mod._Connection.connection_made

    def connection_made(self, transport):
        write = transport.write

        def counted(data):
            writes.append(len(data))
            return write(data)

        transport.write = counted
        original(self, transport)

    monkeypatch.setattr(server_mod._Connection, "connection_made", connection_made)
    return writes


async def _read_payload(reader):
    """One raw reply payload off a raw socket."""
    (length,) = struct.unpack("!I", await reader.readexactly(4))
    return await reader.readexactly(length)


class _FakeTransport(asyncio.Transport):
    """Records reading-state changes; accepts and discards writes."""

    def __init__(self):
        super().__init__()
        self.reading = True
        self.written = []

    def is_closing(self):
        return False

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def write(self, data):
        self.written.append(data)


class TestWriteBackpressure:
    def test_full_write_buffer_pauses_reading(self):
        async def main():
            service = ReproService(ServeConfig(shards=1))
            server = ReproServer(service, port=0)
            conn = server_mod._Connection(server)
            transport = _FakeTransport()
            conn.connection_made(transport)
            conn.pause_writing()
            assert transport.reading is False
            conn.resume_writing()
            assert transport.reading is True
            # reading resumed: the next frame is answered in one write
            conn.data_received(encode_frame({"op": "ping", "id": 1}))
            (frame,) = transport.written
            assert decode_reply(frame[4:])["pong"] is True

        run(main())

    def test_paused_client_transport_makes_callers_wait(self):
        from repro.serve.client import _ClientConnection

        async def main():
            conn = _ClientConnection(max_frame=1 << 20)
            transport = _FakeTransport()
            conn.connection_made(transport)
            conn.pause_writing()
            call = asyncio.ensure_future(
                conn.round_trip(1, encode_frame({"op": "ping", "id": 1}))
            )
            for _ in range(3):
                await asyncio.sleep(0)
            assert transport.written == [] and not conn._out  # not queued
            conn.resume_writing()
            for _ in range(3):
                await asyncio.sleep(0)
            assert len(transport.written) == 1
            conn.data_received(encode_frame({"ok": True, "id": 1, "pong": True}))
            assert (await call)["pong"] is True

        run(main())


class TestReplyCoalescing:
    def test_pipelined_burst_answered_in_fewer_writes(self, monkeypatch):
        writes = _count_server_writes(monkeypatch)
        n = 32

        async def main():
            service, server = await start_stack(shards=2)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            burst = b"".join(
                encode_frame({"op": "add", "stream": "b", "value": float(i), "id": i})
                for i in range(n)
            )
            writer.write(burst)
            await writer.drain()
            replies = [await read_frame(reader) for _ in range(n)]
            assert sorted(r["id"] for r in replies) == list(range(n))
            assert all(r["ok"] and r["added"] == 1 for r in replies)
            assert 1 <= len(writes) < n
            assert sum(writes) == sum(len(encode_frame(r)) for r in replies)
            writer.close()
            await writer.wait_closed()
            resp = await service.handle({"op": "value", "stream": "b"})
            assert resp["count"] == n and resp["value"] == sum(range(n))
            await stop_stack(service, server)

        run(main())

    def test_binary_ingest_burst_creates_no_task(self, rng):
        n = 16
        x = random_hard_array(rng, 64)

        async def main():
            service, server = await start_stack(shards=2)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(encode_frame({"op": "hello", "id": 0, "version": 2, "wire": "binary"}))
            assert (await read_frame(reader))["wire"] == "binary"
            loop = asyncio.get_running_loop()
            created = []
            original = loop.create_task

            def counting(*args, **kwargs):
                created.append(args)
                return original(*args, **kwargs)

            loop.create_task = counting
            try:
                writer.write(b"".join(encode_batch_frame(i, "s", x) for i in range(1, n + 1)))
                payloads = [await _read_payload(reader) for _ in range(n)]
            finally:
                del loop.create_task
            assert created == []
            # every reply is a 32-byte binary ack, not JSON
            assert all(p[:4] == codec.MAGIC_INGEST_ACK and len(p) == 32 for p in payloads)
            acks = [decode_reply(p) for p in payloads]
            assert sorted(a["id"] for a in acks) == list(range(1, n + 1))
            assert all(a == {"ok": True, "id": a["id"], "added": 64} for a in acks)
            resp = await service.handle({"op": "value", "stream": "s"})
            assert resp["value"] == ref_sum(np.tile(x, n))
            writer.close()
            await writer.wait_closed()
            await stop_stack(service, server)

        run(main())

    def test_client_sends_one_tick_of_requests_in_one_write(self):
        n = 24

        async def main():
            service, server = await start_stack(shards=1)
            client = await ReproServeClient.connect(port=server.port)
            transport = client._conn._transport
            writes = []
            write = transport.write

            def counted(data):
                writes.append(data)
                return write(data)

            transport.write = counted
            pongs = await asyncio.gather(*(client.ping() for _ in range(n)))
            assert all(p["pong"] is True for p in pongs)
            assert len(writes) == 1
            decoder = FrameDecoder()
            assert [m["op"] for m in decoder.feed(writes[0])] == ["ping"] * n
            await client.close()
            await stop_stack(service, server)

        run(main())

    def test_hello_and_batch_in_one_write_fold_as_binary(self, rng):
        x = random_hard_array(rng, 100)

        async def main():
            service, server = await start_stack(shards=2)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                encode_frame({"op": "hello", "id": 1, "version": 2, "wire": "binary"})
                + encode_batch_frame(2, "s", x)
            )
            hello = await read_frame(reader)
            assert hello["ok"] and hello["id"] == 1 and hello["wire"] == "binary"
            assert await read_frame(reader) == {"ok": True, "id": 2, "added": 100}
            wire = service.metrics.snapshot()["wire"]
            assert wire["binary"]["frames"] == 1 and wire["binary"]["values"] == 100
            resp = await service.handle({"op": "value", "stream": "s"})
            assert resp["value"] == ref_sum(x)
            writer.close()
            await writer.wait_closed()
            await stop_stack(service, server)

        run(main())

    def test_corrupt_frame_between_good_ones_in_one_chunk(self):
        async def main():
            service, server = await start_stack(shards=1)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            bad = b"not json\n"
            writer.write(
                encode_frame({"op": "ping", "id": 1})
                + struct.pack("!I", len(bad)) + bad
                + encode_frame({"op": "ping", "id": 3})
            )
            replies = [await read_frame(reader) for _ in range(3)]
            good = [r for r in replies if r["ok"]]
            assert sorted(r["id"] for r in good) == [1, 3]
            assert all(r["pong"] is True for r in good)
            (err,) = [r for r in replies if not r["ok"]]
            assert err["code"] == "protocol" and err["fatal"] is False
            writer.close()
            await writer.wait_closed()
            await stop_stack(service, server)

        run(main())


class TestInlineDispatch:
    def test_run_inline_returns_the_value(self):
        async def answer():
            return 42

        assert server_mod.run_inline(answer()) == 42

    def test_suspension_raises_and_closes_the_coroutine(self):
        finished = []

        async def suspends():
            try:
                await asyncio.sleep(0)
            finally:
                finished.append(True)

        with pytest.raises(RuntimeError, match="may_suspend"):
            server_mod.run_inline(suspends())
        assert finished == [True]  # closed, never resumed


class TestShutdown:
    def test_shutdown_op_stops_server(self, rng):
        async def main():
            service, server = await start_stack(shards=2)
            client = await ReproServeClient.connect(port=server.port)
            x = random_hard_array(rng, 64)
            await client.add_array("s", x)
            resp = await client.shutdown()
            assert resp["stopping"] is True
            await asyncio.wait_for(server.serve_forever(), timeout=5)
            # state survives server (not service) shutdown
            from repro.serve import InProcessClient

            assert await InProcessClient(service).value("s") == ref_sum(x)
            await client.close()
            await service.close()

        run(main())

    def test_shutdown_op_can_be_disabled(self):
        async def main():
            service, server = await start_stack(shards=1, allow_shutdown=False)
            client = await ReproServeClient.connect(port=server.port)
            with pytest.raises(ServiceError):
                await client.shutdown()
            await client.close()
            await stop_stack(service, server)

        run(main())


class TestBinaryNegotiation:
    """hello upgrade, version rejection, fallback, mixed fleets."""

    def test_hello_upgrades_wire(self):
        async def main():
            service, server = await start_stack(shards=2)
            client = await ReproServeClient.connect(port=server.port, wire="binary")
            assert client.wire == "binary"
            await client.close()
            await stop_stack(service, server)

        run(main())

    def test_bad_version_raises_typed_and_connection_survives(self):
        from repro.errors import ProtocolVersionError

        async def main():
            service, server = await start_stack(shards=1)
            client = await ReproServeClient.connect(port=server.port)
            with pytest.raises(ProtocolVersionError):
                await client.hello(version=99)
            assert client.wire == "json"
            with pytest.raises(ProtocolVersionError):
                await client.hello(wire="carrier-pigeon")
            # the connection stays usable on its previous wire
            assert (await client.ping())["pong"] is True
            await client.close()
            await stop_stack(service, server)

        run(main())

    def test_binary_batch_bit_identical_to_json(self, rng):
        async def main():
            service, server = await start_stack(shards=4)
            x = random_hard_array(rng, 5000)
            jc = await ReproServeClient.connect(port=server.port)
            bc = await ReproServeClient.connect(port=server.port, wire="binary")
            await jc.add_array("via-json", x)
            await bc.add_batch("via-binary", x)
            assert await jc.value("via-json") == await bc.value("via-binary") == ref_sum(x)
            await jc.close()
            await bc.close()
            await stop_stack(service, server)

        run(main())

    def test_mixed_fleet_same_stream_same_total(self, rng):
        """One JSON + one binary client interleave into ONE stream."""

        async def main():
            service, server = await start_stack(shards=4)
            x = random_hard_array(rng, 8192)
            jc = await ReproServeClient.connect(port=server.port)
            bc = await ReproServeClient.connect(port=server.port, wire="binary")
            chunks = np.array_split(x, 32)
            sends = []
            for i, chunk in enumerate(chunks):
                client = bc if i % 2 else jc
                sends.append(client.add_batch("fleet", chunk))
            await asyncio.gather(*sends)
            assert await jc.value("fleet") == ref_sum(x)
            assert await bc.value("fleet") == ref_sum(x)
            # wire metrics saw both modes
            wire = (await jc.stats())["wire"]
            assert wire["json"]["frames"] == 16
            assert wire["binary"]["frames"] == 16
            assert wire["json"]["values"] == wire["binary"]["values"]
            # binary payloads are materially denser than JSON text
            assert wire["binary"]["payload_bytes"] < wire["json"]["payload_bytes"]
            assert wire["binary"]["mean_values_per_frame"] == pytest.approx(256.0)
            await jc.close()
            await bc.close()
            await stop_stack(service, server)

        run(main())

    def test_corrupt_binary_frame_recoverable_on_live_connection(self, rng):
        """Raw socket: hello, good frame, corrupt frame, good frame.

        The corrupt frame's error response carries no ``id`` (the
        request id is inside the unparseable payload), so this drives
        the wire by hand instead of through the pipelined client.
        """

        async def main():
            service, server = await start_stack(shards=2)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(encode_frame({"op": "hello", "id": 1, "version": 2, "wire": "binary"}))
            hello = await read_frame(reader)
            assert hello["ok"] and hello["wire"] == "binary"
            x = random_hard_array(rng, 64)

            writer.write(encode_batch_frame(2, "s", x))
            await writer.drain()
            assert (await read_frame(reader))["added"] == 64

            corrupt = bytearray(encode_batch_frame(3, "s", x[:16]))
            corrupt[4:8] = b"ZZZZ"  # ruin the magic, keep the framing
            writer.write(bytes(corrupt))
            await writer.drain()
            err = await read_frame(reader)
            assert err["ok"] is False and err["code"] == "protocol"

            # connection survived; shard state unharmed; binary still works
            writer.write(encode_batch_frame(4, "s", x))
            await writer.drain()
            assert (await read_frame(reader))["added"] == 64
            writer.write(encode_frame({"op": "value", "id": 5, "stream": "s"}))
            resp = await read_frame(reader)
            assert resp["value"] == ref_sum(np.concatenate([x, x]))
            assert resp["count"] == 128
            writer.close()
            await stop_stack(service, server)

        run(main())

    def test_nonfinite_binary_frame_rejected_stream_unharmed(self, rng):
        async def main():
            service, server = await start_stack(shards=2)
            client = await ReproServeClient.connect(port=server.port, wire="binary")
            x = random_hard_array(rng, 500)
            await client.add_batch("s", x)
            with pytest.raises(ProtocolError, match="non-finite"):
                await client.add_batch("s", np.array([1.0, np.inf]))
            assert await client.value("s") == ref_sum(x)
            assert await client.count("s") == 500
            await client.close()
            await stop_stack(service, server)

        run(main())

    def test_in_process_client_binary_matches_tcp(self, rng):
        from repro.serve import InProcessClient

        async def main():
            service = ReproService(ServeConfig(shards=3))
            await service.start()
            client = InProcessClient(service, wire="binary")
            x = random_hard_array(rng, 4096)
            added = await client.add_batch("s", x)
            assert added == 4096
            assert await client.value("s") == ref_sum(x)
            wire = (await client.stats())["wire"]
            assert wire["binary"]["frames"] == 1
            assert wire["binary"]["values"] == 4096
            await service.close()

        run(main())

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_tcp_and_in_process_wire_stats_agree(self, rng, wire):
        """Both transports count the same ingest frames and values for
        a workload mixing every ingest kind."""
        from repro.serve import InProcessClient

        x = random_hard_array(rng, 64)
        y = random_hard_array(rng, 64)

        async def traffic(client):
            await client.add_batch("s", x)
            await client.add_pairs("d", x, y)
            await client.add_squares("n", x)
            await client.add_observations("m", x)
            wire_stats = (await client.stats())["wire"]
            return {
                mode: (row["frames"], row["values"], row["payload_bytes"])
                for mode, row in wire_stats.items()
            }

        async def main():
            service, server = await start_stack(shards=2)
            tcp = await ReproServeClient.connect(port=server.port, wire=wire)
            over_tcp = await traffic(tcp)
            await tcp.close()
            await stop_stack(service, server)
            async with ReproService(ServeConfig(shards=2)) as local:
                in_process = await traffic(InProcessClient(local, wire=wire))
            return over_tcp, in_process

        over_tcp, in_process = run(main())
        assert over_tcp == in_process
        assert over_tcp[wire][:2] == (4, 64 + 128 + 64 + 64)


class TestNonFiniteIngest:
    """The parser's finiteness scan is the only one a binary write gets:
    the shards fold what it passed without scanning again."""

    def test_error_reply_carries_request_id(self, rng):
        """A non-finite frame pipelined between good ones is answered by
        an error matched to its id; the good frames still fold."""

        async def main():
            service, server = await start_stack(shards=2)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(encode_frame({"op": "hello", "id": 1, "version": 2, "wire": "binary"}))
            assert (await read_frame(reader))["wire"] == "binary"
            x, y = random_hard_array(rng, 64), random_hard_array(rng, 64)
            bad_y = y.copy()
            bad_y[-1] = np.nan
            writer.write(
                encode_batch_frame(10, "s", x)
                + encode_batch_frame(11, "d", x, op="pairs", y=bad_y)
                + encode_batch_frame(12, "s", x)
            )
            replies = [await read_frame(reader) for _ in range(3)]
            writer.write(encode_frame({"op": "value", "id": 13, "stream": "s"}))
            value = await read_frame(reader)
            writer.close()
            await stop_stack(service, server)
            return replies, value

        replies, value = run(main())
        assert [r["id"] for r in replies] == [10, 11, 12]
        assert replies[0]["added"] == replies[2]["added"] == 64
        err = replies[1]
        assert err["ok"] is False and err["fatal"] is False
        assert "non-finite" in err["error"]
        assert value["count"] == 128

    @pytest.mark.parametrize("size", [64, 4096])  # staged, deposited
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_write_leaves_stream_unchanged(self, rng, size, bad):
        """A rejected write leaves value and count as they were, and no
        stray value surfaces when later writes push the stage into the
        bins."""

        async def main():
            service, server = await start_stack(shards=1)
            client = await ReproServeClient.connect(port=server.port, wire="binary")
            x = random_hard_array(rng, 100)
            await client.add_batch("s", x)
            rejected = random_hard_array(rng, size)
            rejected[size // 2] = bad
            with pytest.raises(ProtocolError, match="non-finite"):
                await client.add_batch("s", rejected)
            before = (await client.value("s"), await client.count("s"))
            more = random_hard_array(rng, 5000)  # flushes the stage
            await client.add_batch("s", more)
            after = (await client.value("s"), await client.count("s"))
            await client.close()
            await stop_stack(service, server)
            return x, more, before, after

        x, more, before, after = run(main())
        assert before == (ref_sum(x), 100)
        assert after == (ref_sum(np.concatenate([x, more])), 5100)
