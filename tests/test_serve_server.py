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

from repro.core import exact_sum
from repro.data import generate
from repro.errors import ProtocolError, ServiceError
from repro.serve import (
    ReproServeClient,
    ReproServer,
    ReproService,
    ServeConfig,
)
from repro.serve.protocol import encode_frame, read_frame
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
            service, server = await start_stack(shards=4, queue_depth=128)
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
            from repro.serve.protocol import (
                encode_batch_frame,
                read_frame,
                write_frame,
            )

            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await write_frame(writer, {"op": "hello", "id": 1, "version": 2, "wire": "binary"})
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
            await write_frame(writer, {"op": "value", "id": 5, "stream": "s"})
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
