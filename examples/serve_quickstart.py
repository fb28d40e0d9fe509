"""Serving quickstart: a sharded exact-summation service end to end.

Starts the TCP server in-process (folds run inline on its event loop;
each connection's replies go out together), then demonstrates the full client
surface: wire negotiation (``--wire json|binary``), a round-trip, a
1k-request concurrent burst of an ill-conditioned dataset shipped as
numpy batches (asserted bit-identical to the serial exact sum),
snapshot/restore persistence, stats, and a clean shutdown. On the
binary wire each batch rides a codec ``RBAT`` frame of raw float64
bytes; on JSON-lines the same calls box through ``add_array`` — the
result is bit-identical either way. Doubles as the CI service smoke
test, run once per wire mode.
"""

from __future__ import annotations

import argparse
import asyncio

import numpy as np

from repro.core import exact_sum
from repro.data import generate
from repro.serve import ReproServeClient, ReproServer, ReproService, ServeConfig


async def main(wire: str) -> None:
    service = ReproService(ServeConfig(shards=4))
    await service.start()
    server = ReproServer(service, port=0)  # ephemeral port
    await server.start()
    print(f"serving on 127.0.0.1:{server.port} (4 shards)")

    # -- round-trip ------------------------------------------------------
    client = await ReproServeClient.connect(port=server.port, wire=wire)
    assert client.wire == wire, f"negotiated {client.wire}, wanted {wire}"
    print(f"negotiated wire: {client.wire}")
    await client.add_batch("demo", np.array([1e16, 1.0, -1e16]))
    value = await client.value("demo")
    print(f"round-trip: 1e16 + 1.0 - 1e16 = {value}")
    assert value == 1.0  # float accumulation would give 0.0

    # -- 1k-request concurrent burst, exactness asserted -----------------
    data = generate("sumzero", 64_000, delta=600, seed=3)
    expected = exact_sum(data)
    chunks = np.array_split(data, 1000)  # 1000 numpy batch requests

    async def producer(part_chunks) -> None:
        c = await ReproServeClient.connect(port=server.port, wire=wire)
        for chunk in part_chunks:
            # numpy batch API: one frame per array — a codec RBAT frame
            # on the binary wire, an add_array op on JSON-lines
            await c.add_batch("burst", chunk)
        await c.close()

    producers = [producer(chunks[i::8]) for i in range(8)]
    await asyncio.gather(*producers)
    got = await client.value("burst")
    count = await client.count("burst")
    print(f"burst: 1000 requests from 8 clients, n={count:,}, sum={got!r}")
    assert got == expected and got.hex() == expected.hex()
    assert count == data.size

    # -- snapshot / restore ---------------------------------------------
    blob = await client.snapshot("burst")
    await client.restore("burst-copy", blob)
    assert await client.value("burst-copy") == expected
    print(f"snapshot: {len(blob)} bytes round-trips bit-identically")

    # -- service metrics -------------------------------------------------
    stats = await client.stats()
    print(
        f"stats: {stats['requests_total']} requests, "
        f"{stats['batches_folded']} folds, "
        f"mean fold {stats['mean_batch_values']:.0f} values, "
        f"p99 {stats['latency_p99_ms']:.2f} ms"
    )
    wire_stats = stats["wire"].get(wire, {})
    print(
        f"wire[{wire}]: {wire_stats.get('frames', 0)} value frames, "
        f"{wire_stats.get('values', 0):,} values, "
        f"{wire_stats.get('payload_bytes', 0):,} payload bytes"
    )
    assert wire_stats.get("values", 0) >= data.size

    # -- clean shutdown --------------------------------------------------
    resp = await client.shutdown()
    assert resp["stopping"] is True
    await server.serve_forever()  # returns immediately: stop already requested
    await client.close()
    await service.close()
    print("clean shutdown OK")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--wire",
        choices=("json", "binary"),
        default="binary",
        help="wire mode to negotiate (default: binary)",
    )
    asyncio.run(main(parser.parse_args().wire))
