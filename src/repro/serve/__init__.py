"""repro.serve — the exact-aggregation serving plane.

A long-lived process that holds superaccumulator state and answers
concurrent requests: named streams partitioned across shards that
fold inline on the event loop, replies coalesced per connection,
snapshot reads that round the exact state on demand, and a
length-prefixed JSON-lines TCP protocol. Built directly on the
library's exact primitives — updates commute and merges are exact, so
results are bit-reproducible regardless of request arrival order.

Quick start::

    from repro.serve import ReproService, ReproServer, ServeConfig

    async def main():
        async with ReproService(ServeConfig(shards=4)) as service:
            async with ReproServer(service, port=0) as server:
                client = await ReproServeClient.connect(port=server.port)
                await client.add_array("s", [1e16, 1.0, -1e16])
                assert await client.value("s") == 1.0
                await client.close()

Or from a shell: ``python -m repro serve --port 8765``.
"""

from repro.serve.client import InProcessClient, ReproServeClient
from repro.serve.metrics import LatencyReservoir, ServiceMetrics
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    decode_payload,
    encode_frame,
    read_frame,
)
from repro.serve.server import ReproServer
from repro.serve.service import ReproService, ServeConfig
from repro.serve.shards import AccumulatorShard

__all__ = [
    "AccumulatorShard",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "InProcessClient",
    "LatencyReservoir",
    "ReproServeClient",
    "ReproServer",
    "ReproService",
    "ServeConfig",
    "ServiceMetrics",
    "decode_payload",
    "encode_frame",
    "read_frame",
]
