"""The serve workloads' server process: one ReproServer on loopback.

Run as ``python -m benchmarks.suite.server [--trace-out F]``
from the repository root with ``src`` on ``PYTHONPATH``. It starts a
:class:`~repro.serve.service.ReproService` of :data:`SHARDS` shards
with the default ``running`` kernel, binds a
:class:`~repro.serve.server.ReproServer` to an ephemeral loopback
port, prints one JSON line ``{"port": N}`` and
serves until a client sends the ``shutdown`` op. With ``--trace-out``
it first wraps the server-side layers and, after shutdown, writes the
recorded spans to that file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from benchmarks.suite.trace import Tracer, serve_server_targets


SHARDS = 4


async def serve(trace_out: Optional[Path]) -> None:
    from repro.serve import ReproServer, ReproService, ServeConfig

    tracer: Optional[Tracer] = None
    if trace_out is not None:
        tracer = Tracer()
        tracer.install(serve_server_targets())
    service = ReproService(ServeConfig(shards=SHARDS))
    await service.start()
    server = ReproServer(service, port=0)
    try:
        await server.start()
        print(json.dumps({"port": server.port}), flush=True)
        await server.serve_forever()
    finally:
        await server.close()
        await service.close()
        if tracer is not None:
            tracer.uninstall()
            tracer.save(trace_out)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite.server")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    asyncio.run(serve(args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
