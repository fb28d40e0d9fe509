"""SERVE — batched service ingest vs one-request-per-add.

Stands up the real TCP stack (server + pipelined clients over
loopback) and measures sustained ingest throughput as a function of
request batch size, shard count, and **wire mode**. The baseline is
one ``add`` request per value — the naive client every RPC framework
produces — against ``add_array`` batches, which the service folds
inline with one superaccumulator deposit per request. Batched cells run once per wire: ``json`` (boxed
JSON-lines text) and ``binary`` (negotiated codec ``RBAT`` frames
carrying raw little-endian float64, parsed server-side as zero-copy
views). Every cell also asserts the service's rounded ``value()`` is
bit-identical to ``core.exact_sum`` of everything it ingested: this
benchmark may never trade exactness for speed, and the two wires must
agree bitwise.

Usage::

    python benchmarks/bench_serve.py               # full sweep
    python benchmarks/bench_serve.py --quick       # CI smoke
    python benchmarks/bench_serve.py -o out.json   # custom output

Writes a JSON record (default ``BENCH_serve.json`` in the repo root)
with one row per (batch_size, shards, clients, wire) cell: wall
seconds, requests/s, values/s, and server-side fold statistics. Two
headlines check the acceptance bars: batch-256 ingest sustaining
>= 5x the values/s of per-add ingest, and the binary wire sustaining
>= 3x the JSON wire's values/s at batch >= 256.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

try:
    from benchmarks.harness import bench_stamp
except ImportError:  # run as a plain script from benchmarks/
    from harness import bench_stamp

from repro.core import exact_sum
from repro.data import generate
from repro.serve import ReproServeClient, ReproServer, ReproService, ServeConfig


async def run_cell(
    data: np.ndarray,
    *,
    batch_size: int,
    shards: int,
    clients: int,
    wire: str = "json",
) -> Dict[str, Any]:
    """One measurement: ingest ``data`` fully, then verify exactness."""
    service = ReproService(ServeConfig(shards=shards))
    await service.start()
    server = ReproServer(service, port=0)
    await server.start()
    stream = "bench"
    parts = np.array_split(data, clients)

    async def producer(chunk: np.ndarray) -> int:
        client = await ReproServeClient.connect(port=server.port, wire=wire)
        if client.wire != wire:
            raise AssertionError(f"wire negotiation failed: wanted {wire}")
        sent = 0
        if batch_size == 1:
            for v in chunk:
                sent += await client.add(stream, float(v))
        elif wire == "binary":
            for lo in range(0, chunk.size, batch_size):
                sent += await client.add_batch(stream, chunk[lo : lo + batch_size])
        else:
            for lo in range(0, chunk.size, batch_size):
                sent += await client.add_array(stream, chunk[lo : lo + batch_size])
        await client.close()
        return sent

    t0 = time.perf_counter()
    sent = sum(await asyncio.gather(*(producer(p) for p in parts)))
    elapsed = time.perf_counter() - t0

    reader = await ReproServeClient.connect(port=server.port)
    got = await reader.value(stream)
    count = await reader.count(stream)
    stats = await reader.stats()
    await reader.close()
    await server.close()
    await service.close()

    expected = exact_sum(data)
    if got != expected or count != data.size or sent != data.size:
        raise AssertionError(
            f"exactness violated: value {got!r} vs {expected!r}, "
            f"count {count} vs {data.size}"
        )
    requests = (data.size if batch_size == 1
                else sum(-(-p.size // batch_size) for p in parts))
    wire_stats = stats.get("wire", {}).get(wire, {})
    return {
        "batch_size": batch_size,
        "shards": shards,
        "clients": clients,
        "wire": wire,
        "n": int(data.size),
        "seconds": elapsed,
        "requests": int(requests),
        "requests_per_second": requests / elapsed,
        "values_per_second": data.size / elapsed,
        "value_hex": got.hex(),
        "wire_payload_bytes": wire_stats.get("payload_bytes", 0),
        "wire_frames": wire_stats.get("frames", 0),
        "server_batches_folded": stats["batches_folded"],
        "server_mean_batch_values": stats["mean_batch_values"],
        "server_queue_depth_peak": stats["queue_depth_peak"],
    }


async def sweep(
    n: int,
    batch_sizes: Sequence[int],
    shard_counts: Sequence[int],
    clients: int,
) -> List[Dict[str, Any]]:
    data = generate("sumzero", n, delta=600, seed=42)
    rows: List[Dict[str, Any]] = []
    for shards in shard_counts:
        for batch in batch_sizes:
            # per-add over TCP is slow; cap its n so cells stay bounded.
            # Per-add has no batch frame, so it is a JSON-only cell.
            cell_data = data if batch > 1 else data[: min(n, 4096)]
            wires = ("json",) if batch == 1 else ("json", "binary")
            for wire in wires:
                row = await run_cell(
                    cell_data,
                    batch_size=batch,
                    shards=shards,
                    clients=clients,
                    wire=wire,
                )
                rows.append(row)
                print(
                    f"  shards={shards:<2d} batch={batch:<5d} "
                    f"wire={wire:<6s} n={row['n']:>8,d}  "
                    f"{row['values_per_second']:>12,.0f} values/s  "
                    f"{row['requests_per_second']:>10,.0f} req/s  "
                    f"folds={row['server_batches_folded']}"
                )
    # the two wires must agree bitwise in every (shards, batch) cell
    by_cell: Dict[Any, set] = {}
    for row in rows:
        by_cell.setdefault((row["shards"], row["batch_size"]), set()).add(
            row["value_hex"]
        )
    for cell, hexes in by_cell.items():
        if len(hexes) != 1:
            raise AssertionError(f"wire modes disagree bitwise in cell {cell}: {hexes}")
    return rows


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized sweep")
    parser.add_argument("-n", type=int, default=None, help="values per cell")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_serve.json",
    )
    args = parser.parse_args(argv or sys.argv[1:])

    n = args.n if args.n else (1 << 15 if args.quick else 1 << 18)
    batch_sizes = [1, 64, 256, 1024] if args.quick else [1, 64, 256, 1024, 4096]
    shard_counts = [1, 4] if args.quick else [1, 2, 4, 8]

    print(f"serve ingest sweep: n={n:,}, clients={args.clients}, "
          f"shards={shard_counts}, batches={batch_sizes}")
    rows = asyncio.run(sweep(n, batch_sizes, shard_counts, args.clients))

    record = {
        "benchmark": "serve",
        "quick": args.quick,
        "host": bench_stamp(),
        "config": {
            "n": n,
            "clients": args.clients,
            "batch_sizes": batch_sizes,
            "shard_counts": shard_counts,
            "distribution": "sumzero delta=600 seed=42",
            "exactness": "every cell asserted bit-identical to core.exact_sum",
        },
        "rows": rows,
    }

    # headline 1: batch-256 ingest must sustain >= 5x per-add values/s
    # (compared at the same shard count, the largest swept)
    top = max(shard_counts)
    per_add = next(r for r in rows if r["shards"] == top and r["batch_size"] == 1)
    batched = next(
        r
        for r in rows
        if r["shards"] == top and r["batch_size"] == 256 and r["wire"] == "json"
    )
    speedup = batched["values_per_second"] / per_add["values_per_second"]
    record["headline"] = {
        "shards": top,
        "per_add_values_per_second": per_add["values_per_second"],
        "batch256_values_per_second": batched["values_per_second"],
        "speedup": speedup,
        "target": 5.0,
        "pass": speedup >= 5.0,
    }

    # headline 2: the binary wire must sustain >= 3x the JSON wire's
    # values/s in some batch>=256 cell at the largest shard count
    wire_ratios = []
    for batch in (b for b in batch_sizes if b >= 256):
        jrow = next(
            r
            for r in rows
            if r["shards"] == top and r["batch_size"] == batch and r["wire"] == "json"
        )
        brow = next(
            r
            for r in rows
            if r["shards"] == top and r["batch_size"] == batch and r["wire"] == "binary"
        )
        wire_ratios.append(
            {
                "batch_size": batch,
                "json_values_per_second": jrow["values_per_second"],
                "binary_values_per_second": brow["values_per_second"],
                "speedup": brow["values_per_second"] / jrow["values_per_second"],
                "payload_bytes_ratio": (
                    jrow["wire_payload_bytes"] / brow["wire_payload_bytes"]
                    if brow["wire_payload_bytes"]
                    else None
                ),
            }
        )
    best = max(wire_ratios, key=lambda c: c["speedup"])
    record["headline_wire"] = {
        "shards": top,
        "cells": wire_ratios,
        "best_batch_size": best["batch_size"],
        "speedup": best["speedup"],
        "target": 3.0,
        "pass": best["speedup"] >= 3.0,
        "bit_identity": "every (shards,batch) cell asserted identical hex across wires",
    }

    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"headline (shards={top}): batch-256 ingest at {speedup:,.1f}x "
        f"per-add throughput ({'PASS' if speedup >= 5.0 else 'FAIL'}, target 5x)"
    )
    print(
        f"headline (wire): binary at {best['speedup']:,.1f}x JSON values/s "
        f"(batch={best['batch_size']}, "
        f"{'PASS' if best['speedup'] >= 3.0 else 'FAIL'}, target 3x)"
    )
    return 0 if (speedup >= 5.0 and best["speedup"] >= 3.0) else 1


if __name__ == "__main__":
    sys.exit(main())
