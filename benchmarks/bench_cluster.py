"""CLUSTER — replicated ingest, failover, and WAL replay vs one node.

Spawns a real multi-process cluster (``repro cluster node`` processes
over loopback TCP) and measures replicated ingest throughput, then
runs the two failure drills the subsystem exists for:

* **kill/recover** — SIGKILL the stream's primary mid-ingest, keep
  ingesting through failover, replay the dead node's write-ahead log
  onto the survivors, and assert the final rounded sum is
  bit-identical to the uninterrupted single-node serve path;
* **cold restart** — start a fresh process on the dead node's WAL and
  assert it reconstructs its acked prefix bit-exactly.

The ingest and kill/recover drills run once per **wire mode**:
``json`` (boxed JSON-lines text) and ``binary`` (codec ``RBAT``
frames whose raw float64 payloads land verbatim in ``WALO`` records —
the zero-copy passthrough path). On the binary wire the replayed WAL
records are therefore byte-for-byte the payloads the clients shipped,
and the drill proves their replay is bit-identical anyway.

Every cell asserts bit-identity (``float.hex`` equality) against the
single-node reference; this benchmark may never trade exactness for
availability. The headline is the binary-wire kill/recover drill's
bit-identity, plus cross-wire hex equality in every drill case.

Usage::

    python benchmarks/bench_cluster.py               # full run
    python benchmarks/bench_cluster.py --quick       # CI smoke
    python benchmarks/bench_cluster.py -o out.json   # custom output

Writes a JSON record (default ``BENCH_cluster.json`` in the repo
root) with one row per drill.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

try:
    from benchmarks.harness import bench_stamp
except ImportError:  # run as a plain script from benchmarks/
    from harness import bench_stamp

from repro.cluster import ClusterCoordinator, RemoteNodeHandle, spawn_local_cluster
from repro.core import exact_sum
from repro.data import generate
from repro.serve import InProcessClient, ReproService, ServeConfig


async def serve_reference(batches: List[np.ndarray]) -> Dict[str, Any]:
    """The uninterrupted single-node serve path every drill compares to."""
    async with ReproService(ServeConfig(shards=2)) as service:
        client = InProcessClient(service)
        t0 = time.perf_counter()
        for batch in batches:
            await client.add_array("ref", batch)
        resp = await client.request("value", stream="ref")
        elapsed = time.perf_counter() - t0
    return {
        "value": float(resp["value"]),
        "hex": float(resp["value"]).hex(),
        "count": int(resp["count"]),
        "seconds": elapsed,
    }


class Drill:
    """A spawned cluster plus the coordinator driving it."""

    def __init__(
        self, directory: str, *, nodes: int, shards: int, wire: str = "binary"
    ) -> None:
        self.wire = wire
        self.procs = spawn_local_cluster(nodes, directory, shards=shards)
        self.by_id = {p.node_id: p for p in self.procs}
        self.coordinator = ClusterCoordinator(
            [
                RemoteNodeHandle(p.node_id, p.host, p.port, wire=wire)
                for p in self.procs
            ],
            replication=2,
        )

    def assert_wire(self) -> None:
        """Every connected handle must have negotiated the drill's wire."""
        for handle in self.coordinator._handles.values():
            client = getattr(handle, "_client", None)
            if client is not None and client.wire != self.wire:
                raise AssertionError(
                    f"{handle.node_id} negotiated {client.wire!r}, "
                    f"wanted {self.wire!r}"
                )

    async def close(self) -> None:
        await self.coordinator.close()
        for proc in self.procs:
            proc.terminate()


async def drill_uninterrupted(
    batches: List[np.ndarray],
    ref: Dict[str, Any],
    tmp: str,
    *,
    nodes: int,
    wire: str = "binary",
) -> Dict[str, Any]:
    drill = Drill(tmp, nodes=nodes, shards=2, wire=wire)
    try:
        co = drill.coordinator
        t0 = time.perf_counter()
        for batch in batches:
            await co.append("ledger", batch)
        got = await co.value("ledger")
        elapsed = time.perf_counter() - t0
        drill.assert_wire()
        identical = got["value"].hex() == ref["hex"] and got["count"] == ref["count"]
        if not identical:
            raise AssertionError(
                f"uninterrupted cluster drifted: {got['value']!r} vs "
                f"{ref['value']!r}"
            )
        n = sum(b.size for b in batches)
        return {
            "case": "uninterrupted",
            "wire": wire,
            "nodes": nodes,
            "n": n,
            "seconds": elapsed,
            "values_per_second": n / elapsed,
            "value_hex": got["value"].hex(),
            "bit_identical": identical,
        }
    finally:
        await drill.close()


async def drill_kill_recover(
    batches: List[np.ndarray],
    ref: Dict[str, Any],
    tmp: str,
    *,
    nodes: int,
    wire: str = "binary",
) -> Dict[str, Any]:
    """THE acceptance drill: SIGKILL the primary mid-ingest, fail over,
    replay its WAL, read bit-identically.

    On the binary wire the victim's WAL records hold the client frame
    payloads verbatim (no decode/re-encode), so this drill doubles as
    the end-to-end proof that replaying passthrough records through the
    vectorized fold reproduces the uninterrupted sum bit-exactly.
    """
    drill = Drill(tmp, nodes=nodes, shards=2, wire=wire)
    try:
        co = drill.coordinator
        half = len(batches) // 2
        t0 = time.perf_counter()
        for batch in batches[:half]:
            await co.append("ledger", batch)
        victim = co._placement("ledger").primary
        drill.by_id[victim].kill()  # SIGKILL: no flush, no goodbye
        for batch in batches[half:]:
            await co.append("ledger", batch)
        replay = await co.replay_wal_onto(drill.by_id[victim].wal)
        got = await co.value("ledger")
        elapsed = time.perf_counter() - t0
        identical = got["value"].hex() == ref["hex"] and got["count"] == ref["count"]
        if not identical:
            raise AssertionError(
                f"kill/recover drifted: {got['value']!r} vs {ref['value']!r}"
            )
        return {
            "case": "kill_recover",
            "wire": wire,
            "nodes": nodes,
            "victim": victim,
            "killed_after_batches": half,
            "failovers": co.failovers,
            "wal_replay": replay,
            "seconds": elapsed,
            "value_hex": got["value"].hex(),
            "read_from": got["node"],
            "bit_identical": identical,
        }
    finally:
        await drill.close()


async def drill_cold_restart(
    batches: List[np.ndarray], tmp: str, *, nodes: int
) -> Dict[str, Any]:
    """Kill a node, restart a fresh process on its WAL, and assert the
    acked prefix is reconstructed bit-exactly from the log alone."""
    drill = Drill(tmp, nodes=nodes, shards=2)
    try:
        co = drill.coordinator
        half = len(batches) // 2
        for batch in batches[:half]:
            await co.append("ledger", batch)
        victim = co._placement("ledger").primary
        prefix = np.concatenate(batches[:half])
        expected = exact_sum(prefix)
        drill.by_id[victim].kill()
        t0 = time.perf_counter()
        spec = drill.by_id[victim].restart()
        fresh = RemoteNodeHandle(spec.node_id, spec.host, spec.port)
        resp = await fresh.request("value", stream="ledger")
        elapsed = time.perf_counter() - t0
        await fresh.close()
        identical = (
            float(resp["value"]).hex() == expected.hex()
            and int(resp["count"]) == prefix.size
        )
        if not identical:
            raise AssertionError(
                f"cold restart drifted: {resp['value']!r} vs {expected!r}"
            )
        return {
            "case": "cold_restart",
            "wire": drill.wire,
            "nodes": nodes,
            "victim": victim,
            "recovered_values": int(resp["count"]),
            "recovery_seconds": elapsed,
            "value_hex": float(resp["value"]).hex(),
            "bit_identical": identical,
        }
    finally:
        await drill.close()


async def run(n: int, *, nodes: int, batch: int) -> Dict[str, Any]:
    data = generate("sumzero", n, delta=500, seed=42)
    batches = [data[i : i + batch] for i in range(0, data.size, batch)]
    ref = await serve_reference(batches)
    print(f"reference (single-node serve): sum={ref['value']!r} "
          f"count={ref['count']:,} in {ref['seconds']:.2f}s")
    rows: List[Dict[str, Any]] = []
    for drill_fn in (drill_uninterrupted, drill_kill_recover):
        for wire in ("json", "binary"):
            with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as tmp:
                row = await drill_fn(batches, ref, tmp, nodes=nodes, wire=wire)
            rows.append(row)
            print(f"  {row['case']:<14s} wire={wire:<6s} "
                  f"bit_identical={row['bit_identical']} "
                  f"({row['seconds']:.2f}s)")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as tmp:
        row = await drill_cold_restart(batches, tmp, nodes=nodes)
    rows.append(row)
    print(f"  {row['case']:<14s} wire={row['wire']:<6s} "
          f"bit_identical={row['bit_identical']} "
          f"(recovery {row['recovery_seconds']:.2f}s)")
    # both wires must read the same bits in every drill case
    by_case: Dict[str, set] = {}
    for row in rows:
        by_case.setdefault(row["case"], set()).add(row["value_hex"])
    for case, hexes in by_case.items():
        if len(hexes) != 1:
            raise AssertionError(f"wire modes disagree bitwise in {case}: {hexes}")
    return {"reference": ref, "rows": rows}


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("-n", type=int, default=None, help="values per drill")
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--batch", type=int, default=500)
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_cluster.json",
    )
    args = parser.parse_args(argv or sys.argv[1:])

    n = args.n if args.n else (20_000 if args.quick else 100_000)
    print(f"cluster drills: n={n:,}, nodes={args.nodes}, batch={args.batch}")
    result = asyncio.run(run(n, nodes=args.nodes, batch=args.batch))

    kill = next(
        r
        for r in result["rows"]
        if r["case"] == "kill_recover" and r["wire"] == "binary"
    )
    record = {
        "benchmark": "cluster",
        "quick": args.quick,
        "host": bench_stamp(),
        "config": {
            "n": n,
            "nodes": args.nodes,
            "batch": args.batch,
            "replication": 2,
            "distribution": "sumzero delta=500 seed=42",
            "exactness": (
                "every drill asserted bit-identical to the uninterrupted "
                "single-node serve path"
            ),
        },
        "reference": result["reference"],
        "rows": result["rows"],
        "headline": {
            "case": "kill_recover",
            "wire": "binary",
            "bit_identical": kill["bit_identical"],
            "failovers": kill["failovers"],
            "wal_records_replayed": kill["wal_replay"]["records"],
            "wal_passthrough": (
                "binary-wire WAL records hold client frame payloads "
                "verbatim; replay folds them through the vectorized path"
            ),
            "pass": all(r["bit_identical"] for r in result["rows"]),
        },
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    ok = record["headline"]["pass"]
    print(f"headline: kill/recover replays binary WAL bit-identically "
          f"({'PASS' if ok else 'FAIL'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
