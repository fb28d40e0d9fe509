"""``cluster_wal``: replicated appends to an in-process WAL-backed cluster.

A :class:`~repro.cluster.coordinator.LocalCluster` of 3 nodes
(replication factor 2, 2 shards each) writes real WAL files with fsync
in a directory of the checkout. 2 closed-loop appender tasks call
``ClusterCoordinator.append`` with 256-value batches (sum-zero δ=500)
over 8 placed streams, and each reads a stream's ``value`` every 8th
op. Replication fan-out, seq dedup, WAL encode and group-commit fsync
dominate; the kernel does little and there is no TCP.

After the window every stream is read and checked against its exact
sum, the cluster is closed, and node-0's WAL is replayed by a cold
``ClusterNode.start(recover=True)`` once as warm-up and then 3 timed
times; every replayed stream must read back the cluster's value.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.cluster import ClusterNode, LocalCluster
from repro.data import generate
from repro.serve import ServeConfig

from benchmarks.suite import common
from benchmarks.suite.common import RunConfig, RunResult, Window, us
from benchmarks.suite.trace import Tracer, cluster_targets


NODES = 3
REPLICATION = 2
SHARDS = 2
APPENDERS = 2
BATCH = 256
STREAMS = 8
READ_EVERY = 8
POOL = 256
SETUP_REPEATS = 15
RECOVERIES = 3
REPLAYED_NODE = "node-0"


class _Plan:
    """The batch pool, the op rotation and the exact references."""

    def __init__(self, cfg: RunConfig) -> None:
        values = generate("sumzero", POOL * BATCH, delta=500, seed=cfg.seed)
        self.batches = np.split(values, POOL)
        self.exact = [common.scaled_sum(b) for b in self.batches]
        self.sent = np.zeros((STREAMS, POOL), dtype=np.int64)

    def op_for(self, coordinator):
        def op(lane: int, j: int, k: int) -> Tuple[str, int, Any]:
            name = f"s{k % STREAMS}"
            if j % READ_EVERY == READ_EVERY - 1:
                return "read", 0, coordinator.value(name)
            b = k % POOL
            self.sent[k % STREAMS, b] += 1
            return "write", BATCH, coordinator.append(name, self.batches[b])

        return op

    async def check(self, coordinator, result: RunResult) -> Dict[str, float]:
        values = {}
        for s in range(STREAMS):
            total = sum(int(c) * e for c, e in zip(self.sent[s], self.exact))
            want = common.round_scaled(total, common.SUM_SCALE_BITS)
            got = float((await coordinator.value(f"s{s}"))["value"])
            result.expect(f"stream s{s}", got, want)
            values[f"s{s}"] = got
        return values


async def _start_cluster(base: Path):
    cluster = LocalCluster(NODES, replication=REPLICATION, shards=SHARDS, base_dir=base)
    try:
        await cluster.start()
    except BaseException:
        await cluster.close()
        common.remove_tree(base)
        raise
    return cluster


async def _stop_cluster(cluster, base: Path) -> None:
    await cluster.close()
    common.remove_tree(base)


async def _recoveries(wal: Path, values: Dict[str, float], result: RunResult):
    """Cold replays of one node's WAL: (seconds, values replayed, bounds) each."""
    out: List[Tuple[float, int, Tuple[int, int]]] = []
    for i in range(1 + RECOVERIES):
        node = ClusterNode(REPLAYED_NODE, config=ServeConfig(shards=SHARDS), wal_path=wal)
        t0 = time.perf_counter_ns()
        await node.start(recover=True)
        t1 = time.perf_counter_ns()
        try:
            replayed = 0
            for name, want in values.items():
                resp = await node.service.handle({"op": "value", "stream": name})
                result.expect(f"replay {i} of {name}", float(resp["value"]), want)
                replayed += int(resp["count"])
        finally:
            await node.close()
        if i:
            out.append(((t1 - t0) / 1e9, replayed, (t0, t1)))
    return out


async def _window(cfg: RunConfig, base: Path, cluster, result: RunResult, tracer=None):
    """One measured window, its checks, WAL accounting and the replays."""
    plan = _Plan(cfg)
    coordinator = cluster.coordinator
    win = Window(cfg.seconds)
    await common.closed_loop(win, APPENDERS, plan.op_for(coordinator), tracer)
    result.add_window(win)
    values = await plan.check(coordinator, result)
    placed = (await coordinator.status())["placed_streams"]
    infos = [
        (await node.service.handle({"op": "cluster_info"}))["wal"]
        for node in cluster.nodes.values()
    ]
    wal = {
        "records": sum(i["records_written"] for i in infos),
        "batches": sum(i["batches_written"] for i in infos),
        "bytes": sum(p.stat().st_size for p in base.glob("*.wal")),
        "values": int(plan.sent.sum()) * BATCH,
    }
    await cluster.close()
    replayed = {s: v for s, v in values.items() if REPLAYED_NODE in placed[s]}
    recoveries = await _recoveries(cluster.wal_path(REPLAYED_NODE), replayed, result)
    return win, wal, recoveries


def _layers(twin: Window, spans, wal, recoveries) -> Dict[str, float]:
    lo, hi = twin.ns_bounds()
    ws = spans.select(lo, hi)
    slowest = ws.children_max_ns("coordinator.append", "coordinator.replica")
    reads, folds = [], []
    for seconds, _, (t0, t1) in recoveries:
        read_ns = spans.select(t0, t1).durations_ns("wal.replay_read").sum()
        reads.append(read_ns / 1e6)
        folds.append(seconds * 1e3 - read_ns / 1e6)
    durable = ws.durations_ns("wal.durable_wait")
    fsync = ws.durations_ns("wal.fsync")
    return {
        "coordinator.append_self_us": us(ws.self_ns_of("coordinator.append")),
        "coordinator.slowest_replica_us": us(slowest),
        "coordinator.slowest_replica_p99_us": us(slowest, 99),
        "node.handle_us": us(ws.durations_ns("node.handle", work=0)),
        "codec.wal_encode_us": us(ws.durations_ns("codec.wal_encode")),
        "wal.durable_wait_us": us(durable),
        "wal.durable_wait_p99_us": us(durable, 99),
        "wal.fsync_us": us(fsync),
        "wal.fsync_p99_us": us(fsync, 99),
        "wal.group_commit_records": wal["records"] / max(wal["batches"], 1),
        "wal.bytes_per_value": wal["bytes"] / (wal["values"] * REPLICATION),
        "wal.replay_read_ms": float(np.median(reads)),
        "node.replay_fold_ms": float(np.median(folds)),
        "trace.coverage": ws.covered_ns() / max(ws.op_ns(), 1),
    }


async def _run(cfg: RunConfig) -> RunResult:
    result = RunResult()
    bases: List[Path] = []

    def fresh_base() -> Path:
        bases.append(cfg.workdir / f"cluster-{len(bases)}")
        return bases[-1]

    cluster = None
    try:
        if not cfg.trace:
            setups = []
            for _ in range(1 if cfg.quick else SETUP_REPEATS):
                if cluster is not None:
                    await _stop_cluster(cluster, bases[-1])
                    await asyncio.sleep(common.SETUP_GAP_S)
                base = fresh_base()
                t0 = time.perf_counter()
                cluster = await _start_cluster(base)
                setups.append(time.perf_counter() - t0)
            result.setup(setups)
        else:
            cluster = await _start_cluster(fresh_base())

        win, _, recoveries = await _window(cfg, bases[-1], cluster, result)
        cluster = None
        writes, reads = win.lat.get("write", []), win.lat.get("read", [])
        if not cfg.trace:
            result.metrics["values_per_s"] = win.values_per_s()
            result.samples["values_per_s"] = len(writes)
            return result

        result.timing("op_p50_ms", writes, 50)
        result.timing("op_p99_ms", writes, 99)
        result.timing("read_p50_ms", reads, 50)
        result.timing("read_p99_ms", reads, 99)
        result.metrics["recover_values_per_s"] = float(
            np.median([n / s / 1e6 for s, n, _ in recoveries])
        )
        result.samples["recover_values_per_s"] = len(recoveries)
        tracer = Tracer()
        tracer.install(cluster_targets())
        try:
            cluster = await _start_cluster(fresh_base())
            twin, wal, trecoveries = await _window(cfg, bases[-1], cluster, result, tracer)
            cluster = None
        finally:
            tracer.uninstall()
        result.metrics.update(_layers(twin, tracer.spans(), wal, trecoveries))
        result.metrics["trace.overhead"] = 1.0 - twin.values_per_s() / win.values_per_s()
        return result
    finally:
        if cluster is not None:
            await cluster.close()
        for base in bases:
            common.remove_tree(base)
        left = [str(b) for b in bases if b.exists()]
        if left:
            result.problems.append(f"WAL directories not removed: {left}")


def run(cfg: RunConfig) -> RunResult:
    return asyncio.run(_run(cfg))
