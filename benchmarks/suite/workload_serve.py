"""``serve_small`` and ``serve_bulk_rw``: the TCP serve stack, closed loop.

The server is a separate process (:mod:`benchmarks.suite.server`): a
:class:`~repro.serve.server.ReproServer` on loopback over a 4-shard
:class:`~repro.serve.service.ReproService` with the default ``running``
kernel. The load is this process: 2 binary-wire
:class:`~repro.serve.client.ReproServeClient` connections, each with 4
pipelined closed-loop lanes.

* ``serve_small`` — every op is an ``add_batch`` of 64 values to one hot
  stream (sum-zero δ=600). Per-request framing, parsing, dispatch,
  shard queueing and microbatch coalescing dominate; the kernel does
  little.
* ``serve_bulk_rw`` — ops rotate over 8 streams: 4 sum streams get
  ``add_batch`` of 4096 values and 4 dot streams get ``add_pairs`` of
  2048+2048 (the ``RBAT`` frame); every 8th op reads its stream instead
  (``value`` or ``dot``). The binned fold, the dot EFT expansion and
  the read-side gather/merge/round do the work.

Inputs are fixed pools of batches made from the seed; op ``k`` sends
batch ``k mod P``. Each stream's final read must equal the exact sum
(or dot product) of every batch sent to it, rounded once.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.data import generate
from repro.serve import ReproServeClient

from benchmarks.suite import common
from benchmarks.suite.common import RunConfig, RunResult, Window, us
from benchmarks.suite.trace import Spans, Tracer, serve_client_targets


CONNECTIONS = 2
LANES_PER_CONNECTION = 4
SETUP_REPEATS = 5
PROCESS_TIMEOUT_S = 60.0

SMALL_BATCH = 64
BULK_BATCH = 4096
BULK_PAIRS = 2048
POOL = 256
BULK_POOL = 32
BULK_STREAMS = 8  # 0-3 sum streams, 4-7 dot streams


class _Server:
    """One server process and the benchmark's connections to it."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int) -> None:
        self.proc = proc
        self.port = port
        self.clients: List[Any] = []

    @classmethod
    async def start(cls, cfg: RunConfig, trace_out: Optional[Path] = None) -> "_Server":
        extra = ["--trace-out", str(trace_out)] if trace_out is not None else []
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "benchmarks.suite.server", *extra,
            cwd=str(common.ROOT),
            env=common.child_env(cfg.workdir),
            stdout=asyncio.subprocess.PIPE,
        )
        server = cls(proc, 0)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), PROCESS_TIMEOUT_S)
            if not line:
                raise RuntimeError("server process exited before it was ready")
            server.port = int(json.loads(line)["port"])
            for _ in range(CONNECTIONS):
                client = await ReproServeClient.connect(
                    "127.0.0.1", server.port, wire="binary"
                )
                server.clients.append(client)
                if client.wire != "binary":
                    raise RuntimeError("server refused the binary wire")
        except BaseException:
            await server.kill()
            raise
        return server

    async def stop(self) -> None:
        """Shut the server down through the protocol and wait for it."""
        try:
            if self.clients:
                await self.clients[0].shutdown()
            for client in self.clients:
                await client.close()
            code = await asyncio.wait_for(self.proc.wait(), PROCESS_TIMEOUT_S)
        finally:
            await self.kill()
        if code != 0:
            raise RuntimeError(f"server process exited with code {code}")

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


class _Small:
    """One hot stream; every op writes a 64-value batch."""

    def __init__(self, cfg: RunConfig) -> None:
        values = generate("sumzero", POOL * SMALL_BATCH, delta=600, seed=cfg.seed)
        self.batches = np.split(values, POOL)
        self.exact = [common.scaled_sum(b) for b in self.batches]
        self.sent = np.zeros(POOL, dtype=np.int64)

    def op_for(self, clients):
        def op(lane: int, j: int, k: int) -> Tuple[str, int, Any]:
            b = k % POOL
            self.sent[b] += 1
            client = clients[lane % len(clients)]
            return "write", SMALL_BATCH, client.add_batch("hot", self.batches[b])

        return op

    async def check(self, client, result: RunResult) -> None:
        total = sum(int(c) * e for c, e in zip(self.sent, self.exact))
        want = common.round_scaled(total, common.SUM_SCALE_BITS)
        result.expect("stream hot", await client.value("hot"), want)


class _BulkRW:
    """4 sum + 4 dot streams; every 8th op is a read of its stream."""

    def __init__(self, cfg: RunConfig) -> None:
        n = BULK_POOL * BULK_BATCH
        sums = generate("random", n, delta=40, seed=cfg.seed)
        xs = generate("random", n // 2, delta=40, seed=cfg.seed + 1)
        ys = generate("random", n // 2, delta=40, seed=cfg.seed + 2)
        self.sums = np.split(sums, BULK_POOL)
        self.xs = np.split(xs, BULK_POOL)
        self.ys = np.split(ys, BULK_POOL)
        self.sum_exact = [common.scaled_sum(b) for b in self.sums]
        self.dot_exact = [common.scaled_dot(x, y) for x, y in zip(self.xs, self.ys)]
        self.sent = np.zeros((BULK_STREAMS, BULK_POOL), dtype=np.int64)

    @staticmethod
    def stream(s: int) -> str:
        return f"sum{s}" if s < BULK_STREAMS // 2 else f"dot{s}"

    def op_for(self, clients):
        def op(lane: int, j: int, k: int) -> Tuple[str, int, Any]:
            s = k % BULK_STREAMS
            client = clients[lane % len(clients)]
            name = self.stream(s)
            if (k // BULK_STREAMS) % BULK_STREAMS == s:
                read = client.value if s < BULK_STREAMS // 2 else client.dot
                return "read", 0, read(name)
            b = k % BULK_POOL
            self.sent[s, b] += 1
            if s < BULK_STREAMS // 2:
                return "write", BULK_BATCH, client.add_batch(name, self.sums[b])
            return "write", 2 * BULK_PAIRS, client.add_pairs(name, self.xs[b], self.ys[b])

        return op

    async def check(self, client, result: RunResult) -> None:
        for s in range(BULK_STREAMS):
            name = self.stream(s)
            if s < BULK_STREAMS // 2:
                total = sum(int(c) * e for c, e in zip(self.sent[s], self.sum_exact))
                want = common.round_scaled(total, common.SUM_SCALE_BITS)
                result.expect(f"stream {name}", await client.value(name), want)
            else:
                total = sum(int(c) * e for c, e in zip(self.sent[s], self.dot_exact))
                want = common.round_scaled(total, common.DOT_SCALE_BITS)
                result.expect(f"stream {name}", await client.dot(name), want)


async def _window(cfg, server: _Server, plan, result: RunResult, tracer=None) -> Window:
    win = Window(cfg.seconds)
    await common.closed_loop(
        win, CONNECTIONS * LANES_PER_CONNECTION, plan.op_for(server.clients), tracer
    )
    result.add_window(win)
    await plan.check(server.clients[0], result)
    return win


def _layers(win: Window, client: Spans, server: Spans, stats: Dict[str, Any]) -> Dict[str, float]:
    lo, hi = win.ns_bounds()
    cs, ss = client.select(lo, hi), server.select(lo, hi)
    handle_w = ss.durations_ns("service.handle", work=0)
    fold = ss.durations_ns("shards.fold")
    call = ss.durations_ns("shards.call")
    deposit = ss.durations_ns("kernels.deposit")
    deposited = ss.cols["work"][ss.mask("kernels.deposit")].sum()
    return {
        "protocol.encode_us": us(cs.durations_ns("protocol.encode")),
        "protocol.parse_us": us(ss.durations_ns("protocol.parse")),
        "transport.overhead_us": us(cs.durations_ns("client.write")) - us(handle_w),
        "service.handle_us": us(handle_w),
        "service.handle_read_us": us(ss.durations_ns("service.handle", work=1)),
        "service.handle_self_us": us(ss.self_ns_of("service.handle", work=0)),
        "shards.fold_wait_us": us(fold),
        "shards.fold_wait_p99_us": us(fold, 99),
        "shards.read_wait_us": us(call),
        "shards.read_wait_p99_us": us(call, 99),
        "shards.coalesced_ops": (
            int(server.mask("shards.fold").sum()) / max(stats["batches_folded"], 1)
        ),
        "shards.queue_depth_peak": float(stats["queue_depth_peak"]),
        "kernels.fold_into_us": us(ss.durations_ns("kernels.fold_into")),
        "kernels.deposit_ns_per_value": float(deposit.sum() / deposited) if deposited else 0.0,
        "kernels.to_sparse_us": us(ss.durations_ns("kernels.to_sparse")),
        "reduce.expand_us": us(ss.durations_ns("reduce.expand")),
        "reduce.check_domain_us": us(ss.durations_ns("reduce.check_domain")),
        "core.absorb_us": us(ss.durations_ns("core.absorb")),
        "core.round_us": us(ss.durations_ns("core.round")),
        "core.merge_us": us(ss.durations_ns("core.merge")),
        "trace.coverage": (cs.covered_ns() + ss.covered_ns()) / max(cs.op_ns(), 1),
    }


async def _run(cfg: RunConfig, plan_cls) -> RunResult:
    result = RunResult()
    server: Optional[_Server] = None
    try:
        if not cfg.trace:
            setups = []
            for _ in range(1 if cfg.quick else SETUP_REPEATS):
                if server is not None:
                    await server.stop()
                    await asyncio.sleep(common.SETUP_GAP_S)
                t0 = time.perf_counter()
                server = await _Server.start(cfg)
                setups.append(time.perf_counter() - t0)
            result.setup(setups)
        else:
            server = await _Server.start(cfg)

        win = await _window(cfg, server, plan_cls(cfg), result)
        await server.stop()
        server = None
        writes, reads = win.lat.get("write", []), win.lat.get("read", [])
        if not cfg.trace:
            result.metrics["values_per_s"] = win.values_per_s()
            result.samples["values_per_s"] = len(writes)
            return result

        result.timing("op_p50_ms", writes, 50)
        result.timing("op_p99_ms", writes, 99)
        result.timing("read_p50_ms", reads, 50)
        result.timing("read_p99_ms", reads, 99)
        tracer = Tracer()
        tracer.install(serve_client_targets())
        trace_out = cfg.workdir / "server-spans.npz"
        try:
            server = await _Server.start(cfg, trace_out)
            twin = await _window(cfg, server, plan_cls(cfg), result, tracer)
            stats = await server.clients[0].stats()
            await server.stop()
            server = None
        finally:
            tracer.uninstall()
        result.metrics.update(_layers(twin, tracer.spans(), Spans.load(trace_out), stats))
        result.metrics["trace.overhead"] = 1.0 - twin.values_per_s() / win.values_per_s()
        return result
    finally:
        if server is not None:
            await server.kill()


def run_small(cfg: RunConfig) -> RunResult:
    return asyncio.run(_run(cfg, _Small))


def run_bulk_rw(cfg: RunConfig) -> RunResult:
    return asyncio.run(_run(cfg, _BulkRW))
