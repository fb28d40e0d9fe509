"""Service-layer semantics, in process (no sockets).

Covers routing/exactness across shards, inline folds (no shard task,
one fold per request), snapshot/restore/drain/merge, the stats
endpoint, and error-response mapping.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import exact_sum
from repro.data import generate
from repro.errors import EmptyStreamError
from repro.kernels.binned import RESOLVE_CHUNKS, BinnedPartial
from repro.reduce import dot as reduce_dot
from repro.serve import (
    AccumulatorShard,
    InProcessClient,
    ReproService,
    ServeConfig,
)
from repro.serve.service import square_shadow
from repro.util.bits import same_float
from tests.conftest import random_hard_array, ref_mean, ref_sum, ref_var


def run(coro):
    return asyncio.run(coro)


async def make_service(**kwargs) -> ReproService:
    service = ReproService(ServeConfig(**kwargs))
    await service.start()
    return service


class TestIngestExactness:
    def test_add_and_value(self, rng):
        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service)
            x = random_hard_array(rng, 300)
            for v in x[:50]:
                await client.add("s", float(v))
            await client.add_array("s", x[50:])
            assert await client.value("s") == ref_sum(x)
            assert await client.count("s") == 300
            await service.close()

        run(main())

    def test_scatter_across_shards_bit_identical(self, rng):
        # array large enough to stripe across every shard
        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service)
            x = random_hard_array(rng, 5000)
            await client.add_array("s", x)
            assert await client.value("s") == ref_sum(x)
            assert await client.count("s") == 5000
            await service.close()

        run(main())

    def test_interleaved_producers_match_serial(self, rng):
        async def main():
            service = await make_service(shards=4)
            x = random_hard_array(rng, 4096)
            parts = np.array_split(x, 8)

            async def producer(chunk):
                client = InProcessClient(service)
                for piece in np.array_split(chunk, 16):
                    await client.add_array("s", piece)

            await asyncio.gather(*(producer(p) for p in parts))
            client = InProcessClient(service)
            assert await client.value("s") == ref_sum(x)
            assert await client.count("s") == x.size
            await service.close()

        run(main())

    def test_pathological_cancellation(self):
        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service)
            drift = [1e16, 1.0, -1e16] * 200
            await client.add_array("s", drift)
            assert await client.value("s") == ref_sum(drift)  # == 200.0
            await service.close()

        run(main())

    def test_empty_and_unknown_streams(self):
        async def main():
            service = await make_service(shards=2)
            client = InProcessClient(service)
            assert await client.value("nope") == 0.0
            assert await client.count("nope") == 0
            with pytest.raises(EmptyStreamError):
                await client.mean("nope")
            assert await client.add_array("s", []) == 0
            await service.close()

        run(main())

    def test_mean_exact(self, rng):
        async def main():
            service = await make_service(shards=3)
            client = InProcessClient(service)
            x = random_hard_array(rng, 500, emin=-30, emax=30)
            await client.add_array("m", x)
            assert await client.mean("m") == ref_mean(x)
            await service.close()

        run(main())

    def test_non_finite_rejected_cleanly(self):
        async def main():
            service = await make_service(shards=2)
            client = InProcessClient(service)
            resp = await service.handle(
                {"op": "add_array", "stream": "s", "values": [1.0, float("inf")]}
            )
            assert resp["ok"] is False and resp["code"] == "non-finite"
            # nothing was folded
            assert await client.count("s") == 0
            await service.close()

        run(main())


class TestMicrobatching:
    """Streams stage small writes themselves (``streaming.DEPOSIT_MIN``);
    the service folds each request inline, with no shard task or queue."""

    def test_start_creates_no_task(self):
        async def main():
            before = asyncio.all_tasks()
            service = await make_service(shards=4)
            assert asyncio.all_tasks() == before
            # a shard folds on the caller and returns a plain int
            shard = AccumulatorShard(0)
            assert shard.fold("s", np.array([1.0, 2.0])) == 2
            assert shard.call(lambda streams: streams["s"].count) == 2
            await service.close()

        run(main())

    def test_concurrent_adds_fold_inline(self):
        async def main():
            service = await make_service(shards=1)
            client = InProcessClient(service)
            await asyncio.gather(
                *(client.add("s", float(i)) for i in range(200))
            )
            assert await client.value("s") == ref_sum(
                [float(i) for i in range(200)]
            )
            assert await client.count("s") == 200
            stats = await client.stats()
            # one AccumulatorShard.fold per request, nothing coalesced
            assert stats["batches_folded"] == 200
            assert stats["values_ingested"] == 200
            await service.close()

        run(main())

    def test_flush_barrier(self, rng):
        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service)
            x = random_hard_array(rng, 256)
            await client.add_array("s", x)
            resp = await service.handle({"op": "flush", "id": 3})
            assert resp == {"flushed": True, "ok": True, "id": 3}
            await client.flush()
            # every acknowledged fold was applied before its ack
            assert await client.value("s") == ref_sum(x)
            await service.close()

        run(main())


class TestBackpressure:
    """Backpressure is the server's per-connection ``max_inflight``
    bound plus TCP flow control (``tests/test_serve_server.py``); in
    process, concurrent producers simply complete."""

    def test_block_policy_waits_and_completes(self, rng):
        async def main():
            service = await make_service(shards=1)
            client = InProcessClient(service)
            x = random_hard_array(rng, 512)
            await asyncio.gather(
                *(client.add_array("s", chunk) for chunk in np.array_split(x, 64))
            )
            assert await client.value("s") == ref_sum(x)
            stats = await client.stats()
            assert stats["errors_total"] == 0
            assert "queue_rejections" not in stats
            await service.close()

        run(main())


class TestStateManipulation:
    def test_snapshot_restore_roundtrip(self, rng):
        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service)
            x = random_hard_array(rng, 600)
            await client.add_array("a", x)
            blob = await client.snapshot("a")
            restored = await client.restore("b", blob)
            assert restored == 600
            assert await client.value("b") == await client.value("a")
            assert await client.count("b") == 600
            await service.close()

        run(main())

    def test_merge_moves_and_deletes(self, rng):
        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service)
            x = random_hard_array(rng, 400)
            await client.add_array("a", x[:150])
            await client.add_array("b", x[150:])
            moved = await client.merge("b", "a")
            assert moved == 250
            assert await client.value("a") == ref_sum(x)
            assert "b" not in await client.streams()
            await service.close()

        run(main())

    def test_drain_removes_stream(self, rng):
        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service)
            x = random_hard_array(rng, 300)
            await client.add_array("d", x)
            value, count, blob = await client.drain("d")
            assert value == ref_sum(x) and count == 300
            assert await client.count("d") == 0
            # the drained snapshot restores elsewhere, exactly
            await client.restore("d2", blob)
            assert await client.value("d2") == ref_sum(x)
            await service.close()

        run(main())

    def test_save_load_state_file(self, rng, tmp_path):
        async def main():
            path = tmp_path / "state.json"
            service = await make_service(shards=4)
            client = InProcessClient(service)
            x = random_hard_array(rng, 200)
            await client.add_array("alpha", x[:80])
            await client.add_array("beta", x[80:])
            assert await service.save_state(path) == 2
            await service.close()

            fresh = await make_service(shards=2)  # different shard count is fine
            assert await fresh.load_state(path) == 2
            fc = InProcessClient(fresh)
            assert await fc.value("alpha") == ref_sum(x[:80])
            assert await fc.value("beta") == ref_sum(x[80:])
            assert await fc.count("alpha") == 80
            await fresh.close()

        run(main())

    def test_merge_carries_the_square_shadow(self):
        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service)
            await client.add_observations("a", [1.0, 2.0, 3.0])
            await client.add_observations("b", [4.0, 5.0])
            assert await client.merge("a", "b") == 3
            stats = await client.moments("b", ddof=1)
            x = [1.0, 2.0, 3.0, 4.0, 5.0]
            assert stats["count"] == 5
            assert same_float(stats["mean"], ref_mean(x))
            assert same_float(stats["variance"], ref_var(x, ddof=1))
            assert service._stream_counts() == {"b": 5, square_shadow("b"): 10}
            await service.close()

        run(main())

    def test_drain_removes_the_square_shadow(self):
        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service)
            await client.add_observations("c", [1.0, 2.0, 3.0])
            await client.drain("c")
            await client.add_observations("c", [7.0])
            stats = await client.moments("c")
            assert stats["count"] == 1 and stats["mean"] == 7.0
            assert stats["variance"] == 0.0
            await service.close()

        run(main())

    def test_streams_hides_square_shadows(self):
        async def main():
            service = await make_service(shards=2)
            client = InProcessClient(service)
            await client.add_observations("a", [1.0, 2.0, 3.0])
            assert await client.streams() == {"a": 3}
            await service.close()

        run(main())

    def test_save_load_state_keeps_observations(self, rng, tmp_path):
        async def main():
            path = tmp_path / "state.json"
            x = random_hard_array(rng, 200)
            service = await make_service(shards=4)
            await InProcessClient(service).add_observations("obs", x)
            assert await service.save_state(path) == 2  # the stream and its shadow
            await service.close()

            fresh = await make_service(shards=2)
            await fresh.load_state(path)
            stats = await InProcessClient(fresh).moments("obs", ddof=1)
            assert stats["count"] == 200
            assert same_float(stats["mean"], ref_mean(x))
            assert same_float(stats["variance"], ref_var(x, ddof=1))
            await fresh.close()

        run(main())

    def test_requests_cannot_name_a_square_shadow(self):
        async def main():
            service = await make_service(shards=2)
            client = InProcessClient(service)
            await client.add_observations("a", [1.0, 2.0])
            shadow = square_shadow("a")
            blob = (await service.handle({"op": "snapshot", "stream": "a"}))["snapshot"]
            for request in (
                {"op": "add_array", "stream": shadow, "values": [3.0]},
                {"op": "add", "stream": shadow, "value": 3.0},
                {"op": "restore", "stream": shadow, "snapshot": blob},
                {"op": "value", "stream": shadow},
                {"op": "snapshot", "stream": shadow},
                {"op": "drain", "stream": shadow},
                {"op": "merge", "src": shadow, "dst": "b"},
                {"op": "merge", "src": "b", "dst": shadow},
            ):
                resp = await service.handle(request)
                assert resp["ok"] is False and resp["code"] == "service", request
            stats = await client.moments("a", ddof=1)
            assert stats["count"] == 2 and stats["mean"] == 1.5
            assert stats["variance"] == 0.5
            await service.close()

        run(main())

    def test_restore_corrupt_snapshot(self):
        async def main():
            service = await make_service(shards=1)
            resp = await service.handle(
                {"op": "restore", "stream": "s", "snapshot": "Z2FyYmFnZQ=="}
            )
            assert resp["ok"] is False and resp["code"] == "service"
            await service.close()

        run(main())


class TestDispatchErrors:
    @pytest.mark.parametrize(
        "request_,code",
        [
            ({"op": "warp"}, "unknown-op"),
            ({"noop": 1}, "service"),
            ({"op": "add", "stream": "s"}, "service"),
            ({"op": "add", "stream": "s", "value": "x"}, "service"),
            ({"op": "add", "stream": "s", "value": True}, "service"),
            ({"op": "add", "value": 1.0}, "service"),
            ({"op": "add_array", "stream": "s"}, "service"),
            ({"op": "merge", "src": "a", "dst": "a"}, "service"),
            ({"op": "value", "stream": "s", "mode": "sideways"}, "bad-request"),
            ({"op": "add_block", "stream": "s", "block": "nope"}, "service"),
            (
                {
                    "op": "add_block",
                    "stream": "s",
                    "block": {"kind": "warp", "segment": "x", "length": 1},
                },
                "service",
            ),
            ({"op": "snapshot", "streams": "s"}, "service"),
            ({"op": "snapshot", "streams": []}, "service"),
            ({"op": "snapshot", "streams": ["s", 3]}, "service"),
        ],
    )
    def test_bad_requests_map_to_error_responses(self, request_, code):
        async def main():
            service = await make_service(shards=1)
            resp = await service.handle(request_)
            assert resp["ok"] is False
            assert resp["code"] == code
            await service.close()

        run(main())

    def test_id_echoed_on_success_and_failure(self):
        async def main():
            service = await make_service(shards=1)
            ok = await service.handle({"op": "ping", "id": "abc"})
            bad = await service.handle({"op": "warp", "id": 17})
            assert ok["id"] == "abc" and ok["ok"] is True
            assert bad["id"] == 17 and bad["ok"] is False
            await service.close()

        run(main())

    def test_metrics_track_requests_and_errors(self):
        async def main():
            service = await make_service(shards=1)
            client = InProcessClient(service)
            await client.ping()
            await service.handle({"op": "warp"})
            stats = await client.stats()
            # the in-flight stats request records itself only after the
            # snapshot is taken, so it sees the two earlier requests
            assert stats["requests_total"] >= 2
            assert stats["errors_total"] == 1
            assert stats["requests_by_op"]["ping"] == 1
            assert stats["latency_p99_ms"] >= stats["latency_p50_ms"] >= 0
            assert stats["shards"] == 1
            # the stats request itself is inside handle while it runs
            assert stats["queue_depth_peak"] >= 1
            await service.close()

        run(main())


class TestAddBlock:
    def test_zero_copy_dataset_ingest(self, rng, tmp_path):
        from repro.data import write_dataset
        from repro.mapreduce.dataplane import dataset_payload_offset

        async def main():
            x = random_hard_array(rng, 2048)
            path = tmp_path / "d.f64"
            write_dataset(path, x)
            service = await make_service(shards=4)
            client = InProcessClient(service)
            added = await client.add_block(
                "blk",
                {
                    "kind": "mmap",
                    "segment": str(path),
                    "offset": dataset_payload_offset(),
                    "length": int(x.size),
                },
            )
            assert added == 2048
            assert await client.value("blk") == ref_sum(x)
            await service.close()

        run(main())

    def test_missing_file_is_clean_error(self):
        async def main():
            service = await make_service(shards=1)
            resp = await service.handle(
                {
                    "op": "add_block",
                    "stream": "s",
                    "block": {"kind": "mmap", "segment": "/nope/x.f64", "length": 4},
                }
            )
            assert resp["ok"] is False and resp["code"] == "service"
            await service.close()

        run(main())


class TestLongStreamReads:
    def test_reads_past_the_chunk_count_resolve_no_bins(self, monkeypatch):
        """More writes than ``RESOLVE_CHUNKS`` reach one stream, far below
        the bins' value budget: a read merges the shards' bins and rounds
        without resolving any of them."""
        rng = np.random.default_rng(32)
        writes = RESOLVE_CHUNKS + 76
        pool = [
            (rng.random(2048) - 0.5) * 2.0 ** rng.integers(-40, 40, 2048)
            for _ in range(9)
        ]
        resolves = []
        resolve = BinnedPartial.resolve

        def counting(part):
            resolves.append(part.values)
            resolve(part)

        monkeypatch.setattr(BinnedPartial, "resolve", counting)

        async def main():
            service = await make_service(shards=4)
            client = InProcessClient(service, wire="binary")
            for i in range(writes):
                await client.add_array("s", pool[i % 8])
                await client.add_pairs("d", pool[i % 8], pool[i % 9])
            resolves.clear()
            got = await client.value("s"), await client.dot("d")
            await service.close()
            return got

        value, dot = run(main())
        assert resolves == []
        xs = np.concatenate([pool[i % 8] for i in range(writes)])
        ys = np.concatenate([pool[i % 9] for i in range(writes)])
        assert same_float(value, exact_sum(xs))
        assert same_float(dot, reduce_dot(xs, ys))


def test_exact_sum_agrees_with_core(rng):
    # anchor: the service's ground truth really is core.exact_sum
    x = random_hard_array(rng, 1000)
    assert ref_sum(x) == exact_sum(x)


class TestStatelessSumAndStats:
    """The one-shot ``sum`` op and the stats keys load generators read."""

    @pytest.mark.parametrize("dataset", ["random", "sumzero", "cancel"])
    @pytest.mark.parametrize("mode", ["nearest", "up"])
    def test_sum_returns_the_bits_of_exact_sum(self, dataset, mode):
        async def main():
            service = await make_service(shards=2)
            client = InProcessClient(service)
            x = generate(dataset, 4096, delta=500, seed=9)
            resp = await client.sum_values(x, mode=mode)
            want = exact_sum(x, method="sparse", mode=mode)
            assert same_float(resp["value"], want)
            assert resp == {
                "value": resp["value"], "hex": want.hex(), "count": 4096,
                "ok": True, "id": resp["id"],
            }
            await service.close()

        run(main())

    def test_stats_reports_folds_and_queue_depth_peak(self, rng):
        # benchmarks/suite/workload_serve.py reads both keys.
        async def main():
            service = await make_service(shards=2)
            client = InProcessClient(service)
            await client.add_array("s", random_hard_array(rng, 300))
            stats = await client.stats()
            assert stats["batches_folded"] >= 1
            assert stats["queue_depth_peak"] >= 1
            await service.close()

        run(main())
