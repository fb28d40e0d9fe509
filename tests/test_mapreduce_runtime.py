"""Unit tests for the MapReduce engine, executors and block store."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.mapreduce.hdfs import Block, BlockStore
from repro.mapreduce.partitioner import RandomPartitioner, RoundRobinPartitioner
from repro.mapreduce.runtime import (
    MapReduceJob,
    MultiprocessExecutor,
    SerialExecutor,
    SimulatedClusterExecutor,
    run_job,
)


class CountJob(MapReduceJob):
    """Counts elements — a trivially checkable job."""

    def combine(self, block: np.ndarray) -> bytes:
        return struct.pack("<q", block.size)

    def reduce(self, values) -> bytes:
        return struct.pack("<q", sum(struct.unpack("<q", v)[0] for v in values))

    def postprocess(self, values) -> float:
        return float(sum(struct.unpack("<q", v)[0] for v in values))


class PidCountJob(CountJob):
    """Counts elements; each combine also says which process ran it."""

    def combine(self, block: np.ndarray) -> bytes:
        return struct.pack("<qq", block.size, os.getpid())


def _pool(workers: int = 2) -> MultiprocessExecutor:
    """A private pool under the start method CI selects via
    ``REPRO_START_METHOD`` (the platform default when unset)."""
    method = os.environ.get("REPRO_START_METHOD") or None
    return MultiprocessExecutor(workers, start_method=method)


class TestBlockStore:
    def test_block_partitioning(self, rng):
        store = BlockStore(nodes=3, block_items=10)
        blocks = store.put("d", rng.random(25))
        assert [b.data.size for b in blocks] == [10, 10, 5]
        assert [b.node for b in blocks] == [0, 1, 2]

    def test_locality_view(self, rng):
        store = BlockStore(nodes=2, block_items=4)
        store.put("d", rng.random(12))
        on0 = store.blocks_on_node("d", 0)
        on1 = store.blocks_on_node("d", 1)
        assert len(on0) + len(on1) == 3
        assert all(b.node == 0 for b in on0)

    def test_empty_dataset_single_block(self):
        store = BlockStore()
        blocks = store.put("d", [])
        assert len(blocks) == 1 and blocks[0].data.size == 0

    def test_duplicate_name_rejected(self, rng):
        store = BlockStore()
        store.put("d", rng.random(3))
        with pytest.raises(ValueError):
            store.put("d", rng.random(3))

    def test_delete_and_contains(self, rng):
        store = BlockStore()
        store.put("d", rng.random(3))
        assert "d" in store
        store.delete("d")
        assert "d" not in store


class TestPartitioners:
    def test_round_robin(self):
        p = RoundRobinPartitioner()
        assert [p.assign(i, 3) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_random_in_range_and_seeded(self):
        a = [RandomPartitioner(7).assign(i, 5) for i in range(50)]
        b = [RandomPartitioner(7).assign(i, 5) for i in range(50)]
        assert a == b
        assert all(0 <= v < 5 for v in a)


class TestRunJob:
    def blocks(self, rng, n=100, bs=16):
        store = BlockStore(block_items=bs)
        store.put("d", rng.random(n))
        return [b.data for b in store.blocks("d")]

    def test_count_job(self, rng):
        res = run_job(CountJob(), self.blocks(rng, 100), reducers=3)
        assert res.value == 100.0
        assert res.blocks == 7
        assert res.reducers == 3

    def test_phase_timings_present(self, rng):
        res = run_job(CountJob(), self.blocks(rng), reducers=2)
        assert set(res.phase_seconds) == {"combine", "shuffle", "reduce", "postprocess"}
        assert res.total_seconds >= 0

    def test_shuffle_bytes_counted(self, rng):
        res = run_job(CountJob(), self.blocks(rng, 64, 16), reducers=2)
        assert res.shuffle_bytes == 8 * 4  # four 8-byte payloads

    def test_more_reducers_than_blocks(self, rng):
        res = run_job(CountJob(), self.blocks(rng, 32, 16), reducers=50)
        assert res.value == 32.0

    def test_random_partitioner(self, rng):
        res = run_job(
            CountJob(),
            self.blocks(rng, 200, 8),
            reducers=4,
            partitioner=RandomPartitioner(3),
        )
        assert res.value == 200.0


class FlakyCountJob(CountJob):
    """Fails the first ``fail_times`` combine calls, then succeeds."""

    def __init__(self, fail_times: int) -> None:
        self.remaining = fail_times

    def combine(self, block: np.ndarray) -> bytes:
        if self.remaining > 0:
            self.remaining -= 1
            raise OSError("transient worker failure")
        return super().combine(block)


class TestFaultTolerance:
    def test_retry_recovers(self, rng):
        blocks = [rng.random(10) for _ in range(5)]
        job = FlakyCountJob(fail_times=2)
        res = run_job(job, blocks, reducers=2, max_retries=3)
        assert res.value == 50.0

    def test_fail_fast_without_retries(self, rng):
        blocks = [rng.random(10) for _ in range(5)]
        job = FlakyCountJob(fail_times=1)
        with pytest.raises(OSError):
            run_job(job, blocks, reducers=2)

    def test_budget_exhaustion_raises(self, rng):
        blocks = [rng.random(10) for _ in range(2)]
        job = FlakyCountJob(fail_times=100)
        with pytest.raises(OSError):
            run_job(job, blocks, reducers=1, max_retries=2)

    def test_retry_result_is_still_exact(self, rng):
        from repro.mapreduce.sum_job import SparseSuperaccumulatorJob
        from tests.conftest import ref_sum

        x = rng.random(200)

        class FlakySum(SparseSuperaccumulatorJob):
            def __init__(self):
                super().__init__()
                self.first = True

            def combine(self, block):
                if self.first:
                    self.first = False
                    raise OSError("boom")
                return super().combine(block)

        blocks = [x[:100], x[100:]]
        res = run_job(FlakySum(), blocks, reducers=2, max_retries=1)
        assert res.value == ref_sum(x)

    def test_retried_phase_reports_its_own_time(self, rng):
        # A slow combine sets the simulated clock; the reduce that fails
        # once and is retried in-process must not report that makespan.
        import time

        class SlowCombineFlakyReduce(CountJob):
            def __init__(self):
                self.reduce_failed = False

            def combine(self, block):
                time.sleep(0.05)
                return super().combine(block)

            def reduce(self, values):
                if not self.reduce_failed:
                    self.reduce_failed = True
                    raise OSError("transient reducer failure")
                return super().reduce(values)

        blocks = [rng.random(10) for _ in range(4)]
        res = run_job(
            SlowCombineFlakyReduce(), blocks, reducers=2,
            executor=SimulatedClusterExecutor(2), max_retries=1,
        )
        assert res.value == 40.0
        assert res.phase_seconds["combine"] >= 0.1
        assert res.phase_seconds["reduce"] < 0.05


class TestExecutors:
    def test_serial(self):
        blocks = [np.zeros(n) for n in (1, 2, 3)]
        out = SerialExecutor().run_phase(CountJob(), "combine", blocks)
        assert [struct.unpack("<q", v)[0] for v in out] == [1, 2, 3]

    def test_multiprocess_matches_serial(self, rng):
        blocks = [rng.random(50) for _ in range(6)]
        serial = run_job(CountJob(), blocks, reducers=2)
        with _pool() as exe:
            parallel = run_job(CountJob(), blocks, reducers=2, executor=exe)
        assert serial.value == parallel.value

    def test_multiprocess_empty(self):
        with _pool() as exe:
            assert exe.run_phase(CountJob(), "combine", []) == []

    def test_phase_is_one_contiguous_run_per_worker(self, monkeypatch):
        """7 items on 2 workers are 2 tasks, items 0-3 and 4-6: each run
        executes in one process, and results come back per item, in
        order."""
        from multiprocessing.pool import Pool

        runs = []
        pool_map = Pool.map

        def spy(pool, func, iterable, chunksize=None):
            runs.append((len(iterable), chunksize))
            return pool_map(pool, func, iterable, chunksize)

        monkeypatch.setattr(Pool, "map", spy)
        blocks = [np.zeros(n) for n in range(1, 8)]
        with _pool() as exe:
            out = exe.run_phase(PidCountJob(), "combine", blocks)
        assert runs == [(7, 4)]
        sizes, pids = zip(*(struct.unpack("<qq", v) for v in out))
        assert sizes == tuple(range(1, 8))
        assert len(set(pids[:4])) == 1 and len(set(pids[4:])) == 1

    def test_more_workers_than_items(self, rng):
        blocks = [rng.random(10) for _ in range(3)]
        with _pool(4) as exe:
            res = run_job(CountJob(), blocks, reducers=2, executor=exe)
        assert res.value == 30.0 and res.blocks == 3

    def test_simulated_cluster_makespan_shrinks(self, rng):
        blocks = [rng.random(5000) for _ in range(8)]
        times = []
        for w in (1, 4):
            exe = SimulatedClusterExecutor(w)
            res = run_job(CountJob(), blocks, reducers=1, executor=exe)
            times.append(res.phase_seconds["combine"])
        # 4 simulated workers must be meaningfully faster than 1
        assert times[1] <= times[0]

    def test_simulated_makespan_lpt(self):
        exe = SimulatedClusterExecutor(2)
        assert abs(exe._makespan([4.0, 3.0, 2.0, 1.0]) - 5.0) < 1e-12
        assert exe._makespan([]) == 0.0
