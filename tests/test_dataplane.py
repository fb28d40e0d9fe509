"""Tests for the zero-copy shared-memory data plane.

Covers the descriptor machinery (segments, refs, in-process and
in-worker resolution), the pool's per-worker job install with both
fork and spawn start methods, the persistent pool, the shared
BlockStore, the mmap descriptor path, and — non-negotiably — that every
path produces bit-identical results to the serial superaccumulator.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.mapreduce.driver as mr_driver
from repro.core import exact_sum
from repro.data.io import dataset_block_refs, map_dataset, write_dataset
from repro.extmem import MappedExtArray
from repro.mapreduce.dataplane import detach_all
from repro.util.bits import same_float
from repro.mapreduce import (
    BlockRef,
    BlockStore,
    MultiprocessExecutor,
    SerialExecutor,
    ShmDataPlane,
    SimulatedClusterExecutor,
    parallel_sum,
    pick_start_method,
    resolve_block,
    run_job,
    shared_process_executor,
    shutdown_shared_executors,
)
from repro.mapreduce.sum_job import (
    SmallSuperaccumulatorJob,
    SparseSuperaccumulatorJob,
)
from tests.conftest import random_hard_array, ref_sum


@pytest.fixture(autouse=True)
def _clean_shared_pools():
    yield
    shutdown_shared_executors()


def _start_method():
    """The pool start method CI selects (``fork``/``spawn``), if any."""
    return os.environ.get("REPRO_START_METHOD") or None


@pytest.fixture
def start_method(monkeypatch):
    """Build ``parallel_sum``'s pools with ``REPRO_START_METHOD``, as
    tests/test_kernel_matrix.py does for its executor."""
    method = _start_method()
    monkeypatch.setattr(
        mr_driver,
        "shared_process_executor",
        lambda workers: shared_process_executor(workers, start_method=method),
    )
    return method


def _pool_sum(x, **kwargs):
    return parallel_sum(x, workers=2, executor="process", block_items=1 << 12, **kwargs)


def _pool_segments(method):
    """Names of the segments the shared pool's input plane owns."""
    return list(shared_process_executor(2, start_method=method)._plane._segments)


def _own_segments():
    """Names of this process's segments in /dev/shm."""
    prefix = f"repro-{os.getpid():x}-"
    return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}


def _deleted_mappings() -> int:
    """Unlinked repro segments this process still has mapped."""
    with open("/proc/self/maps") as fh:
        return sum("/dev/shm/repro-" in line and "(deleted)" in line for line in fh)


def _unlinked(name: str) -> bool:
    try:
        shared_memory.SharedMemory(name=name, create=False).close()
    except FileNotFoundError:
        return True
    return False


#: Outside random_hard_array's exponent range, so only planted.
POISON = 3.0 * 2.0**-300


class PoisonedJob(SparseSuperaccumulatorJob):
    """Fails the combine of any block holding :data:`POISON`."""

    def combine(self, block):
        if np.any(block == POISON):
            raise ValueError("poisoned block")
        return super().combine(block)


class TestBlockRef:
    def test_descriptor_is_tiny(self):
        ref = BlockRef(kind="shm", segment="repro-abc", offset=0, length=1 << 24)
        assert len(pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL)) < 200
        assert ref.nbytes == (1 << 24) * 8

    def test_unknown_kind_rejected(self):
        ref = BlockRef(kind="carrier-pigeon", segment="x", offset=0, length=1)
        with pytest.raises(ValueError):
            resolve_block(ref)

    def test_ndarray_passthrough(self, rng):
        x = rng.random(10)
        assert resolve_block(x) is x


class TestShmDataPlane:
    def test_share_blocks_roundtrip(self, rng):
        blocks = [rng.random(100), rng.random(37), rng.random(1)]
        with ShmDataPlane() as plane:
            refs = plane.share_blocks(blocks)
            assert [r.length for r in refs] == [100, 37, 1]
            for ref, block in zip(refs, blocks):
                np.testing.assert_array_equal(resolve_block(ref), block)

    def test_views_are_readonly(self, rng):
        with ShmDataPlane() as plane:
            (ref,) = plane.share_blocks([rng.random(8)])
            view = resolve_block(ref)
            with pytest.raises(ValueError):
                view[0] = 1.0

    def test_share_array_then_tile(self, rng):
        x = rng.random(250)
        with ShmDataPlane() as plane:
            name, _ = plane.share_array(x)
            refs = plane.refs_for_array(name, x.size, 100)
            assert [r.length for r in refs] == [100, 100, 50]
            got = np.concatenate([resolve_block(r) for r in refs])
            np.testing.assert_array_equal(got, x)
            assert plane.placed_bytes == x.nbytes

    def test_empty_array(self):
        with ShmDataPlane() as plane:
            name, _ = plane.share_array(np.empty(0))
            refs = plane.refs_for_array(name, 0, 4)
            assert len(refs) == 1 and refs[0].length == 0
            assert resolve_block(refs[0]).size == 0

    def test_close_is_idempotent(self, rng):
        plane = ShmDataPlane()
        plane.share_blocks([rng.random(4)])
        plane.close()
        plane.close()


class TestSharedBlockStore:
    def test_blocks_view_shared_segment(self, rng):
        x = rng.random(25)
        with BlockStore(nodes=3, block_items=10, shared=True) as store:
            blocks = store.put("d", x)
            assert [b.data.size for b in blocks] == [10, 10, 5]
            assert all(b.ref is not None for b in blocks)
            np.testing.assert_array_equal(
                np.concatenate([b.data for b in blocks]), x
            )
            refs = store.block_refs("d")
            assert [r.length for r in refs] == [10, 10, 5]

    def test_refs_require_shared_store(self, rng):
        store = BlockStore(block_items=10)
        store.put("d", rng.random(20))
        with pytest.raises(ValueError):
            store.block_refs("d")

    def test_delete_unlinks_segment(self, rng):
        store = BlockStore(block_items=10, shared=True)
        store.put("d", rng.random(20))
        seg = store.block_refs("d")[0].segment
        store.delete("d")
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=seg, create=False)

    def test_empty_dataset(self):
        with BlockStore(shared=True) as store:
            blocks = store.put("d", [])
            assert len(blocks) == 1 and blocks[0].data.size == 0


class TestRunJobOverRefs:
    """Exactness and accounting when combine consumes descriptors."""

    def refs(self, store, x):
        store.put("d", x)
        return store.block_refs("d")

    @pytest.mark.parametrize("job_cls", [SparseSuperaccumulatorJob, SmallSuperaccumulatorJob])
    def test_serial_executor_resolves_refs(self, rng, job_cls):
        x = random_hard_array(rng, 1200)
        with BlockStore(block_items=100, shared=True) as store:
            res = run_job(job_cls(), self.refs(store, x), reducers=3)
        assert res.value == ref_sum(x)
        assert res.zero_copy and res.executor_kind == "serial"
        assert res.input_items == 1200 and res.input_bytes == x.nbytes
        assert res.dispatch_bytes == 0  # no process boundary crossed

    def test_process_executor_zero_copy(self, rng):
        x = random_hard_array(rng, 3000)
        with BlockStore(block_items=256, shared=True) as store:
            refs = self.refs(store, x)
            with MultiprocessExecutor(2) as exe:
                res = run_job(SparseSuperaccumulatorJob(), refs, reducers=2, executor=exe)
        assert res.value == ref_sum(x)
        assert res.executor_kind == "process" and res.zero_copy
        # dispatch is descriptors, not payloads: orders of magnitude
        # smaller than the input, and independent of items per block
        assert res.dispatch_bytes < 300 * len(refs)
        assert res.copies_avoided_bytes == x.nbytes

    def test_ndarray_items_on_pool_count_payload_bytes(self, rng):
        x = random_hard_array(rng, 2000)
        with BlockStore(block_items=256) as store:
            store.put("d", x)
            blocks = [b.data for b in store.blocks("d")]
            with MultiprocessExecutor(2) as exe:
                res = run_job(SparseSuperaccumulatorJob(), blocks, reducers=2, executor=exe)
        assert res.value == ref_sum(x)
        assert not res.zero_copy
        assert res.dispatch_bytes >= x.nbytes  # payloads crossed per task
        assert res.copies_avoided_bytes == 0

    def test_retry_fallback_resolves_refs_in_process(self, rng):
        x = random_hard_array(rng, 500)

        class FlakySparse(SparseSuperaccumulatorJob):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def combine(self, block):
                self.calls += 1
                if self.calls == 1:
                    raise OSError("transient")
                return super().combine(block)

        with BlockStore(block_items=100, shared=True) as store:
            res = run_job(
                FlakySparse(), self.refs(store, x), reducers=2, max_retries=1
            )
        assert res.value == ref_sum(x)

    def test_mixed_refs_and_arrays(self, rng):
        # Both in-process executors resolve descriptors before combining.
        x = random_hard_array(rng, 600)
        with ShmDataPlane() as plane:
            refs = plane.share_blocks([x[:200], x[200:400]])
            items = list(refs) + [x[400:]]
            for exe in (SerialExecutor(), SimulatedClusterExecutor(2)):
                res = run_job(SparseSuperaccumulatorJob(), items, reducers=2, executor=exe)
                assert res.value == ref_sum(x)
                assert res.zero_copy and res.input_items == 600
                assert res.executor_kind == exe.kind


class TestInstalledJobProtocol:
    def test_install_same_job_reuses_pool(self):
        with MultiprocessExecutor(2) as exe:
            exe.install_job(SparseSuperaccumulatorJob())
            pool = exe._pool
            exe.install_job(SparseSuperaccumulatorJob())
            assert exe._pool is pool  # identical payload: no rebuild
            exe.install_job(SmallSuperaccumulatorJob())
            assert exe._pool is not pool  # different job: rebuilt

    def test_closed_executor_rejects_work(self):
        exe = MultiprocessExecutor(2)
        exe.close()
        with pytest.raises(RuntimeError):
            exe.run_phase(SparseSuperaccumulatorJob(), "combine", [np.zeros(1)])
        with pytest.raises(RuntimeError):
            exe.install_job(SparseSuperaccumulatorJob())


class TestStartMethods:
    def test_pick_start_method_default(self):
        assert pick_start_method() in ("fork", "spawn")

    def test_pick_start_method_rejects_unknown(self):
        with pytest.raises(ValueError):
            pick_start_method("telepathy")

    def test_spawn_path_exact(self, rng):
        # The spawn-only-platform path (macOS/Windows): viable because
        # the initializer re-installs the job in fresh interpreters.
        x = random_hard_array(rng, 1500)
        with BlockStore(block_items=256, shared=True) as store:
            store.put("d", x)
            refs = store.block_refs("d")
            with MultiprocessExecutor(2, start_method="spawn") as exe:
                assert exe.start_method == "spawn"
                res = run_job(SparseSuperaccumulatorJob(), refs, reducers=2, executor=exe)
        assert res.value == ref_sum(x)


class TestPersistentExecutor:
    def test_same_key_same_executor(self):
        a = shared_process_executor(2)
        b = shared_process_executor(2)
        assert a is b

    def test_replaced_after_shutdown(self):
        a = shared_process_executor(2)
        shutdown_shared_executors()
        b = shared_process_executor(2)
        assert a is not b

    def test_driver_reuses_pool_across_calls(self, rng):
        x = random_hard_array(rng, 2000)
        expect = ref_sum(x)
        assert parallel_sum(x, workers=2, executor="process", block_items=256) == expect
        exe = shared_process_executor(2)
        pool = exe._pool
        assert parallel_sum(x, workers=2, executor="process", block_items=256) == expect
        assert shared_process_executor(2)._pool is pool


class TestPoolSegmentReuse:
    """The pool's one input segment: refilled by each job, replaced only
    when outgrown, never reused after a failed job."""

    def test_sizes_grow_shrink_and_empty(self, rng, start_method):
        names = []
        for n in (1 << 16, (1 << 12) + 3, 0, 1 << 17):
            x = random_hard_array(rng, n)
            assert same_float(_pool_sum(x), exact_sum(x)), n
            names.append(_pool_segments(start_method))
        # shrinking and empty inputs refill the first segment in place
        assert len(names[0]) == 1 and names[0] == names[1] == names[2]
        # a larger input replaces it under a new name
        assert len(names[3]) == 1 and names[3] != names[0]
        assert _unlinked(names[0][0])

    def test_two_threads_share_one_pool(self, rng, start_method):
        sizes = (((1 << 15), (1 << 13) + 1), ((1 << 14) + 7, 1 << 16))
        inputs = [[random_hard_array(rng, n) for n in s] * 2 for s in sizes]
        got = [[], []]
        errors = []

        def caller(i):
            try:
                for x in inputs[i]:
                    got[i].append(_pool_sum(x))
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for i in range(2):
            assert len(got[i]) == len(inputs[i])
            for value, x in zip(got[i], inputs[i]):
                assert same_float(value, exact_sum(x))

    def test_failed_job_segment_is_not_reused(self, rng, start_method):
        x = random_hard_array(rng, 1 << 14)
        assert same_float(_pool_sum(x), exact_sum(x))
        (used,) = _pool_segments(start_method)
        poisoned = x.copy()
        poisoned[3 << 12] = POISON  # first item of block 3
        with pytest.raises(ValueError, match="poisoned"):
            _pool_sum(poisoned, job=PoisonedJob())
        assert _pool_segments(start_method) == []
        assert _unlinked(used)
        y = random_hard_array(rng, 1 << 13)
        assert same_float(_pool_sum(y), exact_sum(y))
        assert used not in _pool_segments(start_method)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
class TestSegmentLifecycle:
    def test_shutdown_unlinks_pool_segment(self, rng, start_method):
        before = _own_segments()
        x = random_hard_array(rng, 1 << 13)
        assert same_float(_pool_sum(x), exact_sum(x))
        assert len(_own_segments() - before) == 1  # kept between jobs
        shutdown_shared_executors()
        assert _own_segments() == before

    def test_private_pool_leaves_no_segment(self, rng, start_method):
        before = _own_segments()
        x = random_hard_array(rng, 1 << 13)
        with MultiprocessExecutor(2, start_method=start_method) as exe:
            with exe.borrow_plane() as plane:
                store = BlockStore(block_items=1 << 10)
                store.put("d", x, plane=plane)
                res = run_job(
                    SparseSuperaccumulatorJob(), store.block_refs("d"),
                    reducers=2, executor=exe,
                )
            assert len(_own_segments() - before) == 1
        assert _own_segments() == before
        assert same_float(res.value, exact_sum(x))

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc"
    )
    def test_closed_segments_stay_unmapped(self, rng, start_method):
        # Block views once came from the attach cache, which kept up to
        # four unlinked segments mapped in the placing process.
        detach_all()
        baseline = _deleted_mappings()
        for shift in range(10, 16):
            with BlockStore(block_items=1 << 9, shared=True) as store:
                store.put("d", rng.random(1 << shift))
            x = random_hard_array(rng, 1 << shift)  # outgrows the pool's segment
            assert same_float(_pool_sum(x), exact_sum(x))
        assert _deleted_mappings() <= baseline


class TestMmapDescriptors:
    def test_dataset_refs_roundtrip(self, tmp_path, rng):
        x = random_hard_array(rng, 700)
        path = tmp_path / "d.f64"
        write_dataset(path, x)
        np.testing.assert_array_equal(map_dataset(path), x)
        refs = dataset_block_refs(path, block_items=128)
        assert all(r.kind == "mmap" for r in refs)
        got = np.concatenate([resolve_block(r) for r in refs])
        np.testing.assert_array_equal(got, x)

    def test_refs_feed_combine_across_processes(self, tmp_path, rng):
        x = random_hard_array(rng, 2000)
        path = tmp_path / "d.f64"
        write_dataset(path, x)
        refs = dataset_block_refs(path, block_items=256)
        with MultiprocessExecutor(2) as exe:
            res = run_job(SparseSuperaccumulatorJob(), refs, reducers=2, executor=exe)
        assert res.value == ref_sum(x)
        assert res.zero_copy and res.dispatch_bytes < 8 * x.size

    def test_mapped_ext_array_scan_matches(self, tmp_path, rng):
        x = random_hard_array(rng, 500)
        path = tmp_path / "d.f64"
        write_dataset(path, x)
        arr = MappedExtArray(path, block_items=64)
        assert len(arr) == 500 and arr.num_blocks == 8
        np.testing.assert_array_equal(np.concatenate(list(arr.scan())), x)
        back = np.concatenate(list(arr.scan(reverse=True))[::-1])
        np.testing.assert_array_equal(back, x)
        np.testing.assert_array_equal(arr.to_numpy(), x)

    def test_mapped_ext_array_refs(self, tmp_path, rng):
        x = random_hard_array(rng, 300)
        path = tmp_path / "d.f64"
        write_dataset(path, x)
        refs = MappedExtArray(path, block_items=100).block_refs()
        res = run_job(SparseSuperaccumulatorJob(), refs, reducers=2)
        assert res.value == ref_sum(x)

    def test_empty_dataset_refs(self, tmp_path):
        path = tmp_path / "e.f64"
        write_dataset(path, [])
        refs = dataset_block_refs(path)
        assert len(refs) == 1 and refs[0].length == 0


class TestJobResultAccounting:
    def test_throughput_fields(self, rng):
        x = random_hard_array(rng, 5000)
        res = parallel_sum(x, workers=4, executor="simulated", report=True,
                           block_items=512)
        assert res.input_items == 5000
        assert res.input_bytes == x.nbytes
        assert res.phase_throughput("combine") > 0
        assert res.combine_bytes_per_second > 0
        assert res.phase_throughput("no-such-phase") == 0.0

    def test_shuffle_scales_with_p_not_n(self, rng):
        # the acceptance criterion: dispatch + shuffle volume must be
        # independent of n once the combiner and the data plane are on
        small = random_hard_array(rng, 1 << 10)
        big = random_hard_array(rng, 1 << 14)
        results = {}
        for name, x in (("small", small), ("big", big)):
            with BlockStore(block_items=1 << 8, shared=True) as store:
                store.put("d", x)
                refs = store.block_refs("d")
                with MultiprocessExecutor(2) as exe:
                    results[name] = run_job(
                        SparseSuperaccumulatorJob(), refs, reducers=2, executor=exe
                    )
        per_block_small = results["small"].dispatch_bytes / results["small"].blocks
        per_block_big = results["big"].dispatch_bytes / results["big"].blocks
        # dispatch cost per task is a descriptor: flat in block payload
        assert abs(per_block_big - per_block_small) < 50
