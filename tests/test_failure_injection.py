"""Failure-injection tests: corrupted data, model misuse, bad states.

A production library must fail loudly and precisely, not corrupt a sum
silently. These tests feed each subsystem malformed inputs and verify
the advertised exception (never a wrong float) comes out.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

import repro.mapreduce.driver as mr_driver
from repro.core.sparse import SparseSuperaccumulator
from repro.core.superaccumulator import DenseSuperaccumulator
from repro.errors import (
    ModelViolationError,
    NonFiniteInputError,
    RepresentationError,
)
from repro.kernels import get_kernel, kernel_names
from repro.mapreduce import (
    parallel_sum,
    shared_process_executor,
    shutdown_shared_executors,
)
from tests.conftest import random_hard_array, ref_sum

#: Non-finite values every exact entry point must reject.
NON_FINITE = [math.nan, math.inf, -math.inf]

#: Block size of the ``parallel_sum`` tests: 4 blocks over 4096 values.
BLOCK = 1 << 10


class TestCorruptedSerialization:
    def test_truncated_sparse_payload(self, rng):
        from tests.conftest import random_hard_array

        good = SparseSuperaccumulator.from_floats(random_hard_array(rng, 50)).to_bytes()
        for cut in (0, 3, len(good) // 2, len(good) - 1):
            with pytest.raises((ValueError, struct_error_types())):
                SparseSuperaccumulator.from_bytes(good[:cut])

    def test_bitflipped_magic(self, rng):
        good = SparseSuperaccumulator.from_float(1.5).to_bytes()
        bad = b"X" + good[1:]
        with pytest.raises(ValueError):
            SparseSuperaccumulator.from_bytes(bad)

    def test_digit_corruption_detected_or_value_changed(self, rng):
        # flipping digit bytes either trips validation or changes the
        # value — it must never silently produce the original sum
        acc = SparseSuperaccumulator.from_float(math.pi)
        payload = bytearray(acc.to_bytes())
        payload[-1] ^= 0xFF
        try:
            back = SparseSuperaccumulator.from_bytes(bytes(payload))
        except RepresentationError:
            return
        assert back.to_fraction() != acc.to_fraction()

    def test_dense_wrong_magic(self):
        with pytest.raises(ValueError):
            DenseSuperaccumulator.from_bytes(b"NOPE" + b"\0" * 40)


def struct_error_types():
    import struct

    return struct.error


class TestInvariantEnforcement:
    def test_unsorted_indices_rejected(self):
        with pytest.raises(RepresentationError):
            SparseSuperaccumulator(
                indices=np.array([5, 5], dtype=np.int64),
                digits=np.array([1, 1], dtype=np.int64),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(RepresentationError):
            SparseSuperaccumulator(
                indices=np.array([1, 2], dtype=np.int64),
                digits=np.array([1], dtype=np.int64),
            )

    def test_dense_out_of_range_position(self):
        acc = DenseSuperaccumulator()
        with pytest.raises(RepresentationError):
            # beyond any binary64 digit position: direct misuse
            acc.limbs[0] = 0  # fine
            from repro.core.digits import split_float

            # construct an impossible position by adding to a tiny acc
            tiny = DenseSuperaccumulator(base_index=0, nlimbs=1)
            tiny.add_float(1e300)


class TestNonFinitePropagation:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_every_entrypoint_rejects(self, bad):
        from repro.baselines import hybrid_sum, ifastsum
        from repro.core import exact_sum
        from repro.mapreduce import parallel_sum
        from repro import reduce

        data = [1.0, bad, 2.0]
        for fn in (exact_sum, ifastsum, hybrid_sum, reduce.norm2):
            with pytest.raises(NonFiniteInputError):
                fn(data)
        with pytest.raises(NonFiniteInputError):
            parallel_sum(data)
        with pytest.raises(NonFiniteInputError):
            reduce.mean(data)

    def test_error_message_names_position(self):
        from repro.core import exact_sum

        with pytest.raises(NonFiniteInputError, match="index 2"):
            exact_sum([0.0, 1.0, math.nan])

    @pytest.mark.parametrize("executor", ["process", "simulated", "serial"])
    @pytest.mark.parametrize("where", [0, BLOCK - 1, 2 * BLOCK + 5, 4 * BLOCK - 1])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_parallel_sum_names_input_index(self, pool, rng, executor, where, bad):
        """A fold rejects the value inside its block; the error names
        the value's index in the whole input, not in the block."""
        x = random_hard_array(rng, 4 * BLOCK)
        x[where] = bad
        workers = 1 if executor == "serial" else 2
        with pytest.raises(NonFiniteInputError, match=f"at index {where}:"):
            parallel_sum(x, workers=workers, executor=executor, block_items=BLOCK)

    @pytest.mark.parametrize("executor", ["process", "simulated", "serial"])
    def test_parallel_sum_names_the_first_of_several(self, pool, rng, executor):
        # The two bad values sit in different workers' runs of blocks.
        x = random_hard_array(rng, 4 * BLOCK)
        x[[BLOCK + 3, 3 * BLOCK + 7]] = [math.inf, math.nan]
        workers = 1 if executor == "serial" else 2
        with pytest.raises(NonFiniteInputError, match=f"at index {BLOCK + 3}:"):
            parallel_sum(x, workers=workers, executor=executor, block_items=BLOCK)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_process_pool_recovers_after_rejection(self, pool, rng, bad):
        """A rejected input costs the pool its segment, not its health:
        the segment is unlinked, no other is left behind, and the next
        job on the same pool sums exactly."""
        x = random_hard_array(rng, 4 * BLOCK)
        assert _pool_sum(x) == ref_sum(x)
        (segment,) = pool._plane._segments
        before = _own_segments()
        assert segment in before
        y = x.copy()
        y[3 * BLOCK] = bad
        with pytest.raises(NonFiniteInputError, match=f"at index {3 * BLOCK}:"):
            _pool_sum(y)
        assert not pool._plane._segments
        assert _own_segments() == before - {segment}
        assert _pool_sum(x) == ref_sum(x)
        assert _own_segments() - before == set(pool._plane._segments)


class TestFoldPrecondition:
    """``parallel_sum`` leaves finiteness to the folds, so every
    registered kernel's ``fold`` must reject a non-finite value wherever
    it sits in the block."""

    @pytest.mark.parametrize("kernel", sorted(kernel_names()))
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_fold_rejects_non_finite(self, rng, kernel, where, bad):
        block = random_hard_array(rng, 3001)
        block[{"first": 0, "middle": 1500, "last": 3000}[where]] = bad
        with pytest.raises(NonFiniteInputError):
            get_kernel(kernel).fold(block)


def _start_method():
    """The pool start method CI selects (``fork``/``spawn``), if any."""
    return os.environ.get("REPRO_START_METHOD") or None


@pytest.fixture
def pool(monkeypatch):
    """The shared 2-worker pool ``parallel_sum`` runs on, built with
    ``REPRO_START_METHOD``; shut down after the test."""
    method = _start_method()
    monkeypatch.setattr(
        mr_driver,
        "shared_process_executor",
        lambda workers: shared_process_executor(workers, start_method=method),
    )
    yield shared_process_executor(2, start_method=method)
    shutdown_shared_executors()


def _pool_sum(x):
    return parallel_sum(x, workers=2, executor="process", block_items=BLOCK)


def _own_segments():
    """Names of this process's shared-memory segments in /dev/shm."""
    prefix = f"repro-{os.getpid():x}-"
    return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}


class TestModelMisuse:
    def test_extmem_double_create(self):
        from repro.extmem import BlockDevice

        dev = BlockDevice(block_size=4, memory=16)
        dev.create("f")
        with pytest.raises(ValueError):
            dev.create("f")

    def test_extmem_allocation_leak_safe(self):
        from repro.extmem import BlockDevice

        dev = BlockDevice(block_size=4, memory=16)
        with pytest.raises(RuntimeError):
            with dev.allocate(10):
                raise RuntimeError("boom")
        # allocation released despite the exception
        with dev.allocate(16):
            pass

    def test_pram_erew_violation_in_primitive(self):
        from repro.pram import PRAM

        m = PRAM(check_erew=True)
        with pytest.raises(ModelViolationError):
            m.access(writes=np.zeros(4, dtype=np.int64))

    def test_mapreduce_corrupt_shuffle_payload(self, rng):
        from repro.mapreduce import NoCombinerSumJob

        job = NoCombinerSumJob()
        with pytest.raises(ValueError):
            job.reduce([b"JUNKxxxxxxxx"])

    def test_cole_cover_bound_zero_trips(self, rng):
        from repro.pram import PRAM
        from repro.pram.cole import cole_merge_sort

        with pytest.raises(ModelViolationError):
            cole_merge_sort(PRAM(), rng.random(64), cover_bound=0)


class TestWriterDiscipline:
    def test_oversized_direct_block(self):
        from repro.extmem import BlockDevice

        dev = BlockDevice(block_size=4, memory=16)
        dev.create("f")
        with pytest.raises(ValueError):
            dev.append_block("f", np.arange(9))

    def test_hdfs_duplicate_dataset(self, rng):
        from repro.mapreduce import BlockStore

        store = BlockStore()
        store.put("d", rng.random(4))
        with pytest.raises(ValueError):
            store.put("d", rng.random(4))
