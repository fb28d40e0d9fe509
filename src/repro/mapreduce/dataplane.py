"""Zero-copy shared-memory data plane for the MapReduce engine.

The original executor boundary pickled ``(fn, ndarray)`` pairs per map
task, so shuffle-*equivalent* serialization cost scaled with ``n``
input items instead of the ``p`` superaccumulators the combine step is
supposed to leave — exactly the cost §6.2's combiner exists to remove.
This module replaces the payloads crossing that boundary with
lightweight **block descriptors**:

* the driver places the input array in a shared-memory *segment* once
  (``multiprocessing.shared_memory``) or points at an on-disk dataset
  file (``mmap``). A standalone :class:`ShmDataPlane` creates a segment
  per placement and unlinks it on close; the plane a
  :class:`~repro.mapreduce.runtime.MultiprocessExecutor` owns lives as
  long as its worker pool, so each ``parallel_sum`` call costs one copy
  into pages that are already mapped (:meth:`ShmDataPlane.refill`);
* each map task receives a :class:`BlockRef` — ``(kind, segment,
  offset, length)``, ~100 bytes pickled regardless of block size;
* the worker attaches the segment on first use (cached per process)
  and builds an ``np.ndarray`` view at ``offset`` with **no copy**. A
  refilled segment keeps its name, so that attachment stays valid.

The job object itself is installed once per worker by the pool
initializer (:func:`worker_initializer`) instead of being pickled into
every task, so per-task dispatch volume is a descriptor plus a phase
name — independent of both ``n`` and the job's configuration size.
"""

from __future__ import annotations

import mmap
import os
import pickle
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "BlockRef",
    "ShmDataPlane",
    "resolve_block",
    "detach_all",
    "worker_initializer",
    "run_phase_task",
    "dataset_payload_offset",
]

#: Byte offset of the raw float64 payload inside a ``.f64`` dataset
#: file (see :mod:`repro.data.io`): 4-byte magic + 8-byte count.
_DATASET_HEADER_BYTES = 12


def dataset_payload_offset() -> int:
    """Offset of the first float64 in a ``.f64`` dataset file."""
    return _DATASET_HEADER_BYTES


@dataclass(frozen=True)
class BlockRef:
    """A zero-copy block descriptor: where a block lives, not its bytes.

    Attributes:
        kind: ``"shm"`` (POSIX shared-memory segment) or ``"mmap"``
            (memory-mapped file on disk).
        segment: shared-memory segment name, or the file path for
            ``kind="mmap"``.
        offset: byte offset of the block inside the segment/file.
        length: number of items in the block.
        dtype: NumPy dtype string of the items (little-endian).
    """

    kind: str
    segment: str
    offset: int
    length: int
    dtype: str = "<f8"

    @property
    def nbytes(self) -> int:
        """Payload size the descriptor stands in for."""
        return self.length * np.dtype(self.dtype).itemsize

    def describe(self) -> str:
        return f"{self.kind}:{self.segment}[{self.offset}:+{self.length}]"


# ----------------------------------------------------------------------
# per-process attachment caches (parent and workers alike)
# ----------------------------------------------------------------------

_SHM_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_MMAP_ATTACHED: Dict[str, Tuple[object, mmap.mmap]] = {}

#: Segments kept attached per process. One job uses one segment, so a
#: handful covers interleaved work; old attachments must be released or
#: a persistent pool would pin every past call's (unlinked) segment.
_MAX_ATTACHED = 4


def _evict_attachments() -> None:
    while len(_SHM_ATTACHED) > _MAX_ATTACHED:
        name, seg = next(iter(_SHM_ATTACHED.items()))
        del _SHM_ATTACHED[name]
        try:
            seg.close()
        except BufferError:  # a view is still live; re-pin it
            _SHM_ATTACHED[name] = seg
            return
    while len(_MMAP_ATTACHED) > _MAX_ATTACHED:
        path, (fh, mapped) = next(iter(_MMAP_ATTACHED.items()))
        del _MMAP_ATTACHED[path]
        try:
            mapped.close()
            fh.close()
        except BufferError:
            _MMAP_ATTACHED[path] = (fh, mapped)
            return


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    seg = _SHM_ATTACHED.get(name)
    if seg is None:
        # Attaching registers the name with the resource tracker, but
        # pool workers share the parent's tracker and its cache is a
        # set, so this is a no-op there; ownership (the one unlink)
        # stays with the creating ShmDataPlane.
        seg = shared_memory.SharedMemory(name=name, create=False)
        _SHM_ATTACHED[name] = seg
        _evict_attachments()
    return seg


def _attach_mmap(path: str) -> mmap.mmap:
    entry = _MMAP_ATTACHED.get(path)
    if entry is None:
        fh = open(path, "rb")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        _MMAP_ATTACHED[path] = (fh, mapped)
        _evict_attachments()
        return mapped
    return entry[1]


def resolve_block(item: Union[BlockRef, np.ndarray]) -> np.ndarray:
    """Materialize a task item as an ndarray **view** (no copy).

    Plain ndarrays pass through untouched, so every executor accepts a
    mix of legacy blocks and descriptors.
    """
    if not isinstance(item, BlockRef):
        return item
    if item.kind == "shm":
        buf = _attach_shm(item.segment).buf
    elif item.kind == "mmap":
        buf = _attach_mmap(item.segment)
    else:
        raise ValueError(f"unknown BlockRef kind {item.kind!r}")
    return _readonly_view(buf, item)


def _readonly_view(buf, ref: BlockRef) -> np.ndarray:
    view = np.frombuffer(buf, dtype=ref.dtype, count=ref.length, offset=ref.offset)
    view.flags.writeable = False
    return view


def detach_all() -> None:
    """Drop this process's cached attachments (views become invalid)."""
    for seg in _SHM_ATTACHED.values():
        try:
            seg.close()
        except BufferError:  # a live view still points into the buffer
            pass
    _SHM_ATTACHED.clear()
    for fh, mapped in _MMAP_ATTACHED.values():
        try:
            mapped.close()
        except BufferError:
            pass
        fh.close()
    _MMAP_ATTACHED.clear()


# ----------------------------------------------------------------------
# the driver-side plane: segment placement and ownership
# ----------------------------------------------------------------------


class _Segment(shared_memory.SharedMemory):
    """A segment a plane created.

    :meth:`ShmDataPlane.view` hands out views of its own mapping, so it
    may be closed while one is alive. The mapping then lives until the
    last view dies instead of the close raising ``BufferError``.
    """

    def close(self) -> None:
        try:
            super().close()
        except BufferError:
            pass


class ShmDataPlane:
    """Owns shared-memory segments holding input blocks.

    The placing process copies data into a segment **once**; everything
    downstream — parent-side serial executors and pool workers alike —
    reads through zero-copy views. Use as a context manager (or call
    :meth:`close`) so segments are unlinked deterministically::

        with ShmDataPlane() as plane:
            refs = plane.share_blocks(blocks)
            result = run_job(job, refs, ...)

    A segment is immutable while a job reads it. Only the plane that
    owns it rewrites it, between jobs, through :meth:`refill` — how a
    :class:`~repro.mapreduce.runtime.MultiprocessExecutor` keeps one
    segment for the life of its pool.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, _Segment] = {}
        self.placed_bytes = 0

    def _create(self, nbytes: int) -> _Segment:
        name = f"repro-{os.getpid():x}-{secrets.token_hex(4)}"
        # zero-size segments are invalid
        seg = _Segment(name=name, create=True, size=max(nbytes, 1))
        self._segments[name] = seg
        return seg

    def _fill(
        self, seg: _Segment, arr: np.ndarray
    ) -> Tuple[str, shared_memory.SharedMemory]:
        if arr.nbytes:
            np.frombuffer(seg.buf, dtype=np.float64, count=arr.size)[:] = arr
        self.placed_bytes += int(arr.nbytes)
        return seg.name, seg

    def share_array(self, arr: np.ndarray) -> Tuple[str, shared_memory.SharedMemory]:
        """Place one array in a fresh segment; returns ``(name, segment)``."""
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        return self._fill(self._create(arr.nbytes), arr)

    def refill(self, arr: np.ndarray) -> Tuple[str, shared_memory.SharedMemory]:
        """Place one array in this plane's one segment, reusing it.

        The copy lands in pages earlier calls already mapped and
        faulted in, under the name workers already have attached. Only
        an array larger than the segment replaces it: the old segment
        is unlinked and the new one gets a fresh name. The caller
        guarantees that no job still reads the segment.
        """
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        segs = list(self._segments.values())
        if len(segs) != 1 or segs[0].size < arr.nbytes:
            self.close()
            segs = [self._create(arr.nbytes)]
        return self._fill(segs[0], arr)

    def share_blocks(self, blocks: Sequence[np.ndarray]) -> List[BlockRef]:
        """Lay blocks out contiguously in one segment; return descriptors.

        One placement copy total; if the blocks are contiguous slices
        of one base array (the BlockStore layout), this is the only
        copy the whole job performs.
        """
        sizes = [int(np.asarray(b).size) for b in blocks]
        total = sum(sizes)
        seg = self._create(total * 8)
        flat = np.frombuffer(seg.buf, dtype=np.float64, count=total)
        refs: List[BlockRef] = []
        cursor = 0
        for block, size in zip(blocks, sizes):
            flat[cursor : cursor + size] = np.asarray(block, dtype=np.float64)
            refs.append(
                BlockRef(kind="shm", segment=seg.name, offset=cursor * 8, length=size)
            )
            cursor += size
        del flat  # release the view so close()/unlink() can proceed
        self.placed_bytes += total * 8
        return refs

    def refs_for_array(
        self, name: str, total_items: int, block_items: int
    ) -> List[BlockRef]:
        """Descriptors tiling an already-placed segment into blocks."""
        refs = []
        for start in range(0, max(total_items, 1), block_items):
            length = min(block_items, total_items - start) if total_items else 0
            refs.append(
                BlockRef(kind="shm", segment=name, offset=start * 8, length=length)
            )
            if total_items == 0:
                break
        return refs

    def view(self, ref: BlockRef) -> np.ndarray:
        """Read-only view of a block this plane placed.

        Built on the plane's own mapping, not :func:`resolve_block`'s
        attach cache, so once the plane closes the segment nothing but
        the views themselves keeps it mapped.
        """
        return _readonly_view(self._segments[ref.segment].buf, ref)

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        for seg in self._segments.values():
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    def __enter__(self) -> "ShmDataPlane":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort cleanup
        self.close()


# ----------------------------------------------------------------------
# worker-side: one job install per process, tasks carry descriptors
# ----------------------------------------------------------------------

_WORKER_JOB: Optional[object] = None
_WORKER_JOB_TOKEN: Optional[str] = None


def worker_initializer(job_payload: bytes, token: str) -> None:
    """Pool initializer: unpickle and install the job **once** per worker."""
    global _WORKER_JOB, _WORKER_JOB_TOKEN
    _WORKER_JOB = pickle.loads(job_payload)
    _WORKER_JOB_TOKEN = token


def run_phase_task(args: Tuple[str, str, object]) -> bytes:
    """Trampoline for installed-job dispatch: ``(token, phase, item)``.

    ``phase`` names a :class:`~repro.mapreduce.runtime.MapReduceJob`
    method (``"combine"`` or ``"reduce"``); combine items may be
    :class:`BlockRef` descriptors, resolved in-worker with no copy.
    """
    token, phase, item = args
    if _WORKER_JOB is None or _WORKER_JOB_TOKEN != token:
        raise RuntimeError(
            "worker has no installed job for this token; "
            "MultiprocessExecutor.install_job must run first"
        )
    fn = getattr(_WORKER_JOB, phase)
    if phase == "combine":
        item = resolve_block(item)
    return fn(item)


class ResolvingCombine:
    """Picklable ``combine`` wrapper for executors without job install.

    Resolves descriptors before delegating, so the legacy ``map(fn,
    items)`` protocol (serial, simulated, retry fallback) transparently
    accepts :class:`BlockRef` items. Still re-pickles the job per task
    on a legacy process pool — but never the block payload.
    """

    def __init__(self, job: object) -> None:
        self.job = job

    def __call__(self, item: Union[BlockRef, np.ndarray]) -> bytes:
        return self.job.combine(resolve_block(item))  # type: ignore[attr-defined]
