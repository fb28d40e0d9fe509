"""Single-round MapReduce engine (paper §6.1-6.2).

Phases, matching the paper's Spark implementation:

1. **combine** — every input block is reduced locally to one small
   value (here: a serialized superaccumulator). Embarrassingly
   parallel; this is where almost all the time goes and what Figure 3's
   core-scaling measures.
2. **shuffle** — each combined value is tagged with a reducer id by the
   partitioner and grouped. Volume is ``p`` superaccumulators, not
   ``n`` records — the entire point of combining.
3. **reduce** — each reducer folds its group into one value (parallel
   across reducers).
4. **post-process** — the driver folds the ``p`` reducer outputs into
   the final answer.

Executors: :class:`SerialExecutor` runs everything in-process (used by
tests and as the 1-worker baseline); :class:`MultiprocessExecutor` uses
a ``multiprocessing`` pool, standing in for the paper's 32-core Spark
workers. Values crossing the executor boundary are ``bytes`` (each
job's ``encode``/``decode``), mirroring real shuffle serialization.

Dispatch volume is what the zero-copy data plane
(:mod:`repro.mapreduce.dataplane`) minimizes: combine items may be
:class:`~repro.mapreduce.dataplane.BlockRef` descriptors instead of
ndarrays, the job is installed once per worker by the pool initializer,
and :class:`JobResult` accounts for the bytes that did — and did not —
cross the boundary.
"""

from __future__ import annotations

import atexit
import pickle
import secrets
import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mapreduce.dataplane import (
    BlockRef,
    ResolvingCombine,
    ShmDataPlane,
    resolve_block,
    run_phase_task,
    worker_initializer,
)
from repro.mapreduce.partitioner import Partitioner, RoundRobinPartitioner
from repro.util.validation import check_positive_int

__all__ = [
    "MapReduceJob",
    "JobResult",
    "SerialExecutor",
    "MultiprocessExecutor",
    "SimulatedClusterExecutor",
    "run_job",
    "pick_start_method",
    "shared_process_executor",
    "shutdown_shared_executors",
]


class MapReduceJob(ABC):
    """A single-round MapReduce job over float blocks.

    Subclasses must be defined at module top level (the multiprocess
    executor pickles them to workers) and values exchanged between
    phases are opaque ``bytes``.
    """

    @abstractmethod
    def combine(self, block: np.ndarray) -> bytes:
        """Reduce one input block to a serialized intermediate value."""

    @abstractmethod
    def reduce(self, values: Sequence[bytes]) -> bytes:
        """Fold one reducer's group of intermediates into one."""

    @abstractmethod
    def postprocess(self, values: Sequence[bytes]) -> float:
        """Driver-side final fold over all reducer outputs."""


@dataclass
class JobResult:
    """Outcome of :func:`run_job` with per-phase observability.

    Attributes:
        value: the job's final answer.
        phase_seconds: wall-clock per phase name ("combine", "shuffle",
            "reduce", "postprocess") — the series the figure harness
            reports.
        shuffle_bytes: total bytes crossing the shuffle.
        blocks: number of input blocks combined.
        reducers: reducer count ``p``.
        input_items: total items across all combined blocks.
        input_bytes: total payload bytes of the input blocks.
        dispatch_bytes: bytes pickled to workers to *dispatch* the
            combine phase (descriptors under the zero-copy plane, full
            block payloads on the legacy path, 0 in-process).
        copies_avoided_bytes: payload bytes that would have crossed the
            process boundary per task but did not, thanks to shared
            memory (0 when no boundary exists or nothing was saved).
        executor_kind: "serial", "process" or "simulated".
        zero_copy: whether combine consumed block descriptors.
        tier_counts: adaptive-engine tier telemetry (certified vs
            escalated block counts, final certificate margin) when the
            job reports it (``AdaptiveSumJob``); ``None`` otherwise.
    """

    value: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    shuffle_bytes: int = 0
    blocks: int = 0
    reducers: int = 0
    input_items: int = 0
    input_bytes: int = 0
    dispatch_bytes: int = 0
    copies_avoided_bytes: int = 0
    executor_kind: str = "serial"
    zero_copy: bool = False
    tier_counts: Optional[Dict[str, float]] = None

    @property
    def total_seconds(self) -> float:
        """End-to-end job time."""
        return sum(self.phase_seconds.values())

    def phase_throughput(self, phase: str = "combine") -> float:
        """Items per second through a phase (0.0 if the phase is
        untimed or instantaneous). Combine consumes ``input_items``;
        reduce and postprocess consume the shuffled accumulators."""
        seconds = self.phase_seconds.get(phase, 0.0)
        if seconds <= 0.0:
            return 0.0
        items = self.input_items if phase == "combine" else self.blocks
        return items / seconds

    @property
    def combine_bytes_per_second(self) -> float:
        """Input bytes per second through the combine phase."""
        seconds = self.phase_seconds.get("combine", 0.0)
        return self.input_bytes / seconds if seconds > 0.0 else 0.0


class SerialExecutor:
    """In-process executor: plain ``map`` (the 1-core configuration)."""

    workers = 1

    def map(self, fn: Callable[[Any], bytes], items: Sequence[Any]) -> List[bytes]:
        return [fn(item) for item in items]

    def close(self) -> None:  # symmetry with the pool executor
        """No resources to release."""


def _invoke(args):
    """Top-level trampoline so (fn, item) pairs pickle to pool workers."""
    fn, item = args
    return fn(item)


def _ensure_resource_tracker() -> None:
    """Start the POSIX resource tracker before the pool forks.

    Workers inherit the tracker connection that exists at fork time.
    If the pool forks first and a shared-memory segment is created
    later, every worker spawns a *private* tracker on attach; those
    trackers only ever see the attach-side register and warn about
    "leaked" segments at exit even though the owner unlinked them.
    Pre-starting the tracker keeps the whole pool tree on one tracker,
    whose set-based cache balances attach registers against the
    owner's single unlink.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # non-POSIX: no tracker, nothing to pre-start
        return
    resource_tracker.ensure_running()


def pick_start_method(preferred: Optional[str] = None) -> str:
    """Select a ``multiprocessing`` start method for the executor.

    ``fork`` when the platform offers it (cheapest: workers inherit the
    parent image, no re-import), otherwise ``spawn`` — viable for the
    engine because the initializer-based dispatch re-installs the job
    in freshly spawned interpreters. An explicit ``preferred`` must be
    one the platform supports.
    """
    available = get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} unavailable on this platform "
                f"(have {available})"
            )
        return preferred
    return "fork" if "fork" in available else "spawn"


class MultiprocessExecutor:
    """``multiprocessing`` pool executor (the paper's worker cluster).

    Two dispatch protocols:

    * legacy ``map(fn, items)`` — pickles ``(fn, item)`` per task;
      kept for arbitrary callables and as the retry fallback;
    * installed-job ``run_phase(phase, items)`` — the job is pickled
      **once per worker** by the pool initializer
      (:func:`~repro.mapreduce.dataplane.worker_initializer`); tasks
      carry only a phase name and an item, which for combine is a
      ~100-byte :class:`~repro.mapreduce.dataplane.BlockRef` resolved
      in-worker to a zero-copy view.

    Installing a job (re)builds the pool only when the job's pickled
    form differs from the currently installed one, so repeated runs of
    an equivalent job — the ``parallel_sum`` steady state — reuse both
    the worker processes and the installed job.

    The executor also owns the input plane of the driver's zero-copy
    path (:meth:`borrow_plane`): its one shared-memory segment is
    created by the first job, refilled in place by every later one and
    unlinked by :meth:`close`, so it lives exactly as long as the pool.

    Args:
        workers: pool size; plays the role of cluster cores in Fig. 3.
        chunksize: items per task handed to a worker.
        start_method: ``"fork"`` / ``"spawn"`` / ``"forkserver"``;
            default picks fork when available, spawn otherwise.
    """

    supports_job_install = True

    def __init__(
        self,
        workers: int,
        *,
        chunksize: int = 1,
        start_method: Optional[str] = None,
    ) -> None:
        self.workers = check_positive_int(workers, name="workers")
        self._chunksize = check_positive_int(chunksize, name="chunksize")
        self.start_method = pick_start_method(start_method)
        self._ctx = get_context(self.start_method)
        self._pool = None  # created lazily: plain for map(), with the
        self._closed = False  # job initializer for run_phase()
        self._job_payload: Optional[bytes] = None
        self._job_token: Optional[str] = None
        self._plane: Optional[ShmDataPlane] = None
        self._plane_lock = threading.Lock()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("executor is closed")

    @contextmanager
    def borrow_plane(self) -> Iterator[ShmDataPlane]:
        """Lend the pool's input plane to one job; jobs wait their turn.

        Place the job's input with
        :meth:`~repro.mapreduce.dataplane.ShmDataPlane.refill` and run
        the job inside the ``with`` block. Holding the lock for the
        whole job keeps another job from rewriting the segment while
        this one's workers read it. If the job raises, sibling tasks
        may still be reading, so the segment is unlinked, not reused.
        """
        self._check_open()
        with self._plane_lock:
            if self._plane is None:
                self._plane = ShmDataPlane()
            plane = self._plane
            try:
                yield plane
            except BaseException:
                plane.close()
                raise

    def install_job(self, job: "MapReduceJob") -> None:
        """Install ``job`` in every worker (no-op if already installed).

        A changed job rebuilds the pool so the initializer delivers the
        new payload exactly once per worker.
        """
        self._check_open()
        payload = pickle.dumps(job)
        if payload == self._job_payload and self._pool is not None:
            return
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
        self._job_payload = payload
        self._job_token = secrets.token_hex(8)
        _ensure_resource_tracker()
        self._pool = self._ctx.Pool(
            self.workers,
            initializer=worker_initializer,
            initargs=(payload, self._job_token),
        )

    def run_phase(self, phase: str, items: Sequence[Any]) -> List[bytes]:
        """Map one job phase over ``items`` via the installed job."""
        if self._job_token is None:
            raise RuntimeError("run_phase requires install_job first")
        if not items:
            return []
        tasks = [(self._job_token, phase, item) for item in items]
        return self._pool.map(run_phase_task, tasks, chunksize=self._chunksize)

    def map(self, fn: Callable[[Any], bytes], items: Sequence[Any]) -> List[bytes]:
        self._check_open()
        if not items:
            return []
        if self._pool is None:
            _ensure_resource_tracker()
            self._pool = self._ctx.Pool(self.workers)
        return self._pool.map(
            _invoke, [(fn, item) for item in items], chunksize=self._chunksize
        )

    def close(self) -> None:
        """Shut the pool down and unlink its input segment (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._plane is not None:
            self._plane.close()
            self._plane = None
        self._closed = True
        self._job_payload = None
        self._job_token = None

    def __enter__(self) -> "MultiprocessExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# persistent executors: amortize pool spin-up across driver calls
# ----------------------------------------------------------------------

_SHARED_EXECUTORS: Dict[Tuple[int, str], MultiprocessExecutor] = {}
_SHARED_LOCK = threading.Lock()


def shared_process_executor(
    workers: int, *, start_method: Optional[str] = None
) -> MultiprocessExecutor:
    """A process-wide :class:`MultiprocessExecutor`, created on first use.

    Keyed by ``(workers, start_method)``; repeated ``parallel_sum``
    calls with the same worker count reuse the same pool (and, via
    :meth:`MultiprocessExecutor.install_job`, the same installed job),
    so pool spin-up and per-worker job delivery are one-time costs.
    Do **not** ``close()`` the returned executor — call
    :func:`shutdown_shared_executors` instead (also run at interpreter
    exit).
    """
    method = pick_start_method(start_method)
    key = (check_positive_int(workers, name="workers"), method)
    with _SHARED_LOCK:
        exe = _SHARED_EXECUTORS.get(key)
        if exe is None or exe._closed:
            exe = MultiprocessExecutor(workers, start_method=method)
            _SHARED_EXECUTORS[key] = exe
    return exe


def shutdown_shared_executors() -> None:
    """Close every pooled executor created by :func:`shared_process_executor`
    (which also unlinks each pool's input segment)."""
    with _SHARED_LOCK:
        executors = list(_SHARED_EXECUTORS.values())
        _SHARED_EXECUTORS.clear()
    for exe in executors:
        exe.close()


atexit.register(shutdown_shared_executors)


class SimulatedClusterExecutor:
    """Serial execution with a simulated ``p``-worker makespan clock.

    On machines without multiple cores (or to model cluster sizes beyond
    the host), tasks run serially but each task's wall time is recorded
    and greedily scheduled (longest-processing-time-first) onto
    ``workers`` virtual machines; :attr:`last_makespan` is the simulated
    parallel phase time that :func:`run_job` reports. This is the
    substitution DESIGN.md §2 documents for the paper's 32-core cluster:
    the phase structure and per-task costs are measured, only the
    concurrency is modeled.
    """

    def __init__(self, workers: int) -> None:
        self.workers = check_positive_int(workers, name="workers")
        self.last_makespan = 0.0

    def map(self, fn: Callable[[Any], bytes], items: Sequence[Any]) -> List[bytes]:
        durations: List[float] = []
        out: List[bytes] = []
        for item in items:
            t0 = time.perf_counter()
            out.append(fn(item))
            durations.append(time.perf_counter() - t0)
        self.last_makespan = self._makespan(durations)
        return out

    def _makespan(self, durations: List[float]) -> float:
        loads = [0.0] * self.workers
        for d in sorted(durations, reverse=True):
            loads[loads.index(min(loads))] += d
        return max(loads) if loads else 0.0

    def close(self) -> None:
        """No resources to release."""


class _RetryingMap:
    """Task-level fault tolerance: retry failed tasks a bounded number
    of times (real frameworks reschedule failed map/reduce tasks; the
    summation jobs are deterministic and side-effect free, so a retry
    is always safe).

    Retries run in-process (the failure already consumed the executor's
    attempt); exceeding the budget re-raises the last error. The
    installed-job protocol is passed through; its in-process retry path
    resolves block descriptors locally, so a worker-side failure never
    strands data in shared memory.
    """

    def __init__(self, exe, max_retries: int, job: Optional["MapReduceJob"] = None) -> None:
        self._exe = exe
        self._max_retries = max_retries
        self._job = job

    @property
    def supports_job_install(self) -> bool:
        return bool(getattr(self._exe, "supports_job_install", False))

    def install_job(self, job: "MapReduceJob") -> None:
        self._job = job
        self._exe.install_job(job)

    @property
    def last_makespan(self):
        """Pass through the wrapped executor's simulated makespan."""
        return getattr(self._exe, "last_makespan", None)

    def run_phase(self, phase: str, items: Sequence[Any]) -> List[bytes]:
        try:
            return self._exe.run_phase(phase, items)
        except Exception:
            if self._max_retries <= 0:
                raise
        fn = getattr(self._job, phase)
        if phase == "combine":
            return self._retry_each(lambda item: fn(resolve_block(item)), items)
        return self._retry_each(fn, items)

    def map(self, fn: Callable[[Any], bytes], items: Sequence[Any]) -> List[bytes]:
        try:
            return self._exe.map(fn, items)
        except Exception:
            if self._max_retries <= 0:
                raise
        return self._retry_each(fn, items)

    def _retry_each(
        self, fn: Callable[[Any], bytes], items: Sequence[Any]
    ) -> List[bytes]:
        out: List[bytes] = []
        for item in items:
            attempt = 0
            while True:
                try:
                    out.append(fn(item))
                    break
                except Exception:
                    attempt += 1
                    if attempt > self._max_retries:
                        raise
        return out


def _executor_kind(exe) -> str:
    """Classify an executor for :attr:`JobResult.executor_kind`."""
    if isinstance(exe, MultiprocessExecutor):
        return "process"
    if isinstance(exe, SimulatedClusterExecutor):
        return "simulated"
    return "serial"


def _item_items(item) -> int:
    return item.length if isinstance(item, BlockRef) else int(np.asarray(item).size)


def _item_bytes(item) -> int:
    return item.nbytes if isinstance(item, BlockRef) else int(np.asarray(item).nbytes)


#: Estimated pickle overhead beyond the raw buffer when an ndarray
#: block is dispatched to a pool worker (frame, dtype, shape).
_NDARRAY_PICKLE_OVERHEAD = 160


def _dispatch_size(item) -> int:
    """Approximate bytes pickled to dispatch one combine task."""
    if isinstance(item, BlockRef):
        return len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
    return _item_bytes(item) + _NDARRAY_PICKLE_OVERHEAD


def run_job(
    job: MapReduceJob,
    blocks: Sequence[Any],
    *,
    reducers: int,
    executor: Optional[SerialExecutor] = None,
    partitioner: Optional[Partitioner] = None,
    max_retries: int = 0,
) -> JobResult:
    """Execute one single-round MapReduce job.

    Args:
        job: the job definition (combine/reduce/postprocess).
        blocks: input blocks — NumPy float arrays (typically
            ``[b.data for b in store.blocks(name)]``) and/or zero-copy
            :class:`~repro.mapreduce.dataplane.BlockRef` descriptors
            (``store.block_refs(name)`` on a shared-memory store).
        reducers: the ``p`` of the paper's analysis.
        executor: defaults to :class:`SerialExecutor`. Executors with
            ``supports_job_install`` receive the job once per worker
            and dispatch phases by name; others get per-task callables.
        partitioner: reducer assignment; defaults to round-robin.
        max_retries: per-task retry budget for transient failures (0 =
            fail fast). Deterministic jobs make retries exactly safe.
    """
    p = check_positive_int(reducers, name="reducers")
    base_exe = executor if executor is not None else SerialExecutor()
    exe = _RetryingMap(base_exe, max_retries, job) if max_retries else base_exe
    part = partitioner if partitioner is not None else RoundRobinPartitioner()
    items = list(blocks)

    result = JobResult(value=0.0, blocks=len(items), reducers=p)
    result.executor_kind = _executor_kind(base_exe)
    result.zero_copy = any(isinstance(it, BlockRef) for it in items)
    result.input_items = sum(_item_items(it) for it in items)
    result.input_bytes = sum(_item_bytes(it) for it in items)

    installed = bool(getattr(exe, "supports_job_install", False))
    if installed:
        exe.install_job(job)
    crosses_boundary = result.executor_kind == "process"
    if crosses_boundary:
        result.dispatch_bytes = sum(_dispatch_size(it) for it in items)
        result.copies_avoided_bytes = sum(
            it.nbytes for it in items if isinstance(it, BlockRef)
        )

    t0 = time.perf_counter()
    if installed:
        combined = exe.run_phase("combine", items)
    elif result.zero_copy:
        combined = exe.map(ResolvingCombine(job), items)
    else:
        combined = exe.map(job.combine, items)
    t1 = time.perf_counter()
    result.phase_seconds["combine"] = getattr(exe, "last_makespan", None) or (t1 - t0)

    groups: List[List[bytes]] = [[] for _ in range(p)]
    for ordinal, payload in enumerate(combined):
        groups[part.assign(ordinal, p)].append(payload)
        result.shuffle_bytes += len(payload)
    occupied = [g for g in groups if g]
    t2 = time.perf_counter()
    result.phase_seconds["shuffle"] = t2 - t1

    if installed:
        reduced = exe.run_phase("reduce", occupied)
    else:
        reduced = exe.map(job.reduce, occupied)
    t3 = time.perf_counter()
    result.phase_seconds["reduce"] = getattr(exe, "last_makespan", None) or (t3 - t2)

    result.value = job.postprocess(reduced)
    result.phase_seconds["postprocess"] = time.perf_counter() - t3
    # Postprocess runs driver-side, so tier telemetry survives even
    # when combine/reduce executed in worker processes: the shuffle
    # payloads themselves carry the tier decisions.
    counts = getattr(job, "tier_counts", None)
    if counts is not None:
        result.tier_counts = dict(counts)
    return result
