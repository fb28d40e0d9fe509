"""High-level driver: ``parallel_sum`` in one call (paper §6.2's job).

Wraps block placement (simulated HDFS), executor selection, job choice
and the run into the API a downstream user reaches for::

    from repro.mapreduce import parallel_sum
    total = parallel_sum(values, workers=8)

Returns either the float or, with ``report=True``, a
:class:`~repro.mapreduce.runtime.JobResult` carrying per-phase timings,
shuffle volume and data-plane accounting (dispatch bytes, copies
avoided) — the observables the figure harness plots.

On the ``"process"`` executor the driver runs on the zero-copy data
plane: input blocks live in shared memory, workers receive ~100-byte
descriptors, the job is installed once per worker, and the pool itself
persists across calls (:func:`~repro.mapreduce.runtime.shared_process_executor`)
so spin-up is amortized. The input segment belongs to the pool and
lives as long as it does: each call costs one copy into it.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.errors import NonFiniteInputError
from repro.mapreduce.dataplane import ShmDataPlane
from repro.mapreduce.hdfs import BlockStore
from repro.mapreduce.partitioner import Partitioner
import os

from repro.mapreduce.runtime import (
    JobResult,
    SerialExecutor,
    SimulatedClusterExecutor,
    run_job,
    shared_process_executor,
)
from repro.kernels import kernel_names
from repro.mapreduce.sum_job import KernelSumJob, NaiveSumJob
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = ["parallel_sum"]

#: Default items per simulated HDFS block for laptop-scale runs. Small
#: enough to give every worker several blocks at bench sizes, large
#: enough that combine dominates scheduling overhead.
DEFAULT_BLOCK_ITEMS = 1 << 17


def _select_executor_kind(executor: str, workers: int) -> str:
    """Resolve ``"auto"`` to a concrete executor kind.

    Process pools pay off only when the host can actually run the
    requested workers concurrently; otherwise the simulated cluster
    (measured per-task costs, modeled concurrency) is the honest
    substitute — see DESIGN.md §2.
    """
    if executor != "auto":
        return executor
    if workers <= 1:
        return "serial"
    if (os.cpu_count() or 1) >= workers:
        return "process"
    return "simulated"


def parallel_sum(
    values,
    *,
    workers: Optional[int] = None,
    method: str = "sparse",
    block_items: int = DEFAULT_BLOCK_ITEMS,
    reducers: Optional[int] = None,
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    partitioner: Optional[Partitioner] = None,
    executor: str = "auto",
    report: bool = False,
    job: Optional[KernelSumJob] = None,
) -> Union[float, JobResult]:
    """Faithfully rounded sum via the single-round MapReduce algorithm.

    Args:
        values: finite float64 array-like.
        workers: worker count; ``None`` or 1 runs serially in-process.
        method: any registered kernel name
            (``repro.kernels.kernel_names()``: ``"sparse"`` is the
            paper's, ``"small"`` the Neal comparator), run as the
            :class:`~repro.mapreduce.sum_job.KernelSumJob` over that
            kernel. ``"naive"`` is the inexact control — for
            demonstrations only.
        block_items: simulated HDFS block size in items.
        reducers: the ``p`` of §6.1; defaults to the worker count.
        radix: superaccumulator digit configuration.
        mode: final rounding direction.
        partitioner: reducer assignment (default round-robin).
        executor: ``"process"`` (the persistent multiprocessing pool,
            blocks in its shared-memory segment; see
            :func:`~repro.mapreduce.runtime.shutdown_shared_executors`),
            ``"simulated"`` (serial run with a simulated p-worker
            makespan clock — for single-core hosts or modeling cluster
            sizes beyond the host), ``"serial"``, or ``"auto"`` (process
            when the host has at least ``workers`` cores, simulated
            otherwise).
        report: return the full :class:`JobResult` instead of the float.
        job: a pre-built job instance to run instead of constructing
            one from ``method`` — how the reduction engine schedules a
            :class:`~repro.mapreduce.sum_job.KernelSumJob` whose
            driver-side state (the merged partial) it reads afterwards.
    """
    if job is None and method != "naive" and method not in kernel_names():
        raise ValueError(
            f"method must be one of {sorted({'naive', *kernel_names()})}"
        )
    if executor not in ("auto", "process", "simulated", "serial"):
        raise ValueError(f"unknown executor {executor!r}")
    arr = ensure_float64_array(values)

    if job is None:
        job = (
            NaiveSumJob()  # type: ignore[assignment]
            if method == "naive"
            else KernelSumJob(radix=radix, mode=mode, kernel_name=method)
        )

    nodes = max(1, workers or 1)
    w = workers or 1
    kind = _select_executor_kind(executor, w)
    p = reducers if reducers is not None else nodes

    def execute(items, exe) -> JobResult:
        try:
            return run_job(job, items, reducers=p, executor=exe, partitioner=partitioner)
        except NonFiniteInputError:
            check_finite_array(arr)  # a fold found one: name its input index
            raise

    if kind == "process" and w > 1:
        pool = shared_process_executor(w)
        # The pool's own segment takes the input: one copy into pages
        # that stay mapped from call to call.
        with pool.borrow_plane() as plane:
            result = execute(_place(arr, nodes, block_items, plane), pool)
    elif kind == "simulated":
        result = execute(_place(arr, nodes, block_items), SimulatedClusterExecutor(w))
    else:
        result = execute(_place(arr, nodes, block_items), SerialExecutor())
    return result if report else result.value


def _place(arr, nodes: int, block_items: int, plane: Optional[ShmDataPlane] = None):
    """Split ``arr`` into simulated HDFS blocks: descriptors into
    ``plane`` when given, in-process arrays otherwise."""
    store = BlockStore(nodes=nodes, block_items=block_items)
    blocks = store.put("input", arr, plane=plane)
    if plane is not None:
        return store.block_refs("input")
    return [b.data for b in blocks]
