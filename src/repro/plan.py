"""Backend planner: pick plane x kernel for a summation task.

Every execution plane in this repo — serial, streaming, serving,
MapReduce, external memory, BSP, PRAM — consumes the same
:class:`~repro.kernels.base.SumKernel` protocol, so "where should this
sum run" is a scheduling decision, not an algorithmic one. This module
makes that decision explicit and inspectable:

* :class:`DataDescriptor` says what the input looks like (size, whether
  it is already in memory or sitting in a ``.f64`` dataset file, how
  many workers the caller can spend);
* :func:`plan_sum` turns a descriptor into a :class:`SumPlan` — the
  chosen plane and kernel plus a human-readable reason;
* :meth:`SumPlan.execute` runs the plan and returns the correctly
  rounded float, bit-identical across every choice the planner could
  have made (that is the whole point of the kernel protocol).

:func:`run_reduction` is the shared dispatch the planner, the ``repro
plan`` CLI, the :mod:`repro.reduce` one-liners and the cross-plane
bit-identity matrix test all use, so a plane listed in :data:`PLANES`
is by construction a plane the planner can schedule onto and the test
suite checks. Every result is "fold on a plane, then the op's finish":
a local plane folds each of the op's term streams, and the serve and
cluster planes ship the raw inputs and read back through the service's
one read path.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.rounding import check_mode
from repro.kernels import SumKernel, get_kernel, kernel_fold, kernel_names

if TYPE_CHECKING:
    from repro.reduce.ops import ReduceOp

__all__ = [
    "DataDescriptor",
    "SumPlan",
    "KernelCandidate",
    "kernel_candidates",
    "plan_sum",
    "run_reduction",
    "PLANES",
    "KERNEL_RATES",
]

#: Default items per block, shared with the MapReduce driver.
DEFAULT_BLOCK_ITEMS = 1 << 17

#: In-memory inputs below this size never leave the serial plane: the
#: cost of standing up workers exceeds folding the data where it lies.
SMALL_INPUT_ITEMS = 1 << 16

#: Measured single-thread bulk-fold rates in Melem/s on the reference
#: host, all medians over the n = 2**22 cells. ``binned``, ``dense``,
#: ``small`` and ``sparse`` are ``BENCH_native.json``'s
#: ``kernel_rates_melem_per_s`` row (``benchmarks/bench_native.py``),
#: rounded to 0.1.
#: Only the relative order matters to the planner — it ranks candidate
#: kernels by these and picks the fastest one the digit width accepts —
#: so a different host changes the margins, not the decisions.
#: ``running`` is unbenched, so it has no rate and ranks last.
KERNEL_RATES: Dict[str, float] = {
    "binned": 125.1,
    "dense": 5.8,
    "small": 5.7,
    "sparse": 5.5,
}

#: Kernels whose fold needs the vectorized int64 digit paths
#: (``w <= 31``). Outside that the binned fold degrades to sparse-spill
#: speed and the dense and small folds raise, so the planner rules
#: them out.
_VECTOR_FOLD_KERNELS = frozenset({"binned", "dense", "small"})


@dataclass(frozen=True)
class KernelCandidate:
    """One row of the planner's kernel table: accepted or rejected, why.

    Attributes:
        name: registry kernel name.
        accepted: whether the planner may auto-select this kernel for
            the requested radix. Rejected candidates stay in the table
            so ``repro plan --explain`` shows *why* (the digit width).
        reason: one line of rationale.
        rate: measured reference rate in Melem/s (None if unbenched).
    """

    name: str
    accepted: bool
    reason: str
    rate: Optional[float] = None


def kernel_candidates(radix: RadixConfig = DEFAULT_RADIX) -> List[KernelCandidate]:
    """Rank every registered kernel for a reduction task.

    Returns candidates sorted fastest-first by :data:`KERNEL_RATES`;
    the first accepted row is what :func:`plan_sum` picks when the
    caller does not force a kernel. Every kernel is exact, so every
    kernel hosts every op in every rounding mode; only the digit width
    rules kernels out.
    """
    names = sorted(kernel_names(), key=lambda n: (-KERNEL_RATES.get(n, 0.0), n))
    out: List[KernelCandidate] = []
    for name in names:
        rate = KERNEL_RATES.get(name)
        if name in _VECTOR_FOLD_KERNELS and not radix.supports_vectorized:
            out.append(
                KernelCandidate(
                    name,
                    False,
                    f"w={radix.w} exceeds the vectorized digit-split "
                    f"limit (31) this fold needs",
                    rate,
                )
            )
            continue
        reason = "exact fold"
        if rate is not None:
            reason += f"; ~{rate:g} Melem/s measured on the reference host"
        out.append(KernelCandidate(name, True, reason, rate))
    return out


# ---------------------------------------------------------------------------
# plane runners: each plane folds term streams once, each op finishes


def _chunks(arr: np.ndarray, block_items: int) -> Iterator[np.ndarray]:
    if arr.size == 0:
        yield arr
        return
    for start in range(0, arr.size, block_items):
        yield arr[start : start + block_items]


def _partial(kernel: SumKernel, wire: Optional[bytes]) -> Any:
    """The merged partial from a plane result's wire frame.

    A plane that folded nothing may keep no frame.
    """
    return kernel.zero() if wire is None else kernel.from_wire(wire)


def _fold_serial(kernel, terms, *, mode, workers, block_items):
    return kernel_fold(kernel, _chunks(terms, block_items), mode=mode)


def _fold_streaming(kernel, terms, *, mode, workers, block_items):
    stream = kernel.new_stream()
    for chunk in _chunks(terms, block_items):
        kernel.fold_into(stream, chunk)
    # The running kernel's stream type is its partial type.
    return stream.value(mode), getattr(stream, "partial", stream)


def _fold_mapreduce(kernel, terms, *, mode, workers, block_items):
    from repro.mapreduce import parallel_sum
    from repro.mapreduce.sum_job import KernelSumJob

    # The job keeps the merged partial its driver-side postprocess rounded.
    job = KernelSumJob(radix=kernel.radix, mode=mode, kernel_name=kernel.name)
    value = parallel_sum(
        terms,
        workers=workers,
        method=kernel.name,
        block_items=block_items,
        radix=kernel.radix,
        mode=mode,
        job=job,
    )
    return value, job.partial


def _fold_extmem(kernel, terms, *, mode, workers, block_items):
    from repro.extmem import BlockDevice, ExtArray, extmem_sum_scan

    block = max(8, min(block_items, 1 << 12))
    device = BlockDevice(block_size=block, memory=block * 64)
    source = ExtArray.from_numpy(device, "plan-input", terms)
    result = extmem_sum_scan(
        device, source, radix=kernel.radix, mode=mode, kernel=kernel
    )
    return result.value, _partial(kernel, result.partial)


def _fold_bsp(kernel, terms, *, mode, workers, block_items):
    from repro.bsp import exact_allreduce_sum

    result = exact_allreduce_sum(
        np.array_split(terms, max(2, workers)),
        radix=kernel.radix, mode=mode, kernel=kernel,
    )
    return result.values[0], _partial(kernel, result.partial)


def _fold_pram(kernel, terms, *, mode, workers, block_items):
    from repro.pram import pram_exact_sum

    result = pram_exact_sum(terms, radix=kernel.radix, mode=mode, kernel=kernel)
    return result.value, _partial(kernel, result.partial)


def _local(fold: Callable[..., Tuple[float, Any]]) -> Callable[..., float]:
    """The runner of a local plane, from its fold of one term stream.

    The op expands its inputs into term streams and ``fold`` folds each
    one on the plane, returning the rounded term sum and the merged
    partial. A rounded-sum op's answer is that rounded sum; an
    exact-fraction op finishes from the partials' exact fractions.
    Elements outside the op's expansion band come back as an exact
    rest, added to those fractions: then even a rounded-sum op
    finishes from them.
    """

    def run(kernel_name, op, x, y, *, radix, mode, workers, block_items):
        kernel = get_kernel(kernel_name, radix=radix)
        streams, rest = op.expand_exact(x, y)
        folds = [
            fold(kernel, terms, mode=mode, workers=workers, block_items=block_items)
            for terms in streams
        ]
        if rest is None and not op.needs_exact:
            return op.finish_rounded(folds[0][0], int(x.size), mode)
        fracs = [kernel.exact_fraction(partial) for _, partial in folds]
        if rest is not None:
            fracs = [f + r for f, r in zip(fracs, rest)]
        return op.finish_exact(fracs, int(x.size), mode)

    return run


def _wire_route(op: ReduceOp) -> Tuple[str, str, str]:
    """``(ingest kind, read op, response field)`` of ``op`` on a wire plane.

    The raw inputs ship as the ingest kind that expands through ``op``
    (``mean`` expands like ``sum``, by the identity) and come back
    through the first read op with a finish of ``op``.
    """
    from repro.serve.protocol import INGEST_KINDS, READ_OPS

    kind = next(
        (k for k, entry in INGEST_KINDS.items() if entry.reduce_op == op.name),
        "sum",
    )
    for read_op, read in READ_OPS.items():
        for field, name in read.finishes:
            if name == op.name:
                return kind, read_op, field
    raise ValueError(f"op {op.name!r} has no read on the serve/cluster planes")


async def _ship_and_read(send, read, op, x, y, *, mode, block_items) -> float:
    """Ship ``op``'s raw inputs in batches, then read its value back."""
    kind, read_op, field = _wire_route(op)
    ys = _chunks(y, block_items) if y is not None else itertools.repeat(None)
    for xs, y_chunk in zip(_chunks(x, block_items), ys):
        await send("plan", xs, op=kind, y=y_chunk)
    response = await read("plan", read_op, mode=mode, ddof=getattr(op, "ddof", 0))
    return response[field]


def _run_serve(kernel_name, op, x, y, *, radix, mode, workers, block_items):
    import asyncio

    from repro.serve import InProcessClient, ReproService, ServeConfig

    async def run() -> float:
        config = ServeConfig(shards=max(1, workers), kernel=kernel_name)
        async with ReproService(config, radix=radix) as service:
            client = InProcessClient(service)
            return await _ship_and_read(
                client.request_batch, client.read, op, x, y,
                mode=mode, block_items=block_items,
            )

    return asyncio.run(run())


def _run_cluster(kernel_name, op, x, y, *, radix, mode, workers, block_items):
    import asyncio

    from repro.cluster import LocalCluster

    async def run() -> float:
        async with LocalCluster(
            nodes=max(2, workers), kernel=kernel_name, radix=radix, shards=1
        ) as lc:
            coord = lc.coordinator
            return await _ship_and_read(
                functools.partial(coord.scatter, chunk=block_items), coord.gather,
                op, x, y, mode=mode, block_items=block_items,
            )

    return asyncio.run(run())


#: Every schedulable plane, by name: ``(kernel_name, op, x, y, ...)``
#: -> the op's correctly rounded value. The bit-identity matrix test
#: walks this mapping, so adding a plane here enrolls it in the
#: invariant.
PLANES: Dict[str, Callable[..., float]] = {
    "serial": _local(_fold_serial),
    "streaming": _local(_fold_streaming),
    "serve": _run_serve,
    "cluster": _run_cluster,
    "mapreduce": _local(_fold_mapreduce),
    "extmem": _local(_fold_extmem),
    "bsp": _local(_fold_bsp),
    "pram": _local(_fold_pram),
}


def run_reduction(
    plane: str,
    kernel_name: str,
    op: Union[str, ReduceOp],
    x,
    y=None,
    *,
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    workers: int = 1,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> float:
    """Run one reduction op on one named plane with one named kernel.

    The uniform entry point behind :meth:`SumPlan.execute`, the
    :mod:`repro.reduce` one-liners and the cross-plane bit-identity
    matrix. Returns the correctly rounded value of the true
    mathematical quantity for the given float inputs — the same bits
    whichever plane/kernel pair the caller (or the planner) picks.

    Raises:
        ValueError: unknown plane/kernel/op/rounding mode, or a mode the
            op's finish does not define.
        ReductionRangeError: on the serve and cluster planes only,
            inputs outside the op's error-free expansion band (their
            stream partials span only the binary64 range).
        EmptyStreamError: ``mean``/``var`` finishes on too few
            observations (sums and norms of nothing are simply 0.0).
    """
    from repro.reduce.ops import get_op

    if isinstance(op, str):
        op = get_op(op)
    if plane not in PLANES:
        raise ValueError(f"unknown plane {plane!r}; expected one of {sorted(PLANES)}")
    if kernel_name not in kernel_names():
        raise ValueError(
            f"unknown kernel {kernel_name!r}; expected one of {list(kernel_names())}"
        )
    check_mode(mode)
    xa, ya = op.validate(x, y)
    return PLANES[plane](
        kernel_name, op, xa, ya, radix=radix, mode=mode,
        workers=workers, block_items=block_items,
    )


# ---------------------------------------------------------------------------
# descriptors and plans


@dataclass
class DataDescriptor:
    """What the planner knows about the input.

    Attributes:
        n: element count (0 allowed).
        layout: ``"memory"`` (an array the caller holds) or ``"file"``
            (a ``.f64`` dataset on disk, summed without loading it all).
        workers: workers the caller is willing to spend (>= 1).
        path: dataset path when ``layout == "file"``.
        values: the array when ``layout == "memory"`` and the caller
            provided one (optional — plans can also be made from sizes
            alone and fed data at execute time).
        op: registered reduction the caller wants (``"sum"`` by
            default).
    """

    n: int
    layout: str = "memory"
    workers: int = 1
    path: Optional[str] = None
    values: Optional[np.ndarray] = field(default=None, repr=False)
    op: str = "sum"
    #: second input array for arity-2 ops (``dot``).
    values2: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.layout not in ("memory", "file"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.layout == "file" and not self.path:
            raise ValueError("file layout needs a path")
        from repro.reduce.ops import op_names

        if self.op not in op_names():
            raise ValueError(
                f"unknown op {self.op!r}; expected one of {op_names()}"
            )

    @classmethod
    def describe_array(
        cls, values, workers: int = 1, *, op: str = "sum", values2=None
    ) -> "DataDescriptor":
        arr = np.asarray(values, dtype=np.float64)
        arr2 = None if values2 is None else np.asarray(values2, dtype=np.float64)
        return cls(
            n=int(arr.size),
            layout="memory",
            workers=workers,
            values=arr,
            op=op,
            values2=arr2,
        )

    @classmethod
    def describe_file(
        cls, path: Union[str, Path], workers: int = 1
    ) -> "DataDescriptor":
        from repro.data import dataset_len

        return cls(
            n=dataset_len(path), layout="file", workers=workers, path=str(path)
        )


@dataclass
class SumPlan:
    """An executable decision: plane x kernel (+ why).

    Attributes:
        plane: key into :data:`PLANES`.
        kernel: registered kernel name.
        workers: workers the plan will use.
        block_items: fold granularity.
        reason: one line of planner rationale, shown by ``repro plan``.
    """

    plane: str
    kernel: str
    workers: int
    block_items: int
    reason: str
    descriptor: DataDescriptor
    mode: str = "nearest"
    radix: RadixConfig = DEFAULT_RADIX
    #: Full kernel table the decision was made from (``--explain``).
    candidates: List[KernelCandidate] = field(default_factory=list, repr=False)

    def describe(self) -> Dict[str, Any]:
        """Flat summary for printing / JSON."""
        return {
            "plane": self.plane,
            "kernel": self.kernel,
            "op": self.descriptor.op,
            "workers": self.workers,
            "block_items": self.block_items,
            "n": self.descriptor.n,
            "layout": self.descriptor.layout,
            "reason": self.reason,
        }

    def execute(
        self, values=None, values2=None, *, mode: Optional[str] = None
    ) -> float:
        """Run the plan; returns the correctly rounded reduction.

        Args:
            values: in-memory data, when the descriptor was built from
                sizes alone. File-layout plans read their dataset.
            values2: second input for arity-2 ops (``dot``).
            mode: overrides the plan's rounding mode.
        """
        if values is None:
            if self.descriptor.layout == "file":
                from repro.data import map_dataset

                values = map_dataset(self.descriptor.path)
            elif self.descriptor.values is not None:
                values = self.descriptor.values
            else:
                raise ValueError("plan has no data; pass values=")
        if values2 is None:
            values2 = self.descriptor.values2
        return run_reduction(
            self.plane,
            self.kernel,
            self.descriptor.op,
            values,
            values2,
            radix=self.radix,
            mode=mode if mode is not None else self.mode,
            workers=self.workers,
            block_items=self.block_items,
        )


def plan_sum(
    descriptor: DataDescriptor,
    *,
    kernel: Optional[str] = None,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
    block_items: int = DEFAULT_BLOCK_ITEMS,
) -> SumPlan:
    """Choose a plane and kernel for a summation task.

    Heuristics (each encoded in the returned plan's ``reason``):

    * small in-memory inputs stay serial — worker spin-up costs more
      than folding the data in place;
    * multi-worker requests go to the MapReduce plane when the host has
      the cores (the driver itself falls back to its simulated executor
      otherwise);
    * file-backed data with one worker streams: one pass over the
      mapped dataset, O(1) memory;
    * the kernel is the fastest accepted candidate from
      :func:`kernel_candidates` — by the measured rates, the binned
      exponent fold in every rounding mode, and the sparse fold when a
      digit width above 31 bits rules out the vectorized folds.
    """
    candidates = kernel_candidates(radix)
    if kernel is None:
        kernel = next(c.name for c in candidates if c.accepted)
    elif kernel not in kernel_names():
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {list(kernel_names())}"
        )

    n = descriptor.n
    workers = descriptor.workers
    cpus = os.cpu_count() or 1

    if descriptor.layout == "file":
        if workers > 1:
            plane = "mapreduce"
            reason = (
                f"file dataset (n={n:,}) with {workers} workers: map the "
                f"file and fan blocks out to the MapReduce plane"
            )
        else:
            plane = "streaming"
            reason = (
                f"file dataset (n={n:,}), single worker: one streaming "
                f"pass over the mapped data, O(1) memory"
            )
    elif workers > 1 and n >= 2 * block_items:
        plane = "mapreduce"
        exec_note = "process pool" if cpus >= workers else "simulated cluster"
        reason = (
            f"in-memory n={n:,} across {workers} workers ({exec_note}): "
            f"block folds dominate scheduling at this size"
        )
    elif workers > 1:
        plane = "serial"
        workers = 1
        reason = (
            f"in-memory n={n:,} is below {2 * block_items:,} items: "
            f"worker spin-up would cost more than the fold; running serially"
        )
    else:
        plane = "serial"
        reason = f"in-memory n={n:,}, single worker: fold in place"

    return SumPlan(
        plane=plane,
        kernel=kernel,
        workers=workers,
        block_items=block_items,
        reason=reason,
        descriptor=descriptor,
        mode=mode,
        radix=radix,
        candidates=candidates,
    )
