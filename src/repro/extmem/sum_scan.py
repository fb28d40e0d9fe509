"""Theorem 6: exact summation in ``O(scan(n))`` I/Os when ``sigma(n) <= M``.

When the whole superaccumulator fits in internal memory there is no
need to sort: keep it resident, stream the input once, deposit every
block, and round at the end. The device's memory budget is charged for
the accumulator's active components plus one input block, so running
this with ``M < sigma(n)`` raises
:class:`~repro.errors.ModelViolationError` — the exact boundary the
theorem draws.

The scan is a kernel schedule: any registered
:class:`~repro.kernels.base.SumKernel` can supply fold/combine/round,
with the kernel's ``width`` (the paper's sigma) charged against the
memory budget.
"""

from __future__ import annotations

from typing import Optional

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.extmem.device import BlockDevice, IOStats
from repro.extmem.ext_array import ExtArray
from repro.extmem.sum_sort import ExtMemSumResult
from repro.kernels import SumKernel, get_kernel

__all__ = ["extmem_sum_scan"]


def extmem_sum_scan(
    device: BlockDevice,
    source: ExtArray,
    *,
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    kernel: Optional[SumKernel] = None,
) -> ExtMemSumResult:
    """Correctly rounded sum of a float64 file in one scan (Theorem 6).

    Raises:
        ModelViolationError: if the accumulator's active-component count
            ever exceeds what the internal memory can hold alongside an
            input block (``sigma(n) > M - B``), i.e. when the theorem's
            precondition fails and the sorting-based algorithm
            (:func:`~repro.extmem.sum_sort.extmem_sum_sorted`) is needed.
    """
    if kernel is None:
        kernel = get_kernel("sparse", radix=radix)
    start_reads = device.stats.reads
    start_writes = device.stats.writes
    B = device.block_size

    acc = kernel.zero()
    for block in source.scan():
        # The resident footprint during a block's processing: the
        # input block, the partial before, and the (at most B*3
        # component) batch being folded in.
        batch = kernel.fold(block)
        with device.allocate(
            B + kernel.width(acc) + kernel.width(batch),
            what="in-memory superaccumulator (Theorem 6 requires sigma <= M)",
        ):
            acc = kernel.combine(acc, batch)
    with device.allocate(kernel.width(acc), what="rounding"):
        value = kernel.round(acc, mode)
    io = IOStats(
        reads=device.stats.reads - start_reads,
        writes=device.stats.writes - start_writes,
    )
    return ExtMemSumResult(
        value=value,
        io=io,
        components=kernel.width(acc),
        partial=kernel.to_wire(acc),
    )
