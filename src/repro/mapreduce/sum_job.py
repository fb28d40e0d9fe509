"""Summation jobs for the MapReduce runtime (paper §6).

Every exact job here is the *same* job — :class:`KernelSumJob`, a
generic schedule of :class:`~repro.kernels.base.SumKernel` calls
(``combine`` = fold + to_wire, ``reduce`` = from_wire + combine,
``postprocess`` = combine + round) — parameterized by kernel name.
Every registered kernel runs through it. Two one-line subclasses name
the paper's Figure 1-3 jobs:

* :class:`SparseSuperaccumulatorJob` — the paper's algorithm over the
  ``"sparse"`` kernel: per-block (alpha, beta)-regularized
  superaccumulators, carry-free merges, one final round. Per-block
  cost grows mildly with the exponent spread delta, visible in
  Figure 2.
* :class:`SmallSuperaccumulatorJob` — the Neal-style comparator over
  the ``"small"`` kernel: dense fixed-size accumulators,
  delta-independent cost.

Plus two controls that intentionally bypass kernels:
:class:`NaiveSumJob` (plain ``np.sum`` everywhere, inexact by design)
and :class:`NoCombinerSumJob` (raw blocks over the shuffle, measuring
what the combine step saves).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro import codec
from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.sparse import SparseSuperaccumulator
from repro.kernels import SumKernel, get_kernel
from repro.mapreduce.runtime import MapReduceJob

__all__ = [
    "KernelSumJob",
    "SparseSuperaccumulatorJob",
    "SmallSuperaccumulatorJob",
    "NaiveSumJob",
    "NoCombinerSumJob",
]


class KernelSumJob(MapReduceJob):
    """Exact sum as a MapReduce schedule over any registered kernel.

    The three phases are direct transcriptions of the kernel protocol,
    so adding a kernel to the registry *is* adding a MapReduce job:

    * ``combine``: block -> ``to_wire(fold(block))`` (the §6.2 combine
      step; kernels decide what crosses the shuffle — sparse, dense,
      small or binned accumulators).
    * ``reduce``: left-fold of ``from_wire`` payloads through the
      kernel's associative ``combine``.
    * ``postprocess``: one more fold over the reducer outputs, then a
      single ``round``.

    ``postprocess`` runs driver-side (see
    :func:`~repro.mapreduce.runtime.run_job`), so what it leaves on the
    job survives any executor: :attr:`partial` is the merged partial it
    rounded (the reduction engine reads the exact term sum from it).
    """

    #: registry name of the kernel this job schedules
    kernel_name = "sparse"

    def __init__(
        self,
        radix: RadixConfig = DEFAULT_RADIX,
        mode: str = "nearest",
        kernel_name: Optional[str] = None,
    ) -> None:
        self.radix = radix
        self.mode = mode
        if kernel_name is not None:
            self.kernel_name = kernel_name
        self.partial: Any = None
        self._kernel: Optional[SumKernel] = None

    @property
    def kernel(self) -> SumKernel:
        """The kernel instance (built lazily; never pickled)."""
        if self._kernel is None:
            self._kernel = get_kernel(self.kernel_name, radix=self.radix)
        return self._kernel

    def __getstate__(self) -> dict:
        # Jobs are pickled per worker dispatch and the multiprocess
        # executor caches installs by payload bytes — the lazily built
        # kernel and the driver-side partial must not make two pickles
        # of the same job differ.
        state = dict(self.__dict__)
        state["_kernel"] = None
        state["partial"] = None
        return state

    def _fold_payloads(self, values: Sequence[bytes]):
        kernel = self.kernel
        total = None
        for payload in values:
            part = kernel.from_wire(payload)
            total = part if total is None else kernel.combine(total, part)
        return total if total is not None else kernel.zero()

    def combine(self, block: np.ndarray) -> bytes:
        """Block -> one wire-framed partial (the §6.2 combine step)."""
        kernel = self.kernel
        return kernel.to_wire(kernel.fold(np.asarray(block, dtype=np.float64)))

    def reduce(self, values: Sequence[bytes]) -> bytes:
        """Associative merge of this reducer's partials."""
        return self.kernel.to_wire(self._fold_payloads(values))

    def postprocess(self, values: Sequence[bytes]) -> float:
        """Driver: merge the p reducer outputs, then round once."""
        self.partial = total = self._fold_payloads(values)
        return self.kernel.round(total, self.mode)


class SparseSuperaccumulatorJob(KernelSumJob):
    """Exact sum via sparse superaccumulators (the paper's algorithm)."""

    kernel_name = "sparse"


class SmallSuperaccumulatorJob(KernelSumJob):
    """Exact sum via Neal-style dense small superaccumulators."""

    kernel_name = "small"


class NoCombinerSumJob(MapReduceJob):
    """Ablation: the exact job *without* the local combine step.

    The paper's implementation note (§6.2) says "the goal of the
    combine step is to reduce the size of the data that need to be
    shuffled between mappers and reducers". This job skips it — raw
    blocks cross the shuffle and reducers do all the accumulation — so
    benches can measure the shuffle-volume and reduce-skew cost the
    combine step removes. Results are still exact.
    """

    def __init__(self, radix: RadixConfig = DEFAULT_RADIX, mode: str = "nearest") -> None:
        self.radix = radix
        self.mode = mode

    def combine(self, block: np.ndarray) -> bytes:
        """No combining: ship the raw block bytes."""
        return codec.encode_raw_block(block)

    def reduce(self, values: Sequence[bytes]) -> bytes:
        acc = SparseSuperaccumulator.zero(self.radix)
        for payload in values:
            if codec.peek_magic(payload) != codec.MAGIC_RAW_BLOCK:
                raise ValueError("unexpected shuffle payload")
            block = codec.decode_raw_block(payload)
            acc = acc.add(SparseSuperaccumulator.from_floats(block, self.radix))
        return codec.encode_sparse(acc)

    def postprocess(self, values: Sequence[bytes]) -> float:
        acc = SparseSuperaccumulator.sum_many(
            (codec.decode_sparse(v) for v in values), self.radix
        )
        return acc.to_float(self.mode)


class NaiveSumJob(MapReduceJob):
    """Inexact control: ordinary float summation in every phase."""

    def combine(self, block: np.ndarray) -> bytes:
        # reprolint: disable-next-line=FP003 -- naive is the measured control, not a sum path
        return codec.encode_float(float(np.sum(block)))

    def reduce(self, values: Sequence[bytes]) -> bytes:
        total = 0.0
        for payload in values:
            total += codec.decode_float(payload)  # reprolint: disable=FP001 -- naive control path
        return codec.encode_float(total)

    def postprocess(self, values: Sequence[bytes]) -> float:
        total = 0.0
        for payload in values:
            total += codec.decode_float(payload)  # reprolint: disable=FP001 -- naive control path
        return total
