"""Exact collective reductions on the BSP machine.

The deployment shape for MPI codes: each rank holds a block of the
data; ``exact_allreduce_sum`` gives **every** rank the bit-identical
correctly rounded global sum in ``O(log P)`` supersteps, by exchanging
wire-framed kernel partials through a recursive-doubling butterfly.
Because kernel combining is exact and carry-free, the result is independent of the communication
schedule — the reproducibility property plain float allreduce lacks
(and the reason MPI_SUM results differ across topologies).

The collective is a kernel schedule: any registered
:class:`~repro.kernels.base.SumKernel` supplies fold/combine/round and
the wire format its partials cross the network in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bsp.simulator import BSPMachine, Rank
from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.kernels import SumKernel, get_kernel

__all__ = ["exact_allreduce_sum", "AllreduceResult"]


@dataclass
class AllreduceResult:
    """Outcome of the collective.

    Attributes:
        values: per-rank results (all bit-identical floats).
        supersteps: communication rounds used (``ceil(log2 P)`` for the
            butterfly, +1 for the final barrier bookkeeping).
        messages: total point-to-point messages.
        bytes_sent: total wire volume (P log P accumulators).
        partial: wire frame of rank 0's final (global) accumulator, so
            exact-fraction reductions (:mod:`repro.reduce`) can read
            the exact term sum back instead of only the rounded float.
    """

    values: List[float]
    supersteps: int
    messages: int
    bytes_sent: int
    partial: Optional[bytes] = None


def exact_allreduce_sum(
    blocks: Sequence[np.ndarray],
    *,
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
    kernel: Optional[SumKernel] = None,
) -> AllreduceResult:
    """All ranks obtain the correctly rounded sum of all blocks.

    Args:
        blocks: ``blocks[r]`` is rank ``r``'s local data (any sizes,
            empty allowed). ``P = len(blocks)`` need not be a power of
            two — the butterfly masks out absent partners.
        kernel: the :class:`~repro.kernels.base.SumKernel` whose
            partials cross the network (default ``"sparse"``).

    Recursive doubling: at round ``k`` rank ``r`` exchanges its current
    accumulator with rank ``r XOR 2**k`` (when that rank exists) and
    merges. After ``ceil(log2 P)`` rounds every rank holds the exact
    global accumulator. For non-power-of-two ``P``, ranks whose partner
    is missing forward their state to themselves (no message), which
    preserves correctness at the cost of the same round count as the
    next power of two.
    """
    p = len(blocks)
    if p == 0:
        raise ValueError("need at least one rank")
    if kernel is None:
        kernel = get_kernel("sparse", radix=radix)

    # With non-power-of-two P the plain butterfly double-counts: route
    # through a power-of-two-folded schedule instead — ranks beyond the
    # fold first send their accumulator to `r - fold`, the butterfly
    # runs on the folded power of two, then results fan back out.
    fold = 1 << (p.bit_length() - 1)  # largest power of two <= p
    if p > 1 and fold != p:
        return _allreduce_folded(blocks, p, fold, mode, kernel)
    return _allreduce_butterfly(blocks, p, mode, kernel)


def _allreduce_butterfly(
    blocks: Sequence[np.ndarray],
    p: int,
    mode: str,
    kernel: SumKernel,
) -> AllreduceResult:
    """Power-of-two recursive-doubling schedule."""
    rounds = max(1, math.ceil(math.log2(p))) if p > 1 else 0
    machine = BSPMachine(p)
    root_wire: List[Optional[bytes]] = [None]

    def program(rank: Rank):
        acc = kernel.fold(np.asarray(blocks[rank.rank], dtype=np.float64))
        for k in range(rounds):
            partner = rank.rank ^ (1 << k)
            if partner < rank.size:
                rank.send(partner, kernel.to_wire(acc))
            yield  # superstep barrier
            for _src, payload in rank.recv_all():
                acc = kernel.combine(acc, kernel.from_wire(payload))
        if rank.rank == 0:
            root_wire[0] = kernel.to_wire(acc)
        return kernel.round(acc, mode)

    values = machine.run(program)
    return AllreduceResult(
        values=[float(v) for v in values],
        supersteps=machine.stats.supersteps,
        messages=machine.stats.messages,
        bytes_sent=machine.stats.bytes_sent,
        partial=root_wire[0],
    )


def _allreduce_folded(
    blocks: Sequence[np.ndarray],
    p: int,
    fold: int,
    mode: str,
    kernel: SumKernel,
) -> AllreduceResult:
    """Non-power-of-two schedule: fold extras in, butterfly, fan out."""
    rounds = max(1, math.ceil(math.log2(fold)))
    machine = BSPMachine(p)
    root_wire: List[Optional[bytes]] = [None]

    def program(rank: Rank):
        acc = kernel.fold(np.asarray(blocks[rank.rank], dtype=np.float64))
        r = rank.rank
        # fold-in step
        if r >= fold:
            rank.send(r - fold, kernel.to_wire(acc))
        yield
        if r < fold:
            for _src, payload in rank.recv_all():
                acc = kernel.combine(acc, kernel.from_wire(payload))
            for k in range(rounds):
                partner = r ^ (1 << k)
                rank.send(partner, kernel.to_wire(acc))
                yield
                for _src, payload in rank.recv_all():
                    acc = kernel.combine(acc, kernel.from_wire(payload))
            # fan-out to the folded-away partner
            if r + fold < rank.size:
                rank.send(r + fold, kernel.to_wire(acc))
            yield
            if r == 0:
                root_wire[0] = kernel.to_wire(acc)
            return kernel.round(acc, mode)
        # folded-away ranks idle through the butterfly, then receive
        for _ in range(rounds):
            yield
        yield
        msgs = rank.recv_all()
        final = kernel.from_wire(msgs[-1][1])
        return kernel.round(final, mode)

    values = machine.run(program)
    return AllreduceResult(
        values=[float(v) for v in values],
        supersteps=machine.stats.supersteps,
        messages=machine.stats.messages,
        bytes_sent=machine.stats.bytes_sent,
        partial=root_wire[0],
    )
