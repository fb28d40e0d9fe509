"""The fast PRAM summation algorithm (paper Section 3, Theorem 2).

Pipeline, with each step's model cost charged to a
:class:`~repro.pram.machine.PRAM` accountant:

1. build the ``ceil(log n)``-depth summation tree over the inputs
   (implicit; the level lists below *are* the tree);
2. convert each leaf to an (alpha, beta)-regularized sparse
   superaccumulator — O(1) time, O(n) work;
3.-5. bottom-up merge of the children's exponent lists with the
   carry-free component sum at every internal node. Merging a level is
   rank-based parallel merging (all nodes concurrently: round cost is
   the level max, work the level sum); the duplicate handling of step 4
   is the unique-position combine inside
   :meth:`SparseSuperaccumulator.add`;
6. propagate signed carries at the root by a parallel-prefix
   composition of the per-position carry lookup maps ("a simple lookup
   table based on whether the input carry bit is a -1, 0, or 1");
7. round the non-overlapping result to a float.

The simulated round count is ``O(log^2 n)`` because step 3 merges level
by level instead of cascading (see DESIGN.md §5.4); total work is the
Theorem 2 bound ``O(n log n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.rounding import round_digits
from repro.kernels import SumKernel, get_kernel
from repro.pram.machine import PRAM, PRAMStats
from repro.pram.primitives import parallel_prefix
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = ["pram_exact_sum", "pram_carry_propagate", "PRAMSumResult"]


@dataclass
class PRAMSumResult:
    """Outcome of a PRAM summation run.

    Attributes:
        value: the faithfully (correctly) rounded float sum.
        stats: the machine cost (rounds / work / processor width).
        root_active: active component count of the root accumulator —
            the ``sigma(n)`` the external-memory section reasons about.
        partial: wire frame of the root accumulator, so exact-fraction
            reductions (:mod:`repro.reduce`) can read the exact term
            sum back instead of only the rounded float.
    """

    value: float
    stats: PRAMStats
    root_active: int
    partial: Optional[bytes] = None


class _CarryCompose:
    """Composition of carry lookup maps, for :func:`parallel_prefix`.

    A map is a length-3 int64 row ``m`` with ``m[c + 1]`` the carry-out
    for carry-in ``c in {-1, 0, 1}``; composition applies the earlier
    map first.
    """

    identity = np.array([-1, 0, 1], dtype=np.int64)

    def __call__(self, earlier: np.ndarray, later: np.ndarray) -> np.ndarray:
        return np.take_along_axis(later, earlier + 1, axis=1)


def pram_carry_propagate(
    machine: PRAM, dense_digits: np.ndarray, radix: RadixConfig = DEFAULT_RADIX
) -> np.ndarray:
    """Section 3 step 6 as a parallel prefix: regularized -> non-overlapping.

    Each position's carry-out is a monotone function of its carry-in
    taking values in ``{-1, 0, 1}``; those per-position lookup tables
    compose associatively, so an exclusive Blelloch scan delivers every
    carry-in in ``O(log m)`` rounds and ``O(m)`` work. Output digits lie
    in the balanced non-redundant range ``[-R/2, R/2 - 1]`` and gain one
    top position for the final carry.
    """
    d = np.asarray(dense_digits, dtype=np.int64)
    if d.size == 0:
        return np.zeros(1, dtype=np.int64)
    w = radix.w
    half = np.int64(radix.R >> 1)
    # Per-position lookup tables: carry_out(c) = floor((d + c + R/2)/R).
    cin = np.array([-1, 0, 1], dtype=np.int64)
    machine.charge_parallel(d.size)
    tables = (d[:, None] + cin[None, :] + half) >> np.int64(w)
    carry_in_maps = parallel_prefix(
        machine, tables, op=_CarryCompose(), inclusive=False
    )
    carries_in = carry_in_maps[:, 1]  # evaluate composed prefix at c = 0
    machine.charge_parallel(d.size)
    tot = d + carries_in
    rem = ((tot + half) % np.int64(radix.R)) - half
    final_carry = (tot[-1] - rem[-1]) >> np.int64(w)
    out = np.empty(d.size + 1, dtype=np.int64)
    out[:-1] = rem
    out[-1] = final_carry
    return out


def _merge_level(machine: PRAM, nodes: List, kernel: SumKernel) -> List:
    """Sum adjacent node pairs; charge level cost as (max rounds, sum work)."""
    nxt: List = []
    level_rounds = 0
    level_work = 0
    level_procs = 0
    for i in range(0, len(nodes) - 1, 2):
        a, b = nodes[i], nodes[i + 1]
        m = kernel.width(a) + kernel.width(b)
        merged = kernel.combine(a, b)
        # Cost model: rank-based merge of the two exponent lists
        # (O(log m) rounds, O(m log m) work via per-element binary
        # search — Lemma 3) plus the O(1)-depth carry-free digit sum.
        depth = max(1, math.ceil(math.log2(max(m, 2))))
        level_rounds = max(level_rounds, depth + 1)
        level_work += m * depth + m
        level_procs += max(m, 1)
        nxt.append(merged)
    if len(nodes) % 2:
        nxt.append(nodes[-1])
    machine.charge(rounds=level_rounds, work=level_work, processors=level_procs)
    return nxt


def pram_exact_sum(
    values: Iterable[float],
    *,
    radix: RadixConfig = DEFAULT_RADIX,
    machine: Optional[PRAM] = None,
    mode: str = "nearest",
    cascade: bool = False,
    kernel: Optional[SumKernel] = None,
) -> PRAMSumResult:
    """Faithfully rounded sum on the simulated EREW PRAM (Theorem 2).

    Args:
        values: finite float64 inputs (the leaves of the tree).
        radix: digit configuration of the superaccumulators.
        kernel: the :class:`~repro.kernels.base.SumKernel` whose
            partials live at the tree nodes (default ``"sparse"``, the
            paper's algorithm). Kernels whose root partial exposes
            dense regularized digits run the Section 3 carry-propagate
            finish; others round through the kernel directly.
        machine: accountant to charge; a fresh one is created (and
            returned in the result) when omitted.
        mode: rounding direction for the final conversion.
        cascade: account step 3 with the pipelined (Cole-style) merge
            sort of :mod:`repro.pram.cole` instead of level-by-level
            merging. With the cascade, every node's sorted exponent
            list (and its cross-ranks) exists after ``O(log n)`` total
            rounds, so the per-level component sums cost O(1) rounds
            each (Lemma 3 with ranks in hand) — the theorem's
            ``O(log n)`` time end to end. Data movement still runs the
            level merges (results are identical); the cascade itself
            genuinely executes too. Note that for binary64 inputs the
            active-component count sigma is format-bounded (~70), so
            level-by-level is already ``O(log n * log sigma)`` and the
            cascade's advantage is a constant; it becomes asymptotic
            exactly when sigma grows with n — the arbitrary-precision
            regime (see :mod:`repro.core.apfloat`), where per-level
            merge depth is ``Theta(log n)`` and cascading is what
            rescues the ``O(log n)`` total.
    """
    arr = ensure_float64_array(values)
    check_finite_array(arr)
    m = machine if machine is not None else PRAM()
    if kernel is None:
        kernel = get_kernel("sparse", radix=radix)

    # Steps 1-2: tree build + leaf conversion (O(1) rounds, O(n) work).
    m.charge(rounds=1, work=int(arr.size), processors=int(arr.size))
    nodes = [kernel.fold_scalar(float(x)) for x in arr]
    m.charge(rounds=1, work=int(arr.size), processors=int(arr.size))

    if not nodes:
        return PRAMSumResult(0.0, m.stats, 0)

    if cascade and not hasattr(nodes[0], "indices"):
        raise ValueError(
            "cascade accounting needs sparse exponent lists; "
            f"kernel {kernel.name!r} has none"
        )
    if cascade and len(nodes) > 1:
        # Step 3 via the pipeline: builds every node's sorted exponent
        # list in O(log n) stages; its rounds/work are charged by the
        # cole machine and folded in here.
        from repro.pram.cole import cole_merge_sort

        keys = np.repeat(
            np.concatenate([acc.indices for acc in nodes if acc.active_count]
                           or [np.zeros(1, dtype=np.int64)]),
            1,
        ).astype(np.float64)
        child = m.fork()
        cole_merge_sort(child, keys, check_cover=False)
        m.join(child)
        # Steps 4-5 with ranks available: O(1) rounds per level.
        while len(nodes) > 1:
            nxt = []
            work = 0
            procs = 0
            for i in range(0, len(nodes) - 1, 2):
                merged = kernel.combine(nodes[i], nodes[i + 1])
                work += kernel.width(merged)
                procs += max(kernel.width(merged), 1)
                nxt.append(merged)
            if len(nodes) % 2:
                nxt.append(nodes[-1])
            m.charge(rounds=1, work=work, processors=procs)
            nodes = nxt
        root = nodes[0]
    else:
        # Steps 3-5: bottom-up carry-free summation, level by level.
        while len(nodes) > 1:
            nodes = _merge_level(m, nodes, kernel)
        root = nodes[0]

    root_width = kernel.width(root)
    if hasattr(root, "to_dense_digits"):
        # Step 6: signed-carry propagation by parallel prefix.
        dense, base = root.to_dense_digits()
        nonoverlap = pram_carry_propagate(m, dense, radix)

        # Step 7: locate the leading component and round (O(log sigma)
        # rounds via a max-reduction; O(sigma) work).
        sigma = int(nonoverlap.size)
        m.charge(
            rounds=max(1, math.ceil(math.log2(max(sigma, 2)))),
            work=sigma,
            processors=sigma,
        )
        value = round_digits(nonoverlap, base, radix, mode)
        return PRAMSumResult(value, m.stats, root_width, kernel.to_wire(root))

    # Kernels without dense regularized digits round directly.
    sigma = max(1, root_width)
    m.charge(
        rounds=max(1, math.ceil(math.log2(max(sigma, 2)))),
        work=sigma,
        processors=sigma,
    )
    value = kernel.round(root, mode)
    return PRAMSumResult(value, m.stats, root_width, kernel.to_wire(root))
