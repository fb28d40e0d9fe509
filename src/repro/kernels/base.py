"""The :class:`SumKernel` protocol — the unit of reuse across planes.

The paper's transferability argument (§3-§6) is that one intermediate
representation — the carry-free, associatively combinable sparse
superaccumulator — makes the *same* algorithm run on PRAM,
external-memory, and MapReduce machines. This module states that as an
interface: a kernel is a fold/combine/round/wire quadruple over an
opaque *partial*, and every execution plane (serial, streaming, serve,
MapReduce, extmem, BSP, PRAM) is a schedule of kernel calls.

Two kinds of kernel exist:

* **exact** kernels (``exact = True``): every partial holds the exact
  sum of everything folded into it; ``round`` never fails.
* **speculative** kernels (``exact = False``): ``fold`` may take a
  certified fast path whose partial carries an error *bound* instead of
  full exactness; ``round`` performs the certification and raises
  :class:`~repro.errors.CertificationError` when the proof fails.
  Callers escalate to :attr:`SumKernel.escalates_to` (the paper's
  "retry, never a wrong bit" discipline — see :func:`kernel_sum`), and
  *stateful* planes use :meth:`SumKernel.exact_variant`, which returns
  a kernel whose folds never speculate.

Partials may be combined **in place**: ``combine(a, b)`` may mutate and
return ``a`` (it must never corrupt ``b``'s value). Callers that need
``a`` afterwards must not reuse it.

Since PR 9 the values a kernel folds are interpreted as **terms of an
error-free expansion**, not necessarily user data: the reduction layer
(:mod:`repro.reduce`) expands ops like ``dot``/``norm2``/``var`` into
TwoProduct/TwoSquare term streams whose exact sum *is* the true
mathematical quantity, then folds those terms through any registered
kernel. Kernels need no changes for this — folding terms is folding
floats — but two consequences are part of the contract: (1) a kernel
must not assume the stream resembles a user distribution (expansion
error terms are systematically tiny and pair with large partners), and
(2) exact-fraction finishes (``norm2``, ``mean``, ``var``) are only
hosted by kernels with ``exact = True`` — a speculative kernel's
correctly rounded float is not the exact fraction those finishes
consume (:func:`repro.reduce.kernel_supports`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, TypeVar

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.errors import CertificationError
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = [
    "SumKernel",
    "KernelStream",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "kernel_sum",
]


class SumKernel(ABC):
    """Fold / combine / round / wire over an opaque partial-sum type.

    Attributes:
        name: registry key (``get_kernel(name)``).
        exact: whether every partial is exact (see module docstring).
        escalates_to: kernel name callers fall back to after a
            :class:`~repro.errors.CertificationError`.
        radix: digit-width configuration shared by all partials.
        counters: optional :class:`~repro.adaptive.engine.TierCounters`
            receiving fold telemetry (shared with service metrics).
    """

    name: str = "?"
    exact: bool = True
    escalates_to: str = "sparse"

    def __init__(
        self,
        radix: RadixConfig = DEFAULT_RADIX,
        counters: Optional[Any] = None,
    ) -> None:
        self.radix = radix
        self.counters = counters

    # -- the protocol ---------------------------------------------------

    @abstractmethod
    def zero(self) -> Any:
        """Partial representing an empty sum."""

    @abstractmethod
    def fold(self, block: np.ndarray) -> Any:
        """One block of float64 values -> one partial (may speculate)."""

    def fold_exact(self, block: np.ndarray) -> Any:
        """Like :meth:`fold` but never speculative; partials from this
        path are exact regardless of :attr:`exact`. Default: ``fold``.
        """
        return self.fold(block)

    def fold_scalar(self, x: float) -> Any:
        """One value -> one partial (PRAM leaves). Default: 1-fold.

        Kernels with a cheaper or canonical single-value constructor
        (sparse's ``from_float``) override this.
        """
        return self.fold(np.array([x], dtype=np.float64))

    @abstractmethod
    def combine(self, a: Any, b: Any) -> Any:
        """Associative merge of two partials (may consume ``a``)."""

    @abstractmethod
    def round(self, partial: Any, mode: str = "nearest") -> float:
        """Rounded float value of a partial.

        Speculative kernels certify here and raise
        :class:`~repro.errors.CertificationError` if the partial's
        error bound cannot prove correct rounding.
        """

    @abstractmethod
    def to_wire(self, partial: Any) -> bytes:
        """Serialize a partial as a :mod:`repro.codec` frame."""

    @abstractmethod
    def from_wire(self, payload: bytes) -> Any:
        """Inverse of :meth:`to_wire`; raises
        :class:`~repro.errors.CodecError` on malformed frames."""

    def exact_fraction(self, partial: Any) -> Fraction:
        """Exact value of a partial as a :class:`fractions.Fraction`.

        Defined for exact kernels (it backs the serving plane's exact
        ``mean``); speculative kernels raise.
        """
        raise NotImplementedError(f"kernel {self.name!r} has no exact fraction")

    # -- generic helpers ------------------------------------------------

    def width(self, partial: Any) -> int:
        """Representation size (the paper's sigma) for cost models."""
        return 1

    def exact_variant(self) -> "SumKernel":
        """A kernel whose ``fold`` never speculates (self if exact).

        Stateful planes (streaming, serve shards) fold into long-lived
        state where a certified *rounded* value could never be
        un-folded; they construct their kernel through this.
        """
        if self.exact:
            return self
        return get_kernel(self.escalates_to, radix=self.radix, counters=self.counters)

    def new_stream(self) -> "KernelStream":
        """A stateful counted stream over this kernel (exact folds)."""
        return KernelStream(self.exact_variant())

    def stream_from_bytes(self, payload: bytes) -> "KernelStream":
        """Restore a stream snapshot produced by ``new_stream().to_bytes()``."""
        from repro import codec

        kernel = self.exact_variant()
        count, inner = codec.decode_stream(payload)
        return KernelStream(kernel, partial=kernel.from_wire(inner), count=count)

    def fold_into(self, stream: Any, values: Iterable[float]) -> int:
        """Exact bulk fold into a stateful stream (serve-shard path).

        Stateful streams must stay exact — a certified *rounded* float
        cannot be folded into an exact accumulator without breaking the
        bit-exactness guarantee — so this path is always an exact bulk
        add, counted as a Tier-2 fold in the shared telemetry.

        Returns the number of elements folded.
        """
        arr = ensure_float64_array(values)
        stream.add_array(arr)
        if self.counters is not None:
            self.counters.record_bulk_fold()
        return int(arr.size)

    def describe(self) -> Dict[str, Any]:
        """Registry card (CLI ``plan`` output, selftest)."""
        return {"name": self.name, "exact": self.exact, "w": self.radix.w}


class KernelStream:
    """Counted stateful stream over any kernel (ExactRunningSum-shaped).

    Provides the interface the serving plane holds per stream name —
    ``add_array`` / ``merge`` / ``value`` / ``mean`` / ``count`` /
    ``to_bytes`` — on top of an arbitrary exact kernel, so every
    registered kernel can back a shard. The running-sum kernel
    overrides :meth:`SumKernel.new_stream` to return the native
    :class:`~repro.streaming.ExactRunningSum` (which keeps its deferred
    pending buffer and writes the same ``KSTR`` snapshot frame).
    """

    __slots__ = ("kernel", "partial", "count")

    def __init__(self, kernel: SumKernel, partial: Any = None, count: int = 0) -> None:
        self.kernel = kernel
        self.partial = partial if partial is not None else kernel.zero()
        self.count = int(count)

    def add_array(self, values: Iterable[float]) -> None:
        arr = ensure_float64_array(values)
        check_finite_array(arr)
        if arr.size:
            self.partial = self.kernel.combine(
                self.partial, self.kernel.fold_exact(arr)
            )
            self.count += int(arr.size)

    def merge(self, other: "KernelStream") -> None:
        # combine may consume its first argument only, so the other
        # stream's partial is never corrupted by this.
        self.partial = self.kernel.combine(self.partial, other.partial)
        self.count += other.count

    def value(self, mode: str = "nearest") -> float:
        return self.kernel.round(self.partial, mode)

    def mean(self) -> float:
        from repro.errors import EmptyStreamError
        from repro.stats import round_fraction

        if self.count == 0:
            raise EmptyStreamError("mean of empty stream")
        return round_fraction(self.exact_fraction() / self.count)

    def exact_fraction(self) -> Fraction:
        return self.kernel.exact_fraction(self.partial)

    def to_bytes(self) -> bytes:
        from repro import codec

        return codec.encode_stream(self.count, self.kernel.to_wire(self.partial))


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., SumKernel]] = {}

_KernelClass = TypeVar("_KernelClass", bound=Callable[..., SumKernel])


def register_kernel(cls: _KernelClass) -> _KernelClass:
    """Class decorator: register a kernel under its ``name``."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name or name == "?":
        raise ValueError(f"kernel class {cls!r} needs a distinct 'name'")
    _REGISTRY[name] = cls
    return cls


def kernel_names() -> Sequence[str]:
    """Sorted names of every registered kernel."""
    return tuple(sorted(_REGISTRY))


def get_kernel(
    name: str,
    *,
    radix: RadixConfig = DEFAULT_RADIX,
    counters: Optional[Any] = None,
    **options: Any,
) -> SumKernel:
    """Instantiate a registered kernel by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {list(kernel_names())}"
        ) from None
    return cls(radix=radix, counters=counters, **options)


def kernel_sum(
    kernel: SumKernel,
    blocks: Sequence[np.ndarray],
    *,
    mode: str = "nearest",
) -> float:
    """Fold + combine + round a block sequence, escalating on failure.

    The generic batch schedule every plane's serial path reduces to: a
    left fold of per-block partials, one round. A speculative kernel
    whose certification fails is transparently re-run through its
    :attr:`~SumKernel.escalates_to` kernel over the *same* blocks — a
    retry, never a wrong bit — so this function is bit-identical to the
    exact sparse reference for every registered kernel.
    """
    if mode != "nearest" and not kernel.exact:
        # Certifying fast paths only prove nearest rounding.
        kernel = kernel.exact_variant()
    if not kernel.exact:
        # Escalation replays the same blocks; a one-shot iterator would
        # come back empty on the retry.
        blocks = [np.asarray(block, dtype=np.float64) for block in blocks]
    total: Any = None
    for block in blocks:
        part = kernel.fold(np.asarray(block, dtype=np.float64))
        total = part if total is None else kernel.combine(total, part)
    if total is None:
        total = kernel.zero()
    try:
        return kernel.round(total, mode)
    except CertificationError:
        fallback = get_kernel(
            kernel.escalates_to, radix=kernel.radix, counters=kernel.counters
        )
        return kernel_sum(fallback, blocks, mode=mode)
