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
  Every plane runs its schedule through :func:`run_certified`, which
  reruns it once with :meth:`SumKernel.exact_variant` — a kernel whose
  folds never speculate — after a failed proof (the paper's "retry,
  never a wrong bit" discipline), and *stateful* planes fold through
  ``exact_variant()`` from the start.

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
from typing import Any, Callable, Dict, Iterable, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.errors import CertificationError
from repro.util.validation import ensure_float64_array

__all__ = [
    "SumKernel",
    "KernelStream",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "kernel_sum",
    "kernel_fold",
    "run_certified",
]


class SumKernel(ABC):
    """Fold / combine / round / wire over an opaque partial-sum type.

    Attributes:
        name: registry key (``get_kernel(name)``).
        exact: whether every partial is exact (see module docstring).
        escalates_to: name of the kernel :meth:`exact_variant` returns
            for a speculative kernel — what :func:`run_certified` reruns
            with after a :class:`~repro.errors.CertificationError`.
        radix: digit-width configuration shared by all partials.
    """

    name: str = "?"
    exact: bool = True
    escalates_to: str = "sparse"

    def __init__(self, radix: RadixConfig = DEFAULT_RADIX) -> None:
        self.radix = radix

    # -- the protocol ---------------------------------------------------

    @abstractmethod
    def zero(self) -> Any:
        """Partial representing an empty sum."""

    @abstractmethod
    def fold(self, block: np.ndarray) -> Any:
        """One block of float64 values -> one partial (may speculate)."""

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
        return get_kernel(self.escalates_to, radix=self.radix)

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
        bit-exactness guarantee — so this path is always an exact add.

        Returns the number of elements folded.
        """
        arr = ensure_float64_array(values)
        stream.add_array(arr)
        return int(arr.size)

    def describe(self) -> Dict[str, Any]:
        """Registry card (CLI ``plan`` output, selftest)."""
        return {"name": self.name, "exact": self.exact, "w": self.radix.w}


class KernelStream:
    """Counted stateful stream over an exact kernel (ExactRunningSum-shaped).

    Provides the interface the serving plane holds per stream name —
    ``add_array`` / ``merge`` / ``value`` / ``mean`` / ``count`` /
    ``to_bytes`` — on top of an arbitrary exact kernel, so every
    registered kernel can back a shard. The running-sum kernel
    overrides :meth:`SumKernel.new_stream` to return the native
    :class:`~repro.streaming.ExactRunningSum` (which keeps its state in
    exponent bins and writes the same ``KSTR`` snapshot frame).
    """

    __slots__ = ("kernel", "partial", "count")

    def __init__(self, kernel: SumKernel, partial: Any = None, count: int = 0) -> None:
        self.kernel = kernel
        self.partial = partial if partial is not None else kernel.zero()
        self.count = int(count)

    def add_array(self, values: Iterable[float]) -> None:
        # The kernel's fold rejects non-finite values before the stream
        # changes.
        arr = ensure_float64_array(values)
        if arr.size:
            self.partial = self.kernel.combine(self.partial, self.kernel.fold(arr))
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
        from repro.core.rounding import round_fraction

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
_T = TypeVar("_T")


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
    **options: Any,
) -> SumKernel:
    """Instantiate a registered kernel by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {list(kernel_names())}"
        ) from None
    return cls(radix=radix, **options)


def run_certified(
    kernel: SumKernel, mode: str, attempt: Callable[[SumKernel], _T]
) -> _T:
    """Run one plane's schedule; after a failed certificate, rerun exactly.

    ``attempt(k)`` runs the whole schedule — fold, combine, round — with
    kernel ``k``. Certifying fast paths only prove nearest rounding, so
    a directed ``mode`` runs ``kernel.exact_variant()`` from the start.
    Otherwise ``kernel`` runs, and a
    :class:`~repro.errors.CertificationError` from it costs one rerun
    with ``kernel.exact_variant()`` — a retry, never a wrong bit. The
    plane's own accounting (I/Os, PRAM charges) keeps both attempts.
    """
    if mode != "nearest":
        return attempt(kernel.exact_variant())
    try:
        return attempt(kernel)
    except CertificationError:
        return attempt(kernel.exact_variant())


def kernel_sum(
    kernel: SumKernel,
    blocks: Sequence[np.ndarray],
    *,
    mode: str = "nearest",
) -> float:
    """Fold + combine + round a block sequence, escalating on failure.

    The generic batch schedule every plane's serial path reduces to: a
    left fold of per-block partials, one round. A speculative kernel
    whose certification fails is transparently re-run exactly over the
    *same* blocks (:func:`run_certified`), so this function is
    bit-identical to the exact sparse reference for every registered
    kernel.
    """
    return kernel_fold(kernel, blocks, mode=mode)[0]


def kernel_fold(
    kernel: SumKernel,
    blocks: Sequence[np.ndarray],
    *,
    mode: str = "nearest",
) -> Tuple[float, Any]:
    """:func:`kernel_sum` that also returns the merged partial it rounded.

    After a failed certificate the partial is the exact rerun's, so
    only an exact kernel's caller may read it as its own.
    """
    if not kernel.exact:
        # The rerun replays the same blocks; a one-shot iterator would
        # come back empty on the retry.
        blocks = [np.asarray(block, dtype=np.float64) for block in blocks]

    def attempt(k: SumKernel) -> Tuple[float, Any]:
        total: Any = None
        for block in blocks:
            part = k.fold(np.asarray(block, dtype=np.float64))
            total = part if total is None else k.combine(total, part)
        if total is None:
            total = k.zero()
        return k.round(total, mode), total

    return run_certified(kernel, mode, attempt)
