"""The :class:`SumKernel` protocol — the unit of reuse across planes.

The paper's transferability argument (§3-§6) is that one intermediate
representation — the carry-free, associatively combinable sparse
superaccumulator — makes the *same* algorithm run on PRAM,
external-memory, and MapReduce machines. This module states that as an
interface: a kernel is a fold/combine/round/wire quadruple over an
opaque *partial*, and every execution plane (serial, streaming, serve,
MapReduce, extmem, BSP, PRAM) is a schedule of kernel calls.

Every kernel is exact: each partial holds the exact sum of everything
folded into it, so ``round`` never fails and every schedule of folds
and combines rounds to the same bits.

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
(2) a kernel must expose its partial's exact value
(:meth:`SumKernel.exact_fraction`), which exact-fraction finishes
(``norm2``, ``mean``, ``var``) consume.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.util.validation import ensure_float64_array

__all__ = [
    "SumKernel",
    "KernelStream",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "kernel_sum",
    "kernel_fold",
]


class SumKernel(ABC):
    """Fold / combine / round / wire over an opaque partial-sum type.

    Attributes:
        name: registry key (``get_kernel(name)``).
        radix: digit-width configuration shared by all partials.
    """

    name: str = "?"

    def __init__(self, radix: RadixConfig = DEFAULT_RADIX) -> None:
        self.radix = radix

    # -- the protocol ---------------------------------------------------

    @abstractmethod
    def zero(self) -> Any:
        """Partial representing an empty sum."""

    @abstractmethod
    def fold(self, block: np.ndarray) -> Any:
        """One block of float64 values -> one partial."""

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
        """Correctly rounded float value of a partial."""

    @abstractmethod
    def to_wire(self, partial: Any) -> bytes:
        """Serialize a partial as a :mod:`repro.codec` frame."""

    @abstractmethod
    def from_wire(self, payload: bytes) -> Any:
        """Inverse of :meth:`to_wire`; raises
        :class:`~repro.errors.CodecError` on malformed frames."""

    def exact_fraction(self, partial: Any) -> Fraction:
        """Exact value of a partial as a :class:`fractions.Fraction`.

        It backs the exact-fraction finishes (``mean``, ``var``,
        ``norm2``) of :mod:`repro.reduce` and the serving plane.
        """
        raise NotImplementedError(f"kernel {self.name!r} has no exact fraction")

    # -- generic helpers ------------------------------------------------

    def width(self, partial: Any) -> int:
        """Representation size (the paper's sigma) for cost models."""
        return 1

    def new_stream(self) -> "KernelStream":
        """A stateful counted stream over this kernel."""
        return KernelStream(self)

    def stream_from_bytes(self, payload: bytes) -> "KernelStream":
        """Restore a stream snapshot produced by ``new_stream().to_bytes()``."""
        from repro import codec

        count, inner = codec.decode_stream(payload)
        return KernelStream(self, partial=self.from_wire(inner), count=count)

    def fold_into(self, stream: Any, values: Iterable[float]) -> int:
        """Exact bulk fold into a stateful stream (serve-shard path).

        Returns the number of elements folded.
        """
        arr = ensure_float64_array(values)
        stream.add_array(arr)
        return int(arr.size)


class KernelStream:
    """Counted stateful stream over a kernel (ExactRunningSum-shaped).

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


def kernel_sum(
    kernel: SumKernel,
    blocks: Sequence[np.ndarray],
    *,
    mode: str = "nearest",
) -> float:
    """Fold + combine + round a block sequence.

    The generic batch schedule every plane's serial path reduces to: a
    left fold of per-block partials, one round — bit-identical to the
    exact sparse reference for every registered kernel.
    """
    return kernel_fold(kernel, blocks, mode=mode)[0]


def kernel_fold(
    kernel: SumKernel,
    blocks: Sequence[np.ndarray],
    *,
    mode: str = "nearest",
) -> Tuple[float, Any]:
    """:func:`kernel_sum` that also returns the merged partial it rounded."""
    total: Any = None
    for block in blocks:
        part = kernel.fold(np.asarray(block, dtype=np.float64))
        total = part if total is None else kernel.combine(total, part)
    if total is None:
        total = kernel.zero()
    return kernel.round(total, mode), total
