"""Partitions of the service's accumulator state.

Each :class:`AccumulatorShard` owns a private ``{stream name ->
stream}`` map — streams come from the configured
:class:`~repro.kernels.base.SumKernel`'s ``new_stream()`` (the native
:class:`~repro.streaming.ExactRunningSum` for the default ``running``
kernel, a :class:`~repro.kernels.base.KernelStream` otherwise). Its two
operations run synchronously on the caller:

* **fold** — append an already-validated float64 array to a stream.
  The stream itself stages small writes and deposits them together
  (:data:`repro.streaming.DEPOSIT_MIN`), so there is nothing to gain
  from batching folds here.
* **call** — run an arbitrary function against the shard's stream map
  (reads, merges, drains).

The service calls both from the event loop thread, which is the single
writer, so the hot path needs no locks, no queue and no futures. A read
that calls every shard in turn, with no ``await`` in between, observes
every fold that ran before it and none that ran after.

Exactness makes this partitioning trivial where a float service would
be wrong: superaccumulator addition commutes and merges are exact, so a
stream's value may be spread across shards as partial sums and
recombined at read time with a bit-identical result regardless of
which shard saw which update in which order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.kernels import SumKernel, get_kernel
from repro.serve.metrics import ServiceMetrics

__all__ = ["AccumulatorShard"]


class AccumulatorShard:
    """One partition of the service's accumulator registry."""

    def __init__(
        self,
        shard_id: int,
        *,
        metrics: Optional[ServiceMetrics] = None,
        radix: RadixConfig = DEFAULT_RADIX,
        kernel: Optional[SumKernel] = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.radix = radix
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._streams: Dict[str, Any] = {}
        if kernel is None:
            kernel = get_kernel("running", radix=radix)
        self._kernel = kernel

    def fold(self, stream: str, array: np.ndarray) -> int:
        """Append a validated float64 array to ``stream``; returns its size.

        The array must already be finite float64: the service layer
        validates before routing.
        """
        rs = self._streams.get(stream)
        if rs is None:
            rs = self._streams[stream] = self._kernel.new_stream()
        self._kernel.fold_into(rs, array)
        self.metrics.record_fold(int(array.size))
        return int(array.size)

    def call(self, fn: Callable[[Dict[str, Any]], Any]) -> Any:
        """Run ``fn`` against the stream map and return its result."""
        return fn(self._streams)
