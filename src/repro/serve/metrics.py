"""Service metrics: request counters, fold sizes, concurrency, latency.

Everything here is plain in-process bookkeeping updated from the
event loop (no locks needed: asyncio callbacks don't preempt each
other). ``snapshot()`` renders one JSON-safe dict served verbatim by
the ``stats`` endpoint.

Latency quantiles come from a fixed-size ring reservoir over the most
recent requests — O(1) memory, O(k log k) only at snapshot time —
which is the right trade for a stats endpoint hit far less often than
the hot path it observes.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Dict, List

__all__ = ["LatencyReservoir", "ServiceMetrics"]


class LatencyReservoir:
    """Ring buffer of the last ``size`` request latencies (seconds)."""

    def __init__(self, size: int = 4096) -> None:
        if size < 1:
            raise ValueError("reservoir size must be >= 1")
        self._slots: List[float] = [0.0] * size
        self._size = size
        self._count = 0

    def record(self, seconds: float) -> None:
        self._slots[self._count % self._size] = float(seconds)
        self._count += 1

    def __len__(self) -> int:
        return min(self._count, self._size)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained window (0.0 if empty)."""
        n = len(self)
        if n == 0:
            return 0.0
        ordered = sorted(self._slots[:n])
        rank = min(n - 1, max(0, int(round(p / 100.0 * (n - 1)))))
        return ordered[rank]


class ServiceMetrics:
    """Counters and gauges for one service instance."""

    def __init__(self, *, reservoir_size: int = 4096) -> None:
        self.started = time.monotonic()
        self.requests_total = 0
        self.errors_total = 0
        self.requests_by_op: Counter = Counter()
        self.values_ingested = 0
        self.batches_folded = 0
        #: Requests inside ``ReproService.handle`` now, and the peak of
        #: that number. Folds run inline, so only requests that await
        #: (a WAL append, a thread hop) overlap; the server's
        #: per-connection ``max_inflight`` bounds it per connection.
        self.in_handle = 0
        self.queue_depth_peak = 0
        #: Ingest wire observability: per-mode frame / byte / value
        #: tallies for the value-bearing ops that arrived on each wire.
        self.wire_frames: Counter = Counter()
        self.wire_bytes: Counter = Counter()
        self.wire_values: Counter = Counter()
        self.latency = LatencyReservoir(reservoir_size)

    # -- recording hooks -------------------------------------------------

    def record_request(self, op: str, seconds: float, *, ok: bool) -> None:
        self.requests_total += 1
        self.requests_by_op[op] += 1
        if not ok:
            self.errors_total += 1
        self.latency.record(seconds)

    def record_fold(self, values: int) -> None:
        """One shard fold of ``values`` floats."""
        self.batches_folded += 1
        self.values_ingested += values

    def record_wire_frame(self, mode: str, payload_bytes: int, values: int) -> None:
        """One value-bearing ingest frame arrived on wire ``mode``.

        ``payload_bytes`` is the frame payload size as read off the
        socket (JSON text or binary batch alike), ``values`` the float64
        count it carried — together they yield bytes/sec, frames/sec and
        mean values-per-frame per wire in :meth:`snapshot`.
        """
        self.wire_frames[mode] += 1
        self.wire_bytes[mode] += payload_bytes
        self.wire_values[mode] += values

    def begin_request(self) -> None:
        """A request entered the service's ``handle``."""
        self.in_handle += 1
        if self.in_handle > self.queue_depth_peak:
            self.queue_depth_peak = self.in_handle

    def end_request(self) -> None:
        """A request left the service's ``handle``."""
        self.in_handle -= 1

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view for the ``stats`` endpoint."""
        folds = self.batches_folded
        uptime = time.monotonic() - self.started
        wire: Dict[str, Dict[str, float]] = {}
        for mode in sorted(self.wire_frames):
            frames = self.wire_frames[mode]
            wire[mode] = {
                "frames": frames,
                "payload_bytes": self.wire_bytes[mode],
                "values": self.wire_values[mode],
                "frames_per_s": frames / uptime if uptime > 0 else 0.0,
                "payload_bytes_per_s": (
                    self.wire_bytes[mode] / uptime if uptime > 0 else 0.0
                ),
                "mean_values_per_frame": (
                    self.wire_values[mode] / frames if frames else 0.0
                ),
            }
        return {
            "uptime_s": uptime,
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "requests_by_op": dict(self.requests_by_op),
            "values_ingested": self.values_ingested,
            "batches_folded": folds,
            "mean_batch_values": (self.values_ingested / folds) if folds else 0.0,
            "queue_depth_peak": self.queue_depth_peak,
            "wire": wire,
            "latency_p50_ms": self.latency.percentile(50) * 1e3,
            "latency_p99_ms": self.latency.percentile(99) * 1e3,
        }
