"""Primary/replica stream placement and per-stream sequencing.

A *placed* stream lives on a replication group: the first node the
ring yields is the primary, the next ``replication - 1`` distinct
nodes are replicas. Every member applies the **same** sequenced WAL
frames — not a diverging copy — so any member's state is bit-identical
to any other's, and a read can be served by whichever member is alive.
This is the luxury the exact representation buys: replicas need no
anti-entropy protocol because identical inputs give identical bits.

Sequence numbers are allocated here, per stream, monotonically. They
ride inside the ``WALO`` record and the ingest request (an ``RBAT``
frame or its JSON op), giving nodes an idempotency key: a retried or
replayed frame whose ``seq`` is at or below a node's high-water mark
is acknowledged without being re-applied. That turns the coordinator's at-least-once delivery (retry
after failover, WAL replay onto survivors) into exactly-once folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster.placement import HashRing

__all__ = ["StreamPlacement", "ReplicationManager"]


@dataclass(frozen=True)
class StreamPlacement:
    """Where one stream lives, at one ring epoch.

    Attributes:
        stream: stream name.
        epoch: ring version the placement was computed at; stale
            placements (epoch < ring.version) must be recomputed.
        primary: first choice for writes and reads.
        replicas: remaining group members, in ring order.
    """

    stream: str
    epoch: int
    primary: str
    replicas: Tuple[str, ...]

    @property
    def members(self) -> Tuple[str, ...]:
        return (self.primary,) + self.replicas


class ReplicationManager:
    """Placement + sequencing bookkeeping for one coordinator."""

    def __init__(self, ring: HashRing, *, replication: int = 2) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.ring = ring
        self.replication = replication
        self._seqs: Dict[str, int] = {}

    def placement_for(self, stream: str) -> StreamPlacement:
        """Current-epoch placement for ``stream``."""
        members = self.ring.placement(stream, self.replication)
        return StreamPlacement(
            stream=stream,
            epoch=self.ring.version,
            primary=members[0],
            replicas=members[1:],
        )

    def next_seq(self, stream: str) -> int:
        """Allocate the next per-stream sequence number (0-based)."""
        seq = self._seqs.get(stream, -1) + 1
        self._seqs[stream] = seq
        return seq

    def last_seq(self, stream: str) -> int:
        """Highest allocated seq for ``stream`` (-1 if none)."""
        return self._seqs.get(stream, -1)

    def mark_down(self, node: str) -> int:
        """Remove a failed node from the ring; returns the new epoch."""
        self.ring.remove(node)
        return self.ring.version
