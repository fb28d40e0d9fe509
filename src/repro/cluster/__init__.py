"""Distributed exact summation: WAL replay, replication, failover.

The cluster plane promotes the single-process serving plane to N
node processes. Its entire correctness story rides one property the
rest of the repo already proves: exact partial sums merge
associatively, commutatively and bit-identically. Consequences:

* **WAL replay is exact recovery** — re-folding a node's logged
  ingest frames reconstructs its shard state bit-for-bit, whatever
  the original scatter order (:mod:`repro.cluster.wal`);
* **replicas are interchangeable** — members of a placement group
  apply the same sequenced frames, so any of them serves a read
  (:mod:`repro.cluster.replication`);
* **scatter/gather reads are exact** — per-node partials recombine
  through the kernel wire merge, same bits as a single node
  (:mod:`repro.cluster.coordinator`);
* **failover is arithmetic-free** — promotion and healing move
  snapshots and replay frames; no reconciliation logic can disagree
  about a sum (:meth:`.ClusterCoordinator.failover`).

See ``docs/CLUSTER.md`` for the placement ring, the ``WALO`` record
format, and the failover sequence.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    LocalCluster,
    LocalNodeHandle,
    NodeHandle,
    RemoteNodeHandle,
)
from repro.cluster.launcher import (
    NodeProcess,
    NodeSpec,
    load_spec,
    save_spec,
    spawn_local_cluster,
)
from repro.cluster.node import ClusterNode, WalService
from repro.cluster.placement import HashRing, stable_hash
from repro.cluster.replication import ReplicationManager, StreamPlacement
from repro.cluster.wal import WalRecord, WalWriter, WriteAheadLog, iter_wal, read_wal

__all__ = [
    "ClusterCoordinator",
    "LocalCluster",
    "NodeHandle",
    "LocalNodeHandle",
    "RemoteNodeHandle",
    "ClusterNode",
    "WalService",
    "HashRing",
    "stable_hash",
    "ReplicationManager",
    "StreamPlacement",
    "WalRecord",
    "WalWriter",
    "WriteAheadLog",
    "iter_wal",
    "read_wal",
    "NodeSpec",
    "NodeProcess",
    "spawn_local_cluster",
    "save_spec",
    "load_spec",
]
