"""The cluster coordinator: routing, scatter/gather reads, failover.

An asyncio router in front of N WAL-backed serve nodes. Two ingest
disciplines coexist, chosen per call:

* **placed** (:meth:`ClusterCoordinator.append`) — the stream's ring
  placement names a primary plus replicas; every member receives the
  same sequenced batch, so each holds the full stream and any one of
  them can serve a read. Sequence numbers make redelivery idempotent.
* **scatter** (:meth:`ClusterCoordinator.scatter`) — batches of any
  ingest kind are striped round-robin across all live nodes for raw
  ingest bandwidth; a read (:meth:`gather_value`, :meth:`gather_norm2`,
  :meth:`gather_moments`) fans out, pulls each node's kernel snapshot,
  and merges the partials through the kernel's
  ``stream_from_bytes``/``merge`` — the same ``KSTR`` wire merge every
  other plane uses, so the recombination is bit-exact.

**Failover.** When a node dies (probe failure or a request-level
transport error) the coordinator removes it from the ring — bumping
the placement epoch — recomputes the placements of every stream the
dead node carried, and *heals* any node newly added to a group by
feeding it a snapshot from a surviving member, stamped with the
stream's sequence high-water mark so subsequent retries dedup
correctly. The acked prefix of the stream is never lost while one
group member survives; and even a whole-group loss is recoverable by
replaying a dead node's WAL file onto the new placement
(:meth:`replay_wal_onto`) — records the survivors already hold are
deduplicated by ``seq``, missing ones are applied. Exactness is what
makes all of this safe: any member's state after the same record set
is bit-identical, whatever the delivery order or interleaving.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.errors import NodeDownError, ServiceError
from repro.kernels import get_kernel
from repro.reduce.ops import get_op
from repro.serve import InProcessClient, ReproServeClient, ServeConfig
from repro.serve.protocol import (
    WIRE_BINARY,
    decode_bytes_field,
    ingest_kind,
    json_batch_request,
)
from repro.serve.service import finish_moments, square_shadow
from repro.util.validation import ensure_float64_array
from repro.cluster.node import ClusterNode, WalService
from repro.cluster.placement import HashRing
from repro.cluster.replication import ReplicationManager, StreamPlacement
from repro.cluster.wal import read_wal

__all__ = [
    "NodeHandle",
    "LocalNodeHandle",
    "RemoteNodeHandle",
    "ClusterCoordinator",
    "LocalCluster",
]


def _as_array(values: Iterable[float]) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return ensure_float64_array(values)
    return np.asarray(list(values), dtype=np.float64)


class NodeHandle:
    """Coordinator-side proxy for one cluster node."""

    def __init__(self, node_id: str) -> None:
        if not node_id:
            raise ValueError("node_id must be a non-empty string")
        self.node_id = node_id
        self.alive = True

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One ok-response; raises the response's typed error, or
        :class:`NodeDownError` when the node cannot be reached."""
        raise NotImplementedError

    async def add_batch(
        self,
        stream: str,
        x: np.ndarray,
        *,
        op: str = "sum",
        y: Optional[np.ndarray] = None,
        seq: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Send one ingest batch of kind ``op``; full response dict.

        The base implementation sends the kind's JSON op; transport-aware
        subclasses ship a single codec ``RBAT`` frame when the
        connection negotiated the binary wire.
        """
        request_op, fields = json_batch_request(stream, x, op=op, y=y, seq=seq)
        return await self.request(request_op, **fields)

    async def close(self) -> None:
        return None

    def down(self, reason: str) -> NodeDownError:
        self.alive = False
        err = NodeDownError(f"node {self.node_id!r} is down: {reason}")
        err.node = self.node_id  # type: ignore[attr-defined]
        return err


class LocalNodeHandle(NodeHandle):
    """In-process node (a :class:`WalService` in this event loop).

    ``kill`` simulates abrupt node death: the handle starts refusing
    requests exactly like a dead TCP peer would, while the node's WAL
    file stays behind for replay — which is the only artifact a real
    crash leaves either.
    """

    def __init__(self, node_id: str, service: WalService) -> None:
        super().__init__(node_id)
        self.service = service
        self._client = InProcessClient(service, wire=WIRE_BINARY)

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        if not self.alive:
            raise self.down("killed")
        return await self._client.request(op, **fields)

    async def add_batch(
        self,
        stream: str,
        x: np.ndarray,
        *,
        op: str = "sum",
        y: Optional[np.ndarray] = None,
        seq: Optional[int] = None,
    ) -> Dict[str, Any]:
        if not self.alive:
            raise self.down("killed")
        return await self._client.request_batch(stream, x, op=op, y=y, seq=seq)

    def kill(self) -> None:
        self.alive = False


class RemoteNodeHandle(NodeHandle):
    """TCP node (a ``repro cluster node`` process)."""

    def __init__(
        self,
        node_id: str,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        wire: str = WIRE_BINARY,
    ) -> None:
        super().__init__(node_id)
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.wire = wire
        self._client: Optional[ReproServeClient] = None

    async def _ensure_client(self) -> ReproServeClient:
        if self._client is None:
            # Binary wire preferred by default; connect() downgrades to
            # JSON-lines automatically against pre-v2 nodes, so mixed
            # fleets work. ``wire="json"`` pins the fallback wire
            # (benchmark baselines, protocol debugging).
            self._client = await asyncio.wait_for(
                ReproServeClient.connect(self.host, self.port, wire=self.wire),
                timeout=self.timeout,
            )
        return self._client

    async def _call(
        self, send: Callable[[ReproServeClient], Awaitable[Dict[str, Any]]]
    ) -> Dict[str, Any]:
        """Run one request on the connection; a transport failure marks
        the node down."""
        if not self.alive:
            raise self.down("marked down")
        try:
            client = await self._ensure_client()
            return await asyncio.wait_for(send(client), timeout=self.timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError, EOFError) as exc:
            await self._drop_client()
            raise self.down(f"{type(exc).__name__}: {exc}") from exc

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        return await self._call(lambda client: client.request(op, **fields))

    async def add_batch(
        self,
        stream: str,
        x: np.ndarray,
        *,
        op: str = "sum",
        y: Optional[np.ndarray] = None,
        seq: Optional[int] = None,
    ) -> Dict[str, Any]:
        return await self._call(
            lambda client: client.request_batch(stream, x, op=op, y=y, seq=seq)
        )

    async def _drop_client(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                await client.close()
            except (ConnectionError, OSError):
                pass

    async def close(self) -> None:
        await self._drop_client()


class ClusterCoordinator:
    """Scatter/gather router + replication + failover over N handles."""

    def __init__(
        self,
        handles: Sequence[NodeHandle],
        *,
        kernel: str = "running",
        radix: RadixConfig = DEFAULT_RADIX,
        replication: int = 2,
    ) -> None:
        if not handles:
            raise ValueError("a cluster needs at least one node")
        ids = [h.node_id for h in handles]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids: {ids}")
        self._handles: Dict[str, NodeHandle] = {h.node_id: h for h in handles}
        self.ring = HashRing(tuple(ids))
        self.replication = ReplicationManager(self.ring, replication=replication)
        self.radix = radix
        # Reads merge cross-node partials through the same exact kernel
        # the nodes fold with; exact_variant() mirrors the service.
        self.kernel_name = kernel
        self._kernel = get_kernel(kernel, radix=radix).exact_variant()
        #: placements of every placed stream seen, by name — the worklist
        #: a failover walks to re-establish replication factor
        self._placements: Dict[str, StreamPlacement] = {}
        self._rr = 0
        self.failovers = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def alive_handles(self) -> List[NodeHandle]:
        return [
            self._handles[node]
            for node in self.ring.nodes
            if self._handles[node].alive
        ]

    def _handle(self, node_id: str) -> NodeHandle:
        return self._handles[node_id]

    def _placement(self, stream: str) -> StreamPlacement:
        cached = self._placements.get(stream)
        if cached is None or cached.epoch != self.ring.version:
            if not len(self.ring):
                raise NodeDownError(
                    f"no live nodes remain to place stream {stream!r}"
                )
            cached = self.replication.placement_for(stream)
            self._placements[stream] = cached
        return cached

    async def ping_all(self) -> Dict[str, bool]:
        """Probe every handle (including ones marked down)."""

        async def probe(handle: NodeHandle) -> bool:
            try:
                await handle.request("ping")
                return True
            except (NodeDownError, ServiceError):
                return False

        handles = list(self._handles.values())
        results = await asyncio.gather(*(probe(h) for h in handles))
        return {h.node_id: ok for h, ok in zip(handles, results)}

    async def check_health(self) -> Dict[str, bool]:
        """Probe everyone and fail over any unresponsive ring member."""
        health = await self.ping_all()
        for node_id, ok in health.items():
            if not ok and node_id in self.ring:
                await self.failover(node_id)
        return health

    # ------------------------------------------------------------------
    # placed (replicated) streams
    # ------------------------------------------------------------------

    async def append(self, stream: str, values: Iterable[float]) -> Dict[str, Any]:
        """Replicated exactly-once ingest of one batch.

        The batch is stamped with the stream's next sequence number and
        sent to every placement member; the call acks when **all**
        members hold it durably. Members that die mid-send trigger
        failover and a retry against the recomputed placement — the
        ``seq`` dedups the members that already applied it.
        """
        arr = _as_array(values)
        if arr.size == 0:
            return {"added": 0, "seq": None, "epoch": self.ring.version}
        seq = self.replication.next_seq(stream)
        for _ in range(len(self._handles) + 1):
            placement = self._placement(stream)
            sends = [
                self._handle(m).add_batch(stream, arr, seq=seq)
                for m in placement.members
            ]
            results = await asyncio.gather(*sends, return_exceptions=True)
            dead = [
                member
                for member, res in zip(placement.members, results)
                if isinstance(res, NodeDownError)
            ]
            hard = [
                res
                for res in results
                if isinstance(res, BaseException)
                and not isinstance(res, NodeDownError)
            ]
            if hard:
                raise hard[0]
            if not dead:
                return {
                    "added": int(arr.size),
                    "seq": seq,
                    "epoch": placement.epoch,
                    "members": list(placement.members),
                }
            for member in dead:
                await self.failover(member)
        raise NodeDownError(
            f"no placement for stream {stream!r} survived ingest retries"
        )

    async def value(self, stream: str, mode: str = "nearest") -> Dict[str, Any]:
        """Read a placed stream from the first live group member."""
        for _ in range(len(self._handles) + 1):
            placement = self._placement(stream)
            for member in placement.members:
                try:
                    response = await self._handle(member).request(
                        "value", stream=stream, mode=mode
                    )
                    response["node"] = member
                    response["epoch"] = placement.epoch
                    return response
                except NodeDownError:
                    await self.failover(member)
                    break  # placement changed; recompute
            else:
                raise NodeDownError(
                    f"every member of stream {stream!r} placement is down"
                )
        raise NodeDownError(f"read of stream {stream!r} exhausted retries")

    # ------------------------------------------------------------------
    # scatter (striped) streams
    # ------------------------------------------------------------------

    async def scatter(
        self,
        stream: str,
        x: Iterable[float],
        *,
        op: str = "sum",
        y: Optional[Iterable[float]] = None,
        chunk: int = 8192,
    ) -> int:
        """Stripe one ingest batch of kind ``op`` across all live nodes.

        Scatter mode trades replication for bandwidth: each input lands
        on exactly one node, and reads recombine the per-node partials
        exactly (:meth:`gather_value`, :meth:`gather_norm2`,
        :meth:`gather_moments`). Raw pre-expansion inputs ride the wire
        (``"pairs"`` needs ``y``); each node expands its stripe with the
        same deterministic expansion, so the union of per-node term
        multisets equals a serial whole-array expansion. Durability
        against the loss of a node comes from that node's WAL, not from
        copies.
        """
        ingest_kind(op, y)
        xa = _as_array(x)
        ya = None if y is None else _as_array(y)
        if ya is not None and xa.shape != ya.shape:
            raise ValueError("length mismatch")
        if xa.size == 0:
            return 0
        handles = self.alive_handles()
        if not handles:
            raise NodeDownError("no live nodes to scatter onto")
        # Contiguous array views, not boxed lists: each slice rides the
        # wire as one codec frame on binary connections.
        sends = []
        for i in range(0, xa.size, chunk):
            handle = handles[self._rr % len(handles)]
            self._rr += 1
            piece_y = None if ya is None else ya[i : i + chunk]
            sends.append(handle.add_batch(stream, xa[i : i + chunk], op=op, y=piece_y))
        responses = await asyncio.gather(*sends)
        return sum(int(r["added"]) for r in responses)

    async def _merged_snapshot(
        self, stream: str, handles: Sequence[NodeHandle]
    ) -> Any:
        """Merge every given node's kernel snapshot of ``stream``."""
        snaps = await asyncio.gather(
            *(h.request("snapshot", stream=stream) for h in handles)
        )
        merged = self._kernel.new_stream()
        for snap in snaps:
            try:
                partial = self._kernel.stream_from_bytes(
                    decode_bytes_field(snap["snapshot"])
                )
            except ValueError as exc:
                raise ServiceError(f"corrupt node snapshot: {exc}") from exc
            merged.merge(partial)
        return merged

    async def gather_value(
        self, stream: str, mode: str = "nearest"
    ) -> Dict[str, Any]:
        """Exact scatter/gather read: merge every live node's partial.

        Each node returns its kernel-stream snapshot (``KSTR`` wire
        bytes); the coordinator decodes them with the kernel's
        ``stream_from_bytes`` and merges — cross-node recombination on
        the same exact-merge property every other plane relies on.
        """
        handles = self.alive_handles()
        if not handles:
            raise NodeDownError("no live nodes to gather from")
        merged = await self._merged_snapshot(stream, handles)
        result = merged.value(mode)
        return {
            "value": result,
            "hex": result.hex(),
            "count": merged.count,
            "nodes": len(handles),
        }

    async def gather_norm2(self, stream: str) -> Dict[str, Any]:
        """Exact Euclidean norm of a ``scatter(op="squares")`` stream.

        Merges the per-node TwoSquare-term partials; the ``norm2`` op's
        finish rounds the square root of the exact sum of squares once
        (nearest only). The norm of nothing is 0.0, never an error.
        """
        handles = self.alive_handles()
        if not handles:
            raise NodeDownError("no live nodes to gather from")
        merged = await self._merged_snapshot(stream, handles)
        value = get_op("norm2").finish_exact(
            [merged.exact_fraction()], merged.count, "nearest"
        )
        return {
            "value": value,
            "hex": value.hex(),
            "count": merged.count,
            "nodes": len(handles),
        }

    async def gather_moments(
        self, stream: str, *, ddof: int = 0, mode: str = "nearest"
    ) -> Dict[str, Any]:
        """Exact mean/variance of a ``scatter(op="observations")`` stream.

        Merges the raw-value partials and the NUL-suffixed square-shadow
        partials, then finishes through the ``mean``/``var`` ops —
        bit-identical to the serial references.
        """
        if mode not in ("nearest", "down", "up", "zero"):
            raise ValueError(f"unknown rounding mode {mode!r}")
        if isinstance(ddof, bool) or not isinstance(ddof, int) or ddof < 0:
            raise ValueError("'ddof' must be a non-negative integer")
        handles = self.alive_handles()
        if not handles:
            raise NodeDownError("no live nodes to gather from")
        merged = await self._merged_snapshot(stream, handles)
        shadow = await self._merged_snapshot(square_shadow(stream), handles)
        moments = finish_moments(
            stream, merged, shadow, ddof, mode, "observations scatter"
        )
        moments["nodes"] = len(handles)
        return moments

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------

    async def failover(self, node_id: str) -> Dict[str, Any]:
        """Remove a dead node, promote replicas, heal thinned groups.

        For every placed stream whose group contained the dead node:
        the ring (minus the dead node) yields a new placement — the
        surviving members keep their state, and any node *new* to the
        group is brought up to the stream's sequence high-water mark
        with a snapshot from a survivor before the group is considered
        healed.
        """
        handle = self._handles.get(node_id)
        if handle is not None:
            handle.alive = False
        if node_id not in self.ring:
            return {"node": node_id, "epoch": self.ring.version, "healed": []}
        affected = [
            p for p in self._placements.values() if node_id in p.members
        ]
        epoch = self.replication.mark_down(node_id)
        self.failovers += 1
        healed: List[str] = []
        for old in affected:
            new = self._placement(old.stream)  # recomputes at new epoch
            survivors = [
                m for m in old.members if m != node_id and self._handle(m).alive
            ]
            joiners = [m for m in new.members if m not in old.members]
            if not survivors:
                # Whole group lost: nothing to heal from — the stream
                # is recoverable only via replay_wal_onto.
                continue
            for joiner in joiners:
                await self._heal(old.stream, survivors[0], joiner)
                healed.append(f"{old.stream}->{joiner}")
        return {"node": node_id, "epoch": epoch, "healed": healed}

    async def _heal(self, stream: str, source: str, target: str) -> None:
        """Copy ``stream`` state source→target, stamped with its seq."""
        snap = await self._handle(source).request("snapshot", stream=stream)
        last = self.replication.last_seq(stream)
        fields: Dict[str, Any] = {
            "stream": stream,
            "snapshot": snap["snapshot"],
        }
        if last >= 0:
            fields["seq"] = last
        await self._handle(target).request("restore", **fields)

    async def replay_wal_onto(
        self,
        wal_path: Union[str, Path],
        *,
        include_unsequenced: bool = False,
    ) -> Dict[str, int]:
        """Replay a (dead) node's WAL through current placements.

        Sequenced records are re-sent with their original ``seq``:
        members that already hold them ack as duplicates, members that
        missed them apply them — after which every affected stream is
        whole again even if the dead node was the last holder of some
        suffix. Unsequenced (scatter) records carry no dedup identity,
        so they are only replayed on request — correct exactly when
        the scattered stream's other partials did not survive either.
        """
        records, truncated = await asyncio.to_thread(read_wal, wal_path)
        applied = 0
        duplicates = 0
        skipped = 0
        for rec in records:
            if not rec.sequenced and not include_unsequenced:
                skipped += 1
                continue
            placement = self._placement(rec.stream)
            members = (
                placement.members if rec.sequenced else
                [h.node_id for h in self.alive_handles()[:1]]
            )
            # The decoded record's inputs re-enter the wire as a codec
            # frame of the same kind whose body bytes match the WAL
            # payload — the replayed bits are the ingested bits, and the
            # receiving node re-runs the identical expansion.
            sends = [
                self._handle(m).add_batch(
                    rec.stream,
                    rec.values,
                    op=rec.op,
                    y=rec.values2,
                    seq=rec.seq if rec.sequenced else None,
                )
                for m in members
            ]
            responses = await asyncio.gather(*sends)
            if any(r.get("duplicate") for r in responses):
                duplicates += 1
            else:
                applied += 1
        return {
            "records": len(records),
            "applied": applied,
            "duplicates": duplicates,
            "skipped": skipped,
            "truncated": int(truncated),
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    async def status(self) -> Dict[str, Any]:
        health = await self.ping_all()
        return {
            "epoch": self.ring.version,
            "nodes": {
                node_id: {
                    "alive": handle.alive,
                    "responding": health[node_id],
                    "on_ring": node_id in self.ring,
                }
                for node_id, handle in self._handles.items()
            },
            "replication": self.replication.replication,
            "kernel": self.kernel_name,
            "failovers": self.failovers,
            "placed_streams": {
                name: list(p.members) for name, p in sorted(self._placements.items())
            },
        }

    async def close(self) -> None:
        await asyncio.gather(*(h.close() for h in self._handles.values()))


class LocalCluster:
    """N in-process WAL-backed nodes + a coordinator, in one loop.

    The workhorse of tests, the selftest, the example and the
    ``cluster`` plane: real WALs on disk (a temp directory unless
    ``base_dir`` is given), real failover — no sockets.
    """

    def __init__(
        self,
        nodes: int = 3,
        *,
        kernel: str = "running",
        radix: RadixConfig = DEFAULT_RADIX,
        replication: int = 2,
        shards: int = 2,
        base_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if base_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            base_dir = self._tmp.name
        self.base_dir = Path(base_dir)
        self.nodes: Dict[str, ClusterNode] = {}
        handles: List[NodeHandle] = []
        for i in range(nodes):
            node_id = f"node-{i}"
            node = ClusterNode(
                node_id,
                config=ServeConfig(shards=shards, kernel=kernel),
                radix=radix,
                wal_path=self.base_dir / f"{node_id}.wal",
            )
            self.nodes[node_id] = node
            handles.append(LocalNodeHandle(node_id, node.service))
        self.coordinator = ClusterCoordinator(
            handles, kernel=kernel, radix=radix, replication=replication
        )

    def wal_path(self, node_id: str) -> Path:
        return self.base_dir / f"{node_id}.wal"

    def kill(self, node_id: str) -> None:
        """Simulate abrupt node death (handle refuses, WAL remains)."""
        handle = self.coordinator._handles[node_id]
        assert isinstance(handle, LocalNodeHandle)
        handle.kill()

    async def start(self) -> None:
        for node in self.nodes.values():
            await node.start()

    async def close(self) -> None:
        await self.coordinator.close()
        for node in self.nodes.values():
            await node.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()
