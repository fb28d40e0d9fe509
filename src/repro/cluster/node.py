"""A cluster node: a :class:`ReproService` with a WAL and dedup state.

:class:`WalService` extends the serve plane's service with the two
things a cluster member needs:

* **durability** — every accepted ingest is appended to the node's
  write-ahead log *before* it is folded, so a crash loses nothing that
  was acknowledged; :meth:`recover` replays the log into shard state,
  bit-identically, because exact folds commute;
* **idempotency** — sequenced requests (the coordinator stamps each
  replicated batch with a per-stream ``seq``) are applied at most
  once. A retry after failover, or a WAL replay of records the node
  already holds, is acknowledged as a duplicate without re-folding.
  This turns at-least-once delivery into exactly-once arithmetic.

Unsequenced ingest (plain serve traffic, scatter-mode striping) is
still WAL-logged for crash recovery of the node itself; it simply has
no cross-node dedup identity.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro import codec
from repro.errors import ServiceError
from repro.serve.protocol import KIND_OF_OP
from repro.serve.service import ReproService, ServeConfig, _require_stream
from repro.cluster.wal import WalWriter, read_wal

__all__ = ["WalService", "ClusterNode"]

#: Ops whose handler awaits a WAL append when the node has a WAL.
_LOGGED_OPS = frozenset({"add", "add_block", *KIND_OF_OP})


def _seq_of(request: Dict[str, Any]) -> Optional[int]:
    """Validated optional ``seq`` field (None = unsequenced)."""
    seq = request.get("seq")
    if seq is None:
        return None
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        raise ServiceError("'seq' must be a non-negative integer")
    return seq


class WalService(ReproService):
    """Serve-plane service with write-ahead logging and seq dedup."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        radix: RadixConfig = DEFAULT_RADIX,
        wal_path: Optional[Union[str, "Any"]] = None,
    ) -> None:
        super().__init__(config, radix=radix)
        self._wal: Optional[WalWriter] = (
            WalWriter(wal_path) if wal_path is not None else None
        )
        #: per-stream high-water mark of applied sequence numbers
        self._applied: Dict[str, int] = {}
        self._ops["cluster_info"] = self._op_cluster_info

    def may_suspend(self, request: Dict[str, Any]) -> bool:
        """Ingest awaits its WAL append; every other op runs inline."""
        return self._wal is not None and request.get("op") in _LOGGED_OPS

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        if self._wal is not None:
            self._wal.start()

    async def close(self) -> None:
        # Flush the WAL first: everything acknowledged must be on disk
        # before the service closes.
        if self._wal is not None:
            await self._wal.stop()
        await super().close()

    async def recover(self) -> Dict[str, Any]:
        """Replay this node's WAL into shard state (call after start).

        Bit-identity is free: the same records fold to the same exact
        state whatever the shard routing, so recovery does not need to
        reproduce the pre-crash scatter pattern.
        """
        if self._wal is None:
            return {"records": 0, "truncated": False}
        records, truncated = await asyncio.to_thread(read_wal, self._wal.path)
        applied = 0
        # Stage high-water marks locally and publish them after the
        # replay loop: a fold that raised mid-replay must not leave a
        # claimed-but-unfolded seq behind, or it would permanently
        # poison the dedup table against retrying the same record.
        marks: Dict[str, int] = {}
        for rec in records:
            if rec.sequenced:
                seen = max(
                    marks.get(rec.stream, -1),
                    self._applied.get(rec.stream, -1),
                )
                if rec.seq <= seen:
                    continue
            # The log holds the raw pre-expansion inputs; re-running
            # the deterministic expansion recovers the identical terms.
            x = np.array(rec.values)
            y = None if rec.values2 is None else np.array(rec.values2)
            self._expansion(rec.op).check_domain(x, y)
            self._apply(rec.stream, rec.op, x, y)
            if rec.sequenced:
                marks[rec.stream] = rec.seq
            applied += 1
        # Single publish step, no awaits in between: every seq becomes
        # visible only with its fold already applied.
        for stream, seq in marks.items():
            self._applied[stream] = max(seq, self._applied.get(stream, -1))
        return {"records": applied, "truncated": truncated}

    # ------------------------------------------------------------------
    # WAL-fronted ingest
    # ------------------------------------------------------------------

    async def _ingest(
        self,
        stream: str,
        kind: str,
        x: np.ndarray,
        y: Optional[np.ndarray],
        request: Dict[str, Any],
    ) -> Dict[str, Any]:
        """WAL-fronted ingest of any kind: dedup, log raw inputs, expand.

        The durable record carries the *pre-expansion* inputs (a binary
        ``RBAT`` frame's values are views of its body, so the record
        holds the wire bytes; an ``add_block``'s resolved values are
        copied in, so replay never needs its segment); replay re-expands
        deterministically, so recovery reconstructs the identical term
        multiset.
        """
        seq = _seq_of(request)
        if x.size == 0:
            return {"added": 0}
        # Police the expansion domain before anything durable happens:
        # a rejected batch must never enter the WAL, or replay would
        # refuse the whole log.
        self._expansion(kind).check_domain(x, y)
        if seq is not None and seq <= self._applied.get(stream, -1):
            # Already applied (retry after failover, or replay of
            # records this member holds): ack without re-folding.
            return {"added": 0, "duplicate": True, "seq": seq}
        record = None
        if self._wal is not None:
            # Encode — and so validate — before claiming the seq: a
            # batch the log cannot hold must fail without leaving a
            # claim behind that would ack its retry as a duplicate.
            record = codec.encode_wal_record(
                codec.WAL_UNSEQUENCED if seq is None else seq, stream, kind, x, y
            )
        if seq is not None:
            # Claim before the first await so a concurrent duplicate
            # cannot interleave past the check. If the WAL append then
            # fails, the writer stays failed and every node handle reads
            # its ``wal-io`` reply as the node being down — the
            # coordinator's failover path owns the cleanup.
            self._applied[stream] = seq
        if record is not None:
            await self._wal.append(record)
        response: Dict[str, Any] = {"added": self._apply(stream, kind, x, y)}
        if seq is not None:
            response["seq"] = seq
        return response

    async def _op_restore(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Parent restore, plus an optional ``seq`` high-water mark.

        Failover healing feeds a replica a snapshot that already
        contains folds up to some sequence number; recording that mark
        makes the subsequent retry/replay dedup-correct instead of
        double-applying the healed prefix.
        """
        response = await super()._op_restore(request)
        seq = _seq_of(request)
        if seq is not None:
            stream = _require_stream(request)
            self._applied[stream] = max(self._applied.get(stream, -1), seq)
            response["seq"] = self._applied[stream]
        return response

    async def _op_cluster_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "applied": dict(sorted(self._applied.items())),
            "wal": None,
        }
        if self._wal is not None:
            info["wal"] = {
                "path": str(self._wal.path),
                "records_written": self._wal.records_written,
                "batches_written": self._wal.batches_written,
            }
        return info


class ClusterNode:
    """One in-process cluster member: id + WAL-backed service."""

    def __init__(
        self,
        node_id: str,
        *,
        config: Optional[ServeConfig] = None,
        radix: RadixConfig = DEFAULT_RADIX,
        wal_path: Optional[Union[str, "Any"]] = None,
    ) -> None:
        if not node_id:
            raise ValueError("node_id must be a non-empty string")
        self.node_id = node_id
        self.service = WalService(config, radix=radix, wal_path=wal_path)

    @property
    def wal_path(self) -> Optional[str]:
        return str(self.service._wal.path) if self.service._wal else None

    async def start(self, *, recover: bool = True) -> Dict[str, Any]:
        await self.service.start()
        if recover:
            return await self.service.recover()
        return {"records": 0, "truncated": False}

    async def close(self) -> None:
        await self.service.close()

    async def __aenter__(self) -> "ClusterNode":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()
