"""Span tracing from outside the program: wrappers around public callables.

A :class:`Tracer` replaces named callables of ``repro`` with wrappers
that record one span per call — layer, span id, parent span id, trace
id, ``perf_counter_ns`` start and end, and an integer ``work`` tag (a
value count, or the read/write kind of a request). The parent comes
from a :class:`~contextvars.ContextVar`, so a span opened inside
another span's call (same task, a task the call created, or an
``asyncio.to_thread`` hop) is its child. A span opened with no parent
starts a new trace only if its target is an *entry* (the benchmark's
own op, or a server's first layer); otherwise it is *detached* (trace
0): work a background task does for many ops at once, such as a shard
writer loop's coalesced fold, whose time the waiting op spans already
contain.

Each name is patched where it is looked up — ``from … import`` binds
names at import time, so ``parse_payload`` is patched in
``repro.serve.server`` and ``read_wal`` in ``repro.cluster.node``.
Spans are kept in memory as integer columns and written out when the
run ends; :meth:`Tracer.uninstall` restores every original.

Self time is a span's duration minus the union of its children's
intervals. Coverage is the share of the benchmark's op wall time that
some layer span accounts for: per trace, the union of all non-op span
intervals (overlapping sibling spans, such as concurrent replica
sends, count once), summed over traces, over the summed op durations.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


#: Layers whose spans are the benchmark's own ops (trace roots).
OP_LAYER_PREFIX = "client."

_COLUMNS = ("layer", "span", "parent", "trace", "start", "end", "work")

#: (span id, trace id) of the innermost open span in this context.
_CURRENT: "contextvars.ContextVar[Optional[Tuple[int, int]]]" = (
    contextvars.ContextVar("suite_trace_span", default=None)
)

#: Service ops that read a stream rather than ingest into it.
READ_OPS = frozenset({"value", "dot", "norm2", "moments", "mean"})


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr`` recorded as ``layer``."""

    owner: Any
    attr: str
    layer: str
    entry: bool = False
    work: Optional[Callable[[tuple, dict], int]] = None


class Tracer:
    """Records spans of wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ix: Dict[str, int] = {}
        self._cols = {name: array("q") for name in _COLUMNS}
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _ix(self, layer: str) -> int:
        ix = self._layer_ix.get(layer)
        if ix is None:
            ix = self._layer_ix[layer] = len(self.layers)
            self.layers.append(layer)
        return ix

    def _open(self, entry: bool) -> Tuple[int, int, int, contextvars.Token]:
        cur = _CURRENT.get()
        sid = next(self._ids)
        if cur is None:
            parent, trace = 0, (sid if entry else 0)
        else:
            parent, trace = cur
        return sid, parent, trace, _CURRENT.set((sid, trace))

    def _record(
        self, ix: int, sid: int, parent: int, trace: int, t0: int, t1: int, work: int
    ) -> None:
        cols = self._cols
        cols["layer"].append(ix)
        cols["span"].append(sid)
        cols["parent"].append(parent)
        cols["trace"].append(trace)
        cols["start"].append(t0)
        cols["end"].append(t1)
        cols["work"].append(work)

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        *,
        entry: bool = False,
        work: Optional[Callable[[tuple, dict], int]] = None,
    ) -> Callable[..., Any]:
        """A span-recording wrapper around ``fn`` (sync or async)."""
        ix = self._ix(layer)
        clock = time.perf_counter_ns

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                sid, parent, trace, token = self._open(entry)
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    _CURRENT.reset(token)
                    self._record(
                        ix, sid, parent, trace, t0, t1,
                        work(args, kwargs) if work else 0,
                    )

            return async_wrapper

        @functools.wraps(fn)
        def sync_wrapper(*args: Any, **kwargs: Any) -> Any:
            sid, parent, trace, token = self._open(entry)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                _CURRENT.reset(token)
                self._record(
                    ix, sid, parent, trace, t0, t1,
                    work(args, kwargs) if work else 0,
                )

        return sync_wrapper

    # -- patching --------------------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        """Patch every target in place (undo with :meth:`uninstall`)."""
        for t in targets:
            original = (
                vars(t.owner)[t.attr] if isinstance(t.owner, type)
                else getattr(t.owner, t.attr)
            )
            setattr(
                t.owner, t.attr,
                self.wrap(original, t.layer, entry=t.entry, work=t.work),
            )
            self._patches.append((t.owner, t.attr, original))

    def uninstall(self) -> None:
        """Restore every patched callable (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def spans(self) -> "Spans":
        cols = {k: np.frombuffer(v, dtype=np.int64).copy() for k, v in self._cols.items()}
        return Spans(list(self.layers), cols)

    def save(self, path: Path) -> None:
        """Write the spans out (``.npz``: columns plus layer names)."""
        spans = self.spans()
        np.savez(path, layers=np.array(spans.layers, dtype=str), **spans.cols)


def union_length(starts: np.ndarray, ends: np.ndarray) -> int:
    """Total length covered by the union of ``[start, end)`` intervals."""
    if starts.size == 0:
        return 0
    order = np.argsort(starts, kind="stable")
    total = 0
    cur_s, cur_e = int(starts[order[0]]), int(ends[order[0]])
    for i in order[1:]:
        s, e = int(starts[i]), int(ends[i])
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return total + cur_e - cur_s


def _groups(rows: np.ndarray, key: np.ndarray) -> List[np.ndarray]:
    """``rows`` split into groups of equal ``key``."""
    if rows.size == 0:
        return []
    order = rows[np.argsort(key[rows], kind="stable")]
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


class Spans:
    """Analysis over one process's recorded spans."""

    def __init__(self, layers: List[str], cols: Dict[str, np.ndarray]) -> None:
        self.layers = layers
        self.cols = cols
        self._self_ns: Optional[np.ndarray] = None

    @classmethod
    def load(cls, path: Path) -> "Spans":
        with np.load(path) as data:
            layers = [str(x) for x in data["layers"]]
            cols = {k: data[k] for k in _COLUMNS}
        return cls(layers, cols)

    def __len__(self) -> int:
        return int(self.cols["span"].size)

    def select(self, lo_ns: int, hi_ns: int) -> "Spans":
        """Spans that started in ``[lo_ns, hi_ns]``, self times kept
        from the full set (a child cut off by the bounds still counts)."""
        keep = (self.cols["start"] >= lo_ns) & (self.cols["start"] <= hi_ns)
        out = Spans(self.layers, {k: v[keep] for k, v in self.cols.items()})
        out._self_ns = self.self_ns()[keep]
        return out

    def mask(self, layer: str, work: Optional[int] = None) -> np.ndarray:
        if layer not in self.layers:
            return np.zeros(len(self), dtype=bool)
        m = self.cols["layer"] == self.layers.index(layer)
        if work is not None:
            m &= self.cols["work"] == work
        return m

    def durations_ns(self, layer: str, work: Optional[int] = None) -> np.ndarray:
        m = self.mask(layer, work)
        return self.cols["end"][m] - self.cols["start"][m]

    def self_ns(self) -> np.ndarray:
        """Per-span self time: duration minus the union of its children."""
        if self._self_ns is None:
            start, end = self.cols["start"], self.cols["end"]
            out = end - start
            parent = self.cols["parent"]
            row_of = {int(s): i for i, s in enumerate(self.cols["span"])}
            for rows in _groups(np.flatnonzero(parent != 0), parent):
                p = row_of.get(int(parent[rows[0]]))
                if p is None:  # the parent was still open when spans were taken
                    continue
                s = np.clip(start[rows], start[p], end[p])
                e = np.clip(end[rows], start[p], end[p])
                out[p] -= union_length(s, e)
            self._self_ns = out
        return self._self_ns

    def self_ns_of(self, layer: str, work: Optional[int] = None) -> np.ndarray:
        return self.self_ns()[self.mask(layer, work)]

    def _is_op(self) -> np.ndarray:
        ops = [i for i, name in enumerate(self.layers) if name.startswith(OP_LAYER_PREFIX)]
        return np.isin(self.cols["layer"], ops)

    def op_ns(self) -> int:
        """Summed wall time of the benchmark's own op spans."""
        m = self._is_op()
        return int((self.cols["end"][m] - self.cols["start"][m]).sum())

    def covered_ns(self) -> int:
        """Per trace, the union of its non-op span intervals, summed."""
        trace = self.cols["trace"]
        rows = np.flatnonzero((trace != 0) & ~self._is_op())
        return sum(
            union_length(self.cols["start"][g], self.cols["end"][g])
            for g in _groups(rows, trace)
        )

    def children_max_ns(self, parent_layer: str, child_layer: str) -> np.ndarray:
        """Per ``parent_layer`` span, the longest ``child_layer`` child."""
        parents = self.cols["span"][self.mask(parent_layer)]
        cm = self.mask(child_layer)
        child_parent = self.cols["parent"][cm]
        child_dur = (self.cols["end"] - self.cols["start"])[cm]
        best: Dict[int, int] = {}
        for p, d in zip(child_parent.tolist(), child_dur.tolist()):
            if d > best.get(p, -1):
                best[p] = d
        return np.array([best[p] for p in parents.tolist() if p in best], dtype=np.int64)


# ----------------------------------------------------------------------
# the layers each workload wraps (imports stay lazy: importing this
# module must not import the program)
# ----------------------------------------------------------------------


def _size_of_first_arg(args: tuple, kwargs: dict) -> int:
    return int(args[1].size)


def _read_flag(args: tuple, kwargs: dict) -> int:
    request = args[1]
    return int(isinstance(request, dict) and request.get("op") in READ_OPS)


def serve_client_targets() -> List[Target]:
    """Client-side layers of the serve workloads (the load process)."""
    import repro.serve.client as client

    return [
        Target(client, "encode_batch_frame", "protocol.encode"),
        Target(client, "encode_reduce_batch_frame", "protocol.encode"),
    ]


def serve_server_targets() -> List[Target]:
    """Server-side layers of the serve workloads (the server process)."""
    import repro.serve.server as server
    from repro.core.sparse import SparseSuperaccumulator
    from repro.kernels.accumulators import RunningSumKernel
    from repro.kernels.binned import BinnedPartial
    from repro.reduce.ops import get_op
    from repro.serve.service import ReproService
    from repro.serve.shards import AccumulatorShard
    from repro.streaming import ExactRunningSum

    dot = type(get_op("dot"))
    return [
        Target(server, "parse_payload", "protocol.parse", entry=True),
        Target(ReproService, "handle", "service.handle", entry=True, work=_read_flag),
        Target(AccumulatorShard, "fold", "shards.fold"),
        Target(AccumulatorShard, "call", "shards.call"),
        Target(RunningSumKernel, "fold_into", "kernels.fold_into"),
        Target(BinnedPartial, "deposit", "kernels.deposit", work=_size_of_first_arg),
        Target(BinnedPartial, "to_sparse", "kernels.to_sparse"),
        Target(dot, "expand", "reduce.expand"),
        Target(dot, "check_domain", "reduce.check_domain"),
        Target(ExactRunningSum, "absorb_exact", "core.absorb"),
        Target(SparseSuperaccumulator, "to_float", "core.round"),
        Target(SparseSuperaccumulator, "add", "core.merge"),
    ]


def cluster_targets() -> List[Target]:
    """Layers of the in-process cluster workload."""
    import repro.cluster.node as node
    from repro import codec
    from repro.cluster.coordinator import ClusterCoordinator, LocalNodeHandle
    from repro.cluster.wal import WalWriter, WriteAheadLog
    from repro.serve.service import ReproService

    return [
        Target(ClusterCoordinator, "append", "coordinator.append"),
        Target(LocalNodeHandle, "add_batch", "coordinator.replica"),
        Target(ReproService, "handle", "node.handle", entry=True, work=_read_flag),
        Target(codec, "encode_wal_record", "codec.wal_encode"),
        Target(WalWriter, "append", "wal.durable_wait"),
        Target(WriteAheadLog, "append_blob", "wal.fsync"),
        Target(node, "read_wal", "wal.replay_read", entry=True),
    ]
