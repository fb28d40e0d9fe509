"""The exact-aggregation service: routing, endpoints, snapshots.

:class:`ReproService` is transport-agnostic — it maps request objects
(plain dicts, the decoded protocol frames) to response objects. The
TCP server and the in-process client both sit on :meth:`handle`, so
every test of service semantics runs without sockets.

**Routing.** Each ingest batch folds into the next shard round-robin;
a stream's state therefore lives as per-shard *partial* exact sums.
This is safe precisely because of the paper's representation: partial
superaccumulators merge exactly and commutatively, so reads recombine
the partials into a state bit-identical to any serial execution of
the same updates.

**Inline folds.** Shards are partitions, not tasks: a fold runs on the
event loop thread inside the request that carries it, so a batch is
applied before its request is acknowledged, and every acknowledged
fold is visible to every later read.

**Snapshot reads.** Every read op, ``snapshot`` and ``drain`` merge
every shard's partials of every stream name the read needs (a
``moments`` read also needs the square shadow) in one pass with no
``await`` in between (:meth:`ReproService._merged`), so the merged
states are mutually consistent: a read never lands between a batch's
values and its squares. A read op then finishes through
:func:`read_stream`, the one read path the cluster coordinator's
``gather`` shares.

**Ingest.** Every ingest op is "expand, then fold": its kind (see
:data:`repro.serve.protocol.INGEST_KINDS`) names the
:mod:`repro.reduce` op whose deterministic expansion turns the inputs
into fold terms — ``sum``'s is the identity — and one implementation
(:meth:`ReproService._ingest`) serves every kind on both wires.

**Persistence.** Stream state round-trips through the configured
kernel's ``KSTR`` stream frame (count + the kernel's partial — the
same partial bytes the MapReduce shuffle uses) via the
``snapshot``/``restore``/``drain`` endpoints and
:meth:`save_state`/:meth:`load_state`.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.exact import exact_sum
from repro.core.rounding import check_mode
from repro.errors import (
    EmptyStreamError,
    NonFiniteInputError,
    ProtocolError,
    ReductionRangeError,
    ReproError,
    ServiceError,
)
from repro.kernels import get_kernel, kernel_names
# reprolint: disable-next-line=ARCH004 -- dataplane is the shared zero-copy layer, not a plane entry point
from repro.mapreduce.dataplane import BlockRef, resolve_block
from repro.serve.metrics import ServiceMetrics
from repro.reduce.ops import ReduceOp, VarOp, get_op
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    INGEST_KINDS,
    KIND_OF_OP,
    READ_OPS,
    WIRE_BINARY,
    WIRE_JSON,
    decode_bytes_field,
    encode_bytes_field,
    ingest_value_count,
)
from repro.serve.shards import AccumulatorShard
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = ["ServeConfig", "ReproService", "square_shadow", "read_stream"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one service instance."""

    shards: int = 4
    max_frame: int = DEFAULT_MAX_FRAME
    allow_shutdown: bool = True
    #: registry name of the kernel backing every stream; the service
    #: always uses the kernel's exact variant (stateful streams cannot
    #: un-fold a speculated value)
    kernel: str = "running"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.kernel not in kernel_names():
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {list(kernel_names())}"
            )


def _atomic_write_text(path: Path, payload: str) -> None:
    """Write-then-rename so a crash mid-save never truncates the file.

    ``os.replace`` is atomic on POSIX and Windows within one
    filesystem; readers see either the old complete snapshot or the
    new complete snapshot, never a torn one. The temp file lives next
    to the target (same directory, ``.tmp`` suffix) to stay on the
    same filesystem, and is fsync'd before the rename so the rename
    cannot land before the data.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _require_stream(request: Dict[str, Any], field: str = "stream") -> str:
    """The stream name a client put in ``field``: a non-empty string
    without NUL, so it can never name a square shadow."""
    stream = request.get(field)
    if not isinstance(stream, str) or not stream:
        raise ServiceError(f"request needs a non-empty string {field!r} field")
    if "\x00" in stream:
        raise ServiceError(f"{field!r} must not contain NUL")
    return stream


#: Suffix of the shadow stream holding a reduction stream's TwoSquare
#: terms. Client stream names cannot contain NUL, so no request names a
#: shadow directly, while snapshots and merges treat it as an ordinary
#: stream.
SQUARE_SHADOW_SUFFIX = "\x00sq"


def square_shadow(stream: str) -> str:
    """Name of the squared-terms shadow stream of ``stream``."""
    return stream + SQUARE_SHADOW_SUFFIX


async def read_stream(
    op: str,
    stream: str,
    merge: Callable[..., Awaitable[List[Any]]],
    *,
    mode: str = "nearest",
    ddof: Any = 0,
) -> Dict[str, Any]:
    """The one read path: merge ``stream``, then run ``op``'s finishes.

    ``op`` names a :data:`~repro.serve.protocol.READ_OPS` entry, and
    ``merge(*names)`` returns the merged states of the stream names it
    is given, read at one sequence point: a service merges its shards,
    a coordinator its nodes. ``mode`` (and ``ddof`` when the read takes
    it) are checked before anything is merged.
    Rounded-sum finishes (``sum``, ``dot``) round the merged partial
    through the kernel; exact ones (``mean``, ``norm2``, ``var``) round
    the exact fraction once. Every read thus matches the serial
    :mod:`repro.reduce` op bit for bit.
    """
    read = READ_OPS.get(op)
    if read is None:
        raise ValueError(
            f"unknown read op {op!r}; expected one of {sorted(READ_OPS)}"
        )
    check_mode(mode)
    var = None
    if read.shadow:
        try:
            var = VarOp(ddof)
        except ValueError as exc:
            raise ServiceError(str(exc)) from None
    names = (stream, square_shadow(stream)) if read.shadow else (stream,)
    states = await merge(*names)
    n = states[0].count
    if read.shadow:
        if states[1].count != 2 * n:
            raise ServiceError(
                f"stream {stream!r} was not fed as observations: square "
                f"shadow holds {states[1].count} terms, expected {2 * n}"
            )
    out: Dict[str, Any] = {}
    fracs: Optional[List[Fraction]] = None
    try:
        for field, name in read.finishes:
            reduction = var if name == "var" else get_op(name)
            if not reduction.needs_exact:
                out[field] = reduction.finish_rounded(states[0].value(mode), n, mode)
                continue
            if fracs is None:
                fracs = [state.exact_fraction() for state in states]
            out[field] = reduction.finish_exact(fracs[: reduction.streams], n, mode)
    except EmptyStreamError as exc:
        raise EmptyStreamError(f"{op} of stream {stream!r}: {exc}") from None
    out["count"] = n
    out["hex"] = out[read.finishes[0][0]].hex()
    if read.shadow:
        out["ddof"] = ddof
    return out


class ReproService:
    """Sharded exact-aggregation service (transport-agnostic core)."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        radix: RadixConfig = DEFAULT_RADIX,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.radix = radix
        self.metrics = ServiceMetrics()
        # One kernel instance serves the whole service: shards fold
        # through it, reads recombine through it, and snapshots
        # use its wire format.
        self._kernel = get_kernel(self.config.kernel, radix=radix)
        self.shards: List[AccumulatorShard] = [
            AccumulatorShard(i, metrics=self.metrics, radix=radix, kernel=self._kernel)
            for i in range(self.config.shards)
        ]
        self._rr = 0
        self._ops: Dict[str, Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]] = {
            "ping": self._op_ping,
            "sum": self._op_sum,
            "add": self._op_add,
            "add_block": self._op_add_block,
            **{op: self._op_add_batch for op in KIND_OF_OP},
            **{op: self._op_read for op in READ_OPS},
            "stats": self._op_stats,
            "streams": self._op_streams,
            "merge": self._op_merge,
            "snapshot": self._op_snapshot,
            "restore": self._op_restore,
            "drain": self._op_drain,
            "flush": self._op_flush,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Nothing to start: shards are partitions folded inline.

        Kept so subclasses that own background work (the cluster node's
        WAL writer) share one lifecycle with the plain service.
        """

    async def close(self) -> None:
        """Nothing to stop: every acknowledged fold is already applied."""

    async def __aenter__(self) -> "ReproService":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    async def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Map one request object to one response object (never raises)."""
        t0 = time.perf_counter()
        self.metrics.begin_request()
        op = request.get("op") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict):
                raise ProtocolError("request must be a JSON object")
            if not isinstance(op, str):
                raise ServiceError("request needs a string 'op' field")
            handler = self._ops.get(op)
            if handler is None:
                err = ServiceError(f"unknown op {op!r}")
                err.code = "unknown-op"
                raise err
            response = await handler(request)
            response.setdefault("ok", True)
        except (ReproError, ValueError, TypeError) as exc:
            response = {"ok": False, "code": _error_code(exc), "error": str(exc)}
        finally:
            self.metrics.end_request()
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        self.metrics.record_request(
            op if isinstance(op, str) else "?",
            time.perf_counter() - t0,
            ok=bool(response.get("ok")),
        )
        return response

    def may_suspend(self, request: Dict[str, Any]) -> bool:
        """Whether :meth:`handle` may await before answering ``request``.

        The TCP server runs every other request to completion inline,
        with no task, and raises if one suspends; a subclass whose op
        handler awaits must name that op here. No handler of this
        service awaits: folds and reads run synchronously on the loop.
        """
        return False

    def record_wire(self, request: Dict[str, Any], payload_bytes: int) -> None:
        """Per-wire ingest accounting of one parsed request frame.

        Both transports — the TCP server and the in-process client —
        call this with every frame they parse, so ``stats.wire`` counts
        the same frames and values whichever one carried them.
        """
        nvalues = ingest_value_count(request)
        if nvalues is not None:
            wire = WIRE_BINARY if request.get("wire") == WIRE_BINARY else WIRE_JSON
            self.metrics.record_wire_frame(wire, payload_bytes, nvalues)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _next_shard(self) -> AccumulatorShard:
        shard = self.shards[self._rr % len(self.shards)]
        self._rr += 1
        return shard

    async def _merged(self, *names: str, pop: bool = False) -> List[Any]:
        """Merge every shard's partials of ``names`` at one point.

        Every shard is called in turn with no ``await`` in between, so
        no fold lands during the read and the merged states are
        mutually consistent. With ``pop`` the shards also drop the
        streams. A coroutine only because :func:`read_stream` awaits
        its ``merge`` (a coordinator's merge crosses the network).
        """
        merged = [self._kernel.new_stream() for _ in names]

        def absorb(streams: Dict[str, Any]) -> None:
            for name, into in zip(names, merged):
                partial = streams.pop(name, None) if pop else streams.get(name)
                if partial is not None:
                    into.merge(partial)

        for shard in self.shards:
            shard.call(absorb)
        return merged

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    async def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "shards": len(self.shards)}

    def _validated_array(self, values: Any) -> np.ndarray:
        try:
            arr = ensure_float64_array(values)
        except (ValueError, TypeError) as exc:
            raise ServiceError(f"'values' is not a float array: {exc}") from exc
        check_finite_array(arr)
        return arr

    async def _op_sum(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Stateless one-shot exact sum; no stream is touched.

        The request's values go through the default
        :func:`~repro.core.exact.exact_sum`: one binned deposit, rounded
        once in the request's mode.
        """
        if "values" not in request:
            raise ServiceError("sum needs a 'values' field")
        mode = check_mode(request.get("mode", "nearest"))
        arr = self._validated_array(request["values"])
        value = exact_sum(arr, mode=mode, radix=self.radix)
        return {"value": value, "hex": value.hex(), "count": int(arr.size)}

    # -- ingest: every kind is "expand, then fold" ----------------------

    async def _op_add(self, request: Dict[str, Any]) -> Dict[str, Any]:
        stream = _require_stream(request)
        value = request.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ServiceError("'value' must be a number")
        arr = self._validated_array([float(value)])
        return await self._ingest(stream, "sum", arr, None, request)

    async def _op_add_block(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Zero-copy bulk ingest from a data-plane block descriptor.

        The caller must keep the shared segment / file alive until the
        response arrives — the fold reads through the view directly.
        """
        stream = _require_stream(request)
        spec = request.get("block")
        if not isinstance(spec, dict):
            raise ServiceError("add_block needs a 'block' descriptor object")
        try:
            ref = BlockRef(
                kind=str(spec["kind"]),
                segment=str(spec["segment"]),
                offset=int(spec.get("offset", 0)),
                length=int(spec["length"]),
                dtype=str(spec.get("dtype", "<f8")),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ServiceError(f"malformed block descriptor: {exc}") from exc
        try:
            view = resolve_block(ref)
        except (OSError, ValueError) as exc:
            raise ServiceError(f"cannot resolve block {ref.describe()}: {exc}") from exc
        arr = ensure_float64_array(view)
        check_finite_array(arr)
        response = await self._ingest(stream, "sum", arr, None, request)
        response["block"] = ref.describe()
        return response

    def _input_array(self, request: Dict[str, Any], key: str) -> np.ndarray:
        """One float64 input field of a batch ingest request.

        Binary-wire requests (``wire == "binary"``, set only by the
        protocol layer's ``RBAT`` parser, which already enforced dtype
        and finiteness) arrive as read-only zero-copy views and skip the
        re-scan — the array flows from socket bytes to the shard fold
        without ever becoming Python objects. JSON requests carry lists
        and pay per-value boxing in :meth:`_validated_array`.
        """
        if key not in request:
            raise ServiceError(f"{request['op']} needs a '{key}' field")
        values = request.get(key)
        if request.get("wire") == WIRE_BINARY and isinstance(values, np.ndarray):
            return ensure_float64_array(values)
        return self._validated_array(values)

    async def _op_add_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Batch ingest of any kind: ``add_array`` (``sum``),
        ``add_pairs``, ``add_squares`` or ``add_observations`` — the ops
        the binary wire's ``RBAT`` frame carries."""
        stream = _require_stream(request)
        kind = KIND_OF_OP[request["op"]]
        x = self._input_array(request, "values")
        y = None
        if INGEST_KINDS[kind].arity == 2:
            y = self._input_array(request, "values2")
            if x.shape != y.shape:
                raise ServiceError(
                    f"{request['op']} needs equal-length 'values' and 'values2'"
                )
        return await self._ingest(stream, kind, x, y, request)

    async def _ingest(
        self,
        stream: str,
        kind: str,
        x: np.ndarray,
        y: Optional[np.ndarray],
        request: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Apply one validated batch of any kind.

        Overridable seam: the WAL-backed cluster node intercepts here
        to add seq dedup and durable logging of the raw inputs before
        the expansion is applied.
        """
        if x.size == 0:
            return {"added": 0}
        self._expansion(kind).check_domain(x, y)
        return {"added": self._apply(stream, kind, x, y)}

    @staticmethod
    def _expansion(kind: str) -> ReduceOp:
        """The :mod:`repro.reduce` op whose ``expand`` an ingest kind runs."""
        return get_op(INGEST_KINDS[kind].reduce_op)

    def _apply(
        self,
        stream: str,
        kind: str,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
    ) -> int:
        """Expand and fold one batch; returns inputs folded.

        The caller has run the expansion's ``check_domain`` on the batch
        (once, wherever it can still refuse it cleanly).

        The expansion is elementwise and deterministic (``sum``'s is the
        identity), so chunked ingest produces exactly the term multiset
        a serial expansion of the whole array would — which is what
        makes reads bit-identical to the serial :mod:`repro.reduce` ops,
        and what lets the cluster WAL log pre-expansion inputs and
        re-expand on replay. A second term stream (the ``observations`` kind's
        TwoSquare terms) lands in the stream's :func:`square_shadow`.
        """
        op = self._expansion(kind)
        shard = self._next_shard()
        for target, terms in zip((stream, square_shadow(stream)), op.expand(x, y)):
            shard.fold(target, terms)
        return int(x.size)

    # -- reads ----------------------------------------------------------

    async def _op_read(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Every read op (``value``, ``dot``, ``mean``, ``norm2``,
        ``moments``): merge the stream's shard partials, then finish."""
        return await read_stream(
            request["op"],
            _require_stream(request),
            self._merged,
            mode=request.get("mode", "nearest"),
            ddof=request.get("ddof", 0),
        )

    async def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        snap = self.metrics.snapshot()
        snap["shards"] = len(self.shards)
        return {"stats": snap}

    def _stream_counts(self) -> Dict[str, int]:
        """Input count of every stream, square shadows included."""

        def counts(streams: Dict[str, Any]) -> Dict[str, int]:
            return {name: rs.count for name, rs in streams.items()}

        totals: Dict[str, int] = {}
        for shard in self.shards:
            for name, count in shard.call(counts).items():
                totals[name] = totals.get(name, 0) + count
        return totals

    async def _op_streams(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Client streams and their input counts; square shadows are internal."""
        totals = self._stream_counts()
        return {
            "streams": {
                name: totals[name]
                for name in sorted(totals)
                if not name.endswith(SQUARE_SHADOW_SUFFIX)
            }
        }

    async def _op_merge(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Fold stream ``src`` into stream ``dst`` and delete ``src``.

        Runs shard-locally: each shard merges its own ``src`` partial
        into its own ``dst`` partial, and ``src``'s square shadow into
        ``dst``'s in the same call. Exactness of partial merges makes
        this equivalent to any global ordering.
        """
        src = _require_stream(request, "src")
        dst = _require_stream(request, "dst")
        if src == dst:
            raise ServiceError("merge src and dst must differ")

        def merge_local(streams: Dict[str, Any]) -> int:
            moved = 0
            for s, d in ((src, dst), (square_shadow(src), square_shadow(dst))):
                partial = streams.pop(s, None)
                if partial is None:
                    continue
                rs = streams.get(d)
                if rs is None:
                    rs = streams[d] = self._kernel.new_stream()
                rs.merge(partial)
                if s == src:
                    moved = partial.count
            return moved

        moved = sum(shard.call(merge_local) for shard in self.shards)
        return {"merged": moved, "src": src, "dst": dst}

    async def _op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Snapshot ``stream``, or every name in ``streams`` at one point.

        The list form answers ``snapshots`` and ``counts`` in the order
        asked; the coordinator reads a stream and its square shadow
        with it, so an ``observations`` batch can never fall between
        the two.
        """
        names = request.get("streams")
        if names is None:
            (merged,) = await self._merged(_require_stream(request))
            return {
                "snapshot": encode_bytes_field(merged.to_bytes()),
                "count": merged.count,
            }
        if not isinstance(names, list) or not names or not all(
            isinstance(name, str) and name for name in names
        ):
            raise ServiceError("'streams' must be a non-empty list of stream names")
        states = await self._merged(*names)
        return {
            "snapshots": [encode_bytes_field(m.to_bytes()) for m in states],
            "counts": [m.count for m in states],
        }

    async def _op_restore(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return await self._restore(_require_stream(request), request.get("snapshot"))

    async def _restore(self, stream: str, snapshot: Any) -> Dict[str, Any]:
        """Merge a base64 kernel-stream snapshot into ``stream``, which
        may be a square shadow (:meth:`load_state` restores those)."""
        payload = decode_bytes_field(snapshot)
        try:
            restored = self._kernel.stream_from_bytes(payload)
        except ValueError as exc:
            raise ServiceError(f"corrupt snapshot: {exc}") from exc

        def absorb(streams: Dict[str, Any]) -> int:
            rs = streams.get(stream)
            if rs is None:
                rs = streams[stream] = self._kernel.new_stream()
            rs.merge(restored)
            return rs.count

        self._next_shard().call(absorb)
        return {"restored": restored.count}

    async def _op_drain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Atomically read out and remove a stream and its square shadow
        (exact hand-off)."""
        stream = _require_stream(request)
        merged, _ = await self._merged(stream, square_shadow(stream), pop=True)
        value = merged.value()
        return {
            "value": value,
            "count": merged.count,
            "hex": value.hex(),
            "snapshot": encode_bytes_field(merged.to_bytes()),
        }

    async def _op_flush(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Barrier, kept on the wire: every acknowledged fold is already
        applied, so there is nothing left to wait for."""
        return {"flushed": True}

    # ------------------------------------------------------------------
    # whole-service persistence (CLI --state-path)
    # ------------------------------------------------------------------

    async def save_state(self, path: Union[str, Path]) -> int:
        """Snapshot every stream, square shadows included, at one point to
        one JSON file; returns stream count."""
        names = sorted(self._stream_counts())
        states = {
            name: encode_bytes_field(merged.to_bytes())
            for name, merged in zip(names, await self._merged(*names))
        }
        payload = json.dumps({"format": "repro-serve-state-v1", "streams": states})
        await asyncio.to_thread(_atomic_write_text, Path(path), payload)
        return len(states)

    async def load_state(self, path: Union[str, Path]) -> int:
        """Restore a :meth:`save_state` file; returns stream count."""
        doc = json.loads(await asyncio.to_thread(Path(path).read_text))
        if doc.get("format") != "repro-serve-state-v1":
            raise ServiceError(f"unrecognized state file format in {path}")
        streams = doc.get("streams", {})
        for name, b64 in streams.items():
            await self._restore(name, b64)
        return len(streams)


def _error_code(exc: Exception) -> str:
    if isinstance(exc, ServiceError):
        return exc.code
    if isinstance(exc, NonFiniteInputError):
        return "non-finite"
    if isinstance(exc, EmptyStreamError):
        return "empty-stream"
    if isinstance(exc, ReductionRangeError):
        return "reduction-range"
    return "bad-request"
