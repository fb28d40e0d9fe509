"""The exact-aggregation service: routing, endpoints, snapshots.

:class:`ReproService` is transport-agnostic — it maps request objects
(plain dicts, the decoded protocol frames) to response objects. The
TCP server and the in-process client both sit on :meth:`handle`, so
every test of service semantics runs without sockets.

**Routing.** Updates are scattered round-robin across shards; a
stream's state therefore lives as per-shard *partial* exact sums.
This is safe precisely because of the paper's representation: partial
superaccumulators merge exactly and commutatively, so reads recombine
the partials into a state bit-identical to any serial execution of
the same updates. Scatter routing turns even a single hot stream into
an N-way parallel ingest problem, which hash-affinity routing cannot.
Large arrays are additionally striped across all shards in
``scatter_chunk``-sized pieces.

**Snapshot reads.** ``value``/``mean``/``snapshot``/``drain`` fan a
sequence-point call out to every shard; each shard answers after the
folds enqueued before it (FIFO), so a read observes every add that was
*acknowledged* before the read was issued. Acks fire after the fold
lands, giving read-your-writes to any client that awaits its adds.

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
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.errors import (
    BackpressureError,
    EmptyStreamError,
    NonFiniteInputError,
    ProtocolError,
    ReductionRangeError,
    ReproError,
    ServiceError,
)
from repro.adaptive import AdaptiveFolder
from repro.kernels import get_kernel, kernel_names
# reprolint: disable-next-line=ARCH004 -- dataplane is the shared zero-copy layer, not a plane entry point
from repro.mapreduce.dataplane import BlockRef, resolve_block
from repro.serve.metrics import ServiceMetrics
from repro.reduce.ops import ReduceOp, VarOp, get_op
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    INGEST_KINDS,
    KIND_OF_OP,
    WIRE_BINARY,
    WIRE_JSON,
    decode_bytes_field,
    encode_bytes_field,
    ingest_value_count,
)
from repro.serve.shards import AccumulatorShard
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = ["ServeConfig", "ReproService", "square_shadow", "finish_moments"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one service instance."""

    shards: int = 4
    queue_depth: int = 256
    policy: str = "block"  # "block" | "reject"
    retry_after: float = 0.05
    max_frame: int = DEFAULT_MAX_FRAME
    scatter_chunk: int = 8192
    allow_shutdown: bool = True
    #: registry name of the kernel backing every stream; the service
    #: always uses the kernel's exact variant (stateful streams cannot
    #: un-fold a speculated value)
    kernel: str = "running"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.policy not in ("block", "reject"):
            raise ValueError(f"unknown backpressure policy {self.policy!r}")
        if self.scatter_chunk < 1:
            raise ValueError("scatter_chunk must be >= 1")
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


def _require_stream(request: Dict[str, Any]) -> str:
    stream = request.get("stream")
    if not isinstance(stream, str) or not stream:
        raise ServiceError("request needs a non-empty string 'stream' field")
    return stream


#: Suffix of the shadow stream holding a reduction stream's TwoSquare
#: terms; the NUL keeps it out of any client-reachable stream namespace
#: while letting snapshots/merges treat it as an ordinary stream.
SQUARE_SHADOW_SUFFIX = "\x00sq"


def square_shadow(stream: str) -> str:
    """Name of the squared-terms shadow stream of ``stream``."""
    return stream + SQUARE_SHADOW_SUFFIX


def finish_moments(
    stream: str, merged: Any, shadow: Any, ddof: int, mode: str, fed_by: str
) -> Dict[str, Any]:
    """Exact mean and variance of an ``observations`` stream.

    ``merged`` and ``shadow`` are the merged states of the stream and of
    its :func:`square_shadow`. The finishes are the :mod:`repro.reduce`
    ops' own — ``sum(x)/n`` and ``(sum(x^2) - sum(x)^2/n) / (n - ddof)``
    in exact rational arithmetic, rounded once — so the result matches
    the serial ``mean``/``var`` ops bit for bit.
    """
    n = merged.count
    if n == 0:
        raise EmptyStreamError(f"moments of empty stream {stream!r}")
    if shadow.count != 2 * n:
        raise ServiceError(
            f"stream {stream!r} was not fed through {fed_by}: "
            f"square shadow holds {shadow.count} terms, expected {2 * n}"
        )
    s = merged.exact_fraction()
    mean = get_op("mean").finish_exact([s], n, mode)
    variance = VarOp(ddof).finish_exact([s, shadow.exact_fraction()], n, mode)
    return {
        "mean": mean,
        "variance": variance,
        "count": n,
        "ddof": ddof,
        "hex": mean.hex(),
    }


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
        # One kernel instance serves the whole service: shard writers
        # fold through it, reads recombine through it, and snapshots
        # use its wire format. exact_variant() pins stateful streams to
        # the exact fold path.
        self._kernel = get_kernel(
            self.config.kernel, radix=radix, counters=self.metrics.tiering
        ).exact_variant()
        self.shards: List[AccumulatorShard] = [
            AccumulatorShard(
                i,
                queue_depth=self.config.queue_depth,
                policy=self.config.policy,
                retry_after=self.config.retry_after,
                metrics=self.metrics,
                radix=radix,
                kernel=self._kernel,
            )
            for i in range(self.config.shards)
        ]
        # Stateless one-shot sums (`sum` op) run the full tier ladder;
        # tier decisions land in the shared metrics tally alongside the
        # shards' fold accounting.
        self._folder = AdaptiveFolder(radix=radix, counters=self.metrics.tiering)
        self._rr = 0
        self._started = False
        self._ops: Dict[str, Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]] = {
            "ping": self._op_ping,
            "sum": self._op_sum,
            "add": self._op_add,
            "add_block": self._op_add_block,
            **{op: self._op_add_batch for op in KIND_OF_OP},
            "value": self._op_value,
            "dot": self._op_dot,
            "norm2": self._op_norm2,
            "moments": self._op_moments,
            "mean": self._op_mean,
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
        for shard in self.shards:
            shard.start()
        self._started = True

    async def close(self) -> None:
        for shard in self.shards:
            await shard.stop()
        self._started = False

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
        except BackpressureError as exc:
            response = {
                "ok": False,
                "code": exc.code,
                "error": str(exc),
                "retry_after": exc.retry_after,
            }
        except (ReproError, ValueError, TypeError) as exc:
            response = {"ok": False, "code": _error_code(exc), "error": str(exc)}
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        self.metrics.record_request(
            op if isinstance(op, str) else "?",
            time.perf_counter() - t0,
            ok=bool(response.get("ok")),
        )
        return response

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

    async def _scatter(self, stream: str, arr: np.ndarray) -> int:
        """Route a validated array across shards; returns values folded."""
        nshards = len(self.shards)
        chunk = self.config.scatter_chunk
        if nshards == 1 or arr.size <= chunk:
            return await self._next_shard().fold(stream, arr)
        pieces = np.array_split(arr, min(nshards, max(1, arr.size // chunk)))
        folds = [self._next_shard().fold(stream, piece) for piece in pieces]
        return sum(await asyncio.gather(*folds))

    async def _gather_partials(self, stream: str) -> List[Any]:
        """Sequence-point read of every shard's partial for ``stream``."""
        def read(streams: Dict[str, Any]) -> Optional[Any]:
            rs = streams.get(stream)
            if rs is None:
                return None
            out = self._kernel.new_stream()
            out.merge(rs)  # deep-ish copy: merge duplicates the exact state
            return out

        partials = await asyncio.gather(*(s.call(read) for s in self.shards))
        return [p for p in partials if p is not None]

    async def _merged_state(self, stream: str) -> Any:
        merged = self._kernel.new_stream()
        for partial in await self._gather_partials(stream):
            merged.merge(partial)
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
        """Stateless one-shot exact sum through the adaptive tier ladder.

        No stream is touched: the request's values are summed with
        :meth:`AdaptiveFolder.sum` and the correctly rounded result is
        returned along with the tier that proved it. This is the
        request-scoped fast path — well-conditioned payloads are served
        by the Tier-0 certificate at a fraction of a fold's cost.
        """
        if "values" not in request:
            raise ServiceError("sum needs a 'values' field")
        mode = request.get("mode", "nearest")
        if mode not in ("nearest", "down", "up", "zero"):
            raise ValueError(f"unknown rounding mode {mode!r}")
        arr = self._validated_array(request["values"])
        result = self._folder.sum(arr, mode=mode)
        return {
            "value": result.value,
            "hex": result.value.hex(),
            "count": result.n,
            "tier": result.tier,
            "escalations": result.escalations,
            "margin_bits": (
                result.margin_bits if math.isfinite(result.margin_bits) else None
            ),
        }

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
        return {"added": await self._apply(stream, kind, x, y)}

    @staticmethod
    def _expansion(kind: str) -> ReduceOp:
        """The :mod:`repro.reduce` op whose ``expand`` an ingest kind runs."""
        return get_op(INGEST_KINDS[kind].reduce_op)

    async def _apply(
        self,
        stream: str,
        kind: str,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
    ) -> int:
        """Domain-check, expand, and scatter one batch; returns inputs folded.

        The expansion is elementwise and deterministic (``sum``'s is the
        identity), so chunked ingest produces exactly the term multiset
        a serial expansion of the whole array would — which is what
        makes reads bit-identical to the serial references, and what
        lets the cluster WAL log pre-expansion inputs and re-expand on
        replay. A second term stream (the ``observations`` kind's
        TwoSquare terms) lands in the stream's :func:`square_shadow`.
        """
        op = self._expansion(kind)
        op.check_domain(x, y)
        for target, terms in zip((stream, square_shadow(stream)), op.expand(x, y)):
            await self._scatter(target, terms)
        return int(x.size)

    # -- reads ----------------------------------------------------------

    async def _op_dot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Correctly rounded dot product of an ``add_pairs`` stream.

        The TwoProduct terms already sum to the exact inner product, so
        this is precisely the ``value`` read — a named endpoint keeps
        the op surface symmetric with ``norm2``/``moments``.
        """
        return await self._op_value(request)

    async def _op_norm2(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Correctly rounded Euclidean norm of an ``add_squares`` stream.

        The ``norm2`` op's finish rounds the square root of the exact
        sum-of-squares once (nearest only); the norm of an empty stream
        is 0.0, never an error.
        """
        stream = _require_stream(request)
        merged = await self._merged_state(stream)
        value = get_op("norm2").finish_exact(
            [merged.exact_fraction()], merged.count, "nearest"
        )
        return {"value": value, "count": merged.count, "hex": value.hex()}

    async def _op_moments(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Exact mean and variance of an ``add_observations`` stream."""
        stream = _require_stream(request)
        mode = request.get("mode", "nearest")
        if mode not in ("nearest", "down", "up", "zero"):
            raise ValueError(f"unknown rounding mode {mode!r}")
        ddof = request.get("ddof", 0)
        if isinstance(ddof, bool) or not isinstance(ddof, int) or ddof < 0:
            raise ServiceError("'ddof' must be a non-negative integer")
        merged = await self._merged_state(stream)
        shadow = await self._merged_state(square_shadow(stream))
        return finish_moments(stream, merged, shadow, ddof, mode, "add_observations")

    async def _op_value(self, request: Dict[str, Any]) -> Dict[str, Any]:
        stream = _require_stream(request)
        mode = request.get("mode", "nearest")
        if mode not in ("nearest", "down", "up", "zero"):
            # validate eagerly: rounding is skipped for empty streams,
            # which must not let a bad mode slip through silently
            raise ValueError(f"unknown rounding mode {mode!r}")
        merged = await self._merged_state(stream)
        value = merged.value(mode)
        return {"value": value, "count": merged.count, "hex": value.hex()}

    async def _op_mean(self, request: Dict[str, Any]) -> Dict[str, Any]:
        stream = _require_stream(request)
        merged = await self._merged_state(stream)
        if merged.count == 0:
            raise EmptyStreamError(f"mean of empty stream {stream!r}")
        mean = get_op("mean").finish_exact(
            [merged.exact_fraction()], merged.count, "nearest"
        )
        return {"mean": mean, "count": merged.count, "hex": mean.hex()}

    async def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        snap = self.metrics.snapshot()
        snap["shards"] = len(self.shards)
        snap["policy"] = self.config.policy
        snap["queue_depths"] = [s.queue_depth for s in self.shards]
        return {"stats": snap}

    async def _op_streams(self, request: Dict[str, Any]) -> Dict[str, Any]:
        def counts(streams: Dict[str, Any]) -> Dict[str, int]:
            return {name: rs.count for name, rs in streams.items()}

        totals: Dict[str, int] = {}
        for shard_counts in await asyncio.gather(
            *(s.call(counts) for s in self.shards)
        ):
            for name, count in shard_counts.items():
                totals[name] = totals.get(name, 0) + count
        return {"streams": dict(sorted(totals.items()))}

    async def _op_merge(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Fold stream ``src`` into stream ``dst`` and delete ``src``.

        Runs shard-locally: each shard merges its own ``src`` partial
        into its own ``dst`` partial. Exactness of partial merges makes
        this equivalent to any global ordering.
        """
        src = request.get("src")
        dst = request.get("dst")
        if not isinstance(src, str) or not isinstance(dst, str) or not src or not dst:
            raise ServiceError("merge needs non-empty 'src' and 'dst' stream names")
        if src == dst:
            raise ServiceError("merge src and dst must differ")

        def merge_local(streams: Dict[str, Any]) -> int:
            partial = streams.pop(src, None)
            if partial is None:
                return 0
            rs = streams.get(dst)
            if rs is None:
                rs = streams[dst] = self._kernel.new_stream()
            rs.merge(partial)
            return partial.count

        moved = sum(
            await asyncio.gather(*(s.call(merge_local) for s in self.shards))
        )
        return {"merged": moved, "src": src, "dst": dst}

    async def _op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        stream = _require_stream(request)
        merged = await self._merged_state(stream)
        return {
            "snapshot": encode_bytes_field(merged.to_bytes()),
            "count": merged.count,
        }

    async def _op_restore(self, request: Dict[str, Any]) -> Dict[str, Any]:
        stream = _require_stream(request)
        payload = decode_bytes_field(request.get("snapshot"))
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

        await self._next_shard().call(absorb)
        return {"restored": restored.count}

    async def _op_drain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Atomically read out and remove a stream (exact hand-off)."""
        stream = _require_stream(request)

        def pop(streams: Dict[str, Any]) -> Optional[Any]:
            return streams.pop(stream, None)

        merged = self._kernel.new_stream()
        for partial in await asyncio.gather(*(s.call(pop) for s in self.shards)):
            if partial is not None:
                merged.merge(partial)
        value = merged.value()
        return {
            "value": value,
            "count": merged.count,
            "hex": value.hex(),
            "snapshot": encode_bytes_field(merged.to_bytes()),
        }

    async def _op_flush(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Barrier: resolves after every previously enqueued fold."""
        await asyncio.gather(*(s.call(lambda streams: None) for s in self.shards))
        return {"flushed": True}

    # ------------------------------------------------------------------
    # whole-service persistence (CLI --state-path)
    # ------------------------------------------------------------------

    async def save_state(self, path: Union[str, Path]) -> int:
        """Snapshot every stream to one JSON file; returns stream count."""
        listing = await self._op_streams({})
        states: Dict[str, str] = {}
        for name in listing["streams"]:
            snap = await self._op_snapshot({"stream": name})
            states[name] = snap["snapshot"]
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
            await self._op_restore({"stream": name, "snapshot": b64})
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
