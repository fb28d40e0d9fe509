"""Clients for the exact-aggregation service.

:class:`ReproServeClient` speaks the TCP protocol with pipelining. Its
connection is an :class:`asyncio.Protocol` that matches replies to
waiting requests by ``id``, so many requests may be in flight on one
connection, and the request frames queued during one loop tick go out
in one ``transport.write``. There is no write lock and no per-request
``drain``: while the transport is paused (its write buffer is above
the high-water mark), callers wait before they queue.
:class:`InProcessClient` has the identical surface but calls
:meth:`ReproService.handle` directly, still round-tripping every
request and reply through the wire codec so tests exercise the real
encoding without sockets.

Both clients can negotiate the **binary wire** (``wire="binary"``):
after a successful ``hello`` the :meth:`~_ClientBase.request_batch`
bulk path ships each batch of any ingest kind as one codec ``RBAT``
frame — raw little-endian float64 bytes, no per-value boxing, no JSON
text — and a successful batch is answered with a fixed-size ``RACK``
ack, which :func:`~repro.serve.protocol.decode_reply` turns back into
the same reply dict the JSON wire carries. If the server rejects the
hello (old build, unknown wire) the client raises nothing and **falls
back to JSON-lines automatically**; the typed
:class:`ProtocolVersionError` is surfaced by :meth:`hello` for callers
that negotiate explicitly. Either wire produces bit-identical sums —
the negotiation is purely about speed.

Error responses are raised as the exception they encode:
``empty-stream`` -> :class:`EmptyStreamError`, ``bad-request`` ->
:class:`BadRequestError` (a ``ValueError``), ``protocol`` ->
:class:`ProtocolError`, ``protocol-version`` ->
:class:`ProtocolVersionError`, anything else ->
:class:`ServiceError` with ``.code`` set.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    BadRequestError,
    EmptyStreamError,
    ProtocolError,
    ProtocolVersionError,
    ReductionRangeError,
    ServiceError,
)
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    READ_OPS,
    WIRE_BINARY,
    WIRE_JSON,
    FrameDecoder,
    decode_bytes_field,
    decode_payload,
    decode_reply,
    encode_batch_frame,
    encode_bytes_field,
    encode_frame,
    encode_reply,
    json_batch_request,
    parse_payload,
)

__all__ = ["ReproServeClient", "InProcessClient", "raise_for_response"]

# Kept for benchmarks/suite/trace.py, which wraps this name as well.
encode_reduce_batch_frame = encode_batch_frame


def raise_for_response(response: Dict[str, Any]) -> Dict[str, Any]:
    """Return an ok response; raise the typed error of a failed one."""
    if response.get("ok"):
        return response
    code = response.get("code", "service")
    message = response.get("error", "service error")
    if code == "empty-stream":
        raise EmptyStreamError(message)
    if code == "reduction-range":
        raise ReductionRangeError(message)
    if code == "bad-request":
        raise BadRequestError(message)
    if code == "protocol-version":
        raise ProtocolVersionError(message)
    if code == "protocol":
        raise ProtocolError(message)
    err = ServiceError(message)
    err.code = code
    raise err


class _ClientBase:
    """Shared endpoint helpers over an abstract request transport."""

    #: Wire mode this client is currently using; transports that can
    #: negotiate override it after a successful ``hello``.
    wire: str = WIRE_JSON

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        raise NotImplementedError

    # -- ingest ----------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        return await self.request("ping")

    async def add(self, stream: str, value: float) -> int:
        resp = await self.request("add", stream=stream, value=float(value))
        return int(resp["added"])

    async def add_block(self, stream: str, block: Dict[str, Any]) -> int:
        resp = await self.request("add_block", stream=stream, block=block)
        return int(resp["added"])

    async def request_batch(
        self,
        stream: str,
        x: Any,
        *,
        op: str = "sum",
        y: Any = None,
        seq: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Bulk ingest of one batch of kind ``op``; returns the full response.

        ``op`` is the ingest kind — ``"sum"`` (plain values),
        ``"pairs"`` (dot products, needs ``y``), ``"squares"`` (norms)
        or ``"observations"`` (moments). On a binary-negotiated
        connection the raw pre-expansion inputs ship as one codec
        ``RBAT`` frame and the server expands them; this base
        implementation sends the kind's JSON op instead — same
        deterministic expansion server-side, same bits, slower wire.
        ``seq`` is the cluster plane's per-stream dedup sequence;
        single-node services ignore it. Cluster callers read the
        ``duplicate`` flag off the response.
        """
        request_op, fields = json_batch_request(stream, x, op=op, y=y, seq=seq)
        return await self.request(request_op, **fields)

    async def _added(self, stream: str, x: Any, **batch: Any) -> int:
        return int((await self.request_batch(stream, x, **batch))["added"])

    async def add_batch(
        self, stream: str, values: Any, *, seq: Optional[int] = None
    ) -> int:
        """Bulk ingest of a float64 array; returns the count folded."""
        return await self._added(stream, values, seq=seq)

    #: the same call under its JSON op's name
    add_array = add_batch

    async def add_pairs(
        self, stream: str, xs: Any, ys: Any, *, seq: Optional[int] = None
    ) -> int:
        """Ingest (x, y) pairs for a dot-product stream; returns pairs added."""
        return await self._added(stream, xs, op="pairs", y=ys, seq=seq)

    async def add_squares(
        self, stream: str, values: Any, *, seq: Optional[int] = None
    ) -> int:
        """Ingest values for a norm stream; returns values added."""
        return await self._added(stream, values, op="squares", seq=seq)

    async def add_observations(
        self, stream: str, values: Any, *, seq: Optional[int] = None
    ) -> int:
        """Ingest observations for a moments stream; returns values added."""
        return await self._added(stream, values, op="observations", seq=seq)

    async def sum_values(
        self, values: Iterable[float], mode: str = "nearest"
    ) -> Dict[str, Any]:
        """Stateless one-shot exact sum (one binned deposit, no stream).

        Returns the full response dict: ``value``, ``hex`` and
        ``count``.
        """
        return await self.request(
            "sum",
            # reprolint: disable-next-line=ARCH005 -- one-shot JSON sum op carries no stream; no binary frame exists for it
            values=[float(v) for v in values],
            mode=mode,
        )

    # -- snapshot reads --------------------------------------------------

    async def read(
        self, stream: str, op: str = "value", **fields: Any
    ) -> Dict[str, Any]:
        """One read op of ``stream``; returns the full response.

        ``op`` is a :data:`~repro.serve.protocol.READ_OPS` name —
        ``value``, ``dot``, ``mean``, ``norm2`` or ``moments`` — and
        ``fields`` its ``mode`` (and, for ``moments``, ``ddof``).
        """
        if op not in READ_OPS:
            raise ValueError(
                f"unknown read op {op!r}; expected one of {sorted(READ_OPS)}"
            )
        return await self.request(op, stream=stream, **fields)

    async def value(self, stream: str, mode: str = "nearest") -> float:
        return float((await self.read(stream, "value", mode=mode))["value"])

    async def count(self, stream: str) -> int:
        return int((await self.read(stream))["count"])

    async def mean(self, stream: str) -> float:
        return float((await self.read(stream, "mean"))["mean"])

    async def dot(self, stream: str, mode: str = "nearest") -> float:
        """Correctly rounded dot product of an :meth:`add_pairs` stream."""
        return float((await self.read(stream, "dot", mode=mode))["value"])

    async def norm2(self, stream: str) -> float:
        """Correctly rounded Euclidean norm of an :meth:`add_squares` stream."""
        return float((await self.read(stream, "norm2"))["value"])

    async def moments(
        self, stream: str, *, ddof: int = 0, mode: str = "nearest"
    ) -> Dict[str, Any]:
        """Exact mean/variance of an :meth:`add_observations` stream.

        Returns the full response dict — ``mean``, ``variance``,
        ``count``, ``ddof``.
        """
        return await self.read(stream, "moments", ddof=ddof, mode=mode)

    async def stats(self) -> Dict[str, Any]:
        return (await self.request("stats"))["stats"]

    async def streams(self) -> Dict[str, int]:
        return (await self.request("streams"))["streams"]

    async def flush(self) -> None:
        await self.request("flush")

    # -- state manipulation ---------------------------------------------

    async def merge(self, src: str, dst: str) -> int:
        resp = await self.request("merge", src=src, dst=dst)
        return int(resp["merged"])

    async def snapshot(self, stream: str) -> bytes:
        resp = await self.request("snapshot", stream=stream)
        return decode_bytes_field(resp["snapshot"])

    async def restore(self, stream: str, payload: bytes) -> int:
        resp = await self.request(
            "restore", stream=stream, snapshot=encode_bytes_field(payload)
        )
        return int(resp["restored"])

    async def drain(self, stream: str) -> Tuple[float, int, bytes]:
        resp = await self.request("drain", stream=stream)
        return (
            float(resp["value"]),
            int(resp["count"]),
            decode_bytes_field(resp["snapshot"]),
        )


class _ClientConnection(asyncio.Protocol):
    """The TCP client's end of one connection.

    Replies are cut by a :class:`FrameDecoder`, decoded with
    :func:`decode_reply` and matched to their callers' futures by
    ``id``. Request frames queued during one loop tick go out in one
    ``transport.write``, flushed by ``loop.call_soon``.
    """

    def __init__(self, max_frame: int) -> None:
        self._decoder = FrameDecoder(max_frame=max_frame)
        self._transport: Optional[asyncio.Transport] = None
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._out: List[bytes] = []
        self._flush_scheduled = False
        #: set while the transport accepts writes (cleared by pause_writing)
        self._writable = asyncio.Event()
        self._writable.set()
        #: why the connection can no longer carry requests, once it can't
        self._lost: Optional[Exception] = None
        self._closed = asyncio.get_running_loop().create_future()

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            for payload in self._decoder.payloads(data):
                response = decode_reply(payload)
                rid = response.get("id")
                fut = self._pending.pop(rid, None) if rid is not None else None
                if fut is not None and not fut.done():
                    fut.set_result(response)
                # unmatched frames (e.g. fatal protocol notices) are
                # surfaced when the connection then drops
        except ProtocolError as exc:
            self.fail(exc)
            if self._transport is not None:
                self._transport.close()

    def eof_received(self) -> bool:
        self.fail(ConnectionError("server closed connection"))
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.fail(exc if exc is not None else ConnectionError("connection closed"))
        self._writable.set()  # wake callers waiting to queue; they fail fast
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    # -- requests ----------------------------------------------------------

    async def round_trip(self, rid: int, frame: bytes) -> Dict[str, Any]:
        """Queue one encoded request frame and await its matched reply."""
        if not self._writable.is_set():
            await self._writable.wait()
        if self._lost is not None:
            raise ConnectionError(f"connection is down: {self._lost}")
        fut: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[rid] = fut
        self._out.append(frame)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)
        return await fut

    def _flush(self) -> None:
        """Write every queued request frame in one ``transport.write``."""
        self._flush_scheduled = False
        if not self._out or self._transport is None:
            return
        frames, self._out = self._out, []
        if not self._transport.is_closing():
            self._transport.write(b"".join(frames))

    def fail(self, exc: Exception) -> None:
        """Fail every unanswered request with ``exc``; refuse new ones."""
        if self._lost is None:
            self._lost = exc
        self._out.clear()
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(exc)
        self._pending.clear()

    async def close(self) -> None:
        """Send what is queued, close, and wait for the connection to end."""
        self._flush()
        if self._transport is not None:
            self._transport.close()
        await self._closed


class ReproServeClient(_ClientBase):
    """Pipelined TCP client; create via :meth:`connect`."""

    def __init__(
        self, conn: _ClientConnection, *, max_frame: int = DEFAULT_MAX_FRAME
    ) -> None:
        self._conn = conn
        self._max_frame = max_frame
        self._ids = itertools.count(1)
        self.wire = WIRE_JSON

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        wire: str = WIRE_JSON,
    ) -> "ReproServeClient":
        """Open a connection, negotiating ``wire`` if it isn't JSON-lines.

        A server that rejects the negotiation (pre-binary build) is not
        an error: the client silently stays on JSON-lines — the caller
        checks :attr:`wire` if it cares which mode won. Use
        :meth:`hello` directly to get the typed
        :class:`ProtocolVersionError` instead of the fallback.
        """
        _, conn = await asyncio.get_running_loop().create_connection(
            lambda: _ClientConnection(max_frame), host, port
        )
        client = cls(conn, max_frame=max_frame)
        if wire != WIRE_JSON:
            try:
                await client.hello(wire=wire)
            except ProtocolVersionError:
                client.wire = WIRE_JSON  # automatic JSON-lines fallback
        return client

    async def hello(
        self, *, wire: str = WIRE_BINARY, version: int = PROTOCOL_VERSION
    ) -> Dict[str, Any]:
        """Negotiate the protocol version and wire mode explicitly.

        Returns the server's hello response and records the negotiated
        mode in :attr:`wire`.

        Raises:
            ProtocolVersionError: the server rejected the requested
                version/wire combination. The connection stays usable
                on its previous wire.
        """
        resp = await self.request("hello", version=version, wire=wire)
        self.wire = str(resp.get("wire", WIRE_JSON))
        return resp

    async def close(self) -> None:
        await self._conn.close()

    async def __aenter__(self) -> "ReproServeClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # -- transport -------------------------------------------------------

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        rid = next(self._ids)
        message = {"op": op, "id": rid, **fields}
        frame = encode_frame(message, max_frame=self._max_frame)
        return raise_for_response(await self._conn.round_trip(rid, frame))

    async def request_batch(
        self,
        stream: str,
        x: Any,
        *,
        op: str = "sum",
        y: Any = None,
        seq: Optional[int] = None,
    ) -> Dict[str, Any]:
        if self.wire != WIRE_BINARY:
            return await super().request_batch(stream, x, op=op, y=y, seq=seq)
        rid = next(self._ids)
        frame = encode_batch_frame(
            rid, stream, x, op=op, y=y, seq=seq, max_frame=self._max_frame
        )
        return raise_for_response(await self._conn.round_trip(rid, frame))

    async def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop; returns its final response."""
        return await self.request("shutdown")


class InProcessClient(_ClientBase):
    """Same surface, no sockets: requests go straight to the service.

    Every request still passes through ``encode_frame``/``decode`` and
    every reply through ``encode_reply``/``decode_reply``, so the JSON
    codec (including bit-exact float round-tripping) is on the path,
    making this a faithful stand-in for the TCP client in tests and
    benchmarks. With ``wire="binary"``, :meth:`request_batch` likewise
    round-trips through the real ``RBAT`` encode/parse pair and its
    reply through the ``RACK`` ack, so the binary path is exercised
    without sockets too.
    """

    def __init__(self, service: Any, *, wire: str = WIRE_JSON) -> None:
        if wire not in (WIRE_JSON, WIRE_BINARY):
            raise ValueError(f"unknown wire mode {wire!r}")
        self.service = service
        self.wire = wire
        self._ids = itertools.count(1)

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        message = {"op": op, "id": next(self._ids), **fields}
        frame = encode_frame(message, max_frame=self.service.config.max_frame)
        return await self._round_trip(decode_payload(frame[4:]), len(frame) - 4)

    async def request_batch(
        self,
        stream: str,
        x: Any,
        *,
        op: str = "sum",
        y: Any = None,
        seq: Optional[int] = None,
    ) -> Dict[str, Any]:
        if self.wire != WIRE_BINARY:
            return await super().request_batch(stream, x, op=op, y=y, seq=seq)
        frame = encode_batch_frame(
            next(self._ids), stream, x, op=op, y=y, seq=seq,
            max_frame=self.service.config.max_frame,
        )
        return await self._round_trip(
            parse_payload(frame[4:], binary=True), len(frame) - 4
        )

    async def _round_trip(
        self, request: Dict[str, Any], payload_bytes: int
    ) -> Dict[str, Any]:
        """Hand one parsed request to the service, as the TCP server does.

        The per-wire ingest accounting is the server's too, so
        LocalCluster nodes' ``stats.wire`` sees the frames the socketless
        transport encoded and parsed.
        """
        self.service.record_wire(request, payload_bytes)
        response = await self.service.handle(request)
        frame = encode_reply(
            response,
            ack=request.get("wire") == WIRE_BINARY,
            max_frame=self.service.config.max_frame,
        )
        return raise_for_response(decode_reply(frame[4:]))

    async def close(self) -> None:  # symmetry with the TCP client
        return None
