"""Clients for the exact-aggregation service.

:class:`ReproServeClient` speaks the TCP protocol with pipelining: a
background reader task matches responses to requests by ``id``, so
many requests may be in flight on one connection — that concurrency is
what feeds the server's microbatcher. :class:`InProcessClient` has the
identical surface but calls :meth:`ReproService.handle` directly,
still round-tripping every message through the wire codec so tests
exercise the real encoding without sockets.

Both clients can negotiate the **binary wire** (``wire="binary"``):
after a successful ``hello`` the :meth:`~_ClientBase.request_batch`
bulk path ships each batch of any ingest kind as one codec ``RBAT``
frame — raw little-endian float64 bytes, no per-value boxing, no JSON
text. If the
server rejects the hello (old build, unknown wire) the client raises
nothing and **falls back to JSON-lines automatically**; the typed
:class:`ProtocolVersionError` is surfaced by :meth:`hello` for callers
that negotiate explicitly. Either wire produces bit-identical sums —
the negotiation is purely about speed.

Error responses are raised as the exception they encode:
``busy`` -> :class:`BackpressureError` (with ``retry_after``),
``empty-stream`` -> :class:`EmptyStreamError`, ``protocol`` ->
:class:`ProtocolError`, ``protocol-version`` ->
:class:`ProtocolVersionError`, anything else ->
:class:`ServiceError` with ``.code`` set.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.errors import (
    BackpressureError,
    EmptyStreamError,
    ProtocolError,
    ProtocolVersionError,
    ReductionRangeError,
    ServiceError,
)
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    WIRE_BINARY,
    WIRE_JSON,
    decode_bytes_field,
    decode_payload,
    encode_batch_frame,
    encode_bytes_field,
    encode_frame,
    json_batch_request,
    parse_payload,
    read_frame,
    write_frame,
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
    if code == "busy":
        raise BackpressureError(message, retry_after=response.get("retry_after", 0.05))
    if code == "empty-stream":
        raise EmptyStreamError(message)
    if code == "reduction-range":
        raise ReductionRangeError(message)
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
        """Stateless one-shot exact sum (adaptive tier ladder).

        Returns the full response dict — ``value``, ``hex``, ``count``,
        plus the tier telemetry (``tier``, ``escalations``,
        ``margin_bits``) for callers that want the decision trail.
        """
        return await self.request(
            "sum",
            # reprolint: disable-next-line=ARCH005 -- one-shot JSON sum op carries no stream; no binary frame exists for it
            values=[float(v) for v in values],
            mode=mode,
        )

    # -- snapshot reads --------------------------------------------------

    async def value(self, stream: str, mode: str = "nearest") -> float:
        resp = await self.request("value", stream=stream, mode=mode)
        return float(resp["value"])

    async def count(self, stream: str) -> int:
        resp = await self.request("value", stream=stream)
        return int(resp["count"])

    async def mean(self, stream: str) -> float:
        resp = await self.request("mean", stream=stream)
        return float(resp["mean"])

    async def dot(self, stream: str, mode: str = "nearest") -> float:
        """Correctly rounded dot product of an :meth:`add_pairs` stream."""
        resp = await self.request("dot", stream=stream, mode=mode)
        return float(resp["value"])

    async def norm2(self, stream: str) -> float:
        """Correctly rounded Euclidean norm of an :meth:`add_squares` stream."""
        resp = await self.request("norm2", stream=stream)
        return float(resp["value"])

    async def moments(
        self, stream: str, *, ddof: int = 0, mode: str = "nearest"
    ) -> Dict[str, Any]:
        """Exact mean/variance of an :meth:`add_observations` stream.

        Returns the full response dict — ``mean``, ``variance``,
        ``count``, ``ddof``.
        """
        return await self.request("moments", stream=stream, ddof=ddof, mode=mode)

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


class ReproServeClient(_ClientBase):
    """Pipelined TCP client; create via :meth:`connect`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self._ids = itertools.count(1)
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._write_lock = asyncio.Lock()
        self.wire = WIRE_JSON
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

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
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, max_frame=max_frame)
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
        self._reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._reader_task
        with contextlib.suppress(ConnectionError):
            self._writer.close()
            await self._writer.wait_closed()
        self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "ReproServeClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # -- transport -------------------------------------------------------

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        rid = next(self._ids)
        message = {"op": op, "id": rid, **fields}
        return await self._round_trip(
            rid, encode_frame(message, max_frame=self._max_frame)
        )

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
        return await self._round_trip(rid, frame)

    async def _round_trip(self, rid: int, frame: bytes) -> Dict[str, Any]:
        """Send one encoded request frame and await its matched response."""
        fut: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[rid] = fut
        try:
            async with self._write_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except Exception:
            self._pending.pop(rid, None)
            raise
        return raise_for_response(await fut)

    async def send_raw(self, message: Dict[str, Any]) -> None:
        """Fire one frame without registering for a response (tests)."""
        async with self._write_lock:
            await write_frame(self._writer, message, max_frame=self._max_frame)

    async def send_raw_bytes(self, frame: bytes) -> None:
        """Fire pre-encoded frame bytes without response matching (tests)."""
        async with self._write_lock:
            self._writer.write(frame)
            await self._writer.drain()

    async def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop; returns its final response."""
        return await self.request("shutdown")

    async def _read_loop(self) -> None:
        try:
            while True:
                response = await read_frame(self._reader, max_frame=self._max_frame)
                if response is None:
                    self._fail_pending(ConnectionError("server closed connection"))
                    return
                rid = response.get("id")
                fut = self._pending.pop(rid, None) if rid is not None else None
                if fut is not None and not fut.done():
                    fut.set_result(response)
                # unmatched frames (e.g. fatal protocol notices) are
                # surfaced when the connection then drops
        except ProtocolError as exc:
            self._fail_pending(exc)
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            self._fail_pending(exc)

    def _fail_pending(self, exc: Exception) -> None:
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(exc)
        self._pending.clear()


class InProcessClient(_ClientBase):
    """Same surface, no sockets: requests go straight to the service.

    Every message still passes through ``encode_frame``/``decode`` so
    the JSON codec (including bit-exact float round-tripping) is on the
    path, making this a faithful stand-in for the TCP client in tests
    and benchmarks. With ``wire="binary"``, :meth:`request_batch`
    likewise round-trips through the real ``RBAT`` encode/parse pair, so
    the zero-copy binary path is exercised without sockets too.
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
        back = decode_payload(
            encode_frame(response, max_frame=self.service.config.max_frame)[4:]
        )
        return raise_for_response(back)

    async def close(self) -> None:  # symmetry with the TCP client
        return None
