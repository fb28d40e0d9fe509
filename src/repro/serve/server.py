"""Asyncio TCP front-end for :class:`~repro.serve.service.ReproService`.

Each connection is an :class:`asyncio.Protocol`. ``data_received``
feeds a :class:`~repro.serve.protocol.FrameDecoder` and handles the
frames it cuts in arrival order, parsing each payload with the
connection's *current* wire mode — a ``hello`` takes effect for the
next frame of the same chunk.

**Inline dispatch.** A request whose op cannot suspend (every fold
and every read of the plain service) runs to completion inside
``data_received``: the server creates the ``ReproService.handle``
coroutine and drives it with one ``send(None)``. Should it suspend
anyway, the server raises :class:`RuntimeError` — a suspended
coroutine is never stepped outside a task. Only the ops the service
names in :meth:`~repro.serve.service.ReproService.may_suspend` (a
cluster node's WAL-backed ingest) get a task. Completion order does
not matter: superaccumulator updates commute, replies carry the
request ``id``, and the service applies a fold before it acknowledges
it, so a client that awaits its adds before reading gets
read-your-writes.

**One write per burst.** Every reply produced by one
``data_received`` goes out in one ``transport.write``; the replies of
tasks that finish in one loop tick go out together in one write
scheduled with ``loop.call_soon``. A successful binary-wire ingest is
answered with a fixed-size codec ``RACK`` ack instead of JSON
(:func:`~repro.serve.protocol.encode_reply`).

**Backpressure.** Reading pauses while ``max_inflight`` tasked
requests of the connection are unanswered (frames already received
wait in the decoder) and while the transport's write buffer is above
its high-water mark (``pause_writing``/``resume_writing``), so a
client that stops reading replies stops being read.

Every connection starts on the JSON-lines wire. A ``hello`` op
(handled by the server, like ``shutdown``, because it mutates
per-connection state) negotiates the protocol version and may upgrade
the connection to the binary wire, after which ingest payloads may be
codec ``RBAT`` frames decoded as zero-copy float64 views. A binary
connection may still interleave JSON requests — the payload's first
byte discriminates per frame.

Error containment per the protocol module's contract: invalid JSON or
a corrupt batch frame in a well-delimited frame gets an error
*response* and the connection lives on; an unrecoverable framing
violation (zero or oversized length) gets a best-effort error frame
and the connection is closed. A connection dying never takes the
server down.
"""

from __future__ import annotations

import asyncio
from typing import Any, Coroutine, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_WIRES,
    WIRE_BINARY,
    WIRE_JSON,
    FrameDecoder,
    encode_reply,
    parse_payload,
)
from repro.serve.service import ReproService

__all__ = ["ReproServer"]


def run_inline(coro: Coroutine[Any, Any, Any]) -> Any:
    """Run a coroutine that must not suspend to completion; return its
    value.

    Raises:
        RuntimeError: the coroutine suspended. It is closed, not
            resumed: a request that may await belongs in a task.
    """
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise RuntimeError(
        f"{coro.__qualname__} suspended during inline dispatch; an op that "
        f"may await must be named by ReproService.may_suspend"
    )


def _error_reply(exc: ProtocolError) -> Dict[str, Any]:
    fatal = getattr(exc, "fatal", True)
    reply = {"ok": False, "code": exc.code, "error": str(exc), "fatal": fatal}
    # Payload errors found after the frame decoded far enough to yield a
    # request id (e.g. non-finite values in a valid RBAT frame) are
    # matchable.
    rid = getattr(exc, "request_id", None)
    if rid is not None:
        reply["id"] = rid
    return reply


class _Connection(asyncio.Protocol):
    """One client connection: frame cutting, dispatch, reply batching."""

    def __init__(self, server: "ReproServer") -> None:
        self._server = server
        self._service = server.service
        self._max_frame = server.service.config.max_frame
        self._decoder = FrameDecoder(max_frame=self._max_frame)
        self._transport: Optional[asyncio.Transport] = None
        self._wire = WIRE_JSON  # per-connection mode; `hello` may upgrade it
        self._out: List[bytes] = []
        self._flush_scheduled = False
        #: tasked requests whose reply is not queued yet
        self._unanswered = 0
        self._write_paused = False
        self._read_paused = False
        #: no more frames are handled (EOF, shutdown, framing error);
        #: the transport closes once every tasked request is answered
        self._done = False

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        self._server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._done = True
        self._out.clear()
        self._server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        if not self._done:
            self._handle_frames(data)
        self._flush()

    def eof_received(self) -> bool:
        self.finish()
        return True  # keep the write side open for outstanding replies

    def pause_writing(self) -> None:
        self._write_paused = True
        self._update_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._update_reading()

    # -- frames ------------------------------------------------------------

    def _handle_frames(self, data: bytes) -> None:
        """Handle every complete frame buffered, up to the in-flight bound."""
        try:
            for payload in self._decoder.payloads(data):
                self._handle_frame(payload)
                if self._done or self._unanswered >= self._server.max_inflight:
                    break  # the rest stays in the decoder
        except ProtocolError as exc:  # framing violation: connection-fatal
            self._reply(_error_reply(exc))
            self.finish()
        self._update_reading()

    def _handle_frame(self, payload: bytes) -> None:
        try:
            request = parse_payload(payload, binary=self._wire == WIRE_BINARY)
        except ProtocolError as exc:
            self._reply(_error_reply(exc))
            return
        op = request.get("op")
        if op == "hello":
            self._wire, response = self._server._hello(request, self._wire)
            self._reply(response)
            return
        if op == "shutdown":
            self._reply(self._server._shutdown(request))
            if self._service.config.allow_shutdown:
                self._server.request_stop()
            self.finish()
            return
        self._service.record_wire(request, len(payload))
        ack = request.get("wire") == WIRE_BINARY
        if not self._service.may_suspend(request):
            self._reply(run_inline(self._service.handle(request)), ack=ack)
            return
        self._unanswered += 1
        task = asyncio.get_running_loop().create_task(self._service.handle(request))
        self._server._tasks.add(task)
        task.add_done_callback(lambda t: self._answered(t, ack))

    def _answered(self, task: "asyncio.Task[Dict[str, Any]]", ack: bool) -> None:
        """Done callback of a tasked request: queue its reply."""
        self._server._tasks.discard(task)
        self._unanswered -= 1
        if not task.cancelled():
            self._reply(task.result(), ack=ack)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)
        if self._done:
            self.finish()
        elif self._read_paused:
            self._handle_frames(b"")  # frames held back by the bound

    # -- replies -----------------------------------------------------------

    def _reply(self, response: Dict[str, Any], *, ack: bool = False) -> None:
        try:
            frame = encode_reply(response, ack=ack, max_frame=self._max_frame)
        except ProtocolError as exc:  # a reply larger than max_frame
            err = _error_reply(exc)
            if "id" in response:
                err["id"] = response["id"]
            frame = encode_reply(err)
        self._out.append(frame)

    def _flush(self) -> None:
        """Write every queued reply in one ``transport.write``."""
        self._flush_scheduled = False
        transport = self._transport
        if not self._out or transport is None:
            return
        frames, self._out = self._out, []
        if not transport.is_closing():
            transport.write(b"".join(frames))

    def _update_reading(self) -> None:
        transport = self._transport
        if transport is None or transport.is_closing():
            return
        pause = (
            self._done
            or self._write_paused
            or self._unanswered >= self._server.max_inflight
        )
        if pause != self._read_paused:
            self._read_paused = pause
            if pause:
                transport.pause_reading()
            else:
                transport.resume_reading()

    def finish(self) -> None:
        """Stop handling frames; close once every reply is written."""
        self._done = True
        if self._unanswered == 0 and self._transport is not None:
            self._flush()
            self._transport.close()
        else:
            self._update_reading()


class ReproServer:
    """TCP server wrapping one service instance."""

    def __init__(
        self,
        service: ReproService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 1024,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; replaced by the bound port on start
        self.max_inflight = int(max_inflight)
        self._server: Optional[asyncio.AbstractServer] = None
        # Created lazily inside the running loop (3.9 binds the loop at
        # Event construction time, and servers are built before run()).
        self._stop: Optional[asyncio.Event] = None
        self._connections: Set[_Connection] = set()
        self._tasks: Set["asyncio.Task[Dict[str, Any]]"] = set()

    def _stop_event(self) -> asyncio.Event:
        if self._stop is None:
            self._stop = asyncio.Event()
        return self._stop

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (service must already be started)."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until :meth:`request_stop` (or the ``shutdown`` op)."""
        if self._server is None:
            await self.start()
        await self._stop_event().wait()
        await self.close()

    def request_stop(self) -> None:
        self._stop_event().set()

    async def close(self) -> None:
        """Stop listening, finish the tasked requests, close connections."""
        if self._server is not None:
            self._server.close()
        for conn in list(self._connections):
            conn.finish()
        while self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._stop_event().set()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # per-connection ops
    # ------------------------------------------------------------------

    def _hello(self, request: Dict[str, Any], wire: str) -> Tuple[str, Dict[str, Any]]:
        """Negotiate protocol version / wire mode: (new mode, reply).

        Handled by the server (not the service) because the wire mode is
        per-connection state. A rejected hello answers with the
        ``protocol-version`` error code and leaves the connection in its
        current mode — the client downgrades, nothing breaks.
        """
        version = request.get("version", 1)
        want = request.get("wire", WIRE_JSON)
        ok = (
            isinstance(version, int)
            and not isinstance(version, bool)
            and 1 <= version <= PROTOCOL_VERSION
            and want in SUPPORTED_WIRES
            and not (want == WIRE_BINARY and version < 2)
        )
        if ok:
            wire = str(want)
            response: Dict[str, Any] = {
                "ok": True,
                "version": PROTOCOL_VERSION,
                "wire": wire,
            }
        else:
            response = {
                "ok": False,
                "code": "protocol-version",
                "error": (
                    f"unsupported hello: version={version!r} wire={want!r} "
                    f"(this server speaks versions 1-{PROTOCOL_VERSION}, "
                    f"wires {list(SUPPORTED_WIRES)}; binary needs version >= 2)"
                ),
                "version": PROTOCOL_VERSION,
                "wires": list(SUPPORTED_WIRES),
            }
        if "id" in request:
            response["id"] = request["id"]
        return wire, response

    def _shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The reply to a ``shutdown`` op (the caller stops the server)."""
        response: Dict[str, Any] = (
            {"ok": True, "stopping": True}
            if self.service.config.allow_shutdown
            else {"ok": False, "code": "forbidden", "error": "shutdown op disabled"}
        )
        if "id" in request:
            response["id"] = request["id"]
        return response
