"""Asyncio TCP front-end for :class:`~repro.serve.service.ReproService`.

One connection may *pipeline* frames: the server reads continuously,
dispatches each request as its own task (bounded by a per-connection
in-flight cap, ``max_inflight``), and answers each response tagged with
the request's ``id`` for client-side matching. Out-of-order completion
is harmless for ingest — superaccumulator updates commute — and any
client that awaits its adds before reading gets read-your-writes,
because the service applies a fold before it acknowledges it.

**Reply coalescing.** A finished request adds its encoded reply to the
connection's outbox. If no other request of that connection is still
unanswered, the outbox goes out now in one ``writer.write``; otherwise
one flush is scheduled with ``loop.call_soon``, so a pipelined burst
read in one pass is answered with one socket send. The count of
unanswered requests is exact: it rises when a request is dispatched
and falls when its reply is queued.

**Backpressure** is the ``max_inflight`` bound plus TCP flow control:
the read loop waits for the transport to drain before it reads the
next frame, so a client that stops reading replies stops being read.

Every connection starts on the JSON-lines wire. A ``hello`` op
(handled inline, like ``shutdown``, because it mutates per-connection
state) negotiates the protocol version and may upgrade the connection
to the binary wire, after which ingest payloads may be codec ``RBAT``
frames decoded as zero-copy float64 views. Responses stay JSON either
way, and a binary connection may still interleave JSON requests — the
payload's first byte discriminates per frame.

Error containment per the protocol module's contract: invalid JSON or
a corrupt batch frame in a well-delimited frame gets an error
*response* and the connection lives on; an unrecoverable framing
violation (oversized or truncated length) gets a best-effort error
frame and the connection is closed. A connection dying never takes
the server down.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_WIRES,
    WIRE_BINARY,
    WIRE_JSON,
    encode_frame,
    parse_payload,
    read_frame_bytes,
)
from repro.serve.service import ReproService

__all__ = ["ReproServer"]


class _Outbox:
    """One connection's queued reply frames, written together."""

    __slots__ = ("_writer", "_max_frame", "_frames", "_scheduled", "unanswered")

    def __init__(self, writer: asyncio.StreamWriter, max_frame: int) -> None:
        self._writer = writer
        self._max_frame = max_frame
        self._frames: List[bytes] = []
        self._scheduled = False
        #: dispatched requests whose reply is not queued yet
        self.unanswered = 0

    def reply(self, response: Dict[str, Any]) -> None:
        """Queue one reply; send now unless more replies are coming."""
        try:
            self._frames.append(encode_frame(response, max_frame=self._max_frame))
        except ProtocolError:
            return  # unencodable response; nothing to send
        if self.unanswered == 0:
            self.flush()
        elif not self._scheduled:
            self._scheduled = True
            asyncio.get_running_loop().call_soon(self.flush)

    def flush(self) -> None:
        """Write every queued reply in one ``writer.write``."""
        self._scheduled = False
        if not self._frames or self._writer.is_closing():
            return
        frames, self._frames = self._frames, []
        self._writer.write(b"".join(frames))


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
        self._conn_tasks: Set["asyncio.Task[None]"] = set()

    def _stop_event(self) -> asyncio.Event:
        if self._stop is None:
            self._stop = asyncio.Event()
        return self._stop

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (service must already be started)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._stop_event().set()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        max_frame = self.service.config.max_frame
        outbox = _Outbox(writer, max_frame)
        inflight = asyncio.Semaphore(self.max_inflight)
        pending: Set["asyncio.Task[None]"] = set()
        wire = WIRE_JSON  # per-connection mode; `hello` may upgrade it
        try:
            while True:
                await writer.drain()
                try:
                    payload = await read_frame_bytes(reader, max_frame=max_frame)
                    if payload is None:  # clean EOF
                        break
                    request = parse_payload(payload, binary=wire == WIRE_BINARY)
                except ProtocolError as exc:
                    fatal = getattr(exc, "fatal", True)
                    err = {
                        "ok": False,
                        "code": exc.code,
                        "error": str(exc),
                        "fatal": fatal,
                    }
                    # Payload errors found after the frame decoded far
                    # enough to yield a request id (e.g. non-finite
                    # values in a valid RBAT frame) are matchable.
                    rid = getattr(exc, "request_id", None)
                    if rid is not None:
                        err["id"] = rid
                    outbox.reply(err)
                    if fatal:
                        break
                    continue
                op = request.get("op")
                if op == "hello":
                    wire, response = self._hello(request, wire)
                    outbox.reply(response)
                    continue
                if op == "shutdown":
                    outbox.reply(self._shutdown(request))
                    outbox.flush()
                    if self.service.config.allow_shutdown:
                        self.request_stop()
                    break
                self.service.record_wire(request, len(payload))
                await inflight.acquire()
                outbox.unanswered += 1
                sub = asyncio.get_running_loop().create_task(
                    self._dispatch(request, outbox, inflight)
                )
                pending.add(sub)
                sub.add_done_callback(pending.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            outbox.flush()
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self,
        request: Dict[str, Any],
        outbox: _Outbox,
        inflight: asyncio.Semaphore,
    ) -> None:
        try:
            response = await self.service.handle(request)
        finally:
            inflight.release()
            outbox.unanswered -= 1
        outbox.reply(response)

    def _hello(self, request: Dict[str, Any], wire: str) -> Tuple[str, Dict[str, Any]]:
        """Negotiate protocol version / wire mode: (new mode, reply).

        Handled inline (not dispatched) because the wire mode is
        per-connection read-loop state. A rejected hello answers with
        the ``protocol-version`` error code and leaves the connection
        in its current mode — the client downgrades, nothing breaks.
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
