"""Asyncio TCP front-end for :class:`~repro.serve.service.ReproService`.

One connection may *pipeline* frames: the server reads continuously,
dispatches each request as its own task (bounded by a per-connection
in-flight cap), and writes responses as they complete, tagged with the
request's ``id`` for client-side matching. Out-of-order completion is
harmless for ingest — superaccumulator updates commute — and any
client that awaits its adds before reading still gets read-your-writes
through the service's FIFO shard queues.

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
from typing import Any, Dict, Optional, Set

from repro.errors import ProtocolError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_WIRES,
    WIRE_BINARY,
    WIRE_JSON,
    parse_payload,
    read_frame_bytes,
    write_frame,
)
from repro.serve.service import ReproService

__all__ = ["ReproServer"]


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
        write_lock = asyncio.Lock()
        inflight = asyncio.Semaphore(self.max_inflight)
        pending: Set["asyncio.Task[None]"] = set()
        max_frame = self.service.config.max_frame
        wire = WIRE_JSON  # per-connection mode; `hello` may upgrade it
        try:
            while True:
                try:
                    payload = await read_frame_bytes(reader, max_frame=max_frame)
                    if payload is None:  # clean EOF
                        break
                    request = parse_payload(payload, binary=wire == WIRE_BINARY)
                except ProtocolError as exc:
                    err = {
                        "ok": False,
                        "code": exc.code,
                        "error": str(exc),
                        "fatal": getattr(exc, "fatal", True),
                    }
                    # Payload errors found after the frame decoded far
                    # enough to yield a request id (e.g. non-finite
                    # values in a valid RBAT frame) are matchable.
                    rid = getattr(exc, "request_id", None)
                    if rid is not None:
                        err["id"] = rid
                    with contextlib.suppress(ConnectionError, ProtocolError):
                        async with write_lock:
                            await write_frame(writer, err, max_frame=max_frame)
                    if getattr(exc, "fatal", True):
                        break
                    continue
                op = request.get("op")
                if op == "hello":
                    wire = await self._handle_hello(
                        request, writer, write_lock, max_frame, wire
                    )
                    continue
                if op == "shutdown":
                    await self._handle_shutdown(request, writer, write_lock, max_frame)
                    break
                self.service.record_wire(request, len(payload))
                await inflight.acquire()
                sub = asyncio.get_running_loop().create_task(
                    self._dispatch(request, writer, write_lock, inflight, max_frame)
                )
                pending.add(sub)
                sub.add_done_callback(pending.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self,
        request: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        inflight: asyncio.Semaphore,
        max_frame: int,
    ) -> None:
        try:
            response = await self.service.handle(request)
            try:
                async with write_lock:
                    await write_frame(writer, response, max_frame=max_frame)
            except (ConnectionError, ProtocolError):
                pass  # client gone or response unencodable; nothing to do
        finally:
            inflight.release()

    async def _handle_hello(
        self,
        request: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        max_frame: int,
        wire: str,
    ) -> str:
        """Negotiate protocol version / wire mode; returns the new mode.

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
        with contextlib.suppress(ConnectionError):
            async with write_lock:
                await write_frame(writer, response, max_frame=max_frame)
        return wire

    async def _handle_shutdown(
        self,
        request: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        max_frame: int,
    ) -> None:
        allowed = self.service.config.allow_shutdown
        response: Dict[str, Any] = (
            {"ok": True, "stopping": True}
            if allowed
            else {"ok": False, "code": "forbidden", "error": "shutdown op disabled"}
        )
        if "id" in request:
            response["id"] = request["id"]
        with contextlib.suppress(ConnectionError):
            async with write_lock:
                await write_frame(writer, response, max_frame=max_frame)
        if allowed:
            self.request_stop()
