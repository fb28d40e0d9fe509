"""Length-prefixed wire protocol for the serve subsystem.

A *frame* is a 4-byte big-endian unsigned length ``n`` followed by
exactly ``n`` bytes of payload. Every connection starts in *JSON-lines*
mode: the payload is UTF-8 JSON encoding a single object and ending in
a newline (so a captured stream is also greppable as JSON lines), and
binary payloads (snapshot wire bytes) travel base64-encoded inside JSON
string fields.

A client may send a ``hello`` op negotiating the *binary* wire: after a
successful upgrade, ingest request payloads may instead be
codec-registered ``RBAT`` frames carrying an ingest kind and raw
little-endian float64 inputs (:func:`repro.codec.encode_reduce_batch`)
— no per-value text encoding, no Python boxing. The first payload byte
discriminates: ``{`` is a JSON object, a codec magic is a binary op.
Replies discriminate the same way: a successful ``RBAT`` request whose
reply holds nothing but ``added`` (and ``seq``/``duplicate``) is
answered with a fixed-size codec ``RACK`` ack
(:func:`encode_reply`/:func:`decode_reply`); every other reply,
errors included, is JSON on both wires.

Every ingest is "expand, then fold": its *kind* (``sum``, ``pairs``,
``squares``, ``observations``) names the :mod:`repro.reduce` op whose
expansion turns the inputs into fold terms — ``sum``'s is the
identity. :data:`INGEST_KINDS` is the one table mapping kinds to the
JSON op names a batch travels as; binary frames carry the kind itself.
Every read is "merge, then finish": :data:`READ_OPS` maps each JSON
read op to the :mod:`repro.reduce` finishes that fill its response.

Framing errors are *connection-fatal* (after an oversized or negative
length prefix the byte stream cannot be resynchronized); payload
errors (bad UTF-8, invalid JSON, non-object JSON, corrupt or
non-finite batch frames) are *recoverable* — the frame boundary is
still trustworthy, so the server answers with an error response and
keeps the connection. :class:`ProtocolError.fatal` carries that
distinction.

Floats survive the JSON round-trip bit-exactly: Python emits the
shortest round-tripping repr and parses it back to the identical
binary64, which is what lets a JSON protocol front an *exact*
summation service at all. The binary wire ships the identical
binary64 bit patterns, so the two modes are bit-identical by
construction — the upgrade buys speed, never a different sum.
"""

from __future__ import annotations

import asyncio
import base64
import json
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import codec
from repro.codec import LENGTH_PREFIX
from repro.errors import CodecError, ProtocolError
from repro.util.validation import ensure_float64_array

__all__ = [
    "DEFAULT_MAX_FRAME",
    "LENGTH_PREFIX",
    "PROTOCOL_VERSION",
    "WIRE_JSON",
    "WIRE_BINARY",
    "SUPPORTED_WIRES",
    "IngestKind",
    "INGEST_KINDS",
    "KIND_OF_OP",
    "ReadOp",
    "READ_OPS",
    "ingest_kind",
    "ingest_value_count",
    "json_batch_request",
    "encode_frame",
    "encode_batch_frame",
    "encode_reply",
    "decode_payload",
    "decode_reply",
    "parse_payload",
    "read_frame",
    "encode_bytes_field",
    "decode_bytes_field",
    "FrameDecoder",
]

#: Frames above this many payload bytes are rejected (both directions).
#: 48 MiB fits an ``add_array`` of ~2M values in JSON text form.
DEFAULT_MAX_FRAME = 48 * 1024 * 1024

#: Highest protocol version this build speaks. Version 1 is the
#: JSON-lines-only protocol (implicit for clients that never say
#: ``hello``); version 2 adds the negotiated binary batch wire.
PROTOCOL_VERSION = 2

#: Wire mode names used in ``hello`` negotiation and metrics.
WIRE_JSON = "json"
WIRE_BINARY = "binary"
SUPPORTED_WIRES = (WIRE_JSON, WIRE_BINARY)


class IngestKind(NamedTuple):
    """One ingest kind: how its batches travel and how they expand."""

    #: the JSON op a batch of this kind travels as
    request_op: str
    #: the :mod:`repro.reduce.ops` op whose ``expand`` makes fold terms
    reduce_op: str
    #: input arrays per batch (``values``, plus ``values2`` when 2)
    arity: int


#: The one ingest-kind table (keys are the codec op tags).
INGEST_KINDS: Dict[str, IngestKind] = {
    "sum": IngestKind("add_array", "sum", 1),
    "pairs": IngestKind("add_pairs", "dot", 2),
    "squares": IngestKind("add_squares", "norm2", 1),
    "observations": IngestKind("add_observations", "var", 1),
}

#: JSON batch ingest op -> its kind.
KIND_OF_OP: Dict[str, str] = {
    entry.request_op: kind for kind, entry in INGEST_KINDS.items()
}


class ReadOp(NamedTuple):
    """One read op: the finishes that fill its response."""

    #: ``(response field, repro.reduce op)`` per finished value; the
    #: first value's bits also travel as ``hex``
    finishes: Tuple[Tuple[str, str], ...]
    #: whether a finish also needs the stream's square shadow (``var``'s
    #: second term stream, which the ``observations`` kind feeds)
    shadow: bool = False


#: The one read-op table, by JSON op name. Every read merges a stream's
#: partials, then runs its ops' finishes: a rounded-sum finish rounds
#: the merged partial through the kernel, an exact one rounds once
#: from the exact fraction.
READ_OPS: Dict[str, ReadOp] = {
    "value": ReadOp((("value", "sum"),)),
    "dot": ReadOp((("value", "dot"),)),
    "mean": ReadOp((("mean", "mean"),)),
    "norm2": ReadOp((("value", "norm2"),)),
    "moments": ReadOp((("mean", "mean"), ("variance", "var")), shadow=True),
}


def ingest_kind(kind: str, y: Any = None) -> IngestKind:
    """The table entry of ``kind``, checking ``y`` against its arity.

    Raises:
        ValueError: unknown kind, or a second input given to a
            one-input kind / missing from a two-input kind.
    """
    entry = INGEST_KINDS.get(kind)
    if entry is None:
        raise ValueError(
            f"unknown ingest kind {kind!r}; expected one of {sorted(INGEST_KINDS)}"
        )
    if (y is not None) != (entry.arity == 2):
        raise ValueError(
            f"ingest kind {kind!r} takes {entry.arity} input array(s)"
        )
    return entry


def ingest_value_count(request: Dict[str, Any]) -> Optional[int]:
    """Float64 values an ingest request carried; ``None`` if not ingest.

    The one count both transports feed the per-wire ingest metrics:
    one for ``add``, and every ``values``/``values2`` element of a
    batch op of any kind, whether it arrived as a JSON list or as a
    binary frame's array.
    """
    op = request.get("op")
    if op == "add":
        return 1
    if op not in KIND_OF_OP:
        return None
    count = 0
    for field in ("values", "values2"):
        values = request.get(field)
        if isinstance(values, np.ndarray):
            count += int(values.size)
        elif isinstance(values, (list, tuple)):
            count += len(values)
    return count


def json_batch_request(
    stream: str,
    x: Any,
    *,
    op: str = "sum",
    y: Any = None,
    seq: Optional[int] = None,
) -> Tuple[str, Dict[str, Any]]:
    """``(request op, fields)`` of one batch ingest on the JSON wire.

    The JSON-lines form of what a binary ``RBAT`` frame parses to: the
    kind's JSON op with its inputs boxed into float lists.

    Raises:
        ValueError: unknown kind or wrong number of inputs.
    """
    entry = ingest_kind(op, y)
    fields: Dict[str, Any] = {
        "stream": stream,
        # reprolint: disable-next-line=ARCH005 -- the JSON-lines wire itself: boxing is the format
        "values": [float(v) for v in ensure_float64_array(x)],
    }
    if y is not None:
        fields["values2"] = [float(v) for v in ensure_float64_array(y)]
    if seq is not None:
        fields["seq"] = int(seq)
    return entry.request_op, fields


def _fatal(message: str) -> ProtocolError:
    err = ProtocolError(message)
    err.fatal = True
    return err


def _recoverable(message: str) -> ProtocolError:
    err = ProtocolError(message)
    err.fatal = False
    return err


def encode_frame(obj: Dict[str, Any], *, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Serialize one message object to a wire frame.

    Raises:
        ProtocolError: if the encoded payload exceeds ``max_frame``.
    """
    payload = json.dumps(obj, separators=(",", ":"), allow_nan=True).encode("utf-8")
    payload += b"\n"
    if len(payload) > max_frame:
        raise _fatal(
            f"outgoing frame of {len(payload)} bytes exceeds max_frame={max_frame}"
        )
    return LENGTH_PREFIX.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse a frame payload into a message object.

    Raises:
        ProtocolError: (recoverable) on bad UTF-8, invalid JSON, or a
            JSON value that is not an object.
    """
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _recoverable(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise _recoverable(
            f"payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def encode_batch_frame(
    request_id: int,
    stream: str,
    x: codec.F64Input,
    *,
    op: str = "sum",
    y: Optional[codec.F64Input] = None,
    seq: Optional[int] = None,
    max_frame: int = DEFAULT_MAX_FRAME,
) -> bytes:
    """Serialize one binary ingest op of kind ``op`` to a wire frame.

    The payload is a codec ``RBAT`` frame carrying the *pre-expansion*
    inputs as raw little-endian float64 bytes — ~3.4x denser than JSON
    text, decodable server-side as zero-copy numpy views, and half the
    volume of shipping a dot's expanded terms; the server expands
    deterministically. ``y`` is the second input of ``pairs``. Only
    valid on a connection that has negotiated ``wire="binary"``.

    Raises:
        ProtocolError: if the encoded payload exceeds ``max_frame``.
        CodecError: unknown kind, negative request id, empty stream
            name, or a missing/mismatched/superfluous ``y``.
    """
    wal_seq = codec.WAL_UNSEQUENCED if seq is None else seq
    payload = codec.encode_reduce_batch(request_id, wal_seq, stream, op, x, y)
    if len(payload) > max_frame:
        raise _fatal(
            f"outgoing batch frame of {len(payload)} bytes exceeds "
            f"max_frame={max_frame}"
        )
    return LENGTH_PREFIX.pack(len(payload)) + payload


def _parse_binary_payload(payload: bytes) -> Dict[str, Any]:
    """Decode an ``RBAT`` frame into the request dict of its kind.

    The request is the one the kind's JSON op produces
    (``add_array`` for ``sum``, ``add_pairs``/``add_squares``/
    ``add_observations`` otherwise), except that ``values`` (and
    ``values2`` for two-input kinds) are read-only zero-copy float64
    views over the frame's own bytes instead of lists, and ``seq``
    appears only when the frame carries a cluster sequence. Downstream
    service code is wire-agnostic.

    Raises:
        ProtocolError: (recoverable) on unknown magic, any codec-level
            corruption, or non-finite values. The frame boundary is
            intact, so the connection survives.
    """
    magic = bytes(payload[:4])
    if magic != codec.MAGIC_REDUCE_BATCH:
        raise _recoverable(
            f"unknown binary frame magic {magic!r} "
            f"(expected {codec.MAGIC_REDUCE_BATCH!r})"
        )
    try:
        request_id, seq, stream, kind, x, y = codec.decode_reduce_batch(payload)
    except CodecError as exc:
        raise _recoverable(f"corrupt batch frame: {exc}") from exc
    for arr in (x,) if y is None else (x, y):
        if arr.size and not np.isfinite(arr).all():
            err = _recoverable(
                "batch frame carries non-finite values: exact summation is "
                "defined only for finite float64"
            )
            # The frame decoded — the request id is known, so the error
            # response can be matched by a pipelined client instead of
            # stalling its future.
            err.request_id = request_id
            raise err
    request: Dict[str, Any] = {
        "op": INGEST_KINDS[kind].request_op,
        "id": request_id,
        "stream": stream,
        "values": x,
        "wire": WIRE_BINARY,
    }
    if y is not None:
        request["values2"] = y
    if seq != codec.WAL_UNSEQUENCED:
        request["seq"] = seq
    return request


def parse_payload(payload: bytes, *, binary: bool = False) -> Dict[str, Any]:
    """Parse a frame payload in the connection's negotiated wire mode.

    JSON-lines payloads (first byte ``{``) always parse; binary ``RBAT``
    payloads parse only when ``binary=True`` (i.e. after a successful
    ``hello`` upgrade). A binary frame on a JSON-only connection fails
    as a recoverable not-valid-JSON error, exactly like any other
    malformed text.

    Raises:
        ProtocolError: (recoverable) on any payload-level problem.
    """
    if binary and not payload.startswith(b"{"):
        return _parse_binary_payload(payload)
    return decode_payload(payload)


#: The only fields a reply answered with a ``RACK`` ack may hold.
_ACK_FIELDS = frozenset({"ok", "id", "added", "seq", "duplicate"})


def encode_reply(
    response: Dict[str, Any], *, ack: bool = False, max_frame: int = DEFAULT_MAX_FRAME
) -> bytes:
    """Serialize one reply to a wire frame.

    With ``ack`` (the request came as a binary ``RBAT`` frame), a
    successful reply holding only ``id``, ``added`` and optionally
    ``seq`` or ``duplicate: true`` goes out as a 32-byte codec ``RACK``
    frame; :func:`decode_reply` turns it back into the identical dict.
    Any other reply is a JSON frame (:func:`encode_frame`).

    Raises:
        ProtocolError: if a JSON payload exceeds ``max_frame``.
    """
    if (
        ack
        and response.get("ok") is True
        and response.get("duplicate", True) is True
        and response.get("seq") != codec.WAL_UNSEQUENCED
        and _ACK_FIELDS.issuperset(response)
    ):
        try:
            payload = codec.encode_ingest_ack(
                response["id"],
                response["added"],
                response.get("seq", codec.WAL_UNSEQUENCED),
                "duplicate" in response,
            )
        except (KeyError, CodecError):
            pass  # not representable as an ack: answer in JSON
        else:
            return LENGTH_PREFIX.pack(len(payload)) + payload
    return encode_frame(response, max_frame=max_frame)


def decode_reply(payload: bytes) -> Dict[str, Any]:
    """Parse a reply payload: a ``RACK`` ack or a JSON object.

    The first byte discriminates, as on the request side: an ack comes
    back as ``{"ok": True, "id", "added"}`` plus ``seq`` and
    ``duplicate: True`` when its frame carries them.

    Raises:
        ProtocolError: (recoverable) on a corrupt ack or a payload that
            is not a JSON object.
    """
    if not payload.startswith(codec.MAGIC_INGEST_ACK):
        return decode_payload(payload)
    try:
        request_id, added, seq, duplicate = codec.decode_ingest_ack(payload)
    except CodecError as exc:
        raise _recoverable(f"corrupt ingest ack: {exc}") from exc
    reply: Dict[str, Any] = {"ok": True, "id": request_id, "added": added}
    if seq != codec.WAL_UNSEQUENCED:
        reply["seq"] = seq
    if duplicate:
        reply["duplicate"] = True
    return reply


def encode_bytes_field(raw: bytes) -> str:
    """Binary payload -> JSON-safe base64 string."""
    return base64.b64encode(raw).decode("ascii")


def decode_bytes_field(text: Any) -> bytes:
    """JSON base64 string -> binary payload.

    Raises:
        ProtocolError: (recoverable) if the field is not valid base64.
    """
    if not isinstance(text, str):
        raise _recoverable("binary field must be a base64 string")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise _recoverable(f"invalid base64 payload: {exc}") from exc


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame: int = DEFAULT_MAX_FRAME
) -> Optional[Dict[str, Any]]:
    """Read one reply frame from a stream and decode it with
    :func:`decode_reply` (raw-socket consumers; the clients use
    :class:`FrameDecoder`).

    Returns ``None`` on clean EOF (no bytes after the last frame).

    Raises:
        ProtocolError: fatal on truncated length prefix / truncated
            payload / oversized length; recoverable on a payload that is
            neither a JSON object nor an ingest ack.
    """
    try:
        header = await reader.readexactly(LENGTH_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _fatal(
            f"connection closed mid-prefix ({len(exc.partial)}/4 bytes)"
        ) from exc
    (length,) = LENGTH_PREFIX.unpack(header)
    if length > max_frame:
        raise _fatal(f"length prefix {length} exceeds max_frame={max_frame}")
    if length == 0:
        raise _fatal("zero-length frame")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise _fatal(
            f"truncated frame: got {len(exc.partial)}/{length} payload bytes"
        ) from exc
    return decode_reply(payload)


class FrameDecoder:
    """Incremental sans-IO frame decoder: the server's and the TCP
    client's reader, and the fuzz tests' target.

    :meth:`payloads` cuts complete frames out of the bytes fed so far
    and yields their raw payloads; the server parses each one with the
    connection's current wire mode, so a ``hello`` takes effect for the
    very next frame of the same chunk. Framing violations raise fatal
    :class:`ProtocolError` and poison the decoder.

    :meth:`feed` parses too: it returns the messages a chunk finished.
    Payload-level errors (invalid JSON, corrupt or non-finite batch
    frames) raise recoverable ones and the decoder stays usable for the
    next frame — mirroring the server's connection semantics.
    ``binary=True`` mirrors a connection that negotiated the binary
    wire via ``hello``. A bad frame never costs the good frames before
    it: :meth:`feed` returns the messages decoded ahead of it, and the
    *next* call raises the bad frame's error (buffering that call's
    bytes first). Frames after a bad one come out of later calls;
    ``feed(b"")`` drains them.
    """

    def __init__(
        self, *, max_frame: int = DEFAULT_MAX_FRAME, binary: bool = False
    ) -> None:
        self.max_frame = max_frame
        self.binary = binary
        self._buf = bytearray()
        self._dead = False
        self._error: Optional[ProtocolError] = None

    def payloads(self, data: bytes) -> Iterator[bytes]:
        """Buffer ``data``, then yield each complete frame's payload.

        A caller may stop iterating early: frames not yet yielded stay
        buffered for the next call (``payloads(b"")`` resumes them).
        A framing violation (zero or oversized length) is raised once
        every good frame ahead of it has been yielded.
        """
        buf = self._buf
        buf += data
        if self._dead:
            raise _fatal("decoder poisoned by an earlier framing error")
        prefix = LENGTH_PREFIX.size
        while len(buf) >= prefix:
            (length,) = LENGTH_PREFIX.unpack_from(buf, 0)
            if length > self.max_frame or length == 0:
                self._dead = True
                raise _fatal(
                    f"length prefix {length} outside "
                    f"(0, max_frame={self.max_frame}]"
                )
            end = prefix + length
            if len(buf) < end:
                return
            with memoryview(buf) as view:
                payload = bytes(view[prefix:end])
            del buf[:end]
            yield payload

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        if self._error is not None:
            self._buf += data
            err, self._error = self._error, None
            raise err
        out: List[Dict[str, Any]] = []
        try:
            for payload in self.payloads(data):
                out.append(parse_payload(payload, binary=self.binary))
        except ProtocolError as exc:
            if not out:
                raise
            self._error = exc
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for a complete frame."""
        return len(self._buf)
