"""Exception hierarchy for the :mod:`repro` package."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NonFiniteInputError",
    "RepresentationError",
    "ModelViolationError",
    "CodecError",
    "EmptyStreamError",
    "ReductionRangeError",
    "ProtocolError",
    "ProtocolVersionError",
    "ServiceError",
    "BadRequestError",
    "NodeDownError",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInputError(ReproError, ValueError):
    """An input contained NaN or an infinity.

    Exact summation is defined only for finite values; the IEEE 754
    semantics of non-finite propagation are left to the caller.
    """


class RepresentationError(ReproError, ValueError):
    """A number representation violated one of its invariants.

    For example, a digit vector claimed to be (alpha, beta)-regularized
    holding a digit outside ``[-alpha, beta]``.
    """


class ModelViolationError(ReproError, RuntimeError):
    """A simulated machine model constraint was violated.

    Raised by the PRAM simulator on EREW access conflicts and by the
    external-memory device when an algorithm exceeds internal memory.
    """


class CodecError(ReproError, ValueError):
    """A wire-format frame failed to decode.

    Raised by :mod:`repro.codec` for truncated payloads, wrong or
    unknown magic tags, and corrupt headers. Wire frames cross process
    and machine boundaries (MapReduce shuffles, BSP messages, service
    snapshots, dataset files), so malformed bytes must surface as this
    clean typed error — never a raw ``struct.error`` or ``frombuffer``
    traceback. Subclasses ``ValueError`` so pre-codec callers that
    caught ``ValueError`` keep working.
    """


class EmptyStreamError(ReproError, ValueError):
    """A query that needs observations was made on an empty stream.

    ``mean``/``variance`` of zero values have no defined result; sums
    of empty streams are 0.0 and do *not* raise this.
    """


class ReductionRangeError(ReproError, ValueError):
    """An input left the error-free expansion domain of a reduction op.

    The EFT expansions (TwoProduct/TwoSquare) are exact only while the
    products they form neither overflow nor lose bits to underflow.
    :mod:`repro.reduce` reduces such elements exactly on every local
    plane, so only serve and cluster ingest raise this: their stream
    state is a kernel partial spanning the binary64 range, and the
    batch is refused before it is folded or logged.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` layer."""

    #: machine-readable error code echoed in service error responses
    code = "service"


class BadRequestError(ServiceError, ValueError):
    """The service rejected a request argument (``bad-request``).

    Raised client-side for the response the service sends when a
    handler raised ``ValueError``/``TypeError`` — an unknown rounding
    mode, a mode the op's finish does not define — so a remote caller
    sees the same ``ValueError`` an in-process one does.
    """

    code = "bad-request"


class ProtocolError(ServiceError, ValueError):
    """A wire frame violated the serve protocol.

    Covers bad length prefixes (oversized, negative), truncated
    frames, payloads that are not valid UTF-8 JSON, and JSON payloads
    that are not objects. Malformed bytes cross a trust boundary, so
    they must surface as this clean error, never a raw ``json`` or
    ``struct`` traceback.
    """

    code = "protocol"


class ProtocolVersionError(ProtocolError):
    """The server rejected a ``hello`` negotiation.

    Raised client-side when the requested protocol version or wire mode
    is not supported by the peer. Clients treat it as a downgrade
    signal — fall back to the JSON-lines wire — not a data error; the
    connection stays usable.
    """

    code = "protocol-version"


class NodeDownError(ServiceError, ConnectionError):
    """A cluster node could not be reached (dead, killed, or partitioned).

    Raised by the coordinator when every handle that could serve a
    request is down, and by node handles when their transport fails.
    The coordinator treats it as a failover trigger, not a data error:
    stream state is never lost while a replica (or the node's WAL)
    survives.
    """

    code = "node-down"
