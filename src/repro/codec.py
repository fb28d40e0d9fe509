"""The wire-format registry: every byte layout in one module.

Every serialized object that crosses a process or machine boundary in
this package — MapReduce shuffle payloads, BSP messages, service
snapshots, streaming checkpoints, dataset files — is a *magic-tagged
frame*: a 4-byte ASCII magic identifying the format, followed by a
format-specific body. This module owns all of those layouts; nothing
else in the package touches :mod:`struct`. (reprolint rule ``ARCH001``
enforces that — see :mod:`repro.analysis` — and CI runs it as a
blocking check.)

Registered frame formats:

========  =================================================  =========
magic     payload                                            producer
========  =================================================  =========
``SSUP``  sparse superaccumulator: w, count, indices,        kernels /
          digits                                             shuffles
``DSUP``  dense superaccumulator: w, base, nlimbs, limbs     kernels
``KSTR``  kernel stream: count + any embedded frame          serve
          (``SSUP`` for running sums)                        snapshots
``TSUP``  gamma-truncated sparse: gamma, drop accounting +   truncated
          embedded ``SSUP``                                  kernel
``BSUP``  binned superaccumulator: chunk budget, non-zero    binned
          exponent bins (index/lo/hi) + embedded ``SSUP``    kernels
          spill
``ACRT``  adaptive certificate: (value, remainder, bound)    adaptive
``ACMP``  adaptive composite: (bound, certs, fulls) +        adaptive
          embedded ``SSUP``
``RAWB``  raw float64 block (no-combiner ablation,           mapreduce /
          binary-wire value payload)                         serve wire
``NF64``  one naive float (inexact control job)              mapreduce
``F64D``  dataset file header: item count                    data/io
``RBAT``  binary batch ingest op: request id, seq, op tag    serve wire
          (sum/pairs/squares/observations), name + one or    (binary)
          two embedded ``RAWB`` input blocks
``WALO``  write-ahead-log ingest record: seq, CRC-32, op     cluster
          tag, name + raw pre-expansion float64 input(s) —   WAL
          replay re-expands deterministically
========  =================================================  =========

Decoders reject truncated payloads, wrong magics, and corrupt headers
with :class:`~repro.errors.CodecError` (a ``ValueError``); embedded
accumulator bodies are additionally structurally validated by their
constructors. :func:`decode` dispatches any frame by its magic.

The serve transport's length prefix (``LENGTH_PREFIX``) also lives
here: it is the one non-magic layout, framing whole messages rather
than encoding values, and is re-exported by :mod:`repro.serve.protocol`.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.digits import RadixConfig
from repro.errors import CodecError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.sparse import SparseSuperaccumulator
    from repro.core.superaccumulator import DenseSuperaccumulator

__all__ = [
    "MAGIC_SPARSE",
    "MAGIC_DENSE",
    "MAGIC_STREAM",
    "MAGIC_TRUNCATED",
    "MAGIC_BINNED",
    "MAGIC_CERT",
    "MAGIC_COMPOSITE",
    "MAGIC_RAW_BLOCK",
    "MAGIC_FLOAT",
    "MAGIC_DATASET",
    "MAGIC_WAL",
    "MAGIC_REDUCE_BATCH",
    "REDUCE_OP_CODES",
    "REDUCE_OP_NAMES",
    "LENGTH_PREFIX",
    "DATASET_HEADER_SIZE",
    "WAL_HEADER_SIZE",
    "WAL_UNSEQUENCED",
    "MAX_WAL_STREAM_NAME",
    "F64Input",
    "peek_magic",
    "decode",
    "registered_formats",
    "encode_sparse",
    "decode_sparse",
    "encode_dense",
    "decode_dense",
    "encode_stream",
    "decode_stream",
    "encode_truncated",
    "decode_truncated",
    "encode_binned",
    "decode_binned",
    "encode_cert",
    "decode_cert",
    "encode_composite",
    "decode_composite",
    "encode_raw_block",
    "decode_raw_block",
    "encode_float",
    "decode_float",
    "encode_dataset_header",
    "decode_dataset_header",
    "encode_wal_record",
    "decode_wal_record",
    "wal_record_size",
    "encode_reduce_batch",
    "decode_reduce_batch",
    "reduce_batch_wire_bodies",
]

MAGIC_SPARSE = b"SSUP"
MAGIC_DENSE = b"DSUP"
MAGIC_STREAM = b"KSTR"
MAGIC_TRUNCATED = b"TSUP"
MAGIC_BINNED = b"BSUP"
MAGIC_CERT = b"ACRT"
MAGIC_COMPOSITE = b"ACMP"
MAGIC_RAW_BLOCK = b"RAWB"
MAGIC_FLOAT = b"NF64"
MAGIC_DATASET = b"F64D"
MAGIC_WAL = b"WALO"
MAGIC_REDUCE_BATCH = b"RBAT"

_SPARSE_HEADER = struct.Struct("<4sBq")  # magic, w, ncomponents
_DENSE_HEADER = struct.Struct("<4sBqqq")  # magic, w, base_index, nlimbs, count
_COUNT_HEADER = struct.Struct("<4sq")  # magic, count (KSTR / F64D)
_TRUNC_HEADER = struct.Struct("<4sqq?q")  # magic, gamma, drops, flag, max_idx
_BINNED_HEADER = struct.Struct("<4sqq")  # magic, chunk budget used, nbins
_CERT_FRAME = struct.Struct("<4sddd")  # magic, value, remainder, bound
_COMPOSITE_HEADER = struct.Struct("<4sdqq")  # magic, bound, certs, fulls
_FLOAT_FRAME = struct.Struct("<4sd")  # magic, value
# magic, seq, crc32, op code, stream_len, n inputs, pad — 32 bytes
_WAL_HEADER = struct.Struct("<4sqIHHq4x")
# magic, request id, seq, op code, stream_len, nx, ny
_REDUCE_BATCH_HEADER = struct.Struct("<4sqqqqqq")

#: Ingest kinds carried by ``RBAT``/``WALO`` frames: the op tag names
#: the *expansion* the receiver applies before folding (``sum``'s is the
#: identity), so WAL replay and shard scatter see identical terms.
REDUCE_OP_CODES: Dict[str, int] = {
    "sum": 0,
    "pairs": 1,
    "squares": 2,
    "observations": 3,
}
REDUCE_OP_NAMES: Dict[int, str] = {v: k for k, v in REDUCE_OP_CODES.items()}

#: Serve-transport frame length prefix (network byte order uint32).
#: Message framing, not value encoding — but it is still a byte layout,
#: so it lives here with the rest of them.
LENGTH_PREFIX = struct.Struct("!I")

#: Size in bytes of the ``.f64`` dataset file header.
DATASET_HEADER_SIZE = _COUNT_HEADER.size

#: Size in bytes of a ``WALO`` record header (the fixed-length prefix a
#: WAL reader consumes before it knows how much body to read).
WAL_HEADER_SIZE = _WAL_HEADER.size

#: Longest stream name (UTF-8 bytes) a WAL record can carry: the
#: header's name length is a uint16.
MAX_WAL_STREAM_NAME = 0xFFFF

#: Sequence number meaning "this record carries no cluster sequence"
#: (scatter-mode ingest; dedup does not apply).
WAL_UNSEQUENCED = -1


def peek_magic(payload: bytes) -> bytes:
    """First 4 bytes of a frame (its magic tag).

    Raises:
        CodecError: if the payload is shorter than a magic tag.
    """
    if len(payload) < 4:
        raise CodecError(
            f"frame truncated: {len(payload)} bytes is shorter than a magic tag"
        )
    return bytes(payload[:4])


def _check_header(payload: bytes, header: struct.Struct, what: str) -> None:
    if len(payload) < header.size:
        raise CodecError(
            f"{what} payload truncated: "
            f"{len(payload)} bytes < {header.size}-byte header"
        )


def _radix_from_width(w: int) -> RadixConfig:
    try:
        return RadixConfig(w)
    except ValueError as exc:
        raise CodecError(f"corrupt header: {exc}") from exc


# ----------------------------------------------------------------------
# SSUP — sparse superaccumulator
# ----------------------------------------------------------------------


def encode_sparse(acc: "SparseSuperaccumulator") -> bytes:
    """``SSUP`` frame: header + indices + digits, little endian."""
    header = _SPARSE_HEADER.pack(MAGIC_SPARSE, acc.radix.w, acc.indices.size)
    return (
        header
        + acc.indices.astype("<i8").tobytes()
        + acc.digits.astype("<i8").tobytes()
    )


def decode_sparse(payload: bytes) -> "SparseSuperaccumulator":
    """Inverse of :func:`encode_sparse`.

    Raises:
        CodecError: wrong magic, truncated or oversized body, invalid
            digit width.
        RepresentationError: decoded components violate the regularized
            representation (also a ``ValueError``).
    """
    from repro.core.sparse import SparseSuperaccumulator

    _check_header(payload, _SPARSE_HEADER, "SparseSuperaccumulator")
    magic, w, count = _SPARSE_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_SPARSE:
        raise CodecError("not a SparseSuperaccumulator payload")
    if count < 0:
        raise CodecError(f"corrupt header: negative component count {count}")
    expected = _SPARSE_HEADER.size + 16 * count
    if len(payload) != expected:
        raise CodecError(
            f"SparseSuperaccumulator payload length mismatch: "
            f"expected {expected} bytes for {count} components, "
            f"got {len(payload)}"
        )
    radix = _radix_from_width(w)
    off = _SPARSE_HEADER.size
    idx = np.frombuffer(payload, dtype="<i8", count=count, offset=off)
    off += 8 * count
    dig = np.frombuffer(payload, dtype="<i8", count=count, offset=off)
    # Full structural validation (sorted indices, regularized digits):
    # RepresentationError is a ValueError subclass, so corrupted bodies
    # fail as cleanly as corrupted headers.
    return SparseSuperaccumulator(radix, idx.astype(np.int64), dig.astype(np.int64))


# ----------------------------------------------------------------------
# DSUP — dense superaccumulator
# ----------------------------------------------------------------------


def encode_dense(acc: "DenseSuperaccumulator") -> bytes:
    """``DSUP`` frame: header + raw little-endian limbs.

    The accumulator must already be renormalized (callers' ``to_bytes``
    does that) so observable wire state is always regularized.
    """
    header = _DENSE_HEADER.pack(
        MAGIC_DENSE, acc.radix.w, acc.base_index, len(acc.limbs), 1
    )
    return header + acc.limbs.astype("<i8").tobytes()


def decode_dense(payload: bytes) -> "DenseSuperaccumulator":
    """Inverse of :func:`encode_dense` (always a dense accumulator).

    Raises:
        CodecError: wrong magic, truncated or oversized body, invalid
            digit width.
    """
    from repro.core.superaccumulator import DenseSuperaccumulator

    _check_header(payload, _DENSE_HEADER, "DenseSuperaccumulator")
    magic, w, base, nlimbs, _count = _DENSE_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_DENSE:
        raise CodecError("not a DenseSuperaccumulator payload")
    if nlimbs < 0:
        raise CodecError(f"corrupt header: negative limb count {nlimbs}")
    expected = _DENSE_HEADER.size + 8 * nlimbs
    if len(payload) != expected:
        raise CodecError(
            f"DenseSuperaccumulator payload length mismatch: "
            f"expected {expected} bytes for {nlimbs} limbs, "
            f"got {len(payload)}"
        )
    radix = _radix_from_width(w)
    acc = DenseSuperaccumulator(radix, base_index=base, nlimbs=nlimbs)
    acc.limbs[:] = np.frombuffer(
        payload, dtype="<i8", count=nlimbs, offset=_DENSE_HEADER.size
    )
    return acc


# ----------------------------------------------------------------------
# KSTR — counted streams (running sums, generic kernel streams)
# ----------------------------------------------------------------------


def encode_stream(count: int, inner: bytes) -> bytes:
    """``KSTR`` frame: count + any embedded kernel partial frame."""
    return _COUNT_HEADER.pack(MAGIC_STREAM, count) + inner


def decode_stream(payload: bytes) -> Tuple[int, bytes]:
    """Inverse of :func:`encode_stream`; returns ``(count, inner)``."""
    _check_header(payload, _COUNT_HEADER, "kernel stream")
    magic, count = _COUNT_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_STREAM:
        raise CodecError("not a kernel stream payload")
    if count < 0:
        raise CodecError(f"corrupt header: negative count {count}")
    inner = payload[_COUNT_HEADER.size :]
    # The embedded frame must itself decode: a stream snapshot whose
    # body was clipped is corrupt, not a shorter snapshot.
    decode(inner)
    return int(count), inner


# ----------------------------------------------------------------------
# TSUP — gamma-truncated sparse superaccumulator
# ----------------------------------------------------------------------


def encode_truncated(
    gamma: int,
    drop_count: int,
    truncated: bool,
    max_dropped_index: int,
    acc: "SparseSuperaccumulator",
) -> bytes:
    """``TSUP`` frame: truncation accounting + embedded ``SSUP``.

    ``max_dropped_index`` is meaningful only when ``drop_count > 0``
    (encode 0 otherwise).
    """
    header = _TRUNC_HEADER.pack(
        MAGIC_TRUNCATED, gamma, drop_count, truncated, max_dropped_index
    )
    return header + encode_sparse(acc)


def decode_truncated(
    payload: bytes,
) -> Tuple[int, int, bool, int, "SparseSuperaccumulator"]:
    """Inverse of :func:`encode_truncated`.

    Returns ``(gamma, drop_count, truncated, max_dropped_index, acc)``.
    """
    _check_header(payload, _TRUNC_HEADER, "TruncatedSparseSuperaccumulator")
    magic, gamma, drops, truncated, max_idx = _TRUNC_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_TRUNCATED:
        raise CodecError("not a TruncatedSparseSuperaccumulator payload")
    if gamma < 1:
        raise CodecError(f"corrupt header: gamma {gamma} must be >= 1")
    if drops < 0:
        raise CodecError(f"corrupt header: negative drop count {drops}")
    acc = decode_sparse(payload[_TRUNC_HEADER.size :])
    return int(gamma), int(drops), bool(truncated), int(max_idx), acc


# ----------------------------------------------------------------------
# BSUP — exponent-binned superaccumulator
# ----------------------------------------------------------------------


def encode_binned(
    chunks: int,
    indices: np.ndarray,
    bins_lo: np.ndarray,
    bins_hi: np.ndarray,
    spill: "SparseSuperaccumulator",
) -> bytes:
    """``BSUP`` frame: bin accounting + non-zero bins + embedded ``SSUP``.

    ``indices`` are the (strictly increasing) occupied biased-exponent
    bins; ``bins_lo``/``bins_hi`` their int64 low/high mantissa-unit
    sums; ``chunks`` the deferred-carry budget already consumed (bounds
    the bin magnitudes the decoder will accept).
    """
    header = _BINNED_HEADER.pack(MAGIC_BINNED, chunks, indices.size)
    return (
        header
        + np.asarray(indices, dtype="<i8").tobytes()
        + np.asarray(bins_lo, dtype="<i8").tobytes()
        + np.asarray(bins_hi, dtype="<i8").tobytes()
        + encode_sparse(spill)
    )


def decode_binned(
    payload: bytes,
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, "SparseSuperaccumulator"]:
    """Inverse of :func:`encode_binned`.

    Returns ``(chunks, indices, bins_lo, bins_hi, spill)``. Structural
    validation is strict because these frames cross process boundaries:
    the chunk budget must respect the kernel's int64 safety bound, bin
    indices must be strictly increasing finite biased exponents, and
    every bin magnitude must be achievable within the declared budget.
    """
    from repro.kernels.binned import BIN_COUNT, RESOLVE_CHUNKS

    _check_header(payload, _BINNED_HEADER, "BinnedPartial")
    magic, chunks, nbins = _BINNED_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_BINNED:
        raise CodecError("not a BinnedPartial payload")
    if not 0 <= chunks <= RESOLVE_CHUNKS:
        raise CodecError(
            f"corrupt header: chunk budget {chunks} outside "
            f"[0, {RESOLVE_CHUNKS}]"
        )
    if not 0 <= nbins <= BIN_COUNT:
        raise CodecError(
            f"corrupt header: bin count {nbins} outside [0, {BIN_COUNT}]"
        )
    off = _BINNED_HEADER.size
    body = 24 * nbins
    if len(payload) < off + body:
        raise CodecError(
            f"BinnedPartial payload truncated: expected at least "
            f"{off + body} bytes for {nbins} bins, got {len(payload)}"
        )
    indices = np.frombuffer(payload, dtype="<i8", count=nbins, offset=off)
    off += 8 * nbins
    bins_lo = np.frombuffer(payload, dtype="<i8", count=nbins, offset=off)
    off += 8 * nbins
    bins_hi = np.frombuffer(payload, dtype="<i8", count=nbins, offset=off)
    off += 8 * nbins
    if nbins:
        if indices[0] < 1 or indices[-1] >= BIN_COUNT:
            raise CodecError(
                "corrupt bins: index outside the finite biased-exponent range"
            )
        if nbins > 1 and not (np.diff(indices) > 0).all():
            raise CodecError("corrupt bins: indices must be strictly increasing")
        # Each deposit chunk contributes < 2**52 (low) / 2**41 (high)
        # per bin, so a magnitude beyond chunks * bound cannot be the
        # output of any legal fold — reject rather than resolve garbage.
        # Two-sided compares, not np.abs: abs(int64 min) wraps negative
        # and would sneak past a magnitude check.
        lo_bound = int(chunks) << 52
        hi_bound = int(chunks) << 41
        if (
            (bins_lo > lo_bound).any()
            or (bins_lo < -lo_bound).any()
            or (bins_hi > hi_bound).any()
            or (bins_hi < -hi_bound).any()
        ):
            raise CodecError(
                "corrupt bins: magnitude exceeds the declared chunk budget"
            )
    spill = decode_sparse(payload[off:])
    return (
        int(chunks),
        indices.astype(np.int64),
        bins_lo.astype(np.int64),
        bins_hi.astype(np.int64),
        spill,
    )


# ----------------------------------------------------------------------
# ACRT / ACMP — adaptive certificates and composites
# ----------------------------------------------------------------------


def encode_cert(value: float, remainder: float, bound: float) -> bytes:
    """``ACRT`` frame: one Tier-0-certified block, 32 bytes.

    ``value + remainder`` is within ``bound`` of the exact block sum;
    value and remainder are exact floats the reducer folds losslessly,
    only ``bound`` carries uncertainty.
    """
    return _CERT_FRAME.pack(MAGIC_CERT, value, remainder, bound)


def decode_cert(payload: bytes) -> Tuple[float, float, float]:
    """Inverse of :func:`encode_cert`: ``(value, remainder, bound)``."""
    _check_header(payload, _CERT_FRAME, "adaptive certificate")
    magic, value, remainder, bound = _CERT_FRAME.unpack_from(payload, 0)
    if magic != MAGIC_CERT:
        raise CodecError("not an adaptive certificate payload")
    if len(payload) != _CERT_FRAME.size:
        raise CodecError(
            f"adaptive certificate payload length mismatch: "
            f"expected {_CERT_FRAME.size} bytes, got {len(payload)}"
        )
    if not bound >= 0.0:  # also rejects NaN
        raise CodecError(f"corrupt certificate: negative or NaN bound {bound!r}")
    return float(value), float(remainder), float(bound)


def encode_composite(
    bound: float, certs: int, fulls: int, acc: "SparseSuperaccumulator"
) -> bytes:
    """``ACMP`` frame: (bound, cert/full block counts) + embedded ``SSUP``."""
    header = _COMPOSITE_HEADER.pack(MAGIC_COMPOSITE, bound, certs, fulls)
    return header + encode_sparse(acc)


def decode_composite(
    payload: bytes,
) -> Tuple[float, int, int, "SparseSuperaccumulator"]:
    """Inverse of :func:`encode_composite`: ``(bound, certs, fulls, acc)``."""
    _check_header(payload, _COMPOSITE_HEADER, "adaptive composite")
    magic, bound, certs, fulls = _COMPOSITE_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_COMPOSITE:
        raise CodecError("not an adaptive composite payload")
    if certs < 0 or fulls < 0:
        raise CodecError(
            f"corrupt header: negative block counts ({certs}, {fulls})"
        )
    if not bound >= 0.0:
        raise CodecError(f"corrupt composite: negative or NaN bound {bound!r}")
    acc = decode_sparse(payload[_COMPOSITE_HEADER.size :])
    return float(bound), int(certs), int(fulls), acc


# ----------------------------------------------------------------------
# RAWB / NF64 — raw blocks and naive floats (control jobs)
# ----------------------------------------------------------------------


def encode_raw_block(block: np.ndarray) -> bytes:
    """``RAWB`` frame: magic + raw little-endian float64 payload."""
    return MAGIC_RAW_BLOCK + np.ascontiguousarray(block, dtype="<f8").tobytes()


def decode_raw_block(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_raw_block` (read-only view)."""
    if peek_magic(payload) != MAGIC_RAW_BLOCK:
        raise CodecError("not a raw block payload")
    if (len(payload) - 4) % 8:
        raise CodecError(
            f"raw block payload length mismatch: {len(payload) - 4} "
            f"body bytes is not a whole number of float64s"
        )
    return np.frombuffer(payload, dtype="<f8", offset=4)


def encode_float(value: float) -> bytes:
    """``NF64`` frame: one float64 (the naive control job's payload)."""
    return _FLOAT_FRAME.pack(MAGIC_FLOAT, value)


def decode_float(payload: bytes) -> float:
    """Inverse of :func:`encode_float`."""
    _check_header(payload, _FLOAT_FRAME, "naive float")
    magic, value = _FLOAT_FRAME.unpack_from(payload, 0)
    if magic != MAGIC_FLOAT:
        raise CodecError("not a naive float payload")
    if len(payload) != _FLOAT_FRAME.size:
        raise CodecError(
            f"naive float payload length mismatch: "
            f"expected {_FLOAT_FRAME.size} bytes, got {len(payload)}"
        )
    return float(value)


# ----------------------------------------------------------------------
# F64D — dataset file header
# ----------------------------------------------------------------------


def encode_dataset_header(count: int) -> bytes:
    """``F64D`` dataset file header: magic + int64 item count."""
    return _COUNT_HEADER.pack(MAGIC_DATASET, count)


def decode_dataset_header(raw: bytes) -> int:
    """Item count from a ``.f64`` file header.

    Raises:
        CodecError: short read (truncated file), wrong magic, or a
            negative count.
    """
    if len(raw) < _COUNT_HEADER.size:
        raise CodecError(
            f"dataset header truncated: {len(raw)} bytes "
            f"< {_COUNT_HEADER.size}-byte header"
        )
    magic, count = _COUNT_HEADER.unpack_from(raw, 0)
    if magic != MAGIC_DATASET:
        raise CodecError("not a repro .f64 dataset file")
    if count < 0:
        raise CodecError(f"corrupt header: negative item count {count}")
    return int(count)


# ----------------------------------------------------------------------
# op-tagged ingest inputs (shared by WALO and RBAT)
# ----------------------------------------------------------------------

#: Float64 input block: an array, or its little-endian bytes verbatim.
F64Input = Union[np.ndarray, bytes, bytearray, memoryview]


def _as_f64_bytes(values: F64Input) -> bytes:
    if isinstance(values, (bytes, bytearray, memoryview)):
        body = bytes(values)
        if len(body) % 8:
            raise CodecError(
                f"payload of {len(body)} bytes is not a whole number of float64s"
            )
        return body
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _op_code(op: str) -> int:
    code = REDUCE_OP_CODES.get(op)
    if code is None:
        raise CodecError(
            f"unknown reduce op {op!r}; expected one of {sorted(REDUCE_OP_CODES)}"
        )
    return code


def _op_inputs(
    op: str, x: F64Input, y: Optional[F64Input]
) -> Tuple[bytes, Optional[bytes]]:
    """Float64 bytes of one op's inputs; ``y`` is ``None`` unless ``pairs``.

    ``pairs`` takes two equal-length blocks; every other op takes one.
    """
    xb = _as_f64_bytes(x)
    if op != "pairs":
        if y is not None:
            raise CodecError(f"reduce op {op!r} takes a single input block")
        return xb, None
    if y is None:
        raise CodecError("reduce op 'pairs' requires a second input block")
    yb = _as_f64_bytes(y)
    if len(yb) != len(xb):
        raise CodecError(
            f"reduce op 'pairs' input length mismatch: "
            f"{len(xb) // 8} vs {len(yb) // 8}"
        )
    return xb, yb


# ----------------------------------------------------------------------
# WALO — cluster write-ahead-log record
# ----------------------------------------------------------------------


def encode_wal_record(
    seq: int,
    stream: str,
    op: str,
    x: F64Input,
    y: Optional[F64Input] = None,
) -> bytes:
    """``WALO`` frame: one durably logged ingest batch.

    Logs the op tag (one of :data:`REDUCE_OP_CODES`) and the raw
    **pre-expansion** inputs, not the expanded terms: every expansion is
    deterministic (``sum``'s is the identity), so replay re-expands and
    re-scatters bit-identical terms while a dot record stays half the
    size of its terms. ``pairs`` records carry two equal-length input
    blocks (``x`` then ``y``); the other ops carry one.

    Layout: a 32-byte header (magic, int64 ``seq``, uint32 CRC-32,
    uint16 op code, uint16 stream-name length, int64 x count, 4 pad
    bytes), then the UTF-8 stream name and the little-endian float64
    inputs. The CRC covers the body (name + inputs), so replay can tell
    a torn tail from silent corruption. ``seq`` is the cluster's
    per-stream sequence number; :data:`WAL_UNSEQUENCED` marks
    scatter-mode records with no dedup identity.

    ``x``/``y`` may be float arrays or already-encoded little-endian
    float64 bytes — the binary wire path logs the frame bodies it
    received verbatim, with no decode/re-encode on the durability path.

    Raises:
        CodecError: unknown op, an empty stream name or one longer than
            :data:`MAX_WAL_STREAM_NAME` UTF-8 bytes,
            ``seq < WAL_UNSEQUENCED``, a missing/mismatched/superfluous
            second input, or byte payloads that are not whole float64s.
    """
    code = _op_code(op)
    if not stream:
        raise CodecError("WAL record requires a non-empty stream name")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt WAL record: sequence {seq} < -1")
    name = stream.encode("utf-8")
    if len(name) > MAX_WAL_STREAM_NAME:
        raise CodecError(
            f"stream name of {len(name)} bytes exceeds {MAX_WAL_STREAM_NAME}"
        )
    xb, yb = _op_inputs(op, x, y)
    body = name + xb + (yb or b"")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    header = _WAL_HEADER.pack(MAGIC_WAL, seq, crc, code, len(name), len(xb) // 8)
    return header + body


def wal_record_size(header: bytes) -> int:
    """Total record length (header + body) from a WAL record header.

    Lets a WAL reader consume a fixed :data:`WAL_HEADER_SIZE` prefix,
    learn how much body follows, and read exactly that — without the
    length arithmetic leaking out of the codec.

    Raises:
        CodecError: truncated header, wrong magic, unknown op code,
            corrupt lengths or sequence.
    """
    _check_header(header, _WAL_HEADER, "WAL record")
    magic, seq, _crc, code, stream_len, nx = _WAL_HEADER.unpack_from(header, 0)
    if magic != MAGIC_WAL:
        raise CodecError("not a WAL record payload")
    op = REDUCE_OP_NAMES.get(code)
    if op is None:
        raise CodecError(f"corrupt WAL header: unknown reduce op {code}")
    if stream_len <= 0 or nx < 0:
        raise CodecError(f"corrupt WAL header: lengths ({stream_len}, {nx})")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt WAL header: sequence {seq} < -1")
    ny = nx if op == "pairs" else 0
    return int(_WAL_HEADER.size + stream_len + 8 * (nx + ny))


def decode_wal_record(
    payload: bytes,
) -> Tuple[int, str, str, np.ndarray, Optional[np.ndarray]]:
    """Inverse of :func:`encode_wal_record`: ``(seq, stream, op, x, y)``.

    ``y`` is ``None`` for single-input ops. The arrays are read-only
    views over ``payload``.

    Raises:
        CodecError: truncation or trailing garbage, wrong magic, corrupt
            lengths, unknown op code, or a CRC mismatch.
    """
    total = wal_record_size(payload)
    _, seq, crc, code, stream_len, nx = _WAL_HEADER.unpack_from(payload, 0)
    if len(payload) != total:
        raise CodecError(
            f"WAL record length mismatch: expected {total} bytes, "
            f"got {len(payload)}"
        )
    body = payload[_WAL_HEADER.size :]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CodecError("WAL record CRC mismatch: corrupt body")
    try:
        stream = body[:stream_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"corrupt WAL record: bad stream name: {exc}") from exc
    op = REDUCE_OP_NAMES[code]
    off = _WAL_HEADER.size + stream_len
    x = np.frombuffer(payload, dtype="<f8", count=nx, offset=off)
    y = None
    if op == "pairs":
        y = np.frombuffer(payload, dtype="<f8", count=nx, offset=off + 8 * nx)
    return int(seq), stream, op, x, y


# ----------------------------------------------------------------------
# RBAT — binary batch ingest op (serve wire)
# ----------------------------------------------------------------------


def encode_reduce_batch(
    request_id: int,
    seq: int,
    stream: str,
    op: str,
    x: F64Input,
    y: Optional[F64Input] = None,
) -> bytes:
    """``RBAT`` frame: one binary-wire ingest op of any kind.

    Layout: header (magic, int64 request id, int64 ``seq``, int64 op
    code from :data:`REDUCE_OP_CODES`, int64 stream-name length, int64
    x count, int64 y count) followed by the UTF-8 stream name and one
    (``sum``/``squares``/``observations``) or two (``pairs``) embedded
    ``RAWB`` frames carrying the raw little-endian float64 *inputs*.
    Shipping inputs rather than expanded terms halves the wire volume
    of a dot and lets the durability path log the exact bytes received;
    the receiver's expansion is deterministic. The explicit counts make
    truncation at *any* byte offset detectable (a bare ``RAWB`` frame
    cannot tell a tail lost on an 8-byte boundary from a shorter batch).

    ``seq`` is the cluster plane's per-stream dedup sequence;
    :data:`WAL_UNSEQUENCED` marks single-node ops with no dedup
    identity.

    Raises:
        CodecError: unknown op, negative request id,
            ``seq < WAL_UNSEQUENCED``, empty stream name, or a
            missing/mismatched/superfluous second block.
    """
    code = _op_code(op)
    if request_id < 0:
        raise CodecError(f"batch frame requires request id >= 0, got {request_id}")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt batch frame: sequence {seq} < -1")
    if not stream:
        raise CodecError("batch frame requires a non-empty stream name")
    name = stream.encode("utf-8")
    xb, yb = _op_inputs(op, x, y)
    ny = 0 if yb is None else len(yb) // 8
    header = _REDUCE_BATCH_HEADER.pack(
        MAGIC_REDUCE_BATCH, request_id, seq, code, len(name), len(xb) // 8, ny
    )
    blocks = MAGIC_RAW_BLOCK + xb
    if yb is not None:
        blocks += MAGIC_RAW_BLOCK + yb
    return header + name + blocks


def decode_reduce_batch(
    payload: bytes,
) -> Tuple[int, int, str, str, np.ndarray, "np.ndarray | None"]:
    """Inverse of :func:`encode_reduce_batch`.

    Returns ``(request_id, seq, stream, op, x, y)``; ``y`` is ``None``
    for single-input ops. The arrays are read-only zero-copy views over
    the frame bytes — callers that outlive the buffer must copy.

    Raises:
        CodecError: truncation or trailing garbage, wrong magic (outer
            or embedded), corrupt lengths, or an unknown op code.
    """
    _check_header(payload, _REDUCE_BATCH_HEADER, "reduce batch frame")
    magic, request_id, seq, code, stream_len, nx, ny = (
        _REDUCE_BATCH_HEADER.unpack_from(payload, 0)
    )
    if magic != MAGIC_REDUCE_BATCH:
        raise CodecError("not a reduce batch frame payload")
    op = REDUCE_OP_NAMES.get(code)
    if op is None:
        raise CodecError(f"corrupt reduce batch frame: unknown op code {code}")
    if request_id < 0:
        raise CodecError(f"corrupt batch frame: request id {request_id} < 0")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt batch frame: sequence {seq} < -1")
    if stream_len <= 0 or nx < 0 or ny < 0:
        raise CodecError(
            f"corrupt reduce batch frame: lengths ({stream_len}, {nx}, {ny})"
        )
    if op == "pairs":
        if ny != nx:
            raise CodecError(
                f"corrupt reduce batch frame: pair counts differ ({nx}, {ny})"
            )
        nblocks = 2
    else:
        if ny != 0:
            raise CodecError(
                f"corrupt reduce batch frame: op {op!r} carries one block, "
                f"header promises {ny} extra values"
            )
        nblocks = 1
    total = _REDUCE_BATCH_HEADER.size + stream_len + nblocks * 4 + 8 * (nx + ny)
    if len(payload) != total:
        raise CodecError(
            f"reduce batch frame length mismatch: expected {total} bytes "
            f"for {nx}+{ny} values, got {len(payload)}"
        )
    off = _REDUCE_BATCH_HEADER.size
    try:
        stream = payload[off : off + stream_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"corrupt batch frame: bad stream name: {exc}") from exc
    off += stream_len
    x = decode_raw_block(payload[off : off + 4 + 8 * nx])
    y = None
    if op == "pairs":
        y = decode_raw_block(payload[off + 4 + 8 * nx :])
    return int(request_id), int(seq), stream, op, x, y


def reduce_batch_wire_bodies(payload: bytes) -> Tuple[bytes, "bytes | None"]:
    """The embedded ``RAWB`` float64 body bytes of an ``RBAT`` frame.

    Returns ``(x_bytes, y_bytes)`` (``y_bytes`` is ``None`` for
    single-input ops) — exactly the slices :func:`encode_wal_record`
    logs verbatim on the binary durability path.
    """
    _check_header(payload, _REDUCE_BATCH_HEADER, "reduce batch frame")
    magic, _rid, _seq, code, stream_len, nx, _ny = (
        _REDUCE_BATCH_HEADER.unpack_from(payload, 0)
    )
    if magic != MAGIC_REDUCE_BATCH:
        raise CodecError("not a reduce batch frame payload")
    op = REDUCE_OP_NAMES.get(code)
    if op is None:
        raise CodecError(f"corrupt reduce batch frame: unknown op code {code}")
    off = _REDUCE_BATCH_HEADER.size + stream_len
    xb = payload[off + 4 : off + 4 + 8 * nx]
    if op != "pairs":
        return xb, None
    return xb, payload[off + 4 + 8 * nx + 4 :]


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_DECODERS: Dict[bytes, Tuple[str, Callable[[bytes], Any]]] = {
    MAGIC_SPARSE: ("sparse-superaccumulator", decode_sparse),
    MAGIC_DENSE: ("dense-superaccumulator", decode_dense),
    MAGIC_STREAM: ("kernel-stream", decode_stream),
    MAGIC_TRUNCATED: ("truncated-superaccumulator", decode_truncated),
    MAGIC_BINNED: ("binned-superaccumulator", decode_binned),
    MAGIC_CERT: ("adaptive-certificate", decode_cert),
    MAGIC_COMPOSITE: ("adaptive-composite", decode_composite),
    MAGIC_RAW_BLOCK: ("raw-block", decode_raw_block),
    MAGIC_FLOAT: ("naive-float", decode_float),
    MAGIC_DATASET: ("dataset-header", decode_dataset_header),
    MAGIC_REDUCE_BATCH: ("binary-batch", decode_reduce_batch),
    MAGIC_WAL: ("wal-record", decode_wal_record),
}


def registered_formats() -> Dict[bytes, str]:
    """``{magic: format name}`` for every registered frame format."""
    return {magic: name for magic, (name, _) in _DECODERS.items()}


def decode(payload: bytes) -> Any:
    """Decode any registered frame by its magic tag.

    Raises:
        CodecError: unknown magic or any format-level corruption.
    """
    magic = peek_magic(payload)
    entry = _DECODERS.get(magic)
    if entry is None:
        raise CodecError(f"unknown frame magic {magic!r}")
    return entry[1](payload)
