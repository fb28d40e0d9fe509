"""Wire-format registry robustness (PR 4 satellite).

Every decoder must reject truncated payloads and wrong-magic frames
with the typed :class:`~repro.errors.CodecError` (a ``ValueError``
subclass, so pre-codec call sites keep working) — never a bare
``struct.error`` escaping to the caller. The fuzz battery mutates
*valid* frames byte-by-byte and asserts decoding either succeeds or
fails with ``CodecError``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro import codec
from repro.core.digits import DEFAULT_RADIX
from repro.core.sparse import SparseSuperaccumulator
from repro.core.superaccumulator import DenseSuperaccumulator
from repro.errors import CodecError, RepresentationError, ReproError


def _sparse(values):
    return SparseSuperaccumulator.from_floats(
        np.asarray(values, dtype=np.float64), DEFAULT_RADIX
    )


def _valid_frames():
    """One representative valid frame per registered format."""
    acc = _sparse([1.0, 1e-30, -3e200])
    from repro.kernels import get_kernel

    dense = get_kernel("dense").fold(np.array([2.0, -1e16, 5e-9]))

    binned = get_kernel("binned")
    binned_part = binned.fold(np.array([1.0, 3e-290, -7e154, 5e-324]))
    return {
        codec.MAGIC_SPARSE: codec.encode_sparse(acc),
        codec.MAGIC_DENSE: codec.encode_dense(dense),
        codec.MAGIC_STREAM: codec.encode_stream(3, codec.encode_sparse(acc)),
        codec.MAGIC_BINNED: binned.to_wire(binned_part),
        codec.MAGIC_RAW_BLOCK: codec.encode_raw_block(np.array([1.5, -2.5])),
        codec.MAGIC_FLOAT: codec.encode_float(3.25),
        codec.MAGIC_DATASET: codec.encode_dataset_header(12345),
        codec.MAGIC_REDUCE_BATCH: codec.encode_reduce_batch(
            5, 11, "orders", "pairs",
            np.array([0.5, -3e7]), np.array([2.0, -4.25]),
        ),
        codec.MAGIC_WAL: codec.encode_wal_record(
            7, "orders", "squares", np.array([1.5, -2.25, 3e7])
        ),
        codec.MAGIC_INGEST_ACK: codec.encode_ingest_ack(5, 64, 11, True),
    }


FRAMES = _valid_frames()


def test_every_registered_format_has_a_fixture_frame():
    assert set(FRAMES) == set(codec.registered_formats())
    assert len(FRAMES) == 10


@pytest.mark.parametrize("magic", sorted(FRAMES))
def test_roundtrip_through_generic_decode(magic):
    # decode() must dispatch by magic without raising
    codec.decode(FRAMES[magic])


@pytest.mark.parametrize("magic", sorted(FRAMES))
def test_truncation_at_every_cut_raises_codec_error(magic):
    frame = FRAMES[magic]
    for cut in range(len(frame)):
        if magic == codec.MAGIC_RAW_BLOCK and cut >= 4 and (cut - 4) % 8 == 0:
            # Raw blocks are magic + bare float64 bytes with no length
            # field: a cut on a float boundary *is* a (shorter) valid
            # block. Undetectable by design; the combiner-ablation job
            # that uses RAWB never re-frames untrusted bytes.
            continue
        with pytest.raises(CodecError):
            codec.decode(frame[:cut])


@pytest.mark.parametrize("magic", sorted(FRAMES))
def test_wrong_magic_raises_codec_error(magic):
    frame = b"ZZZZ" + FRAMES[magic][4:]
    with pytest.raises(CodecError):
        codec.decode(frame)
    # and the format-specific decoder rejects a *different valid* magic
    other = next(m for m in sorted(FRAMES) if m != magic)
    swapped = other + FRAMES[magic][4:]
    decoder = {
        codec.MAGIC_SPARSE: codec.decode_sparse,
        codec.MAGIC_DENSE: codec.decode_dense,
        codec.MAGIC_STREAM: codec.decode_stream,
        codec.MAGIC_BINNED: codec.decode_binned,
        codec.MAGIC_RAW_BLOCK: codec.decode_raw_block,
        codec.MAGIC_FLOAT: codec.decode_float,
        codec.MAGIC_DATASET: codec.decode_dataset_header,
        codec.MAGIC_REDUCE_BATCH: codec.decode_reduce_batch,
        codec.MAGIC_WAL: codec.decode_wal_record,
        codec.MAGIC_INGEST_ACK: codec.decode_ingest_ack,
    }[magic]
    with pytest.raises(CodecError):
        decoder(swapped)


@pytest.mark.parametrize("magic", sorted(FRAMES))
def test_fuzz_mutated_frames_never_leak_struct_error(magic):
    """Flip bytes in valid frames: decode or CodecError, nothing else.

    Mutations can produce *semantically* different but well-formed
    frames (that's fine — wire formats aren't MACs); the contract under
    test is that malformed ones fail typed.
    """
    frame = bytearray(FRAMES[magic])
    rng = np.random.default_rng(int.from_bytes(magic, "big"))
    for _ in range(300):
        mutated = bytearray(frame)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(mutated)))
            mutated[pos] ^= int(rng.integers(1, 256))
        try:
            codec.decode(bytes(mutated))
        except CodecError:
            pass
        except RepresentationError:
            # Well-formed frame, invalid regularized body: the domain
            # validator's typed ValueError, kept distinct from framing
            # errors because corruption tests pin it.
            pass
        except struct.error as exc:  # pragma: no cover - the bug class
            pytest.fail(f"bare struct.error leaked: {exc}")
        except (OverflowError, MemoryError):
            # A mutated length field may ask for an absurd allocation;
            # numpy refuses before the decoder can length-check. Typed
            # refusal, acceptable.
            pass


def test_codec_error_is_value_error_and_repro_error():
    with pytest.raises(ValueError):
        codec.decode_sparse(b"XXXX")
    with pytest.raises(ReproError):
        codec.decode_sparse(b"XXXX")


def test_truncated_payload_messages_name_the_format():
    with pytest.raises(CodecError, match="(?i)sparse"):
        codec.decode_sparse(FRAMES[codec.MAGIC_SPARSE][:7])
    with pytest.raises(CodecError, match="dataset header truncated"):
        codec.decode_dataset_header(b"F6")


def test_raw_block_rejects_non_whole_float64_body():
    frame = codec.encode_raw_block(np.array([1.0, 2.0]))
    with pytest.raises(CodecError):
        codec.decode_raw_block(frame + b"\x01")


def test_unknown_magic_lists_no_decoder():
    # BBAT/WALR/ERSM were the sum-only twins of RBAT/WALO/KSTR: retired
    # frames must fail loudly, not decode as anything.
    for magic in (b"NOPE", b"BBAT", b"WALR", b"ERSM"):
        with pytest.raises(CodecError, match="unknown frame magic"):
            codec.decode(magic + b"\x00" * 40)


# ----------------------------------------------------------------------
# op-tagged ingest frames: the WALO log record and the RBAT wire batch
# ----------------------------------------------------------------------

#: One input set per ingest kind (``y`` only for the two-input kind):
#: signed zeros, subnormals and range extremes must survive bit-exactly.
KIND_INPUTS = {
    "sum": (np.array([1.5, -0.0, 5e-324, -1e308, 2.0**-1074]), None),
    "pairs": (np.array([1.5, -0.0, 5e-324]), np.array([-0.0, 3e-300, -1e10])),
    "squares": (np.array([1.5, -0.0, 3e7, 2.0**-400]), None),
    "observations": (np.array([-2.25, 1e-300, 4.0]), None),
}


def _f8(arr):
    return None if arr is None else arr.astype("<f8").tobytes()


def _same_inputs(op, x, y, got_op, gx, gy):
    assert got_op == op
    assert gx.dtype == np.float64
    assert gx.tobytes() == _f8(x)
    assert _f8(gy) == _f8(y)


def test_wal_record_roundtrip_bit_exact():
    assert set(KIND_INPUTS) == set(codec.REDUCE_OP_CODES)
    for op, (x, y) in KIND_INPUTS.items():
        seq, stream, got_op, gx, gy = codec.decode_wal_record(
            codec.encode_wal_record(42, "payments", op, x, y)
        )
        assert (seq, stream) == (42, "payments")
        _same_inputs(op, x, y, got_op, gx, gy)


def test_wal_record_unsequenced_and_empty_payload():
    for op, (x, y) in KIND_INPUTS.items():
        empty = None if y is None else np.array([])
        blob = codec.encode_wal_record(
            codec.WAL_UNSEQUENCED, "scatter", op, np.array([]), empty
        )
        seq, stream, got_op, gx, gy = codec.decode_wal_record(blob)
        assert (seq, stream, got_op) == (codec.WAL_UNSEQUENCED, "scatter", op)
        assert gx.size == 0 and (gy is None) == (y is None)


def test_wal_record_size_from_header_prefix():
    for op, (x, y) in KIND_INPUTS.items():
        blob = codec.encode_wal_record(3, "s", op, x, y)
        assert codec.peek_magic(blob) == codec.MAGIC_WAL
        assert codec.wal_record_size(blob[: codec.WAL_HEADER_SIZE]) == len(blob)


def test_wal_record_crc_corruption_detected():
    for op, (x, y) in KIND_INPUTS.items():
        blob = bytearray(codec.encode_wal_record(9, "orders", op, x, y))
        # Flip one bit in every body byte position in turn: CRC must
        # catch each one (the header fields have their own structural
        # checks).
        for pos in range(codec.WAL_HEADER_SIZE, len(blob)):
            corrupt = bytearray(blob)
            corrupt[pos] ^= 0x01
            with pytest.raises(CodecError, match="CRC mismatch"):
                codec.decode_wal_record(bytes(corrupt))


def test_wal_record_rejects_bad_seq_and_empty_stream():
    for op, (x, y) in KIND_INPUTS.items():
        with pytest.raises(CodecError, match="non-empty stream"):
            codec.encode_wal_record(0, "", op, x, y)
        with pytest.raises(CodecError, match="sequence"):
            codec.encode_wal_record(-2, "s", op, x, y)
        with pytest.raises(CodecError, match="exceeds"):
            codec.encode_wal_record(0, "s" * (codec.MAX_WAL_STREAM_NAME + 1), op, x, y)
        blob = bytearray(codec.encode_wal_record(0, "s", op, x, y))
        # forge seq = -3 in the header; the decoder must refuse before CRC
        blob[4:12] = (-3).to_bytes(8, "little", signed=True)
        with pytest.raises(CodecError, match="sequence"):
            codec.decode_wal_record(bytes(blob))


def test_wal_record_rejects_trailing_garbage():
    for op, (x, y) in KIND_INPUTS.items():
        blob = codec.encode_wal_record(1, "s", op, x, y)
        with pytest.raises(CodecError, match="length mismatch"):
            codec.decode_wal_record(blob + b"\x00")


def test_wal_record_bytes_payload_passthrough():
    """Raw f8 bytes encode byte-identically to the ndarray they came from."""
    for op, (x, y) in KIND_INPUTS.items():
        via_array = codec.encode_wal_record(8, "s", op, x, y)
        via_bytes = codec.encode_wal_record(8, "s", op, _f8(x), _f8(y))
        assert via_array == via_bytes


def test_wal_record_rejects_misaligned_bytes_payload():
    for op, (x, y) in KIND_INPUTS.items():
        with pytest.raises(CodecError, match="whole number of float64"):
            codec.encode_wal_record(0, "s", op, b"\x00" * 13, _f8(y))
    with pytest.raises(CodecError, match="whole number of float64"):
        codec.encode_wal_record(0, "s", "pairs", b"\x00" * 8, b"\x00" * 9)


def test_batch_roundtrip_bit_exact():
    for op, (x, y) in KIND_INPUTS.items():
        rid, seq, stream, got_op, gx, gy = codec.decode_reduce_batch(
            codec.encode_reduce_batch(17, 4, "payments", op, x, y)
        )
        assert (rid, seq, stream) == (17, 4, "payments")
        _same_inputs(op, x, y, got_op, gx, gy)


def test_batch_unsequenced_and_empty():
    for op, (x, y) in KIND_INPUTS.items():
        empty = None if y is None else np.array([])
        blob = codec.encode_reduce_batch(
            1, codec.WAL_UNSEQUENCED, "s", op, np.array([]), empty
        )
        rid, seq, stream, got_op, gx, gy = codec.decode_reduce_batch(blob)
        assert (seq, got_op) == (codec.WAL_UNSEQUENCED, op)
        assert gx.size == 0 and (gy is None) == (y is None)


def test_batch_wire_body_is_the_wal_payload():
    """The frame's raw f8 bodies reproduce the WAL record byte-for-byte."""
    for op, (x, y) in KIND_INPUTS.items():
        frame = codec.encode_reduce_batch(2, 9, "orders", op, x, y)
        *_, gx, gy = codec.decode_reduce_batch(frame)
        bx, by = _f8(gx), _f8(gy)
        assert (bx, by) == (_f8(x), _f8(y))
        assert codec.encode_wal_record(9, "orders", op, bx, by) == (
            codec.encode_wal_record(9, "orders", op, x, y)
        )


def test_batch_rejects_bad_fields():
    for op, (x, y) in KIND_INPUTS.items():
        with pytest.raises(CodecError, match="request id"):
            codec.encode_reduce_batch(-1, 0, "s", op, x, y)
        with pytest.raises(CodecError, match="non-empty stream"):
            codec.encode_reduce_batch(0, 0, "", op, x, y)
        with pytest.raises(CodecError, match="sequence"):
            codec.encode_reduce_batch(0, -5, "s", op, x, y)


def test_batch_rejects_trailing_garbage_and_nvalue_mismatch():
    for op, (x, y) in KIND_INPUTS.items():
        frame = codec.encode_reduce_batch(1, -1, "s", op, x, y)
        with pytest.raises(CodecError, match="length mismatch"):
            codec.decode_reduce_batch(frame + b"\x00")
        # forge the x count, then the y count, in the header: the
        # length and pair checks must refuse
        for lo in (36, 44):
            forged = bytearray(frame)
            forged[lo : lo + 8] = (x.size + 1).to_bytes(8, "little", signed=True)
            with pytest.raises(CodecError):
                codec.decode_reduce_batch(bytes(forged))


@pytest.mark.parametrize("op", sorted(KIND_INPUTS))
@pytest.mark.parametrize("encode", ["wal", "batch"])
def test_op_tagged_frames_truncation_at_every_cut(op, encode):
    x, y = KIND_INPUTS[op]
    if encode == "wal":
        frame = codec.encode_wal_record(5, "orders", op, x, y)
    else:
        frame = codec.encode_reduce_batch(5, 5, "orders", op, x, y)
    assert codec.decode(frame)[-3] == op
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            codec.decode(frame[:cut])


@pytest.mark.parametrize("seq", [codec.WAL_UNSEQUENCED, 0, 2**40])
@pytest.mark.parametrize("duplicate", [False, True])
def test_ingest_ack_roundtrip(seq, duplicate):
    frame = codec.encode_ingest_ack(2**33, 4096, seq, duplicate)
    assert len(frame) == 32 and codec.peek_magic(frame) == codec.MAGIC_INGEST_ACK
    assert codec.decode_ingest_ack(frame) == (2**33, 4096, seq, duplicate)
    assert codec.decode(frame) == (2**33, 4096, seq, duplicate)


def test_ingest_ack_rejects_bad_fields():
    for args in [(-1, 0), (0, -1), (0, 0, -2), (True, 0), (0, 1.0), (2**63, 0)]:
        with pytest.raises(CodecError):
            codec.encode_ingest_ack(*args)


def test_ingest_ack_corrupt_or_short_frames_raise_codec_error():
    frame = bytearray(codec.encode_ingest_ack(3, 8, 5, False))
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            codec.decode_ingest_ack(bytes(frame[:cut]))
    with pytest.raises(CodecError, match="length mismatch"):
        codec.decode_ingest_ack(bytes(frame) + b"\x00")
    flags = bytearray(frame)
    flags[28] = 0x02  # an undefined flag bit
    with pytest.raises(CodecError, match="flag"):
        codec.decode_ingest_ack(bytes(flags))
    for offset in (4, 12):  # request id, added
        negative = bytearray(frame)
        negative[offset : offset + 8] = (-4).to_bytes(8, "little", signed=True)
        with pytest.raises(CodecError, match="corrupt ingest ack"):
            codec.decode_ingest_ack(bytes(negative))
    low_seq = bytearray(frame)
    low_seq[20:28] = (-2).to_bytes(8, "little", signed=True)
    with pytest.raises(CodecError, match="corrupt ingest ack"):
        codec.decode_ingest_ack(bytes(low_seq))
