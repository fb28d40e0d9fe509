"""Protocol unit and fuzz tests: framing, codec, malformed-byte safety.

The contract under test: any byte sequence fed to the decoder either
yields message objects or raises :class:`ProtocolError` — never a raw
``json``/``struct``/``UnicodeDecodeError`` — and payload-level errors
leave the decoder usable for subsequent frames.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np
import pytest

from repro import codec
from repro.errors import ProtocolError
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    LENGTH_PREFIX,
    decode_bytes_field,
    decode_payload,
    encode_bytes_field,
    encode_batch_frame,
    encode_frame,
    parse_payload,
    read_frame,
)
from tests.conftest import random_hard_array


def roundtrip(obj):
    frame = encode_frame(obj)
    (length,) = LENGTH_PREFIX.unpack(frame[:4])
    assert length == len(frame) - 4
    assert frame.endswith(b"\n")
    return decode_payload(frame[4:])


class TestFraming:
    def test_roundtrip_simple(self):
        obj = {"op": "add", "stream": "s", "value": 1.5, "id": 7}
        assert roundtrip(obj) == obj

    def test_floats_bit_exact(self, rng):
        values = random_hard_array(rng, 200).tolist()
        values += [5e-324, -5e-324, 1.7976931348623157e308, 0.0, -0.0, 2.0**-1074]
        back = roundtrip({"values": values})["values"]
        assert len(back) == len(values)
        for a, b in zip(values, back):
            assert (a == b and np.signbit(a) == np.signbit(b)) or a != a

    def test_unicode_stream_names(self):
        obj = {"op": "value", "stream": "温度/sensor-Δ7"}
        assert roundtrip(obj) == obj

    def test_frames_are_json_lines(self):
        frame = encode_frame({"a": 1})
        assert json.loads(frame[4:].decode()) == {"a": 1}

    def test_oversized_outgoing_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"values": [1.0] * 1000}, max_frame=64)

    def test_bytes_field_roundtrip(self):
        raw = bytes(range(256)) * 3
        assert decode_bytes_field(encode_bytes_field(raw)) == raw

    @pytest.mark.parametrize("bad", [None, 42, "not base64 !!!", "abc"])
    def test_bytes_field_rejects_garbage(self, bad):
        with pytest.raises(ProtocolError):
            decode_bytes_field(bad)


class TestDecoderIncremental:
    def test_byte_at_a_time(self):
        msgs = [{"op": "ping", "id": i} for i in range(5)]
        stream = b"".join(encode_frame(m) for m in msgs)
        dec = FrameDecoder()
        got = []
        for i in range(len(stream)):
            got.extend(dec.feed(stream[i : i + 1]))
        assert got == msgs
        assert dec.pending_bytes == 0

    def test_many_frames_one_feed(self):
        msgs = [{"i": i} for i in range(20)]
        stream = b"".join(encode_frame(m) for m in msgs)
        assert FrameDecoder().feed(stream) == msgs

    def test_oversized_length_prefix_fatal(self):
        dec = FrameDecoder(max_frame=1024)
        with pytest.raises(ProtocolError) as exc:
            dec.feed(LENGTH_PREFIX.pack(1 << 30) + b"x" * 16)
        assert exc.value.fatal
        # poisoned: framing is unrecoverable
        with pytest.raises(ProtocolError):
            dec.feed(encode_frame({"op": "ping"}))

    def test_zero_length_frame_fatal(self):
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(LENGTH_PREFIX.pack(0))

    def test_invalid_json_recoverable(self):
        bad = b"{not json]\n"
        frame = LENGTH_PREFIX.pack(len(bad)) + bad
        dec = FrameDecoder()
        with pytest.raises(ProtocolError) as exc:
            dec.feed(frame)
        assert not exc.value.fatal
        # the decoder consumed the bad frame and keeps working
        assert dec.feed(encode_frame({"op": "ping"})) == [{"op": "ping"}]

    def test_non_object_json_recoverable(self):
        body = b"[1,2,3]\n"
        with pytest.raises(ProtocolError) as exc:
            FrameDecoder().feed(LENGTH_PREFIX.pack(len(body)) + body)
        assert not exc.value.fatal

    def test_invalid_utf8_recoverable(self):
        body = b"\xff\xfe{}\n"
        with pytest.raises(ProtocolError) as exc:
            FrameDecoder().feed(LENGTH_PREFIX.pack(len(body)) + body)
        assert not exc.value.fatal


class TestFuzz:
    def test_random_bytes_never_leak_raw_errors(self, rng):
        for trial in range(200):
            blob = rng.integers(0, 256, size=int(rng.integers(1, 400))).astype(
                np.uint8
            ).tobytes()
            dec = FrameDecoder(max_frame=1 << 16)
            try:
                for m in dec.feed(blob):
                    assert isinstance(m, dict)
            except ProtocolError:
                pass  # the only permitted failure mode

    def test_truncation_fuzz(self, rng):
        frame = encode_frame({"op": "add_array", "values": [1.0, 2.0, 3.0]})
        for cut in range(len(frame)):
            dec = FrameDecoder()
            try:
                out = dec.feed(frame[:cut])
            except ProtocolError:
                continue
            assert out == []  # a prefix never yields a phantom message
            assert dec.pending_bytes == cut

    def test_bitflip_fuzz(self, rng):
        frame = bytearray(encode_frame({"op": "value", "stream": "s", "id": 3}))
        for trial in range(300):
            mutated = bytearray(frame)
            pos = int(rng.integers(0, len(mutated)))
            mutated[pos] ^= 1 << int(rng.integers(0, 8))
            dec = FrameDecoder(max_frame=1 << 20)
            try:
                msgs = dec.feed(bytes(mutated))
            except ProtocolError:
                continue
            for m in msgs:
                assert isinstance(m, dict)


class TestBinaryWire:
    """RBAT batch frames: parse shape, error taxonomy, fuzz safety.

    The taxonomy under test: *framing* violations (bad length prefix)
    stay fatal exactly as in JSON mode; every *payload*-level problem
    of a binary frame — wrong magic, truncation inside the payload,
    forged lengths, non-finite values — is recoverable, because the
    frame boundary itself was intact. A shard task must never die to a
    corrupt batch; the connection answers an error and lives on.
    """

    def batch_frame(self, values, *, rid=7, stream="s", seq=None):
        return encode_batch_frame(rid, stream, np.asarray(values, dtype=np.float64), seq=seq)

    def test_parse_yields_add_array_request_shape(self):
        frame = self.batch_frame([1.5, -2.5, 5e-324], rid=9, stream="temp")
        req = parse_payload(frame[4:], binary=True)
        assert req["op"] == "add_array"
        assert req["id"] == 9
        assert req["stream"] == "temp"
        assert req["wire"] == "binary"
        assert "seq" not in req
        assert isinstance(req["values"], np.ndarray)
        assert not req["values"].flags.writeable  # zero-copy read-only view
        assert req["values"].tobytes() == np.array([1.5, -2.5, 5e-324]).tobytes()
        assert req["payload_f64"] == req["values"].tobytes()

    def test_sequenced_frame_carries_seq(self):
        frame = self.batch_frame([1.0], seq=42)
        assert parse_payload(frame[4:], binary=True)["seq"] == 42

    def test_json_payload_still_parses_on_binary_connection(self):
        frame = encode_frame({"op": "ping", "id": 1})
        assert parse_payload(frame[4:], binary=True) == {"op": "ping", "id": 1}

    def test_binary_payload_on_json_connection_is_recoverable(self):
        frame = self.batch_frame([1.0, 2.0])
        with pytest.raises(ProtocolError) as exc:
            parse_payload(frame[4:], binary=False)
        assert not exc.value.fatal

    def test_wrong_magic_recoverable(self):
        payload = b"ZZZZ" + self.batch_frame([1.0])[8:]
        with pytest.raises(ProtocolError, match="magic") as exc:
            parse_payload(payload, binary=True)
        assert not exc.value.fatal

    def test_truncated_payload_at_every_cut_recoverable(self):
        payload = self.batch_frame([1.0, -0.0, 3e300])[4:]
        for cut in range(1, len(payload)):
            with pytest.raises(ProtocolError) as exc:
                parse_payload(payload[:cut], binary=True)
            assert not exc.value.fatal, f"cut={cut} raised fatal"

    def test_oversized_vs_forged_nvalues_recoverable(self):
        payload = bytearray(self.batch_frame([1.0, 2.0])[4:])
        # forge the x count up and down: explicit count vs byte length
        # must disagree
        for forged in (0, 1, 3, 1 << 40):
            mutated = bytearray(payload)
            mutated[36:44] = forged.to_bytes(8, "little", signed=True)
            with pytest.raises(ProtocolError) as exc:
                parse_payload(bytes(mutated), binary=True)
            assert not exc.value.fatal

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_recoverable(self, bad):
        arr = np.array([1.0, bad, 2.0])
        frame = codec.encode_reduce_batch(1, codec.WAL_UNSEQUENCED, "s", "sum", arr)
        with pytest.raises(ProtocolError, match="non-finite") as exc:
            parse_payload(frame, binary=True)
        assert not exc.value.fatal

    def test_decoder_survives_corrupt_batch_between_good_frames(self):
        dec = FrameDecoder(binary=True)
        good = self.batch_frame([4.0, 5.0])
        bad_payload = b"ZZZZ" + good[8:]
        bad = LENGTH_PREFIX.pack(len(bad_payload)) + bad_payload
        assert dec.feed(good)[0]["values"].size == 2
        with pytest.raises(ProtocolError) as exc:
            dec.feed(bad)
        assert not exc.value.fatal
        assert dec.feed(good)[0]["values"].size == 2  # connection lives on

    def test_oversized_binary_frame_still_fatal(self):
        dec = FrameDecoder(max_frame=64, binary=True)
        with pytest.raises(ProtocolError) as exc:
            dec.feed(LENGTH_PREFIX.pack(1 << 20))
        assert exc.value.fatal

    def test_bitflip_fuzz_binary_mode(self, rng):
        frame = bytearray(self.batch_frame(list(range(16)), seq=3))
        for trial in range(400):
            mutated = bytearray(frame)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(mutated)))
                mutated[pos] ^= 1 << int(rng.integers(0, 8))
            dec = FrameDecoder(max_frame=1 << 20, binary=True)
            try:
                for m in dec.feed(bytes(mutated)):
                    assert isinstance(m, dict)
            except ProtocolError:
                pass  # the only permitted failure mode, fatal or not

    def test_random_bytes_fuzz_binary_mode(self, rng):
        for trial in range(200):
            blob = rng.integers(0, 256, size=int(rng.integers(1, 400))).astype(
                np.uint8
            ).tobytes()
            dec = FrameDecoder(max_frame=1 << 16, binary=True)
            try:
                for m in dec.feed(blob):
                    assert isinstance(m, dict)
            except ProtocolError:
                pass

    def test_encode_batch_frame_respects_max_frame(self):
        with pytest.raises(ProtocolError) as exc:
            encode_batch_frame(1, "s", np.ones(1000), max_frame=64)
        assert exc.value.fatal


class TestAsyncReadFrame:
    """read_frame against real StreamReaders (the server's read path)."""

    def run(self, data: bytes, **kwargs):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            out = []
            while True:
                msg = await read_frame(reader, **kwargs)
                if msg is None:
                    return out
                out.append(msg)

        return asyncio.run(main())

    def test_reads_stream_of_frames(self):
        msgs = [{"op": "ping", "id": i} for i in range(3)]
        data = b"".join(encode_frame(m) for m in msgs)
        assert self.run(data) == msgs

    def test_clean_eof_returns_none(self):
        assert self.run(b"") == []

    def test_truncated_prefix_fatal(self):
        with pytest.raises(ProtocolError):
            self.run(b"\x00\x00")

    def test_truncated_payload_fatal(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(ProtocolError):
            self.run(frame[:-3])

    def test_oversized_prefix_fatal(self):
        data = struct.pack("!I", 1 << 31) + b"junk"
        with pytest.raises(ProtocolError) as exc:
            self.run(data, max_frame=1 << 20)
        assert exc.value.fatal
