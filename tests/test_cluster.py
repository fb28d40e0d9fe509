"""Cluster plane: placement, WAL replay, replication, failover (PR 7).

The acceptance invariant tested throughout: killing any single node
mid-ingest and replaying its WAL on a replica yields a final rounded
sum bit-identical (``same_float``) to the uninterrupted single-node
serve path. Exact merges make this a theorem — these tests pin the
machinery that is supposed to inherit it.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import stat
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import codec
from repro.cluster import (
    ClusterCoordinator,
    HashRing,
    LocalCluster,
    LocalNodeHandle,
    RemoteNodeHandle,
    ReplicationManager,
    WalService,
    WalWriter,
    WriteAheadLog,
    read_wal,
    stable_hash,
)
from repro.cluster.node import ClusterNode
from repro.core.exact import exact_sum
from repro.errors import CodecError, NodeDownError, ServiceError
from repro.plan import run_reduction
from repro.serve import InProcessClient, ReproService, ServeConfig
from repro.util.bits import same_float
from tests.conftest import ref_var


def _panel(n=4000, seed=11):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(n) * 10.0 ** rng.integers(-25, 25, n)
    ).astype(np.float64)


def _batches(data, size=250):
    return [data[i : i + size] for i in range(0, data.size, size)]


#: Every ingest kind; ``pairs`` is the one that takes a second input.
KINDS = ("sum", "pairs", "squares", "observations")


def _kind_plan(data, partner, size=250):
    """``(stream, kind, x, y)`` batches rotating through every kind."""
    plan = []
    for i, (x, y) in enumerate(zip(_batches(data, size), _batches(partner, size))):
        kind = KINDS[i % len(KINDS)]
        plan.append((f"s-{kind}", kind, x, y if kind == "pairs" else None))
    return plan


async def _kind_reads(request):
    """Every kind's read of a :func:`_kind_plan` ingest, as exact hex."""
    value = await request("value", stream="s-sum")
    dot = await request("dot", stream="s-pairs")
    norm = await request("norm2", stream="s-squares")
    moments = await request("moments", stream="s-observations", ddof=1)
    return {
        "sum": (value["hex"], value["count"]),
        "dot": (dot["hex"], dot["count"]),
        "norm2": (norm["hex"], norm["count"]),
        "mean": float(moments["mean"]).hex(),
        "variance": (float(moments["variance"]).hex(), moments["count"]),
    }


async def _serve_reference(batches):
    """The uninterrupted single-node serve path (the acceptance oracle)."""
    async with ReproService(ServeConfig(shards=2)) as service:
        client = InProcessClient(service)
        for batch in batches:
            await client.add_array("ref", [float(v) for v in batch])
        resp = await client.request("value", stream="ref")
        return float(resp["value"]), int(resp["count"])


# ----------------------------------------------------------------------
# placement ring
# ----------------------------------------------------------------------


class TestHashRing:
    def test_stable_hash_is_interpreter_independent(self):
        # pinned value: blake2b is stable by construction, unlike hash()
        assert stable_hash("node-0") == stable_hash("node-0")
        assert stable_hash("node-0") != stable_hash("node-1")

    def test_placement_distinct_nodes_in_ring_order(self):
        ring = HashRing(("a", "b", "c"))
        members = ring.placement("stream-1", 2)
        assert len(members) == 2
        assert len(set(members)) == 2
        assert all(m in ("a", "b", "c") for m in members)

    def test_placement_is_deterministic(self):
        r1 = HashRing(("a", "b", "c"))
        r2 = HashRing(("a", "b", "c"))
        for key in ("x", "y", "orders", "payments"):
            assert r1.placement(key, 2) == r2.placement(key, 2)

    def test_epoch_bumps_on_membership_change(self):
        ring = HashRing(("a", "b"))
        v0 = ring.version
        ring.add("c")
        assert ring.version == v0 + 1
        ring.remove("a")
        assert ring.version == v0 + 2

    def test_remove_moves_only_the_dead_nodes_streams(self):
        ring = HashRing(("a", "b", "c", "d"))
        keys = [f"stream-{i}" for i in range(500)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("c")
        for k in keys:
            if before[k] != "c":
                assert ring.owner(k) == before[k]

    def test_spread_is_roughly_balanced(self):
        ring = HashRing(("a", "b", "c"))
        counts = ring.spread([f"k{i}" for i in range(3000)])
        assert all(count > 500 for count in counts.values()), counts

    def test_degraded_placement_when_ring_smaller_than_k(self):
        ring = HashRing(("only",))
        assert ring.placement("s", 3) == ("only",)

    def test_errors(self):
        ring = HashRing(("a",))
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            ring.remove("ghost")
        with pytest.raises(ValueError):
            ring.placement("s", 0)
        with pytest.raises(ValueError):
            HashRing(()).placement("s", 1)


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------


class TestWal:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "node.wal")
        a = np.array([1.5, -2.0, 3e300])
        b = np.array([5e-324])
        wal.append(0, "orders", "sum", a)
        wal.append(1, "orders", "sum", b)
        wal.append(codec.WAL_UNSEQUENCED, "scatter", "sum", a)
        records, truncated = wal.replay()
        assert not truncated
        assert [(r.seq, r.stream) for r in records] == [
            (0, "orders"), (1, "orders"), (codec.WAL_UNSEQUENCED, "scatter")
        ]
        assert records[0].values.tobytes() == a.astype("<f8").tobytes()
        assert records[0].sequenced and not records[2].sequenced

    def test_missing_file_is_empty_log(self, tmp_path):
        records, truncated = read_wal(tmp_path / "never-written.wal")
        assert records == [] and truncated is False

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path)
        wal.append(0, "s", "sum", np.array([1.0, 2.0]))
        wal.append(1, "s", "sum", np.array([3.0]))
        blob = path.read_bytes()
        # tear the file at every point inside the *last* record
        first_len = codec.wal_record_size(blob[: codec.WAL_HEADER_SIZE])
        for cut in range(first_len + 1, len(blob)):
            path.write_bytes(blob[:cut])
            records, truncated = read_wal(path)
            assert truncated is True
            assert len(records) == 1 and records[0].seq == 0

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path)
        wal.append(0, "s", "sum", np.array([1.0, 2.0]))
        wal.append(1, "s", "sum", np.array([3.0]))
        blob = bytearray(path.read_bytes())
        blob[codec.WAL_HEADER_SIZE] ^= 0xFF  # body of record 0
        path.write_bytes(bytes(blob))
        with pytest.raises(CodecError):
            read_wal(path)

    def test_wal_writer_group_commit(self, tmp_path):
        async def run():
            writer = WalWriter(tmp_path / "node.wal")
            writer.start()
            await asyncio.gather(
                *(
                    writer.append(
                        codec.encode_wal_record(i, "s", "sum", np.array([float(i)]))
                    )
                    for i in range(32)
                )
            )
            await writer.stop()
            return writer

        writer = asyncio.run(run())
        assert writer.records_written == 32
        # concurrency must have produced at least one multi-record batch
        assert writer.batches_written < 32
        records, truncated = read_wal(tmp_path / "node.wal")
        assert not truncated
        assert sorted(r.seq for r in records) == list(range(32))

    def test_torn_write_poisons_the_writer(self, tmp_path):
        """A write that stops halfway fails its batch and every later
        append: nothing is ever acked behind the torn bytes."""
        path = tmp_path / "node.wal"
        records = [
            codec.encode_wal_record(i, "s", "sum", np.array([float(i), 0.5]))
            for i in range(3)
        ]

        def torn(blob):
            with open(path, "ab") as fh:
                fh.write(blob[: len(blob) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        async def run():
            writer = WalWriter(path)
            writer.start()
            await writer.append(records[0])
            writer.log.append_blob = torn
            with pytest.raises(ServiceError) as first:
                await writer.append(records[1])
            del writer.log.append_blob  # the disk has room again...
            with pytest.raises(ServiceError) as later:
                await writer.append(records[2])  # ...but the log stays failed
            await writer.stop()
            return writer, first.value, later.value

        writer, first, later = asyncio.run(run())
        assert first.code == later.code == "wal-io"
        assert writer.records_written == 1
        replayed, truncated = read_wal(path)
        assert truncated is True
        assert [r.seq for r in replayed] == [0]

    def test_length_past_eof_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "node.wal"
        with WriteAheadLog(path) as wal:
            wal.append(0, "s", "sum", np.array([1.0]))
        bogus = bytearray(codec.encode_wal_record(1, "s", "sum", np.array([2.0])))
        # the header's x count: int64 after magic, seq, CRC, op, name length
        struct.pack_into("<q", bogus, 20, 2**60)
        path.write_bytes(path.read_bytes() + bytes(bogus))
        records, truncated = read_wal(path)
        assert truncated is True
        assert [r.seq for r in records] == [0]

    def test_new_file_fsyncs_its_directory_once(self, tmp_path, monkeypatch):
        real_fsync = os.fsync
        dir_syncs = []

        def counting_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                dir_syncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        record = codec.encode_wal_record(0, "s", "sum", np.array([1.0]))

        async def run(path):
            writer = WalWriter(path)
            writer.start()
            for _ in range(3):
                await writer.append(record)
            await writer.stop()

        asyncio.run(run(tmp_path / "a.wal"))
        assert len(dir_syncs) == 1
        asyncio.run(run(tmp_path / "a.wal"))  # reopen: the entry is durable
        assert len(dir_syncs) == 1
        with WriteAheadLog(tmp_path / "b.wal") as wal:
            wal.append(0, "s", "sum", np.array([1.0]))
            wal.append(1, "s", "sum", np.array([2.0]))
        assert len(dir_syncs) == 2

    def test_append_acks_only_after_fsync(self, tmp_path, monkeypatch):
        release = threading.Event()
        real_fsync = os.fsync

        def gated_fsync(fd):
            release.wait(10)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", gated_fsync)
        record = codec.encode_wal_record(0, "s", "sum", np.array([1.0]))
        path = tmp_path / "node.wal"
        path.touch()  # no directory fsync: only the record's is gated

        async def run():
            writer = WalWriter(path)
            writer.start()
            ack = asyncio.ensure_future(writer.append(record))
            try:
                await asyncio.sleep(0.2)
                acked_early = ack.done()
            finally:
                release.set()
            await ack
            await writer.stop()
            return acked_early, writer.records_written

        acked_early, written = asyncio.run(run())
        assert acked_early is False
        assert written == 1


# ----------------------------------------------------------------------
# WAL-backed node service
# ----------------------------------------------------------------------


class TestWalService:
    def test_sequenced_ingest_is_idempotent(self, tmp_path):
        async def run():
            service = WalService(
                ServeConfig(shards=2), wal_path=tmp_path / "n.wal"
            )
            async with service:
                client = InProcessClient(service)
                r1 = await client.request(
                    "add_array", stream="s", values=[1.0, 2.0], seq=0
                )
                r2 = await client.request(
                    "add_array", stream="s", values=[1.0, 2.0], seq=0
                )
                r3 = await client.request(
                    "add_array", stream="s", values=[4.0], seq=1
                )
                value = await client.request("value", stream="s")
                info = await client.request("cluster_info")
            return r1, r2, r3, value, info

        r1, r2, r3, value, info = asyncio.run(run())
        assert r1["added"] == 2 and "duplicate" not in r1
        assert r2["added"] == 0 and r2["duplicate"] is True
        assert r3["added"] == 1
        assert value["value"] == 7.0 and value["count"] == 3
        assert info["applied"] == {"s": 1}
        assert info["wal"]["records_written"] == 2

    def test_recovery_reconstructs_bit_identical_state(self, tmp_path):
        data = _panel(2000, seed=5)
        ref = exact_sum(data)

        async def ingest():
            node = ClusterNode("n0", wal_path=tmp_path / "n0.wal")
            async with node:
                client = InProcessClient(node.service)
                for i, batch in enumerate(_batches(data)):
                    await client.request(
                        "add_array", stream="s",
                        values=[float(v) for v in batch], seq=i,
                    )
                resp = await client.request("value", stream="s")
            return float(resp["value"])

        async def recover():
            node = ClusterNode("n0", wal_path=tmp_path / "n0.wal")
            async with node:  # start() replays the WAL
                client = InProcessClient(node.service)
                resp = await client.request("value", stream="s")
                info = await client.request("cluster_info")
            return float(resp["value"]), int(resp["count"]), info

        live = asyncio.run(ingest())
        recovered, count, info = asyncio.run(recover())
        assert same_float(live, ref)
        assert same_float(recovered, ref)
        assert count == data.size
        # seq high-water marks survive recovery (dedup stays correct)
        assert info["applied"]["s"] == len(_batches(data)) - 1

    def test_domain_checked_once_per_batch(self, tmp_path, monkeypatch):
        """Serve ingest, node ingest (before the WAL) and WAL replay each
        run the expansion's domain check exactly once per batch."""
        from repro.reduce.ops import DotOp

        calls = []
        check = DotOp.check_domain

        def counting(op, x, y=None):
            calls.append(x.size)
            return check(op, x, y)

        monkeypatch.setattr(DotOp, "check_domain", counting)
        x = np.arange(1.0, 101.0)
        wal = tmp_path / "n0.wal"

        async def pairs(service):
            client = InProcessClient(service, wire="binary")
            for seq in range(3):
                await client.add_pairs("d", x, x, seq=seq)
            return await client.dot("d")

        async def run():
            service = ReproService(ServeConfig(shards=2))
            async with service:
                served = await pairs(service)
            counts = [len(calls)]
            async with ClusterNode("n0", wal_path=wal) as node:
                logged = await pairs(node.service)
            counts.append(len(calls))
            async with ClusterNode("n0", wal_path=wal) as node:  # replay
                replayed = await InProcessClient(node.service).dot("d")
            counts.append(len(calls))
            return served, logged, replayed, counts

        served, logged, replayed, counts = asyncio.run(run())
        assert counts == [3, 6, 9]
        assert calls == [100] * 9
        assert served == logged == replayed == 3 * float(x @ x)

    def test_restore_with_seq_sets_highwater(self, tmp_path):
        async def run():
            donor = WalService(ServeConfig(shards=1))
            target = WalService(ServeConfig(shards=1))
            async with donor, target:
                dc, tc = InProcessClient(donor), InProcessClient(target)
                await dc.request("add_array", stream="s", values=[1.0, 2.0])
                snap = (await dc.request("snapshot", stream="s"))["snapshot"]
                await tc.request("restore", stream="s", snapshot=snap, seq=4)
                dup = await tc.request(
                    "add_array", stream="s", values=[9.0], seq=3
                )
                fresh = await tc.request(
                    "add_array", stream="s", values=[9.0], seq=5
                )
                value = await tc.request("value", stream="s")
            return dup, fresh, value

        dup, fresh, value = asyncio.run(run())
        assert dup["duplicate"] is True
        assert fresh["added"] == 1
        assert value["value"] == 12.0 and value["count"] == 3

    def test_add_block_recovers_after_segment_unlink(self, tmp_path):
        """A WAL node logs an ``add_block``'s values, not its block
        descriptor: a fresh node recovers the stream from the WAL alone
        after the shared-memory segment is gone."""
        from repro.mapreduce.dataplane import ShmDataPlane, detach_all

        data = _panel(3000, seed=29)
        wal = tmp_path / "n.wal"

        async def run():
            with ShmDataPlane() as plane:
                (ref,) = plane.share_blocks([data])
                block = {
                    "kind": ref.kind,
                    "segment": ref.segment,
                    "offset": ref.offset,
                    "length": ref.length,
                }
                async with WalService(ServeConfig(shards=2), wal_path=wal) as node:
                    client = InProcessClient(node)
                    added = await client.add_block("s", block)
                    live = await client.read("s")
            # leaving the plane unlinked the segment
            async with WalService(ServeConfig(shards=2), wal_path=wal) as fresh:
                recovered = await fresh.recover()
                got = await InProcessClient(fresh).read("s")
            return added, live, recovered, got

        try:
            added, live, recovered, got = asyncio.run(run())
        finally:
            detach_all()
        assert added == data.size
        assert recovered["records"] == 1
        assert got["hex"] == live["hex"]
        assert got["count"] == live["count"] == data.size
        assert same_float(live["value"], exact_sum(data))

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejected_sequenced_batch_leaves_no_claim(
        self, tmp_path, monkeypatch, kind
    ):
        """A sequenced batch the WAL cannot log fails without claiming
        its seq: the retry is applied, never acked as a duplicate."""
        x = np.array([1.5, -2.0, 3.25])
        y = np.array([2.0, 0.5, -4.0]) if kind == "pairs" else None
        long_name = "s" * (codec.MAX_WAL_STREAM_NAME + 1)
        encode = codec.encode_wal_record
        calls = []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise CodecError("injected encode failure")
            return encode(*args)

        async def run():
            service = WalService(ServeConfig(shards=2), wal_path=tmp_path / "n.wal")
            async with service:
                client = InProcessClient(service, wire="binary")
                # A name no WAL record can hold is rejected every time.
                for _ in range(2):
                    with pytest.raises(ServiceError, match="exceeds"):
                        await client.request_batch(long_name, x, op=kind, y=y, seq=0)
                monkeypatch.setattr(codec, "encode_wal_record", fails_once)
                with pytest.raises(ServiceError, match="injected"):
                    await client.request_batch("s", x, op=kind, y=y, seq=0)
                retry = await client.request_batch("s", x, op=kind, y=y, seq=0)
                info = await client.request("cluster_info")
            return retry, info

        retry, info = asyncio.run(run())
        assert retry["added"] == x.size and "duplicate" not in retry
        assert info["applied"] == {"s": 0}
        records, _ = read_wal(tmp_path / "n.wal")
        assert [(r.stream, r.op, r.seq) for r in records] == [("s", kind, 0)]

    def test_non_finite_batch_never_reaches_the_wal(self, tmp_path):
        """A non-finite batch is refused before the node logs it, on
        either wire and for every ingest kind; the log holds only the
        good batch, so replay never meets a value it must refuse."""
        good = np.array([1.5, -2.0, 3.25])
        bad = np.array([1.0, np.nan, 2.0])

        async def run():
            path = tmp_path / "n.wal"
            async with WalService(ServeConfig(shards=2), wal_path=path) as service:
                binary = InProcessClient(service, wire="binary")
                for kind in KINDS:
                    pairs = kind == "pairs"
                    with pytest.raises(ServiceError, match="non-finite"):
                        await binary.request_batch(
                            "s", good if pairs else bad, op=kind, y=bad if pairs else None
                        )
                with pytest.raises(ServiceError, match="non-finite"):
                    await InProcessClient(service).request(
                        "add_array", stream="s", values=bad.tolist()
                    )
                await binary.request_batch("s", good, seq=0)
            return read_wal(path)

        records, truncated = asyncio.run(run())
        assert not truncated
        assert [(r.stream, r.op, r.seq) for r in records] == [("s", "sum", 0)]
        assert np.array_equal(records[0].values, good)

    def test_mixed_kind_wal_replays_bit_identically(self, tmp_path):
        """One WAL holding every ingest kind recovers the same bits on a
        fresh node (``recover``) and through a coordinator
        (``replay_wal_onto``)."""
        plan = _kind_plan(_panel(2000, seed=31), _panel(2000, seed=32))
        wal = tmp_path / "mixed.wal"

        async def run():
            async with ClusterNode("src", wal_path=wal) as node:
                client = InProcessClient(node.service, wire="binary")
                for seq, (stream, kind, x, y) in enumerate(plan):
                    await client.request_batch(stream, x, op=kind, y=y, seq=seq)
                live = await _kind_reads(client.request)
            assert {r.op for r in read_wal(wal)[0]} == set(KINDS)
            async with ClusterNode("fresh", wal_path=wal) as fresh:
                recovered = await _kind_reads(InProcessClient(fresh.service).request)
            async with LocalCluster(nodes=3, base_dir=tmp_path / "c") as lc:
                co = lc.coordinator
                report = await co.replay_wal_onto(wal)

                async def request(op, stream, **fields):
                    primary = co._placement(stream).primary
                    return await co._handle(primary).request(op, stream=stream, **fields)

                replayed = await _kind_reads(request)
            return live, recovered, replayed, report

        live, recovered, replayed, report = asyncio.run(run())
        assert recovered == live
        assert replayed == live
        assert report["applied"] == len(plan) and report["duplicates"] == 0
        data = np.concatenate([x for _, kind, x, _ in plan if kind == "sum"])
        assert live["sum"] == (exact_sum(data).hex(), data.size)

    def test_bad_seq_rejected(self):
        async def run():
            service = WalService(ServeConfig(shards=1))
            async with service:
                return await service.handle(
                    {"op": "add_array", "stream": "s", "values": [1.0], "seq": -1}
                )

        resp = asyncio.run(run())
        assert resp["ok"] is False and "seq" in resp["error"]


# ----------------------------------------------------------------------
# coordinator: replication, scatter/gather, failover
# ----------------------------------------------------------------------


class TestCoordinator:
    def test_placed_ingest_matches_single_node_serve(self):
        data = _panel()
        batches = _batches(data)

        async def run():
            ref_value, ref_count = await _serve_reference(batches)
            async with LocalCluster(nodes=3, replication=2) as lc:
                for batch in batches:
                    await lc.coordinator.append("orders", batch)
                got = await lc.coordinator.value("orders")
            return ref_value, ref_count, got

        ref_value, ref_count, got = asyncio.run(run())
        assert same_float(got["value"], ref_value)
        assert got["count"] == ref_count == data.size

    def test_scatter_gather_matches_single_node_serve(self):
        data = _panel(seed=23)

        async def run():
            ref_value, ref_count = await _serve_reference(_batches(data))
            async with LocalCluster(nodes=3) as lc:
                await lc.coordinator.scatter("stripe", data, chunk=333)
                got = await lc.coordinator.gather("stripe")
            return ref_value, ref_count, got

        ref_value, ref_count, got = asyncio.run(run())
        assert same_float(got["value"], ref_value)
        assert got["count"] == ref_count
        assert got["nodes"] == 3

    @pytest.mark.parametrize("victim_index", [0, 1])
    def test_kill_mid_ingest_and_wal_replay_bit_identical(
        self, victim_index, tmp_path
    ):
        """THE acceptance case: kill a placement member mid-ingest,
        fail over, replay its WAL on the survivors — the final rounded
        sum is bit-identical to the uninterrupted single-node path."""
        data = _panel()
        batches = _batches(data)
        half = len(batches) // 2

        async def run():
            ref_value, ref_count = await _serve_reference(batches)
            async with LocalCluster(
                nodes=3, replication=2, base_dir=tmp_path
            ) as lc:
                co = lc.coordinator
                for batch in batches[:half]:
                    await co.append("orders", batch)
                # kill one member of the stream's placement group
                victim = co._placement("orders").members[victim_index]
                lc.kill(victim)
                # ingest continues through failover + retry
                for batch in batches[half:]:
                    await co.append("orders", batch)
                # replay the dead node's WAL on the surviving placement
                replay = await co.replay_wal_onto(lc.wal_path(victim))
                got = await co.value("orders")
                return ref_value, ref_count, got, replay, co.failovers

        ref_value, ref_count, got, replay, failovers = asyncio.run(run())
        assert failovers == 1
        assert got["count"] == ref_count == data.size
        assert same_float(got["value"], ref_value)
        # replay never double-applies: every record either deduped
        # against a survivor or healed a gap
        assert replay["records"] == replay["applied"] + replay["duplicates"]

    def test_whole_group_loss_recovered_from_wal_alone(self, tmp_path):
        """replication=1: the dead node was the only holder. The WAL
        file is then the *only* copy — replay must fully rebuild."""
        data = _panel(1500, seed=3)
        batches = _batches(data)

        async def run():
            ref_value, ref_count = await _serve_reference(batches)
            async with LocalCluster(
                nodes=3, replication=1, base_dir=tmp_path
            ) as lc:
                co = lc.coordinator
                for batch in batches:
                    await co.append("orders", batch)
                victim = co._placement("orders").primary
                lc.kill(victim)
                await co.failover(victim)
                replay = await co.replay_wal_onto(lc.wal_path(victim))
                got = await co.value("orders")
                return ref_value, ref_count, got, replay

        ref_value, ref_count, got, replay = asyncio.run(run())
        assert replay["applied"] == replay["records"] == len(batches)
        assert got["count"] == ref_count
        assert same_float(got["value"], ref_value)

    def test_binary_wal_passthrough_byte_equality(self, tmp_path):
        """WAL record bytes ARE the wire bytes: every logged payload is
        byte-identical to a contiguous slice of the ingested array."""
        data = _panel(3000, seed=21)
        batches = _batches(data, size=500)

        async def run():
            async with LocalCluster(
                nodes=3, replication=2, base_dir=tmp_path
            ) as lc:
                co = lc.coordinator
                # every in-process handle negotiated the binary wire
                for handle in co._handles.values():
                    assert handle._client.wire == "binary"
                for batch in batches:
                    await co.append("orders", batch)
                wals = {
                    n: read_wal(lc.wal_path(n))[0]
                    for n in lc.nodes
                    if lc.wal_path(n).exists()
                }
                return wals

        wals = asyncio.run(run())
        source = data.tobytes()
        logged = 0
        for records in wals.values():
            for rec in records:
                assert rec.values.tobytes() in source
                logged += 1
        assert logged > 0

    def test_json_and_binary_ingest_write_identical_wal(self, tmp_path):
        """The durability contract behind 'bit-identity is provable':
        the same batches of every ingest kind produce byte-identical WAL
        files whether they arrived boxed in JSON text or as raw RBAT
        frame bodies."""
        plan = _kind_plan(_panel(2000, seed=5), _panel(2000, seed=6))

        async def run():
            for wire, path in (("json", tmp_path / "j.wal"), ("binary", tmp_path / "b.wal")):
                service = WalService(ServeConfig(shards=2), wal_path=path)
                await service.start()
                client = InProcessClient(service, wire=wire)
                for seq, (stream, kind, x, y) in enumerate(plan):
                    await client.request_batch(stream, x, op=kind, y=y, seq=seq)
                await service.close()

        asyncio.run(run())
        assert (tmp_path / "j.wal").read_bytes() == (tmp_path / "b.wal").read_bytes()
        records, truncated = read_wal(tmp_path / "b.wal")
        assert not truncated and len(records) == len(plan)
        assert [r.op for r in records] == [kind for _, kind, _, _ in plan]

    def test_read_fails_over_to_replica(self):
        data = _panel(1000, seed=9)

        async def run():
            async with LocalCluster(nodes=3, replication=2) as lc:
                co = lc.coordinator
                await co.append("orders", data)
                primary = co._placement("orders").primary
                lc.kill(primary)
                got = await co.value("orders")
                return got, primary

        got, primary = asyncio.run(run())
        assert got["node"] != primary
        assert got["count"] == data.size
        assert same_float(got["value"], exact_sum(data))

    def test_health_check_fails_over_dead_nodes(self):
        async def run():
            async with LocalCluster(nodes=3, replication=2) as lc:
                co = lc.coordinator
                await co.append("orders", [1.0, 2.0])
                lc.kill("node-1")
                health = await co.check_health()
                status = await co.status()
                return health, status

        health, status = asyncio.run(run())
        assert health["node-1"] is False
        assert status["nodes"]["node-1"]["on_ring"] is False
        assert status["failovers"] == 1

    def test_all_nodes_down_raises_node_down(self):
        async def run():
            async with LocalCluster(nodes=2, replication=2) as lc:
                co = lc.coordinator
                await co.append("orders", [1.0])
                lc.kill("node-0")
                lc.kill("node-1")
                with pytest.raises(NodeDownError):
                    await co.value("orders")
                with pytest.raises(NodeDownError):
                    await co.scatter("s", [1.0])

        asyncio.run(run())

    def test_duplicate_node_ids_rejected(self):
        service = WalService(ServeConfig(shards=1))
        handles = [
            LocalNodeHandle("same", service),
            LocalNodeHandle("same", service),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            ClusterCoordinator(handles)

    def test_epoch_reported_and_bumped_by_failover(self):
        async def run():
            async with LocalCluster(nodes=3, replication=2) as lc:
                co = lc.coordinator
                r1 = await co.append("orders", [1.0])
                epoch0 = r1["epoch"]
                lc.kill(co._placement("orders").primary)
                r2 = await co.append("orders", [2.0])
                return epoch0, r2["epoch"]

        epoch0, epoch1 = asyncio.run(run())
        assert epoch1 > epoch0

    def test_wal_io_failure_fails_the_node_over(self, tmp_path):
        """A member whose WAL write fails leaves the group: the append
        is retried under the same seq and every live member agrees."""
        batches = _batches(_panel(1000, seed=29))

        def eio(blob):
            raise OSError(errno.EIO, "Input/output error")

        async def run():
            async with LocalCluster(
                nodes=3, replication=2, base_dir=tmp_path
            ) as lc:
                co = lc.coordinator
                await co.append("orders", batches[0])
                victim = co._placement("orders").members[1]
                lc.nodes[victim].service._wal.log.append_blob = eio
                for batch in batches[1:]:
                    await co.append("orders", batch)
                members = co._placement("orders").members
                reads = [
                    await co._handle(m).request("value", stream="orders")
                    for m in members
                ]
                return victim, members, reads, co.failovers

        victim, members, reads, failovers = asyncio.run(run())
        assert failovers == 1
        assert victim not in members and len(members) == 2
        want = exact_sum(np.concatenate(batches))
        for read in reads:
            assert same_float(read["value"], want)
            assert read["count"] == sum(b.size for b in batches)

    def test_remote_handle_reads_wal_io_as_node_down(self):
        class StubClient:
            def __init__(self, code):
                self.code = code

            async def request(self, op, **fields):
                err = ServiceError("node said no")
                err.code = self.code
                raise err

            async def close(self):
                pass

        async def run():
            failed = RemoteNodeHandle("failed", "127.0.0.1", 1)
            failed._client = StubClient("wal-io")
            with pytest.raises(NodeDownError):
                await failed.request("value", stream="s")
            refused = RemoteNodeHandle("refused", "127.0.0.1", 1)
            refused._client = StubClient("unknown-op")
            with pytest.raises(ServiceError) as other:
                await refused.request("value", stream="s")
            return failed, refused, other.value

        failed, refused, other = asyncio.run(run())
        assert failed.alive is False and failed._client is None
        assert refused.alive is True and not isinstance(other, NodeDownError)

    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd"
    )
    def test_close_leaves_no_writer_thread_or_open_wal(self, tmp_path):
        before = set(threading.enumerate())

        def writers():
            return [
                t for t in threading.enumerate()
                if t not in before and t.name.startswith("wal-writer")
            ]

        def open_wals():
            targets = []
            for entry in Path("/proc/self/fd").iterdir():
                try:
                    targets.append(os.readlink(entry))
                except OSError:
                    continue
            return [t for t in targets if t.startswith(str(tmp_path))]

        async def run():
            async with LocalCluster(
                nodes=3, replication=2, base_dir=tmp_path
            ) as lc:
                idle = len(writers())  # threads start on the first append
                for i in range(6):
                    await lc.coordinator.append(f"s{i}", [1.0, 2.0])
                busy = len(writers()), len(open_wals())
            cold = ClusterNode("node-0", wal_path=lc.wal_path("node-0"))
            replay = await cold.start(recover=True)
            recovering = len(writers())
            await cold.close()
            return idle, busy, replay, recovering

        idle, (threads, fds), replay, recovering = asyncio.run(run())
        assert idle == 0
        assert threads == fds >= 2
        assert replay["records"] > 0 and recovering == 0
        assert writers() == [] and open_wals() == []


# ----------------------------------------------------------------------
# plane + planner integration
# ----------------------------------------------------------------------


class _IngestBeforeLaterSnapshots(LocalNodeHandle):
    """Runs an ``observations`` batch on its node before every
    ``snapshot`` it serves after the first."""

    def __init__(self, node_id, service, batch):
        super().__init__(node_id, service)
        self.batch = batch
        self.snapshots = 0

    async def request(self, op, **fields):
        if op == "snapshot":
            self.snapshots += 1
            if self.snapshots > 1:
                await self.add_batch("live", self.batch, op="observations")
        return await super().request(op, **fields)


class TestGatherConsistency:
    def test_moments_gather_never_splits_an_observations_batch(self, tmp_path):
        """A node reads a stream and its square shadow in one snapshot
        request, so ingest between a node's requests cannot make the
        shadow disagree with the stream."""
        x = _panel(600, seed=5)
        extra = x[:100]

        async def run():
            nodes = [
                ClusterNode(
                    f"node-{i}",
                    config=ServeConfig(shards=2),
                    wal_path=tmp_path / f"node-{i}.wal",
                )
                for i in range(2)
            ]
            for node in nodes:
                await node.start()
            handles = [
                _IngestBeforeLaterSnapshots(n.node_id, n.service, extra)
                for n in nodes
            ]
            co = ClusterCoordinator(handles, replication=2)
            await co.scatter("live", x, op="observations", chunk=150)
            reads = [await co.gather("live", "moments") for _ in range(3)]
            for node in nodes:
                await node.close()
            return reads

        reads = asyncio.run(run())
        # every gather after the first saw one more batch per node
        assert [r["count"] for r in reads] == [600, 800, 1000]
        total = np.concatenate([x] + [extra] * 4)
        assert same_float(reads[-1]["variance"], ref_var(total))


class TestClusterPlane:
    def test_run_plane_cluster_bit_identical_to_serial(self):
        data = _panel(3000, seed=17)
        serial = run_reduction("serial", "sparse", "sum", data)
        clustered = run_reduction(
            "cluster", "sparse", "sum", data, workers=3, block_items=512
        )
        assert same_float(clustered, serial)

    def test_cluster_plane_registered(self):
        from repro.plan import PLANES

        assert "cluster" in PLANES


# ----------------------------------------------------------------------
# CLI (in-process parser wiring; process spawning is covered by the
# benchmark and the CI smoke job)
# ----------------------------------------------------------------------


class TestClusterCli:
    def test_cluster_subcommands_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["cluster", "node", "--id", "n0", "--wal", "/tmp/x.wal"]
        )
        assert args.cluster_command == "node" and args.id == "n0"
        args = parser.parse_args(["cluster", "spawn", "--dir", "d", "-n", "5"])
        assert args.nodes == 5
        args = parser.parse_args(["cluster", "status", "--dir", "d"])
        assert args.cluster_command == "status"
        args = parser.parse_args(["cluster", "kill-node", "--dir", "d", "--id", "n1"])
        assert args.id == "n1"

    def test_kill_node_unknown_id_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        from repro.cluster import NodeSpec, save_spec

        save_spec(tmp_path, [NodeSpec("n0", "127.0.0.1", 1, "w", pid=None)])
        rc = main(["cluster", "kill-node", "--dir", str(tmp_path), "--id", "nx"])
        assert rc == 2

    def test_spec_roundtrip(self, tmp_path):
        from repro.cluster import NodeSpec, load_spec, save_spec

        specs = [
            NodeSpec("n0", "127.0.0.1", 1234, "a.wal", pid=42),
            NodeSpec("n1", "127.0.0.1", 1235, "b.wal", pid=None),
        ]
        save_spec(tmp_path, specs, kernel="running")
        assert load_spec(tmp_path) == specs
        doc = json.loads((tmp_path / "cluster.json").read_text())
        assert doc["format"] == "repro-cluster-spec-v1"

    def test_load_spec_rejects_unknown_format(self, tmp_path):
        (tmp_path / "cluster.json").write_text(json.dumps({"format": "nope"}))
        from repro.cluster import load_spec

        with pytest.raises(ValueError, match="unrecognized"):
            load_spec(tmp_path)


# ----------------------------------------------------------------------
# atomic snapshots (PR 7 satellite: serve save_state hardening)
# ----------------------------------------------------------------------


class TestAtomicSnapshot:
    def test_save_state_leaves_no_tmp_file(self, tmp_path):
        target = tmp_path / "state.json"

        async def run():
            async with ReproService(ServeConfig(shards=2)) as service:
                client = InProcessClient(service)
                await client.add_array("s", [1.0, 2.5])
                return await service.save_state(target)

        assert asyncio.run(run()) == 1
        assert target.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_truncated_snapshot_detected_not_silently_loaded(self, tmp_path):
        """A torn snapshot body must fail through the codec's typed
        truncation errors, not restore a wrong (partial) state."""
        target = tmp_path / "state.json"

        async def save():
            async with ReproService(ServeConfig(shards=2)) as service:
                client = InProcessClient(service)
                await client.add_array("s", [1.0, 2.5, -7e300])
                await service.save_state(target)

        asyncio.run(save())
        doc = json.loads(target.read_text())
        # simulate the crash torn-write this satellite forbids: chop the
        # snapshot frame mid-body (valid base64, truncated codec frame)
        import base64

        raw = base64.b64decode(doc["streams"]["s"])
        doc["streams"]["s"] = base64.b64encode(raw[: len(raw) // 2]).decode()
        torn = tmp_path / "torn.json"
        torn.write_text(json.dumps(doc))

        async def load():
            async with ReproService(ServeConfig(shards=2)) as service:
                with pytest.raises(ServiceError, match="corrupt snapshot"):
                    await service.load_state(torn)
                # and nothing was partially restored
                resp = await service.handle({"op": "value", "stream": "s"})
                return resp

        resp = asyncio.run(load())
        assert resp["ok"] is True and resp["count"] == 0
