"""Wire-plane tests for the reduction layer (PR 9).

Covers the op-tagged frames end to end: ``RBAT`` / ``WALO`` codec
round-trips and corruption behaviour, the serve plane's six reduction
endpoints over both JSON and binary wires, shadow-stream moments, and
the cluster plane's scatter/gather plus WAL replay — including crash
recovery on a *fresh* node instance reading the dead node's log —
and the one read path's rounding modes on every plane.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import codec
from repro.errors import CodecError, EmptyStreamError, ReductionRangeError, ServiceError
from repro.plan import PLANES
from repro.reduce import run_reduction
from repro.util.bits import same_float
from tests.conftest import exact_products, is_rounded_sqrt, ref_dot, ref_mean, ref_var


def _panel(n=600, seed=21, spread=40):
    rng = np.random.default_rng(seed)
    return np.ldexp(rng.standard_normal(n), rng.integers(-spread, spread, n))


# ---------------------------------------------------------------------------
# codec: RBAT / WALO


class TestReduceBatchFrame:
    def test_round_trip_pairs(self):
        x, y = _panel(50, seed=1), _panel(50, seed=2)
        frame = codec.encode_reduce_batch(7, 3, "s", "pairs", x, y)
        rid, seq, stream, op, gx, gy = codec.decode_reduce_batch(frame)
        assert (rid, seq, stream, op) == (7, 3, "s", "pairs")
        assert np.array_equal(gx, x) and np.array_equal(gy, y)

    @pytest.mark.parametrize("op", ["squares", "observations"])
    def test_round_trip_single_input(self, op):
        x = _panel(33, seed=3)
        frame = codec.encode_reduce_batch(1, codec.WAL_UNSEQUENCED, "t", op, x)
        rid, seq, stream, got_op, gx, gy = codec.decode_reduce_batch(frame)
        assert (rid, seq, got_op, gy) == (1, codec.WAL_UNSEQUENCED, op, None)
        assert np.array_equal(gx, x)

    def test_wire_bodies_are_input_bytes(self):
        x, y = _panel(20, seed=4), _panel(20, seed=5)
        frame = codec.encode_reduce_batch(2, -1, "s", "pairs", x, y)
        *_, gx, gy = codec.decode_reduce_batch(frame)
        assert gx.tobytes() == x.tobytes() and gy.tobytes() == y.tobytes()

    def test_unknown_op_and_pair_rules(self):
        x = _panel(4, seed=6)
        with pytest.raises(CodecError):
            codec.encode_reduce_batch(0, -1, "s", "cumsum", x)
        with pytest.raises(CodecError):
            codec.encode_reduce_batch(0, -1, "s", "pairs", x)  # missing y
        with pytest.raises(CodecError):
            codec.encode_reduce_batch(0, -1, "s", "squares", x, x)  # extra y

    def test_corruption_raises(self):
        x = _panel(8, seed=7)
        frame = bytearray(codec.encode_reduce_batch(5, -1, "s", "squares", x))
        with pytest.raises(CodecError):
            codec.decode_reduce_batch(bytes(frame[:-3]))  # truncated
        frame[0] = ord(b"X")
        with pytest.raises(CodecError):
            codec.decode_reduce_batch(bytes(frame))  # bad magic


class TestWalReduceFrame:
    def test_header_size_matches_wal_contract(self):
        # WALO headers are exactly WAL_HEADER_SIZE bytes: the WAL
        # reader's fixed prefix read sizes every record.
        x = _panel(5, seed=8)
        blob = codec.encode_wal_record(4, "s", "squares", x)
        assert codec.peek_magic(blob[: codec.WAL_HEADER_SIZE]) == b"WALO"
        assert codec.wal_record_size(blob[: codec.WAL_HEADER_SIZE]) == len(blob)

    def test_round_trip_and_raw_bytes_input(self):
        x, y = _panel(12, seed=9), _panel(12, seed=10)
        blob = codec.encode_wal_record(9, "s", "pairs", x.tobytes(), y.tobytes())
        seq, stream, op, gx, gy = codec.decode_wal_record(blob)
        assert (seq, stream, op) == (9, "s", "pairs")
        assert np.array_equal(gx, x) and np.array_equal(gy, y)

    def test_sum_records_share_the_op_tagged_layout(self):
        x = _panel(6, seed=11)
        blob = codec.encode_wal_record(2, "s", "sum", x)
        assert codec.peek_magic(blob) == b"WALO"
        seq, stream, op, gx, gy = codec.decode(blob)
        assert (seq, stream, op, gy) == (2, "s", "sum", None)
        assert np.array_equal(gx, x)

    def test_crc_corruption_raises(self):
        x = _panel(10, seed=12)
        blob = bytearray(codec.encode_wal_record(1, "s", "observations", x))
        blob[-2] ^= 0xFF
        with pytest.raises(CodecError):
            codec.decode_wal_record(bytes(blob))


# ---------------------------------------------------------------------------
# serve plane: endpoints over both wires


def _serve(coro_fn, *, wire="json", **config_kw):
    from repro.serve import InProcessClient, ReproService, ServeConfig

    async def run():
        async with ReproService(ServeConfig(shards=2, **config_kw)) as service:
            client = InProcessClient(service, wire=wire)
            return await coro_fn(client)

    return asyncio.run(run())


@pytest.mark.parametrize("wire", ["json", "binary"])
class TestServeReductionEndpoints:
    def test_dot_round_trip(self, wire):
        x, y = _panel(seed=13), _panel(seed=14)

        async def go(client):
            added = await client.add_pairs("d", x[:300], y[:300])
            added += await client.add_pairs("d", x[300:], y[300:])
            return added, await client.dot("d")

        added, got = _serve(go, wire=wire)
        assert added == x.size
        assert same_float(got, ref_dot(x, y))

    def test_norm2_round_trip(self, wire):
        x = _panel(seed=15)

        async def go(client):
            await client.add_squares("n", x)
            return await client.norm2("n")

        assert is_rounded_sqrt(_serve(go, wire=wire), exact_products(x))

    def test_moments_round_trip(self, wire):
        x = _panel(seed=16)

        async def go(client):
            await client.add_observations("m", x[:100])
            await client.add_observations("m", x[100:])
            return await client.moments("m", ddof=1)

        stats = _serve(go, wire=wire)
        assert stats["count"] == x.size
        assert same_float(stats["mean"], ref_mean(x))
        assert same_float(stats["variance"], ref_var(x, ddof=1))

    def test_reduction_range_error_code(self, wire):
        async def go(client):
            await client.add_squares("bad", np.array([1e300]))

        with pytest.raises(ReductionRangeError):
            _serve(go, wire=wire)

    def test_empty_moments_raise(self, wire):
        async def go(client):
            await client.add_observations("e", np.array([]))
            return await client.moments("e")

        with pytest.raises(EmptyStreamError):
            _serve(go, wire=wire)


class TestServeReductionValidation:
    def test_add_pairs_shape_mismatch(self):
        async def go(client):
            await client.add_pairs("d", [1.0, 2.0], [3.0])

        with pytest.raises(ServiceError):
            _serve(go)

    def test_moments_bad_ddof_keeps_the_service_error_reply(self):
        async def go(client):
            await client.add_observations("m", [1.0, 2.0, 4.0])
            for ddof in (-1, 1.7, True):
                with pytest.raises(ServiceError) as err:
                    await client.moments("m", ddof=ddof)
                assert err.value.code == "service"
                assert "'ddof' must be a non-negative integer" in str(err.value)
            return await client.moments("m", ddof=1)

        assert same_float(_serve(go)["variance"], ref_var([1.0, 2.0, 4.0], ddof=1))

    def test_empty_norm2_is_zero(self):
        async def go(client):
            return await client.norm2("missing")

        assert _serve(go) == 0.0

    def test_observation_streams_serve_all_reads(self):
        # One observations ingest answers sum, mean, and moments —
        # the shadow stream carries the squares alongside.
        x = _panel(200, seed=17)

        async def go(client):
            await client.add_observations("obs", x)
            return (
                await client.value("obs"),
                await client.mean("obs"),
                await client.moments("obs", ddof=0),
            )

        value, mean, stats = _serve(go)
        assert same_float(mean, ref_mean(x))
        assert same_float(stats["variance"], ref_var(x))

    def test_moments_reads_never_split_an_observations_batch(self):
        # Reads interleaved with observations ingest: each read must see
        # a batch's values and its square-shadow terms together.
        x = _panel(20000, seed=19)
        batches = [x[i : i + 100] for i in range(0, x.size, 100)]

        async def go(client):
            await client.add_observations("live", batches[0])
            writes = [client.add_observations("live", b) for b in batches[1:]]
            reads = [client.moments("live") for _ in range(400)]
            ops = []
            for i, read in enumerate(reads):
                ops.append(read)
                if i % 2 == 0 and i // 2 < len(writes):
                    ops.append(writes[i // 2])
            done = await asyncio.gather(*ops, return_exceptions=True)
            failures = [r for r in done if isinstance(r, BaseException)]
            return failures, await client.moments("live")

        failures, final = _serve(go)
        assert failures == []
        assert final["count"] == x.size
        assert same_float(final["variance"], ref_var(x))

    def test_binary_wire_records_reduce_traffic(self):
        from repro.serve import InProcessClient, ReproService, ServeConfig

        async def go():
            async with ReproService(ServeConfig(shards=1)) as service:
                client = InProcessClient(service, wire="binary")
                x, y = _panel(100, seed=18), _panel(100, seed=19)
                await client.add_pairs("w", x, y)
                await client.add_squares("w2", x)
                return (
                    service.metrics.wire_frames["binary"],
                    service.metrics.wire_values["binary"],
                )

        frames, values = asyncio.run(go())
        assert frames == 2
        assert values == 300  # 100 pairs (x+y) + 100 squares


# ---------------------------------------------------------------------------
# cluster plane: scatter/gather, WAL replay, fresh-node recovery


class TestClusterReduction:
    def test_scatter_gather_matches_references(self):
        from repro.cluster import LocalCluster

        x, y = _panel(seed=20), _panel(seed=22)

        async def run():
            async with LocalCluster(nodes=3, kernel="running") as lc:
                co = lc.coordinator
                await co.scatter("d", x, op="pairs", y=y, chunk=97)
                await co.scatter("n", x, op="squares", chunk=101)
                await co.scatter("m", x, op="observations", chunk=103)
                return (
                    (await co.gather("d", "dot"))["value"],
                    (await co.gather("n", "norm2"))["value"],
                    await co.gather("m", "moments", ddof=1),
                )

        dot, norm, moments = asyncio.run(run())
        assert same_float(dot, ref_dot(x, y))
        assert is_rounded_sqrt(norm, exact_products(x))
        assert same_float(moments["mean"], ref_mean(x))
        assert same_float(moments["variance"], ref_var(x, ddof=1))

    def test_domain_rejection_never_poisons_the_wal(self, tmp_path):
        """A ReductionRangeError batch must not enter the WAL: replay
        on a fresh node after the rejection must succeed."""
        from repro.cluster.node import ClusterNode
        from repro.serve.service import ServeConfig

        x = _panel(100, seed=23)
        wal = tmp_path / "n.wal"

        async def run():
            async with ClusterNode("n", wal_path=wal) as node:
                from repro.serve import InProcessClient

                client = InProcessClient(node.service)
                await client.add_squares("s", x)
                with pytest.raises(ReductionRangeError):
                    await client.add_squares("s", np.array([1e300]))
                await client.add_squares("s", x)
                live = await client.norm2("s")
            # crash-recover on a FRESH node over the same WAL
            async with ClusterNode("n2", wal_path=wal) as fresh:
                client = InProcessClient(fresh.service)
                return live, await client.norm2("s")

        live, recovered = asyncio.run(run())
        both = np.concatenate([x, x])
        assert is_rounded_sqrt(live, exact_products(both))
        assert same_float(recovered, live)

    def test_fresh_node_recovery_replays_all_ops(self, tmp_path):
        from repro.cluster.node import ClusterNode
        from repro.serve import InProcessClient

        x, y = _panel(150, seed=24), _panel(150, seed=25)
        wal = tmp_path / "ops.wal"

        async def run():
            async with ClusterNode("a", wal_path=wal) as node:
                client = InProcessClient(node.service)
                await client.add_pairs("d", x, y)
                await client.add_observations("m", x)
                live_dot = await client.dot("d")
                live_var = (await client.moments("m", ddof=1))["variance"]
            async with ClusterNode("b", wal_path=wal) as fresh:
                client = InProcessClient(fresh.service)
                return (
                    live_dot,
                    live_var,
                    await client.dot("d"),
                    (await client.moments("m", ddof=1))["variance"],
                )

        live_dot, live_var, rec_dot, rec_var = asyncio.run(run())
        assert same_float(rec_dot, live_dot)
        assert same_float(rec_var, live_var)
        assert same_float(live_dot, ref_dot(x, y))
        assert same_float(live_var, ref_var(x, ddof=1))

    def test_failover_replay_restores_reduction_reads(self, tmp_path):
        from repro.cluster import LocalCluster

        x = _panel(400, seed=26)

        async def run():
            async with LocalCluster(
                nodes=3, kernel="sparse", base_dir=tmp_path
            ) as lc:
                co = lc.coordinator
                await co.scatter("n", x, op="squares", chunk=57)
                await co.scatter("m", x, op="observations", chunk=61)
                before_norm = (await co.gather("n", "norm2"))["value"]
                before = await co.gather("m", "moments", ddof=1)
                lc.kill("node-1")
                await co.failover("node-1")
                await co.replay_wal_onto(
                    lc.wal_path("node-1"), include_unsequenced=True
                )
                after_norm = (await co.gather("n", "norm2"))["value"]
                after = await co.gather("m", "moments", ddof=1)
                return before_norm, before, after_norm, after

        before_norm, before, after_norm, after = asyncio.run(run())
        assert is_rounded_sqrt(before_norm, exact_products(x))
        assert same_float(after_norm, before_norm)
        assert after["count"] == before["count"] == x.size
        assert same_float(after["variance"], before["variance"])
        assert same_float(after["mean"], ref_mean(x))

    def test_sequenced_reduce_dedup(self):
        """The same seq-stamped reduce batch applied twice folds once."""
        from repro.cluster.node import ClusterNode
        from repro.serve import InProcessClient

        x = _panel(50, seed=27)

        async def run():
            async with ClusterNode("d") as node:
                client = InProcessClient(node.service)
                first = await client.add_squares("s", x, seq=7)
                second = await client.add_squares("s", x, seq=7)
                return first, second, await client.norm2("s")

        first, second, norm = asyncio.run(run())
        assert first == x.size
        assert second == 0  # duplicate acked without re-folding
        assert is_rounded_sqrt(norm, exact_products(x))

    def test_scatter_reduce_validation(self):
        from repro.cluster import LocalCluster

        async def run():
            async with LocalCluster(nodes=2) as lc:
                co = lc.coordinator
                with pytest.raises(ValueError):
                    await co.scatter("s", [1.0], op="squares", y=[2.0])
                with pytest.raises(ValueError):
                    await co.scatter("s", [1.0, 2.0], op="pairs", y=[3.0])
                with pytest.raises(ValueError):
                    await co.scatter("s", [1.0], op="pairs")
                with pytest.raises(ValueError):
                    await co.scatter("s", [1.0], op="cumsum")
                assert await co.scatter("s", [], op="squares") == 0

        asyncio.run(run())


# ---------------------------------------------------------------------------
# read modes: every read rounds in the mode it is asked for, on every plane


READ_X = [1.0, 1.0, 2.0]  # mean 4/3: every directed mode rounds differently

#: The JSON read ops, and the reduce op each one finishes.
READ_OPS = ("value", "dot", "mean", "norm2", "moments")
REDUCE_OPS_OF_READS = ("sum", "dot", "mean", "norm2", "var")


def _reduce_args(op):
    return (READ_X, READ_X) if op == "dot" else (READ_X,)


class TestReadModes:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_norm2_refuses_directed_modes(self, plane):
        with pytest.raises(ValueError):
            run_reduction(plane, "sparse", "norm2", [3.0, 4.0], mode="up")

    @pytest.mark.parametrize("mode", ["down", "up", "zero"])
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_mean_rounds_in_the_requested_mode(self, plane, mode):
        want = run_reduction("serial", "sparse", "mean", READ_X, mode=mode)
        got = run_reduction(plane, "sparse", "mean", READ_X, mode=mode)
        assert same_float(got, want)

    @pytest.mark.parametrize("op", REDUCE_OPS_OF_READS)
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_unknown_mode_rejected_on_every_plane(self, plane, op):
        with pytest.raises(ValueError, match="rounding mode"):
            run_reduction(plane, "sparse", op, *_reduce_args(op), mode="sideways")

    @pytest.mark.parametrize("mode", ["down", "up", "zero"])
    def test_serve_and_cluster_mean_reads_take_the_mode(self, mode):
        from repro.cluster import LocalCluster
        from repro.serve import ReproService, ServeConfig

        async def run():
            async with ReproService(ServeConfig(shards=2)) as service:
                await service.handle(
                    {"op": "add_array", "stream": "s", "values": READ_X}
                )
                served = await service.handle(
                    {"op": "mean", "stream": "s", "mode": mode}
                )
            async with LocalCluster(nodes=2) as lc:
                await lc.coordinator.scatter("s", READ_X, chunk=1)
                gathered = await lc.coordinator.gather("s", "mean", mode=mode)
            return served["mean"], gathered["mean"]

        want = run_reduction("serial", "sparse", "mean", READ_X, mode=mode)
        served, gathered = asyncio.run(run())
        assert same_float(served, want)
        assert same_float(gathered, want)

    @pytest.mark.parametrize("op", READ_OPS)
    def test_unknown_mode_on_every_read_op_is_bad_request(self, op):
        from repro.serve import ReproService, ServeConfig

        async def run():
            async with ReproService(ServeConfig(shards=2)) as service:
                await service.handle(
                    {"op": "add_observations", "stream": "s", "values": READ_X}
                )
                return await service.handle(
                    {"op": op, "stream": "s", "mode": "sideways"}
                )

        response = asyncio.run(run())
        assert response["ok"] is False
        assert response["code"] == "bad-request"
