"""Tests of the benchmark suite itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``. The
workload tests run each workload at ``--quick`` size (small inputs, one
set-up, a 0.5 s window) in a fresh interpreter, as the suite does.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from benchmarks.suite import cli, common
from benchmarks.suite.compare import claim_met, compare_metric, quartiles
from benchmarks.suite.trace import Spans, Target, Tracer, union_length

SPEC = cli.load_spec()
BENCH = Path(cli.__file__).resolve().parent / "bench.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Per-layer metrics each workload must measure (non-zero) at quick size.
ON_PATH = {
    "mapreduce_sum": {
        "mapreduce.combine_ms", "mapreduce.outside_phases_ms",
        "mapreduce.dispatch_bytes", "mapreduce.shuffle_bytes",
        "kernels.serial_fold_melem_s", "mapreduce.parallel_efficiency",
        "trace.coverage",
    },
    "serve_small": {
        "op_p99_ms", "protocol.encode_us", "protocol.parse_us",
        "service.handle_us", "service.handle_self_us", "shards.fold_wait_us",
        "shards.coalesced_ops", "shards.queue_depth_peak",
        "kernels.fold_into_us", "trace.coverage",
    },
    "serve_bulk_rw": {
        "read_p50_ms", "protocol.encode_us", "service.handle_us",
        "service.handle_read_us", "shards.fold_wait_us", "shards.read_wait_us",
        "kernels.fold_into_us", "kernels.deposit_ns_per_value",
        "kernels.to_sparse_us", "reduce.expand_us", "reduce.check_domain_us",
        "core.absorb_us", "core.round_us", "core.merge_us", "trace.coverage",
    },
    "cluster_wal": {
        "read_p50_ms", "recover_values_per_s", "coordinator.append_self_us",
        "coordinator.slowest_replica_us", "node.handle_us", "codec.wal_encode_us",
        "wal.durable_wait_us", "wal.fsync_us", "wal.group_commit_records",
        "wal.bytes_per_value", "wal.replay_read_ms", "node.replay_fold_ms",
        "trace.coverage",
    },
}


# ----------------------------------------------------------------------
# the declaration
# ----------------------------------------------------------------------


def test_benchmark_json_declaration_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(cli.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [
        w["name"] for w in SPEC["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/suite"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for measured in ON_PATH.values():
        assert measured <= per_layer


# ----------------------------------------------------------------------
# each workload, end to end and traced
# ----------------------------------------------------------------------


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300, cwd=common.ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", cli.WORKLOADS)
def test_workload_emits_exactly_the_declared_metrics(workload):
    e2e = _bench(workload, 0)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert e2e["correct"] is True and e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert list(e2e["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = e2e["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert got["value"] > 0

    layers = _bench(workload, 1)
    assert layers["correct"] is True and layers["failed"] == 0
    assert list(layers["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    measured = {k for k, v in layers["metrics"].items() if v["value"] != 0}
    assert ON_PATH[workload] <= measured, ON_PATH[workload] - measured


def test_planted_exactness_mismatch_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(
        common, "reference_fsum", lambda a: math.nextafter(math.fsum(a), math.inf)
    )
    code = cli.run_one(
        ["--workload", "mapreduce_sum", "--seed", "3", "--seconds", "0.3", "--quick"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "FAILED CHECK" in out
    # Even a failed run reaps the resource tracker the pool started.
    from multiprocessing import resource_tracker

    assert resource_tracker._resource_tracker._pid is None


def test_without_the_program_it_exits_without_a_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files, no src/.
    shutil.copytree(
        BENCH.parent, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(cli.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/bench.py", "--workload", "serve_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ----------------------------------------------------------------------
# oracles, spans, comparison rules
# ----------------------------------------------------------------------


def test_oracles_match_rational_arithmetic():
    rng = np.random.default_rng(5)
    x = np.ldexp(rng.standard_normal(300), rng.integers(-1070, 900, 300))
    y = np.ldexp(rng.standard_normal(300), rng.integers(-40, 40, 300))
    x[:3] = [5e-324, -5e-324, 0.0]
    exact = sum(Fraction(v) for v in x)
    assert common.scaled_sum(x) == exact * 2**common.SUM_SCALE_BITS
    assert common.round_scaled(common.scaled_sum(x), common.SUM_SCALE_BITS) == math.fsum(x)
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))
    assert common.scaled_dot(x, y) == dot * 2**common.DOT_SCALE_BITS


def test_p99_needs_a_thousand_samples():
    assert common.pctl(range(999), 99) == 0.0
    assert common.pctl(range(1000), 99) == pytest.approx(989.01)
    assert common.pctl(range(10), 50) == 4.5


def _synthetic_spans() -> Spans:
    # op [0,100] -> a [10,60] -> {b [20,30], c [25,40]}; op -> d [70,90];
    # e [0,50] is detached (a background task's work, trace 0).
    layers = ["client.write", "a", "b", "c", "d", "e"]
    rows = [
        # layer, span, parent, trace, start, end
        (0, 1, 0, 1, 0, 100),
        (1, 2, 1, 1, 10, 60),
        (2, 3, 2, 1, 20, 30),
        (3, 4, 2, 1, 25, 40),
        (4, 5, 1, 1, 70, 90),
        (5, 6, 0, 0, 0, 50),
    ]
    cols = {
        name: np.array([r[i] for r in rows], dtype=np.int64)
        for i, name in enumerate(("layer", "span", "parent", "trace", "start", "end"))
    }
    cols["work"] = np.zeros(len(rows), dtype=np.int64)
    return Spans(layers, cols)


def test_self_time_subtracts_the_union_of_children():
    spans = _synthetic_spans()
    assert spans.self_ns().tolist() == [30, 30, 10, 15, 20, 50]
    assert union_length(np.array([20, 25, 50]), np.array([30, 40, 55])) == 25
    assert spans.op_ns() == 100
    assert spans.covered_ns() == 70  # [10,60] and [70,90]; e is off the op path
    assert spans.children_max_ns("a", "c").tolist() == [15]
    windowed = spans.select(20, 45)
    assert windowed.self_ns().tolist() == [10, 15]


def test_tracer_links_children_across_tasks_and_threads_and_uninstalls():
    class Layer:
        def inner(self) -> int:
            return 1

        async def sub(self) -> int:
            return self.inner()

        async def outer(self) -> int:
            same_task = self.inner()
            (child_task,) = await asyncio.gather(self.sub())
            in_thread = await asyncio.to_thread(self.inner)
            return same_task + child_task + in_thread

    original = Layer.__dict__["inner"]
    tracer = Tracer()
    tracer.install([
        Target(Layer, "outer", "client.write", entry=True),
        Target(Layer, "inner", "inner"),
    ])
    assert asyncio.run(Layer().outer()) == 3
    Layer().inner()  # outside any op: detached
    tracer.uninstall()
    assert Layer.__dict__["inner"] is original
    spans = tracer.spans()
    inner = spans.mask("inner")
    op = spans.cols["span"][spans.mask("client.write")][0]
    assert spans.cols["parent"][inner].tolist() == [op, op, op, 0]
    assert spans.cols["trace"][inner].tolist() == [op, op, op, 0]


def test_quartiles_interpolate_like_numpy_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert quartiles(values) == (2.0, 3.0, 4.0)
    assert quartiles(values) == tuple(np.percentile(values, [25, 50, 75]))


def test_compare_flags_regressions_and_unresolved_spreads():
    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    assert compare_metric(parent, [v * 0.97 for v in parent], "higher", 0.1)[1] == "ok"
    worse_by, status = compare_metric(parent, [v * 0.85 for v in parent], "higher", 0.1)
    assert status == "regression" and worse_by == pytest.approx(0.15)
    assert compare_metric(parent, [v * 1.2 for v in parent], "lower", 0.1)[1] == "regression"
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare_metric(wide, [v * 0.9 for v in wide], "higher", 0.1)[1] == "unresolved"
    assert compare_metric(wide, [200.0] * 10, "higher", 0.1)[1] == "ok"


def test_claim_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_iqr():
    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    assert claim_met(parent, [v + 5 for v in parent], "higher") == (10, 10, True)
    assert claim_met(parent, [v - 5 for v in parent], "lower") == (10, 10, True)
    two_losses = [v + 5 for v in parent[:8]] + [90.0, 90.0]
    assert claim_met(parent, two_losses, "higher") == (8, 10, False)
    assert claim_met(parent, [v + 0.5 for v in parent], "higher")[2] is False
