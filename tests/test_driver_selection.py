"""Tests for ``parallel_sum``'s executor selection and overrides.

The ``"auto"`` policy (serial for one worker, a real process pool when
the host has enough cores, the simulated cluster otherwise) and the
``reducers``/``partitioner`` pass-throughs were previously untested;
:attr:`JobResult.executor_kind` makes the chosen branch observable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapreduce import parallel_sum, shutdown_shared_executors
from repro.mapreduce.driver import _select_executor_kind
from repro.mapreduce.partitioner import RandomPartitioner, RoundRobinPartitioner
from tests.conftest import random_hard_array, ref_sum


@pytest.fixture(autouse=True)
def _clean_shared_pools():
    yield
    shutdown_shared_executors()


class TestAutoSelection:
    def test_single_worker_is_serial(self, rng):
        x = random_hard_array(rng, 300)
        res = parallel_sum(x, workers=1, report=True, block_items=64)
        assert res.executor_kind == "serial"
        assert res.value == ref_sum(x)

    def test_no_workers_is_serial(self, rng):
        x = random_hard_array(rng, 300)
        res = parallel_sum(x, report=True, block_items=64)
        assert res.executor_kind == "serial"

    def test_enough_cores_picks_process(self, rng, monkeypatch):
        monkeypatch.setattr("repro.mapreduce.driver.os.cpu_count", lambda: 64)
        x = random_hard_array(rng, 500)
        res = parallel_sum(x, workers=2, report=True, block_items=128)
        assert res.executor_kind == "process"
        assert res.zero_copy  # auto-process defaults to the data plane
        assert res.value == ref_sum(x)

    def test_too_few_cores_picks_simulated(self, rng, monkeypatch):
        monkeypatch.setattr("repro.mapreduce.driver.os.cpu_count", lambda: 1)
        x = random_hard_array(rng, 500)
        res = parallel_sum(x, workers=8, report=True, block_items=128)
        assert res.executor_kind == "simulated"
        assert res.value == ref_sum(x)

    def test_cpu_count_unknown_counts_as_one(self, monkeypatch):
        monkeypatch.setattr("repro.mapreduce.driver.os.cpu_count", lambda: None)
        assert _select_executor_kind("auto", 4) == "simulated"

    def test_explicit_kinds_pass_through(self):
        for kind in ("serial", "process", "simulated"):
            assert _select_executor_kind(kind, 8) == kind

    def test_auto_boundary_exact_core_match(self, monkeypatch):
        monkeypatch.setattr("repro.mapreduce.driver.os.cpu_count", lambda: 4)
        assert _select_executor_kind("auto", 4) == "process"
        assert _select_executor_kind("auto", 5) == "simulated"

    def test_all_branches_bit_identical(self, rng, monkeypatch):
        # exactness is non-negotiable: every branch must agree with the
        # serial superaccumulator bit for bit
        monkeypatch.setattr("repro.mapreduce.driver.os.cpu_count", lambda: 64)
        x = random_hard_array(rng, 2000)
        expect = ref_sum(x)
        for kwargs in (
            {"workers": 1},
            {"workers": 2},                       # auto -> process
            {"workers": 2, "executor": "process"},
            {"workers": 8, "executor": "simulated"},
            {"workers": 2, "executor": "serial"},
        ):
            assert parallel_sum(x, block_items=256, **kwargs) == expect, kwargs


class TestOverrides:
    def test_reducers_override(self, rng):
        x = random_hard_array(rng, 1000)
        expect = ref_sum(x)
        for p in (1, 3, 17):
            res = parallel_sum(x, workers=4, executor="simulated",
                               reducers=p, report=True, block_items=128)
            assert res.reducers == p
            assert res.value == expect

    def test_reducers_default_to_workers(self, rng):
        x = random_hard_array(rng, 500)
        res = parallel_sum(x, workers=6, executor="simulated",
                           report=True, block_items=128)
        assert res.reducers == 6

    def test_partitioner_override(self, rng):
        x = random_hard_array(rng, 1000)
        expect = ref_sum(x)
        for part in (RoundRobinPartitioner(), RandomPartitioner(7)):
            got = parallel_sum(x, workers=4, executor="simulated",
                               partitioner=part, block_items=128)
            assert got == expect

    def test_partitioner_on_process_path(self, rng, monkeypatch):
        monkeypatch.setattr("repro.mapreduce.driver.os.cpu_count", lambda: 64)
        x = random_hard_array(rng, 1000)
        got = parallel_sum(x, workers=2, reducers=3,
                           partitioner=RandomPartitioner(3), block_items=128)
        assert got == ref_sum(x)

    def test_invalid_reducers(self):
        with pytest.raises(ValueError):
            parallel_sum([1.0], reducers=0)
