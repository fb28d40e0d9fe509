"""Backend planner: decisions, descriptors, and executable plans."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import exact_sum
from repro.data import write_dataset
from repro.kernels import kernel_names
from repro.plan import (
    DEFAULT_BLOCK_ITEMS,
    DataDescriptor,
    PLANES,
    plan_sum,
    run_reduction,
)


@pytest.fixture
def data():
    rng = np.random.default_rng(21)
    return (rng.random(2500) - 0.5) * 10.0 ** rng.integers(-60, 60, 2500)


class TestDescriptor:
    def test_describe_array_captures_size_and_data(self, data):
        desc = DataDescriptor.describe_array(data, workers=3)
        assert desc.n == data.size
        assert desc.layout == "memory"
        assert desc.workers == 3
        assert desc.values is not None

    def test_describe_file_reads_header_only(self, tmp_path, data):
        path = tmp_path / "d.f64"
        write_dataset(path, data)
        desc = DataDescriptor.describe_file(path, workers=2)
        assert desc.n == data.size
        assert desc.layout == "file"
        assert desc.path == str(path)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=-1),
            dict(n=10, layout="tape"),
            dict(n=10, workers=0),
            dict(n=10, layout="file"),  # no path
        ],
    )
    def test_invalid_descriptors_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DataDescriptor(**kwargs)


class TestPlannerDecisions:
    def test_small_memory_input_stays_serial(self):
        plan = plan_sum(DataDescriptor(n=1000, layout="memory", workers=1))
        assert plan.plane == "serial"
        # The binned fold's measured rate outranks every other kernel's.
        assert plan.kernel == "binned"

    def test_small_input_with_workers_still_serial(self):
        plan = plan_sum(DataDescriptor(n=1000, layout="memory", workers=8))
        assert plan.plane == "serial"
        assert plan.workers == 1
        assert "spin-up" in plan.reason

    def test_large_memory_input_with_workers_goes_mapreduce(self):
        plan = plan_sum(
            DataDescriptor(n=4 * DEFAULT_BLOCK_ITEMS, layout="memory", workers=4)
        )
        assert plan.plane == "mapreduce"
        assert plan.workers == 4

    def test_file_single_worker_streams(self, tmp_path, data):
        path = tmp_path / "d.f64"
        write_dataset(path, data)
        plan = plan_sum(DataDescriptor.describe_file(path))
        assert plan.plane == "streaming"

    def test_file_with_workers_goes_mapreduce(self, tmp_path, data):
        path = tmp_path / "d.f64"
        write_dataset(path, data)
        plan = plan_sum(DataDescriptor.describe_file(path, workers=4))
        assert plan.plane == "mapreduce"

    def test_directed_mode_selects_exact_tier(self):
        plan = plan_sum(DataDescriptor(n=1000, layout="memory"), mode="down")
        # Fastest kernel: the binned exponent fold, in every mode.
        assert plan.kernel == "binned"

    def test_explicit_kernel_is_honored(self):
        plan = plan_sum(DataDescriptor(n=1000, layout="memory"), kernel="small")
        assert plan.kernel == "small"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            plan_sum(DataDescriptor(n=10, layout="memory"), kernel="quantum")

    def test_describe_is_json_flat(self):
        info = plan_sum(DataDescriptor(n=10, layout="memory")).describe()
        assert set(info) == {
            "plane", "kernel", "workers", "block_items",
            "n", "layout", "reason", "op",
        }


class TestKernelCandidates:
    def test_table_lists_every_kernel_with_a_reason(self):
        from repro.plan import kernel_candidates

        cands = {c.name: c for c in kernel_candidates()}
        assert set(cands) == set(kernel_names())
        assert all(c.reason for c in cands.values())

    def test_planner_never_selects_unavailable_backend(self):
        for mode in ("nearest", "down", "up"):
            plan = plan_sum(DataDescriptor(n=1 << 22, layout="memory"), mode=mode)
            assert plan.kernel in kernel_names()

    def test_wide_radix_rejects_vectorized_bin_fold(self):
        from repro.core.digits import RadixConfig
        from repro.plan import kernel_candidates

        wide = RadixConfig(w=40)
        cands = {c.name: c for c in kernel_candidates(radix=wide)}
        assert not cands["binned"].accepted
        assert "w=40" in cands["binned"].reason
        plan = plan_sum(
            DataDescriptor(n=100, layout="memory"), mode="down", radix=wide
        )
        assert plan.kernel != "binned"

    @pytest.mark.parametrize("mode", ["nearest", "up"])
    @pytest.mark.parametrize("w, kernel", [(30, "binned"), (32, "sparse")])
    def test_digit_width_picks_the_fold(self, data, w, kernel, mode):
        # Above 31 bits the vectorized folds (binned, dense, small) are
        # ruled out and the sparse fold takes over, in every mode.
        from repro.core.digits import RadixConfig
        from repro.plan import kernel_candidates

        radix = RadixConfig(w=w)
        cands = {c.name: c for c in kernel_candidates(radix=radix)}
        for name in ("binned", "dense", "small"):
            assert cands[name].accepted == (w <= 31)
        plan = plan_sum(DataDescriptor.describe_array(data), mode=mode, radix=radix)
        assert plan.kernel == kernel
        assert plan.execute() == exact_sum(data, method="sparse", mode=mode)

    def test_benched_rates_match_the_bench_file(self):
        from repro.plan import KERNEL_RATES

        bench = Path(__file__).resolve().parents[1] / "BENCH_native.json"
        measured = json.loads(bench.read_text())["kernel_rates_melem_per_s"]
        assert measured
        for name, rate in measured.items():
            assert KERNEL_RATES[name] == round(rate, 1), name

    def test_only_benched_kernels_claim_a_measured_rate(self):
        from repro.plan import kernel_candidates

        bench = Path(__file__).resolve().parents[1] / "BENCH_native.json"
        measured = json.loads(bench.read_text())["kernel_rates_melem_per_s"]
        for cand in kernel_candidates():
            if cand.name not in measured:
                assert cand.rate is None, cand.name
                assert "measured" not in cand.reason, cand.name

    def test_plan_carries_its_candidate_table(self):
        plan = plan_sum(DataDescriptor(n=100, layout="memory"))
        accepted = [c for c in plan.candidates if c.accepted]
        assert accepted and accepted[0].name == plan.kernel
        # sorted fastest-first by the measured-rate table
        rates = [c.rate for c in plan.candidates if c.rate is not None]
        assert rates == sorted(rates, reverse=True)


class TestExecution:
    def test_memory_plan_executes_bit_identical(self, data):
        ref = exact_sum(data, method="sparse")
        plan = plan_sum(DataDescriptor.describe_array(data))
        assert plan.execute() == ref

    def test_file_plan_reads_its_dataset(self, tmp_path, data):
        ref = exact_sum(data, method="sparse")
        path = tmp_path / "d.f64"
        write_dataset(path, data)
        plan = plan_sum(DataDescriptor.describe_file(path))
        assert plan.execute() == ref

    def test_size_only_plan_needs_values(self):
        plan = plan_sum(DataDescriptor(n=16, layout="memory"))
        with pytest.raises(ValueError, match="no data"):
            plan.execute()
        assert plan.execute(values=np.ones(16)) == 16.0

    def test_mode_override_at_execute_time(self, data):
        plan = plan_sum(DataDescriptor.describe_array(data))
        down = exact_sum(data, method="sparse", mode="down")
        up = exact_sum(data, method="sparse", mode="up")
        assert plan.execute(mode="down") == down
        assert plan.execute(mode="up") == up
        assert down != up  # the dataset is not exactly representable

    def test_every_planner_reason_is_nonempty(self):
        for desc in (
            DataDescriptor(n=100, layout="memory"),
            DataDescriptor(n=1 << 21, layout="memory", workers=4),
        ):
            assert plan_sum(desc).reason


class TestRunPlane:
    def test_unknown_plane_and_kernel_rejected(self, data):
        with pytest.raises(ValueError, match="unknown plane"):
            run_reduction("quantum", "sparse", "sum", data)
        with pytest.raises(ValueError, match="unknown kernel"):
            run_reduction("serial", "quantum", "sum", data)

    def test_empty_input_sums_to_zero_on_every_plane(self):
        empty = np.array([], dtype=np.float64)
        for plane in PLANES:
            if plane == "bsp":
                continue  # allreduce needs at least one rank's block
            assert run_reduction(plane, "sparse", "sum", empty) == 0.0

    @pytest.mark.parametrize("kernel", sorted(kernel_names()))
    def test_serial_plane_matches_reference_for_all_kernels(self, data, kernel):
        ref = exact_sum(data, method="sparse")
        assert run_reduction("serial", kernel, "sum", data, block_items=500) == ref
