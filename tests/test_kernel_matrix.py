"""Cross-plane bit-identity matrix (PR 4 invariant).

Every registered kernel, on every execution plane, over adversarial
inputs, must produce the *bitwise identical* float the serial sparse
superaccumulator produces. This is the repo's central claim — exact
summation makes the answer independent of representation, schedule and
topology — stated as one parameterized test.

The process-executor leg honours ``REPRO_START_METHOD`` (``fork`` /
``spawn``) so CI runs the matrix under both worker bootstrap paths.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import exact_sum
from repro.data import generate
from repro.kernels import kernel_names
from repro.plan import PLANES, run_reduction

#: Adversarial panels: massive cancellation, near-ulp rounding ties
#: (final-bit pressure), Anderson's zero-mean deviations (the paper's
#: hard statistical panel).
DATASETS = {
    name: generate(name, 400, delta=300, seed=13)
    for name in ("cancel", "tie", "anderson")
}

REFERENCE = {
    name: exact_sum(data, method="sparse") for name, data in DATASETS.items()
}


def _start_method():
    return os.environ.get("REPRO_START_METHOD") or None


@pytest.mark.parametrize("kernel", sorted(kernel_names()))
@pytest.mark.parametrize("plane", sorted(PLANES))
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_every_kernel_on_every_plane_matches_serial_sparse(
    plane, kernel, dataset
):
    data = DATASETS[dataset]
    value = run_reduction(plane, kernel, "sum", data, workers=2, block_items=64)
    ref = REFERENCE[dataset]
    assert value == ref, (
        f"{kernel} on {plane} over {dataset}: {value!r} != {ref!r}"
    )


@pytest.mark.parametrize("kernel", sorted(kernel_names()))
def test_kernel_matrix_under_process_executor(kernel):
    """The mapreduce plane on a real worker pool, under the start
    method CI selects via REPRO_START_METHOD."""
    from repro.mapreduce.runtime import MultiprocessExecutor, run_job
    from repro.mapreduce.sum_job import KernelSumJob

    data = DATASETS["cancel"]
    blocks = [np.asarray(b) for b in np.array_split(data, 6)]
    with MultiprocessExecutor(2, start_method=_start_method()) as exe:
        value = run_job(
            KernelSumJob(kernel_name=kernel), blocks, reducers=2, executor=exe
        ).value
    assert value == REFERENCE["cancel"]


def test_planner_choices_are_in_the_matrix():
    """plan_sum can only schedule onto planes this matrix verifies."""
    from repro.plan import DataDescriptor, plan_sum

    for workers in (1, 4):
        for n in (100, 1 << 21):
            plan = plan_sum(DataDescriptor(n=n, layout="memory", workers=workers))
            assert plan.plane in PLANES
            assert plan.kernel in kernel_names()


# ---------------------------------------------------------------------------
# reduction-op rows (PR 9 invariant): every op x every kernel x every
# plane, bit-identical to the serial sparse reference — including
# the serve/cluster round-trips through op-tagged wire frames.

#: Expansion-domain-safe panel: magnitudes ~2^±60, so TwoSquare and
#: TwoProduct terms stay far inside the error-free band the ops police.
REDUCE_X = generate("cancel", 400, delta=120, seed=17)
REDUCE_Y = generate("tie", 400, delta=120, seed=29)

REDUCE_OPS = ("dot", "norm2", "mean", "var")


def _reduce_reference(op):
    from repro.reduce import run_reduction

    x = REDUCE_X
    y = REDUCE_Y if op == "dot" else None
    return run_reduction("serial", "sparse", op, x, y)


REDUCE_REFERENCE = {op: _reduce_reference(op) for op in REDUCE_OPS}


@pytest.mark.parametrize("kernel", sorted(kernel_names()))
@pytest.mark.parametrize("plane", sorted(PLANES))
@pytest.mark.parametrize("op", REDUCE_OPS)
def test_every_op_on_every_plane_matches_serial_sparse(plane, kernel, op):
    from repro.reduce import run_reduction

    value = run_reduction(
        plane, kernel, op, REDUCE_X,
        REDUCE_Y if op == "dot" else None,
        workers=2, block_items=64,
    )
    ref = REDUCE_REFERENCE[op]
    assert value == ref, (
        f"op {op} via {kernel} on {plane}: {value!r} != {ref!r}"
    )
