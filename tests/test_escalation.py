"""One escalation seam: a failed certificate reruns exactly on every plane.

Every local plane runs its schedule through
:func:`repro.kernels.run_certified`. These tests force the ``truncated``
kernel's certificate to fail and check, plane by plane, that the answer
is the sparse reference's bits, that exactly one exact rerun happens,
that the plane's cost accounting keeps both attempts, and that a
directed mode never asks the speculative kernel to round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import exact_sum
from repro.data import generate
from repro.errors import CertificationError
from repro.kernels import TruncatedKernel, get_kernel, kernel_fold

DATA = generate("cancel", 400, delta=300, seed=13)
BLOCK = 64


def _serial(kernel, mode):
    blocks = [DATA[i : i + BLOCK] for i in range(0, DATA.size, BLOCK)]
    return kernel_fold(kernel, blocks, mode=mode)[0], None


def _extmem(kernel, mode):
    from repro.extmem import BlockDevice, ExtArray, extmem_sum_scan

    device = BlockDevice(block_size=BLOCK, memory=BLOCK * 64)
    source = ExtArray.from_numpy(device, "input", DATA)
    result = extmem_sum_scan(device, source, mode=mode, kernel=kernel)
    return result.value, result.io.reads


def _bsp(kernel, mode):
    from repro.bsp import exact_allreduce_sum

    result = exact_allreduce_sum(np.array_split(DATA, 3), mode=mode, kernel=kernel)
    assert len(set(result.values)) == 1
    return result.values[0], None


def _pram(kernel, mode):
    from repro.pram import pram_exact_sum

    result = pram_exact_sum(DATA, mode=mode, kernel=kernel)
    return result.value, result.stats.rounds


def _mapreduce(kernel, mode):
    from repro.mapreduce import parallel_sum

    result = parallel_sum(
        DATA, workers=2, method=kernel.name, block_items=BLOCK, mode=mode,
        executor="simulated", report=True,
    )
    return result.value, None


PLANES = {
    "serial": _serial,
    "extmem": _extmem,
    "bsp": _bsp,
    "pram": _pram,
    "mapreduce": _mapreduce,
}


@pytest.fixture
def spy(monkeypatch):
    """Count speculative rounds and exact reruns of the truncated kernel.

    ``round`` is forced to fail its certificate; ``exact_variant`` is
    what :func:`~repro.kernels.run_certified` calls for each exact run.
    """
    calls = {"round": 0, "exact_variant": 0}
    exact_variant = TruncatedKernel.exact_variant

    def failing_round(self, partial, mode="nearest"):
        calls["round"] += 1
        raise CertificationError("forced for the escalation test")

    def counting_exact_variant(self):
        calls["exact_variant"] += 1
        return exact_variant(self)

    monkeypatch.setattr(TruncatedKernel, "round", failing_round)
    monkeypatch.setattr(TruncatedKernel, "exact_variant", counting_exact_variant)
    return calls


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_failed_certificate_reruns_exactly_once(plane, spy):
    value, _ = PLANES[plane](get_kernel("truncated"), "nearest")
    assert value == exact_sum(DATA, method="sparse")
    assert spy["round"] >= 1
    assert spy["exact_variant"] == 1


@pytest.mark.parametrize("plane", sorted(PLANES))
@pytest.mark.parametrize("mode", ["up", "down", "zero"])
def test_directed_mode_never_rounds_speculatively(plane, mode, spy):
    value, _ = PLANES[plane](get_kernel("truncated"), mode)
    assert value == exact_sum(DATA, method="sparse", mode=mode)
    assert spy["round"] == 0
    assert spy["exact_variant"] == 1


def test_extmem_reads_cover_both_scans(spy):
    _, exact_reads = _extmem(get_kernel("sparse"), "nearest")
    _, reads = _extmem(get_kernel("truncated"), "nearest")
    assert reads == 2 * exact_reads


def test_pram_rounds_cover_both_trees(spy, monkeypatch):
    _, rounds = _pram(get_kernel("truncated"), "nearest")
    _, exact_rounds = _pram(get_kernel("sparse"), "nearest")
    # The speculative tree alone, with a round that succeeds.
    monkeypatch.setattr(TruncatedKernel, "round", lambda self, p, mode="nearest": 0.0)
    _, speculative_rounds = _pram(get_kernel("truncated"), "nearest")
    assert rounds == speculative_rounds + exact_rounds
