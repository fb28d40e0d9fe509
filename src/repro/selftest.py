"""Installation self-check: a fast battery over every subsystem.

``python -m repro selftest`` runs in a few seconds and exercises one
representative path through each subsystem against exact references —
the release-engineering convention for numerical libraries whose
correctness depends on platform floating-point behaviour (rounding
mode, FMA contraction, x87 double-rounding would all surface here).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Tuple

import numpy as np

from repro.util.bits import same_float

__all__ = ["run_selftest"]


def _ref(values) -> float:
    from repro.core.rounding import round_scaled_int

    total = Fraction(0)
    for v in values:
        total += Fraction(float(v))
    if total == 0:
        return 0.0
    num, den = total.numerator, total.denominator
    return round_scaled_int(num, -(den.bit_length() - 1))


def _check_environment() -> None:
    # round-to-nearest-even and no surprise FMA contraction
    # reprolint: disable-next-line=FP002 -- probes the hardware rounding mode on purpose
    assert 1.0 + 2.0**-53 == 1.0, "rounding mode is not nearest-even"
    # reprolint: disable-next-line=FP002 -- probes the precision of the double format
    assert 1.0 + 2.0**-52 != 1.0, "double precision narrower than expected"
    x, y = 1e16, 1.0
    s = x + y
    # reprolint: disable-next-line=FP002 -- TwoSum residual is exact by construction
    assert (x - (s - (s - x))) + (y - (s - x)) == 1.0, "TwoSum algebra broken"


def _check_core() -> None:
    from repro.core import exact_sum

    rng = np.random.default_rng(1)
    x = (rng.random(2000) - 0.5) * 10.0 ** rng.integers(-200, 200, 2000)
    want = _ref(x)
    for method in ("sparse", "small", "dense"):
        assert exact_sum(x, method=method) == want, method


def _check_baselines() -> None:
    from repro.baselines import hybrid_sum, ifastsum

    cases = [[1.0, 2.0**-53], [1e16, 1.0, -1e16], [2.0**-1074] * 5]
    for c in cases:
        want = _ref(c)
        assert ifastsum(c) == want
        assert hybrid_sum(c) == want


def _check_pram() -> None:
    from repro.pram import PRAM, cole_merge_sort, pram_exact_sum

    rng = np.random.default_rng(2)
    x = (rng.random(256) - 0.5) * 10.0 ** rng.integers(-50, 50, 256)
    assert pram_exact_sum(x).value == _ref(x)
    out, _ = cole_merge_sort(PRAM(), x)
    assert (out == np.sort(x)).all()


def _check_extmem() -> None:
    from repro.extmem import BlockDevice, ExtArray, extmem_sum_scan, extmem_sum_sorted

    rng = np.random.default_rng(3)
    x = (rng.random(1000) - 0.5) * 10.0 ** rng.integers(-80, 80, 1000)
    dev = BlockDevice(block_size=64, memory=64 * 10)
    src = ExtArray.from_numpy(dev, "x", x)
    assert extmem_sum_sorted(dev, src).value == _ref(x)
    dev2 = BlockDevice(block_size=64, memory=64 * 10)
    src2 = ExtArray.from_numpy(dev2, "x", x)
    assert extmem_sum_scan(dev2, src2).value == _ref(x)


def _check_mapreduce() -> None:
    from repro.mapreduce import parallel_sum

    rng = np.random.default_rng(4)
    x = (rng.random(3000) - 0.5) * 10.0 ** rng.integers(-80, 80, 3000)
    assert parallel_sum(x, block_items=256) == _ref(x)


def _check_bsp() -> None:
    from repro.bsp import exact_allreduce_sum

    rng = np.random.default_rng(5)
    x = (rng.random(500) - 0.5) * 10.0 ** rng.integers(-50, 50, 500)
    res = exact_allreduce_sum(np.array_split(x, 5))
    assert res.values == [_ref(x)] * 5


def _check_stats() -> None:
    from repro import reduce

    assert same_float(reduce.var(np.array([1e8 + 1, 1e8 + 2, 1e8 + 3, 1e8 + 4])), 1.25)


def _check_kernels() -> None:
    from repro.kernels import get_kernel, kernel_names, kernel_sum

    rng = np.random.default_rng(8)
    x = (rng.random(1500) - 0.5) * 10.0 ** rng.integers(-60, 60, 1500)
    want = _ref(x)
    blocks = np.array_split(x, 7)
    for name in kernel_names():
        kernel = get_kernel(name)
        assert kernel_sum(kernel, blocks) == want, name
        # wire round-trip through the codec registry
        frame = kernel.to_wire(kernel.fold(x))
        assert kernel.to_wire(kernel.from_wire(frame)) == frame, name
        assert kernel.round(kernel.from_wire(frame)) == want, name


def _check_binned() -> None:
    from repro.core import exact_sum
    from repro.kernels import get_kernel

    rng = np.random.default_rng(11)
    x = (rng.random(3000) - 0.5) * 10.0 ** rng.integers(-250, 250, 3000)
    x = np.concatenate([x, [5e-324, -5e-324, 3e-310, -0.0, 1e308, -1e308]])
    want = exact_sum(x, method="sparse")
    assert exact_sum(x, method="binned") == want
    kernel = get_kernel("binned")
    part = kernel.combine(kernel.fold(x[:1000]), kernel.fold(x[1000:]))
    assert kernel.round(part) == want


def _check_plan() -> None:
    from repro.kernels import kernel_names
    from repro.plan import DataDescriptor, kernel_candidates, plan_sum

    rng = np.random.default_rng(9)
    x = (rng.random(1200) - 0.5) * 10.0 ** rng.integers(-40, 40, 1200)
    want = _ref(x)
    plan = plan_sum(DataDescriptor.describe_array(x))
    assert plan.plane == "serial", plan.plane
    assert plan.execute() == want
    big = plan_sum(DataDescriptor(n=1 << 20, layout="memory", workers=4))
    assert big.plane == "mapreduce", big.plane
    # Every candidate row carries a non-empty rationale and the chosen
    # kernel is registered.
    assert all(c.reason for c in kernel_candidates())
    for mode in ("nearest", "down"):
        chosen = plan_sum(DataDescriptor.describe_array(x), mode=mode).kernel
        assert chosen in kernel_names(), chosen


def _check_serve() -> None:
    import asyncio

    from repro.serve import InProcessClient, ReproService, ServeConfig

    async def roundtrip() -> None:
        async with ReproService(ServeConfig(shards=2)) as service:
            client = InProcessClient(service)
            await client.add_array("t", [1e16, 1.0, -1e16])
            assert same_float(await client.value("t"), 1.0)
            assert await client.count("t") == 3

    asyncio.run(roundtrip())


def _check_cluster() -> None:
    import asyncio

    from repro.cluster import LocalCluster
    from repro.core import exact_sum

    rng = np.random.default_rng(13)
    x = (rng.random(1500) - 0.5) * 10.0 ** rng.integers(-60, 60, 1500)
    want = exact_sum(x, method="sparse")

    async def roundtrip() -> None:
        async with LocalCluster(nodes=3, replication=2) as lc:
            co = lc.coordinator
            for piece in np.array_split(x, 6):
                await co.append("t", piece)
            # replicated read survives losing the stream's primary
            lc.kill(co._placement("t").primary)
            placed = await co.value("t")
            assert same_float(placed["value"], want), "placed read drifted"
            # scatter/gather recombination is the same exact merge
            await co.scatter("u", x, chunk=256)
            gathered = await co.gather("u")
            assert same_float(gathered["value"], want), "gather drifted"

    asyncio.run(roundtrip())


def _check_analysis() -> None:
    from pathlib import Path

    from repro.analysis import lint_paths, lint_source, rule_catalogue

    assert len(rule_catalogue()) >= 17, "builtin rule families failed to register"
    # The linter must still catch a planted violation...
    planted = lint_source("def f(xs):\n    return sum(float(x) for x in xs)\n")
    assert any(f.rule == "FP001" for f in planted.findings), "FP001 went blind"
    # ...the dataflow engine must catch its three planted shapes...
    second_writer = lint_source(
        "import asyncio\n"
        "class W:\n"
        "    async def start(self):\n"
        "        self._t = asyncio.create_task(self._run())\n"
        "    async def _run(self):\n"
        "        self._state = 1\n"
        "    def reset(self):\n"
        "        self._state = 0\n",
        "repro/serve/planted.py",
        select=["CC100"],
    )
    assert any(f.rule == "CC100" for f in second_writer.findings), "CC100 went blind"
    torn = lint_source(
        "class N:\n"
        "    async def apply(self, seq, arr):\n"
        "        self._applied = seq\n"
        "        await self._fold(arr)\n"
        "        self._count = 1\n",
        "repro/cluster/planted.py",
        select=["CC101"],
    )
    assert any(f.rule == "CC101" for f in torn.findings), "CC101 went blind"
    tainted = lint_source(
        "import numpy as np\n"
        "def handle(blob):\n"
        "    arr = np.frombuffer(blob, dtype=np.float64)\n"
        "    return arr * 0.5\n",
        "repro/serve/planted.py",
        select=["FP100"],
    )
    assert any(f.rule == "FP100" for f in tainted.findings), "FP100 went blind"
    # ...and the installed tree must be clean under every rule.
    import repro

    pkg_dir = Path(repro.__file__).parent
    result = lint_paths([str(pkg_dir)])
    assert result.ok, "\n".join(
        f.location() + ": " + f.rule for f in result.sorted_findings()
    )


_CHECKS: List[Tuple[str, Callable[[], None]]] = [
    ("float environment", _check_environment),
    ("core superaccumulators", _check_core),
    ("sequential baselines", _check_baselines),
    ("PRAM algorithms", _check_pram),
    ("external memory", _check_extmem),
    ("MapReduce", _check_mapreduce),
    ("BSP allreduce", _check_bsp),
    ("exact statistics", _check_stats),
    ("kernel registry", _check_kernels),
    ("binned fold", _check_binned),
    ("backend planner", _check_plan),
    ("serving plane", _check_serve),
    ("cluster plane", _check_cluster),
    ("static analysis", _check_analysis),
]


def run_selftest(verbose: bool = True) -> bool:
    """Run the battery; returns True on a fully passing install."""
    ok = True
    for name, check in _CHECKS:
        try:
            check()
            status = "ok"
        except AssertionError as exc:
            status = f"FAIL ({exc})"
            ok = False
        except Exception as exc:  # import/runtime breakage
            status = f"ERROR ({type(exc).__name__}: {exc})"
            ok = False
        if verbose:
            print(f"  {name:<24s} {status}")
    if verbose:
        print("selftest:", "PASS" if ok else "FAIL")
    return ok
