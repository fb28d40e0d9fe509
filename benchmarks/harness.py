"""Figure harness: regenerate the paper's experimental series.

Prints, for every figure of the evaluation section, the same
rows/series the paper plots — at laptop scale (see DESIGN.md §2 for the
scale and environment substitutions). Usage::

    python benchmarks/harness.py fig1          # time vs n
    python benchmarks/harness.py fig2          # time vs delta
    python benchmarks/harness.py fig3          # time vs workers
    python benchmarks/harness.py thm2          # PRAM rounds/work vs n
    python benchmarks/harness.py thm4          # iterations/work vs C(X)
    python benchmarks/harness.py thm5          # I/Os vs n
    python benchmarks/harness.py all
    python benchmarks/harness.py all --quick   # smaller sweeps

Numbers go to stdout as aligned tables; EXPERIMENTS.md records one run
and compares the shapes against the paper.
"""

from __future__ import annotations

import argparse
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.baselines import hybrid_sum, ifastsum
from repro.data import PANEL_NAMES, generate
from repro.extmem import (
    BlockDevice,
    ExtArray,
    extmem_sum_scan,
    extmem_sum_sorted,
    scan_bound,
    sum_sorted_bound,
)
from repro.mapreduce import parallel_sum
from repro.pram import condition_sensitive_sum, pram_exact_sum

DISTS = ["well", "random", "anderson", "sumzero"]
BLOCK_ITEMS = 1 << 14


def bench_stamp() -> Dict[str, object]:
    """Provenance stamp every ``BENCH_*.json`` record embeds.

    Records the git commit, platform, Python, CPU count and numpy
    version so a stored benchmark JSON can always be traced back to the
    code and host that produced it. Degrades to
    ``"unknown"`` when the tree is not a git checkout (tarball
    installs, CI artifact stages).
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }


def _timeit(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _print_table(title: str, header: Sequence[str], rows: List[Sequence[object]]) -> None:
    print(f"\n## {title}")
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(_fmt(v).rjust(w) for v, w in zip(r, widths)))


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


# ----------------------------------------------------------------------
# Figure 1: time vs input size, delta = 2000
# ----------------------------------------------------------------------

def fig1(quick: bool) -> None:
    sizes = [1_000, 10_000, 100_000] if quick else [1_000, 10_000, 100_000, 1_000_000]
    print("\n# Figure 1 — total running time (s) vs input size (delta=2000)")
    print("# paper: n = 1M..1B on 32 cores; here laptop-scale, same shapes")
    for dist in DISTS:
        rows = []
        for n in sizes:
            x = generate(dist, n, delta=2000, seed=42)
            t_if = _timeit(lambda: ifastsum(x))
            t_hy = _timeit(lambda: hybrid_sum(x))
            t_sm = _timeit(
                lambda: parallel_sum(x, method="small", block_items=BLOCK_ITEMS,
                                     executor="serial")
            )
            t_sp = _timeit(
                lambda: parallel_sum(x, method="sparse", block_items=BLOCK_ITEMS,
                                     executor="serial")
            )
            rows.append((n, t_if, t_hy, t_sm, t_sp))
        _print_table(
            f"Figure 1 panel: {PANEL_NAMES[dist]}",
            ["n", "iFastSum", "HybridSum", "MR-Small", "MR-Sparse"],
            rows,
        )


# ----------------------------------------------------------------------
# Figure 2: time vs delta, fixed n
# ----------------------------------------------------------------------

def fig2(quick: bool) -> None:
    deltas = [10, 100, 1000, 2000] if quick else [10, 30, 50, 100, 300, 500, 1000, 2000]
    n = 20_000 if quick else 100_000
    print(f"\n# Figure 2 — total running time (s) vs delta (n={n})")
    for dist in DISTS:
        rows = []
        for delta in deltas:
            x = generate(dist, n, delta=delta, seed=42)
            t_if = _timeit(lambda: ifastsum(x))
            t_sm = _timeit(
                lambda: parallel_sum(x, method="small", block_items=BLOCK_ITEMS,
                                     executor="serial")
            )
            t_sp = _timeit(
                lambda: parallel_sum(x, method="sparse", block_items=BLOCK_ITEMS,
                                     executor="serial")
            )
            rows.append((delta, t_if, t_sm, t_sp))
        _print_table(
            f"Figure 2 panel: {PANEL_NAMES[dist]}",
            ["delta", "iFastSum", "MR-Small", "MR-Sparse"],
            rows,
        )


# ----------------------------------------------------------------------
# Figure 3: time vs workers (simulated cluster on single-core hosts)
# ----------------------------------------------------------------------

def fig3(quick: bool) -> None:
    workers = [1, 2, 4, 8, 16, 32]
    n = 50_000 if quick else 500_000
    print(f"\n# Figure 3 — total running time (s) vs cluster size (n={n}, delta=2000)")
    print("# MapReduce times are simulated-cluster makespans (DESIGN.md §2);")
    print("# iFastSum is single-core and flat by construction")
    for dist in DISTS:
        x = generate(dist, n, delta=2000, seed=42)
        t_if = _timeit(lambda: ifastsum(x))
        rows = []
        for p in workers:
            r_sp = parallel_sum(x, method="sparse", workers=p,
                                executor="simulated", block_items=BLOCK_ITEMS,
                                report=True)
            r_sm = parallel_sum(x, method="small", workers=p,
                                executor="simulated", block_items=BLOCK_ITEMS,
                                report=True)
            rows.append((p, t_if, r_sm.total_seconds, r_sp.total_seconds))
        _print_table(
            f"Figure 3 panel: {PANEL_NAMES[dist]}",
            ["workers", "iFastSum", "MR-Small", "MR-Sparse"],
            rows,
        )


# ----------------------------------------------------------------------
# Theory-section counters
# ----------------------------------------------------------------------

def thm2(quick: bool) -> None:
    sizes = [256, 1024, 4096] if quick else [256, 1024, 4096, 16384]
    print("\n# Theorem 2 — PRAM rounds and work vs n (random, delta=300)")
    rows = []
    for n in sizes:
        x = generate("random", n, delta=300, seed=1)
        res = pram_exact_sum(x)
        rows.append((n, res.stats.rounds, res.stats.work, res.root_active))
    _print_table("fast PRAM algorithm", ["n", "rounds", "work", "sigma"], rows)

    # the cascading ingredient: pipelined vs level-by-level sort rounds
    from repro.pram import PRAM, cole_merge_sort, parallel_merge_sort

    rows = []
    for n in sizes:
        keys = generate("random", n, delta=300, seed=1)
        m_cole = PRAM()
        _, cstats = cole_merge_sort(m_cole, keys, check_cover=False)
        m_level = PRAM()
        parallel_merge_sort(m_level, keys)
        rows.append((n, m_cole.stats.rounds, m_level.stats.rounds, cstats.stages))
    _print_table(
        "cascading (Cole) vs level-by-level sort rounds",
        ["n", "cole rounds", "level rounds", "cole stages"],
        rows,
    )


def thm4(quick: bool) -> None:
    n = 1024 if quick else 4096
    print(f"\n# Theorem 4 — condition-sensitive iterations and work (n={n})")
    cases = [
        ("well delta=20 (C=1)", generate("well", n, delta=20, seed=1)),
        ("random delta=300", generate("random", n, delta=300, seed=1)),
        ("anderson delta=300", generate("anderson", n, delta=300, seed=1)),
        ("sumzero delta=1200 (C=inf)", generate("sumzero", n, delta=1200, seed=1)),
    ]
    rows = []
    for name, x in cases:
        res = condition_sensitive_sum(x)
        rows.append(
            (name, len(res.iterations), res.iterations[-1].r, res.stats.work)
        )
    _print_table(
        "condition-sensitive algorithm",
        ["input", "iterations", "final r", "work"],
        rows,
    )


def thm5(quick: bool) -> None:
    sizes = [2_000, 8_000] if quick else [2_000, 8_000, 32_000]
    B, mem_blocks = 256, 16
    print(f"\n# Theorems 5/6 — I/O counts (B={B}, M={B * mem_blocks})")
    rows = []
    for n in sizes:
        x = generate("random", n, delta=500, seed=1)
        dev = BlockDevice(block_size=B, memory=B * mem_blocks)
        src = ExtArray.from_numpy(dev, "in", x)
        r5 = extmem_sum_sorted(dev, src)
        dev2 = BlockDevice(block_size=B, memory=B * mem_blocks)
        src2 = ExtArray.from_numpy(dev2, "in", x)
        r6 = extmem_sum_scan(dev2, src2)
        rows.append(
            (
                n,
                r5.io.total,
                sum_sorted_bound(n, B * mem_blocks, B),
                r6.io.total,
                scan_bound(n, B),
            )
        )
    _print_table(
        "I/O counters vs closed-form bounds",
        ["n", "thm5 IOs", "thm5 bound", "thm6 IOs", "scan(n)"],
        rows,
    )


def abl(quick: bool) -> None:
    """Ablation tables: radix width, combiner, fixed-point carries."""
    n = 20_000 if quick else 100_000
    x = generate("random", n, delta=500, seed=42)

    # ABL-R: digit width
    from repro.core import RadixConfig, SparseSuperaccumulator

    print(f"\n# ABL-R — radix width (n={n}, delta=500)")
    rows = []
    for w in (8, 16, 26, 30, 31):
        radix = RadixConfig(w)
        t = _timeit(lambda: SparseSuperaccumulator.from_floats(x, radix))
        sigma = SparseSuperaccumulator.from_floats(x, radix).active_count
    # (re-run per width to report sigma with the timing)
        rows.append((w, t, sigma))
    _print_table("bulk accumulate by digit width", ["w", "seconds", "sigma"], rows)

    # ABL-C: combiner on/off
    from repro.mapreduce import (
        BlockStore,
        NoCombinerSumJob,
        SparseSuperaccumulatorJob,
        run_job,
    )

    store = BlockStore(block_items=1 << 13)
    store.put("d", x)
    blocks = [b.data for b in store.blocks("d")]
    with_c = run_job(SparseSuperaccumulatorJob(), blocks, reducers=4)
    without = run_job(NoCombinerSumJob(), blocks, reducers=4)
    print("\n# ABL-C — the combine step (paper §6.2)")
    _print_table(
        "shuffle volume and time",
        ["variant", "shuffle bytes", "seconds"],
        [
            ("with combiner", with_c.shuffle_bytes, with_c.total_seconds),
            ("no combiner", without.shuffle_bytes, without.total_seconds),
        ],
    )

    # ABL-FX: fixed-point carry chains
    from repro.core.fixedpoint import FixedPointRegister

    m = 2_000 if quick else 10_000
    adv = []
    for k in range(m // 2):
        e = 20 + (k % 30)
        adv.append(float(np.ldexp(1.0, e)) * (1 - 2.0**-53))
        adv.append(float(np.ldexp(1.0, e - 53)))
    reg = FixedPointRegister()
    t = _timeit(lambda: reg.add_array(adv))
    print("\n# ABL-FX — §2 fixed-point register on a carry-adversarial stream")
    _print_table(
        "carry propagation",
        ["adds", "max carry chain (bits)", "seconds"],
        [(reg.adds, reg.max_carry_chain, t)],
    )
    print("(Lemma 1 carries travel exactly one digit position; "
          "the register's ripple above is the §2 hazard)")


COMMANDS: Dict[str, Callable[[bool], None]] = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "thm2": thm2,
    "thm4": thm4,
    "thm5": thm5,
    "abl": abl,
}


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=sorted(COMMANDS) + ["all"])
    parser.add_argument("--quick", action="store_true", help="smaller sweeps")
    args = parser.parse_args(argv)
    targets = sorted(COMMANDS) if args.what == "all" else [args.what]
    for t in targets:
        COMMANDS[t](args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
