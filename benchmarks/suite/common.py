"""Shared pieces of the workloads: the run window, exact oracles, checks.

Every workload is a closed loop: each caller sends its next op only
after the previous one is acknowledged. A run first spends
:data:`WARMUP_SHARE` of its window on warm-up ops that are not
counted, then measures for ``seconds``; ops that *start* inside the
measured window are counted, and the window closes when the last of
them completes.

The exactness oracles here are independent of ``repro``: an input
batch's exact sum is held as a Python integer scaled by ``2**1074``
(``2**2148`` for products), so any number of batches sum exactly, and
one correctly rounded integer division gives the expected float.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np


#: Repository root: the benchmark runs from a checkout of the whole repo.
ROOT = Path(__file__).resolve().parents[2]

#: Share of the measured window spent first on uncounted warm-up ops
#: (a fresh process runs its first ops 15-25% slower).
WARMUP_SHARE = 0.10

#: Pause between repeated set-ups: a shared host's CPU speed flips
#: between states within seconds, and spacing the set-ups out lets
#: their median span more than one state.
SETUP_GAP_S = 0.2

#: A p99 is reported only over at least this many samples.
P99_MIN_SAMPLES = 1000

SUM_SCALE_BITS = 1074
DOT_SCALE_BITS = 2 * 1074


@dataclass
class RunConfig:
    """One workload run: its seed, window length and mode."""

    seed: int
    seconds: float
    trace: bool
    quick: bool
    workdir: Path


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment for a child interpreter: the program on its path,
    temporary files inside the checkout."""
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        TMPDIR=str(workdir),
    )


@dataclass
class RunResult:
    """What a workload hands back to the CLI.

    ``metrics`` maps a declared metric name to its measured value;
    ``samples`` gives the sample count behind each timing. ``problems``
    lists every failed exactness or leak check; any entry fails the run.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    checks: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems and self.checks > 0

    def expect(self, label: str, got: float, want: float) -> None:
        """Record one exactness check: ``got`` must equal ``want`` bit for bit."""
        self.checks += 1
        if got.hex() != want.hex():
            self.problems.append(f"{label}: got {got.hex()}, expected {want.hex()}")

    def add_window(self, win: "Window") -> None:
        self.attempted += win.attempted
        self.failed += win.failed

    def setup(self, seconds: List[float]) -> None:
        """Report the median of the run's cold set-ups as ``setup_s``."""
        self.metrics["setup_s"] = float(np.median(seconds))
        self.samples["setup_s"] = len(seconds)

    def timing(self, name: str, seconds: List[float], q: float) -> None:
        """Report the ``q`` percentile of ``seconds`` in ms as ``name``."""
        self.metrics[name] = ms(pctl(seconds, q))
        self.samples[name] = len(seconds)


def ms(seconds: float) -> float:
    return seconds * 1e3


def us(ns: Iterable[float], q: float = 50) -> float:
    """Percentile ``q`` of nanosecond samples, in microseconds."""
    return pctl(ns, q) / 1e3


def pctl(values: Iterable[float], q: float) -> float:
    """Percentile ``q`` (0-100) by linear interpolation; 0.0 if empty.

    A p99 over fewer than :data:`P99_MIN_SAMPLES` samples is not
    reported (0.0).
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0 or (q >= 99 and arr.size < P99_MIN_SAMPLES):
        return 0.0
    return float(np.percentile(arr, q))


class Window:
    """Warm-up then measured window over a closed loop of ops."""

    def __init__(self, seconds: float) -> None:
        self.warmup = seconds * WARMUP_SHARE
        self.seconds = seconds
        self.t_measure = self.t_stop = 0.0
        self.t_last = 0.0
        self.lat: Dict[str, List[float]] = {}
        self.values = 0
        self.attempted = 0
        self.failed = 0

    def start(self) -> None:
        now = time.perf_counter()
        self.t_measure = now + self.warmup
        self.t_stop = self.t_measure + self.seconds

    def open(self) -> bool:
        """Whether a caller may start another op now."""
        return time.perf_counter() < self.t_stop

    def record(self, kind: str, t0: float, t1: float, values: int, ok: bool) -> None:
        """Account one finished op that started at ``t0``."""
        if t0 < self.t_measure:
            return
        self.attempted += 1
        self.t_last = max(self.t_last, t1)
        if not ok:
            self.failed += 1
            return
        self.lat.setdefault(kind, []).append(t1 - t0)
        self.values += values

    @property
    def elapsed(self) -> float:
        return max(self.t_last - self.t_measure, 1e-9)

    def ns_bounds(self) -> Tuple[int, int]:
        """The measured window on the ``perf_counter_ns`` clock, which is
        the same clock in every process of the host."""
        return int(self.t_measure * 1e9), int(self.t_last * 1e9)

    def values_per_s(self) -> float:
        """Millions of input values acknowledged per measured second."""
        return self.values / self.elapsed / 1e6


#: Slack past the window before a stuck op counts as timed out.
OP_TIMEOUT_S = 60.0


def _op_failures() -> tuple:
    from repro.errors import ReproError

    return (ReproError, ConnectionError, asyncio.TimeoutError)


async def closed_loop(
    win: Window,
    lanes: int,
    op_for: Callable[[int, int, int], Tuple[str, int, Awaitable[Any]]],
    tracer: Any = None,
) -> None:
    """Run ``lanes`` closed-loop callers through one window.

    ``op_for(lane, j, k)`` returns ``(kind, values, awaitable)`` for the
    lane's ``j``-th op and the run's ``k``-th op. Refused, failed and
    timed-out ops are counted as failed (``BackpressureError``,
    ``ServiceError``, ``NodeDownError`` and every other typed error of
    the program). With a tracer, each op runs inside a ``client.<kind>``
    entry span so the layers it reaches become its children.
    """
    failures = _op_failures()
    counter = itertools.count()
    spans: Dict[str, Callable[[Awaitable[Any]], Awaitable[Any]]] = {}

    async def _op(aw: Awaitable[Any]) -> Any:
        return await aw

    async def lane(i: int) -> None:
        for j in itertools.count():
            if not win.open():
                return
            kind, values, aw = op_for(i, j, next(counter))
            if tracer is not None:
                if kind not in spans:
                    spans[kind] = tracer.wrap(_op, f"client.{kind}", entry=True)
                aw = spans[kind](aw)
            t0 = time.perf_counter()
            try:
                await aw
                ok = True
            except failures:
                ok = False
            win.record(kind, t0, time.perf_counter(), values, ok)

    win.start()
    tasks = [asyncio.ensure_future(lane(i)) for i in range(lanes)]
    done, pending = await asyncio.wait(
        tasks, timeout=win.warmup + win.seconds + OP_TIMEOUT_S
    )
    for task in pending:
        task.cancel()
        win.attempted += 1
        win.failed += 1
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()


# ----------------------------------------------------------------------
# exact oracles (independent of the program under test)
# ----------------------------------------------------------------------


def _scaled_terms(arr: np.ndarray, scale_bits: int):
    """Integer mantissas and shifts with ``x == mant * 2**(shift - scale_bits)``."""
    m, e = np.frexp(np.asarray(arr, dtype=np.float64))
    mant = (m * 2.0**53).astype(np.int64)
    shift = e.astype(np.int64) - 53 + scale_bits
    return mant.tolist(), shift.tolist()


def _shifted(mant: int, shift: int) -> int:
    # The scale makes every finite float an integer, so a right shift
    # only drops zero bits.
    return mant << shift if shift >= 0 else mant >> -shift


def scaled_sum(arr: np.ndarray) -> int:
    """Exact ``sum(arr) * 2**SUM_SCALE_BITS`` as an integer."""
    mant, shift = _scaled_terms(arr, SUM_SCALE_BITS)
    return sum(_shifted(m, s) for m, s in zip(mant, shift))


def scaled_dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact ``sum(x * y) * 2**DOT_SCALE_BITS`` as an integer."""
    mx, sx = _scaled_terms(x, SUM_SCALE_BITS)
    my, sy = _scaled_terms(y, SUM_SCALE_BITS)
    return sum(
        _shifted(a * b, s + t) for a, s, b, t in zip(mx, sx, my, sy)
    )


def round_scaled(total: int, scale_bits: int) -> float:
    """``total / 2**scale_bits`` correctly rounded to nearest (ties to even).

    Python's integer true division is correctly rounded.
    """
    return total / (1 << scale_bits)


def reference_fsum(arr: np.ndarray) -> float:
    """Correctly rounded sum of one array (the MapReduce references)."""
    return math.fsum(arr)


# ----------------------------------------------------------------------
# leak checks
# ----------------------------------------------------------------------

_SHM = Path("/dev/shm")


def shm_segments() -> Optional[set]:
    """Names in ``/dev/shm`` (``None`` where the platform has none)."""
    if not _SHM.is_dir():
        return None
    return set(os.listdir(_SHM))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
