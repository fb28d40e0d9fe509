"""``mapreduce_sum``: the paper's single-round MapReduce job, back to back.

One caller runs ``parallel_sum(x, workers=2, executor="process",
method="binned", report=True)`` over three 2**22-value arrays in
rotation (well-conditioned δ=2000, sum-zero δ=1200, Anderson δ=300),
on the persistent 2-process pool and the shared-memory data plane.
Kernel folds and block placement do nearly all the work; the serve,
codec and WAL layers do none.

Worker processes cannot be wrapped, so the per-layer numbers come from
each job's :class:`~repro.mapreduce.runtime.JobResult` plus its wall
time, and from an in-process serial ``binned`` fold of the same arrays
(the single-threaded control). The trace run therefore installs no
wrappers: it reads the layers off the same untraced window, and its
``trace.overhead`` reads 0.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List

import numpy as np

from repro.data import generate
from repro.kernels import get_kernel
from repro.mapreduce import parallel_sum, shutdown_shared_executors

from benchmarks.suite import common
from benchmarks.suite.common import RunConfig, RunResult, Window, pctl


#: (distribution, delta) of the three job inputs, in rotation order.
ARRAYS = (("well", 2000), ("sumzero", 1200), ("anderson", 300))

N_FULL = 1 << 22
N_QUICK = 1 << 16
WORKERS = 2
SETUP_REPEATS = 5


def _inputs(cfg: RunConfig):
    n = N_QUICK if cfg.quick else N_FULL
    arrays = [
        generate(dist, n, delta=delta, seed=cfg.seed + i)
        for i, (dist, delta) in enumerate(ARRAYS)
    ]
    return arrays, [common.reference_fsum(a) for a in arrays]


def _job(arr: np.ndarray):
    return parallel_sum(
        arr, workers=WORKERS, executor="process", method="binned", report=True
    )


def _window(cfg: RunConfig, arrays, refs, result: RunResult):
    """Jobs back to back for one window; returns it, the measured jobs
    and their wall times."""
    win = Window(cfg.seconds)
    jobs: List = []
    win.start()
    k = 0
    while win.open():
        arr, ref = arrays[k % len(arrays)], refs[k % len(arrays)]
        t0 = time.perf_counter()
        res = _job(arr)
        t1 = time.perf_counter()
        result.expect(f"job {k} ({ARRAYS[k % len(arrays)][0]})", res.value, ref)
        win.record("job", t0, t1, arr.size, True)
        if t0 >= win.t_measure:
            jobs.append(res)
        k += 1
    result.add_window(win)
    return win, jobs, win.lat.get("job", [])


def _serial_control(arrays, refs, result: RunResult) -> float:
    """Seconds per array of an in-process serial binned fold + round."""
    kernel = get_kernel("binned")
    t0 = time.perf_counter()
    for i, arr in enumerate(arrays):
        value = kernel.round(kernel.fold(arr))
        result.expect(f"serial control {ARRAYS[i][0]}", value, refs[i])
    return (time.perf_counter() - t0) / len(arrays)


def _layers(jobs, walls, serial_s: float, n: int) -> Dict[str, float]:
    phases = {
        name: [j.phase_seconds[name] for j in jobs]
        for name in ("combine", "shuffle", "reduce", "postprocess")
    }
    outside = [w - j.total_seconds for j, w in zip(jobs, walls)]
    job_p50 = pctl(walls, 50)
    return {
        "mapreduce.combine_ms": common.ms(pctl(phases["combine"], 50)),
        "mapreduce.shuffle_ms": common.ms(pctl(phases["shuffle"], 50)),
        "mapreduce.reduce_ms": common.ms(pctl(phases["reduce"], 50)),
        "mapreduce.postprocess_ms": common.ms(pctl(phases["postprocess"], 50)),
        "mapreduce.outside_phases_ms": common.ms(pctl(outside, 50)),
        "mapreduce.dispatch_bytes": float(np.median([j.dispatch_bytes for j in jobs])),
        "mapreduce.shuffle_bytes": float(np.median([j.shuffle_bytes for j in jobs])),
        "kernels.serial_fold_melem_s": n / serial_s / 1e6,
        "mapreduce.parallel_efficiency": serial_s / (WORKERS * job_p50),
        "trace.coverage": sum(j.total_seconds for j in jobs) / sum(walls),
    }


def run(cfg: RunConfig) -> RunResult:
    result = RunResult()
    arrays, refs = _inputs(cfg)
    shm_before = common.shm_segments()
    try:
        if not cfg.trace:
            setups = []
            for i in range(1 if cfg.quick else SETUP_REPEATS):
                time.sleep(common.SETUP_GAP_S if i else 0)
                shutdown_shared_executors()
                t0 = time.perf_counter()
                res = _job(arrays[0])
                setups.append(time.perf_counter() - t0)
                result.expect("setup job", res.value, refs[0])
            result.setup(setups)

        win, jobs, walls = _window(cfg, arrays, refs, result)
        if not cfg.trace:
            result.metrics["values_per_s"] = win.values_per_s()
            result.samples["values_per_s"] = len(walls)
        else:
            result.timing("op_p50_ms", walls, 50)
            result.timing("op_p99_ms", walls, 99)
            serial_s = _serial_control(arrays, refs, result)
            result.metrics.update(_layers(jobs, walls, serial_s, arrays[0].size))
    finally:
        try:
            shutdown_shared_executors()
            result.problems.extend(_leaks(shm_before))
        finally:
            _stop_resource_tracker()
    return result


def _leaks(shm_before) -> List[str]:
    leaks = []
    if multiprocessing.active_children():
        leaks.append("pool processes still alive after shutdown_shared_executors()")
    shm_after = common.shm_segments()
    if shm_before is not None and shm_after - shm_before:
        leaks.append(f"new /dev/shm segments: {sorted(shm_after - shm_before)}")
    return leaks


def _stop_resource_tracker() -> None:
    """Stop and reap the resource tracker the pool started.

    ``multiprocessing`` starts it as a child but never waits for it: it
    would exit only after this process, orphaned. Called after the
    /dev/shm check, since a stopping tracker unlinks what it still holds.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # non-POSIX: no tracker
        return
    resource_tracker._resource_tracker._stop()
