"""Command line of the benchmark suite.

One workload in this interpreter (the form ``bench.py`` exposes)::

    python3 benchmarks/suite/bench.py --workload serve_small --seed 1 \\
        --seconds 10 --trace 0

prints a table of every metric with its unit and sample count, then,
as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.

The whole suite, each workload in a fresh interpreter, one at a time::

    PYTHONPATH=src python -m benchmarks.suite run --seed 42 --out res.json
    PYTHONPATH=src python -m benchmarks.suite trace --seed 42 --out trace.json
    python -m benchmarks.suite compare --parent p1.json p2.json --change c1.json c2.json \\
        --claim serve_small:values_per_s
    PYTHONPATH=src python -m benchmarks.suite baseline r1.json r2.json r3.json r4.json r5.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from benchmarks.suite import common
from benchmarks.suite.common import RunConfig, RunResult


SPEC_PATH = common.ROOT / "BENCHMARK.json"
BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"
WORKDIR = common.ROOT / ".bench_work"


def load_spec(path: Path = SPEC_PATH) -> Dict:
    return json.loads(path.read_text())


def _workload(name: str) -> Callable[[RunConfig], RunResult]:
    from benchmarks.suite import workload_cluster, workload_mapreduce, workload_serve

    return {
        "mapreduce_sum": workload_mapreduce.run,
        "serve_small": workload_serve.run_small,
        "serve_bulk_rw": workload_serve.run_bulk_rw,
        "cluster_wal": workload_cluster.run,
    }[name]


WORKLOADS = ("mapreduce_sum", "serve_small", "serve_bulk_rw", "cluster_wal")


def _emitted(spec: Dict, result: RunResult, trace: bool) -> Dict[str, Dict]:
    """The declared metrics of this mode, each with value, unit and samples.

    A per-layer metric the workload does not measure — its layer is not
    on the workload's path — reads 0.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in declared}
    unknown = set(result.metrics) - names
    if unknown:
        raise RuntimeError(f"workload measured undeclared metrics: {sorted(unknown)}")
    if not trace and names - set(result.metrics):
        raise RuntimeError(
            f"workload missed end-to-end metrics: {sorted(names - set(result.metrics))}"
        )
    return {
        m["name"]: {
            "value": float(result.metrics.get(m["name"], 0.0)),
            "unit": m["unit"],
            "samples": result.samples.get(m["name"]),
        }
        for m in declared
    }


def run_one(argv: Sequence[str]) -> int:
    """Run one workload here; print the table and the result line."""
    parser = argparse.ArgumentParser(prog="bench.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, one set-up")
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)

    spec = load_spec()
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        workdir=workdir,
    )
    try:
        result = _workload(args.workload)(cfg)
    finally:
        common.remove_tree(workdir)
    metrics = _emitted(spec, result, cfg.trace)

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        samples = "" if m["samples"] is None else f"  (n={m['samples']})"
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{samples}")
    print(
        f"  exactness checks: {result.checks}, "
        f"attempted {result.attempted}, failed {result.failed}"
    )
    for problem in result.problems:
        print(f"  FAILED CHECK: {problem}")
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "quick": args.quick,
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "checks": result.checks,
            "problems": result.problems,
            "metrics": metrics,
        }
        args.out.write_text(json.dumps(record, indent=1))
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if result.correct else 1


# ----------------------------------------------------------------------
# suite subcommands
# ----------------------------------------------------------------------


def _suite(args: argparse.Namespace, trace: bool) -> int:
    seconds = load_spec()["run_seconds"]
    WORKDIR.mkdir(exist_ok=True)
    runs: List[Dict] = []
    status = 0
    for w in WORKLOADS:
        detail = WORKDIR / f"record-{os.getpid()}.json"
        cmd = [
            sys.executable, str(Path(__file__).resolve().parent / "bench.py"),
            "--workload", w, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out", str(detail),
        ]
        proc = subprocess.run(cmd, cwd=common.ROOT)
        if detail.exists():
            runs.append(json.loads(detail.read_text()))
            detail.unlink()
        if proc.returncode != 0:
            status = 1
    if args.out is not None:
        doc = {"trace": trace, "seconds": seconds, "runs": runs}
        args.out.write_text(json.dumps(doc, indent=1))
    return status


def _compare(args: argparse.Namespace) -> int:
    from benchmarks.suite.compare import claim_met, compare_sets, values_of

    spec = load_spec()
    parent = [r for f in args.parent for r in json.loads(f.read_text())["runs"]]
    change = [r for f in args.change for r in json.loads(f.read_text())["runs"]]
    rows = compare_sets(spec, parent, change)
    head = ("workload", "metric", "parent q1/med/q3", "change q1/med/q3", "worse")
    print("{:14s} {:14s} {:>30s} {:>30s} {:>8s}  status".format(*head))
    for row in rows:
        p = "/".join(f"{v:.4g}" for v in row.parent)
        c = "/".join(f"{v:.4g}" for v in row.change)
        print(
            f"{row.workload:14s} {row.metric:14s} {p:>30s} {c:>30s} "
            f"{row.worse_by:+8.1%}  {row.status}"
        )
    status = 1 if any(r.status == "regression" for r in rows) else 0
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for claim in args.claim:
        workload, metric = claim.split(":")
        wins, pairs, met = claim_met(
            values_of(parent, workload, metric),
            values_of(change, workload, metric),
            better[metric],
        )
        verdict = "met" if met else "NOT met"
        print(f"claim {claim}: change wins {wins}/{pairs} pairs; claim {verdict}")
        status = status or (0 if met else 1)
    return status


def _baseline(args: argparse.Namespace) -> int:
    from benchmarks.harness import bench_stamp
    from benchmarks.suite.compare import quartiles, values_of

    spec = load_spec()
    docs = [json.loads(f.read_text()) for f in args.results]
    runs = [r for doc in docs for r in doc["runs"]]
    baseline: Dict[str, Dict] = {}
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            values = values_of(runs, w["name"], m["name"])
            if values:
                q1, med, q3 = quartiles(values)
                baseline.setdefault(w["name"], {})[m["name"]] = {
                    "median": med, "q1": q1, "q3": q3, "unit": m["unit"], "runs": len(values),
                }
    out = {"stamp": bench_stamp(), "seconds": docs[0]["seconds"], "metrics": baseline}
    BASELINE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {BASELINE_PATH}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "untraced end-to-end run of every workload"),
        ("trace", "traced run of every workload: per-layer metrics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", type=Path, default=None)
    p = sub.add_parser(
        "compare", help="parent vs change result sets; runs pair up in file order"
    )
    p.add_argument("--parent", type=Path, nargs="+", required=True)
    p.add_argument("--change", type=Path, nargs="+", required=True)
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    p = sub.add_parser("baseline", help="record medians and quartiles of result sets")
    p.add_argument("results", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.command in ("run", "trace"):
        return _suite(args, trace=args.command == "trace")
    if args.command == "compare":
        return _compare(args)
    return _baseline(args)
