"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write one of the four experimental distributions to a
  ``.f64`` dataset file;
* ``sum`` — exactly sum a dataset file with a chosen algorithm and
  print the correctly rounded result (hex and decimal);
* ``info`` — dataset diagnostics: n, exponent span, condition number,
  exact sum vs naive sum;
* ``plan`` — show which execution plane and kernel the backend
  planner (:mod:`repro.plan`) would schedule for a given input shape;
* ``serve`` — run the sharded exact-aggregation service
  (:mod:`repro.serve`) until SIGINT or a client ``shutdown`` op;
* ``lint`` — run reprolint (:mod:`repro.analysis`), the AST
  float-safety & architecture-invariant linter, over a source tree.

Example::

    python -m repro generate sumzero /tmp/d.f64 -n 1000000 --delta 500
    python -m repro sum /tmp/d.f64 --method mapreduce-sparse --workers 8
    python -m repro info /tmp/d.f64
    python -m repro plan --file /tmp/d.f64 --workers 8
    python -m repro serve --port 8765 --shards 4 --state-path /tmp/state.json
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.baselines import hybrid_sum, ifastsum
from repro.core import condition_number, exact_sum
from repro.core.fpinfo import exponent_span
from repro.data import DISTRIBUTIONS, generate, read_dataset, write_dataset
from repro.mapreduce import parallel_sum
from repro.util.bits import same_float

__all__ = ["main"]

_METHODS: Dict[str, Callable[[np.ndarray, argparse.Namespace], float]] = {
    "binned": lambda x, a: exact_sum(x, method="binned"),
    "sparse": lambda x, a: exact_sum(x, method="sparse"),
    "small": lambda x, a: exact_sum(x, method="small"),
    "dense": lambda x, a: exact_sum(x, method="dense"),
    "ifastsum": lambda x, a: ifastsum(x),
    "hybrid": lambda x, a: hybrid_sum(x),
    "mapreduce-sparse": lambda x, a: parallel_sum(
        x, method="sparse", workers=a.workers, executor="auto"
    ),
    "mapreduce-small": lambda x, a: parallel_sum(
        x, method="small", workers=a.workers, executor="auto"
    ),
    # reprolint: disable-next-line=FP003 -- 'naive' is the measured control, not a sum path
    "naive": lambda x, a: float(np.sum(x)),
}


def _cmd_generate(args: argparse.Namespace) -> int:
    data = generate(args.distribution, args.n, delta=args.delta, seed=args.seed)
    count = write_dataset(args.path, data)
    print(f"wrote {count:,} values ({args.distribution}, delta={args.delta}, "
          f"seed={args.seed}) to {args.path}")
    return 0


def _cmd_sum(args: argparse.Namespace) -> int:
    data = read_dataset(args.path)
    fn = _METHODS[args.method]
    t0 = time.perf_counter()
    result = fn(data, args)
    elapsed = time.perf_counter() - t0
    print(f"method : {args.method}")
    print(f"n      : {data.size:,}")
    print(f"sum    : {result!r}")
    print(f"hex    : {result.hex() if result == result else 'nan'}")
    print(f"time   : {elapsed:.4f} s")
    if args.check and args.method != "naive":
        ref = exact_sum(data, method="sparse")
        ok = same_float(result, ref)
        print(f"check  : {'OK (correctly rounded)' if ok else f'MISMATCH vs {ref!r}'}")
        if not ok:
            return 1
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    data = read_dataset(args.path)
    print(f"n              : {data.size:,}")
    if data.size == 0:
        return 0
    print(f"exponent span  : {exponent_span(data)}")
    print(f"min / max      : {data.min():.6g} / {data.max():.6g}")
    exact = exact_sum(data)
    naive = float(np.sum(data))  # reprolint: disable=FP003 -- diagnostic shows the naive error
    print(f"exact sum      : {exact!r}")
    print(f"naive np.sum   : {naive!r}")
    print(f"naive correct  : {same_float(naive, exact)}")
    cond = condition_number(data)
    print(f"condition C(X) : {cond:.6g}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.plan import DataDescriptor, plan_sum

    if (args.file is None) == (args.n is None):
        print("plan: give exactly one of --file or --n", file=sys.stderr)
        return 2
    workers = args.workers or 1
    if args.file is not None:
        desc = DataDescriptor.describe_file(args.file, workers=workers)
    else:
        desc = DataDescriptor(n=args.n, layout="memory", workers=workers)
    try:
        plan = plan_sum(desc, kernel=args.kernel, mode=args.mode)
    except ValueError as exc:
        print(f"plan: {exc}", file=sys.stderr)
        return 2
    info = plan.describe()
    for key in ("plane", "kernel", "workers", "block_items", "n", "layout"):
        print(f"{key:<12s}: {info[key]:,}" if isinstance(info[key], int)
              else f"{key:<12s}: {info[key]}")
    print(f"{'reason':<12s}: {info['reason']}")
    if args.explain:
        print("candidates  :")
        for cand in plan.candidates:
            mark = "+" if cand.accepted else "-"
            chosen = "  (selected)" if cand.name == plan.kernel else ""
            print(f"  {mark} {cand.name:<12s}{chosen} {cand.reason}")
    if args.run:
        if args.file is None:
            print("plan: --run needs --file (no data for a size-only plan)",
                  file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        result = plan.execute()
        elapsed = time.perf_counter() - t0
        print(f"{'sum':<12s}: {result!r}")
        print(f"{'time':<12s}: {elapsed:.4f} s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="exact floating-point summation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an experimental dataset")
    g.add_argument("distribution", choices=sorted(DISTRIBUTIONS))
    g.add_argument("path")
    g.add_argument("-n", type=int, default=1_000_000)
    g.add_argument("--delta", type=int, default=2000)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=_cmd_generate)

    s = sub.add_parser("sum", help="sum a dataset file")
    s.add_argument("path")
    s.add_argument("--method", choices=sorted(_METHODS), default="sparse")
    s.add_argument("--workers", type=int, default=None)
    s.add_argument("--check", action="store_true",
                   help="verify against the sparse superaccumulator")
    s.set_defaults(fn=_cmd_sum)

    i = sub.add_parser("info", help="dataset diagnostics")
    i.add_argument("path")
    i.set_defaults(fn=_cmd_info)

    p = sub.add_parser("plan", help="show the backend planner's decision")
    p.add_argument("--file", default=None, help="plan for a .f64 dataset file")
    p.add_argument("--n", type=int, default=None,
                   help="plan for an in-memory array of this size")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--kernel", default=None,
                   help="force a kernel (default: planner's choice)")
    p.add_argument("--mode", default="nearest",
                   help="rounding mode the plan must honor")
    p.add_argument("--explain", action="store_true",
                   help="show why each candidate kernel was accepted or rejected")
    p.add_argument("--run", action="store_true",
                   help="execute the plan (needs --file)")
    p.set_defaults(fn=_cmd_plan)

    t = sub.add_parser("selftest", help="fast whole-install verification")
    t.set_defaults(fn=_cmd_selftest)

    from repro.analysis.cli import add_lint_parser

    add_lint_parser(sub)

    v = sub.add_parser("serve", help="run the exact-aggregation service")
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 picks an ephemeral port)")
    v.add_argument("--shards", type=int, default=4)
    v.add_argument("--state-path", default=None,
                   help="snapshot file: restored on start if present, saved on shutdown")
    v.add_argument("--no-shutdown-op", action="store_true",
                   help="ignore client 'shutdown' requests")
    v.set_defaults(fn=_cmd_serve)

    c = sub.add_parser("cluster", help="distributed exact-summation cluster")
    csub = c.add_subparsers(dest="cluster_command", required=True)

    cn = csub.add_parser("node", help="run one WAL-backed cluster node process")
    cn.add_argument("--id", required=True, help="node id (stable across restarts)")
    cn.add_argument("--host", default="127.0.0.1")
    cn.add_argument("--port", type=int, default=0,
                    help="TCP port (0 picks an ephemeral port)")
    cn.add_argument("--wal", default=None,
                    help="write-ahead log path (replayed on start)")
    cn.add_argument("--shards", type=int, default=2)
    cn.add_argument("--kernel", default="running")
    cn.set_defaults(fn=_cmd_cluster_node)

    cs = csub.add_parser("spawn", help="spawn a local N-node cluster")
    cs.add_argument("--dir", required=True,
                    help="cluster directory (WALs + cluster.json spec)")
    cs.add_argument("-n", "--nodes", type=int, default=3)
    cs.add_argument("--shards", type=int, default=2)
    cs.add_argument("--kernel", default="running")
    cs.add_argument("--replication", type=int, default=2)
    cs.set_defaults(fn=_cmd_cluster_spawn)

    ct = csub.add_parser("status", help="probe every node in a cluster spec")
    ct.add_argument("--dir", required=True)
    ct.set_defaults(fn=_cmd_cluster_status)

    ck = csub.add_parser("kill-node", help="SIGKILL one node of a spawned cluster")
    ck.add_argument("--dir", required=True)
    ck.add_argument("--id", required=True)
    ck.set_defaults(fn=_cmd_cluster_kill)
    return parser


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.selftest import run_selftest

    return 0 if run_selftest() else 1


def _wire_stat_lines(wire: dict) -> list:
    """Render a metrics ``wire`` section as aligned report lines."""
    lines = []
    for mode in sorted(wire):
        w = wire[mode]
        mib = w["payload_bytes"] / (1024.0 * 1024.0)
        lines.append(
            f"  wire[{mode}]: {int(w['frames'])} frame(s), "
            f"{int(w['values'])} value(s), {mib:.2f} MiB payload "
            f"({w['mean_values_per_frame']:.1f} values/frame, "
            f"{w['payload_bytes_per_s'] / 1e6:.2f} MB/s)"
        )
    return lines


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.serve import ReproServer, ReproService, ServeConfig

    async def run() -> int:
        config = ServeConfig(
            shards=args.shards,
            allow_shutdown=not args.no_shutdown_op,
        )
        service = ReproService(config)
        await service.start()
        if args.state_path and os.path.exists(args.state_path):
            restored = await service.load_state(args.state_path)
            print(f"restored {restored} stream(s) from {args.state_path}")
        server = ReproServer(service, args.host, args.port)
        await server.start()
        # SIGINT/SIGTERM exit through the same clean path as a client
        # shutdown op, so --state-path snapshots survive Ctrl-C.
        import signal

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass
        print(
            f"repro serve listening on {args.host}:{server.port} "
            f"(shards={args.shards})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            snapshot = service.metrics.snapshot()
            if snapshot["wire"]:
                print("ingest wire summary:")
                for line in _wire_stat_lines(snapshot["wire"]):
                    print(line)
            if args.state_path:
                saved = await service.save_state(args.state_path)
                print(f"saved {saved} stream(s) to {args.state_path}")
            await service.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shut down cleanly")
        return 0


def _cmd_cluster_node(args: argparse.Namespace) -> int:
    from repro.cluster.launcher import serve_node

    try:
        return serve_node(
            args.id,
            host=args.host,
            port=args.port,
            wal=args.wal,
            shards=args.shards,
            kernel=args.kernel,
        )
    except KeyboardInterrupt:
        return 0


def _cmd_cluster_spawn(args: argparse.Namespace) -> int:
    from repro.cluster.launcher import spawn_local_cluster

    procs = spawn_local_cluster(
        args.nodes,
        args.dir,
        shards=args.shards,
        kernel=args.kernel,
        replication=args.replication,
    )
    for proc in procs:
        spec = proc.spec()
        print(f"{spec.node_id:<10s} {spec.host}:{spec.port}  pid={spec.pid}  "
              f"wal={spec.wal}")
    print(f"cluster of {len(procs)} node(s) spawned; spec in "
          f"{args.dir}/cluster.json")
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import ClusterCoordinator, RemoteNodeHandle, load_spec

    specs = load_spec(args.dir)

    async def run() -> int:
        handles = [
            RemoteNodeHandle(s.node_id, s.host, s.port, timeout=5.0)
            for s in specs
        ]
        coordinator = ClusterCoordinator(handles)
        try:
            health = await coordinator.ping_all()
            wire_stats = {}
            for handle in handles:
                if not health[handle.node_id]:
                    continue
                try:
                    resp = await handle.request("stats")
                    wire_stats[handle.node_id] = resp["stats"].get("wire", {})
                except Exception:
                    wire_stats[handle.node_id] = {}
        finally:
            await coordinator.close()
        down = 0
        for spec in specs:
            state = "up" if health[spec.node_id] else "DOWN"
            down += 0 if health[spec.node_id] else 1
            print(f"{spec.node_id:<10s} {spec.host}:{spec.port:<6d} {state}")
            for line in _wire_stat_lines(wire_stats.get(spec.node_id, {})):
                print(line)
        return 1 if down else 0

    return asyncio.run(run())


def _cmd_cluster_kill(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.cluster import load_spec

    for spec in load_spec(args.dir):
        if spec.node_id == args.id:
            if spec.pid is None:
                print(f"cluster: no recorded pid for {args.id}", file=sys.stderr)
                return 2
            try:
                os.kill(spec.pid, signal.SIGKILL)
            except ProcessLookupError:
                print(f"{args.id} (pid {spec.pid}) already gone")
                return 0
            print(f"killed {args.id} (pid {spec.pid}); its WAL remains at "
                  f"{spec.wal}")
            return 0
    print(f"cluster: unknown node id {args.id!r}", file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
