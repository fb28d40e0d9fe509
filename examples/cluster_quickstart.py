"""Cluster quickstart: WAL-backed replicated exact summation, end to end.

Spawns three real node processes (``repro cluster node``), drives them
through the coordinator over TCP, then demonstrates the failure story
the cluster exists for: SIGKILL the stream's primary mid-ingest, keep
ingesting through failover, replay the dead node's write-ahead log,
and read a final sum bit-identical to the serial exact reference.
``--wire json|binary`` pins the coordinator's wire mode; on the
binary wire (the default) each batch ships as a codec ``RBAT`` frame
whose raw float64 payload lands verbatim in the node's WAL, so the
replay below re-folds the very bytes the clients sent. Doubles as the
CI cluster smoke test, run once per wire mode.
"""

from __future__ import annotations

import argparse
import asyncio
import tempfile
from pathlib import Path

import numpy as np

from repro.cluster import ClusterCoordinator, RemoteNodeHandle, spawn_local_cluster
from repro.core import exact_sum
from repro.data import generate


async def main(wire: str) -> None:
    data = generate("sumzero", 20_000, delta=500, seed=21)
    expected = exact_sum(data)
    batches = np.array_split(data, 40)

    with tempfile.TemporaryDirectory(prefix="repro-cluster-demo-") as tmp:
        # -- spawn 3 node processes with WALs under tmp ------------------
        procs = spawn_local_cluster(3, tmp, shards=2)
        by_id = {p.node_id: p for p in procs}
        handles = [
            RemoteNodeHandle(p.node_id, p.host, p.port, wire=wire)
            for p in procs
        ]
        coordinator = ClusterCoordinator(handles, replication=2)
        for p in procs:
            print(f"spawned {p.node_id} on {p.host}:{p.port} "
                  f"(wal={Path(p.wal).name}, wire={wire})")

        try:
            # -- replicated ingest, first half ---------------------------
            for batch in batches[:20]:
                await coordinator.append("ledger", batch)
            placement = coordinator._placement("ledger")
            print(f"placement: primary={placement.primary} "
                  f"replicas={list(placement.replicas)} epoch={placement.epoch}")

            # -- SIGKILL the primary mid-ingest --------------------------
            victim = placement.primary
            by_id[victim].kill()
            print(f"killed {victim} (SIGKILL — no flush, no goodbye)")

            # ingest continues: the coordinator fails over and retries,
            # sequence numbers dedup any member that already applied
            for batch in batches[20:]:
                await coordinator.append("ledger", batch)
            print(f"ingest finished through failover "
                  f"(failovers={coordinator.failovers})")

            # -- replay the dead node's WAL onto the survivors -----------
            replay = await coordinator.replay_wal_onto(by_id[victim].wal)
            print(f"WAL replay: {replay['records']} records, "
                  f"{replay['duplicates']} already held, "
                  f"{replay['applied']} healed")

            # -- the read is bit-identical to the serial exact sum -------
            got = await coordinator.value("ledger")
            print(f"sum = {got['value']!r} from {got['node']} "
                  f"(count={got['count']:,})")
            assert got["value"] == expected
            assert got["value"].hex() == expected.hex()
            assert got["count"] == data.size

            # -- scatter/gather: striped ingest, exact recombination -----
            await coordinator.scatter("stripe", data, chunk=1024)
            gathered = await coordinator.gather_value("stripe")
            assert gathered["value"] == expected
            print(f"scatter/gather across {gathered['nodes']} nodes "
                  f"recombines bit-identically")

            # -- cold restart: a node rebuilt from its WAL alone ---------
            # The victim's WAL holds exactly the batches it acked before
            # dying; recovery must reconstruct that prefix bit-exactly.
            prefix = np.concatenate(batches[:20])
            spec = by_id[victim].restart()
            fresh = RemoteNodeHandle(spec.node_id, spec.host, spec.port, wire=wire)
            info = await fresh.request("cluster_info")
            resp = await fresh.request("value", stream="ledger")
            await fresh.close()
            print(f"{victim} restarted from WAL: count={resp['count']:,}, "
                  f"applied={info['applied']}")
            assert resp["count"] == prefix.size
            assert resp["value"] == exact_sum(prefix)

            print("cluster quickstart OK")
        finally:
            await coordinator.close()
            for p in procs:
                p.terminate()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--wire",
        choices=("json", "binary"),
        default="binary",
        help="coordinator wire mode (default: binary)",
    )
    asyncio.run(main(parser.parse_args().wire))
