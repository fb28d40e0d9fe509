"""Simulated HDFS-style block store.

The paper's experimental setup assumes "the input is already loaded in
a Hadoop Distributed File System (HDFS) where the input is partitioned
into 128 MB blocks which are stored on the local disks of cluster
nodes", and its Spark job begins with "each machine loads the HDFS
blocks that are physically stored on its local disk".

:class:`BlockStore` models exactly that: a dataset is split into
fixed-size blocks assigned round-robin to node ids; the MapReduce
runtime schedules each block's combine step on its home node (data
locality), which is what makes the combine phase embarrassingly
parallel.

With ``shared=True`` the store is the placement side of the zero-copy
data plane: ``put`` copies the dataset into a shared-memory segment
**once**, every :class:`Block`'s ``data`` is a view into it, and
:meth:`BlockStore.block_refs` hands out the lightweight
:class:`~repro.mapreduce.dataplane.BlockRef` descriptors pool workers
resolve in place — the analogue of workers reading their local HDFS
blocks instead of receiving them over the wire. Such a store creates a
segment per dataset and unlinks it on :meth:`~BlockStore.delete` or
:meth:`~BlockStore.close`. ``put(..., plane=...)`` instead copies into
a plane someone else owns — a worker pool's, whose one segment lives as
long as the pool, so each ``parallel_sum`` call costs one copy into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.mapreduce.dataplane import BlockRef, ShmDataPlane
from repro.util.validation import check_positive_int, ensure_float64_array

__all__ = ["Block", "BlockStore"]

#: Default items per block: 128 MB of float64, matching the paper's HDFS
#: block size. Scaled down in tests/benches via the constructor.
DEFAULT_BLOCK_ITEMS = (128 * 1024 * 1024) // 8


@dataclass(frozen=True)
class Block:
    """One stored block: payload plus placement metadata.

    ``ref`` is set on shared-memory stores: the zero-copy descriptor
    for the same bytes ``data`` views.
    """

    dataset: str
    index: int
    node: int
    data: np.ndarray
    ref: Optional[BlockRef] = None


class BlockStore:
    """In-memory stand-in for HDFS: named datasets in placed blocks.

    Args:
        nodes: number of storage nodes blocks are spread across.
        block_items: items per block (default: the 128 MB equivalent).
        shared: place datasets in shared memory so blocks can cross the
            executor boundary as descriptors instead of payloads. Call
            :meth:`close` (or use the store as a context manager) to
            unlink the segments.
    """

    def __init__(
        self,
        nodes: int = 1,
        block_items: int = DEFAULT_BLOCK_ITEMS,
        *,
        shared: bool = False,
    ) -> None:
        self.nodes = check_positive_int(nodes, name="nodes")
        self.block_items = check_positive_int(block_items, name="block_items")
        self.shared = shared
        self._datasets: Dict[str, List[Block]] = {}
        self._planes: Dict[str, ShmDataPlane] = {}

    def put(
        self, name: str, values, *, plane: Optional[ShmDataPlane] = None
    ) -> List[Block]:
        """Load a dataset: split into blocks, place round-robin.

        On a shared store the dataset is copied into a fresh
        shared-memory segment the store owns. Given a ``plane``, it is
        copied into that plane's reusable segment instead
        (:meth:`~repro.mapreduce.dataplane.ShmDataPlane.refill`), which
        the plane's owner releases. Either way this is the one and only
        copy the data plane performs.
        """
        if name in self._datasets:
            raise ValueError(f"dataset {name!r} already stored")
        arr = ensure_float64_array(values)
        if plane is not None:
            segment, _ = plane.refill(arr)
        elif self.shared:
            plane = self._planes[name] = ShmDataPlane()
            segment, _ = plane.share_array(arr)
        refs: Optional[List[BlockRef]] = None
        if plane is not None:
            refs = plane.refs_for_array(segment, int(arr.size), self.block_items)
        blocks: List[Block] = []
        for i, start in enumerate(range(0, max(arr.size, 1), self.block_items)):
            chunk = arr[start : start + self.block_items]
            if chunk.size == 0 and i > 0:
                break
            ref = refs[i] if refs is not None else None
            data = plane.view(ref) if ref is not None else chunk
            blocks.append(
                Block(dataset=name, index=i, node=i % self.nodes, data=data, ref=ref)
            )
        self._datasets[name] = blocks
        return blocks

    def blocks(self, name: str) -> List[Block]:
        """All blocks of a dataset, in index order."""
        return list(self._datasets[name])

    def block_refs(self, name: str) -> List[BlockRef]:
        """Zero-copy descriptors for a dataset (shared stores only)."""
        refs = [b.ref for b in self._datasets[name]]
        if any(r is None for r in refs):
            raise ValueError(
                f"dataset {name!r} is not in shared memory; "
                "construct the store with shared=True"
            )
        return refs  # type: ignore[return-value]

    def blocks_on_node(self, name: str, node: int) -> List[Block]:
        """The locality view: blocks whose home is ``node``."""
        return [b for b in self._datasets[name] if b.node == node]

    def delete(self, name: str) -> None:
        """Drop a dataset (and unlink its shared segment, if any)."""
        self._datasets.pop(name)
        plane = self._planes.pop(name, None)
        if plane is not None:
            plane.close()

    def close(self) -> None:
        """Drop every dataset this store placed in shared memory and
        unlink its segment (idempotent)."""
        for name in list(self._planes):
            self.delete(name)

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __contains__(self, name: str) -> bool:
        return name in self._datasets
