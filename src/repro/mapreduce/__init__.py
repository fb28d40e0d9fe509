"""MapReduce substrate and the paper's Section 6 summation jobs.

* :class:`BlockStore` — simulated HDFS block placement;
* :func:`run_job` + executors — the single-round engine;
* :class:`BlockRef` / :class:`ShmDataPlane` — the zero-copy
  shared-memory data plane blocks travel on;
* :class:`KernelSumJob` — the one exact job, over any registered
  kernel; :class:`SparseSuperaccumulatorJob` /
  :class:`SmallSuperaccumulatorJob` name it for the two kernels of
  Figures 1-3 (:class:`NaiveSumJob` is the inexact control);
* :func:`parallel_sum` — the one-call driver.
"""

from repro.mapreduce.dataplane import BlockRef, ShmDataPlane, resolve_block
from repro.mapreduce.driver import parallel_sum
from repro.mapreduce.hdfs import Block, BlockStore
from repro.mapreduce.partitioner import (
    Partitioner,
    RandomPartitioner,
    RoundRobinPartitioner,
)
from repro.mapreduce.runtime import (
    JobResult,
    MapReduceJob,
    MultiprocessExecutor,
    SerialExecutor,
    SimulatedClusterExecutor,
    pick_start_method,
    run_job,
    shared_process_executor,
    shutdown_shared_executors,
)
from repro.mapreduce.sum_job import (
    KernelSumJob,
    NaiveSumJob,
    NoCombinerSumJob,
    SmallSuperaccumulatorJob,
    SparseSuperaccumulatorJob,
)

__all__ = [
    "parallel_sum",
    "Block",
    "BlockStore",
    "BlockRef",
    "ShmDataPlane",
    "resolve_block",
    "SimulatedClusterExecutor",
    "pick_start_method",
    "shared_process_executor",
    "shutdown_shared_executors",
    "Partitioner",
    "RandomPartitioner",
    "RoundRobinPartitioner",
    "JobResult",
    "MapReduceJob",
    "MultiprocessExecutor",
    "SerialExecutor",
    "run_job",
    "KernelSumJob",
    "NaiveSumJob",
    "NoCombinerSumJob",
    "SmallSuperaccumulatorJob",
    "SparseSuperaccumulatorJob",
]
