"""repro — parallel algorithms for exactly summing floating-point numbers.

A from-scratch reproduction of Goodrich & Eldawy, *Parallel Algorithms
for Summing Floating-Point Numbers* (SPAA 2016): the carry-free sparse
superaccumulator representation, PRAM / external-memory / MapReduce
summation algorithms, the sequential baselines the paper compares
against, and the data generators and harnesses that regenerate its
experimental figures.

Quick start::

    import numpy as np
    from repro import exact_sum

    x = np.array([1e16, 1.0, -1e16])
    assert exact_sum(x) == 1.0          # float(np.sum(x)) would be 0.0

Every execution plane (serial, streaming, serving, MapReduce, external
memory, BSP, PRAM) consumes the same kernel protocol::

    from repro.kernels import get_kernel, kernel_sum
    from repro.plan import DataDescriptor, plan_sum

    total = kernel_sum(get_kernel("binned"), [x])     # fold/combine/round
    plan = plan_sum(DataDescriptor.describe_array(x)) # plane x kernel
    assert plan.execute() == total == 1.0
"""

from repro.core import (
    DEFAULT_RADIX,
    RadixConfig,
    SparseSuperaccumulator,
    DenseSuperaccumulator,
    SmallSuperaccumulator,
    TruncatedSparseSuperaccumulator,
    condition_number,
    exact_sum,
    exact_sum_fraction,
    exact_sum_scaled,
    two_sum,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_RADIX",
    "RadixConfig",
    "SparseSuperaccumulator",
    "DenseSuperaccumulator",
    "SmallSuperaccumulator",
    "TruncatedSparseSuperaccumulator",
    "condition_number",
    "exact_sum",
    "exact_sum_fraction",
    "exact_sum_scaled",
    "two_sum",
    "__version__",
]
