"""Sum kernels: one fold/combine/round/wire protocol for every plane.

Importing this package registers the built-in kernels::

    >>> from repro.kernels import get_kernel, kernel_sum
    >>> kernel = get_kernel("sparse")
    >>> kernel_sum(kernel, [[1e100, 1.0, -1e100]])
    1.0

See :mod:`repro.kernels.base` for the protocol and the registry, and
:mod:`repro.plan` for the planner that picks a plane x kernel for a
described dataset.
"""

from repro.kernels.base import (
    KernelStream,
    SumKernel,
    get_kernel,
    kernel_fold,
    kernel_names,
    kernel_sum,
    register_kernel,
)
from repro.kernels.accumulators import (
    DenseKernel,
    RunningSumKernel,
    SmallKernel,
    SparseKernel,
)
from repro.kernels.binned import BinnedKernel, BinnedPartial

__all__ = [
    "SumKernel",
    "KernelStream",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "kernel_sum",
    "kernel_fold",
    "SparseKernel",
    "DenseKernel",
    "SmallKernel",
    "RunningSumKernel",
    "BinnedKernel",
    "BinnedPartial",
]
