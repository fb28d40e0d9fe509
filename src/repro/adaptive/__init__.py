"""Condition-adaptive summation (Theorem 4 as a wall-clock win).

Public surface:

* :func:`adaptive_sum` / :func:`adaptive_sum_detail` — one-shot sums
  that try the Tier-0 certificate and otherwise make one binned
  deposit; bit-identical to ``exact_sum``.
* :class:`TierCounters` — tier telemetry, shared by the serving plane's
  ``sum`` op and its shards' folds.
* :func:`certified_cascade_sum` — the Tier-0 primitive, exposed for
  callers (e.g. the ``adaptive`` kernel's per-block folds) that want
  the certificate itself.
"""

from repro.adaptive.cascade import CascadeCertificate, certified_cascade_sum
from repro.adaptive.engine import (
    AdaptiveResult,
    TierCounters,
    adaptive_sum,
    adaptive_sum_detail,
)

__all__ = [
    "AdaptiveResult",
    "CascadeCertificate",
    "TierCounters",
    "adaptive_sum",
    "adaptive_sum_detail",
    "certified_cascade_sum",
]
