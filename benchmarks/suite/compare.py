"""Parent-versus-change comparison of two result sets.

A result set is the JSON file ``run`` writes: a list of run records,
each with a workload and its end-to-end metrics. For every workload ×
end-to-end metric the comparison reports each side's median and
quartiles and one status. Quartiles interpolate between the samples
(``statistics.quantiles(values, n=4, method="inclusive")``, the same
as ``numpy.percentile``); the default ``exclusive`` method would put
them halfway to the minimum and maximum of a 5-run set.

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound;
* ``unresolved`` — either side's run spread (interquartile range over
  median) exceeds the bound, so the data cannot tell, unless every
  change run is better than every parent run;
* ``ok`` — otherwise.

A named claim (``workload:metric``) applies the gain rule: the change
wins at least 9/10 of the pairs (parent run i against change run i,
which the caller ran alternately; ties count for neither side) and the
gap between the medians exceeds the parent's interquartile range.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


CLAIM_WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _better(a: float, b: float, better: str) -> bool:
    """Whether ``a`` reads better than ``b``."""
    return a > b if better == "higher" else a < b


@dataclass
class Row:
    workload: str
    metric: str
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    worse_by: float
    status: str


def compare_metric(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[float, str]:
    """(share by which the change's median is worse, status)."""
    pq, cq = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cq[1] - pq[1]) / abs(pq[1])
    spread = max((q[2] - q[0]) / abs(q[1]) for q in (pq, cq))
    all_better = all(_better(c, p, better) for c in change for p in parent)
    if spread > bound and not all_better:
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "regression"
    return worse_by, "ok"


def claim_met(
    parent: Sequence[float], change: Sequence[float], better: str
) -> Tuple[int, int, bool]:
    """(wins, pairs, met) under the gain rule."""
    pairs = list(zip(parent, change))
    wins = sum(_better(c, p, better) for p, c in pairs)
    pq, cq = quartiles(parent), quartiles(change)
    gap_ok = _better(cq[1], pq[1], better) and abs(cq[1] - pq[1]) > pq[2] - pq[0]
    met = bool(pairs) and wins >= CLAIM_WIN_SHARE * len(pairs) and gap_ok
    return wins, len(pairs), met


def values_of(runs: List[Dict], workload: str, metric: str) -> List[float]:
    return [
        float(r["metrics"][metric]["value"])
        for r in runs
        if r["workload"] == workload and metric in r["metrics"]
    ]


def compare_sets(spec: Dict, parent: List[Dict], change: List[Dict]) -> List[Row]:
    rows: List[Row] = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            p = values_of(parent, w["name"], m["name"])
            c = values_of(change, w["name"], m["name"])
            if not p or not c:
                continue
            worse_by, status = compare_metric(p, c, m["better"], m["bound"])
            rows.append(
                Row(w["name"], m["name"], quartiles(p), quartiles(c), worse_by, status)
            )
    return rows
