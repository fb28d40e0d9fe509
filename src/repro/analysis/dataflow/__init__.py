"""Cross-module dataflow engine powering the CC100/CC101/FP100 rules.

Layering:

* :mod:`~repro.analysis.dataflow.callgraph` — :class:`ProjectIndex`,
  the project-wide function/class index and call resolver (registry
  dispatch, ``functools.partial``);
* :mod:`~repro.analysis.dataflow.reaching` — per-function reaching
  definitions (forward may-analysis with branch merge and loop
  fixpoint);
* :mod:`~repro.analysis.dataflow.races` — CC100 (second writer for
  task-owned state) and CC101 (await between two writes of one
  multi-step mutation);
* :mod:`~repro.analysis.dataflow.taint` — FP100 (interprocedural
  exactness taint: decode/endpoint/WAL sources must reach a
  ``fold*``/EFT sanitizer without rounding arithmetic).

Importing this package registers the three rules.
"""

from repro.analysis.dataflow.callgraph import ClassInfo, FunctionInfo, ProjectIndex
from repro.analysis.dataflow.races import SecondWriterRule, TornMutationRule
from repro.analysis.dataflow.reaching import Def, ReachingDefs
from repro.analysis.dataflow.taint import ExactnessTaintRule, TaintEngine

__all__ = [
    "ProjectIndex",
    "FunctionInfo",
    "ClassInfo",
    "ReachingDefs",
    "Def",
    "SecondWriterRule",
    "TornMutationRule",
    "ExactnessTaintRule",
    "TaintEngine",
]
