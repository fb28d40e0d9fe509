"""Dataflow engine: call graph, races (CC100/CC101), taint (FP100).

The planted fixtures here are the acceptance contract for the v2
engine: a second-writer task mutation, a torn multi-step mutation
across an ``await``, and a rounded-before-fold ingest path must each
produce *exactly* the expected finding — no more, no less. The
negative fixtures pin the precision half of the contract: the repaired
shapes (staged publish, claim-before-await, sanitized fold) must stay
silent, because a noisy rule gets suppressed into irrelevance.

Call-graph resolution is tested directly on :class:`ProjectIndex`
because the dynamic-dispatch seams (kernel registry, ``partial``) are
exactly where a naive graph would go blind.
"""

from __future__ import annotations

import pytest

from repro.analysis import LintResult, ProjectContext, lint_source
from repro.analysis.core import ModuleUnit
from repro.analysis.dataflow.callgraph import ProjectIndex
from repro.analysis.dataflow.reaching import ReachingDefs

SERVE = "repro/serve/fixture.py"
CLUSTER = "repro/cluster/fixture.py"


def rules_of(result: LintResult):
    return [f.rule for f in result.sorted_findings()]


def lint(source: str, filename: str = SERVE, **kw) -> LintResult:
    return lint_source(source, filename, **kw)


def build_index(*named_sources: tuple) -> ProjectIndex:
    ctx = ProjectContext()
    units = [ModuleUnit(src, path, ctx) for path, src in named_sources]
    ctx.set_units(units)
    index = ctx.index
    assert index is not None
    return index


# ----------------------------------------------------------------------
# CC100: second writer for task-owned state
# ----------------------------------------------------------------------

CC100_PLANTED = """\
import asyncio

class ShardWriter:
    def __init__(self):
        self._state = 0
        self._task = None

    async def start(self):
        self._task = asyncio.create_task(self._run())

    async def _run(self):
        while True:
            self._advance()
            await asyncio.sleep(0)

    def _advance(self):
        self._state = self._state + 1

    def reset(self):
        self._state = 0
"""


def test_cc100_flags_exactly_the_second_writer():
    result = lint(CC100_PLANTED, select=["CC100"])
    assert rules_of(result) == ["CC100"]
    (finding,) = result.findings
    assert finding.line == 20  # the reset() write, not the task's own
    assert "_state" in finding.message
    assert "_run" in finding.message


def test_cc100_region_is_transitive_and_init_exempt():
    # Writes inside the task's self-call closure (_run -> _advance) and
    # in __init__ are ownership, not races: the planted finding above is
    # the only one. A class whose only writers live in the region is clean.
    clean = CC100_PLANTED.replace("    def reset(self):\n        self._state = 0\n", "")
    assert rules_of(lint(clean, select=["CC100"])) == []


def test_cc100_scoped_to_serve_and_cluster():
    assert rules_of(lint(CC100_PLANTED, "repro/core/fixture.py", select=["CC100"])) == []
    assert rules_of(lint(CC100_PLANTED, CLUSTER, select=["CC100"])) == ["CC100"]


# ----------------------------------------------------------------------
# CC101: torn multi-step mutation across an await
# ----------------------------------------------------------------------

CC101_PLANTED = """\
class Node:
    async def apply(self, seq, arr):
        self._applied = seq
        await self._fold(arr)
        self._count = self._count + 1
"""


def test_cc101_flags_exactly_the_torn_pair():
    result = lint(CC101_PLANTED, filename=CLUSTER, select=["CC101"])
    assert rules_of(result) == ["CC101"]
    (finding,) = result.findings
    assert finding.line == 5  # the second write is the anchor
    assert "line 3" in finding.message and "line 4" in finding.message


def test_cc101_loop_carried_pair_is_caught():
    # The WAL-replay shape: one write per iteration, awaits between
    # iterations. A single linear pass sees write -> await but never the
    # second write; the two-pass loop walk must.
    src = (
        "class Node:\n"
        "    async def replay(self, records):\n"
        "        for rec in records:\n"
        "            self._applied[rec.stream] = rec.seq\n"
        "            await self._fold(rec)\n"
    )
    result = lint(src, filename=CLUSTER, select=["CC101"])
    assert rules_of(result) == ["CC101"]
    assert result.findings[0].line == 4


def test_cc101_clean_shapes_stay_silent():
    # (a) staged publish: locals mutate freely, instance writes are
    # contiguous after the last await — the recover() fix shape;
    # (b) claim-before-await: a single write ahead of the await;
    # (c) self.x = await f(): the await orders before the store.
    staged = (
        "class Node:\n"
        "    async def replay(self, records):\n"
        "        marks = {}\n"
        "        for rec in records:\n"
        "            await self._fold(rec)\n"
        "            marks[rec.stream] = rec.seq\n"
        "        for stream, seq in marks.items():\n"
        "            self._applied[stream] = seq\n"
    )
    claim = (
        "class Node:\n"
        "    async def ingest(self, seq, arr):\n"
        "        self._applied = seq\n"
        "        return await self._fold(arr)\n"
    )
    fused = (
        "class Node:\n"
        "    async def refresh(self):\n"
        "        self._snapshot = await self._read()\n"
        "        self._fresh = True\n"
    )
    for src in (staged, claim, fused):
        assert rules_of(lint(src, filename=CLUSTER, select=["CC101"])) == []


# ----------------------------------------------------------------------
# FP100: exactness taint (rounded before fold)
# ----------------------------------------------------------------------

FP100_PLANTED = """\
import numpy as np

class Ingest:
    def handle(self, blob):
        arr = np.frombuffer(blob, dtype=np.float64)
        scaled = arr * 0.5
        self._shard.fold(scaled)
"""


def test_fp100_flags_exactly_the_rounding_binop():
    result = lint(FP100_PLANTED, select=["FP100"])
    assert rules_of(result) == ["FP100"]
    (finding,) = result.findings
    assert finding.line == 6
    assert "fold" not in finding.message or "before" in finding.message


def test_fp100_sanitized_fold_is_clean():
    clean = (
        "import numpy as np\n"
        "\n"
        "class Ingest:\n"
        "    def handle(self, blob):\n"
        "        arr = np.frombuffer(blob, dtype=np.float64)\n"
        "        self._shard.fold(np.ascontiguousarray(arr))\n"
    )
    assert rules_of(lint(clean, select=["FP100"])) == []


def test_fp100_flags_reduction_sinks():
    src = (
        "import numpy as np\n"
        "\n"
        "def total(blob):\n"
        "    arr = np.frombuffer(blob, dtype=np.float64)\n"
        "    return np.sum(arr)\n"
    )
    result = lint(src, select=["FP100"])
    assert rules_of(result) == ["FP100"]
    assert result.findings[0].line == 5


def test_fp100_interprocedural_rounding_helper():
    # The rounding hides one call away: the summary fixpoint must carry
    # "scale() rounds its first argument" back to the ingest site.
    src = (
        "import numpy as np\n"
        "\n"
        "def scale(arr):\n"
        "    return arr * 0.5\n"
        "\n"
        "def handle(blob):\n"
        "    arr = np.frombuffer(blob, dtype=np.float64)\n"
        "    return scale(arr)\n"
    )
    result = lint(src, select=["FP100"])
    assert rules_of(result) == ["FP100"]
    assert result.findings[0].line == 8  # the call site in the swept plane


def test_fp100_string_and_metadata_arithmetic_exempt():
    src = (
        "import numpy as np\n"
        "\n"
        "SUFFIX = '\\x00sq'\n"
        "\n"
        "def shadow(blob, stream):\n"
        "    arr = np.frombuffer(blob, dtype=np.float64)\n"
        "    key = stream + SUFFIX\n"
        "    pad = arr.size + 1\n"
        "    return key, pad, arr\n"
    )
    assert rules_of(lint(src, select=["FP100"])) == []


def test_fp100_scoped_to_ingest_planes():
    assert rules_of(lint(FP100_PLANTED, "repro/kernels/fixture.py", select=["FP100"])) == []


# ----------------------------------------------------------------------
# call graph: registry dispatch, partial
# ----------------------------------------------------------------------

KERNELS_SRC = """\
from repro.kernels.base import register_kernel

@register_kernel
class FastKernel:
    name = "fast"

    def fold(self, arr):
        return arr

@register_kernel
class ExactKernel:
    name = "exact"

    def fold(self, arr):
        return arr

@register_kernel
class TunedKernel(FastKernel):
    name = "tuned"
"""

CALLERS_SRC = """\
from functools import partial

from repro.kernels.fx import FastKernel
from repro.kernels.registry import get_kernel

def helper(x):
    return x

def direct():
    k = get_kernel("fast")
    return k.fold(None)

def dynamic(name):
    k = get_kernel(name)
    return k.fold(None)

def via_partial():
    f = partial(helper, 1)
    return f()

def via_partial_method():
    f = partial(FastKernel.fold, None)
    return f()
"""


@pytest.fixture(scope="module")
def index() -> ProjectIndex:
    return build_index(
        ("repro/kernels/fx.py", KERNELS_SRC),
        ("repro/serve/callers.py", CALLERS_SRC),
    )


def edges(index: ProjectIndex, qualname: str):
    return index.call_edges(index.functions[qualname])


def test_callgraph_indexes_kernels_by_registry_name(index):
    assert set(index.kernels) == {"fast", "exact", "tuned"}
    assert index.kernels["fast"].qualname == "repro.kernels.fx.FastKernel"


def test_callgraph_literal_registry_dispatch(index):
    out = edges(index, "repro.serve.callers.direct")
    assert "repro.kernels.fx.FastKernel.fold" in out
    assert "repro.kernels.fx.ExactKernel.fold" not in out


def test_callgraph_unknown_registry_key_is_may_alias(index):
    # get_kernel(<non-literal>) must resolve to every registered kernel
    # so downstream analyses stay conservative.
    out = edges(index, "repro.serve.callers.dynamic")
    assert "repro.kernels.fx.FastKernel.fold" in out
    assert "repro.kernels.fx.ExactKernel.fold" in out


def test_callgraph_partial_unwrapping(index):
    assert "repro.serve.callers.helper" in edges(index, "repro.serve.callers.via_partial")
    assert "repro.kernels.fx.FastKernel.fold" in edges(
        index, "repro.serve.callers.via_partial_method"
    )


def test_callgraph_method_resolution_walks_bases(index):
    tuned = index.classes["repro.kernels.fx.TunedKernel"]
    resolved = index.resolve_method(tuned, "fold")
    assert resolved is not None
    assert resolved.qualname == "repro.kernels.fx.FastKernel.fold"


# ----------------------------------------------------------------------
# reaching definitions
# ----------------------------------------------------------------------


def reaching_for(src: str):
    import ast

    tree = ast.parse(src)
    fn = tree.body[0]
    return fn, ReachingDefs(fn)


def test_reaching_defs_branch_union():
    src = (
        "def f(flag):\n"
        "    x = 1\n"
        "    if flag:\n"
        "        x = 2\n"
        "    y = x\n"
    )
    fn, rd = reaching_for(src)
    last = fn.body[-1]
    values = {d.kind for d in rd.defs_of(last, "x")}
    assert values == {"assign"}
    assert len(rd.defs_of(last, "x")) == 2  # both arms reach the use


def test_reaching_defs_loop_carries_back_edge():
    src = (
        "def f(items):\n"
        "    acc = None\n"
        "    for item in items:\n"
        "        use = acc\n"
        "        acc = item\n"
        "    return acc\n"
    )
    fn, rd = reaching_for(src)
    use_stmt = fn.body[1].body[0]
    kinds = {d.kind for d in rd.defs_of(use_stmt, "acc")}
    # Both the init and the loop-carried redefinition reach the use.
    assert kinds == {"assign"}
    assert len(rd.defs_of(use_stmt, "acc")) == 2


def test_reaching_defs_params_and_opaque_aug():
    src = (
        "def f(n):\n"
        "    n += 1\n"
        "    return n\n"
    )
    fn, rd = reaching_for(src)
    ret = fn.body[-1]
    kinds = {d.kind for d in rd.defs_of(ret, "n")}
    assert "aug" in kinds
