"""FP100: interprocedural exactness taint for the ingest planes.

The repository's central claim is that every ingested bit reaches a
superaccumulator *unrounded*: the serve endpoints, the codec decoders,
and WAL replay hand float64 payloads to ``SumKernel.fold*`` / the EFT
expansions without any intermediate rounding arithmetic. PRs 8–9
established that as a test-suite property; this rule makes it a
machine-checked tree-wide invariant.

Model (classic taint with three label sets):

* **sources** — codec/protocol decoders (``decode_reduce_batch``,
  ``parse_payload``, ``read_wal``, ``np.frombuffer``, ...) and serve
  endpoint payloads (``request[...]`` / ``request.get(...)`` where
  ``request`` is a parameter);
* **propagation** — exact, bit-preserving transforms (``np.array``,
  ``np.concatenate``, slicing, ``ensure_float64_array``, attribute
  access except size/shape-style metadata, tuple unpacking, reaching
  definitions across statements);
* **sanitizers** — the certified exact seams: ``fold*`` / ``add_*`` /
  ``merge`` / the EFT expansion vectors / WAL ``append*`` / codec
  ``encode*``. A call into any trusted layer (kernels, core, codec,
  util, ...) is also never a finding: those layers carry their own
  certificates.

A finding is a *rounding sink* reached by tainted data: a ``+ - * /``
``BinOp``, an ``np.*``/``math.fsum`` reduction, or a call whose
resolved callee (per the project call graph) applies such arithmetic
to the corresponding parameter before any fold. Callee behavior is
summarized by a fixpoint over ``(returns_tainted, param_to_return,
param_rounds)`` per function in the swept packages, so the taint is
genuinely interprocedural. String concatenation and f-string interiors
are exempt (no float rounding), and anything the engine cannot prove
stays silent — precision over recall.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Finding, ModuleUnit, Rule, register_rule
from repro.analysis.dataflow.callgraph import FunctionInfo, ProjectIndex
from repro.analysis.dataflow.reaching import Def, ReachingDefs

__all__ = ["ExactnessTaintRule", "TaintEngine"]

_SCOPED_PACKAGES = ("serve", "cluster", "reduce")

#: Calls producing exact ingested payloads (the taint sources).
SOURCE_CALLS = frozenset(
    {
        "decode",
        "decode_reduce_batch",
        "decode_snapshot",
        "decode_wal_record",
        "decode_payload",
        "decode_reply",
        "parse_payload",
        "read_frame",
        "read_wal",
        "iter_wal",
        "frombuffer",
        "decode_bytes_field",
        "stream_from_bytes",
        "from_bytes",
        "from_wire",
        "feed",
    }
)

#: Exact transforms: the result carries its arguments' taint.
PRESERVING_CALLS = frozenset(
    {
        "array",
        "asarray",
        "ascontiguousarray",
        "asfortranarray",
        "copy",
        "astype",
        "reshape",
        "ravel",
        "flatten",
        "view",
        "tolist",
        "concatenate",
        "array_split",
        "split",
        "stack",
        "hstack",
        "vstack",
        "atleast_1d",
        "float64",
        "bytes",
        "bytearray",
        "memoryview",
        "float",
        "list",
        "tuple",
        "dict",
        "set",
        "sorted",
        "reversed",
        "zip",
        "iter",
        "next",
        "min",
        "max",
        "abs",
        "negative",
        "ensure_float64_array",
        "wait_for",
        "shield",
        "gather",
    }
)

#: Certified exact seams: tainted arguments are *consumed* here.
SANITIZER_CALLS = frozenset(
    {
        "fold",
        "fold_into",
        "fold_scalar",
        "fold_stream",
        "add",
        "add_array",
        "add_scalar",
        "kernel_sum",
        "exact_sum",
        "run_reduction",
        "expand",
        "expand_exact",
        "check_domain",
        "merge",
        "merge_into",
        "scatter",
        "add_batch",
        "append",
        "append_blob",
        "appendleft",
        "extend",
        "put",
        "put_nowait",
        "send",
        "write",
        "publish",
        "encode",
        "encode_reduce_batch",
        "encode_frame",
        "encode_batch_frame",
        "encode_reduce_batch_frame",
        "encode_wal_record",
        "encode_snapshot",
        "encode_bytes_field",
        "two_sum_vec",
        "two_product_vec",
        "two_square_vec",
        "split_floats_vec",
        "from_float",
        "record_wire_frame",
        "state_to_wire",
        "dumps",
    }
)

#: Attribute reads that extract metadata, not the float payload.
METADATA_ATTRS = frozenset(
    {"size", "shape", "ndim", "dtype", "nbytes", "itemsize"}
)

#: Request fields that carry the float payload. Metadata fields
#: (stream names, seqs, rounding modes, ddof, ids) are control plane:
#: arithmetic on them is validation, not payload rounding.
PAYLOAD_KEYS = frozenset(
    {
        "values",
        "values2",
        "value",
        "payload",
        "state",
        "blob",
        "snapshot",
        "data",
        "b64",
    }
)

#: ``np.<name>`` / ``math.<name>`` reductions that round.
MODULE_REDUCTIONS = frozenset(
    {
        "sum",
        "nansum",
        "cumsum",
        "dot",
        "vdot",
        "inner",
        "prod",
        "trace",
        "einsum",
        "norm",
        "mean",
        "nanmean",
        "average",
        "std",
        "var",
        "fsum",
    }
)

#: ``tainted_array.<name>(...)`` method reductions.
ARRAY_REDUCTIONS = frozenset({"sum", "dot", "prod", "cumsum", "mean", "std", "var"})

_ROUNDING_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.MatMult)


def _terminal_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver_root(func: ast.expr) -> Optional[str]:
    """Leftmost name of an attribute chain: ``np.linalg.norm`` -> ``np``."""
    node = func
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _stringish(node: ast.expr) -> bool:
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
    )


@dataclass
class FunctionSummary:
    """Interprocedural facts about one function in the swept packages."""

    params: List[str] = field(default_factory=list)
    returns_tainted: bool = False
    param_to_return: Set[int] = field(default_factory=set)
    param_rounds: Set[int] = field(default_factory=set)


@dataclass(frozen=True)
class _Sink:
    node: ast.AST
    label: str
    what: str


class _FunctionAnalysis:
    """One intraprocedural taint pass over one function.

    ``seed_sources`` turns source calls / request payloads into taint;
    ``seed_params`` taints the named parameters instead (the summary
    mode). The pass records every rounding sink reached by taint and
    whether a ``return`` value carries it.
    """

    def __init__(
        self,
        engine: "TaintEngine",
        info: FunctionInfo,
        *,
        seed_sources: bool,
        seed_params: Set[str],
    ) -> None:
        self.engine = engine
        self.info = info
        self.seed_sources = seed_sources
        self.seed_params = seed_params
        self.reaching = engine.reaching_for(info)
        self._memo: Dict[int, Optional[str]] = {}
        self._stmt_of: Dict[int, ast.stmt] = {}
        self._comp_iters: Dict[str, List[ast.expr]] = {}
        self.sinks: List[_Sink] = []
        self._sunk: Set[int] = set()
        self.return_tainted = False
        self._run()

    # -- driving ---------------------------------------------------------

    def _run(self) -> None:
        body = self.info.node.body  # type: ignore[attr-defined]
        # Index every statement's expressions first: a loop-carried
        # reaching definition can point at a *later* statement's value.
        for stmt in body:
            self._index_stmt(stmt)
        for stmt in body:
            self._scan_stmt(stmt)

    def _index_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        self._index_exprs(stmt)
        for node in self._own_nodes(stmt):
            if isinstance(node, ast.comprehension):
                for name in self._target_names(node.target):
                    self._comp_iters.setdefault(name, []).append(node.iter)
        for child in self._child_stmts(stmt):
            self._index_stmt(child)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # separate scope
        for node in self._own_nodes(stmt):
            if isinstance(node, ast.BinOp):
                self._check_binop(node, stmt)
            elif isinstance(node, ast.Call):
                self._check_call_sink(node, stmt)
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.op, _ROUNDING_BINOPS
        ):
            taint = self._taint(stmt.value, stmt)
            if taint is None and isinstance(stmt.target, ast.Name):
                load = ast.Name(id=stmt.target.id, ctx=ast.Load())
                ast.copy_location(load, stmt.target)
                self._stmt_of[id(load)] = stmt
                taint = self._taint(load, stmt)
            if taint is not None:
                self._sink(stmt, taint, "in-place rounding accumulation")
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            if self._taint(stmt.value, stmt) is not None:
                self.return_tainted = True
        for child in self._child_stmts(stmt):
            self._scan_stmt(child)

    def _child_stmts(self, stmt: ast.stmt) -> Iterable[ast.stmt]:
        for field_name, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.stmt):
                        yield item
                    elif isinstance(item, ast.excepthandler):
                        yield from item.body
                    elif hasattr(ast, "match_case") and isinstance(
                        item, getattr(ast, "match_case")
                    ):
                        yield from item.body

    def _own_nodes(self, stmt: ast.stmt) -> Iterable[ast.AST]:
        """Expression nodes belonging to *stmt* itself (not sub-statements)."""

        def visit(node: ast.AST) -> Iterable[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (
                        ast.stmt,
                        ast.FunctionDef,
                        ast.AsyncFunctionDef,
                        ast.ClassDef,
                        ast.Lambda,
                    ),
                ):
                    continue
                yield child
                yield from visit(child)

        return visit(stmt)

    def _index_exprs(self, stmt: ast.stmt) -> None:
        for node in self._own_nodes(stmt):
            self._stmt_of[id(node)] = stmt

    @staticmethod
    def _target_names(target: ast.expr) -> Iterable[str]:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from _FunctionAnalysis._target_names(elt)

    # -- sinks -----------------------------------------------------------

    def _sink(self, node: ast.AST, label: str, what: str) -> None:
        if id(node) in self._sunk:
            return
        self._sunk.add(id(node))
        self.sinks.append(_Sink(node=node, label=label, what=what))

    def _check_binop(self, node: ast.BinOp, stmt: ast.stmt) -> None:
        if not isinstance(node.op, _ROUNDING_BINOPS):
            return
        if self._string_typed(node.left, stmt) or self._string_typed(
            node.right, stmt
        ):
            return  # string/bytes/path concatenation never rounds floats
        taint = self._taint(node.left, stmt) or self._taint(node.right, stmt)
        if taint is not None:
            self._sink(node, taint, "rounding arithmetic")

    def _string_typed(self, node: ast.expr, stmt: ast.stmt) -> bool:
        """Evidence the operand is a string (so ``+`` is concatenation)."""
        if _stringish(node):
            return True
        if isinstance(node, ast.Call):
            return _terminal_name(node.func) in ("str", "repr", "format", "join")
        if isinstance(node, ast.BinOp):
            return self._string_typed(node.left, stmt) or self._string_typed(
                node.right, stmt
            )
        if isinstance(node, ast.Name):
            defs = self.reaching.defs_of(stmt, node.id)
            values = [
                d.value
                for d in defs
                if d.kind in ("assign", "unpack", "aug")
            ]
            if defs and values and all(
                v is not None and _stringish(v) for v in values
            ):
                return True
            if not defs:
                # Module-level constant, e.g. `stream + SUFFIX`.
                bound = self.info.unit.bindings(None).get(node.id)
                if bound and all(_stringish(v) for v in bound):
                    return True
        return False

    def _check_call_sink(self, call: ast.Call, stmt: ast.stmt) -> None:
        name = _terminal_name(call.func)
        if name is None or name in SANITIZER_CALLS:
            return
        root = (
            _receiver_root(call.func)
            if isinstance(call.func, ast.Attribute)
            else None
        )
        if name in MODULE_REDUCTIONS and root in ("np", "numpy", "math"):
            for arg in call.args:
                taint = self._taint(arg, stmt)
                if taint is not None:
                    self._sink(call, taint, f"{root}.{name}() reduction")
                    return
        if (
            name in ARRAY_REDUCTIONS
            and isinstance(call.func, ast.Attribute)
            and self._taint(call.func.value, stmt) is not None
        ):
            self._sink(
                call,
                self._taint(call.func.value, stmt) or "ingested data",
                f".{name}() reduction",
            )
            return
        # Interprocedural: does a resolved callee round this argument?
        targets = self.engine.resolve(self.info, call)
        for target in targets:
            summary = self.engine.summary_of(target)
            if summary is None or not summary.param_rounds:
                continue
            for pos, arg in self._map_args(target, summary, call):
                if pos in summary.param_rounds:
                    taint = self._taint(arg, stmt)
                    if taint is not None:
                        self._sink(
                            call,
                            taint,
                            f"call into '{target.qualname}', which applies "
                            f"rounding arithmetic to this argument",
                        )
                        return

    @staticmethod
    def _map_args(
        target: FunctionInfo, summary: FunctionSummary, call: ast.Call
    ) -> Iterable[Tuple[int, ast.expr]]:
        offset = 1 if target.is_method else 0
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            yield i + offset, arg
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in summary.params:
                yield summary.params.index(kw.arg), kw.value

    # -- taint evaluation ------------------------------------------------

    def _taint(self, expr: ast.expr, stmt: ast.stmt) -> Optional[str]:
        key = id(expr)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None  # cycle guard: assume clean while computing
        result = self._taint_inner(expr, stmt)
        self._memo[key] = result
        return result

    def _taint_inner(self, expr: ast.expr, stmt: ast.stmt) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self._name_taint(expr.id, stmt)
        if isinstance(expr, ast.Attribute):
            if expr.attr in METADATA_ATTRS:
                return None
            return self._taint(expr.value, stmt)
        if isinstance(expr, ast.Subscript):
            if self._is_request_param(expr.value, stmt) and self._payload_key(
                expr.slice
            ):
                return f"request payload (line {expr.lineno})"
            base = self._taint(expr.value, stmt)
            if base is not None:
                return base
            return self._taint(expr.slice, stmt)
        if isinstance(expr, ast.Call):
            return self._call_taint(expr, stmt)
        if isinstance(expr, (ast.Await, ast.Starred, ast.UnaryOp)):
            inner = expr.value if not isinstance(expr, ast.UnaryOp) else expr.operand
            return self._taint(inner, stmt)
        if isinstance(expr, ast.BinOp):
            return self._taint(expr.left, stmt) or self._taint(expr.right, stmt)
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                taint = self._taint(value, stmt)
                if taint is not None:
                    return taint
            return None
        if isinstance(expr, ast.IfExp):
            return self._taint(expr.body, stmt) or self._taint(expr.orelse, stmt)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                taint = self._taint(elt, stmt)
                if taint is not None:
                    return taint
            return None
        if isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is not None:
                    taint = self._taint(value, stmt)
                    if taint is not None:
                        return taint
            return None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._taint(expr.elt, stmt)
        if isinstance(expr, ast.NamedExpr):
            return self._taint(expr.value, stmt)
        return None

    def _name_taint(self, name: str, stmt: ast.stmt) -> Optional[str]:
        defs = self.reaching.defs_of(stmt, name)
        if not defs:
            for iter_expr in self._comp_iters.get(name, ()):
                taint = self._taint(iter_expr, self._stmt_of.get(id(iter_expr), stmt))
                if taint is not None:
                    return taint
            return None
        for d in defs:
            taint = self._def_taint(name, d)
            if taint is not None:
                return taint
        return None

    def _def_taint(self, name: str, d: Def) -> Optional[str]:
        if d.kind == "param":
            if name in self.seed_params:
                return f"parameter '{name}'"
            return None
        if d.kind in ("import", "def", "except", "opaque"):
            return None
        if d.value is None:
            return None
        value_stmt = self._stmt_of.get(id(d.value))
        if value_stmt is None:
            return None
        taint = self._taint(d.value, value_stmt)
        if taint is None and d.kind == "aug":
            for prior in d.prior:
                taint = self._def_taint(name, prior)
                if taint is not None:
                    break
        return taint

    @staticmethod
    def _payload_key(key: ast.expr) -> bool:
        """Whether a request-field key names (or may name) float payload."""
        if isinstance(key, ast.Constant):
            return key.value in PAYLOAD_KEYS
        return True  # dynamic key: stay conservative

    def _is_request_param(self, expr: ast.expr, stmt: ast.stmt) -> bool:
        if not self.seed_sources:
            return False
        if not isinstance(expr, ast.Name) or expr.id != "request":
            return False
        defs = self.reaching.defs_of(stmt, expr.id)
        return any(d.kind == "param" for d in defs)

    def _call_taint(self, call: ast.Call, stmt: ast.stmt) -> Optional[str]:
        name = _terminal_name(call.func)
        if name is None:
            return None
        if name in ("get", "pop") and isinstance(call.func, ast.Attribute):
            if self._is_request_param(call.func.value, stmt):
                if call.args and self._payload_key(call.args[0]):
                    return f"request payload (line {call.lineno})"
                return None
            return self._taint(call.func.value, stmt)
        if name == "to_thread":
            if call.args:
                fn = call.args[0]
                fn_name = _terminal_name(fn) if not isinstance(fn, ast.Call) else None
                if self.seed_sources and fn_name in SOURCE_CALLS:
                    return f"{fn_name}() (line {call.lineno})"
                for arg in call.args[1:]:
                    taint = self._taint(arg, stmt)
                    if taint is not None:
                        return taint
            return None
        if self.seed_sources and name in SOURCE_CALLS:
            return f"{name}() (line {call.lineno})"
        if name in SANITIZER_CALLS:
            return None
        if name in PRESERVING_CALLS:
            for arg in call.args:
                taint = self._taint(arg, stmt)
                if taint is not None:
                    return taint
            if isinstance(call.func, ast.Attribute):
                return self._taint(call.func.value, stmt)
            return None
        # Resolved callees: summaries say whether taint flows through.
        for target in self.engine.resolve(self.info, call):
            summary = self.engine.summary_of(target)
            if summary is None:
                continue
            if self.seed_sources and summary.returns_tainted:
                return f"'{target.qualname}()' (line {call.lineno})"
            if summary.param_to_return:
                for pos, arg in self._map_args(target, summary, call):
                    if pos in summary.param_to_return:
                        taint = self._taint(arg, stmt)
                        if taint is not None:
                            return taint
        return None


class TaintEngine:
    """Project-wide FP100 driver: summaries fixpoint + per-unit findings."""

    _MAX_ROUNDS = 8

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self._reaching: Dict[str, ReachingDefs] = {}
        self._summaries: Dict[str, FunctionSummary] = {}
        self._build_summaries()

    # -- shared helpers --------------------------------------------------

    def reaching_for(self, info: FunctionInfo) -> ReachingDefs:
        cached = self._reaching.get(info.qualname)
        if cached is None:
            cached = ReachingDefs(info.node)
            self._reaching[info.qualname] = cached
        return cached

    def resolve(self, info: FunctionInfo, call: ast.Call) -> List[FunctionInfo]:
        cls = (
            self.index.classes.get(info.class_qualname)
            if info.class_qualname
            else None
        )
        return self.index.resolve_call(info.unit, info.node, cls, call)

    def summary_of(self, info: FunctionInfo) -> Optional[FunctionSummary]:
        return self._summaries.get(info.qualname)

    @staticmethod
    def _scoped_unit(unit: ModuleUnit) -> bool:
        return any(unit.in_package(pkg) for pkg in _SCOPED_PACKAGES)

    @staticmethod
    def _param_names(info: FunctionInfo) -> List[str]:
        args = info.node.args  # type: ignore[attr-defined]
        return [a.arg for a in [*args.posonlyargs, *args.args]]

    # -- summaries -------------------------------------------------------

    def _build_summaries(self) -> None:
        scoped = [
            info
            for info in self.index.functions.values()
            if self._scoped_unit(info.unit)
        ]
        for info in scoped:
            self._summaries[info.qualname] = FunctionSummary(
                params=self._param_names(info)
            )
        for _ in range(self._MAX_ROUNDS):
            changed = False
            for info in scoped:
                summary = self._summaries[info.qualname]
                probe = _FunctionAnalysis(
                    self, info, seed_sources=True, seed_params=set()
                )
                if probe.return_tainted and not summary.returns_tainted:
                    summary.returns_tainted = True
                    changed = True
                for pos, pname in enumerate(summary.params):
                    if pname == "self":
                        continue
                    if (
                        pos in summary.param_rounds
                        and pos in summary.param_to_return
                    ):
                        continue
                    analysis = _FunctionAnalysis(
                        self, info, seed_sources=False, seed_params={pname}
                    )
                    if analysis.sinks and pos not in summary.param_rounds:
                        summary.param_rounds.add(pos)
                        changed = True
                    if (
                        analysis.return_tainted
                        and pos not in summary.param_to_return
                    ):
                        summary.param_to_return.add(pos)
                        changed = True
            if not changed:
                break

    # -- findings --------------------------------------------------------

    def findings_for_unit(self, unit: ModuleUnit) -> List[Tuple[ast.AST, str]]:
        out: List[Tuple[ast.AST, str]] = []
        for info in sorted(
            self.index.functions.values(), key=lambda f: f.qualname
        ):
            if info.unit is not unit:
                continue
            analysis = _FunctionAnalysis(
                self, info, seed_sources=True, seed_params=set()
            )
            for sink in analysis.sinks:
                out.append(
                    (
                        sink.node,
                        f"{sink.what} on exact ingest data from "
                        f"{sink.label} before any fold in "
                        f"'{info.qualname}'",
                    )
                )
        return out


def engine_for(index: ProjectIndex) -> TaintEngine:
    """One cached :class:`TaintEngine` per project index."""
    cached = getattr(index, "_taint_engine", None)
    if cached is None:
        cached = TaintEngine(index)
        index._taint_engine = cached  # type: ignore[attr-defined]
    return cached


@register_rule
class ExactnessTaintRule(Rule):
    id = "FP100"
    title = "ingested value rounded before reaching a fold"
    severity = "error"
    rationale = (
        "Exactness is end-to-end or it is nothing: one rounding BinOp "
        "between a decoder and the superaccumulator silently voids the "
        "reproducible-sum certificate for every downstream consumer."
    )
    fixit = (
        "hand the raw payload to SumKernel.fold*/the EFT expansion and "
        "do arithmetic on the certified result instead"
    )
    requires_project = True

    def applies_to(self, unit: ModuleUnit) -> bool:
        return TaintEngine._scoped_unit(unit)

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        index = unit.context.index
        if index is None:
            return
        engine = engine_for(index)
        for node, message in engine.findings_for_unit(unit):
            yield self.finding(unit, node, message)
