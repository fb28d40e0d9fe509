"""FP-safety rules: no naive float arithmetic outside the baselines.

The package's contract is that every float result is *correctly
rounded*: sums go through the certified kernels, comparisons are
bit-identity checks made on purpose, and exact rationals are narrowed
through the rounding helpers. These rules catch the idioms that
silently break that contract — builtin ``sum`` / ``+=`` accumulation
over floats (FP001), float ``==`` (FP002), ``math.fsum`` / ``np.sum``
bypassing the kernel layer (FP003), unguarded ``float(Fraction)``
narrowing (FP004), and ``np.dot`` / ``np.vdot`` / ``np.linalg.norm``
bypassing the reduction layer (FP005).

Detection is evidence-based: an expression counts as *float-ish* only
when the AST shows a float literal, a ``float()`` / ``.to_float()`` /
``fsum`` call, or a name bound to such an expression in the same
scope. Unknown values are given the benefit of the doubt — precision
over recall, so every finding is worth reading.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.core import Finding, ModuleUnit, Rule, register_rule

__all__ = [
    "BuiltinFloatAccumulation",
    "FloatEqualityComparison",
    "KernelBypassSum",
    "KernelBypassInnerProduct",
    "UnguardedFractionNarrowing",
]

#: Calls that produce floats as far as these rules are concerned.
_FLOAT_CALL_NAMES = {"float", "fsum"}
_FLOAT_CALL_ATTRS = {
    "fsum",
    "to_float",
    "decode_float",
    "nextafter",
    "ldexp",
    "copysign",
    "fabs",
    "sqrt",
    "hypot",
    "perf_counter",
    "monotonic",
}
#: Calls that produce exact rationals.
_FRACTION_CALL_NAMES = {"Fraction"}
_FRACTION_CALL_ATTRS = {"to_fraction", "exact_fraction"}


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class _Evidence:
    """Scope-local type evidence: is this expression float/Fraction-ish?

    Names resolve through the enclosing function's assignments (any
    binding with evidence taints the name); recursion is cycle-guarded.
    """

    def __init__(self, bindings: Dict[str, List[ast.expr]]) -> None:
        self.bindings = bindings

    def floatish(self, node: ast.expr, _seen: Optional[Set[str]] = None) -> bool:
        seen = _seen if _seen is not None else set()
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if isinstance(node.func, ast.Name):
                return name in _FLOAT_CALL_NAMES
            return name in _FLOAT_CALL_ATTRS
        if isinstance(node, (ast.BinOp,)):
            return self.floatish(node.left, seen) or self.floatish(node.right, seen)
        if isinstance(node, ast.UnaryOp):
            return self.floatish(node.operand, seen)
        if isinstance(node, ast.IfExp):
            return self.floatish(node.body, seen) or self.floatish(node.orelse, seen)
        if isinstance(node, ast.Starred):
            return self.floatish(node.value, seen)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return any(self.floatish(e, seen) for e in node.elts)
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return self.floatish(node.elt, seen)
        if isinstance(node, ast.Name):
            if node.id in seen:
                return False
            seen.add(node.id)
            return any(
                self.floatish(v, seen) for v in self.bindings.get(node.id, [])
            )
        return False

    def fractionish(
        self, node: ast.expr, _seen: Optional[Set[str]] = None
    ) -> bool:
        seen = _seen if _seen is not None else set()
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if isinstance(node.func, ast.Name):
                return name in _FRACTION_CALL_NAMES
            return name in _FRACTION_CALL_ATTRS
        if isinstance(node, ast.BinOp):
            return self.fractionish(node.left, seen) or self.fractionish(
                node.right, seen
            )
        if isinstance(node, ast.UnaryOp):
            return self.fractionish(node.operand, seen)
        if isinstance(node, ast.IfExp):
            return self.fractionish(node.body, seen) or self.fractionish(
                node.orelse, seen
            )
        if isinstance(node, ast.Name):
            if node.id in seen:
                return False
            seen.add(node.id)
            return any(
                self.fractionish(v, seen) for v in self.bindings.get(node.id, [])
            )
        return False


class _ScopedRule(Rule):
    """Shared walk: visit expression nodes with per-scope evidence."""

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        cache: Dict[Optional[ast.AST], _Evidence] = {}
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.expr) and not isinstance(
                node, ast.AugAssign
            ):
                continue
            scope = unit.enclosing_function(node)
            if scope not in cache:
                cache[scope] = _Evidence(unit.bindings(scope))
            yield from self.check_node(unit, node, cache[scope])

    def check_node(
        self, unit: ModuleUnit, node: ast.AST, evidence: _Evidence
    ) -> Iterable[Finding]:
        raise NotImplementedError


@register_rule
class BuiltinFloatAccumulation(_ScopedRule):
    """FP001: builtin ``sum()`` / loop ``+=`` accumulation over floats.

    Sequential float accumulation has O(n)-growing worst-case error —
    the exact failure mode this package exists to remove. Outside
    ``baselines/`` (where naive orderings are the measured subject),
    float reductions must go through the kernel layer.
    """

    id = "FP001"
    title = "naive float accumulation (builtin sum / loop +=)"
    rationale = (
        "sequential float accumulation is not faithfully rounded; "
        "error grows with n and with the condition number"
    )
    fixit = (
        "use repro.core.exact_sum / kernel_sum (or a streaming "
        "ExactRunningSum) instead of accumulating floats directly"
    )

    def applies_to(self, unit: ModuleUnit) -> bool:
        return "baselines" not in unit.parts

    def check_node(
        self, unit: ModuleUnit, node: ast.AST, evidence: _Evidence
    ) -> Iterable[Finding]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
            and evidence.floatish(node.args[0])
        ):
            yield self.finding(
                unit, node, "builtin sum() over a float sequence is not exact"
            )
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and unit.in_loop(node)
        ):
            target_float = isinstance(
                node.target, ast.Name
            ) and evidence.floatish(node.target)
            if target_float or evidence.floatish(node.value):
                yield self.finding(
                    unit,
                    node,
                    "float '+=' accumulation in a loop is not exact",
                )


@register_rule
class FloatEqualityComparison(_ScopedRule):
    """FP002: ``==`` / ``!=`` with float evidence on either side.

    Float equality is either a bug (round-off makes it flaky) or a
    deliberate bit-identity / exact-zero test — and the latter must say
    so. Use :func:`repro.util.bits.same_float` for intentional
    bit-identity checks, or suppress with a justification explaining
    why the comparison is exact.
    """

    id = "FP002"
    title = "float == / != comparison"
    rationale = (
        "float equality silently encodes a bit-identity assumption; "
        "make the assumption explicit or the comparison robust"
    )
    fixit = (
        "use repro.util.bits.same_float(a, b) for intentional "
        "bit-identity checks (NaN-aware), or suppress with a "
        "justification for exact-by-construction comparisons"
    )

    def check_node(
        self, unit: ModuleUnit, node: ast.AST, evidence: _Evidence
    ) -> Iterable[Finding]:
        if not isinstance(node, ast.Compare):
            return
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left, *node.comparators]
        if any(evidence.floatish(o) for o in operands):
            op = "==" if isinstance(node.ops[0], ast.Eq) else "!="
            yield self.finding(
                unit, node, f"float '{op}' comparison relies on exact bits"
            )


@register_rule
class KernelBypassSum(_ScopedRule):
    """FP003: ``math.fsum`` / ``np.sum`` bypassing the kernel layer.

    Both are inexact (``np.sum`` pairwise, ``fsum`` correctly rounded
    only in isolation — not combinable across blocks) and neither
    merges exactly through the kernel protocol. Outside
    ``baselines/``, reductions ride the kernels.
    """

    id = "FP003"
    title = "math.fsum / np.sum bypassing the kernel layer"
    rationale = (
        "library reductions sit outside the certified kernel protocol, "
        "so their results carry no exactness guarantee"
    )
    fixit = "route the reduction through repro.kernels (kernel_sum / exact_sum)"

    _NP_NAMES = {"np", "numpy"}
    _NP_ATTRS = {"sum", "nansum", "cumsum"}

    def applies_to(self, unit: ModuleUnit) -> bool:
        return "baselines" not in unit.parts

    def check_node(
        self, unit: ModuleUnit, node: ast.AST, evidence: _Evidence
    ) -> Iterable[Finding]:
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            return
        value = node.func.value
        if not isinstance(value, ast.Name):
            return
        if value.id == "math" and node.func.attr == "fsum":
            yield self.finding(
                unit, node, "math.fsum bypasses the kernel layer"
            )
        elif value.id in self._NP_NAMES and node.func.attr in self._NP_ATTRS:
            yield self.finding(
                unit,
                node,
                f"np.{node.func.attr} is inexact and bypasses the kernel layer",
            )


@register_rule
class KernelBypassInnerProduct(_ScopedRule):
    """FP005: ``np.dot`` / ``np.vdot`` / ``np.linalg.norm`` on floats.

    Inner products and norms are sums in disguise, and numpy's carry
    the same non-reproducible, condition-growing error as ``np.sum`` —
    plus a squaring that can silently under/overflow. The reduction
    layer makes them exact: ``repro.reduce.dot`` / ``repro.reduce.norm2``
    expand through TwoProduct/TwoSquare and fold through the kernels.
    Outside ``baselines/``, inner products ride the reduction ops.
    """

    id = "FP005"
    title = "np.dot / np.vdot / np.linalg.norm bypassing the reduction layer"
    rationale = (
        "numpy inner products are unreproducible sums of rounded "
        "products; the reduction ops compute the same quantities "
        "correctly rounded"
    )
    fixit = (
        "route through repro.reduce (dot / norm2), exact over the "
        "whole float range"
    )

    _NP_NAMES = {"np", "numpy"}
    _DOT_ATTRS = {"dot", "vdot", "inner"}

    def applies_to(self, unit: ModuleUnit) -> bool:
        return "baselines" not in unit.parts

    def check_node(
        self, unit: ModuleUnit, node: ast.AST, evidence: _Evidence
    ) -> Iterable[Finding]:
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            return
        value = node.func.value
        if isinstance(value, ast.Name):
            if value.id in self._NP_NAMES and node.func.attr in self._DOT_ATTRS:
                yield self.finding(
                    unit,
                    node,
                    f"np.{node.func.attr} is an unreproducible inner "
                    f"product; use repro.reduce.dot",
                )
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in self._NP_NAMES
            and value.attr == "linalg"
            and node.func.attr == "norm"
        ):
            yield self.finding(
                unit,
                node,
                "np.linalg.norm is an unreproducible reduction; use "
                "repro.reduce.norm2",
            )


@register_rule
class UnguardedFractionNarrowing(_ScopedRule):
    """FP004: ``float(Fraction)`` without a rounding-mode guard.

    ``float()`` on an exact rational rounds *somehow* (nearest-even,
    no mode control, silent overflow to inf). Exact values must narrow
    through :func:`repro.core.rounding.round_fraction` so the rounding
    step is explicit and mode-correct.
    """

    id = "FP004"
    title = "unguarded float(Fraction) narrowing"
    rationale = (
        "float(Fraction) hides the one rounding step the whole "
        "pipeline exists to control"
    )
    fixit = "narrow through repro.core.rounding.round_fraction (mode-aware, overflow-checked)"

    def check_node(
        self, unit: ModuleUnit, node: ast.AST, evidence: _Evidence
    ) -> Iterable[Finding]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
            and evidence.fractionish(node.args[0])
        ):
            yield self.finding(
                unit,
                node,
                "float() narrows an exact Fraction without an explicit "
                "rounding step",
            )
