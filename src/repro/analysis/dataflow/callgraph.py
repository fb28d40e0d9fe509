"""Project-wide call graph over parsed :class:`ModuleUnit` trees.

:class:`ProjectIndex` is the cross-module half of the dataflow engine:
it indexes every top-level function, class, and method in the linted
tree, records each module's import aliases, and resolves call
expressions to :class:`FunctionInfo` targets. Resolution is
best-effort and *sound for the patterns this repository actually
uses* — direct calls, ``self`` / base-chain methods, imported names,
``functools.partial`` bindings, and the two dynamic-dispatch seams the
kernel layer is built on:

* registry dispatch — ``get_kernel("name")`` resolves to the class
  registered under that literal; ``get_kernel(<unknown>)`` resolves to
  *every* registered kernel class (may-alias, so downstream analyses
  stay conservative);
* escalation chains — ``kernel.exact_variant()`` and
  ``get_kernel(x.escalates_to)`` resolve through the class's
  (possibly inherited) ``escalates_to`` registry name.

Unresolvable calls resolve to the empty set: downstream rules give
unknown targets the benefit of the doubt, keeping precision over
recall (every reported finding is worth reading).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.core import ModuleUnit

__all__ = ["FunctionInfo", "ClassInfo", "ProjectIndex"]

#: Spawn wrappers that run a coroutine as an independent task.
TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})

#: Registry accessor names treated as kernel dynamic dispatch.
_REGISTRY_GETTERS = frozenset({"get_kernel"})

#: Method that returns ``get_kernel(self.escalates_to)`` (kernels/base.py).
_ESCALATION_METHODS = frozenset({"exact_variant"})


@dataclass
class FunctionInfo:
    """One indexed function or method definition."""

    qualname: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    unit: "ModuleUnit"
    class_qualname: Optional[str] = None
    is_async: bool = False

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None


@dataclass
class ClassInfo:
    """One indexed class definition."""

    qualname: str
    name: str
    node: ast.ClassDef
    unit: "ModuleUnit"
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Registry name when decorated with ``@register_kernel``.
    kernel_name: Optional[str] = None
    #: Own ``escalates_to = "name"`` class attribute, if any.
    escalates_to: Optional[str] = None
    #: ``self.X = SomeClass(...)`` attribute types seen in any method.
    attr_class_names: Dict[str, Set[str]] = field(default_factory=dict)


def _str_const(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _callable_name(func: ast.expr) -> Optional[str]:
    """Terminal name of a call target: ``f`` and ``a.b.f`` both -> ``f``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class ProjectIndex:
    """Call-graph index over every unit in one lint run."""

    def __init__(self, units: Sequence["ModuleUnit"]) -> None:
        self.units: List["ModuleUnit"] = list(units)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.kernels: Dict[str, ClassInfo] = {}
        #: ``(module_name, local_alias) -> dotted target``
        self.imports: Dict[Tuple[str, str], str] = {}
        for unit in self.units:
            self._index_unit(unit)
        self._method_cache: Dict[Tuple[str, str], Optional[FunctionInfo]] = {}

    # -- construction ----------------------------------------------------

    def _index_unit(self, unit: "ModuleUnit") -> None:
        mod = unit.module_name
        is_package = unit.display_path.replace("\\", "/").endswith("__init__.py")
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ImportFrom):
                base = self._import_base(unit, node, is_package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.imports[(mod, local)] = target
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[(mod, local)] = target
        for stmt in unit.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(unit, stmt, class_info=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(unit, stmt)

    def _import_base(
        self, unit: "ModuleUnit", node: ast.ImportFrom, is_package: bool
    ) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        parts = list(unit.parts)
        if not parts:
            return None
        # Level 1 inside a package __init__ is the package itself; inside
        # a plain module it is the containing package.
        drop = node.level - (1 if is_package else 0)
        if drop > len(parts):
            return None
        base_parts = parts[: len(parts) - drop] if drop else parts
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def _add_function(
        self,
        unit: "ModuleUnit",
        node: ast.AST,
        class_info: Optional[ClassInfo],
    ) -> FunctionInfo:
        name = node.name  # type: ignore[attr-defined]
        if class_info is not None:
            qualname = f"{class_info.qualname}.{name}"
        else:
            qualname = f"{unit.module_name}.{name}"
        info = FunctionInfo(
            qualname=qualname,
            name=name,
            node=node,
            unit=unit,
            class_qualname=class_info.qualname if class_info else None,
            is_async=isinstance(node, ast.AsyncFunctionDef),
        )
        self.functions[qualname] = info
        if class_info is not None:
            class_info.methods[name] = info
        return info

    def _add_class(self, unit: "ModuleUnit", node: ast.ClassDef) -> None:
        qualname = f"{unit.module_name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            name=node.name,
            node=node,
            unit=unit,
            base_names=[b for b in map(_callable_name, node.bases) if b],
        )
        self.classes[qualname] = info
        self.classes_by_name.setdefault(node.name, []).append(info)
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if _callable_name(target) == "register_kernel":
                info.kernel_name = ""  # resolved below once `name` is seen
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(unit, stmt, class_info=info)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target_name = (
                    stmt.targets[0].id
                    if isinstance(stmt.targets[0], ast.Name)
                    else None
                )
                self._note_class_attr(info, target_name, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self._note_class_attr(info, stmt.target.id, stmt.value)
        if info.kernel_name == "":
            info.kernel_name = None
        if info.kernel_name:
            self.kernels[info.kernel_name] = info
        for method in info.methods.values():
            self._scan_self_attr_types(info, method)

    def _note_class_attr(
        self, info: ClassInfo, name: Optional[str], value: Optional[ast.expr]
    ) -> None:
        if name == "name" and info.kernel_name == "":
            literal = _str_const(value)
            if literal:
                info.kernel_name = literal
        elif name == "escalates_to":
            info.escalates_to = _str_const(value)

    def _scan_self_attr_types(self, info: ClassInfo, method: FunctionInfo) -> None:
        """Record ``self.X = SomeClass(...)`` bindings for receiver typing."""
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(node.value, ast.Call)
                ):
                    cls_name = _callable_name(node.value.func)
                    if cls_name and (
                        cls_name in self.classes_by_name
                        or cls_name[:1].isupper()
                    ):
                        info.attr_class_names.setdefault(target.attr, set()).add(
                            cls_name
                        )

    # -- resolution ------------------------------------------------------

    def resolve_method(
        self, cls: ClassInfo, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Find ``name`` on *cls* or its statically-known base chain."""
        key = (cls.qualname, name)
        if key in self._method_cache:
            return self._method_cache[key]
        seen = _seen if _seen is not None else set()
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        found = cls.methods.get(name)
        if found is None:
            for base in self._base_classes(cls):
                found = self.resolve_method(base, name, seen)
                if found is not None:
                    break
        self._method_cache[key] = found
        return found

    def _base_classes(self, cls: ClassInfo) -> List[ClassInfo]:
        out: List[ClassInfo] = []
        for base_name in cls.base_names:
            target = self.imports.get((cls.unit.module_name, base_name))
            if target is not None and target in self.classes:
                out.append(self.classes[target])
                continue
            same_module = self.classes.get(f"{cls.unit.module_name}.{base_name}")
            if same_module is not None:
                out.append(same_module)
                continue
            candidates = self.classes_by_name.get(base_name, [])
            if len(candidates) == 1:
                out.append(candidates[0])
        return out

    def escalation_targets(self, cls: ClassInfo) -> List[ClassInfo]:
        """Kernel class(es) ``cls.escalates_to`` names, walking bases."""
        cur: Optional[ClassInfo] = cls
        seen: Set[str] = set()
        while cur is not None and cur.qualname not in seen:
            seen.add(cur.qualname)
            if cur.escalates_to is not None:
                target = self.kernels.get(cur.escalates_to)
                return [target] if target is not None else []
            bases = self._base_classes(cur)
            cur = bases[0] if bases else None
        return []

    def infer_classes(
        self,
        unit: "ModuleUnit",
        scope: Optional[ast.AST],
        cls: Optional[ClassInfo],
        expr: ast.expr,
        _depth: int = 0,
    ) -> List[ClassInfo]:
        """Best-effort class(es) an expression evaluates to."""
        if _depth > 6:
            return []
        if isinstance(expr, ast.Name):
            if expr.id == "self" and cls is not None:
                return [cls]
            out: List[ClassInfo] = []
            for bound in self._name_bindings(unit, scope, expr.id):
                out.extend(self.infer_classes(unit, scope, cls, bound, _depth + 1))
            return out
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and cls is not None
            ):
                out = []
                for name in cls.attr_class_names.get(expr.attr, ()):
                    out.extend(self._classes_named(unit, name))
                return out
            return []
        if isinstance(expr, ast.Await):
            return self.infer_classes(unit, scope, cls, expr.value, _depth + 1)
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Call):
                # `get_kernel(name)()`: instantiating whatever class the
                # inner call resolves to yields that class's instances.
                return self.infer_classes(unit, scope, cls, expr.func, _depth + 1)
            callee = _callable_name(expr.func)
            if callee in _REGISTRY_GETTERS:
                return self._registry_dispatch(unit, scope, cls, expr, _depth)
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _ESCALATION_METHODS
            ):
                out = []
                for recv in self.infer_classes(
                    unit, scope, cls, expr.func.value, _depth + 1
                ):
                    out.extend(self.escalation_targets(recv))
                return out
            if callee is not None:
                return self._classes_named(unit, callee)
        return []

    def _registry_dispatch(
        self,
        unit: "ModuleUnit",
        scope: Optional[ast.AST],
        cls: Optional[ClassInfo],
        call: ast.Call,
        depth: int,
    ) -> List[ClassInfo]:
        """``get_kernel(arg)``: literal -> that class, else every kernel."""
        arg = call.args[0] if call.args else None
        literal = _str_const(arg)
        if literal is not None:
            target = self.kernels.get(literal)
            return [target] if target is not None else []
        if isinstance(arg, ast.Attribute) and arg.attr == "escalates_to":
            out: List[ClassInfo] = []
            for recv in self.infer_classes(unit, scope, cls, arg.value, depth + 1):
                out.extend(self.escalation_targets(recv))
            return out
        return sorted(self.kernels.values(), key=lambda c: c.qualname)

    def _classes_named(self, unit: "ModuleUnit", name: str) -> List[ClassInfo]:
        target = self.imports.get((unit.module_name, name))
        if target is not None and target in self.classes:
            return [self.classes[target]]
        same_module = self.classes.get(f"{unit.module_name}.{name}")
        if same_module is not None:
            return [same_module]
        candidates = self.classes_by_name.get(name, [])
        return [candidates[0]] if len(candidates) == 1 else []

    def _name_bindings(
        self, unit: "ModuleUnit", scope: Optional[ast.AST], name: str
    ) -> List[ast.expr]:
        bound = unit.bindings(scope).get(name)
        if bound:
            return bound
        if scope is not None:
            return unit.bindings(None).get(name, [])
        return []

    def resolve_call(
        self,
        unit: "ModuleUnit",
        scope: Optional[ast.AST],
        cls: Optional[ClassInfo],
        call: ast.Call,
    ) -> List[FunctionInfo]:
        """Resolve one call expression to its possible targets."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_callable(unit, scope, cls, func.id, set())
        if isinstance(func, ast.Attribute):
            targets: List[FunctionInfo] = []
            seen: Set[str] = set()
            for recv in self.infer_classes(unit, scope, cls, func.value):
                method = self.resolve_method(recv, func.attr)
                if method is not None and method.qualname not in seen:
                    seen.add(method.qualname)
                    targets.append(method)
            if not targets and isinstance(func.value, ast.Name):
                # Module-attribute call: `codec.decode_reduce_batch(...)`.
                module = self.imports.get((unit.module_name, func.value.id))
                if module is not None:
                    info = self.functions.get(f"{module}.{func.attr}")
                    if info is not None:
                        targets.append(info)
            return targets
        return []

    def _resolve_name_callable(
        self,
        unit: "ModuleUnit",
        scope: Optional[ast.AST],
        cls: Optional[ClassInfo],
        name: str,
        seen: Set[str],
    ) -> List[FunctionInfo]:
        key = f"{unit.module_name}:{name}"
        if key in seen:
            return []
        seen.add(key)
        # Local binding first: partial(...) aliases and renames.
        for bound in self._name_bindings(unit, scope, name):
            if isinstance(bound, ast.Call):
                bound_name = _callable_name(bound.func)
                if bound_name == "partial" and bound.args:
                    inner = bound.args[0]
                    if isinstance(inner, ast.Name):
                        return self._resolve_name_callable(
                            unit, scope, cls, inner.id, seen
                        )
                    if isinstance(inner, ast.Attribute):
                        fake = ast.Call(func=inner, args=[], keywords=[])
                        ast.copy_location(fake, bound)
                        return self.resolve_call(unit, scope, cls, fake)
            elif isinstance(bound, ast.Name):
                return self._resolve_name_callable(
                    unit, scope, cls, bound.id, seen
                )
        own = self.functions.get(f"{unit.module_name}.{name}")
        if own is not None:
            return [own]
        target = self.imports.get((unit.module_name, name))
        if target is not None and target in self.functions:
            return [self.functions[target]]
        return []

    # -- convenience for tests and rules ---------------------------------

    def call_edges(self, fn: FunctionInfo) -> FrozenSet[str]:
        """Qualnames of every resolvable callee inside *fn*."""
        cls = self.classes.get(fn.class_qualname) if fn.class_qualname else None
        out: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                for target in self.resolve_call(fn.unit, fn.node, cls, node):
                    out.add(target.qualname)
        return frozenset(out)
