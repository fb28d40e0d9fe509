"""Architecture-invariant rules: the shape PR 4's refactor must keep.

The kernel/codec/planner architecture is only bit-safe while three
structural facts hold: every byte layout lives in ``repro.codec``
(ARCH001), everything registered as a kernel actually implements the
:class:`~repro.kernels.base.SumKernel` protocol (ARCH002), every
``to_wire`` emits a frame the codec table can decode (ARCH003), and
execution planes stay decoupled except through the shared layers and
:data:`repro.plan.PLANES` (ARCH004). These rules make those facts
machine-checked — ARCH001 replaces the CI grep gate with scope-aware
AST analysis (a grep cannot tell a comment from a call, nor allow
``codec.py`` by scope rather than by filename match).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.core import Finding, ModuleUnit, Rule, register_rule

__all__ = [
    "StructOutsideCodec",
    "KernelProtocolConformance",
    "UnregisteredWireFormat",
    "CrossPlaneImport",
    "BoxedFloatWirePayload",
]

_STRUCT_ATTRS = {
    "pack",
    "unpack",
    "pack_into",
    "unpack_from",
    "iter_unpack",
    "calcsize",
    "Struct",
}


@register_rule
class StructOutsideCodec(Rule):
    """ARCH001: ``struct`` framing anywhere but ``repro/codec.py``.

    One module owns every wire layout so frames cannot drift between
    producer and consumer. Any ``struct.pack``/``unpack``/``Struct``
    use (or ``from struct import ...``) outside the codec is ad-hoc
    framing.
    """

    id = "ARCH001"
    title = "struct framing outside repro.codec"
    rationale = (
        "byte layouts defined away from the codec registry drift from "
        "their decoders and dodge the codec fuzz tests"
    )
    fixit = (
        "move the layout into repro/codec.py as a magic-tagged frame "
        "(encode_*/decode_* pair registered in _DECODERS)"
    )

    def applies_to(self, unit: ModuleUnit) -> bool:
        return unit.parts != ("repro", "codec")

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        for node in ast.walk(unit.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "struct"
                and node.attr in _STRUCT_ATTRS
            ):
                yield self.finding(
                    unit,
                    node,
                    f"struct.{node.attr} used outside repro.codec",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "struct":
                yield self.finding(
                    unit,
                    node,
                    "importing from struct outside repro.codec",
                )


#: The SumKernel protocol surface a registered kernel must provide.
_KERNEL_REQUIRED = ("zero", "fold", "combine", "round", "to_wire", "from_wire")


def _decorator_name(dec: ast.expr) -> Optional[str]:
    if isinstance(dec, ast.Name):
        return dec.id
    if isinstance(dec, ast.Attribute):
        return dec.attr
    if isinstance(dec, ast.Call):
        return _decorator_name(dec.func)
    return None


@register_rule
class KernelProtocolConformance(Rule):
    """ARCH002: registered kernels must satisfy the SumKernel protocol.

    A class decorated with ``@register_kernel`` enters the registry
    that every plane schedules through; a missing method fails at fold
    time on whichever plane reaches it first. Check statically: the
    class (through its locally visible base chain) must define
    ``zero``/``fold``/``combine``/``round``/``to_wire``/``from_wire``
    and a distinct class-level ``name``.
    """

    id = "ARCH002"
    title = "registered kernel missing SumKernel protocol members"
    rationale = (
        "the registry promises every plane a complete "
        "fold/combine/round/wire surface; a gap is a runtime "
        "AttributeError on some plane"
    )
    fixit = "implement the missing methods or inherit a kernel that does"

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(unit.tree)
            if isinstance(node, ast.ClassDef)
        }
        for cls in classes.values():
            if not any(
                _decorator_name(d) == "register_kernel" for d in cls.decorator_list
            ):
                continue
            provided, has_name, leniency = self._collect(cls, classes)
            if leniency:
                # An unresolvable (imported) base may provide anything;
                # only the registry key stays checkable.
                missing: List[str] = []
            else:
                missing = [m for m in _KERNEL_REQUIRED if m not in provided]
            if missing:
                yield self.finding(
                    unit,
                    cls,
                    f"kernel class {cls.name} does not implement "
                    f"{', '.join(missing)} from the SumKernel protocol",
                )
            if not has_name:
                yield self.finding(
                    unit,
                    cls,
                    f"kernel class {cls.name} needs a class-level "
                    f"'name' string (the registry key)",
                )

    def _collect(
        self,
        cls: ast.ClassDef,
        classes: Dict[str, ast.ClassDef],
        _seen: Optional[Set[str]] = None,
    ):
        seen = _seen if _seen is not None else set()
        seen.add(cls.name)
        provided: Set[str] = set()
        has_name = False
        leniency = False
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                provided.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "name":
                        value = stmt.value
                        if (
                            isinstance(value, ast.Constant)
                            and isinstance(value.value, str)
                            and value.value
                            and value.value != "?"
                        ):
                            has_name = True
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "name"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                    and stmt.value.value not in ("", "?")
                ):
                    has_name = True
        for base in cls.bases:
            base_name = base.id if isinstance(base, ast.Name) else None
            if base_name in ("SumKernel", "ABC", "object", None):
                # The abstract protocol root provides no concrete
                # fold/wire members worth crediting.
                continue
            if base_name in classes and base_name not in seen:
                b_provided, b_name, b_len = self._collect(
                    classes[base_name], classes, seen
                )
                provided |= b_provided
                has_name = has_name or b_name
                leniency = leniency or b_len
            else:
                leniency = True
        return provided, has_name, leniency


@register_rule
class UnregisteredWireFormat(Rule):
    """ARCH003: ``to_wire`` must emit frames the codec table can decode.

    ``to_wire`` implementations may only build frames through the
    ``encode_*`` functions whose decoders are registered in
    ``repro.codec._DECODERS`` — an encoder without a registered
    decoder produces bytes :func:`repro.codec.decode` cannot dispatch.
    Four-byte bytes literals inside ``to_wire`` are ad-hoc magics and
    are flagged outright.
    """

    id = "ARCH003"
    title = "to_wire frame not registered in the codec table"
    rationale = (
        "a frame whose magic is missing from _DECODERS cannot be "
        "decoded generically; snapshots and shuffles would dead-end"
    )
    fixit = (
        "register the format in repro.codec._DECODERS and emit it "
        "through its encode_* function"
    )

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        encoders = unit.context.codec_encoders
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.FunctionDef) or node.name != "to_wire":
                continue
            if unit.enclosing_class(node) is None:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    name = None
                    if isinstance(sub.func, ast.Name):
                        name = sub.func.id
                    elif isinstance(sub.func, ast.Attribute):
                        name = sub.func.attr
                    if (
                        name
                        and name.startswith("encode_")
                        and encoders is not None
                        and name not in encoders
                    ):
                        yield self.finding(
                            unit,
                            sub,
                            f"{name} has no decoder registered in the "
                            f"codec table (_DECODERS)",
                        )
                elif (
                    isinstance(sub, ast.Constant)
                    and isinstance(sub.value, bytes)
                    and len(sub.value) == 4
                ):
                    yield self.finding(
                        unit,
                        sub,
                        f"ad-hoc 4-byte magic {sub.value!r} in to_wire; "
                        f"frames come from the codec registry",
                    )


#: repro subpackages (and the streaming module) that are execution
#: planes: they may not import one another directly.
_PLANE_PACKAGES = {"serve", "cluster", "mapreduce", "extmem", "bsp", "pram", "streaming"}

#: Sanctioned plane-to-plane dependencies. The cluster plane is, by
#: design, a composition of serve nodes — its coordinator speaks the
#: serve protocol and its nodes *are* WAL-fronted ReproServices — so
#: cluster→serve is the architecture, not a violation. Everything
#: else still goes through the kernel layer or plan.PLANES.
_ALLOWED_PLANE_DEPS = {"cluster": {"serve"}}


@register_rule
class CrossPlaneImport(Rule):
    """ARCH004: planes talk through the kernel layer, not each other.

    Every execution plane consumes the same SumKernel protocol and is
    scheduled via :data:`repro.plan.PLANES`. A direct import from one
    plane into another couples two schedules the planner believes are
    independent (and breaks the "any plane can be deleted" property
    the matrix test relies on). Shared layers — ``core``, ``kernels``,
    ``codec``, ``data``, ``util`` — are importable from anywhere.
    """

    id = "ARCH004"
    title = "cross-plane import bypassing plan.PLANES"
    rationale = (
        "plane-to-plane imports create hidden coupling the planner "
        "and the bit-identity matrix cannot see"
    )
    fixit = (
        "move the shared piece into a common layer (kernels/codec/"
        "data) or dispatch through repro.plan.run_reduction"
    )

    def applies_to(self, unit: ModuleUnit) -> bool:
        return self._plane_of(unit.parts) is not None

    @staticmethod
    def _plane_of(parts) -> Optional[str]:
        if len(parts) >= 2 and parts[1] in _PLANE_PACKAGES:
            return parts[1]
        return None

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        own = self._plane_of(unit.parts)
        for node in ast.walk(unit.tree):
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets = [node.module]
            for target in targets:
                parts = target.split(".")
                if (
                    len(parts) >= 2
                    and parts[0] == "repro"
                    and parts[1] in _PLANE_PACKAGES
                    and parts[1] != own
                    and parts[1] not in _ALLOWED_PLANE_DEPS.get(own, set())
                ):
                    yield self.finding(
                        unit,
                        node,
                        f"plane '{own}' imports plane '{parts[1]}' "
                        f"({target}) directly",
                    )


#: Networked subpackages whose value-bearing payloads have a codec
#: fast path: boxing floats there is a silent 3-10x wire regression.
_WIRE_PACKAGES = {"serve", "cluster"}


def _is_float_boxing(node: ast.expr) -> bool:
    """``[float(v) for v in ...]`` — the boxed-payload signature."""
    if not isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return False
    elt = node.elt
    return (
        isinstance(elt, ast.Call)
        and isinstance(elt.func, ast.Name)
        and elt.func.id == "float"
    )


@register_rule
class BoxedFloatWirePayload(Rule):
    """ARCH005: value-bearing wire/WAL payloads must use the codec.

    The serve and cluster planes carry float64 batches as codec frames
    (``RBAT`` on the wire, ``WALO`` in the log): raw little-endian
    bytes, bit-exact by construction, zero boxing. Building a payload
    as ``values=[float(v) for v in ...]`` — or ``json.dumps`` of such
    a sequence — inside those packages re-routes the batch through
    per-value Python boxing and JSON text, silently forfeiting the
    binary fast path. The JSON-lines *fallback* wire is the one
    sanctioned boxing site; mark it with a justified suppression.
    """

    id = "ARCH005"
    title = "boxed float payload on a codec-capable wire path"
    rationale = (
        "float batches boxed into JSON lists bypass the RBAT/WALO "
        "codec frames, costing ~3x wire bytes and per-value boxing on "
        "paths that have a bit-identical binary fast path"
    )
    fixit = (
        "ship the batch as an ndarray through request_batch/add_batch "
        "(codec RBAT frame), or suppress with a justification if this "
        "is the JSON-lines fallback wire itself"
    )

    def applies_to(self, unit: ModuleUnit) -> bool:
        return len(unit.parts) >= 2 and unit.parts[1] in _WIRE_PACKAGES

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Call):
                func = node.func
                is_dumps = (
                    isinstance(func, ast.Attribute)
                    and func.attr == "dumps"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "json"
                )
                if is_dumps:
                    for arg in list(node.args) + [k.value for k in node.keywords]:
                        for sub in ast.walk(arg):
                            if _is_float_boxing(sub):
                                yield self.finding(
                                    unit,
                                    sub,
                                    "json.dumps of a boxed float sequence; "
                                    "value payloads ride codec frames",
                                )
                for kw in node.keywords:
                    if kw.arg == "values" and _is_float_boxing(kw.value):
                        yield self.finding(
                            unit,
                            kw.value,
                            "boxed float list passed as a 'values' "
                            "payload; send the ndarray as a codec frame",
                        )
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant)
                        and key.value == "values"
                        and value is not None
                        and _is_float_boxing(value)
                    ):
                        yield self.finding(
                            unit,
                            value,
                            "boxed float list under a 'values' payload "
                            "key; send the ndarray as a codec frame",
                        )
