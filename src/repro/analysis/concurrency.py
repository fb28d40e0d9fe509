"""Concurrency-invariant rules: single-writer shards, event-loop hygiene.

The serving plane's exactness story leans on two disciplines no test
can fully pin down: shard state is mutated only by the shard's own
synchronous methods on the event loop thread (so folds need no locks
and a read with no ``await`` inside *is* one consistent snapshot), and
the event loop never blocks (so backpressure and latency numbers mean
what they claim). The shared-memory data
plane adds a third: a published segment is immutable (workers hold
zero-copy views into it). These rules encode all three.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.core import Finding, ModuleUnit, Rule, register_rule

__all__ = [
    "BlockingIoInAsync",
    "ShardStateEscape",
    "SegmentWriteAfterPublish",
    "BlockingIoInClusterAsync",
]

#: Module-level calls that block the event loop.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"),
    ("os", "system"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("socket", "create_connection"),
    ("requests", "get"),
    ("requests", "post"),
}
#: Blocking filesystem methods regardless of receiver (Path-style I/O).
_BLOCKING_METHOD_NAMES = {
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
}


@register_rule
class BlockingIoInAsync(Rule):
    """CC001: blocking I/O inside ``serve/`` async functions.

    One blocking call in a handler stalls every connection served by
    the same loop — inline folds, reply flushes and p99 latency all
    silently degrade. Blocking work moves to
    ``await asyncio.to_thread(...)``.
    """

    id = "CC001"
    title = "blocking I/O on the serving event loop"
    rationale = (
        "a blocked loop freezes every shard writer and poisons the "
        "latency/backpressure numbers the service reports"
    )
    fixit = "wrap the call in 'await asyncio.to_thread(...)'"

    def applies_to(self, unit: ModuleUnit) -> bool:
        return "serve" in unit.parts

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                label = self._blocking_label(sub)
                if label is not None:
                    yield self.finding(
                        unit,
                        sub,
                        f"blocking call {label} inside async "
                        f"'{node.name}' stalls the event loop",
                    )

    @staticmethod
    def _blocking_label(call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "open()"
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and (func.value.id, func.attr) in _BLOCKING_MODULE_CALLS
            ):
                return f"{func.value.id}.{func.attr}()"
            if func.attr in _BLOCKING_METHOD_NAMES:
                return f".{func.attr}()"
        return None


#: Additional blocking calls that matter on the cluster's WAL path:
#: durability syscalls that must run on the WAL writer thread or in an
#: ``asyncio.to_thread`` hop, never on the event loop.
_BLOCKING_FS_CALLS = {
    ("os", "fsync"),
    ("os", "replace"),
    ("os", "rename"),
    ("os", "remove"),
    ("os", "unlink"),
    ("shutil", "copy"),
    ("shutil", "copyfile"),
    ("shutil", "move"),
}


@register_rule
class BlockingIoInClusterAsync(BlockingIoInAsync):
    """CC004: blocking file I/O inside ``cluster/`` async functions.

    The coordinator's scatter/gather fan-outs, the failover healing
    path and the nodes' ingest handlers all share one event loop; a
    synchronous WAL append or fsync on that loop freezes every node
    handle at once — exactly when the cluster is trying to ride out a
    failure. Durability work goes through ``asyncio.to_thread`` or
    the WAL's writer thread, which batches it off-loop and acks from
    there.
    """

    id = "CC004"
    title = "blocking file I/O on the cluster event loop"
    rationale = (
        "a blocked coordinator loop stalls ingest, health probes and "
        "failover simultaneously; WAL durability must not cost loop "
        "latency"
    )
    fixit = (
        "route the call through 'await asyncio.to_thread(...)' or "
        "append it to the WalWriter, whose thread does the file I/O"
    )

    def applies_to(self, unit: ModuleUnit) -> bool:
        return "cluster" in unit.parts

    @staticmethod
    def _blocking_label(call: ast.Call) -> Optional[str]:
        label = BlockingIoInAsync._blocking_label(call)
        if label is not None:
            return label
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in _BLOCKING_FS_CALLS
        ):
            return f"{func.value.id}.{func.attr}()"
        return None


@register_rule
class ShardStateEscape(Rule):
    """CC002: shard accumulator state touched outside its owner.

    ``AccumulatorShard._streams`` is the partition's private state: only
    the shard's own methods (``fold``, ``call``) may read or mutate it.
    They run on the event loop thread between awaits, which is what
    makes a service read one consistent point. Any ``other._streams``
    access from outside the class bypasses that contract — a read can
    tear across an ``await``, and a write skips the fold accounting
    and corrupts exact state without failing loudly.
    """

    id = "CC002"
    title = "shard accumulator state accessed outside the owning shard"
    rationale = (
        "the lock-free fold path is sound only while the shard's own "
        "methods are the one way into the stream map; outside access "
        "can interleave with an await and see a half-applied batch"
    )
    fixit = (
        "route the access through shard.call(fn) so it runs in one "
        "synchronous step on the event loop thread"
    )

    #: Attributes that constitute the shard's private mutable state.
    _PROTECTED = {"_streams"}
    _OWNER = "AccumulatorShard"

    def applies_to(self, unit: ModuleUnit) -> bool:
        return "serve" in unit.parts

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        for node in ast.walk(unit.tree):
            if (
                not isinstance(node, ast.Attribute)
                or node.attr not in self._PROTECTED
            ):
                continue
            cls = unit.enclosing_class(node)
            inside_owner = (
                cls is not None
                and cls.name == self._OWNER
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            )
            if not inside_owner:
                yield self.finding(
                    unit,
                    node,
                    f"'{node.attr}' accessed outside {self._OWNER}'s own "
                    f"methods (single-writer discipline)",
                )


@register_rule
class SegmentWriteAfterPublish(Rule):
    """CC003: writes into a shared-memory segment view after publish.

    ``ShmDataPlane`` publishes segments whose bytes workers read
    through zero-copy views; the placement copy inside the plane is
    the *only* legal write. A store through ``resolve_block(...)`` or
    an ``np.frombuffer(seg.buf, ...)`` view outside the plane mutates
    data concurrently visible to every worker mid-fold.
    """

    id = "CC003"
    title = "shared-memory segment written after publish"
    rationale = (
        "workers fold straight out of the segment; a post-publish "
        "write is a data race that silently changes the sum being "
        "computed"
    )
    fixit = (
        "copy the view (np.array(view)) and mutate the copy, or place "
        "new data through ShmDataPlane before publishing"
    )

    _OWNER = "ShmDataPlane"

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        # Collect, per function scope, names bound to segment views.
        for node in ast.walk(unit.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    yield from self._check_store(unit, node, target)

    def _view_names(self, unit: ModuleUnit, scope) -> set:
        names = set()
        for name, values in unit.bindings(scope).items():
            for value in values:
                if self._is_view_expr(value):
                    names.add(name)
        return names

    @staticmethod
    def _is_view_expr(node: ast.expr) -> bool:
        """``resolve_block(...)`` or ``np.frombuffer(*.buf, ...)``."""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name) and func.id == "resolve_block":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "resolve_block":
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "frombuffer"
            and any(
                isinstance(arg, ast.Attribute) and arg.attr == "buf"
                for arg in node.args
            )
        ):
            return True
        return False

    def _check_store(
        self, unit: ModuleUnit, stmt: ast.AST, target: ast.expr
    ) -> Iterable[Finding]:
        cls = unit.enclosing_class(stmt)
        if cls is not None and cls.name == self._OWNER:
            return
        # view[...] = ...  or  np.frombuffer(seg.buf)[...] = ...
        if isinstance(target, ast.Subscript):
            base = target.value
            if self._is_view_expr(base):
                yield self.finding(
                    unit, stmt, "store into a fresh segment view after publish"
                )
                return
            if isinstance(base, ast.Name):
                scope = unit.enclosing_function(stmt)
                if base.id in self._view_names(unit, scope):
                    yield self.finding(
                        unit,
                        stmt,
                        f"store into segment view '{base.id}' after publish",
                    )
        # view.flags.writeable = True re-arms writes on a published view
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "writeable"
            and isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is True
        ):
            yield self.finding(
                unit,
                stmt,
                "re-enabling writes on a published segment view",
            )
