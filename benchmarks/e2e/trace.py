"""The traced pass: spans around public callables of every layer.

Nothing under ``src/`` knows about this.  :class:`Tracer` wraps a declared
table of callables (:data:`TARGETS`) from the benchmark process only,
rebinding every ``from x import f`` alias that *is* the original so calls
through importing modules are seen, and removes the wrappers afterwards.
A span is (name, layer, start, end, span id, parent id, operation id); a
span's self time is its duration minus the time its child spans cover, so
time spent in callees that are not wrapped is charged to the nearest
wrapped caller's layer.  Spans stay in memory and are written as Chrome
trace JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.batch import num_rows

#: Spans kept for the Chrome trace; aggregates keep counting past this.
MAX_SPANS = 200_000

_MARK = "_e2e_trace_original"
_NO_SCOPE = contextlib.nullcontext()


# -- count hooks (run after the wrapped call, outside its span) ---------------


def _rows_in_out(tracer: "Tracer", args, kwargs, result) -> None:
    counters = tracer.counters
    counters["engine.rows_in"] += num_rows(args[0])
    counters["engine.rows_out"] += num_rows(result)


def _join_rows_in_out(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["engine.rows_in"] += num_rows(args[1])
    _rows_in_out(tracer, args, kwargs, result)


def _pagefile_read(tracer: "Tracer", args, kwargs, result) -> None:
    counters = tracer.counters
    counters["pagefile.rows_decoded"] += num_rows(result)
    counters["pagefile.bytes_decoded"] += sum(v.nbytes for v in result.values())
    prune = kwargs.get("prune", args[2] if len(args) > 2 else None)
    scanned, pruned = args[0].prune_counts(prune)
    counters["pagefile.rowgroups_scanned"] += scanned
    counters["pagefile.rowgroups_pruned"] += pruned


def _storage_put(tracer: "Tracer", args, kwargs, result) -> None:
    if tracer.open_spans["sto.compaction"]:
        tracer.counters["sto.compaction_bytes_rewritten"] += result.size


def _zone_map_prune(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["fe.files_pruned"] += len(args[0].files) - len(result.files)


def _index_prune(tracer: "Tracer", args, kwargs, result) -> None:
    snapshot = kwargs.get("snapshot", args[4] if len(args) > 4 else None)
    pruned = len(snapshot.files) - len(result.files)
    tracer.counters["fe.files_pruned"] += pruned
    tracer.counters["optimizer.index_files_pruned"] += pruned


def _rewrite(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["optimizer.plans_changed"] += bool(result[1].applied)


def _dag(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["dcp.tasks"] += len(result.results)
    tracer.counters["dcp.task_sim_s"] += result.makespan


#: (span name, "module:qualified.name", count hook).  The layer is the
#: span name's first component: a package under ``src/repro``, or
#: ``harness`` for the benchmark's own reference kernel.
TARGETS: List[Tuple[str, str, Optional[Callable]]] = [
    ("storage.get", "repro.storage.object_store:ObjectStore.get", None),
    ("storage.put", "repro.storage.object_store:ObjectStore.put", _storage_put),
    ("storage.stage_block", "repro.storage.object_store:ObjectStore.stage_block", None),
    ("storage.commit_block_list",
     "repro.storage.object_store:ObjectStore.commit_block_list", None),
    ("storage.delete", "repro.storage.object_store:ObjectStore.delete", None),
    ("storage.head", "repro.storage.object_store:ObjectStore.head", None),
    ("pagefile.read.decode", "repro.pagefile.reader:PageFileReader.read", _pagefile_read),
    ("pagefile.read.footer", "repro.pagefile.file_format:read_footer", None),
    ("pagefile.read.dv", "repro.pagefile.deletion_vector:DeletionVector.from_bytes", None),
    ("pagefile.write.encode", "repro.pagefile.file_format:write_page_file", None),
    ("pagefile.write.dv", "repro.pagefile.deletion_vector:DeletionVector.to_bytes", None),
    ("pagefile.write.dv_union", "repro.pagefile.deletion_vector:DeletionVector.union", None),
    ("lst.replay.cache_get", "repro.lst.cache:SnapshotCache.get", None),
    ("lst.replay.apply", "repro.lst.snapshot:TableSnapshot.apply_manifest", None),
    ("lst.replay.fn", "repro.lst.snapshot:replay", None),
    ("lst.replay.decode", "repro.lst.manifest:decode_manifest", None),
    ("lst.replay.checkpoint", "repro.lst.checkpoint:Checkpoint.from_bytes", None),
    ("lst.encode.actions", "repro.lst.manifest:encode_actions", None),
    ("lst.encode.checkpoint", "repro.lst.checkpoint:Checkpoint.to_bytes", None),
    ("sqldb.begin", "repro.sqldb.engine:SqlDbEngine.begin", None),
    ("sqldb.commit.engine", "repro.sqldb.engine:SqlDbEngine.commit_transaction", None),
    ("sqldb.recover", "repro.sqldb.engine:SqlDbEngine.recover_in_doubt", None),
    ("sqldb.commit.txn", "repro.sqldb.transaction:SqlDbTransaction.commit", None),
    ("sqldb.commit.validate", "repro.sqldb.transaction:SqlDbTransaction.validate", None),
    # ``scan`` is a generator: opening it is cheap, and its rows are
    # produced while the catalog function below consumes them.
    ("sqldb.scan.open", "repro.sqldb.transaction:SqlDbTransaction.scan", None),
    ("sqldb.scan.find_table_by_name", "repro.sqldb.system_tables:find_table_by_name", None),
    ("sqldb.scan.list_tables", "repro.sqldb.system_tables:list_tables", None),
    ("sqldb.scan.manifests_for_table", "repro.sqldb.system_tables:manifests_for_table", None),
    ("sqldb.scan.latest_checkpoint", "repro.sqldb.system_tables:latest_checkpoint", None),
    ("sqldb.scan.checkpoints_for_table", "repro.sqldb.system_tables:checkpoints_for_table", None),
    ("sqldb.scan.latest_table_stats", "repro.sqldb.system_tables:latest_table_stats", None),
    ("sqldb.scan.stats_for_table", "repro.sqldb.system_tables:stats_for_table", None),
    ("sqldb.scan.all_table_stats", "repro.sqldb.system_tables:all_table_stats", None),
    ("sqldb.scan.indexes_for_table", "repro.sqldb.system_tables:indexes_for_table", None),
    ("sqldb.scan.all_indexes", "repro.sqldb.system_tables:all_indexes", None),
    ("sqldb.get", "repro.sqldb.transaction:SqlDbTransaction.get", None),
    ("sqldb.put", "repro.sqldb.transaction:SqlDbTransaction.put", None),
    ("sqldb.upsert", "repro.sqldb.transaction:SqlDbTransaction.upsert", None),
    ("sqldb.abort", "repro.sqldb.transaction:SqlDbTransaction.abort", None),
    ("sqldb.catalog.insert_table", "repro.sqldb.system_tables:insert_table", None),
    ("sqldb.catalog.get_table", "repro.sqldb.system_tables:get_table", None),
    ("sqldb.catalog.drop_table", "repro.sqldb.system_tables:drop_table", None),
    ("sqldb.catalog.insert_manifest", "repro.sqldb.system_tables:insert_manifest", None),
    ("sqldb.catalog.upsert_writeset", "repro.sqldb.system_tables:upsert_writeset", None),
    ("sqldb.catalog.insert_checkpoint", "repro.sqldb.system_tables:insert_checkpoint", None),
    ("sqldb.catalog.put_table_stats", "repro.sqldb.system_tables:put_table_stats", None),
    ("sqldb.catalog.delete_table_stats", "repro.sqldb.system_tables:delete_table_stats", None),
    ("sqldb.catalog.put_index", "repro.sqldb.system_tables:put_index", None),
    ("sqldb.catalog.get_index", "repro.sqldb.system_tables:get_index", None),
    ("sqldb.catalog.drop_index", "repro.sqldb.system_tables:drop_index", None),
    ("sqldb.delete", "repro.sqldb.transaction:SqlDbTransaction.delete", None),
    ("sqldb.min_active_begin_ts", "repro.sqldb.engine:SqlDbEngine.min_active_begin_ts", None),
    ("fe.session.query", "repro.fe.session:Session.query", None),
    ("fe.session.insert", "repro.fe.session:Session.insert", None),
    ("fe.session.bulk_load", "repro.fe.session:Session.bulk_load", None),
    ("fe.session.update", "repro.fe.session:Session.update", None),
    ("fe.session.delete", "repro.fe.session:Session.delete", None),
    ("fe.session.begin", "repro.fe.session:Session.begin", None),
    ("fe.session.commit", "repro.fe.session:Session.commit", None),
    ("fe.session.rollback", "repro.fe.session:Session.rollback", None),
    ("fe.session.table_snapshot", "repro.fe.session:Session.table_snapshot", None),
    ("fe.query", "repro.fe.read_path:execute_query", None),
    ("fe.query_profiled", "repro.fe.read_path:execute_query_profiled", None),
    ("fe.scan.table", "repro.fe.read_path:scan_table", None),
    ("fe.scan.prune", "repro.fe.read_path:_prune_snapshot", _zone_map_prune),
    ("fe.scan.open", "repro.fe.write_path:_open_data_file", None),
    ("fe.scan.dv", "repro.fe.write_path:_load_dv", None),
    ("fe.write.insert", "repro.fe.write_path:execute_insert", None),
    ("fe.write.bulk_load", "repro.fe.write_path:execute_bulk_load", None),
    ("fe.write.update", "repro.fe.write_path:execute_update", None),
    ("fe.write.delete", "repro.fe.write_path:execute_delete", None),
    ("fe.write.flush_insert", "repro.fe.transaction:PolarisTransaction.flush_insert", None),
    ("fe.write.flush_rewrite", "repro.fe.transaction:PolarisTransaction.flush_rewrite", None),
    ("fe.commit", "repro.fe.transaction:PolarisTransaction.commit", None),
    ("fe.rollback", "repro.fe.transaction:PolarisTransaction.rollback", None),
    ("fe.txn.snapshot", "repro.fe.transaction:PolarisTransaction.table_snapshot", None),
    ("fe.catalog.describe", "repro.fe.catalog:describe_table", None),
    ("engine.execute_plan", "repro.engine.executor:execute_plan", None),
    ("engine.join.dispatch", "repro.engine.operators:join", _join_rows_in_out),
    ("engine.join.hash", "repro.engine.operators:hash_join", None),
    ("engine.join.sort_merge", "repro.engine.operators:sort_merge_join", None),
    ("engine.join.block_nl", "repro.engine.operators:block_nested_loop_join", None),
    ("engine.join.index_nl", "repro.engine.operators:index_nested_loop_join", None),
    ("engine.aggregate", "repro.engine.operators:aggregate", _rows_in_out),
    ("engine.filter", "repro.engine.operators:filter_batch", _rows_in_out),
    ("engine.project", "repro.engine.operators:project", _rows_in_out),
    ("engine.sort", "repro.engine.operators:sort", _rows_in_out),
    ("engine.limit", "repro.engine.operators:limit", _rows_in_out),
    ("optimizer.rewrite", "repro.optimizer.manager:QueryOptimizer.rewrite", _rewrite),
    ("optimizer.prune", "repro.optimizer.manager:QueryOptimizer.prune_snapshot",
     _index_prune),
    ("optimizer.analyze", "repro.optimizer.manager:QueryOptimizer.analyze_table", None),
    ("optimizer.create_index", "repro.optimizer.manager:QueryOptimizer.create_index", None),
    ("optimizer.refresh_indexes",
     "repro.optimizer.manager:QueryOptimizer.refresh_indexes", None),
    ("sql.lex", "repro.sql.lexer:tokenize", None),
    ("sql.parse", "repro.sql.parser:parse", None),
    ("sql.bind", "repro.sql.binder:Binder.bind_select", None),
    ("sql.execute", "repro.sql.runner:SqlSession.execute", None),
    ("dcp.execute", "repro.dcp.scheduler:Scheduler.execute", _dag),
    ("sto.compaction", "repro.sto.compaction:run_compaction", None),
    ("sto.checkpoint", "repro.sto.checkpointer:run_checkpoint", None),
    ("sto.gc", "repro.sto.gc:run_garbage_collection", None),
    ("service.submit", "repro.service.gateway:Gateway.submit", None),
    ("service.dispatch", "repro.service.gateway:Gateway.run", None),
    ("chaos.recover", "repro.chaos.recovery:RecoveryManager.recover", None),
    # The reference kernel runs between operations; as a span of its own it
    # is not charged to whichever layer happens to be on the stack.
    ("harness.kernel", "benchmarks.e2e.calibration:kernel", None),
    ("telemetry.span", "repro.telemetry.facade:Telemetry.span", None),
    ("telemetry.start_span", "repro.telemetry.facade:Telemetry.start_span", None),
    ("telemetry.end_span", "repro.telemetry.facade:Telemetry.end_span", None),
    ("telemetry.activate", "repro.telemetry.facade:Telemetry.activate", None),
    ("telemetry.add_event", "repro.telemetry.facade:Telemetry.add_event", None),
    ("telemetry.storage_request", "repro.telemetry.facade:Telemetry.storage_request", None),
    ("telemetry.latency_charged", "repro.telemetry.facade:Telemetry.latency_charged", None),
    ("telemetry.retry_attempt", "repro.telemetry.facade:Telemetry.retry_attempt", None),
]


def _import_all_of_repro() -> None:
    """Import every ``repro`` module now, so each alias of a target exists
    (and is rebound) before the wrappers go in, not created from a wrapper
    afterwards by a lazy import."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _repro_modules():
    """Loaded modules that may hold a target or an alias of one."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith(("repro.", "benchmarks.e2e.")))
    ]


class _OpScope:
    """Root span of one benchmark operation (see :meth:`Tracer.op`)."""

    __slots__ = ("_tracer", "_frame", "_start")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> None:
        tracer = self._tracer
        tracer.op_id += 1
        tracer.next_span_id += 1
        self._frame = [0.0, tracer.next_span_id]
        tracer.stack.append(self._frame)
        self._start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer.stack
        stack.pop()
        duration = end - self._start
        tracer.root_total_s += duration
        tracer.root_self_s += duration - self._frame[0]
        parent_id = 0
        if stack:
            # gateway_mix: the operation runs inside the dispatcher's span.
            stack[-1][0] += duration
            parent_id = stack[-1][1]
        if len(tracer.spans) < MAX_SPANS:
            tracer.spans.append(
                ("op", "harness", self._start, end, self._frame[1], parent_id,
                 tracer.op_id)
            )
        return False


class Tracer:
    """Installs the wrappers, collects spans and counts, removes them."""

    def __init__(self) -> None:
        #: span name -> summed self seconds / calls / calls that raised.
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)
        #: Counts taken by the hooks at the same wrappers.
        self.counters: Dict[str, float] = defaultdict(float)
        #: span name -> spans of that name currently open.
        self.open_spans: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, str, float, float, int, int, int]] = []
        #: Open frames, innermost last: [child seconds, span id].
        self.stack: List[List[Any]] = []
        self.op_id = 0
        self.next_span_id = 0
        #: Operation root spans: total duration, and the part of it no
        #: wrapped callable explains.
        self.root_total_s = 0.0
        self.root_self_s = 0.0
        #: While True the wrappers pass calls straight through (set-up and
        #: end-of-run episodes are not part of any round).
        self.paused = False
        self._patches: List[Tuple[Any, str, Any]] = []

    def op(self) -> Any:
        """Context manager: the root span of one operation."""
        return _NO_SCOPE if self.paused else _OpScope(self)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        layer = name.split(".", 1)[0]
        stack = self.stack
        spans = self.spans
        self_s, calls, errors, open_spans = (
            self.self_s, self.calls, self.errors, self.open_spans
        )
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.next_span_id += 1
            frame = [0.0, tracer.next_span_id]
            parent_id = stack[-1][1] if stack else 0
            stack.append(frame)
            open_spans[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                open_spans[name] -= 1
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if len(spans) < MAX_SPANS:
                    spans.append(
                        (name, layer, start, end, frame[1], parent_id, tracer.op_id)
                    )
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every target and rebind its aliases."""
        _import_all_of_repro()
        replaced: Dict[int, Tuple[Any, Any]] = {}
        for name, target, hook in TARGETS:
            module_name, _, qualified = target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualified.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(name, raw.__func__, hook))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__, hook))
            else:
                wrapped = self._wrap(name, raw, hook)
                if not path:
                    replaced[id(raw)] = (raw, wrapped)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        # ``from x import f`` made other names for module-level functions.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Write the retained spans as Chrome trace JSON (Perfetto loads it)."""
        if not self.spans:
            events: List[Dict[str, Any]] = []
        else:
            origin = min(span[2] for span in self.spans)
            events = [
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"id": span_id, "parent": parent_id, "op": op_id},
                }
                for name, layer, start, end, span_id, parent_id, op_id in self.spans
            ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def self_by_layer(self_s: Dict[str, float]) -> Dict[str, float]:
    """Self seconds per layer from self seconds per span name."""
    out: Dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        out[name.split(".", 1)[0]] += seconds
    return dict(out)


def self_of(self_s: Dict[str, float], *prefixes: str) -> float:
    """Self seconds of the spans whose name is, or starts with, a prefix."""
    return sum(
        seconds
        for name, seconds in self_s.items()
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


def leftover_wrappers() -> List[str]:
    """Names still bound to a trace wrapper (empty after ``uninstall``)."""
    found = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{attr}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for member, raw in list(vars(value).items()):
                    inner = getattr(raw, "__func__", raw)
                    if hasattr(inner, _MARK):
                        found.append(f"{module.__name__}.{attr}.{member}")
    return found
