"""Per-layer tracing from the benchmark's own code.

The traced run wraps the program's public functions by replacing each
name where its caller looks it up (a module global, or a class attribute
for methods).  Every wrapped call records a span — name, start, end,
parent span and the id of the operation it belongs to — plus counts taken
at the same boundary.  Spans stay in memory and are written out as JSON
lines when the run ends.  A layer's self time is its spans' durations
minus the durations of their traced children.

Each patch target is resolved eagerly: a renamed or re-routed public
function raises :class:`~harness.BenchError` instead of silently
reporting an empty layer, and :func:`check_coverage` fails a run in
which a layer expected to work on that workload recorded no span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from harness import BenchError

RETRY_COUNTER = "reliability.retry.attempts"
_WRITE_PREFIXES = ("INSERT", "UPDATE", "DELETE", "REPLACE", "CREATE", "DROP",
                   "ALTER", "ANALYZE")


class Recorder:
    """In-memory span and count store shared by all patched functions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Spans are recorded only inside :func:`recording` blocks, so the
        #: benchmark's own checks between operations stay out of the trace.
        self.enabled = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op_id(self):
        return getattr(self._local, "op_id", None)

    @contextlib.contextmanager
    def operation(self, op_id):
        """Tag every span started on this thread with ``op_id``."""
        previous = self.op_id
        self._local.op_id = op_id
        try:
            yield
        finally:
            self._local.op_id = previous

    def top_layer(self) -> str | None:
        stack = self._stack()
        return stack[-1][1].split(".", 1)[0] if stack else None

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), name, stack[-1][0] if stack else 0,
                self.op_id, time.perf_counter_ns()]
        stack.append(span)
        return span

    def end(self, span: list, busy_ns: int | None = None) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        span_id, name, parent, op_id, start = span
        duration = end - start if busy_ns is None else busy_ns
        with self._lock:
            self.spans.append((span_id, name, parent, op_id, start, end,
                               duration))

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = self.begin(name)
        try:
            yield
        finally:
            self.end(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, parent, op_id, start, end, dur in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "op": op_id, "start_ns": start, "end_ns": end,
                    "dur_ns": dur,
                }) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    # -- aggregation -------------------------------------------------------

    def busy_ms(self, *names: str) -> float:
        wanted = set(names)
        return sum(s[6] for s in self.spans if s[1] in wanted) / 1e6

    def samples(self, *names: str) -> int:
        wanted = set(names)
        return sum(1 for s in self.spans if s[1] in wanted)

    def self_ms(self, *names: str) -> float:
        """Summed self time of the named spans."""
        wanted = set(names)
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s[2]:
                child_ns[s[2]] += s[6]
        return sum(
            s[6] - child_ns.get(s[0], 0) for s in self.spans if s[1] in wanted
        ) / 1e6

    def layer_self_ms(self, layer: str) -> float:
        names = {s[1] for s in self.spans if s[1].startswith(layer + ".")}
        return self.self_ms(*names) if names else 0.0


class Patcher:
    """Replaces public functions with recording wrappers; restores them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _resolve(self, owner, attr: str):
        try:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
        except (KeyError, AttributeError):
            raise BenchError(
                f"traced function {getattr(owner, '__name__', owner)}.{attr}"
                " no longer exists; update perfbench/layers.py"
            ) from None
        return original

    def _install(self, owner, attr: str, wrapper) -> None:
        original = self._resolve(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``;
        ``after(args, kwargs, result)`` adds counts once the call returns.
        """
        original = self._resolve(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            span = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._install(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def rows_written(report) -> int:
    """GAM rows one :class:`~repro.importer.importer.ImportReport` added."""
    return (report.new_objects + report.total_associations
            + sum(report.new_target_objects.values()))


def verify_targets() -> None:
    """Resolve every patch target once, so a renamed function fails the
    traced run before any measuring starts."""
    patcher = Patcher(Recorder())
    try:
        install(patcher)
    finally:
        patcher.restore()


def _is_write(sql: str) -> bool:
    return sql.lstrip()[:7].upper().startswith(_WRITE_PREFIXES)


def install(patcher: Patcher) -> None:
    """Wrap every public function the per-layer metrics are taken from."""
    # import_module, not ``import a.b as m``: a package attribute can shadow
    # its submodule (``repro.operators.compose`` is also a function).
    genmapper_mod = importlib.import_module("repro.core.genmapper")
    compose_mod = importlib.import_module("repro.operators.compose")
    web_app = importlib.import_module("repro.web.app")
    from repro.core.genmapper import GenMapper
    from repro.gam.database import GamDatabase
    from repro.importer.importer import GamImporter
    from repro.operators.sql_engine import SqlViewEngine
    from repro.parsers.base import SourceParser

    recorder = patcher.recorder
    count = recorder.count

    # parsers: SourceParser.parse, called by the import pipeline.
    patcher.wrap(SourceParser, "parse", "parsers.parse",
                 after=lambda a, k, ds: count("parsers.eav_rows", len(ds)))

    # importer: GamImporter.import_dataset, called by the import pipeline.
    def _imported(args, kwargs, report):
        dataset = args[1] if len(args) > 1 else kwargs["dataset"]
        count("importer.eav_rows_examined", len(dataset))
        count("importer.rows_written", rows_written(report))

    patcher.wrap(GamImporter, "import_dataset", "importer.import",
                 after=_imported)

    # gam: statements, classified as writes inside a transaction (or when
    # the statement itself writes) and reads otherwise.
    _install_gam(patcher, GamDatabase)

    # operators: names as GenMapper and Compose look them up.
    patcher.wrap(genmapper_mod, "generate_view", "operators.view")
    patcher.wrap(genmapper_mod, "map_", "operators.map")
    patcher.wrap(compose_mod, "map_", "operators.map")
    patcher.wrap(genmapper_mod, "compose", "operators.compose")
    patcher.wrap(SqlViewEngine, "compile", "operators.compile")

    # pathfinder: the auto-Compose fallback of GenMapper.map.
    patcher.wrap(GenMapper, "find_path", "pathfinder.find_path")

    # derived: closure and delta refresh, as the GenMapper facade calls them.
    def _closure(args, kwargs, result):
        rel, __ = result
        db = args[0].db
        with _paused(recorder):
            pairs = db.execute_read(
                "SELECT count(*) FROM object_rel WHERE src_rel_id = ?",
                (rel.src_rel_id,),
            ).fetchone()[0]
        recorder.counts["derived.closure_pairs"] = float(pairs)

    def _refreshed(args, kwargs, report):
        count("derived.delta_edges", report.delta_edges)

    patcher.wrap(genmapper_mod, "derive_subsumed", "derived.closure",
                 after=_closure)
    patcher.wrap(genmapper_mod, "refresh_composed", "derived.refresh",
                 after=_refreshed)
    patcher.wrap(genmapper_mod, "refresh_subsumed", "derived.refresh",
                 after=_refreshed)

    # query: run_query as the web layer looks it up.
    patcher.wrap(web_app, "run_query", "query.run")


@contextlib.contextmanager
def recording(recorder: Recorder | None, op_id):
    """Record the spans of one operation (no-op without a recorder)."""
    if recorder is None:
        yield
        return
    previous, recorder.enabled = recorder.enabled, True
    try:
        with recorder.operation(op_id):
            yield
    finally:
        recorder.enabled = previous


@contextlib.contextmanager
def _paused(recorder: Recorder):
    previous, recorder.enabled = recorder.enabled, False
    try:
        yield
    finally:
        recorder.enabled = previous


def _install_gam(patcher: Patcher, GamDatabase) -> None:
    recorder = patcher.recorder
    local = threading.local()

    def depth() -> int:
        return getattr(local, "depth", 0)

    def statement(attr: str, kind):
        original = patcher._resolve(GamDatabase, attr)

        @functools.wraps(original)
        def wrapper(self, sql, *args, **kwargs):
            if not recorder.enabled or recorder.top_layer() == "gam":
                return original(self, sql, *args, **kwargs)
            name = kind(sql)
            recorder.count("gam.statements")
            if name == "gam.write" and depth() == 0:
                recorder.count("gam.commits")  # autocommit wrapper
            span = recorder.begin(name)
            try:
                return original(self, sql, *args, **kwargs)
            finally:
                recorder.end(span)

        patcher._install(GamDatabase, attr, wrapper)

    def execute_kind(sql: str) -> str:
        return "gam.write" if depth() > 0 or _is_write(sql) else "gam.read"

    statement("execute", execute_kind)
    statement("execute_read", lambda sql: "gam.read")
    statement("executemany", lambda sql: "gam.write")
    statement("executemany_counted", lambda sql: "gam.write")

    original_iter = patcher._resolve(GamDatabase, "execute_read_iter")

    @functools.wraps(original_iter)
    def read_iter(self, sql, *args, **kwargs):
        # A generator: charge only the work done inside each next() call,
        # not the consumer's work between rows.  The span sits on the
        # stack only while the statement runs, so nested calls are skipped.
        if not recorder.enabled:
            yield from original_iter(self, sql, *args, **kwargs)
            return
        recorder.count("gam.statements")
        stack = recorder._stack()
        span = recorder.begin("gam.read")
        stack.pop()
        inner = original_iter(self, sql, *args, **kwargs)
        busy = 0
        try:
            while True:
                start = time.perf_counter_ns()
                stack.append(span)
                try:
                    row = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    busy += time.perf_counter_ns() - start
                yield row
        finally:
            stack.append(span)
            recorder.end(span, busy_ns=busy)

    patcher._install(GamDatabase, "execute_read_iter", read_iter)

    original_txn = patcher._resolve(GamDatabase, "transaction")

    @contextlib.contextmanager
    def transaction(self, *args, **kwargs):
        outer = depth() == 0
        block = original_txn(self, *args, **kwargs)
        connection = block.__enter__()
        local.depth = depth() + 1
        try:
            yield connection
        except BaseException:
            local.depth = depth() - 1
            if not block.__exit__(*sys.exc_info()):
                raise
            return
        local.depth = depth() - 1
        # Closing the outermost block runs the COMMIT: time it as a write.
        timed = outer and recorder.enabled and recorder.top_layer() != "gam"
        span = recorder.begin("gam.write") if timed else None
        try:
            block.__exit__(None, None, None)
        finally:
            if span is not None:
                recorder.end(span)
        if timed:
            recorder.count("gam.commits")

    patcher._install(GamDatabase, "transaction", transaction)
    patcher.wrap(GamDatabase, "analyze", "gam.analyze")


#: The per-layer metrics every traced run reports: name -> (unit, spans
#: whose sample count backs it).  A layer a workload bypasses reports 0.
PER_LAYER = {
    "parsers.busy_ms": ("ms", ("parsers.parse",)),
    "parsers.eav_rows": ("count", ("parsers.parse",)),
    "importer.busy_ms": ("ms", ("importer.import",)),
    "importer.self_ms": ("ms", ("importer.import",)),
    "importer.rows_written": ("count", ("importer.import",)),
    "importer.write_ratio": ("ratio", ("importer.import",)),
    "gam.write_ms": ("ms", ("gam.write",)),
    "gam.read_ms": ("ms", ("gam.read",)),
    "gam.statements": ("count", ("gam.write", "gam.read")),
    "gam.commits": ("count", ("gam.write",)),
    "gam.analyze_ms": ("ms", ("gam.analyze",)),
    "cache.hit_ratio": ("ratio", ()),
    "cache.evictions": ("count", ()),
    "cache.bytes": ("bytes", ()),
    "cache.invalidations": ("count", ()),
    "operators.view_ms": ("ms", ("operators.view",)),
    "operators.assembly_ms": ("ms", ("operators.view",)),
    "operators.map_ms": ("ms", ("operators.map",)),
    "operators.compose_ms": ("ms", ("operators.compose",)),
    "operators.compile_ms": ("ms", ("operators.compile",)),
    "operators.self_ms": ("ms", ("operators.view", "operators.map",
                                 "operators.compose", "operators.compile")),
    "pathfinder.busy_ms": ("ms", ("pathfinder.find_path",)),
    "derived.closure_ms": ("ms", ("derived.closure",)),
    "derived.closure_pairs": ("count", ("derived.closure",)),
    "derived.refresh_ms": ("ms", ("derived.refresh",)),
    "derived.delta_edges": ("count", ("derived.refresh",)),
    "derived.self_ms": ("ms", ("derived.closure", "derived.refresh")),
    "query.run_ms": ("ms", ("query.run",)),
    "web.handler_ms": ("ms", ("web.handler",)),
    "web.encode_ms": ("ms", ("web.encode",)),
    "web.bytes_out": ("bytes", ("web.encode",)),
    "web.self_ms": ("ms", ("web.handler",)),
    "reliability.retries": ("count", ()),
    "obs.trace_overhead_pct": ("%", ()),
}


def per_layer_metrics(recorder: Recorder, cache_before: dict | None,
                      cache_after: dict | None, retries: float,
                      overhead_pct: float) -> dict[str, tuple[float, str, int]]:
    """Every :data:`PER_LAYER` metric as (value, unit, samples)."""
    r, c = recorder, recorder.counts
    examined = c.get("importer.eav_rows_examined", 0.0)
    written = c.get("importer.rows_written", 0.0)

    def delta(key: str) -> float:
        if cache_before is None or cache_after is None:
            return 0.0
        return float(cache_after[key] - cache_before[key])

    lookups = delta("hits") + delta("misses")
    values = {
        "parsers.busy_ms": r.busy_ms("parsers.parse"),
        "parsers.eav_rows": c.get("parsers.eav_rows", 0.0),
        "importer.busy_ms": r.busy_ms("importer.import"),
        "importer.self_ms": r.layer_self_ms("importer"),
        "importer.rows_written": written,
        "importer.write_ratio": written / examined if examined else 0.0,
        "gam.write_ms": r.busy_ms("gam.write"),
        "gam.read_ms": r.busy_ms("gam.read"),
        "gam.statements": c.get("gam.statements", 0.0),
        "gam.commits": c.get("gam.commits", 0.0),
        "gam.analyze_ms": r.busy_ms("gam.analyze"),
        "cache.hit_ratio": delta("hits") / lookups if lookups else 0.0,
        "cache.evictions": delta("evictions"),
        "cache.bytes": float(cache_after["bytes"]) if cache_after else 0.0,
        "cache.invalidations": delta("invalidations"),
        "operators.view_ms": r.busy_ms("operators.view"),
        "operators.assembly_ms": r.self_ms("operators.view"),
        "operators.map_ms": r.busy_ms("operators.map"),
        "operators.compose_ms": r.busy_ms("operators.compose"),
        "operators.compile_ms": r.busy_ms("operators.compile"),
        "operators.self_ms": r.layer_self_ms("operators"),
        "pathfinder.busy_ms": r.busy_ms("pathfinder.find_path"),
        "derived.closure_ms": r.busy_ms("derived.closure"),
        "derived.closure_pairs": c.get("derived.closure_pairs", 0.0),
        "derived.refresh_ms": r.busy_ms("derived.refresh"),
        "derived.delta_edges": c.get("derived.delta_edges", 0.0),
        "derived.self_ms": r.layer_self_ms("derived"),
        "query.run_ms": r.self_ms("query.run"),
        "web.handler_ms": r.busy_ms("web.handler"),
        "web.encode_ms": r.busy_ms("web.encode"),
        "web.bytes_out": c.get("web.bytes_out", 0.0),
        "web.self_ms": r.self_ms("web.handler"),
        "reliability.retries": retries,
        "obs.trace_overhead_pct": overhead_pct,
    }
    out = {}
    for name, (unit, spans) in PER_LAYER.items():
        if spans:
            samples = r.samples(*spans)
        else:
            samples = int(lookups) if name.startswith("cache.") else 1
        out[name] = (values[name], unit, samples)
    return out


def retry_attempts() -> float:
    """Retries counted by the program's reliability layer so far."""
    import inspect

    from repro.obs import get_registry
    from repro.reliability import retry

    # Without faults the counter stays 0; make sure it is still the one
    # the retry policy increments, so a rename cannot read as "no retries".
    if f'"{RETRY_COUNTER}"' not in inspect.getsource(retry):
        raise BenchError(f"repro.reliability.retry no longer counts"
                         f" {RETRY_COUNTER}; update perfbench/layers.py")
    return get_registry().counter(RETRY_COUNTER).value


def check_coverage(metrics: dict[str, tuple[float, str, int]],
                   required: tuple[str, ...]) -> list[str]:
    """The required per-layer metrics that got no samples."""
    return [name for name in required if metrics[name][2] == 0]
