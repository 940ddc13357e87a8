"""``interactive``: the Figure 6 query session over HTTP (§5.1).

A closed loop of two client threads, each waiting for its reply before it
sends the next request, against ``python -m repro.web --db <db>`` started
as a subprocess with default settings.  Users wait for each view before
they refine it, so a closed loop models them; two clients match the two
cores.  80% of requests are ``POST /query`` views over 20-300 uploaded
accessions of LocusLink, NetAffx or Unigene with 1-3 targets (AND or OR,
non-first targets negated 20% of the time); 20% are
``GET /objects/LocusLink/<acc>`` point lookups.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import http.client
import io
import json
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from wsgiref.util import setup_testing_defaults

from harness import (
    BenchError,
    DigestLedger,
    Ops,
    Report,
    by_window,
    child_env,
    median,
    median_of,
    percentile,
    process_peak_rss_mb,
    rows_digest,
)
from layers import (
    Patcher,
    Recorder,
    install,
    per_layer_metrics,
    recording,
    retry_attempts,
)

#: The database is the ``ingest`` universe (16,000 genes, 4,000 GO terms)
#: generated from one fixed seed: how large the mappings of a universe are
#: sets how dear its views are, and one seed's universe served about 12%
#: more requests per second than two others'.  The run's seed drives the
#: request streams.
N_GENES = 16_000
N_GO_TERMS = 4_000
UNIVERSE_SEED = 0
CLIENTS = 2
QUERY_SHARE = 0.8
QUERY_SOURCES = ("LocusLink", "NetAffx", "Unigene")
#: Candidate targets.  NetAffx -> OMIM/Enzyme and Unigene -> GO/OMIM/Enzyme
#: have no stored mapping and take the auto-Compose fallback.  The 14
#: (source, target) mappings take about 45 MB in the mapping cache, so the
#: working set fits its 64 MiB budget while the views of distinct uploads
#: churn its 256-entry bound.  Pairs with no path at all are dropped at
#: set-up, so no request is expected to fail.
TARGETS = ("GO", "Hugo", "OMIM", "Enzyme", "LocusLink")
WARMUP_PER_CLIENT = 30
SERVER_STARTS = 3
REPLAY_PER_CLIENT = 3
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
#: How long clients may still run past the deadline before the run fails.
STRAGGLER_S = 45.0
#: The gated tail and rate are medians over windows of this many seconds
#: (about 150 requests each), so a slow spell of the machine that covers
#: less than half of the run leaves them unmoved.
WINDOW_SECONDS = 2.5

REQUIRED_LAYERS = (
    "gam.read_ms", "cache.hit_ratio", "cache.evictions", "cache.bytes",
    "cache.invalidations", "operators.view_ms", "operators.assembly_ms",
    "operators.map_ms", "operators.compose_ms", "pathfinder.busy_ms",
    "query.run_ms", "web.handler_ms", "web.encode_ms", "web.bytes_out",
)


class Catalog:
    """What the generated requests may name, read from the database."""

    def __init__(self, db_path: Path) -> None:
        from repro.core.genmapper import GenMapper
        from repro.gam.errors import PathNotFoundError

        with GenMapper(db_path, enable_cache=False) as gm:
            self.accessions = {
                source: sorted(gm.accessions(source))
                for source in QUERY_SOURCES
            }
            self.targets = {}
            for source in QUERY_SOURCES:
                reachable = []
                for target in TARGETS:
                    if target == source:
                        continue
                    try:
                        gm.find_path(source, target)
                    except PathNotFoundError:  # never requested
                        continue
                    reachable.append(target)
                self.targets[source] = reachable

    def make_op(self, rng: random.Random) -> dict:
        if rng.random() >= QUERY_SHARE:
            accession = rng.choice(self.accessions["LocusLink"])
            return {"kind": "lookup", "path": f"/objects/LocusLink/{accession}"}
        source = rng.choice(QUERY_SOURCES)
        uploaded = rng.sample(self.accessions[source], rng.randint(20, 300))
        names = rng.sample(self.targets[source], rng.randint(1, 3))
        body = {
            "source": source,
            "accessions": uploaded,
            "targets": [
                {"name": name, "negated": i > 0 and rng.random() < 0.2}
                for i, name in enumerate(names)
            ],
            "combine": rng.choice(("AND", "OR")),
        }
        return {"kind": "query", "path": "/query", "body": body,
                "payload": json.dumps(body).encode()}


def _client_rng(seed: int, client: int, warmup: bool = False) -> random.Random:
    return random.Random(seed * 1000 + client + (500 if warmup else 0))


def _prepare(work: Path) -> tuple[Path, float]:
    """Generate the universe and import it; returns the database path."""
    from repro.core.genmapper import GenMapper
    from repro.datagen.emit import write_universe
    from repro.datagen.universe import UniverseConfig, generate_universe

    start = time.perf_counter()
    files = work / "manifest"
    write_universe(
        generate_universe(UniverseConfig(seed=UNIVERSE_SEED, n_genes=N_GENES,
                                         n_go_terms=N_GO_TERMS)),
        files,
    )
    db_path = work / "interactive.gam"
    with GenMapper(db_path) as gm:
        gm.integrate_directory(files)
    elapsed = time.perf_counter() - start
    shutil.rmtree(files)
    return db_path, elapsed


# -- HTTP side ---------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _request(port: int, op: dict) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        if op["kind"] == "query":
            conn.request("POST", op["path"], body=op["payload"],
                         headers={"Content-Type": "application/json"})
        else:
            conn.request("GET", op["path"])
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _die_with_parent():
    """A pre-exec hook asking the kernel to SIGTERM the server when the
    benchmark process dies first.  ``prctl`` is resolved here, in the
    parent, so the forked child only makes the call."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return lambda: prctl(1, signal.SIGTERM, 0, 0, 0)  # PR_SET_PDEATHSIG


class Server:
    """``python -m repro.web`` as a subprocess; always stopped and reaped."""

    def __init__(self, db_path: Path, log_path: Path) -> None:
        self.port = _free_port()
        self._log = log_path.open("ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.web", "--db", str(db_path),
             "--port", str(self.port)],
            env=child_env(), stdout=self._log, stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent(),
        )

    def wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(f"server exited with {self.process.returncode}")
            try:
                status, __ = _request(self.port, {"kind": "lookup",
                                                  "path": "/health"})
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.05)
        raise BenchError("server did not become ready")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self._log.close()


def _closed_loop(port: int, catalog: Catalog, seed: int, *, seconds=None,
                 per_client=None, warmup=False, ops: Ops | None = None,
                 sample: list | None = None) -> float:
    """Run ``CLIENTS`` closed-loop clients; returns elapsed seconds."""
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    errors: list[BaseException] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        rng = _client_rng(seed, index, warmup)
        issued = 0
        try:
            while (per_client is None or issued < per_client) and (
                deadline is None or time.perf_counter() < deadline
            ):
                op = catalog.make_op(rng)
                issued += 1
                begin = time.perf_counter()
                error = None
                try:
                    status, body = _request(port, op)
                    ok = 200 <= status < 300
                    if not ok:
                        error = f"HTTP {status}: {body[:200]!r}"
                except OSError as exc:
                    ok, error = False, repr(exc)
                ms = (time.perf_counter() - begin) * 1e3
                if ops is not None:
                    with lock:
                        ops.record(op["kind"], ms, ok, error)
                        if (sample is not None and op["kind"] == "query"
                                and sum(1 for s in sample if s[0] == index)
                                < REPLAY_PER_CLIENT):
                            sample.append((index, op))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=(seconds or 0) + STRAGGLER_S)
        if thread.is_alive():
            raise BenchError("client thread did not finish")
    if errors:
        raise BenchError(f"client crashed: {errors[0]!r}")
    return time.perf_counter() - start


def _expected_view(gm, body: dict) -> dict:
    from repro.operators.generate_view import TargetSpec

    view = gm.generate_view(
        body["source"],
        targets=[TargetSpec.of(t["name"], negated=t["negated"])
                 for t in body["targets"]],
        source_objects=body["accessions"],
        combine=body["combine"],
    )
    return {"columns": list(view.columns),
            "rows": [list(row) for row in view.rows]}


def _check_replies(db_path: Path, replies: list[tuple[dict, bytes]],
                   ledger: DigestLedger, problems: list[str]) -> None:
    """Each reply must equal an uncached in-process GenerateView."""
    from repro.core.genmapper import GenMapper

    with GenMapper(db_path, enable_cache=False) as gm:
        for op, raw in replies:
            key = "query-" + hashlib.sha256(op["payload"]).hexdigest()[:16]
            got = json.loads(raw)
            want = _expected_view(gm, op["body"])
            if got.get("columns") != want["columns"] or \
                    got.get("rows") != want["rows"]:
                problems.append(
                    f"{key} differs from uncached GenerateView:"
                    f" {got.get('row_count')} rows vs {len(want['rows'])}")
            if not ledger.check(key, rows_digest(want["rows"])):
                problems.append(f"{key} differs from an earlier run")


def measure(seed: int, seconds: float, work: Path, report: Report,
            ledger: DigestLedger) -> tuple[Ops, list[str]]:
    ops, problems = Ops(), []
    db_path, prepare_s = _prepare(work)
    catalog = Catalog(db_path)
    starts, server = [], None
    try:
        for attempt in range(SERVER_STARTS):
            begin = time.perf_counter()
            server = Server(db_path, work / "server.log")
            server.wait_ready()
            starts.append(time.perf_counter() - begin)
            if attempt < SERVER_STARTS - 1:
                server.stop()
                server = None
        warmup_s = _closed_loop(server.port, catalog, seed,
                                per_client=WARMUP_PER_CLIENT, warmup=True)
        sample: list = []
        loop_start = time.perf_counter()
        _closed_loop(server.port, catalog, seed, seconds=seconds, ops=ops,
                     sample=sample)
        peak_rss = process_peak_rss_mb(server.process.pid)
        status, raw = _request(server.port, {"kind": "lookup",
                                             "path": "/metrics"})
        cache = json.loads(raw).get("cache") if status == 200 else None
        replies = []
        for __, op in sorted(sample, key=lambda s: s[0]):
            status, raw = _request(server.port, op)
            if status != 200:
                problems.append(f"replayed query answered HTTP {status}")
                continue
            replies.append((op, raw))
    finally:
        if server is not None:
            server.stop()
    _check_replies(db_path, replies, ledger, problems)

    queries, lookups = ops.ms("query"), ops.ms("lookup")
    count = max(1, round(seconds / WINDOW_SECONDS))
    # p99 of ~1500 queries rests on ~15 samples and moved 28% between runs
    # in ten seeds; the gated tail is p95, p99 is printed beside it.
    query_p95 = median_of(
        by_window(queries, ops.ends.get("query", []), loop_start, seconds,
                  count),
        lambda window: percentile(window, 95))
    # Requests per second in each window, between its first and its last
    # completion.
    ends = sorted(ops.ends.get("query", []) + ops.ends.get("lookup", []))
    rps = median([(len(window) - 1) / (window[-1] - window[0])
                  for window in by_window(ends, ends, loop_start, seconds,
                                          count)
                  if len(window) > 1])
    report.add("setup_s", prepare_s + median(starts) + warmup_s, "s",
               len(starts))
    report.add("peak_rss_mb", peak_rss, "MB", 1)
    report.add("throughput_per_s", rps, "1/s", ops.attempted)
    report.add("main_p50_ms", percentile(queries, 50), "ms", len(queries))
    report.add("tail_ms", query_p95, "ms", len(queries))
    report.add("side_p50_ms", percentile(lookups, 50), "ms", len(lookups))
    report.add("query_p50_ms", percentile(queries, 50), "ms", len(queries))
    report.add("query_p95_ms", query_p95, "ms", len(queries))
    report.add("query_p99_ms", percentile(queries, 99), "ms", len(queries))
    report.add("lookup_p50_ms", percentile(lookups, 50), "ms", len(lookups))
    report.add("lookup_p90_ms", percentile(lookups, 90), "ms", len(lookups))
    report.add("query_rps", rps, "1/s", ops.attempted)
    report.notes.append(
        f"prepare {prepare_s:.2f}s, server start median"
        f" {median(starts):.2f}s of {len(starts)}, warm-up {warmup_s:.2f}s")
    if cache:
        report.notes.append(
            "server cache: hit_ratio {hit_ratio} evictions {evictions}"
            " entries {entries} bytes {bytes}".format(**cache))
    return ops, problems


# -- traced, in-process --------------------------------------------------------


def _call(app, op: dict, recorder: Recorder | None) -> tuple[int, bytes]:
    environ = {"REQUEST_METHOD": "GET", "PATH_INFO": op["path"]}
    if op["kind"] == "query":
        environ.update({
            "REQUEST_METHOD": "POST",
            "CONTENT_TYPE": "application/json",
            "CONTENT_LENGTH": str(len(op["payload"])),
            "wsgi.input": io.BytesIO(op["payload"]),
        })
    setup_testing_defaults(environ)
    statuses = []

    def start_response(status, headers, exc_info=None):
        statuses.append(int(status.split()[0]))

    def span(name: str):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    with span("web.handler"):
        body = app(environ, start_response)
    chunks = []
    with span("web.encode"):
        try:
            for chunk in body:
                chunks.append(chunk)
        finally:
            close = getattr(body, "close", None)
            if close is not None:
                close()
    raw = b"".join(chunks)
    if recorder:
        recorder.count("web.bytes_out", len(raw))
    return statuses[0], raw


def _in_process_pass(db_path: Path, catalog: Catalog, seed: int,
                     ops: Ops, recorder: Recorder | None, *, seconds=None,
                     count=None) -> tuple[float, int, dict, dict, list]:
    """Warm up, then replay the client streams interleaved in one thread.

    Warm-up requests are traced too: they are where the mapping loads
    (``map_``, ``compose``, ``find_path``) happen, because the mapping
    working set fits the cache and stays resident afterwards.  Returns the
    seconds of the timed requests, how many were issued, cache stats
    before warm-up and after the timed requests, and the replies of the
    first queries.
    """
    from repro.core.genmapper import GenMapper
    from repro.web.app import create_app

    gm = GenMapper(db_path)
    try:
        app = create_app(gm)
        before = gm.cache_stats()
        warm = [_client_rng(seed, i, warmup=True) for i in range(CLIENTS)]
        for number in range(WARMUP_PER_CLIENT * CLIENTS):
            with recording(recorder, f"warmup{number}"):
                _call(app, catalog.make_op(warm[number % CLIENTS]), recorder)
        rngs = [_client_rng(seed, i) for i in range(CLIENTS)]
        replies = []
        issued = 0
        start = time.perf_counter()
        while (count is None or issued < count) and (
            seconds is None or time.perf_counter() - start < seconds
        ):
            op = catalog.make_op(rngs[issued % CLIENTS])
            begin = time.perf_counter()
            with recording(recorder, issued):
                status, raw = _call(app, op, recorder)
            ok = 200 <= status < 300
            ops.record(op["kind"], (time.perf_counter() - begin) * 1e3, ok,
                       None if ok else f"HTTP {status}: {raw[:200]!r}")
            if ok and op["kind"] == "query" and len(replies) < (
                    REPLAY_PER_CLIENT * CLIENTS):
                replies.append((op, raw))
            issued += 1
        elapsed = time.perf_counter() - start
        return elapsed, issued, before, gm.cache_stats(), replies
    finally:
        gm.close()


def traced(seed: int, seconds: float, work: Path, report: Report,
           ledger: DigestLedger) -> tuple[Ops, list[str], dict]:
    """The same request streams through ``create_app`` in-process: once
    untraced for ``seconds``, then the same requests with every layer
    traced."""
    ops, problems = Ops(), []
    db_path, prepare_s = _prepare(work)
    report.add("setup_s", prepare_s, "s", 1)
    catalog = Catalog(db_path)
    plain_s, issued, __, __, __ = _in_process_pass(
        db_path, catalog, seed, Ops(), None, seconds=seconds)
    recorder = Recorder()
    patcher = Patcher(recorder)
    retries = retry_attempts()
    install(patcher)
    try:
        traced_s, __, before, after, replies = _in_process_pass(
            db_path, catalog, seed, ops, recorder, count=issued)
    finally:
        patcher.restore()
    retries = retry_attempts() - retries
    _check_replies(db_path, replies, ledger, problems)
    metrics = per_layer_metrics(recorder, before, after, retries,
                                (traced_s / plain_s - 1.0) * 100.0)
    return ops, problems, {"metrics": metrics, "recorder": recorder,
                           "required": REQUIRED_LAYERS}
