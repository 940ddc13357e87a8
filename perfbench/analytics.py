"""``analytics``: batch analysis at the deployed shape (§5, §5.2).

The library is called in-process from one thread on
``build_paper_database(scale=0.1)``: 13 sources, ~200k objects, ~500k
associations in ~50 mappings and ~5k IS_A edges.  Set-up adds planner
statistics, the Subsumed closure of ``Term`` and a materialized
``Gene -> Term -> S00`` compose.  Each cycle then applies an import delta
and refreshes both derived mappings, renders two whole-source views,
re-derives the closure and maps 20 random stored mappings.  About 500k
associations exceed the 64 MiB mapping cache, so maps evict and miss.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from harness import (
    DigestLedger,
    Ops,
    Report,
    median,
    median_of,
    percentile,
    remove_database,
    rows_digest,
    self_peak_rss_mb,
)
from layers import (
    Patcher,
    Recorder,
    install,
    per_layer_metrics,
    recording,
    retry_attempts,
)

SCALE = 0.1
#: The instance has the fixed paper shape (the spec's own seed): which
#: sources have a stored mapping to ``Gene`` decides how much Compose a
#: view needs, and a per-seed shape would make runs differ by that alone.
#: The run's seed drives the deltas, the view and map choices.
SPEC = {"scale": SCALE}
SETUP_REPEATS = 2
COMPOSED_PATH = ["Gene", "Term", "S00"]
TAIL_SOURCES = 11
DELTA_ROWS = 1_000
TAXONOMY_DELTA_ROWS = 100
MAPS_PER_CYCLE = 20
#: Untimed cycles first: the cache fills and the first deltas land before
#: anything is timed, as in a long-running deployment.  The mapping cache
#: reaches its byte budget during the second cycle; until then the heap,
#: and with it each full garbage collection inside a timed call, grows.
WARMUP_CYCLES = 2
#: Seconds one cycle takes on a 2-vCPU reference machine.  A run times a
#: fixed number of cycles sized from ``--seconds`` rather than cycling
#: until the time is up: every delta makes later cycles dearer, so a
#: time-bound run would do more and dearer cycles on a faster commit.
CYCLE_SECONDS = 2.4

REQUIRED_LAYERS = (
    "gam.write_ms", "gam.read_ms", "gam.analyze_ms", "cache.hit_ratio",
    "cache.evictions", "cache.bytes", "cache.invalidations",
    "operators.view_ms", "operators.assembly_ms", "operators.map_ms",
    "derived.closure_ms", "derived.closure_pairs", "derived.refresh_ms",
    "derived.delta_edges",
)


def _build(db_path: Path, recorder: Recorder | None = None):
    from repro.core.genmapper import GenMapper
    from repro.datagen.scale import PaperScaleSpec, build_paper_database

    remove_database(db_path)
    gm = GenMapper(db_path)
    build_paper_database(gm.repository, PaperScaleSpec(**SPEC))
    with recording(recorder, "setup"):
        gm.db.analyze()
        gm.derive_subsumed("Term")
        gm.compose(COMPOSED_PATH, materialize=True)
    return gm


def _setup(work: Path) -> tuple[object, list[float]]:
    """Build the instance ``SETUP_REPEATS`` times; keep the last one."""
    times, gm = [], None
    for attempt in range(SETUP_REPEATS):
        if gm is not None:
            gm.close()
        start = time.perf_counter()
        gm = _build(work / f"paper{attempt % 2}.gam")
        times.append(time.perf_counter() - start)
    return gm, times


def _stored_pairs(gm) -> list[tuple[str, str]]:
    rows = gm.db.execute_read(
        "SELECT s1.name, s2.name FROM source_rel r"
        " JOIN source s1 ON s1.source_id = r.source1_id"
        " JOIN source s2 ON s2.source_id = r.source2_id"
        " WHERE r.source1_id != r.source2_id"
    ).fetchall()
    return sorted({(a, b) for a, b in rows})


def _max_obj_rel_id(gm) -> int:
    return int(gm.db.execute_read(
        "SELECT coalesce(max(obj_rel_id), 0) FROM object_rel").fetchone()[0])


def _check_views(db_path: Path, specs, problems: list[str]) -> None:
    """The last cycle's views must equal an uncached GenerateView; the
    closure inserted nothing and maps only read, so the state matches."""
    from repro.core.genmapper import GenMapper

    with GenMapper(db_path, enable_cache=False) as fresh:
        for targets, combine, digest in specs:
            view = fresh.generate_view("Gene", targets, combine=combine)
            if rows_digest(view.rows) != digest:
                problems.append(f"view {targets} {combine} differs from an"
                                " uncached GenerateView")


def _cycle_count(seconds: float) -> int:
    return max(2, round(seconds / CYCLE_SECONDS))


def _tail_order(rng: random.Random):
    while True:
        order = list(range(TAIL_SOURCES))
        rng.shuffle(order)
        yield from order


class Cycles:
    """The seeded cycle sequence on one instance.

    View targets come from a seeded shuffle of all tail sources, repeated,
    so every run views nearly every S_k once: the view cost depends on k
    (a stored mapping or a Compose path of varying length), and
    independent draws would make runs differ by their mix alone.
    """

    def __init__(self, gm, seed: int, ledger: DigestLedger,
                 problems: list[str]) -> None:
        self.gm, self.seed = gm, seed
        self.ledger, self.problems = ledger, problems
        self.rng = random.Random(seed)
        self.tails = _tail_order(random.Random(seed + 1))
        self.pairs = _stored_pairs(gm)
        self.number = 0

    def run(self, ops: Ops, count: int,
            recorder: Recorder | None = None) -> tuple[list[float], list]:
        """Run ``count`` cycles; returns the timed seconds of each and the
        view specs (targets, combine, row digest) of the last one."""
        spent, specs = [], []
        for __ in range(count):
            seconds, specs = self._cycle(ops, recorder)
            spent.append(seconds)
            self.number += 1
        return spent, specs

    def _cycle(self, ops: Ops, recorder: Recorder | None) -> tuple[float, list]:
        from repro.datagen.scale import append_delta, append_taxonomy_delta

        gm, rng, number = self.gm, self.rng, self.number
        watermark = _max_obj_rel_id(gm)
        delta_seed = self.seed * 7919 + number * 2
        spent = 0.0

        def refresh():
            append_delta(gm.repository, "Gene", "Term", DELTA_ROWS,
                         seed=delta_seed)
            append_taxonomy_delta(gm.repository, "Term", TAXONOMY_DELTA_ROWS,
                                  seed=delta_seed + 1)
            gm.refresh_composed(COMPOSED_PATH, watermark=watermark)
            gm.refresh_subsumed("Term", watermark=watermark)

        with recording(recorder, f"c{number}.refresh"):
            __, seconds = ops.timed("refresh", refresh)
        spent += seconds

        combines = ["AND", "OR"]
        rng.shuffle(combines)
        specs = []
        for index, combine in enumerate(combines):
            targets = ["Term", f"S{next(self.tails):02d}"]
            with recording(recorder, f"c{number}.view{index}"):
                view, seconds = ops.timed("view", lambda: gm.generate_view(
                    "Gene", targets, combine=combine))
            spent += seconds
            if view is not None:
                specs.append((targets, combine, rows_digest(view.rows)))
                if not self.ledger.check(f"cycle{number}.view{index}",
                                         specs[-1][2]):
                    self.problems.append(
                        f"cycle {number} view {index} differs from an"
                        " earlier run with this seed")

        with recording(recorder, f"c{number}.closure"):
            inserted, seconds = ops.timed(
                "closure", lambda: gm.derive_subsumed("Term"))
        spent += seconds
        if inserted:
            self.problems.append(f"cycle {number}: derive_subsumed after"
                                 f" refresh inserted {inserted} rows")

        for index in range(MAPS_PER_CYCLE):
            source, target = rng.choice(self.pairs)
            if rng.random() < 0.5:
                source, target = target, source
            with recording(recorder, f"c{number}.map{index}"):
                __, seconds = ops.timed("map", lambda: gm.map(source, target))
            spent += seconds
        return spent, specs


def measure(seed: int, seconds: float, work: Path, report: Report,
            ledger: DigestLedger) -> tuple[Ops, list[str]]:
    ops, problems = Ops(), []
    gm, setup_times = _setup(work)
    try:
        sequence = Cycles(gm, seed, ledger, problems)
        warmup_s = time.perf_counter()
        sequence.run(Ops(), WARMUP_CYCLES)
        warmup_s = time.perf_counter() - warmup_s
        before = gm.cache_stats()
        cycles = _cycle_count(seconds)
        spent, specs = sequence.run(ops, cycles)
        after = gm.cache_stats()
        db_path = Path(gm.db.path)
    finally:
        gm.close()
    peak_rss = self_peak_rss_mb()
    _check_views(db_path, specs, problems)

    views, maps = ops.ms("view"), ops.ms("map")
    # Every cycle maps MAPS_PER_CYCLE times, failed maps included.
    per_cycle = [maps[i:i + MAPS_PER_CYCLE]
                 for i in range(0, len(maps), MAPS_PER_CYCLE)]
    tail = median_of(per_cycle, lambda group: percentile(group, 90))
    report.add("setup_s", median(setup_times) + warmup_s, "s",
               len(setup_times))
    report.add("peak_rss_mb", peak_rss, "MB", 1)
    report.add("throughput_per_s", 1.0 / median(spent), "1/s", cycles)
    report.add("main_p50_ms", median(views), "ms", len(views))
    report.add("tail_ms", tail, "ms", len(maps))
    report.add("side_p50_ms", median(maps), "ms", len(maps))
    report.add("view_p50_ms", median(views), "ms", len(views))
    report.add("closure_p50_ms", median(ops.ms("closure")), "ms",
               len(ops.ms("closure")))
    report.add("refresh_p50_ms", median(ops.ms("refresh")), "ms",
               len(ops.ms("refresh")))
    report.add("map_p50_ms", median(maps), "ms", len(maps))
    report.add("map_p90_ms", tail, "ms", len(maps))
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    report.notes.append(
        f"cache: hit_ratio {hits / max(lookups, 1):.4f}"
        f" evictions {after['evictions'] - before['evictions']}"
        f" in {lookups} lookups, {cycles} cycles")
    return ops, problems


def traced(seed: int, seconds: float, work: Path, report: Report,
           ledger: DigestLedger) -> tuple[Ops, list[str], dict]:
    """Cycles on one instance untraced for ``seconds``, then the same
    cycles on a second instance with every layer traced."""
    ops, problems = Ops(), []
    start = time.perf_counter()
    gm = _build(work / "plain.gam")
    report.add("setup_s", time.perf_counter() - start, "s", 1)
    try:
        sequence = Cycles(gm, seed, ledger, problems)
        sequence.run(Ops(), WARMUP_CYCLES)
        plain_s, __ = sequence.run(Ops(), _cycle_count(seconds))
    finally:
        gm.close()
    recorder = Recorder()
    patcher = Patcher(recorder)
    retries = retry_attempts()
    install(patcher)
    try:
        gm = _build(work / "traced.gam", recorder)
        try:
            sequence = Cycles(gm, seed, ledger, problems)
            before = gm.cache_stats()
            sequence.run(Ops(), WARMUP_CYCLES, recorder)
            traced_s, specs = sequence.run(ops, _cycle_count(seconds),
                                           recorder)
            after = gm.cache_stats()
            db_path = Path(gm.db.path)
        finally:
            gm.close()
    finally:
        patcher.restore()
    retries = retry_attempts() - retries
    _check_views(db_path, specs, problems)
    metrics = per_layer_metrics(recorder, before, after, retries,
                                (sum(traced_s) / sum(plain_s) - 1.0) * 100.0)
    return ops, problems, {"metrics": metrics, "recorder": recorder,
                           "required": REQUIRED_LAYERS}
