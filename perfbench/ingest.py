"""``ingest``: Parse -> Import of a synthetic release manifest (§4.1).

Each cycle imports the manifest into a fresh on-disk database through
``GenMapper.integrate_directory`` and then re-imports the same release
into that database.  The fresh pass is nearly all writes; the re-import
runs the same parse and import layers but writes almost nothing, because
duplicate elimination drops every row, so a write-side gain that costs
dedup lookups shows on the second pass.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path

from harness import (
    BenchError,
    DigestLedger,
    Ops,
    Report,
    database_bytes,
    median,
    remove_database,
    self_peak_rss_mb,
)
from layers import (
    Patcher,
    Recorder,
    install,
    per_layer_metrics,
    recording,
    retry_attempts,
    rows_written,
)

#: 11 flat files, about 16 MB, ~124k objects and ~512k associations.
N_GENES = 16_000
N_GO_TERMS = 4_000
SETUP_REPEATS = 2
#: Seconds of ``--seconds`` per cycle (fresh import plus re-import takes
#: 12-16 s on a 2-vCPU machine).  A run times a fixed number of cycles
#: sized from ``--seconds``, so every run of a commit does the same work.
CYCLE_SECONDS = 15.0

REQUIRED_LAYERS = (
    "parsers.busy_ms", "parsers.eav_rows", "importer.busy_ms",
    "importer.rows_written", "importer.write_ratio", "gam.write_ms",
    "gam.statements", "gam.commits", "gam.analyze_ms",
)


def _setup(seed: int, work: Path) -> tuple[Path, list[float]]:
    """Generate the manifest ``SETUP_REPEATS`` times; time each."""
    from repro.datagen.emit import write_universe
    from repro.datagen.universe import UniverseConfig, generate_universe

    files = work / "manifest"
    times = []
    for __ in range(SETUP_REPEATS):
        shutil.rmtree(files, ignore_errors=True)
        start = time.perf_counter()
        universe = generate_universe(
            UniverseConfig(seed=seed, n_genes=N_GENES, n_go_terms=N_GO_TERMS)
        )
        write_universe(universe, files)
        times.append(time.perf_counter() - start)
    return files, times


def _cycle(files: Path, db_path: Path, ops: Ops, problems: list[str],
           recorder: Recorder | None = None) -> dict | None:
    """One fresh import plus one re-import; None when a pass failed."""
    from repro.core.genmapper import GenMapper
    from repro.gam.dump import canonical_snapshot

    remove_database(db_path)
    gm = GenMapper(db_path)
    try:
        passes = {}
        for kind in ("fresh_import", "reimport"):
            with recording(recorder, kind):
                reports, seconds = ops.timed(
                    kind, lambda: gm.integrate_directory(files))
            if reports is None:
                return None
            passes[kind] = (seconds, reports, gm.db.counts(),
                            database_bytes(db_path))
        fresh_s, __, counts, db_bytes = passes["fresh_import"]
        reimport_s, reports, recounts, __ = passes["reimport"]
        result = {
            "fresh_s": fresh_s,
            "reimport_s": reimport_s,
            "rows": counts["object"] + counts["object_rel"],
            "db_bytes": db_bytes,
            "peak_rss_mb": self_peak_rss_mb(),
        }
        added = sum(rows_written(report) for report in reports)
        if added or recounts != counts:
            problems.append(
                f"re-import added rows: reports={added},"
                f" counts {counts} -> {recounts}"
            )
        # The snapshot is a correctness check, outside the timed passes.
        result["digest"] = hashlib.sha256(
            canonical_snapshot(gm.repository).encode()
        ).hexdigest()
        return result
    finally:
        gm.close()
        remove_database(db_path)


def _input_bytes(files: Path) -> int:
    return sum(p.stat().st_size for p in files.iterdir()
               if p.name != "manifest.tsv")


def _check_digests(cycles: list[dict], ledger: DigestLedger,
                   problems: list[str]) -> None:
    digests = {c["digest"] for c in cycles}
    if len(digests) > 1:
        problems.append(f"fresh imports disagree: {len(digests)} snapshots")
    for digest in digests:
        if not ledger.check("snapshot", digest):
            problems.append("snapshot differs from an earlier run's")


def measure(seed: int, seconds: float, work: Path, report: Report,
            ledger: DigestLedger) -> tuple[Ops, list[str]]:
    ops, problems = Ops(), []
    files, setup_times = _setup(seed, work)
    cycles: list[dict] = []
    for __ in range(max(1, round(seconds / CYCLE_SECONDS))):
        result = _cycle(files, work / "ingest.gam", ops, problems)
        if result is None:
            break
        cycles.append(result)
    _check_digests(cycles, ledger, problems)

    report.add("setup_s", median(setup_times), "s", len(setup_times))
    if cycles:
        fresh, reimport = ops.ms("fresh_import"), ops.ms("reimport")
        rows_per_s = median([c["rows"] / c["fresh_s"] for c in cycles])
        input_bytes = _input_bytes(files)
        report.add("peak_rss_mb", cycles[0]["peak_rss_mb"], "MB", 1)
        report.add("throughput_per_s", rows_per_s, "1/s", len(cycles))
        report.add("main_p50_ms", median(fresh), "ms", len(fresh))
        report.add("tail_ms", max(fresh), "ms", len(fresh))
        report.add("side_p50_ms", median(reimport), "ms", len(reimport))
        # Workload-specific names for the same measurements, for people.
        report.add("ingest_rows_per_s", rows_per_s, "1/s", len(cycles))
        report.add("reimport_rows_per_s",
                   median([c["rows"] / c["reimport_s"] for c in cycles]),
                   "1/s", len(cycles))
        report.add("db_bytes_per_input_byte",
                   median([c["db_bytes"] for c in cycles]) / input_bytes,
                   "ratio", len(cycles))
        report.notes.append(f"input {input_bytes} bytes,"
                            f" {cycles[0]['rows']} GAM rows per fresh import")
    return ops, problems


def traced(seed: int, seconds: float, work: Path, report: Report,
           ledger: DigestLedger) -> tuple[Ops, list[str], dict]:
    """A traced cycle between two untraced ones.  One pass is a single
    long operation, so the overhead compares the traced cycle with the
    mean of its neighbours, which cancels a steady drift of the machine."""
    ops, plain_ops, problems = Ops(), Ops(), []
    files, setup_times = _setup(seed, work)
    report.add("setup_s", median(setup_times), "s", len(setup_times))
    before = _cycle(files, work / "plain.gam", plain_ops, problems)
    recorder = Recorder()
    patcher = Patcher(recorder)
    retries = retry_attempts()
    install(patcher)
    try:
        result = _cycle(files, work / "traced.gam", ops, problems, recorder)
    finally:
        patcher.restore()
    retries = retry_attempts() - retries
    after = _cycle(files, work / "plain.gam", plain_ops, problems)
    if None in (before, result, after):
        raise BenchError(
            f"an import pass failed: {plain_ops.errors + ops.errors}")
    _check_digests([before, result, after], ledger, problems)

    def seconds_of(cycle: dict) -> float:
        return cycle["fresh_s"] + cycle["reimport_s"]

    plain_s = (seconds_of(before) + seconds_of(after)) / 2
    overhead = (seconds_of(result) / plain_s - 1.0) * 100.0
    metrics = per_layer_metrics(recorder, None, None, retries, overhead)
    return ops, problems, {"metrics": metrics, "recorder": recorder,
                           "required": REQUIRED_LAYERS}
