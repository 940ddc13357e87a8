"""Shared plumbing of the benchmark: configuration guard, environment
record, sample statistics, the work directory and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

#: Switches that select a non-default configuration.  The benchmark
#: measures the configuration production runs (monolithic storage, serial
#: import, cache on, no faults), so any of these set is refused: two
#: commits must be measured under the same settings.
REFUSED_ENV = (
    "REPRO_SHARDS",
    "REPRO_IMPORT_WORKERS",
    "REPRO_IMPORT_RESUME",
    "REPRO_CACHE",
    "REPRO_CACHE_SIZE",
    "REPRO_FAULTS",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def guard_configuration() -> None:
    present = [name for name in REFUSED_ENV if os.environ.get(name)]
    if present:
        raise BenchError(
            "refusing to run with non-default configuration: "
            + ", ".join(f"{name}={os.environ[name]!r}" for name in present)
        )


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for program subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: identify the program by its source content.
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(seed: int, workload: str) -> dict:
    from repro.cache import DEFAULT_MAX_BYTES
    from repro.cache import cache_size_from_env

    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "storage": "monolithic",
        "import_workers": 1,
        "cache_entries": cache_size_from_env(),
        "cache_bytes": DEFAULT_MAX_BYTES,
        "faults": "none",
        "flush_policy": "journal_mode=WAL, synchronous=NORMAL",
    }


class WorkDir:
    """A private scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def remove_database(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def database_bytes(path: Path) -> int:
    return sum(
        Path(f"{path}{suffix}").stat().st_size
        for suffix in ("", "-wal")
        if Path(f"{path}{suffix}").exists()
    )


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a running process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


def by_window(values: list, ends: list[float], start: float,
              seconds: float, count: int) -> list[list]:
    """``values`` split into ``count`` equal time windows of the
    ``seconds`` after ``start`` by their ``ends`` (``time.perf_counter()``
    when each operation ended); stragglers fall into the last window."""
    width = seconds / count
    split: list[list] = [[] for __ in range(count)]
    for value, end in zip(values, ends):
        split[min(max(int((end - start) / width), 0), count - 1)].append(value)
    return split


def median_of(groups: list[list[float]], stat) -> float:
    """The median over ``groups`` (cycles or time windows) of ``stat`` of
    each non-empty group.  A slow spell of the machine that covers less
    than half of a run leaves it unmoved, where one percentile over the
    whole run moves as soon as the spell covers its tail share."""
    return median([stat(group) for group in groups if group])


class Ops:
    """Per-operation-type latency samples and failure counts.

    A failed operation keeps its latency sample and counts against the
    operations attempted; nothing is dropped silently.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        #: ``time.perf_counter()`` at which each sample's operation ended.
        self.ends: dict[str, list[float]] = {}
        self.failures: dict[str, int] = {}
        self.errors: list[str] = []

    def record(self, kind: str, ms: float, ok: bool = True,
               error: str | None = None) -> None:
        self.samples.setdefault(kind, []).append(ms)
        self.ends.setdefault(kind, []).append(time.perf_counter())
        self.failures.setdefault(kind, 0)
        if not ok:
            self.failures[kind] += 1
            if error is not None and len(self.errors) < 20:
                self.errors.append(f"{kind}: {error}")

    def timed(self, kind: str, fn):
        """Run ``fn`` as one ``kind`` operation; returns (result, seconds),
        with None as the result when it raised."""
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted and reported, never dropped
            seconds = time.perf_counter() - start
            self.record(kind, seconds * 1e3, ok=False, error=repr(exc))
            return None, seconds
        seconds = time.perf_counter() - start
        self.record(kind, seconds * 1e3)
        return result, seconds

    def ms(self, kind: str) -> list[float]:
        return self.samples.get(kind, [])

    @property
    def attempted(self) -> int:
        return sum(len(values) for values in self.samples.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Report:
    """Named metrics with unit and sample count, printed for people first
    and then as the one-line JSON result."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.notes: list[str] = []

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def print_table(self) -> None:
        for name, (value, unit, samples) in self.metrics.items():
            print(f"{self.workload:<12} {name:<28} {value:>16.6g} {unit:<6}"
                  f" n={samples}")
        for note in self.notes:
            print(f"{self.workload:<12} note: {note}")

    def result_line(self, names: list[str], correct: bool, attempted: int,
                    failed: int) -> str:
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
        return json.dumps({
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": self.metrics[name][0],
                       "unit": self.metrics[name][1]}
                for name in names
            },
        })


class DigestLedger:
    """Result digests per (workload, seed, key), kept across runs in the
    checkout so that repeated runs with one seed must agree.  The file is
    keyed by the benchmark's own code: a changed workload starts afresh."""

    def __init__(self, workload: str, seed: int) -> None:
        code = hashlib.sha256()
        for path in sorted(Path(__file__).parent.glob("*.py")):
            code.update(path.read_bytes())
        self.path = WORK_ROOT / f"digests-{code.hexdigest()[:12]}.json"
        self.prefix = f"{workload}/{seed}/"
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, digest: str) -> bool:
        """Record ``digest``; False when an earlier run recorded another."""
        return self.known.setdefault(self.prefix + key, digest) == digest

    def save(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        tmp.replace(self.path)


def rows_digest(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(list(row)).encode())
        digest.update(b"\n")
    return digest.hexdigest()
