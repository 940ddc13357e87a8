"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Prints one line per metric (name, value, unit, sample count), then as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Exits non-zero
without a result line when the program is missing, the configuration is
not the default one, or the traced run leaves a layer uncovered.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import harness
from harness import BenchError, DigestLedger, Report, WorkDir

WORKLOADS = ("ingest", "interactive", "analytics")


def _manifest_names(kind: str) -> list[str]:
    manifest = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in manifest[kind]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness.guard_configuration()
        harness.require_program()
        import analytics
        import ingest
        import interactive
        import layers

        module = {"ingest": ingest, "interactive": interactive,
                  "analytics": analytics}[args.workload]
        env = harness.environment(args.seed, args.workload)
        print("environment " + json.dumps(env, sort_keys=True))
        report = Report(args.workload)
        ledger = DigestLedger(args.workload, args.seed)
        with WorkDir() as work:
            if args.trace:
                layers.verify_targets()
                ops, problems, traced = module.traced(
                    args.seed, args.seconds, work, report, ledger)
            else:
                ops, problems = module.measure(
                    args.seed, args.seconds, work, report, ledger)
                traced = None
        ledger.save()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted, failed = ops.attempted, ops.failed
    report.add("failed_ratio", failed / attempted if attempted else 1.0,
               "ratio", attempted)
    for kind, samples in ops.samples.items():
        report.notes.append(f"{kind}: {len(samples)} attempted,"
                            f" {ops.failures[kind]} failed")
    for error in ops.errors:
        report.notes.append(f"error {error}")
    for problem in problems:
        report.notes.append(f"INCORRECT {problem}")

    if traced:
        layer_report = Report(args.workload)
        for name, (value, unit, samples) in traced["metrics"].items():
            layer_report.add(name, value, unit, samples)
        report.print_table()
        layer_report.print_table()
        trace_path = (harness.WORK_ROOT
                      / f"trace-{args.workload}-seed{args.seed}.jsonl")
        traced["recorder"].write(trace_path)
        print(f"{args.workload:<12} note: spans written to {trace_path}")
        missing = layers.check_coverage(traced["metrics"], traced["required"])
        if missing:
            print("perfbench: layer coverage failed, no samples for "
                  + ", ".join(missing), file=sys.stderr)
            return 3
        names, source = _manifest_names("per_layer"), layer_report
    else:
        report.print_table()
        names, source = _manifest_names("end_to_end"), report

    try:
        line = source.result_line(names, correct=not problems,
                                  attempted=max(attempted, 1), failed=failed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through the workloads' finally blocks, which stop
    # the server subprocess and remove the work directory.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    raise SystemExit(main())
