"""The repository benchmark.

    python3 perfbench/run.py --workload {cli-plan,serve-zipf,sweep-grid}
        --seed N --seconds S --trace {0,1}

The program is pure Python and runs from ``src/`` of the checkout
this file sits in; the only build step byte-compiles it.  Prints a table of every figure (name,
value, unit, samples), then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced (half the
time each, same seed) and reports the per-layer metrics, written
also as a Chrome trace under ``.perfbench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    WORK,
    BenchError,
    build,
    median,
    peak_child_rss_mb,
    require_checkout,
    stamp,
)

#: Replica start-ups measured per run for ``setup_s`` (serve-zipf
#: adds the start-up of each of its two phase replicas).
SETUP_LAUNCHES = 5

Figure = Tuple[float, str, int]  # value, unit, samples


def p50(run, bucket: str, unit: str = "ms") -> Figure:
    """Median of a bucket's samples at the reference host speed."""
    samples = run.samples[bucket]
    speed = run.speed_for.get(bucket, run.speed)
    return median(speed.normalize(samples)), unit, len(samples)


def end_to_end(run, rss_mb: float) -> Dict[str, Figure]:
    return {
        "setup_s": p50(run, "setup_s", "s"),
        "miss_p50_ms": p50(run, "miss_ms"),
        "hit_p50_ms": p50(run, "hit_ms"),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def raw_figures(run) -> List[Tuple[str, Figure]]:
    """The measured medians behind the normalized ones."""
    figures = []
    for bucket, unit in (("setup_s", "s"), ("miss_ms", "ms"),
                         ("hit_ms", "ms")):
        values = [value for _, value in run.samples[bucket]]
        name = bucket.replace("_", "_p50_raw_")
        figures.append((name, (median(values), unit, len(values))))
    speeds = [("probe", run.speed)] + [
        (bucket.replace("_ms", "_probe"), speed)
        for bucket, speed in sorted(run.speed_for.items())]
    for name, speed in speeds:
        probes = [ms for _, ms in speed.probes]
        figures.append((f"{name}_p50_ms",
                        (median(probes), "ms", len(probes))))
    return figures


def print_table(title: str, figures: List[Tuple[str, Figure]]) -> None:
    print(f"== {title}")
    for name, (value, unit, samples) in figures:
        print(f"  {name:36s} {value:14.4f} {unit:9s} n={samples}")


def run_workload(args: argparse.Namespace) -> Dict:
    import workloads
    from layers import layer_metrics, load_processes, write_chrome_trace

    workload = workloads.WORKLOADS[args.workload]
    width = workload.width
    base = f"{args.workload}-{args.seed}-{os.getpid()}"
    runs = []
    try:
        if not args.trace:
            run = workloads.Run(args.seed, args.seconds, base, width)
            runs.append(run)
            # Start-ups before and after the workload, so a drift in
            # host speed during the run moves the median less.
            launches = SETUP_LAUNCHES - (2 if args.workload ==
                                         "serve-zipf" else 0)
            workloads.measure_setup(run, (launches + 1) // 2)
            workload.run(run)
            workloads.measure_setup(run, launches // 2)
            rss_mb = peak_child_rss_mb()
            ledger = run.ledger
        else:
            half = args.seconds / 2
            plain = workloads.Run(args.seed, half, base + "-plain", width)
            runs.append(plain)
            workload.run(plain)
            run = workloads.Run(args.seed, half, base + "-traced", width)
            runs.append(run)
            run.ledger = plain.ledger
            run.trace_dir = run.dir / "spans"
            run.trace_dir.mkdir()
            workload.run(run)
            ledger = plain.ledger
        reference = workload.reference(run)
        ledger.check_reference(reference)
        golden = ledger.check_golden()
        if golden != 14:
            ledger.fail(ledger.attempt(),
                        f"only {golden} of 14 golden points answered")
        if args.trace:
            processes = load_processes(run.trace_dir)
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            trace_path = traces / f"{args.workload}-seed{args.seed}.json"
            spans = write_chrome_trace(processes, trace_path)
            figures = layer_metrics(processes, run.serve_stats,
                                    run.client_ms, run.chains)
            untraced = p50(plain, "miss_ms")[0]
            traced, _, samples = p50(run, "miss_ms")
            figures["trace.overhead_pct"] = (
                (traced - untraced) / untraced * 100, "%", samples)
            print(f"trace: {spans} spans -> "
                  f"{trace_path.relative_to(WORK.parent)}")
        else:
            figures = end_to_end(run, rss_mb)
        hygiene = [leak for r in runs for leak in r.hygiene.leaks]
        notes = [(name, (value, unit, samples)) for r in runs
                 for name, value, unit, samples in r.notes]
        invalid = [reason for r in runs for reason in r.invalid]
    finally:
        for r in runs:
            for replica in r.replicas:
                replica.stop(r.hygiene, "replica")
            shutil.rmtree(r.dir, ignore_errors=True)
    if not args.trace:
        notes.append(("cache_kb_per_point", (
            median(run.cache_kb_per_point), "KB",
            len(run.cache_kb_per_point))))
        notes += raw_figures(run)
    attempted, failed = ledger.attempted, ledger.failures
    notes.append(("error_rate", (failed / max(attempted, 1), "fraction",
                                 attempted)))
    status = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "valid": not invalid, "invalid": invalid,
        "leaked_processes": hygiene, "problems": ledger.problems,
        **stamp(),
    }
    print(json.dumps(status, sort_keys=True))
    print_table("workload figures", notes)
    print_table("per-layer" if args.trace else "end-to-end",
                sorted(figures.items()))
    result = {
        "correct": failed == 0 and not hygiene,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in sorted(figures.items())
        },
    }
    return result


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-plan", "serve-zipf", "sweep-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A caller running us in the background may have SIGINT ignored,
    # and children inherit an ignored signal: the replicas could then
    # not be stopped with SIGINT.  A handled signal resets on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        require_checkout()
        build()
        result = run_workload(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
