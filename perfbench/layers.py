"""Per-layer metrics from the spans of a traced run.

A layer's time is reported as mean *self* time per call: a span's
duration minus the part of it that its child spans cover (children
may live in another process -- a serving-pool job hangs under the
request that submitted it).  Every ratio comes with its numerator
and denominator as separate metrics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from common import median

EXECUTOR_NAMES = ("unfused", "flat", "fusemax", "fusemax-lf",
                  "transfusion")
CACHE_KINDS = ("report", "tileseek", "dpipe-kernel")

Metric = Tuple[float, str, int]  # value, unit, samples


def load_processes(trace_dir: Path) -> List[Dict[str, Any]]:
    return [json.loads(path.read_text())
            for path in sorted(trace_dir.glob("spans-*.json"))]


def write_chrome_trace(processes: Sequence[Dict[str, Any]],
                       path: Path) -> int:
    """Write all spans as Chrome trace-event JSON; returns the count."""
    spans = [(process, span) for process in processes
             for span in process["spans"]]
    origin = min((span["start"] for _, span in spans), default=0)
    events = []
    for process, span in spans:
        events.append({
            "name": span["name"], "ph": "X", "pid": process["pid"],
            "tid": span["tid"] % 100000,
            "ts": (span["start"] - origin) / 1e3,
            "dur": (span["end"] - span["start"]) / 1e3,
            "args": dict(span["args"], id=span["id"],
                         parent=span["parent"], rid=span["rid"]),
        })
    for process in processes:
        events.append({
            "name": "process_name", "ph": "M", "pid": process["pid"],
            "args": {"name": " ".join(process["argv"][:1]) or "repro"},
        })
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return len(spans)


def covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0
    reach: Optional[int] = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Self time (ns) of every span id: duration minus the union of
    its children's intervals, clipped to the span."""
    by_id = {span["id"]: span for span in spans}
    children: Dict[str, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: span["end"] - span["start"]
        - covered(children.get(span["id"], ()))
        for span in spans
    }


def _ratio(out: Dict[str, Metric], name: str, hits: int,
           total: int, hits_name: str, total_name: str) -> None:
    out[name] = (hits / total if total else 0.0, "fraction", total)
    out[hits_name] = (float(hits), "count", total)
    out[total_name] = (float(total), "count", total)


def _mean_ms(values_ns: Sequence[int]) -> Metric:
    if not values_ns:
        return 0.0, "ms", 0
    return sum(values_ns) / len(values_ns) / 1e6, "ms", len(values_ns)


def layer_metrics(processes: Sequence[Dict[str, Any]],
                  serve_stats: Sequence[Dict[str, Any]],
                  client_ms: Dict[str, float],
                  chains: int) -> Dict[str, Metric]:
    """Every per-layer metric; zero (with zero samples) where the
    workload does not exercise the layer."""
    spans = [dict(span, pid=process["pid"]) for process in processes
             for span in process["spans"]]
    own = self_times(spans)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def selfs(name: str) -> List[int]:
        return [own[span["id"]] for span in by_name.get(name, ())]

    def durations(spans_: Iterable[Dict[str, Any]]) -> List[int]:
        return [span["end"] - span["start"] for span in spans_]

    out: Dict[str, Metric] = {}
    imports = durations(by_name.get("cli.import", ()))
    out["cli.import_ms"] = (median(imports) / 1e6 if imports else 0.0,
                            "ms", len(imports))
    commands = {process["pid"] for process in processes
                if process["argv"][:1] not in (["serve"], ["<worker>"])}
    mains = durations(span for span in by_name.get("cli.main", ())
                      if span["pid"] in commands)
    out["cli.main_ms"] = (median(mains) / 1e6 if mains else 0.0,
                          "ms", len(mains))

    # Transport: the client's round trip minus the server's handling
    # of the same request.
    handled = {span["rid"]: span["end"] - span["start"]
               for span in by_name.get("serve.app.handle", ())}
    transport = [client_ms[rid] - handled[rid] / 1e6
                 for rid in client_ms if rid in handled]
    out["serve.transport.overhead_ms"] = (
        median(transport) if transport else 0.0, "ms", len(transport))
    out["serve.app.handle_self_ms"] = _mean_ms(selfs("serve.app.handle"))
    lru = [stats["lru"] for stats in serve_stats]
    out["serve.app.searches"] = (
        float(sum(stats["searches"] for stats in serve_stats)), "count",
        len(serve_stats))
    _ratio(out, "serve.lru.hit_ratio",
           sum(entry["hits"] for entry in lru),
           sum(entry["hits"] + entry["misses"] for entry in lru),
           "serve.lru.hits", "serve.lru.lookups")
    out["serve.lru.evictions"] = (
        float(sum(entry["evictions"] for entry in lru)), "count",
        len(lru))
    out["serve.coalesce.coalesced"] = (
        float(sum(stats["coalesce"]["coalesced"]
                  for stats in serve_stats)), "count", len(serve_stats))

    out["runner.pool.wait_ms"] = _mean_ms(
        durations(by_name.get("runner.pool.wait", ())))
    out["runner.pool.jobs"] = (
        float(len(by_name.get("runner.pool.job", ()))), "count",
        len(serve_stats))
    out["runner.pool.respawns"] = (
        float(sum(stats["pool"]["generation"] for stats in serve_stats)),
        "count", len(serve_stats))

    for metric, name in (
        ("protocol.parse_ms", "protocol.parse"),
        ("protocol.render_ms", "protocol.render"),
        ("serialize.report_to_dict_ms", "serialize.report_to_dict"),
        ("serialize.report_from_dict_ms", "serialize.report_from_dict"),
        ("cache.get_ms", "cache.get"),
        ("cache.put_ms", "cache.put"),
        ("tileseek.search_ms", "tileseek.search"),
        ("dpipe.plan_cascade_ms", "dpipe.plan_cascade"),
        ("einsum.cascades_ms", "einsum.cascade"),
    ):
        out[metric] = _mean_ms(selfs(name))

    puts = by_name.get("cache.put", ())
    out["cache.puts"] = (float(len(puts)), "count", len(puts))
    out["cache.put_bytes"] = (
        float(sum(span["args"].get("bytes", 0) for span in puts)),
        "bytes", len(puts))
    gets = by_name.get("cache.get", ())
    for kind in CACHE_KINDS:
        lookups = [span for span in gets
                   if span["args"].get("kind") == kind]
        _ratio(out, f"cache.hit_ratio.{kind}",
               sum(1 for span in lookups if span["args"].get("hit")),
               len(lookups), f"cache.hits.{kind}",
               f"cache.lookups.{kind}")

    grids = by_name.get("parallel.run_grid", ())
    out["parallel.run_grid_ms"] = _mean_ms(durations(grids))
    out["parallel.chains"] = (float(chains), "count", len(grids))
    sweepers = {process["pid"] for process in processes
                if process["argv"][:1] == ["sweep"]}
    busy = 0
    for process in processes:
        if process["ppid"] in sweepers:
            busy += covered(
                (span["start"], span["end"]) for span in
                process["spans"] if span["parent"] is None)
    capacity = 2 * sum(durations(span for span in grids
                                 if span["pid"] in sweepers))
    out["parallel.worker_busy_ratio"] = (
        busy / capacity if capacity else 0.0, "fraction", len(grids))
    out["parallel.worker_busy_ms"] = (busy / 1e6, "ms", len(grids))
    out["parallel.worker_capacity_ms"] = (capacity / 1e6, "ms",
                                          len(grids))

    for name in EXECUTOR_NAMES:
        runs = selfs(f"executor.{name}.run")
        out[f"executor.{name}.run_ms"] = _mean_ms(runs)
        out[f"executor.{name}.runs"] = (float(len(runs)), "count",
                                        len(runs))

    searches = by_name.get("tileseek.search", ())
    out["tileseek.searches"] = (float(len(searches)), "count",
                                len(searches))
    totals = {
        field: sum(span["args"].get(field, 0) for span in searches)
        for field in ("iterations", "evaluations", "dead_ends")
    }
    out["tileseek.evaluations"] = (float(totals["evaluations"]),
                                   "count", len(searches))
    _ratio(out, "tileseek.dead_end_ratio", totals["dead_ends"],
           totals["iterations"], "tileseek.dead_ends",
           "tileseek.iterations")
    searched = {span["parent"] for span in searches}
    tilings = by_name.get("tileseek.tiling", ())
    _ratio(out, "tileseek.memo_hit_ratio",
           sum(1 for span in tilings if span["id"] not in searched),
           len(tilings), "tileseek.memo_hits", "tileseek.tiling_calls")

    cascades = by_name.get("dpipe.plan_cascade", ())
    builds = [span["args"].get("kernel_growth", 0) for span in cascades]
    out["dpipe.kernel_builds"] = (float(sum(builds)), "count",
                                  len(cascades))
    _ratio(out, "dpipe.kernel_memo_hit_ratio",
           sum(1 for growth in builds if growth == 0), len(builds),
           "dpipe.kernel_memo_hits", "dpipe.plan_cascade_calls")
    out["einsum.cascade_builds"] = (
        float(len(by_name.get("einsum.cascade", ()))), "count",
        len(by_name.get("einsum.cascade", ())))
    return out

