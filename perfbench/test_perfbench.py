"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They check the benchmark's own machinery -- seeded inputs, metric
names, self-time arithmetic and the output oracle -- without running
the program.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
from common import PROBE_REF_MS, ROOT, Hygiene, Speed  # noqa: E402
from oracle import Ledger, OracleError, golden_texts, plan_answer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def serve_schedule(seed, phase="hi"):
    catalog = inputs.serve_catalog(seed)
    return [catalog[rank] for _, rank in inputs.zipf_schedule(
        seed, phase, 20.0, 10.0, inputs.golden_ranks(catalog))]


@pytest.mark.parametrize("make", [
    inputs.cli_plan_schedule, serve_schedule, inputs.sweep_grid,
])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_cli_plan_head_holds_every_golden_identity():
    head = [request for kind, request in inputs.cli_plan_schedule(3)
            if kind == "cold"][:28]
    golden = {inputs.identity(request)
              for request in inputs.golden_requests()}
    assert golden <= {inputs.identity(request) for request in head}


def test_cli_plan_cold_points_are_distinct():
    cold = [inputs.identity(request) for kind, request in
            inputs.cli_plan_schedule(5) if kind == "cold"]
    assert len(cold) == len(set(cold))


@pytest.mark.parametrize("phase", ["lo", "hi"])
def test_every_serve_phase_asks_for_every_golden_identity(phase):
    golden = {inputs.identity(request)
              for request in inputs.golden_requests()}
    for seed in range(5):
        asked = {inputs.identity(request)
                 for request in serve_schedule(seed, phase)}
        assert golden <= asked


def test_short_serve_phases_still_ask_for_every_golden_identity():
    catalog = inputs.serve_catalog(4)
    golden = inputs.golden_ranks(catalog)
    for seconds in (0.1, 1.0, 2.0):
        ranks = [rank for _, rank in inputs.zipf_schedule(
            4, "lo", 7.0, seconds, golden)]
        assert set(golden) <= set(ranks)


def test_serve_catalog_is_distinct_and_mostly_transfusion():
    catalog = inputs.serve_catalog(2)
    assert len({inputs.identity(r) for r in catalog}) == len(catalog)
    share = sum(r["point"]["executor"] == "transfusion"
                for r in catalog) / len(catalog)
    assert 0.6 < share < 0.8


# ----------------------------------------------------------------------
# Metric names and units
# ----------------------------------------------------------------------
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metric_names_are_legal_and_carry_units():
    spec = benchmark_json()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert metric["unit"]


def synthetic_processes():
    """One sweep parent with one worker, and one plan process."""
    span = {"tid": 1, "rid": None, "args": {}}
    return [
        {"pid": 10, "ppid": 1, "argv": ["sweep"], "spans": [
            dict(span, name="cli.import", start=0, end=5, id="10.1",
                 parent=None),
            dict(span, name="cli.main", start=5, end=100, id="10.2",
                 parent=None),
            dict(span, name="parallel.run_grid", start=10, end=90,
                 id="10.3", parent="10.2"),
        ]},
        {"pid": 11, "ppid": 10, "argv": ["<worker>"], "spans": [
            dict(span, name="executor.fusemax-lf.run", start=20,
                 end=60, id="11.1", parent=None),
            dict(span, name="cache.get", start=62, end=64, id="11.2",
                 parent=None, args={"kind": "report", "hit": True}),
        ]},
        {"pid": 12, "ppid": 1, "argv": ["plan"], "spans": [
            dict(span, name="tileseek.tiling", start=0, end=50,
                 id="12.1", parent=None),
            dict(span, name="tileseek.search", start=5, end=45,
                 id="12.2", parent="12.1",
                 args={"iterations": 10, "evaluations": 8,
                       "dead_ends": 2}),
        ]},
    ]


def test_per_layer_metrics_match_the_declaration():
    figures = layers.layer_metrics(synthetic_processes(), [], {}, 3)
    figures["trace.overhead_pct"] = (1.0, "%", 1)
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert set(figures) == set(declared)
    for name, (value, unit, samples) in figures.items():
        assert NAME.fullmatch(name) and unit == declared[name], name
        assert isinstance(samples, int)


def test_end_to_end_metrics_match_the_declaration():
    class FakeRun:
        samples = {"setup_s": [(0.0, 0.5)], "miss_ms": [(0.0, 3.0)],
                   "hit_ms": [(0.0, 1.0)]}
        speed = Speed()
        speed.probes = [(0.0, PROBE_REF_MS)]
        speed_for = {}

    figures = bench.end_to_end(FakeRun(), 40.0)
    declared = {m["name"]: m["unit"]
                for m in benchmark_json()["end_to_end"]}
    assert {name: unit for name, (_, unit, _) in figures.items()} \
        == declared


def test_samples_are_normalized_by_the_nearest_probes():
    speed = Speed()
    # The host runs at half speed for the first ten seconds, then at
    # the reference speed.
    speed.probes = [(float(t), 2 * PROBE_REF_MS) for t in range(10)]
    speed.probes += [(float(t), PROBE_REF_MS) for t in range(10, 20)]
    assert speed.normalize([(2.0, 8.0), (17.5, 4.0)]) == [4.0, 4.0]


def test_ticks_are_taken_alongside_the_work_and_stopped():
    speed, hygiene = Speed.ticks(), Hygiene()
    with speed.ticking(hygiene):
        time.sleep(0.6)
    assert len(speed.probes) >= 2 and not hygiene.leaks
    assert all(ms > 0 for _, ms in speed.probes)


def test_ratios_carry_their_base():
    figures = layers.layer_metrics(synthetic_processes(), [], {}, 3)
    assert figures["tileseek.dead_end_ratio"][0] == pytest.approx(0.2)
    assert figures["tileseek.dead_ends"][0] == 2
    assert figures["tileseek.iterations"][0] == 10
    assert figures["cache.hit_ratio.report"][0] == 1.0
    assert figures["cache.lookups.report"][0] == 1
    assert figures["tileseek.memo_hit_ratio"][0] == 0.0
    assert figures["tileseek.tiling_calls"][0] == 1
    # The worker was busy 42 of the 2 x 80 ns the grid offered.
    assert figures["parallel.worker_busy_ratio"][0] == pytest.approx(
        42 / 160)


def test_transport_overhead_is_client_span_minus_handle_span():
    handle = {"name": "serve.app.handle", "start": 0, "end": 3_000_000,
              "id": "20.1", "parent": None, "rid": "hi-4", "tid": 1,
              "args": {}}
    replica = {"pid": 20, "ppid": 1, "argv": ["serve"],
               "spans": [handle]}
    figures = layers.layer_metrics([replica], [], {"hi-4": 3.5,
                                                   "hi-5": 9.0}, 0)
    assert figures["serve.transport.overhead_ms"] == (
        pytest.approx(0.5), "ms", 1)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children_clipped():
    spans = [
        {"id": "p", "parent": None, "start": 0, "end": 100},
        {"id": "a", "parent": "p", "start": 10, "end": 30},
        {"id": "b", "parent": "p", "start": 20, "end": 50},
        # In another process, running past its parent's end.
        {"id": "c", "parent": "p", "start": 60, "end": 120},
        {"id": "d", "parent": "a", "start": 12, "end": 14},
    ]
    own = layers.self_times(spans)
    assert own == {"p": 100 - 40 - 40, "a": 18, "b": 30, "c": 60,
                   "d": 2}


def test_covered_merges_overlaps_and_gaps():
    assert layers.covered([]) == 0
    assert layers.covered([(0, 10), (5, 15), (20, 25)]) == 20
    assert layers.covered([(0, 10), (2, 3)]) == 10


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def golden_body(text, request_id=None):
    """A served-style plan body rebuilt from a golden snapshot."""
    document = json.loads(text)
    report = document["report"]
    body = {"v": 1, "op": "plan", "ok": True, "status": "ok",
            "report": report,
            "provenance": report.get("provenance", "complete")}
    if "budget" in document:
        body["budget"] = document["budget"]
    if request_id is not None:
        body["id"] = request_id
    return document["point"], json.dumps(body, sort_keys=True,
                                         separators=(",", ":"))


def ledger_with(bodies):
    ledger = Ledger()
    for point, body in bodies:
        key, answer = plan_answer(body, point)
        ledger.record(ledger.attempt(), key, answer, point)
    return ledger


def test_oracle_accepts_the_golden_corpus():
    ledger = ledger_with(golden_body(text)
                         for text in golden_texts().values())
    assert ledger.check_golden() == 14
    assert ledger.failures == 0


def test_oracle_rejects_a_corrupted_body():
    texts = list(golden_texts().values())
    point, body = golden_body(texts[0])
    corrupted = re.sub(r"(\d)\.(\d)", lambda m: f"{m[1]}.{(int(m[2]) + 1) % 10}",
                       body, count=1)
    assert corrupted != body
    ledger = ledger_with([(point, corrupted)])
    ledger.check_golden()
    assert ledger.failures == 1


def test_oracle_rejects_divergent_repeats_and_reference():
    point, body = golden_body(list(golden_texts().values())[3])
    other_point, other = golden_body(list(golden_texts().values())[4])
    ledger = ledger_with([(point, body)])
    key, answer = plan_answer(other, point)
    ledger.record(ledger.attempt(), key, answer, point)
    assert ledger.failures == 1
    fresh = ledger_with([(point, body)])
    fresh.check_reference({key: answer})
    assert fresh.failures == 1


def test_oracle_rejects_error_bodies_and_wrong_ids():
    point, body = golden_body(list(golden_texts().values())[0], "r1")
    with pytest.raises(OracleError):
        plan_answer(body, point, "r2")
    with pytest.raises(OracleError):
        plan_answer('{"ok":false,"status":"error"}', point)
    with pytest.raises(OracleError):
        plan_answer("not json", point)
