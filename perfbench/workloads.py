"""The three workloads.

Each ``run_<workload>(run)`` drives the system through its public
surfaces only -- the ``repro`` CLI, ``POST /v1`` through
``repro.serve.client.remote_call``, and ``GET /stats`` -- for
``run.seconds``, fills ``run.samples`` with latency samples, and
records every answer in ``run.ledger`` for the oracle, which runs
after timing.
"""

from __future__ import annotations

import http.client
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import inputs
from common import (
    SRC,
    WORK,
    BenchError,
    Hygiene,
    Replica,
    Speed,
    fresh_dir,
    percentile,
    repro_argv,
    run_once,
    system_env,
)
from loadgen import Outcome, run_open_loop
from oracle import Ledger, OracleError, plan_answer, sweep_answers

sys.path.insert(0, str(SRC))
from repro.serve.client import remote_call  # noqa: E402

#: Warm-up plan answered before a replica counts as set up; its
#: sequence length (256) is outside every workload's inputs.
WARMUP = {"point": inputs.point("transfusion", "bert", 256, "cloud", 2)}

#: serve-zipf offered rates (requests/s) and the share of the run
#: each phase gets.  Chosen so the single search worker stays below
#: saturation at ``hi`` on a 2-CPU box.
RATES = (("lo", 7.0, 0.4), ("hi", 14.0, 0.6))
#: Replica LRU entries, scaled to the phase length so that repeats
#: get evicted and re-read from the disk cache within a phase (the
#: catalog is ~19x larger).
SERVE_LRU = 64
#: A request counts toward goodput if answered correctly within this.
GOODPUT_LIMIT_MS = 100.0
#: Generator lateness (p99) beyond which a phase is invalid.
LATE_LIMIT_MS = 10.0
#: cli-plan: the cache footprint is sampled after this many cold plans.
CACHE_SAMPLE_PLANS = 20
#: cli-plan: plans between two calibration probes.
PROBE_EVERY = 2
#: Calibration probes at each end of a stretch of measured work.
PROBE_EDGE = 3


class Run:
    """State of one measured run of a workload (one seed)."""

    def __init__(self, seed: int, seconds: float, name: str,
                 width: int = 1) -> None:
        self.seed = seed
        self.seconds = seconds
        self.dir = fresh_dir(name)
        self.trace_dir: Optional[Path] = None
        self.hygiene = Hygiene()
        self.ledger = Ledger()
        #: Each sample is (perf_counter midpoint s, wall time), so that
        #: ``speed`` can normalize it; ``setup_s`` in seconds, the
        #: others in ms.
        self.samples: Dict[str, List] = {
            "setup_s": [], "miss_ms": [], "hit_ms": [],
        }
        self.speed = Speed(width)
        #: Host speed for a bucket of samples that ``speed`` does not
        #: track.
        self.speed_for: Dict[str, Speed] = {}
        self.cache_kb_per_point: List[float] = []
        self.notes: List[Tuple[str, float, str, int]] = []
        self.serve_stats: List[Dict[str, Any]] = []
        #: Client-observed round trip (ms) per request id, traced runs.
        self.client_ms: Dict[str, float] = {}
        self.chains = 0
        self.invalid: List[str] = []
        #: Every replica launched, so a failed run can still stop them.
        self.replicas: List[Replica] = []

    def note(self, name: str, value: float, unit: str,
             samples: int) -> None:
        """An extra figure for the printed table (not the JSON)."""
        self.notes.append((name, value, unit, samples))

    def argv(self, args: List[str]) -> List[str]:
        return repro_argv(args, self.trace_dir)


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def post(port: int, document: Dict[str, Any]) -> Tuple[int, str]:
    return remote_call("127.0.0.1", port, document, timeout=30.0)


def get_stats(port: int) -> Dict[str, Any]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=30.0)
    try:
        connection.request("GET", "/stats")
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def check_plan(run: Run, request: Dict[str, Any], status: int,
               body: str, request_id: Optional[str] = None,
               error: str = "") -> bool:
    """Record one plan answer; False (and a failure) if unusable."""
    index = run.ledger.attempt()
    if error or status != 200:
        run.ledger.fail(index, f"request failed: {status} {error} "
                               f"{body[:160]}")
        return False
    try:
        key, answer = plan_answer(body, request["point"], request_id)
    except OracleError as problem:
        run.ledger.fail(index, str(problem))
        return False
    run.ledger.record(index, key, answer, request["point"])
    return True


def launch_replica(run: Run, label: str, args: List[str],
                   traced: bool = False, env: Optional[Dict] = None,
                   cache: Optional[Path] = None
                   ) -> Tuple[Replica, Tuple[float, float], Path]:
    """Start a replica (on a fresh cache unless ``cache`` is given)
    and answer the warm-up plan; returns it with its set-up sample
    (midpoint, seconds from launch to warm-up answer) and its cache
    directory."""
    cache = cache or fresh_dir(f"{run.dir.name}/{label}-cache")
    argv = repro_argv(
        ["serve", "--port", "0", "--cache-dir", str(cache), *args],
        run.trace_dir if traced else None)
    # The replica's own process resolves the plan cache from the
    # environment; point it at the same directory as its workers.
    env = dict(env or system_env(), REPRO_CACHE_DIR=str(cache))
    started = time.perf_counter()
    replica = Replica(argv, env, run.dir / f"{label}.log")
    run.replicas.append(replica)
    port = replica.wait_ready()
    status, body = post(port, dict(WARMUP, v=1, op="plan"))
    setup = time.perf_counter() - started
    check_plan(run, WARMUP, status, body)
    return replica, (started + setup / 2, setup), cache


def measure_setup(run: Run, count: int) -> None:
    """``count`` replica start-ups, each stopped right after."""
    for _ in range(count):
        label = f"setup-{len(run.samples['setup_s'])}"
        replica, setup, _ = launch_replica(run, label, ["--jobs", "1"])
        replica.stop(run.hygiene, label)
        run.samples["setup_s"].append(setup)


# ----------------------------------------------------------------------
# cli-plan
# ----------------------------------------------------------------------
def run_cli_plan(run: Run) -> None:
    """Closed loop, one client: each request is a fresh ``repro plan
    --json`` process against the run's plan cache.  Runs until the
    time is up and the golden head of the schedule is done."""
    cache = fresh_dir(f"{run.dir.name}/plan-cache")
    env = system_env(REPRO_CACHE_DIR=str(cache))
    deadline = time.perf_counter() + run.seconds
    cold = 0
    run.speed.probe(run.hygiene, PROBE_EDGE)
    for slot, (kind, request) in enumerate(
            inputs.cli_plan_schedule(run.seed)):
        if time.perf_counter() >= deadline and cold >= 28:
            break
        if slot and slot % PROBE_EVERY == 0:
            run.speed.probe(run.hygiene)
        argv = run.argv(["plan", *inputs.plan_args(request), "--json"])
        started = time.perf_counter()
        result, elapsed = run_once(argv, env, run.hygiene,
                                   f"plan #{slot}")
        sample = (started + elapsed / 2, elapsed * 1e3)
        check_plan(run, request, 200 if result.returncode == 0 else
                   result.returncode, result.stdout.strip(),
                   error=result.stderr[-300:]
                   if result.returncode else "")
        if kind == "cold":
            run.samples["miss_ms"].append(sample)
            cold += 1
            if cold == CACHE_SAMPLE_PLANS:
                run.cache_kb_per_point.append(
                    dir_bytes(cache) / 1024 / CACHE_SAMPLE_PLANS)
        else:
            run.samples["hit_ms"].append(sample)
    run.speed.probe(run.hygiene, PROBE_EDGE)
    misses = [ms for _, ms in run.samples["miss_ms"]]
    run.note("plan_wall_p50_ms", percentile(misses, 50), "ms",
             len(misses))
    run.note("plan_wall_p90_ms", percentile(misses, 90), "ms",
             len(misses))


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
def run_serve_zipf(run: Run) -> None:
    """Open loop at two fixed rates, a fresh replica per phase."""
    catalog = inputs.serve_catalog(run.seed)
    golden = inputs.golden_ranks(catalog)
    traced = run.trace_dir is not None
    ticks = Speed.ticks()
    run.speed_for.update(miss_ms=ticks, hit_ms=ticks)
    for phase, rate, share in RATES:
        schedule = [
            (offset, dict(catalog[rank], v=1, op="plan",
                          id=f"{phase}-{index}"))
            for index, (offset, rank) in enumerate(inputs.zipf_schedule(
                run.seed, phase, rate, run.seconds * share, golden))
        ]
        replica, setup, cache = launch_replica(
            run, phase, ["--jobs", "1", "--lru", str(SERVE_LRU)],
            traced=traced)
        run.samples["setup_s"].append(setup)
        try:
            # Probes only around the open loop: during it they would
            # take CPU from the replica and the generator.
            run.speed.probe(run.hygiene, PROBE_EDGE)
            with ticks.ticking(run.hygiene):
                outcomes = run_open_loop(
                    schedule,
                    lambda document: post(replica.port, document))
            stats = get_stats(replica.port)
            run.speed.probe(run.hygiene, PROBE_EDGE)
        finally:
            replica.stop(run.hygiene, phase)
        if traced:
            run.serve_stats.append(stats)
        distinct = record_phase(run, phase, schedule, outcomes)
        # Entries written for the phase's points and the warm-up.
        run.cache_kb_per_point.append(
            dir_bytes(cache) / 1024 / (distinct + 1))


def record_phase(run: Run, phase: str,
                 schedule: List[Tuple[float, Dict[str, Any]]],
                 outcomes: List[Outcome]) -> int:
    """Check and classify a phase's answers; returns how many
    distinct identities it asked for."""
    seen = set()
    latencies, good = [], 0
    for outcome in outcomes:
        document = schedule[outcome.index][1]
        request = {key: document[key]
                   for key in ("point", "budget", "deadline_s")
                   if key in document}
        ok = check_plan(run, request, outcome.status, outcome.body,
                        document["id"], outcome.error)
        identity = inputs.identity(request)
        bucket = "hit_ms" if identity in seen else "miss_ms"
        seen.add(identity)
        latencies.append(outcome.latency_ms)
        run.samples[bucket].append(
            ((outcome.due + outcome.done) / 2, outcome.latency_ms))
        good += ok and outcome.latency_ms <= GOODPUT_LIMIT_MS
        if run.trace_dir is not None:
            run.client_ms[document["id"]] = outcome.span_ms
    late = percentile([outcome.late * 1e3 for outcome in outcomes], 99)
    count = len(outcomes)
    run.note(f"{phase}.latency_p50_ms", percentile(latencies, 50), "ms",
             count)
    run.note(f"{phase}.latency_p99_ms", percentile(latencies, 99), "ms",
             count)
    run.note(f"{phase}.goodput", good / len(schedule), "fraction",
             len(schedule))
    run.note(f"gen.{phase}.sent", float(count), "count", count)
    run.note(f"gen.{phase}.completed",
             float(sum(1 for outcome in outcomes if outcome.status)),
             "count", count)
    run.note(f"gen.{phase}.late_p99_ms", late, "ms", count)
    if late > LATE_LIMIT_MS:
        run.invalid.append(
            f"{phase}: generator ran {late:.1f} ms late at p99")
    return len(seen)


# ----------------------------------------------------------------------
# sweep-grid
# ----------------------------------------------------------------------
#: sweep-grid: warm passes per cold pass (a warm pass is ~8x cheaper).
WARM_PASSES = 4


def run_sweep_grid(run: Run) -> None:
    """Rounds of one cold pass (``repro sweep --jobs 2`` on an empty
    cache) and ``WARM_PASSES`` warm passes (``repro sweep --json
    --jobs 2`` reading that cache) over the figure grid.  Then, for
    the oracle and untimed, the golden grid cold and warm and the two
    degraded golden points under their budget."""
    grid = inputs.sweep_grid(run.seed)
    points = len(inputs.grid_points(grid))
    # A warm pass keeps one CPU busy, so one-wide probes track it.
    warm_speed = Speed(1)
    run.speed_for["hit_ms"] = warm_speed
    deadline = time.perf_counter() + run.seconds
    cold_rate, warm_rate = [], []
    rounds = 0
    round_s = 0.0
    # Start another round if at least half of it fits in the time.
    while rounds == 0 or time.perf_counter() + round_s / 2 < deadline:
        started = time.perf_counter()
        cache = fresh_dir(f"{run.dir.name}/round-{rounds % 2}")
        env = system_env(REPRO_CACHE_DIR=str(cache))
        # Two probes a round: the nearest six then span three rounds,
        # not the whole run.
        run.speed.probe(run.hygiene, 2)
        at = time.perf_counter()
        cold_s = sweep_pass(run, grid, env, cold=True)
        if rounds == 0:
            run.cache_kb_per_point.append(dir_bytes(cache) / 1024 / points)
        run.samples["miss_ms"].append(
            (at + cold_s / 2, cold_s * 1e3 / points))
        cold_rate.append(points / cold_s)
        for index in range(WARM_PASSES):
            if index % 2 == 0:
                warm_speed.probe(run.hygiene)
            at = time.perf_counter()
            warm_s = sweep_pass(run, grid, env, cold=False)
            run.samples["hit_ms"].append(
                (at + warm_s / 2, warm_s * 1e3 / points))
            warm_rate.append(points / warm_s)
        rounds += 1
        round_s = time.perf_counter() - started
    run.speed.probe(run.hygiene, PROBE_EDGE)
    warm_speed.probe(run.hygiene, PROBE_EDGE)
    env = system_env(REPRO_CACHE_DIR=str(
        fresh_dir(f"{run.dir.name}/golden")))
    sweep_pass(run, inputs.GOLDEN_GRID, env, cold=True)
    sweep_pass(run, inputs.GOLDEN_GRID, env, cold=False)
    for request in inputs.golden_requests()[12:]:
        p = request["point"]
        budget_grid = {"executors": [p["executor"]],
                       "models": [p["model"]], "archs": [p["arch"]],
                       "seqs": [p["seq_len"]], "batch": [p["batch"]]}
        sweep_pass(run, budget_grid, env, cold=False,
                   budget=request["budget"])
    run.chains += sum(
        count * len({(p["executor"], p["model"], p["arch"])
                     for p in inputs.grid_points(swept)})
        for count, swept in ((rounds, grid), (1, inputs.GOLDEN_GRID)))
    run.note("cold.points_per_s", percentile(cold_rate, 50),
             "points/s", rounds)
    run.note("warm.points_per_s", percentile(warm_rate, 50),
             "points/s", len(warm_rate))
    run.note("cache_mb", run.cache_kb_per_point[0] * points / 1024,
             "MB", 1)


def sweep_pass(run: Run, grid: Dict[str, List], env: Dict[str, str],
               cold: bool, budget: Optional[int] = None) -> float:
    """One ``repro sweep`` process; returns its wall time (s).  A
    cold pass runs two workers.  A warm pass only reads the cache and
    runs one: a second worker only adds a fork, and with two the
    pass times spread twice as wide on a 2-CPU box."""
    args = ["sweep", "--jobs", "2" if cold else "1",
            *inputs.sweep_args(grid)]
    if budget is not None:
        args += ["--budget", str(budget)]
    if not cold:
        args.insert(1, "--json")
    result, elapsed = run_once(run.argv(args), env, run.hygiene,
                               " ".join(args[:2]))
    grid_points = inputs.grid_points(grid)
    if cold:
        # The cold pass prints a table; its answers are checked
        # through the warm pass that reads what it cached.
        if result.returncode != 0:
            for _ in grid_points:
                run.ledger.fail(run.ledger.attempt(),
                                f"cold sweep failed: {result.stderr[-300:]}")
        return elapsed
    why = "sweep answered without the point"
    try:
        answers = sweep_answers(result.stdout)
    except (OracleError, ValueError) as problem:
        answers = {}
        why = f"warm sweep failed: {problem} {result.stderr[-200:]}"
    for p in grid_points:
        index = run.ledger.attempt()
        key = (inputs.point_key(p), budget)
        if key in answers:
            run.ledger.record(index, key, answers[key], p)
        else:
            run.ledger.fail(index, f"{why}: {key}")
    return elapsed


# ----------------------------------------------------------------------
# References (outside timing)
# ----------------------------------------------------------------------
def wanted(ledger: Ledger) -> List[Dict[str, Any]]:
    return [{"point": ledger.points[key], "budget": key[1]}
            for key in ledger.answers]


def reference_cache(path_name: str) -> Path:
    """Plan cache of one reference path, kept across runs in this
    checkout: a reference answer is computed (and audited) once per
    code version, and every later run's answers are compared with
    those bytes.  Neither the system under test nor the other
    reference path reads it."""
    path = WORK / "reference-cache" / path_name
    path.mkdir(parents=True, exist_ok=True)
    return path


def sweep_reference(run: Run) -> Dict:
    """Reference answers from the sweep engine, auditors on."""
    request = run.dir / "reference-in.json"
    answer = run.dir / "reference-out.json"
    request.write_text(json.dumps(wanted(run.ledger)))
    cache = reference_cache("sweep")
    result, _ = run_once(
        [sys.executable, str(Path(__file__).with_name("reference.py")),
         str(request), str(answer)],
        system_env(REPRO_CACHE_DIR=str(cache), REPRO_VALIDATE="1"),
        run.hygiene, "reference", timeout=170.0)
    if result.returncode != 0:
        raise BenchError(f"reference failed: {result.stderr[-800:]}")
    return {
        (inputs.point_key(p), budget): text
        for p, budget, text in json.loads(answer.read_text())
    }


def served_reference(run: Run) -> Dict:
    """Reference answers from a served replica (two workers),
    auditors on."""
    replica, _, _ = launch_replica(
        run, "reference", ["--jobs", "2", "--lru", "0"],
        env=system_env(REPRO_VALIDATE="1"),
        cache=reference_cache("served"))
    documents = [
        (0.0, dict(v=1, op="plan", id=f"ref-{index}", **entry))
        for index, entry in enumerate(wanted(run.ledger))
    ]
    try:
        outcomes = run_open_loop(
            documents, lambda document: post(replica.port, document))
    finally:
        replica.stop(run.hygiene, "reference")
    reference = {}
    for outcome in outcomes:
        document = documents[outcome.index][1]
        if outcome.status != 200:
            continue
        try:
            key, answer = plan_answer(outcome.body, document["point"])
        except OracleError:
            continue
        reference[key] = answer
    return reference


class Workload(NamedTuple):
    run: Callable[[Run], None]
    reference: Callable[[Run], Dict]
    #: Probe width: how many CPUs the timed work keeps busy.
    width: int


WORKLOADS = {
    "cli-plan": Workload(run_cli_plan, sweep_reference, 1),
    "serve-zipf": Workload(run_serve_zipf, sweep_reference, 1),
    "sweep-grid": Workload(run_sweep_grid, served_reference, 2),
}
