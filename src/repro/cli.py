"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compare``
    Run every executor on one workload and print speedups,
    utilization and energy.
``compile``
    Compile a workload with TransFusion and print the plan (TileSeek
    tiling, per-layer DPipe schedules, residency).
``inspect``
    Render the DPipe pipeline window of one sub-layer as an ASCII
    Gantt chart.
``stack``
    Price an encoder/decoder stack under the main executors.
``decode``
    Per-step autoregressive-decode cost across context lengths.
``figures``
    Regenerate one of the paper's figures as a table.
``sweep``
    Price a grid of (executor, model, sequence, architecture) points
    through the parallel sweep engine and its persistent cache.
``validate``
    Audit one grid point (served from the plan cache when possible)
    with the schedule / tiling / conservation / oracle auditors and
    optionally write the structured audit report as JSON.
``fleet``
    Run K supervised ``serve`` replicas over one shared plan cache:
    health probes, crash/wedge detection, seeded-backoff restarts on
    sticky ports.
``plan``
    Price one grid point through the serving protocol -- locally,
    against a running server with ``--remote host:port``, or against
    a replica fleet with ``--fleet host:port,...`` (consistent-hash
    routing with typed failover retries).  With
    ``--json`` the canonical response body is printed verbatim, so
    local, remote and served answers are byte-comparable.
``serve``
    Run the planning service: stdlib-asyncio HTTP (``POST /v1``,
    ``GET /stats``) or newline-delimited-JSON stdio (``--stdio``),
    multiplexing requests onto a persistent worker pool behind a
    coalescing code-salt-keyed LRU.
``learn``
    Fit (``learn fit``) or evaluate (``learn eval``) the learned
    warm-start predictor: mine the plan cache and sweep journals into
    a deterministic corpus, persist the kNN model into the plan
    cache, and measure search units saved on a held-out grid.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.arch.pe import PEArrayKind
from repro.arch.spec import named_architecture
from repro.core.framework import DEFAULT_EXECUTORS, compare_executors
from repro.metrics.tables import format_table
from repro.model.config import MODEL_ZOO, named_model
from repro.model.workload import Workload


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}"
        )
    return number


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", default="llama3", choices=sorted(MODEL_ZOO),
        help="model shape preset",
    )
    parser.add_argument(
        "--arch", default="cloud",
        choices=("cloud", "edge", "edge32", "edge64"),
        help="architecture preset (Table 3)",
    )
    parser.add_argument("--seq", type=int, default=65536,
                        help="sequence length P")
    parser.add_argument("--batch", type=int, default=64,
                        help="batch size B")
    parser.add_argument("--causal", action="store_true",
                        help="causally masked self-attention")


def _workload_from(args: argparse.Namespace) -> Workload:
    return Workload(
        named_model(args.model),
        seq_len=args.seq,
        batch=args.batch,
        causal=args.causal,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    """Run every executor on one workload and print a comparison."""
    arch = named_architecture(args.arch)
    workload = _workload_from(args)
    reports = compare_executors(workload, arch,
                                executors=DEFAULT_EXECUTORS)
    base = reports["unfused"].latency_seconds(arch)
    rows = []
    for name, report in reports.items():
        util = report.utilization(arch)
        rows.append([
            name,
            report.latency_seconds(arch),
            base / report.latency_seconds(arch),
            util[PEArrayKind.ARRAY_2D],
            util[PEArrayKind.ARRAY_1D],
            report.energy(arch).total_pj / 1e12,
        ])
    print(format_table(
        ["executor", "latency (s)", "speedup", "2D util", "1D util",
         "energy (J)"],
        rows,
        title=f"{workload.describe()} on {arch.name}, per layer",
    ))
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Compile one workload with TransFusion and print the plan."""
    from repro.core.framework import TransFusion

    arch = named_architecture(args.arch)
    workload = _workload_from(args)
    plan = TransFusion(arch).compile(workload)
    print(f"workload: {plan.workload} on {plan.architecture}")
    print(f"tiling:   {plan.tiling.config}")
    assessment = plan.tiling.assessment
    print(
        f"          kv passes {assessment.kv_passes}, weight passes "
        f"{assessment.weight_passes}, buffer "
        f"{assessment.buffer_words_required:.3e} / "
        f"{arch.buffer_words:.3e} words"
    )
    for layer in plan.layers:
        state = "pipelined" if layer.pipelined else "sequential"
        print(
            f"  {layer.layer:10s} {state:10s}"
            f" epochs={layer.plan.n_epochs:>11,d}"
            f" total={layer.plan.total_seconds:.4e}s"
        )
    summary = plan.summary(arch)
    print(
        f"per-layer latency {summary['latency_s']:.4e}s, energy "
        f"{summary['energy_pj'] / 1e12:.3f} J, DRAM "
        f"{summary['dram_words']:.3e} words"
    )
    if args.out:
        from repro.core.serialize import save_plan

        path = save_plan(plan, arch, args.out)
        print(f"plan written to {path}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Render one sub-layer's DPipe schedule as an ASCII Gantt."""
    from repro.dpipe.latency import build_latency_table
    from repro.dpipe.pipeline import ROOT
    from repro.dpipe.planner import plan_cascade, plan_window_schedule
    from repro.dpipe.visualize import render_gantt, schedule_timeline
    from repro.core.executor import TransFusionExecutor
    from repro.graph.dag import ComputationDAG

    arch = named_architecture(args.arch)
    workload = _workload_from(args)
    executor = TransFusionExecutor()
    cascade = executor.cascades(
        workload.model, masked=workload.causal
    )[args.layer]
    tile = executor.inner_tile(workload, args.layer, arch)
    n_epochs = executor.epoch_count(workload, args.layer, tile)
    options = executor.dpipe_options
    plan = plan_cascade(
        cascade, args.layer, tile, arch, n_epochs, options
    )
    table = build_latency_table(cascade, args.layer, tile, arch)
    print(
        f"{args.layer} on {arch.name}: {n_epochs:,} epochs, "
        f"steady-state period {plan.epoch_seconds:.3e}s, "
        f"pipelined={plan.pipelined}"
    )
    # Re-derive the window through the planner's own search entry so
    # the rendered Gantt always matches the plan (same fused search,
    # same options -- previously this re-searched with a hardcoded
    # max_orders and could drift from the planner).
    window = plan_window_schedule(
        cascade, args.layer, tile, arch, plan, options
    )
    if window is not None:
        timeline = schedule_timeline(
            window.schedule, table, zero_latency={ROOT}
        )
        print(render_gantt(timeline))
    else:
        from repro.dpipe.scheduler import dp_schedule

        dag = ComputationDAG.from_cascade(cascade)
        result = dp_schedule(
            dag.topological_order(), dag.pred_map(), table
        )
        print(render_gantt(schedule_timeline(result, table)))
    return 0


def cmd_stack(args: argparse.Namespace) -> int:
    """Price an encoder/decoder stack under the main executors."""
    from repro.core.stack import StackConfig, estimate_stack

    arch = named_architecture(args.arch)
    stack = StackConfig(
        named_model(args.model),
        encoder_layers=args.encoder_layers,
        decoder_layers=args.decoder_layers,
        src_len=args.src or None,
        tgt_len=args.tgt or None,
        batch=args.batch,
    )
    rows = []
    for executor in ("unfused", "fusemax", "transfusion"):
        estimate = estimate_stack(stack, arch, executor)
        blocks = estimate.block_latencies(arch)
        rows.append(
            [executor]
            + [blocks.get(label, 0.0)
               for label in ("encoder", "decoder.self",
                             "decoder.cross")]
            + [estimate.latency_seconds(arch),
               estimate.energy_pj(arch) / 1e12]
        )
    print(format_table(
        ["executor", "encoder (s)", "dec.self (s)",
         "dec.cross (s)", "total (s)", "energy (J)"],
        rows,
        title=(
            f"{args.model} stack ({args.encoder_layers} enc + "
            f"{args.decoder_layers} dec) on {arch.name}"
        ),
    ))
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    """Print per-step decode latency across context lengths."""
    from repro.experiments.decode import decode_sweep

    contexts = tuple(args.contexts)
    data = decode_sweep(
        model=args.model,
        contexts=contexts,
        arch_name=args.arch,
        batch=args.batch,
    )
    executors = ("unfused", "fusemax", "transfusion")
    rows = [
        [context] + [data[context][name] * 1e3
                     for name in executors]
        for context in contexts
    ]
    print(format_table(
        ["context"] + [f"{n} (ms/step)" for n in executors],
        rows,
        title=(
            f"Per-step decode latency, {args.model} B={args.batch} "
            f"on {args.arch} (per layer)"
        ),
    ))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Price a grid of points through the sweep engine."""
    from repro.runner import (
        GridPoint,
        default_cache,
        default_journal_path,
        run_grid,
    )

    points = [
        GridPoint(
            executor=executor, model=model, seq_len=seq,
            arch=arch, batch=args.batch, causal=args.causal,
        )
        for model in args.models
        for arch in args.archs
        for executor in args.executors
        for seq in args.seqs
    ]
    if args.json:
        # Canonical serving-protocol rendering: the same builders a
        # running server uses, so this output is byte-comparable to
        # a served sweep response (the differential tests rely on
        # it).  Runs serially in-process; the fault-tolerance knobs
        # (--timeout/--retries/--journal/--resume) do not apply.
        from repro.runner.faults import SweepError
        from repro.serve.protocol import (
            ServeRequest,
            canonical_body,
            effective_budget,
            error_response,
            execute_request,
        )

        request = ServeRequest(
            op="sweep",
            points=tuple(points),
            budget=effective_budget(args.budget, args.deadline),
            no_fallback=args.no_fallback,
            warm_start=args.warm_start,
        )
        extra_env = {"REPRO_LEARN": "1"} if args.learn else None
        try:
            document = execute_request(request, extra_env=extra_env)
        except (SweepError, RuntimeError) as error:
            document = error_response(error, "sweep")
        print(canonical_body(document))
        return 0 if document.get("ok") else 1
    journal = args.journal or None
    if journal is None and args.resume:
        # --resume without --journal: the canonical per-grid journal
        # under the cache root, so a rerun of the same command line
        # finds the previous run's checkpoints automatically.
        journal = default_journal_path(points, args.warm_start)
    if journal is not None and args.no_cache:
        print(
            "warning: --no-cache disables the persistent layer; the "
            "journal cannot checkpoint or resume without it",
            file=sys.stderr,
        )
        journal = None
    reports = run_grid(
        points,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        warm_start=args.warm_start,
        timeout=args.timeout,
        retries=args.retries,
        strict=not args.keep_going,
        journal=journal,
        resume=args.resume,
        budget=args.budget,
        no_fallback=args.no_fallback,
        learn=True if args.learn else None,
    )
    rows = []
    for point, report in reports.items():
        arch = named_architecture(point.arch)
        util = report.utilization(arch)
        rows.append([
            point.executor, point.model, point.seq_len, point.arch,
            report.latency_seconds(arch),
            util[PEArrayKind.ARRAY_2D],
            report.energy(arch).total_pj / 1e12,
            report.dram_words(),
            # Search provenance: blank for a complete search, else
            # "budget_exhausted" / "fallback:<rung>".
            "" if report.provenance == "complete"
            else report.provenance,
        ])
    counts = reports.counts()
    summary = ", ".join(
        f"{status}={count}" for status, count in sorted(counts.items())
    )
    print(format_table(
        ["executor", "model", "seq", "arch", "latency (s)",
         "2D util", "energy (J)", "DRAM words", "prov"],
        rows,
        title=(
            f"sweep over {len(reports.points)} points "
            f"(B={args.batch}; {summary})"
        ),
    ))
    for point in reports.infeasible_points():
        verdict = reports.infeasible[point]
        print(
            f"INFEASIBLE {point.executor}/{point.model}/"
            f"seq={point.seq_len}/{point.arch}: {verdict}"
        )
    for point in reports.failed_points():
        failure = reports.failures[point]
        print(
            f"{reports.statuses[point].upper()} {point.executor}/"
            f"{point.model}/seq={point.seq_len}/{point.arch}: "
            f"{failure}",
            file=sys.stderr,
        )
    cache = None if args.no_cache else default_cache()
    if cache is not None:
        print(
            f"cache: {cache.root} "
            f"({cache.entry_count()} entries on disk)"
        )
    if journal is not None:
        print(f"journal: {journal}")
    return 0 if reports.ok else 1


def cmd_learn_fit(args: argparse.Namespace) -> int:
    """Mine the corpus and persist the kNN warm-start model."""
    from repro.learn.corpus import corpus_hash, extract_corpus
    from repro.learn.predictor import KNNPredictor, save_model
    from repro.runner.cache import default_cache

    cache = default_cache()
    corpus = extract_corpus(cache=cache, journals=args.journal)
    if args.corpus:
        with open(args.corpus, "w", encoding="utf-8") as handle:
            handle.write(corpus.to_json())
            handle.write("\n")
    skipped = sum(corpus.skipped.values())
    if not corpus.records:
        print(
            f"learn fit: empty corpus ({skipped} entries skipped); "
            "run a sweep first so the plan cache holds tilings",
            file=sys.stderr,
        )
        return 1
    predictor = KNNPredictor.fit(corpus, k=args.k)
    path = save_model(predictor, cache=cache)
    if args.json:
        print(json.dumps({
            "corpus": corpus_hash(corpus),
            "k": predictor.k,
            "model": str(path),
            "records": len(corpus.records),
            "skipped": dict(corpus.skipped),
        }, indent=2, sort_keys=True))
        return 0
    print(
        f"fitted k={predictor.k} kNN on {len(corpus.records)} "
        f"records ({skipped} skipped)"
    )
    if args.corpus:
        print(f"corpus: {args.corpus}")
    print(f"model: {path}")
    return 0


def cmd_learn_eval(args: argparse.Namespace) -> int:
    """Score the fitted model on a held-out grid; gate the ratio."""
    from repro.learn.evaluate import evaluate_points
    from repro.learn.predictor import load_model
    from repro.model.workload import Workload

    predictor = load_model()
    if predictor is None:
        print(
            "learn eval: no fitted model for this code version; "
            "run `repro learn fit` first",
            file=sys.stderr,
        )
        return 1
    pairs = [
        (
            Workload(
                named_model(model), seq_len=seq, batch=args.batch,
                causal=args.causal,
            ),
            named_architecture(arch),
        )
        for model in args.models
        for arch in args.archs
        for seq in args.seqs
    ]
    report = evaluate_points(
        predictor, pairs,
        iterations=args.iterations, seed=args.seed,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rows = [
            [
                row["workload"], row["arch"],
                row["baseline_units"], row["learned_units"],
            ]
            for row in report["points"]
        ]
        print(format_table(
            ["workload", "arch", "baseline units", "learned units"],
            rows,
            title=(
                f"learned warm-start eval "
                f"(ratio {report['ratio']:.3f})"
            ),
        ))
    if args.gate is not None and report["ratio"] > args.gate:
        print(
            f"learn eval: ratio {report['ratio']:.3f} exceeds gate "
            f"{args.gate:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Audit one grid point (cached plan or fresh computation)."""
    from repro.core.serialize import save_audit_report
    from repro.runner import GridPoint
    from repro.validate.runner import validate_point

    point = GridPoint(
        executor=args.executor, model=args.model, seq_len=args.seq,
        arch=args.arch, batch=args.batch, causal=args.causal,
    )
    audit, report = validate_point(point)
    arch = named_architecture(args.arch)
    rows = [
        [auditor, passed, total]
        for auditor, (passed, total) in sorted(
            audit.counts().items()
        )
    ]
    print(format_table(
        ["auditor", "passed", "checks"],
        rows,
        title=f"audit of {audit.subject}",
    ))
    print(
        f"report: latency {report.latency_seconds(arch):.4e}s, "
        f"DRAM {report.dram_words():.3e} words, energy "
        f"{report.energy(arch).total_pj / 1e12:.3f} J"
    )
    for check in audit.failures():
        print(f"FAIL {check.auditor}.{check.name}: {check.detail}")
    if args.out:
        path = save_audit_report(audit, args.out)
        print(f"audit report written to {path}")
    if audit.ok:
        print(f"OK: all {len(audit.checks)} checks passed")
        return 0
    return 1


def _plan_request(args: argparse.Namespace):
    """Build the admission-normalized ServeRequest for ``plan``."""
    from repro.runner import GridPoint
    from repro.serve.protocol import ServeRequest, effective_budget

    point = GridPoint(
        executor=args.executor, model=args.model, seq_len=args.seq,
        arch=args.arch, batch=args.batch, causal=args.causal,
    )
    return ServeRequest(
        op="plan",
        points=(point,),
        budget=effective_budget(args.budget, args.deadline),
        no_fallback=args.no_fallback,
        request_id=args.id or None,
    )


def cmd_plan(args: argparse.Namespace) -> int:
    """Price one point through the serving protocol."""
    from repro.core.serialize import serve_request_to_dict
    from repro.runner.faults import SweepError
    from repro.serve.protocol import (
        canonical_body,
        error_response,
        execute_request,
    )

    request = _plan_request(args)
    if args.fleet:
        from repro.serve.client import fleet_call
        from repro.serve.router import parse_fleet

        try:
            _, body, _ = fleet_call(
                parse_fleet(args.fleet),
                serve_request_to_dict(request),
            )
            document = json.loads(body)
        except SweepError as error:
            document = error_response(
                error, "plan", request.request_id
            )
            body = canonical_body(document)
        if args.json:
            print(body)
        else:
            _print_plan_summary(document)
        return 0 if document.get("ok") else 1
    if args.remote:
        from repro.runner.faults import ReplicaUnreachable
        from repro.serve.client import parse_endpoint, remote_call

        host, port = parse_endpoint(args.remote)
        try:
            _, body = remote_call(
                host, port, serve_request_to_dict(request)
            )
            document = json.loads(body)
        except OSError as error:
            # A dead or wedged server is a typed, printable error,
            # never a traceback -- same envelope the server itself
            # would send.
            document = error_response(
                ReplicaUnreachable(
                    args.remote, 0,
                    f"{type(error).__name__}: {error}",
                ),
                "plan", request.request_id,
            )
            body = canonical_body(document)
        if args.json:
            print(body)
        else:
            _print_plan_summary(document)
        return 0 if document.get("ok") else 1
    try:
        document = execute_request(request)
    except (SweepError, RuntimeError) as error:
        document = error_response(
            error, "plan", request.request_id
        )
    if args.json:
        print(canonical_body(document))
    else:
        _print_plan_summary(document)
    return 0 if document.get("ok") else 1


def _print_plan_summary(document) -> None:
    """Human rendering of one plan response document."""
    status = document.get("status", "error")
    if status == "ok":
        report = document["report"]
        print(
            f"plan ok: provenance={document['provenance']}"
            + (
                f" budget={document['budget']}"
                if "budget" in document else ""
            )
        )
        for key in sorted(report):
            if isinstance(report[key], (int, float, str)):
                print(f"  {key}: {report[key]}")
    elif status == "infeasible":
        print("plan infeasible:")
        diagnosis = document.get("infeasible", {})
        for key in sorted(diagnosis):
            if isinstance(diagnosis[key], (int, float, str)):
                print(f"  {key}: {diagnosis[key]}")
    else:
        error = document.get("error", {})
        # Typed failures carry their evidence field-by-field, not a
        # "message"; render whichever shape arrived.
        detail = error.get("message") or ", ".join(
            f"{key}={error[key]}"
            for key in sorted(error)
            if key != "type"
        )
        print(
            f"plan error: {error.get('type', 'unknown')}"
            + (f": {detail}" if detail else ""),
            file=sys.stderr,
        )


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the planning service (HTTP, or stdio with ``--stdio``)."""
    import asyncio
    import signal

    from repro.runner.cache import ENV_CACHE, ENV_CACHE_DIR
    from repro.runner.parallel import resolve_jobs
    from repro.runner.pool import make_pool
    from repro.serve.app import ServeApp, resolve_lru_entries
    from repro.serve.journal import ServeJournal
    from repro.serve.lru import SaltedLRU
    from repro.serve.transport import serve_http, serve_stdio
    from repro.settings import env_int, raw_value

    env = {}
    if args.no_cache:
        env[ENV_CACHE] = "0"
    elif args.cache_dir:
        env[ENV_CACHE_DIR] = args.cache_dir
    jobs = args.jobs if args.jobs is not None else resolve_jobs()
    pool = make_pool(jobs, env)
    journal = (
        ServeJournal(args.journal) if args.journal else None
    )
    app = ServeApp(
        pool,
        lru=SaltedLRU(resolve_lru_entries(args.lru)),
        journal=journal,
        pressure=args.pressure,
        shed_budget=args.shed_budget,
        timeout=args.timeout,
        queue=args.queue,
    )
    host = args.host or raw_value("REPRO_SERVE_HOST") or "127.0.0.1"
    port = args.port
    if port is None:
        port = env_int("REPRO_SERVE_PORT", "a TCP port", minimum=0)
    if port is None:
        port = 8734
    # Deterministic replica-slow injection: delay *before* binding,
    # so the supervisor's ready-line timeout sees a genuinely slow
    # start (REPRO_FAULTS=replica-slow:...).
    from repro.runner.faults import replica_slow_start_seconds

    slow = replica_slow_start_seconds()
    if slow > 0:
        time.sleep(slow)
    # SIGTERM (what ``kill`` and supervisors send) stops the server
    # the way Ctrl-C does, so ``app.close()`` still reaps the pool's
    # worker processes instead of leaving them orphaned.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        if args.stdio:
            asyncio.run(serve_stdio(app))
        else:
            asyncio.run(
                serve_http(app, host, port, ready=sys.stderr)
            )
    except KeyboardInterrupt:
        pass
    finally:
        app.close()
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run K supervised serve replicas over one shared cache."""
    from repro.runner.faults import SweepError
    from repro.serve.fleet import FleetSupervisor

    try:
        supervisor = FleetSupervisor(
            replicas=args.replicas,
            host=args.host or "127.0.0.1",
            cache_dir=args.cache_dir,
            journal_dir=args.journal_dir,
            jobs=args.jobs,
            probe_interval=args.probe_interval,
            probe_timeout=args.probe_timeout,
            max_restarts=args.max_restarts,
            backoff=args.backoff,
        )
        return supervisor.run(ready=sys.stderr)
    except SweepError as error:
        print(
            f"fleet error: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 1


def _open_cache(args: argparse.Namespace):
    """The cache the ``repro cache`` verbs operate on.

    ``--cache-dir`` overrides the environment; otherwise the same
    resolution the sweep runner uses (``REPRO_CACHE`` /
    ``REPRO_CACHE_DIR``).  Returns ``None`` when the cache is
    disabled, which the verbs report as an error.
    """
    from repro.runner.cache import PlanCache, default_cache

    if args.cache_dir:
        return PlanCache(args.cache_dir)
    return default_cache()


def cmd_cache_stats(args: argparse.Namespace) -> int:
    """Report persistent-cache usage, budget and brownout state."""
    cache = _open_cache(args)
    if cache is None:
        print("plan cache disabled (REPRO_CACHE=0)",
              file=sys.stderr)
        return 1
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, sort_keys=True))
        return 0
    cap = stats["max_bytes"]
    print(f"root:        {stats['root']}")
    print(f"entries:     {stats['entries']}")
    print(f"bytes:       {stats['bytes']}")
    print(f"max_bytes:   {cap if cap is not None else 'unbounded'}")
    print(f"quarantined: {stats['quarantined']}")
    print(f"brownout:    {'yes' if stats['brownout'] else 'no'}")
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    """Evict oldest entries until the cache fits its byte budget."""
    from repro.runner.cache import resolve_cache_max_bytes

    cache = _open_cache(args)
    if cache is None:
        print("plan cache disabled (REPRO_CACHE=0)",
              file=sys.stderr)
        return 1
    max_bytes = (
        args.max_bytes if args.max_bytes is not None
        else resolve_cache_max_bytes()
    )
    if max_bytes is None:
        print(
            "no byte budget: pass --max-bytes or set "
            "REPRO_CACHE_MAX_BYTES", file=sys.stderr,
        )
        return 1
    report = cache.gc(max_bytes)
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(
        f"removed {report['removed']} entries "
        f"({report['freed_bytes']} bytes); "
        f"{report['bytes']} bytes remain under a "
        f"{report['max_bytes']}-byte budget"
    )
    return 0


def cmd_cache_scrub(args: argparse.Namespace) -> int:
    """Read-validate every entry; quarantine the corrupt ones."""
    cache = _open_cache(args)
    if cache is None:
        print("plan cache disabled (REPRO_CACHE=0)",
              file=sys.stderr)
        return 1
    report = cache.scrub()
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(
        f"checked {report['checked']} entries, "
        f"quarantined {report['quarantined']}"
    )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Re-run the benchmark harness for one paper figure."""
    import subprocess

    bench = {
        "fig8": "bench_fig08_speedup.py",
        "fig9": "bench_fig09_pe_size.py",
        "fig10": "bench_fig10_utilization.py",
        "fig11": "bench_fig11_contribution.py",
        "fig12": "bench_fig12_energy.py",
        "fig13": "bench_fig13_breakdown.py",
        "table2": "bench_table2_buffer.py",
    }[args.figure]
    return subprocess.call([
        sys.executable, "-m", "pytest", f"benchmarks/{bench}",
        "--benchmark-only", "-q",
    ])


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "TransFusion reproduction: end-to-end Transformer "
            "acceleration via graph fusion and pipelining"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="run all executors on one workload"
    )
    _add_workload_args(compare)
    compare.set_defaults(fn=cmd_compare)

    compile_cmd = sub.add_parser(
        "compile", help="compile a workload with TransFusion"
    )
    _add_workload_args(compile_cmd)
    compile_cmd.add_argument(
        "--out", default="",
        help="write the compiled plan as JSON to this path",
    )
    compile_cmd.set_defaults(fn=cmd_compile)

    inspect = sub.add_parser(
        "inspect", help="render a sub-layer's DPipe schedule"
    )
    _add_workload_args(inspect)
    inspect.add_argument(
        "--layer", default="mha",
        choices=("qkv", "mha", "layernorm", "ffn"),
    )
    inspect.set_defaults(fn=cmd_inspect)

    stack = sub.add_parser(
        "stack", help="price an encoder/decoder stack"
    )
    stack.add_argument(
        "--model", default="t5", choices=sorted(MODEL_ZOO)
    )
    stack.add_argument("--arch", default="cloud",
                       choices=("cloud", "edge", "edge32",
                                "edge64"))
    stack.add_argument("--encoder-layers", type=int, default=6)
    stack.add_argument("--decoder-layers", type=int, default=6)
    stack.add_argument("--src", type=int, default=16384,
                       help="encoder (source) sequence length")
    stack.add_argument("--tgt", type=int, default=4096,
                       help="decoder (target) sequence length")
    stack.add_argument("--batch", type=int, default=16)
    stack.set_defaults(fn=cmd_stack)

    decode = sub.add_parser(
        "decode", help="per-step decode cost vs context length"
    )
    decode.add_argument(
        "--model", default="llama3", choices=sorted(MODEL_ZOO)
    )
    decode.add_argument("--arch", default="cloud",
                        choices=("cloud", "edge", "edge32",
                                 "edge64"))
    decode.add_argument("--batch", type=int, default=64)
    decode.add_argument(
        "--contexts", type=int, nargs="+",
        default=[1024, 8192, 65536],
    )
    decode.set_defaults(fn=cmd_decode)

    sweep = sub.add_parser(
        "sweep",
        help="price a grid of points via the parallel sweep engine",
    )
    sweep.add_argument(
        "--models", nargs="+", default=["llama3"],
        choices=sorted(MODEL_ZOO), help="model shape presets",
    )
    sweep.add_argument(
        "--seqs", type=int, nargs="+", default=[1024, 4096, 16384],
        help="sequence lengths P",
    )
    sweep.add_argument(
        "--archs", nargs="+", default=["cloud"],
        choices=("cloud", "edge", "edge32", "edge64"),
        help="architecture presets (Table 3)",
    )
    sweep.add_argument(
        "--executors", nargs="+",
        default=["unfused", "fusemax", "transfusion"],
        help="executor registry names",
    )
    sweep.add_argument("--batch", type=int, default=64,
                       help="batch size B")
    sweep.add_argument("--causal", action="store_true",
                       help="causally masked self-attention")
    sweep.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes (default: REPRO_JOBS, else 1)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache for this sweep",
    )
    sweep.add_argument(
        "--warm-start", action="store_true",
        help=(
            "warm-start each TileSeek search from the neighboring "
            "sequence length's best assignment"
        ),
    )
    sweep.add_argument(
        "--learn", action="store_true",
        help=(
            "consult the learned warm-start predictor (the persisted "
            "`repro learn fit` model) on cold searches; equivalent "
            "to REPRO_LEARN=1 for this sweep"
        ),
    )
    sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-chain timeout in seconds (default: REPRO_TIMEOUT, "
            "else unlimited; enforced with --jobs > 1)"
        ),
    )
    sweep.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help=(
            "extra attempts per failed chain with deterministic "
            "backoff (default: REPRO_RETRIES, else 0)"
        ),
    )
    sweep.add_argument(
        "--budget", type=_positive_int, default=None, metavar="N",
        help=(
            "deterministic search-unit budget per point (MCTS "
            "iterations + DPipe nodes; default: REPRO_BUDGET, else "
            "unlimited) -- same budget, same results on any host "
            "at any --jobs"
        ),
    )
    sweep.add_argument(
        "--no-fallback", action="store_true",
        help=(
            "fail a point whose search exhausts its budget instead "
            "of degrading to the fallback ladder"
        ),
    )
    sweep.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "advisory deadline mapped once to a deterministic "
            "search-unit budget (tighter of this and --budget wins)"
        ),
    )
    sweep.add_argument(
        "--json", action="store_true",
        help=(
            "print the canonical serving-protocol sweep response "
            "(byte-comparable to a served response; runs serially "
            "in-process)"
        ),
    )
    sweep.add_argument(
        "--keep-going", action="store_true",
        help=(
            "degrade gracefully: report per-point failures instead "
            "of aborting on the first one (exit 1 if any failed)"
        ),
    )
    sweep.add_argument(
        "--journal", default="", metavar="PATH",
        help=(
            "checkpoint each completed point's cache key to this "
            "file as chains finish"
        ),
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help=(
            "reload the journal (default: the canonical per-grid "
            "path under the cache root) and skip points already "
            "completed by a previous, possibly killed, run"
        ),
    )
    sweep.set_defaults(fn=cmd_sweep)

    validate = sub.add_parser(
        "validate",
        help="audit one grid point with every invariant auditor",
    )
    _add_workload_args(validate)
    validate.add_argument(
        "--executor", default="transfusion",
        help="executor registry name",
    )
    validate.add_argument(
        "--out", default="",
        help="write the audit report as JSON to this path",
    )
    validate.set_defaults(fn=cmd_validate)

    plan = sub.add_parser(
        "plan",
        help=(
            "price one point through the serving protocol "
            "(locally or against a running server)"
        ),
    )
    _add_workload_args(plan)
    plan.add_argument(
        "--executor", default="transfusion",
        help="executor registry name",
    )
    plan.add_argument(
        "--budget", type=_positive_int, default=None, metavar="N",
        help="deterministic search-unit budget",
    )
    plan.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "advisory deadline mapped once to a deterministic "
            "search-unit budget (tighter of this and --budget wins)"
        ),
    )
    plan.add_argument(
        "--no-fallback", action="store_true",
        help="error instead of degrading on budget exhaustion",
    )
    plan.add_argument(
        "--json", action="store_true",
        help="print the canonical response body verbatim",
    )
    plan.add_argument(
        "--remote", default="", metavar="HOST:PORT",
        help="send the request to a running `repro serve` instead",
    )
    plan.add_argument(
        "--fleet", default="", metavar="HOST:PORT,HOST:PORT",
        help=(
            "send the request to a replica fleet with "
            "consistent-hash failover (see `repro fleet`)"
        ),
    )
    plan.add_argument(
        "--id", default="", metavar="ID",
        help="correlation id echoed in the response envelope",
    )
    plan.set_defaults(fn=cmd_plan)

    serve = sub.add_parser(
        "serve",
        help="run the planning service (HTTP, or --stdio NDJSON)",
    )
    serve.add_argument(
        "--host", default="",
        help="bind host (default: REPRO_SERVE_HOST, else 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help=(
            "bind port; 0 picks an ephemeral port "
            "(default: REPRO_SERVE_PORT, else 8734)"
        ),
    )
    serve.add_argument(
        "--stdio", action="store_true",
        help=(
            "serve newline-delimited JSON on stdin/stdout instead "
            "of HTTP (deterministic harness mode)"
        ),
    )
    serve.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes (default: REPRO_JOBS, else 1); 0 "
            "executes in-process on a single worker thread"
        ),
    )
    serve.add_argument(
        "--lru", type=int, default=None, metavar="N",
        help=(
            "response LRU capacity in entries "
            "(default: REPRO_SERVE_LRU, else 256; 0 disables)"
        ),
    )
    serve.add_argument(
        "--pressure", type=int, default=None, metavar="N",
        help=(
            "in-flight searches at which load shedding starts "
            "(default: REPRO_SERVE_PRESSURE, else 8; 0 disables)"
        ),
    )
    serve.add_argument(
        "--shed-budget", type=_positive_int, default=None,
        metavar="N",
        help=(
            "degraded search-unit budget applied while shedding "
            "(default: REPRO_SERVE_SHED_BUDGET, else 4096)"
        ),
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "wall-clock bound per worker-pool request "
            "(default: REPRO_SERVE_TIMEOUT, else unlimited)"
        ),
    )
    serve.add_argument(
        "--queue", type=int, default=None, metavar="N",
        help=(
            "in-flight searches at which new searches are rejected "
            "with a typed ServerOverloaded body "
            "(default: REPRO_SERVE_QUEUE, else unbounded; 0 "
            "disables)"
        ),
    )
    serve.add_argument(
        "--journal", default="", metavar="PATH",
        help="append one JSONL line per response to this file",
    )
    serve.add_argument(
        "--cache-dir", default="", metavar="PATH",
        help="persistent plan-cache root for the worker pool",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent plan cache in workers",
    )
    serve.set_defaults(fn=cmd_serve)

    fleet = sub.add_parser(
        "fleet",
        help=(
            "run K supervised serve replicas over one shared "
            "cache with crash/wedge restarts"
        ),
    )
    fleet.add_argument(
        "--replicas", type=int, default=None, metavar="K",
        help=(
            "replica count "
            "(default: REPRO_FLEET_REPLICAS, else 3)"
        ),
    )
    fleet.add_argument(
        "--host", default="",
        help="bind host for every replica (default: 127.0.0.1)",
    )
    fleet.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes per replica (0 = in-process)",
    )
    fleet.add_argument(
        "--cache-dir", default="", metavar="PATH",
        help="shared persistent plan-cache root for all replicas",
    )
    fleet.add_argument(
        "--journal-dir", default="", metavar="PATH",
        help=(
            "directory for the supervisor journal plus "
            "per-replica serve journals and stderr logs"
        ),
    )
    fleet.add_argument(
        "--probe-interval", type=float, default=None,
        metavar="SECONDS",
        help=(
            "seconds between health probes "
            "(default: REPRO_FLEET_PROBE_INTERVAL, else 1)"
        ),
    )
    fleet.add_argument(
        "--probe-timeout", type=float, default=None,
        metavar="SECONDS",
        help=(
            "per-probe deadline; an unanswered probe counts "
            "toward wedge detection "
            "(default: REPRO_FLEET_PROBE_TIMEOUT, else 5)"
        ),
    )
    fleet.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help=(
            "restarts per replica before it is abandoned "
            "(default: REPRO_FLEET_MAX_RESTARTS, else 5)"
        ),
    )
    fleet.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help=(
            "base for the seeded exponential restart backoff "
            "(default: REPRO_FLEET_BACKOFF, else 0.05)"
        ),
    )
    fleet.set_defaults(fn=cmd_fleet)

    learn = sub.add_parser(
        "learn",
        help=(
            "fit or evaluate the learned warm-start predictor "
            "mined from the sweep corpus"
        ),
    )
    learn_sub = learn.add_subparsers(
        dest="learn_command", required=True
    )
    fit = learn_sub.add_parser(
        "fit",
        help=(
            "mine the plan cache (and optional sweep journals) "
            "into a corpus and persist the kNN model"
        ),
    )
    fit.add_argument(
        "--journal", nargs="*", default=[], metavar="PATH",
        help="sweep journals to mine alongside the plan cache",
    )
    fit.add_argument(
        "--corpus", default="", metavar="PATH",
        help="also write the canonical corpus JSON to this path",
    )
    fit.add_argument(
        "--k", type=_positive_int, default=None, metavar="N",
        help="neighbors per prediction (default 3)",
    )
    fit.add_argument(
        "--json", action="store_true",
        help="print a machine-readable fit summary",
    )
    fit.set_defaults(fn=cmd_learn_fit)
    ev = learn_sub.add_parser(
        "eval",
        help=(
            "measure search units to near-optimum on a held-out "
            "grid, with vs. without the fitted model"
        ),
    )
    ev.add_argument(
        "--models", nargs="+", default=["t5"],
        choices=sorted(MODEL_ZOO), help="model shape presets",
    )
    ev.add_argument(
        "--archs", nargs="+", default=["cloud"],
        choices=("cloud", "edge", "edge32", "edge64"),
        help="architecture presets (Table 3)",
    )
    ev.add_argument(
        "--seqs", type=int, nargs="+", default=[256, 1024],
        help="held-out sequence lengths P",
    )
    ev.add_argument("--batch", type=int, default=4,
                    help="batch size B")
    ev.add_argument("--causal", action="store_true",
                    help="causally masked self-attention")
    ev.add_argument(
        "--iterations", type=_positive_int, default=400,
        help="full search size (optimum reference and probe cap)",
    )
    ev.add_argument(
        "--seed", type=int, default=0, help="search seed",
    )
    ev.add_argument(
        "--gate", type=float, default=None, metavar="RATIO",
        help=(
            "exit 1 unless learned/baseline unit ratio <= RATIO "
            "(the CI perf gate uses 0.5)"
        ),
    )
    ev.add_argument(
        "--json", action="store_true",
        help="print the full evaluation report as JSON",
    )
    ev.set_defaults(fn=cmd_learn_eval)

    cache = sub.add_parser(
        "cache",
        help=(
            "inspect and maintain the persistent plan cache "
            "(stats, byte-budget gc, corruption scrub)"
        ),
    )
    cache_sub = cache.add_subparsers(
        dest="cache_command", required=True
    )
    cache_stats = cache_sub.add_parser(
        "stats",
        help="report entry/byte usage, budget and brownout state",
    )
    cache_gc = cache_sub.add_parser(
        "gc",
        help=(
            "evict oldest-mtime entries until the cache fits its "
            "byte budget"
        ),
    )
    cache_gc.add_argument(
        "--max-bytes", type=_positive_int, default=None,
        metavar="N",
        help=(
            "byte budget to enforce "
            "(default: REPRO_CACHE_MAX_BYTES)"
        ),
    )
    cache_scrub = cache_sub.add_parser(
        "scrub",
        help=(
            "read-validate every entry, quarantining corrupt ones"
        ),
    )
    for verb, fn in (
        (cache_stats, cmd_cache_stats),
        (cache_gc, cmd_cache_gc),
        (cache_scrub, cmd_cache_scrub),
    ):
        verb.add_argument(
            "--cache-dir", default="", metavar="PATH",
            help=(
                "cache root to operate on "
                "(default: REPRO_CACHE_DIR resolution)"
            ),
        )
        verb.add_argument(
            "--json", action="store_true",
            help="print a machine-readable report",
        )
        verb.set_defaults(fn=fn)

    figures = sub.add_parser(
        "figures", help="regenerate a paper figure's table"
    )
    figures.add_argument(
        "figure",
        choices=("fig8", "fig9", "fig10", "fig11", "fig12",
                 "fig13", "table2"),
    )
    figures.set_defaults(fn=cmd_figures)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
