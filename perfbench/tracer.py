"""In-process span recorder for traced runs.

``launch.py`` imports this module into a system process, calls
:func:`install` to wrap the program's public layer functions, and
then runs ``repro.cli.main``.  Nothing under ``src/`` changes: each
wrapper records a span around the original call and delegates.

A span is ``name, start, end, id, parent, request id`` plus optional
counters.  Spans stay in memory and each process writes its own
``spans-<pid>.json`` when it exits; forked pool and sweep workers
inherit the wrappers and write their own file from a multiprocessing
finalizer (they leave through ``os._exit``, which skips ``atexit``).
Jobs sent to the serving pool are wrapped so that the worker's spans
hang under the submitting span and the queueing delay is recorded as
``runner.pool.wait``.

Clocks are ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), which
is shared by every process on the host, so parent and child spans in
different processes line up.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(span id, request id)`` of the innermost open span.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_current", default=(None, None)
)
_SPANS: List[Dict[str, Any]] = []
_IDS = itertools.count(1)
_STATE: Dict[str, Any] = {"dir": None, "argv": []}


def _span_id() -> str:
    return f"{os.getpid()}.{next(_IDS)}"


def _record(name: str, start: int, end: int, span_id: str,
            parent: Optional[str], rid: Optional[str],
            args: Optional[Dict[str, Any]] = None) -> None:
    _SPANS.append({
        "name": name, "start": start, "end": end, "id": span_id,
        "parent": parent, "rid": rid, "tid": threading.get_ident(),
        "args": args or {},
    })


class Span:
    """Context manager recording one span (used by the launcher)."""

    def __init__(self, name: str, rid: Optional[str] = None) -> None:
        self.name = name
        self.rid = rid
        self.args: Dict[str, Any] = {}

    def __enter__(self) -> "Span":
        parent, rid = _CURRENT.get()
        self.parent = parent
        self.rid = self.rid or rid
        self.id = _span_id()
        self.token = _CURRENT.set((self.id, self.rid))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter_ns()
        _CURRENT.reset(self.token)
        _record(self.name, self.start, end, self.id, self.parent,
                self.rid, self.args)


Hook = Optional[Callable[..., Any]]


def wrap(fn: Callable, name: Any, enter: Hook = None,
         annotate: Hook = None, rid_of: Hook = None) -> Callable:
    """A recording wrapper around ``fn``.

    ``name`` is a string or ``name(args)``; ``enter(args)`` returns
    state handed to ``annotate(args, result, state)``, which returns
    the span's counters; ``rid_of(args)`` names the request.
    """

    def opened(args: Tuple) -> Tuple[Span, Any]:
        span = Span(name(args) if callable(name) else name,
                    rid_of(args) if rid_of else None)
        state = enter(args) if enter else None
        return span.__enter__(), state

    def closed(span: Span, args: Tuple, result: Any,
               state: Any) -> None:
        if annotate is not None:
            span.args = annotate(args, result, state)
        span.__exit__()

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            span, state = opened(args)
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                closed(span, args, result, state)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span, state = opened(args)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            closed(span, args, result, state)
    return wrapper


class PoolJob:
    """A serving-pool job that records its queueing delay and runs
    under the submitting span (pickled to the worker by reference)."""

    def __init__(self, fn: Callable, parent: Optional[str],
                 rid: Optional[str]) -> None:
        self.fn = fn
        self.parent = parent
        self.rid = rid
        self.submitted = time.perf_counter_ns()

    def __call__(self, *args: Any) -> Any:
        started = time.perf_counter_ns()
        _record("runner.pool.wait", self.submitted, started,
                _span_id(), self.parent, self.rid)
        token = _CURRENT.set((self.parent, self.rid))
        try:
            with Span("runner.pool.job"):
                return self.fn(*args)
        finally:
            _CURRENT.reset(token)


def _submit_wrapper(submit: Callable) -> Callable:
    @functools.wraps(submit)
    def wrapper(self: Any, fn: Callable, *args: Any) -> Any:
        parent, rid = _CURRENT.get()
        return submit(self, PoolJob(fn, parent, rid), *args)
    return wrapper


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``repro.*`` module attribute bound to
    ``original`` (names imported with ``from x import y``)."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(module: Any, attr: str, **options: Any) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, wrap(original, **options))


def _patch_method(cls: type, attr: str, **options: Any) -> None:
    setattr(cls, attr, wrap(vars(cls)[attr], **options))


def _cache_get_args(args: Tuple, result: Any, state: Any) -> Dict:
    return {"kind": args[1], "hit": result is not None}


def _cache_put_args(args: Tuple, result: Any, state: Any) -> Dict:
    try:
        size = Path(result).stat().st_size
    except (OSError, TypeError):
        size = 0
    return {"kind": args[1], "bytes": size}


def _search_args(args: Tuple, result: Any, state: Any) -> Dict:
    stats = getattr(result, "stats", None)
    if stats is None:
        return {}
    return {
        "iterations": stats.iterations,
        "evaluations": stats.evaluations,
        "dead_ends": stats.dead_ends,
    }


def _request_id(args: Tuple) -> Optional[str]:
    document = args[1] if len(args) > 1 else None
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except ValueError:
            return None
    if isinstance(document, dict) and document.get("id") is not None:
        return str(document["id"])
    return None


def install() -> None:
    """Wrap the layer boundaries the benchmark measures."""
    import repro.baselines.base as base
    import repro.core.executor as executor
    import repro.core.serialize as serialize
    import repro.dpipe.planner as planner
    import repro.einsum.builders as builders
    import repro.runner.cache as cache
    import repro.runner.parallel as parallel
    import repro.runner.pool as pool
    import repro.serve.app as app
    import repro.serve.protocol as protocol
    import repro.tileseek.search as search

    _patch_method(app.ServeApp, "handle", name="serve.app.handle",
                  rid_of=_request_id)
    pool.WorkerPool.submit = _submit_wrapper(pool.WorkerPool.submit)
    _patch_function(protocol, "parse_request", name="protocol.parse")
    _patch_function(protocol, "canonical_body",
                    name="protocol.render")
    _patch_function(serialize, "report_to_dict",
                    name="serialize.report_to_dict")
    _patch_function(serialize, "report_from_dict",
                    name="serialize.report_from_dict")
    _patch_method(cache.PlanCache, "get", name="cache.get",
                  annotate=_cache_get_args)
    _patch_method(cache.PlanCache, "put", name="cache.put",
                  annotate=_cache_put_args)
    _patch_function(parallel, "run_grid", name="parallel.run_grid")
    _patch_method(
        base.ExecutorBase, "run",
        name=lambda args: "executor.%s.run"
        % args[0].name.replace("+", "-"),
    )
    _patch_method(executor.TransFusionExecutor, "tiling",
                  name="tileseek.tiling")
    _patch_method(search.TileSeek, "search", name="tileseek.search",
                  annotate=_search_args)
    _patch_function(
        planner, "plan_cascade", name="dpipe.plan_cascade",
        enter=lambda args: planner.kernel_cache_size(),
        annotate=lambda args, result, before: {
            "kernel_growth": planner.kernel_cache_size() - before
        },
    )
    for builder in ("qkv_cascade", "attention_cascade",
                    "layernorm_cascade", "ffn_cascade"):
        _patch_function(builders, builder, name="einsum.cascade")


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def flush() -> None:
    """Write this process's spans (idempotent per process)."""
    directory = _STATE["dir"]
    if directory is None or _STATE.get("flushed") == os.getpid():
        return
    _STATE["flushed"] = os.getpid()
    path = Path(directory) / f"spans-{os.getpid()}.json"
    path.write_text(json.dumps({
        "pid": os.getpid(), "ppid": os.getppid(),
        "argv": _STATE["argv"], "spans": _SPANS,
    }))


class _ForkAnchor:
    """Weak-referenceable owner of the after-fork hook."""


_ANCHOR = _ForkAnchor()


def _after_fork(_: Any) -> None:
    del _SPANS[:]
    _CURRENT.set((None, None))
    _STATE["argv"] = ["<worker>"]
    multiprocessing.util.Finalize(_ANCHOR, flush, exitpriority=100)


def start(directory: str, argv: List[str]) -> None:
    """Arm per-process output into ``directory``."""
    _STATE["dir"] = directory
    _STATE["argv"] = list(argv)
    atexit.register(flush)
    multiprocessing.util.register_after_fork(_ANCHOR, _after_fork)
