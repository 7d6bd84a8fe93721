"""DPipe: the DAG-pipelining dynamic-programming scheduler (Section 4).

DPipe turns an Einsum-cascade DAG into a latency-aware pipelined
schedule in three steps:

1. enumerate valid DAG bipartitions (:mod:`repro.graph.partition`),
2. interleave consecutive epochs of the two subgraphs under a virtual
   root and enumerate topological orderings (Section 4.1), and
3. score every candidate with the earliest-finish DP of Eq. 43-46,
   which also picks, per op, whichever PE array completes it first --
   the mechanism behind DPipe's load balancing across the 2D and 1D
   arrays.
"""

from repro.dpipe.latency import LatencyTable, build_latency_table
from repro.dpipe.planner import (
    DPipeOptions,
    DPipePlan,
    clear_kernel_cache,
    kernel_cache_size,
    plan_cascade,
    plan_window_schedule,
)
from repro.dpipe.scheduler import ScheduleResult, dp_schedule
from repro.dpipe.search import InternedProblem, fused_best_order

__all__ = [
    "DPipeOptions",
    "DPipePlan",
    "InternedProblem",
    "LatencyTable",
    "ScheduleResult",
    "build_latency_table",
    "clear_kernel_cache",
    "dp_schedule",
    "fused_best_order",
    "kernel_cache_size",
    "plan_cascade",
    "plan_window_schedule",
]
