#!/usr/bin/env python
"""Visualize DPipe schedules as ASCII Gantt charts.

Renders the steady-state pipeline window of the attention layer on
both architectures: ``cur.*`` ops belong to the current epoch's second
subgraph, ``nxt.*`` ops to the next epoch's first subgraph -- the
temporal overlap DPipe constructs (Figure 7d).  ``#`` bars run on the
2D array, ``=`` bars on the 1D array.

Run:
    python examples/schedule_gantt.py
"""

from repro import Workload, named_model
from repro.arch.spec import named_architecture
from repro.core.executor import TransFusionExecutor
from repro.dpipe.latency import build_latency_table
from repro.dpipe.pipeline import ROOT, best_window_schedule
from repro.dpipe.planner import plan_cascade
from repro.dpipe.visualize import (
    array_occupancy,
    render_gantt,
    schedule_timeline,
)
from repro.graph.dag import ComputationDAG


def show(arch_name: str, layer: str = "mha") -> None:
    arch = named_architecture(arch_name)
    workload = Workload(named_model("llama3"), seq_len=65536,
                        batch=64)
    executor = TransFusionExecutor()
    cascade = executor.cascades(workload.model)[layer]
    tile = executor.inner_tile(workload, layer, arch)
    n_epochs = executor.epoch_count(workload, layer, tile)
    plan = plan_cascade(cascade, layer, tile, arch, n_epochs)
    table = build_latency_table(cascade, layer, tile, arch)

    print(f"=== {layer} on {arch_name} "
          f"(steady-state period {plan.epoch_seconds * 1e9:.0f} ns, "
          f"{n_epochs:,} epochs) ===")
    if plan.bipartition is None or not plan.window_order:
        print("(static pipeline schedule selected; no window to "
              "draw)\n")
        return
    dag = ComputationDAG.from_cascade(cascade)
    window, _ = best_window_schedule(dag, plan.bipartition, table,
                                     max_orders=48)
    timeline = schedule_timeline(window.schedule, table,
                                 zero_latency={ROOT})
    print(render_gantt(timeline))
    busy = array_occupancy(timeline)
    period = window.period_seconds
    for kind, seconds in busy.items():
        label = "2D" if kind.value == "2d" else "1D"
        print(f"  {label} occupancy within window: "
              f"{seconds / period:.0%}")
    print()


def main() -> None:
    for arch_name in ("cloud", "edge"):
        show(arch_name, "mha")
    print(
        "Note the offloaded map Einsums (SLN/SPNV/AV on the 2D array "
        "on cloud; the\nsecond GEMM on the 1D array on edge) -- "
        "Eq. 45's per-op min-completion rule\nat work."
    )


if __name__ == "__main__":
    main()
