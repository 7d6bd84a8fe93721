"""Seeded workload inputs.

Everything the system receives is generated here from ``--seed``:
the same seed gives the same points, catalog and request schedule;
the program sees only the generated requests.  No function here
imports the program.

A point is a dict with the serving protocol's point fields; an
*identity* is ``(point key, budget, deadline_s)`` -- what one request
asks for.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

MODELS = ("bert", "llama3", "llama3-gqa", "t5", "trxl", "xlm")
ARCHS = ("cloud", "edge", "edge32", "edge64")
SEQS = tuple(2 ** power for power in range(9, 21))  # 512 .. 1M
BATCHES = (1, 4, 64)
BASELINES = ("unfused", "flat", "fusemax", "fusemax+lf")
EXECUTORS = BASELINES + ("transfusion",)
BUDGETS = (16, 64, 256, 1024)
#: Deadlines fold to 50 / 250 / 1000 search units at admission.
DEADLINES = (0.001, 0.005, 0.02)

#: The golden corpus (``tests/golden``): 12 healthy points plus two
#: priced under a 16-unit budget.
GOLDEN_BUDGET = 16


def point(executor: str, model: str, seq: int, arch: str,
          batch: int, causal: bool = False) -> Dict[str, object]:
    return {
        "arch": arch, "batch": batch, "causal": causal,
        "executor": executor, "model": model, "seq_len": seq,
    }


def point_key(p: Dict[str, object]) -> Tuple:
    return (p["executor"], p["model"], p["seq_len"], p["arch"],
            p["batch"], p["causal"])


def golden_requests() -> List[Dict[str, object]]:
    """The 14 golden identities as request fields."""
    requests = [
        {"point": point("transfusion", model, seq, arch, 4)}
        for model in ("bert", "t5", "llama3")
        for arch in ("cloud", "edge")
        for seq in (512, 1024)
    ]
    for model, seq, arch in (("t5", 512, "cloud"),
                             ("llama3", 1024, "edge")):
        requests.append({
            "point": point("transfusion", model, seq, arch, 4),
            "budget": GOLDEN_BUDGET,
        })
    return requests


def identity(request: Dict[str, object]) -> Tuple:
    return (point_key(request["point"]), request.get("budget"),
            request.get("deadline_s"))


def _random_point(rng: random.Random, executor: str
                  ) -> Dict[str, object]:
    return point(
        executor, rng.choice(MODELS), rng.choice(SEQS),
        rng.choice(ARCHS), rng.choice(BATCHES), rng.random() < 0.25,
    )


def _random_request(rng: random.Random, executor: str,
                    budget_share: float, deadline_share: float
                    ) -> Dict[str, object]:
    request: Dict[str, object] = {
        "point": _random_point(rng, executor)
    }
    draw = rng.random()
    if draw < budget_share:
        request["budget"] = rng.choice(BUDGETS)
    elif draw < budget_share + deadline_share:
        request["deadline_s"] = rng.choice(DEADLINES)
    return request


def _distinct(rng: random.Random, executor: str, budget_share: float,
              deadline_share: float, taken: set) -> Dict[str, object]:
    """A request whose identity is not in ``taken`` (then added)."""
    while True:
        request = _random_request(rng, executor, budget_share,
                                  deadline_share)
        if identity(request) not in taken:
            taken.add(identity(request))
            return request


# ----------------------------------------------------------------------
# cli-plan
# ----------------------------------------------------------------------
def cli_plan_schedule(seed: int, length: int = 400
                      ) -> List[Tuple[str, Dict[str, object]]]:
    """Closed-loop plan invocations: ``("cold", request)`` plans a
    point never planned before in the run; ``("hit", request)``
    re-plans an earlier one (answered from the plan cache).

    The first 28 cold plans are the 14 golden identities shuffled
    among 14 random ones, so every run checks the whole corpus.
    Every third invocation is a re-plan.
    """
    rng = random.Random(f"cli-plan/{seed}")
    golden = golden_requests()
    taken = {identity(request) for request in golden}
    cold = [_distinct(rng, "transfusion", 0.06, 0.0, taken)
            for _ in range(length)]
    head = golden + cold[:14]
    rng.shuffle(head)
    cold = head + cold[14:]
    schedule: List[Tuple[str, Dict[str, object]]] = []
    planned: List[Dict[str, object]] = []
    for slot in range(length):
        if slot % 3 == 2 and planned:
            schedule.append(("hit", rng.choice(planned)))
        else:
            request = cold[len(planned)]
            planned.append(request)
            schedule.append(("cold", request))
    return schedule


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
#: Catalog size: several times the replica's default 256-entry LRU.
CATALOG_SIZE = 1200
ZIPF_S = 1.1


def serve_catalog(seed: int, size: int = CATALOG_SIZE
                  ) -> List[Dict[str, object]]:
    """Identities in popularity order (rank 0 is the most popular).

    Seven in ten are ``transfusion``; the rest cycle through the four
    baselines.  One in twenty carries a budget and one in twenty a
    ``deadline_s``.  The golden identities sit at seeded ranks in the
    top 30.
    """
    rng = random.Random(f"serve-zipf/catalog/{seed}")
    golden = golden_requests()
    taken = {identity(request) for request in golden}
    catalog = []
    for index in range(size - len(golden)):
        executor = ("transfusion" if index % 10 < 7
                    else BASELINES[(index // 10) % len(BASELINES)])
        catalog.append(_distinct(rng, executor, 0.05, 0.05, taken))
    for request, rank in zip(golden, rng.sample(range(30),
                                                len(golden))):
        catalog.insert(rank, request)
    return catalog


def golden_ranks(catalog: Sequence[Dict[str, object]]) -> List[int]:
    golden = {identity(request) for request in golden_requests()}
    return [rank for rank, request in enumerate(catalog)
            if identity(request) in golden]


def zipf_schedule(seed: int, phase: str, rate: float, seconds: float,
                  golden: Sequence[int], catalog_size: int = CATALOG_SIZE,
                  s: float = ZIPF_S) -> List[Tuple[float, int]]:
    """Open-loop schedule ``[(due offset in s, catalog rank)]`` at a
    fixed rate (uniform spacing), ranks drawn from Zipf(s).
    ``golden`` are the catalog ranks of the golden identities."""
    rng = random.Random(f"serve-zipf/{phase}/{seed}")
    weights = [1.0 / (rank + 1) ** s for rank in range(catalog_size)]
    count = max(len(golden), int(rate * seconds))
    ranks = rng.choices(range(catalog_size), weights=weights, k=count)
    # Every phase asks for every golden identity at least once: any
    # the draw missed replaces a seeded slot.
    missing = sorted(set(golden) - set(ranks))
    kept = {ranks.index(rank) for rank in golden if rank in ranks}
    slots = [slot for slot in range(count) if slot not in kept]
    for rank, slot in zip(missing, rng.sample(slots, len(missing))):
        ranks[slot] = rank
    return [(index / rate, rank) for index, rank in enumerate(ranks)]


# ----------------------------------------------------------------------
# sweep-grid
# ----------------------------------------------------------------------
#: The figure grid's sequence lengths, 1K to 256K in steps of 4x.
#: Each one adds ~1 s to a cold pass on a 2-CPU box; five leave time
#: for five cold passes in a 30 s run.
FIGURE_SEQS = (1024, 4096, 16384, 65536, 262144)


def sweep_grid(seed: int) -> Dict[str, List]:
    """The figure grid: all five executors x six models x four
    archs x five sequence lengths at B=64 (600 points).  The points
    are fixed, so every seed does the same work; the seed orders
    each axis, which orders the engine's chains and the output."""
    rng = random.Random(f"sweep-grid/{seed}")
    return {
        "executors": rng.sample(EXECUTORS, len(EXECUTORS)),
        "models": rng.sample(MODELS, len(MODELS)),
        "archs": rng.sample(ARCHS, len(ARCHS)),
        "seqs": rng.sample(FIGURE_SEQS, len(FIGURE_SEQS)),
        "batch": [64],
    }


#: The healthy golden grid, swept at B=4 alongside the figure grid.
GOLDEN_GRID = {
    "executors": ["transfusion"], "models": ["bert", "t5", "llama3"],
    "archs": ["cloud", "edge"], "seqs": [512, 1024], "batch": [4],
}


def grid_points(grid: Dict[str, List]) -> List[Dict[str, object]]:
    """The points ``repro sweep`` prices for one grid."""
    return [
        point(executor, model, seq, arch, batch)
        for batch in grid["batch"]
        for model in grid["models"]
        for arch in grid["archs"]
        for executor in grid["executors"]
        for seq in grid["seqs"]
    ]


def sweep_args(grid: Dict[str, List]) -> List[str]:
    return [
        "--models", *grid["models"], "--archs", *grid["archs"],
        "--executors", *grid["executors"],
        "--seqs", *map(str, grid["seqs"]),
        "--batch", str(grid["batch"][0]),
    ]


def plan_args(request: Dict[str, object]) -> List[str]:
    """``repro plan`` arguments for one request."""
    p = request["point"]
    args = [
        "--executor", str(p["executor"]), "--model", str(p["model"]),
        "--arch", str(p["arch"]), "--seq", str(p["seq_len"]),
        "--batch", str(p["batch"]),
    ]
    if p["causal"]:
        args.append("--causal")
    if request.get("budget") is not None:
        args += ["--budget", str(request["budget"])]
    if request.get("deadline_s") is not None:
        args += ["--deadline", repr(request["deadline_s"])]
    return args

