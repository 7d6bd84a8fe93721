"""TileSeek: MCTS-based outer-tiling search (Section 5).

TileSeek chooses the *outer* tiling factors ``[B, D, M1, P, S]`` that
govern off-chip <-> on-chip data movement for the fully fused layer.
Candidate configurations are validated against the Table-2 per-module
buffer model; feasible leaves are scored by the analytical simulator
(DRAM energy or latency) and the scores drive UCB-guided Monte Carlo
Tree Search.

Evaluation runs batched: rollout frontiers and prune probes are
priced through :class:`BatchedTilingEvaluator`'s vectorized array
math.  The original scalar search is kept as a byte-identical
differential oracle in ``tests/oracles/tileseek_scalar.py``.
"""

from repro.tileseek.batched import (
    BatchedAssessment,
    BatchedTilingEvaluator,
    exactly_priceable,
    table2_module_words,
)
from repro.tileseek.buffer_model import (
    TilingConfig,
    fused_buffer_requirement,
    layer_buffer_requirement,
)
from repro.tileseek.evaluate import TilingAssessment, assess_tiling
from repro.tileseek.mcts import MCTSStats, mcts_search_batched
from repro.tileseek.search import TileSeek, TileSeekResult

__all__ = [
    "BatchedAssessment",
    "BatchedTilingEvaluator",
    "MCTSStats",
    "TileSeek",
    "TileSeekResult",
    "TilingAssessment",
    "TilingConfig",
    "assess_tiling",
    "exactly_priceable",
    "fused_buffer_requirement",
    "layer_buffer_requirement",
    "mcts_search_batched",
    "table2_module_words",
]
