"""Seeded property tests: the batched evaluation path against the
scalar differential oracle.

The contract under test is *byte-identity*, not tolerance-based
closeness: integer quantities (buffer words, pass counts) must be
exactly equal, float quantities (traffic, energy, rewards) must be
bitwise-reproducible, and a full search must serialize to the same
JSON document on either path, for any seed, budget, warm start or
``--jobs`` fan-out.
"""

import json
import random

import numpy as np
import pytest

import repro.core.executor as executor_module
from repro.arch.spec import cloud_architecture, edge_architecture
from repro.core.serialize import (
    report_to_dict,
    tileseek_result_to_dict,
)
from repro.model.config import ModelConfig, named_model
from repro.model.workload import Workload
from repro.resilience.budget import Budget
from repro.runner.parallel import GridPoint, run_grid
from repro.tileseek.batched import (
    EXACT_FLOAT_LIMIT,
    BatchedTilingEvaluator,
    exactly_priceable,
    table2_module_words,
)
from repro.tileseek.buffer_model import (
    FUSED_MODULES,
    TilingConfig,
    fused_buffer_requirement,
    intra_tile_p_prime,
    layer_buffer_requirement,
)
from repro.tileseek.evaluate import assess_tiling, reward_for
from repro.tileseek.mcts import mcts_search_batched
from repro.tileseek.search import FACTOR_ORDER, TileSeek
from tests.oracles.tileseek_scalar import mcts_search, scalar_search

MODELS = ("llama3", "t5", "bert", "llama3-gqa")


def result_bytes(result):
    """Canonical serialized form -- identity means byte-identity."""
    return json.dumps(
        tileseek_result_to_dict(result), sort_keys=True
    )


def random_assignments(rng, count, huge=False):
    """Random ``[b, d, m1, p, s]`` rows, optionally with factors so
    large the Table-2 math must leave int64."""
    pool = (1, 2, 3, 4, 8, 16, 48, 64, 301, 384, 1024, 4096, 16384)
    rows = []
    for _ in range(count):
        factors = [rng.choice(pool) for _ in range(5)]
        if huge and rng.random() < 0.4:
            factors[rng.randrange(5)] = rng.choice(
                (1 << 40, 1 << 52, 1 << 61)
            )
        rows.append(tuple(factors))
    return rows


def scalar_config(assignment, m0, rows):
    b, d, m1, p, s = assignment
    return TilingConfig(
        b=b, d=d, m1=m1, m0=m0, p=p, s=s,
        p_prime=intra_tile_p_prime(p, rows),
    )


class TestKernelExactness:
    """The vectorized Table-2 kernel returns exact integers equal to
    the scalar buffer-model functions, in int64 or object dtype."""

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("huge", [False, True])
    def test_module_words_match_scalar(self, model_name, huge):
        model = named_model(model_name)
        rng = random.Random(hash((model_name, huge)) & 0xFFFF)
        assignments = random_assignments(rng, 64, huge=huge)
        m0, pe_rows = 256, 256
        evaluator = BatchedTilingEvaluator(
            Workload(model, seq_len=4096, batch=8),
            cloud_architecture(), m0=m0, rows=pe_rows,
        )
        matrix = evaluator.matrix_from(assignments)
        if huge:
            assert matrix.dtype == object
        words = evaluator.module_words(matrix)
        fused = evaluator.buffer_words(matrix)
        for row, assignment in enumerate(assignments):
            cfg = scalar_config(assignment, m0, pe_rows)
            for module in FUSED_MODULES:
                assert int(words[module][row]) == (
                    layer_buffer_requirement(module, cfg, model)
                )
            assert int(fused[row]) == fused_buffer_requirement(
                cfg, model
            )

    def test_table2_kernel_scalar_inputs(self):
        model = named_model("t5")
        cfg = scalar_config((2, 64, 4, 384, 48), 256, 256)
        words = table2_module_words(
            model, cfg.b, cfg.d, cfg.m1, cfg.m0, cfg.p, cfg.s,
            cfg.p_prime,
        )
        for module in FUSED_MODULES:
            assert words[module] == layer_buffer_requirement(
                module, cfg, model
            )

    def test_int64_dtype_for_ordinary_grids(self):
        evaluator = BatchedTilingEvaluator(
            Workload(named_model("llama3"), seq_len=65536, batch=64),
            cloud_architecture(), m0=256, rows=256,
        )
        matrix = evaluator.matrix_from(
            [(64, 4096, 64, 16384, 16384)]
        )
        assert matrix.dtype == np.int64

    def test_exactly_priceable_boundaries(self):
        assert exactly_priceable((1, 16, 1, 64, 16))
        assert not exactly_priceable(
            (EXACT_FLOAT_LIMIT * 2, 16, 1, 64, 16)
        )
        # Factors individually fine, but b*p beyond float64's
        # 53-bit significand.
        assert not exactly_priceable(
            (1 << 30, 16, 1, 1 << 30, 16)
        )


class TestAssessmentEquivalence:
    """Batched assessment and rewards are bitwise equal to the scalar
    evaluator on randomized workloads and architectures."""

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize(
        "arch_factory", [cloud_architecture, edge_architecture]
    )
    def test_assess_matches_scalar_bitwise(
        self, model_name, arch_factory
    ):
        arch = arch_factory()
        rng = random.Random(hash((model_name, arch.name)) & 0xFFFF)
        for seq_len, batch, causal in (
            (4096, 8, False), (65536, 64, True), (512, 2, False),
        ):
            workload = Workload(
                named_model(model_name), seq_len=seq_len,
                batch=batch, causal=causal,
            )
            m0 = arch.array_2d.cols
            pe_rows = arch.array_2d.rows
            evaluator = BatchedTilingEvaluator(
                workload, arch, m0=m0, rows=pe_rows
            )
            assignments = random_assignments(rng, 48)
            batch_result = evaluator.assess(
                evaluator.matrix_from(assignments)
            )
            reference = evaluator.assessment_at(
                batch_result, 0
            ).dram_words
            rewards = evaluator.rewards(batch_result, reference)
            for row, assignment in enumerate(assignments):
                cfg = scalar_config(assignment, m0, pe_rows)
                expected = assess_tiling(cfg, workload, arch)
                got = evaluator.assessment_at(batch_result, row)
                assert got == expected  # dataclass field equality
                # Integer fields exactly, floats bitwise.
                assert isinstance(got.buffer_words_required, int)
                assert got.kv_passes == expected.kv_passes
                assert got.weight_passes == expected.weight_passes
                assert rewards[row] == reward_for(
                    expected, reference
                )

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            BatchedTilingEvaluator(
                Workload(named_model("t5"), seq_len=512, batch=2),
                cloud_architecture(), m0=256, rows=256,
                reward_metric="power",
            )

    def test_viable_values_match_scalar_prune(self):
        workload = Workload(
            named_model("llama3"), seq_len=16384, batch=16
        )
        arch = edge_architecture()
        searcher = TileSeek()
        grid = searcher.candidate_grid(workload, arch)
        fixed = searcher.fixed_factors(arch)
        evaluator = BatchedTilingEvaluator(
            workload, arch, m0=fixed["m0"], rows=fixed["rows"]
        )
        minima = tuple(min(grid[name]) for name in FACTOR_ORDER)
        rng = random.Random(11)
        for _ in range(40):
            level = rng.randrange(len(FACTOR_ORDER))
            prefix = tuple(
                rng.choice(grid[name])
                for name in FACTOR_ORDER[:level]
            )
            values = grid[FACTOR_ORDER[level]]
            got = evaluator.viable_values(prefix, values, minima)
            expected = []
            for value in values:
                full = list(prefix) + [value] + [
                    min(grid[name])
                    for name in FACTOR_ORDER[level + 1:]
                ]
                cfg = searcher._config_from(full, fixed)
                required = fused_buffer_requirement(
                    cfg, workload.model
                )
                if required <= arch.buffer_words:
                    expected.append(value)
            assert got == expected


class TestMCTSEquivalence:
    """The frontier-batched driver equals the scalar driver stat for
    stat on synthetic trees: prunes, dead-ends, budgets, any seed."""

    @staticmethod
    def _drivers(levels, prune=None):
        def evaluate(assignment):
            return 1.0 / (1.0 + sum(assignment))

        def evaluate_batch(assignments):
            return [evaluate(a) for a in assignments]

        def viable(prefix, level):
            values = list(levels[level])
            if prune is not None:
                values = [
                    v for v in values if not prune(prefix + (v,))
                ]
            return values

        return evaluate, evaluate_batch, (
            viable if prune is not None else None
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_stats_equal_across_seeds(self, seed):
        levels = [[1, 2, 3], [1, 2], [1, 2, 3, 4]]
        evaluate, evaluate_batch, viable = self._drivers(levels)
        scalar = mcts_search(
            levels, evaluate, iterations=64, seed=seed
        )
        batched = mcts_search_batched(
            levels, evaluate_batch, iterations=64, seed=seed,
            viable=viable,
        )
        assert scalar == batched

    @pytest.mark.parametrize("seed", range(4))
    def test_dead_ends_equal(self, seed):
        levels = [[1, 2], [1, 2]]

        def prune(partial):
            # Every completion under first value 2 is infeasible.
            return len(partial) == 2 and partial[0] == 2

        evaluate, evaluate_batch, viable = self._drivers(
            levels, prune
        )
        scalar = mcts_search(
            levels, evaluate, iterations=32, seed=seed, prune=prune
        )
        batched = mcts_search_batched(
            levels, evaluate_batch, iterations=32, seed=seed,
            viable=viable,
        )
        assert scalar.dead_ends > 0
        assert scalar == batched

    @pytest.mark.parametrize("limit", [1, 3, 7, 100])
    def test_budget_exhaustion_equal(self, limit):
        levels = [[1, 2, 3], [1, 2, 3]]
        evaluate, evaluate_batch, viable = self._drivers(levels)
        scalar = mcts_search(
            levels, evaluate, iterations=50, seed=2,
            budget=Budget(limit),
        )
        batched = mcts_search_batched(
            levels, evaluate_batch, iterations=50, seed=2,
            budget=Budget(limit),
        )
        assert scalar == batched
        assert scalar.exhausted == (limit < 50)

    def test_validation_errors_match(self):
        def evaluate_batch(assignments):
            return [0.0 for _ in assignments]

        with pytest.raises(ValueError):
            mcts_search_batched([[1]], evaluate_batch, iterations=0)
        with pytest.raises(ValueError):
            mcts_search_batched(
                [[1], []], evaluate_batch, iterations=4
            )


class TestFullSearchIdentity:
    """End-to-end: ``TileSeekResult`` serializes identically on both
    paths across workloads, seeds, budgets and warm starts."""

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_byte_identity_grid(self, model_name, seed):
        for arch in (cloud_architecture(), edge_architecture()):
            for seq_len in (4096, 65536):
                workload = Workload(
                    named_model(model_name), seq_len=seq_len,
                    batch=8,
                )
                for budget in (None, 16):
                    searcher = TileSeek(iterations=120, seed=seed)
                    scalar = scalar_search(
                        searcher, workload, arch, budget=budget
                    )
                    batched = searcher.search(
                        workload, arch, budget=budget
                    )
                    assert result_bytes(scalar) == result_bytes(
                        batched
                    )

    def test_warm_start_and_provenance_identity(self, cloud):
        workload = Workload(
            named_model("llama3"), seq_len=65536, batch=64
        )
        converged = TileSeek(iterations=400, seed=0).search(
            workload, cloud
        )
        warm_sets = [
            (),
            ((1, 16, 1, 64, 16),),
            (converged.stats.best_assignment,),
            (converged.stats.best_assignment,) * 2,
        ]
        provenances = set()
        for warm in warm_sets:
            for budget in (None, 1, 16):
                searcher = TileSeek(iterations=100, seed=4)
                scalar = scalar_search(
                    searcher, workload, cloud, warm_start=warm,
                    budget=budget,
                )
                batched = searcher.search(
                    workload, cloud, warm_start=warm, budget=budget,
                )
                assert result_bytes(scalar) == result_bytes(
                    batched
                )
                provenances.add(batched.provenance)
        # The grid exercised the full provenance taxonomy.
        assert "complete" in provenances
        assert any(
            p.startswith("fallback:") for p in provenances
        )

    def test_anchor_survives_expansion_of_its_prefix(self, cloud):
        """Regression: on a grid small enough for MCTS to expand the
        anchor line's prefix (minimal b, d, m1), the anchor is still
        the largest viable p.  The driver used to pop expansions out
        of the memoized viability list the anchor is read from, so
        the search priced a different incumbent than the oracle (one
        extra evaluation)."""
        model = ModelConfig(
            name="tiny", d_model=16, heads=1, e_head=16,
            ffn_hidden=16, layers=1, activation="gelu",
        )
        for seq_len in (64, 512):
            workload = Workload(model, seq_len=seq_len, batch=1)
            searcher = TileSeek(iterations=400, seed=0)
            scalar = scalar_search(searcher, workload, cloud, budget=40)
            batched = searcher.search(workload, cloud, budget=40)
            assert result_bytes(scalar) == result_bytes(batched)

    def test_oversized_warm_start_routes_through_scalar(
        self, cloud
    ):
        """Warm factors beyond exact-float range must not corrupt
        results -- they are priced by the scalar evaluator row-wise.
        """
        workload = Workload(
            named_model("llama3"), seq_len=16384, batch=8
        )
        huge = (1 << 55, 16, 1, 1 << 55, 16)
        searcher = TileSeek(iterations=60, seed=1)
        scalar = scalar_search(
            searcher, workload, cloud, warm_start=(huge,)
        )
        batched = searcher.search(workload, cloud, warm_start=(huge,))
        assert result_bytes(scalar) == result_bytes(batched)


class TestSweepIdentity:
    """Whole-pipeline identity: reports are byte-identical across
    ``--jobs`` fan-outs and across the scalar/batched paths."""

    @staticmethod
    def _points():
        return [
            GridPoint(executor="transfusion", model="t5",
                      seq_len=seq, arch="cloud", batch=4)
            for seq in (512, 1024)
        ]

    @staticmethod
    def _rendered(reports):
        return [
            json.dumps(report_to_dict(report), sort_keys=True)
            for report in reports.values()
        ]

    def test_jobs_and_eval_path_identity(
        self, tmp_path, monkeypatch
    ):
        points = self._points()
        serial = run_grid(
            points, jobs=1, cache_dir=tmp_path / "a",
            use_cache=False,
        )
        parallel = run_grid(
            points, jobs=2, cache_dir=tmp_path / "b",
            use_cache=False,
        )
        # Sweep workers are forked, so they inherit the patch -- and
        # this process's in-memory tiling memo, which would answer
        # without searching: give them an empty one.
        with monkeypatch.context() as patch:
            patch.setattr(TileSeek, "search", scalar_search)
            patch.setattr(executor_module, "_TILING_CACHE", {})
            scalar = run_grid(
                points, jobs=2, cache_dir=tmp_path / "c",
                use_cache=False,
            )
        assert self._rendered(serial) == self._rendered(parallel)
        assert self._rendered(serial) == self._rendered(scalar)
