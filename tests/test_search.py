"""Tests for the searching-based DSE baselines (repro.search)."""

import pytest

from repro.ir import matmul
from repro.search import (
    GASettings,
    exhaustive_fused_search,
    exhaustive_search,
    genetic_search,
    power_of_two_tiles,
    tile_grid,
)


class TestSpace:
    def test_power_of_two_tiles(self):
        assert power_of_two_tiles(8) == (1, 2, 4, 8)
        assert power_of_two_tiles(10) == (1, 2, 4, 8, 10)
        assert power_of_two_tiles(1) == (1,)

    def test_power_of_two_invalid(self):
        with pytest.raises(ValueError):
            power_of_two_tiles(0)

    def test_tile_grid_defaults(self):
        op = matmul("mm", 8, 10, 4)
        grid = tile_grid(op)
        assert grid["M"] == (1, 2, 4, 8)
        assert grid["K"] == (1, 2, 4, 8, 10)

    def test_tile_grid_custom(self):
        op = matmul("mm", 8, 10, 4)
        grid = tile_grid(op, {"M": [1, 8]})
        assert grid["M"] == (1, 8)

    def test_tile_grid_validates_range(self):
        op = matmul("mm", 8, 10, 4)
        with pytest.raises(ValueError):
            tile_grid(op, {"M": [9]})


class TestExhaustive:
    def test_finds_global_grid_optimum(self):
        """Cross-check against a literal min over the grid."""
        import itertools

        from repro.dataflow import Dataflow, Schedule, Tiling, memory_access
        from repro.dataflow import all_schedules

        op = matmul("mm", 8, 8, 8)
        budget = 40
        result = exhaustive_search(op, budget)
        best = None
        grid = tile_grid(op)
        for tiles in itertools.product(*(grid[d] for d in op.dim_names)):
            tiling = Tiling(dict(zip(op.dim_names, tiles)))
            if tiling.buffer_footprint(op) > budget:
                continue
            for schedule in all_schedules(op):
                total = memory_access(op, Dataflow(tiling, schedule)).total
                best = total if best is None else min(best, total)
        assert result.memory_access == best

    def test_respects_buffer(self):
        op = matmul("mm", 16, 16, 16)
        result = exhaustive_search(op, 50)
        assert result.dataflow.buffer_footprint(op) <= 50

    def test_infeasible_returns_none(self):
        op = matmul("mm", 16, 16, 16)
        assert exhaustive_search(op, 2) is None

    def test_counts_evaluations(self):
        op = matmul("mm", 8, 8, 8)
        result = exhaustive_search(op, 1000)
        assert result.evaluations > 0


class TestGenetic:
    def test_deterministic_for_seed(self):
        op = matmul("mm", 32, 24, 28)
        settings = GASettings(population=20, generations=10, seed=7)
        a = genetic_search(op, 300, settings)
        b = genetic_search(op, 300, settings)
        assert a.memory_access == b.memory_access

    def test_feasible_result(self):
        op = matmul("mm", 32, 24, 28)
        result = genetic_search(op, 300, GASettings(population=20, generations=10))
        assert result.dataflow.buffer_footprint(op) <= 300

    def test_improves_over_generations(self):
        op = matmul("mm", 64, 48, 56)
        result = genetic_search(
            op, 500, GASettings(population=24, generations=25, seed=3)
        )
        assert result.history[-1] <= result.history[0]

    def test_close_to_exhaustive(self):
        op = matmul("mm", 32, 24, 28)
        ga = genetic_search(op, 300, GASettings(population=32, generations=30))
        ex = exhaustive_search(op, 300)
        assert ga.memory_access <= 1.3 * ex.memory_access

    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            genetic_search(matmul("mm", 4, 4, 4), 0)


class TestFusedSearch:
    def pair(self):
        op1 = matmul("mm1", 32, 16, 24)
        op2 = matmul("mm2", 32, 24, 20, a=op1.output)
        return op1, op2

    def test_exhaustive_fused_feasible_and_fusable(self):
        from repro.dataflow import FusedChain, fused_memory_access

        ops = self.pair()
        result = exhaustive_fused_search(ops, 1500)
        assert result is not None
        chain = result.chain
        assert result.dataflow.buffer_footprint(chain) <= 1500
        assert fused_memory_access(chain, result.dataflow).fusable

    def test_exhaustive_fused_infeasible(self):
        ops = self.pair()
        assert exhaustive_fused_search(ops, 2) is None

    def test_describe(self):
        ops = self.pair()
        result = exhaustive_fused_search(ops, 1500)
        assert "mm1+mm2" in result.describe()
