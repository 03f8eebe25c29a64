"""Unit tests for repro.ir.loopnest."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import LoopNest, TiledLoop


class TestTiledLoop:
    def test_trip_count(self):
        assert TiledLoop("M", 10, 3).trip == 4
        assert TiledLoop("M", 10, 5).trip == 2
        assert TiledLoop("M", 10, 10).trip == 1

    def test_untiled_flag(self):
        assert TiledLoop("M", 10, 10).untiled
        assert not TiledLoop("M", 10, 5).untiled

    def test_tile_bounds(self):
        with pytest.raises(ValueError):
            TiledLoop("M", 10, 0)
        with pytest.raises(ValueError):
            TiledLoop("M", 10, 11)

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            TiledLoop("M", 0, 1)

    def test_trip_count_above_float_precision(self):
        """Extents past 2**53 count exactly (a float quotient rounds)."""
        assert TiledLoop("M", 2**53 + 1, 1).trip == 2**53 + 1
        assert TiledLoop("M", 2**53 + 1, 2).trip == 2**52 + 1
        assert TiledLoop("M", 2**64 + 3, 2**32).trip == 2**32 + 1

    @given(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=1000),
    )
    def test_trip_covers_extent(self, extent, tile):
        tile = min(tile, extent)
        loop = TiledLoop("M", extent, tile)
        assert (loop.trip - 1) * tile < extent <= loop.trip * tile


class TestLoopNest:
    def test_dims(self):
        nest = LoopNest((TiledLoop("M", 4, 2), TiledLoop("K", 6, 3)))
        assert nest.dims == ("M", "K")

    def test_duplicate_dims_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            LoopNest((TiledLoop("M", 4, 2), TiledLoop("M", 6, 3)))

    def test_loop_lookup(self):
        nest = LoopNest((TiledLoop("M", 4, 2),))
        assert nest.loop("M").extent == 4
        with pytest.raises(KeyError):
            nest.loop("Z")

    def test_total_trips(self):
        nest = LoopNest((TiledLoop("M", 4, 2), TiledLoop("K", 9, 3)))
        assert nest.total_trips == 2 * 3

    def test_len_and_iter(self):
        loops = (TiledLoop("M", 4, 2), TiledLoop("K", 9, 3))
        nest = LoopNest(loops)
        assert len(nest) == 2
        assert tuple(nest) == loops
