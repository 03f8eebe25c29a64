"""Tiled loop-nest primitives shared by the dataflow cost models.

A *tiled loop* walks one loop dimension in steps of its tile size; its trip
count is ``ceil(extent / tile)``.  A loop whose tile equals the dimension
extent is *untiled* (trip count 1) and is degenerate for reuse analysis: it
never forces a re-fetch of anything, which is exactly why the paper's
Two-/Three-NRA dataflows untile dimensions to grow the set of
non-redundantly accessed tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class TiledLoop:
    """One level of a tiled loop nest.

    Parameters
    ----------
    dim:
        Loop dimension name.
    extent:
        Full dimension size.
    tile:
        Tile size (step of this loop), ``1 <= tile <= extent``.
    """

    dim: str
    extent: int
    tile: int

    def __post_init__(self) -> None:
        if self.extent <= 0:
            raise ValueError(f"loop {self.dim!r}: extent must be positive")
        if not 1 <= self.tile <= self.extent:
            raise ValueError(
                f"loop {self.dim!r}: tile {self.tile} out of range [1, {self.extent}]"
            )

    @property
    def trip(self) -> int:
        """Number of iterations (tiles visited), ``ceil(extent / tile)``.

        Integer division: a float quotient rounds extents above 2**53.
        """
        return -(-self.extent // self.tile)

    @property
    def untiled(self) -> bool:
        """True when the whole dimension fits in one tile (trip == 1)."""
        return self.trip == 1


@dataclass(frozen=True)
class LoopNest:
    """An ordered (outermost first) sequence of tiled loops."""

    loops: Tuple[TiledLoop, ...]

    def __post_init__(self) -> None:
        names = [loop.dim for loop in self.loops]
        if len(set(names)) != len(names):
            raise ValueError(f"loop nest repeats a dimension: {names}")

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)

    def loop(self, dim: str) -> TiledLoop:
        for candidate in self.loops:
            if candidate.dim == dim:
                return candidate
        raise KeyError(f"no loop over dim {dim!r}")

    @property
    def dims(self) -> Tuple[str, ...]:
        return tuple(loop.dim for loop in self.loops)

    @property
    def total_trips(self) -> int:
        total = 1
        for loop in self.loops:
            total *= loop.trip
        return total
