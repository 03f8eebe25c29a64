"""Tiling specifications (paper Sec. II-A, Fig. 2(a)).

A :class:`Tiling` assigns every loop dimension of an operator a tile size.
Tile sizes determine both the buffer footprint (Eq. 2 / Eq. 4 of the paper)
and, together with the schedule, the memory-access count.  The special value
:data:`UNTILED` requests a tile equal to the dimension extent, which is how
Two- and Three-NRA dataflows are expressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..ir.operator import TensorOperator

#: Sentinel tile size meaning "the full dimension extent".
UNTILED = -1


class TilingError(ValueError):
    """Raised for tilings inconsistent with their operator."""


@dataclass(frozen=True)
class Tiling:
    """Tile sizes per loop dimension.

    Use :meth:`for_operator` to validate/resolve against an operator, which
    replaces :data:`UNTILED` sentinels and clamps nothing -- out-of-range
    tiles are an error, not silently fixed.
    """

    tiles: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiles", dict(self.tiles))

    def __getitem__(self, dim: str) -> int:
        return self.tiles[dim]

    def __contains__(self, dim: str) -> bool:
        return dim in self.tiles

    def items(self):
        return self.tiles.items()

    def resolve(self, dims: Mapping[str, int]) -> "Tiling":
        """Return a tiling with sentinels replaced and bounds validated."""
        resolved: Dict[str, int] = {}
        for dim, extent in dims.items():
            if dim not in self.tiles:
                raise TilingError(f"missing tile for dim {dim!r}")
            tile = self.tiles[dim]
            if tile == UNTILED:
                tile = extent
            if not isinstance(tile, int) or not 1 <= tile <= extent:
                raise TilingError(
                    f"tile {tile!r} for dim {dim!r} out of range [1, {extent}]"
                )
            resolved[dim] = tile
        extra = set(self.tiles) - set(dims)
        if extra:
            raise TilingError(f"tiles given for unknown dims {sorted(extra)}")
        return Tiling(resolved)

    def for_operator(self, operator: TensorOperator) -> "Tiling":
        """Resolve against an operator's loop dimensions."""
        return self.resolve(operator.dims)

    def untiled_dims(self, dims: Mapping[str, int]) -> Tuple[str, ...]:
        """Dims whose tile covers the whole extent."""
        resolved = self.resolve(dims)
        return tuple(dim for dim, extent in dims.items() if resolved[dim] == extent)

    def tile_footprint(self, operator: TensorOperator, tensor_name: str) -> int:
        """Elements of ``tensor_name``'s tile under this tiling."""
        resolved = self.for_operator(operator)
        return math.prod(resolved[dim] for dim in operator.dims_of(tensor_name))

    def buffer_footprint(self, operator: TensorOperator) -> int:
        """Total buffered elements: sum of all operand tile footprints.

        This is the left-hand side of the paper's buffer constraints
        (Eq. 2 for Single-NRA, Eq. 4 for Two-NRA) generalized to any
        operator: ``sum_t prod_{d in dims(t)} T_d``.
        """

        resolved = self.for_operator(operator)
        return sum(
            math.prod(resolved[dim] for dim in operator.dims_of(tensor.name))
            for tensor in operator.tensors
        )


def full_tiling(operator: TensorOperator) -> Tiling:
    """Tiling with every dimension untiled (whole tensors buffered)."""
    return Tiling({dim: extent for dim, extent in operator.dims.items()})


def unit_tiling(operator: TensorOperator) -> Tiling:
    """Tiling with every tile size 1 (no reuse beyond a point)."""
    return Tiling({dim: 1 for dim in operator.dims})
