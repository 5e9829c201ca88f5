"""Slice algebra: tile grids, regions, and device <-> tile maps.

A sharding spec over a mesh induces a *tile grid* on the tensor: every
tensor dimension is cut into contiguous intervals (one per shard index)
and each device of the mesh holds exactly one tile, possibly replicated
across the mesh axes the spec leaves unused.  A *region* is an axis-
aligned box ``((start, stop), ...)`` in tensor index space.

Uneven dimensions are split with the NumPy ``array_split`` convention
(the first ``size % n`` parts get one extra element), which is how the
paper's system "efficiently handles tiling, padding" (§5.1.1); the Alpa
baseline refuses uneven splits and falls back (see
:mod:`repro.strategies.allgather`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import product
from typing import Iterator, Optional, Sequence

from .mesh import DeviceMesh
from .spec import ShardingSpec

__all__ = [
    "Region",
    "split_offsets",
    "region_intersection",
    "region_size",
    "region_shape",
    "relative_region",
    "TileGrid",
]

Region = tuple[tuple[int, int], ...]


def split_offsets(size: int, n: int) -> tuple[int, ...]:
    """Offsets cutting ``[0, size)`` into ``n`` near-equal intervals.

    Returns ``n + 1`` ascending offsets; interval ``k`` is
    ``[offsets[k], offsets[k+1])``.  Matches ``numpy.array_split``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if size < n:
        raise ValueError(f"cannot split size {size} into {n} non-empty parts")
    q, r = divmod(size, n)
    offsets = [0]
    for k in range(n):
        offsets.append(offsets[-1] + q + (1 if k < r else 0))
    return tuple(offsets)


def region_intersection(a: Region, b: Region) -> Optional[Region]:
    """Intersection box of two regions, or None when empty."""
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    out = []
    for (a0, a1), (b0, b1) in zip(a, b):
        lo, hi = max(a0, b0), min(a1, b1)
        if lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def region_shape(r: Region) -> tuple[int, ...]:
    return tuple(hi - lo for lo, hi in r)


def region_size(r: Region) -> int:
    """Number of elements in the region."""
    return reduce(lambda x, y: x * y, (hi - lo for lo, hi in r), 1)


def relative_region(outer: Region, inner: Region) -> Region:
    """Express ``inner`` in coordinates relative to ``outer``'s origin.

    ``inner`` must be contained in ``outer``.
    """
    out = []
    for (o0, o1), (i0, i1) in zip(outer, inner):
        if not (o0 <= i0 and i1 <= o1):
            raise ValueError(f"{inner} is not contained in {outer}")
        out.append((i0 - o0, i1 - o0))
    return tuple(out)


class TileGrid:
    """The tiling of one tensor induced by (shape, spec, mesh)."""

    def __init__(
        self, shape: Sequence[int], spec: ShardingSpec, mesh: DeviceMesh
    ) -> None:
        spec.validate(shape, mesh)
        self.shape = tuple(int(s) for s in shape)
        self.spec = spec
        self.mesh = mesh
        self.shards = spec.shards_per_dim(mesh)
        self.boundaries: tuple[tuple[int, ...], ...] = tuple(
            split_offsets(size, n) for size, n in zip(self.shape, self.shards)
        )
        #: tile index -> holding devices, built on first use
        self._replicas: Optional[dict[tuple[int, ...], tuple[int, ...]]] = None
        #: device -> its region, filled as devices are asked for
        self._device_regions: dict[int, Region] = {}

    @classmethod
    def of(cls, shape: Sequence[int], spec: ShardingSpec, mesh: DeviceMesh) -> "TileGrid":
        """The grid of ``(shape, spec)`` on ``mesh``, built once per mesh.

        Meshes and grids are immutable, so a task and every tensor laid
        out alike on the mesh share one grid and its memoized regions.
        """
        key = (tuple(int(s) for s in shape), spec)
        grid = mesh.tile_grids.get(key)
        if grid is None:
            grid = mesh.tile_grids[key] = cls(shape, spec, mesh)
        return grid

    # ------------------------------------------------------------------
    # Tiles
    # ------------------------------------------------------------------
    def tile_region(self, idx: Sequence[int]) -> Region:
        """The tensor region of tile ``idx`` (one index per dim)."""
        if len(idx) != len(self.shape):
            raise ValueError(f"tile index rank {len(idx)} != tensor rank")
        out = []
        for k, b in zip(idx, self.boundaries):
            if not 0 <= k < len(b) - 1:
                raise IndexError(f"tile index {k} out of range [0, {len(b) - 1})")
            out.append((b[k], b[k + 1]))
        return tuple(out)

    def all_tile_indices(self) -> Iterator[tuple[int, ...]]:
        """All tile indices, lexicographic."""
        return product(*(range(n) for n in self.shards))

    # ------------------------------------------------------------------
    # Device <-> tile mapping
    # ------------------------------------------------------------------
    def tile_index_of_coords(self, coords: tuple[int, int]) -> tuple[int, ...]:
        """Tile held by the device at mesh coordinates ``coords``.

        A dimension sharded along mesh axes ``(a, b, ...)`` uses the
        mixed-radix number formed by the device's coordinates on those
        axes (most significant first), matching GSPMD's ``S^{01}``.
        """
        idx = []
        for axes in self.spec.dims:
            k = 0
            for a in axes:
                k = k * self.mesh.shape[a] + coords[a]
            idx.append(k)
        return tuple(idx)

    def device_tile_index(self, device_id: int) -> tuple[int, ...]:
        return self.tile_index_of_coords(self.mesh.coords_of(device_id))

    def device_region(self, device_id: int) -> Region:
        """The tensor region device ``device_id`` holds (memoized)."""
        region = self._device_regions.get(device_id)
        if region is None:
            region = self.tile_region(self.device_tile_index(device_id))
            self._device_regions[device_id] = region
        return region

    def tile_replicas(self, idx: Sequence[int]) -> tuple[int, ...]:
        """All devices holding tile ``idx`` (the slice's replica set).

        Devices are in row-major mesh order.  One pass over the mesh
        indexes every tile the first time any is asked for.
        """
        if self._replicas is None:
            index: dict[tuple[int, ...], list[int]] = {}
            for i, row in enumerate(self.mesh.grid):
                for j, device in enumerate(row):
                    tile = self.tile_index_of_coords((i, j))
                    index.setdefault(tile, []).append(device)
            self._replicas = {k: tuple(v) for k, v in index.items()}
        idx = tuple(idx)
        out = self._replicas.get(idx)
        if out is None:
            raise IndexError(f"no device holds tile {idx}")
        return out

    def overlapping_tiles(self, region: Region) -> Iterator[tuple[int, ...]]:
        """Indices of the tiles ``region`` overlaps, lexicographic.

        Bisects each dimension's boundaries for the tiles the region's
        interval touches; the product of those ranges is the answer.
        """
        return product(
            *(
                range(bisect_right(b, lo) - 1, bisect_left(b, hi))
                for (lo, hi), b in zip(region, self.boundaries)
            )
        )

    def __repr__(self) -> str:
        return (
            f"TileGrid(shape={self.shape}, spec={self.spec}, "
            f"mesh={self.mesh.shape}, shards={self.shards})"
        )
