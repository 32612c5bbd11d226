"""Two-dimensional mesh topology and XY routing.

The scalar operand network connects the cores in a grid (paper Fig. 4a)
with two sets of wires between each pair of adjacent cores (one per
direction).  Direct mode moves one hop per cycle along compiler-chosen
PUT/GET chains; queue mode routes messages with dimension-order (XY)
routing, the deterministic policy implied by "the router will find a path
from the sender to the receiver".
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

DIRECTIONS = ("east", "west", "north", "south")

#: (d_row, d_col) for each direction; north decreases the row index.
_DELTAS: Dict[str, Tuple[int, int]] = {
    "east": (0, 1),
    "west": (0, -1),
    "north": (-1, 0),
    "south": (1, 0),
}

_OPPOSITE = {"east": "west", "west": "east", "north": "south", "south": "north"}


def opposite(direction: str) -> str:
    return _OPPOSITE[direction]


class Mesh:
    """Core placement and routing on a rows x cols grid.

    The hot lookups are tables built once per shape and shared by every
    mesh of that shape (nothing writes them): ``links`` maps ``(core,
    direction)`` to the core one hop away, for every hop on the mesh,
    and ``hop_table`` maps ``(src, dst)`` to their Manhattan distance.
    """

    def __init__(self, rows: int, cols: int, n_cores: int) -> None:
        if rows * cols < n_cores:
            raise ValueError("mesh too small")
        self.rows = rows
        self.cols = cols
        self.n_cores = n_cores
        self.links, self.hop_table = _tables(rows, cols, n_cores)

    def position(self, core: int) -> Tuple[int, int]:
        self._check(core)
        return divmod(core, self.cols)

    def core_at(self, row: int, col: int) -> int:
        core = row * self.cols + col
        self._check(core)
        return core

    def neighbor(self, core: int, direction: str) -> int:
        """Core one hop away in ``direction``; raises if off the mesh."""
        neighbor = self.links.get((core, direction))
        if neighbor is None:
            self._check(core)
            _hop(self.rows, self.cols, self.n_cores, core, direction)  # raises
        return neighbor

    def neighbors(self, core: int) -> Dict[str, int]:
        result = {}
        for direction in DIRECTIONS:
            try:
                result[direction] = self.neighbor(core, direction)
            except ValueError:
                continue
        return result

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two cores."""
        hops = self.hop_table.get((src, dst))
        if hops is None:
            self._check(src)
            self._check(dst)
        return hops

    def route(self, src: int, dst: int) -> List[int]:
        """Dimension-order route: XY (column first), falling back to YX
        when the mesh's last row is partial and the XY path would cross a
        position with no core.  Returns the cores visited, excluding
        ``src`` and including ``dst``; empty when ``src == dst``.
        """
        self._check(src)
        self._check(dst)
        for column_first in (True, False):
            try:
                return self._dimension_route(src, dst, column_first)
            except ValueError:
                continue
        raise ValueError(f"no dimension-order route from {src} to {dst}")

    def _dimension_route(
        self, src: int, dst: int, column_first: bool
    ) -> List[int]:
        path: List[int] = []
        row, col = self.position(src)
        dst_row, dst_col = self.position(dst)

        def walk_cols() -> None:
            nonlocal col
            while col != dst_col:
                col += 1 if dst_col > col else -1
                path.append(self.core_at(row, col))

        def walk_rows() -> None:
            nonlocal row
            while row != dst_row:
                row += 1 if dst_row > row else -1
                path.append(self.core_at(row, col))

        if column_first:
            walk_cols()
            walk_rows()
        else:
            walk_rows()
            walk_cols()
        return path

    def direct_path_directions(self, src: int, dst: int) -> List[str]:
        """Directions for a PUT/GET hop chain along the XY route."""
        directions: List[str] = []
        current = src
        for nxt in self.route(src, dst):
            for direction in DIRECTIONS:
                try:
                    if self.neighbor(current, direction) == nxt:
                        directions.append(direction)
                        break
                except ValueError:
                    continue
            else:
                raise AssertionError("route step is not a mesh hop")
            current = nxt
        return directions

    def _check(self, core: int) -> None:
        if not 0 <= core < self.n_cores:
            raise ValueError(f"core {core} out of range (n={self.n_cores})")


def _hop(rows: int, cols: int, n_cores: int, core: int, direction: str) -> int:
    """The core one hop from ``core`` in ``direction``; raises if off the mesh."""
    row, col = divmod(core, cols)
    d_row, d_col = _DELTAS[direction]
    new_row, new_col = row + d_row, col + d_col
    if not (0 <= new_row < rows and 0 <= new_col < cols):
        raise ValueError(f"no neighbor {direction} of core {core}")
    neighbor = new_row * cols + new_col
    if neighbor >= n_cores:
        raise ValueError(f"no core {direction} of core {core}")
    return neighbor


@lru_cache(maxsize=None)
def _tables(
    rows: int, cols: int, n_cores: int
) -> Tuple[Dict[Tuple[int, str], int], Dict[Tuple[int, int], int]]:
    """``(links, hop_table)`` of a rows x cols mesh of ``n_cores`` cores
    (see :class:`Mesh`), computed once per shape."""
    links = {}
    for core in range(n_cores):
        for direction in DIRECTIONS:
            try:
                links[core, direction] = _hop(rows, cols, n_cores, core, direction)
            except ValueError:
                continue
    places = [divmod(core, cols) for core in range(n_cores)]
    hop_table = {
        (src, dst): abs(r1 - r2) + abs(c1 - c2)
        for src, (r1, c1) in enumerate(places)
        for dst, (r2, c2) in enumerate(places)
    }
    return links, hop_table
