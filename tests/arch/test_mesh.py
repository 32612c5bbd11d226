"""Unit tests for the 2-D mesh topology and XY routing."""

import pytest

from repro.arch import mesh as mesh_preset
from repro.arch.mesh import DIRECTIONS, Mesh, opposite

#: (d_row, d_col) per direction, spelled independently of the module's.
STEPS = {"east": (0, 1), "west": (0, -1), "north": (-1, 0), "south": (1, 0)}


class TestTopology:
    def test_positions_row_major(self):
        mesh = Mesh(2, 2, 4)
        assert mesh.position(0) == (0, 0)
        assert mesh.position(1) == (0, 1)
        assert mesh.position(2) == (1, 0)
        assert mesh.position(3) == (1, 1)

    def test_neighbors_2x2(self):
        mesh = Mesh(2, 2, 4)
        assert mesh.neighbor(0, "east") == 1
        assert mesh.neighbor(0, "south") == 2
        assert mesh.neighbor(3, "west") == 2
        assert mesh.neighbor(3, "north") == 1

    def test_edge_of_mesh_raises(self):
        mesh = Mesh(2, 2, 4)
        with pytest.raises(ValueError):
            mesh.neighbor(0, "west")
        with pytest.raises(ValueError):
            mesh.neighbor(0, "north")

    def test_partial_last_row(self):
        # 3 cores on a 2x2 grid: position (1,1) does not exist.
        mesh = Mesh(2, 2, 3)
        with pytest.raises(ValueError):
            mesh.neighbor(1, "south")
        assert mesh.neighbor(2, "north") == 0

    def test_neighbors_dict(self):
        mesh = Mesh(2, 2, 4)
        assert mesh.neighbors(0) == {"east": 1, "south": 2}

    def test_opposite(self):
        for direction in DIRECTIONS:
            assert opposite(opposite(direction)) == direction

    def test_core_range_check(self):
        mesh = Mesh(1, 2, 2)
        with pytest.raises(ValueError):
            mesh.position(2)


class TestRouting:
    def test_hops_is_manhattan(self):
        mesh = Mesh(2, 2, 4)
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 1) == 1
        assert mesh.hops(0, 3) == 2
        assert mesh.hops(1, 2) == 2

    def test_route_column_first(self):
        mesh = Mesh(2, 2, 4)
        # XY: 0 -> 1 (fix column) -> 3 (fix row)
        assert mesh.route(0, 3) == [1, 3]
        assert mesh.route(3, 0) == [2, 0]

    def test_route_same_core_is_empty(self):
        mesh = Mesh(2, 2, 4)
        assert mesh.route(2, 2) == []

    def test_direct_path_directions(self):
        mesh = Mesh(2, 2, 4)
        assert mesh.direct_path_directions(0, 3) == ["east", "south"]
        assert mesh.direct_path_directions(3, 0) == ["west", "north"]
        assert mesh.direct_path_directions(0, 1) == ["east"]

    def test_route_length_equals_hops(self):
        mesh = Mesh(3, 3, 9)
        for src in range(9):
            for dst in range(9):
                assert len(mesh.route(src, dst)) == mesh.hops(src, dst)

    def test_route_steps_are_adjacent(self):
        mesh = Mesh(3, 3, 9)
        for src in range(9):
            for dst in range(9):
                current = src
                for step in mesh.route(src, dst):
                    assert mesh.hops(current, step) == 1
                    current = step
                assert current == dst


class TestTables:
    """``Mesh.links`` and ``Mesh.hop_table`` (what the direct wires, the
    queue router and the partitioner read) hold exactly what grid
    arithmetic gives, and a missing hop still raises."""

    @pytest.mark.parametrize("rows,cols,n", [
        (*mesh_preset(16).mesh_shape, 16),
        (*mesh_preset(32).mesh_shape, 32),
        (*mesh_preset(64).mesh_shape, 64),
        (3, 4, 10),  # a partial last row
    ])
    def test_tables_equal_grid_arithmetic(self, rows, cols, n):
        grid = Mesh(rows, cols, n)
        for core in range(n):
            row, col = divmod(core, cols)
            for direction in DIRECTIONS:
                d_row, d_col = STEPS[direction]
                r, c = row + d_row, col + d_col
                if 0 <= r < rows and 0 <= c < cols and r * cols + c < n:
                    assert grid.links[core, direction] == r * cols + c
                    assert grid.neighbor(core, direction) == r * cols + c
                else:
                    assert (core, direction) not in grid.links
                    with pytest.raises(ValueError, match=f"{direction} of core {core}"):
                        grid.neighbor(core, direction)
            for dst in range(n):
                r, c = divmod(dst, cols)
                assert grid.hop_table[core, dst] == abs(row - r) + abs(col - c)
                assert grid.hops(core, dst) == grid.hop_table[core, dst]
        assert len(grid.hop_table) == n * n

    def test_out_of_range_cores_still_raise(self):
        grid = Mesh(2, 2, 3)
        for src, dst in ((0, 3), (-1, 0), (3, 3)):
            with pytest.raises(ValueError, match="out of range"):
                grid.hops(src, dst)
        with pytest.raises(ValueError, match="out of range"):
            grid.neighbor(-1, "east")
        with pytest.raises(KeyError):
            grid.neighbor(0, "up")
