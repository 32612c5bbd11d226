"""The redesigned machine-spec API: mesh shapes for arbitrary core
counts, the preset registry, and resolve_machine."""

import pytest

from repro.arch.config import (
    MachineConfig,
    NetworkConfig,
    list_presets,
    mesh,
    preset,
    resolve_machine,
)
from repro.arch.mesh import Mesh


class TestMeshShapes:
    def test_small_counts_return_paper_presets(self):
        assert mesh(1) == MachineConfig(n_cores=1, mesh_shape=(1, 1))
        assert mesh(2) == MachineConfig(n_cores=2, mesh_shape=(1, 2))
        assert mesh(4) == MachineConfig(n_cores=4, mesh_shape=(2, 2))

    @pytest.mark.parametrize(
        "n,shape",
        [(6, (2, 3)), (8, (2, 4)), (9, (3, 3)), (12, (3, 4)),
         (16, (4, 4)), (32, (4, 8)), (64, (8, 8))],
    )
    def test_composite_counts_keep_their_shapes(self, n, shape):
        assert mesh(n).mesh_shape == shape

    @pytest.mark.parametrize(
        "n,shape",
        [(7, (2, 4)), (13, (3, 5)), (17, (3, 6)), (31, (4, 8))],
    )
    def test_prime_counts_get_near_square_rectangles(self, n, shape):
        """Primes no longer degenerate to a 1xN chain: the enclosing
        rectangle is near-square with the holes at the tail."""
        config = mesh(n)
        assert config.mesh_shape == shape
        rows, cols = config.mesh_shape
        assert rows * cols >= n
        # Near-square: perimeter within 2 of the perfect square's.
        root = int(n**0.5) + 1
        assert rows + cols <= 2 * root + 1

    @pytest.mark.parametrize("n", [7, 13, 17, 23, 31])
    def test_holey_meshes_still_route_between_all_pairs(self, n):
        rows, cols = mesh(n).mesh_shape
        grid = Mesh(rows, cols, n)
        for a in range(n):
            for b in range(n):
                if a != b:
                    assert grid.hops(a, b) >= 1

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            mesh(0)


class TestPresets:
    def test_registry_covers_sizes_and_coherence_variants(self):
        names = list_presets()
        assert len(names) == 18
        for base in ("single", "two", "four", "mesh16", "mesh32", "mesh64"):
            assert base in names
            assert f"{base}-snoop" in names
            assert f"{base}-directory" in names

    def test_preset_core_counts(self):
        assert preset("single").n_cores == 1
        assert preset("mesh16").n_cores == 16
        assert preset("mesh64").n_cores == 64

    def test_coherence_variants(self):
        assert preset("mesh32").coherence == "snoop"
        assert preset("mesh32-snoop").coherence == "snoop"
        assert preset("mesh32-directory").coherence == "directory"

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            preset("mesh128")


class TestResolveMachine:
    def test_int_builds_a_mesh(self):
        assert resolve_machine(16) == mesh(16)

    def test_string_uses_the_registry(self):
        assert resolve_machine("mesh16-directory") == preset("mesh16-directory")

    def test_config_passes_through(self):
        config = mesh(4)
        assert resolve_machine(config) is config

    def test_bool_is_not_a_core_count(self):
        with pytest.raises(TypeError):
            resolve_machine(True)

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError):
            resolve_machine("mesh128")

    def test_other_types_raise(self):
        with pytest.raises(TypeError):
            resolve_machine(4.0)


class TestConfigValidation:
    def test_rejects_unknown_coherence(self):
        with pytest.raises(ValueError):
            MachineConfig(n_cores=4, coherence="mesi")

    def test_rejects_unknown_queue_policy(self):
        with pytest.raises(ValueError):
            NetworkConfig(queue_policy="token-ring")

    def test_rejects_non_positive_queue_depth(self):
        with pytest.raises(ValueError):
            NetworkConfig(queue_depth=0)

    def test_rejects_negative_latencies(self):
        with pytest.raises(ValueError):
            MachineConfig(n_cores=4, directory_latency=-1)
        with pytest.raises(ValueError):
            MachineConfig(n_cores=4, cluster_stall_latency=-1)
