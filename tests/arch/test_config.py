"""Unit tests for machine configurations."""

import pytest

from repro.arch.config import CacheConfig, MachineConfig, NetworkConfig, mesh


class TestCacheConfig:
    def test_paper_l1_geometry(self):
        # 4 kB 2-way with 32 B lines -> 1024 words, 64 sets.
        l1 = CacheConfig(size_words=1024, associativity=2)
        assert l1.n_sets == 64

    def test_paper_l2_geometry(self):
        l2 = CacheConfig(size_words=32768, associativity=4, hit_latency=7)
        assert l2.n_sets == 1024

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_words=1000, associativity=3)


class TestNetworkConfig:
    def test_queue_latency_matches_paper(self):
        # 2 cycles + 1 per hop (Section 3.1).
        net = NetworkConfig()
        assert net.queue_latency(1) == 3
        assert net.queue_latency(2) == 4

    def test_direct_latency_is_one_per_hop(self):
        net = NetworkConfig()
        assert net.direct_cycles_per_hop == 1


class TestMachineConfig:
    def test_presets(self):
        assert mesh(1).n_cores == 1
        assert mesh(2).mesh_shape == (1, 2)
        assert mesh(4).mesh_shape == (2, 2)

    def test_mesh_helper_presets_and_general(self):
        assert mesh(1).n_cores == 1
        assert mesh(4).mesh_shape == (2, 2)
        cfg8 = mesh(8)
        rows, cols = cfg8.mesh_shape
        assert rows * cols >= 8

    def test_mesh_too_small_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(n_cores=4, mesh_shape=(1, 2))

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(n_cores=0, mesh_shape=(1, 1))

    def test_coupled_group_limit_default_is_four(self):
        # "coupling more than 4 cores is rare", Section 3.2.
        assert mesh(4).coupled_group_size == 4

    def test_configs_are_frozen(self):
        config = mesh(4)
        with pytest.raises(Exception):
            config.n_cores = 8
