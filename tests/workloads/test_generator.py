"""The parametric generator's contracts: determinism, handles, knobs.

The load-bearing property is *handle determinism*: a
``gen:<seed>:<knobs-hash>`` handle pins one program bit-for-bit, across
builds, processes, and harness seeds -- that is what lets generated
workloads share the content-hash result cache with named benchmarks.
"""

import pytest

from repro.harness.cache import ProgramKey, cache_key, program_fingerprint
from repro.harness.experiments import ExperimentRunner
from repro.workloads.generator import (
    DEFAULT_KNOBS,
    GenKnobs,
    build_generated,
    generate,
    generate_handles,
    generate_recipe,
    is_generated,
    knobs_hash,
    make_handle,
    parse_handle,
    register_knobs,
)
from repro.workloads.suite import BENCHMARKS, build


class TestDeterminism:
    def test_same_seed_and_knobs_is_byte_identical_ir(self):
        """Two independent builds of one handle: identical fingerprint
        (the exact text the result cache hashes)."""
        a = generate(42)
        b = generate(42)
        assert a.recipe == b.recipe
        assert program_fingerprint(a.program) == program_fingerprint(b.program)

    def test_identical_run_result_across_two_builds(self):
        """Same handle, two fresh runners: the *entire* serialized
        RunResult matches -- cycles, stats, region table, everything.
        Guards the cache content-hash against nondeterministic
        generation."""
        handle = make_handle(13)
        results = []
        for _ in range(2):
            runner = ExperimentRunner(benchmarks=[handle])
            results.append(runner.run(handle, 2, "hybrid").to_dict())
        assert results[0] == results[1]

    def test_build_seed_does_not_leak_into_generated_programs(self):
        """The harness build seed must not perturb a generated program
        (the handle alone pins it), or cache keys would drift between
        sessions with different seeds."""
        a = build(make_handle(5), seed=1)
        b = build(make_handle(5), seed=999)
        assert program_fingerprint(a.program) == program_fingerprint(b.program)

    def test_different_seeds_differ(self):
        assert generate_recipe(1) != generate_recipe(2) or (
            program_fingerprint(generate(1).program)
            != program_fingerprint(generate(2).program)
        )

    def test_knobs_steer_generation(self):
        wide = GenKnobs(regions=(6, 6))
        narrow = GenKnobs(regions=(1, 1))
        assert len(generate_recipe(3, wide)) == 6
        assert len(generate_recipe(3, narrow)) == 1


class TestHandles:
    def test_handle_round_trip(self):
        knobs = GenKnobs(trips=(8, 16), regions=(1, 2))
        handle = make_handle(9, knobs)
        seed, parsed = parse_handle(handle)
        assert seed == 9
        assert parsed == knobs

    def test_short_handle_means_default_knobs(self):
        assert parse_handle("gen:4") == (4, DEFAULT_KNOBS)

    def test_unregistered_hash_rejected(self):
        with pytest.raises(KeyError, match="register"):
            parse_handle("gen:1:000000000000")

    def test_malformed_handles_rejected(self):
        for bad in ("gen:", "gen:x", "gen:1:2:3", "rawcaudio"):
            with pytest.raises(ValueError):
                parse_handle(bad)

    def test_is_generated(self):
        assert is_generated("gen:1")
        assert not is_generated("rawcaudio")

    def test_knobs_hash_is_content_addressed(self):
        assert knobs_hash(GenKnobs()) == knobs_hash(GenKnobs())
        assert knobs_hash(GenKnobs()) != knobs_hash(GenKnobs(trips=(8, 16)))
        digest = register_knobs(GenKnobs(trips=(8, 16)))
        assert len(digest) == 12

    def test_generate_handles_sequence(self):
        handles = generate_handles(3, base_seed=10)
        assert [parse_handle(h)[0] for h in handles] == [10, 11, 12]

    def test_suite_build_delegates(self):
        handle = make_handle(6)
        bench = build(handle)
        assert bench.name == handle
        assert bench.outputs
        assert bench.recipe

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            GenKnobs(trips=(0, 4))
        with pytest.raises(ValueError):
            GenKnobs(miss_heavy_pct=101)
        with pytest.raises(ValueError):
            GenKnobs(kernel_weights=(("doall", 0),))
        with pytest.raises(ValueError):
            GenKnobs(kernel_weights=(("nope", 1),))


class TestCacheKeyStability:
    def test_gen_cell_keys_stable_across_runners(self):
        """The satellite fix: generated handles key the result cache as
        stably as named benchmarks -- two independent sessions compute
        the same key for the same cell."""
        handle = make_handle(21)
        keys = [
            ExperimentRunner(benchmarks=[handle])._cell_key(handle, 4, "tlp")
            for _ in range(2)
        ]
        assert keys[0] == keys[1]

    def test_gen_and_named_keys_share_one_space(self):
        """Handles and names hash through the identical fingerprint
        path, and distinct programs never collide."""
        handle = make_handle(21)
        runner = ExperimentRunner(benchmarks=[handle, "rawcaudio"])
        assert runner._cell_key(handle, 4, "tlp") != runner._cell_key(
            "rawcaudio", 4, "tlp"
        )

    def test_direct_cache_key_matches_runner_key(self):
        handle = make_handle(33)
        runner = ExperimentRunner(benchmarks=[handle])
        expected = cache_key(
            ProgramKey(build_generated(handle).program),
            runner.machine_config(4),
            runner.seed,
            "hybrid",
            runner.max_cycles,
        )
        assert runner._cell_key(handle, 4, "hybrid") == expected


class TestTmConflictKnob:
    def test_density_squeezes_histogram_bins(self):
        dense = GenKnobs(
            tm_conflict_pct=100, kernel_weights=(("histogram", 1),)
        )
        sparse = GenKnobs(
            tm_conflict_pct=0, kernel_weights=(("histogram", 1),)
        )
        dense_bins = [
            kwargs["bins"] for _, kwargs in generate_recipe(5, dense)
        ]
        sparse_bins = [
            kwargs["bins"] for _, kwargs in generate_recipe(5, sparse)
        ]
        assert max(dense_bins) == 4  # everything collides
        assert min(sparse_bins) > 4

    def test_generated_names_avoid_suite_collisions(self):
        assert not any(name.startswith("gen:") for name in BENCHMARKS)
