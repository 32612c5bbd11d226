"""Property suite: the workload generator vs the full fuzzing oracle.

Every seeded generated program must (1) build and compile on every
oracle cell, (2) pass the voltlint static verifier, (3) execute under
the race sanitizer with no findings and a quiescent network, and
(4) leave final memory bit-identical to the sequential reference
interpreter.  A failure here is a compiler bug found by fuzzing -- the
suite shrinks the offending recipe to a minimized repro and writes it
to an artifact directory before failing, so the find is replayable
without re-running the whole sweep.

Seeding mirrors the chaos suite's ``CHAOS_SEED`` contract:

* ``GEN_SEED`` -- base seed (CI's fuzz job randomizes and echoes it, so
  any failure replays with ``GEN_SEED=<n> pytest
  tests/properties/test_prop_generator.py``).
* ``GEN_COUNT`` -- how many consecutive seeds to check (default 200, the
  committed fuzz floor; CI's smoke slice in the main test job rides the
  same default, the nightly-style fuzz job raises it).
* ``GEN_REPRO_DIR`` -- where minimized repros land (default
  ``.fuzz-repros/``).
* ``GEN_JOURNAL`` -- optional write-ahead journal path making the
  campaign resumable: each seed's oracle verdict is recorded
  (planned/completed/failed) through :class:`repro.harness.RunJournal`,
  and a re-run with the same ``GEN_JOURNAL`` skips every seed whose
  ``completed`` record is already durable -- a killed fuzz job picks up
  where it left off instead of re-fuzzing from seed one.
"""

import atexit
import os

import pytest

from repro.analysis import check_benchmark
from repro.harness.journal import RunJournal
from repro.workloads.generator import (
    GenKnobs,
    build_recipe,
    generate,
    generate_recipe,
    make_handle,
)
from repro.workloads.shrink import shrink_recipe, write_repro

GEN_SEED = int(os.environ.get("GEN_SEED", "1"))
GEN_COUNT = int(os.environ.get("GEN_COUNT", "200"))
GEN_REPRO_DIR = os.environ.get("GEN_REPRO_DIR", ".fuzz-repros")
GEN_JOURNAL = os.environ.get("GEN_JOURNAL")

#: Campaign journal + replay of any prior interrupted campaign, armed
#: only under GEN_JOURNAL.  The journal key is the workload handle
#: (gen:<seed>:<knobs-hash>): it fingerprints seed *and* knobs, so a
#: knob change never lets a stale ``completed`` record skip a seed.
_JOURNAL = None
_REPLAY = None
if GEN_JOURNAL:
    _JOURNAL = RunJournal(
        GEN_JOURNAL,
        resume=True,
        context={"driver": "fuzz", "gen_seed": GEN_SEED,
                 "gen_count": GEN_COUNT},
    )
    _REPLAY = _JOURNAL.replay
    atexit.register(_JOURNAL.close)

#: Fuzz knobs: the default design-space axes with trip counts trimmed so
#: one program's oracle pass stays under ~100 ms -- coverage comes from
#: the number of seeds, not the iteration counts.
FUZZ_KNOBS = GenKnobs(trips=(8, 48))


def _recipe_oracle(recipe):
    """Recipe-level oracle for the shrinker: None = passes."""
    bench = build_recipe(recipe, "shrink_probe", data_seed=GEN_SEED)
    verdict = check_benchmark(bench)
    return None if verdict.ok else verdict.describe()


@pytest.mark.parametrize("seed", range(GEN_SEED, GEN_SEED + GEN_COUNT))
def test_generated_program_passes_full_oracle(seed):
    handle = make_handle(seed, FUZZ_KNOBS)
    cell = (handle, 0, "oracle")
    if _REPLAY is not None and _REPLAY.is_completed(handle):
        pytest.skip(f"{handle}: journaled complete in {GEN_JOURNAL}")
    if _JOURNAL is not None:
        _JOURNAL.record("planned", cell=list(cell), key=handle)
        _JOURNAL.record(
            "dispatched", cell=list(cell), key=handle, attempt=1, mode="fuzz",
        )
    bench = generate(seed, FUZZ_KNOBS)
    verdict = check_benchmark(bench)
    if _JOURNAL is not None:
        if verdict.ok:
            _JOURNAL.record(
                "completed", cell=list(cell), key=handle, source="fuzz",
                attempt=1,
            )
        else:
            _JOURNAL.record(
                "failed", cell=list(cell), key=handle,
                reason=verdict.describe(), attempt=1,
            )
    if not verdict.ok:
        # A real find: minimize it and persist the repro before failing.
        result = shrink_recipe(bench.recipe, _recipe_oracle)
        path = write_repro(
            GEN_REPRO_DIR,
            result,
            handle=bench.name,
            seed=seed,
            knobs=FUZZ_KNOBS,
        )
        pytest.fail(
            f"{bench.name}: {verdict.describe()}; minimized repro "
            f"({result.original_regions} -> {len(result.recipe)} regions) "
            f"written to {path}"
        )


def test_oracle_coverage_counts():
    """The oracle actually runs every advertised referee: all static
    cells, at least one dynamic cell, and the bit-identity check (which
    only happens inside the dynamic pass)."""
    verdict = check_benchmark(generate(GEN_SEED, FUZZ_KNOBS))
    assert verdict.ok
    assert verdict.static_cells == 8  # (2, 4) cores x 4 strategies
    assert verdict.dynamic_cells >= 1


def test_gen_seed_knob_changes_programs():
    """The env seed genuinely varies the population (CI randomizes it):
    consecutive seeds must not collapse onto one recipe."""
    recipes = {
        repr(generate_recipe(seed, FUZZ_KNOBS))
        for seed in range(GEN_SEED, GEN_SEED + 20)
    }
    assert len(recipes) > 1


def test_oracle_static_stage_has_teeth():
    """Anti-oracle-rot: a planted PR-5 miscompile (dropped SEND) must be
    rejected at the static stage -- a fuzzer whose oracle accepts broken
    communication finds nothing."""
    from repro.analysis import apply_mutation

    bench = generate(GEN_SEED, FUZZ_KNOBS)
    verdict = check_benchmark(
        bench,
        max_cycles=500_000,
        mutate=lambda compiled: apply_mutation(compiled, "drop_send"),
    )
    assert not verdict.ok
    assert verdict.stage == "static"


def test_oracle_dynamic_stage_has_teeth():
    """With the static stage bypassed, a dropped RECV must still be
    caught by the execution referees (a race/leak finding or memory
    divergence) -- bit-identity is not decorative."""
    from repro.analysis import apply_mutation

    bench = generate(GEN_SEED, FUZZ_KNOBS)
    verdict = check_benchmark(
        bench,
        static_cells=(),
        max_cycles=500_000,
        mutate=lambda compiled: apply_mutation(compiled, "drop_recv"),
    )
    assert not verdict.ok
    assert verdict.stage in ("dynamic", "bit-identity")


def test_handles_are_population_distinct():
    """Two hundred consecutive handles are two hundred distinct
    programs (fingerprint-level), not aliases of a few shapes."""
    from repro.harness.cache import program_fingerprint

    fingerprints = {
        program_fingerprint(generate(seed, FUZZ_KNOBS).program)
        for seed in range(GEN_SEED, GEN_SEED + 25)
    }
    assert len(fingerprints) == 25


def test_make_handle_matches_generate():
    bench = generate(GEN_SEED, FUZZ_KNOBS)
    assert bench.name == make_handle(GEN_SEED, FUZZ_KNOBS)
