"""Seeded parametric workload generator: arbitrary region mixes on demand.

The 25-recipe suite (:mod:`repro.workloads.suite`) pins down the paper's
figure cells; this module opens the rest of the design space.  A
:class:`GenKnobs` bundle parameterizes the hardware/software TLP axes
surveyed by Mazumdar & Giorgi -- DOALL depth and trip counts, miss-heavy
strand streams, dependence height / ILP width, TM conflict density --
and :func:`generate` composes the existing calibrated kernels into a
random (but fully seeded) recipe under those knobs.

Every generated program is referenced by a stable *handle*::

    gen:<seed>:<knobs-hash>

The knobs hash is a content hash of the knob values, so a handle pins
the exact program bit-for-bit: the same handle always rebuilds the same
IR, on any machine, in any process (the generator draws only from its
own integer PRNG stream, never from global state).  ``gen:<seed>``
abbreviates the default knobs.  Handles flow through the whole stack
uniformly with named benchmarks -- ``repro.workloads.suite.build``,
``repro.api.run_cell`` / ``verify_benchmark``, the CLI, and the result
cache all accept them -- which is what turns the voltlint verifier and
the reference interpreter into a compiler fuzzing oracle: every novel
region mix the generator emits must verify statically, survive the race
sanitizer, and match the sequential interpreter bit-for-bit.

Custom knob bundles must be *registered* (handles carry only the hash);
:func:`register_knobs` returns the handle prefix to use, and the default
bundle is pre-registered.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .kernels import KERNELS, MISS_ARRAY
from .suite import Benchmark, Recipe, build_recipe

#: Handle prefix shared by every generated benchmark.
HANDLE_PREFIX = "gen:"


@dataclass(frozen=True)
class GenKnobs:
    """The generator's design-space axes.

    Every range is inclusive ``(lo, hi)``.  Percent knobs are integers
    in [0, 100] so the knob bundle hashes exactly (no floats).
    """

    #: Regions (= kernel instances) per generated program.
    regions: Tuple[int, int] = (2, 5)
    #: Trip-count range for every loop kernel.
    trips: Tuple[int, int] = (16, 96)
    #: DOALL body depth (the ``work`` chain length).
    doall_work: Tuple[int, int] = (2, 5)
    #: ILP width (independent chains per iteration).
    ilp_chains: Tuple[int, int] = (2, 5)
    #: Dependence height of each ILP chain.
    ilp_depth: Tuple[int, int] = (2, 5)
    #: Concurrent miss streams in a strand region.
    strand_streams: Tuple[int, int] = (2, 3)
    #: DSWP work-chain depth and pointer-chase depth.
    dswp_work: Tuple[int, int] = (3, 7)
    dswp_chase: Tuple[int, int] = (1, 3)
    #: Chance (percent) that an eligible array loop streams a
    #: cache-busting footprint instead of a resident one.
    miss_heavy_pct: int = 25
    #: TM conflict density (percent): scales how often scatter regions
    #: collide.  100 squeezes the histogram key space to a handful of
    #: bins (nearly every speculative iteration pair conflicts); 0
    #: spreads keys so collisions are rare.
    tm_conflict_pct: int = 25
    #: Relative draw weight per kernel family (0 disables a family).
    kernel_weights: Tuple[Tuple[str, int], ...] = (
        ("doall", 3),
        ("ilp", 3),
        ("strand", 2),
        ("dswp", 2),
        ("reduction", 2),
        ("stencil", 2),
        ("match", 1),
        ("serial", 1),
        ("call", 1),
        ("histogram", 1),
    )

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name.endswith("_pct"):
                if not 0 <= value <= 100:
                    raise ValueError(f"{field.name} must be in [0, 100]")
            elif field.name == "kernel_weights":
                if not any(weight > 0 for _, weight in value):
                    raise ValueError("at least one kernel weight must be > 0")
                unknown = [k for k, _ in value if k not in KERNELS]
                if unknown:
                    raise ValueError(f"unknown kernels in weights: {unknown}")
            else:
                lo, hi = value
                if not (1 <= lo <= hi):
                    raise ValueError(
                        f"{field.name} range {value} must satisfy 1 <= lo <= hi"
                    )


DEFAULT_KNOBS = GenKnobs()


def knobs_hash(knobs: GenKnobs) -> str:
    """Stable content hash of a knob bundle (12 hex chars).

    ``GenKnobs`` is a frozen all-int dataclass, so its repr is a
    complete, deterministic rendering -- the same property the result
    cache relies on for :class:`~repro.arch.config.MachineConfig`.
    """
    return hashlib.sha256(repr(knobs).encode()).hexdigest()[:12]


#: Knob bundles addressable from a handle, keyed by their hash.  A
#: handle names its knobs only by hash, so anything but the default
#: bundle must be registered before the handle can be rebuilt.
_REGISTRY: Dict[str, GenKnobs] = {knobs_hash(DEFAULT_KNOBS): DEFAULT_KNOBS}


def register_knobs(knobs: GenKnobs) -> str:
    """Make ``knobs`` addressable from handles; returns its hash."""
    digest = knobs_hash(knobs)
    _REGISTRY[digest] = knobs
    return digest


def knobs_for(digest: str) -> GenKnobs:
    try:
        return _REGISTRY[digest]
    except KeyError:
        raise KeyError(
            f"unknown knobs hash {digest!r}: register the GenKnobs bundle "
            "with register_knobs() before resolving its handles"
        ) from None


def make_handle(seed: int, knobs: Optional[GenKnobs] = None) -> str:
    """The stable ``gen:<seed>:<knobs-hash>`` name of one generated
    program (registering the knobs as a side effect)."""
    knobs = DEFAULT_KNOBS if knobs is None else knobs
    return f"{HANDLE_PREFIX}{seed}:{register_knobs(knobs)}"


def is_generated(name: str) -> bool:
    """True when ``name`` is a generated-benchmark handle."""
    return name.startswith(HANDLE_PREFIX)


def parse_handle(handle: str) -> Tuple[int, GenKnobs]:
    """Split a handle into (seed, knobs).  ``gen:<seed>`` implies the
    default knobs; a full handle's hash must be registered."""
    if not is_generated(handle):
        raise ValueError(f"not a generated-benchmark handle: {handle!r}")
    parts = handle[len(HANDLE_PREFIX):].split(":")
    if len(parts) not in (1, 2) or not parts[0].lstrip("-").isdigit():
        raise ValueError(
            f"malformed handle {handle!r}; expected gen:<seed>[:<knobs-hash>]"
        )
    seed = int(parts[0])
    knobs = DEFAULT_KNOBS if len(parts) == 1 else knobs_for(parts[1])
    return seed, knobs


def _weighted_choice(rng: random.Random, weights: Iterable[Tuple[str, int]]) -> str:
    """Integer-arithmetic weighted draw (``random.choices`` goes through
    floats; this stays bit-stable everywhere)."""
    entries = [(name, weight) for name, weight in weights if weight > 0]
    total = sum(weight for _, weight in entries)
    pick = rng.randrange(total)
    for name, weight in entries:
        pick -= weight
        if pick < 0:
            return name
    raise AssertionError("unreachable")


def _span(rng: random.Random, lo_hi: Tuple[int, int]) -> int:
    lo, hi = lo_hi
    return rng.randrange(lo, hi + 1)


def _pct(rng: random.Random, pct: int) -> bool:
    return rng.randrange(100) < pct


def generate_recipe(seed: int, knobs: Optional[GenKnobs] = None) -> Recipe:
    """Draw one recipe (kernel name + kwargs per region) under ``knobs``.

    The PRNG is seeded from (seed, knobs hash) alone, so the recipe --
    and through :func:`build_recipe` the whole program -- is a pure
    function of the handle.
    """
    knobs = DEFAULT_KNOBS if knobs is None else knobs
    digest = hashlib.sha256(
        f"genrecipe:{seed}:{knobs_hash(knobs)}".encode()
    ).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    recipe: List[Tuple[str, Dict[str, object]]] = []
    for _ in range(_span(rng, knobs.regions)):
        kernel = _weighted_choice(rng, knobs.kernel_weights)
        trips = _span(rng, knobs.trips)
        kwargs: Dict[str, object] = {}
        if kernel == "doall":
            kwargs = {
                "trips": trips,
                "work": _span(rng, knobs.doall_work),
                "miss_heavy": _pct(rng, knobs.miss_heavy_pct),
            }
        elif kernel == "ilp":
            kwargs = {
                "trips": trips,
                "chains": _span(rng, knobs.ilp_chains),
                "depth": _span(rng, knobs.ilp_depth),
                "shuffle": _pct(rng, 50),
            }
        elif kernel == "strand":
            kwargs = {
                "trips": min(trips, MISS_ARRAY // 8),
                "streams": _span(rng, knobs.strand_streams),
            }
        elif kernel == "dswp":
            kwargs = {
                "trips": trips,
                "work_depth": _span(rng, knobs.dswp_work),
                "chase_depth": _span(rng, knobs.dswp_chase),
            }
        elif kernel in ("reduction", "stencil"):
            kwargs = {
                "trips": trips,
                "miss_heavy": _pct(rng, knobs.miss_heavy_pct),
            }
        elif kernel == "match":
            length = max(trips, 8)
            kwargs = {
                "length": length,
                "mismatch_at": rng.randrange(2, max(length - 2, 3)),
            }
        elif kernel == "histogram":
            # TM conflict density: squeezing the key space makes
            # speculative iteration pairs collide (and abort) more often.
            bins = max(4, trips * (100 - knobs.tm_conflict_pct) // 100)
            kwargs = {"trips": trips, "bins": bins}
        else:  # serial, call
            kwargs = {"trips": trips}
        recipe.append((kernel, kwargs))
    return tuple(recipe)


def generate(seed: int, knobs: Optional[GenKnobs] = None) -> Benchmark:
    """Generate the benchmark a handle denotes.

    The build seed (array contents) and the recipe both derive from
    (seed, knobs) only -- a generated benchmark is deliberately immune
    to the harness's build ``seed`` so its cache keys stay stable no
    matter which session rebuilds it.
    """
    knobs = DEFAULT_KNOBS if knobs is None else knobs
    handle = make_handle(seed, knobs)
    data_seed = int.from_bytes(
        hashlib.sha256(f"gendata:{handle}".encode()).digest()[:4], "big"
    )
    return build_recipe(generate_recipe(seed, knobs), handle, data_seed)


def build_generated(handle: str) -> Benchmark:
    """Rebuild the exact program a handle names."""
    seed, knobs = parse_handle(handle)
    return generate(seed, knobs)


def generate_handles(
    count: int, base_seed: int = 1, knobs: Optional[GenKnobs] = None
) -> List[str]:
    """``count`` consecutive handles starting at ``base_seed``."""
    return [make_handle(base_seed + i, knobs) for i in range(count)]
