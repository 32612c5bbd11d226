"""The 25-benchmark synthetic suite standing in for SPEC/MediaBench.

Each benchmark is a recipe of kernels whose mix is calibrated to the
paper's Figure 3 parallelism breakdown and per-benchmark notes: e.g.
179.art is miss-dominated (fine-grain TLP wins), 171.swim/172.mgrid are
DOALL-rich scientific codes, gsmdecode contains both the Fig. 7 DOALL loop
and the Fig. 9 high-ILP filter, 164.gzip contains the Fig. 8 match loop,
197.parser/255.vortex make frequent small calls, and epic is dominated by
pipelineable fine-grain TLP.

``build(name)`` returns a fresh :class:`Benchmark` whose ``program`` can
be profiled, compiled, and simulated; ``outputs`` names the arrays whose
final contents define functional correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from .kernels import KERNELS, KernelContext

#: (kernel name, kwargs) pairs per benchmark.  Order matters: it is the
#: program's sequential region structure.
Recipe = Sequence[Tuple[str, Dict[str, object]]]

RECIPES: Dict[str, Recipe] = {
    # SPEC fp / old SPEC: DOALL-rich scientific codes.
    "052.alvinn": (
        ("doall", {"trips": 256, "work": 4}),
        ("reduction", {"trips": 256}),
        ("ilp", {"trips": 64, "chains": 3}),
        ("serial", {"trips": 32}),
    ),
    "056.ear": (
        ("doall", {"trips": 192, "work": 3}),
        ("ilp", {"trips": 96, "chains": 4}),
        ("reduction", {"trips": 128, "miss_heavy": True}),
    ),
    "132.ijpeg": (
        ("doall", {"trips": 192, "work": 3}),
        ("ilp", {"trips": 128, "chains": 4, "depth": 4}),
        ("strand", {"trips": 48}),
    ),
    "164.gzip": (
        ("match", {"length": 320}),
        ("ilp", {"trips": 96, "chains": 3}),
        ("strand", {"trips": 64}),
        ("serial", {"trips": 48}),
    ),
    "171.swim": (
        ("doall", {"trips": 320, "work": 4, "miss_heavy": True}),
        ("stencil", {"trips": 256, "miss_heavy": True}),
        ("reduction", {"trips": 192}),
    ),
    "172.mgrid": (
        ("stencil", {"trips": 384, "miss_heavy": True}),
        ("reduction", {"trips": 256, "miss_heavy": True}),
        ("serial", {"trips": 24}),
    ),
    "175.vpr": (
        ("ilp", {"trips": 128, "chains": 4}),
        ("strand", {"trips": 96}),
        ("histogram", {"trips": 64}),
        ("call", {"trips": 32}),
    ),
    "177.mesa": (
        ("ilp", {"trips": 160, "chains": 5, "depth": 4}),
        ("ilp", {"trips": 96, "chains": 4}),
        ("doall", {"trips": 96}),
        ("serial", {"trips": 32}),
    ),
    "179.art": (
        ("strand", {"trips": 160, "streams": 3}),
        ("strand", {"trips": 96, "streams": 2}),
        ("reduction", {"trips": 96, "miss_heavy": True}),
        ("serial", {"trips": 24}),
    ),
    "183.equake": (
        ("strand", {"trips": 128, "streams": 2}),
        ("doall", {"trips": 160, "miss_heavy": True}),
        ("ilp", {"trips": 64, "chains": 3}),
    ),
    "197.parser": (
        ("serial", {"trips": 96}),
        ("call", {"trips": 48}),
        ("ilp", {"trips": 96, "chains": 3}),
        ("match", {"length": 128}),
    ),
    "255.vortex": (
        ("ilp", {"trips": 128, "chains": 4}),
        ("call", {"trips": 48}),
        ("serial", {"trips": 64}),
        ("doall", {"trips": 64}),
    ),
    "256.bzip2": (
        ("ilp", {"trips": 128, "chains": 4, "depth": 4}),
        ("strand", {"trips": 96}),
        ("match", {"length": 160}),
        ("serial", {"trips": 48}),
    ),
    # MediaBench.
    "cjpeg": (
        ("doall", {"trips": 192, "work": 3}),
        ("ilp", {"trips": 128, "chains": 4, "depth": 4}),
        ("serial", {"trips": 32}),
    ),
    "djpeg": (
        ("doall", {"trips": 224, "work": 3}),
        ("ilp", {"trips": 96, "chains": 4}),
        ("strand", {"trips": 48}),
    ),
    "epic": (
        ("dswp", {"trips": 192, "work_depth": 6}),
        ("dswp", {"trips": 128, "work_depth": 5}),
        ("doall", {"trips": 96}),
        ("serial", {"trips": 24}),
    ),
    "g721decode": (
        ("ilp", {"trips": 160, "chains": 4, "depth": 4}),
        ("ilp", {"trips": 96, "chains": 3}),
        ("serial", {"trips": 48}),
        ("doall", {"trips": 64}),
    ),
    "g721encode": (
        ("ilp", {"trips": 160, "chains": 4, "depth": 4}),
        ("serial", {"trips": 64}),
        ("reduction", {"trips": 96}),
    ),
    "gsmdecode": (
        # Figure 7's DOALL loop and Figure 9's high-ILP filter.
        ("doall", {"trips": 192, "work": 3}),
        ("ilp", {"trips": 160, "chains": 4, "depth": 5}),
        ("serial", {"trips": 32}),
    ),
    "gsmencode": (
        ("ilp", {"trips": 160, "chains": 4, "depth": 4}),
        ("reduction", {"trips": 160}),
        ("doall", {"trips": 96}),
    ),
    "mpeg2dec": (
        ("doall", {"trips": 224, "work": 3}),
        ("ilp", {"trips": 96, "chains": 4}),
        ("strand", {"trips": 64}),
    ),
    "mpeg2enc": (
        ("doall", {"trips": 256, "work": 4, "miss_heavy": True}),
        ("reduction", {"trips": 192}),
        ("ilp", {"trips": 64, "chains": 3}),
    ),
    "rawcaudio": (
        ("ilp", {"trips": 192, "chains": 4}),
        ("serial", {"trips": 48}),
    ),
    "rawdaudio": (
        ("ilp", {"trips": 176, "chains": 4}),
        ("doall", {"trips": 96}),
    ),
    "unepic": (
        ("dswp", {"trips": 128, "work_depth": 5}),
        ("doall", {"trips": 128}),
        ("ilp", {"trips": 64, "chains": 3}),
    ),
}

BENCHMARKS: Tuple[str, ...] = tuple(RECIPES)


@dataclass
class Benchmark:
    name: str
    program: Program
    outputs: List[str] = field(default_factory=list)
    recipe: Recipe = ()


def build_recipe(recipe: Recipe, name: str, data_seed: int = 1) -> Benchmark:
    """Assemble ``recipe`` into a runnable :class:`Benchmark`: one
    ``main`` whose entry block runs the kernels in order, then halts.
    ``data_seed`` seeds the kernels' array contents.  The one assembly
    path of the suite, the generator, the shrinker (which replays
    reduced recipes) and the Figure 7-9 examples."""
    pb = ProgramBuilder(name.replace(":", "_").replace(".", "_"))
    fb = pb.function("main")
    fb.block("entry")
    ctx = KernelContext(pb=pb, fb=fb, seed=data_seed)
    outputs = []
    for kernel_name, kwargs in recipe:
        outputs.append(KERNELS[kernel_name](ctx, **kwargs))
    fb.halt()
    return Benchmark(
        name=name, program=pb.finish(), outputs=outputs, recipe=recipe
    )


def build(name: str, seed: int = 1) -> Benchmark:
    """Construct one suite benchmark (or generated handle) as a fresh
    program.

    ``gen:<seed>:<knobs-hash>`` handles resolve through the parametric
    generator (:mod:`repro.workloads.generator`) and deliberately ignore
    the build ``seed``: the handle alone pins the program bit-for-bit,
    keeping its content-hash cache keys stable across sessions.
    """
    if name.startswith("gen:"):
        from .generator import build_generated

        return build_generated(name)
    try:
        recipe = RECIPES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {BENCHMARKS}"
        ) from None
    return build_recipe(recipe, name, seed + sum(map(ord, name)))
