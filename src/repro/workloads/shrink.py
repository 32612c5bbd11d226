"""Failure shrinking for generated workloads.

When a generated program fails the fuzzing oracle (voltlint, the race
sanitizer, or reference-interpreter bit-identity), the raw recipe is a
poor bug report: it mixes several regions and hundreds of iterations
around whatever actually broke.  :func:`shrink_recipe` minimizes it --
greedily dropping whole regions, then walking every numeric kernel
parameter down toward its floor -- while re-checking the failure after
every candidate step, and :func:`write_repro` persists the result as a
JSON artifact a human (or CI) can replay with one command.

The oracle contract is deliberately simple: a callable from recipe to
``Optional[str]`` -- ``None`` means the recipe passes, a string names
the failure.  Shrinking only accepts steps that *keep failing with some
failure*; it does not insist on the identical message (a smaller repro
that trips the same broken compiler path may word its finding slightly
differently).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .suite import Recipe

#: Recipe oracle: None = passes, str = failure description.
RecipeOracle = Callable[[Recipe], Optional[str]]

#: Per-parameter floors the shrinker will not cross (kernel contracts:
#: e.g. a match loop needs a few elements before its forced mismatch).
_PARAM_FLOORS: Dict[str, int] = {
    "trips": 2,
    "length": 8,
    "work": 1,
    "work_depth": 1,
    "chase_depth": 1,
    "chains": 1,
    "depth": 1,
    "streams": 1,
    "bins": 4,
    "mismatch_at": 2,
}


@dataclass
class ShrinkResult:
    """A minimized failing recipe plus the search's bookkeeping."""

    recipe: Recipe
    failure: str
    #: Oracle invocations spent (the shrink budget actually used).
    checks: int = 0
    #: Regions in the original vs the minimized recipe.
    original_regions: int = 0
    #: Shrink steps that were accepted (region drops + param cuts).
    steps: List[str] = field(default_factory=list)


def _halve_toward(value: int, floor: int) -> int:
    """The next candidate when cutting a parameter: halfway to the
    floor, biased down so progress is guaranteed."""
    return max(floor, floor + (value - floor) // 2)


def shrink_recipe(
    recipe: Recipe,
    oracle: RecipeOracle,
    max_checks: int = 200,
) -> ShrinkResult:
    """Minimize ``recipe`` while ``oracle`` keeps reporting a failure.

    Phase 1 greedily removes regions (rescanning after every successful
    drop, so a failure needing two interacting regions keeps both).
    Phase 2 shrinks every numeric parameter of the surviving regions by
    repeated halving toward its floor.  ``max_checks`` bounds total
    oracle invocations; the best recipe found so far is returned even if
    the budget runs out mid-phase.
    """
    failure = oracle(recipe)
    if failure is None:
        raise ValueError("shrink_recipe needs a failing recipe to start from")
    current: List[Tuple[str, Dict[str, object]]] = [
        (kernel, dict(kwargs)) for kernel, kwargs in recipe
    ]
    result = ShrinkResult(
        recipe=tuple(current),
        failure=failure,
        checks=1,
        original_regions=len(current),
    )

    def try_candidate(candidate, step: str) -> bool:
        if result.checks >= max_checks:
            return False
        result.checks += 1
        verdict = oracle(tuple(candidate))
        if verdict is None:
            return False
        result.failure = verdict
        result.steps.append(step)
        return True

    # Phase 1: drop whole regions, restarting the scan on success so
    # later regions get re-tested against the smaller context.
    progress = True
    while progress and len(current) > 1 and result.checks < max_checks:
        progress = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            kernel = current[index][0]
            if try_candidate(candidate, f"drop region {index} ({kernel})"):
                current = candidate
                progress = True
                break

    # Phase 2: cut numeric parameters toward their floors.
    progress = True
    while progress and result.checks < max_checks:
        progress = False
        for index, (kernel, kwargs) in enumerate(current):
            for key, value in sorted(kwargs.items()):
                if not isinstance(value, int) or isinstance(value, bool):
                    continue
                floor = _PARAM_FLOORS.get(key, 1)
                if value <= floor:
                    continue
                smaller = _halve_toward(value, floor)
                candidate = [(k, dict(kw)) for k, kw in current]
                candidate[index][1][key] = smaller
                step = f"region {index} ({kernel}): {key} {value} -> {smaller}"
                if try_candidate(candidate, step):
                    current = candidate
                    progress = True

    result.recipe = tuple(
        (kernel, dict(kwargs)) for kernel, kwargs in current
    )
    return result


def write_repro(
    artifact_dir: Union[str, Path],
    result: ShrinkResult,
    *,
    handle: str = "",
    seed: Optional[int] = None,
    knobs: Optional[object] = None,
) -> Path:
    """Persist a minimized repro as ``<dir>/repro_<digest>.json``.

    The document carries everything needed to replay without the
    generator's registry: the literal minimized recipe (replayable via
    :func:`repro.workloads.suite.build_recipe`), the originating
    handle/seed/knobs, and the failure text.
    """
    import hashlib

    artifact_dir = Path(artifact_dir)
    artifact_dir.mkdir(parents=True, exist_ok=True)
    document = {
        "schema_version": "1.0",
        "handle": handle,
        "seed": seed,
        "knobs": repr(knobs) if knobs is not None else None,
        "failure": result.failure,
        "checks": result.checks,
        "original_regions": result.original_regions,
        "steps": result.steps,
        "recipe": [
            {"kernel": kernel, "kwargs": kwargs}
            for kernel, kwargs in result.recipe
        ],
    }
    digest = hashlib.sha256(
        json.dumps(document["recipe"], sort_keys=True).encode()
    ).hexdigest()[:12]
    path = artifact_dir / f"repro_{digest}.json"
    with open(path, "w", encoding="utf-8") as handle_file:
        json.dump(document, handle_file, indent=2)
    return path
