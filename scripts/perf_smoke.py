"""Performance smoke check for CI.

Two wall-clock guards, both measured as a min-of-N to shrug off scheduler
noise, compared against the committed numbers in
``benchmarks/perf_baseline.json``:

* **quickstart** -- ``examples/quickstart.py`` end to end.  Fails when it
  runs more than ``QUICKSTART_TOLERANCE``x slower than its committed
  baseline: that is the canary for a pathological slowdown in the
  compile/simulate path.
* **driver sequence** -- the Figure 10 (2-core) then Figure 11 (4-core)
  drivers over a six-benchmark subset, two runner instances sharing one
  result-cache directory (so the second run exercises the baseline-cell
  and reference-output cache hits exactly like a real figure session).
  Fails when the sequence is not at least ``DRIVER_MIN_SPEEDUP``x faster
  than the recorded pre-fast-path (seed) wall-clock, scaled by the
  quickstart ratio to normalize away machine-speed differences between
  the box that recorded the baseline and the box running the check.

Both guards run with fault injection off, so they double as the proof
that the destructive-fault recovery hooks (link-layer CRC checks, the
blackout watchdog, degradation gating) are free when dormant: a
fault-free machine never constructs a RecoveryManager -- asserted
outright before timing starts -- and every hook is a single ``is None``
check on the hot path.

Regenerate the baselines on a quiet machine with::

    PYTHONPATH=src python scripts/perf_smoke.py --update
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO / "benchmarks" / "perf_baseline.json"

sys.path.insert(0, str(REPO / "src"))

from repro import api  # noqa: E402

#: Mixed-mode subset: coupled-heavy, decoupled-heavy, and DOALL benchmarks.
SUBSET = ["gsmdecode", "179.art", "171.swim", "epic", "rawcaudio",
          "g721decode"]

#: Quickstart may drift this much before the job fails.
QUICKSTART_TOLERANCE = 2.0

#: The driver sequence must stay at least this much faster than the seed.
DRIVER_MIN_SPEEDUP = 3.0

#: min-of-N repetitions per measurement.
REPEATS = 3


def _min_of(fn, repeats: int = REPEATS) -> float:
    return min(fn() for _ in range(repeats))


def time_quickstart() -> float:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    script = REPO / "examples" / "quickstart.py"

    def once() -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(script)],
            check=True,
            stdout=subprocess.DEVNULL,
            env=env,
        )
        return time.perf_counter() - start

    return _min_of(once)


def time_driver_sequence() -> float:
    def once() -> float:
        with tempfile.TemporaryDirectory() as cache_dir:
            start = time.perf_counter()
            first = api.session(SUBSET, cache_dir=cache_dir)
            api.run_figure("10", runner=first)
            second = api.session(SUBSET, cache_dir=cache_dir)
            api.run_figure("11", runner=second)
            return time.perf_counter() - start

    return _min_of(once)


def check_recovery_hooks_dormant() -> None:
    """A fault-free machine must not pay for the recovery subsystem: no
    RecoveryManager is constructed, the network neither stamps CRCs nor
    adjudicates deliveries, and the stall fast-forward stays armed.  The
    timed runs below then measure the dormant-hook fast path for real."""
    from repro.arch import mesh
    from repro.compiler import VoltronCompiler
    from repro.sim import VoltronMachine
    from repro.workloads.suite import build

    bench = build("rawcaudio")
    config = mesh(4)
    compiled = VoltronCompiler(bench.program).compile("hybrid", config)
    machine = VoltronMachine(compiled, config)
    assert machine.recovery is None, "RecoveryManager built without faults"
    assert machine.network.recovery is None, "network armed without faults"
    assert machine.fast_forward, "fast-forward lost without faults"
    print("recovery hooks  : dormant on the fault-free path (asserted)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite benchmarks/perf_baseline.json with fresh measurements",
    )
    parser.add_argument(
        "--trajectory-out",
        metavar="FILE",
        help="also write the measurements (plus verdict and git revision) "
        "as JSON -- CI uploads these per-run snapshots as the "
        "perf-trajectory artifact",
    )
    args = parser.parse_args(argv)

    check_recovery_hooks_dormant()
    quickstart = time_quickstart()
    driver = time_driver_sequence()
    print(f"quickstart      : {quickstart:.2f}s (min of {REPEATS})")
    print(f"driver sequence : {driver:.2f}s (min of {REPEATS}, "
          f"fig10 2-core + fig11 4-core, {len(SUBSET)} benchmarks)")

    if args.update:
        BASELINE_PATH.write_text(json.dumps({
            "quickstart_s": round(quickstart, 3),
            "driver_sequence_s": round(driver, 3),
            # Measured once at the commit that introduced the fast path, by
            # running the same sequence against the pre-fast-path tree.
            "seed_driver_sequence_s": json.loads(
                BASELINE_PATH.read_text()
            )["seed_driver_sequence_s"] if BASELINE_PATH.exists() else None,
        }, indent=2) + "\n")
        print(f"updated {BASELINE_PATH.relative_to(REPO)}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    # This machine's speed relative to the one that recorded the baseline;
    # used to translate the recorded seed time onto this machine.
    machine_scale = quickstart / baseline["quickstart_s"]
    seed_here = baseline["seed_driver_sequence_s"] * machine_scale
    speedup = seed_here / driver
    print(f"machine scale   : {machine_scale:.2f}x vs baseline box")
    print(f"driver speedup  : {speedup:.2f}x vs seed "
          f"(recorded {baseline['seed_driver_sequence_s']:.2f}s, "
          f"scaled {seed_here:.2f}s)")

    failures = []
    if quickstart > baseline["quickstart_s"] * QUICKSTART_TOLERANCE:
        failures.append(
            f"quickstart regressed: {quickstart:.2f}s > "
            f"{QUICKSTART_TOLERANCE}x baseline "
            f"{baseline['quickstart_s']:.2f}s"
        )
    if speedup < DRIVER_MIN_SPEEDUP:
        failures.append(
            f"driver sequence no longer {DRIVER_MIN_SPEEDUP}x faster than "
            f"seed: {speedup:.2f}x"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("perf smoke OK")

    if args.trajectory_out:
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                cwd=REPO,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            revision = None
        Path(args.trajectory_out).write_text(json.dumps({
            "schema": 1,
            "revision": revision,
            "quickstart_s": round(quickstart, 3),
            "driver_sequence_s": round(driver, 3),
            "machine_scale": round(machine_scale, 3),
            "driver_speedup": round(speedup, 3),
            "quickstart_tolerance": QUICKSTART_TOLERANCE,
            "driver_min_speedup": DRIVER_MIN_SPEEDUP,
            "ok": not failures,
            "failures": failures,
        }, indent=2) + "\n")
        print(f"trajectory      : {args.trajectory_out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
