#!/usr/bin/env python3
"""Check that the ledger's workloads still produce their recorded digests.

Each workload named in ``scripts/ledger_digests.json`` runs once through
the ledger (``benchmarks/ledger/bench.py --workload W --seed 1 --seconds 1
--trace 0``); the digest it prints must equal the recorded one.  The
digest hashes every cell's results, so a kernel change that alters any
simulated number fails here.

Usage (from the repository root)::

    python scripts/check_ledger_digests.py

Exit status 1 on any mismatch, and a traceback on a failed run.  A
change that means to move the simulated numbers records the digests it
prints, taken on its parent, in the JSON file.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "scripts" / "ledger_digests.json"
_DIGEST = re.compile(r"^\s*digest ([0-9a-f]{64})\s", re.MULTILINE)


def ledger_digest(workload: str) -> str:
    """Run ``workload`` once (seed 1) and return the digest it prints."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ledger" / "bench.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    found = _DIGEST.search(out)
    if found is None:
        raise RuntimeError(f"{workload}: no digest line in the ledger output:\n{out}")
    return found.group(1)


def main() -> int:
    status = 0
    for workload, expected in json.loads(DIGESTS.read_text()).items():
        digest = ledger_digest(workload)
        ok = digest == expected
        print(f"{workload:12} {digest}  {'ok' if ok else f'MISMATCH (recorded {expected})'}")
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main())
