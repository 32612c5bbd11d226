"""voltlint: static communication verification + dynamic race sanitizing.

The compiler's output is only correct if its orchestrated communication
is: matched queue pairs, cycle-aligned wires, sync-covered memory
dependences, mode barriers, and TM-bracketed DOALL chunks.  This package
proves those properties -- statically over a :class:`CompiledProgram`
(:func:`verify_compiled`), dynamically over a real execution
(:class:`RaceSanitizer`), and adversarially against itself
(:mod:`repro.analysis.mutate`).

Entry points:

* ``repro.api.verify_benchmark(...)`` -- one benchmark cell.
* :func:`verify_cell` -- one compiled cell, static and optionally
  dynamic (:func:`run_sanitized`).
* ``python -m repro.harness.cli verify`` -- the whole grid, CI-style.
"""

from .findings import Finding, VerificationReport, merge_reports
from .mutate import MUTATIONS, MutationRecord, apply_mutation
from .oracle import OracleVerdict, check_benchmark, check_program
from .sanitizer import RaceSanitizer, run_sanitized
from .verifier import ProgramVerifier, verify_cell, verify_compiled

__all__ = [
    "Finding",
    "MUTATIONS",
    "MutationRecord",
    "OracleVerdict",
    "ProgramVerifier",
    "RaceSanitizer",
    "VerificationReport",
    "apply_mutation",
    "check_benchmark",
    "check_program",
    "merge_reports",
    "run_sanitized",
    "verify_cell",
    "verify_compiled",
]
