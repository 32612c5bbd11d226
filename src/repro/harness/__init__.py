"""Experiment harness: the cell engine, the figure table, and the CLI."""

from .cache import (
    CACHE_VERSION,
    ProgramKey,
    ResultCache,
    cache_key,
    program_fingerprint,
    reference_key,
)
from .experiments import (
    ExperimentRunner,
    FailureSummary,
    RunResult,
    SINGLE_STRATEGIES,
)
from .journal import (
    JOURNAL_VERSION,
    JournalReplay,
    RunJournal,
    flush_on_signals,
    read_journal,
)
from .reporting import (
    arithmean,
    geomean,
    render_bar_breakdown,
    render_cache_line,
    render_failure_line,
    render_fault_line,
    render_journal_line,
    render_recovery_line,
    render_table,
)
from .trace import TraceEvent, Tracer

__all__ = [
    "CACHE_VERSION",
    "ExperimentRunner",
    "FailureSummary",
    "JOURNAL_VERSION",
    "JournalReplay",
    "ProgramKey",
    "ResultCache",
    "RunJournal",
    "RunResult",
    "SINGLE_STRATEGIES",
    "arithmean",
    "cache_key",
    "flush_on_signals",
    "geomean",
    "program_fingerprint",
    "read_journal",
    "reference_key",
    "render_bar_breakdown",
    "render_cache_line",
    "render_failure_line",
    "render_fault_line",
    "render_journal_line",
    "render_recovery_line",
    "render_table",
    "TraceEvent",
    "Tracer",
]
