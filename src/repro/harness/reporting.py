"""ASCII rendering of experiment results in the paper's row format."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..sim.recovery import REMAP_HOPS_PREFIX


def geomean(values: Iterable[float]) -> float:
    product = 1.0
    count = 0
    for value in values:
        product *= value
        count += 1
    return product ** (1.0 / count) if count else 0.0


def arithmean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def render_table(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    fmt: str = "{:.2f}",
    average_row: bool = True,
) -> str:
    """Render {benchmark: {column: value}} as a fixed-width table."""
    name_width = max([len(name) for name in rows] + [len("benchmark"), 12])
    col_width = max([len(c) for c in columns] + [8])
    lines = [title]
    header = "benchmark".ljust(name_width) + "".join(
        column.rjust(col_width + 2) for column in columns
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, row in rows.items():
        cells = "".join(
            fmt.format(row.get(column, float("nan"))).rjust(col_width + 2)
            for column in columns
        )
        lines.append(name.ljust(name_width) + cells)
    if average_row:
        lines.append("-" * len(header))
        cells = "".join(
            fmt.format(
                arithmean([row.get(column, 0.0) for row in rows.values()])
            ).rjust(col_width + 2)
            for column in columns
        )
        lines.append("average".ljust(name_width) + cells)
    return "\n".join(lines)


def render_cache_line(tallies: Optional[Mapping[str, int]], root=None) -> str:
    """The harness's cache-traffic line over a cache's tallies (a
    ``ResultCache.tallies``, or a sweep document's ``cache`` sums):
    hits/misses, how many entries were quarantined as unreadable, and
    the cache root -- or an explicit marker when caching is off
    (``tallies`` None, ``--no-cache``)."""
    if tallies is None:
        return "cache     : disabled"
    return (
        f"cache     : {tallies['hits']} hit(s), {tallies['misses']} miss(es), "
        f"quarantined={tallies['quarantined']} in {root}"
    )


def render_failure_line(runner) -> str:
    """One line summarizing what the hardened prefetch had to absorb --
    timeouts, retries, serial degradations, worker crashes -- or an
    explicit all-clear (silence would be ambiguous after a chaos run)."""
    summary = getattr(runner, "failure_summary", None)
    failures = summary() if callable(summary) else getattr(
        runner, "failures", None
    )
    lifecycle = getattr(runner, "lifecycle", None)
    return render_failures(
        failures, lifecycle.attempts.values() if lifecycle else ()
    )


def render_failures(failures, attempts: Iterable[int] = ()) -> str:
    """:func:`render_failure_line` over a ``FailureSummary`` and the
    per-cell attempt counts (a sweep sums both over its runners)."""
    if failures is None or not failures.any():
        return "failures  : none"
    parts = []
    if failures.worker_crashes:
        parts.append(f"{failures.worker_crashes} worker crash(es)")
    if failures.cache_quarantined:
        parts.append(
            f"{failures.cache_quarantined} quarantined cache entry(ies)"
        )
    if failures.timed_out:
        parts.append(f"{len(failures.timed_out)} timeout(s)")
    if failures.retried:
        parts.append(f"{len(failures.retried)} retried cell(s)")
    if failures.degraded:
        parts.append(
            f"{len(failures.degraded)} cell(s) re-run serially "
            f"[{', '.join(failures.degraded)}]"
        )
    if failures.abandoned:
        parts.append(
            f"{len(failures.abandoned)} cell(s) abandoned "
            f"[{', '.join(failures.abandoned)}]"
        )
    repeated = [count for count in attempts if count > 1]
    if repeated:
        parts.append(
            f"up to {max(repeated)} attempt(s) over {len(repeated)} cell(s)"
        )
    return "failures  : " + "; ".join(parts)


def render_journal_line(stats: Mapping[str, int], path) -> str:
    """The resumability line over a journal's resume tallies (a runner's
    ``journal_stats``, or a sweep document's ``journal`` sums): how many
    cells were replayed straight from the journal+cache, re-run after
    incomplete history, or abandoned -- and where the journal lives, so
    the resume command is obvious."""
    return (
        f"journal   : {stats['replayed']} replayed / "
        f"{stats['rerun']} re-run / {stats['abandoned']} abandoned "
        f"({path})"
    )


def render_fault_line(runner) -> str:
    """The chaos-mode line (empty when fault injection is off): the
    configuration needed to reproduce the run, plus how many faults
    actually landed."""
    config = getattr(runner, "fault_config", None)
    if config is None:
        return ""
    return (
        f"faults    : profile={config.profile} seed={config.seed} "
        f"rate={config.rate} tm_rate={config.tm_rate} -> "
        f"{getattr(runner, 'fault_injections', 0)} injection(s)"
    )


def render_recovery_line(runner) -> str:
    """The destructive-chaos report line (empty unless the session armed
    destructive faults): every detection/repair counter the recovery
    subsystem accumulated, summed across the session's runs.  Example::

        recovery  : crc_errors=12 drops=9 retransmits=21 fallbacks=0 \
blackouts=4 (86 cycles dark) watchdog=4 rollbacks=4 remaps=2 degraded=0
    """
    config = getattr(runner, "fault_config", None)
    if config is None or getattr(config, "profile", "timing") == "timing":
        return ""
    totals = runner.recovery_totals()
    get = totals.get
    line = (
        f"recovery  : crc_errors={get('crc_errors', 0)} "
        f"drops={get('drops', 0)} retransmits={get('retransmits', 0)} "
        f"fallbacks={get('fallbacks', 0)} blackouts={get('blackouts', 0)} "
        f"({get('blackout_cycles', 0)} cycles dark) "
        f"watchdog={get('watchdog_detections', 0)} "
        f"rollbacks={get('chunk_rollbacks', 0)} "
        f"remaps={get('chunks_remapped', 0)} "
        f"degraded={get('regions_degraded', 0)}"
    )
    # Scale-out channels and the remap-distance histogram only appear
    # when they fired, so snoop/per-pair sessions keep the exact line
    # existing goldens pin down.
    if get("directory_scrubs", 0):
        line += f" dir_scrubs={totals['directory_scrubs']}"
    if get("vlink_reclaims", 0):
        line += f" vlink_reclaims={totals['vlink_reclaims']}"
    histogram = {
        int(key[len(REMAP_HOPS_PREFIX):]): value
        for key, value in totals.items()
        if key.startswith(REMAP_HOPS_PREFIX) and value
    }
    if histogram:
        line += " remap_hops=" + ",".join(
            f"{hops}:{count}" for hops, count in sorted(histogram.items())
        )
    return line


def render_bar_breakdown(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    scale: float = 100.0,
    suffix: str = "%",
) -> str:
    """Render stacked-percentage rows (Fig. 3 / Fig. 14 style)."""
    scaled = {
        name: {column: row.get(column, 0.0) * scale for column in columns}
        for name, row in rows.items()
    }
    return render_table(title, scaled, columns, fmt="{:.1f}" + suffix)
