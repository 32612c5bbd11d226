"""On-disk result cache for simulation runs.

A run is fully determined by the benchmark *program* (every op, block
edge, and every array's initial contents), the *machine configuration*,
and the build *seed* -- so cache keys are sha256 content hashes of
exactly that fingerprint, plus the (n_cores, strategy, max_cycles) cell
coordinates.  The fingerprint renders each array's contents as one line:
their length and a sha256 over the values packed as little-endian int64
when every value is exactly an ``int`` in range, or over their ``repr``
otherwise (so ``1``, ``True`` and ``1.0`` still key apart).
Content hashing (rather than keying on the benchmark name) means a
workload-generator change invalidates stale entries automatically, and
sha256 (rather than Python's per-process randomized ``hash()``) keeps
keys stable across processes, so parallel workers and later invocations
share one cache.

A key is a per-program prefix (the version tag and the fingerprint) plus
a per-cell suffix.  :class:`ProgramKey` renders a program's fingerprint
once, on first use, and every cell and reference key of that program
hashes on from the rendered prefix; the runner keeps one per program, so
it renders each program once however many cells it keys.

Each entry is one JSON file ``<key>.json`` under the cache root, written
atomically (temp file + rename) so concurrent workers never observe a
torn entry.  Entries are wrapped in a ``{"cache_version", "payload"}``
envelope; a read that finds anything else -- truncated JSON, a raw
payload from an older layout, the wrong version -- is a *miss*, never an
exception, and the offending file is quarantined (renamed to
``<name>.corrupt``) so it cannot poison the next probe.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from ..arch.config import MachineConfig
from ..isa.program import Program

#: Bump when the cached payload layout changes: old entries simply miss.
#: 3: RunResult payloads gained schema_version + metrics; v2 entries are
#: quarantined as misses on first probe (same path as corrupt files).
#: 4: the fingerprint hashes each array's contents instead of listing
#: every word, and blocks no longer render a mode and region.
CACHE_VERSION = 4


def _contents_line(values: Sequence[Any]) -> str:
    """An array's initial contents as one line: their count and a sha256
    tagged ``q`` (little-endian int64 words) or ``repr`` (anything else)."""
    if set(map(type, values)) <= {int}:
        try:
            packed = array("q", values)
        except OverflowError:
            pass
        else:
            if sys.byteorder == "big":
                packed.byteswap()
            return f" init {len(values)} q {hashlib.sha256(packed).hexdigest()}"
    text = "\n".join(map(repr, values)).encode()
    return f" init {len(values)} repr {hashlib.sha256(text).hexdigest()}"


def program_fingerprint(program: Program) -> str:
    """A deterministic text rendering of everything that affects a run:
    functions (in definition order), block structure, every operation,
    and the arrays with their initial contents."""
    lines = [f"program {program.name} entry={program.entry}"]
    for name, function in program.functions.items():
        lines.append(f"function {name} params={function.params!r}")
        for block in function.ordered_blocks():
            lines.append(f" block {block.label} taken={block.taken} fall={block.fall}")
            for op in block.ops:
                lines.append(f"  {op!r}")
    for name in sorted(program.arrays):
        symbol = program.arrays[name]
        lines.append(f"array {name} base={symbol.base} size={symbol.size}")
        lines.append(_contents_line(symbol.init))
    return "\n".join(lines)


class ProgramKey:
    """The key-derivation state of one program: the sha256 state after
    the cell prefix ``v<CACHE_VERSION>\\n<fingerprint>`` and the finished
    reference key.  The fingerprint is rendered lazily, by whichever of
    :func:`cache_key` and :func:`reference_key` comes first, and only its
    hashes are kept.  Valid while the program is unchanged -- compiling
    and simulating never mutate it."""

    __slots__ = ("_program", "_prefix", "_reference")

    def __init__(self, program: Program) -> None:
        self._program: Optional[Program] = program
        self._prefix: Any = None
        self._reference = ""

    def _render(self) -> None:
        if self._program is None:
            return
        text = program_fingerprint(self._program).encode()
        self._program = None
        self._prefix = hashlib.sha256(f"v{CACHE_VERSION}\n".encode())
        self._prefix.update(text)
        reference = hashlib.sha256(f"v{CACHE_VERSION} reference\n".encode())
        reference.update(text)
        self._reference = reference.hexdigest()

    def cell_prefix(self) -> Any:
        """A fresh copy of the hash state after the cell prefix."""
        self._render()
        return self._prefix.copy()

    @property
    def reference(self) -> str:
        self._render()
        return self._reference


def cache_key(
    program_key: ProgramKey,
    config: MachineConfig,
    seed: int,
    strategy: str,
    max_cycles: int,
    extra: str = "",
) -> str:
    """sha256 over the full run fingerprint.  ``MachineConfig`` is a frozen
    dataclass tree, so its repr is a complete, stable rendering (rendered
    once per config, ``MachineConfig.rendered``).  ``extra``
    folds in any additional run-shaping state (e.g. a fault-injection
    configuration) so perturbed runs never share entries with clean ones."""
    digest = program_key.cell_prefix()
    digest.update(f"\nconfig {config.rendered}".encode())
    digest.update(f"\nseed {seed} strategy {strategy} "
                  f"max_cycles {max_cycles}".encode())
    if extra:
        digest.update(f"\n{extra}".encode())
    return digest.hexdigest()


def reference_key(program_key: ProgramKey) -> str:
    """Key of the reference interpreter's output arrays: they depend
    only on the program itself, not on any machine or strategy."""
    return program_key.reference


def fsync_path(path: Path) -> None:
    """fsync a file or directory by path, so a just-written file or a
    just-created/renamed directory entry survives power loss.  Best
    effort: some platforms/filesystems refuse to open or fsync a
    directory, and durability there degrades gracefully."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class ResultCache:
    """A directory of JSON run results, keyed by content hash."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    @property
    def tallies(self) -> Dict[str, int]:
        """Probe traffic so far, as the report line and the sweep read it."""
        return {"hits": self.hits, "misses": self.misses, "quarantined": self.quarantined}

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # Truncated/garbled entry (a worker killed mid-write before the
            # atomic rename existed, disk trouble, manual tampering): treat
            # as a miss and move the file aside so it never re-offends.
            self.misses += 1
            self._quarantine(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("cache_version") != CACHE_VERSION
            or "payload" not in envelope
        ):
            # Parseable but not ours: raw pre-envelope payloads, foreign
            # JSON, or an entry from a different CACHE_VERSION.
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return envelope["payload"]

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        envelope = {"cache_version": CACHE_VERSION, "payload": payload}
        # Atomic, *durable* publish: the temp file is fsynced before the
        # rename and the directory entry after it, so a concurrent reader
        # sees the old entry or the new one -- and a SIGKILL or power
        # loss immediately after store() cannot leave a zero-length or
        # torn file behind the rename.  The run journal leans on this:
        # its ``completed`` records promise a durable cache entry.
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._path(key))
            fsync_path(self.root)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _quarantine(self, path: Path) -> None:
        """Rename a bad entry to ``<name>.corrupt`` (unlink if the rename
        itself fails); quarantine never raises -- a cache problem must
        degrade to a miss, not kill the experiment."""
        self.quarantined += 1
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
