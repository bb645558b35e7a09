"""Sweep bookkeeping: the journal, the crash ledger, and report types.

The paper's figures come from (workload × configuration) sweeps that can
run for hours at full scale; a crash in cell 47 of 60 must not cost the
previous 46.  The runner that executes those sweeps is
:func:`repro.resilience.supervisor.run_resilient_sweep` (every cell in
its own supervised OS process).  This module holds the state it keeps
between cells and across runs:

* :class:`SweepJournal` — a JSON-lines checkpoint journal: every
  completed cell is appended (and fsynced) under a fingerprint of the
  matrix, so an interrupted sweep resumes exactly where it stopped;
* :class:`CrashLedger` — per-cell worker-crash tallies kept beside the
  journal, so a poison cell is quarantined across ``--resume`` cycles;
* :class:`SweepCell` / :class:`SweepReport` — partial-result reporting
  that distinguishes ``ok``, ``resumed``, ``failed``, ``timeout`` and the
  other cell outcomes instead of silently dropping them;
* :func:`result_row` — the stable journal row of one finished cell.

Determinism contract: a resumed sweep produces byte-identical result rows
to an uninterrupted one, because rows for already-completed cells are
replayed verbatim from the journal and fresh cells are seeded exactly as
the original run would have seeded them.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.experiments import ExperimentSettings
from ..errors import SweepError
from ..ioutils import atomic_write_json, atomic_write_text

#: Journal schema version.  v2 adds ``{"kind": "quarantined", ...}`` rows
#: (poison cells the supervisor gave up on); v1 journals had no ``kind``
#: discriminator, so mis-parsing them silently would surface quarantine
#: rows as missing cells — loading rejects any other version outright.
JOURNAL_VERSION = 2


def result_row(result) -> dict:
    """Stable JSON-serializable row for one finished cell.

    Only derived scalars — floats serialize via ``repr`` (shortest
    round-trip form), so identical simulations yield identical bytes.
    """
    return {
        "workload": result.workload,
        "configuration": result.configuration,
        "accesses": result.accesses,
        "instructions": result.instructions,
        "l1_misses": result.l1_misses,
        "l2_misses": result.l2_misses,
        "page_walks": result.page_walks,
        "total_energy_pj": result.total_energy_pj,
        "energy_per_access_pj": result.energy_per_access_pj,
        "l1_mpki": result.l1_mpki,
        "l2_mpki": result.l2_mpki,
        "miss_cycles": result.miss_cycles,
        "faulted_accesses": result.faulted_accesses,
    }


def _fingerprint(
    workload_names: list[str],
    config_names: tuple[str, ...],
    settings: ExperimentSettings,
) -> dict:
    return {
        "workloads": list(workload_names),
        "configurations": list(config_names),
        "trace_accesses": settings.trace_accesses,
        "seed": settings.seed,
        "thp_coverage": settings.thp_coverage,
        "physical_bytes": settings.physical_bytes,
    }


def _cell_key(workload_name: str, config_name: str) -> str:
    return f"{workload_name}|{config_name}"


@dataclass(slots=True)
class JournalState:
    """Everything a resume needs from a journal: rows and quarantines."""

    completed: dict[str, dict] = field(default_factory=dict)
    quarantined: dict[str, dict] = field(default_factory=dict)


class SweepJournal:
    """Append-only JSON-lines checkpoint of completed sweep cells.

    Line 1 is a header with the matrix fingerprint; each further line is
    either a completed cell ``{"key": ..., "row": {...}}`` or a poison
    cell ``{"kind": "quarantined", "key": ..., "crashes": N, "error":
    ...}``.  Appends are flushed and fsynced so a kill loses at most the
    cell in flight; a torn trailing line (partial write) is tolerated and
    ignored on load.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def start(self, fingerprint: dict) -> None:
        """Atomically (re)create the journal with a fresh header.

        Atomic replace, not truncate-then-write: a kill between truncation
        and the header write would otherwise leave an empty journal that a
        later ``--resume`` rejects as corrupt.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {"journal_version": JOURNAL_VERSION, "fingerprint": fingerprint},
            sort_keys=True,
        )
        atomic_write_text(self.path, header + "\n")

    def load(self, fingerprint: dict) -> dict[str, dict]:
        """Completed rows keyed by cell; validates the fingerprint."""
        return self.load_state(fingerprint).completed

    def load_state(self, fingerprint: dict | None) -> JournalState:
        """Full journal state (completed + quarantined cells).

        Validates the schema version and — unless ``fingerprint`` is
        ``None`` — that the journal belongs to the requested matrix.
        """
        if not self.exists():
            raise SweepError(f"no journal to resume at {self.path}")
        state = JournalState()
        with open(self.path) as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise SweepError(f"journal {self.path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise SweepError(f"journal {self.path} has a corrupt header") from exc
        version = header.get("journal_version")
        if version != JOURNAL_VERSION:
            # Old journals must fail loudly, not mis-parse: a v1 reader
            # would surface v2 quarantine rows as silently missing cells
            # (and vice versa), corrupting a resumed sweep's accounting.
            raise SweepError(
                f"journal {self.path} uses schema version {version!r}; this "
                f"build reads only version {JOURNAL_VERSION}. Old journals "
                "cannot carry quarantine rows — re-run the sweep without "
                "--resume (or finish it with the build that wrote it)."
            )
        if fingerprint is not None and header.get("fingerprint") != fingerprint:
            raise SweepError(
                f"journal {self.path} was written for a different matrix; "
                "refusing to resume (delete it or match the original settings)"
            )
        for number, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A torn final line is the expected signature of a mid-write
                # kill; garbage anywhere costs only that cell (it re-runs).
                warnings.warn(
                    f"journal {self.path} line {number} is truncated or "
                    "corrupt; ignoring it (the cell will be re-run)",
                    stacklevel=2,
                )
                continue
            if record.get("kind") == "quarantined" and "key" in record:
                state.quarantined[record["key"]] = {
                    "crashes": record.get("crashes", 0),
                    "error": record.get("error"),
                }
            elif "key" in record and "row" in record:
                state.completed[record["key"]] = record["row"]
        return state

    def append(self, key: str, row: dict) -> None:
        self._append_record({"key": key, "row": row})

    def append_quarantine(self, key: str, crashes: int, error: str) -> None:
        """Journal a poison cell so ``--resume`` skips it."""
        self._append_record(
            {"kind": "quarantined", "key": key, "crashes": crashes, "error": error}
        )

    def _append_record(self, record: dict) -> None:
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def digest(self) -> str:
        """Order-independent sha256 over the journal's completed rows.

        Two sweeps of the same matrix agree on this digest iff they
        produced identical result rows, regardless of the completion
        order their worker schedules happened to journal them in — the
        comparison the chaos CI job makes between a kill-riddled parallel
        sweep and an unfaulted serial one.
        """
        state = self.load_state(fingerprint=None)
        canonical = json.dumps(sorted(state.completed.items()), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


class CrashLedger:
    """Crash tallies for in-flight cells, persisted beside the journal.

    Lives *outside* the journal on purpose: the journal's byte-identity
    contract (a resumed sweep's journal equals an uninterrupted run's)
    must hold even when transient crashes forced retries, so per-attempt
    crash records cannot go into the journal itself.  Only the terminal
    quarantine decision does.  The ledger survives restarts so a poison
    cell's crash count keeps accumulating across ``--resume`` cycles
    instead of resetting and dodging quarantine forever.
    """

    def __init__(self, journal_path=None) -> None:
        #: ``None`` (no journal) keeps the tallies in memory only.
        self.path = (
            Path(str(journal_path) + ".crashes.json")
            if journal_path is not None
            else None
        )
        self._counts: dict[str, int] = {}

    def load(self) -> None:
        if self.path is None or not self.path.exists():
            self._counts = {}
            return
        try:
            self._counts = {
                str(key): int(value)
                for key, value in json.loads(self.path.read_text()).items()
            }
        except (OSError, ValueError) as exc:
            warnings.warn(
                f"crash ledger {self.path} is unreadable ({exc}); "
                "crash counts restart from zero",
                stacklevel=2,
            )
            self._counts = {}

    def count(self, key: str) -> int:
        return self._counts.get(key, 0)

    def bump(self, key: str) -> int:
        """Record one crash; returns the new tally (persisted atomically)."""
        self._counts[key] = self._counts.get(key, 0) + 1
        if self.path is not None:
            atomic_write_json(self.path, self._counts)
        return self._counts[key]

    def reset(self) -> None:
        self._counts = {}
        if self.path is not None and self.path.exists():
            self.path.unlink()


@dataclass(slots=True)
class SweepCell:
    """Outcome of one (workload, configuration) cell."""

    workload: str
    configuration: str
    #: ok | resumed | failed | timeout | skipped | oom (memory budget
    #: breached) | quarantined (poison cell journaled and skipped) |
    #: interrupted (graceful shutdown drained this cell mid-trace; it
    #: resumes next run).
    status: str
    row: dict | None = None
    error: str | None = None
    attempts: int = 0
    seconds: float = 0.0
    #: Final observability snapshot (``metrics=True`` sweeps only).  For a
    #: crashed/timed-out cell this is the last heartbeat's cumulative
    #: snapshot — best-effort, never authoritative.
    metrics: dict | None = None

    @property
    def completed(self) -> bool:
        return self.status in ("ok", "resumed")


@dataclass(slots=True)
class SweepReport:
    """Every cell of one sweep, completed or not."""

    cells: list[SweepCell] = field(default_factory=list)
    interrupted: bool = False
    #: Aggregated metrics document ({"cells": ..., "totals": ...}) when
    #: the sweep ran with ``metrics=True``; mirrored to the
    #: ``<journal>.metrics.json`` sidecar when a journal is in use.
    metrics: dict | None = None

    def rows(self) -> list[dict]:
        return [cell.row for cell in self.cells if cell.completed]

    def cell(self, workload: str, configuration: str) -> SweepCell | None:
        for cell in self.cells:
            if cell.workload == workload and cell.configuration == configuration:
                return cell
        return None

    @property
    def completed_count(self) -> int:
        return sum(1 for cell in self.cells if cell.completed)

    @property
    def failed_cells(self) -> list[SweepCell]:
        return [
            cell
            for cell in self.cells
            if cell.status in ("failed", "timeout", "oom", "quarantined")
        ]

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        return ", ".join(f"{status}: {count}" for status, count in sorted(counts.items()))


def _cell_checkpoint_path(journal_path: Path, key: str) -> Path:
    """Snapshot file for one in-flight cell, derived from the journal path."""
    safe_key = key.replace("|", "--").replace(os.sep, "_")
    return journal_path.with_name(f"{journal_path.name}.{safe_key}.ckpt")

