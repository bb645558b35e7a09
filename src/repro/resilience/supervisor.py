"""The sweep runner: every cell in its own supervised OS process.

:func:`run_resilient_sweep` executes a (workload × configuration) matrix
with the failure modes of long batch jobs in mind.  A Python thread
cannot be killed and a native crash (OOM kill, ``sys.exit``, interpreter
abort) takes its whole process down, so the only isolation that holds is
a process boundary: each cell runs in a worker process under a
supervisor loop, with

* **per-cell isolation and retries** — a cell's exception is marshalled
  back as a ``failed`` status and retried ``retries`` times with
  exponential backoff; the matrix continues;
* **N parallel workers** (``workers``; 1 dispatches in matrix order,
  so the journal is byte-identical to the canonical pipeline's rows);
* **hard SIGKILL timeouts** — a cell over its wall-clock budget is
  killed, actually reclaiming the core;
* **heartbeats** — workers pump a heartbeat pipe at every drain-loop
  boundary (the same boundaries the checkpoint hook fires at), so a hang
  is detected as soon as the beat stops, before the timeout expires;
* **memory budgets** — ``resource.setrlimit`` address-space caps (the
  enforceable proxy for an RSS budget; Linux does not enforce
  ``RLIMIT_RSS``) turn a runaway cell into a structured ``oom`` status
  instead of a machine-wide OOM incident;
* **crash quarantine** — a cell that crashes its worker
  ``quarantine_after`` times (tallied across ``--resume`` cycles in a
  sidecar ledger) is journaled as quarantined and skipped thereafter;
* **graceful shutdown** — SIGINT/SIGTERM stops dispatch, SIGTERMs the
  in-flight workers, which drain to the next boundary, flush a mid-cell
  snapshot, and report ``interrupted``; the journal is left
  byte-identically resumable.

The journal, crash ledger and report types live in
:mod:`repro.resilience.sweep`.

Crash-retried cells get a **snapshot handoff**: the next worker claims
the crashed attempt's last mid-cell snapshot (validated, and discarded
if unusable — see :func:`repro.resilience.checkpoint.claim_snapshot`)
and restarts mid-trace instead of from access 0.  Checkpoint determinism
(`tests/test_checkpoint.py`) guarantees the handed-off cell still
produces a byte-identical result row.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import signal
import time
import warnings
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path

from ..core.organizations import CONFIG_NAMES
from ..errors import (
    MemoryBudgetError,
    QuarantinedCellError,
    SweepError,
    UnknownWorkloadError,
    WorkerCrashError,
)
from .faults import ChaosPolicy
from .sweep import (
    CrashLedger,
    JournalState,
    SweepCell,
    SweepJournal,
    SweepReport,
    _cell_checkpoint_path,
    _cell_key,
    _fingerprint,
    result_row,
)

#: Supervisor poll cadence — bounds how stale heartbeat/deadline checks
#: can be.  Small enough that hang detection adds negligible latency,
#: large enough that a mostly-idle supervisor costs ~nothing.
_POLL_INTERVAL_S = 0.05

#: How long a worker that already sent its result may take to exit
#: before the supervisor kills it anyway.
_EXIT_GRACE_S = 5.0

#: After SIGINT/SIGTERM, how long drained workers get to flush their
#: snapshots and exit before the supervisor SIGKILLs them.
_GRACEFUL_TIMEOUT_S = 30.0


class _GracefulExit(Exception):
    """Raised inside a worker at the first boundary after SIGTERM."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerTask:
    """Everything one worker needs, as plain picklable data.

    Workloads travel by registry name and settings as a kwargs dict so
    the spec survives any multiprocessing start method (``fork`` and
    ``spawn`` alike) and can be logged verbatim when debugging a
    quarantined cell.
    """

    workload: str
    configuration: str
    attempt: int
    settings: dict
    audit: bool = False
    checkpoint_path: str | None = None
    checkpoint_every: int | None = None
    allow_snapshot_resume: bool = False
    memory_limit_mb: int | None = None
    chaos: dict | None = None
    metrics: bool = False


def _apply_memory_limit(limit_mb: int | None) -> None:
    """Cap this process's address space (the enforceable RSS proxy).

    Linux accepts but does not enforce ``RLIMIT_RSS``, so the budget is
    applied to ``RLIMIT_AS``: any allocation pushing the worker past the
    cap fails with :class:`MemoryError`, which the worker marshals into
    the structured ``oom`` status.  Best-effort on platforms without
    ``resource`` (Windows) — the supervisor still works, budgets don't.
    """
    if limit_mb is None:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover — POSIX-only guard
        warnings.warn(
            "resource.setrlimit is unavailable on this platform; "
            "memory_limit_mb is not enforced",
            stacklevel=2,
        )
        return
    limit = int(limit_mb) << 20
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError) as exc:  # pragma: no cover — kernel policy
        warnings.warn(f"cannot apply memory budget ({exc})", stacklevel=2)


def _worker_main(task: WorkerTask, result_conn, heartbeat_conn) -> None:
    """Entry point of one worker process: simulate one cell, report once.

    The worker owns its own signal disposition: SIGINT is ignored (a
    terminal Ctrl-C belongs to the supervisor, which orchestrates the
    drain), SIGTERM requests a graceful exit honoured at the next
    drain-loop boundary — after flushing a mid-cell snapshot when
    checkpointing is on, so the interrupted cell resumes mid-trace.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    shutdown = {"requested": False}

    def _on_sigterm(_signum, _frame) -> None:
        shutdown["requested"] = True

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        row, metrics = _simulate_cell(task, heartbeat_conn, shutdown)
        message = {"status": "ok", "row": row}
        if metrics is not None:
            message["metrics"] = metrics
        result_conn.send(message)
    except _GracefulExit as exc:
        result_conn.send({"status": "interrupted", "error": str(exc)})
    except MemoryError as exc:
        # The budget breach itself, or a chaos-simulated one.  Allocation
        # headroom exists again once the failed frame unwinds, so this
        # structured report is reliable in practice.
        budget = (
            f"{task.memory_limit_mb} MB"
            if task.memory_limit_mb is not None
            else "chaos-injected"
        )
        error = MemoryBudgetError(f"memory budget exhausted ({budget}): {exc}")
        result_conn.send({"status": "oom", "error": f"{type(error).__name__}: {error}"})
    except BaseException as exc:  # noqa: BLE001 — marshalled to supervisor
        result_conn.send(
            {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}
        )
    finally:
        result_conn.close()
        heartbeat_conn.close()


def _simulate_cell(task: WorkerTask, heartbeat_conn, shutdown: dict) -> tuple:
    """Run one cell inside the worker; returns (journal row, metrics|None)."""
    # Imports kept local so a spawn-start worker pays them here, not at
    # module import inside the supervisor's hot loop.
    from ..analysis.experiments import ExperimentSettings, prepare_run
    from ..workloads.registry import get_workload
    from .auditor import InvariantAuditor
    from .checkpoint import (
        SimulationCheckpointer,
        claim_snapshot,
        restore_simulation,
    )
    from ..errors import CheckpointError

    _apply_memory_limit(task.memory_limit_mb)
    workload = get_workload(task.workload)
    settings = ExperimentSettings(**task.settings)
    key = _cell_key(task.workload, task.configuration)
    chaos = ChaosPolicy.from_json(task.chaos) if task.chaos else None
    chaos_rng = chaos.rng(key, task.attempt) if chaos else None

    auditor = InvariantAuditor() if task.audit else None
    observability = None
    if task.metrics:
        from ..observability import Observability

        # Each worker owns its own hub; snapshots (plain dicts) cross the
        # heartbeat and result pipes, never the hub object itself.
        observability = Observability()
    prepared = prepare_run(
        workload,
        task.configuration,
        settings,
        auditor=auditor,
        on_fault="record",
        observability=observability,
    )
    checkpoint_path = (
        Path(task.checkpoint_path) if task.checkpoint_path is not None else None
    )
    resume_state = None
    if task.allow_snapshot_resume and checkpoint_path is not None:
        state = claim_snapshot(checkpoint_path)
        if state is not None:
            try:
                resume_state = restore_simulation(
                    prepared.simulator, prepared.process, state
                )
            except CheckpointError as exc:
                # A snapshot that reads but won't restore must not poison
                # every retry: discard it and start the cell clean.
                warnings.warn(
                    f"snapshot for {key} failed to restore ({exc}); "
                    "starting the cell from access 0",
                    stacklevel=2,
                )
                checkpoint_path.unlink(missing_ok=True)
                resume_state = None

    hook_box: list = []

    def on_boundary(loop_state: dict) -> None:
        beat = {"boundary": loop_state["boundary"], "ts": time.monotonic()}
        if observability is not None:
            # Cumulative snapshot: if the worker crashes later, the
            # supervisor keeps the last beat's metrics as best-effort.
            beat["metrics"] = observability.snapshot()
        try:
            heartbeat_conn.send(beat)
        except (BrokenPipeError, OSError):
            pass  # supervisor died; finish the cell, the result send will tell
        if chaos is not None:
            chaos.strike(chaos_rng, loop_state["boundary"], task.attempt)
        if shutdown["requested"]:
            if hook_box:
                hook_box[0].snapshot_now(loop_state)
            raise _GracefulExit(
                f"SIGTERM honoured at boundary {loop_state['boundary']}"
            )

    # The checkpointer doubles as the heartbeat pump: with no
    # checkpoint_path it writes nothing but still fires on_boundary at
    # every drain-loop boundary.
    hook = SimulationCheckpointer(
        prepared.simulator,
        prepared.process,
        path=checkpoint_path,
        checkpoint_every=task.checkpoint_every or 1,
        meta={"workload": task.workload, "configuration": task.configuration},
        on_boundary=on_boundary,
        observability=observability,
    )
    hook_box.append(hook)
    result = prepared.run(checkpoint_hook=hook, resume_state=resume_state)
    metrics = observability.snapshot() if observability is not None else None
    return result_row(result), metrics


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _PendingCell:
    """One cell waiting for a worker slot."""

    workload: str
    configuration: str
    key: str
    attempt: int = 0
    app_failures: int = 0  # in-worker exceptions (retries budget)
    not_before: float = 0.0
    backoff_s: float = 0.0
    last_error: str | None = None


@dataclass(slots=True)
class _Inflight:
    """One live worker and everything needed to supervise it."""

    process: object
    pending: _PendingCell
    result_recv: object
    heartbeat_recv: object
    started: float
    deadline: float | None
    last_heartbeat: float
    result: dict | None = None
    killed_for: str | None = None  # "timeout" | "hang" | "shutdown"
    result_seen_at: float | None = None
    last_metrics: dict | None = None  # cumulative snapshot off the heartbeat


class _ShutdownState:
    """Mutable flag set by the supervisor's SIGINT/SIGTERM handlers."""

    def __init__(self) -> None:
        self.requested = False
        self.signalled = False
        self.deadline: float | None = None
        self.signum: int | None = None

    def handler(self, signum, _frame) -> None:
        self.requested = True
        self.signum = signum


def _mp_context():
    """Fork where the platform has it (cheap, inherits imports); else default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_resilient_sweep(
    workloads,
    config_names: tuple[str, ...] = CONFIG_NAMES,
    settings=None,
    journal_path=None,
    resume: bool = False,
    retries: int = 1,
    backoff_s: float = 0.05,
    cell_timeout_s: float | None = None,
    audit: bool = False,
    max_cells: int | None = None,
    progress=None,
    checkpoint_every: int | None = None,
    workers: int = 1,
    quarantine_after: int = 3,
    heartbeat_timeout_s: float | None = None,
    memory_limit_mb: int | None = None,
    chaos: ChaosPolicy | None = None,
    metrics: bool = False,
) -> SweepReport:
    """Run the (workload × configuration) matrix, one process per cell.

    ``workloads`` must be registered workloads (the objects
    :func:`repro.workloads.registry.get_workload` returns): workers
    rebuild each cell from its registry name, so anything else raises
    :class:`repro.errors.SweepError` before a cell is dispatched.

    Parameters beyond the matrix itself:

    ``journal_path`` / ``resume``
        Enable the checkpoint journal; with ``resume`` the journal's
        completed cells are replayed instead of re-simulated.
    ``retries`` / ``backoff_s``
        Extra attempts per cell whose worker raised, with exponential
        backoff.  Timeouts and memory-budget breaches are not retried.
    ``cell_timeout_s``
        Wall-clock budget per attempt; a worker over it is SIGKILLed.
    ``audit``
        Attach a fresh :class:`repro.resilience.InvariantAuditor` to
        every cell.
    ``max_cells``
        Stop after this many *executed* cells (test hook that simulates a
        mid-matrix kill; remaining cells are reported as ``skipped``).
    ``progress``
        Optional callable invoked with each finished :class:`SweepCell`.
    ``checkpoint_every``
        Snapshot the in-flight cell's full simulation state every N
        interval boundaries (see :mod:`repro.resilience.checkpoint`),
        next to the journal.  With ``resume``, a surviving snapshot
        restores the interrupted cell *mid-trace* instead of restarting
        it; the snapshot is deleted once its cell completes.  Requires a
        ``journal_path``.
    ``workers``
        Parallel worker processes, at least 1.  1 (the default)
        dispatches cells in matrix order one at a time, so the journal is
        byte-identical to rows built straight from the canonical
        pipeline; >1 journals rows in completion order (cell *content*
        stays deterministic — compare journals with
        :meth:`repro.resilience.sweep.SweepJournal.digest`).
    ``quarantine_after``
        A cell whose worker crashes (dies without reporting) this many
        times — tallied across ``--resume`` cycles — is journaled as
        quarantined and skipped thereafter.
    ``heartbeat_timeout_s``
        Kill a worker whose heartbeat (pumped at every drain-loop
        boundary) goes silent this long: hang detection that fires long
        before a generous ``cell_timeout_s`` would.  Must comfortably
        exceed the expected boundary spacing.
    ``memory_limit_mb``
        Per-worker address-space budget (``resource.setrlimit``); a
        breach yields the structured ``oom`` status, not a crash.
    ``chaos``
        A :class:`repro.resilience.faults.ChaosPolicy` injected into the
        workers — fault injection aimed at this supervisor itself.
    ``metrics``
        Enable per-worker telemetry: each worker runs its cell with an
        :class:`repro.observability.Observability` hub, streams
        cumulative snapshots over the heartbeat pipe (so even a crashed
        cell leaves its last reading), and reports the final snapshot
        with the result.  Aggregates land in the
        ``<journal>.metrics.json`` sidecar and on ``report.metrics`` —
        the journal itself stays byte-identical to a metrics-off run.
    """
    from ..analysis.experiments import ExperimentSettings

    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    if quarantine_after < 1:
        raise SweepError(f"quarantine_after must be >= 1, got {quarantine_after}")
    settings = settings or ExperimentSettings()
    workloads = list(workloads)
    _require_registered(workloads)
    fingerprint = _fingerprint([w.name for w in workloads], config_names, settings)
    journal = SweepJournal(journal_path) if journal_path is not None else None
    ledger = CrashLedger(journal.path if journal is not None else None)
    journal_state = JournalState()
    if journal is not None:
        if resume and journal.exists():
            journal_state = journal.load_state(fingerprint)
            ledger.load()
        else:
            journal.start(fingerprint)
            ledger.reset()
    elif resume:
        raise SweepError("--resume requires a journal path")
    if checkpoint_every is not None and journal is None:
        raise SweepError("checkpoint_every requires a journal path")

    settings_spec = _settings_spec(settings)
    chaos_spec = chaos.to_json() if chaos is not None else None
    ctx = _mp_context()

    report = SweepReport()
    cells_by_key: dict[str, SweepCell] = {}
    pending: list[_PendingCell] = []
    executed = 0
    for workload in workloads:
        for config_name in config_names:
            key = _cell_key(workload.name, config_name)
            cell = SweepCell(
                workload=workload.name, configuration=config_name, status="skipped"
            )
            report.cells.append(cell)
            cells_by_key[key] = cell
            if key in journal_state.quarantined:
                info = journal_state.quarantined[key]
                cell.status = "quarantined"
                cell.error = info.get("error")
                cell.attempts = info.get("crashes", 0)
                if progress is not None:
                    progress(cell)
                continue
            if key in journal_state.completed:
                cell.status = "resumed"
                cell.row = journal_state.completed[key]
                _unlink_snapshot(journal, key, checkpoint_every)
                if progress is not None:
                    progress(cell)
                continue
            if max_cells is not None and executed >= max_cells:
                report.interrupted = True
                continue  # stays "skipped"
            executed += 1
            pending.append(
                _PendingCell(
                    workload=workload.name,
                    configuration=config_name,
                    key=key,
                    backoff_s=backoff_s,
                )
            )
            if not resume:
                # A stale snapshot from an abandoned earlier run must not
                # hand itself to a *fresh* sweep's first attempt.
                _unlink_snapshot(journal, key, checkpoint_every)

    shutdown = _ShutdownState()
    previous_handlers = _install_handlers(shutdown)
    inflight: dict[int, _Inflight] = {}
    try:
        while pending or inflight:
            now = time.monotonic()
            if shutdown.requested and not shutdown.signalled:
                # Stop dispatching; ask live workers to drain gracefully.
                for entry in inflight.values():
                    entry.killed_for = "shutdown"
                    entry.process.terminate()  # SIGTERM → drain at boundary
                shutdown.signalled = True
                shutdown.deadline = now + _GRACEFUL_TIMEOUT_S
            if not shutdown.requested:
                while len(inflight) < workers:
                    slot = _next_ready(pending, now, strict_order=workers == 1)
                    if slot is None:
                        break
                    pending.remove(slot)
                    entry = _launch(
                        ctx,
                        slot,
                        settings_spec,
                        audit=audit,
                        journal=journal,
                        checkpoint_every=checkpoint_every,
                        resume=resume,
                        memory_limit_mb=memory_limit_mb,
                        chaos_spec=chaos_spec,
                        cell_timeout_s=cell_timeout_s,
                        metrics=metrics,
                    )
                    inflight[entry.process.pid] = entry
            _poll(inflight)
            now = time.monotonic()
            for pid, entry in list(inflight.items()):
                outcome = _judge(
                    entry,
                    now,
                    heartbeat_timeout_s=heartbeat_timeout_s,
                    shutdown_deadline=shutdown.deadline,
                )
                if outcome is None:
                    continue
                del inflight[pid]
                _finalize(
                    entry,
                    outcome,
                    cells_by_key,
                    pending,
                    journal=journal,
                    ledger=ledger,
                    checkpoint_every=checkpoint_every,
                    retries=retries,
                    quarantine_after=quarantine_after,
                    progress=progress,
                    now=now,
                )
            if shutdown.requested and not inflight:
                break
    finally:
        _restore_handlers(previous_handlers)
        for entry in inflight.values():  # pragma: no cover — safety net
            entry.process.kill()
            entry.process.join()

    if shutdown.requested:
        report.interrupted = True
    if (
        journal is not None
        and not report.interrupted
        and all(cell.status != "skipped" for cell in report.cells)
    ):
        ledger.reset()  # sweep finished; no crash history to carry forward
    if metrics:
        from ..observability import (
            aggregate_cell_metrics,
            metrics_sidecar_path,
            write_metrics_sidecar,
        )

        fresh = {
            _cell_key(cell.workload, cell.configuration): cell.metrics
            for cell in report.cells
            if cell.metrics is not None
        }
        existing = (
            metrics_sidecar_path(journal.path)
            if journal is not None and resume
            else None
        )
        report.metrics = aggregate_cell_metrics(fresh, existing)
        if journal is not None:
            write_metrics_sidecar(journal.path, report.metrics)
    return report


# ----------------------------------------------------------------------
# Supervisor loop helpers
# ----------------------------------------------------------------------
def _require_registered(workloads) -> None:
    """Reject workloads a worker could not rebuild from the registry.

    Workers look cells up by registry name (:class:`WorkerTask` carries
    only the name), so a custom :class:`repro.workloads.base.Workload`
    that shares a registered name would silently simulate the registry's
    workload instead, and an unregistered name would fail every attempt
    inside the worker.
    """
    from ..workloads.registry import get_workload

    for workload in workloads:
        try:
            registered = get_workload(workload.name)
        except UnknownWorkloadError:
            raise SweepError(
                f"workload {workload.name!r} is not registered; sweep "
                "workers rebuild every cell from the workload registry"
            ) from None
        if registered is not workload:
            raise SweepError(
                f"workload {workload.name!r} is not the registered workload "
                "of that name; sweep workers rebuild every cell from the "
                "workload registry, so this sweep would simulate the "
                "registered one instead"
            )


def _settings_spec(settings) -> dict:
    """ExperimentSettings as a kwargs dict that crosses process boundaries."""
    spec = dataclasses.asdict(settings)
    sim_params = spec.pop("sim_params", None)
    if sim_params is not None:
        from ..core.params import SimulationParams

        spec["sim_params"] = SimulationParams(**sim_params)
    return spec


def _unlink_snapshot(journal, key: str, checkpoint_every) -> None:
    if journal is None or checkpoint_every is None:
        return
    path = _cell_checkpoint_path(journal.path, key)
    if path.exists():
        path.unlink()


def _install_handlers(shutdown: _ShutdownState) -> dict:
    """SIGINT/SIGTERM → graceful drain; no-op off the main thread."""
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, shutdown.handler)
        except ValueError:  # not the main thread — caller keeps its handling
            pass
    return previous


def _restore_handlers(previous: dict) -> None:
    for signum, handler in previous.items():
        if handler is None:
            continue  # installed from C: getsignal/Python can't restore it
        signal.signal(signum, handler)


def _next_ready(
    pending: list[_PendingCell], now: float, strict_order: bool
) -> _PendingCell | None:
    """Next dispatchable cell.

    ``strict_order`` (``workers == 1``) is head-of-line blocking: a cell
    waiting out its retry backoff must not be overtaken, or the journal's
    append order — and with it byte-identity to a serial run — is lost.
    With parallel workers the journal is completion-ordered anyway, so
    the first *ready* cell wins.
    """
    for slot in pending:
        if slot.not_before <= now:
            return slot
        if strict_order:
            return None
    return None


def _launch(
    ctx,
    slot: _PendingCell,
    settings_spec: dict,
    *,
    audit: bool,
    journal,
    checkpoint_every,
    resume: bool,
    memory_limit_mb,
    chaos_spec,
    cell_timeout_s,
    metrics: bool = False,
) -> _Inflight:
    checkpoint_path = None
    if journal is not None and checkpoint_every is not None:
        checkpoint_path = str(_cell_checkpoint_path(journal.path, slot.key))
    # Snapshot handoff: a crash-retried attempt (attempt > 0) may claim
    # the previous attempt's snapshot; attempt 0 may only claim one when
    # the whole sweep is resuming.
    allow_snapshot = checkpoint_path is not None and (resume or slot.attempt > 0)
    task = WorkerTask(
        workload=slot.workload,
        configuration=slot.configuration,
        attempt=slot.attempt,
        settings=settings_spec,
        audit=audit,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        allow_snapshot_resume=allow_snapshot,
        memory_limit_mb=memory_limit_mb,
        chaos=chaos_spec,
        metrics=metrics,
    )
    result_recv, result_send = ctx.Pipe(duplex=False)
    heartbeat_recv, heartbeat_send = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_worker_main,
        args=(task, result_send, heartbeat_send),
        daemon=True,
        name=f"sweep-worker-{slot.key}-a{slot.attempt}",
    )
    process.start()
    # The parent must not hold the child's send handles: with them open,
    # recv() could never see EOF and kill detection would be lazier.
    result_send.close()
    heartbeat_send.close()
    now = time.monotonic()
    return _Inflight(
        process=process,
        pending=slot,
        result_recv=result_recv,
        heartbeat_recv=heartbeat_recv,
        started=now,
        deadline=now + cell_timeout_s if cell_timeout_s is not None else None,
        last_heartbeat=now,
    )


def _poll(inflight: dict[int, _Inflight]) -> None:
    """Block briefly for activity; drain heartbeats and result messages."""
    conns = []
    for entry in inflight.values():
        conns.append(entry.result_recv)
        conns.append(entry.heartbeat_recv)
    if not conns:
        # Nothing in flight (everything pending sits in backoff): sleep
        # the poll quantum instead of spinning until `not_before`.
        time.sleep(_POLL_INTERVAL_S)
        return
    try:
        mp_connection.wait(conns, timeout=_POLL_INTERVAL_S)
    except OSError:  # pragma: no cover — racing a closing pipe
        pass
    now = time.monotonic()
    for entry in inflight.values():
        try:
            while entry.heartbeat_recv.poll():
                beat = entry.heartbeat_recv.recv()
                entry.last_heartbeat = now
                if isinstance(beat, dict) and "metrics" in beat:
                    entry.last_metrics = beat["metrics"]
        except (EOFError, OSError):
            pass  # worker side closed; liveness is judged elsewhere
        if entry.result is None:
            try:
                if entry.result_recv.poll():
                    entry.result = entry.result_recv.recv()
                    entry.result_seen_at = now
            except (EOFError, OSError):
                pass  # died mid-send: treated as a crash by _judge


def _judge(
    entry: _Inflight,
    now: float,
    *,
    heartbeat_timeout_s,
    shutdown_deadline,
) -> str | None:
    """Decide whether an in-flight worker is finished, and how.

    Returns ``None`` (still running) or one of ``"result"``, ``"crash"``,
    ``"timeout"``, ``"hang"``, ``"shutdown-kill"``.
    """
    alive = entry.process.is_alive()
    if entry.result is not None:
        if alive and now - (entry.result_seen_at or now) < _EXIT_GRACE_S:
            return None  # result in hand; give the worker a moment to exit
        if alive:
            entry.process.kill()
        entry.process.join()
        return "result"
    if not alive:
        entry.process.join()
        # One last look: the result may have landed between polls.
        try:
            if entry.result_recv.poll():
                entry.result = entry.result_recv.recv()
                return "result"
        except (EOFError, OSError):
            pass
        if entry.killed_for == "shutdown":
            return "shutdown-kill"
        return "crash"
    if shutdown_deadline is not None and now > shutdown_deadline:
        entry.process.kill()
        entry.process.join()
        return "shutdown-kill"
    if entry.deadline is not None and now > entry.deadline:
        entry.killed_for = "timeout"
        entry.process.kill()  # SIGKILL: the core is actually reclaimed
        entry.process.join()
        return "timeout"
    if (
        heartbeat_timeout_s is not None
        and now - entry.last_heartbeat > heartbeat_timeout_s
    ):
        entry.killed_for = "hang"
        entry.process.kill()
        entry.process.join()
        return "hang"
    return None


def _finalize(
    entry: _Inflight,
    outcome: str,
    cells_by_key: dict[str, SweepCell],
    pending: list[_PendingCell],
    *,
    journal,
    ledger: CrashLedger,
    checkpoint_every,
    retries: int,
    quarantine_after: int,
    progress,
    now: float,
) -> None:
    """Translate one worker's fate into cell state, journal, and retries."""
    slot = entry.pending
    cell = cells_by_key[slot.key]
    cell.attempts = slot.attempt + 1
    cell.seconds += now - entry.started
    if entry.last_metrics is not None and cell.metrics is None:
        # Best-effort: the last heartbeat's cumulative snapshot survives
        # a crash/timeout; an "ok" result below overwrites it.
        cell.metrics = entry.last_metrics
    done = True

    if outcome == "result":
        result = entry.result
        status = result.get("status")
        if status == "ok":
            cell.status = "ok"
            cell.row = result["row"]
            cell.error = None
            cell.metrics = result.get("metrics", entry.last_metrics)
            if journal is not None:
                journal.append(slot.key, cell.row)
            _unlink_snapshot(journal, slot.key, checkpoint_every)
        elif status == "oom":
            # Fatal for the cell, structured for the sweep: the same
            # budget reproduces the same breach, so no retry.
            cell.status = "oom"
            cell.error = result.get("error")
        elif status == "interrupted":
            cell.status = "interrupted"
            cell.error = result.get("error")
        else:  # "failed" — an exception inside a healthy worker
            cell.error = result.get("error")
            if slot.app_failures < retries:
                done = False
                _requeue(
                    pending,
                    slot,
                    now,
                    app_failure=True,
                )
            else:
                cell.status = "failed"
    elif outcome in ("timeout", "hang"):
        budget = "wall-clock budget" if outcome == "timeout" else "heartbeat"
        cell.status = "timeout"
        cell.error = (
            f"worker SIGKILLed: {budget} exceeded "
            f"(attempt {slot.attempt + 1}); a hung cell would hang again, "
            "not retried"
        )
    elif outcome == "shutdown-kill":
        cell.status = "interrupted"
        cell.error = "worker did not drain before the shutdown deadline"
    else:  # "crash"
        exitcode = entry.process.exitcode
        crash = WorkerCrashError(
            f"worker for {slot.key} died without reporting a result "
            f"(exitcode {exitcode}, attempt {slot.attempt + 1})"
        )
        crashes = ledger.bump(slot.key)
        if crashes >= quarantine_after:
            error = QuarantinedCellError(
                f"cell {slot.key} quarantined after {crashes} worker "
                f"crashes (last: {crash})"
            )
            cell.status = "quarantined"
            cell.error = str(error)
            if journal is not None:
                journal.append_quarantine(slot.key, crashes, str(error))
            _unlink_snapshot(journal, slot.key, checkpoint_every)
        else:
            cell.error = str(crash)
            done = False
            _requeue(pending, slot, now, app_failure=False)

    for conn in (entry.result_recv, entry.heartbeat_recv):
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
    if done and progress is not None:
        progress(cell)


def _requeue(
    pending: list[_PendingCell],
    slot: _PendingCell,
    now: float,
    *,
    app_failure: bool,
) -> None:
    """Put a cell back at the *front* of the queue for its next attempt.

    Front, not back: with ``workers=1`` this keeps journal append order
    equal to matrix order, preserving byte-identity with serial runs.
    """
    slot.attempt += 1
    if app_failure:
        slot.app_failures += 1
    slot.not_before = now + slot.backoff_s
    slot.backoff_s *= 2
    pending.insert(0, slot)
