"""Tests for the checkpoint protocol, snapshots, and divergence bisection.

The acceptance bar of the checkpoint work:

* every TLB organization round-trips through ``state_dict`` /
  ``load_state_dict`` mid-run — a snapshot taken at a boundary restores
  onto a freshly built pipeline to the exact same state;
* a run killed mid-cell and resumed from its snapshot finishes with a
  byte-identical result (and identical per-boundary state digests);
* a sweep killed mid-cell resumes mid-trace and produces byte-identical
  rows to an uninterrupted sweep;
* snapshot files reject version and checksum mismatches;
* ``bisect-divergence`` pinpoints the first diverging interval boundary
  and the diverging component on a seeded fault-injected run.
"""

import json

import pytest

from repro.analysis.experiments import ExperimentSettings, prepare_run
from repro.core.organizations import EXTENDED_CONFIG_NAMES
from repro.errors import CheckpointError
from repro.ioutils import atomic_write_json, atomic_write_text
from repro.resilience.bisect import (
    bisect_divergence,
    describe_divergence,
    record_digest_trail,
    record_resumed_trail,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    AbortSimulation,
    DigestTrail,
    SimulationCheckpointer,
    component_digests,
    first_divergence,
    read_snapshot,
    resume_from_snapshot,
    simulation_state,
    state_digest,
    write_snapshot,
)
from repro.resilience.faults import ChaosPolicy
from repro.resilience.supervisor import run_resilient_sweep
from repro.workloads.base import VMASpec, Workload
from repro.workloads.patterns import Zipf
from repro.workloads.registry import get_workload

SETTINGS = ExperimentSettings(trace_accesses=6_000, seed=5, physical_bytes=1 << 28)


def small_workload(name: str = "ckpt") -> Workload:
    return Workload(
        name,
        "TEST",
        [VMASpec("heap", 6), VMASpec("stack", 1, thp_eligible=False)],
        lambda regions: Zipf(regions["heap"].subregion(0, 24), alpha=1.1, burst=3),
        instructions_per_access=3.0,
    )


def killed_snapshot(workload, config_name, path, abort_after=3, **prepare_kwargs):
    """Run a cell until ``abort_after`` boundaries, leaving a snapshot."""
    prepared = prepare_run(workload, config_name, SETTINGS, **prepare_kwargs)
    checkpointer = SimulationCheckpointer(
        prepared.simulator,
        prepared.process,
        path=path,
        checkpoint_every=1,
        abort_after=abort_after,
    )
    with pytest.raises(AbortSimulation):
        prepared.run(checkpoint_hook=checkpointer)
    return checkpointer


# ----------------------------------------------------------------------
# State round-trips: every organization, mid-run
# ----------------------------------------------------------------------
class TestStateRoundTrip:
    @pytest.mark.parametrize("config_name", EXTENDED_CONFIG_NAMES)
    def test_midrun_snapshot_restores_exactly(self, config_name, tmp_path):
        """Snapshot at boundary 3 → restore on a fresh pipeline → equal state."""
        workload = small_workload()
        path = tmp_path / "cell.ckpt"
        killed_snapshot(workload, config_name, path)
        saved_state, meta = read_snapshot(path)

        rebuilt = prepare_run(workload, config_name, SETTINGS)
        loop_state = resume_from_snapshot(rebuilt, path)
        restored_state = simulation_state(
            rebuilt.simulator, rebuilt.process, loop_state
        )
        assert restored_state == saved_state
        assert component_digests(restored_state) == component_digests(saved_state)

    def test_lite_history_round_trips(self, tmp_path):
        workload = small_workload()
        path = tmp_path / "cell.ckpt"
        # The first Lite interval ends around boundary 32 at these settings;
        # kill at 35 so the snapshot carries at least one history record.
        killed_snapshot(workload, "TLB_Lite", path, abort_after=35, record_history=True)
        saved_state, _ = read_snapshot(path)
        assert saved_state["lite"]["history"], "no Lite intervals before the kill"

        rebuilt = prepare_run(workload, "TLB_Lite", SETTINGS, record_history=True)
        loop_state = resume_from_snapshot(rebuilt, path)
        assert rebuilt.organization.lite.state_dict() == saved_state["lite"]
        records = rebuilt.organization.lite.history
        assert records and records[-1].instructions_seen > 0

    def test_lite_mismatch_rejected(self, tmp_path):
        """A Lite snapshot cannot restore onto a Lite-less organization."""
        workload = small_workload()
        path = tmp_path / "cell.ckpt"
        killed_snapshot(workload, "TLB_Lite", path)
        rebuilt = prepare_run(workload, "THP", SETTINGS)
        with pytest.raises(CheckpointError):
            resume_from_snapshot(rebuilt, path)


# ----------------------------------------------------------------------
# Kill-and-resume determinism
# ----------------------------------------------------------------------
class TestResumeDeterminism:
    @pytest.mark.parametrize(
        "config_name", ("4KB", "TLB_Lite", "RMM_Lite", "FA_Lite", "Banked")
    )
    def test_resumed_run_is_byte_identical(self, config_name, tmp_path):
        workload = small_workload()
        fresh = record_digest_trail(workload, config_name, SETTINGS)
        resumed = record_resumed_trail(
            workload,
            config_name,
            SETTINGS,
            abort_after=4,
            snapshot_path=tmp_path / "cell.ckpt",
        )
        assert bisect_divergence(fresh.trail, resumed.trail) is None
        assert resumed.result == fresh.result

    def test_sweep_killed_mid_cell_resumes_byte_identical(self, tmp_path):
        """The tentpole scenario: kill every cell mid-trace, resume, compare."""
        workload = get_workload("povray")
        configs = ("4KB", "THP", "TLB_Lite")
        reference = run_resilient_sweep(
            [workload], configs, SETTINGS,
            journal_path=tmp_path / "ref.journal", checkpoint_every=1,
            metrics=True,
        )
        assert reference.summary() == "ok: 3"

        # Every cell's first attempt hangs right after its 4th boundary
        # snapshot; the heartbeat timeout SIGKILLs it there.
        journal = tmp_path / "sweep.journal"
        killed = run_resilient_sweep(
            [workload], configs, SETTINGS,
            journal_path=journal, checkpoint_every=1,
            chaos=ChaosPolicy(hang_at_boundary=4), heartbeat_timeout_s=1.0,
        )
        assert all(cell.status == "timeout" for cell in killed.cells)
        snapshots = list(tmp_path.glob("sweep.journal.*.ckpt"))
        assert len(snapshots) == len(configs)

        resumed = run_resilient_sweep(
            [workload], configs, SETTINGS,
            journal_path=journal, resume=True, checkpoint_every=1,
            metrics=True,
        )
        assert resumed.summary() == "ok: 3"
        assert resumed.rows() == reference.rows()
        # Each cell restarted mid-trace: it drained only the boundaries
        # after the snapshot, not the whole trace.
        for fresh, restored in zip(reference.cells, resumed.cells):
            full = fresh.metrics["counters"]["sim.boundaries"]
            assert restored.metrics["counters"]["sim.boundaries"] == full - 4
        # Completed cells delete their resume points.
        assert list(tmp_path.glob("sweep.journal.*.ckpt")) == []

    def test_resume_state_rejects_different_trace(self, tmp_path):
        workload = small_workload()
        path = tmp_path / "cell.ckpt"
        killed_snapshot(workload, "THP", path)
        other_settings = ExperimentSettings(
            trace_accesses=4_000, seed=5, physical_bytes=1 << 28
        )
        rebuilt = prepare_run(workload, "THP", other_settings)
        loop_state = resume_from_snapshot(rebuilt, path)
        with pytest.raises(CheckpointError):
            rebuilt.run(resume_state=loop_state)


# ----------------------------------------------------------------------
# Snapshot file integrity
# ----------------------------------------------------------------------
class TestSnapshotFiles:
    def test_round_trip_with_meta(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        state = {"hierarchy": {"l1_misses": 3}, "loop": {"boundary": 7}}
        write_snapshot(path, state, meta={"cell": "w|c"})
        loaded, meta = read_snapshot(path)
        assert loaded == state
        assert meta == {"cell": "w|c"}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        write_snapshot(path, {"loop": {}})
        envelope = json.loads(path.read_text())
        envelope["checkpoint_version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="version"):
            read_snapshot(path)

    def test_pre_interval_layout_rejected(self, tmp_path):
        """Version-1 snapshots predate the interval-keyed fully-associative stacks."""
        path = tmp_path / "snap.ckpt"
        write_snapshot(path, {"loop": {}})
        envelope = json.loads(path.read_text())
        envelope["checkpoint_version"] = 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="version"):
            read_snapshot(path)

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        write_snapshot(path, {"loop": {"boundary": 1}})
        envelope = json.loads(path.read_text())
        envelope["payload"]["loop"]["boundary"] = 2  # corrupt the payload
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            read_snapshot(path)

    def test_garbage_and_missing_rejected(self, tmp_path):
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_text('{"checkpoint_version": 1, "truncat')
        with pytest.raises(CheckpointError):
            read_snapshot(garbage)
        with pytest.raises(CheckpointError):
            read_snapshot(tmp_path / "missing.ckpt")

    def test_atomic_writers_leave_no_temp_files(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "first\n")
        atomic_write_json(target, {"b": 2, "a": 1})
        assert json.loads(target.read_text()) == {"a": 1, "b": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# ----------------------------------------------------------------------
# Digest trails and bisection
# ----------------------------------------------------------------------
def trail_from(digest_lists) -> DigestTrail:
    trail = DigestTrail()
    for boundary, digest_map in enumerate(digest_lists, start=1):
        trail.record(boundary, digest_map)
    return trail


class TestBisection:
    def test_identical_trails_have_no_divergence(self):
        maps = [{"a": "1"}, {"a": "2"}, {"a": "3"}]
        assert first_divergence(trail_from(maps), trail_from(maps)) is None

    @pytest.mark.parametrize("diverge_at", range(6))
    def test_binary_search_finds_first_difference(self, diverge_at):
        base = [{"x": str(i), "y": "same"} for i in range(6)]
        other = [dict(digest_map) for digest_map in base]
        for index in range(diverge_at, 6):
            other[index]["x"] = f"{index}-diverged"
        divergence = first_divergence(trail_from(base), trail_from(other))
        assert divergence.index == diverge_at
        assert divergence.boundary == diverge_at + 1
        assert divergence.components == ("x",)

    def test_mismatched_trails_rejected(self):
        with pytest.raises(CheckpointError):
            first_divergence(trail_from([{"a": "1"}]), trail_from([]))

    def test_trail_json_round_trip(self):
        trail = trail_from([{"a": "1"}, {"a": "2"}])
        assert DigestTrail.from_json(trail.to_json()).boundaries == trail.boundaries

    def test_state_digest_is_order_insensitive(self):
        assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})
        assert state_digest({"a": 1}) != state_digest({"a": 2})

    def test_fault_injected_run_pinpoints_component(self):
        """Seeded trace fault → first diverging boundary + component named."""
        workload = small_workload()
        clean = record_digest_trail(workload, "4KB", SETTINGS)
        faulty = record_digest_trail(
            workload, "4KB", SETTINGS, trace_fault="duplicate_burst", fault_seed=7
        )
        divergence = bisect_divergence(clean.trail, faulty.trail)
        assert divergence is not None
        assert divergence.boundary > 1  # the burst lands mid-trace
        assert divergence.components == ("hierarchy.structures.L1-4KB",)
        assert "L1-4KB" in describe_divergence(divergence)

    def test_out_of_range_fault_diverges_hierarchy_and_loop(self):
        workload = small_workload()
        clean = record_digest_trail(workload, "TLB_Lite", SETTINGS)
        faulty = record_digest_trail(
            workload, "TLB_Lite", SETTINGS, trace_fault="out_of_range", fault_seed=7
        )
        divergence = bisect_divergence(clean.trail, faulty.trail)
        assert divergence is not None
        assert "loop" in divergence.components  # recorded fault entries
        assert any(c.startswith("hierarchy.") for c in divergence.components)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_bisect_divergence_exit_codes(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                ["bisect-divergence", "povray", "--config", "TLB_Lite",
                 "--accesses", "6000", "--abort-after", "3"]
            )
            == 0
        )
        assert "no divergence" in capsys.readouterr().out
        assert (
            main(
                ["bisect-divergence", "povray", "--config", "4KB",
                 "--accesses", "6000", "--fault", "out_of_range"]
            )
            == 1
        )
        assert "first divergence at boundary" in capsys.readouterr().out

    def test_sweep_checkpoint_every_requires_journal(self, capsys):
        from repro.__main__ import main

        code = main(["sweep", "povray", "--accesses", "6000", "--checkpoint-every", "2"])
        assert code == 2
        assert "journal" in capsys.readouterr().err
