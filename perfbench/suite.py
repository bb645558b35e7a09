"""The benchmark's three workloads and what is read off their results.

Each workload is a closed loop: one caller runs one matrix at a time
through the public entry points of ``repro.analysis`` and
``repro.resilience``.  The benchmark seed becomes the experiment seed
(trace, frame placement and OS-event schedule); nothing else reaches the
program.  See ``perfbench/README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass

from repro import analysis
from repro.analysis.normalize import average_ratio, normalized_energy
from repro.core.organizations import CONFIG_NAMES, EXTENDED_CONFIG_NAMES
from repro.resilience import InvariantAuditor, adversarial_events
from repro.resilience.sweep import result_row
from repro.workloads import get_workload, tlb_intensive_workloads

from tracer import Tracer, traced_events

#: Suite-average dynamic energy normalized to THP, as the paper reports it.
PAPER_ENERGY = {"TLB_Lite": 0.77, "RMM_Lite": 0.29}


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    #: Trace length at ``--scale 1``.
    accesses: int
    workloads: tuple[str, ...]
    configs: tuple[str, ...]

    def cells(self) -> list[str]:
        return [f"{w}|{c}" for w in self.workloads for c in self.configs]


FIG10 = BenchWorkload(
    "fig10-matrix",
    100_000,
    ("astar", "cactusADM", "GemsFDTD", "mcf", "omnetpp", "zeusmp", "mummer", "canneal"),
    CONFIG_NAMES,
)
OMNETPP = BenchWorkload("omnetpp-13org", 300_000, ("omnetpp",), EXTENDED_CONFIG_NAMES)
CHURN = BenchWorkload("mcf-os-churn", 200_000, ("mcf",), ("THP", "TLB_Lite", "RMM_Lite"))
WORKLOADS = {w.name: w for w in (FIG10, OMNETPP, CHURN)}


def trace_accesses(workload: BenchWorkload, scale: float) -> int:
    return max(2_000, int(workload.accesses * scale))


def resolve(workload: BenchWorkload) -> list:
    """Registry lookup, part of set-up: the ``repro`` workload objects."""
    if workload is FIG10:
        found = tlb_intensive_workloads()
        if tuple(w.name for w in found) != FIG10.workloads:
            raise RuntimeError(
                f"Table 4 suite changed: {[w.name for w in found]} != {FIG10.workloads}"
            )
        return found
    return [get_workload(name) for name in workload.workloads]


def run(workload: BenchWorkload, programs: list, settings: analysis.ExperimentSettings,
        tracer: Tracer | None) -> dict[str, object]:
    """Run one workload; maps each cell id to its result or its exception.

    Entry points are looked up on ``repro.analysis`` at call time, so the
    traced run's wrappers (see ``tracer.instrument``) see these calls too.
    """
    span = tracer.span if tracer is not None else (lambda *a, **k: nullcontext())
    if workload is FIG10:
        try:
            with span("analysis.run_matrix"):
                results = analysis.run_matrix(programs, workload.configs, settings)
        except Exception as exc:  # noqa: BLE001 — the whole matrix failed
            return {cell: exc for cell in workload.cells()}
        return {f"{w}|{c}": result for (w, c), result in results.items()}

    outcomes: dict[str, object] = {}
    (program,) = programs
    for config in workload.configs:
        cell = f"{program.name}|{config}"
        try:
            with span("analysis.cell", cell=cell):
                if workload is OMNETPP:
                    outcomes[cell] = analysis.prepare_run(
                        program, config, settings, engine="fast"
                    ).run()
                    continue
                # Tolerant mode, as run_fault_campaign's os_events cell runs it.
                prepared = analysis.prepare_run(program, config, settings, on_fault="record")
                with span("resilience.adversarial_events"):
                    events = adversarial_events(
                        prepared.process, len(prepared.trace), seed=settings.seed
                    )
                if tracer is not None:
                    events = traced_events(tracer, events)
                outcomes[cell] = prepared.run(events=events)
        except Exception as exc:  # noqa: BLE001 — one failed cell is counted, not fatal
            outcomes[cell] = exc
    return outcomes


# ----------------------------------------------------------------------
# Reading the results
# ----------------------------------------------------------------------
def digest(result) -> str:
    """Cell digest over ``result_row`` plus each structure's hits and misses."""
    payload = {
        "row": result_row(result),
        "structures": {
            name: [stats.hits, stats.misses]
            for name, stats in sorted(result.structure_stats.items())
        },
    }
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def audit(result) -> None:
    """Raise if the result breaks the simulator's accounting identities."""
    InvariantAuditor().audit_result(result)


def paper_errors(results: dict[str, object]) -> dict[str, float]:
    """|mean energy normalized to THP - paper value| over the cells present."""
    keyed = {tuple(cell.split("|", 1)): r for cell, r in results.items()}
    names = sorted({w for w, _ in keyed})
    errors = {}
    for config, paper in PAPER_ENERGY.items():
        ratios = [
            normalized_energy(keyed, w, config, baseline="THP")
            for w in names
            if (w, config) in keyed and (w, "THP") in keyed
        ]
        errors[f"paper_err.{config.lower()}_energy"] = (
            abs(average_ratio(ratios) - paper) if ratios else 0.0
        )
    return errors


def simulated_counts(results: list) -> dict[str, float]:
    """Per-access work summed over every cell: hit ratios, walks, Lite."""
    accesses = sum(r.accesses for r in results)
    l1_misses = sum(r.l1_misses for r in results)
    l2_misses = sum(r.l2_misses for r in results)
    walks = sum(r.page_walks for r in results)
    hits = sum(sum(r.hit_attribution.values()) for r in results)
    range_hits = sum(
        count
        for r in results
        for name, count in r.hit_attribution.items()
        if "range" in name
    )
    return {
        "tlb.l1_hit_ratio": 1 - l1_misses / accesses,
        "tlb.l2_hit_ratio": 1 - l2_misses / l1_misses if l1_misses else 1.0,
        "tlb.range_hit_share": range_hits / hits if hits else 0.0,
        "mmu.walks_per_kacc": 1000 * walks / accesses,
        "mmu.refs_per_walk": sum(r.page_walk_refs for r in results) / walks if walks else 0.0,
        "mmu.range_refs_per_kacc": 1000 * sum(r.range_walk_refs for r in results) / accesses,
        "core.lite_intervals": sum(r.lite_intervals for r in results),
    }
