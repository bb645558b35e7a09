"""One benchmark iteration in a fresh interpreter; ``run.py`` starts it.

Set-up (imports, workload registry, golden loading) ends at the
``ready`` timestamp, taken on the system-wide monotonic clock so that
the parent can subtract its own spawn time.  The workload then runs once,
traced or not, and the last line of standard output is one JSON object:
host times, peak memory, one digest and status per cell, the simulated
counts and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext


def load_golden(path: str, workload: str, seed: int, accesses: int) -> dict | None:
    """Committed per-cell digests for this (workload, seed, length), if any."""
    try:
        with open(path, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(f"seed={seed},accesses={accesses}")


def layer_metrics(tracer, configs) -> dict[str, float]:
    """Per-layer self times and counts from one traced iteration."""
    from repro.core.fastpath import encode_trace

    accesses = tokens = 0
    for trace in tracer.traces.values():
        with tracer.span("core.encode_trace"):
            encoded, _cum = encode_trace(trace)
        accesses += len(trace)
        tokens += len(encoded)
    counts = tracer.counts
    run_s = tracer.self_seconds("core.run")
    by_config = tracer.self_seconds_by_config("core.run")
    metrics = {
        "mem.build_process_s": tracer.self_seconds("mem.build_process"),
        "mmu.pt_nodes": counts["mmu.pt_nodes"],
        "mem.leaves_4k": counts["mem.leaves_4k"],
        "mem.leaves_2mb": counts["mem.leaves_2mb"],
        "resilience.events_s": tracer.total_seconds("resilience.events"),
        "mem.demoted_2mb": counts["mem.demoted_2mb"],
        "core.run_s": run_s,
        "core.run_ns_per_access": 1e9 * run_s / counts["core.accesses_fed"],
        **{f"core.run_s.{config}": by_config.get(config, 0.0) for config in configs},
        "core.encode_trace_s": tracer.total_seconds("core.encode_trace"),
        "core.mean_streak": accesses / tokens,
        "core.build_org_s": tracer.self_seconds("core.build_org"),
        "workloads.trace_s": tracer.self_seconds("workloads.trace"),
        "analysis.prepare_s": tracer.self_seconds("analysis.prepare"),
        "analysis.cells_s": tracer.total_seconds("analysis.cell"),
        "core.lite_downsizes": counts["core.lite_downsizes"],
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--golden", required=True)
    parser.add_argument("--chrome-trace", help="where a traced iteration writes its spans")
    args = parser.parse_args(argv)

    import suite
    from repro.analysis import ExperimentSettings
    from repro.core.organizations import EXTENDED_CONFIG_NAMES
    from tracer import Tracer, instrument

    workload = suite.WORKLOADS[args.workload]
    programs = suite.resolve(workload)
    accesses = suite.trace_accesses(workload, args.scale)
    golden = load_golden(args.golden, workload.name, args.seed, accesses)
    settings = ExperimentSettings(trace_accesses=accesses, seed=args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else None
    with instrument(tracer) if tracer is not None else nullcontext():
        start = time.perf_counter()
        outcomes = suite.run(workload, programs, settings, tracer)
        wall = time.perf_counter() - start
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    cells = {}
    results = {}
    for cell, outcome in outcomes.items():
        if isinstance(outcome, Exception):
            cells[cell] = {"digest": None, "error": f"{type(outcome).__name__}: {outcome}"}
            continue
        entry = {"digest": suite.digest(outcome), "error": None}
        try:
            suite.audit(outcome)
        except Exception as exc:  # noqa: BLE001 — a violated identity fails the cell
            entry["error"] = f"audit: {type(exc).__name__}: {exc}"
        if entry["error"] is None and golden is not None and golden.get(cell) != entry["digest"]:
            entry["error"] = f"digest {entry['digest']} differs from golden {golden.get(cell)}"
        cells[cell] = entry
        results[cell] = outcome

    payload = {
        "ready": ready,
        "accesses": accesses,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024,
        "golden": golden is not None,
        "cells": cells,
        "simulated": {
            **(suite.simulated_counts(list(results.values())) if results else {}),
            **suite.paper_errors(results),
        },
    }
    if tracer is not None:
        payload["layers"] = layer_metrics(tracer, EXTENDED_CONFIG_NAMES)
        payload["layer_self_s"] = tracer.layer_self_seconds()
        if args.chrome_trace:
            tracer.write_chrome_trace(args.chrome_trace)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
