"""The repository benchmark: Figure 10 matrix, 13-organization drain, OS churn.

    python3 perfbench/run.py --workload fig10-matrix --seed 42 --seconds 30 --trace 0

Runs one workload as a closed loop for about ``--seconds`` seconds.  Each
iteration is a fresh interpreter (``worker.py``), so set-up time and peak
memory are measured per iteration and no state carries over.  Every
simulated cell is digested and checked against ``golden.json`` (when it
holds the seed), against the simulator's accounting identities and
against every other iteration of the run, traced or not.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics, with
spans written as Chrome-trace JSON under ``perfbench/out/``.  Each run
appends one row to ``perfbench/history.jsonl`` and prints the change
against the previous row of the same workload and mode.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fig10-matrix", "omnetpp-13org", "mcf-os-churn")
CONFIGS = ("4KB", "THP", "TLB_Lite", "RMM", "TLB_PP", "RMM_Lite", "FA_Lite",
           "RMM_PP_Lite", "L0_Filter", "L0_Lite", "TLB_Pred", "Banked", "Semantic")

#: Metric name -> unit, printed with ``--trace 0``.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Metric name -> unit, printed with ``--trace 1``.
PER_LAYER = {
    "mem.build_process_s": "s",
    "mmu.pt_nodes": "count",
    "mem.leaves_4k": "count",
    "mem.leaves_2mb": "count",
    "resilience.events_s": "s",
    "mem.demoted_2mb": "count",
    "core.run_s": "s",
    "core.run_ns_per_access": "ns",
    **{f"core.run_s.{config}": "s" for config in CONFIGS},
    "core.encode_trace_s": "s",
    "core.mean_streak": "acc/token",
    "core.build_org_s": "s",
    "workloads.trace_s": "s",
    "analysis.prepare_s": "s",
    "analysis.cells_s": "s",
    "tlb.l1_hit_ratio": "ratio",
    "tlb.l2_hit_ratio": "ratio",
    "tlb.range_hit_share": "ratio",
    "mmu.walks_per_kacc": "1/kacc",
    "mmu.refs_per_walk": "refs/walk",
    "mmu.range_refs_per_kacc": "1/kacc",
    "core.lite_intervals": "count",
    "core.lite_downsizes": "count",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
    "paper_err.tlb_lite_energy": "ratio",
    "paper_err.rmm_lite_energy": "ratio",
}
#: Per-layer counts that must repeat exactly between traced iterations.
EXACT = ("mmu.pt_nodes", "mem.leaves_4k", "mem.leaves_2mb", "mem.demoted_2mb",
         "core.lite_downsizes", "core.mean_streak")

#: Fresh interpreters started only to time set-up, besides one per iteration.
SETUP_PROBES = 5
#: A run never starts an iteration it cannot finish by this many seconds.
RUN_LIMIT_S = 170.0


@dataclass
class Iteration:
    """One worker process: what it reported, or why it failed."""

    traced: bool
    spawned: float
    seconds: float
    payload: dict | None
    error: str | None

    @property
    def setup_s(self) -> float:
        return self.payload["ready"] - self.spawned


def spawn(args, traced: bool, timeout: float, setup_only: bool = False) -> Iteration:
    """Run ``worker.py`` once and wait for it; a hung worker is killed."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", repr(args.scale), "--trace", str(int(traced)),
        "--golden", str(args.golden),
        "--chrome-trace", str(HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"),
    ]
    if setup_only:
        command.append("--setup-only")
    source = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired:
        return Iteration(traced, spawned, time.monotonic() - spawned, None,
                         f"worker killed after {timeout:.0f} s")
    seconds = time.monotonic() - spawned
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return Iteration(traced, spawned, seconds, None,
                         f"worker exited with code {done.returncode}")
    return Iteration(traced, spawned, seconds, json.loads(lines[-1]), None)


def measure(args) -> tuple[list[Iteration], list[float]]:
    """Set-up probes, then iterations until ``--seconds`` is used up."""
    started = time.monotonic()
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(args, False, RUN_LIMIT_S - (time.monotonic() - started), setup_only=True)
        if probe.payload is None:
            raise SystemExit(f"perfbench: set-up probe failed: {probe.error}")
        setups.append(probe.setup_s)

    modes = (False, True) if args.trace else (False,)
    iterations: list[Iteration] = []
    window = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        iteration = spawn(args, modes[len(iterations) % len(modes)], RUN_LIMIT_S - elapsed)
        iterations.append(iteration)
        if iteration.payload is None:
            break
        setups.append(iteration.setup_s)
        typical = statistics.fmean(it.seconds for it in iterations)
        now = time.monotonic()
        if len(iterations) >= len(modes) and (
            now - window + typical > args.seconds
            or now - started + typical > RUN_LIMIT_S - 10
        ):
            break
    return iterations, setups


def check(iterations: list[Iteration]) -> tuple[int, int, list[str]]:
    """Count failed cells: errors, golden mismatches, and disagreement
    between iterations (traced against untraced included)."""
    finished = [it for it in iterations if it.payload is not None]
    cells_per_iteration = len(finished[0].payload["cells"]) if finished else 1
    reference = finished[0].payload["cells"] if finished else {}
    attempted = failed = 0
    problems: list[str] = []
    for number, iteration in enumerate(iterations):
        mode = "traced" if iteration.traced else "untraced"
        attempted += cells_per_iteration
        if iteration.payload is None:
            failed += cells_per_iteration
            problems.append(f"iteration {number} ({mode}): {iteration.error}")
            continue
        for cell, entry in iteration.payload["cells"].items():
            error = entry["error"]
            if error is None and entry["digest"] != reference.get(cell, {}).get("digest"):
                error = "digest differs from iteration 0"
            if error is not None:
                failed += 1
                problems.append(f"iteration {number} ({mode}) {cell}: {error}")
    for iteration in finished[1:]:
        if iteration.payload["simulated"] != finished[0].payload["simulated"]:
            problems.append("simulated counts differ between iterations")
    traced = [it.payload["layers"] for it in finished if it.traced]
    for name in EXACT:
        if len({layers[name] for layers in traced}) > 1:
            problems.append(f"{name} differs between traced iterations")
    return attempted, failed, problems


def median(values) -> float:
    return statistics.median(list(values))


def summarize(args, iterations: list[Iteration], setups: list[float],
              attempted: int, failed: int) -> dict[str, float]:
    untraced = [it.payload for it in iterations if it.payload is not None and not it.traced]
    if not args.trace:
        return {
            "wall_s": median(p["wall_s"] for p in untraced),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
        }
    traced = [it.payload for it in iterations if it.payload is not None and it.traced]
    layers = {
        name: median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
    }
    layers["trace.overhead_s"] = (
        median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in untraced)
    )
    layers["failed_frac"] = failed / attempted
    layers.update(traced[0]["simulated"])
    return {name: layers[name] for name in PER_LAYER}


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Hash of the simulator's sources: names the program version without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def record_history(args, row: dict) -> None:
    """Append the row and print the change against the previous comparable row."""
    path = Path(args.history)
    previous = None
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            old = json.loads(line)
            if (old["workload"], old["trace"], old["scale"]) == (
                row["workload"], row["trace"], row["scale"]
            ):
                previous = old
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    if previous is None:
        print(f"history: first row for {row['workload']} (trace={row['trace']})")
        return
    print(f"history: delta against {previous['time']} "
          f"(src {previous['src_sha']}, seed {previous['seed']}):")
    for name, value in row["metrics"].items():
        old = previous["metrics"].get(name)
        if old is None:
            continue
        change = f"{100 * (value - old) / old:+.1f}%" if old else "n/a"
        print(f"  {name:28s} {old:14.6g} -> {value:14.6g}  {change}")


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace-length multiplier (the self-test uses tiny traces)")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    parser.add_argument("--history", default=str(HERE / "history.jsonl"))
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's cell digests as the golden for its seed")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)

    iterations, setups = measure(args)
    attempted, failed, problems = check(iterations)
    finished = [it for it in iterations if it.payload is not None]
    if not finished or (args.trace and not any(it.traced for it in finished)):
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        return 1
    metrics = summarize(args, iterations, setups, attempted, failed)
    correct = failed == 0 and not problems

    first = finished[0].payload
    untraced = sum(not it.traced for it in finished)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(iterations)} (untraced {untraced}) set-ups={len(setups)}")
    units = PER_LAYER if args.trace else END_TO_END
    print("  wall_s per iteration: " + ", ".join(
        f"{it.payload['wall_s']:.3f}{' (traced)' if it.traced else ''}" for it in finished))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    print(f"  failed_frac {failed / attempted:.6f} ({failed}/{attempted} cells)")
    if not args.trace:
        for name, value in first["simulated"].items():
            if name.startswith("paper_err."):
                print(f"  {name} {value:.6f}")
    else:
        traced = next(it.payload for it in finished if it.traced)
        print("  self time per layer (one traced iteration): " + ", ".join(
            f"{layer} {seconds:.3f} s" for layer, seconds in traced["layer_self_s"].items()))
    for problem in problems:
        print(f"FAIL {problem}")
    if not first["golden"]:
        print(f"no golden for seed {args.seed}; cell digests for comparison:")
        for cell, entry in first["cells"].items():
            print(f"  {cell:24s} {entry['digest']}")

    cell_digests = {cell: entry["digest"] for cell, entry in first["cells"].items()}
    if args.write_golden and correct:
        write_golden(args, first["accesses"], cell_digests)

    record_history(args, {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": git_commit(),
        "src_sha": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "iterations": len(iterations),
        "correct": correct,
        "digest": hashlib.sha256(json.dumps(cell_digests, sort_keys=True).encode())
        .hexdigest()[:16],
        "metrics": metrics,
    })
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def write_golden(args, accesses: int, cell_digests: dict[str, str]) -> None:
    path = Path(args.golden)
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table.setdefault(args.workload, {})[f"seed={args.seed},accesses={accesses}"] = cell_digests
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"golden written for {args.workload} seed={args.seed} accesses={accesses}")


if __name__ == "__main__":
    sys.exit(main())
