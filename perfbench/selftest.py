"""Self-test of the benchmark at tiny trace sizes (about two minutes).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` lists exactly the workloads and metrics
that ``run.py`` prints, that every run prints each metric with its unit
and passes its own correctness checks, that a tampered golden digest
drives ``failed_frac`` above 0, and that the benchmark refuses to run
without the simulator's sources.  Scratch files go to
``perfbench/out/selftest/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SCRATCH = run.HERE / "out" / "selftest"
TINY = ["--seed", "7", "--seconds", "1", "--scale", "0.02"]


def bench(*extra: str, cwd: Path = run.ROOT) -> tuple[int, dict | None]:
    """Run the benchmark; returns its exit code and parsed last line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *TINY,
         "--golden", str(SCRATCH / "golden.json"),
         "--history", str(SCRATCH / "history.jsonl"), *extra],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS,
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from run.PER_LAYER")


def check_output(result: dict | None, catalogue: dict[str, str], label: str) -> None:
    expect(result is not None, f"{label}: no JSON result line")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: not correct: {result}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(printed == catalogue, f"{label}: printed metrics {printed}")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    check_spec()

    for workload in run.WORKLOADS:
        for trace, catalogue in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            code, result = bench("--workload", workload, "--trace", str(trace))
            expect(code == 0, f"{workload} trace={trace}: exit code {code}")
            check_output(result, catalogue, f"{workload} trace={trace}")
        print(f"ok {workload}: every metric printed with its unit")

    workload = ("--workload", "omnetpp-13org", "--trace", "1")
    code, result = bench(*workload, "--write-golden")
    expect(code == 0 and result["correct"], "writing a golden failed")
    code, result = bench(*workload)
    expect(code == 0 and result["correct"], "a run against its own golden failed")
    golden_path = SCRATCH / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    cells = next(iter(golden["omnetpp-13org"].values()))
    cell = next(iter(cells))
    cells[cell] = "0" * 16
    golden_path.write_text(json.dumps(golden), encoding="utf-8")
    code, result = bench(*workload)
    expect(code == 0 and not result["correct"], "a tampered golden was not detected")
    expect(result["metrics"]["failed_frac"]["value"] > 0,
           "a tampered golden left failed_frac at 0")
    print(f"ok tampered golden: failed_frac {result['metrics']['failed_frac']['value']:.4f}")

    bare = SCRATCH / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, result = bench("--workload", "fig10-matrix", cwd=bare)
    expect(code != 0 and result is None,
           "without the simulator's sources the benchmark must fail without a result")
    print("ok without sources: exit code", code)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
