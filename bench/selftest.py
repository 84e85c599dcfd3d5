"""Self-test of the benchmark harness at its smallest settings.

    python3 bench/selftest.py

Runs every workload for one pass, untraced and traced, each in its own
process, and checks that the result line is well formed, names every metric
of BENCHMARK.json with its unit, and reports no failure.  Then it tampers
with a copy of the reference outputs and checks that the damage is counted
as failed ops, and it checks that the harness refuses to run in a directory
that holds only the benchmark.  Takes a few minutes; exits 0 when all hold.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PROBLEMS: list[str] = []


def expect(cond: bool, message: str) -> None:
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        PROBLEMS.append(message)


def _invoke(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False)


def check_result_line(workload: str, trace: int) -> None:
    proc = _invoke(run.ROOT, workload, trace)
    tag = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{tag}: exits 0")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{tag}: last line is a JSON object")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result has exactly correct, attempted, failed, metrics")
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1, f"{tag}: correct with no failed ops")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in wanted},
           f"{tag}: emits every {'per-layer' if trace else 'end-to-end'} metric")
    expect(all(got.get(m["name"], {}).get("unit") == m["unit"] for m in wanted),
           f"{tag}: every metric carries its unit")
    values = [m.get("value") for m in got.values()]
    expect(all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in values), f"{tag}: every value is a number")
    if not trace:
        expect(all(v > 0 for v in values), f"{tag}: no end-to-end metric is 0")


def check_tampered_reference() -> None:
    tampered = run.WORK / "tampered-reference"
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(run.REFERENCE_DIR, tampered)
    report = tampered / "check_seed0_full.txt"
    report.write_text(report.read_text().replace("failures: 0", "failures: 1", 1))
    docs = tampered / "documents_seed0.json"
    outputs = json.loads(docs.read_text())
    first = sorted(outputs)[0]
    outputs[first][1] = "0" * 64
    docs.write_text(json.dumps(outputs))
    for workload in ("check-full", "documents"):
        result = run.run_workload(workload, 0, 1, False, reference_dir=tampered)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: a tampered reference output counts as failed "
               f"({result['failed']} of {result['attempted']})")
    shutil.rmtree(tampered)


def check_refuses_without_sources() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke(bare, SPEC["workloads"][0]["name"], 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the sources it exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_result_line(w["name"], trace)
    check_tampered_reference()
    check_refuses_without_sources()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
