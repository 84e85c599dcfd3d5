"""Benchmark harness for grpd.

    python3 bench/run.py --workload check-full --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 3      # every workload, one process each
    python3 bench/run.py --record                     # re-record bench/reference/

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  One invocation runs one workload in this
process, single-threaded.  It prints readable lines and, last, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced:
passes of the workload repeat until the next one would overrun
``--seconds`` (at least one pass).  With ``--trace 1`` the run makes three
passes: one with every public grpd function wrapped in spans that also note
growth of the peak resident memory (first, while that peak is still low),
one untraced, and one traced for time alone.  The per-layer metrics come
from the traced passes, whose outputs must match the untraced pass, except
the rung times and latency percentiles, which come from the untraced pass.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH / "reference"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

_NAMED = {
    "gamma.hfp.calls": "count",
    "gamma.hfp.self_s": "s",
    "gamma.hfp.out_morphisms": "count",
    "core.build_action_groupoid.self_s": "s",
    "core.build_action_groupoid.comp_entries": "count",
    "suites.enumerate_functors.self_s": "s",
    "core.validate_functor.calls": "count",
    "suites.enumerate_functors.yield_ratio": "ratio",
    "colimit.colimit_groupoids.self_s": "s",
    "presheaf.stalk.self_s": "s",
    "corpus.group_catalog.calls": "count",
    "core.validate_groupoid.self_s": "s",
    "gamma.validate_gamma_action.self_s": "s",
    "cohomology.bg_hfp_decomposition.self_s": "s",
    "gamma.swap_comparison.self_s": "s",
}
SUITES = ("iota-fibration", "hfp-preservation", "swap-cardinality",
          "bg-decomposition", "parameter-fibration", "colimit-commutation",
          "stalk-commutation", "oracle-agreement")
RUNGS = ("eg_s4", "eg_s5", "bg_s5", "swap_d4")

PER_LAYER = {}
for _layer in spans.LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.share"] = "ratio"
    PER_LAYER[f"{_layer}.rss_growth_mb"] = "MB"
PER_LAYER.update(_NAMED)
PER_LAYER.update({f"suites.{s}.total_s": "s" for s in SUITES})
PER_LAYER.update({f"rung.{r}_s": "s" for r in RUNGS})
PER_LAYER["cmd_p50_ms"] = "ms"
PER_LAYER["cmd_p95_ms"] = "ms"
PER_LAYER["trace.overhead"] = "ratio"


def load_grpd():
    """Import grpd afresh from this checkout's src/ and return its modules."""
    if not (SRC / "grpd" / "__init__.py").is_file():
        raise SystemExit(f"error: no grpd sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "grpd" or m.startswith("grpd.")]:
        del sys.modules[name]
    grpd = importlib.import_module("grpd")
    if Path(grpd.__file__).resolve().parent != SRC / "grpd":
        raise SystemExit(f"error: grpd imported from {grpd.__file__}, not {SRC}")
    for mod in ("cli", "cohomology", "core", "corpus", "gamma", "groups",
                "jsonio", "suites"):
        importlib.import_module(f"grpd.{mod}")
    return grpd


def set_up(workload: str, seed: int, reference_dir: Path):
    """Import grpd and generate the inputs, SETUP_REPEATS times; the last
    workload object is the one that runs.  Returns it and the median time."""
    times = []
    w = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        grpd = load_grpd()
        w = WORKLOADS[workload](grpd, seed, WORK / f"{workload}-seed{seed}",
                                reference_dir)
        w.setup()
        times.append(time.perf_counter() - t0)
    return w, statistics.median(times)


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the least sample with q % of the samples at
    or below it, so the value is always one measured latency."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def _timed_pass(w):
    t0 = time.perf_counter()
    ops, latencies = w.run_pass()
    return ops, latencies, time.perf_counter() - t0


def _rung_times(passes) -> dict:
    by = {}
    for ops in passes:
        for op in ops:
            by.setdefault(op.label, []).append(op.seconds)
    return {label: statistics.median(v) for label, v in by.items()}


def measure(w, seconds: float):
    """Untraced passes until the next would overrun ``seconds``."""
    passes, walls, latencies = [], [], []
    start = time.perf_counter()
    while True:
        ops, lat, wall = _timed_pass(w)
        passes.append(ops)
        walls.append(wall)
        latencies += [t * 1e3 for t in lat]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ops = [op for p in passes for op in p]
    info = {"passes": len(passes), "samples": len(latencies),
            "cmd_p50_ms": percentile(latencies, 50),
            "cmd_p95_ms": percentile(latencies, 95)}
    if w.name == "ladder":
        info["rung"] = _rung_times(passes)
    return ops, metrics, info


def _traced_pass(w, memory: bool):
    tracer = spans.Tracer(memory=memory)
    tracer.install()
    try:
        ops, _, wall = _timed_pass(w)
    finally:
        tracer.uninstall()
    return tracer, ops, wall


def measure_traced(w, seed: int):
    """A traced pass for memory, an untraced pass, and a traced pass for
    time; the timed pass's spans are written once, at the end."""
    memory, traced_m, _ = _traced_pass(w, memory=True)
    untraced, latencies, wall_u = _timed_pass(w)
    timer, traced, wall_t = _traced_pass(w, memory=False)

    mismatched = []
    for run in (traced, traced_m):
        for a, b in zip(untraced, run):
            if (a.label, a.output, a.ok) != (b.label, b.output, b.ok):
                b.ok = False
                b.detail = "traced output differs from the untraced pass"
                mismatched.append(b.label)
        if len(run) != len(untraced):
            mismatched.append("op count")
    extra = []
    if mismatched:
        extra.append(Op("traced outputs", 0.0, False, (),
                        "traced passes differ from the untraced pass on "
                        + ", ".join(mismatched)))

    WORK.mkdir(parents=True, exist_ok=True)
    timer.write(WORK / f"trace-{w.name}-seed{seed}.json.gz", wall_t)

    s = timer.summary(wall_t)
    growth = memory.summary(wall_t)["layers"]
    fn = s["functions"]
    counters = s["counters"]

    def f(name, key):
        return fn.get(name, {}).get(key, 0)

    values = {}
    for layer, agg in s["layers"].items():
        values[f"{layer}.calls"] = agg["calls"]
        values[f"{layer}.self_s"] = agg["self_s"]
        values[f"{layer}.share"] = agg["share"]
        values[f"{layer}.rss_growth_mb"] = growth[layer]["rss_growth_mb"]
    for name in _NAMED:
        base, _, key = name.rpartition(".")
        if key in ("self_s", "calls"):
            values[name] = f(base, key)
    values["gamma.hfp.out_morphisms"] = counters["gamma.hfp.out_morphisms"]
    values["core.build_action_groupoid.comp_entries"] = \
        counters["core.build_action_groupoid.comp_entries"]
    under = counters["core.validate_functor.calls_under_enumerate_functors"]
    values["suites.enumerate_functors.yield_ratio"] = (
        counters["suites.enumerate_functors.yields"] / under if under else 0.0)
    for suite in SUITES:
        values[f"suites.{suite}.total_s"] = f(
            "suites.suite_" + suite.replace("-", "_"), "total_s")
    rungs = _rung_times([untraced]) if w.name == "ladder" else {}
    for r in RUNGS:
        values[f"rung.{r}_s"] = rungs.get(r, 0.0)
    values["cmd_p50_ms"] = percentile([t * 1e3 for t in latencies], 50)
    values["cmd_p95_ms"] = percentile([t * 1e3 for t in latencies], 95)
    values["trace.overhead"] = wall_t / wall_u
    ops = traced + extra
    info = {"untraced_wall_s": wall_u, "traced_wall_s": wall_t,
            "records": len(timer.records)}
    return ops, values, info


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference_dir: Path = REFERENCE_DIR) -> dict:
    w, setup_s = set_up(workload, seed, reference_dir)
    if trace:
        ops, values, info = measure_traced(w, seed)
        units = PER_LAYER
    else:
        ops, values, info = measure(w, seconds)
        values = {"setup_s": setup_s, **values}
        units = END_TO_END
    failed = [op for op in ops if not op.ok]
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "_info": info,
        "_failures": [f"{op.label}: {op.detail}" for op in failed[:20]],
    }


def _print_result(workload: str, seed: int, result: dict) -> None:
    info = result["_info"]
    fail_frac = result["failed"] / result["attempted"]
    print(f"workload {workload}, seed {seed}: {result['attempted']} ops "
          f"attempted, {result['failed']} failed, fail_frac {fail_frac:.4f}")
    for k, v in info.items():
        if isinstance(v, dict):
            for label, t in v.items():
                print(f"  {k}.{label}_s: {t:.6f} s")
        elif k.endswith("_ms"):
            print(f"  {k}: {v:.6g} ms")
        else:
            print(f"  {k}: {v}")
    for name, m in result["metrics"].items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    for line in result["_failures"]:
        print(f"  FAILED {line}")


def _run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process, one at a time."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}")
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _record() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in ("check-full", "documents"):
        grpd = load_grpd()
        WORKLOADS[workload](grpd, 0, WORK / f"{workload}-record", REFERENCE_DIR).record()
        print(f"recorded the seed-0 reference of {workload}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write the seed-0 reference outputs and exit")
    args = p.parse_args(argv)
    if args.record:
        return _record()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(args.workload, args.seed, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
