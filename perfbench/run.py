"""Benchmark of the cmlab command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-canonical --seed 7 --seconds 40 --trace 0

A run repeats passes of one workload (perfbench/workloads.json) until the next
pass would end after --seconds.  Each pass starts a fresh interpreter
(child.py) with PYTHONPATH=src and one thread per numeric library, so caches,
lru_cache tables and the peak-RSS high-water mark start cold, as in every CLI
invocation.  The child runs the workload's tasks in order through
cmlab.cli.main and checks each task's outputs against reference.json.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json as
medians over its passes; setup_s also counts SETUP_PROBES launches that only
import cmlab.cli.  With --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics: times as medians over the traced
passes, counts from the first traced pass (they must repeat exactly), and
trace.overhead_s, the traced minus the untraced median wall time.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 2
means the run could not measure anything (no cmlab sources, bad arguments, no
pass finished).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 5  # extra launches that only import cmlab.cli, for the setup_s median
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def host_facts(seed: int, numpy_version: str) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "seed": seed,
    }


def run_pass(tasks: list, seed: int, trace: bool, timeout: float, workload: str) -> dict:
    """Run one pass in a child interpreter; the result, or {'error': ...}."""
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    try:
        (pass_dir / "spec.json").write_text(json.dumps({"tasks": tasks, "seed": seed, "trace": trace}))
        env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": "src", "TMPDIR": str(pass_dir)}
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(pass_dir)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"pass exceeded {timeout:.0f} s and was killed"}
        result_path = pass_dir / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            return {"error": f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready_at"] - launched
        if trace:
            os.replace(pass_dir / "spans.npz", WORK / f"spans-{workload}.npz")
        return result
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cmlab" / "cli.py").is_file():
        print(f"error: no cmlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    workloads = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    tasks = workloads[args.workload]["tasks"]
    trace = bool(args.trace)

    WORK.mkdir(exist_ok=True)
    print(f"workload: {args.workload}, {len(tasks)} tasks per pass, closed loop, one client; "
          f"seeded tasks: {[t['args'] for t in tasks if t['seeded']] or 'none'}")

    start = time.monotonic()
    probes = [run_pass([], args.seed, False, RUN_LIMIT_S / 2 / SETUP_PROBES, args.workload) for _ in range(SETUP_PROBES)]
    broken = next((probe for probe in probes if "error" in probe), None)
    if broken is not None:
        print(f"error: cmlab.cli does not start: {broken['error']}", file=sys.stderr)
        return 2
    setups = [probe["setup_s"] for probe in probes]

    passes: list[dict] = []
    attempted = failed = 0
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        result = run_pass(tasks, args.seed, traced, RUN_LIMIT_S - (began - start), args.workload)
        took = time.monotonic() - began
        attempted += len(tasks)
        if "error" in result:
            failed += len(tasks)
            print(f"pass {len(passes)}: FAILED {result['error']}", file=sys.stderr)
            break
        result.update(traced=traced, took=took)
        passes.append(result)
        bad = [t for t in result["tasks"] if t["problems"]]
        failed += len(bad)
        for t in bad:
            print(f"pass {len(passes) - 1}: task {t['task']!r} failed: " + "; ".join(t["problems"]), file=sys.stderr)
        print(f"pass {len(passes) - 1}: {'traced' if traced else 'untraced'} wall_s={result['wall_s']:.4f} "
              f"setup_s={result['setup_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f}")
        elapsed = time.monotonic() - start
        longest = max(p["took"] for p in passes)
        if len(passes) >= (2 if trace else 1) and elapsed + longest > args.seconds:
            break
        if elapsed + longest > RUN_LIMIT_S:
            break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if not plain or (trace and not traced_passes):
        print("error: no pass finished, nothing measured", file=sys.stderr)
        return 2

    facts = host_facts(args.seed, passes[0]["numpy"])
    print("host: " + ", ".join(f"{key}={value}" for key, value in facts.items()))
    walls = [p["wall_s"] for p in plain]
    q1, med, q3 = quartiles(walls)
    print(f"wall_s: median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f} s over {len(walls)} untraced passes")
    if trace:
        metrics = per_layer_metrics(benchmark["per_layer"], traced_passes)
        metrics["trace.overhead_s"]["value"] = statistics.median(p["wall_s"] for p in traced_passes) - med
        print(f"spans of the last traced pass: {WORK / f'spans-{args.workload}.npz'}")
    else:
        measured = {
            "wall_s": med,
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in benchmark["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def per_layer_metrics(declared: list, traced: list) -> dict:
    """Declared per-layer metrics: times are medians over the traced passes, counts
    come from the first one; a function the workload never calls reads 0."""
    first = traced[0]["layers"]
    repeat = all(
        p["layers"].get(m["name"], 0) == first.get(m["name"], 0)
        for p in traced[1:] for m in declared if m["unit"] != "s"
    )
    print(f"per-layer counts repeat exactly over {len(traced)} traced passes: {repeat}")
    metrics = {}
    for m in declared:
        name = m["name"]
        if m["unit"] == "s":
            value = statistics.median(p["layers"].get(name, 0.0) for p in traced)
        else:
            value = first.get(name, 0)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
