"""One pass of a workload, run in a fresh interpreter by run.py.

Usage: python child.py PASS_DIR  (PASS_DIR holds spec.json; PYTHONPATH=src)

The pass imports cmlab.cli first, so the parent can time set-up up to that
point, then runs each task through cmlab.cli.main with --out inside PASS_DIR,
checks its outputs and writes result.json (and spans.npz when traced).
"""

import time

import cmlab.cli  # noqa: E402  set-up ends when this import returns

READY_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402


def main() -> int:
    pass_dir = Path(sys.argv[1])
    spec = json.loads((pass_dir / "spec.json").read_text())
    reference = checks.load_reference()
    cli_main = cmlab.cli.main
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    t0 = time.perf_counter()
    for i, task in enumerate(spec["tasks"]):
        argv = task["args"].format(seed=spec["seed"]).split()
        out = pass_dir / f"task{i}"
        rc, error = None, None
        try:
            call_argv = ["--out", str(out), *argv]
            if tracer is None:
                rc = cli_main(call_argv)
            else:
                label = "cli." + "_".join(argv[:2] if argv[0] == "verify" else argv[:1])
                rc = tracer.call(label, cli_main, None, (call_argv,), {})
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # a failing task is counted, and the pass goes on
            error = traceback.format_exc()
        problems = checks.check_task(task, spec["seed"], rc, out, reference)
        if error is not None:
            problems.insert(0, error)
        results.append({"task": task["args"], "problems": problems})
    wall = time.perf_counter() - t0

    payload = {
        "ready_at": READY_AT,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "tasks": results,
    }
    if tracer is not None:
        layers = tracing.summarize(tracer)
        layers["trace.unattributed_s"] = wall - layers["trace.root_s"]
        payload["layers"] = layers
        np.savez(pass_dir / "spans.npz", names=np.array(tracer.names), **tracer.arrays())
    (pass_dir / "result.json").write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
