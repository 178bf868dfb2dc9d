"""Write reference.json: the values every benchmark task reports at the seed.

Run from the repository root, on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

Re-recording is a benchmark change of its own: outputs of a change under test
are compared with the reference, never recorded over it.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
from cmlab.cli import main as cli_main

BENCH = Path(__file__).resolve().parent


def main() -> int:
    workloads = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    work = BENCH.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    recorded = {}
    for workload in workloads.values():
        for task in workload["tasks"]:
            argv = task["args"].format(seed=checks.REFERENCE_SEED).split()
            out = Path(tempfile.mkdtemp(prefix="reference-", dir=work))
            try:
                if cli_main(["--out", str(out), *argv]) != 0:
                    print(f"error: {task['args']!r} failed at the seed", file=sys.stderr)
                    return 1
                recorded[task["args"]] = checks.observe(argv, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
    reference = {"seed": checks.REFERENCE_SEED, "rel_tol": checks.REL_TOL, "tasks": recorded}
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} task references to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
