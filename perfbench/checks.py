"""Reference check for the benchmark's tasks.

`observe` reads the values a task reports from the JSON summary and the CSV
files the CLI writes into its --out directory.  `check_task` compares them
with reference.json, which record_reference.py wrote at the seed commit.

Integers, strings, booleans and list lengths must match exactly.  Floats must
agree within REL_TOL relative to the larger magnitude, or, inside a list of
floats, relative to the list's largest magnitude.  REL_TOL is 5000 times
the 2e-12 drift a reordered float sum shows here, and 10 times the last digit
of the 10-significant-digit values the CSV files print.  A dropped Farey arc
changes an arc count and a lost pipeline step changes a count or a chain value
by far more, so both fail.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional

REL_TOL = 1e-8

# Seed the reference was recorded at.  At any other seed the only seeded task,
# verify gallagher, is checked by its exit code, its trial count and
# GALLAGHER_CEILING (cmlab's GALLAGHER_RATIO_CEILING at the seed commit).
REFERENCE_SEED = 7
GALLAGHER_CEILING = 20.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _summary(out: Path, name: str) -> dict:
    return json.loads((out / f"{name}-summary.json").read_text())


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and data rows of a report CSV, '#' header lines dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def _row_count(path: Path) -> int:
    return len(_table(path)[1])


def _columns(path: Path, kinds: dict) -> dict:
    header, rows = _table(path)
    return {name: [kind(row[header.index(name)]) for row in rows] for name, kind in kinds.items()}


def observe(argv: list[str], out: Path) -> dict:
    """The reported values of one task, keyed by name."""
    command = argv[0] if argv[0] != "verify" else f"verify {argv[1]}"
    if command == "verify gallagher":
        summary = _summary(out, "verify-gallagher")
        return {
            "max_ratio": summary["max_ratio"],
            "passed": summary["passed"],
            "trials": _row_count(out / "gallagher-ratios.csv"),
        }
    if command in ("verify lambda_q_short", "verify sieve_short"):
        summary = _summary(out, command.replace(" ", "-"))
        return {
            "max_ratio": summary["report"]["max_ratio"],
            "points": summary["report"]["points"],
            "passed": summary["passed"],
        }
    if command == "verify closeness":
        summary = _summary(out, "verify-closeness")
        return {
            "theta_primes_vs_model": summary["theta_primes_vs_model"],
            "theta_model_vs_sieve": summary["theta_model_vs_sieve"],
            "passed": summary["passed"],
            "arcs_primes_vs_model": _row_count(out / "closeness-primes-vs-model-arcs.csv"),
            "arcs_model_vs_sieve": _row_count(out / "closeness-model-vs-sieve-arcs.csv"),
        }
    if command == "pipeline":
        summary = _summary(out, "pipeline")
        report = summary["report"]
        counts = {key: report[key] for key in (
            "exceptions_step2", "exceptions_step4", "final_failures", "minorization_violations",
            "step_positivity_violations", "even_count", "odd_count", "odd_final_failures",
        )}
        chain = _columns(out / "pipeline-chain.csv", {
            "n": int, "lambda_conv": float, "omega_model_conv": float, "verdict": str,
        })
        return {**counts, "passed": summary["passed"], "chain": chain}
    if command == "exceptional":
        summary = _summary(out, "exceptional")
        listed = _columns(out / "exceptional-set.csv", {"n": int})["n"]
        return {"count": summary["count"], "exceptions": listed}
    if command == "series":
        return _columns(out / "singular-series.csv", {
            "n": int, "partial_sum": float, "euler_product": float,
        })
    if command == "model":
        summary = _summary(out, "model")
        with open(summary["file"]) as fh:
            header = next(line for line in fh if not line.startswith("#"))
        return {"length": summary["length"], "header": header.split()}
    raise ValueError(f"no reference observables for {command!r}")


def compare(observed, expected, where: str = "", scale: Optional[float] = None) -> list[str]:
    """Mismatches between observed and expected values, one line each.

    A float in a list of floats is compared relative to the largest magnitude
    in the expected list: FFT round-off is relative to that scale, so values
    that are 0 in exact arithmetic (a*b at odd n) read as +-1e-10 noise.
    """
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            return [f"{where}: keys {sorted(observed) if isinstance(observed, dict) else observed!r}"
                    f" != {sorted(expected)}"]
        return [line for key in expected for line in compare(observed[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{where}: length {len(observed) if isinstance(observed, list) else observed!r}"
                    f" != {len(expected)}"]
        if expected and all(isinstance(e, float) for e in expected):
            scale = max(abs(e) for e in expected)
        return [
            line for i, (o, e) in enumerate(zip(observed, expected))
            for line in compare(o, e, f"{where}[{i}]", scale)
        ]
    if isinstance(expected, float) and isinstance(observed, (int, float)) and not isinstance(observed, bool):
        size = scale if scale is not None else max(abs(observed), abs(expected))
        if abs(observed - expected) <= REL_TOL * size:
            return []
        return [f"{where}: {observed!r} != {expected!r} (relative tolerance {REL_TOL})"]
    if type(observed) is not type(expected) or observed != expected:
        return [f"{where}: {observed!r} != {expected!r}"]
    return []


def check_task(task: dict, seed: int, rc, out: Path, reference: dict) -> list[str]:
    """Everything wrong with one task's run; empty when it passed."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    argv = task["args"].format(seed=seed).split()
    try:
        observed = observe(argv, out)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return problems + [f"unreadable output: {exc!r}"]
    expected = reference["tasks"][task["args"]]
    if task["seeded"] and seed != reference["seed"]:
        if observed["max_ratio"] > GALLAGHER_CEILING:
            problems.append(f"max_ratio {observed['max_ratio']!r} above the ceiling {GALLAGHER_CEILING}")
        observed = {key: observed[key] for key in ("passed", "trials")}
        expected = {key: expected[key] for key in ("passed", "trials")}
    return problems + compare(observed, expected)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
