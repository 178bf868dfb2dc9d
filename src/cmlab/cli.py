"""Experiment runner.

Subcommands:
  verify {gallagher | lambda_q_short | sieve_short | closeness}
  pipeline      run the minorant-transfer chain and emit CSV + JSON reports
  exceptional   exhaustive Goldbach exceptional-set scan E(X, H)
  series        singular-series table (partial sum and Euler product)
  model         dump a model window (lambda_q / t_nu / t_nu_plus) as text

Parameters resolve in order: defaults < config file (--config, key=value
lines) < environment (CML_<KEY>) < command-line flags.  Unknown config keys
are rejected.  Every report embeds the resolved parameter set, and a fixed
seed makes reruns byte-identical.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 invalid usage.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

import numpy as np

from . import constants
from .arithfn import l2_norm_sq, write_arithfn
from .closeness import (
    closeness_integral,
    closeness_models,
    default_lambda_q_sweep,
    default_sieve_sweep,
    gallagher_lhs,
    gallagher_rhs,
    require_gallagher,
    verify_short_sums,
)
from .errors import CapacityError, ContractError, DomainError
from .goldbach import (
    PRESETS,
    PipelineConfig,
    desk_pipeline_inputs,
    exceptional_scan,
    run_pipeline,
    restricted_prime_fn,
    singular_series,
    singular_series_product,
)
from .constants import Check, regression
from .models import model_t_nu, model_t_nu_plus, untruncated_level

ENV_PREFIX = "CML_"


@dataclass(frozen=True)
class Param:
    """One parameter of a subcommand: config/env key, flag, type and default.

    A callable default is called with the parameters resolved above it."""

    key: str
    flag: str
    type: Callable = str
    default: Any = None
    choices: Optional[tuple] = None


SEED = Param("seed", "--seed", int, 0)


def finite_float(raw) -> float:
    """The type of every float parameter: nan and +-inf raise DomainError, so
    argparse and _cast alike refuse them as invalid usage (exit 2)."""
    value = float(raw)
    if not math.isfinite(value):
        raise DomainError(f"{raw!r} is not a finite number")
    return value


@dataclass
class ExperimentSpec:
    """Resolved invocation: subcommand, typed parameter map, output dir, seed,
    and the keys set by config, environment or flag rather than by default."""

    name: str
    params: dict
    out: Path
    seed: int
    given: frozenset

    def echo(self) -> dict:
        """The parameters reports embed; keys resolved to None stay unset."""
        return {key: value for key, value in sorted(self.params.items()) if value is not None}


def _cast(param: Param, raw: str):
    try:
        value = param.type(raw)
    except ValueError:
        raise DomainError(f"invalid value {raw!r} for {param.key}") from None
    if param.choices is not None and value not in param.choices:
        raise DomainError(f"invalid value {raw!r} for {param.key}; choose from {list(param.choices)}")
    return value


def _resolve(args: argparse.Namespace) -> ExperimentSpec:
    rows = {param.key: param for param in (*args.table, SEED)}
    given: dict = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read config {args.config!r}: {exc}") from None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"malformed config line: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in rows:
                raise DomainError(f"unknown config key {key!r} for {args.name}")
            given[key] = _cast(rows[key], value)
    for key, param in rows.items():
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            given[key] = _cast(param, env)
    for key in rows:
        value = getattr(args, key, None)
        if value is not None:  # argparse has already cast and checked it
            given[key] = value
    params: dict = {}
    for key, param in rows.items():
        if key in given:
            params[key] = given[key]
        else:
            params[key] = param.default(params) if callable(param.default) else param.default
    seed = params.pop("seed")
    out = Path(args.out)
    # the reports go under the nearest existing path, so it must be a directory; checked before any work
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise DomainError(f"cannot write to --out {args.out!r}: {str(existing)!r} is not a directory")
    return ExperimentSpec(name=args.name, params=params, out=out, seed=seed, given=frozenset(given))


def _verdict(spec: ExperimentSpec, checks: list[Check], payload: dict) -> int:
    """Write the JSON summary: the payload, each check and passed, their conjunction.
    The exit code is 1 when a check failed."""
    passed = all(check.passed for check in checks)
    body = {"subcommand": spec.name, "seed": spec.seed, "params": {k: str(v) for k, v in spec.echo().items()}}
    rows = [{**asdict(check), "margin": check.margin, "passed": check.passed} for check in checks]
    body.update(payload, checks=rows, passed=passed)
    spec.out.mkdir(parents=True, exist_ok=True)
    path = spec.out / f"{spec.name.replace(' ', '-')}-summary.json"
    path.write_text(json.dumps(body, sort_keys=True, indent=1) + "\n")
    return 0 if passed else 1


def _write_report(spec: ExperimentSpec, name: str, write_body: Callable) -> Path:
    """Write spec.out/name: the `# key = value` parameter lines, then write_body(fh).
    Every command computes its table first, so a run that exits 2 writes no report."""
    spec.out.mkdir(parents=True, exist_ok=True)
    path = spec.out / name
    with open(path, "w", newline="") as fh:
        fh.write(f"# subcommand = {spec.name}\n# seed = {spec.seed}\n")
        fh.writelines(f"# {key} = {value}\n" for key, value in spec.echo().items())
        write_body(fh)
    return path


def _write_csv(spec: ExperimentSpec, name: str, columns: tuple, rows: Iterable) -> Path:
    """A report table: the header row, then the rows streamed, every line ending in \\n."""

    def body(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)

    return _write_report(spec, name, body)


BIG_Q = Param("big_q", "--Q", int, 10)
C_NU = Param("c_nu", "--c-nu", finite_float, 1.0)
GRID = Param("grid", "--grid", str, "small", ("small", "medium"))


# -- verify subcommands ----------------------------------------------------

GALLAGHER = (
    Param("delta", "--delta", finite_float, 50.0),
    Param("trials", "--trials", int, 100),
    Param("span", "--span", int, 10_000),
)


def _cmd_verify_gallagher(spec: ExperimentSpec) -> int:
    p = spec.params
    if p["trials"] < 1:  # an empty table has no max ratio
        raise DomainError(f"trials must be >= 1, got {p['trials']}")
    rows = require_gallagher(p["span"], p["delta"], p["trials"])  # before anything is drawn
    rng = np.random.default_rng(spec.seed)
    ratios: list = []
    # a block of rows draws the values of as many draws of one row each; both sums are
    # translation invariant, so the trials need no start
    for done in range(0, p["trials"], rows):
        values = rng.choice([-1.0, 1.0], size=(min(rows, p["trials"] - done), p["span"]))
        ratios += (gallagher_lhs(values, p["delta"]) / gallagher_rhs(values, p["delta"])).tolist()
    worst = max(ratios)
    _write_csv(spec, "gallagher-ratios.csv", ("trial", "ratio"), ((i, f"{r:.10g}") for i, r in enumerate(ratios)))
    checks = [
        Check("max ratio", worst, constants.GALLAGHER_RATIO_CEILING),
        *regression("max ratio vs baseline", worst, constants.GALLAGHER_RANDOM_BASELINE,
                    (p["delta"], p["trials"], p["span"], spec.seed), (50.0, 100, 10_000, 7)),
    ]
    print(f"gallagher: max lhs/rhs ratio {worst:.4f} over {p['trials']} trials (ceiling {constants.GALLAGHER_RATIO_CEILING})")
    return _verdict(spec, checks, {"max_ratio": worst})


def _sweep_verdict(spec: ExperimentSpec, name: str, report, baseline: float, point, measured_at) -> int:
    """Write a short-sum sweep's CSV and its verdict: the max ratio under the ceiling and the baseline."""
    keys = sorted(report.rows[0].params)
    rows = ([row.params[k] for k in keys]
            + [f"{v:.10g}" for v in (row.actual.real, row.actual.imag, row.predicted.real,
                                     row.error, row.budget, row.ratio)]
            for row in report.rows)
    _write_csv(spec, f"{name.replace('_', '-')}-short-sums.csv",
               (*keys, "actual_re", "actual_im", "predicted_re", "error", "budget", "ratio"), rows)
    print(f"{name}_short: max ratio {report.max_ratio:.4f} over {len(report.rows)} points")
    return _verdict(spec, [
        Check("max ratio", report.max_ratio, constants.SHORT_SUM_RATIO_CEILING),
        *regression("max ratio vs baseline", report.max_ratio, baseline, point, measured_at),
    ], {"report": report.summary()})


def _cmd_verify_lambda_q(spec: ExperimentSpec) -> int:
    big_q, grid = spec.params["big_q"], spec.params["grid"]
    report = verify_short_sums(*default_lambda_q_sweep(big_q=big_q, scale=grid))
    return _sweep_verdict(spec, "lambda_q", report, constants.LAMBDA_Q_SWEEP_BASELINE, (big_q, grid), (10, "small"))


def _cmd_verify_sieve(spec: ExperimentSpec) -> int:
    report = verify_short_sums(*default_sieve_sweep(scale=spec.params["grid"]))
    return _sweep_verdict(spec, "sieve", report, constants.SIEVE_SWEEP_BASELINE, spec.params["grid"], "small")


CLOSENESS = (
    Param("y", "--Y", int, 100_000),
    Param("h_exponent", "--h-exponent", finite_float, 0.3),
    BIG_Q,
    C_NU,
    # accepted and ignored: each Farey arc costs O(width) after one transform,
    # so there is no per-arc work to spread over threads; kept so command lines
    # that pass it (the benchmark workloads pass --workers 1) still parse
    Param("workers", "--workers", int),
)


def _cmd_verify_closeness(spec: ExperimentSpec) -> int:
    p = spec.params
    y, big_q = p["y"], p["big_q"]
    h, t_nu, t_plus = closeness_models(y, p["h_exponent"], big_q, p["c_nu"])
    primes_fn = restricted_prime_fn((y, 2 * y))
    ref = l2_norm_sq(primes_fn)
    rep1 = closeness_integral(primes_fn, t_nu, h, reference_norm=ref)
    rep2 = closeness_integral(t_nu, t_plus, h, reference_norm=ref)
    for name, rep in (("primes-vs-model", rep1), ("model-vs-sieve", rep2)):
        rows = ([arc.q, arc.r] + [f"{v:.12g}" for v in (arc.center, arc.lo, arc.hi, value)] for arc, value in rep.per_arc)
        _write_csv(spec, f"closeness-{name}-arcs.csv", ("q", "r", "center", "lo", "hi", "contribution"), rows)
    theta1, theta2 = float(rep1.theta_effective), float(rep2.theta_effective)
    # the ordering (sieve model at least as close as the raw primes) must hold at any
    # scale; the baselines are pinned at the canonical point
    point, canonical = (y, p["h_exponent"], big_q, p["c_nu"]), (100_000, 0.3, 10, 1.0)
    checks = [
        Check("theta ordering", theta2, theta1),
        *regression("theta_primes_vs_model vs baseline", theta1, constants.THETA_PRIMES_VS_MODEL_BASELINE,
                    point, canonical),
        *regression("theta_model_vs_sieve vs baseline", theta2, constants.THETA_MODEL_VS_SIEVE_BASELINE,
                    point, canonical),
    ]
    print(
        f"closeness: theta(primes, model) = {theta1:.5f} (set by {rep1.decided_by}), "
        f"theta(model, sieve model) = {theta2:.5f} (set by {rep2.decided_by})"
    )
    return _verdict(spec, checks, {
        "theta_primes_vs_model": theta1,
        "theta_model_vs_sieve": theta2,
        "primes_vs_model": rep1.decision(),
        "model_vs_sieve": rep2.decision(),
    })


# -- pipeline / exceptional / series / model -------------------------------

PIPELINE = (
    Param("preset", "--preset", str, None, tuple(sorted(PRESETS))),
    Param("x", "--X", int, 200_000),
    Param("y", "--Y", int),
    Param("h", "--H", int),
    BIG_Q,
    C_NU,
    Param("kappa", "--kappa", finite_float),
    Param("max_final_fraction", "--max-final-fraction", finite_float, 0.01),
)
# the model rows, PipelineConfig's fields: a preset fixes them all, so none may be set alongside it
PRESET_FIXES = tuple(p.key for p in PIPELINE if p.key not in ("preset", "max_final_fraction"))


def _cmd_pipeline(spec: ExperimentSpec) -> int:
    p = spec.params
    if not 0 <= p["max_final_fraction"] < 1:  # below 0 every run fails, from 1 on none can
        raise DomainError(f"max_final_fraction must lie in [0, 1), got {p['max_final_fraction']}")
    if p["preset"] is not None:
        conflicts = [key for key in PRESET_FIXES if key in spec.given]
        if conflicts:
            raise DomainError(f"preset {p['preset']!r} fixes {', '.join(conflicts)}; set either the preset or these")
        config = PRESETS[p["preset"]]
    else:
        config = PipelineConfig(**{key: p[key] for key in PRESET_FIXES})
    spec.params.update(config.to_dict())

    report = run_pipeline(config, *desk_pipeline_inputs(config))
    _write_csv(spec, "pipeline-chain.csv", ("n", "lambda_conv", "omega_model_conv", "verdict"),
               ((n, f"{ab:.10g}", f"{om:.10g}", verdict) for n, ab, om, verdict in report.rows))
    frac = report.final_failure_fraction
    step2, step4 = report.exceptions_step2 / (config.h + 1), report.exceptions_step4 / (config.h + 1)
    checks = [
        Check("final failure fraction", frac, p["max_final_fraction"]),
        Check("step positivity violations", report.step_positivity_violations, 0),
        Check("minorization violations", report.minorization_violations, 0),
    ]
    for name, value, baseline in (
        ("final failure fraction", frac, constants.PIPELINE_FINAL_FAILURE_FRACTION_BASELINE),
        ("step2 exception fraction", step2, constants.PIPELINE_STEP2_EXCEPTION_FRACTION_BASELINE),
        ("step4 exception fraction", step4, constants.PIPELINE_STEP4_EXCEPTION_FRACTION_BASELINE),
    ):
        checks += regression(f"{name} vs baseline", value, baseline, config, PRESETS["desk-small"])
    print(
        f"pipeline: final failures {report.final_failures}/{report.even_count} even n "
        f"(fraction {frac:.4f}), "
        f"step2 exceptions {report.exceptions_step2}, step4 exceptions {report.exceptions_step4}"
    )
    return _verdict(spec, checks, {
        "report": report.summary(),
        "segments_streamed": report.segments,
        "values_streamed": report.values_streamed,
        "working_set_values": report.working_set,
    })


EXCEPTIONAL = (
    Param("x", "--X", int, 1_000_000),
    Param("h", "--H", int, lambda p: p["x"] - 4),
)


def _cmd_exceptional(spec: ExperimentSpec) -> int:
    x, h = spec.params["x"], spec.params["h"]
    scan = exceptional_scan(x, h)
    _write_csv(spec, "exceptional-set.csv", ("n",), ((n,) for n in scan.exceptions))
    print(f"exceptional: |E({x}, {h})| = {len(scan.exceptions)}")
    return _verdict(spec, [], scan.summary())


SERIES = (
    Param("n_start", "--n-start", int, 4),
    Param("n_stop", "--n-stop", int, 100),
    Param("n_step", "--n-step", int, 2),
    Param("q_max", "--q-max", int, 1_000),
    Param("prime_bound", "--prime-bound", int, 100_000),
)


def _cmd_series(spec: ExperimentSpec) -> int:
    p = spec.params
    # singular_series and singular_series_product refuse a bad n, q_max or prime_bound;
    # the step and the range reach neither, so they are checked here
    if p["n_step"] < 1:
        raise DomainError(f"n_step must be >= 1, got {p['n_step']}")
    if p["n_stop"] < p["n_start"]:
        raise DomainError(f"empty range: n_stop {p['n_stop']} < n_start {p['n_start']}")
    ns = np.arange(p["n_start"], p["n_stop"] + 1, p["n_step"])
    # both columns first: a refused bound or table must stop the run before the file opens
    partial, product = singular_series(ns, p["q_max"]).tolist(), singular_series_product(ns, p["prime_bound"]).tolist()
    rows = [(n, f"{s:.10g}", f"{e:.10g}") for n, s, e in zip(ns.tolist(), partial, product)]
    _write_csv(spec, "singular-series.csv", ("n", "partial_sum", "euler_product"), rows)
    print(f"series: wrote singular series for n = {p['n_start']}..{p['n_stop']}")
    return _verdict(spec, [], {"rows": len(ns)})


def _untruncated_level(p: dict) -> Optional[float]:
    """The smallest float level at or above untruncated_level(sift, beta), so
    that the default model is the untruncated sieve even where the integer level
    is not a float; None for the models that build no sieve."""
    if p["which"] != "t_nu_plus":
        return None
    exact = untruncated_level(p["sift"], p["beta"])
    try:
        level = float(exact)
    except OverflowError:
        raise DomainError(
            f"the untruncated level at sift = {p['sift']}, beta = {p['beta']} exceeds the float range; pass --level"
        ) from None
    return level if level >= exact else math.nextafter(level, math.inf)


MODEL = (
    Param("which", "--which", str, "lambda_q", ("lambda_q", "t_nu", "t_nu_plus")),
    Param("y", "--Y", int, 10_000),
    BIG_Q,
    # lambda_q is unscaled and only t_nu_plus builds a sieve, so the other models
    # leave these unset and unechoed, and reject them when given (MODEL_UNREAD);
    # the level defaults to the untruncated one at the resolved beta
    Param("c_nu", "--c-nu", finite_float, lambda p: 1.0 if p["which"] != "lambda_q" else None),
    Param("beta", "--beta", int, lambda p: 10 if p["which"] == "t_nu_plus" else None),
    Param("sift", "--sift", finite_float, lambda p: float(p["big_q"]) if p["which"] == "t_nu_plus" else None),
    Param("level", "--level", finite_float, _untruncated_level),
)
MODEL_UNREAD = {"lambda_q": ("c_nu", "beta", "sift", "level"), "t_nu": ("beta", "sift", "level"), "t_nu_plus": ()}


def _cmd_model(spec: ExperimentSpec) -> int:
    p = spec.params
    which, y, big_q = p["which"], p["y"], p["big_q"]
    unread = [key for key in MODEL_UNREAD[which] if key in spec.given]
    if unread:
        raise DomainError(f"model {which!r} does not read {', '.join(unread)}")
    if which == "lambda_q":
        fn = model_t_nu(y, big_q)
    elif which == "t_nu":
        fn = model_t_nu(y, big_q, p["c_nu"])
    elif big_q < 1:  # t_nu_plus reads Q only as the default of sift, and refuses a bad one all the same
        raise DomainError("Q must be >= 1")
    else:
        fn = model_t_nu_plus(y, p["sift"], p["c_nu"], p["level"], p["beta"])
    path = _write_report(spec, f"model-{which}.txt", lambda fh: write_arithfn(fn, fh))
    print(f"model: wrote {which} window of length {len(fn)} to {path}")
    return _verdict(spec, [], {"file": str(path), "length": len(fn)})


# -- argument wiring -------------------------------------------------------

# (subcommand, help, handler, parameter table)
COMMANDS = (
    ("verify gallagher", "Gallagher's inequality on random +-1 data", _cmd_verify_gallagher, GALLAGHER),
    ("verify lambda_q_short", "Lambda_Q twisted short-sum sweep", _cmd_verify_lambda_q, (BIG_Q, GRID)),
    ("verify sieve_short", "sieve-model twisted short-sum sweep", _cmd_verify_sieve, (GRID,)),
    ("verify closeness", "short-interval Fourier closeness of the models", _cmd_verify_closeness, CLOSENESS),
    ("pipeline", "run the minorant-transfer chain", _cmd_pipeline, PIPELINE),
    ("exceptional", "exhaustive E(X, H) scan", _cmd_exceptional, EXCEPTIONAL),
    ("series", "singular series table", _cmd_series, SERIES),
    ("model", "dump a model window", _cmd_model, MODEL),
)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves it as it was, and handlers look up what they call as they run."""
    parser = argparse.ArgumentParser(prog="cmlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="cmlab-out", help="output directory for reports")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification harness")
    vsub = verify.add_subparsers(dest="harness", required=True)

    for name, help_text, handler, table in COMMANDS:
        group, _, leaf = name.rpartition(" ")
        sp = (vsub if group else sub).add_parser(leaf, help=help_text)
        for param in table:
            sp.add_argument(param.flag, dest=param.key, type=param.type, choices=param.choices, default=None)
        # the shared flags are also accepted after the subcommand; SUPPRESS keeps
        # the top-level value unless the flag actually appears here
        sp.add_argument("--out", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        sp.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        sp.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        sp.set_defaults(handler=handler, name=name, table=table)
    return parser


def _keep_freed_heap() -> None:
    """Have glibc keep the heap a run frees, in place of unmapping it.

    Each transform of `arithfn.spectrum_classes` takes megabytes of scratch
    inside pocketfft and frees it.  Under glibc's default dynamic thresholds
    that memory goes back to the kernel after each transform and is faulted
    in, zeroed, by the next: `verify closeness --Y 400000 --h-exponent 0.45
    --Q 10` took 47k minor faults at a 62 MB peak.  Serving blocks under
    8 MB from the heap and trimming its top only past 16 MB (glibc's own 1:2
    ratio) keeps that scratch mapped, and the run takes 13k.  Larger
    thresholds raise the peak of `model --which lambda_q` past its estimate.
    A process-wide policy, so `main` sets it and importing cmlab does not; a
    no-op where libc has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD


def main(argv: Optional[list[str]] = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(_resolve(args))
    except (DomainError, ContractError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
