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
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import constants
from .arithfn import ArithFn, l2_norm_sq, write_arithfn
from .closeness import (
    closeness_integral,
    default_lambda_q_sweep,
    default_sieve_sweep,
    gallagher_lhs,
    gallagher_rhs,
    verify_lambda_q_short_sums,
    verify_sieve_short_sums,
)
from .errors import CapacityError, ContractError, DomainError
from .goldbach import (
    PRESETS,
    desk_config,
    desk_pipeline_inputs,
    exceptional_scan,
    run_pipeline,
    restricted_prime_fn,
    singular_series,
    singular_series_product,
)
from .models import LambdaQParams, lambda_q_window, model_t_nu, model_t_nu_plus, untruncated_level

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

    def header_lines(self) -> list[str]:
        lines = [f"# subcommand = {self.name}", f"# seed = {self.seed}"]
        for key, value in self.echo().items():
            lines.append(f"# {key} = {value}")
        return lines


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
        for raw in Path(args.config).read_text().splitlines():
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
    return ExperimentSpec(name=args.name, params=params, out=Path(args.out), seed=seed, given=frozenset(given))


def _write_summary(spec: ExperimentSpec, payload: dict) -> Path:
    spec.out.mkdir(parents=True, exist_ok=True)
    path = spec.out / f"{spec.name.replace(' ', '-')}-summary.json"
    body = {"subcommand": spec.name, "seed": spec.seed, "params": {k: str(v) for k, v in spec.echo().items()}}
    body.update(payload)
    path.write_text(json.dumps(body, sort_keys=True, indent=1) + "\n")
    return path


def _write_csv(spec: ExperimentSpec, name: str, write_body: Callable) -> Path:
    spec.out.mkdir(parents=True, exist_ok=True)
    path = spec.out / name
    with open(path, "w", newline="") as fh:
        for line in spec.header_lines():
            fh.write(line + "\n")
        write_body(fh)
    return path


BIG_Q = Param("big_q", "--Q", int, 10)
C_NU = Param("c_nu", "--c-nu", float, 1.0)
GRID = Param("grid", "--grid", str, "small", ("small", "medium"))


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------

GALLAGHER = (
    Param("delta", "--delta", float, 50.0),
    Param("trials", "--trials", int, 100),
    Param("span", "--span", int, 10_000),
    Param("start", "--start", int, 10_000),
)


def _cmd_verify_gallagher(spec: ExperimentSpec) -> int:
    p = spec.params
    rng = np.random.default_rng(spec.seed)
    ratios = []
    for _ in range(p["trials"]):
        values = rng.choice([-1.0, 1.0], size=p["span"])
        f = ArithFn(p["start"], values)
        lhs = gallagher_lhs(f, p["delta"])
        rhs = gallagher_rhs(f, p["delta"])
        ratios.append(lhs / rhs)
    worst = max(ratios)

    def body(fh):
        fh.write("trial,ratio\n")
        for i, ratio in enumerate(ratios):
            fh.write(f"{i},{ratio:.10g}\n")

    _write_csv(spec, "gallagher-ratios.csv", body)
    canonical = (p["delta"], p["trials"], p["span"], p["start"], spec.seed) == (50.0, 100, 10_000, 10_000, 7)
    ok = worst <= constants.GALLAGHER_RATIO_CEILING
    if canonical:
        ok = ok and worst <= constants.GALLAGHER_RANDOM_BASELINE * constants.REGRESSION_HEADROOM
    _write_summary(spec, {
        "max_ratio": worst,
        "ceiling": constants.GALLAGHER_RATIO_CEILING,
        "baseline_checked": canonical,
        "passed": ok,
    })
    print(f"gallagher: max lhs/rhs ratio {worst:.4f} over {p['trials']} trials (ceiling {constants.GALLAGHER_RATIO_CEILING})")
    return 0 if ok else 1


def _cmd_verify_lambda_q(spec: ExperimentSpec) -> int:
    big_q, grid = spec.params["big_q"], spec.params["grid"]
    report = verify_lambda_q_short_sums(
        default_lambda_q_sweep(big_q=big_q, scale=grid), ceiling=constants.SHORT_SUM_RATIO_CEILING
    )
    _write_csv(spec, "lambda-q-short-sums.csv", report.write_csv)
    ok = report.passed
    if (big_q, grid) == (10, "small"):
        ok = ok and report.max_ratio <= constants.LAMBDA_Q_SWEEP_BASELINE * constants.REGRESSION_HEADROOM
    _write_summary(spec, {"report": report.summary(), "passed": ok})
    print(f"lambda_q_short: max ratio {report.max_ratio:.4f} over {len(report.rows)} points")
    return 0 if ok else 1


def _cmd_verify_sieve(spec: ExperimentSpec) -> int:
    grid = spec.params["grid"]
    report = verify_sieve_short_sums(default_sieve_sweep(scale=grid), ceiling=constants.SHORT_SUM_RATIO_CEILING)
    _write_csv(spec, "sieve-short-sums.csv", report.write_csv)
    ok = report.passed
    if grid == "small":
        ok = ok and report.max_ratio <= constants.SIEVE_SWEEP_BASELINE * constants.REGRESSION_HEADROOM
    _write_summary(spec, {"report": report.summary(), "passed": ok})
    print(f"sieve_short: max ratio {report.max_ratio:.4f} over {len(report.rows)} points")
    return 0 if ok else 1


CLOSENESS = (
    Param("y", "--Y", int, 100_000),
    Param("h_exponent", "--h-exponent", float, 0.3),
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
    h = y ** p["h_exponent"]
    params = LambdaQParams(big_q=big_q, window=(y, 2 * y), c_nu=p["c_nu"])
    primes_fn = restricted_prime_fn(2 * y, (y, 2 * y))
    t_nu = model_t_nu(params)
    t_plus = model_t_nu_plus(params, big_q)
    ref = l2_norm_sq(primes_fn)
    rep1 = closeness_integral(primes_fn, t_nu, h, reference_norm=ref)
    rep2 = closeness_integral(t_nu, t_plus, h, reference_norm=ref)
    _write_csv(spec, "closeness-primes-vs-model-arcs.csv", lambda fh: rep1.write_arc_csv(fh))
    _write_csv(spec, "closeness-model-vs-sieve-arcs.csv", lambda fh: rep2.write_arc_csv(fh))
    # the ordering (sieve model at least as close as the raw primes) must hold
    # at any scale; the absolute 0.1 level and the baselines are pinned at the
    # canonical parameter point only
    ok = bool(rep2.theta_effective <= rep1.theta_effective)
    canonical = (y, p["h_exponent"], big_q, p["c_nu"]) == (100_000, 0.3, 10, 1.0)
    if canonical:
        head = constants.REGRESSION_HEADROOM
        ok = ok and rep1.theta_effective <= 0.1
        ok = ok and rep1.theta_effective <= constants.THETA_PRIMES_VS_MODEL_BASELINE * head
        ok = ok and rep2.theta_effective <= constants.THETA_MODEL_VS_SIEVE_BASELINE * head
    _write_summary(spec, {
        "theta_primes_vs_model": float(rep1.theta_effective),
        "theta_model_vs_sieve": float(rep2.theta_effective),
        "passed": bool(ok),
        "primes_vs_model": rep1.decision(),
        "model_vs_sieve": rep2.decision(),
    })
    print(
        f"closeness: theta(primes, model) = {rep1.theta_effective:.5f} (set by {rep1.decided_by}), "
        f"theta(model, sieve model) = {rep2.theta_effective:.5f} (set by {rep2.decided_by})"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# pipeline / exceptional / series / model
# ---------------------------------------------------------------------------

PIPELINE = (
    Param("preset", "--preset", str, None, tuple(sorted(PRESETS))),
    Param("x", "--X", int, 200_000),
    Param("y", "--Y", int),
    Param("h", "--H", int),
    BIG_Q,
    C_NU,
    Param("kappa", "--kappa", float),
    Param("max_final_fraction", "--max-final-fraction", float, 0.01),
)
# a preset fixes the whole model, so no other model row may be set alongside it
PRESET_FIXES = tuple(p.key for p in PIPELINE if p.key not in ("preset", "max_final_fraction"))


def _cmd_pipeline(spec: ExperimentSpec) -> int:
    p = spec.params
    if p["preset"] is not None:
        conflicts = [key for key in PRESET_FIXES if key in spec.given]
        if conflicts:
            raise DomainError(f"preset {p['preset']!r} fixes {', '.join(conflicts)}; set either the preset or these")
        config = PRESETS[p["preset"]]()
    else:
        config = desk_config(p["x"], big_q=p["big_q"], c_nu=p["c_nu"])
        config = replace(config, **{key: p[key] for key in ("y", "h", "kappa") if p[key] is not None})
    spec.params.update(config.to_dict())

    nu, omega, a, b = desk_pipeline_inputs(config)
    report = run_pipeline(config, nu, omega, a, b)
    _write_csv(spec, "pipeline-chain.csv", report.write_csv)
    ok = (
        report.final_failure_fraction <= p["max_final_fraction"]
        and report.step_positivity_violations == 0
        and report.minorization_violations == 0
    )
    _write_summary(spec, {"report": report.summary(), "passed": ok})
    print(
        f"pipeline: final failures {report.final_failures}/{report.even_count} even n "
        f"(fraction {report.final_failure_fraction:.4f}), "
        f"step2 exceptions {report.exceptions_step2}, step4 exceptions {report.exceptions_step4}"
    )
    return 0 if ok else 1


EXCEPTIONAL = (
    Param("x", "--X", int, 1_000_000),
    Param("h", "--H", int, lambda p: p["x"] - 4),
)


def _cmd_exceptional(spec: ExperimentSpec) -> int:
    x, h = spec.params["x"], spec.params["h"]
    scan = exceptional_scan(x, h)

    def body(fh):
        fh.write("n\n")
        for n in scan.exceptions:
            fh.write(f"{n}\n")

    _write_csv(spec, "exceptional-set.csv", body)
    _write_summary(spec, {**scan.summary(), "passed": True})
    print(f"exceptional: |E({x}, {h})| = {len(scan.exceptions)}")
    return 0


SERIES = (
    Param("n_start", "--n-start", int, 4),
    Param("n_stop", "--n-stop", int, 100),
    Param("n_step", "--n-step", int, 2),
    Param("q_max", "--q-max", int, 1_000),
    Param("prime_bound", "--prime-bound", int, 100_000),
)


def _cmd_series(spec: ExperimentSpec) -> int:
    p = spec.params
    if p["n_step"] < 1:
        raise DomainError(f"n_step must be >= 1, got {p['n_step']}")
    ns = range(p["n_start"], p["n_stop"] + 1, p["n_step"])

    def body(fh):
        fh.write("n,partial_sum,euler_product\n")
        for n in ns:
            fh.write(f"{n},{singular_series(n, p['q_max']):.10g},{singular_series_product(n, p['prime_bound']):.10g}\n")

    _write_csv(spec, "singular-series.csv", body)
    _write_summary(spec, {"rows": len(ns), "passed": True})
    print(f"series: wrote singular series for n = {p['n_start']}..{p['n_stop']}")
    return 0


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
    Param("c_nu", "--c-nu", float, lambda p: 1.0 if p["which"] != "lambda_q" else None),
    Param("beta", "--beta", int, lambda p: 10 if p["which"] == "t_nu_plus" else None),
    Param("sift", "--sift", float, lambda p: float(p["big_q"]) if p["which"] == "t_nu_plus" else None),
    Param("level", "--level", float, _untruncated_level),
)
MODEL_UNREAD = {"lambda_q": ("c_nu", "beta", "sift", "level"), "t_nu": ("beta", "sift", "level"), "t_nu_plus": ()}


def _cmd_model(spec: ExperimentSpec) -> int:
    p = spec.params
    which, y, big_q = p["which"], p["y"], p["big_q"]
    unread = [key for key in MODEL_UNREAD[which] if key in spec.given]
    if unread:
        raise DomainError(f"model {which!r} does not read {', '.join(unread)}")
    # lambda_q reads no c_nu, but its Y and Q are checked here all the same
    params = LambdaQParams(big_q=big_q, window=(y, 2 * y), c_nu=p["c_nu"] or 0.0)
    if which == "lambda_q":
        fn = ArithFn(y + 1, lambda_q_window(y + 1, 2 * y + 1, big_q))
    elif which == "t_nu":
        fn = model_t_nu(params)
    else:
        fn = model_t_nu_plus(params, p["sift"], p["level"], p["beta"])
    path = _write_csv(spec, f"model-{which}.txt", lambda fh: write_arithfn(fn, fh))
    _write_summary(spec, {"file": str(path), "length": len(fn), "passed": True})
    print(f"model: wrote {which} window of length {len(fn)} to {path}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

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


def build_parser() -> argparse.ArgumentParser:
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(_resolve(args))
    except (DomainError, ContractError, CapacityError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
