"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a PASS/FAIL
line (visible with `pytest -s` or in failure output), then one line per check
with its value, bound and margin.  Every check is a cmlab.constants.Check,
value <= bound: a lower bound is written as a shortfall bounded by 0, and an
exact property as a count of failures bounded by 0.  Tolerances are pinned
here and in cmlab.constants; nothing is deferred to later calibration.

Criteria 4-7 run their `cmlab` subcommand in process and print the checks it
wrote, so each of those verdicts is decided once, in cmlab.cli.  Every
criterion that reads the package also runs under a counter-input from
tests/counters.py, on which it must fail; criterion 2 reads only tests/oracles.py.
"""

import inspect
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cmlab import arithfn, models
from cmlab.arith import rough_flags
from cmlab.arithfn import ArithFn
from cmlab.characters import ramanujan_sum
from cmlab.cli import main
from cmlab.constants import Check
from cmlab.goldbach import (
    PipelineConfig,
    exceptional_scan,
    restricted_prime_fn,
    run_pipeline,
    singular_series,
    singular_series_product,
)
from cmlab.models import (
    lambda_q_window,
    mertens_product,
    model_t_nu,
    untruncated_level,
)
from counters import (
    LOWER_GALLAGHER_BOUND,
    LOWER_LAMBDA_Q_SWEEP_BOUND,
    LOWER_MODEL_VS_SIEVE_BOUND,
    _drop_prime_2,
    _miss_prime_3,
    _negate_mu_3,
    _omega_above_a,
    _truncate_every_position,
)
from oracles import (
    characters_mod,
    convolve,
    convolve_with_lambda_q_model,
    euler_phi,
    gauss_sum,
    mobius,
    singular_series_smooth_sum,
)


def report(criterion: str, checks: list[Check]) -> None:
    ok = all(check.passed for check in checks)
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    for check in checks:
        print(f"  [{'ok' if check.passed else 'FAIL'}] {check.name}: "
              f"value {check.value:.6g}, bound {check.bound:.6g}, margin {check.margin:+.3g}")
    assert ok, f"acceptance criterion failed: {criterion}"


def cli_summary(out: Path, argv: list[str], names: list[str]) -> dict:
    """Run `cmlab --out <out> <argv>` in process and return its JSON summary with
    the checks read back as Checks.  The exit code must agree with `passed`, and
    the checks must be named `names`, in order, so a dropped check fails here."""
    code = main(["--out", str(out), *argv])
    (path,) = out.glob("*-summary.json")
    summary = json.loads(path.read_text())
    checks = [Check(row["name"], row["value"], row["bound"]) for row in summary["checks"]]
    assert (code == 0) is summary["passed"] is all(check.passed for check in checks)
    assert [check.name for check in checks] == names
    return {**summary, "checks": checks}


# -------------------------------------------------------------------------
# 1. oracle equivalences
# -------------------------------------------------------------------------


def test_criterion_1_oracle_equivalences():
    checks = []

    # Ramanujan closed form vs direct exponential sum, all q, n <= 300
    worst = 0.0
    for q in range(1, 301):
        coprime = np.array([a for a in range(1, q + 1) if math.gcd(a, q) == 1])
        table = np.exp(2j * np.pi * np.arange(q) / q)
        ns = np.arange(0, 301)
        direct = table[np.mod(np.outer(coprime, ns), q)].sum(axis=0)
        closed = np.array([ramanujan_sum(q, int(n)) for n in ns], dtype=np.float64)
        worst = max(worst, float(np.max(np.abs(direct - closed))))
    checks.append(Check("ramanujan closed form == direct sum (q, n <= 300): max |diff|", worst, 1e-6))

    # lambda_q_window vs the direct double sum, every n <= 1000 and Q <= 50
    n_max, q_max = 1000, 50
    ns = np.arange(0, n_max + 1)
    direct_acc = np.zeros(n_max + 1, dtype=np.complex128)
    worst_lq = 0.0
    for q in range(1, q_max + 1):
        mu = mobius(q)
        if mu != 0:
            phi = euler_phi(q)
            coprime = np.array([a for a in range(1, q + 1) if math.gcd(a, q) == 1])
            table = np.exp(2j * np.pi * np.arange(q) / q)
            direct_acc += (mu / phi) * table[np.mod(np.outer(coprime, ns), q)].sum(axis=0)
        worst_lq = max(worst_lq, float(np.max(np.abs(direct_acc - lambda_q_window(0, n_max + 1, q)))))
    checks.append(Check("Lambda_Q fast form == direct double sum (n <= 1e3, Q <= 50): max |diff|", worst_lq, 1e-8))

    # convolve_valid's transform vs np.convolve's "valid" mode on 200 random instances of span <= 512
    gen = np.random.default_rng(101)
    worst_conv = 0.0
    for _ in range(200):
        f = ArithFn(int(gen.integers(0, 100)), gen.normal(size=int(gen.integers(1, 513))))
        g = ArithFn(int(gen.integers(0, 100)), gen.normal(size=int(gen.integers(1, 513))))
        x, y = sorted((f.values, g.values), key=len, reverse=True)
        d = np.convolve(x, y, "valid")
        t = arithfn.convolve_valid(x, y)
        scale = max(float(np.max(np.abs(d))), 1e-12)
        worst_conv = max(worst_conv, float(np.max(np.abs(d - t))) / scale)
    checks.append(Check("FFT == direct convolution (200 instances): max rel diff", worst_conv, 1e-6))

    # model convolution: Ramanujan shortcut vs direct convolution, 20 configurations
    worst_model = 0.0
    gen = np.random.default_rng(202)
    for i in range(20):
        y = int(gen.integers(400, 1500))
        big_q = int(gen.integers(2, 12))
        c_nu = float(gen.uniform(0.05, 1.5))
        n = int(gen.integers(4 * y, 6 * y))
        lo, hi = n - 2 * y, n - y
        rough = rough_flags(lo, hi, big_q)
        if i % 2:
            omega = ArithFn(lo, np.where(rough, float(gen.uniform(0.05, 0.3)), 0.0))
        else:
            omega = restricted_prime_fn((lo - 1, hi - 1))
        short = convolve_with_lambda_q_model(omega, y, big_q, c_nu, n)
        direct = convolve(omega, model_t_nu(y, big_q, c_nu))(n)
        scale = max(abs(direct), 1e-9)
        worst_model = max(worst_model, abs(short - direct) / scale)
    checks.append(Check("model convolution shortcut == direct (20 configs): max rel diff", worst_model, 1e-6))

    report("1 oracle equivalences", checks)


# -------------------------------------------------------------------------
# 2. character suite
# -------------------------------------------------------------------------


def test_criterion_2_characters():
    """Reads only tests/oracles.py: no cmlab code runs, so no patch of the package can make it fail."""
    checks = []

    worst = 0.0
    for q in range(1, 201):
        table = characters_mod(q)
        phi = euler_phi(q)
        gram = table @ np.conj(table.T)
        worst = max(worst, float(np.max(np.abs(gram - phi * np.eye(phi)))))
    checks.append(Check("orthogonality, q <= 200: max |gram - phi*I|", worst, 1e-8))

    misses = 0
    for q in range(1, 101):
        tau = gauss_sum(characters_mod(q)[0])
        misses += round(tau.real) != mobius(q) or abs(tau - mobius(q)) > 1e-9
    checks.append(Check("tau(principal) == mu(q), q <= 100, exact after rounding: q that miss", misses, 0))

    worst_excess = -1.0
    for q in range(1, 101):
        for chi in characters_mod(q):
            worst_excess = max(worst_excess, abs(gauss_sum(chi)) - math.sqrt(q))
    checks.append(Check("|tau(chi)| <= sqrt(q) + 1e-9, q <= 100: max excess", worst_excess, 1e-9))

    worst_id = 0.0
    for q in range(1, 101):
        table = characters_mod(q)
        taus = np.array([gauss_sum(np.conj(chi)) for chi in table])
        lhs = taus @ table  # entry m: sum_chi tau(conj chi) chi(m)
        for m in range(q):
            if math.gcd(m, q) != 1:
                continue
            rhs = euler_phi(q) * np.exp(2j * np.pi * m / q)
            worst_id = max(worst_id, abs(lhs[m] - rhs))
        if q == 1:
            worst_id = max(worst_id, abs(lhs[0] - 1.0))
    checks.append(
        Check("character expansion of e(m/q) in aggregate, q <= 100: max |lhs - phi(q) e(m/q)|", worst_id, 1e-7)
    )

    report("2 character suite", checks)


# -------------------------------------------------------------------------
# 3. sieve suite
# -------------------------------------------------------------------------


def test_criterion_3_sieve_suite():
    checks = []

    test_systems = [
        models.beta_sieve_weights(10_000.0, 10.0, beta=3),
        models.beta_sieve_weights(10_000.0, 12.0, beta=2),
        models.beta_sieve_weights(3_000.0, 30.0, beta=1),
        models.beta_sieve_weights(10_000.0, 10.0, beta=10),  # degenerate truncation, still a valid system
        models.beta_sieve_weights(float(untruncated_level(7, 10)), 7.0, beta=10),
    ]
    min_theta = min(int(s.theta_window(1, 1_000_001).min()) for s in test_systems)
    checks.append(Check("theta_n >= 0 for n <= 10^6, every test system: shortfall -min theta", -min_theta, 0))

    mismatches = 0
    for z in (2, 3, 5, 7):
        sieve = models.beta_sieve_weights(float(untruncated_level(z, 10)), float(z), beta=10)
        theta = sieve.theta_window(1, 1_000_001)
        rough = rough_flags(1, 1_000_001, z).astype(np.int64)
        mismatches += int(np.count_nonzero(theta != rough))
    checks.append(Check("untruncated sieve == z-rough indicator, z in {2,3,5,7}, exhaustive to 10^6: n that differ",
                        mismatches, 0))

    # scaled sieve mean vs rough density on (10^4, 2*10^4] at z = 10, level 10^4.
    # The truncation exponent must satisfy z^(beta+1) <= level or the level
    # condition bars single primes outright (beta = 10 here collapses the
    # system to the parity sieve); beta = 3 is the largest admissible value.
    z, level = 10.0, 10_000.0
    beta = int(math.log(level) / math.log(z)) - 1
    sieve = models.beta_sieve_weights(level, z, beta=beta)
    v = mertens_product(z)
    theta_mean = float(sieve.theta_window(10_001, 20_001).mean())
    rough_density = float(rough_flags(10_001, 20_001, z).mean())
    rel = abs(theta_mean / v - rough_density / v) / (rough_density / v)
    checks.append(Check(f"scaled mean vs rough density within 5% (z=10, D=1e4, beta={beta}): rel diff", rel, 0.05))

    report("3 sieve suite", checks)


# -------------------------------------------------------------------------
# 4. short-sum sweeps
# -------------------------------------------------------------------------


def test_criterion_4_short_sum_sweeps(tmp_path):
    checks = []
    for label, argv in (
        ("major-arc sweep", ["verify", "lambda_q_short", "--Q", "10", "--grid", "small"]),
        ("sieve sweep", ["verify", "sieve_short", "--grid", "small"]),
    ):
        summary = cli_summary(tmp_path / argv[1], argv, ["max ratio", "max ratio vs baseline"])
        points = summary["report"]["points"]
        assert points >= 100
        checks += [replace(check, name=f"{label} ({points} points): {check.name}") for check in summary["checks"]]

    report("4 short-sum sweeps", checks)


# -------------------------------------------------------------------------
# 5. Gallagher inequality
# -------------------------------------------------------------------------


def test_criterion_5_gallagher(tmp_path):
    summary = cli_summary(tmp_path, ["verify", "gallagher", "--seed", "7"], ["max ratio", "max ratio vs baseline"])
    report("5 Gallagher inequality", summary["checks"])


# -------------------------------------------------------------------------
# 6. closeness ordering
# -------------------------------------------------------------------------


def test_criterion_6_closeness_ordering(tmp_path):
    summary = cli_summary(tmp_path, ["verify", "closeness"], [
        "theta ordering", "theta_primes_vs_model vs baseline", "theta_model_vs_sieve vs baseline",
    ])
    report("6 closeness ordering", summary["checks"])


# -------------------------------------------------------------------------
# 7. pipeline
# -------------------------------------------------------------------------


def test_criterion_7_pipeline(tmp_path):
    config = PipelineConfig(200_000, big_q=10)
    nu = restricted_prime_fn(config.nu_window)
    omega = restricted_prime_fn(config.omega_window)
    # a = nu + omega: nu*nu lives on (2Y, 4Y] and omega*omega beyond 2(X - 3Y) > X,
    # so a*a = 2 omega*nu on [X-H, X]
    both = ArithFn(nu.support_start, nu.embed(nu.support_start, omega.support_stop)
                   + omega.embed(nu.support_start, omega.support_stop))
    collapsed = run_pipeline(config, nu, omega, both.points, t_nu=nu, t_nu_plus=nu)
    exceptions = (
        collapsed.exceptions_step2
        + collapsed.exceptions_step4
        + collapsed.final_failures
        + collapsed.minorization_violations
        + collapsed.step_positivity_violations
    )
    summary = cli_summary(tmp_path, ["pipeline", "--preset", "desk-small"], [
        "final failure fraction", "step positivity violations", "minorization violations",
        "final failure fraction vs baseline", "step2 exception fraction vs baseline",
        "step4 exception fraction vs baseline",
    ])
    checks = [Check("collapsed chain: zero exceptions at every step: exceptions", exceptions, 0), *summary["checks"]]

    report("7 pipeline", checks)


# -------------------------------------------------------------------------
# 8. Goldbach ground truth
# -------------------------------------------------------------------------


def test_criterion_8_goldbach_ground_truth():
    checks = []

    full = list(exceptional_scan(1_000_000, 1_000_000 - 4).exceptions)
    checks.append(
        Check("E(10^6, 10^6 - 4) empty: every even in [4, 10^6] is a Goldbach number: exceptions", len(full), 0)
    )

    gen = np.random.default_rng(31337)
    worst_windows = 0
    for _ in range(20):
        h = int(gen.integers(2, 10_001))
        x = int(gen.integers(h + 4, 1_000_001))
        worst_windows += len(exceptional_scan(x, h).exceptions)
    checks.append(Check("20 random windows (X <= 10^6, H <= 10^4) all empty: total exceptions", worst_windows, 0))

    report("8 Goldbach ground truth", checks)


# -------------------------------------------------------------------------
# 9. singular series
# -------------------------------------------------------------------------


def test_criterion_9_singular_series():
    checks = []

    values = np.array([singular_series_product(n, 100_000) for n in range(4, 10_001, 2)])
    checks.append(
        Check("singular series >= 1.3 for all even n <= 10^4: shortfall 1.3 - min", 1.3 - float(values.min()), 0)
    )

    odd = (3, 9, 15, 101, 999, 9999)
    nonzero = sum(singular_series_product(n, 100_000) != 0.0 for n in odd)
    worst_odd = max(abs(singular_series(n, 10_000)) for n in odd)
    checks.append(Check("odd n: product vanishes: n where it does not", nonzero, 0))
    checks.append(Check("odd n: partial sums <= 1e-2: max |partial|", worst_odd, 1e-2))

    worst_pair = 0.0
    for n in (4, 30, 90, 210, 1024, 9998):
        a = singular_series_smooth_sum(n, 13)
        b = singular_series_product(n, 13)
        worst_pair = max(worst_pair, abs(a - b) / abs(b))
    checks.append(
        Check("series and product paths agree within 1e-6 over the same primes: max rel diff", worst_pair, 1e-6)
    )

    report("9 singular series", checks)


# -------------------------------------------------------------------------
# every criterion that reads the package can fail
# -------------------------------------------------------------------------


@pytest.mark.parametrize("criterion, counter", [
    (test_criterion_1_oracle_equivalences, _negate_mu_3),
    (test_criterion_3_sieve_suite, _truncate_every_position),
    (test_criterion_4_short_sum_sweeps, LOWER_LAMBDA_Q_SWEEP_BOUND),
    (test_criterion_5_gallagher, LOWER_GALLAGHER_BOUND),
    (test_criterion_6_closeness_ordering, LOWER_MODEL_VS_SIEVE_BOUND),
    (test_criterion_7_pipeline, _omega_above_a),
    (test_criterion_8_goldbach_ground_truth, _miss_prime_3),
    (test_criterion_9_singular_series, _drop_prime_2),
])
def test_counter_input_fails_the_criterion(tmp_path, monkeypatch, criterion, counter):
    counter(monkeypatch)
    # criteria 4-7 write their subcommand's reports under tmp_path
    args = (tmp_path,) if "tmp_path" in inspect.signature(criterion).parameters else ()
    with pytest.raises(AssertionError, match="acceptance criterion failed"):
        criterion(*args)
