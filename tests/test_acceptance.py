"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a PASS/FAIL
line (visible with `pytest -s` or in failure output).  Tolerances are pinned
here and in cmlab.constants; nothing is deferred to later calibration.
"""

import math

import numpy as np
import pytest

from cmlab import arithfn, constants
from cmlab.arith import euler_phi, mobius, prime_flags, rough_flags, weighted_prime_fn
from cmlab.arithfn import ArithFn, convolve, l2_norm_sq
from cmlab.characters import characters_mod, gauss_sum, ramanujan_sum
from cmlab.closeness import (
    closeness_integral,
    default_lambda_q_sweep,
    default_sieve_sweep,
    gallagher_lhs,
    gallagher_rhs,
    verify_lambda_q_short_sums,
    verify_sieve_short_sums,
)
from cmlab.goldbach import (
    PRESETS,
    convolve_with_lambda_q_model,
    desk_config,
    desk_pipeline_inputs,
    exceptional_set,
    restricted_prime_fn,
    run_pipeline,
    singular_series,
    singular_series_product,
    singular_series_smooth_sum,
)
from cmlab.models import (
    LambdaQParams,
    beta_sieve_weights,
    mertens_product,
    model_t_nu,
    model_t_nu_plus,
    untruncated_level,
)


def report(criterion: str, checks: list[tuple[str, bool, str]]) -> None:
    ok = all(flag for _, flag, _ in checks)
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    for desc, flag, detail in checks:
        print(f"  [{'ok' if flag else 'FAIL'}] {desc}: {detail}")
    assert ok, f"acceptance criterion failed: {criterion}"


# -------------------------------------------------------------------------
# 1. oracle equivalences
# -------------------------------------------------------------------------


def test_criterion_1_oracle_equivalences(rng):
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
    checks.append(("ramanujan closed form == direct sum (q, n <= 300)", worst <= 1e-6, f"max |diff| = {worst:.2e}"))

    # Lambda_Q fast form vs direct double sum, every n <= 1000 and Q <= 50
    n_max, q_max = 1000, 50
    ns = np.arange(0, n_max + 1)
    direct_acc = np.zeros(n_max + 1, dtype=np.complex128)
    fast_acc = np.zeros(n_max + 1)
    worst_lq = 0.0
    for q in range(1, q_max + 1):
        mu = mobius(q)
        if mu != 0:
            phi = euler_phi(q)
            coprime = np.array([a for a in range(1, q + 1) if math.gcd(a, q) == 1])
            table = np.exp(2j * np.pi * np.arange(q) / q)
            direct_acc += (mu / phi) * table[np.mod(np.outer(coprime, ns), q)].sum(axis=0)
            c_table = np.array([ramanujan_sum(q, r) for r in range(q)], dtype=np.float64)
            fast_acc += (mu / phi) * c_table[ns % q]
        worst_lq = max(worst_lq, float(np.max(np.abs(direct_acc - fast_acc))))
    checks.append(
        ("Lambda_Q fast form == direct double sum (n <= 1e3, Q <= 50)", worst_lq <= 1e-8,
         f"max |diff| = {worst_lq:.2e}")
    )

    # FFT vs direct convolution on 200 random instances of span <= 512
    gen = np.random.default_rng(101)
    worst_conv = 0.0
    for _ in range(200):
        f = ArithFn(int(gen.integers(0, 100)), gen.normal(size=int(gen.integers(1, 513))))
        g = ArithFn(int(gen.integers(0, 100)), gen.normal(size=int(gen.integers(1, 513))))
        d = arithfn._convolve_direct(f.values, g.values)
        t = arithfn._convolve_fft(f.values, g.values)
        scale = max(float(np.max(np.abs(d))), 1e-12)
        worst_conv = max(worst_conv, float(np.max(np.abs(d - t))) / scale)
    checks.append(("FFT == direct convolution (200 instances)", worst_conv <= 1e-6, f"max rel diff = {worst_conv:.2e}"))

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
            omega = restricted_prime_fn(n, (lo - 1, hi - 1))
        params = LambdaQParams(big_q=big_q, window=(y, 2 * y), c_nu=c_nu)
        short = convolve_with_lambda_q_model(omega, params, n)
        direct = convolve(omega, model_t_nu(params))(n)
        scale = max(abs(direct), 1e-9)
        worst_model = max(worst_model, abs(short - direct) / scale)
    checks.append(
        ("model convolution shortcut == direct (20 configs)", worst_model <= 1e-6,
         f"max rel diff = {worst_model:.2e}")
    )

    report("1 oracle equivalences", checks)


# -------------------------------------------------------------------------
# 2. character suite
# -------------------------------------------------------------------------


def test_criterion_2_characters():
    checks = []

    worst = 0.0
    for q in range(1, 201):
        table = characters_mod(q)
        phi = euler_phi(q)
        gram = table @ np.conj(table.T)
        worst = max(worst, float(np.max(np.abs(gram - phi * np.eye(phi)))))
    checks.append(("orthogonality, q <= 200", worst <= 1e-8, f"max |gram - phi*I| = {worst:.2e}"))

    tau_ok = True
    for q in range(1, 101):
        tau = gauss_sum(characters_mod(q)[0])
        if round(tau.real) != mobius(q) or abs(tau - mobius(q)) > 1e-9:
            tau_ok = False
    checks.append(("tau(principal) == mu(q), q <= 100", tau_ok, "exact after rounding"))

    bound_ok = True
    worst_excess = -1.0
    for q in range(1, 101):
        for chi in characters_mod(q):
            excess = abs(gauss_sum(chi)) - math.sqrt(q)
            worst_excess = max(worst_excess, excess)
            if excess > 1e-9:
                bound_ok = False
    checks.append(("|tau(chi)| <= sqrt(q) + 1e-9, q <= 100", bound_ok, f"max excess = {worst_excess:.2e}"))

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
        ("character expansion of e(m/q) in aggregate, q <= 100", worst_id <= 1e-7,
         f"max |lhs - phi(q) e(m/q)| = {worst_id:.2e}")
    )

    report("2 character suite", checks)


# -------------------------------------------------------------------------
# 3. sieve suite
# -------------------------------------------------------------------------


def test_criterion_3_sieve_suite():
    checks = []

    test_systems = [
        beta_sieve_weights(10_000.0, 10.0, beta=3),
        beta_sieve_weights(10_000.0, 12.0, beta=2),
        beta_sieve_weights(3_000.0, 30.0, beta=1),
        beta_sieve_weights(10_000.0, 10.0, beta=10),  # degenerate truncation, still a valid system
        beta_sieve_weights(float(untruncated_level(7, 10)), 7.0, beta=10),
    ]
    min_theta = min(int(s.theta_window(1, 1_000_001).min()) for s in test_systems)
    checks.append(("theta_n >= 0 for n <= 10^6, every test system", min_theta >= 0, f"min theta = {min_theta}"))

    exact = True
    for z in (2, 3, 5, 7):
        sieve = beta_sieve_weights(float(untruncated_level(z, 10)), float(z), beta=10)
        theta = sieve.theta_window(1, 1_000_001)
        rough = rough_flags(1, 1_000_001, z).astype(np.int64)
        exact = exact and bool(np.array_equal(theta, rough))
    checks.append(("untruncated sieve == z-rough indicator, z in {2,3,5,7}", exact, "exhaustive to 10^6"))

    # scaled sieve mean vs rough density on (10^4, 2*10^4] at z = 10, level 10^4.
    # The truncation exponent must satisfy z^(beta+1) <= level or the level
    # condition bars single primes outright (beta = 10 here collapses the
    # system to the parity sieve); beta = 3 is the largest admissible value.
    z, level = 10.0, 10_000.0
    beta = int(math.log(level) / math.log(z)) - 1
    sieve = beta_sieve_weights(level, z, beta=beta)
    v = mertens_product(z)
    theta_mean = float(sieve.theta_window(10_001, 20_001).mean())
    rough_density = float(rough_flags(10_001, 20_001, z).mean())
    rel = abs(theta_mean / v - rough_density / v) / (rough_density / v)
    checks.append(
        (f"scaled mean vs rough density within 5% (z=10, D=1e4, beta={beta})", rel <= 0.05,
         f"V^-1 mean = {theta_mean / v:.4f}, V^-1 density = {rough_density / v:.4f}, rel diff = {rel:.4f}")
    )

    report("3 sieve suite", checks)


# -------------------------------------------------------------------------
# 4. short-sum sweeps
# -------------------------------------------------------------------------


def test_criterion_4_short_sum_sweeps():
    checks = []
    head = constants.REGRESSION_HEADROOM

    sweep = default_lambda_q_sweep(big_q=10, scale="small")
    rep = verify_lambda_q_short_sums(sweep, ceiling=constants.SHORT_SUM_RATIO_CEILING)
    checks.append(
        (f"major-arc sweep ({len(rep.rows)} points) ratio <= 4.0", rep.passed,
         f"max ratio = {rep.max_ratio:.4f}")
    )
    checks.append(
        ("major-arc sweep non-regression", rep.max_ratio <= constants.LAMBDA_Q_SWEEP_BASELINE * head,
         f"baseline {constants.LAMBDA_Q_SWEEP_BASELINE}")
    )

    sweep2 = default_sieve_sweep(scale="small")
    rep2 = verify_sieve_short_sums(sweep2, ceiling=constants.SHORT_SUM_RATIO_CEILING)
    checks.append(
        (f"sieve sweep ({len(rep2.rows)} points) ratio <= 4.0", rep2.passed,
         f"max ratio = {rep2.max_ratio:.4f}")
    )
    checks.append(
        ("sieve sweep non-regression", rep2.max_ratio <= constants.SIEVE_SWEEP_BASELINE * head,
         f"baseline {constants.SIEVE_SWEEP_BASELINE}")
    )
    assert len(rep.rows) >= 100 and len(rep2.rows) >= 100

    report("4 short-sum sweeps", checks)


# -------------------------------------------------------------------------
# 5. Gallagher inequality
# -------------------------------------------------------------------------


def test_criterion_5_gallagher():
    gen = np.random.default_rng(7)
    ratios = []
    for _ in range(100):
        f = ArithFn(10_000, gen.choice([-1.0, 1.0], size=10_000))
        ratios.append(gallagher_lhs(f, 50.0) / gallagher_rhs(f, 50.0))
    worst = max(ratios)
    checks = [
        ("max lhs/rhs over 100 seeded random functions <= 20", worst <= constants.GALLAGHER_RATIO_CEILING,
         f"max ratio = {worst:.4f}"),
        ("non-regression", worst <= constants.GALLAGHER_RANDOM_BASELINE * constants.REGRESSION_HEADROOM,
         f"baseline {constants.GALLAGHER_RANDOM_BASELINE}"),
    ]
    report("5 Gallagher inequality", checks)


# -------------------------------------------------------------------------
# 6. closeness ordering
# -------------------------------------------------------------------------


def test_criterion_6_closeness_ordering():
    y = 100_000
    h = y**0.3
    params = LambdaQParams(big_q=10, window=(y, 2 * y), c_nu=1.0)
    primes_fn = restricted_prime_fn(2 * y, (y, 2 * y))
    t_nu = model_t_nu(params)
    t_plus = model_t_nu_plus(params, 10)
    ref = l2_norm_sq(primes_fn)

    rep1 = closeness_integral(primes_fn, t_nu, h, reference_norm=ref)
    rep2 = closeness_integral(t_nu, t_plus, h, reference_norm=ref)
    head = constants.REGRESSION_HEADROOM

    checks = [
        ("theta(model, sieve model) <= theta(primes, model)",
         rep2.theta_effective <= rep1.theta_effective,
         f"{rep2.theta_effective:.5f} <= {rep1.theta_effective:.5f}"),
        ("both <= 0.1 of ||weighted primes||_2^2",
         rep1.theta_effective <= 0.1 and rep2.theta_effective <= 0.1,
         f"reference norm = {ref:.4g}"),
        ("non-regression (primes vs model)",
         rep1.theta_effective <= constants.THETA_PRIMES_VS_MODEL_BASELINE * head,
         f"baseline {constants.THETA_PRIMES_VS_MODEL_BASELINE}"),
        ("non-regression (model vs sieve model)",
         rep2.theta_effective <= constants.THETA_MODEL_VS_SIEVE_BASELINE * head,
         f"baseline {constants.THETA_MODEL_VS_SIEVE_BASELINE}"),
    ]
    report("6 closeness ordering", checks)


# -------------------------------------------------------------------------
# 7. pipeline
# -------------------------------------------------------------------------


def test_criterion_7_pipeline():
    checks = []

    config = desk_config(200_000, big_q=10)
    nu = restricted_prime_fn(config.x, config.nu_window)
    omega = restricted_prime_fn(config.x, config.omega_window)
    collapsed = run_pipeline(config, nu, omega, a=omega, b=nu, t_nu=nu, t_nu_plus=nu)
    all_zero = (
        collapsed.exceptions_step2 == 0
        and collapsed.exceptions_step4 == 0
        and collapsed.final_failures == 0
        and collapsed.minorization_violations == 0
        and collapsed.step_positivity_violations == 0
    )
    checks.append(("collapsed chain: zero exceptions at every step", all_zero, str(collapsed.summary())))

    preset = PRESETS["desk-small"]()
    report_run = run_pipeline(preset, *desk_pipeline_inputs(preset))
    frac = report_run.final_failure_fraction
    checks.append(
        ("desk-small: final failure fraction <= 1% of even n", frac <= 0.01,
         f"{report_run.final_failures}/{report_run.even_count} (fraction {frac:.4f})")
    )
    checks.append(
        ("desk-small: pointwise domination step has zero violations",
         report_run.step_positivity_violations == 0, "a*T+ >= omega*T+ everywhere")
    )
    checks.append(
        ("desk-small: minorization violations exactly 0",
         report_run.minorization_violations == 0, "nu <= b and omega <= a")
    )
    total = preset.h + 1
    step2_frac = report_run.exceptions_step2 / total
    step4_frac = report_run.exceptions_step4 / total
    checks.append(
        ("desk-small: regression baselines for approximation steps",
         frac <= constants.PIPELINE_FINAL_FAILURE_FRACTION_BASELINE
         and step2_frac <= constants.PIPELINE_STEP2_EXCEPTION_FRACTION_BASELINE
         and step4_frac <= constants.PIPELINE_STEP4_EXCEPTION_FRACTION_BASELINE,
         f"step2 {step2_frac:.3f} (<= {constants.PIPELINE_STEP2_EXCEPTION_FRACTION_BASELINE}), "
         f"step4 {step4_frac:.3f} (<= {constants.PIPELINE_STEP4_EXCEPTION_FRACTION_BASELINE})")
    )

    report("7 pipeline", checks)


# -------------------------------------------------------------------------
# 8. Goldbach ground truth
# -------------------------------------------------------------------------


def test_criterion_8_goldbach_ground_truth():
    checks = []

    full = exceptional_set(1_000_000, 1_000_000 - 4)
    checks.append(
        ("E(10^6, 10^6 - 4) empty: every even in [4, 10^6] is a Goldbach number",
         full == [], f"{len(full)} exceptions")
    )

    gen = np.random.default_rng(31337)
    worst_windows = 0
    for _ in range(20):
        h = int(gen.integers(2, 10_001))
        x = int(gen.integers(h + 4, 1_000_001))
        worst_windows += len(exceptional_set(x, h))
    checks.append(("20 random windows (X <= 10^6, H <= 10^4) all empty", worst_windows == 0,
                   f"total exceptions = {worst_windows}"))

    report("8 Goldbach ground truth", checks)


# -------------------------------------------------------------------------
# 9. singular series
# -------------------------------------------------------------------------


def test_criterion_9_singular_series():
    checks = []

    values = np.array([singular_series_product(n, 100_000) for n in range(4, 10_001, 2)])
    checks.append(
        ("singular series >= 1.3 for all even n <= 10^4", bool(values.min() >= 1.3),
         f"min = {values.min():.6f}")
    )

    odd_ok = True
    worst_odd = 0.0
    for n in (3, 9, 15, 101, 999, 9999):
        if singular_series_product(n, 100_000) != 0.0:
            odd_ok = False
        partial = abs(singular_series(n, 10_000))
        worst_odd = max(worst_odd, partial)
    checks.append(
        ("odd n: product vanishes and partial sums <= 1e-2", odd_ok and worst_odd <= 1e-2,
         f"max |partial| = {worst_odd:.2e}")
    )

    worst_pair = 0.0
    for n in (4, 30, 90, 210, 1024, 9998):
        a = singular_series_smooth_sum(n, 13)
        b = singular_series_product(n, 13)
        worst_pair = max(worst_pair, abs(a - b) / abs(b))
    checks.append(
        ("series and product paths agree within 1e-6 over the same primes",
         worst_pair <= 1e-6, f"max rel diff = {worst_pair:.2e}")
    )

    report("9 singular series", checks)
