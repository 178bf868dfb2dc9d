"""Counter-inputs: for each check a `cmlab` subcommand writes, and for each
acceptance criterion, an input on which it fails.

A counter is a callable that takes pytest's monkeypatch and patches the
package: a lowered constant, a zeroed model, an inflated omega, a broken table.
tests/test_cli.py runs every row of COUNTERS and asserts that the named check
fails; tests/test_acceptance.py runs each criterion that reads the package
under one of these counters and asserts that the criterion fails.
pytest names each parametrized test after its counter's __name__, so a
renamed counter renames those tests.
"""

import numpy as np

from cmlab import arith, cli, closeness, constants, goldbach, models
from cmlab.arithfn import ArithFn


def _lower(name, value):
    return lambda monkeypatch: monkeypatch.setattr(constants, name, value)


def _omega_above_a(monkeypatch):
    # omega = 1000 a on its window: omega <= a fails, (a - omega)*T+ turns
    # negative, and omega*T outgrows a*a at every even n
    def inputs(config):
        nu, omega, a = goldbach.desk_pipeline_inputs(config)
        return nu, ArithFn(omega.support_start, 1000.0 * omega.values), a

    monkeypatch.setattr(cli, "desk_pipeline_inputs", inputs)


def _zero(model):
    def patch(monkeypatch):
        def zero(y, *args):
            return ArithFn(y + 1, np.zeros(y))

        monkeypatch.setattr(closeness, model, zero)  # verify closeness builds its models there

    return patch


def _negate_mu_3(monkeypatch):
    # mu(3) = +1 in the table models reads: Lambda_Q moves by 6.0 on [0, 1000] at Q = 10
    def table(limit):
        mu, phi = arith.mu_phi_table(limit)
        if limit >= 3:
            mu = mu.copy()
            mu[3] = -mu[3]
        return mu, phi

    monkeypatch.setattr(models, "mu_phi_table", table)


def _truncate_every_position(monkeypatch):
    # the level condition at even positions as well: not an upper-bound sieve
    # (theta(35) = -1 already at beta = 1, z = 10, D = 100; see the models docstring)
    def weights(level, sift, beta=10):
        primes = arith.cached_primes(int(sift)).tolist()[::-1]
        lambdas = {1: 1}

        def extend(prefix, idx, sign):
            for i in range(idx, len(primes)):
                if prefix * primes[i] ** (beta + 1) <= int(level):
                    lambdas[prefix * primes[i]] = -sign
                    extend(prefix * primes[i], i + 1, -sign)

        extend(1, 0, 1)
        divisors, weights = np.array(list(lambdas)), np.array(list(lambdas.values()))
        return models.SieveSystem(beta, float(level), float(sift), divisors, weights)

    monkeypatch.setattr(models, "beta_sieve_weights", weights)


def _miss_prime_3(monkeypatch):
    # a prime sieve in goldbach that misses 3: 6 = 3 + 3 loses its only partition
    def flags(lo, hi):
        first, out = arith.odd_prime_flags(lo, hi)
        if first <= 3 <= hi:
            out[(3 - first) // 2] = False
        return first, out

    monkeypatch.setattr(goldbach, "odd_prime_flags", flags)


def _drop_prime_2(monkeypatch):
    # goldbach's prime table without 2: the product takes the p = 2 factor in closed form and its
    # odd primes as the table after its first entry, so it loses the factor at 3 and no longer
    # meets the series over the same primes
    monkeypatch.setattr(goldbach, "cached_primes", lambda limit: arith.cached_primes(limit)[1:])


GALLAGHER_7 = ["verify", "gallagher", "--seed", "7"]
DESK_SMALL = ["pipeline", "--preset", "desk-small"]
PIPELINE_CHECKS = ["final failure fraction", "step positivity violations", "minorization violations"]
PIPELINE_BASELINES = [f"{name} vs baseline" for name in (
    "final failure fraction", "step2 exception fraction", "step4 exception fraction",
)]

# named, because the acceptance criteria run under them too
LOWER_GALLAGHER_BOUND = _lower("GALLAGHER_RANDOM_BASELINE", 3.8)
LOWER_LAMBDA_Q_SWEEP_BOUND = _lower("LAMBDA_Q_SWEEP_BASELINE", 0.01)
LOWER_MODEL_VS_SIEVE_BOUND = _lower("THETA_MODEL_VS_SIEVE_BASELINE", 0.006)

# (argv, counter, name of the check that fails on it): a row for every check name the CLI writes
COUNTERS = [
    (GALLAGHER_7, _lower("GALLAGHER_RATIO_CEILING", 4.0), "max ratio"),
    (GALLAGHER_7, LOWER_GALLAGHER_BOUND, "max ratio vs baseline"),
    (["verify", "lambda_q_short"], _lower("SHORT_SUM_RATIO_CEILING", 0.01), "max ratio"),
    (["verify", "lambda_q_short"], LOWER_LAMBDA_Q_SWEEP_BOUND, "max ratio vs baseline"),
    (["verify", "sieve_short"], _lower("SHORT_SUM_RATIO_CEILING", 0.1), "max ratio"),
    (["verify", "sieve_short"], _lower("SIEVE_SWEEP_BASELINE", 0.1), "max ratio vs baseline"),
    (["verify", "closeness", "--Y", "20000"], _zero("model_t_nu_plus"), "theta ordering"),
    # with a zero model theta(primes, model) is 0.126, over twice the bound 0.055
    (["verify", "closeness"], _zero("model_t_nu"), "theta_primes_vs_model vs baseline"),
    (["verify", "closeness"], _lower("THETA_PRIMES_VS_MODEL_BASELINE", 0.04), "theta_primes_vs_model vs baseline"),
    (["verify", "closeness"], LOWER_MODEL_VS_SIEVE_BOUND, "theta_model_vs_sieve vs baseline"),
    (DESK_SMALL, _omega_above_a, "final failure fraction"),
    (DESK_SMALL, _omega_above_a, "step positivity violations"),
    (DESK_SMALL, _omega_above_a, "minorization violations"),
    (DESK_SMALL, _omega_above_a, PIPELINE_BASELINES[0]),
    (DESK_SMALL, _lower("PIPELINE_STEP2_EXCEPTION_FRACTION_BASELINE", 0.2), PIPELINE_BASELINES[1]),
    (DESK_SMALL, _lower("PIPELINE_STEP4_EXCEPTION_FRACTION_BASELINE", 0.15), PIPELINE_BASELINES[2]),
]
