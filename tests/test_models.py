import math
import tracemalloc

import numpy as np
import pytest

from cmlab import errors, models
from cmlab.arith import prime_weights, rough_flags, sieve_primes
from cmlab.arithfn import TWO_PI, ArithFn, dense
from cmlab.closeness import default_lambda_q_sweep, default_sieve_sweep
from cmlab.errors import CapacityError, ContractError, DomainError
from cmlab.models import (
    SieveSystem,
    beta_sieve_weights,
    lambda_q_short_sum,
    lambda_q_window,
    mertens_product,
    model_t_nu,
    model_t_nu_plus,
    sieve_short_sum,
    untruncated_level,
)
import oracles
from oracles import euler_phi, lambda_q_direct, mobius


def untruncated_level_walk(sift, beta):
    """Largest p_1 ... p_{m-1} * p_m^(beta+1) over every decreasing prime chain
    of primes <= z with m odd, by walking all 2^pi(z) chains (oracle)."""
    primes = [int(p) for p in sieve_primes(int(sift))][::-1]
    best = 1

    def walk(prefix, idx, pos):
        nonlocal best
        for i in range(idx, len(primes)):
            p = primes[i]
            if (pos + 1) % 2 == 1:
                best = max(best, prefix * p ** (beta + 1))
            walk(prefix * p, i + 1, pos + 1)

    walk(1, 0, 0)
    return best


class TestLambdaQ:
    def test_q1_is_one(self):
        assert all(lambda_q_window(n, n + 1, 1)[0] == 1.0 for n in range(0, 50))

    def test_q2_is_parity(self):
        # 1 - e(n/2): 0 at even n, 2 at odd n
        for n in range(30):
            assert lambda_q_window(n, n + 1, 2)[0] == pytest.approx(0.0 if n % 2 == 0 else 2.0)

    def test_fast_form_equals_direct_sum(self):
        assert lambda_q_window(210, 211, 30)[0] == pytest.approx(lambda_q_direct(210, 30), abs=1e-8)
        for n in (0, 1, 17, 100, 841):
            for big_q in (3, 12, 25):
                assert lambda_q_window(n, n + 1, big_q)[0] == pytest.approx(lambda_q_direct(n, big_q), abs=1e-8)

    def test_q_beyond_the_int8_range(self):
        # mu is an int8 table, and d * mu[d] would cast d = 128 and up to int8
        window = lambda_q_window(1000, 1006, 130)
        assert window == pytest.approx([lambda_q_direct(n, 130) for n in range(1000, 1006)], abs=1e-8)

    @pytest.mark.parametrize("start", [2**63 - 150, 2**63 + 700], ids=["straddles 2^63", "past 2^63"])
    def test_window_past_the_int64_range(self, start):
        window = lambda_q_window(start, start + 300, 10)
        assert window == pytest.approx([lambda_q_direct(n, 10) for n in range(start, start + 300)], abs=1e-8)

    def test_window_matches_scalar(self):
        window = lambda_q_window(100, 200, 15)
        for i, n in enumerate(range(100, 200)):
            assert window[i] == pytest.approx(lambda_q_window(n, n + 1, 15)[0], abs=1e-12)

    def test_progression_averages_follow_primes(self):
        # mean of Lambda_Q on n = a (mod q), n <= N approximates the mean of the
        # weighted primes on the same progression (within 10% for q <= Q = 20)
        n_max = 100_000
        big_q = 20
        model = lambda_q_window(1, n_max + 1, big_q)
        primes = dense(prime_weights(1, n_max + 1), 1, n_max + 1)
        for q in range(1, big_q + 1):
            for a in range(q):
                if math.gcd(a, q) != 1:
                    continue
                idx = np.arange(a if a else q, n_max + 1, q) - 1
                mean_model = model[idx].mean()
                mean_primes = primes[idx].mean()
                assert abs(mean_model - mean_primes) <= 0.10 * mean_primes


class TestLambdaQShortSum:
    def test_trivial_twist_exact(self):
        actual, predicted, budget = lambda_q_short_sum(5000, 1000.0, 1, r=0, q_twist=1)
        assert actual == pytest.approx(1000.0)
        assert predicted == pytest.approx(1000.0)
        assert budget == 1.0

    def test_q2_main_term(self):
        actual, predicted, budget = lambda_q_short_sum(100_000, 1000.0, 10, r=1, q_twist=2)
        assert predicted == pytest.approx(mobius(2) * 1000.0 / euler_phi(2))
        assert abs(actual - predicted) <= 10**3  # Q^3

    def test_large_twist_denominator(self):
        actual, _, budget = lambda_q_short_sum(100_000, 1000.0, 10, r=1, q_twist=97)
        assert budget == 97 * 10 + 1000
        assert abs(actual) <= 2 * budget

    def test_direct_window_oracle(self):
        # windowed sum recomputed from Lambda_Q one n at a time
        t, h, big_q, r, q = 2000, 50.0, 8, 3, 5
        actual, _, _ = lambda_q_short_sum(t, h, big_q, r=r, q_twist=q)
        direct = sum(
            lambda_q_window(n, n + 1, big_q)[0] * np.exp(2j * np.pi * r * n / q) for n in range(t - 50 + 1, t + 1)
        )
        assert actual == pytest.approx(direct, abs=1e-9)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            lambda_q_short_sum(100, 200.0, 5)  # t <= H'
        with pytest.raises(DomainError):
            lambda_q_short_sum(1000, 10.0, 5, r=2, q_twist=4)  # gcd(r, q') > 1


def fsum_twisted_sum(values, lo, r, q):
    """sum of v(lo + i) e(r (lo + i) / q), one term at a time with the exact
    phase r n mod q, each part added by math.fsum (oracle)."""
    terms = [(v, TWO_PI * ((r * (lo + i)) % q) / q) for i, v in enumerate(values.tolist())]
    return complex(
        math.fsum(v * math.cos(phase) for v, phase in terms),
        math.fsum(v * math.sin(phase) for v, phase in terms),
    )


@pytest.mark.parametrize("q_twist", [1, 2, 6, 30, 97, 211, 2864])
def test_short_sums_match_fsum_oracle(q_twist):
    # r = q' - 1, r = -1 and r = -q' - 1 are the same twist; q' = 6 and 30
    # divide r d for the weights d = 6 and 30, whose inner sums are counts;
    # H' = 150 < q' = 211 leaves residue classes the window never reaches, and
    # H' = 7.5 leaves most weights d without a multiple in the window; Q = 130
    # reads weights d >= 128, past the int8 range of mu; at Q = 3000 and
    # q' = 2864, r = -1 makes sin(pi r d / q') small for the small d; the
    # sieve is the 145-weight truncated one, so theta takes values beyond 0 and 1
    sieve = beta_sieve_weights(3_000.0, 30.0, beta=1)
    assert len(sieve.weights) == 145
    rs = {0} if q_twist == 1 else {1, -1, -q_twist - 1, q_twist - 1, q_twist // 2 + 1}
    windows = ((100_003, 997.0), (500_009, 10_000.0), (5_000, 150.0), (77_777, 1234.5), (1_000_003, 7.5))
    for t, h in windows:
        lo = t - int(h) + 1
        theta = sieve.theta_window(lo, t + 1) / mertens_product(sieve.sift)
        lams = {big_q: lambda_q_window(lo, t + 1, big_q) for big_q in (10, 130, 3000)}
        for r in rs:
            if math.gcd(r, q_twist) != 1:
                continue
            for big_q, lam in lams.items():
                actual = lambda_q_short_sum(t, h, big_q, r=r, q_twist=q_twist)[0]
                oracle = fsum_twisted_sum(lam, lo, r, q_twist)
                assert abs(actual - oracle) <= 1e-12 * abs(oracle), (t, h, r, big_q)
            actual = sieve_short_sum(t, h, sieve, r=r, q_twist=q_twist)[0]
            oracle = fsum_twisted_sum(theta, lo, r, q_twist)
            assert abs(actual - oracle) <= 1e-12 * abs(oracle), (t, h, r)


def test_default_sweeps_sum_from_the_divisor_side(monkeypatch):
    # a sweep point costs O(number of weights): no short sum builds a window
    def refuse(*args):
        raise AssertionError("a short sum built a window")

    monkeypatch.setattr(models, "lambda_q_window", refuse)
    monkeypatch.setattr(SieveSystem, "theta_window", refuse)
    for short_sum, sweep in (default_lambda_q_sweep(10, "small"), default_sieve_sweep("small")):
        for model, point in sweep:
            short_sum(point["t"], point["h_prime"], model, r=point["r"], q_twist=point["q_twist"])


@pytest.mark.parametrize("budget", [models.POINT_VALUES, 20])
def test_broadcast_equals_the_scalar_call_at_every_point(monkeypatch, budget):
    # one call per model with arrays of points gives, at each point, what the call at
    # that point alone gives; a budget of 20 values holds 2 points of Lambda_Q at Q = 10
    # (7 weights) and at most one of a sieve, so blocks end inside each model and
    # between twins; the extra points are past 2^63 and at both twist branches
    monkeypatch.setattr(models, "POINT_VALUES", budget)
    big = 1 << 63
    extra = [(10, {"t": t, "h_prime": h, "r": r, "q_twist": q})
             for t in (big - 5, big + 999, 3 * big) for h in (100.0, 1000.5)
             for q, r in ((1, 0), (7, 3), (7, 4), (97, 1), (97, 96))]
    for short_sum, sweep in (default_lambda_q_sweep(10, "medium"), default_sieve_sweep("medium"),
                             (lambda_q_short_sum, extra)):
        by_model: dict = {}
        for model, point in sweep:
            by_model.setdefault(model, []).append(point)
        for model, points in by_model.items():
            t, h, r, q = ([point[key] for point in points] for key in ("t", "h_prime", "r", "q_twist"))
            got = short_sum(np.array(t, dtype=object), np.array(h), model, r=np.array(r), q_twist=np.array(q))
            for i, point in enumerate(points):
                one = short_sum(point["t"], point["h_prime"], model, r=point["r"], q_twist=point["q_twist"])
                assert (complex(got[0][i]), complex(got[1][i]), float(got[2][i])) == one, point


def test_big_t_sums_match_the_fsum_oracle():
    # t past 2^63 is summed in Python ints; the window of Lambda_Q there, by its divisor sum in Python ints
    t, h, big_q = (1 << 63) + 999, 300.0, 10
    lo = t - int(h) + 1
    weights = list(zip(*(x.tolist() for x in models.lambda_q_weights(big_q))))
    lam = np.array([math.fsum(w for d, w in weights if n % d == 0) for n in range(lo, t + 1)])
    for r, q_twist in ((0, 1), (3, 7), (4, 7), (96, 97)):
        actual = lambda_q_short_sum(t, h, big_q, r=r, q_twist=q_twist)[0]
        oracle = fsum_twisted_sum(lam, lo, r, q_twist)
        assert abs(actual - oracle) <= 1e-12 * abs(oracle), (r, q_twist)


def weights_of(sieve):
    """The sieve's weights as {d: lambda_d}."""
    return dict(zip(sieve.divisors.tolist(), sieve.weights.tolist()))


class TestBetaSieve:
    def test_untruncated_is_exact_rough_indicator(self):
        # the identity model_t_nu_plus relies on when it reads rough_flags
        for z in (2, 3, 5, 7, 10):
            sieve = beta_sieve_weights(float(untruncated_level(z)), z)
            theta = sieve.theta_window(1, 100_001)
            rough = rough_flags(1, 100_001, z).astype(np.int64)
            assert np.array_equal(theta, rough)

    def test_untruncated_level_closed_form_matches_walk(self):
        for z in np.arange(0.0, 40.5, 0.5):
            for beta in range(1, 13):
                assert untruncated_level(z, beta) == untruncated_level_walk(z, beta), (z, beta)

    def test_z2_weights(self):
        sieve = beta_sieve_weights(2048.0, 2.0, beta=10)
        assert weights_of(sieve) == {1: 1, 2: -1}
        theta = sieve.theta_window(1, 1001)
        assert np.array_equal(theta, np.arange(1, 1001) % 2)

    def test_beta10_at_desk_level_degenerates(self):
        # at z = 10, D = 10^4 the level condition p * p^10 <= D bars every
        # prime above 2, so the system collapses to the parity sieve
        sieve = beta_sieve_weights(10_000.0, 10.0, beta=10)
        assert weights_of(sieve) == {1: 1, 2: -1}

    def test_nonnegative_and_prime_value(self):
        for sieve in (
            beta_sieve_weights(10_000.0, 10.0, beta=3),
            beta_sieve_weights(10_000.0, 12.0, beta=2),
            beta_sieve_weights(3_000.0, 30.0, beta=1),
            beta_sieve_weights(10_000.0, 10.0, beta=10),
        ):
            theta = sieve.theta_window(1, 1_000_001)
            assert int(theta.min()) >= 0
            for p in sieve_primes(10_000).tolist():
                if p > sieve.sift:
                    assert oracles.theta(sieve, p) == 1

    def test_weight_invariants(self):
        sieve = beta_sieve_weights(3_000.0, 30.0, beta=1)
        lambdas = weights_of(sieve)
        assert len(lambdas) == len(sieve.weights) == 145
        assert lambdas[1] == 1
        assert all(abs(v) <= 1 for v in lambdas.values())
        assert all(d <= sieve.level for d in lambdas)
        assert not sieve.divisors.flags.writeable and not sieve.weights.flags.writeable

    def test_odd_position_rule_is_required_for_nonnegativity(self):
        # all-positions admission at beta=1, z=10, D=100 would reject 35 while
        # keeping 5 and 7, giving theta(35) = -1; the odd-position rule admits
        # 35 and stays nonnegative
        sieve = beta_sieve_weights(100.0, 10.0, beta=1)
        assert 35 in weights_of(sieve)
        assert oracles.theta(sieve, 35) == 0

    @pytest.mark.parametrize("sift", [2.0, 3.0, 10.0, 12.0, 30.0])
    @pytest.mark.parametrize("beta", [1, 2, 3, 10])
    def test_admitted_set_matches_subset_walk(self, sift, beta):
        top = float(untruncated_level(sift, beta))
        for level in (sift, 100.0, 3_000.0, 10_000.0, 1e9, math.nextafter(top, 0), top):
            if level >= sift:
                assert weights_of(beta_sieve_weights(level, sift, beta)) == oracles.admitted_weights(level, sift, beta)

    def test_level_past_int64(self):
        # floor(D) >= 2^63: the d are Python ints, which float64 would round
        sieve = beta_sieve_weights(1.5e19, 60.0, beta=1)
        assert len(sieve.weights) == 130963 and max(sieve.divisors.tolist()) > 1 << 63
        n = 29 * math.prod(sieve_primes(47).tolist())  # 1.8e19, a multiple of every prime <= 47
        assert sieve.theta_window(n - 20, n + 21).tolist() == [oracles.theta(sieve, m) for m in range(n - 20, n + 21)]
        for t, h in ((n + 20, 41.0), (100_003, 997.0)):
            lo = t - int(h) + 1
            theta = sieve.theta_window(lo, t + 1) / mertens_product(sieve.sift)
            for r, q_twist in ((0, 1), (1, 97), (-1, 2864)):
                actual = sieve_short_sum(t, h, sieve, r=r, q_twist=q_twist)[0]
                oracle = fsum_twisted_sum(theta, lo, r, q_twist)
                assert abs(actual - oracle) <= 1e-12 * abs(oracle), (t, r, q_twist)

    @pytest.mark.parametrize("divisors, weights, message", [
        ([2, 3], [-1, -1], "lambda_1 must be 1"),
        ([1, 2], [1, -2], "must be <= 1"),
        ([1, 2, 11], [1, -1, -1], "supported on d <= D"),
        ([1, 2, (1 << 63) + 1], [1, -1, -1], "supported on d <= D"),
    ])
    def test_system_checks(self, divisors, weights, message):
        with pytest.raises(ContractError, match=message):
            SieveSystem(1, 10.0, 3.0, np.array(divisors, dtype=object), np.array(weights))

    def test_weights_over_cap_fail(self, monkeypatch):
        # each prime position is met against the cap before it is stored, at WEIGHT_BYTES + bits of D // 7
        # per weight up to it: a cap one byte below the estimate of all 145 refuses the last position
        count = len(beta_sieve_weights(3_000.0, 30.0, beta=1).weights)
        estimate = (models.WEIGHT_BYTES + 1) * count  # 3000 has 12 bits
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate)
        assert len(beta_sieve_weights(3_000.0, 30.0, beta=1).weights) == count
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate - 1)
        with pytest.raises(CapacityError, match=f"needs {estimate} bytes"):
            beta_sieve_weights(3_000.0, 30.0, beta=1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            beta_sieve_weights(1.0, 2.0)
        with pytest.raises(DomainError):
            beta_sieve_weights(100.0, 1.5)


class TestDivisorSum:
    """models._divisor_sum passes only over the d with a multiple in the window."""

    @staticmethod
    def every_d(start, stop, weights, dtype):
        """sum_{d | n} w(d) on [start, stop), one strided pass for every d (oracle)."""
        out = np.zeros(stop - start, dtype=dtype)
        for d, w in zip(*(a.tolist() for a in weights)):
            out[-start % d :: d] += w
        return out

    @pytest.mark.parametrize("level, sift", [(3_000.0, 30.0), (1.5e19, 60.0)], ids=["int64", "past int64"])
    def test_sieve_weights_match_every_d(self, level, sift):
        sieve = beta_sieve_weights(level, sift, beta=1)
        weights = (sieve.divisors, sieve.weights)
        top = max(sieve.divisors.tolist())
        assert (top > 1 << 63) == (level > 2**63) and (sieve.divisors.dtype == object) == (level > 2**63)
        # windows shorter than most d, ones that end or start at a multiple of the largest d,
        # one just past its multiple 2 top, and an empty one
        for start, stop in ((1, 2), (1, 200), (1001, 1010), (top - 5, top + 1), (top, top + 3),
                            (2 * top + 1, 2 * top + 2000), (top + 7, top + 7)):
            got = models._divisor_sum(start, stop, weights, np.int64)
            assert got.tolist() == self.every_d(start, stop, weights, np.int64).tolist()

    def test_lambda_q_weights_match_every_d(self):
        weights = models.lambda_q_weights(300)
        for start, stop in ((1, 50), (997, 1003), (30_031, 30_032), (10**6, 10**6 + 400)):
            assert np.array_equal(models._divisor_sum(start, stop, weights, np.float64),
                                  self.every_d(start, stop, weights, np.float64))


class TestMertens:
    def test_value_and_monotonicity(self):
        assert mertens_product(1) == 1.0
        assert mertens_product(10) == pytest.approx(8 / 35)
        vs = [mertens_product(z) for z in (2, 3, 5, 7, 11, 100)]
        assert all(0 < v <= 0.5 for v in vs)
        assert vs == sorted(vs, reverse=True)
        with pytest.raises(DomainError):
            mertens_product(-1)


class TestModels:
    def test_zero_scale(self):
        assert not model_t_nu(100, 5, 0.0).values.any()

    @pytest.mark.parametrize("c_nu", [-1.0, math.nan])
    def test_scale_must_be_nonnegative(self, c_nu):
        # nan compares False with everything, so `c_nu < 0` alone let it through
        with pytest.raises(DomainError, match="c_nu must be >= 0"):
            model_t_nu(100, 5, c_nu)
        with pytest.raises(DomainError, match="c_nu must be >= 0"):
            model_t_nu_plus(100, 5.0, c_nu)

    @pytest.mark.parametrize("y", [0, -5])
    def test_y_must_be_positive(self, y):
        # the models live on (Y, 2Y], which is empty for Y < 1
        with pytest.raises(DomainError, match="Y must be >= 1"):
            model_t_nu(y, 5)
        with pytest.raises(DomainError, match="Y must be >= 1"):
            model_t_nu_plus(y, 5.0)

    @pytest.mark.parametrize("big_q", [10, 100])
    def test_t_nu_peak_is_two_windows(self, big_q):
        # Lambda_Q is one array of divisor sums and c_nu scales it into a
        # second; an index array or a gathered row per modulus would be a third
        tracemalloc.start()
        try:
            t = model_t_nu(10**6, big_q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * t.values.nbytes + (1 << 16)

    def test_q1_constant(self):
        t = model_t_nu(10, 1, 0.7)
        assert np.allclose(t.values, 0.7)
        assert t.support_start == 11
        assert t.support_stop == 21

    def test_mean_agreement_of_both_models(self):
        # window (1e4, 2e4], Q = 10: the sieve model mean tracks the major-arc
        # model mean within 5% once the sieve is in its exact regime
        y = 10_000
        t_nu = model_t_nu(y, 10)
        t_plus = model_t_nu_plus(y, 10)
        m1 = float(t_nu.values.mean())
        m2 = float(t_plus.values.mean())
        assert abs(m1 - m2) <= 0.05 * abs(m1)

    def test_t_plus_nonnegative_enforced(self, monkeypatch):
        # D = 10 is below untruncated_level(3, 2) = 27, so the weights are built
        broken = SieveSystem(2, 10.0, 3.0, divisors=np.array([1, 2, 3, 6]), weights=np.array([1, -1, -1, -1]))
        monkeypatch.setattr(models, "beta_sieve_weights", lambda level, sift, beta: broken)
        with pytest.raises(ContractError, match="upper-bound"):
            model_t_nu_plus(100, 3.0, level=10.0, beta=2)

    def test_t_plus_reads_the_level_it_is_given(self):
        # no level, or one at the untruncated level, reads rough_flags; a lower
        # level builds the truncated weights; both give c_nu / V(z) * theta
        cases = (
            ((10.0,), beta_sieve_weights(float(untruncated_level(10)), 10.0)),
            ((10.0, float(untruncated_level(10, 3)), 3), beta_sieve_weights(float(untruncated_level(10, 3)), 10.0, 3)),
            ((30.0, 3_000.0, 1), beta_sieve_weights(3_000.0, 30.0, 1)),
            ((10.0, 10_000.0, 10), beta_sieve_weights(10_000.0, 10.0, 10)),
        )
        for (sift, *args), sieve in cases:
            t_plus = model_t_nu_plus(1000, sift, 0.7, *args)
            expected = (0.7 / mertens_product(sieve.sift)) * sieve.theta_window(1001, 2001).astype(np.float64)
            assert t_plus.support_start == 1001
            assert np.array_equal(t_plus.values, expected), args
        with pytest.raises(DomainError):
            model_t_nu_plus(1000, 1.5, 0.7)


class TestSieveShortSum:
    def test_untruncated_rough_count(self):
        # q = 1: V(z)^{-1} sum theta_n approximates the window length because
        # theta is the exact rough indicator there
        sieve = beta_sieve_weights(float(untruncated_level(10)), 10.0)
        t, h = 50_000, 7_000.0
        actual, predicted, _ = sieve_short_sum(t, h, sieve, r=0, q_twist=1)
        rough_count = int(rough_flags(t - 7000 + 1, t + 1, 10).sum())
        assert actual.real == pytest.approx(rough_count / mertens_product(10), rel=1e-12)
        assert predicted == pytest.approx(h)
        assert abs(actual - predicted) / h < 0.02

    def test_small_modulus_branch(self):
        sieve = beta_sieve_weights(10_000.0, 10.0, beta=3)
        actual, predicted, budget = sieve_short_sum(100_000, 5_000.0, sieve, r=1, q_twist=2)
        assert predicted == pytest.approx(-5_000.0)
        assert abs(actual - predicted) <= 4.0 * budget

    def test_large_modulus_branch(self):
        sieve = beta_sieve_weights(10_000.0, 10.0, beta=3)
        q = 11  # smallest prime beyond the sifting range
        actual, predicted, budget = sieve_short_sum(100_000, 5_000.0, sieve, r=1, q_twist=q)
        assert predicted == 0
        assert budget == pytest.approx((5_000.0 / q + 10_000.0 + q) * math.log(q * 5_000.0))
        assert abs(actual) <= 4.0 * budget

    def test_preconditions(self):
        sieve = beta_sieve_weights(100.0, 5.0, beta=2)
        with pytest.raises(DomainError):
            sieve_short_sum(10, 20.0, sieve)
        with pytest.raises(DomainError):
            sieve_short_sum(1000, 10.0, sieve, r=3, q_twist=6)
