import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import arith
from cmlab.arith import (
    cached_primes,
    mu_phi_table,
    odd_prime_flags,
    prime_weights,
    rough_flags,
    sieve_primes,
)
from cmlab.arithfn import ArithFn, dense
from cmlab.errors import DomainError
from oracles import FactoredInteger, euler_phi, factorize, is_rough, mobius, odd_only_sieve


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return out


def miller_rabin(n):
    """Deterministic for n < 3.3 * 10^24 with the prime bases up to 37."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n):
    """By trial division (oracles.factorize)."""
    return n >= 2 and factorize(n).factors == ((n, 1),)


def odd_part(flags, lo, hi):
    """What odd_prime_flags(lo, hi) must return, read off flags indexed by n."""
    return lo | 1, flags[lo | 1 : hi + 1 : 2]


def assert_odd_flags(lo, hi, want):
    first, flags = odd_prime_flags(lo, hi)
    assert first == want[0] and np.array_equal(flags, want[1]), (lo, hi)


class TestSievePrimes:
    def test_first_primes(self):
        assert sieve_primes(10).tolist() == [2, 3, 5, 7]

    def test_boundary(self):
        assert sieve_primes(2).tolist() == [2]
        assert sieve_primes(1).tolist() == []

    def test_against_trial_division(self):
        assert sieve_primes(10_000).tolist() == trial_division_primes(10_000)

    def test_every_small_limit(self):
        # the base primes of sieve_primes(limit) are sieve_primes(sqrt(limit)),
        # so the limits around the squares 4, 9, 25 and 49 change its recursion
        for limit in range(-1, 60):
            assert sieve_primes(limit).tolist() == trial_division_primes(limit), limit

    def test_segment_boundaries(self, monkeypatch):
        monkeypatch.setattr(arith, "_SEGMENT", 7)
        for limit in (16, 17, 18, 10_000):
            assert sieve_primes(limit).tolist() == trial_division_primes(limit), limit

    def test_against_second_sieve_at_1e6(self):
        primes = sieve_primes(1_000_000)
        assert len(primes) == 78_498
        assert primes.tolist() == odd_only_sieve(1_000_000)


class TestIntervalPrimeFlags:
    """odd_prime_flags: the prime flags of the odd n of an interval [lo, hi]."""

    def test_windows_match_full_flags(self, flags_1e6):
        windows = [(0, 0), (0, 1), (0, 2), (2, 2), (4, 3), (7, 7), (0, 1000), (123_456, 124_000), (990_000, 1_000_000)]
        for lo, hi in windows:
            assert_odd_flags(lo, hi, odd_part(flags_1e6, lo, hi))

    def test_far_window_against_miller_rabin(self):
        lo = 10**12 - 2000
        first, flags = odd_prime_flags(lo, 10**12)
        assert first == lo + 1
        assert flags.tolist() == [miller_rabin(n) for n in range(first, 10**12 + 1, 2)]

    def test_against_plain_sieve_at_low_starts_and_across_squares(self):
        plain = np.zeros(10**6 + 3, dtype=bool)
        plain[odd_only_sieve(len(plain) - 1)] = True
        windows = [(lo, hi) for lo in range(5) for hi in range(lo - 1, 60)]
        windows += [(p * p - d, p * p + e) for p in (2, 3, 5, 7, 11, 97, 997) for d in (0, 1, 2) for e in (-1, 0, 1, 2)]
        for lo, hi in windows:
            assert_odd_flags(lo, hi, odd_part(plain, lo, hi))

    @pytest.mark.parametrize("lo, hi", [(lo, hi) for lo in range(4) for hi in (lo - 1, lo, 30, 31)]
                             + [(10**9 - 1000, 10**9), (10**9 - 999, 10**9 - 2)])
    def test_against_trial_division(self, lo, hi):
        first, flags = odd_prime_flags(lo, hi)
        assert first == lo | 1
        assert flags.tolist() == [is_prime(n) for n in range(first, hi + 1, 2)]
        primes, logs = prime_weights(lo, hi + 1)
        assert primes.tolist() == [n for n in range(lo, hi + 1) if is_prime(n)]
        assert logs.tolist() == pytest.approx([math.log(p) for p in primes.tolist()], rel=1e-15)

    def test_base_primes_in_small_batches(self, monkeypatch, flags_1e6):
        monkeypatch.setattr(arith, "_BASE_BATCH", 3)
        for lo, hi in [(0, 1000), (990_001, 1_000_000)]:
            assert_odd_flags(lo, hi, odd_part(flags_1e6, lo, hi))

    def test_cold_prime_cache_grows_without_recursing(self, monkeypatch):
        # odd_prime_flags reads its base primes from cached_primes, which grows
        # through sieve_primes; that takes its own from sieve_primes(sqrt(limit))
        monkeypatch.setattr(arith, "_prime_cache", (0, np.array([], dtype=np.int64)))
        assert cached_primes(5).tolist() == [2, 3, 5]
        assert cached_primes(10**5).tolist() == odd_only_sieve(10**5)
        assert not cached_primes(10).flags.writeable
        monkeypatch.setattr(arith, "_prime_cache", (0, np.array([], dtype=np.int64)))
        first, flags = odd_prime_flags(10**6 - 100, 10**6)
        assert flags.tolist() == [miller_rabin(n) for n in range(first, 10**6 + 1, 2)]

    def test_domain(self):
        with pytest.raises(DomainError):
            odd_prime_flags(-1, 5)
        with pytest.raises(DomainError):
            odd_prime_flags(10, 8)


class TestMultiplicativeFunctions:
    def test_empty_product(self):
        assert mobius(1) == 1
        assert euler_phi(1) == 1

    def test_mobius_square_factor(self):
        assert factorize(12).factors == ((2, 2), (3, 1))  # 4 | 12
        assert mobius(12) == 0

    def test_mobius_30(self):
        assert mobius(30) == -1

    def test_phi_10_brute_force(self):
        brute = sum(1 for k in range(1, 11) if math.gcd(k, 10) == 1)
        assert euler_phi(10) == brute == 4

    def test_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            mobius(0)
        with pytest.raises(DomainError):
            euler_phi(0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1000), st.integers(1, 1000))
    def test_multiplicativity(self, m, n):
        if math.gcd(m, n) != 1:
            return
        assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
        assert mobius(m * n) == mobius(m) * mobius(n)

    def test_mobius_divisor_sum_identity(self):
        # sum_{d|n} mu(d) = [n == 1], accumulated by strided sieve
        n_max = 10_000
        acc = np.zeros(n_max + 1, dtype=np.int64)
        for d in range(1, n_max + 1):
            acc[d::d] += mobius(d)
        assert acc[1] == 1
        assert not acc[2:].any()

    def test_factored_integer_invariants(self):
        fi = factorize(360)
        assert fi.n == 360
        assert fi.factors == ((2, 3), (3, 2), (5, 1))
        with pytest.raises(DomainError):
            FactoredInteger(10, ((2, 1),))

    def test_mu_phi_table_matches_scalar(self):
        mu, phi = mu_phi_table(20_000)
        assert len(mu) == len(phi) == 20_001
        assert mu[0] == phi[0] == 0
        assert mu[1:].tolist() == [mobius(n) for n in range(1, 20_001)]
        assert phi[1:].tolist() == [euler_phi(n) for n in range(1, 20_001)]
        assert not mu.flags.writeable and not phi.flags.writeable


class TestRoughness:
    def test_one_is_always_rough(self):
        assert is_rough(1, 100)

    def test_35(self):
        assert factorize(35).factors == ((5, 1), (7, 1))
        assert is_rough(35, 4)
        assert not is_rough(35, 5)

    def test_everything_is_1_rough(self):
        assert all(is_rough(n, 1) for n in range(1, 500))

    def test_prime_roughness_is_comparison(self):
        for p in sieve_primes(200).tolist():
            assert is_rough(p, p - 1)
            assert not is_rough(p, p)

    def test_rough_flags_match_scalar(self):
        flags = rough_flags(1, 2000, 7)
        for n in range(1, 2000):
            assert flags[n - 1] == is_rough(n, 7)

    @pytest.mark.parametrize("z", [1.5, 2, 3, 10, 97])
    def test_rough_flags_match_is_rough(self, z):
        # starts of both parities, empty and one-long windows among them
        for start in (1, 2, 97, 98, 10_000, 10_001):
            for stop in (start, start + 1, start + 2, start + 501):
                assert rough_flags(start, stop, z).tolist() == [is_rough(n, z) for n in range(start, stop)], (start, stop)


class TestWeightedPrimeFn:
    def test_window_of_ten(self):
        f = ArithFn(2, dense(prime_weights(2, 11), 2, 11))
        nonzero = {n: f(n) for n in range(2, 11) if f(n) != 0}
        assert set(nonzero) == {2, 3, 5, 7}
        for p, v in nonzero.items():
            assert v == pytest.approx(math.log(p))

    def test_single_point(self):
        f = ArithFn(2, dense(prime_weights(2, 3), 2, 3))
        assert len(f) == 1
        assert f(2) == pytest.approx(math.log(2))

    def test_pnt_mass(self):
        # direct summation oracle: sum of log p over primes <= 1e4
        f = ArithFn(2, dense(prime_weights(2, 10_001), 2, 10_001))
        direct = sum(math.log(p) for p in trial_division_primes(10_000))
        assert float(np.sum(f.values)) == pytest.approx(direct, rel=1e-12)
        assert abs(float(np.sum(f.values)) - 10_000) / 10_000 < 0.03

    def test_log_only_at_primes_matches_dense_log(self, flags_1e6):
        table = np.where(flags_1e6[2:], np.log(np.arange(2, 1_000_001, dtype=np.float64)), 0.0)
        m, logs = prime_weights(2, 1_000_001)
        assert np.array_equal(m, np.flatnonzero(table) + 2)
        assert np.array_equal(logs, table[m - 2])

    @pytest.mark.parametrize("start, stop", [(-5, 20), (0, 0), (0, 1), (1, 3), (2, 3), (999_000, 1_000_001)])
    def test_prime_weights_is_the_embedding(self, start, stop):
        whole = ArithFn(2, dense(prime_weights(2, 1_000_001), 2, 1_000_001))
        m, logs = prime_weights(start, stop)
        assert m.dtype == np.int64
        assert np.array_equal(dense((m, logs), start, stop), whole.embed(start, stop))
        assert all(np.array_equal(x, y) for x, y in zip((m, logs), whole.points(start, stop)))

    def test_prime_weights_rejects_reversed_range(self):
        with pytest.raises(DomainError):
            prime_weights(10, 9)

    def test_flags_consistency(self, flags_1e6):
        assert bool(flags_1e6[999_983])  # largest prime below 1e6
        assert not flags_1e6[999_999]
        assert int(flags_1e6.sum()) == 78_498
