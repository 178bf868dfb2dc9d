"""Exact integer arithmetic substrate: primes, multiplicative functions, rough numbers.

All integer quantities are exact 64-bit (or Python int); floating point enters
only through the natural-log weights of the prime function.  The prime cache
and the mu/phi table are immutable after construction and shared read-only, so
everything here is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithfn import ArithFn
from .errors import CapacityError, DomainError

_SEGMENT = 1 << 20
MU_PHI_CAP = 1 << 27  # bytes of the mu/phi table, 9 per entry: q up to about 1.5*10^7


def interval_prime_flags(lo: int, hi: int) -> np.ndarray:
    """Boolean array of length hi-lo+1 with flags[i] = (lo + i is prime).

    Segmented sieve of Eratosthenes: the base primes p <= sqrt(hi) come from
    the same sieve on [0, sqrt(hi)], and each crosses off its multiples from
    max(p*p, lo) on.  Memory is O(sqrt(hi) + hi - lo), whatever lo is.
    """
    if lo < 0 or hi < lo - 1:
        raise DomainError("need 0 <= lo <= hi + 1")
    flags = np.ones(hi - lo + 1, dtype=bool)
    flags[: max(0, 2 - lo)] = False
    root = math.isqrt(max(hi, 0))
    if root >= 2:
        for p in np.flatnonzero(interval_prime_flags(0, root)).tolist():
            first = max(p * p, -(-lo // p) * p)
            flags[first - lo :: p] = False
    return flags


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending.

    Sieves [0, limit] in segments with `interval_prime_flags`: working memory
    is O(sqrt(limit) + segment) on top of the returned array.  limit < 2
    yields an empty array.
    """
    chunks = [np.array([], dtype=np.int64)]
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT - 1, limit)
        chunks.append(np.flatnonzero(interval_prime_flags(lo, hi)).astype(np.int64) + lo)
    return np.concatenate(chunks)


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array of length limit+1 with flags[n] = (n is prime).

    Memory is O(limit); intended for desk-scale limits (<= ~10^8).
    """
    if limit < 0:
        raise DomainError("limit must be nonnegative")
    return interval_prime_flags(0, limit)


# Shared monotone prime cache.  Never mutated in place: replaced wholesale
# when it has to grow, and handed out as read-only views.
_cache_limit = 0
_cache_primes = np.array([], dtype=np.int64)


def cached_primes(limit: int) -> np.ndarray:
    """Read-only array of all primes <= limit, served from a growing cache."""
    global _cache_limit, _cache_primes
    if limit > _cache_limit:
        grown = sieve_primes(max(limit, 2 * _cache_limit, 1 << 10))
        grown.setflags(write=False)
        _cache_primes = grown
        _cache_limit = max(limit, 2 * _cache_limit, 1 << 10)
    cut = int(np.searchsorted(_cache_primes, limit, side="right"))
    return _cache_primes[:cut]


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its prime factorization.

    factors is a tuple of (prime, exponent) pairs with strictly increasing
    primes and exponents >= 1; the product reconstructs n exactly.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last_p = 0
        for p, e in self.factors:
            if p <= last_p or e < 1:
                raise DomainError("factors must be (increasing prime, exponent>=1) pairs")
            prod *= p**e
            last_p = p
        if prod != self.n or self.n < 1:
            raise DomainError("factorization does not reconstruct n")


def factorize(n: int) -> FactoredInteger:
    """Factor n >= 1 by trial division against the cached prime list."""
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    m = n
    out = []
    for p in cached_primes(math.isqrt(n)):
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return FactoredInteger(n, tuple(out))


# Shared mu/phi table, grown on demand and handed out read-only like the prime cache.
_mu_phi = (np.zeros(1, dtype=np.int8), np.zeros(1, dtype=np.int64))


def mu_phi_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (mu, phi) on [0, limit] with mu[0] = phi[0] = 0, one strided pass
    per prime p (phi[m] -= phi[m] // p stays exact: p still divides phi[m] then).
    Raises CapacityError rather than allocate beyond MU_PHI_CAP bytes.
    """
    global _mu_phi
    mu, phi = _mu_phi
    if limit >= len(mu):
        size = max(limit + 1, min(max(2 * len(mu), 1 << 10), MU_PHI_CAP // 9))
        if 9 * size > MU_PHI_CAP:
            raise CapacityError(f"mu/phi table of {size} entries beyond the cap {MU_PHI_CAP} bytes")
        mu, phi = np.ones(size, dtype=np.int8), np.arange(size, dtype=np.int64)
        mu[0] = 0
        for p in cached_primes(size - 1).tolist():
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            phi[p::p] -= phi[p::p] // p
        mu.setflags(write=False)
        phi.setflags(write=False)
        _mu_phi = (mu, phi)
    return mu[: limit + 1], phi[: limit + 1]


def mobius(n: int) -> int:
    """Mobius function mu(n) in {-1, 0, 1}, by factorization (oracle for mu_phi_table)."""
    if n < 1:
        raise DomainError("mobius requires n >= 1")
    fi = factorize(n)
    for _, e in fi.factors:
        if e >= 2:
            return 0
    return -1 if len(fi.factors) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient phi(n), by factorization (oracle for mu_phi_table)."""
    if n < 1:
        raise DomainError("euler_phi requires n >= 1")
    out = 1
    for p, e in factorize(n).factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def is_rough(n: int, z: float) -> bool:
    """True iff every prime divisor of n exceeds z (vacuously true for n = 1)."""
    if n < 1:
        raise DomainError("is_rough requires n >= 1")
    if n == 1:
        return True
    m = n
    for p in cached_primes(math.isqrt(n)):
        p = int(p)
        if p > z or p * p > m:
            break
        if m % p == 0:
            return False
    # No prime <= min(z, sqrt(n)) divides n.  A composite n always has a prime
    # factor <= sqrt(n), so the only way n can still fail is n itself being a
    # prime <= z.
    return n > z


def rough_flags(start: int, stop: int, z: float) -> np.ndarray:
    """Flags for n in [start, stop): True iff n has no prime factor <= z."""
    if start < 1 or stop < start:
        raise DomainError("need 1 <= start <= stop")
    out = np.ones(stop - start, dtype=bool)
    for p in cached_primes(int(z)).tolist():
        first = ((start + p - 1) // p) * p
        if first < stop:
            out[first - start :: p] = False
    return out


def weighted_prime_fn(x: int) -> ArithFn:
    """The log-weighted prime indicator on [2, x]: log n at primes, 0 elsewhere."""
    if x < 2:
        raise DomainError("weighted_prime_fn requires x >= 2")
    idx = np.flatnonzero(prime_flags(x)[2:])
    values = np.zeros(x - 1)
    values[idx] = np.log(idx + 2.0)
    return ArithFn(2, values)
