"""Exact integer arithmetic substrate: primes, the mu/phi table, rough numbers, Lambda'.

All integer quantities are exact 64-bit (or Python int); floating point enters
only through the natural-log weights of the prime function.  The prime cache
and the mu/phi table are immutable after construction and shared read-only, so
everything here is safe for concurrent use.  Each grows once its bytes fit the cap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, require_memory

_SEGMENT = 1 << 20
# bytes per prime of the cache, its build and a reader's list of ints or float
# temporaries (measured: 50 per prime up to sqrt(10^15), 33 up to 10^8)
PRIME_BYTES = 64
# bytes per mu/phi entry: 9 of its own, its build's and a whole-table reader's
# temporaries (32 measured in singular_series; lambda_q_window counts its own)
MU_PHI_BYTES = 48


def interval_prime_flags(lo: int, hi: int) -> np.ndarray:
    """Boolean array of length hi-lo+1 with flags[i] = (lo + i is prime).

    Segmented sieve of Eratosthenes: the base primes p <= sqrt(hi) come from
    `cached_primes`, shared by every call, and each crosses off its multiples
    from max(p*p, lo) on.  Memory is O(sqrt(hi) + hi - lo), whatever lo is.
    """
    if lo < 0 or hi < lo - 1:
        raise DomainError("need 0 <= lo <= hi + 1")
    flags = np.ones(hi - lo + 1, dtype=bool)
    flags[: max(0, 2 - lo)] = False
    for p in cached_primes(math.isqrt(max(hi, 0))).tolist():
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


# Shared monotone prime cache: (limit, all primes <= limit).  Never mutated in
# place: replaced wholesale when it has to grow, and handed out as read-only views.
_prime_cache = (0, np.array([], dtype=np.int64))


def cached_primes(limit: int) -> np.ndarray:
    """Read-only array of all primes <= limit, served from a growing cache.

    Growing to a new limit L first covers sqrt(L) directly, by the plain sieve
    of [0, sqrt(L)], so that the segments `sieve_primes` then cuts from [0, L]
    find their base primes in the cache and growth never recurses.
    """
    global _prime_cache
    if limit > _prime_cache[0]:
        size = int(max(limit, 2 * _prime_cache[0], 1 << 10))
        require_memory(f"the primes up to {size}", primes_bytes(size))
        root = math.isqrt(size)
        if root > _prime_cache[0]:
            flags = np.ones(root + 1, dtype=bool)
            flags[:2] = False
            for p in range(2, math.isqrt(root) + 1):
                if flags[p]:
                    flags[p * p :: p] = False
            _prime_cache = (root, _read_only(np.flatnonzero(flags)))
        _prime_cache = (size, _read_only(sieve_primes(size)))
    primes = _prime_cache[1]
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def primes_bytes(limit: int) -> int:
    """PRIME_BYTES for each of 2 limit / log2(limit) primes, more than the pi(limit)
    primes up to limit (pi(x) < 1.26 x / log x, Rosser and Schoenfeld 1962)."""
    return PRIME_BYTES * 2 * limit // max(1, limit.bit_length() - 1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Shared mu/phi table, grown on demand and handed out read-only like the prime cache.
_mu_phi = (np.zeros(1, dtype=np.int8), np.zeros(1, dtype=np.int64))


def mu_phi_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (mu, phi) on [0, limit] with mu[0] = phi[0] = 0, one strided pass
    per prime p (phi[m] -= phi[m] // p stays exact: p still divides phi[m] then).
    A table grows at least twofold, its MU_PHI_BYTES per entry met before it is built.
    """
    global _mu_phi
    mu, phi = _mu_phi
    if limit >= len(mu):
        size = max(limit + 1, 2 * len(mu), 1 << 10)
        require_memory(f"the mu/phi table up to {size - 1}", MU_PHI_BYTES * size)
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


def prime_weights(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Lambda' on [start, stop) as points: the ascending primes p in the range
    and log p at each.

    Sieves only [max(start, 0), stop) with `interval_prime_flags`, so memory is
    O(sqrt(stop) + stop - start).  It has the signature of `ArithFn.points`
    (start may be negative), so it and any bound f.points are block sources.
    """
    if stop < start:
        raise DomainError("stop < start")
    lo = max(start, 0)
    if lo >= stop:
        return np.array([], dtype=np.int64), np.array([])
    primes = np.flatnonzero(interval_prime_flags(lo, stop - 1)) + lo
    return primes, np.log(primes)
