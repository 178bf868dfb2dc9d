"""Exact integer arithmetic substrate: primes, the mu/phi table, rough numbers, Lambda'.

One odd-only sieve, `_sift_odd`, crosses off multiples for the prime windows,
the prime cache and the rough flags.  All integer quantities are exact 64-bit
(or Python int); floating point enters only through the natural-log weights of
the prime function.  The prime cache and the mu/phi table are immutable after
construction and shared read-only, so everything here is safe for concurrent
use.  Each grows once its bytes fit the cap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, require_memory

_SEGMENT = 1 << 20  # odd n that sieve_primes sifts at a time
_BASE_BATCH = 1 << 12  # base primes whose first multiples _sift_odd finds at a time
# bytes per prime of the cache, its build and a reader's list of ints or float
# temporaries (measured: 50 per prime up to sqrt(10^15), 33 up to 10^8)
PRIME_BYTES = 64
# bytes per mu/phi entry: 9 of its own, its build's and a whole-table reader's
# temporaries (32 measured in singular_series; lambda_q_window counts its own)
MU_PHI_BYTES = 48


def _sift_odd(first: int, count: int, primes: np.ndarray, from_square: bool) -> np.ndarray:
    """Flags of the odd n = first + 2i, i < count (first odd): False where an odd
    p of primes (ascending, from 2 on) divides n and n >= p*p (from_square) or n >= p.
    The odd multiples of p lie p apart.  Their first is found by one vector step
    per _BASE_BATCH primes, which bounds the starts held as Python ints."""
    flags = np.ones(count, dtype=bool)
    odd = primes[1:]  # 2 divides no odd n
    for b in range(0, len(odd), _BASE_BATCH):
        ps = odd[b : b + _BASE_BATCH]
        k = -(-np.maximum(ps * ps if from_square else ps, first) // ps) | 1  # k p: the first odd multiple past the start
        for p, i in zip(ps.tolist(), ((k * ps - first) // 2).tolist()):
            flags[i::p] = False
    return flags


def odd_prime_flags(lo: int, hi: int) -> tuple[int, np.ndarray]:
    """(first, flags): first is the least odd n >= lo, flags[i] = (first + 2i is
    prime) for the odd n in [lo, hi]; 2 is the caller's to add.  The base primes
    p <= sqrt(hi) come from `cached_primes`; memory is O(sqrt(hi) + hi - lo)."""
    if lo < 0 or hi < lo - 1:
        raise DomainError("need 0 <= lo <= hi + 1")
    first = lo | 1
    flags = _sift_odd(first, (hi - first) // 2 + 1, cached_primes(math.isqrt(max(hi, 0))), True)
    if first == 1:
        flags[:1] = False  # 1 is not prime
    return first, flags


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending; none for limit < 2.

    Sieves the odd n of [3, limit] in segments, with the base primes of
    sieve_primes(sqrt(limit)): working memory is O(sqrt(limit) + segment) on
    top of the returned array."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    base = sieve_primes(math.isqrt(limit))
    chunks = [np.array([2], dtype=np.int64)]
    for first in range(3, limit + 1, 2 * _SEGMENT):
        flags = _sift_odd(first, min(_SEGMENT, (limit - first) // 2 + 1), base, True)
        chunks.append(first + 2 * np.flatnonzero(flags))
    return np.concatenate(chunks)


# Shared monotone prime cache: (limit, all primes <= limit).  Never mutated in
# place: replaced wholesale when it has to grow, and handed out as read-only views.
_prime_cache = (0, np.array([], dtype=np.int64))


def cached_primes(limit: int) -> np.ndarray:
    """Read-only array of all primes <= limit, served from a growing cache."""
    global _prime_cache
    if limit > _prime_cache[0]:
        size = int(max(limit, 2 * _prime_cache[0], 1 << 10))
        require_memory(f"the primes up to {size}", primes_bytes(size))
        _prime_cache = (size, sieve_primes(size))
        _prime_cache[1].setflags(write=False)
    primes = _prime_cache[1]
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def primes_bytes(limit: int) -> int:
    """PRIME_BYTES for each of 2 limit / log2(limit) primes, more than the pi(limit)
    primes up to limit (pi(x) < 1.26 x / log x, Rosser and Schoenfeld 1962)."""
    return PRIME_BYTES * 2 * limit // max(1, limit.bit_length() - 1)


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
    out = np.full(stop - start, z < 2)  # an even n has the factor 2 <= z, unless z < 2
    first = start | 1
    out[first - start :: 2] = _sift_odd(first, (stop - first + 1) // 2, cached_primes(int(z)), False)
    return out


def prime_weights(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Lambda' on [start, stop) as points: the ascending primes p in the range
    and log p at each.

    Sieves only the odd n of [max(start, 0), stop) with `odd_prime_flags`, so
    memory is O(sqrt(stop) + stop - start).  It has the signature of
    `ArithFn.points` (start may be negative), so it and any bound f.points are
    block sources.
    """
    if stop < start:
        raise DomainError("stop < start")
    lo = max(start, 0)
    if lo >= stop:
        return np.array([], dtype=np.int64), np.array([])
    first, flags = odd_prime_flags(lo, stop - 1)
    primes = first + 2 * np.flatnonzero(flags)
    if lo <= 2 < stop:
        primes = np.concatenate((np.array([2], dtype=np.int64), primes))
    return primes, np.log(primes)
