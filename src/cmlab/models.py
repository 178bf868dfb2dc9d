"""The two model functions: the major-arc main term Lambda_Q and the scaled
upper-bound sieve model.

Lambda_Q(n) = sum_{q <= Q} sum_{a mod q, gcd(a,q)=1} (mu(q)/phi(q)) e(a n / q)
            = sum_{q <= Q} mu(q) c_q(n) / phi(q)          (Ramanujan closed form)
            = sum_{d | n, d <= Q} d g_Q(d)                 (see lambda_q_window)

is the density model the primes follow in progressions to moduli up to Q.  The
nonnegative companion is theta_n(D, z), an upper-bound combinatorial sieve of
level D and sifting range z, rescaled by 1/V(z) = prod_{p<=z} (1 - 1/p)^{-1}.

Sieve admission rule.  theta_n = sum_{d | n} lambda_d with lambda_d = mu(d) on
the admitted set and 0 otherwise.  A squarefree z-smooth d = p_1 ... p_r
(primes strictly decreasing) is admitted iff for every ODD position m <= r

    p_1 ... p_m * p_m^beta  <=  floor(D).

Truncating at odd positions only is what makes this an upper-bound sieve: each
rejected divisor factors uniquely through a minimal failing odd prefix e, and
grouping the inclusion-exclusion by that prefix gives

    theta_n = [n is z-rough] + sum_{critical e | n} [gcd(n, P(p_min(e))) = 1] >= 0.

Imposing the inequality at even positions as well breaks nonnegativity
(already beta=1, z=10, D=100 yields theta(35) = -1).

At levels D >= untruncated_level(z, beta) every squarefree z-smooth d is
admitted, so theta_n = sum_{d | gcd(n, P(z))} mu(d) is exactly the indicator of
z-rough n.  `model_t_nu_plus` reads that indicator from `rough_flags` instead
of enumerating the 2^pi(z) weights, and builds weights only below that level.

A SieveSystem holds the admitted d and lambda_d beside them as two read-only
arrays, the d int64 while floor(D) < 2^62 and Python ints beyond, so every d is
exact.  `beta_sieve_weights` builds them one prime position at a time: each d
of position m - 1 takes a prime p below its smallest one, at an odd position m
only if p^(beta+1) <= floor(D) // d.  It counts each position before it stores
it, so the cap refuses a position that would pass it before it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .arith import cached_primes, mu_phi_table, rough_flags
from .arithfn import ArithFn
from .errors import ContractError, DomainError, require_memory

# bytes per integer of (Y, 2Y] a model holds (18 measured at Y = 2*10^6), per
# d <= Q that lambda_q_window reads with the mu/phi table (73 at Q = 2*10^6),
# and per sieve weight, 4 more per 30-bit digit of D (69 at 62 bits, 86 at 85: 10^6 weights at z = 71)
WINDOW_BYTES, DIVISOR_BYTES, WEIGHT_BYTES = 24, 96, 192

# -- Lambda_Q --------------------------------------------------------------


def _divisor_sum(start: int, stop: int, weights: tuple[np.ndarray, np.ndarray], dtype) -> np.ndarray:
    """sum_{d | n} w(d) for n in [start, stop), one strided pass per pair (d, w(d))
    whose d has a multiple there (Python-int d once start passes the int64 range)."""
    out = np.zeros(stop - start, dtype=dtype)
    ds, ws = weights
    ds = ds if start < 1 << 63 else ds.astype(object)
    hit = -start % ds < stop - start  # the first multiple of d from start lies before stop
    for d, w in zip(ds[hit].tolist(), ws[hit].tolist()):
        out[-start % d :: d] += w
    return out


@lru_cache(maxsize=1)
def lambda_q_weights(big_q: int) -> tuple[np.ndarray, np.ndarray]:
    """(d, d g(d)) over the squarefree d <= Q, read-only; Lambda_Q(n) sums d g(d) over the d | n.

    As c_q(n) = sum_{d | (q, n)} d mu(q/d), Lambda_Q(n) = sum_{d | n, d <= Q} d g(d)
    with g(d) = sum_{q <= Q, d | q} mu(q) mu(q/d) / phi(q).  Only q = d m with
    gcd(m, d) = 1 count, so g(d) = (mu(d)/phi(d)) sum_{m <= Q/d, (m, d) = 1} mu(m)^2 / phi(m).
    """
    if big_q < 1:
        raise DomainError("bad window or Q")
    require_memory(f"Lambda_Q at Q = {big_q}", DIVISOR_BYTES * big_q)
    mu, phi = mu_phi_table(big_q)
    inv_phi = np.where(mu != 0, 1.0 / np.maximum(phi, 1), 0.0)  # mu(m)^2 / phi(m)
    d = np.flatnonzero(mu)
    w = np.empty(len(d))
    for i, k in enumerate(d.tolist()):
        m = np.arange(1, big_q // k + 1)
        # int(mu[k]): k times an int8 would cast k to int8, which fails from k = 128 on
        w[i] = k * int(mu[k]) / phi[k] * inv_phi[m][np.gcd(m, k) == 1].sum()
    d.setflags(write=False)
    w.setflags(write=False)
    return d, w


def lambda_q_window(start: int, stop: int, big_q: int) -> np.ndarray:
    """Lambda_Q(n) for n in [start, stop), by strided accumulation of `lambda_q_weights`."""
    if stop < start or start < 0:
        raise DomainError("bad window or Q")
    return _divisor_sum(start, stop, lambda_q_weights(big_q), np.float64)


def _nu_window(y: int, c_nu: float) -> tuple[int, int]:
    """[Y + 1, 2Y + 1), the integers of nu's window (Y, 2Y] that both models live
    on, once Y >= 1, the scale c_nu >= 0 and the window's bytes are checked."""
    if y < 1:
        raise DomainError("Y must be >= 1")
    if not c_nu >= 0:  # nan fails too
        raise DomainError("c_nu must be >= 0")
    require_memory(f"a model on (Y, 2Y] at Y = {y}", WINDOW_BYTES * y)
    return y + 1, 2 * y + 1


def model_t_nu(y: int, big_q: int, c_nu: float = 1.0) -> ArithFn:
    """c_nu * Lambda_Q on (Y, 2Y], zero elsewhere."""
    if big_q < 1:
        raise DomainError("Q must be >= 1")
    start, stop = _nu_window(y, c_nu)
    return ArithFn(start, c_nu * lambda_q_window(start, stop, big_q))


def lambda_q_short_sum(t, h_prime, big_q: int, r=0, q_twist=1) -> tuple:
    """Twisted short sum of Lambda_Q over t - floor(H') < n <= t.

    Returns (actual, predicted main term, error budget).  The main term is
    mu(q') H' / phi(q') when the twist denominator q' is at most Q, and 0
    otherwise; the budget is Q^3 resp. q'Q + Q^3 (up to the empirical constant
    pinned in `constants`).  t, H', r and q' broadcast: arrays of points give a
    triple of arrays, scalars one triple, as `_twisted_short_sum` does.
    """
    actual = _twisted_short_sum(t, h_prime, r, q_twist, lambda: lambda_q_weights(big_q))
    h, q = np.asarray(h_prime, dtype=np.float64), np.asarray(q_twist)
    mu, phi = mu_phi_table(int(q.max(initial=1)))
    inside = q <= big_q
    predicted = np.where(inside, mu[q] * h / phi[q], 0.0)
    budget = np.where(inside, float(big_q**3), q * float(big_q) + float(big_q**3))
    return _triple(actual, predicted, budget)


def _triple(actual, predicted, budget) -> tuple:
    """(actual, predicted, budget) as a complex, a complex and a float at one point, as arrays at many."""
    if np.ndim(actual) == 0:
        return complex(actual), complex(predicted), float(budget)
    return actual, predicted.astype(complex), budget.astype(np.float64)


# points x weights that one block of _twisted_short_sum holds (one point at the least): the
# desk sweeps fit one block, where the 24004 distinct points at Q = 3000 (1824 weights)
# would hold 44 million values in each of its arrays
POINT_VALUES = 1 << 16


def _twisted_short_sum(t, h_prime, r, q_twist, weights):
    """sum_{t - floor(H') < n <= t} v(n) e(r n / q') for v(n) = sum_{d | n} w(d), (d, w(d)) = weights(),
    at each point of the broadcast t, H', r and q' (an array of no dimension when all four are scalars).

    That is sum_d w(d) sum_{first <= m <= t // d} e(a m / q') with a = r d mod q'
    and first = ceil(lo / d): k terms that sum to k when a = 0 and otherwise to
    e((2 a first + a (k - 1)) / 2q') sin(pi a k / q') / sin(pi a / q').  Each
    exponent is reduced in integers and read from a table of roots of unity, so
    a point costs O(number of weights), and a block of points meets the weights
    in one broadcast of at most POINT_VALUES values.  v is real, so the twists r
    and q' - r give conjugate sums: each distinct point (t, floor(H'), min(r, q' - r), q')
    is summed once, and its twin is its conjugate.  t past the int64 range is
    summed in Python ints.  Checks the twist r/q', then t and H', for both model
    short sums, before weights() is called.
    """
    t, h, r, q = np.broadcast_arrays(np.array(t, dtype=object), np.asarray(h_prime, dtype=np.float64),
                                     np.asarray(r, dtype=np.int64), np.asarray(q_twist, dtype=np.int64))
    shape = t.shape
    t, h, r, q = (x.ravel() for x in (t, h, r, q))
    if np.any(q < 1) or np.any(np.gcd(r, q) != 1):
        raise DomainError("twist must be a reduced fraction r/q' with q' >= 1")
    if np.any(h <= 0) or np.any(t <= h):
        raise DomainError("need H' > 0 and t > H'")
    lo = np.array([ti - int(hi) + 1 for ti, hi in zip(t.tolist(), h.tolist())], dtype=object)
    r = r % q
    twin = 2 * r > q
    r = np.where(twin, q - r, r)
    # copy[i], the first point with the key of point i (np.unique would import numpy.ma,
    # which costs a desk sweep more than its sums)
    firsts: dict = {}
    keys = zip(t.tolist(), lo.tolist(), r.tolist(), q.tolist())
    copy = np.array([firsts.setdefault(key, i) for i, key in enumerate(keys)], dtype=np.intp)
    distinct = np.flatnonzero(copy == np.arange(len(copy)))
    d, w = weights()
    if len(t) and max(t) >= 1 << 63:
        d = d.astype(object)  # Python ints past the int64 range
    else:
        t, lo = t.astype(np.int64), lo.astype(np.int64)
    step = max(1, POINT_VALUES // max(1, len(d)))
    out = np.empty(len(copy), dtype=complex)
    for b in range(0, len(distinct), step):
        at = distinct[b : b + step]
        out[at] = _block_sums(t[at, None], lo[at, None], r[at, None], q[at, None], d, w)
    out = out[copy]
    out[twin] = out[twin].conj() + 0.0  # + 0.0: a conjugate 0 reads 0, not -0
    return out.reshape(shape)


def _block_sums(t, lo, r, q, d, w) -> np.ndarray:
    """The sums of _twisted_short_sum at a block of points, given as columns t,
    lo = t - floor(H') + 1, r reduced mod q and q', against the weights (d, w)."""
    first = -(-lo // d)
    count = (t // d - first + 1).astype(np.int64)
    inner = count.astype(complex)
    for twist in sorted(set(q.ravel().tolist())):
        rows = np.flatnonzero(q == twist)
        if twist > 1:
            inner[rows] = _terms(r[rows], count[rows], first[rows], d, twist)
    # one dot per point, so that a point sums alike in any block (a matrix product would
    # not); at q' = 1 every term is a count, and the dot stays real
    return np.array([np.dot(w, counts if one else terms)
                     for one, counts, terms in zip((q == 1).ravel().tolist(), count, inner)], dtype=complex)


def _terms(r, count, first, d, q: int) -> np.ndarray:
    """sum_{first <= m < first + count} e(a m / q) with a = r d mod q, for rows of points sharing q > 1."""
    a = _mod(r * _mod(d, q), q).astype(np.int64)
    geo = a != 0
    inner = count.astype(complex)
    q2, roots = 2 * q, _half_roots(q)  # roots[j] = e(j / 2q)
    a, k, first = a[geo], count[geo], _mod(first[geo], q).astype(np.int64)
    # sin(pi u / q) for u = a k mod 2q and u = a, read at an angle of at most
    # pi / 2 (u mod q or q - that), so that the small ones keep their digits
    u = np.stack((_mod(a * _mod(k, q2), q2), a))
    m = _mod(u, q)
    sines = np.where(u < q, 1.0, -1.0) * roots[np.minimum(m, q - m)].imag
    inner[geo] = roots[_mod(2 * a * first + a * _mod(k - 1, q2), q2)] * (sines[0] / sines[1])
    return inner


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q for integers x and q >= 1, as x - (x // q) q: the values of x % q, which
    numpy 2.4 gives at about 4 ns per int64 against 1.6 for this form (2^16 values)."""
    return x - (x // q) * q


@lru_cache(maxsize=1)
def _half_roots(q: int) -> np.ndarray:
    """e(j / 2q) for 0 <= j < 2q."""
    return np.exp((np.pi * 1j / q) * np.arange(2 * q))


# -- Mertens product and the sieve -----------------------------------------


def mertens_product(z: float) -> float:
    """V(z) = prod_{p <= z} (1 - 1/p)."""
    if z < 0:
        raise DomainError("z must be >= 0")
    value = 1.0
    for p in cached_primes(int(z)):
        value *= 1.0 - 1.0 / int(p)
    return value


@dataclass(frozen=True, eq=False)
class SieveSystem:
    """Upper-bound sieve weights for level D and sifting range z: one read-only
    pair of arrays, the admitted d and lambda_d = mu(d) beside them."""

    beta: int
    level: float  # D
    sift: float  # z
    divisors: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.weights[self.divisors == 1].tolist() != [1]:
            raise ContractError("lambda_1 must be 1")
        if np.any(np.abs(self.weights) > 1):
            raise ContractError("|lambda_d| must be <= 1")
        if np.any(self.divisors > int(self.level)):
            raise ContractError("weights must be supported on d <= D")
        self.divisors.setflags(write=False)
        self.weights.setflags(write=False)

    def theta_window(self, start: int, stop: int) -> np.ndarray:
        """theta_n for n in [start, stop), by strided accumulation."""
        if start < 1 or stop < start:
            raise DomainError("need 1 <= start <= stop")
        return _divisor_sum(start, stop, (self.divisors, self.weights), np.int64)


def beta_sieve_weights(level: float, sift: float, beta: int = 10) -> SieveSystem:
    """Weights of the upper-bound combinatorial sieve (see module docstring).

    lambda_d = mu(d) for admitted squarefree z-smooth d, 0 otherwise.  Admission
    uses exact integer comparisons against floor(D), so D and z may be real.
    """
    require_sift(sift, beta)
    if level < sift:
        raise DomainError("need D >= z")
    d_floor = int(level)
    weight_bytes = WEIGHT_BYTES + d_floor.bit_length() // 7
    dtype = np.int64 if d_floor < 1 << 62 else object
    primes = cached_primes(int(sift)).astype(dtype)  # ascending
    # p^(beta+1), capped at floor(D) + 1 so that it fits wherever D does
    powers = np.array([min(p ** (beta + 1), d_floor + 1) for p in primes.tolist()], dtype=dtype)
    # the d of each position; each d of the last one may take primes[:top], the primes below its smallest
    positions, top, total = [np.ones(1, dtype)], np.array([len(primes)]), 1
    while len(top):
        d = positions[-1]
        counts = np.minimum(top, np.searchsorted(powers, d_floor // d, side="right")) if len(positions) % 2 else top
        size = int(counts.sum())
        total += size
        require_memory(f"the sieve weights at D = {level:g}, z = {sift:g}", weight_bytes * total)
        top = np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
        positions.append(np.repeat(d, counts) * primes[top])
    signs = np.repeat((-1) ** np.arange(len(positions)), [len(d) for d in positions])  # mu(d) = (-1)^position
    return SieveSystem(beta, float(level), float(sift), np.concatenate(positions), signs)


def untruncated_level(sift: float, beta: int = 10) -> int:
    """Smallest integer level at which the sieve admits every squarefree z-smooth d.

    That is the largest p_1 ... p_{m-1} * p_m^(beta+1) over decreasing prime
    chains p_1 > ... > p_m <= z with m odd.  The i-th prime of such a chain is
    at most the i-th largest prime P_i <= z, so for each m the chain of the m
    largest primes maximizes every factor at once.
    """
    best = prefix = 1
    for m, p in enumerate(reversed(cached_primes(int(sift)).tolist()), start=1):
        if m % 2 == 1:
            best = max(best, prefix * p ** (beta + 1))
        prefix *= p
    return best


def require_sift(sift: float, beta: int = 10) -> None:
    """The sieve model's z and beta checked, so a caller can refuse them before it sieves anything."""
    if sift < 2 or beta < 1:
        raise DomainError("need z >= 2 and beta >= 1")


def model_t_nu_plus(
    y: int, sift: float, c_nu: float = 1.0, level: Optional[float] = None, beta: int = 10
) -> ArithFn:
    """c_nu * V(z)^{-1} * theta_n(D, z) on (Y, 2Y], zero elsewhere.

    With no level, or a level D >= untruncated_level(z, beta), theta is the
    z-rough indicator (see the module docstring).  That is the desk default:
    the asymptotic level H^{1/10} collapses below 2 at desk sizes, which would
    leave only the d = 1 weight and make the model a constant.  Below that
    level theta comes from the truncated weights; it is nonnegative, and a
    negative value would mean the sieve construction is broken, so that is
    checked outright.
    """
    start, stop = _nu_window(y, c_nu)
    require_sift(sift, beta)
    if level is None or level >= untruncated_level(sift, beta):
        theta = rough_flags(start, stop, sift)
    else:
        theta = beta_sieve_weights(level, sift, beta).theta_window(start, stop)
        if theta.min(initial=0) < 0:
            raise ContractError("sieve weights are not an upper-bound system")
    return ArithFn(start, (c_nu / mertens_product(sift)) * theta.astype(np.float64))


def sieve_short_sum(t, h_prime, sieve: SieveSystem, r=0, q_twist=1) -> tuple:
    """V(z)^{-1}-scaled twisted short sum of theta_n over t - floor(H') < n <= t.

    Returns (actual, predicted, error budget): main term mu(q) H' / phi(q) with
    budget H' e^{-log D / log z} + q D for q <= z, else 0 with the divisor-sum
    budget (H'/q + D + q) log(q H').  t, H', r and q broadcast as in
    `lambda_q_short_sum`.
    """
    actual = _twisted_short_sum(t, h_prime, r, q_twist, lambda: (sieve.divisors, sieve.weights))
    # each part on its own, as a complex scalar divides by a float; a complex array
    # would multiply by its reciprocal and round the last bit the other way
    scale = mertens_product(sieve.sift)
    actual.real /= scale
    actual.imag /= scale
    h, q = np.asarray(h_prime, dtype=np.float64), np.asarray(q_twist)
    mu, phi = mu_phi_table(int(q.max(initial=1)))
    inside = q <= sieve.sift
    predicted = np.where(inside, mu[q] * h / phi[q], 0.0)
    # math.log, not np.log, whose vector loop may round the last bit the other way
    qh = q * h
    log_qh = np.reshape([math.log(x) for x in np.ravel(qh).tolist()], qh.shape)
    budget = np.where(inside, h * math.exp(-math.log(sieve.level) / math.log(sieve.sift)) + q * sieve.level,
                      (h / q + sieve.level + q) * log_qh)
    return _triple(actual, predicted, budget)
