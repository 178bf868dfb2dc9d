"""Reference implementations that the tests check cmlab against.

No `cmlab` subcommand reaches these: a plain odd-wheel sieve, trial-division
factorization and the multiplicative functions built on it, the Fourier
transform at one point, the convolution on its whole support, the model file
reader, Lambda_Q as a direct double sum,
theta_n of a sieve at one n and its admitted weights by walking every subset of
the primes <= z, the Dirichlet character tables with Gauss sums,
the Ramanujan shortcut for omega * T, Goldbach counts, the singular series as a
sum over all smooth q, and the containment geometry of a Farey arc.  Each is
kept as it stood in the package, so every figure the acceptance suite prints
is unchanged.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import IO

import numpy as np

from cmlab.arith import cached_primes, mu_phi_table, rough_flags
from cmlab.arithfn import TWO_PI, ArithFn, convolve_window
from cmlab.characters import ramanujan_sum
from cmlab.closeness import SPOT_ARCS, SPOT_SAMPLES_PER_ARC, FareyArc
from cmlab.errors import CapacityError, ContractError, DomainError
from cmlab.goldbach import _ascending_sum
from cmlab.models import SieveSystem

# ---------------------------------------------------------------------------
# primes, factorization and multiplicative functions
# ---------------------------------------------------------------------------


def odd_only_sieve(limit: int) -> list[int]:
    """The primes <= limit by a second, independent sieve (odd wheel, not segmented)."""
    if limit < 2:
        return []
    flags = np.ones((limit - 1) // 2 + 1, dtype=bool)  # index i -> 2i+1
    flags[0] = False
    for i in range(1, (int(math.isqrt(limit)) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            first = (p * p - 1) // 2
            flags[first::p] = False
    return [2] + (2 * np.flatnonzero(flags) + 1).tolist()


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


# ---------------------------------------------------------------------------
# arithmetic functions: l1 norm, the transform at one point, the whole
# convolution, the file reader
# ---------------------------------------------------------------------------


def l1_norm(f: ArithFn) -> float:
    return float(np.sum(np.abs(f.values)))


def convolve(f: ArithFn, g: ArithFn) -> ArithFn:
    """f*g on its whole support: convolve_window over every n the two supports reach."""
    lo = f.support_start + g.support_start
    return ArithFn(lo, convolve_window(f, g, lo, lo + len(f) + len(g) - 2))


def fourier_eval(f: ArithFn, alpha: float) -> complex:
    """f-hat(alpha) = sum_n f(n) e(alpha n), e(z) = exp(2 pi i z).

    Uses compensated (exact fsum) accumulation of the real and imaginary parts.
    """
    if len(f) == 0:
        return 0j
    phase = TWO_PI * alpha * np.arange(f.support_start, f.support_stop, dtype=np.int64).astype(np.float64)
    terms = f.values * np.exp(1j * phase)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def read_arithfn(fh: IO[str]) -> ArithFn:
    line = fh.readline()
    while line.startswith("#"):  # tolerate report preambles
        line = fh.readline()
    header = line.split()
    if len(header) != 3:
        raise DomainError("malformed header")
    start, length, kind = int(header[0]), int(header[1]), header[2]
    if kind != "real":
        raise DomainError(f"unsupported kind {kind!r}: values are real")
    return ArithFn(start, np.array([float(fh.readline()) for _ in range(length)]))


# ---------------------------------------------------------------------------
# the models at one point
# ---------------------------------------------------------------------------


def lambda_q_direct(n: int, big_q: int) -> float:
    """Direct double sum over q <= Q and reduced residues a (test oracle)."""
    total = 0j
    for q in range(1, big_q + 1):
        mu = mobius(q)
        if mu == 0:
            continue
        phi = euler_phi(q)
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                total += (mu / phi) * np.exp(TWO_PI * 1j * a * (n % q) / q)
    return float(total.real)


def theta(sieve: SieveSystem, n: int) -> int:
    """theta_n = sum over admitted d | n of lambda_d."""
    if n < 1:
        raise DomainError("theta requires n >= 1")
    return sum(lam for d, lam in zip(sieve.divisors.tolist(), sieve.weights.tolist()) if n % d == 0)


def admitted_weights(level: float, sift: float, beta: int) -> dict[int, int]:
    """{d: mu(d)} over the squarefree z-smooth d the sieve admits: every subset
    of the primes <= z, its primes p_1 > ... > p_r, kept iff
    p_1 ... p_m * p_m^beta <= floor(D) at every odd position m (z <= 30)."""
    if sift > 30:
        raise CapacityError("admitted_weights walks all 2^pi(z) subsets; z <= 30")
    primes, bound = odd_only_sieve(int(sift))[::-1], int(level)
    out = {}
    for r in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, r):  # in the order of primes: decreasing
            prefixes = itertools.accumulate(chosen, operator.mul)
            # index i is position i + 1, so the even i are the odd positions
            if all(prefix * p**beta <= bound for i, (prefix, p) in enumerate(zip(prefixes, chosen)) if i % 2 == 0):
                out[math.prod(chosen)] = (-1) ** r
    return out


# ---------------------------------------------------------------------------
# Dirichlet characters, Gauss sums, Ramanujan sums by their definition
# ---------------------------------------------------------------------------

CHARACTER_TABLE_CAP = 1 << 27  # bytes of the (phi(q), q) table, 16 per value: prime q up to 2887


def _primitive_root_prime_power(p: int, e: int) -> int:
    """Smallest primitive root modulo p^e for an odd prime p."""
    pe = p**e
    phi = p ** (e - 1) * (p - 1)
    prime_divs = [q for q, _ in factorize(phi).factors]
    g = 2
    while True:
        if math.gcd(g, pe) == 1 and all(pow(g, phi // q, pe) != 1 for q in prime_divs):
            return g
        g += 1


def _unit_group(q: int) -> list[tuple[int, int]]:
    """Generators (lifted mod q via CRT) and orders of the cyclic components of (Z/qZ)*."""
    comps: list[tuple[int, int, int]] = []  # (residue mod pe, order, pe)
    for p, e in factorize(q).factors:
        pe = p**e
        if p == 2:
            if e == 1:
                continue  # (Z/2)* trivial
            if e == 2:
                comps.append((3, 2, 4))
            else:
                comps.append((pe - 1, 2, pe))
                comps.append((5, 1 << (e - 2), pe))
        else:
            comps.append((_primitive_root_prime_power(p, e), p ** (e - 1) * (p - 1), pe))
    out = []
    for g, order, pe in comps:
        rest = q // pe
        if rest == 1:
            lifted = g % q
        else:
            # CRT: lifted = g mod pe, = 1 mod q/pe
            inv_rest = pow(rest, -1, pe)
            lifted = (1 + rest * ((g - 1) * inv_rest % pe)) % q
        out.append((lifted, order))
    return out


def characters_mod(q: int) -> np.ndarray:
    """The (phi(q), q) complex128 table of all Dirichlet characters mod q, one per
    row in lexicographic order of the generator exponents; row 0 is principal.

    (Z/qZ)* is decomposed into cyclic components with fixed generators (odd
    prime powers get their smallest primitive root; 2^e with e >= 3 splits into
    <-1> x <5>).  Every value is read from one table of the roots of unity
    e(t / e) at exact integer exponents t, e the exponent of the group.  A table
    over CHARACTER_TABLE_CAP bytes raises CapacityError before it is allocated.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    if 16 * q > CHARACTER_TABLE_CAP:  # phi(q) >= 1: fail before q is factorized
        raise CapacityError(f"character table of at least {q} values beyond the cap {CHARACTER_TABLE_CAP} bytes")
    gens = _unit_group(q)
    orders = [s for _, s in gens]
    phi = math.prod(orders)
    if 16 * phi * q > CHARACTER_TABLE_CAP:
        raise CapacityError(f"character table of {phi} x {q} values beyond the cap {CHARACTER_TABLE_CAP} bytes")
    k, e = len(orders), math.lcm(*orders)
    exps = np.indices(orders, dtype=np.int64).reshape(k, phi).T  # row i: the exponents of unit i
    units = np.full(phi, 1 % q, dtype=np.int64)
    for l, (g, s) in enumerate(gens):
        powers = np.empty(s, dtype=np.int64)
        acc = 1
        for j in range(s):
            powers[j] = acc
            acc = acc * g % q
        units = units * powers[exps[:, l]] % q
    # chi_j(unit i) = e(sum_l a_jl a_il / s_l), at the exact exponent t mod e
    t = (exps * np.array([e // s for s in orders], dtype=np.int64)) @ exps.T % e
    table = np.zeros((phi, q), dtype=np.complex128)
    table[:, units] = np.exp(2j * np.pi * np.arange(e) / e)[t]
    return table


def gauss_sum(chi: np.ndarray) -> complex:
    """tau(chi) = sum over r mod q, gcd(r,q)=1, of chi(r) e(r/q), for a row chi of
    `characters_mod(q)`."""
    q = len(chi)
    e = np.exp(2j * np.pi * np.arange(q) / q)
    return complex(np.sum(chi * e))


def ramanujan_sum_direct(q: int, n: int) -> complex:
    """Direct exponential-sum evaluation of c_q(n) (test oracle)."""
    total = 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            total += np.exp(2j * np.pi * a * (n % q) / q)
    return complex(total)


def exponential_from_characters(r: int, n: int, q: int) -> complex:
    """e(r n / q) reconstructed as (1/phi(q)) sum_chi tau(conj chi) chi(r n).

    Valid only when gcd(rn, q) = 1; raises DomainError otherwise.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    if math.gcd(r * n, q) != 1:
        raise DomainError("identity requires gcd(rn, q) = 1")
    table = characters_mod(q)
    rn = (r * n) % q
    return complex(sum(gauss_sum(np.conj(chi)) * chi[rn] for chi in table) / len(table))


# ---------------------------------------------------------------------------
# Goldbach: omega * T by Ramanujan sums, pair counts, the smooth singular series
# ---------------------------------------------------------------------------


def convolve_with_lambda_q_model(omega: ArithFn, y: int, big_q: int, c: float, n: int) -> float:
    """(omega * T)(n) for T = c Lambda_Q restricted to (Y, 2Y], as
    sum_{q <= Q} (mu(q)/phi(q)) sum_{n1} omega(n1) c_q(n - n1) over the n1 with
    n - n1 inside (Y, 2Y]; T is never materialized.  Requires omega to be
    supported on Q-rough numbers (that is the hypothesis under which the
    expansion's character sums collapse to Ramanujan sums); raises ContractError
    otherwise.
    """
    if not _is_rough_supported(omega, big_q):
        raise ContractError("Ramanujan shortcut requires omega supported on Q-rough numbers")
    lo, hi = y, 2 * y
    n1_lo, n1_hi = n - hi, n - lo  # n1 with lo < n - n1 <= hi, i.e. n1 in [n-hi, n-lo)
    w_lo = max(n1_lo, omega.support_start)
    w_hi = min(n1_hi, omega.support_stop)
    if w_lo >= w_hi:
        return 0.0
    vals = omega.values[w_lo - omega.support_start : w_hi - omega.support_start]
    n1s = np.arange(w_lo, w_hi, dtype=np.int64)
    total = 0.0
    mu, phi = mu_phi_table(big_q)
    for q in np.flatnonzero(mu).tolist():
        total += int(mu[q]) / int(phi[q]) * float(np.sum(vals * ramanujan_sum(q, n - n1s).astype(np.float64)))
    return c * total


def _is_rough_supported(omega: ArithFn, z: float) -> bool:
    nz = omega.values != 0
    return not nz.any() or bool(np.all(rough_flags(omega.support_start, omega.support_stop, z)[nz]))


def goldbach_count(n: int, flags: np.ndarray) -> int:
    """Number of ordered prime pairs (p, q) with p + q = n (test oracle)."""
    total = 0
    for p in range(2, n - 1):
        if flags[p] and flags[n - p]:
            total += 1
    return total


def singular_series_smooth_sum(n: int, prime_bound: int) -> float:
    """Sum over ALL squarefree q composed of primes <= prime_bound.

    Exactly equal to `singular_series_product` by multiplicativity; serves as
    the independent series-side oracle for the product path.  Its largest q, the
    primorial of prime_bound, has to fit `mu_phi_table` (prime_bound < 23).
    """
    qs = np.ones(1, dtype=np.int64)
    for p in cached_primes(prime_bound).tolist():
        qs = np.concatenate([qs, qs * p])
    return _ascending_sum(qs, n)


# ---------------------------------------------------------------------------
# Farey arcs
# ---------------------------------------------------------------------------


def containment_radius(arc: FareyArc) -> float:
    """1/(q * order): the arc lies within this distance of its center."""
    return 1.0 / (arc.q * arc.order)


def contains(arc: FareyArc, alpha: float) -> bool:
    """True iff alpha mod 1 lies in the half-open arc [lo, hi), which wraps when lo < 0."""
    a = alpha % 1.0
    if arc.lo < 0:
        return a < arc.hi or a >= arc.lo + 1.0
    return arc.lo <= a < arc.hi


def spot_probe_loop(classes: list, size: int, h: float, arcs: list) -> tuple:
    """The spot probe of closeness_integral as one Python loop over the sampled
    bins: (largest window integral, its alpha folded into [0, 1/2]), or (0.0, None).

    classes are the pairs (c, v_c) of `spectrum_classes` on the M-point grid,
    class r - c being v_c reversed for 0 < c < r/2.  Each window is summed
    class by class, in the order the classes come, off the same running sums
    (a reversed class read through the running sums of its mirror) and with
    the same operations, so the vectorized probe must agree bit for bit.
    """
    radius = min(int(size / h), (size - 1) // 2)
    sums = [(c, np.concatenate([[0.0], np.cumsum(v)])) for c, v in classes]
    r = size // (len(sums[0][1]) - 1)
    length = size // r

    def part(csum, c, lo, hi, mirror):
        t0, t1 = (lo - c + r - 1) // r, (hi - c + r) // r
        if mirror:
            t0, t1 = length - t1, length - t0
        return (csum[t1] - csum[t0]) + (csum[length] if lo > hi else 0.0)

    spot, spot_alpha = 0.0, None
    for arc in sorted(arcs, key=lambda a: a.width, reverse=True)[:SPOT_ARCS]:
        k_lo, k_hi = math.ceil(arc.lo * size), math.floor(arc.hi * size)
        for k in range(k_lo, k_hi + 1, max(1, (k_hi - k_lo) // SPOT_SAMPLES_PER_ARC)):
            lo, hi = (k - radius) % size, (k + radius) % size
            total = 0.0
            for c, csum in sums:
                total += part(csum, c, lo, hi, False)
                if 0 < c < r // 2:
                    total += part(csum, r - c, lo, hi, True)
            value = float(total) / size
            if value > spot:
                spot, spot_alpha = value, min(k % size, -k % size) / size
    return spot, spot_alpha
