"""The two model functions: the major-arc main term Lambda_Q and the scaled
upper-bound sieve model.

Lambda_Q(n) = sum_{q <= Q} sum_{a mod q, gcd(a,q)=1} (mu(q)/phi(q)) e(a n / q)
            = sum_{q <= Q} mu(q) c_q(n) / phi(q)          (Ramanujan closed form)

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Optional

import numpy as np

from .arith import cached_primes, euler_phi, mobius, mu_phi_table, rough_flags
from .arithfn import ArithFn, TWO_PI
from .characters import ramanujan_sum
from .errors import CapacityError, ContractError, DomainError

# ---------------------------------------------------------------------------
# Lambda_Q
# ---------------------------------------------------------------------------


def _mu_phi(q: int) -> tuple[int, int]:
    mu, phi = mu_phi_table(q)
    return int(mu[q]), int(phi[q])


@lru_cache(maxsize=512)
def _lambda_q_residue_table(q: int) -> np.ndarray:
    """Row r -> mu(q) c_q(r) / phi(q), indexed by residues r mod q (q squarefree)."""
    mu, phi = _mu_phi(q)
    return (mu / phi) * ramanujan_sum(q, np.arange(q)).astype(np.float64)


def lambda_q(n: int, big_q: int) -> float:
    """Lambda_Q(n) by the Ramanujan-sum closed form."""
    return float(lambda_q_window(n, n + 1, big_q)[0])


def lambda_q_window(start: int, stop: int, big_q: int) -> np.ndarray:
    """Lambda_Q(n) for n in [start, stop), vectorized via residue tables."""
    if stop < start or start < 0 or big_q < 1:
        raise DomainError("bad window or Q")
    out = np.zeros(stop - start)
    idx = np.arange(start, stop, dtype=np.int64)
    for q in np.flatnonzero(mu_phi_table(big_q)[0]).tolist():
        out += _lambda_q_residue_table(q)[idx % q]
    return out


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


@dataclass(frozen=True)
class LambdaQParams:
    """Major-arc model parameters: modulus cutoff Q, window (lo, hi] and scale."""

    big_q: int
    window: tuple[int, int]  # integers n with window[0] < n <= window[1]
    c_nu: float = 1.0

    def __post_init__(self):
        if self.big_q < 1:
            raise DomainError("Q must be >= 1")
        lo, hi = self.window
        if hi <= lo:
            raise DomainError("window must be nonempty")
        if self.c_nu < 0:
            raise DomainError("c_nu must be >= 0")

    @property
    def support_start(self) -> int:
        return self.window[0] + 1


def model_t_nu(params: LambdaQParams) -> ArithFn:
    """c_nu * Lambda_Q on the window (lo, hi], zero elsewhere."""
    vals = params.c_nu * lambda_q_window(params.support_start, params.window[1] + 1, params.big_q)
    return ArithFn(params.support_start, vals)


def lambda_q_short_sum(
    t: int, h_prime: float, big_q: int, r: int = 0, q_twist: int = 1
) -> tuple[complex, complex, float]:
    """Twisted short sum of Lambda_Q over t - floor(H') < n <= t.

    Returns (actual, predicted main term, error budget).  The main term is
    mu(q') H' / phi(q') when the twist denominator q' is at most Q, and 0
    otherwise; the budget is Q^3 resp. q'Q + Q^3 (up to the empirical constant
    pinned in `constants`).
    """
    actual = _twisted_short_sum(t, h_prime, r, q_twist, lambda lo, hi: lambda_q_window(lo, hi, big_q))
    if q_twist <= big_q:
        mu, phi = _mu_phi(q_twist)
        return actual, complex(mu * h_prime / phi), float(big_q**3)
    return actual, 0j, float(q_twist * big_q + big_q**3)


def _twisted_short_sum(t: int, h_prime: float, r: int, q_twist: int, window) -> complex:
    """sum_{t - floor(H') < n <= t} v(n) e(r n / q') with v = window(lo, t + 1) on [lo, t].

    e(r n / q') depends on n mod q' only, so v is summed per residue class
    first and each class sum twisted once.  Checks the twist r/q' and the
    window for both model short sums.
    """
    if q_twist < 1 or math.gcd(r, q_twist) != 1:
        raise DomainError("twist must be a reduced fraction r/q' with q' >= 1")
    if h_prime <= 0 or t <= h_prime:
        raise DomainError("need H' > 0 and t > H'")
    lo = t - int(h_prime) + 1
    values = window(lo, t + 1)
    if q_twist == 1:
        return complex(np.sum(values))
    classes = np.bincount(np.arange(lo, t + 1) % q_twist, weights=values, minlength=q_twist)
    phases = (r % q_twist) * np.arange(q_twist) % q_twist  # r a mod q' for the class a
    return complex(np.dot(classes, np.exp((TWO_PI * 1j / q_twist) * phases)))


# ---------------------------------------------------------------------------
# Mertens product and the sieve
# ---------------------------------------------------------------------------


def mertens_product(z: float) -> float:
    """V(z) = prod_{p <= z} (1 - 1/p)."""
    if z < 0:
        raise DomainError("z must be >= 0")
    value = 1.0
    for p in cached_primes(int(z)):
        value *= 1.0 - 1.0 / int(p)
    return value


_MAX_WEIGHTS = 1 << 20


@dataclass(frozen=True)
class SieveSystem:
    """Upper-bound sieve weights lambda_d for level D and sifting range z."""

    beta: int
    level: float  # D
    sift: float  # z
    weights: dict[int, int] = field(repr=False)

    def __post_init__(self):
        if self.weights.get(1) != 1:
            raise ContractError("lambda_1 must be 1")
        if any(abs(v) > 1 for v in self.weights.values()):
            raise ContractError("|lambda_d| must be <= 1")
        if any(d > self.level for d in self.weights):
            raise ContractError("weights must be supported on d <= D")
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

    def theta(self, n: int) -> int:
        """theta_n = sum over admitted d | n of lambda_d."""
        if n < 1:
            raise DomainError("theta requires n >= 1")
        return sum(lam for d, lam in self.weights.items() if n % d == 0)

    def theta_window(self, start: int, stop: int) -> np.ndarray:
        """theta_n for n in [start, stop), by strided accumulation."""
        if start < 1 or stop < start:
            raise DomainError("need 1 <= start <= stop")
        out = np.zeros(stop - start, dtype=np.int64)
        for d, lam in self.weights.items():
            first = ((start + d - 1) // d) * d
            if first < stop:
                out[first - start :: d] += lam
        return out


def beta_sieve_weights(level: float, sift: float, beta: int = 10) -> SieveSystem:
    """Weights of the upper-bound combinatorial sieve (see module docstring).

    lambda_d = mu(d) for admitted squarefree z-smooth d, 0 otherwise.  Admission
    uses exact integer comparisons against floor(D), so D and z may be real.
    """
    if sift < 2 or level < sift:
        raise DomainError("need z >= 2 and D >= z")
    if beta < 1:
        raise DomainError("beta must be >= 1")
    d_floor = int(level)
    primes = cached_primes(int(sift)).tolist()[::-1]  # descending
    weights: dict[int, int] = {1: 1}

    def extend(prefix_prod: int, idx: int, pos: int, sign: int):
        for i in range(idx, len(primes)):
            p = primes[i]
            m = pos + 1
            if m % 2 == 1 and prefix_prod * p ** (beta + 1) > d_floor:
                # odd-position truncation: this p (and only this p) is barred,
                # smaller primes may still be admissible
                continue
            d = prefix_prod * p
            weights[d] = -sign
            if len(weights) > _MAX_WEIGHTS:
                raise CapacityError("sieve support too large")
            extend(d, i + 1, m, -sign)

    extend(1, 0, 0, 1)
    return SieveSystem(beta=beta, level=float(level), sift=float(sift), weights=weights)


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


def model_t_nu_plus(
    params: LambdaQParams, sift: float, level: Optional[float] = None, beta: int = 10
) -> ArithFn:
    """c_nu * V(z)^{-1} * theta_n(D, z) on the window (lo, hi], zero elsewhere.

    With no level, or a level D >= untruncated_level(z, beta), theta is the
    z-rough indicator (see the module docstring).  That is the desk default:
    the asymptotic level H^{1/10} collapses below 2 at desk sizes, which would
    leave only the d = 1 weight and make the model a constant.  Below that
    level theta comes from the truncated weights; it is nonnegative, and a
    negative value would mean the sieve construction is broken, so that is
    checked outright.
    """
    if sift < 2 or beta < 1:
        raise DomainError("need z >= 2 and beta >= 1")
    start, stop = params.support_start, params.window[1] + 1
    if level is None or level >= untruncated_level(sift, beta):
        theta = rough_flags(start, stop, sift)
    else:
        theta = beta_sieve_weights(level, sift, beta).theta_window(start, stop)
        if theta.min(initial=0) < 0:
            raise ContractError("sieve weights are not an upper-bound system")
    return ArithFn(start, (params.c_nu / mertens_product(sift)) * theta.astype(np.float64))


def sieve_short_sum(
    t: int, h_prime: float, sieve: SieveSystem, r: int = 0, q_twist: int = 1
) -> tuple[complex, complex, float]:
    """V(z)^{-1}-scaled twisted short sum of theta_n over t - floor(H') < n <= t.

    Returns (actual, predicted, error budget): main term mu(q) H' / phi(q) with
    budget H' e^{-log D / log z} + q D for q <= z, else 0 with the divisor-sum
    budget (H'/q + D + q) log(q H').
    """
    actual = _twisted_short_sum(t, h_prime, r, q_twist, sieve.theta_window) / mertens_product(sieve.sift)
    if q_twist <= sieve.sift:
        mu, phi = _mu_phi(q_twist)
        budget = h_prime * math.exp(-math.log(sieve.level) / math.log(sieve.sift)) + q_twist * sieve.level
        return actual, complex(mu * h_prime / phi), float(budget)
    return actual, 0j, float((h_prime / q_twist + sieve.level + q_twist) * math.log(q_twist * h_prime))
