"""Dirichlet characters mod q, Gauss sums, Ramanujan sums.

A character mod q is a row of one table: `characters_mod(q)` returns the
complex128 array of shape (phi(q), q) whose row j holds chi_j(0), ..., chi_j(q-1),
which is 0 where gcd(r, q) > 1.  (Z/qZ)* is decomposed into cyclic components
with fixed generators (odd prime powers get their smallest primitive root; 2^e
with e >= 3 splits into <-1> x <5>), and the rows run over the tuples of
exponents a character assigns to those generators in lexicographic order: row 0
is the principal character, and runs are reproducible.  Every value is read from
one table of the roots of unity e(t / e) at exact integer exponents t, e the
exponent of the group, so orthogonality tests do not accumulate tolerance from
repeated transcendental evaluations.  A table over CHARACTER_TABLE_CAP bytes
raises CapacityError before it is allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import factorize, mu_phi_table
from .errors import CapacityError, DomainError

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
    row in lexicographic order of the generator exponents; row 0 is principal."""
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


def ramanujan_sum(q, n):
    """c_q(n) = sum over a mod q, gcd(a,q)=1, of e(a n / q), via the closed form
    mu(q/g) phi(q) / phi(q/g) with g = gcd(q, n), read from `mu_phi_table`.  q
    and n broadcast as integer arrays; scalars give an int.
    """
    q, n = np.asarray(q, dtype=np.int64), np.asarray(n, dtype=np.int64)
    if q.min(initial=1) < 1:
        raise DomainError("ramanujan_sum requires q >= 1")
    mu, phi = mu_phi_table(int(q.max(initial=1)))
    qg = q // np.gcd(q, n)
    out = mu[qg] * (phi[q] // phi[qg])
    return int(out) if out.ndim == 0 else out


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
