"""Dirichlet characters mod q, Gauss sums, Ramanujan sums.

Representation: (Z/qZ)* is decomposed into cyclic components with fixed
generators (odd prime powers get their smallest primitive root; 2^e with e >= 3
splits into <-1> x <5>).  A character is labelled by the tuple of exponents it
assigns to those generators.  Its q values are read from one cached table of
the roots of unity e(t / e_order) at exact integer exponents t, so orthogonality
tests do not accumulate tolerance from repeated transcendental evaluations.

Character enumeration order is lexicographic in the generator exponents, which
makes runs reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import euler_phi, factorize, mu_phi_table
from .errors import CapacityError, DomainError

MAX_MODULUS = 10**5  # table-based construction bound

TWO_PI = 2.0 * math.pi


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


@lru_cache(maxsize=256)
def _group_tables(q: int):
    """(generators, orders, e_order, dlog table) for (Z/qZ)*.

    dlog has shape (q, k): dlog[r] holds the exponent tuple of residue r over
    the generators, or -1 on residues not coprime to q.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    if q > MAX_MODULUS:
        raise CapacityError(f"modulus {q} exceeds table bound {MAX_MODULUS}")
    gens = _unit_group(q)
    orders = [s for _, s in gens]
    k = len(gens)
    e_order = 1
    for s in orders:
        e_order = e_order * s // math.gcd(e_order, s)
    dlog = -np.ones((q, max(k, 1)), dtype=np.int64)
    pow_tables = []
    for g, s in gens:
        row = np.empty(s, dtype=np.int64)
        acc = 1
        for j in range(s):
            row[j] = acc
            acc = (acc * g) % q
        pow_tables.append(row)
    for exps in itertools.product(*(range(s) for s in orders)):
        r = 1 % q
        for table, a in zip(pow_tables, exps):
            r = (r * int(table[a])) % q
        dlog[r, : k or 1] = exps if k else 0
    return gens, orders, e_order, dlog


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    """A completely multiplicative character mod q.

    values[r] = chi(r), which is 0 where gcd(r, q) > 1.
    """

    modulus: int
    label: tuple[int, ...]  # exponent tuple over the group generators
    principal: bool
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.values.flags.writeable and self.values.base is None:
            self.values.setflags(write=False)

    def __call__(self, n: int) -> complex:
        return complex(self.values[n % self.modulus])

    def conj(self) -> "DirichletCharacter":
        orders = _group_tables(self.modulus)[1]
        label = tuple((-a) % s for a, s in zip(self.label, orders))
        return DirichletCharacter(self.modulus, label, self.principal, np.conj(self.values))


@lru_cache(maxsize=64)
def _root_table(e_order: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(e_order) / e_order)


def characters_mod(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q, exactly one of them principal.

    Table-based: each character stores q complex values, so cost grows as
    phi(q) * q; comfortable for q up to a few thousand, hard-capped at 10^5.
    """
    gens, orders, e_order, dlog = _group_tables(q)
    k = len(gens)
    roots = _root_table(e_order)
    coprime = dlog[:, 0] >= 0
    out = []
    for label in itertools.product(*(range(s) for s in orders)):
        if k:
            weights = np.array([label[i] * (e_order // orders[i]) for i in range(k)], dtype=np.int64)
            t = (dlog[:, :k] @ weights) % e_order
        else:
            t = np.zeros(q, dtype=np.int64)
        values = np.where(coprime, roots[np.where(coprime, t, 0)], 0.0 + 0.0j)
        out.append(
            DirichletCharacter(
                modulus=q,
                label=tuple(label),
                principal=all(a == 0 for a in label),
                values=values,
            )
        )
    return out


def principal_character(q: int) -> DirichletCharacter:
    for chi in characters_mod(q):
        if chi.principal:
            return chi
    raise AssertionError("unreachable")


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum over r mod q, gcd(r,q)=1, of chi(r) e(r/q)."""
    q = chi.modulus
    e = np.exp(2j * np.pi * np.arange(q) / q)
    return complex(np.sum(chi.values * e))


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
    total = 0j
    rn = (r * n) % q
    for chi in characters_mod(q):
        total += gauss_sum(chi.conj()) * chi(rn)
    return total / euler_phi(q)
