"""Ramanujan sums c_q(n), the one exponential sum mod q that the models read.

c_q(n) is the sum of e(a n / q) over the reduced residues a mod q.  Its closed
form mu(q/g) phi(q) / phi(q/g), g = gcd(q, n), needs neither a factorization
nor a table of Dirichlet characters; the character tables and Gauss sums that
check it against the definition are reference code in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

from .arith import mu_phi_table
from .errors import DomainError


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
