"""Problem-level objects: exceptional sets, the singular series, the model
convolution, and the end-to-end minorant-transfer pipeline.

The pipeline evaluates, by windowed convolution on [X-H, X], the chain

    a*b(n)  >=  a*nu(n)  ~  a*T+(n)  >=  omega*T+(n)  ~  omega*T(n)

where T = c_nu Lambda_Q on (Y, 2Y], T+ is the nonnegative sieve model, nu <= b
and omega <= a pointwise, a >= 0 and T+ >= 0.  The two >= steps are pointwise
inequalities and must never fail; the two ~ steps are approximations whose
violations at slack kappa are counted.  The final verdict per even n is the
lower bound a*b(n) >= omega*T(n) - 2 kappa.  Each step costs (H+1) times the
length of its second factor, or one transform of about that length plus H
when that is cheaper, never a full convolution of length up to 2X.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np

from .arith import cached_primes, interval_prime_flags, mu_phi_table, rough_flags, weighted_prime_fn
# `convolve` is not called here but stays bound: perfbench/test_perfbench.py checks
# that the tracer wraps goldbach.convolve with arithfn.convolve, and
# test_pipeline_makes_no_full_convolution patches it to show run_pipeline never calls it
from .arithfn import ArithFn, convolve, convolve_window, subtract, window_preimage
from .characters import ramanujan_sum
from .errors import CapacityError, ContractError, DomainError
from .models import LambdaQParams, model_t_nu, model_t_nu_plus

DESK_X_CAP = 10**9  # X of the desk pipeline inputs, which hold Lambda' on [2, X]
SCAN_BLOCK = 1 << 20  # integers of [X-H, X] that exceptional_scan sifts at a time; even
SCAN_CAP = 10**8  # sqrt(X) + block + P in exceptional_scan; about 13 bytes each, 1.3 GB at the cap
# Every even 4 <= n <= 4*10^18 is p + q with a prime p < 10^4 (Oliveira e Silva,
# Herzog, Pardi, Math. Comp. 83 (2014)), so the first pass of exceptional_scan
# decides every desk-scale n; larger bounds are tried only so that the result
# never rests on that computation.
LEAST_PRIME_START = 10**4


# ---------------------------------------------------------------------------
# ground truth: exceptional sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceptionalScan:
    """E(X, H) together with what decided it.

    p_bound is the final prime bound P; max_least_prime is the largest least
    prime p of a partition n = p + q over the scanned n, attained at
    max_least_n (both None when no n has a partition).
    """

    exceptions: tuple[int, ...]
    p_bound: int
    max_least_prime: Optional[int]
    max_least_n: Optional[int]

    def summary(self) -> dict:
        return {
            "count": len(self.exceptions),
            "p_bound": self.p_bound,
            "max_least_prime": self.max_least_prime,
            "max_least_n": self.max_least_n,
        }


def exceptional_scan(x: int, h: int) -> ExceptionalScan:
    """Even n in [x-h, x] that are not a sum of two primes (exhaustive check).

    Works through [x-h, x] in blocks of SCAN_BLOCK integers.  Each block sieves
    only [block start - P, block end] and the primes p <= P, then drops, one
    vectorised step per ascending p, every n with n - p >= 2 prime.  If an n is
    left for which primes above P remain untried, P grows 16-fold and the block
    reruns, so the result is exact.  Memory is O(sqrt(x) + min(h, SCAN_BLOCK) + P);
    a working set over SCAN_CAP raises CapacityError before it is allocated.
    """
    if x - h < 4:
        raise DomainError("need X - H >= 4")
    p_bound = LEAST_PRIME_START
    exceptions: list[int] = []
    least_p = least_n = None
    for first in range(x - h + (x - h) % 2, x + 1, SCAN_BLOCK):
        last = min(first + SCAN_BLOCK - 1, x)
        while True:
            working_set = math.isqrt(x) + last - first + p_bound
            if working_set > SCAN_CAP:
                raise CapacityError(
                    f"E(X, H) working set sqrt(X) + block + P = {working_set} beyond the cap {SCAN_CAP}"
                )
            left, p, n = _sift_partitions(first, last, p_bound)
            if len(left) == 0 or int(left[-1]) - 2 <= p_bound:
                break
            p_bound *= 16
        exceptions += left.tolist()
        if p is not None and (least_p is None or p > least_p):
            least_p, least_n = p, n
    return ExceptionalScan(tuple(exceptions), p_bound, least_p, least_n)


def _sift_partitions(start: int, x: int, p_bound: int) -> tuple[np.ndarray, Optional[int], Optional[int]]:
    """The even n in [start, x] with no partition n = p + q, p <= p_bound, and
    the largest least p among the others with its smallest n."""
    lo = max(0, start - p_bound)
    flags = interval_prime_flags(lo, x)
    left = np.arange(start, x + 1, 2, dtype=np.int64)
    least_p = least_n = None
    for p in cached_primes(p_bound).tolist():
        k = int(np.searchsorted(left, p + 2))  # left[k:] are the n with n - p >= 2
        if k == len(left):
            break
        tail = left[k:]
        hit = flags[tail - (p + lo)]
        if hit.any():
            least_p, least_n = p, int(tail[hit][0])
            left = np.concatenate((left[:k], tail[~hit]))
    return left, least_p, least_n


def exceptional_set(x: int, h: int) -> list[int]:
    """The list of `exceptional_scan(x, h)`."""
    return list(exceptional_scan(x, h).exceptions)


def goldbach_count(n: int, flags: np.ndarray) -> int:
    """Number of ordered prime pairs (p, q) with p + q = n (test oracle)."""
    total = 0
    for p in range(2, n - 1):
        if flags[p] and flags[n - p]:
            total += 1
    return total


# ---------------------------------------------------------------------------
# singular series
# ---------------------------------------------------------------------------


def singular_series(n: int, q_max: int) -> float:
    """Partial sum over q <= q_max of |mu(q)| c_q(n) / phi(q)^2."""
    if n < 2 or q_max < 1:
        raise DomainError("need n >= 2 and q_max >= 1")
    return _ascending_sum(np.flatnonzero(mu_phi_table(q_max)[0]), n)


def _ascending_sum(qs: np.ndarray, n: int) -> float:
    """Sum of c_q(n) / phi(q)^2 over the qs, added left to right in their order
    (np.add.accumulate does; np.sum adds pairwise and moves the last bits)."""
    phi = mu_phi_table(int(qs.max()))[1]
    return float(np.add.accumulate(ramanujan_sum(qs, n) / phi[qs] ** 2)[-1])


def singular_series_product(n: int, prime_bound: int) -> float:
    """Euler product over p <= prime_bound of (1 + c_p(n) / (p-1)^2).

    c_p(n) is p-1 when p | n and -1 otherwise, so the p = 2 factor is 2 for
    even n and 0 for odd n; the partial sums of `singular_series` converge to
    this product as the same primes are exhausted.
    """
    if n < 2 or prime_bound < 2:
        raise DomainError("need n >= 2 and prime_bound >= 2")
    ps = cached_primes(prime_bound)
    c_p = np.where(np.mod(n, ps) == 0, ps - 1.0, -1.0)
    return float(np.prod(1.0 + c_p / (ps - 1.0) ** 2))


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
# omega * T_nu via Ramanujan sums
# ---------------------------------------------------------------------------


def convolve_with_lambda_q_model(omega: ArithFn, params: LambdaQParams, n: int) -> float:
    """(omega * T)(n) for T = c_nu Lambda_Q restricted to the params window, as
    sum_{q <= Q} (mu(q)/phi(q)) sum_{n1} omega(n1) c_q(n - n1) over the n1 with
    n - n1 inside the window; T is never materialized.  Requires omega to be
    supported on Q-rough numbers (that is the hypothesis under which the
    expansion's character sums collapse to Ramanujan sums); raises ContractError
    otherwise.
    """
    if not _is_rough_supported(omega, params.big_q):
        raise ContractError("Ramanujan shortcut requires omega supported on Q-rough numbers")
    lo, hi = params.window
    n1_lo, n1_hi = n - hi, n - lo  # n1 with lo < n - n1 <= hi, i.e. n1 in [n-hi, n-lo)
    w_lo = max(n1_lo, omega.support_start)
    w_hi = min(n1_hi, omega.support_stop)
    if w_lo >= w_hi:
        return 0.0
    vals = omega.values[w_lo - omega.support_start : w_hi - omega.support_start]
    n1s = np.arange(w_lo, w_hi, dtype=np.int64)
    total = 0.0
    mu, phi = mu_phi_table(params.big_q)
    for q in np.flatnonzero(mu).tolist():
        total += int(mu[q]) / int(phi[q]) * float(np.sum(vals * ramanujan_sum(q, n - n1s).astype(np.float64)))
    return params.c_nu * total


def _is_rough_supported(omega: ArithFn, z: float) -> bool:
    nz = omega.values != 0
    return not nz.any() or bool(np.all(rough_flags(omega.support_start, omega.support_stop, z)[nz]))


# ---------------------------------------------------------------------------
# pipeline configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Desk-scale parameters of the minorant-transfer pipeline.

    The asymptotic shape (Y = X^{21/40+eps}, H = Y^{1/9+2eps}, Q = (log X)^A,
    kappa = Y / log Y) degenerates at desk sizes, so `desk_config`, at A = A_POWER
    and eps = EPS, applies floors (H >= 64, Q >= 3, Y >= 10^3) and records the
    un-floored values in `ideal` for reporting.
    """

    x: int
    h: int
    y: int
    big_q: int
    a_power: float
    c_nu: float
    kappa: float
    theta_target: float
    ideal: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (2 < self.h < self.y < self.x):
            raise DomainError("need 2 < H < Y < X")
        if self.big_q < 1 or self.kappa <= 0 or self.c_nu < 0:
            raise DomainError("need Q >= 1, kappa > 0, nonnegative densities")

    @property
    def nu_window(self) -> tuple[int, int]:
        return (self.y, 2 * self.y)

    @property
    def omega_window(self) -> tuple[int, int]:
        return (self.x - 3 * self.y, self.x - self.y)

    def lambda_q_params(self) -> LambdaQParams:
        return LambdaQParams(big_q=self.big_q, window=self.nu_window, c_nu=self.c_nu)

    def to_dict(self) -> dict:
        return {
            "x": self.x, "h": self.h, "y": self.y, "big_q": self.big_q,
            "a_power": self.a_power, "c_nu": self.c_nu,
            "kappa": self.kappa, "theta_target": self.theta_target, "ideal": dict(self.ideal),
        }


A_POWER = 1.0  # A of Q = (log X)^A and of theta_target = (log Y)^-A
EPS = 0.1  # eps of H = Y^{1/9 + 2 eps}


def desk_config(
    x: int,
    big_q: Optional[int] = None,
    c_nu: float = 1.0,
) -> PipelineConfig:
    """Apply the exponent map with desk floors; keep both ideal and floored values."""
    ideal_y = x ** (21.0 / 40.0)
    y = max(1000, round(ideal_y))
    ideal_h = y ** (1.0 / 9.0 + 2 * EPS)
    h = max(64, round(ideal_h))
    ideal_q = math.log(x) ** A_POWER
    q = big_q if big_q is not None else max(3, round(ideal_q))
    kappa = y / math.log(y)
    theta_target = math.log(y) ** (-A_POWER)
    return PipelineConfig(
        x=x, h=h, y=y, big_q=q, a_power=A_POWER, c_nu=c_nu,
        kappa=kappa, theta_target=theta_target,
        ideal={"y": ideal_y, "h": ideal_h, "big_q": ideal_q},
    )


PRESETS = {
    "desk-small": lambda: desk_config(200_000, big_q=10),
    "desk-medium": lambda: desk_config(1_000_000, big_q=10),
}


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    """Counts and diagnostics from one pipeline run over n in [X-H, X]."""

    config: PipelineConfig
    exceptions_step2: int  # |a*nu - a*T+| > kappa
    exceptions_step4: int  # |omega*T+ - omega*T| > kappa
    final_failures: int  # even n with a*b(n) < omega*T(n) - 2 kappa
    minorization_violations: int  # nu > b or omega > a anywhere
    step_positivity_violations: int  # a*T+ < omega*T+ (must be 0)
    even_count: int
    odd_count: int
    odd_final_failures: int
    rows: tuple = field(repr=False)  # (n, a*b(n), omega*T(n), verdict)

    @property
    def final_failure_fraction(self) -> float:
        return self.final_failures / self.even_count if self.even_count else 0.0

    def summary(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "exceptions_step2": self.exceptions_step2,
            "exceptions_step4": self.exceptions_step4,
            "final_failures": self.final_failures,
            "final_failure_fraction": self.final_failure_fraction,
            "minorization_violations": self.minorization_violations,
            "step_positivity_violations": self.step_positivity_violations,
            "even_count": self.even_count,
            "odd_count": self.odd_count,
            "odd_final_failures": self.odd_final_failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)

    def write_csv(self, fh: IO[str]) -> None:
        for key, value in sorted(self.config.to_dict().items()):
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh)
        writer.writerow(["n", "lambda_conv", "omega_model_conv", "verdict"])
        for n, ab, om, verdict in self.rows:
            writer.writerow([n, f"{ab:.10g}", f"{om:.10g}", verdict])


def _require_support(f: ArithFn, window: tuple[int, int], name: str) -> None:
    lo, hi = window
    if len(f) == 0:
        raise ContractError(f"{name} has empty support")
    nz = np.flatnonzero(f.values != 0)
    if len(nz) == 0:
        return
    first = f.support_start + int(nz[0])
    last = f.support_start + int(nz[-1])
    if first <= lo or last > hi:
        raise ContractError(
            f"{name} must be supported inside ({lo}, {hi}]; found values on [{first}, {last}]"
        )


def _pointwise_violations(small: ArithFn, big: ArithFn) -> int:
    """Count n with small(n) > big(n), comparing on the union of supports."""
    lo = min(small.support_start, big.support_start)
    hi = max(small.support_stop, big.support_stop)
    s = small.embed(lo, hi)
    b = big.embed(lo, hi)
    return int(np.sum(s > b + 1e-12))


def run_pipeline(
    config: PipelineConfig,
    nu: ArithFn,
    omega: ArithFn,
    a: ArithFn,
    b: ArithFn,
    t_nu: Optional[ArithFn] = None,
    t_nu_plus: Optional[ArithFn] = None,
) -> PipelineReport:
    """Evaluate the whole transfer chain by windowed convolution on [X-H, X].

    nu must live on (Y, 2Y] and omega on (X-3Y, X-Y]; a must be nonnegative and
    dominate omega, b must dominate nu.  t_nu / t_nu_plus default to the models
    built from the config (Lambda_Q scaled by c_nu, and the rescaled
    untruncated sieve at z = Q).
    """
    _require_support(nu, config.nu_window, "nu")
    _require_support(omega, config.omega_window, "omega")
    if np.min(a.values, initial=0) < 0:
        raise ContractError("a must be nonnegative")

    if t_nu is None:
        t_nu = model_t_nu(config.lambda_q_params())
    if t_nu_plus is None:
        t_nu_plus = model_t_nu_plus(config.lambda_q_params(), config.big_q)
    if np.min(t_nu_plus.values, initial=0) < 0:
        raise ContractError("t_nu_plus must be nonnegative")

    minorization = _pointwise_violations(nu, b) + _pointwise_violations(omega, a)

    kappa = config.kappa
    lo, hi = config.x - config.h, config.x
    ns = np.arange(lo, hi + 1, dtype=np.int64)

    # approximation steps, computed on the difference functions so that a
    # collapsed chain (nu = T = T+) is exactly zero
    step2 = np.abs(convolve_window(a, subtract(nu, t_nu_plus), lo, hi))
    step4 = np.abs(convolve_window(omega, subtract(t_nu_plus, t_nu), lo, hi))
    exceptions_step2 = int(np.sum(step2 > kappa))
    exceptions_step4 = int(np.sum(step4 > kappa))

    # pointwise step a*T+ >= omega*T+, computed as (a - omega) * T+ with a cut
    # to the m the window reads.  When the minorization omega <= a holds, every
    # product is nonnegative and IEEE summation cannot produce a spurious sign,
    # so "exactly zero violations" needs no tolerance; a genuine minorization
    # breach shows up honestly here and in the minorization count.
    start, stop = window_preimage(t_nu_plus, lo, hi)
    a_cut = ArithFn(max(start, 0), a.embed(max(start, 0), stop))
    positivity_violations = int(np.sum(convolve_window(subtract(a_cut, omega), t_nu_plus, lo, hi) < 0))

    ab = convolve_window(a, b, lo, hi)
    om = convolve_window(omega, t_nu, lo, hi)

    even = ns % 2 == 0
    fails = ab < om - 2 * kappa
    final_failures = int(np.sum(fails & even))
    odd_final_failures = int(np.sum(fails & ~even))

    rows = []
    for i, n in enumerate(ns):
        if even[i]:
            verdict = "fail" if fails[i] else "ok"
        else:
            verdict = "odd-fail" if fails[i] else "odd"
        rows.append((int(n), float(ab[i]), float(om[i]), verdict))

    return PipelineReport(
        config=config,
        exceptions_step2=exceptions_step2,
        exceptions_step4=exceptions_step4,
        final_failures=final_failures,
        minorization_violations=minorization,
        step_positivity_violations=positivity_violations,
        even_count=int(np.sum(even)),
        odd_count=int(np.sum(~even)),
        odd_final_failures=odd_final_failures,
        rows=tuple(rows),
    )


def restricted_prime_fn(x: int, window: tuple[int, int]) -> ArithFn:
    """The log-weighted prime function cut to the integers (lo, hi]."""
    if window[1] > x:
        raise DomainError("window exceeds the prime table")
    return _cut(weighted_prime_fn(x), window)


def _cut(f: ArithFn, window: tuple[int, int]) -> ArithFn:
    lo, hi = window
    return ArithFn(lo + 1, f.embed(lo + 1, hi + 1))


def desk_pipeline_inputs(config: PipelineConfig) -> tuple[ArithFn, ArithFn, ArithFn, ArithFn]:
    """(nu, omega, a, b) for the desk run: the trivial minorants nu = Lambda'
    restricted to (Y, 2Y], omega = Lambda' restricted to (X-3Y, X-Y], and
    a = b = Lambda' on [2, X]."""
    if config.x > DESK_X_CAP:
        raise CapacityError(f"X = {config.x} beyond the desk cap {DESK_X_CAP}")
    lam = weighted_prime_fn(config.x)
    return _cut(lam, config.nu_window), _cut(lam, config.omega_window), lam, lam
