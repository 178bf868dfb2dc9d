"""Problem-level objects: exceptional sets, the singular series and the
end-to-end minorant-transfer pipeline.

The pipeline evaluates, by windowed convolution on [X-H, X], the chain

    a*a(n)  >=  a*nu(n)  ~  a*T+(n)  >=  omega*T+(n)  ~  omega*T(n)

where T = c_nu Lambda_Q on (Y, 2Y], T+ is the nonnegative sieve model, a >= 0
is the prime weight both summands of a binary Goldbach partition carry, and
nu <= a and omega <= a are its two minorants.  The two >= steps are pointwise
inequalities and must never fail; the two ~ steps are approximations whose
violations at slack kappa are counted.  The final verdict per even n is the
lower bound a*a(n) >= omega*T(n) - 2 kappa.  Every sum of the chain goes
through one chooser, `arithfn.add_convolution`: rows, at (H+1) multiply-adds
per point of the sparser factor, or dense chunks of the shorter factor, each
one transform, whichever costs less; never a full convolution of length up to
2X.

`PipelineConfig` is the one place the request is derived and checked: Y, H
and kappa follow X and the resolved Y unless given, and a Y that would start
omega's window below 0 (3Y > X + 1), a sieve model's z = Q below 2 and a run
whose bytes (`pipeline_bytes`) pass errors.MEMORY_CAP are refused when the
config is built, before anything is sieved.

Only a*a reaches all of [0, X]; every other input lives in a window of size
O(Y).  a is therefore a block source, read a segment at a time as points, the
m with a(m) != 0 (for Lambda', the primes), and a run holds
O(sqrt(X) + segment + H + Y) values (`pipeline_working_set`).  Each odd integer
of [0, X] is sieved once (H more per segment), and for Lambda' a*a meets each
prime p < m0 with the H+1 values of a on [X-H-p, X-p] as one row of a matrix
product: about pi(m0)(H+1) multiply-adds, not the (H+1)(X+1)/2 of a dense pass.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .arith import cached_primes, mu_phi_table, odd_prime_flags, prime_weights, primes_bytes
# `convolve` is not called here but stays bound: perfbench/test_perfbench.py checks
# that the tracer wraps goldbach.convolve with arithfn.convolve, and
# test_pipeline_makes_no_full_convolution patches it to show run_pipeline never calls it
from .arithfn import (ArithFn, add_convolution, add_rows, chunk_length, convolve, convolve_valid_bytes, convolve_window,
                      dense, rows_values, subtract, window_preimage)
from .characters import ramanujan_sum
from .errors import ContractError, DomainError, require_memory
from .models import model_t_nu, model_t_nu_plus, require_sift

PIPELINE_SEGMENT = 1 << 18  # integers m whose a(m) run_pipeline reads at a time
# bytes per value of pipeline_working_set: 8 of its own and the copies that
# build and scale the windows (10 measured at --X 4000000 --Y 900000)
VALUE_BYTES = 14
SCAN_BLOCK = 1 << 20  # integers of [X-H, X] that exceptional_scan sifts at a time; even
SURVIVOR_SHARE = 64  # the sift lists its survivors once fewer than 1/64 of a block's even n are left
# bytes exceptional_scan may hold per integer of a block and of [0, P]: the
# flags of the odd n, of the even n and of their hits (2 traced per integer
# of a 2^20 block; 24 refuses what the int64 sift refused)
SCAN_BYTES = 24
# Every even 4 <= n <= 4*10^18 is p + q with a prime p < 10^4 (Oliveira e Silva,
# Herzog, Pardi, Math. Comp. 83 (2014)), so the first pass of exceptional_scan
# decides every desk-scale n; larger bounds are tried only so that the result
# never rests on that computation.
LEAST_PRIME_START = 10**4


# -- ground truth: exceptional sets ----------------------------------------


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
        return {"count": len(self.exceptions), **{k: v for k, v in asdict(self).items() if k != "exceptions"}}


def exceptional_scan(x: int, h: int) -> ExceptionalScan:
    """Even n in [x-h, x] that are not a sum of two primes (exhaustive check).

    Works through [x-h, x] in blocks of SCAN_BLOCK integers.  Each block sieves
    only the odd n of [block start - P, block end] and the primes p <= P, then
    drops, one vectorised step per ascending p, every n with n - p >= 2 prime.  If an n is
    left for which primes above P remain untried, P grows 16-fold and the block
    reruns, so the result is exact.  Memory is O(sqrt(x) + min(h, SCAN_BLOCK) + P):
    the primes up to sqrt(x) and SCAN_BYTES per integer of the block and of
    [0, P], met against the cap before each block is sifted.
    """
    if h < 0 or x - h < 4:
        raise DomainError("need H >= 0 and X - H >= 4")
    p_bound = LEAST_PRIME_START
    exceptions: list[int] = []
    least_p = least_n = None
    for first in range(x - h + (x - h) % 2, x + 1, SCAN_BLOCK):
        last = min(first + SCAN_BLOCK - 1, x)
        while True:
            require_memory(f"E(X, H) at X = {x} in blocks of {last - first + 1} with P = {p_bound}",
                           primes_bytes(math.isqrt(x)) + SCAN_BYTES * (last - first + 1 + p_bound))
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
    the largest least p among the others with its smallest n.  Only 4 = 2 + 2
    has p = 2; each odd p updates alive in place from the slice of the odd prime
    flags that holds the n - p, or cuts their list once under 1/SURVIVOR_SHARE are left."""
    base, flags = odd_prime_flags(max(0, start - p_bound), x)  # flags[j] flags base + 2j
    alive = np.ones((x - start) // 2 + 1, dtype=bool)  # alive[i] flags n = start + 2i
    least_p = least_n = None
    if start == 4:
        alive[0], least_p, least_n = False, 2, 4
    primes = iter(cached_primes(p_bound)[1:].tolist())
    for p in primes:
        i = max(0, (p + 3 - start) // 2)  # alive[i:] are the n with n - p >= 2
        if i >= len(alive):
            break
        tail = alive[i:]
        j = (start + 2 * i - p - base) // 2  # n - p = base + 2j at n = start + 2i
        hit = tail & flags[j : j + len(tail)]
        k = int(hit.argmax())
        if hit[k]:
            least_p, least_n = p, start + 2 * (i + k)
            tail ^= hit
            if SURVIVOR_SHARE * np.count_nonzero(alive) < len(alive):
                break
    left = start + 2 * np.flatnonzero(alive)
    for p in primes:  # the primes after the one the flags stopped at
        k = int(np.searchsorted(left, p + 2))  # left[k:] are the n with n - p >= 2
        if k == len(left):
            break
        tail = left[k:]
        hit = flags[(tail - p - base) // 2]
        if hit.any():
            least_p, least_n = p, int(tail[hit][0])
            left = np.concatenate((left[:k], tail[~hit]))
    return left, least_p, least_n


# -- singular series -------------------------------------------------------


# n x q (or n x p) values one block of a singular-series table holds (one row of n at the least)
SERIES_VALUES = 1 << 16


def singular_series(n, q_max: int):
    """Partial sum over q <= q_max of |mu(q)| c_q(n) / phi(q)^2 at each n of an
    array (a float for a scalar n)."""
    ns = np.asarray(n, dtype=np.int64)
    if ns.min(initial=2) < 2 or q_max < 1:
        raise DomainError("need n >= 2 and q_max >= 1")
    return _ascending_sum(np.flatnonzero(mu_phi_table(q_max)[0]), ns)


def _ascending_sum(qs: np.ndarray, n):
    """Sum of c_q(n) / phi(q)^2 over the qs, added left to right in their order
    (np.add.accumulate does; np.sum adds pairwise and moves the last bits), at
    each n of an array (a float for a scalar n), one (n x q) block at a time."""
    ns = np.asarray(n, dtype=np.int64)
    phi = mu_phi_table(int(qs.max()))[1]
    flat, out = ns.ravel(), np.empty(ns.size)
    qs = qs[None, :]  # a row, so that a block of one n reuses the temporaries of ramanujan_sum
    rows = max(1, SERIES_VALUES // qs.size)
    for b in range(0, len(flat), rows):
        # terms are dropped before the next block's are made
        terms = ramanujan_sum(qs, flat[b : b + rows, None]) / phi[qs] ** 2
        out[b : b + rows] = np.add.accumulate(terms, axis=1)[:, -1]
        del terms
    return float(out[0]) if ns.ndim == 0 else out.reshape(ns.shape)


def singular_series_product(n, prime_bound: int):
    """Euler product over p <= prime_bound of (1 + c_p(n) / (p-1)^2) at each n
    of an array (a float for a scalar n).

    c_p(n) is p-1 when p | n and -1 otherwise, so the product is
    2 prod_{odd p} (1 - (p-1)^-2) prod_{odd p | n} (p-1)/(p-2) for even n and 0
    for odd n (the p = 2 factor).  The first product is taken once per call,
    and each n tests only the odd primes up to min(prime_bound, n), a block of
    n at a time.  The partial sums of `singular_series` converge to this
    product as the same primes are exhausted.
    """
    ns = np.asarray(n, dtype=np.int64)
    if ns.min(initial=2) < 2 or prime_bound < 2:
        raise DomainError("need n >= 2 and prime_bound >= 2")
    odd = cached_primes(prime_bound)[1:]  # prime_bound >= 2, so the primes start at 2
    flat = ns.ravel()
    # the p = 2 factor 1 + c_2(n) is 2 for even n and 0 for odd n
    out = np.where(flat % 2 == 0, 2.0, 0.0)
    out *= np.prod(1.0 - 1.0 / (odd - 1.0) ** 2)
    odd = odd[: np.searchsorted(odd, flat.max(initial=0), side="right")]
    ratios = (odd - 1.0) / (odd - 2.0)
    rows = max(1, SERIES_VALUES // max(1, len(odd)))
    for b in range(0, len(flat), rows):
        out[b : b + rows] *= np.where(flat[b : b + rows, None] % odd == 0, ratios, 1.0).prod(axis=1)
    return float(out[0]) if ns.ndim == 0 else out.reshape(ns.shape)


# -- pipeline configuration ------------------------------------------------


A_POWER = 1.0  # A of Q = (log X)^A and of theta_target = (log Y)^-A
EPS = 0.1  # eps of H = Y^{1/9 + 2 eps}


def pipeline_working_set(config: PipelineConfig) -> int:
    """Values a pipeline run holds at once: the base primes up to sqrt(X), two
    dense blocks of the a*a stream (or a segment's points and what its rows
    hold, `arithfn.rows_values`), and at most ten windows of Y + H values (nu,
    omega, T, T+, a on the step preimages and on omega's window, and the
    differences of one step); the middle window of a*a is at most 2(H + 1)."""
    return math.isqrt(config.x) + max(2 * PIPELINE_SEGMENT, rows_values(config.h)) + 10 * (config.y + config.h)


def pipeline_bytes(config: PipelineConfig) -> int:
    """Bytes a pipeline run holds at once: VALUE_BYTES per value of
    pipeline_working_set and the transform of the widest chunk any sum can
    take, against the chunk and H more values: `arithfn.chunk_length(H)`
    integers, or the whole shorter factor where that is less, at most Y values
    (the steps, omega*T) or PIPELINE_SEGMENT (an a*a segment)."""
    chunk = min(chunk_length(config.h), max(config.y, PIPELINE_SEGMENT))
    return VALUE_BYTES * pipeline_working_set(config) + convolve_valid_bytes(chunk + config.h, chunk)


@dataclass(frozen=True)
class PipelineConfig:
    """Desk-scale parameters of the minorant-transfer pipeline.

    The asymptotic shape Y = X^{21/40+eps}, H = Y^{1/9+2eps}, kappa = Y / log Y
    (and Q = (log X)^A, theta_target = (log Y)^-A at A = A_POWER) degenerates
    at desk sizes.  Each of Y, H and kappa left None is derived here, from X
    and the resolved Y, with the floors Y >= 10^3 and H >= 64 at eps = EPS;
    Q is always given.  `to_dict` reports theta_target and the un-floored
    values (`ideal`) next to the fields.
    """

    x: int
    big_q: int
    c_nu: float = 1.0
    y: Optional[int] = None
    h: Optional[int] = None
    kappa: Optional[float] = None

    def __post_init__(self):
        # X^{21/40}, Y^{1/9 + 2 eps} and Y / log Y are real and finite only for
        # X, Y > 1; whatever fails here fails 2 < H < Y < X as well
        if self.x < 5 or (self.y is not None and self.y < 4):
            raise DomainError("need 2 < H < Y < X")
        # the dataclass is frozen, so the derived values are set through object
        if self.y is None:
            object.__setattr__(self, "y", max(1000, round(self.x ** (21.0 / 40.0))))
        if self.h is None:
            object.__setattr__(self, "h", max(64, round(self.y ** (1.0 / 9.0 + 2 * EPS))))
        if self.kappa is None:
            object.__setattr__(self, "kappa", self.y / math.log(self.y))
        if not (2 < self.h < self.y < self.x):
            raise DomainError("need 2 < H < Y < X")
        if 3 * self.y > self.x + 1:
            raise DomainError(
                f"omega's window (X - 3Y, X - Y] starts below 0: 3Y = {3 * self.y} > X + 1 = {self.x + 1}"
            )
        if self.big_q < 1 or not self.kappa > 0 or not self.c_nu >= 0:  # nan fails too
            raise DomainError("need Q >= 1, kappa > 0, nonnegative densities")
        require_sift(self.big_q)  # T+ sifts to z = Q
        require_memory(f"a pipeline run at X = {self.x}, Y = {self.y}, H = {self.h}", pipeline_bytes(self))

    @property
    def nu_window(self) -> tuple[int, int]:
        return (self.y, 2 * self.y)

    @property
    def omega_window(self) -> tuple[int, int]:
        return (self.x - 3 * self.y, self.x - self.y)

    def to_dict(self) -> dict:
        return {
            "x": self.x, "h": self.h, "y": self.y, "big_q": self.big_q,
            "a_power": A_POWER, "c_nu": self.c_nu,
            "kappa": self.kappa, "theta_target": math.log(self.y) ** (-A_POWER),
            "ideal": {"y": self.x ** (21.0 / 40.0), "h": self.y ** (1.0 / 9.0 + 2 * EPS),
                      "big_q": math.log(self.x) ** A_POWER},
        }


PRESETS = {
    "desk-small": PipelineConfig(200_000, big_q=10),
    "desk-medium": PipelineConfig(1_000_000, big_q=10),
}


# -- pipeline --------------------------------------------------------------


# a(start, stop) is (m, a(m)) at the ascending m in [start, stop) with a(m) != 0, like ArithFn.points
BlockSource = Callable[[int, int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class PipelineReport:
    """Counts and diagnostics from one pipeline run over n in [X-H, X]."""

    config: PipelineConfig
    exceptions_step2: int  # |a*nu - a*T+| > kappa
    exceptions_step4: int  # |omega*T+ - omega*T| > kappa
    final_failures: int  # even n with a*a(n) < omega*T(n) - 2 kappa
    minorization_violations: int  # nu > a or omega > a on their windows
    step_positivity_violations: int  # a*T+ < omega*T+ (must be 0)
    even_count: int
    odd_count: int
    odd_final_failures: int
    segments: int  # segments of [0, m0) that a*a streamed
    values_streamed: int  # values of a the a*a stream read
    working_set: int  # pipeline_working_set(config), in values
    rows: tuple = field(repr=False)  # (n, a*a(n), omega*T(n), verdict)

    @property
    def final_failure_fraction(self) -> float:
        return self.final_failures / self.even_count if self.even_count else 0.0

    def summary(self) -> dict:
        """The counts, the config and final_failure_fraction; not the stream's figures or the rows."""
        skip = ("config", "segments", "values_streamed", "working_set", "rows")
        return {**{f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip},
                "config": self.config.to_dict(), "final_failure_fraction": self.final_failure_fraction}


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


def run_pipeline(
    config: PipelineConfig,
    nu: ArithFn,
    omega: ArithFn,
    a: BlockSource,
    t_nu: Optional[ArithFn] = None,
    t_nu_plus: Optional[ArithFn] = None,
) -> PipelineReport:
    """Evaluate the whole transfer chain by windowed convolution on [X-H, X].

    nu must live on (Y, 2Y] and omega on (X-3Y, X-Y]; a must be nonnegative and
    dominate both.  a is a block source, such as `prime_weights` or a bound
    f.points.  t_nu / t_nu_plus default to the models built from the config
    (Lambda_Q scaled by c_nu, and the rescaled untruncated sieve at z = Q).

    a is read on nu's and omega's windows, on the m that step 2 and the
    positivity step reach, and by the a*a stream.  a*a splits at
    m0 = ceil((X-H)/2): each segment [s, s + PIPELINE_SEGMENT) of [0, m0) meets
    its mirror near X through `arithfn.add_convolution`, as rows (each point p
    of the segment against the H+1 values of a on [X-H-p, X-p]) or as dense
    chunks, whichever costs less; the sum is doubled, and one window
    [m0, X - m0] holds the rest.  The stream reads X + 1 + segments * H values
    (`values_streamed`).  Every read of a is checked nonnegative and its points
    ascending inside the range read, raising ContractError.
    """
    _require_support(nu, config.nu_window, "nu")
    _require_support(omega, config.omega_window, "omega")

    if t_nu is None:
        t_nu = model_t_nu(config.y, config.big_q, config.c_nu)
    if t_nu_plus is None:
        t_nu_plus = model_t_nu_plus(config.y, config.big_q, config.c_nu)
    if np.min(t_nu_plus.values, initial=0) < 0:
        raise ContractError("t_nu_plus must be nonnegative")

    values_read = 0

    def read(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal values_read
        m, values = a(start, stop)
        if len(m) and (m[0] < start or m[-1] >= stop or np.any(m[1:] <= m[:-1])):
            raise ContractError(f"a must give ascending points inside [{start}, {stop})")
        if np.min(values, initial=0) < 0:
            raise ContractError("a must be nonnegative")
        values_read += stop - start
        return m, values

    def read_dense(start: int, stop: int) -> np.ndarray:
        return dense(read(start, stop), start, stop)

    # nu <= a and omega <= a on their windows; off them both are 0 <= a
    minorization = int(np.sum(nu.values > read_dense(nu.support_start, nu.support_stop) + 1e-12))
    minorization += int(np.sum(omega.values > read_dense(omega.support_start, omega.support_stop) + 1e-12))

    kappa = config.kappa
    lo, hi = config.x - config.h, config.x
    ns = np.arange(lo, hi + 1, dtype=np.int64)

    # a on the m that step 2 and the positivity step read, one cut for both
    nu_gap = subtract(nu, t_nu_plus)
    step_cut, positivity_cut = window_preimage(nu_gap, lo, hi), window_preimage(t_nu_plus, lo, hi)
    start = max(min(step_cut[0], positivity_cut[0]), 0)
    stop = max(step_cut[1], positivity_cut[1])
    a_near = ArithFn(start, read_dense(start, stop))

    # approximation steps, computed on the difference functions so that a
    # collapsed chain (nu = T = T+) is exactly zero
    exceptions_step2 = int(np.sum(np.abs(convolve_window(a_near, nu_gap, lo, hi)) > kappa))
    exceptions_step4 = int(np.sum(np.abs(convolve_window(omega, subtract(t_nu_plus, t_nu), lo, hi)) > kappa))

    # pointwise step a*T+ >= omega*T+, as (a - omega) * T+ by rows over the points of
    # a - omega whatever the cost rule says: none where a = omega (as at the desk inputs).
    # With omega <= a every product is nonnegative and no sum of them reads negative, so
    # "exactly zero violations" needs no tolerance; the transform gives no such guarantee
    # (at desk-medium with H = 1024 it read 64 exact zeros as negative).  A genuine
    # minorization breach shows up here and in the minorization count.
    positivity = np.zeros(hi - lo + 1)
    add_rows(positivity, subtract(a_near, omega).points(*positivity_cut),
             t_nu_plus.points(t_nu_plus.support_start, t_nu_plus.support_stop), lo, hi)
    positivity_violations = int(np.sum(positivity < 0))

    # a*a(n) = 2 sum_{m < m0} a(m) a(n-m) + sum_{m0 <= m <= n-m0} a(m) a(n-m) for
    # n >= lo >= 2 m0 - 1.  Each segment [s, stop) of [0, m0) meets its mirrored block
    # [lo - stop + 1, hi - s], by rows over the segment's points or densely; the last
    # sum is one window [m0, hi - m0] of at most H + 1 values.
    m0 = -(-lo // 2)
    ab = np.zeros(hi - lo + 1)
    before_stream = values_read
    for s in range(0, m0, PIPELINE_SEGMENT):
        stop = min(s + PIPELINE_SEGMENT, m0)
        base = lo - stop + 1
        add_convolution(ab, (read(s, stop), s, stop), (read(base, hi - s + 1), base, hi - s + 1), lo, hi)
    ab *= 2
    middle = ArithFn(m0, read_dense(m0, hi - m0 + 1))
    ab += convolve_window(middle, middle, lo, hi)
    om = convolve_window(omega, t_nu, lo, hi)

    even = ns % 2 == 0
    fails = ab < om - 2 * kappa
    final_failures = int(np.sum(fails & even))
    odd_final_failures = int(np.sum(fails & ~even))

    verdicts = np.where(even, np.where(fails, "fail", "ok"), np.where(fails, "odd-fail", "odd"))
    rows = tuple(zip(ns.tolist(), ab.tolist(), om.tolist(), verdicts.tolist()))

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
        segments=len(range(0, m0, PIPELINE_SEGMENT)),
        values_streamed=values_read - before_stream,
        working_set=pipeline_working_set(config),
        rows=rows,
    )


def restricted_prime_fn(window: tuple[int, int]) -> ArithFn:
    """The log-weighted prime function cut to the integers (lo, hi]; only that
    window is sieved."""
    lo, hi = window
    return ArithFn(lo + 1, dense(prime_weights(lo + 1, hi + 1), lo + 1, hi + 1))


def desk_pipeline_inputs(config: PipelineConfig) -> tuple[ArithFn, ArithFn, BlockSource]:
    """(nu, omega, a) for the desk run: the trivial minorants nu = Lambda'
    restricted to (Y, 2Y] and omega = Lambda' restricted to (X-3Y, X-Y], each
    sieved on its window only, and a = `prime_weights`, the block source of
    Lambda', whose points are the primes."""
    nu = restricted_prime_fn(config.nu_window)
    omega = restricted_prime_fn(config.omega_window)
    return nu, omega, prime_weights
