"""Short-interval Fourier closeness machinery.

The quantity of interest is

    sup_alpha  integral_{-1/H}^{1/H} |(f-g)-hat (alpha + beta)|^2 d beta,

estimated two ways and reported together:

  * the Farey/Gallagher route: dissect the circle into mediant arcs of order
    floor(sqrt(H)); on the arc centered at r/q the integral is controlled by
    the window functional

        (1/(q^2 H)) * sum_t | sum_{t - w < n <= t} (f-g)(n) e(r n / q) |^2,

    with window width w = floor(q sqrt(H) / 3) and t over every integer whose
    window meets the support;

  * a direct spot check: |(f-g)-hat|^2 on a dense FFT grid, integrated over
    [alpha - 1/H, alpha + 1/H] for alpha sampled inside the widest arcs.

The first is an upper bound up to the pinned Gallagher constant; the second is
a lower-bound probe.  Regressions in either are visible in the report, which
also says which of the two set the estimate.

Both read one power spectrum of the real d = f - g.  A pair n, n + h lies in
w - |h| of the windows when |h| < w and in none otherwise, so with the
autocorrelation A(h) = sum_n d(n) d(n + h) the window functional is exactly

    sum_t |sum_{t - w < n <= t} d(n) e(r n / q)|^2
        = w A(0) + 2 sum_{h=1}^{w-1} (w - h) A(h) cos(2 pi r h / q).

A(h) is the inverse transform of |d-hat|^2 on a grid of M points, free of
wrap-around for h <= M - span.  The spot check's grid has M >= OVERSAMPLE
span = 8 span points, its bins 4j are a grid of M/4 >= 2 span points, and
w <= H/3 < span/6; so A(h), h < w, is read off those bins and each arc costs
O(w).  No array of M or M/2 points is held: spectrum_classes gives the grid
one residue class k = c mod r at a time, each a transform of L = M/r points:
r = 16 for spans from 8 to 2^17, and L = CLASS_POINTS = 2^16 beyond.  Each
class c = 0 mod 4 adds its share of A(h), read off the class's inverse
transform at h mod L, as w may pass L/2 once L is capped; and every class
adds its bins in each sampled window of the spot check, off its running sums
(class r - c is class c reversed and reads the same sums).  Capped or not,
every class is folded from views of d by the one path of spectrum_classes.

The Gallagher trials read their autocorrelation off one real transform of
arithfn.transform_size(2 span - 1) points, the rule that sizes every
convolution of the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from .arithfn import TWO_PI, ArithFn, l2_norm_sq, spectrum_classes, subtract, transform_size
from .errors import DomainError, require_memory
from .models import SieveSystem, beta_sieve_weights, lambda_q_short_sum, model_t_nu, model_t_nu_plus, sieve_short_sum

# grid points per 1/span of the spectrum of closeness_integral, whose every 4th
# point is a wrap-free grid for the autocorrelation, and of the trapezoid rule
# of gallagher_lhs, which reads a spectrum of only about 2 points per 1/span
OVERSAMPLE = 8
SPOT_ARCS = 16  # the spot check probes this many of the widest Farey arcs
SPOT_SAMPLES_PER_ARC = 128  # at a stride of about 1/128 of each arc's width
# bytes per integer of the span and per grid point that `verify closeness`
# holds (a fit to Y = 1.5*10^6 and 2*10^6 gave 49 and 3.2), per point of the
# span and of the spectrum of a Gallagher trial (70 and 27 at spans of
# 1.1*10^6 and 2*10^6), and per point of a short-sum sweep (400)
SPAN_BYTES, GRID_BYTES, DRAW_BYTES, TRIAL_SPECTRUM_BYTES, POINT_BYTES = 64, 4, 96, 32, 512
GALLAGHER_BLOCK = 20_000  # values of Gallagher trials drawn and transformed at once (one trial at the least)


def spectrum_size(length: int) -> int:
    """M, the smallest power of two >= max(OVERSAMPLE * length, 64)."""
    return 1 << (max(length * OVERSAMPLE, 64) - 1).bit_length()


# -- Farey dissection ------------------------------------------------------


@dataclass(frozen=True)
class FareyArc:
    """Mediant-bounded arc around the reduced fraction r/q.

    Arcs are half-open [lo, hi) and tile the circle; the arc centered at 0/1
    wraps, with lo < 0.  Every arc sits inside the interval of radius
    1/(q * order) around its center, and any point of the circle lies in at
    most two of those open containment intervals.
    """

    q: int
    r: int
    lo: float
    hi: float
    order: int

    @property
    def center(self) -> float:
        return self.r / self.q

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _farey_fractions(order: int) -> list[tuple[int, int]]:
    """The Farey sequence of the given order on [0, 1], ascending."""
    out = [(0, 1), (1, order)]
    while out[-1] != (1, 1):
        (a, b), (c, d) = out[-2], out[-1]
        k = (order + b) // d
        out.append((k * c - a, k * d - b))
    return out


def farey_dissection(order: int) -> list[FareyArc]:
    """Mediant arcs around every reduced fraction of denominator <= order.

    The circle convention is used: 0/1 and 1/1 are the same center, so the
    dissection has sum_{q <= order} phi(q) arcs covering [0, 1) exactly once.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    fracs = _farey_fractions(order)
    arcs = []
    for i, (r, q) in enumerate(fracs[:-1]):  # drop 1/1: same circle point as 0/1
        if i == 0:
            rp, qp = fracs[-2]
            lo = (rp - qp + r) / (qp + q)  # mediant with the left neighbour shifted by -1
        else:
            rp, qp = fracs[i - 1]
            lo = (rp + r) / (qp + q)
        rn, qn = fracs[i + 1]
        hi = (r + rn) / (q + qn)
        arcs.append(FareyArc(q=q, r=r, lo=lo, hi=hi, order=order))
    return arcs


# -- Gallagher's inequality ------------------------------------------------


def _window_sums(values: np.ndarray, width: int) -> np.ndarray:
    """S[..., j] = sum of values[..., j-width+1 .. j], over every window touching the support.

    Output index j corresponds to t = support_start + j for j in
    0 .. span+width-1, i.e. all t with (t-width, t] intersecting the window.
    """
    csum = np.concatenate([values, np.zeros(values.shape[:-1] + (width,))], axis=-1)
    np.cumsum(csum, axis=-1, out=csum)
    out = csum.copy()
    out[..., width:] -= csum[..., :-width]
    return out


def require_gallagher(span: int, delta: float, trials: int) -> None:
    """A block of Gallagher trials on span points at Delta, checked before its data
    exists: 2 < Delta < span/2, then the bytes of exactly that many trials."""
    if not (2 < delta < span / 2):
        raise DomainError("need 2 < Delta < span/2")
    require_memory(f"a block of {trials} Gallagher trials over a span of {span}",
                   trials * (DRAW_BYTES * span + TRIAL_SPECTRUM_BYTES * transform_size(2 * span - 1)))


def gallagher_rhs(values: np.ndarray, delta: float) -> np.ndarray:
    """Delta^{-2} sum_t |sum_{t - floor(Delta/2) < n <= t} f(n)|^2 for a block of trials,
    whose values lie on the last axis, one value per trial; the sum is translation
    invariant, so no start is needed."""
    require_gallagher(values.shape[-1], delta, math.prod(values.shape[:-1]))
    sums = _window_sums(values, int(delta / 2))
    return np.sum(np.square(sums, out=sums), axis=-1) / delta**2


def gallagher_lhs(values: np.ndarray, delta: float) -> np.ndarray:
    """integral_{-1/Delta}^{1/Delta} |f-hat(beta)|^2 d beta by trapezoid quadrature for a
    block of trials, whose values lie on the last axis, one value per trial.

    The rule is the trapezoid on the grid k/M, M = spectrum_size(span)
    (8 samples per 1/span), over |k| <= k_hi = floor(M/Delta), plus the slivers
    between the outermost grid points and +-1/Delta.  It is linear in |f-hat|^2,
    so it is read as sum_h c(h) A(h) off the autocorrelation A of f (see
    _gallagher_weights), through one real transform of transform_size(2 span - 1)
    points instead of M, long enough that the autocorrelation does not wrap; the
    block is transformed all at once.
    """
    span = values.shape[-1]
    require_gallagher(span, delta, math.prod(values.shape[:-1]))
    weights = _gallagher_weights(span, float(delta))
    spec = np.abs(np.fft.rfft(values, transform_size(2 * span - 1), axis=-1))
    spec **= 2
    # each interior bin of the half spectrum stands for bins k and n - k; einsum, not
    # np.dot, as OpenBLAS's threads cost more than a sum of this length
    return 2.0 * np.einsum("...i,i->...", spec, weights) - spec[..., 0] * weights[0] - spec[..., -1] * weights[-1]


@lru_cache(maxsize=8)
def _gallagher_weights(span: int, delta: float) -> np.ndarray:
    """The trapezoid rule of gallagher_lhs as weights on the half of an n-point spectrum.

    |f-hat(beta)|^2 = sum_{|h| < span} A(h) e(beta h), and summing e(k h / M)
    over |k| <= k_hi gives the Dirichlet kernel D(h), so the rule is
    sum_h c(h) A(h) with c(0) = 2 k_hi / M + 2 sliver and, for h != 0,

        c(h) = (D(h) - cos(2 pi h k_hi / M)) / M + 2 sliver cos(2 pi h k_hi / M),
        D(h) = sin((2 k_hi + 1) pi h / M) / sin(pi h / M).

    On a grid of n >= 2 span - 1 points A(h) is the inverse transform of the
    spectrum free of wrap-around, so sum_h c(h) A(h) = (1/n) sum_k |f-hat(k/n)|^2 C(k)
    with C the transform of c laid on that grid (c(-h) at n - h).  C is real
    and even; the weights are C/n on k = 0..n/2, n = transform_size(2 span - 1),
    built once per (span, Delta).
    """
    size = spectrum_size(span)
    k_hi = math.floor(size / delta)  # >= 16, as M >= 8 span and Delta < span/2
    sliver = 1.0 / delta - k_hi / size
    x = np.pi * np.arange(1, span) / size
    edge = np.cos(2 * k_hi * x)
    c = np.empty(span)
    c[0] = 2 * k_hi / size + 2 * sliver
    c[1:] = (np.sin((2 * k_hi + 1) * x) / np.sin(x) - edge) / size + 2 * sliver * edge
    n = transform_size(2 * span - 1)
    circ = np.zeros(n)
    circ[:span] = c
    circ[n - span + 1 :] = c[:0:-1]  # c(-h) = c(h) at grid point n - h
    weights = np.fft.rfft(circ).real / n
    weights.setflags(write=False)
    return weights


# -- The closeness functional ----------------------------------------------


@dataclass(frozen=True)
class ClosenessReport:
    """Estimate of the short-interval closeness functional for a pair (f, g).

    farey_arc is the (q, r) of the arc that attains farey_bound; spot_alpha is
    the grid point that attains spot_estimate, folded into [0, 1/2] (None when
    every sample is 0): |d-hat|^2 is even, so alpha and 1 - alpha tie.
    """

    sup_estimate: float
    theta_effective: float
    farey_bound: float
    spot_estimate: float
    reference_norm: float
    h: float
    order: int
    grid_resolution: int
    per_arc: tuple = field(repr=False)
    farey_arc: tuple[int, int]
    spot_alpha: Optional[float]

    @property
    def decided_by(self) -> str:
        """"farey" when the Farey bound sets sup_estimate, "spot" when the spot probe does."""
        return "farey" if self.farey_bound >= self.spot_estimate else "spot"

    def decision(self) -> dict:
        """Which estimate set sup_estimate, where each one peaked, and their ratio."""
        return {
            "decided_by": self.decided_by,
            "farey_bound": self.farey_bound,
            "farey_arc": list(self.farey_arc),
            "spot_estimate": self.spot_estimate,
            "spot_alpha": self.spot_alpha,
            "farey_over_spot": self.farey_bound / self.spot_estimate if self.spot_estimate else None,
        }


def _arc_width(q: int, h: float) -> int:
    """w, the window width of the arc of denominator q."""
    return max(1, int(q * math.sqrt(h) / 3.0))


def _arc_functional(acf: np.ndarray, arc: FareyArc, h: float) -> float:
    w = _arc_width(arc.q, h)
    lags = np.arange(1, w)
    cos = np.cos(TWO_PI * (arc.r * lags % arc.q) / arc.q)
    return float(w * acf[0] + 2.0 * np.dot((w - lags) * acf[1:w], cos)) / (arc.q**2 * h)


def _spot_bins(size: int, arcs: list[FareyArc]) -> np.ndarray:
    """The bins the spot check samples: about SPOT_SAMPLES_PER_ARC in each of the SPOT_ARCS widest arcs."""
    bins = []
    for arc in sorted(arcs, key=lambda a: a.width, reverse=True)[:SPOT_ARCS]:
        k_lo, k_hi = math.ceil(arc.lo * size), math.floor(arc.hi * size)
        bins.append(np.arange(k_lo, k_hi + 1, max(1, (k_hi - k_lo) // SPOT_SAMPLES_PER_ARC)))
    return np.concatenate(bins)


def _periodic_read(half: np.ndarray, length: int, lags: int) -> np.ndarray:
    """v-hat(h) = sum_t v[t] e(-t h / L) for 0 <= h < lags, a fresh array, off
    half = rfft(v) of a real v of L = length points: v-hat is L-periodic, and
    v-hat(h) = conj(v-hat(L - h)) reads the h mod L past L/2."""
    h = np.arange(lags) % length
    out = half[np.minimum(h, length - h)]
    np.conjugate(out, out=out, where=h > length // 2)
    return out


def _class_window_sums(cum: np.ndarray, c: int, r: int, lo: np.ndarray, hi: np.ndarray, mirror: bool) -> np.ndarray:
    """Sums over the bins k = c mod r of each window [lo, hi] (lo > hi wraps past M - 1), off the running
    sums cum[t] = v[0] + ... + v[t] of class c, or with mirror of the class that is class c reversed."""
    length = len(cum)
    t0, t1 = (lo - c + r - 1) // r, (hi - c + r) // r  # the t of the window are t0 <= t < t1
    if mirror:
        t0, t1 = length - t1, length - t0

    def before(t):  # v[0] + ... + v[t - 1]
        return np.where(t > 0, cum[t - 1], 0.0)

    return before(t1) - before(t0) + np.where(lo > hi, cum[-1], 0.0)


def closeness_bytes(span: int) -> int:
    """Bytes a `verify closeness` run over span integers holds at once:
    SPAN_BYTES per integer and GRID_BYTES per point of its spectrum grid."""
    return SPAN_BYTES * span + GRID_BYTES * spectrum_size(span)


def closeness_grid(span: int, h: float) -> int:
    """M, the points of the spectrum grid closeness_integral reads for f - g of
    the given span at H.  closeness_bytes(span) beyond the cap raises
    CapacityError, H < 1 or a span of at most 2H DomainError, so a caller can
    check the request before it builds f and g."""
    require_memory(f"a closeness run over a span of {span}", closeness_bytes(span))
    if h < 1:
        raise DomainError("need H >= 1 so the dissection order is at least 1")
    if span <= 2 * h:
        raise DomainError("supports must span more than 2H")
    return spectrum_size(span)


def closeness_models(y: int, h_exponent: float, big_q: int) -> tuple[float, ArithFn, ArithFn]:
    """H = Y^h_exponent and the models T and T+ on (Y, 2Y] that `verify closeness`
    sets against the primes there, with the request checked before they are
    sieved: the run's bytes against the cap, then Q, Y and z = Q as the
    models are built, then H (one beyond the float range as infinite)."""
    require_memory(f"verify closeness at Y = {y}", closeness_bytes(y))
    t_nu, t_plus = model_t_nu(y, big_q), model_t_nu_plus(y, big_q)
    try:
        h = y ** h_exponent
    except OverflowError:
        h = math.inf
    closeness_grid(y, h)
    return h, t_nu, t_plus


def closeness_integral(
    f: ArithFn,
    g: ArithFn,
    h: float,
    reference_norm: Optional[float] = None,
) -> ClosenessReport:
    """Estimate sup_alpha of the windowed L^2 closeness of f and g (see module docstring)."""
    diff = subtract(f, g)
    size = closeness_grid(len(diff), h)
    order = int(math.isqrt(int(h)))
    arcs = farey_dissection(order)
    ks = _spot_bins(size, arcs)
    radius = min(int(size / h), (size - 1) // 2)  # in bins
    lo, hi = (ks - radius) % size, (ks + radius) % size  # inclusive bin range, circular
    totals = np.zeros(len(ks))
    acf = np.zeros(_arc_width(order, h))
    turn = TWO_PI * np.arange(len(acf)) / size
    for c, v in spectrum_classes(diff.values, size):
        r = size // len(v)
        mirrored = 0 < c < r // 2  # class r - c is v reversed
        if c % 4 == 0:
            # A(h) = (4/M) sum_j |d-hat(4j/M)|^2 e(4jh/M) (module docstring), of which
            # the bins r t + c carry (4/M) Re[e(ch/M) conj(v-hat(h))]; v-hat is L-periodic
            vhat = _periodic_read(np.fft.rfft(v), len(v), len(acf))
            acf += (4.0 / size) * (1 + mirrored) * (np.cos(c * turn) * vhat.real + np.sin(c * turn) * vhat.imag)
        np.cumsum(v, out=v)
        totals += _class_window_sums(v, c, r, lo, hi, mirror=False)
        if mirrored:
            totals += _class_window_sums(v, r - c, r, lo, hi, mirror=True)
    values = totals / size
    best = int(np.argmax(values))  # the first of equal maxima
    spot, k = max(float(values[best]), 0.0), int(ks[best])
    spot_alpha = min(k % size, -k % size) / size if spot > 0.0 else None  # folded into [0, 1/2]

    contribs = [_arc_functional(acf, arc, h) for arc in arcs]
    per_arc = tuple(zip(arcs, contribs))
    farey_bound = max(contribs)
    best_arc = arcs[contribs.index(farey_bound)]

    sup_estimate = max(farey_bound, spot)
    ref = reference_norm if reference_norm is not None else (l2_norm_sq(f) or 1.0)
    return ClosenessReport(
        sup_estimate=sup_estimate,
        theta_effective=sup_estimate / ref,
        farey_bound=farey_bound,
        spot_estimate=spot,
        reference_norm=ref,
        h=float(h),
        order=order,
        grid_resolution=size,
        per_arc=per_arc,
        farey_arc=(best_arc.q, best_arc.r),
        spot_alpha=spot_alpha,
    )


# -- short-sum verification sweeps -----------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """A short-sum sweep: the parameter columns of its points, in the order of its
    tables, beside the arrays of the model's actual sum, predicted main term and
    error budget at each point."""

    columns: dict
    actual: np.ndarray
    predicted: np.ndarray
    budget: np.ndarray

    @property
    def error(self) -> np.ndarray:
        gap = self.actual - self.predicted
        return np.hypot(gap.real, gap.imag)  # |gap| as Python's abs(complex) rounds it; np.abs may not

    @property
    def ratio(self) -> np.ndarray:
        return self.error / self.budget

    @property
    def max_ratio(self) -> float:
        return float(self.ratio.max())

    def summary(self) -> dict:
        """The count, the max ratio and the parameters of the first point that attains it (twin
        twists r and q' - r tie exactly, and the sweeps list the smaller r first)."""
        worst = int(np.argmax(self.ratio))
        return {"points": len(self.budget), "max_ratio": self.max_ratio,
                "worst_params": {key: column[worst] for key, column in self.columns.items()}}


def verify_short_sums(short_sum: Callable, tables: Iterable[tuple[object, dict]]) -> SweepReport:
    """Run a short-sum check over column tables (model, columns), one call per table:
    short_sum(t, h_prime, model, r=, q_twist=) takes the arrays of the columns t,
    h_prime, r and q_twist and gives the arrays (actual, predicted, budget).  The
    report joins the tables' columns and results in the order of the tables."""
    tables = list(tables)
    results = [short_sum(np.array(columns["t"], dtype=object), np.array(columns["h_prime"], dtype=np.float64),
                         model, r=np.array(columns["r"]), q_twist=np.array(columns["q_twist"]))
               for model, columns in tables]
    columns = {key: [value for _, table in tables for value in table[key]] for key in tables[0][1]}
    return SweepReport(columns, *(np.concatenate(parts) for parts in zip(*results)))


# -- default sweep grids (deterministic) -----------------------------------


def _sweep(scale: str, h_primes: tuple[float, float, float], model, twists: list[tuple[int, int]],
           fields: dict) -> tuple[object, dict]:
    """The column table (model, {"t", "h_prime", "r", "q_twist", **fields}) of each twist
    (q', r) at t = 100003, 500009 and the first two H' of h_primes at scale small, at
    t = 1000003 and all three H' as well at scale medium; twists outermost, then t,
    then H'; each field is a column of one value."""
    if scale not in ("small", "medium"):
        raise DomainError(f"unknown sweep scale {scale!r}")
    n = 2 if scale == "small" else 3
    points = list(itertools.product(twists, (100_003, 500_009, 1_000_003)[:n], h_primes[:n]))
    columns = {"t": [t for _, t, _ in points], "h_prime": [h for _, _, h in points],
               "r": [r for (_, r), _, _ in points], "q_twist": [q for (q, _), _, _ in points]}
    return model, {**columns, **{key: [value] * len(points) for key, value in fields.items()}}


def default_lambda_q_sweep(big_q: int = 10, scale: str = "small") -> tuple[Callable, list[tuple[int, dict]]]:
    """lambda_q_short_sum and one column table of Q: >= 100 points exercising both twist branches of
    its check.  At most 3 twists per q <= Q and 8 beyond, each at up to 9 points, are met against the cap first."""
    require_memory(f"the short-sum sweep at Q = {big_q}", POINT_BYTES * 9 * (3 * big_q + 8))
    twists = [(q, r) for q in range(1, big_q + 1)
              for r in ([0] if q == 1 else sorted({1, q - 1, _smallest_coprime(q, 2)}))]
    twists += [(q, r) for q in (big_q + 1, big_q + 3, 2 * big_q + 3, 97) for r in (1, q - 1)]
    return lambda_q_short_sum, [_sweep(scale, (997.0, 10_000.0, 50_000.0), big_q, twists, {"big_q": big_q})]


def _smallest_coprime(q: int, start: int) -> int:
    c = start
    while math.gcd(c, q) != 1:
        c += 1
    return c if c < q else 1


def default_sieve_sweep(scale: str = "small") -> tuple[Callable, list[tuple[SieveSystem, dict]]]:
    """sieve_short_sum and a column table per system: systems in the regime log D / log z >= beta + 1
    plus both twist branches; each table names its system's beta, level and sift."""
    systems = [
        beta_sieve_weights(10_000.0, 10.0, beta=3),  # untruncated at this level
        beta_sieve_weights(10_000.0, 12.0, beta=2),
        beta_sieve_weights(3_000.0, 30.0, beta=1),  # genuinely truncated
    ]
    tables = []
    for sieve in systems:
        z = int(sieve.sift)
        small_q = [q for q in (1, 2, 3, 5, 7, 11, 13, 25) if q <= z]
        large_q = [q for q in (11, 13, 37, 101, 211) if q > z][:3]
        twists = [(q, r) for q in small_q + large_q for r in ([0] if q == 1 else sorted({1, q - 1}))]
        system = {"beta": sieve.beta, "level": sieve.level, "sift": sieve.sift}
        tables.append(_sweep(scale, (2_000.0, 10_000.0, 30_000.0), sieve, twists, system))
    return sieve_short_sum, tables
