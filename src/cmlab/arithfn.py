"""Finitely supported real arithmetic functions and their additive calculus.

An ArithFn stores a contiguous window of float64 values: index i holds
f(support_start + i), and f is identically zero outside the window.  Values are
immutable after construction, so every operation here is a pure function.

Window convention used across the package: "n in [t - w, t]" always means the
half-open integer window  t - floor(w) < n <= t.  This single convention keeps
short-interval sums, Gallagher windows and sieve windows aligned.

Every windowed convolution goes through one chooser, `add_convolution`, which
prices rows over the points of its first factor against dense chunks of the
shorter factor, each one transform, and takes the cheaper.  One rule,
`transform_size`, gives the length of every transform of a convolution or an
autocorrelation in the package: the least 2^k, 3 2^k or 5 2^k at or above
what it must hold.  The Fourier side is `spectrum_classes`, |x-hat|^2 on a
grid of M points one residue class at a time, each class a transform of at
most CLASS_POINTS points and the classes computed in blocks of at most
BLOCK_POINTS values; M and its cap belong to its caller, `closeness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapacityError, DomainError

SUPPORT_BOUND = 1 << 40  # guards convolution index arithmetic, not memory

TWO_PI = 2.0 * math.pi


def _coerce(values) -> np.ndarray:
    """values as a fresh float64 array: bool, integer and float input are cast."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DomainError("values must be one-dimensional")
    if arr.dtype.kind == "c":
        raise DomainError("values must be real")
    if arr.dtype.kind not in "biuf" and arr.size:
        raise DomainError(f"unsupported value dtype {arr.dtype}")
    return arr.astype(np.float64)


@dataclass(frozen=True, eq=False)
class ArithFn:
    """A finitely supported real function on the integers."""

    support_start: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.support_start < 0:
            raise DomainError("support_start must be >= 0")
        arr = _coerce(self.values)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.support_start + len(arr) > SUPPORT_BOUND:
            raise CapacityError("support exceeds the global index bound 2**40")

    # -- basic geometry ------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    @property
    def support_stop(self) -> int:
        """One past the last index of the window."""
        return self.support_start + len(self.values)

    def __call__(self, n: int) -> float:
        if self.support_start <= n < self.support_stop:
            return self.values[n - self.support_start].item()
        return 0.0

    # -- arithmetic on shared windows -------------------------------------

    def embed(self, start: int, stop: int) -> np.ndarray:
        """f on [start, stop) as a dense array, 0 outside the support; start may be negative."""
        if stop < start:
            raise DomainError("stop < start")
        out = np.zeros(stop - start)
        lo = max(start, self.support_start)
        hi = min(stop, self.support_stop)
        if lo < hi:
            out[lo - start : hi - start] = self.values[lo - self.support_start : hi - self.support_start]
        return out

    def points(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(m, f(m)) for the ascending m in [start, stop) with f(m) != 0; start may be negative."""
        if stop < start:
            raise DomainError("stop < start")
        lo = max(start, self.support_start)
        hi = max(lo, min(stop, self.support_stop))
        values = self.values[lo - self.support_start : hi - self.support_start]
        at = np.flatnonzero(values != 0)  # a mask first: 2.4x faster than on floats (numpy 2.4)
        return at + lo, values[at]


def dense(points: tuple[np.ndarray, np.ndarray], start: int, stop: int) -> np.ndarray:
    """The points (m, values), m ascending, that lie in [start, stop), as a dense
    array on [start, stop): their values themselves, uncopied, when they fill it."""
    m, values = points
    i, j = np.searchsorted(m, (start, stop))
    if j - i == stop - start:
        return np.asarray(values[i:j], dtype=np.float64)
    out = np.zeros(stop - start)
    out[m[i:j] - start] = values[i:j]
    return out


def subtract(f: ArithFn, g: ArithFn) -> ArithFn:
    """f - g on the union of the two windows."""
    start, stop = min(f.support_start, g.support_start), max(f.support_stop, g.support_stop)
    return ArithFn(start, f.embed(start, stop) - g.embed(start, stop))


# -- norms ---------------------------------------------------------------


def l2_norm_sq(f: ArithFn) -> float:
    return float(np.sum(f.values**2))


# -- convolution -----------------------------------------------------------

# bytes convolve_valid holds beyond its inputs per point of its transform: 33.7-35.1
# measured at 2^18 to 2^19 points, its output included (numpy 2.4.6, VmHWM)
TRANSFORM_BYTES = 36
# what a transform of size points costs per size * log2(size), in units of one row value
# that add_rows gathers.  Fitted on a 2-vCPU Xeon under cli.main's allocator policy, where
# the rows and the dense chunks of a pipeline's a*a segment met at prices of 3.6 to 5.3
# at X = 10^7 and 10^8 and H = 2000 to 8000; the transforms then took a power of two
# >= len(x) + len(y) - 1 points, and the price is not refit to transform_size yet
TRANSFORM_COST = 4
# integers of the first factor whose rows share one dense piece of ROW_SPAN + H values of
# the second (2^15 took a tenth less time at X = 3*10^6, with 0.13 MB more peak RSS)
ROW_SPAN = 1 << 14
ROW_VALUES = 1 << 15  # row values gathered at a time for one matrix product (at least one row)
# integers of the shorter factor that one convolve_valid of the dense path takes: at
# least this many, and at least 4(H+1), so that the H values of the other factor
# beyond the chunk stay a quarter of it at most
CHUNK = 1 << 16


def window_preimage(g: ArithFn, lo: int, hi: int) -> tuple[int, int]:
    """[start, stop): the m that (f*g)(n) reads from f for lo <= n <= hi.

    (f*g)(n) = sum_m f(m) g(n - m) sees only the m with n - m in g's support.
    """
    return lo - (g.support_stop - 1), hi - g.support_start + 1


def convolve_window(f: ArithFn, g: ArithFn, lo: int, hi: int) -> np.ndarray:
    """(f*g)(n) for the integers lo <= n <= hi only, as a dense float64 array:
    `add_convolution` of the points of f on `window_preimage(g, lo, hi)`, which
    the rows go over, and every integer of g's support, which the dense path
    reads uncopied.  n outside the support of f*g reads 0 on the rows, and 0
    up to the transform's rounding on the dense path."""
    if len(f) == 0 or len(g) == 0 or hi < lo:
        raise DomainError("convolve_window requires nonempty supports and lo <= hi")
    out = np.zeros(hi - lo + 1)
    cut, whole = window_preimage(g, lo, hi), (g.support_start, g.support_stop)
    add_convolution(out, (f.points(*cut), *cut), ((np.arange(*whole), g.values), *whole), lo, hi)
    return out


def add_convolution(out: np.ndarray, f: tuple, g: tuple, lo: int, hi: int) -> None:
    """out[n - lo] += (f*g)(n) for lo <= n <= hi, by rows or densely, whichever costs less.

    f and g are each (points, start, stop): the points (m, value), m ascending
    in [start, stop), of a function that is 0 off them.  The rows (`add_rows`)
    go over the points of f, so the caller puts the sparser factor first, at
    H+1 per point; a sum of nonnegative products never reads negative through
    them.  The dense path takes the shorter range in chunks of
    `chunk_length(H)` integers, each against the other factor on its preimage
    through convolve_valid, at the summed convolve_valid_cost of the chunks."""
    h, size = hi - lo, chunk_length(hi - lo)
    (short, start, stop), (other, *_) = (f, g) if f[2] - f[1] < g[2] - g[1] else (g, f)
    chunks = [(c, min(c + size, stop)) for c in range(start, stop, size)]
    if len(f[0][0]) * (h + 1) <= sum(convolve_valid_cost(e - c + h) for c, e in chunks):
        add_rows(out, f[0], g[0], lo, hi)
        return
    for c, e in chunks:  # the chunk [c, e) meets the other factor on [lo - e + 1, hi - c]
        out += convolve_valid(dense(other, lo - e + 1, hi - c + 1), dense(short, c, e))


def chunk_length(h: int) -> int:
    """Integers of the shorter factor that one chunk of the dense path takes, for H = h."""
    return max(CHUNK, 4 * (h + 1))


def add_rows(out: np.ndarray, f: tuple, g: tuple, lo: int, hi: int) -> None:
    """out[n - lo] += f(p) g(n - p) over the points p of f and the n in [lo, hi],
    f and g given as points (m, value), m ascending.  The p of each ROW_SPAN
    integers meet one dense piece of g, in which the row of p is its H + 1
    values on [lo - p, hi - p]: out += f(p) @ rows, ROW_VALUES values (or one
    row) gathered at a time.  The piece holds span + H values, span the
    integers the p reach, ROW_SPAN at most."""
    (p, fp), (q, gq) = f, g
    if len(p) == 0:
        return
    span = min(ROW_SPAN, int(p[-1] - p[0]) + 1)
    piece = np.zeros(span - 1 + len(out))  # zero again after each span
    rows = sliding_window_view(piece, len(out))
    step = max(1, ROW_VALUES // len(out))  # rows per product
    i = 0
    while i < len(p):
        first = int(p[i])
        j = int(np.searchsorted(p, first + ROW_SPAN))
        last = int(p[j - 1])
        k, end = np.searchsorted(q, (lo - last, hi - first + 1))
        at = q[k:end] - (lo - last)
        piece[at] = gq[k:end]
        for b in range(i, j, step):
            e = min(b + step, j)
            out += fp[b:e] @ rows[last - p[b:e]]
        piece[at] = 0
        i = j


def rows_values(h: int) -> int:
    """Values add_rows holds beyond its inputs for H = h, at most: its piece
    of ROW_SPAN + h and its gathered rows, ROW_VALUES or one row."""
    return ROW_SPAN + h + max(ROW_VALUES, h + 1)


def convolve_valid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The len(x) - len(y) + 1 values of x*y at which y lies wholly inside x
    (np.convolve's "valid" mode), for len(x) >= len(y) >= 1, through one real
    transform of transform_size(len(x)) points: the circular convolution of
    that length wraps only into its first len(y) - 1 values, which valid mode
    drops.  It gives no sign guarantee: a sum of nonnegative products can read
    slightly negative through it.
    """
    size = transform_size(len(x))
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[len(y) - 1 : len(x)]


def convolve_valid_bytes(nx: int) -> int:
    """Bytes beyond its inputs that convolve_valid holds on a first factor of nx values."""
    return TRANSFORM_BYTES * transform_size(nx)


def convolve_valid_cost(nx: int) -> float:
    """What convolve_valid pays on a first factor of nx values, in row values of
    add_rows: TRANSFORM_COST * size * log2(size) for its transform of size points."""
    size = transform_size(nx)
    return TRANSFORM_COST * size * math.log2(size)


def transform_size(need: int) -> int:
    """The least n >= need of the form 2^k, 3 2^k or 5 2^k (k >= 0), the length of
    every transform of a convolution or an autocorrelation here: mixed-radix lengths,
    as in M. Frigo and S. G. Johnson, "The design and implementation of FFTW3",
    Proc. IEEE 93, 2005, pad need by less than a third, where a power of two may nearly
    double it."""
    return min(m << (-(-need // m) - 1).bit_length() for m in (1, 3, 5))


# -- Fourier side -----------------------------------------------------------


CLASS_POINTS = 1 << 16  # the longest class transform of spectrum_classes: 1 MB, which a core's L2 holds
BLOCK_POINTS = 1 << 18  # values of one block of its classes: 4 MB, under the CLI's mmap threshold


def spectrum_classes(x: np.ndarray, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """|x-hat|^2 on the grid k/M, M = size a power of two >= len(x), one residue
    class of k mod r at a time (the four-step split of D. H. Bailey, "FFTs in
    external or hierarchical memory", J. Supercomputing 4, 1990).

    With L = min(2^(ceil(log2 len(x)) - 1), CLASS_POINTS) and r = M/L, class c
    is the array v_c[t] = |x-hat((r t + c)/M)|^2, t < L.  As e(-m (r t + c)/M)
    = e(-m c/M) e(-m t/L) and e(-L c/M) = e(-c/r), v_c is |the L-point
    transform of e(-m c/M) sum_j e(-j c/r) x(m + j L)|^2 over the p = ceil(len(x)/L)
    pieces x(m + j L), m < L, so no M-point transform or buffer is held.
    Class 0 is one real transform.  x is real, so class r - c is class c
    reversed (M - (r t + r - c) = r (L - 1 - t) + c), and only the pairs
    (c, v_c) for c = 0..r/2 are yielded, each v_c an array of its own.

    The pieces are read in place, as views of x (`_pieces`); while L is under
    the cap there are two of them.  The complex classes come in blocks of as
    many values as one uncapped class, of 2^(ceil(log2 len(x)) - 1) points,
    would hold, BLOCK_POINTS at most, so one class at a time while L is under
    the cap: the phases e(-j c/r) of a block meet the pieces in matrix
    products (`_fold`), and the block is twisted and transformed at once.
    """
    n = len(x)
    if size < n or size & (size - 1):
        raise DomainError("size must be a power of two >= len(x)")
    piece = 1 << max(0, (n - 1).bit_length() - 1)
    length = min(piece, CLASS_POINTS)
    r, rows = size // length, min(piece, BLOCK_POINTS) // length
    head, tail = _pieces(x, length)
    e = head.shape[1]
    yield 0, _real_class(np.concatenate([head.sum(axis=0), tail.sum(axis=0)]))
    turns = TWO_PI / r * np.arange(1, r // 2 + 1)[:, None] * np.arange(len(head))
    cos, sin = np.cos(turns), -np.sin(turns)  # e(-c j / r) for c = 1..r/2
    z = np.empty((rows, length), dtype=np.complex128)
    for c in range(1, r // 2 + 1, rows):
        phases = np.concatenate([cos[c - 1 : c - 1 + rows], sin[c - 1 : c - 1 + rows]])
        _fold(z[:, :e], head, phases)
        _fold(z[:, e:], tail, phases[:, : len(tail)])
        _twist(z, np.arange(c, c + rows) / size)
        np.fft.fft(z, axis=1, out=z)
        v = np.abs(z)
        yield from enumerate(np.square(v, out=v), start=c)


def _real_class(fold: np.ndarray) -> np.ndarray:
    """Class 0 of spectrum_classes, |the transform of the real fold|^2, from its
    half spectrum: v_0[L - t] = v_0[t]."""
    half = np.abs(np.fft.rfft(fold)) ** 2
    return np.concatenate([half, half[1 : len(fold) - len(half) + 1][::-1]])


def _pieces(x: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The p = ceil(len(x)/length) pieces x(m + j length) as two views of x:
    head[j, m] for the m < e = len(x) - (p - 1) length, which all p pieces
    reach, and tail[j, m - e] for the m >= e, which only the first p - 1 do."""
    e = len(x) - (len(x) - 1) // length * length
    return sliding_window_view(x, e)[::length], x[e:].reshape(-1, length)[:, : length - e]


# columns of the pieces that one matrix product of _fold takes: its result, 2 rows x
# FOLD_COLUMNS values, stays cached for the copy into the complex rows.  At 2^16
# columns and 4 classes (2-vCPU Xeon, OpenBLAS 0.3.31) a block folded in 0.67 ms
# from 7 pieces and 3.4 ms from 46, against 1.1 and 3.6 ms by one product and copy.
FOLD_COLUMNS = 1 << 12


def _fold(z: np.ndarray, pieces: np.ndarray, phases: np.ndarray) -> None:
    """z[c] = sum_j (phases[c, j] + i phases[rows + c, j]) pieces[j] for each of
    the rows c of z: the real parts of the complex phases, then the imaginary."""
    rows, folds = len(z), np.empty((len(phases), FOLD_COLUMNS))
    for s in range(0, z.shape[1], FOLD_COLUMNS):
        part = np.matmul(phases, pieces[:, s : s + FOLD_COLUMNS], out=folds[:, : min(FOLD_COLUMNS, z.shape[1] - s)])
        z.real[:, s : s + FOLD_COLUMNS], z.imag[:, s : s + FOLD_COLUMNS] = part[:rows], part[rows:]


def _twist(z: np.ndarray, turn) -> None:
    """z[..., m] *= e(-m turn) in place, for rows z[...] of a power-of-two length
    and a turn per row (an array of z.shape[:-1]), by two tables of about
    sqrt(length) phases per row."""
    cols = 1 << ((z.shape[-1].bit_length() - 1) // 2)
    grid = z.reshape(*z.shape[:-1], -1, cols)
    turn = (-1j * TWO_PI * np.asarray(turn))[..., None, None]
    grid *= np.exp(turn * cols * np.arange(grid.shape[-2])[:, None])
    grid *= np.exp(turn * np.arange(cols))


# -- serialization -------------------------------------------------------------


def write_arithfn(f: ArithFn, fh: IO[str]) -> None:
    """Columnar text format: header `support_start length real`, one value per line.

    Values are written by repr, which round-trips IEEE doubles exactly.
    """
    fh.write(f"{f.support_start} {len(f)} real\n")
    for v in f.values:
        fh.write(f"{float(v)!r}\n")
