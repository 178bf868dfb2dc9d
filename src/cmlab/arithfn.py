"""Finitely supported real arithmetic functions and their additive calculus.

An ArithFn stores a contiguous window of float64 values: index i holds
f(support_start + i), and f is identically zero outside the window.  Values are
immutable after construction, so every operation here is a pure function.

Window convention used across the package: "n in [t - w, t]" always means the
half-open integer window  t - floor(w) < n <= t.  This single convention keeps
short-interval sums, Gallagher windows and sieve windows aligned.

Every windowed convolution goes through one chooser, `add_convolution`, which
prices rows over the points of its first factor against dense chunks of the
shorter factor, each direct or by transform, and takes the cheaper.  The
Fourier side is `spectrum_classes`, |x-hat|^2 on a grid of M points one residue
class at a time; M and its cap belong to its caller, `closeness`.
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

# convolve_valid goes direct while its multiply-adds stay below this many times
# size * log2(size) of the transform.  On a 2-vCPU Xeon a multiply-add costs
# 0.2-0.6 ns and a transform point 5-7 ns, so the two meet near 12-20.
_WINDOW_FFT_RATIO = 8
TRANSFORM_BYTES = 32  # bytes the transform holds per point of its size (measured with numpy 2.4)
# what one gathered row value costs, in units of convolve_valid_cost: on a 2-vCPU Xeon,
# under cli.main's allocator policy, the rows and the dense chunks of a pipeline's a*a
# segment met at 1.5-2.2 times at X = 10^7 and 10^8 and H = 2000 to 8000
ROW_COST = 2
# integers of the first factor whose rows share one dense piece of ROW_SPAN + H values of
# the second (2^15 took a tenth less time at X = 3*10^6, with 0.13 MB more peak RSS)
ROW_SPAN = 1 << 14
ROW_VALUES = 1 << 15  # row values gathered at a time for one matrix product (at least one row)
# integers of the shorter factor that one convolve_valid of the dense path takes: at
# least this many, so that its H+1 outputs reuse cached values, and at least 4(H+1),
# so that the H values of the other factor beyond the chunk stay a quarter of it at most
CHUNK = 1 << 16


def convolve(f: ArithFn, g: ArithFn) -> ArithFn:
    """Additive convolution (f*g)(n) = sum_{a+b=n} f(a) g(b) on its whole support.

    This is `convolve_window` over every n the two supports can reach, so the
    same rule picks the path.
    """
    lo = f.support_start + g.support_start
    return ArithFn(lo, convolve_window(f, g, lo, lo + len(f) + len(g) - 2))


def window_preimage(g: ArithFn, lo: int, hi: int) -> tuple[int, int]:
    """[start, stop): the m that (f*g)(n) reads from f for lo <= n <= hi.

    (f*g)(n) = sum_m f(m) g(n - m) sees only the m with n - m in g's support.
    """
    return lo - (g.support_stop - 1), hi - g.support_start + 1


def convolve_window(f: ArithFn, g: ArithFn, lo: int, hi: int) -> np.ndarray:
    """(f*g)(n) for the integers lo <= n <= hi only, as a dense float64 array:
    `add_convolution` of the points of f on `window_preimage(g, lo, hi)`, which
    the rows go over, and every integer of g's support, which the dense path
    reads uncopied.  n outside the support of f*g reads 0."""
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
    ROW_COST (H+1) per point; a sum of nonnegative products never reads
    negative through them.  The dense path takes the shorter range in chunks of
    `chunk_length(H)` integers, each against the other factor on its preimage
    through convolve_valid, at the summed convolve_valid_cost of the chunks."""
    h, size = hi - lo, chunk_length(hi - lo)
    (short, start, stop), (other, *_) = (f, g) if f[2] - f[1] < g[2] - g[1] else (g, f)
    chunks = [(c, min(c + size, stop)) for c in range(start, stop, size)]
    if ROW_COST * len(f[0][0]) * (h + 1) <= sum(convolve_valid_cost(e - c + h, e - c) for c, e in chunks):
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
    row) gathered at a time."""
    (p, fp), (q, gq) = f, g
    piece = np.zeros(ROW_SPAN - 1 + len(out))  # zero again after each span
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
    """Values add_rows holds beyond its inputs for H = h: its piece of
    ROW_SPAN + h and its gathered rows, ROW_VALUES or one row."""
    return ROW_SPAN + h + max(ROW_VALUES, h + 1)


def convolve_valid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The len(x) - len(y) + 1 values of x*y at which y lies wholly inside x
    (np.convolve's "valid" mode), for len(x) >= len(y) >= 1.

    Direct, at (len(x) - len(y) + 1) * len(y) multiply-adds, or through the
    transform once those pass _WINDOW_FFT_RATIO * size * log2(size).  The
    transform path gives no sign guarantee: a sum of nonnegative products can
    read slightly negative through it.
    """
    return (_convolve_direct if _direct(len(x), len(y)) else _convolve_fft)(x, y, "valid")


def _direct(nx: int, ny: int) -> bool:
    """Whether convolve_valid takes the direct path on lengths nx >= ny."""
    return (nx - ny + 1) * ny <= convolve_valid_cost(nx, ny)


def convolve_valid_bytes(nx: int, ny: int) -> int:
    """Bytes beyond its inputs that convolve_valid holds on lengths nx >= ny; 0 on the direct path."""
    return 0 if _direct(nx, ny) else TRANSFORM_BYTES * _fft_size(nx + ny - 1)


def convolve_valid_cost(nx: int, ny: int) -> float:
    """What convolve_valid pays on lengths nx >= ny, in multiply-adds: those of
    its direct path, or _WINDOW_FFT_RATIO * size * log2(size) for the
    transform, whichever is less."""
    size = _fft_size(nx + ny - 1)
    return min((nx - ny + 1) * ny, _WINDOW_FFT_RATIO * size * math.log2(size))


_convolve_direct = np.convolve  # the direct path of convolve_valid


def _fft_size(out_len: int) -> int:
    return 1 << max(1, (out_len - 1).bit_length())


def _convolve_fft(a: np.ndarray, b: np.ndarray, mode: str = "full") -> np.ndarray:
    """a*b through the real transform; mode as in np.convolve ("full" or "valid")."""
    out_len = len(a) + len(b) - 1
    size = _fft_size(out_len)
    out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:out_len]
    if mode == "valid":
        short, long = sorted((len(a), len(b)))
        out = out[short - 1 : long]
    return out


# -- Fourier side -----------------------------------------------------------


def spectrum_classes(x: np.ndarray, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """|x-hat|^2 on the grid k/M, M = size a power of two >= len(x), one residue
    class of k mod r at a time (the four-step split of D. H. Bailey, "FFTs in
    external or hierarchical memory", J. Supercomputing 4, 1990).

    With L = 2^(ceil(log2 len(x)) - 1) and r = M/L, class c is the array
    v_c[t] = |x-hat((r t + c)/M)|^2, t < L.  As e(-m (r t + c)/M) =
    e(-m c/M) e(-m t/L) and e(-L c/M) = e(-c/r), v_c is |the L-point transform
    of e(-m c/M) (x(m) + e(-c/r) x(m + L))|^2, so no M-point transform or
    buffer is held.  Class 0 is one real transform.  x is real, so class r - c
    is class c reversed (M - (r t + r - c) = r (L - 1 - t) + c), and only the
    pairs (c, v_c) for c = 0..r/2 are yielded, each v_c a fresh array.
    """
    n = len(x)
    if size < n or size & (size - 1):
        raise DomainError("size must be a power of two >= len(x)")
    piece = 1 << max(0, (n - 1).bit_length() - 1)
    r = size // piece
    fold = x[:piece].copy()
    fold[: n - piece] += x[piece:]
    half = np.abs(np.fft.rfft(fold)) ** 2
    yield 0, np.concatenate([half, half[1 : piece - len(half) + 1][::-1]])  # v_0[L - t] = v_0[t]
    del fold, half  # before the buffer of the complex classes is made
    z = np.empty(piece, dtype=np.complex128)
    for c in range(1, r // 2 + 1):
        upper = np.exp(-1j * TWO_PI * c / r)  # e(-L c/M)
        z.real, z.imag = x[:piece], 0.0
        z.real[: n - piece] += upper.real * x[piece:]
        z.imag[: n - piece] = upper.imag * x[piece:]
        _twist(z, c / size)
        np.fft.fft(z, out=z)
        yield c, np.abs(z) ** 2


def _twist(z: np.ndarray, turn: float) -> None:
    """z[m] *= e(-m turn) in place, len(z) a power of two, by two tables of about sqrt(len(z)) phases."""
    cols = 1 << ((len(z).bit_length() - 1) // 2)
    grid = z.reshape(-1, cols)
    grid *= np.exp(-1j * TWO_PI * turn * cols * np.arange(len(grid)))[:, None]
    grid *= np.exp(-1j * TWO_PI * turn * np.arange(cols))


# -- serialization -------------------------------------------------------------


def write_arithfn(f: ArithFn, fh: IO[str]) -> None:
    """Columnar text format: header `support_start length real`, one value per line.

    Values are written by repr, which round-trips IEEE doubles exactly.
    """
    fh.write(f"{f.support_start} {len(f)} real\n")
    for v in f.values:
        fh.write(f"{float(v)!r}\n")
