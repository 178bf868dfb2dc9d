"""Finitely supported real arithmetic functions and their additive calculus.

An ArithFn stores a contiguous window of float64 values: index i holds
f(support_start + i), and f is identically zero outside the window.  Values are
immutable after construction, so every operation here is a pure function.

Window convention used across the package: "n in [t - w, t]" always means the
half-open integer window  t - floor(w) < n <= t.  This single convention keeps
short-interval sums, Gallagher windows and sieve windows aligned.

Convolutions take the direct or the transform path by one cost rule.  The
Fourier side is `spectrum_classes`, |x-hat|^2 on a grid of M points one residue
class at a time; M and its cap belong to its caller, `closeness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np

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
        at = np.flatnonzero(values)
        return at + lo, values[at]


def dense(points: tuple[np.ndarray, np.ndarray], start: int, stop: int) -> np.ndarray:
    """The points (m, values), all m in [start, stop), as a dense array on [start, stop), 0 elsewhere."""
    m, values = points
    out = np.zeros(stop - start)
    out[m - start] = values
    return out


def common_window(f: ArithFn, g: ArithFn) -> tuple[int, int]:
    start = min(f.support_start, g.support_start)
    stop = max(f.support_stop, g.support_stop)
    return start, stop


def subtract(f: ArithFn, g: ArithFn) -> ArithFn:
    """f - g on the union of the two windows."""
    start, stop = common_window(f, g)
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


def convolve(f: ArithFn, g: ArithFn) -> ArithFn:
    """Additive convolution (f*g)(n) = sum_{a+b=n} f(a) g(b) on its whole support.

    This is `convolve_window` over every n the two supports can reach, so the
    same rule picks the direct or the transform path.
    """
    lo = f.support_start + g.support_start
    return ArithFn(lo, convolve_window(f, g, lo, lo + len(f) + len(g) - 2))


def window_preimage(g: ArithFn, lo: int, hi: int) -> tuple[int, int]:
    """[start, stop): the m that (f*g)(n) reads from f for lo <= n <= hi.

    (f*g)(n) = sum_m f(m) g(n - m) sees only the m with n - m in g's support.
    """
    return lo - (g.support_stop - 1), hi - g.support_start + 1


def convolve_window(f: ArithFn, g: ArithFn, lo: int, hi: int) -> np.ndarray:
    """(f*g)(n) for the integers lo <= n <= hi only, as a dense float64 array.

    f is cut to `window_preimage(g, lo, hi)` and `convolve_valid` takes it
    against g: (hi - lo + 1) * len(g) multiply-adds however long f is, or one
    transform when that is cheaper.  n outside the support of f*g reads 0.
    """
    if len(f) == 0 or len(g) == 0:
        raise DomainError("convolve_window requires nonempty supports")
    if hi < lo:
        raise DomainError("need lo <= hi")
    return convolve_valid(f.embed(*window_preimage(g, lo, hi)), g.values)


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
