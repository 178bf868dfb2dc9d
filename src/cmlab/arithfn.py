"""Finitely supported real arithmetic functions and their additive calculus.

An ArithFn stores a contiguous window of float64 values: index i holds
f(support_start + i), and f is identically zero outside the window.  Values are
immutable after construction, so every operation here is a pure function.

Window convention used across the package: "n in [t - w, t]" always means the
half-open integer window  t - floor(w) < n <= t.  This single convention keeps
short-interval sums, Gallagher windows and sieve windows aligned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import CapacityError, DomainError

SUPPORT_BOUND = 1 << 40  # guards convolution index arithmetic
# grid points of one power spectrum.  At the cap (`verify closeness --Y 10**7`)
# power_spectrum holds the M/2-point half and one piece of M/8 points, and the
# run peaked at 1.7 GB RSS with numpy 2.4; no larger grid has been measured
SPECTRUM_CAP = 1 << 27

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
    transform once those pass _WINDOW_FFT_RATIO * size * log2(size).
    """
    size = _fft_size(len(x) + len(y) - 1)
    direct = (len(x) - len(y) + 1) * len(y) <= _WINDOW_FFT_RATIO * size * math.log2(size)
    return (_convolve_direct if direct else _convolve_fft)(x, y, "valid")


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


def spectrum_size(length: int, oversample: int) -> int:
    """M, the smallest power of two >= max(oversample * length, 64).

    M above SPECTRUM_CAP raises CapacityError, so no caller allocates a grid
    beyond the cap.
    """
    if oversample < 1:
        raise DomainError("oversample must be >= 1")
    size = 1 << (max(length * oversample, 64) - 1).bit_length()
    if size > SPECTRUM_CAP:
        raise CapacityError(f"power spectrum grid of {size} points beyond the cap {SPECTRUM_CAP}")
    return size


def power_spectrum(f: ArithFn, oversample: int = 8) -> tuple[int, np.ndarray]:
    """|f-hat|^2 sampled on the uniform grid k/M, M = spectrum_size(len(f), oversample).

    The grid has at least `oversample` samples per 1/span.  Support offset only
    changes the phase of f-hat, never the magnitude, so the window offset is
    irrelevant here.  f is real, so the spectrum is even and only the half
    k = 0..M/2 (M/2 + 1 bins) is returned; bin k of the full grid is bin
    min(k, M - k) of the half.

    No M-point transform is taken (the four-step split of D. H. Bailey, "FFTs
    in external or hierarchical memory", J. Supercomputing 4, 1990).  With
    P = 2^ceil(log2 len(f)) >= len(f) and r = M/P, bin k = r j + s of the grid
    is sum_m f(m) e(-m s/M) e(-m j/P), so the bins of residue s are exactly
    the P-point transform of f(m) e(-m s/M), free of wrap-around.  Piece 0 is
    the real transform of f and fills the bins r j.  Piece s, 0 < s <= r/2,
    fills the bins r j + s, j < P/2; for s < r/2 its upper half, reversed,
    fills the bins of residue r - s, as M - (r j + s) = r (P - 1 - j) + r - s.
    Beside the half, the transforms hold P points at a time.  When r <= 2
    the split saves nothing and one real transform of M points is taken.
    """
    size = spectrum_size(len(f), oversample)
    x = f.values
    piece = 1 << max(1, (len(x) - 1).bit_length())
    r = size // piece
    if r <= 2:
        return size, np.abs(np.fft.rfft(x, size)) ** 2
    half = np.empty(size // 2 + 1)
    _squared_modulus(np.fft.rfft(x, piece), half[::r])
    z = np.zeros(piece, dtype=np.complex128)
    upper = np.empty(piece // 2)  # reversed after, as |z|^2 into a reversed view is slow
    for s in range(1, r // 2 + 1):
        _phases(z, len(x), s / size)
        z[: len(x)] *= x
        z[len(x) :] = 0.0
        np.fft.fft(z, out=z)
        _squared_modulus(z[: piece // 2], half[s::r])
        if s < r // 2:
            _squared_modulus(z[piece // 2 :], upper)
            half[r - s :: r] = upper[::-1]
    return size, half


def _squared_modulus(z: np.ndarray, out: np.ndarray) -> None:
    """out = |z|^2, written in place (out may be a strided view)."""
    np.square(np.abs(z, out=out), out=out)


def _phases(out: np.ndarray, n: int, turn: float) -> None:
    """out[m] = e(-m turn) for 0 <= m < n, as the outer product of two tables of
    about sqrt(n) phases; it may write up to the next multiple of their width,
    which stays within a power of two len(out) >= n."""
    cols = 1 << ((n.bit_length() + 1) // 2)
    rows = -(-n // cols)
    angle = -TWO_PI * turn
    np.multiply.outer(
        np.exp(1j * angle * cols * np.arange(rows)),
        np.exp(1j * angle * np.arange(cols)),
        out=out[: rows * cols].reshape(rows, cols),
    )


# -- serialization -------------------------------------------------------------


def write_arithfn(f: ArithFn, fh: IO[str]) -> None:
    """Columnar text format: header `support_start length real`, one value per line.

    Values are written by repr, which round-trips IEEE doubles exactly.
    """
    fh.write(f"{f.support_start} {len(f)} real\n")
    for v in f.values:
        fh.write(f"{float(v)!r}\n")
