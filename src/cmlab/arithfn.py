"""Finitely supported arithmetic functions and their additive calculus.

An ArithFn stores a contiguous window of values: index i holds f(support_start + i),
and f is identically zero outside the window.  Values are immutable after
construction, so every operation here is a pure function.

Window convention used across the package: "n in [t - w, t]" always means the
half-open integer window  t - floor(w) < n <= t.  This single convention keeps
short-interval sums, Gallagher windows and sieve windows aligned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Optional, Union

import numpy as np

from .errors import CapacityError, DomainError

SUPPORT_BOUND = 1 << 40  # guards convolution index arithmetic
# grid points of one power spectrum.  At the cap (`verify closeness --Y 10**7`)
# numpy 2.4's real transform alone peaked at 3.1 GB RSS and the run at 3.5 GB
SPECTRUM_CAP = 1 << 27

Number = Union[int, float, complex]
TWO_PI = 2.0 * math.pi


def _coerce(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DomainError("values must be one-dimensional")
    if np.issubdtype(arr.dtype, np.complexfloating):
        return arr.astype(np.complex128)
    if np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float64)
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == bool:
        return arr.astype(np.int64)
    if arr.size == 0:
        return arr.astype(np.float64)
    raise DomainError(f"unsupported value dtype {arr.dtype}")


@dataclass(frozen=True, eq=False)
class ArithFn:
    """A finitely supported function on the integers."""

    support_start: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.support_start < 0:
            raise DomainError("support_start must be >= 0")
        arr = _coerce(self.values)  # a fresh array: every branch copies through astype
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

    @property
    def kind(self) -> str:
        if np.issubdtype(self.values.dtype, np.complexfloating):
            return "complex"
        if np.issubdtype(self.values.dtype, np.integer):
            return "int"
        return "real"

    def __call__(self, n: int) -> Number:
        if self.support_start <= n < self.support_stop:
            return self.values[n - self.support_start].item()
        return 0

    def indices(self) -> np.ndarray:
        return np.arange(self.support_start, self.support_stop, dtype=np.int64)

    # -- constructors ----------------------------------------------------

    @classmethod
    def point_mass(cls, n: int, value: Number = 1) -> "ArithFn":
        return cls(n, np.asarray([value]))

    @classmethod
    def ones(cls, start: int, length: int) -> "ArithFn":
        return cls(start, np.ones(length, dtype=np.int64))

    @classmethod
    def zero(cls) -> "ArithFn":
        return cls(0, np.zeros(0))

    # -- arithmetic on shared windows -------------------------------------

    def embed(self, start: int, stop: int) -> np.ndarray:
        """Values of f on [start, stop) as a dense array (zeros outside support)."""
        return _dense(self, start, stop, self.values.dtype if self.kind != "int" else np.float64)


def _dense(f: ArithFn, start: int, stop: int, dtype) -> np.ndarray:
    """f on [start, stop) as a dense array of the given dtype; start may be negative."""
    if stop < start:
        raise DomainError("stop < start")
    out = np.zeros(stop - start, dtype=dtype)
    lo = max(start, f.support_start)
    hi = min(stop, f.support_stop)
    if lo < hi:
        out[lo - start : hi - start] = f.values[lo - f.support_start : hi - f.support_start]
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
    return float(np.sum(np.abs(f.values.astype(np.complex128 if f.kind == "complex" else np.float64)) ** 2))


def l1_norm(f: ArithFn) -> float:
    return float(np.sum(np.abs(f.values)))


# -- convolution -----------------------------------------------------------

_DIRECT_COST_LIMIT = 1 << 21  # len(f)*len(g) above this switches "auto" to the transform path
# convolve_window goes direct while its multiply-adds stay below this many times
# size * log2(size) of the transform.  On a 2-vCPU Xeon a multiply-add costs
# 0.2-0.6 ns and a transform point 5-7 ns, so the two meet near 12-20.
_WINDOW_FFT_RATIO = 8

# Round-off constant of the float FFT product.  Percival (Math. Comp. 72 (2003),
# Thm 5.1) bounds every entry of the error of an FFT convolution of length
# N = 2**n by |a|_2 |b|_2 ((1+u)^(3n) (1+u sqrt5)^(3n+1) (1+beta)^(3n) - 1), with
# u = 2**-53 and beta the twiddle error.  For beta <= u the bracket is
# ((6 + 3 sqrt5) n + sqrt5) u + O((nu)^2) < 16 n u for n >= 1.  That proof is
# for radix-2 complex transforms; numpy's pocketfft runs mixed-radix real ones
# of the same depth, so c doubles it.  On random integer inputs of length
# 2**7 to 2**15 the measured error stays below 0.3% of the resulting bound.
_FFT_ROUNDOFF_C = 32.0


def convolve(f: ArithFn, g: ArithFn, method: str = "auto") -> ArithFn:
    """Additive convolution (f*g)(n) = sum_{a+b=n} f(a) g(b).

    Two execution paths: "direct" quadratic summation and "fft" with
    power-of-two zero padding.  On both, integer inputs give the exact integer
    result whenever no output can reach 2**62, and a real result otherwise.
    """
    if len(f) == 0 or len(g) == 0:
        raise DomainError("convolve requires nonempty supports")
    out_start = f.support_start + g.support_start
    if out_start + len(f) + len(g) - 1 > SUPPORT_BOUND:
        raise CapacityError("convolution support exceeds the global index bound")
    if method == "auto":
        method = "direct" if len(f) * len(g) <= _DIRECT_COST_LIMIT else "fft"
    if method == "direct":
        out = _convolve_direct(f.values, g.values)
    elif method == "fft":
        out = _convolve_fft(f.values, g.values)
    else:
        raise DomainError(f"unknown convolution method {method!r}")
    return ArithFn(out_start, out)


def window_preimage(g: ArithFn, lo: int, hi: int) -> tuple[int, int]:
    """[start, stop): the m that (f*g)(n) reads from f for lo <= n <= hi.

    (f*g)(n) = sum_m f(m) g(n - m) sees only the m with n - m in g's support.
    """
    return lo - (g.support_stop - 1), hi - g.support_start + 1


def convolve_window(f: ArithFn, g: ArithFn, lo: int, hi: int) -> np.ndarray:
    """(f*g)(n) for the integers lo <= n <= hi only, as a dense array.

    f is cut to `window_preimage(g, lo, hi)` and convolved against g in "valid"
    mode: directly, at (hi - lo + 1) * len(g) multiply-adds however long f is,
    or through the transform of the cut f and g once those multiply-adds pass
    _WINDOW_FFT_RATIO * size * log2(size).  Dtypes and exactness are those of
    `convolve`; n outside the support of f*g reads 0.
    """
    if len(f) == 0 or len(g) == 0:
        raise DomainError("convolve_window requires nonempty supports")
    if hi < lo:
        raise DomainError("need lo <= hi")
    start, stop = window_preimage(g, lo, hi)
    cut = _dense(f, start, stop, f.values.dtype)
    size = _fft_size(len(cut) + len(g) - 1)
    direct = (hi - lo + 1) * len(g) <= _WINDOW_FFT_RATIO * size * math.log2(size)
    return (_convolve_direct if direct else _convolve_fft)(cut, g.values, "valid")


def _fits_int64(a: np.ndarray, b: np.ndarray) -> bool:
    """No output of the integer convolution a*b can reach 2**62 in magnitude."""
    bound = min(
        float(np.sum(np.abs(a))) * float(np.max(np.abs(b), initial=0)),
        float(np.sum(np.abs(b))) * float(np.max(np.abs(a), initial=0)),
    )
    return bound < 2.0**62


def _convolve_direct(a: np.ndarray, b: np.ndarray, mode: str = "full") -> np.ndarray:
    if a.dtype.kind == "i" and b.dtype.kind == "i" and not _fits_int64(a, b):
        # int64 accumulation is exact but wraps silently
        a = a.astype(np.float64)
        b = b.astype(np.float64)
    return np.convolve(a, b, mode)


def _fft_size(out_len: int) -> int:
    return 1 << max(1, (out_len - 1).bit_length())


def _convolve_fft(a: np.ndarray, b: np.ndarray, mode: str = "full") -> np.ndarray:
    """a*b through the transform; mode as in np.convolve ("full" or "valid").

    Integer inputs are rounded back to int64 only under the proven round-off
    bound, and are otherwise convolved directly, which is exact.
    """
    out_len = len(a) + len(b) - 1
    size = _fft_size(out_len)
    if a.dtype.kind == "i" and b.dtype.kind == "i" and _fits_int64(a, b):
        bound = float(np.linalg.norm(a)) * float(np.linalg.norm(b)) * _FFT_ROUNDOFF_C * math.log2(size)
        if bound * 2.0**-53 >= 0.5:
            return np.convolve(a, b, mode)
        out = np.rint(_fft_real(a, b, size, out_len)).astype(np.int64)
    elif a.dtype.kind == "c" or b.dtype.kind == "c":
        out = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:out_len]
    else:
        out = _fft_real(a, b, size, out_len)
    if mode == "valid":
        short, long = sorted((len(a), len(b)))
        out = out[short - 1 : long]
    return out


def _fft_real(a: np.ndarray, b: np.ndarray, size: int, out_len: int) -> np.ndarray:
    spec = np.fft.rfft(a.astype(np.float64), size) * np.fft.rfft(b.astype(np.float64), size)
    return np.fft.irfft(spec, size)[:out_len]


# -- Fourier side -----------------------------------------------------------


def fourier_eval(f: ArithFn, alpha: float) -> complex:
    """f-hat(alpha) = sum_n f(n) e(alpha n), e(z) = exp(2 pi i z).

    Uses compensated (exact fsum) accumulation of the real and imaginary parts.
    """
    if len(f) == 0:
        return 0j
    phase = TWO_PI * alpha * f.indices().astype(np.float64)
    terms = f.values * np.exp(1j * phase)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


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
    irrelevant here.  Complex f gives all M bins k = 0..M-1.  For real f the
    spectrum is even, so only the half k = 0..M/2 (M/2 + 1 bins) is returned;
    bin k of the full grid is bin min(k, M - k) of the half.
    """
    size = spectrum_size(len(f), oversample)
    if f.kind == "complex":
        return size, np.abs(np.fft.fft(np.conj(f.values), size)) ** 2
    return size, np.abs(np.fft.rfft(f.values.astype(np.float64), size)) ** 2


# -- short interval sums ------------------------------------------------------


def _window_sums(values: np.ndarray, width: int) -> np.ndarray:
    """S[j] = sum of values[j-width+1 .. j] extended over windows touching the support.

    Output index j corresponds to t = support_start + j for j in
    0 .. len(values)+width-1, i.e. all t with (t-width, t] intersecting the window.
    """
    if width < 1:
        raise DomainError("window width must be >= 1")
    padded = np.concatenate([values, np.zeros(width, dtype=values.dtype)])
    csum = np.cumsum(padded)
    out = csum.copy()
    out[width:] -= csum[:-width]
    return out


def twist_values(f: ArithFn, r: int, q: int) -> np.ndarray:
    """f(n) * e(r n / q) on the support window (absolute n)."""
    if q < 1:
        raise DomainError("twist modulus must be >= 1")
    ns = f.indices()
    return f.values * np.exp((TWO_PI * 1j * r / q) * (ns % q))


def short_interval_sums(
    f: ArithFn, delta: float, twist: Optional[tuple[int, int]] = None
) -> list[tuple[int, complex]]:
    """Sliding sums sum_{t - floor(delta) < n <= t} f(n) e(r n / q) for integer t.

    Requires 2 < delta < span/2.  Every t whose window intersects the support is
    reported, computed by prefix differencing in O(N) total.
    """
    span = len(f)
    if not (2 < delta < span / 2):
        raise DomainError("need 2 < delta < span/2")
    width = int(delta)
    vals = twist_values(f, *twist) if twist else f.values.astype(np.complex128)
    sums = _window_sums(vals, width)
    t0 = f.support_start
    return [(t0 + j, complex(sums[j])) for j in range(len(sums))]


# -- serialization -------------------------------------------------------------


def write_arithfn(f: ArithFn, fh: IO[str]) -> None:
    """Columnar text format: header `support_start length kind`, one value per line.

    Integer-valued functions round-trip bit-exactly; floats use repr (also exact
    under IEEE round-trip).
    """
    fh.write(f"{f.support_start} {len(f)} {f.kind}\n")
    if f.kind == "int":
        for v in f.values:
            fh.write(f"{int(v)}\n")
    elif f.kind == "real":
        for v in f.values:
            fh.write(f"{float(v)!r}\n")
    else:
        for v in f.values:
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def read_arithfn(fh: IO[str]) -> ArithFn:
    line = fh.readline()
    while line.startswith("#"):  # tolerate report preambles
        line = fh.readline()
    header = line.split()
    if len(header) != 3:
        raise DomainError("malformed header")
    start, length, kind = int(header[0]), int(header[1]), header[2]
    if kind == "int":
        vals = np.array([int(fh.readline()) for _ in range(length)], dtype=np.int64)
    elif kind == "real":
        vals = np.array([float(fh.readline()) for _ in range(length)], dtype=np.float64)
    elif kind == "complex":
        rows = [fh.readline().split() for _ in range(length)]
        vals = np.array([complex(float(a), float(b)) for a, b in rows], dtype=np.complex128)
    else:
        raise DomainError(f"unknown kind {kind!r}")
    return ArithFn(start, vals)
