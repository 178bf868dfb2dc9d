import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import arithfn
from cmlab.arith import prime_weights
from cmlab.arithfn import (
    ArithFn,
    convolve,
    convolve_valid,
    convolve_valid_cost,
    convolve_window,
    dense,
    l2_norm_sq,
    spectrum_classes,
    subtract,
    write_arithfn,
)
from cmlab.errors import CapacityError, DomainError
from oracles import fourier_eval, l1_norm, read_arithfn

small_values = st.lists(
    st.integers(-9, 9) | st.floats(-4, 4, allow_nan=False, width=32), min_size=1, max_size=64
)


def fn(start, values):
    return ArithFn(start, np.asarray(values))


class TestConvolve:
    def test_point_masses(self):
        out = convolve(ArithFn(1, [1.0]), ArithFn(1, [1.0]))
        assert out.support_start == 2
        assert out.values.tolist() == [1]

    def test_triangle(self):
        box = ArithFn(0, np.ones(3))
        out = convolve(box, box)
        assert out.support_start == 0
        assert out.values.tolist() == [1, 2, 3, 2, 1]

    def test_prime_pairs_at_100(self):
        lam = ArithFn(2, dense(prime_weights(2, 101), 2, 101))
        conv = convolve(lam, lam)
        direct = 0.0
        primes = [n for n in range(2, 101) if lam(n) != 0]
        for p in primes:
            for q in primes:
                if p + q == 100:
                    direct += math.log(p) * math.log(q)
        assert conv(100) == pytest.approx(direct, rel=1e-12)

    def test_methods_agree_on_random_instances(self, rng):
        # convolve_valid's transform against np.convolve's direct sum, in "valid" mode
        for _ in range(50):
            a, b = sorted((rng.normal(size=rng.integers(1, 128)), rng.normal(size=rng.integers(1, 128))),
                          key=len, reverse=True)
            d = np.convolve(a, b, "valid")
            t = convolve_valid(a, b)
            scale = np.max(np.abs(d))
            assert np.max(np.abs(d - t)) <= 1e-6 * max(scale, 1e-12)

    # nx + ny - 1 one less than a power of two, the power itself and one more: the
    # transform has a point to spare, is just long enough, or doubles
    @pytest.mark.parametrize("nx, ny", [(1, 1), (2, 1), (2, 2), (512, 512), (513, 512), (513, 513),
                                        (700, 324), (700, 325), (700, 326), (10000, 6384), (10000, 6385),
                                        (10000, 6386)])
    def test_valid_values_around_a_power_of_two(self, nx, ny):
        gen = np.random.default_rng(nx + ny)
        x, y = gen.normal(size=nx), gen.normal(size=ny)
        got, want = convolve_valid(x, y), np.convolve(x, y, "valid")
        assert got.shape == want.shape == (nx - ny + 1,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            convolve(ArithFn(0, np.zeros(0)), ArithFn(1, [1.0]))

    def test_capacity_guard(self):
        big = ArithFn((1 << 40) - 2, np.ones(2))
        with pytest.raises(CapacityError):
            convolve(big, big)

    @settings(max_examples=60, deadline=None)
    @given(small_values, small_values)
    def test_commutative(self, a, b):
        f, g = fn(0, a), fn(0, b)
        x = convolve(f, g)
        y = convolve(g, f)
        assert np.allclose(x.values.astype(float), y.values.astype(float), rtol=0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(small_values, small_values, small_values)
    def test_bilinear(self, a, b, c):
        f, g, h = fn(0, a), fn(1, b), fn(1, c)
        n = max(len(b), len(c))
        gh = ArithFn(1, np.pad(np.asarray(b, dtype=float), (0, n - len(b)))
                     + np.pad(np.asarray(c, dtype=float), (0, n - len(c))))
        lhs = convolve(f, gh)
        r1 = convolve(f, g)
        r2 = convolve(f, h)
        start, stop = min(r1.support_start, r2.support_start), max(r1.support_stop, r2.support_stop)
        rhs = r1.embed(start, stop) + r2.embed(start, stop)
        assert np.allclose(lhs.embed(start, stop), rhs, rtol=0, atol=1e-9)


class TestConvolveWindow:
    def _read(self, f, g, lo, hi):
        full = fn(f.support_start + g.support_start, np.convolve(f.values, g.values))
        return np.array([full(n) for n in range(lo, hi + 1)])

    def _cases(self, rng):
        f_int = fn(40, rng.integers(-1000, 1000, size=300))
        g_int = fn(7, rng.integers(-1000, 1000, size=50))
        f_real = fn(40, rng.normal(size=300))
        g_real = fn(7, rng.normal(size=50))
        return [(f_int, g_int), (f_real, g_real), (f_int, g_real), (g_real, f_real)]

    def test_matches_full_convolution(self, rng):
        # f*g lives on [47, 395] in every case; windows inside, straddling
        # either end, covering everything, and wholly outside.  A window the
        # transform takes is off by about u log2(size) |f|_2 |g|_2 (N. J. Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 24):
        # at these sizes, up to 5.3e-17 |f|_2 |g|_2 in a trial with other draws
        windows = [(100, 164), (0, 60), (380, 450), (0, 500), (47, 47), (395, 395), (0, 46), (396, 900)]
        for f, g in self._cases(rng):
            for lo, hi in windows:
                got = convolve_window(f, g, lo, hi)
                want = self._read(f, g, lo, hi)
                assert len(got) == hi - lo + 1
                assert got.dtype == np.float64
                assert np.allclose(got, want, rtol=0, atol=1e-13 * np.linalg.norm(f.values) * np.linalg.norm(g.values))

    def test_long_window_takes_the_transform(self, rng, monkeypatch):
        # rows over the 22000 points of the cut f would cost ROW_COST (H + 1) = 20002
        # each, 4.4 * 10**8 in all: the one transform of the cut f against g, of 2^15
        # points, costs 3.9 * 10**6
        def refuse(*args, **kwargs):
            raise AssertionError("rows taken for a long window of dense factors")

        f_real, g_real = fn(3, rng.normal(size=24000)), fn(11, rng.normal(size=12000))
        lo, hi = 15000, 24999
        want_real = self._read(f_real, g_real, lo, hi)
        taken = []
        monkeypatch.setattr(arithfn, "add_rows", refuse)
        monkeypatch.setattr(arithfn, "convolve_valid", lambda x, y, fn=convolve_valid: (
            taken.append((len(x), len(y))) or fn(x, y)))
        got_real = convolve_window(f_real, g_real, lo, hi)
        assert taken == [(21999, 12000)]
        assert np.allclose(got_real, want_real, rtol=0, atol=1e-8)

    def test_outside_support_is_zero(self, rng):
        f = fn(40, rng.integers(1, 9, size=30))
        g = fn(7, rng.integers(1, 9, size=20))
        assert not convolve_window(f, g, 0, 46).any()
        assert not convolve_window(f, g, 96, 300).any()

    def test_int_overflow_guard(self):
        # integer input is float64 from construction on, so products past
        # 2**63 cannot wrap
        big = fn(0, np.full(4, 2**40))
        got = convolve_window(big, big, 0, 6)
        assert got.dtype == np.float64
        assert got[3] == 4 * 2.0**80

    @pytest.mark.parametrize("ny", [50, 12000])
    def test_cost_is_the_path_taken(self, rng, monkeypatch, ny):
        # what convolve_valid_cost and convolve_valid_bytes report is what its one
        # transform pays: two real transforms of size points and their product
        sizes = []
        monkeypatch.setattr(np.fft, "rfft", lambda a, n, fn=np.fft.rfft: sizes.append(n) or fn(a, n))
        nx = ny + 10_000
        convolve_valid(rng.normal(size=nx), rng.normal(size=ny))
        size = 1 << (nx + ny - 2).bit_length()
        assert sizes == [size, size]
        assert convolve_valid_cost(nx, ny) == 8 * size * math.log2(size)
        assert arithfn.convolve_valid_bytes(nx, ny) == 32 * size

    def test_domain(self):
        with pytest.raises(DomainError):
            convolve_window(ArithFn(0, np.zeros(0)), ArithFn(1, [1.0]), 0, 3)
        with pytest.raises(DomainError):
            convolve_window(ArithFn(1, [1.0]), ArithFn(1, [1.0]), 3, 2)


class TestAddConvolution:
    """add_convolution against np.convolve on each of its paths, with spans, row
    blocks and chunks small enough to split the inputs part way: at H = 4 a
    chunk holds max(CHUNK, 4(H + 1)) = 20 integers, a span 7 and a product
    ROW_VALUES // (H + 1) = 4 rows."""

    LO, HI = 250, 254
    # the ROW_COST that forces each path, and the function it calls
    PATHS = {"rows": (0, "add_rows"), "transform": (10**30, "convolve_valid")}

    @pytest.mark.parametrize("shape, chunks", [("window", 6), ("segment", 2)])
    @pytest.mark.parametrize("density", [0.3, 1.0], ids=["sparse", "dense"])
    @pytest.mark.parametrize("path", ["rows", "transform"])
    def test_matches_np_convolve(self, monkeypatch, shape, chunks, density, path):
        row_cost, called = self.PATHS[path]
        for name, value in [("ROW_COST", row_cost), ("ROW_SPAN", 7), ("ROW_VALUES", 20), ("CHUNK", 16)]:
            monkeypatch.setattr(arithfn, name, value)
        taken = []
        for name in ("add_rows", "convolve_valid"):
            monkeypatch.setattr(arithfn, name, lambda *args, name=name, fn=getattr(arithfn, name): (
                taken.append(name) or fn(*args)))
        rng = np.random.default_rng(11)
        f = fn(40, np.where(rng.random(300) < density, rng.normal(size=300), 0.0))
        g = fn(7, np.where(rng.random(120) < density, rng.normal(size=120), 0.0))
        if shape == "window":  # g, of 120 values, is the shorter: six chunks of 20
            got = convolve_window(f, g, self.LO, self.HI)
            full = ArithFn(47, np.convolve(f.values, g.values))
        else:  # f on [200, 230), the shorter, against g on its preimage [21, 55): chunks of 20 and 10
            got = np.zeros(self.HI - self.LO + 1)
            cut = (self.LO - 229, self.HI - 200 + 1)
            arithfn.add_convolution(got, (f.points(200, 230), 200, 230), (g.points(*cut), *cut), self.LO, self.HI)
            full = ArithFn(207, np.convolve(f.embed(200, 230), g.values))
        want = full.embed(self.LO, self.HI + 1)
        assert want.all() and np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert taken == ([called] if path == "rows" else [called] * chunks)

    def test_short_last_chunk_is_a_transform_too(self, monkeypatch):
        # a shorter factor of CHUNK + 100 integers at H = 100 splits into chunks of
        # CHUNK and 100 integers; the last, whose 101 * 100 multiply-adds once went
        # direct against a transform of 512 points, is a transform like the first
        n, h = arithfn.CHUNK + 100, 100
        gen = np.random.default_rng(12)
        f, g = gen.normal(size=n), gen.normal(size=n + h)  # f on [0, n), g on its preimage [1, n + h + 1)
        taken = []
        monkeypatch.setattr(arithfn, "ROW_COST", 10**30)
        monkeypatch.setattr(arithfn, "convolve_valid", lambda x, y, fn=convolve_valid: (
            taken.append((len(x), len(y))) or fn(x, y)))
        got = np.zeros(h + 1)
        arithfn.add_convolution(got, ((np.arange(n), f), 0, n), ((np.arange(1, n + h + 1), g), 1, n + h + 1), n, n + h)
        assert taken == [(arithfn.CHUNK + h, arithfn.CHUNK), (2 * h, h)]
        want = np.convolve(g, f, "valid")  # (f*g)(n + k) = sum_j f(j) g(n + k - j)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(f) * np.linalg.norm(g)

    def test_rows_are_priced_by_the_points_of_the_first_factor(self, monkeypatch):
        # the points 1007, 1407 and 1807 of sparse reach [2500, 2900] through 3000 values at
        # H = 400: rows over them cost 2 * 3 * 401, the transform of 2^13 points 8 * 8192 * 13;
        # with the factors swapped the rows would go over the 1400 points of full on
        # [501, 1901), at 2 * 1400 * 401, more than the transform of 2^12 points, 8 * 4096 * 12
        taken = []
        monkeypatch.setattr(arithfn, "add_rows", lambda out, f, *args, fn=arithfn.add_rows: (
            taken.append(f[0].tolist()) or fn(out, f, *args)))
        sparse = fn(1000, np.where(np.arange(1000) % 400 == 7, 2.0, 0.0))
        full = fn(0, np.linspace(1.0, 2.0, 3000))
        for f, g, path in [(sparse, full, [[1007, 1407, 1807]]), (full, sparse, [])]:
            taken.clear()
            got = convolve_window(f, g, 2500, 2900)
            assert taken == path
            assert np.allclose(got, ArithFn(1000, np.convolve(sparse.values, full.values)).embed(2500, 2901), rtol=1e-13)


class TestFourier:
    def test_delta_is_unimodular(self):
        f = ArithFn(0, [1.0])
        for alpha in (0.0, 0.123, 0.75):
            assert fourier_eval(f, alpha) == pytest.approx(1.0)

    def test_alpha_zero_is_plain_sum(self, rng):
        f = fn(5, rng.normal(size=40))
        assert fourier_eval(f, 0.0) == pytest.approx(complex(np.sum(f.values)))

    def test_geometric_closed_form(self):
        n = 229
        f = ArithFn(1, np.ones(n))
        for r, q in [(1, 7), (3, 11), (5, 13)]:
            alpha = r / q
            e = np.exp(2j * np.pi * alpha)
            expected = e * (e**n - 1) / (e - 1)
            got = fourier_eval(f, alpha)
            assert abs(got - expected) <= 1e-9 * n

    def test_bounded_by_l1(self, rng):
        for _ in range(20):
            f = fn(0, rng.normal(size=100))
            alpha = rng.uniform()
            assert abs(fourier_eval(f, alpha)) <= l1_norm(f) * (1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(small_values, small_values, st.floats(0, 1, exclude_max=True))
    def test_multiplicative_under_convolution(self, a, b, alpha):
        f, g = fn(2, a), fn(3, b)
        conv = convolve(f, g)
        lhs = fourier_eval(conv, alpha)
        rhs = fourier_eval(f, alpha) * fourier_eval(g, alpha)
        scale = max(abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-8 * scale

    def test_parseval_on_grid(self, rng):
        # mean of |f-hat|^2 over the full grid, read from the classes: the
        # classes 0 < c < r/2 stand for class r - c as well
        for _ in range(10):
            f = fn(11, rng.normal(size=int(rng.integers(4, 200))))
            size = 1 << (max(2 * len(f), 64) - 1).bit_length()  # the least power of two >= 2 len(f), 64
            total = 0.0
            for c, v in spectrum_classes(f.values, size):
                total += (1 + (0 < c < size // len(v) // 2)) * np.sum(v)
            assert total / size == pytest.approx(l2_norm_sq(f), rel=1e-6)

    def test_power_spectrum_matches_pointwise(self, rng):
        f = fn(4, rng.normal(size=37))
        size = 512  # the least power of two >= 8 * 37
        spec = np.full(size, np.nan)
        for c, v in spectrum_classes(f.values, size):
            r = size // len(v)
            spec[c::r] = v
            if 0 < c < r // 2:
                spec[r - c :: r] = v[::-1]  # class r - c is class c reversed
        for k in (0, 1, size // 3, size // 2, size // 2 + 1, size - 2):
            assert spec[k] == pytest.approx(abs(fourier_eval(f, k / size)) ** 2, abs=1e-8)

    @staticmethod
    def _assert_grid(classes, vals, size):
        """The classes (c, v_c), r/2 + 1 of L points, fill all M bins of one M-point transform of vals."""
        r = size // len(classes[0][1])
        assert [c for c, _ in classes] == list(range(r // 2 + 1))
        grid = np.full(size, np.nan)
        for c, v in classes:
            assert v.shape == classes[0][1].shape
            grid[c::r] = v
            if 0 < c < r // 2:
                grid[r - c :: r] = v[::-1]  # class r - c is class c reversed
        half = np.abs(np.fft.rfft(vals, size)) ** 2
        ref = np.concatenate([half, half[-2:0:-1]])  # all M bins
        assert np.max(np.abs(grid - ref)) <= 1e-12 * np.max(ref)

    # the classes k mod r have L = 2^(ceil(log2 len) - 1) points each, r = M/L
    # of them; lengths 1, 2, 3, 7 on a 64-point grid (r = 64, 64, 32, 16), 1024
    # and 1025 on either side of a power of two on M = 8192 and 16384, and None
    # draws an odd length, on the least power of two >= 1, 2 and 8 times it
    # (r = 2, 4 and 16)
    @pytest.mark.parametrize("length, oversample", [
        (1, 8), (2, 8), (3, 8), (7, 8), (1024, 8), (1025, 8), (None, 1), (None, 2), (None, 8),
    ])
    def test_split_spectrum_equals_one_transform(self, rng, length, oversample):
        length = length or 2 * int(rng.integers(50, 5000)) + 1
        vals = rng.normal(size=length)
        size = 1 << (max(oversample * length, 64) - 1).bit_length()
        self._assert_grid(list(spectrum_classes(vals, size)), vals, size)

    # with the classes capped at 32 points, lengths on and around multiples of
    # L = 32 fold p = 2 to 41 pieces, the last one whole or cut short; the
    # least power of two >= 1, 2 and 8 times the length gives r/2 from 2 to
    # 256 classes, and blocks of min(2^(ceil(log2 len) - 1), BLOCK_POINTS) / 32
    # of them.  Up to 64 = 2 CLASS_POINTS the classes are the uncapped ones.
    @pytest.mark.parametrize("length", [33, 63, 64, 65, 96, 97, 127, 129, 200, 1279, 1280, 1281, 1311])
    @pytest.mark.parametrize("oversample", [1, 2, 8])
    def test_capped_classes_equal_one_transform(self, monkeypatch, length, oversample):
        monkeypatch.setattr(arithfn, "CLASS_POINTS", 32)
        vals = np.random.default_rng(length).normal(size=length)
        size = 1 << (max(oversample * length, 64) - 1).bit_length()
        classes = list(spectrum_classes(vals, size))
        assert len(classes[0][1]) == min(32, 1 << (length - 1).bit_length() - 1)
        self._assert_grid(classes, vals, size)

    # a block folds its pieces FOLD_COLUMNS columns at a time; 24 columns cut
    # the 59 of the head and the 5 of the tail of 64-point classes part way
    @pytest.mark.parametrize("pieces", [3, 17, 40])
    @pytest.mark.parametrize("fold_columns", [24, 1 << 12])
    def test_folds_in_column_chunks_equal_one_transform(self, monkeypatch, pieces, fold_columns):
        monkeypatch.setattr(arithfn, "CLASS_POINTS", 64)
        monkeypatch.setattr(arithfn, "FOLD_COLUMNS", fold_columns)
        vals = np.random.default_rng(pieces).normal(size=64 * pieces - 5)
        size = 1 << (8 * len(vals) - 1).bit_length()
        self._assert_grid(list(spectrum_classes(vals, size)), vals, size)

    def test_capped_classes_fold_views_of_x(self):
        # the 32 pieces of 32 points that 1000 values make are read in place
        x = np.arange(1000.0)
        x.setflags(write=False)
        head, tail = arithfn._pieces(x, 32)
        assert np.shares_memory(head, x) and np.shares_memory(tail, x)
        assert head.shape == (32, 8) and tail.shape == (31, 24)
        assert head[31].tolist() == list(range(992, 1000)) and tail[30].tolist() == list(range(968, 992))

    # spectrum_classes is one real transform of L points and complex ones of L
    # points that cover the M/2 bins of the classes c = 1..r/2, never one
    # longer than the cap: L = 512 uncapped at 1000 points, and L = 128 with
    # the cap at 128, in blocks of up to 512/128 = 4 rows
    @pytest.mark.parametrize("oversample", [2, 8])
    def test_transforms_taken(self, monkeypatch, oversample):
        rfft, fft = np.fft.rfft, np.fft.fft

        def record(calls, transform):
            def call(a, n=None, axis=-1, **kw):
                a = np.asarray(a)
                calls.append((n or a.shape[axis], a.size // a.shape[axis]))
                return transform(a, n, axis, **kw)
            return call

        size = 1 << (oversample * 1000 - 1).bit_length()
        for cap in (1 << 16, 128):
            real, complex_ = [], []  # (length, rows) of each transform
            monkeypatch.setattr(arithfn, "CLASS_POINTS", cap)
            monkeypatch.setattr(np.fft, "rfft", record(real, rfft))
            monkeypatch.setattr(np.fft, "fft", record(complex_, fft))
            list(spectrum_classes(np.ones(1000), size))
            length = min(512, cap)
            assert real == [(length, 1)]
            assert all(n == length for n, _ in complex_)
            assert sum(n * rows for n, rows in complex_) == size // 2
            assert max(rows for _, rows in complex_) == 512 // length


class TestNorms:
    def test_scaled_point_mass(self):
        f = ArithFn(5, [3.0])
        assert l2_norm_sq(f) == 9.0
        assert l1_norm(f) == 3.0

    def test_weighted_primes_direct_loop(self):
        f = ArithFn(2, dense(prime_weights(2, 1001), 2, 1001))
        direct = sum(f(n) ** 2 for n in range(2, 1001))
        assert l2_norm_sq(f) == pytest.approx(direct, rel=1e-12)

    def test_empty(self):
        assert l2_norm_sq(ArithFn(0, np.zeros(0))) == 0.0
        assert l1_norm(ArithFn(0, np.zeros(0))) == 0.0


class TestSerialization:
    def test_int_round_trip_bit_exact(self, rng):
        # integers below 2**53 are exact float64 values, and repr keeps them
        f = fn(123, rng.integers(-(2**40), 2**40, size=50))
        buf = io.StringIO()
        write_arithfn(f, buf)
        buf.seek(0)
        g = read_arithfn(buf)
        assert g.support_start == f.support_start
        assert np.array_equal(g.values, f.values)

    def test_real_round_trip(self, rng):
        f = fn(0, rng.normal(size=33))
        buf = io.StringIO()
        write_arithfn(f, buf)
        buf.seek(0)
        g = read_arithfn(buf)
        assert np.array_equal(g.values, f.values)

    @pytest.mark.parametrize("kind", ["int", "complex"])
    def test_only_the_real_kind_is_read(self, kind):
        with pytest.raises(DomainError):
            read_arithfn(io.StringIO(f"9 2 {kind}\n1\n2\n"))


class TestWindowAlgebra:
    def test_subtract_on_union(self):
        f = ArithFn(0, np.ones(4))
        g = ArithFn(2, np.ones(4))
        d = subtract(f, g)
        assert d.support_start == 0
        assert d.embed(0, 6).tolist() == [1, 1, 0, 0, -1, -1]

    @pytest.mark.parametrize("start, stop", [(-3, 12), (0, 5), (5, 9), (8, 20), (12, 30), (-9, -2), (4, 4)])
    def test_points_are_the_nonzero_embedding(self, start, stop):
        f = ArithFn(3, [0.0, 2.0, -1.5, 0.0, 0.0, 4.0, 0.0, 7.0, 0.0])
        m, values = f.points(start, stop)
        table = f.embed(start, stop)
        assert m.dtype == np.int64
        assert np.array_equal(m, np.flatnonzero(table) + start)
        assert np.array_equal(values, table[m - start])
        assert np.array_equal(dense((m, values), start, stop), table)

    def test_points_reject_reversed_range(self):
        with pytest.raises(DomainError):
            ArithFn(0, [1.0]).points(3, 2)

    def test_values_are_immutable(self):
        f = ArithFn(0, np.ones(4))
        with pytest.raises(ValueError):
            f.values[0] = 7

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, bool, np.float64, np.float32])
    def test_values_are_a_copy_and_the_callers_array_stays_writable(self, dtype):
        caller = np.arange(4).astype(dtype)
        f = ArithFn(0, caller)
        assert f.values.dtype == np.float64 and np.array_equal(f.values, caller)
        assert not np.shares_memory(f.values, caller)
        assert caller.flags.writeable and not f.values.flags.writeable
        first = f(0)
        caller[0] = 1
        assert f(0) == first

    def test_complex_input_is_a_domain_error(self):
        for values in (np.ones(3, dtype=np.complex128), [1.0, 2j], np.zeros(0, dtype=np.complex64)):
            with pytest.raises(DomainError):
                ArithFn(0, values)
