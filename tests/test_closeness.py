import ctypes
import json
import math
import resource
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cmlab import arithfn, closeness, errors
from cmlab.arithfn import ArithFn, spectrum_classes, subtract
from cmlab.cli import main
from cmlab.closeness import (
    OVERSAMPLE,
    FareyArc,
    _gallagher_weights,
    closeness_grid,
    closeness_integral,
    default_lambda_q_sweep,
    default_sieve_sweep,
    farey_dissection,
    gallagher_lhs,
    gallagher_rhs,
    gallagher_size,
    spectrum_size,
    verify_short_sums,
)
from cmlab.errors import CapacityError, DomainError
from cmlab.models import lambda_q_short_sum, sieve_short_sum
from conftest import measure_cli, skip_without_proc
from oracles import containment_radius, contains, spot_probe_loop


def brute_force_farey_centers(order):
    """All reduced fractions r/q with q <= order on the circle [0, 1)."""
    return sorted(
        {Fraction(r, q) for q in range(1, order + 1) for r in range(q) if math.gcd(r, q) == 1}
    )


class TestFareyDissection:
    def test_order_one_single_arc(self):
        arcs = farey_dissection(1)
        assert len(arcs) == 1
        assert arcs[0].center == 0.0
        assert arcs[0].width == pytest.approx(1.0)

    def test_order_two_centers(self):
        arcs = farey_dissection(2)
        assert [(a.r, a.q) for a in arcs] == [(0, 1), (1, 2)]

    def test_centers_match_brute_force(self):
        for order in (3, 5, 8, 12):
            arcs = farey_dissection(order)
            got = sorted(Fraction(a.r, a.q) for a in arcs)
            assert got == brute_force_farey_centers(order)

    def test_order_five_count(self):
        # one arc per circle point r/q, q <= 5: sum of phi(q) = 10
        assert len(farey_dissection(5)) == 10

    def test_arcs_tile_the_circle(self):
        for order in (1, 2, 5, 11):
            arcs = farey_dissection(order)
            total = sum(a.width for a in arcs)
            assert total == pytest.approx(1.0, abs=1e-12)
            hi_sorted = sorted(a.hi for a in arcs)
            lo_sorted = sorted(a.lo % 1.0 if a.lo >= 0 else a.lo + 1.0 for a in arcs)
            # each arc's hi is the next arc's lo
            assert np.allclose(sorted(hi_sorted), sorted(lo_sorted))

    def test_every_point_covered_once(self, rng):
        for order in (4, 9):
            arcs = farey_dissection(order)
            for alpha in rng.uniform(size=10_000):
                assert sum(contains(a, alpha) for a in arcs) == 1

    def test_containment_radius_and_overlap(self, rng):
        # arc fits in [center - 1/(q*order), center + 1/(q*order)], and any
        # point lies in at most 2 of those open containment intervals
        for order in (5, 9):
            arcs = farey_dissection(order)
            for a in arcs:
                assert a.center - a.lo <= containment_radius(a) + 1e-15
                assert a.hi - a.center <= containment_radius(a) + 1e-15
            for alpha in rng.uniform(size=10_000):
                hits = 0
                for a in arcs:
                    dist = min(abs(alpha - a.center), abs(alpha - a.center - 1), abs(alpha - a.center + 1))
                    hits += dist < containment_radius(a)
                assert hits <= 2

    def test_center_separation(self):
        for order in (5, 12):
            arcs = farey_dissection(order)
            centers = sorted(a.center for a in arcs)
            gaps = np.diff(centers + [1.0 + centers[0]])
            assert gaps.min() >= 1.0 / order**2 - 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            farey_dissection(0)


class TestGallagher:
    def test_point_mass_closed_form(self):
        values = np.zeros(10_000)
        values[2500] = 1.0
        f = ArithFn(5_000, values)
        delta = 50.0
        lhs = gallagher_lhs(f, delta)
        rhs = gallagher_rhs(f, delta)
        assert lhs == pytest.approx(2 / delta, rel=1e-12)  # |f-hat| = 1 everywhere
        assert rhs == pytest.approx(int(delta / 2) / delta**2, rel=1e-12)
        assert lhs / rhs == pytest.approx(4.0, rel=1e-9)

    def test_zero_function(self):
        f = ArithFn(0, np.zeros(100))
        assert gallagher_lhs(f, 10.0) == 0.0
        assert gallagher_rhs(f, 10.0) == 0.0

    def test_random_ratio_bounded(self, rng):
        for _ in range(20):
            f = ArithFn(10_000, rng.choice([-1.0, 1.0], size=10_000))
            ratio = gallagher_lhs(f, 50.0) / gallagher_rhs(f, 50.0)
            assert ratio <= 20.0

    def test_lhs_against_dense_quadrature(self):
        # independent oracle: the trapezoid of |f-hat|^2 on 4001 points of [-1/Delta, 1/Delta].
        # |f-hat(beta)|^2 = sum_h A(h) e(beta h), A the autocorrelation of f, has a second
        # derivative of at most (2 pi)^2 sum_h h^2 |A(h)|, so a trapezoid of spacing s on
        # [-1/Delta, 1/Delta] is off by at most (2/Delta) s^2 / 12 times that.  The rule of
        # gallagher_lhs has spacing 1/M, M = spectrum_size(64) = 512, and at Delta = 8 its
        # ends fall on the grid, with no sliver.  Each draw is a run of 16 positive weights,
        # as the prime weights are, in a window of 64: the bound of both rules then stays
        # near 2.5e-3 of the integral, so the check can still fail (64 normal values would
        # put it near 0.1, and normal runs of 16 up to 0.03 where the integral is small)
        gen = np.random.default_rng(129)
        delta, span, run = 8.0, 64, 16
        assert spectrum_size(span) / delta == 64
        grid = np.linspace(-1 / delta, 1 / delta, 4001)
        lags = np.arange(1 - span, span)
        for _ in range(24):
            vals = np.zeros(span)
            start = int(gen.integers(0, span - run + 1))
            vals[start : start + run] = gen.uniform(0.5, 1.5, size=run)
            fhat = np.exp(2j * np.pi * np.outer(grid, np.arange(10, 10 + span))) @ vals
            oracle = np.trapezoid(np.abs(fhat) ** 2, grid)
            curvature = (2 * np.pi) ** 2 * np.sum(lags**2 * np.abs(np.correlate(vals, vals, "full")))
            bound = (2 / delta) / 12 * curvature * (1 / spectrum_size(span) ** 2 + (grid[1] - grid[0]) ** 2)
            assert bound < 1e-2 * oracle
            assert abs(gallagher_lhs(ArithFn(10, vals), delta) - oracle) <= bound

    @pytest.mark.parametrize("span", [64, 1000, 10_000])
    def test_lhs_equals_full_grid_trapezoid(self, rng, span):
        # oracle: the trapezoid rule on the full grid of M >= 8 span points,
        # from one complex transform of f, plus the two end slivers
        def trapezoid(f, delta):
            size = 1 << (max(8 * span, 64) - 1).bit_length()
            spec = np.abs(np.fft.fft(f.values, size)) ** 2
            k_hi = math.floor(size / delta)
            vals = spec[np.arange(-k_hi, k_hi + 1) % size]
            sliver = 1.0 / delta - k_hi / size
            return np.trapezoid(vals, dx=1.0 / size) + sliver * (vals[0] + vals[-1])

        for delta in (8.0, 10.3, 30.0, span / 2 - 0.5, span / 2 - 1e-9):
            if not 2 < delta < span / 2:
                continue
            f = ArithFn(17, rng.normal(size=span))
            assert gallagher_lhs(f, delta) == pytest.approx(trapezoid(f, delta), rel=1e-12)

    def test_lhs_reads_its_weights_outside_blas(self, rng, monkeypatch):
        # np.dot of 10,241 floats goes through OpenBLAS, whose threads cost
        # more than the sum; the reduction must give the dot's value
        f = ArithFn(10_000, rng.choice([-1.0, 1.0], size=10_000))
        weights = _gallagher_weights(10_000, 50.0)
        spec = np.abs(np.fft.rfft(f.values, gallagher_size(10_000))) ** 2
        dot = 2.0 * np.dot(spec, weights) - spec[0] * weights[0] - spec[-1] * weights[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("np.dot called")

        monkeypatch.setattr(np, "dot", refuse)
        assert gallagher_lhs(f, 50.0) == pytest.approx(dot, rel=1e-12)

    def test_transform_size(self):
        # the least n >= 2 span - 1 among 2^k, 3 2^k and 5 2^k, k >= 1, against a scan of them all
        forms = sorted(m << k for m in (1, 3, 5) for k in range(1, 24))
        for span in [*range(3, 3000), 4097, 10_000, 500_000]:
            assert gallagher_size(span) == next(n for n in forms if n >= 2 * span - 1), span
        assert gallagher_size(10_000) == 20_480 < 32_768  # the least power of two >= 2 span - 1

    @pytest.mark.parametrize("span", [2_000, 4_097, 10_000])
    def test_block_equals_one_trial_at_a_time(self, span):
        # a block of rows draws what as many draws of one row each do, and gives each
        # row the ratio the row alone gets; two blocks and a short one
        rows = closeness.require_gallagher(span, 50.0, 10**6)
        assert rows == max(1, closeness.GALLAGHER_BLOCK // span)
        trials = 2 * rows + 1
        block_rng, one_rng = np.random.default_rng(3), np.random.default_rng(3)
        blocks = [block_rng.choice([-1.0, 1.0], size=(min(rows, trials - done), span))
                  for done in range(0, trials, rows)]
        singles = [one_rng.choice([-1.0, 1.0], size=span) for _ in range(trials)]
        assert [len(block) for block in blocks] == [rows, rows, 1]
        assert np.array_equal(np.concatenate(blocks), np.array(singles))
        lhs = np.concatenate([gallagher_lhs(block, 50.0) for block in blocks])
        rhs = np.concatenate([gallagher_rhs(block, 50.0) for block in blocks])
        for i, values in enumerate(singles):
            f = ArithFn(10_000, values)
            assert lhs[i] == pytest.approx(gallagher_lhs(f, 50.0), rel=1e-12)
            assert rhs[i] == gallagher_rhs(f, 50.0)  # exact cumsum window sums
            assert lhs[i] / rhs[i] == pytest.approx(gallagher_lhs(f, 50.0) / gallagher_rhs(f, 50.0), rel=1e-12)

    def test_rhs_point_mass_window_membership(self):
        # windows (t - w, t] with w = floor(13.7 / 2) = 6: a unit mass lies in w
        # of them, and two masses d apart share w - d of them if d < w, else none
        delta, w = 13.7, 6
        single = np.zeros(100)
        single[49] = 1.0  # n = 50 on a support starting at 1
        assert gallagher_rhs(ArithFn(1, single), delta) == w / delta**2
        for d in range(1, 9):
            pair = single.copy()
            pair[49 + d] = 1.0
            shared = max(0, w - d)
            assert gallagher_rhs(ArithFn(1, pair), delta) == pytest.approx((2 * w + 2 * shared) / delta**2, rel=1e-15)

    def test_rhs_against_double_loop(self, rng):
        # non-integer Delta on an offset support; t over every window meeting it
        f = ArithFn(17, rng.choice([-1.0, 1.0], size=300))
        delta = 27.7
        width = int(delta / 2)
        total = 0.0
        for t in range(17, 17 + 300 + width):
            total += sum(f(n) for n in range(t - width + 1, t + 1)) ** 2
        assert total > 0
        assert gallagher_rhs(f, delta) == pytest.approx(total / delta**2, rel=1e-12)

    def test_domain(self):
        f = ArithFn(0, np.ones(100))
        with pytest.raises(DomainError):
            gallagher_rhs(f, 2.0)
        with pytest.raises(DomainError):
            gallagher_lhs(f, 60.0)


class TestClosenessGrid:
    def test_grid_size(self):
        # M is the smallest power of two >= max(8 span, 64)
        assert OVERSAMPLE == 8
        assert [spectrum_size(n) for n in (1, 8, 37, 1024, 1025)] == [64, 64, 512, 8192, 16384]
        assert closeness_grid(1000, 64.0) == spectrum_size(1000) == 8192

    def test_spectrum_over_cap_fails_up_front(self, rng, monkeypatch):
        # a span of 1000 on a grid of 8192 points
        estimate = closeness.closeness_bytes(1000)
        assert estimate == closeness.SPAN_BYTES * 1000 + closeness.GRID_BYTES * 8192
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate)
        assert closeness_grid(1000, 64.0) == 8192
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate - 1)
        f = ArithFn(0, rng.normal(size=1000))
        for request in (lambda: closeness_grid(1000, 0.5), lambda: closeness_integral(f, f, 64.0)):
            with pytest.raises(CapacityError, match=f"needs {estimate} bytes"):  # the cap is checked before H
                request()

    @pytest.mark.parametrize("span, h, named", [
        (1000, 0.5, "need H >= 1"), (128, 64.0, "span more than 2H"), (1000, math.inf, "span more than 2H"),
    ])
    def test_h_is_checked_with_the_grid(self, rng, span, h, named):
        with pytest.raises(DomainError, match=named):
            closeness_grid(span, h)
        f = ArithFn(0, rng.normal(size=span))
        with pytest.raises(DomainError, match=named):
            closeness_integral(f, f, h)


class TestClosenessIntegral:
    def _pair(self, rng, span=2_000):
        f = ArithFn(1_000, rng.normal(size=span))
        g = ArithFn(1_000, rng.normal(size=span))
        return f, g

    def test_identical_functions_report_zero(self, rng):
        f, _ = self._pair(rng)
        rep = closeness_integral(f, f, 64.0)
        assert rep.sup_estimate == 0.0
        assert rep.theta_effective == 0.0

    def test_symmetry(self, rng):
        f, g = self._pair(rng)
        a = closeness_integral(f, g, 64.0)
        b = closeness_integral(g, f, 64.0)
        assert a.sup_estimate == b.sup_estimate
        assert a.farey_bound == b.farey_bound

    def test_sup_dominates_arc_contributions(self, rng):
        f, g = self._pair(rng)
        rep = closeness_integral(f, g, 64.0)
        assert all(rep.sup_estimate >= c for _, c in rep.per_arc)
        assert rep.sup_estimate >= rep.spot_estimate
        assert rep.sup_estimate >= rep.farey_bound > 0

    def test_triangle_property(self, rng):
        f, g = self._pair(rng)
        h = ArithFn(1_000, rng.normal(size=2_000))
        s_fh = closeness_integral(f, h, 64.0).sup_estimate
        s_fg = closeness_integral(f, g, 64.0).sup_estimate
        s_gh = closeness_integral(g, h, 64.0).sup_estimate
        assert s_fh <= 2 * (s_fg + s_gh) + 1e-9

    def test_span_domain_error(self, rng):
        f = ArithFn(0, rng.normal(size=100))
        with pytest.raises(DomainError):
            closeness_integral(f, f, 64.0)
        f, g = self._pair(rng)
        with pytest.raises(DomainError):  # complex values are refused on construction
            closeness_integral(ArithFn(1_000, f.values * 1j), g, 64.0)

    def test_arc_functionals_match_brute_force_windows(self, rng):
        # oracle: twist d(n) by an explicit exp at absolute n and sum |window|^2
        # over every t whose window meets the support, one t at a time
        def brute(d, q, r, h):
            w = max(1, int(q * math.sqrt(h) / 3.0))
            ns = np.arange(d.support_start, d.support_stop, dtype=np.int64)
            twisted = d.values * np.exp(2j * np.pi * r * ns / q)
            total = 0.0
            for t in range(d.support_start, d.support_stop + w - 1):
                lo, hi = max(t - w + 1, d.support_start), t
                total += abs(np.sum(twisted[lo - d.support_start : hi - d.support_start + 1])) ** 2
            return total / (q**2 * h), w

        # h = 4: order 2, both windows of width 1; h = 150: every q <= 12 with
        # every coprime r, widths 4 to 48; the 0/1 arc wraps in both
        for h, span in ((4.0, 50), (150.0, 700)):
            f = ArithFn(1_003, rng.normal(size=span))
            g = ArithFn(1_000, rng.normal(size=span))
            rep = closeness_integral(f, g, h)
            assert rep.per_arc[0][0].lo < 0
            pairs = {(arc.q, arc.r) for arc, _ in rep.per_arc}
            assert pairs == {(q, r) for q in range(1, rep.order + 1) for r in range(q) if math.gcd(r, q) == 1}
            widths = set()
            for arc, value in rep.per_arc:
                oracle, w = brute(subtract(f, g), arc.q, arc.r, h)
                widths.add(w)
                assert value == pytest.approx(oracle, rel=1e-10)
            assert (min(widths) == 1) == (h == 4.0)

    # span 3000 at H = 400: order 20 and arcs up to w = 133 lags.  With the
    # classes capped at 256 points w passes L/2 + 1 = 129, with 64 it passes L
    # itself, so the autocorrelation is read off the L-periodic inverse of each
    # class; the uncapped classes have L = 2048
    @pytest.mark.parametrize("cap", [256, 64])
    def test_capped_classes_give_the_uncapped_report(self, monkeypatch, cap):
        f, g = self._pair(np.random.default_rng(cap), span=3_000)
        whole = closeness_integral(f, g, 400.0)
        monkeypatch.setattr(arithfn, "CLASS_POINTS", cap)
        capped = closeness_integral(f, g, 400.0)
        assert max(arc.q for arc, _ in capped.per_arc) == 20
        assert (capped.farey_arc, capped.spot_alpha) == (whole.farey_arc, whole.spot_alpha)
        assert capped.farey_bound == pytest.approx(whole.farey_bound, rel=1e-12)
        assert capped.spot_estimate == pytest.approx(whole.spot_estimate, rel=1e-12)
        for (arc, value), (same, expected) in zip(capped.per_arc, whole.per_arc):
            assert (arc.q, arc.r) == (same.q, same.r)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_report_serialization(self, rng):
        f, g = self._pair(rng)
        rep = closeness_integral(f, g, 64.0)
        payload = rep.decision()
        assert payload["decided_by"] == rep.decided_by in ("farey", "spot")
        assert payload["farey_arc"] in [[arc.q, arc.r] for arc, _ in rep.per_arc]
        assert 0.0 <= payload["spot_alpha"] <= 0.5
        assert payload["farey_over_spot"] == pytest.approx(rep.farey_bound / rep.spot_estimate)


class TestSweeps:
    def test_singleton_trivial_twist_is_exact(self):
        report = verify_short_sums(
            lambda_q_short_sum, [(1, {"t": 5000, "h_prime": 1000.0, "big_q": 1, "r": 0, "q_twist": 1})]
        )
        assert report.max_ratio == 0.0

    def test_default_lambda_q_sweep(self):
        short_sum, sweep = default_lambda_q_sweep(10, "small")
        assert short_sum is lambda_q_short_sum and len(sweep) >= 100
        assert all(big_q == point["big_q"] == 10 for big_q, point in sweep)
        report = verify_short_sums(short_sum, sweep)
        assert report.max_ratio <= 4.0

    def test_default_sieve_sweep(self):
        short_sum, sweep = default_sieve_sweep("small")
        assert short_sum is sieve_short_sum and len(sweep) >= 100
        assert all((point["beta"], point["level"], point["sift"]) == (s.beta, s.level, s.sift) for s, point in sweep)
        report = verify_short_sums(short_sum, sweep)
        assert report.max_ratio <= 4.0

    def test_runner_calls_the_short_sum_at_each_point(self):
        # one call per model with the arrays of its points, and each row is what short_sum
        # returned at its point, under the point's parameters, in the order of the sweep
        calls = []

        def short_sum(t, h_prime, model, r, q_twist):
            calls.append((t.tolist(), h_prime.tolist(), model, r.tolist(), q_twist.tolist()))
            return np.array(t, dtype=float) + 4j, np.zeros(len(t), dtype=complex), np.full(len(t), 2.0)

        points = [{"t": t, "h_prime": 5.0, "r": 1, "q_twist": 3, "tag": t} for t in (3, 10, 4)]
        report = verify_short_sums(short_sum, [("a", points[0]), ("b", points[1]), ("a", points[2])])
        assert calls == [([3, 4], [5.0, 5.0], "a", [1, 1], [3, 3]), ([10], [5.0], "b", [1], [3])]
        assert [row.params for row in report.rows] == points
        assert [row.actual for row in report.rows] == [3 + 4j, 10 + 4j, 4 + 4j]
        assert report.max_ratio == abs(10 + 4j) / 2.0
        assert report.summary() == {"points": 3, "max_ratio": report.max_ratio, "worst_params": points[1]}

    def test_twins_are_conjugates_and_the_worst_names_the_smaller_r(self):
        # the twists r and q' - r of a real model give conjugate sums, equal ratios,
        # and the summary names the first of the tied rows, the smaller r
        for big_q, twins in ((10, 48), (30, 128)):
            report = verify_short_sums(*default_lambda_q_sweep(big_q, "small"))
            rows = {tuple(row.params[k] for k in ("t", "h_prime", "r", "q_twist")): row for row in report.rows}
            pairs = [(row, rows[t, h, q - r, q]) for (t, h, r, q), row in rows.items() if 2 * r > q]
            assert len(pairs) == twins
            assert all(row.actual == other.actual.conjugate() and row.ratio == other.ratio for row, other in pairs)
            worst = report.summary()["worst_params"]
            assert 2 * worst["r"] <= worst["q_twist"]
            assert [row.ratio for row in report.rows].count(report.max_ratio) == 1 + (2 * worst["r"] < worst["q_twist"])

    def test_csv_emission(self, tmp_path):
        # the cli writes the sweep's table: the exact header, then one row per point
        assert main(["--out", str(tmp_path), "verify", "lambda_q_short", "--Q", "10", "--grid", "small"]) == 0
        lines = (tmp_path / "lambda-q-short-sums.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert rows[0] == ["big_q", "h_prime", "q_twist", "r", "t",
                           "actual_re", "actual_im", "predicted_re", "error", "budget", "ratio"]
        summary = json.loads((tmp_path / "verify-lambda_q_short-summary.json").read_text())
        assert len(rows) == 1 + summary["report"]["points"]
        assert max(float(row[-1]) for row in rows[1:]) == pytest.approx(summary["report"]["max_ratio"], rel=1e-9)


class TestEstimatorAgainstExhaustiveGrid:
    def test_reported_sup_tracks_full_grid_sup(self):
        # oracle: the window integral evaluated at EVERY grid frequency, not
        # just the sampled arcs; the report must stay within a tight factor
        rng = np.random.default_rng(5)
        for _ in range(8):
            span = int(rng.integers(1500, 4000))
            f = ArithFn(1000, rng.normal(size=span))
            g = ArithFn(1000, rng.normal(size=span))
            h = float(rng.uniform(36, 144))
            rep = closeness_integral(f, g, h)

            d = subtract(f, g)
            size = spectrum_size(len(d))
            half_spec = np.abs(np.fft.rfft(d.values, size)) ** 2
            spec = np.concatenate([half_spec, half_spec[-2:0:-1]])  # the even spectrum on all M bins
            half = min(int(size / h), (size - 1) // 2)
            csum = np.concatenate([[0.0], np.cumsum(spec)])
            width = 2 * half + 1
            interior = (csum[width:] - csum[:-width]).max()
            wrap = max(
                (csum[size] - csum[(k - half) % size])
                + csum[(k + half) % size + 1]
                for k in list(range(0, half)) + list(range(size - half, size))
            )
            true_sup = max(float(interior), float(wrap)) / size
            ratio = true_sup / rep.sup_estimate
            assert 0.8 <= ratio <= 1.25

    def test_folded_spot_probe_equals_full_grid_probe(self):
        # oracle: the spot probe on the mirrored full grid, prefix sums over
        # all M bins, the same windows; the 0/1 arc's windows wrap bin 0 and
        # the 1/2 arc's windows straddle bin M/2
        def full_grid_probe(d, h):
            size = spectrum_size(len(d))
            half_spec = np.abs(np.fft.rfft(d.values, size)) ** 2
            spec = np.concatenate([half_spec, half_spec[-2:0:-1]])
            csum = np.concatenate([[0.0], np.cumsum(spec)])
            half = min(int(size / h), (size - 1) // 2)
            best, best_alpha, wraps, straddles = 0.0, None, 0, 0
            arcs = sorted(farey_dissection(int(math.isqrt(int(h)))), key=lambda a: a.width, reverse=True)
            for arc in arcs[:16]:
                k_lo, k_hi = math.ceil(arc.lo * size), math.floor(arc.hi * size)
                for k in range(k_lo, k_hi + 1, max(1, (k_hi - k_lo) // 128)):
                    lo, hi = (k - half) % size, (k + half) % size
                    if lo <= hi:
                        total = csum[hi + 1] - csum[lo]
                    else:
                        total = csum[size] - csum[lo] + csum[hi + 1]
                        wraps += 1
                    straddles += lo <= size // 2 <= hi
                    if total / size > best:
                        best, best_alpha = float(total) / size, (k % size) / size
            return best, best_alpha, wraps, straddles

        # a mean puts the peak of |d-hat|^2 at 0, an alternating sign at 1/2,
        # so the largest window is one that wraps 0 resp. straddles M/2
        rng = np.random.default_rng(11)
        for span, h in ((2_000, 64.0), (3_001, 150.0), (700, 36.0)):
            signs = (-1.0) ** np.arange(span)
            for peak, bias in ((None, 0.0), (0.0, 1.0), (0.5, signs), (0.0, -1.0), (0.5, -signs)):
                f = ArithFn(1000, rng.normal(size=span) + 2.0 * bias)
                g = ArithFn(1003, rng.normal(size=span))
                rep = closeness_integral(f, g, h)
                spot, alpha, wraps, straddles = full_grid_probe(subtract(f, g), h)
                assert wraps > 0 and straddles > 0
                if peak is not None:
                    assert min(abs(alpha - peak), 1 - abs(alpha - peak)) <= 1 / h
                # |d-hat|^2 is even, so the windows at alpha and -alpha hold the
                # same value, and the report folds the tie into [0, 1/2]
                assert rep.spot_alpha == min(alpha, 1.0 - alpha)
                assert rep.spot_estimate == pytest.approx(spot, rel=1e-12)

    def test_no_half_grid_is_held(self, rng):
        # span 2^17: M = 2^20, and the half alone would be M/2 floats; the
        # classes hold 2^16 points at a time
        f, g = (ArithFn(1000, rng.normal(size=1 << 17)) for _ in range(2))
        tracemalloc.start()
        try:
            rep = closeness_integral(f, g, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.grid_resolution == 1 << 20
        assert peak < (rep.grid_resolution // 2) * 8

    def test_spot_probe_equals_loop_bit_for_bit(self):
        # the probe reads every window off the prefix sums of each residue
        # class at once; on the same classes it must give the loop's figures
        # exactly, with the first of tied windows winning (a point mass has
        # |d-hat|^2 = 1 on every bin) and (0.0, None) for d = 0
        rng = np.random.default_rng(17)
        for span, h in ((2_000, 64.0), (3_001, 150.0), (700, 36.0), (5_000, 9.0)):
            f = ArithFn(1000, rng.normal(size=span))
            mass = ArithFn(1000, np.eye(1, span).ravel())
            zero = ArithFn(1000, np.zeros(span))
            for a, b in ((f, ArithFn(1003, rng.normal(size=span))), (mass, zero), (f, f)):
                rep = closeness_integral(a, b, h)
                size = rep.grid_resolution
                classes = list(spectrum_classes(subtract(a, b).values, size))
                arcs = farey_dissection(math.isqrt(int(h)))
                assert (rep.spot_estimate, rep.spot_alpha) == spot_probe_loop(classes, size, h, arcs)


# peak RSS of `verify closeness --Y 1000000 --h-exponent 0.45 --Q 10` on a
# 2-core x86-64 host with numpy 2.4: 262 MB with one rfft of the 2^23-point
# grid, 150 MB with its half built from pieces of 2^20 points, 101 MB with
# the grid read by residue class, 2^19 points at a time; the bound sits halfway
# between the last two, so either side of it is far from the host's noise.
# Classes capped at CLASS_POINTS = 2^16 points read 74 MB.
CLOSENESS_PEAK_BOUND_MB = 125


@skip_without_proc
def test_closeness_peak_rss_at_one_million(tmp_path):
    argv = ["--out", tmp_path, "verify", "closeness", "--Y", "1000000", "--h-exponent", "0.45", "--Q", "10"]
    done = measure_cli(argv)
    assert done.code == 0, done.stderr
    assert done.peak_mb < CLOSENESS_PEAK_BOUND_MB


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@skip_without_proc
@pytest.mark.skipif(not _has_mallopt(), reason="the CLI keeps its freed heap through glibc's mallopt")
def test_closeness_keeps_its_transform_scratch_mapped(tmp_path):
    # Each class transform frees megabytes of pocketfft scratch.  Under glibc's
    # default thresholds that memory goes back to the kernel and the next
    # transform faults it in again: 51.9k minor faults against a peak of 15.8k
    # pages (3.3 times) on a 2-core x86-64 host with numpy 2.4, and 18.3k (1.2
    # times) with the heap kept by `cli.main`; 11k (0.8 times) once the
    # classes are blocks of 2^16-point transforms.
    argv = ["--out", tmp_path, "verify", "closeness", "--Y", "400000", "--h-exponent", "0.45", "--Q", "10"]
    done = measure_cli(argv)
    assert done.code == 0, done.stderr
    peak_pages = done.peak_mb * 2**20 / resource.getpagesize()
    assert done.minor_faults < 2 * peak_pages


@skip_without_proc
def test_closeness_beyond_two_million_faults_less_than_its_peak(tmp_path):
    # Classes of 2^(ceil(log2 span) - 1) points held 2^21 complex values at
    # Y = 3*10^6, 32 MB, four times the 8 MB mmap threshold of `cli.main`, so
    # each class transform mapped fresh pages: 352k-360k minor faults against a
    # peak of 62k pages on a 2-core x86-64 host with numpy 2.4.  Classes of at
    # most CLASS_POINTS points, in blocks of 4 MB at most, stay on the kept
    # heap: 18k faults against a peak of 41k pages.
    argv = ["--out", tmp_path, "verify", "closeness", "--Y", "3000000", "--h-exponent", "0.45", "--Q", "10"]
    done = measure_cli(argv)
    assert done.code == 0, done.stderr
    assert done.minor_faults < done.peak_mb * 2**20 / resource.getpagesize()
