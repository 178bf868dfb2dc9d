import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from cmlab import arith, arithfn, errors, goldbach
from cmlab.arith import prime_weights, primes_bytes, rough_flags
from cmlab.arithfn import ArithFn, dense
from cmlab.cli import main
from cmlab.errors import CapacityError, ContractError, DomainError
from cmlab.goldbach import (
    PRESETS,
    PipelineConfig,
    desk_pipeline_inputs,
    exceptional_scan,
    restricted_prime_fn,
    run_pipeline,
    singular_series,
    singular_series_product,
)
from cmlab.models import (
    beta_sieve_weights,
    mertens_product,
    model_t_nu,
    lambda_q_short_sum,
    lambda_q_window,
    model_t_nu_plus,
    sieve_short_sum,
    untruncated_level,
)
import oracles
from oracles import (
    convolve,
    convolve_with_lambda_q_model,
    euler_phi,
    factorize,
    goldbach_count,
    mobius,
    singular_series_smooth_sum,
)


def square_window(lam: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """(lam*lam)(n) for lo <= n <= hi, lam given densely from 0 on at least
    [0, hi]: np.convolve's "valid" mode of lam on [lo - hi, hi] (0 below 0)
    against lam on [0, hi], at (hi - lo + 1)(hi + 1) multiply-adds."""
    lam = lam[: hi + 1]
    return np.convolve(np.concatenate([np.zeros(hi - lo), lam]), lam, "valid")


class TestExceptionalSet:
    def test_small_window_all_goldbach(self):
        assert exceptional_scan(100, 96).exceptions == ()

    def test_hand_window(self):
        # 8 = 3 + 5, 10 = 3 + 7 = 5 + 5
        assert exceptional_scan(10, 2).exceptions == ()

    def test_agrees_with_counting_oracle(self, flags_1e6):
        for x, h in [(5000, 200), (99_990, 50)]:
            reported = set(exceptional_scan(x, h).exceptions)
            for n in range(x - h if (x - h) % 2 == 0 else x - h + 1, x + 1, 2):
                assert (goldbach_count(n, flags_1e6) == 0) == (n in reported)

    def test_domain(self):
        with pytest.raises(DomainError):
            exceptional_scan(10, 8)
        with pytest.raises(DomainError):  # [105, 100] is empty, not free of exceptions
            exceptional_scan(100, -5)

    def test_beyond_the_pipeline_cap(self):
        # Oliveira e Silva, Herzog, Pardi (2014): every even n <= 4*10^18 is
        # p + q with a prime p < 10^4
        scan = exceptional_scan(10**12, 10**4)
        assert scan.exceptions == ()
        assert scan.p_bound == goldbach.LEAST_PRIME_START
        assert scan.max_least_prime < 10**4
        partner = scan.max_least_n - scan.max_least_prime
        assert factorize(partner).factors == ((partner, 1),)  # prime, by trial division

    def test_least_prime_record(self):
        # 503222 is the first even n whose least partition prime is 523
        scan = exceptional_scan(1_000_000, 1_000_000 - 4)
        assert (scan.max_least_prime, scan.max_least_n) == (523, 503_222)

    @pytest.mark.parametrize("x", [4, 5, 6, 7, 8, 9, 10, 12, 13, 100, 1001])
    def test_scan_from_four_against_brute_force(self, x, flags_1e6):
        # 4 = 2 + 2 is the one partition whose p is even; it must keep 4 out of E
        least = {n: next((p for p in range(2, n - 1) if flags_1e6[p] and flags_1e6[n - p]), None)
                 for n in range(4, x + 1, 2)}
        record = max(p for p in least.values() if p is not None)
        scan = exceptional_scan(x, x - 4)
        assert 4 not in scan.exceptions
        assert list(scan.exceptions) == [n for n, p in least.items() if p is None]
        assert (scan.max_least_prime, scan.max_least_n) == (record, min(n for n, p in least.items() if p == record))

    def test_record_tie_across_blocks_keeps_the_smallest_n(self, monkeypatch, flags_1e6):
        # on [4200, 4600] the largest least prime is attained at three n, each
        # in its own 64-block; the report must name the first of them
        least = {
            n: next(p for p in range(2, n) if flags_1e6[p] and flags_1e6[n - p])
            for n in range(4200, 4601, 2)
        }
        record = max(least.values())
        ties = [n for n, p in least.items() if p == record]
        assert len({(n - 4200) // 64 for n in ties}) >= 2
        monkeypatch.setattr(goldbach, "SCAN_BLOCK", 64)
        scan = exceptional_scan(4600, 400)
        assert (scan.max_least_prime, scan.max_least_n) == (record, ties[0])

    def test_growing_prime_bound_stays_exact(self, monkeypatch, flags_1e6):
        monkeypatch.setattr(goldbach, "LEAST_PRIME_START", 3)
        scan = exceptional_scan(5000, 200)
        assert scan.p_bound > 3
        assert list(scan.exceptions) == [n for n in range(4800, 5001, 2) if goldbach_count(n, flags_1e6) == 0]

    def test_working_set_over_cap_fails_up_front(self, monkeypatch):
        with pytest.raises(CapacityError):
            exceptional_scan(10**19, 10)  # the primes up to sqrt(X) alone are over the cap
        # the primes up to sqrt(10^6), then a block of 11 and [0, 10^4], at SCAN_BYTES per integer
        estimate = primes_bytes(1000) + goldbach.SCAN_BYTES * (11 + 10**4)
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate)
        assert exceptional_scan(10**6, 10).exceptions == ()
        with pytest.raises(CapacityError):
            exceptional_scan(10**6, 10_000)
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate - 1)
        with pytest.raises(CapacityError, match=f"needs {estimate} bytes"):
            exceptional_scan(10**6, 10)

    def test_blocks_bound_the_working_set_not_h(self, monkeypatch, flags_1e6):
        # the record n = 503222 is the last even n of the first 1024-block
        whole = exceptional_scan(504_200, 2000)
        assert whole.max_least_n == 503_222
        monkeypatch.setattr(goldbach, "SCAN_BLOCK", 1024)
        # a block of 1024 and [0, 10^4] fit, one of H + 1 does not
        monkeypatch.setattr(errors, "MEMORY_CAP", primes_bytes(710) + goldbach.SCAN_BYTES * (1024 + 10**4))
        assert exceptional_scan(504_200, 2000) == whole
        monkeypatch.setattr(goldbach, "LEAST_PRIME_START", 3)
        grown = exceptional_scan(5000, 4000)
        assert grown.p_bound > 3
        assert list(grown.exceptions) == [n for n in range(1000, 5001, 2) if goldbach_count(n, flags_1e6) == 0]


    @pytest.mark.parametrize("share", [1, 64, 10**9])
    def test_both_phases_of_the_sift_agree_with_the_oracle(self, monkeypatch, flags_1e6, share):
        # share 1 lists the survivors after the first p that decides an n, 10^9
        # sifts every block on the flags to the end; X - H = 4801 and 99939 are
        # odd, the first window's block starts below P = 10^4 and the second's above
        monkeypatch.setattr(goldbach, "SURVIVOR_SHARE", share)
        for x, h in [(5000, 199), (99_990, 51)]:
            want = [n for n in range(x - h + (x - h) % 2, x + 1, 2) if goldbach_count(n, flags_1e6) == 0]
            assert list(exceptional_scan(x, h).exceptions) == want
        # blocks of 64 and a prime bound that has to grow leave survivors in either phase
        monkeypatch.setattr(goldbach, "SCAN_BLOCK", 64)
        monkeypatch.setattr(goldbach, "LEAST_PRIME_START", 3)
        grown = exceptional_scan(5000, 399)
        assert grown.p_bound > 3
        assert list(grown.exceptions) == [n for n in range(4602, 5001, 2) if goldbach_count(n, flags_1e6) == 0]

    @pytest.mark.parametrize("x, h, record", [
        (10**6, 10**6 - 4, (523, 503_222)),
        (5 * 10**7, 10**5, (521, 49_934_824)),
        (10**7, 10**7 - 4, (751, 3_807_404)),
    ])
    def test_full_scans_keep_their_results(self, x, h, record):
        assert exceptional_scan(x, h) == goldbach.ExceptionalScan((), goldbach.LEAST_PRIME_START, *record)


class TestSingularSeries:
    def test_odd_vanishes_in_product_form(self):
        for n in (3, 9, 15, 1001):
            assert singular_series_product(n, 100) == 0.0

    def test_odd_partial_sums_decay(self):
        for n in (9, 15, 1001):
            assert abs(singular_series(n, 10_000)) <= 1e-2

    def test_even_lower_bound_sample(self):
        for n in (4, 6, 30, 90, 1024, 9998):
            assert singular_series_product(n, 100_000) >= 1.3

    def test_powers_of_two_are_minimal(self):
        values = {n: singular_series_product(n, 10_000) for n in range(4, 2001, 2)}
        base = values[1024]
        assert values[4] == pytest.approx(base, rel=1e-12)
        assert all(v >= base - 1e-12 for v in values.values())

    def test_series_equals_product_over_same_primes(self):
        for n in (4, 30, 90, 1024):
            assert singular_series_smooth_sum(n, 13) == pytest.approx(
                singular_series_product(n, 13), rel=1e-6
            )

    def test_partial_sums_converge(self):
        for n in (100, 1024, 9998):
            target = singular_series_product(n, 100_000)
            errs = [abs(singular_series(n, q) - target) for q in (100, 6400)]
            assert errs[1] < errs[0] / 5
            assert errs[1] < 1e-3

    def test_2c2_constant(self):
        # 2 * prod_{p>2} (1 - (p-1)^{-2}) = 1.3203...: the twin-prime constant doubled
        assert singular_series_product(4, 100_000) == pytest.approx(1.32032, abs=2e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            singular_series(1, 10)

    @pytest.mark.parametrize("q_max", [1, 4, 97, 1000])
    def test_equals_the_scalar_ascending_loop(self, q_max):
        for n in (2, 3, 9, 30, 97, 1024, 9999, 30030):
            total = 0.0
            for q in range(1, q_max + 1):
                if mobius(q) == 0:
                    continue
                qg = q // math.gcd(q, n)
                total += mobius(qg) * (euler_phi(q) // euler_phi(qg)) / euler_phi(q) ** 2
            assert singular_series(n, q_max) == total

    @pytest.mark.parametrize("q_max, block", [(97, goldbach.SERIES_VALUES), (1000, goldbach.SERIES_VALUES), (1000, 1)])
    def test_array_equals_the_scalar_ascending_loop(self, monkeypatch, q_max, block):
        # a table of n at once, in blocks of one n (block 1) or of many, sums each n
        # exactly as the loop over q does
        monkeypatch.setattr(goldbach, "SERIES_VALUES", block)
        ns = np.array([2, 3, 4, 9, 30, 97, 1024, 9999, 30030, 30031])
        loop = []
        for n in ns.tolist():
            total = 0.0
            for q in range(1, q_max + 1):
                if mobius(q) != 0:
                    qg = q // math.gcd(q, n)
                    total += mobius(qg) * (euler_phi(q) // euler_phi(qg)) / euler_phi(q) ** 2
            loop.append(total)
        assert singular_series(ns, q_max).tolist() == loop
        assert singular_series(ns.reshape(2, 5), q_max).tolist() == [loop[:5], loop[5:]]

    @pytest.mark.parametrize("bound", [13, 100, 100_000])
    @pytest.mark.parametrize("block", [goldbach.SERIES_VALUES, 1])
    def test_product_equals_the_direct_product(self, monkeypatch, bound, block):
        # oracle: the product of 1 + c_p(n) / (p - 1)^2 over every p <= bound, one n at a time
        monkeypatch.setattr(goldbach, "SERIES_VALUES", block)
        ns = np.array([*range(2, 64), 1024, 2310, 9999, 15015, 30030])
        ps = arith.cached_primes(bound)
        direct = [np.prod(1.0 + np.where(n % ps == 0, ps - 1.0, -1.0) / (ps - 1.0) ** 2) for n in ns.tolist()]
        got = singular_series_product(ns, bound)
        for n, value, want in zip(ns.tolist(), got.tolist(), direct):
            assert (value == 0.0) == (n % 2 == 1) == (want == 0.0)
            assert abs(value - want) <= 1e-14 * abs(want), n
            assert singular_series_product(n, bound) == value


def test_c_q_paths_do_not_factorize(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    # factorize is a test oracle: no module of the package binds it, so none
    # of the c_q paths below can reach it except through the oracles
    assert not [name for name, module in sys.modules.items() if name.startswith("cmlab") and hasattr(module, "factorize")]
    monkeypatch.setattr(oracles, "factorize", refuse)
    assert singular_series(30, 1000) > 0
    assert len(lambda_q_window(1000, 1100, 30)) == 100
    omega = ArithFn(3000, np.where(rough_flags(3000, 4000, 10.0), 0.09, 0.0))
    assert convolve_with_lambda_q_model(omega, 1000, 10, 1.0, 5000) > 0
    assert lambda_q_short_sum(100_000, 1000.0, 10, r=1, q_twist=6)[1] == 1000.0 / 2
    sieve = beta_sieve_weights(1000.0, 10.0, 1)
    assert sieve_short_sum(100_000, 1000.0, sieve, r=1, q_twist=3)[1] == -1000.0 / 2


class TestModelConvolution:
    def _omega(self, n, y, c=0.09, z=10.0):
        # exactly the n1 with n - n1 inside (y, 2y]
        lo, hi = n - 2 * y, n - y
        rough = rough_flags(lo, hi, z)
        return ArithFn(lo, np.where(rough, c, 0.0))

    def test_q1_collapses_to_plain_sum(self):
        omega = self._omega(2000, 500, z=1.0)
        got = convolve_with_lambda_q_model(omega, 500, 1, 0.8, 2000)
        assert got == pytest.approx(0.8 * float(np.sum(omega.values)))

    def test_shortcut_equals_direct_convolution(self):
        y = 1000
        n = 5000
        omega = self._omega(n, y)
        short = convolve_with_lambda_q_model(omega, y, 10, 1.0, n)
        direct = convolve(omega, model_t_nu(y, 10))(n)
        assert short == pytest.approx(direct, rel=1e-6)

    def test_prime_omega_shortcut_vs_direct(self):
        # omega = weighted primes on the window (primes > Q are Q-rough)
        y = 1000
        n = 5000
        omega = restricted_prime_fn((n - 2 * y, n - y))
        short = convolve_with_lambda_q_model(omega, y, 10, 0.5, n)
        direct = convolve(omega, model_t_nu(y, 10, 0.5))(n)
        assert short == pytest.approx(direct, rel=1e-6)

    def test_uniform_rough_omega_gives_partial_singular_series(self):
        y = 2000
        n = 10_000
        c_omega, c_nu = 0.09, 0.7
        omega = self._omega(n, y, c=c_omega)
        got = convolve_with_lambda_q_model(omega, y, 10, c_nu, n)
        rough_count = int(np.sum(omega.values != 0))
        expected = c_omega * c_nu * singular_series(n, 10) * rough_count
        assert got == pytest.approx(expected, rel=0.02)

    def test_contract_error_for_non_rough_support(self):
        omega = ArithFn(1200, np.ones(500))  # hits multiples of small primes
        with pytest.raises(ContractError):
            convolve_with_lambda_q_model(omega, 500, 10, 1.0, 2000)

    def test_sieves_the_support_once_and_never_builds_t(self, monkeypatch):
        checks = []

        def counted(omega, z):
            checks.append(z)
            return rough(omega, z)

        def refuse(*args):
            raise AssertionError("the model convolution materialized T")

        rough = oracles._is_rough_supported
        monkeypatch.setattr(oracles, "_is_rough_supported", counted)
        for name in ("model_t_nu", "convolve", "convolve_window"):
            monkeypatch.setattr(oracles, name, refuse, raising=False)
        omega = self._omega(5000, 1000)
        assert convolve_with_lambda_q_model(omega, 1000, 10, 1.0, 5000) > 0
        assert checks == [10]


class TestRestrictedPrimeFn:
    @pytest.mark.parametrize("window", [(0, 500), (1, 500), (2, 500), (100_000, 200_000)])
    def test_equals_the_cut_of_the_whole_table(self, window, monkeypatch):
        lo, hi = window
        whole = ArithFn(2, dense(prime_weights(2, 200_001), 2, 200_001)).embed(lo + 1, hi + 1)
        sieved = []

        def recording(start, stop):
            sieved.append((start, stop))
            return odd_flags(start, stop)

        odd_flags = arith.odd_prime_flags
        monkeypatch.setattr(arith, "odd_prime_flags", recording)
        f = restricted_prime_fn(window)
        assert f.support_start == lo + 1
        assert np.array_equal(f.values, whole)
        # the window itself, once; the base primes come from the cache, which
        # sieve_primes fills without passing through odd_prime_flags
        assert sieved == [(lo + 1, hi)]


class TestPipelineConfig:
    def test_desk_floors(self):
        config = PipelineConfig(200_000, big_q=10)
        assert (config.x, config.y, config.h, config.big_q) == (200_000, 1000, 64, 10)
        assert config.to_dict()["ideal"]["y"] == pytest.approx(200_000 ** (21 / 40))
        assert config.kappa == pytest.approx(1000 / math.log(1000))

    def test_given_y_sets_h_and_kappa(self):
        config = PipelineConfig(3_000_000, big_q=10, y=700_000)
        assert (config.h, config.kappa) == (66, 700_000 / math.log(700_000))
        given = PipelineConfig(3_000_000, big_q=10, y=700_000, h=100, kappa=5.0)
        assert (given.h, given.kappa) == (100, 5.0)

    @pytest.mark.parametrize("x, y", [(-5, None), (4, None), (200_000, 1), (200_000, -7)])
    def test_degenerate_x_or_y_is_a_domain_error(self, x, y):
        # no traceback from log(1), a complex power or the like
        with pytest.raises(DomainError, match="need 2 < H < Y < X"):
            PipelineConfig(x, big_q=10, y=y)

    def test_sift_below_two_is_a_domain_error(self):
        # T+ sifts to z = Q, so Q = 1 is refused with the config
        with pytest.raises(DomainError, match="need z >= 2"):
            PipelineConfig(200_000, big_q=1)

    def test_window_arithmetic(self):
        config = PipelineConfig(200_000, big_q=10)
        assert config.nu_window == (1000, 2000)
        assert config.omega_window == (197_000, 199_000)

    def test_validation(self):
        with pytest.raises(DomainError):
            PipelineConfig(x=100, h=10, y=200, big_q=3, kappa=10.0)

    @pytest.mark.parametrize("field", ["kappa", "c_nu"])
    def test_nan_fails_validation(self, field):
        # nan compares False with everything, so `kappa <= 0` alone let it through
        with pytest.raises(DomainError):
            PipelineConfig(200_000, big_q=10, **{field: math.nan})

    def test_desk_sieve_is_exact_rough_model(self):
        # the pipeline's default T+ (read from rough_flags) is the model of the
        # enumerated untruncated weights, bit for bit
        config = PRESETS["desk-small"]
        t_plus = model_t_nu_plus(config.y, config.big_q, config.c_nu)
        sieve = beta_sieve_weights(float(untruncated_level(config.big_q)), config.big_q)
        theta = sieve.theta_window(1001, 2001)
        assert np.array_equal(theta, rough_flags(1001, 2001, config.big_q).astype(np.int64))
        expected = (config.c_nu / mertens_product(config.big_q)) * theta.astype(np.float64)
        assert t_plus.support_start == 1001
        assert np.array_equal(t_plus.values, expected)


class TestPipeline:
    def test_collapsed_chain_is_exact(self):
        config = PipelineConfig(200_000, big_q=10)
        nu = restricted_prime_fn(config.nu_window)
        omega = restricted_prime_fn(config.omega_window)
        # a = nu + omega: nu*nu lives on (2Y, 4Y] and omega*omega beyond
        # 2(X - 3Y) > X, so a*a = 2 omega*nu on [X-H, X]
        both = ArithFn(nu.support_start, nu.embed(nu.support_start, omega.support_stop)
                       + omega.embed(nu.support_start, omega.support_stop))
        report = run_pipeline(config, nu, omega, both.points, t_nu=nu, t_nu_plus=nu)
        assert report.exceptions_step2 == 0
        assert report.exceptions_step4 == 0
        assert report.final_failures == 0
        assert report.odd_final_failures == 0
        assert report.minorization_violations == 0
        assert report.step_positivity_violations == 0

    def test_huge_kappa_clears_exceptions(self):
        config = PipelineConfig(200_000, big_q=10, kappa=1e18)
        nu, omega, a = desk_pipeline_inputs(config)
        report = run_pipeline(config, nu, omega, a)
        assert report.exceptions_step2 == 0
        assert report.exceptions_step4 == 0
        assert report.final_failures == 0

    def test_desk_small_run(self):
        config = PRESETS["desk-small"]
        nu, omega, a = desk_pipeline_inputs(config)
        report = run_pipeline(config, nu, omega, a)
        assert report.final_failures == 0
        assert report.step_positivity_violations == 0
        assert report.minorization_violations == 0
        assert report.even_count + report.odd_count == config.h + 1

    def test_counts_bounded_by_window(self):
        config = PRESETS["desk-small"]
        nu, omega, a = desk_pipeline_inputs(config)
        report = run_pipeline(config, nu, omega, a)
        for count in (report.exceptions_step2, report.exceptions_step4, report.final_failures):
            assert 0 <= count <= config.h + 1

    def test_representation_verdicts_match_exceptional_set(self, flags_1e6):
        # two independent code paths: a*a(n) > 0 versus the exhaustive search
        config = PRESETS["desk-small"]
        nu, omega, a = desk_pipeline_inputs(config)
        lam = dense(a(0, config.x + 1), 0, config.x + 1)
        conv = square_window(lam, config.x - config.h, config.x)
        missing = set(exceptional_scan(config.x, config.h).exceptions)
        for n, value in enumerate(conv, start=config.x - config.h):
            if n % 2:
                continue
            assert (value == 0) == (n in missing)

    def test_inputs_beyond_desk_cap_fail_up_front(self, monkeypatch):
        # the cap is checked when the config is built, so no config over it reaches the inputs or the run
        # (a segment's chunk of 2^16 integers and H = 64 more: their 2^17 + 64 dense values and the
        # transform on 5 * 2^14 points, 2.8 MiB)
        chunk = arithfn.chunk_length(64)
        transform = arithfn.TRANSFORM_BYTES * arithfn.transform_size(chunk + 64) + goldbach.VALUE_BYTES * (2 * chunk + 64)
        estimate = goldbach.pipeline_bytes(PRESETS["desk-small"])
        assert estimate == goldbach.VALUE_BYTES * goldbach.pipeline_working_set(PRESETS["desk-small"]) + transform
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate - 1)
        with pytest.raises(CapacityError, match=f"needs {estimate} bytes, beyond the cap"):
            PipelineConfig(200_000, big_q=10)
        monkeypatch.setattr(errors, "MEMORY_CAP", estimate)
        config = PipelineConfig(200_000, big_q=10)
        assert run_pipeline(config, *desk_pipeline_inputs(config)).working_set * goldbach.VALUE_BYTES + transform == estimate

    def test_bytes_count_the_transforms_the_run_takes(self):
        # H = 10^5: an a*a segment of 2^18 integers is one chunk, held dense with the H more
        # values it meets and transformed on 3 * 2^17 points (13.5 MiB), more than the
        # steps' Y + H values take
        config = PipelineConfig(1_000_000, big_q=10, y=200_000, h=100_000)
        segment, steps = goldbach.PIPELINE_SEGMENT, config.y
        transform = arithfn.TRANSFORM_BYTES * arithfn.transform_size(segment + config.h)
        assert transform >= arithfn.TRANSFORM_BYTES * arithfn.transform_size(steps + config.h)
        values = goldbach.pipeline_working_set(config) + 2 * segment + config.h
        assert goldbach.pipeline_bytes(config) == goldbach.VALUE_BYTES * values + transform

    def test_working_set_counts_y_not_x(self):
        # about 10^6 values at X = 10^9 (8 MB), the base primes, two segments and 10(Y + H)
        assert goldbach.pipeline_working_set(PipelineConfig(10**9, big_q=10)) < 1_100_000
        with pytest.raises(CapacityError):
            PipelineConfig(8 * 10**7, big_q=10, y=2 * 10**7)

    def test_support_misconfiguration_rejected(self):
        config = PipelineConfig(200_000, big_q=10)
        nu, omega, a = desk_pipeline_inputs(config)
        shifted = ArithFn(nu.support_start + 5_000, nu.values)
        with pytest.raises(ContractError):
            run_pipeline(config, shifted, omega, a)
        with pytest.raises(ContractError):
            run_pipeline(config, nu, shifted, a)

    def test_minorization_violation_detected(self):
        config = PipelineConfig(200_000, big_q=10)
        nu, omega, a = desk_pipeline_inputs(config)
        inflated = ArithFn(nu.support_start, nu.values * 2 + 1e-6)
        report = run_pipeline(config, inflated, omega, a)
        assert report.minorization_violations > 0

    def test_csv_and_json_reports(self, tmp_path):
        # the cli writes the report: the `# key = value` lines, then the table
        assert main(["--out", str(tmp_path), "pipeline", "--preset", "desk-small"]) == 0
        lines = (tmp_path / "pipeline-chain.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert rows[0] == ["n", "lambda_conv", "omega_model_conv", "verdict"]
        # one row per n in [X - H, X]
        config = PRESETS["desk-small"]
        assert [int(row[0]) for row in rows[1:]] == list(range(config.x - config.h, config.x + 1))
        summary = json.loads((tmp_path / "pipeline-summary.json").read_text())
        assert summary["report"]["final_failures"] == 0


class TestPipelineScaling:
    def test_transforms_hold_a_chunk_and_h_values_at_most(self, monkeypatch):
        # run_pipeline reads [X-H, X] through windows, never a full convolution: where
        # every sum goes dense, each transform's first factor holds one chunk of the
        # shorter factor and the H values beyond it at most, not Y or X values
        config = PipelineConfig(1_000_000, big_q=10, y=300_000, h=10_000)
        lengths = []
        monkeypatch.setattr(arithfn, "convolve_valid", lambda x, y, fn=arithfn.convolve_valid: (
            lengths.append(len(x)) or fn(x, y)))
        report = run_pipeline(config, *desk_pipeline_inputs(config))
        assert report.final_failures == 0
        assert len(lengths) == 24 and max(lengths) <= arithfn.chunk_length(config.h) + config.h

    def test_trimmed_steps_match_full_convolutions(self):
        config = PRESETS["desk-small"]
        nu, omega, a = desk_pipeline_inputs(config)
        report = run_pipeline(config, nu, omega, a)
        lam = dense(a(0, config.x + 1), 0, config.x + 1)
        ab = np.array([row[1] for row in report.rows])
        assert np.allclose(ab, square_window(lam, config.x - config.h, config.x), rtol=1e-12, atol=1e-6)

    @staticmethod
    def _count(monkeypatch, calls, *names):
        """Wrap each named goldbach function so that its calls append its name to calls."""
        def counted(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for name in names:
            monkeypatch.setattr(goldbach, name, counted(name, getattr(goldbach, name)))

    @staticmethod
    def _segment_paths(monkeypatch, *names):
        """One list per a*a segment of the calls it made to the named arithfn
        functions, in order: goldbach.add_convolution, which the stream alone
        calls, opens each list, and the steps' calls are not listed."""
        paths, inside = [], [False]

        def segment(*args):
            paths.append([])
            inside[0] = True
            try:
                return chooser(*args)
            finally:
                inside[0] = False

        def counted(name, fn):
            def wrapped(*args):
                if inside[0]:
                    paths[-1].append(name)
                return fn(*args)
            return wrapped

        chooser = goldbach.add_convolution
        monkeypatch.setattr(goldbach, "add_convolution", segment)
        for name in names:
            monkeypatch.setattr(arithfn, name, counted(name, getattr(arithfn, name)))
        return paths

    @pytest.mark.parametrize("preset", ["desk-small", "desk-medium"])
    def test_tiny_blocks_match_one_shot_convolution(self, preset, monkeypatch):
        # a*a streams [0, m0), m0 = ceil((X - H) / 2) = X/2 - 32 at both presets,
        # so the last of its segments of 1000 holds 968 integers
        config = PRESETS[preset]
        inputs = desk_pipeline_inputs(config)
        whole = run_pipeline(config, *inputs)
        calls = []
        self._count(monkeypatch, calls, "convolve_window")
        paths = self._segment_paths(monkeypatch, "convolve_valid", "add_rows")
        monkeypatch.setattr(goldbach, "PIPELINE_SEGMENT", 1000)
        monkeypatch.setattr(arithfn, "CHUNK", 1 << 7)
        report = run_pipeline(config, *inputs)
        m0 = -(-(config.x - config.h) // 2)
        lengths = [min(1000, m0 - s) for s in range(0, m0, 1000)]
        assert lengths[-1] == 968
        assert report.segments == len(lengths) == -(-m0 // 1000)
        # steps 2, 4, omega*T and the middle window take one convolve_window each
        # (the positivity step takes the rows directly), and each segment meets its
        # mirror as one sum of rows, with no dense chunk
        assert calls.count("convolve_window") == 4
        assert paths == [["add_rows"]] * len(lengths)
        assert report.summary() == whole.summary()
        lam = restricted_prime_fn((1, config.x)).embed(0, config.x + 1)
        ab = np.array([row[1] for row in report.rows])
        assert np.allclose(ab, square_window(lam, config.x - config.h, config.x), rtol=1e-12, atol=1e-6)
        assert [row[3] for row in report.rows] == [row[3] for row in whole.rows]

    @pytest.mark.parametrize("segment", [2492, 2500])
    def test_row_stream_is_the_convolution(self, segment, monkeypatch):
        # at X = 20000, m0 = 9968 = 4 * 2492: the segments tile [0, m0) exactly,
        # then with a short last one
        config = PipelineConfig(20_000, big_q=10)
        m0 = -(-(config.x - config.h) // 2)
        assert (m0 % segment == 0) == (segment == 2492)
        paths = self._segment_paths(monkeypatch, "add_rows", "convolve_valid")
        monkeypatch.setattr(goldbach, "PIPELINE_SEGMENT", segment)
        report = run_pipeline(config, *desk_pipeline_inputs(config))
        assert paths == [["add_rows"]] * report.segments
        assert report.segments == -(-m0 // segment)
        lam = dense(prime_weights(0, config.x + 1), 0, config.x + 1)
        want = np.convolve(lam, lam)[config.x - config.h : config.x + 1]
        ab = np.array([row[1] for row in report.rows])
        assert np.max(np.abs(ab - want)) <= 1e-12 * np.max(want)

    def test_either_side_of_the_cost_rule_gives_the_same_rows(self, monkeypatch):
        # TRANSFORM_COST 10^30 sums every segment as rows, 0 every one densely; the cost
        # holds inside the segments only, so the steps take their usual paths
        config = PRESETS["desk-small"]
        inputs = desk_pipeline_inputs(config)
        chooser, cost = goldbach.add_convolution, None

        def priced(*args):
            with monkeypatch.context() as patch:
                patch.setattr(arithfn, "TRANSFORM_COST", cost)
                return chooser(*args)

        monkeypatch.setattr(goldbach, "add_convolution", priced)
        paths = self._segment_paths(monkeypatch, "convolve_valid", "add_rows")
        monkeypatch.setattr(goldbach, "PIPELINE_SEGMENT", 1 << 14)
        monkeypatch.setattr(arithfn, "CHUNK", 1 << 12)
        m0 = -(-(config.x - config.h) // 2)
        lengths = [min(1 << 14, m0 - s) for s in range(0, m0, 1 << 14)]
        reports = []
        for cost in (10**30, 0):
            paths.clear()
            reports.append(run_pipeline(config, *inputs))
            if cost:
                assert paths == [["add_rows"]] * len(lengths)
            else:  # chunks of 2^12, as 4(H + 1) = 260 is less
                assert paths == [["convolve_valid"] * -(-n // (1 << 12)) for n in lengths]
        by_rows, chunks = reports
        assert by_rows.summary() == chunks.summary()
        assert [(n, om, verdict) for n, _, om, verdict in by_rows.rows] == [
            (n, om, verdict) for n, _, om, verdict in chunks.rows]
        ab_rows, ab_chunks = (np.array([row[1] for row in r.rows]) for r in reports)
        assert np.max(np.abs(ab_rows - ab_chunks)) <= 1e-12 * np.max(ab_chunks)

    @pytest.mark.parametrize("x", [200_000, 200_001])  # X - H even, then odd
    def test_half_stream_is_both_pairs(self, x, monkeypatch):
        config = PipelineConfig(x, big_q=10)
        assert config.h == 64
        nu, omega, a = desk_pipeline_inputs(config)
        reads = []

        def source(start, stop):
            reads.append((start, stop))
            return a(start, stop)

        monkeypatch.setattr(goldbach, "PIPELINE_SEGMENT", 1 << 12)
        same = run_pipeline(config, nu, omega, source)
        # before the stream, run_pipeline reads nu's window, omega's window and
        # the preimage of the steps; the stream's reads tile [0, X] with one
        # overlap of H per segment
        stream = reads[3:]
        m0 = -(-(x - config.h) // 2)
        assert stream[-1] == (m0, x - m0 + 1)  # the middle window, at most H + 1 values
        assert sum(stop - start for start, stop in stream) == same.values_streamed
        assert same.values_streamed == x + 1 + same.segments * config.h
        covered = np.zeros(x + 1, dtype=bool)
        for start, stop in stream:
            covered[start:stop] = True
        assert covered.all()

    @pytest.mark.parametrize("x", [200_000, 200_001])
    def test_split_matches_one_shot_convolution_on_dense_sources(self, x, monkeypatch):
        # Lambda' vanishes on even m, so it cannot tell where the halves meet;
        # sources that vanish nowhere do
        config = PipelineConfig(x, big_q=10)
        nu, omega, _ = desk_pipeline_inputs(config)

        def ones(start, stop):
            return np.arange(start, stop), np.ones(stop - start)

        def ramp(start, stop):
            m = np.arange(start, stop)
            return m, 1.0 + m % 7

        paths = self._segment_paths(monkeypatch, "add_rows", "convolve_valid")
        monkeypatch.setattr(goldbach, "PIPELINE_SEGMENT", 1 << 12)
        # every m is a point: at H = 64 the rows of a segment of n integers cost n * 65
        # against convolve_valid_cost(n + 64) for its transform; the price as it stands
        # takes one path or the other, TRANSFORM_COST 0 forces the transform and 10^30 the rows
        m0 = -(-(x - config.h) // 2)
        lengths = [min(1 << 12, m0 - s) for s in range(0, m0, 1 << 12)]
        priced = [["add_rows" if n * 65 <= arithfn.convolve_valid_cost(n + 64) else "convolve_valid"] for n in lengths]
        for cost, path in [(arithfn.TRANSFORM_COST, priced), (0, [["convolve_valid"]] * len(lengths)),
                           (10**30, [["add_rows"]] * len(lengths))]:
            monkeypatch.setattr(arithfn, "TRANSFORM_COST", cost)
            for a in (ones, ramp):
                paths.clear()
                report = run_pipeline(config, nu, omega, a)
                assert paths == path and report.segments == len(lengths)
                lam = dense(a(0, x + 1), 0, x + 1)
                ab = np.array([row[1] for row in report.rows])
                assert np.max(np.abs(ab - square_window(lam, x - config.h, x))) <= 1e-12 * np.max(ab)

    @pytest.mark.parametrize("m", [10, 150_000, 197_500, 199_500, 99_968, 100_032, 200_000])
    def test_negative_a_on_any_read_is_a_contract_error(self, m, monkeypatch):
        # 10 and 150000 are read only by the a*a stream, 197500 also by step 2
        # and the positivity step, 199500 also on omega's window; at segments of
        # 2^16, m0 = 99968 is read only by the middle window [m0, X - m0],
        # X - m0 = 100032 by it and the last mirror, X by the first mirror only
        config = PRESETS["desk-small"]
        nu, omega, a = desk_pipeline_inputs(config)

        def dented(start, stop):
            points, values = a(start, stop)
            if start <= m < stop:
                # every listed m is even, so not a prime: the dent is a new point
                at = int(np.searchsorted(points, m))
                assert at == len(points) or points[at] != m
                points, values = np.insert(points, at, m), np.insert(values, at, -1e-9)
            return points, values

        monkeypatch.setattr(goldbach, "PIPELINE_SEGMENT", 1 << 16)
        with pytest.raises(ContractError, match="a must be nonnegative"):
            run_pipeline(config, nu, omega, dented)

    @pytest.mark.parametrize("segment", [1 << 10, goldbach.PIPELINE_SEGMENT])
    def test_reads_stay_within_a_segment_or_a_window(self, segment, monkeypatch):
        config = PRESETS["desk-medium"]
        nu, omega, _ = desk_pipeline_inputs(config)
        longest = [0]

        def source(start, stop):
            longest[0] = max(longest[0], stop - start)
            return prime_weights(start, stop)

        monkeypatch.setattr(goldbach, "PIPELINE_SEGMENT", segment)
        report = run_pipeline(config, nu, omega, source)
        assert report.final_failures == 0
        assert longest[0] <= max(segment + config.h, 2 * config.y)
        assert longest[0] < config.x // 2

    @pytest.mark.parametrize("bend", [
        lambda start, stop: [start + 7, start + 5],
        lambda start, stop: [start + 5, start + 5],
        lambda start, stop: [start - 1, start + 5],
        lambda start, stop: [start + 5, stop],
    ], ids=["descending", "repeated", "before the range", "at its stop"])
    def test_points_out_of_order_or_range_are_a_contract_error(self, bend):
        config = PRESETS["desk-small"]
        nu, omega, _ = desk_pipeline_inputs(config)

        def bent(start, stop):
            return np.array(bend(start, stop)), np.ones(2)

        with pytest.raises(ContractError, match="ascending points inside"):
            run_pipeline(config, nu, omega, bent)

    def test_rows_on_a_sparse_source_of_both_parities(self, monkeypatch):
        # every segment as rows, on points of both parities that no sieve would give
        config = PipelineConfig(20_000, big_q=10)
        nu, omega, _ = desk_pipeline_inputs(config)
        rng = np.random.default_rng(3)
        a = np.where(rng.random(config.x + 1) < 0.2, rng.uniform(0.5, 2.0, config.x + 1), 0.0)

        def sparse(start, stop):
            m = start + np.flatnonzero(a[start:stop])
            return m, a[m]

        paths = self._segment_paths(monkeypatch, "add_rows", "convolve_valid")
        monkeypatch.setattr(arithfn, "TRANSFORM_COST", 10**30)
        monkeypatch.setattr(goldbach, "PIPELINE_SEGMENT", 1 << 12)
        report = run_pipeline(config, nu, omega, sparse)
        assert paths == [["add_rows"]] * report.segments
        want = np.convolve(a, a)[config.x - config.h : config.x + 1]
        ab = np.array([row[1] for row in report.rows])
        assert np.max(np.abs(ab - want)) <= 1e-12 * np.max(want)

    def test_rows_hold_bounded_memory_at_long_h(self, monkeypatch):
        # The rows counterpart of test_long_h_peak_rss: at H = 10^4 every segment
        # meets its mirror as rows, and gathering the rows of the 4675 primes below
        # m0 at once would hold 4675 (H + 1) values, 374 MB.  The rows hold a
        # piece of ROW_SPAN + H values and ROW_VALUES gathered ones at a time
        config = PipelineConfig(100_000, big_q=10, y=30_000, h=10_000)
        inputs = desk_pipeline_inputs(config)
        paths = self._segment_paths(monkeypatch, "add_rows", "convolve_valid")
        monkeypatch.setattr(arithfn, "TRANSFORM_COST", 10**30)
        tracemalloc.start()
        try:
            run_pipeline(config, *inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths == [["add_rows"]]
        assert peak < goldbach.pipeline_bytes(config)

    def test_chunks_hold_bounded_memory_at_long_h(self, monkeypatch):
        # The dense counterpart: at Y = 3*10^5 and H = 10^4 both steps and omega*T take
        # 4 chunks of 2^16 integers and one of 37856, the a*a segments 4 of 2^16 and
        # 3 of 2^16 and one of 36248, and the middle window one of H + 1, every one a
        # transform: the run holds one transform of at most a chunk at a time (19 MB
        # traced, against an estimate of 56 MB)
        config = PipelineConfig(1_000_000, big_q=10, y=300_000, h=10_000)
        inputs = desk_pipeline_inputs(config)
        taken = []
        monkeypatch.setattr(arithfn, "add_rows", lambda *args: taken.append("rows"))
        monkeypatch.setattr(arithfn, "convolve_valid", lambda x, y, fn=arithfn.convolve_valid: (
            taken.append(len(y)) or fn(x, y)))
        tracemalloc.start()
        try:
            run_pipeline(config, *inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(taken) == 24 and "rows" not in taken
        assert taken.count(arithfn.CHUNK) == 19 and max(taken) == arithfn.CHUNK
        assert peak < goldbach.pipeline_bytes(config)


class TestAddRows:
    """arithfn.add_rows against a double loop over every point p of a segment [s, stop)
    and every q of its mirror block [LO - stop + 1, HI - s] with LO <= p + q <= HI."""

    LO, HI = 1000, 1012  # H = 12

    @staticmethod
    def double_loop(low, mirror, lo, hi):
        ab = np.zeros(hi - lo + 1)
        for p, ap in zip(*low):
            for q, aq in zip(*mirror):
                if lo <= p + q <= hi:
                    ab[p + q - lo] += ap * aq
        return ab

    @pytest.mark.parametrize("span, values", [(8, 1), (8, 30), (5, 13), (arithfn.ROW_SPAN, arithfn.ROW_VALUES)],
                             ids=["one row a product", "two rows a product", "spans of 5", "defaults"])
    @pytest.mark.parametrize("s, stop, ms", [
        (0, 500, range(0, 1013)),  # every m
        (0, 500, np.flatnonzero(np.random.default_rng(1).random(1013) < 0.4)),  # both parities at random
        (0, 500, [1, 2, *range(3, 1013, 2)]),  # the point 2 and the odd m
        (137, 431, [311, *range(570, 1013)]),  # one point
        (137, 431, [137, 144, 145, 152, 153, 160, 161, 300, 430, *range(570, 876)]),  # on the edges of spans of 8
        (137, 431, range(431, 1013)),  # an empty low segment
        (137, 431, range(0, 570)),  # an empty mirror
    ], ids=["every m", "both parities", "2 and the odd m", "one point", "span edges", "empty low", "empty mirror"])
    def test_matches_a_double_loop(self, monkeypatch, span, values, s, stop, ms):
        monkeypatch.setattr(arithfn, "ROW_SPAN", span)
        monkeypatch.setattr(arithfn, "ROW_VALUES", values)
        ms = np.array(ms, dtype=np.int64)
        weights = np.random.default_rng(2).uniform(0.5, 2.0, len(ms))

        def a(start, stop):
            inside = (ms >= start) & (ms < stop)
            return ms[inside], weights[inside]

        low, mirror = a(s, stop), a(self.LO - stop + 1, self.HI - s + 1)
        ab = np.zeros(self.HI - self.LO + 1)
        arithfn.add_rows(ab, low, mirror, self.LO, self.HI)
        want = self.double_loop(low, mirror, self.LO, self.HI)
        assert np.allclose(ab, want, rtol=1e-13, atol=0)
        assert (ab == 0).all() == (len(low[0]) == 0 or len(mirror[0]) == 0)


class TestMinorizationReporting:
    def test_broken_minorant_fires_positivity_check(self):
        # a bump of omega at a composite m read by the window: a(m) = 0 < omega(m),
        # so (a - omega) * T+ goes negative wherever T+(n - m) > 0
        config = PRESETS["desk-small"]
        nu, omega, a = desk_pipeline_inputs(config)
        m = 198_000
        assert config.x - config.h - 2 * config.y <= m <= config.x - config.y - 1
        bumped = omega.values.copy()
        bumped[m - omega.support_start] += 1.0
        report = run_pipeline(config, nu, ArithFn(omega.support_start, bumped), a)
        assert report.step_positivity_violations > 0
        assert report.minorization_violations > 0

    def test_positivity_is_sign_exact_at_long_h(self, monkeypatch):
        # desk-medium at H = 1024, where the chooser would sum a difference a - omega
        # that is nonzero on the whole preimage of T+ (2437 rows) by one transform:
        # with every 50th prime of omega set to 0, omega <= a and T+ >= 0 hold, so
        # (a - omega) * T+ >= 0 exactly (it is 0 at most n); the transform read 64 of
        # those zeros as negative, the rows read none
        config = PipelineConfig(1_000_000, big_q=10, h=1024)
        nu, omega, a = desk_pipeline_inputs(config)
        t_plus = model_t_nu_plus(config.y, config.big_q)
        preimage = arithfn.window_preimage(t_plus, config.x - config.h, config.x)
        gap = ((np.arange(*preimage), np.ones(preimage[1] - preimage[0])), *preimage)
        model = (t_plus.points(t_plus.support_start, t_plus.support_stop), t_plus.support_start, t_plus.support_stop)
        taken = []
        with monkeypatch.context() as patch:
            patch.setattr(arithfn, "add_rows", lambda *args: taken.append("rows"))
            patch.setattr(arithfn, "convolve_valid", lambda x, y: taken.append("transform") or 0.0)
            arithfn.add_convolution(np.zeros(config.h + 1), gap, model, config.x - config.h, config.x)
        assert taken == ["transform"]
        values = omega.values.copy()
        primes = np.flatnonzero(values)
        values[primes[::50]] = 0.0
        report = run_pipeline(config, nu, ArithFn(omega.support_start, values), a)
        assert (report.step_positivity_violations, report.minorization_violations) == (0, 0)
        # the control: omega above a at one prime the step reads still counts
        m = primes[len(primes) // 2]
        values[m] *= 2.0
        assert preimage[0] <= omega.support_start + m < preimage[1]
        report = run_pipeline(config, nu, ArithFn(omega.support_start, values), a)
        assert report.step_positivity_violations > 0
        assert report.minorization_violations == 1

    def test_positivity_rows_run_over_the_gap_at_long_h(self, monkeypatch):
        # X = 10^6, Y = 2*10^5, H = 10^5, every 50th prime of omega at 0: the rows of
        # the positivity step run over exactly those primes in the preimage of T+,
        # (H+1) multiply-adds each, and read no violation
        config = PipelineConfig(1_000_000, big_q=10, y=200_000, h=100_000)
        nu, omega, a = desk_pipeline_inputs(config)
        cut = arithfn.window_preimage(model_t_nu_plus(config.y, config.big_q), config.x - config.h, config.x)
        values = omega.values.copy()
        zeroed = np.flatnonzero(values)[::50]
        values[zeroed] = 0.0
        rows = []
        add_rows = goldbach.add_rows
        monkeypatch.setattr(goldbach, "add_rows", lambda out, f, *args: rows.append(f[0]) or add_rows(out, f, *args))
        report = run_pipeline(config, nu, ArithFn(omega.support_start, values), a)
        assert (report.step_positivity_violations, report.minorization_violations) == (0, 0)
        m = omega.support_start + zeroed
        assert len(rows) == 1 and rows[0].tolist() == m[(cut[0] <= m) & (m < cut[1])].tolist()
        # the control: omega = a but doubled at one prime the step reads counts in both,
        # its one row the only one
        values = omega.values.copy()
        m = zeroed[len(zeroed) // 2]
        assert cut[0] <= omega.support_start + m < cut[1]
        values[m] *= 2.0
        report = run_pipeline(config, nu, ArithFn(omega.support_start, values), a)
        assert report.step_positivity_violations > 0
        assert report.minorization_violations == 1
        assert rows[1].tolist() == [omega.support_start + m]

    def test_omega_exceeding_a_is_counted_not_fatal(self):
        config = PipelineConfig(200_000, big_q=10)
        nu, omega, a = desk_pipeline_inputs(config)
        spiked = omega.values.copy()
        spiked[len(spiked) // 2] += 100.0  # omega > a at one point
        report = run_pipeline(config, nu, ArithFn(omega.support_start, spiked), a)
        assert report.minorization_violations >= 1
