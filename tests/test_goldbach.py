import io
import math
import sys

import numpy as np
import pytest

from cmlab import arithfn, goldbach, models
from cmlab.arith import euler_phi, interval_prime_flags, mobius, rough_flags
from cmlab.arithfn import ArithFn, convolve
from cmlab.errors import CapacityError, ContractError, DomainError
from cmlab.goldbach import (
    PRESETS,
    PipelineConfig,
    convolve_with_lambda_q_model,
    desk_config,
    desk_pipeline_inputs,
    exceptional_scan,
    exceptional_set,
    goldbach_count,
    restricted_prime_fn,
    run_pipeline,
    singular_series,
    singular_series_product,
    singular_series_smooth_sum,
)
from cmlab.models import (
    LambdaQParams,
    beta_sieve_weights,
    mertens_product,
    model_t_nu,
    lambda_q_short_sum,
    lambda_q_window,
    model_t_nu_plus,
    sieve_short_sum,
    untruncated_level,
)


class TestExceptionalSet:
    def test_small_window_all_goldbach(self):
        assert exceptional_set(100, 96) == []

    def test_hand_window(self):
        # 8 = 3 + 5, 10 = 3 + 7 = 5 + 5
        assert exceptional_set(10, 2) == []

    def test_agrees_with_counting_oracle(self, flags_1e6):
        for x, h in [(5000, 200), (99_990, 50)]:
            reported = set(exceptional_set(x, h))
            for n in range(x - h if (x - h) % 2 == 0 else x - h + 1, x + 1, 2):
                assert (goldbach_count(n, flags_1e6) == 0) == (n in reported)

    def test_domain(self):
        with pytest.raises(DomainError):
            exceptional_set(10, 8)

    def test_beyond_the_pipeline_cap(self):
        # Oliveira e Silva, Herzog, Pardi (2014): every even n <= 4*10^18 is
        # p + q with a prime p < 10^4
        scan = exceptional_scan(10**12, 10**4)
        assert exceptional_set(10**12, 10**4) == []
        assert scan.p_bound == goldbach.LEAST_PRIME_START
        assert scan.max_least_prime < 10**4
        partner = scan.max_least_n - scan.max_least_prime
        assert interval_prime_flags(partner, partner)[0]

    def test_least_prime_record(self):
        # 503222 is the first even n whose least partition prime is 523
        scan = exceptional_scan(1_000_000, 1_000_000 - 4)
        assert (scan.max_least_prime, scan.max_least_n) == (523, 503_222)

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
            exceptional_set(10**17, 10)  # sqrt(X) alone is over the cap
        # sqrt(10^6) + block + 10^4 against a cap of 2 * 10^4
        monkeypatch.setattr(goldbach, "SCAN_CAP", 20_000)
        assert exceptional_set(10**6, 10) == []
        with pytest.raises(CapacityError):
            exceptional_set(10**6, 10_000)

    def test_blocks_bound_the_working_set_not_h(self, monkeypatch, flags_1e6):
        # the record n = 503222 is the last even n of the first 1024-block
        whole = exceptional_scan(504_200, 2000)
        assert whole.max_least_n == 503_222
        monkeypatch.setattr(goldbach, "SCAN_BLOCK", 1024)
        monkeypatch.setattr(goldbach, "SCAN_CAP", 12_000)  # sqrt(X) + 1023 + 10^4 fits, H does not
        assert exceptional_scan(504_200, 2000) == whole
        monkeypatch.setattr(goldbach, "LEAST_PRIME_START", 3)
        grown = exceptional_scan(5000, 4000)
        assert grown.p_bound > 3
        assert list(grown.exceptions) == [n for n in range(1000, 5001, 2) if goldbach_count(n, flags_1e6) == 0]


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


def test_c_q_paths_do_not_factorize(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    for name, module in list(sys.modules.items()):
        if name.startswith("cmlab") and hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", refuse)
    assert singular_series(30, 1000) > 0
    models._lambda_q_residue_table.cache_clear()
    assert len(lambda_q_window(1000, 1100, 30)) == 100
    params = LambdaQParams(big_q=10, window=(1000, 2000), c_nu=1.0)
    omega = ArithFn(3000, np.where(rough_flags(3000, 4000, 10.0), 0.09, 0.0))
    assert convolve_with_lambda_q_model(omega, params, 5000) > 0
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
        params = LambdaQParams(big_q=1, window=(500, 1000), c_nu=0.8)
        omega = self._omega(2000, 500, z=1.0)
        got = convolve_with_lambda_q_model(omega, params, 2000)
        assert got == pytest.approx(0.8 * float(np.sum(omega.values)))

    def test_shortcut_equals_direct_convolution(self):
        y = 1000
        params = LambdaQParams(big_q=10, window=(y, 2 * y), c_nu=1.0)
        n = 5000
        omega = self._omega(n, y)
        short = convolve_with_lambda_q_model(omega, params, n)
        direct = convolve(omega, model_t_nu(params))(n)
        assert short == pytest.approx(direct, rel=1e-6)

    def test_prime_omega_shortcut_vs_direct(self):
        # omega = weighted primes on the window (primes > Q are Q-rough)
        y = 1000
        n = 5000
        params = LambdaQParams(big_q=10, window=(y, 2 * y), c_nu=0.5)
        omega = restricted_prime_fn(2 * n, (n - 2 * y, n - y))
        short = convolve_with_lambda_q_model(omega, params, n)
        direct = convolve(omega, model_t_nu(params))(n)
        assert short == pytest.approx(direct, rel=1e-6)

    def test_uniform_rough_omega_gives_partial_singular_series(self):
        y = 2000
        n = 10_000
        c_omega, c_nu = 0.09, 0.7
        params = LambdaQParams(big_q=10, window=(y, 2 * y), c_nu=c_nu)
        omega = self._omega(n, y, c=c_omega)
        got = convolve_with_lambda_q_model(omega, params, n)
        rough_count = int(np.sum(omega.values != 0))
        expected = c_omega * c_nu * singular_series(n, 10) * rough_count
        assert got == pytest.approx(expected, rel=0.02)

    def test_contract_error_for_non_rough_support(self):
        params = LambdaQParams(big_q=10, window=(500, 1000), c_nu=1.0)
        omega = ArithFn(1200, np.ones(500))  # hits multiples of small primes
        with pytest.raises(ContractError):
            convolve_with_lambda_q_model(omega, params, 2000)

    def test_sieves_the_support_once_and_never_builds_t(self, monkeypatch):
        checks = []

        def counted(omega, z):
            checks.append(z)
            return rough(omega, z)

        def refuse(*args):
            raise AssertionError("the model convolution materialized T")

        rough = goldbach._is_rough_supported
        monkeypatch.setattr(goldbach, "_is_rough_supported", counted)
        for name in ("model_t_nu", "convolve", "convolve_window"):
            monkeypatch.setattr(goldbach, name, refuse)
        params = LambdaQParams(big_q=10, window=(1000, 2000), c_nu=1.0)
        omega = self._omega(5000, 1000)
        assert convolve_with_lambda_q_model(omega, params, 5000) > 0
        assert checks == [10]


class TestPipelineConfig:
    def test_desk_floors(self):
        config = desk_config(200_000, big_q=10)
        assert (config.x, config.y, config.h, config.big_q) == (200_000, 1000, 64, 10)
        assert config.ideal["y"] == pytest.approx(200_000 ** (21 / 40))
        assert config.kappa == pytest.approx(1000 / math.log(1000))

    def test_window_arithmetic(self):
        config = desk_config(200_000, big_q=10)
        assert config.nu_window == (1000, 2000)
        assert config.omega_window == (197_000, 199_000)

    def test_validation(self):
        with pytest.raises(DomainError):
            PipelineConfig(x=100, h=10, y=200, big_q=3, a_power=1.0, c_nu=1.0,
                           kappa=10.0, theta_target=0.1)

    def test_desk_sieve_is_exact_rough_model(self):
        # the pipeline's default T+ (read from rough_flags) is the model of the
        # enumerated untruncated weights, bit for bit
        config = PRESETS["desk-small"]()
        t_plus = model_t_nu_plus(config.lambda_q_params(), config.big_q)
        sieve = beta_sieve_weights(float(untruncated_level(config.big_q)), config.big_q)
        theta = sieve.theta_window(1001, 2001)
        assert np.array_equal(theta, rough_flags(1001, 2001, config.big_q).astype(np.int64))
        expected = (config.c_nu / mertens_product(config.big_q)) * theta.astype(np.float64)
        assert t_plus.support_start == 1001
        assert np.array_equal(t_plus.values, expected)


class TestPipeline:
    def test_collapsed_chain_is_exact(self):
        config = desk_config(200_000, big_q=10)
        nu = restricted_prime_fn(config.x, config.nu_window)
        omega = restricted_prime_fn(config.x, config.omega_window)
        report = run_pipeline(config, nu, omega, a=omega, b=nu, t_nu=nu, t_nu_plus=nu)
        assert report.exceptions_step2 == 0
        assert report.exceptions_step4 == 0
        assert report.final_failures == 0
        assert report.odd_final_failures == 0
        assert report.minorization_violations == 0
        assert report.step_positivity_violations == 0

    def test_huge_kappa_clears_exceptions(self):
        from dataclasses import replace

        config = replace(desk_config(200_000, big_q=10), kappa=1e18)
        nu, omega, a, b = desk_pipeline_inputs(config)
        report = run_pipeline(config, nu, omega, a, b)
        assert report.exceptions_step2 == 0
        assert report.exceptions_step4 == 0
        assert report.final_failures == 0

    def test_desk_small_run(self):
        config = PRESETS["desk-small"]()
        nu, omega, a, b = desk_pipeline_inputs(config)
        report = run_pipeline(config, nu, omega, a, b)
        assert report.final_failures == 0
        assert report.step_positivity_violations == 0
        assert report.minorization_violations == 0
        assert report.even_count + report.odd_count == config.h + 1

    def test_counts_bounded_by_window(self):
        config = PRESETS["desk-small"]()
        nu, omega, a, b = desk_pipeline_inputs(config)
        report = run_pipeline(config, nu, omega, a, b)
        for count in (report.exceptions_step2, report.exceptions_step4, report.final_failures):
            assert 0 <= count <= config.h + 1

    def test_representation_verdicts_match_exceptional_set(self, flags_1e6):
        # two independent code paths: a*b(n) > 0 versus the exhaustive search
        config = PRESETS["desk-small"]()
        nu, omega, a, b = desk_pipeline_inputs(config)
        conv = ArithFn(a.support_start + b.support_start, arithfn._convolve_fft(a.values, b.values))
        missing = set(exceptional_set(config.x, config.h))
        for n in range(config.x - config.h, config.x + 1):
            if n % 2:
                continue
            assert (abs(conv(n)) < 1.0) == (n in missing)

    def test_inputs_beyond_desk_cap_fail_up_front(self):
        with pytest.raises(CapacityError):
            desk_pipeline_inputs(desk_config(goldbach.DESK_X_CAP + 2))

    def test_support_misconfiguration_rejected(self):
        config = desk_config(200_000, big_q=10)
        nu, omega, a, b = desk_pipeline_inputs(config)
        shifted = ArithFn(nu.support_start + 5_000, nu.values)
        with pytest.raises(ContractError):
            run_pipeline(config, shifted, omega, a, b)
        with pytest.raises(ContractError):
            run_pipeline(config, nu, shifted, a, b)

    def test_minorization_violation_detected(self):
        config = desk_config(200_000, big_q=10)
        nu, omega, a, b = desk_pipeline_inputs(config)
        inflated = ArithFn(nu.support_start, nu.values * 2 + 1e-6)
        report = run_pipeline(config, inflated, omega, a, b)
        assert report.minorization_violations > 0

    def test_csv_and_json_reports(self):
        config = PRESETS["desk-small"]()
        nu, omega, a, b = desk_pipeline_inputs(config)
        report = run_pipeline(config, nu, omega, a, b)
        buf = io.StringIO()
        report.write_csv(buf)
        text = buf.getvalue()
        assert text.startswith("#")
        header_rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert header_rows[0] == "n,lambda_conv,omega_model_conv,verdict"
        assert len(header_rows) == 1 + config.h + 1
        js = report.to_json()
        assert '"final_failures": 0' in js


class TestPipelineScaling:
    def test_pipeline_makes_no_full_convolution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_pipeline must read [X-H, X] through convolve_window")

        monkeypatch.setattr(goldbach, "convolve", refuse)
        config = PRESETS["desk-small"]()
        report = run_pipeline(config, *desk_pipeline_inputs(config))
        assert report.final_failures == 0

    def test_trimmed_steps_match_full_convolutions(self):
        config = PRESETS["desk-small"]()
        nu, omega, a, b = desk_pipeline_inputs(config)
        report = run_pipeline(config, nu, omega, a, b)
        full = ArithFn(a.support_start + b.support_start, arithfn._convolve_fft(a.values, b.values))
        ab = np.array([row[1] for row in report.rows])
        assert np.allclose(ab, [full(n) for n, *_ in report.rows], rtol=1e-12, atol=1e-6)


class TestMinorizationReporting:
    def test_broken_minorant_fires_positivity_check(self):
        # a bump of omega at a composite m read by the window: a(m) = 0 < omega(m),
        # so (a - omega) * T+ goes negative wherever T+(n - m) > 0
        config = PRESETS["desk-small"]()
        nu, omega, a, b = desk_pipeline_inputs(config)
        m = 198_000
        assert config.x - config.h - 2 * config.y <= m <= config.x - config.y - 1
        bumped = omega.values.copy()
        bumped[m - omega.support_start] += 1.0
        report = run_pipeline(config, nu, ArithFn(omega.support_start, bumped), a, b)
        assert report.step_positivity_violations > 0
        assert report.minorization_violations > 0

    def test_omega_exceeding_a_is_counted_not_fatal(self):
        config = desk_config(200_000, big_q=10)
        nu, omega, a, b = desk_pipeline_inputs(config)
        spiked = omega.values.copy()
        spiked[len(spiked) // 2] += 100.0  # omega > a at one point
        report = run_pipeline(config, nu, ArithFn(omega.support_start, spiked), a, b)
        assert report.minorization_violations >= 1
