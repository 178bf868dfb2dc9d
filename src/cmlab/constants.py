"""Pinned empirical constants and regression baselines.

The short-sum and Gallagher bounds carry unspecified absolute constants, so the
harnesses measure the worst error-to-budget ratio over deterministic grids and
assert it below a fixed ceiling.  The measured values recorded here are frozen
regression baselines: reruns of the same grid or seed must stay within
baseline * REGRESSION_HEADROOM.

Provenance: each baseline was measured on the first complete run of the default
deterministic grid or seed noted beside it (numpy 2.2, float64), then rounded
UP in the last digit so bit-level FFT differences across BLAS builds cannot
trip the check.
"""

from dataclasses import dataclass

# hard ceilings, asserted on every run
SHORT_SUM_RATIO_CEILING = 4.0  # major-arc and sieve short-sum sweeps
GALLAGHER_RATIO_CEILING = 20.0  # lhs/rhs over seeded random +-1 functions
PIPELINE_FINAL_FAILURE_FRACTION_CEILING = 0.01  # even n of [X-H, X] whose final bound fails

# reruns must stay within this factor of the recorded baseline
REGRESSION_HEADROOM = 1.10

# default_lambda_q_sweep(big_q=10, scale="small"), 124 points; measured 0.01313
LAMBDA_Q_SWEEP_BASELINE = 0.0140
# default_sieve_sweep(scale="small"), 200 points over three systems; measured 0.17877
SIEVE_SWEEP_BASELINE = 0.190
# 100 random +-1 functions, span 10^4 at start 10^4, Delta = 50, seed 7; measured 4.23536
GALLAGHER_RANDOM_BASELINE = 4.30
# closeness at Y = 10^5, H = Y^0.3, Q = 10, reference ||weighted primes||_2^2;
# measured 0.047973 and 0.006905
THETA_PRIMES_VS_MODEL_BASELINE = 0.0500
THETA_MODEL_VS_SIEVE_BASELINE = 0.00750
# desk-small pipeline (X = 2*10^5, Y = 1000, H = 64, Q = 10), fractions of the
# h+1 = 65 chain evaluations; measured 0/33 even failures, 18 and 14 exceptions
PIPELINE_FINAL_FAILURE_FRACTION_BASELINE = 0.0
PIPELINE_STEP2_EXCEPTION_FRACTION_BASELINE = 0.30
PIPELINE_STEP4_EXCEPTION_FRACTION_BASELINE = 0.25


@dataclass(frozen=True)
class Check:
    """One verdict, value <= bound, with its signed margin (bound - value) / |bound|,
    or bound - value when the bound is 0: negative when value exceeds the bound."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)

    @property
    def margin(self) -> float:
        room = float(self.bound - self.value)
        return room / abs(self.bound) if self.bound else room


def regression(name: str, value: float, baseline: float, point, measured_at) -> list[Check]:
    """value <= baseline * REGRESSION_HEADROOM, as a one-check list at the parameter point
    where the baseline was measured; anywhere else the baseline says nothing: no check."""
    return [Check(name, value, baseline * REGRESSION_HEADROOM)] if point == measured_at else []
