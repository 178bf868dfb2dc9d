"""Desk-scale circle-method laboratory.

Modules:
  arith       primes, the mu/phi table, rough numbers, Lambda' on a window
  arithfn     finitely supported real functions: windowed convolution, spectra, norms
  characters  Ramanujan sums c_q(n) by their closed form
  models      the major-arc model Lambda_Q and the rescaled upper-bound sieve
  closeness   Farey dissection, Gallagher functional, closeness estimates
  goldbach    exceptional sets, singular series, the minorant-transfer pipeline
  cli         experiment runner (`cmlab ...`)

The package holds what a `cmlab` subcommand reaches, and exports only such
names; the reference implementations the tests check it against live in
tests/oracles.py.
"""

from .arith import sieve_primes
from .arithfn import ArithFn, convolve_window, l2_norm_sq
from .characters import ramanujan_sum
from .closeness import closeness_integral, farey_dissection, gallagher_lhs, gallagher_rhs
from .goldbach import (
    PipelineConfig,
    PipelineReport,
    exceptional_scan,
    run_pipeline,
    singular_series,
    singular_series_product,
)
from .models import (
    SieveSystem,
    beta_sieve_weights,
    lambda_q_short_sum,
    model_t_nu,
    model_t_nu_plus,
    sieve_short_sum,
)

__version__ = "0.1.0"
