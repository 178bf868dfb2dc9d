"""Desk-scale circle-method laboratory.

Modules:
  arith       primes, multiplicative functions, rough numbers, weighted primes
  arithfn     finitely supported real functions: convolution, Fourier side, norms
  characters  Dirichlet characters, Gauss sums, Ramanujan sums
  models      the major-arc model Lambda_Q and the rescaled upper-bound sieve
  closeness   Farey dissection, Gallagher functional, closeness estimates
  goldbach    exceptional sets, singular series, the minorant-transfer pipeline
  cli         experiment runner (`cmlab ...`)
"""

from .arith import euler_phi, is_rough, mobius, sieve_primes, weighted_prime_fn
from .arithfn import ArithFn, convolve, convolve_window, fourier_eval, l1_norm, l2_norm_sq
from .characters import characters_mod, exponential_from_characters, gauss_sum, ramanujan_sum
from .closeness import closeness_integral, farey_dissection, gallagher_lhs, gallagher_rhs
from .goldbach import (
    PipelineConfig,
    PipelineReport,
    desk_config,
    exceptional_scan,
    exceptional_set,
    run_pipeline,
    singular_series,
    singular_series_product,
)
from .models import (
    LambdaQParams,
    SieveSystem,
    beta_sieve_weights,
    lambda_q,
    lambda_q_short_sum,
    model_t_nu,
    model_t_nu_plus,
    sieve_short_sum,
)

__version__ = "0.1.0"
