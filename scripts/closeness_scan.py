#!/usr/bin/env python3
"""Scan the short-interval closeness of the models across window exponents.

For a fixed Y and Q, sweeps H = Y^e over a grid of exponents e and records the
normalized closeness of (weighted primes vs Lambda_Q model) and (Lambda_Q model
vs sieve model).  The interesting question at desk scale is how fast the
functionals grow as the frequency window 1/H widens.

Usage:
    python scripts/closeness_scan.py [--Y 100000] [--Q 10] [--out OUT_DIR]
"""

import argparse
import csv
import sys
from pathlib import Path

from cmlab.arithfn import l2_norm_sq
from cmlab.closeness import closeness_integral
from cmlab.goldbach import restricted_prime_fn
from cmlab.models import LambdaQParams, model_t_nu, model_t_nu_plus, untruncated_sieve

EXPONENTS = [0.20, 0.25, 0.30, 0.35, 0.40, 0.45]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--Y", dest="y", type=int, default=100_000)
    parser.add_argument("--Q", dest="big_q", type=int, default=10)
    parser.add_argument("--out", default="cmlab-out")
    args = parser.parse_args()

    y, big_q = args.y, args.big_q
    params = LambdaQParams(big_q=big_q, window=(y, 2 * y), c_nu=1.0)
    primes_fn = restricted_prime_fn(2 * y, (y, 2 * y))
    t_nu = model_t_nu(params)
    t_plus = model_t_nu_plus(params, untruncated_sieve(big_q))
    ref = l2_norm_sq(primes_fn)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"closeness-scan-Y{y}-Q{big_q}.csv"
    with open(path, "w", newline="") as fh:
        fh.write(f"# Y = {y}\n# Q = {big_q}\n# reference_norm = {ref!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["h_exponent", "h", "theta_primes_vs_model", "theta_model_vs_sieve"])
        for e in EXPONENTS:
            h = y**e
            r1 = closeness_integral(primes_fn, t_nu, h, reference_norm=ref)
            r2 = closeness_integral(t_nu, t_plus, h, reference_norm=ref)
            writer.writerow([e, f"{h:.3f}", f"{r1.theta_effective:.8f}", f"{r2.theta_effective:.8f}"])
            print(
                f"e={e:.2f} H={h:9.1f}: theta(primes, model)={r1.theta_effective:.6f} "
                f"theta(model, sieve)={r2.theta_effective:.6f}"
            )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
