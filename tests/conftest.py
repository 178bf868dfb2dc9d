import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

import cmlab
from oracles import odd_only_sieve


@pytest.fixture(scope="session")
def flags_1e6():
    """flags[n] = (n is prime) for n <= 10^6, from the sieve that does not read cmlab's."""
    flags = np.zeros(1_000_001, dtype=bool)
    flags[odd_only_sieve(1_000_000)] = True
    return flags


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240211)


# Runs `cmlab.cli.main(argv)` and prints the child's VmHWM after the imports,
# its VmHWM at the end, the largest nbytes any require_memory call was given
# and the minor page faults the child took in all.  VmHWM is the child's own
# high-water mark; ru_maxrss would not do, as on Linux it carries the parent's
# peak across fork and exec.
_PROBE = """
import resource, sys
limit = int(sys.argv[1])
if limit:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from cmlab import cli, errors


def peak_kb():
    return int(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')).split()[1])


base = peak_kb()
largest = 0
check = errors.require_memory


def recorded(what, nbytes):
    global largest
    largest = max(largest, nbytes)
    check(what, nbytes)


for name, module in list(sys.modules.items()):
    if name.split('.')[0] == 'cmlab' and getattr(module, 'require_memory', None) is check:
        module.require_memory = recorded
code = cli.main(sys.argv[2:])
print(base, peak_kb(), largest, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
sys.exit(code)
"""


class Measured(NamedTuple):
    code: int
    peak_mb: Optional[float]  # None when the child died before it could print
    base_mb: Optional[float]  # the peak after the imports, before main ran
    estimate_mb: Optional[float]  # the largest estimate met against the cap
    minor_faults: Optional[int]  # the child's ru_minflt, imports included
    stderr: str


def measure_cli(argv: list, address_space: Optional[int] = None, timeout: float = 300) -> Measured:
    """Run `cmlab argv` in a child interpreter, its address space limited to
    address_space bytes when given, and report its exit code and peak RSS."""
    src = Path(cmlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _PROBE, str(address_space or 0), *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=timeout)
    fields = done.stdout.split()[-4:]
    if len(fields) < 4:
        return Measured(done.returncode, None, None, None, None, done.stderr)
    base_kb, peak_kb, largest, faults = map(int, fields)
    return Measured(done.returncode, peak_kb / 1024, base_kb / 1024, largest / 2**20, faults, done.stderr)


skip_without_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                       reason="reads VmHWM from /proc/self/status")
