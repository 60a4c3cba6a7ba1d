"""Benchmark entry point: ``python3 bench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, from the root of a checkout.

It runs the package from ``src/`` of the same checkout and refuses to run
anything else, so a copy of this directory without the sources exits with
an error instead of timing an installed package.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# one BLAS thread: steadier timings on a shared machine, and the recorded
# thread count is then known rather than guessed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, SRC)

try:
    import hjbctrl  # noqa: E402
except ImportError as e:
    sys.exit(f"error: cannot import hjbctrl from {SRC}: {e}")
if os.path.dirname(os.path.abspath(hjbctrl.__file__)) != os.path.join(SRC, "hjbctrl"):
    sys.exit(f"error: hjbctrl was imported from {hjbctrl.__file__}, not from {SRC}")

from pipeline import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], T_START))
