"""Test session set-up: single-threaded BLAS/OpenMP pools.

The tests solve many small dense systems, where a multi-threaded
OpenBLAS pool only busy-waits; on a loaded machine that waiting can
push the wall-clock gates of test_acceptance past their limits.  The
variables must be set before numpy is first imported, and setdefault
leaves an explicit choice from the environment in place.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
