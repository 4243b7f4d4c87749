"""Test-session setup.

One BLAS thread, as in the benchmark: small dense eigensolves slow down
many times over when a thread pool competes with other processes for
the cores. Pytest loads this file before any test module imports numpy.

Hypothesis runs derandomized, so every run draws the same examples; that
also turns off its example database, so no .hypothesis/ is written.
"""

import os

from hypothesis import settings

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
