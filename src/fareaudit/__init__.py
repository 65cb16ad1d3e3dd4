"""Deterministic audit toolkit for gig-platform driver data-export bundles."""

import os

# Parallelism is --jobs processes. A second OpenBLAS thread gains nothing and
# stalls each threaded call while an idle CPU wakes; this runs before any
# module imports numpy, and a value the user has set is left alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
