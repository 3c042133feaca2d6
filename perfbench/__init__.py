"""Stage benchmark for the isoprobe CLI; run it with ``python3 perfbench/run.py``."""

# BLAS and OpenMP size their thread pools when numpy loads, so the entry
# point pins these to 1 before anything imports numpy.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
