"""Pin BLAS to one thread before any test module imports numpy.

On machines with few cores, OpenBLAS's default threading makes the small
64x64 eigh/matmul loops of the separability search slower, and its timing
noisier. An environment that already sets these variables keeps its values.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
