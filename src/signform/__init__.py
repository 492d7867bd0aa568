"""Information-theoretic estimation of form-meaning systematicity in lexica.

The package trains phone-level language models with and without access to
word meaning, measures the mutual information between word forms and meaning
vectors as a difference of cross-entropies, attaches permutation-based
significance to the estimates, and mines initial and final phone sequences
that carry meaning on their own.
"""

import os

# One BLAS thread, set before numpy loads: signform.forkrun says why.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
