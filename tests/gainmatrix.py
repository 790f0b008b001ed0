"""The stage gain matrix G rebuilt from a solution's trace.

The recursion does not keep G: it is mean_outer_weight[k+1] outer(mean) +
cov_weight[k+1] Cov(O_k), and the trace holds both weights. The expression
is the one EquilibriumSolution.gain_eigenvalues decomposes, elementwise, so
the matrix is bitwise the same.
"""

import numpy as np

import mvequil as mv


def gain_matrix(spec, trace, k: int) -> np.ndarray:
    moments = mv.derive_excess_moments(spec)
    mean_ex, cov_ex = moments.mean_excess[k], moments.cov_excess[k]
    return trace.mean_outer_weight[k + 1] * np.outer(mean_ex, mean_ex) + trace.cov_weight[k + 1] * cov_ex
