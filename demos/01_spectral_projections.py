"""Log singular values versus log eigenvalue moduli, on worked examples.

The two chamber-valued projections of a matrix — sorted log singular
values and sorted log eigenvalue moduli — agree for normal matrices,
disagree for sheared ones, and reconverge under high powers.  This script
walks through both on matrices whose answers are known in closed form.
Both kernels take a stack of matrices and give a row per matrix; here each
stack holds one matrix.
"""

import numpy as np

from repdyn.linalg import log_eigenvalue_moduli, log_singular_values


def cartan(m):
    """Sorted log singular values of one matrix."""
    return log_singular_values(m[None])[0]


def jordan(m):
    """Sorted log eigenvalue moduli of one matrix."""
    return log_eigenvalue_moduli(m[None])[0]


# --- a symmetric matrix where both projections have closed forms --------
m = np.array([[3.0, 1.0], [1.0, 1.0]])
print("matrix [[3,1],[1,1]]")
print("  log singular values:", cartan(m))
print("  closed form:        ", np.log([2.0 + np.sqrt(2.0), 2.0 - np.sqrt(2.0)]))

e = np.array([[2.0, 1.0], [1.0, 1.0]])
print("matrix [[2,1],[1,1]]")
print("  log eigenvalue moduli:", jordan(e))
print("  closed form:          ", np.log([(3.0 + np.sqrt(5.0)) / 2.0,
                                          (3.0 - np.sqrt(5.0)) / 2.0]))

# --- a shear separates the two projections ------------------------------
shear = np.array([[2.0, 5.0], [0.0, 0.5]])
print("\nshear [[2,5],[0,1/2]]")
print("  singular projection:  ", cartan(shear))
print("  eigenvalue projection:", jordan(shear))

# --- ... and high powers close most of the gap --------------------------
# the shear contributes a constant offset, so the normalized difference
# from the eigenvalue projection shrinks like 1/power; the 64th power has
# condition ~4e39, which the kernel reads in closed form without a warning
p = np.linalg.matrix_power(shear, 64)
print("  singular projection of the 64th power, divided by 64:")
print("   ", cartan(p) / 64.0)
print("  eigenvalue projection for comparison:")
print("   ", jordan(shear))

# --- the inverse acts by the opposition involution v -> -v[::-1] ---------
print("\ninvolution check: projection of the inverse")
print("  measured:", cartan(np.linalg.inv(shear)))
print("  predicted:", -cartan(shear)[::-1])
