"""Three screens of the linear part of an affine action.

A group acting affinely with compact linear part forces eigenvalue 1 in
every linear image (the normalized determinant det(rho(g) - I) must vanish
identically), and singular values of linear images must stay bounded.
The screens read only the linear part rho, so each generator set below
holds the linear parts; the translations do not enter.  This script runs
all three checks on a form-preserving fixture that passes, and on a
homothety that fails immediately.
"""

import numpy as np
from scipy.linalg import expm

from repdyn.affine import bounded_singular_check, eigenvalue_norm_one_check, hks_test
from repdyn.domination import GeneratorSet

# the exponential of an infinitesimally form-preserving matrix: its
# eigenvalues come in (mu, 1, 1/mu) triples, so eigenvalue 1 is exact
x = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
h = expm(0.3 * x)
good = GeneratorSet([h])

report = hks_test(good, L_max=8)
print("form-preserving fixture")
print(f"  determinant test: passed={report.passed}, "
      f"max normalized |det(rho(g)-I)| = {report.max_normalized:.2e}")

eig = eigenvalue_norm_one_check(good, L_max=8)
print(f"  eigenvalue test:  passed={eig.passed}, "
      f"worst |log lambda| = {eig.worst_deviation:.2e}")

bounded = bounded_singular_check(good, L_max=8)
print(f"  bounded singular values: passed={bounded.passed}, "
      f"fitted slope {bounded.slope:.2e}")

# --- a homothety fails everything at length 1 ---------------------------
bad = GeneratorSet([np.diag([2.0, 2.0])])
report = hks_test(bad, L_max=4)
print("\nhomothety control")
print(f"  determinant test: passed={report.passed}, "
      f"first failure at length {report.first_fail_length}; "
      f"largest violation by {bad.word_name(report.worst_word)}")
eig = eigenvalue_norm_one_check(bad, L_max=4)
print(f"  eigenvalue test:  passed={eig.passed}, "
      f"worst deviation {eig.worst_deviation:.4f} "
      f"at length {eig.worst_length}")
