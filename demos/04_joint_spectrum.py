"""The normalized eigenvalue cone and its zero-index structure.

Jordan projections of all words, divided by word length, accumulate on a
compact convex set.  For a dominated set in dimension n with index k, the
coordinates where those normalized vectors vanish must stay inside the
middle window {k+1, ..., n-k}.  A ping-pong pair padded with a trivial
extra coordinate makes the window nonempty and the structure visible.
"""

import numpy as np

from repdyn.domination import GeneratorSet
from repdyn.spectrum import (
    containment_check,
    involution_symmetry_check,
    sample_cone,
)

a = np.diag([4.0, 0.25])
theta = np.pi / 4
r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
b = r @ a @ r.T


def pad(m):
    out = np.zeros((3, 3))
    out[:2, :2] = m
    out[2, 2] = 1.0
    return out


gens = GeneratorSet([pad(a), pad(b)], names=("a", "b"))

cone = sample_cone(gens, m_max=8)
print(f"sampled {sum(len(level) for level in cone.levels.values())} words "
      f"up to length {cone.m_used}")
print(f"hull affine dimension: {cone.hull_affine_dim}")
print(f"cloud movement at the last length step (Hausdorff): "
      f"{cone.hausdorff:.5f}")

# each level is columnar: one row per word in every array
level = cone.levels[4]
print("\na few normalized samples at length 4:")
for row in range(3):
    zero = tuple(int(i) + 1 for i in np.flatnonzero(level.zero[row]))
    print(f"  {gens.word_name(level.word(row)):16s} "
          f"jordan/m = {np.round(level.jordan[row], 4)} zero indices {zero}")

# --- zero indices must stay inside the middle window --------------------
report = containment_check(cone, k=1)
print(f"\ncontainment for k=1: passed={report.passed}, "
      f"window={report.window}, C_hat={report.C_hat:.4f}")
print(f"  {report.n_zero} of {report.n_samples} samples touch a wall")

# --- the two-dimensional set has no window at all -----------------------
flat = containment_check(sample_cone(GeneratorSet([a, b]), m_max=6), k=1)
print(f"control without the trivial block: passed={flat.passed} "
      f"({flat.reason})")

# --- inverses pair up exactly under the opposition involution -----------
# w and w^-1 are evaluated independently, so at length 8 the two
# eigensolves only agree to the condition number of the products (~1e9
# here) times machine epsilon; widen the default 1e-8 tolerance for that
sym = involution_symmetry_check(cone, tol=1e-6)
print(f"\ninvolution symmetry: passed={sym.passed}, "
      f"largest paired deviation {sym.max_deviation:.2e}")
