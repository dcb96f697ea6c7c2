"""Invariant splittings along flow lines, with measured rates.

Transporting fibers along a periodic line through the Cayley tree gives a
matrix cocycle.  For a partially hyperbolic generator this cocycle splits
into expanding, neutral, and contracting blocks; the splitting is
estimated from singular subspaces at the window ends, and the rates are
fitted from per-step stretches in frames re-estimated along the way.
"""

import warnings

import numpy as np

from repdyn.domination import GeneratorSet
from repdyn.errors import ConditionWarning, DegenerateGapError
from repdyn.flowbundle import build_trajectory, estimate_splitting, measure_rates
from repdyn.words import FlowLineWindow

# windows this deep push products to condition 2^96; that is expected here
warnings.simplefilter("ignore", ConditionWarning)

g = np.diag([2.0, 1.0, 0.5])


def line(width):
    return FlowLineWindow([1] * (2 * width), width)


# --- the constant diagonal line: everything is exact --------------------
# the analyses take a group of lines and return one result per line
[traj] = build_trajectory(GeneratorSet([g]), [line(24)])
[split] = estimate_splitting(traj, k=1)
print("constant diagonal line, window 24")
print(f"  splitting residual {split.residual:.2e}, "
      f"independence {split.independence:.4f}")
print(f"  expanding direction: {np.round(split.v_plus.basis.ravel(), 6)}")
[rates] = measure_rates(traj, k=1)
print(f"  expansion rate  a_plus  = {rates.a_plus:.9f}  (log 2 = {np.log(2):.9f})")
print(f"  contraction rate a_minus = {rates.a_minus:.9f}")
print(f"  dominance rates: {rates.aprime_plus_zero:.6f}, "
      f"{rates.aprime_zero_minus:.6f}")

# --- a rotated copy, measured through a deep window ---------------------
c1, s1, c2, s2 = np.cos(0.6), np.sin(0.6), np.cos(0.7), np.sin(0.7)
rot = np.array([[c1, -s1, 0], [s1, c1, 0], [0, 0, 1.0]]) @ np.array(
    [[1.0, 0, 0], [0, c2, -s2], [0, s2, c2]]
)
[moved] = build_trajectory(GeneratorSet([rot @ g @ rot.T]), [line(48)])
[rates] = measure_rates(moved, k=1)
print("\nrotated copy, window 48")
print(f"  a_plus  = {rates.a_plus:.6f}")
print(f"  a_minus = {rates.a_minus:.6f}")

# --- a rotation has no gap anywhere: the estimate refuses ---------------
spin = np.array([[np.cos(0.9), -np.sin(0.9), 0],
                 [np.sin(0.9), np.cos(0.9), 0],
                 [0.0, 0.0, 1.0]])
try:
    estimate_splitting(build_trajectory(GeneratorSet([spin]), [line(12)])[0], k=1)
except DegenerateGapError as err:
    print(f"\nrotation line: {err}")
