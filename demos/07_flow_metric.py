"""A weighted distance between geodesics in the Cayley tree.

Two bi-infinite unit-speed paths are compared pointwise, with the
contribution at time t damped by 2^(-|t|); the integral of the damped
distance is a metric on the space of geodesics.  Each path is a
`FlowLineWindow`, the line type that `split` also reads: edge letters
around a basepoint, through an anchor vertex.  Moving the basepoint s
letters ahead, onto the vertex there, shifts the same path in time, and
that shift and lines that split at a vertex both have closed-form values,
reproduced here next to the truncation tail bound.
"""

import numpy as np

from repdyn.words import FlowLineWindow, Word, flow_metric, random_word

LOG2 = np.log(2.0)

# --- the same line, shifted by s: distance is constant ------------------
fwd = [1, 2] * 24
back = [2, 1] * 24
g = FlowLineWindow.from_rays(Word([]), fwd, back)
for s in (1, 2, 3):
    # the same path from the basepoint s letters ahead: h(t) = g(t + s)
    h = FlowLineWindow(g.letters_between(-48, 48), 48, basepoint_offset=s,
                       anchor=g.vertex(s))
    d = flow_metric(g, h, half_width=40)
    print(f"shift {s}: value {d.value:.6f}   closed form {2 * s / LOG2:.6f}   "
          f"tail bound {d.tail_bound:.1e}")

# --- same future, pasts split at the basepoint --------------------------
one = FlowLineWindow.from_rays(Word([]), [1] * 48, [-2] * 48)
two = FlowLineWindow.from_rays(Word([]), [1] * 48, [2] * 48)
d = flow_metric(one, two, half_width=40)
print(f"\nsplitting pasts: value {d.value:.6f}   "
      f"closed form {2 / LOG2 ** 2:.6f}")

# --- a small pairwise matrix over random geodesics ----------------------
rng = np.random.default_rng(7)
pool = []
while len(pool) < 4:
    f = random_word(2, 44, rng)
    b = random_word(2, 44, rng)
    try:
        pool.append(FlowLineWindow.from_rays(Word([]), f.letters, b.letters))
    except ValueError:
        continue

print("\npairwise distances (T = 40):")
for i in range(4):
    row = [flow_metric(pool[i], pool[j], half_width=40).value for j in range(4)]
    print("  " + "  ".join(f"{v:8.4f}" for v in row))
