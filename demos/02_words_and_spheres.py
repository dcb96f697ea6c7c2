"""Reduced words, spheres in the free group, and matrix evaluation.

Generator sets are indexed by signed letters (1, -1, 2, -2, ...), words
are reduced tuples of letters, and the sphere of radius L holds every
reduced word of that length.  This script counts spheres, evaluates a few
products, and shows the overflow guard refusing a product that leaves
float64 range.
"""

import numpy as np

from repdyn.domination import GeneratorSet
from repdyn.errors import NumericOverflowError
from repdyn.words import Word, count_sphere, enumerate_sphere, evaluate

# --- sphere sizes grow like 4 * 3^(L-1) for rank 2 ----------------------
for length in range(5):
    print(f"rank-2 sphere of radius {length}: {count_sphere(2, length)} words")

# --- words reduce on multiplication -------------------------------------
w = Word([1, 2, -1])
print("\nword:", w.letters)
print("inverse:", w.inverse().letters)
print("w * w^-1:", (w * w.inverse()).letters)
print("w^2 (note the cancellation at the seam):", (w ** 2).letters)

# --- evaluation multiplies generator images letter by letter ------------
a = np.diag([4.0, 0.25])
theta = np.pi / 4
r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
gens = GeneratorSet([a, r @ a @ r.T], names=("a", "b"))
for letters in ([1], [1, 2], [1, -2, 1]):
    word = Word(letters)
    product = evaluate(word, gens)
    print(f"\n|{gens.word_name(word)}| has top singular value "
          f"{np.linalg.svd(product, compute_uv=False)[0]:.4f}")

# --- radius-3 sphere, enumerated in shortlex order ----------------------
sphere = list(enumerate_sphere(2, 3))
print(f"\nfirst five of {len(sphere)} radius-3 words:",
      [gens.word_name(w) for w in sphere[:5]])

# --- a product that leaves float64 range raises -------------------------
steep = GeneratorSet([np.diag([1e6, 1e-6])])
try:
    evaluate(Word([1] * 60), steep)
except NumericOverflowError as err:
    print(f"\noverflow: {err}")
