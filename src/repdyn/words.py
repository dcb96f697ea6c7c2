"""Reduced words in a free group, sphere scans, and flow lines on the tree.

Letters are nonzero integers: ``i`` is the i-th generator (1-based) and
``-i`` its inverse.  A :class:`Word` is an immutable reduced letter sequence;
multiplication cancels.  The alphabet is ordered ``1 < -1 < 2 < -2 < ...``
and spheres enumerate in shortlex order with respect to it.

Beyond plain words the module models unit-speed parametrized lines in the
Cayley tree: :class:`FlowLineWindow` is a window of edge letters around a
movable basepoint (the discrete translation flow shifts the basepoint), and
:class:`TreeGeodesic` pins an actual vertex path so distances between two
lines can be integrated against the weight ``2**-|t|`` (`flow_metric`).

Scan policies select between exhaustive sphere enumeration
(:class:`Exhaustive`) and seeded random sampling (:class:`Sampled`).
`iter_sphere_products` is the one sphere engine behind every scan: it yields
each sphere as stacked letter and product arrays, building an exhaustive
sphere from the previous one with a single stacked multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

import numpy as np

from .errors import EnumerationSizeError, NumericOverflowError, WindowBoundsError

# exhaustive enumeration refuses spheres larger than this
ENUMERATION_CAP = 2**63

LOG2 = np.log(2.0)

# closed-form moments of 2**-u on [0, 1]: against (1 - u) and against u
_WEIGHT_MOMENT_1 = (1.0 - LOG2) / (2.0 * LOG2**2)
_WEIGHT_MOMENT_0 = 1.0 / (2.0 * LOG2) - _WEIGHT_MOMENT_1


def letter_rank(letter):
    """Position of a letter (or of each in an array) in the order 1, -1, 2, -2, ..."""
    return 2 * (abs(letter) - 1) + (letter < 0)


def alphabet(rank: int) -> list[int]:
    """All letters for a free group of the given rank, in alphabet order."""
    out = []
    for i in range(1, rank + 1):
        out.extend((i, -i))
    return out


@total_ordering
class Word:
    """An immutable reduced word.

    Construction rejects unreduced input (adjacent ``x, -x``); use ``*`` for
    multiplication with cancellation.  Ordering is shortlex.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters=()):
        letters = tuple(int(l) for l in letters)
        for l in letters:
            if l == 0:
                raise ValueError("letters must be nonzero integers")
        for a, b in zip(letters, letters[1:]):
            if b == -a:
                raise ValueError(f"word {letters} is not reduced")
        self._letters = letters

    @property
    def letters(self) -> tuple[int, ...]:
        return self._letters

    def __len__(self):
        return len(self._letters)

    def __iter__(self):
        return iter(self._letters)

    @property
    def is_identity(self) -> bool:
        return not self._letters

    @property
    def is_cyclically_reduced(self) -> bool:
        return len(self._letters) < 2 or self._letters[0] != -self._letters[-1]

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self._letters)))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        left = list(self._letters)
        right = list(other._letters)
        while left and right and left[-1] == -right[0]:
            left.pop()
            right.pop(0)
        return Word(tuple(left) + tuple(right))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        out = Word()
        for _ in range(k):
            out = out * self
        return out

    def shortlex_key(self):
        return (len(self._letters), tuple(letter_rank(l) for l in self._letters))

    def __eq__(self, other):
        return isinstance(other, Word) and self._letters == other._letters

    def __lt__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.shortlex_key() < other.shortlex_key()

    def __hash__(self):
        return hash(self._letters)

    def __repr__(self):
        return f"Word({list(self._letters)!r})"


def count_sphere(rank: int, length: int) -> int:
    """Number of reduced words of exactly the given length."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def enumerate_sphere(rank: int, length: int):
    """Yield every reduced word of the given length, in shortlex order.

    Raises :class:`EnumerationSizeError` when the sphere exceeds
    ENUMERATION_CAP elements.
    """
    if count_sphere(rank, length) > ENUMERATION_CAP:
        raise EnumerationSizeError(
            f"sphere of length {length} in rank {rank} exceeds the enumeration cap"
        )
    letters = alphabet(rank)

    def descend(prefix):
        if len(prefix) == length:
            yield Word(prefix)
            return
        for l in letters:
            if prefix and l == -prefix[-1]:
                continue
            yield from descend(prefix + (l,))

    yield from descend(())


def random_word(rank: int, length: int, rng) -> Word:
    """Draw a uniformly random reduced word of the given length.

    ``rng`` is a :func:`numpy.random.default_rng` instance or a seed.
    """
    rng = np.random.default_rng(rng)
    letters = alphabet(rank)
    out = []
    for _ in range(length):
        if out:
            choices = [l for l in letters if l != -out[-1]]
        else:
            choices = letters
        out.append(choices[rng.integers(len(choices))])
    return Word(out)


def evaluate(word, gens) -> np.ndarray:
    """Multiply generator images left to right along a word.

    ``gens`` must provide ``image(letter)`` and ``dim``.  Raises
    :class:`NumericOverflowError` naming the prefix length at which the
    product left float64 range.
    """
    letters = word.letters if isinstance(word, Word) else tuple(word)
    product = np.eye(gens.dim)
    for i, l in enumerate(letters):
        product = _checked(product @ gens.image(l), i + 1)
    return product


def _checked(products, length):
    if not np.isfinite(products).all():
        raise NumericOverflowError(
            f"product overflowed after {length} letters", prefix_length=length
        )
    return products


@dataclass(frozen=True)
class Exhaustive:
    """Scan policy: enumerate whole spheres."""


@dataclass(frozen=True)
class Sampled:
    """Scan policy: draw ``count`` random words per sphere from seed ``seed``."""

    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sampled scans need at least one word per sphere")


def sampled_words(rank: int, length: int, policy: Sampled, inversion_closed=False):
    """Deterministic list of sampled words for one sphere.

    The seed is mixed with the length so different spheres draw different
    words.  With ``inversion_closed`` the list is closed under inversion and
    deduplicated, preserving first-seen order.
    """
    rng = np.random.default_rng([policy.seed, length])
    words = [random_word(rank, length, rng) for _ in range(policy.count)]
    if inversion_closed:
        closed = []
        seen = set()
        for w in words:
            for cand in (w, w.inverse()):
                if cand.letters not in seen:
                    seen.add(cand.letters)
                    closed.append(cand)
        words = closed
    return words


def iter_sphere_products(gens, L_max: int, policy=Exhaustive(),
                         inversion_closed=False):
    """Yield ``(letters, products)`` for the spheres of length 1 .. L_max.

    ``letters`` is an ``(N, L)`` integer array holding one word per row and
    ``products`` the ``(N, n, n)`` stack of their images; neither may be
    mutated.  Exhaustive spheres come in shortlex order, each built from the
    previous one by one stacked multiply with the allowed next letters.
    Sampled spheres are the `sampled_words` draws in draw order, evaluated
    with one stacked multiply per letter.  Raises
    :class:`NumericOverflowError` at the first sphere holding a product
    outside float64 range, and :class:`EnumerationSizeError` before an
    exhaustive sphere larger than ENUMERATION_CAP.
    """
    size = 2 * gens.rank
    letter_set = np.array(alphabet(gens.rank), dtype=np.min_scalar_type(-size))
    images = np.stack([gens.image(l) for l in letter_set])
    # alphabet positions allowed after position r; r ^ 1 holds its inverse
    children = np.array([[c for c in range(size) if c != r ^ 1] for r in range(size)])
    for L in range(1, L_max + 1):
        if isinstance(policy, Sampled):
            drawn = sampled_words(gens.rank, L, policy, inversion_closed)
            letters = np.array([w.letters for w in drawn], dtype=letter_set.dtype)
            products = np.eye(gens.dim)  # broadcast against the stack below
            for i in range(L):
                products = _checked(products @ images[letter_rank(letters[:, i])], i + 1)
        elif count_sphere(gens.rank, L) > ENUMERATION_CAP:
            raise EnumerationSizeError(
                f"sphere of length {L} in rank {gens.rank} exceeds the enumeration cap"
            )
        elif L == 1:
            letters, products = letter_set[:, None], _checked(images, 1)
        else:
            nxt = children[letter_rank(letters[:, -1])].ravel()
            fan = children.shape[1]
            letters = np.concatenate(
                [np.repeat(letters, fan, axis=0), letter_set[nxt, None]], axis=1
            )
            products = _checked(np.repeat(products, fan, axis=0) @ images[nxt], L)
        yield letters, products


def map_sphere_products(gens, L_max: int, stat, policy=Exhaustive(),
                        inversion_closed=False) -> list:
    """``stat(letters, products)`` of each complete sphere 1 .. L_max, in order.

    The list stops before the first sphere whose products, or whose
    statistic, raise :class:`NumericOverflowError`; a list shorter than
    ``L_max`` marks a truncated scan.
    """
    out = []
    try:
        for letters, products in iter_sphere_products(
            gens, L_max, policy, inversion_closed
        ):
            out.append(stat(letters, products))
    except NumericOverflowError:
        pass
    return out


def shortlex_argmin(values, letters) -> int:
    """Row of the smallest value, ties going to the shortlex-first word.

    ``letters`` holds the equal-length word of each row, as yielded by
    `iter_sphere_products`.  A NaN counts as smallest, as in ``np.argmin``.
    """
    first = int(np.argmin(values))
    tied = np.flatnonzero(values == values[first])
    if tied.size < 2:
        return first
    ranks = letter_rank(letters[tied])
    return int(tied[np.lexsort(ranks.T[::-1])[0]])


class FlowLineWindow:
    """A window of a bi-infinite reduced edge-letter sequence with a basepoint.

    ``letters`` holds the edge letters at absolute positions ``-T .. T-1``
    (the letter at position ``j`` labels the edge from time ``j`` to
    ``j + 1``).  The discrete translation flow moves the basepoint offset;
    positions are always addressed relative to the current basepoint.
    """

    __slots__ = ("_letters", "_half_width", "_offset")

    def __init__(self, letters, half_width: int, basepoint_offset: int = 0):
        letters = tuple(int(l) for l in letters)
        if half_width < 1:
            raise ValueError("half width must be at least 1")
        if len(letters) != 2 * half_width:
            raise ValueError(
                f"expected {2 * half_width} letters for half width {half_width}"
            )
        for l in letters:
            if l == 0:
                raise ValueError("letters must be nonzero integers")
        for a, b in zip(letters, letters[1:]):
            if b == -a:
                raise ValueError("edge letter sequence is not reduced")
        if abs(basepoint_offset) > half_width:
            raise WindowBoundsError(
                f"basepoint offset {basepoint_offset} exceeds half width {half_width}"
            )
        self._letters = letters
        self._half_width = half_width
        self._offset = basepoint_offset

    @property
    def half_width(self) -> int:
        return self._half_width

    @property
    def basepoint_offset(self) -> int:
        return self._offset

    @property
    def usable_half_width(self) -> int:
        """How far the window extends symmetrically around the basepoint."""
        return self._half_width - abs(self._offset)

    def letter(self, i: int) -> int:
        """Edge letter from relative time ``i`` to ``i + 1``."""
        j = self._offset + i
        if not -self._half_width <= j < self._half_width:
            raise WindowBoundsError(f"relative position {i} is outside the window")
        return self._letters[j + self._half_width]

    def __eq__(self, other):
        return (
            isinstance(other, FlowLineWindow)
            and self._letters == other._letters
            and self._half_width == other._half_width
            and self._offset == other._offset
        )

    def __hash__(self):
        return hash((self._letters, self._half_width, self._offset))

    def __repr__(self):
        return (
            f"FlowLineWindow(half_width={self._half_width}, "
            f"offset={self._offset}, letters={list(self._letters)!r})"
        )

    @classmethod
    def periodic(cls, pattern, half_width: int) -> "FlowLineWindow":
        """Tile a cyclically reduced pattern across the window."""
        pattern = pattern if isinstance(pattern, Word) else Word(pattern)
        if pattern.is_identity:
            raise ValueError("pattern must be nonempty")
        if not pattern.is_cyclically_reduced:
            raise ValueError("pattern must be cyclically reduced")
        p = pattern.letters
        letters = [p[j % len(p)] for j in range(-half_width, half_width)]
        return cls(letters, half_width)

    @classmethod
    def random(cls, rank: int, half_width: int, seed) -> "FlowLineWindow":
        """Draw a uniformly random reduced window."""
        rng = np.random.default_rng(seed)
        w = random_word(rank, 2 * half_width, rng)
        return cls(w.letters, half_width)


def shift_flow(line: FlowLineWindow, t: int) -> FlowLineWindow:
    """Translate the basepoint by ``t`` units along the line.

    Raises :class:`WindowBoundsError` once the shifted basepoint leaves the
    stored window; shifting by ``t`` then ``-t`` returns an equal window.
    """
    return FlowLineWindow(
        line._letters, line._half_width, line.basepoint_offset + t
    )


class TreeGeodesic:
    """A unit-speed geodesic path of vertices in the Cayley tree.

    The vertex at time 0 is ``anchor``; ``stream`` holds the edge letters at
    positions ``-T .. T-1`` exactly as in :class:`FlowLineWindow`, so
    ``vertex(t + 1) = vertex(t) * letter``.  Vertices are precomputed.
    """

    __slots__ = ("_anchor", "_stream", "_half_width", "_vertices")

    def __init__(self, anchor: Word, stream, half_width: int):
        if not isinstance(anchor, Word):
            anchor = Word(anchor)
        stream = tuple(int(l) for l in stream)
        if half_width < 1:
            raise ValueError("half width must be at least 1")
        if len(stream) != 2 * half_width:
            raise ValueError(
                f"expected {2 * half_width} stream letters for half width {half_width}"
            )
        for a, b in zip(stream, stream[1:]):
            if b == -a:
                raise ValueError("edge letter stream is not reduced")
        vertices = [None] * (2 * half_width + 1)
        vertices[half_width] = anchor
        for t in range(half_width):
            step = Word((stream[half_width + t],))
            vertices[half_width + t + 1] = vertices[half_width + t] * step
        for t in range(half_width):
            back = Word((-stream[half_width - 1 - t],))
            vertices[half_width - t - 1] = vertices[half_width - t] * back
        self._anchor = anchor
        self._stream = stream
        self._half_width = half_width
        self._vertices = tuple(vertices)

    @property
    def half_width(self) -> int:
        return self._half_width

    @property
    def anchor(self) -> Word:
        return self._anchor

    def vertex(self, t: int) -> Word:
        if not -self._half_width <= t <= self._half_width:
            raise WindowBoundsError(f"time {t} is outside the window")
        return self._vertices[t + self._half_width]

    @classmethod
    def from_rays(cls, anchor, forward, backward, half_width=None) -> "TreeGeodesic":
        """Build a geodesic from an anchor and two letter rays.

        ``forward[j]`` is the letter from time ``j`` to ``j + 1``;
        ``backward[j]`` is the letter read walking backward, so
        ``vertex(-j-1) = vertex(-j) * backward[j]``.
        """
        forward = tuple(int(l) for l in forward)
        backward = tuple(int(l) for l in backward)
        if half_width is None:
            half_width = min(len(forward), len(backward))
        if len(forward) < half_width or len(backward) < half_width:
            raise ValueError("rays shorter than the requested half width")
        stream = tuple(
            -backward[half_width - 1 - j] for j in range(half_width)
        ) + forward[:half_width]
        anchor = anchor if isinstance(anchor, Word) else Word(anchor)
        return cls(anchor, stream, half_width)


def tree_distance(v: Word, w: Word) -> int:
    """Graph distance between two vertices of the Cayley tree."""
    a, b = v.letters, w.letters
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    return len(a) + len(b) - 2 * common


@dataclass(frozen=True)
class FlowMetricResult:
    """Weighted distance between two geodesics plus a truncation tail bound."""

    value: float
    tail_bound: float
    half_width: int

    def __float__(self):
        return self.value


def flow_metric(g: TreeGeodesic, h: TreeGeodesic, half_width=None) -> FlowMetricResult:
    """Integral of the tree distance against the weight ``2**-|t|``.

    The distance between two unit-speed geodesics is piecewise linear with
    integer breakpoints, so interpolating the integer samples linearly and
    integrating each unit interval against the exact exponential weight
    reproduces the truncated integral without quadrature error.  The reported
    tail bound uses the a-priori estimate distance <= 2|t| outside the
    window.
    """
    limit = min(g.half_width, h.half_width)
    if half_width is None:
        half_width = limit
    if not 1 <= half_width <= limit:
        raise WindowBoundsError(
            f"half width {half_width} exceeds the common window {limit}"
        )
    d = np.array(
        [tree_distance(g.vertex(t), h.vertex(t)) for t in range(-half_width, half_width + 1)],
        dtype=float,
    )
    weights = 2.0 ** (-np.arange(half_width, dtype=float))
    center = half_width  # index of t = 0 in d
    inner = d[center : center + half_width]       # d at t = 0 .. T-1
    outer = d[center + 1 : center + half_width + 1]  # d at t = 1 .. T
    forward = np.sum(weights * (inner * _WEIGHT_MOMENT_0 + outer * _WEIGHT_MOMENT_1))
    inner = d[center : center - half_width : -1]  # d at t = 0 .. -(T-1)
    outer = d[center - 1 :: -1]                   # d at t = -1 .. -T
    backward = np.sum(weights * (inner * _WEIGHT_MOMENT_0 + outer * _WEIGHT_MOMENT_1))
    tail = 4.0 * 2.0 ** (-half_width) * (half_width / LOG2 + 1.0 / LOG2**2)
    return FlowMetricResult(float(forward + backward), float(tail), half_width)
