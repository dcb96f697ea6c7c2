"""Reduced words in a free group, sphere scans, and flow lines on the tree.

Letters are nonzero integers: ``i`` is the i-th generator (1-based) and
``-i`` its inverse.  A :class:`Word` is an immutable reduced letter sequence;
multiplication cancels.  The alphabet is ordered ``1 < -1 < 2 < -2 < ...``
and spheres enumerate in shortlex order with respect to it.

Beyond plain words the module models unit-speed parametrized lines in the
Cayley tree: :class:`FlowLineWindow` is a window of edge letters around a
basepoint, and :class:`TreeGeodesic` pins an actual vertex path, kept as
one zero-padded letter array, so that `flow_metric` can integrate the
distances between lines against the weight ``2**-|t|`` for many pairs and
all times at once.

Scan policies select between exhaustive sphere enumeration
(:class:`Exhaustive`) and seeded random sampling (:class:`Sampled`).
`iter_sphere_products` is the one sphere engine behind every scan: it yields
each sphere as stacked letter and product arrays, together with each word's
exact log-det and determinant sign, building an exhaustive sphere from the
previous one with a single stacked multiply and a single add.  Sampled
spheres of consecutive lengths are walked as one stack, longest word
first, with one stacked multiply per letter for the whole group; a group
holds at most twice the rows of the one before it and at most
``linalg.KERNEL_BLOCK`` rows.  Each sphere is then a row slice with the
bits of a walk of its own, and an overflow stops the scan at the same
sphere and prefix.  A sphere finds the row of each word's inverse on first use
(`Sphere.inverse`), which the n = 3 singular-value kernel and the cone's
involution check read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, total_ordering

import numpy as np

from . import linalg
from .errors import NumericOverflowError, WindowBoundsError
from .linalg import log_singular_values

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
    """Yield every reduced word of the given length, in shortlex order."""
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

    ``rng`` is a :func:`numpy.random.default_rng` instance or a seed.  The
    word takes one array draw, as a row of `sampled_words` does: letter i
    picks from the alphabet without the inverse of letter i - 1.
    """
    rng = np.random.default_rng(rng)
    letters = alphabet(rank)
    out, position = [], None
    for d in rng.integers(0, _draw_highs(rank, length)).tolist():
        if position is not None:
            d += d >= position ^ 1  # skip the inverse of the letter before
        position = d
        out.append(letters[d])
    return Word(out)


def _product(letters, gens, checked=False):
    product = np.eye(gens.dim)
    for i, l in enumerate(letters):
        product = product @ gens.image(l)
        if checked:
            _checked(product, i + 1)
    return product


def evaluate(word, gens) -> np.ndarray:
    """Multiply generator images left to right along a word.

    ``gens`` must provide ``image(letter)`` and ``dim``.  Raises
    :class:`NumericOverflowError` naming the prefix length at which the
    product left float64 range.  A non-finite product stays non-finite, so
    the product is checked once; only one that fails is multiplied again,
    with a check after each letter, to name that prefix.
    """
    letters = word.letters if isinstance(word, Word) else tuple(word)
    with _overflow_raises():
        product = _product(letters, gens)
        if not np.isfinite(product).all():
            _product(letters, gens, checked=True)
    return product


def _overflow_raises():
    """Silence numpy's overflow warnings where `_checked` raises for them.

    A product that overflows can also hold ``inf - inf``, hence ``invalid``.
    """
    return np.errstate(over="ignore", invalid="ignore")


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


def _letter_dtype(rank: int):
    """The smallest signed integer type that holds every letter of rank
    ``rank`` and every alphabet position, ``-2 * rank .. 2 * rank``."""
    return np.min_scalar_type(-2 * rank)


def _next_positions(rank: int) -> np.ndarray:
    """Row r lists the alphabet positions allowed after position r, in order.

    Position ``r ^ 1`` holds the inverse of the letter at position r.
    """
    size = 2 * rank
    return np.array([[c for c in range(size) if c != r ^ 1] for r in range(size)])


def _draw_highs(rank: int, length: int) -> np.ndarray:
    """Bounds of the draws of one word: the first picks an alphabet position,
    each later one picks from the alphabet without the inverse of the
    letter before it.  An array of bounds draws each integer as its own
    call of ``rng.integers`` would."""
    highs = np.full(length, 2 * rank - 1)
    highs[:1] = 2 * rank
    return highs


def sampled_words(rank: int, length: int, policy: Sampled, inversion_closed=False):
    """Deterministic ``(N, length)`` letter array of sampled words for one sphere.

    The seed is mixed with the length so different spheres draw different
    words.  Row i is the word that the i-th of ``policy.count`` calls of
    `random_word` on the same generator would draw: one array draw takes
    the same random integers in the same order.  With ``inversion_closed``
    each word is followed by its inverse and repeated rows are dropped,
    keeping the first of each.  A word repeats exactly when its inverse
    does, so the pairs are kept or dropped together: row ``2i + 1`` is the
    inverse of row ``2i``.
    """
    rng = np.random.default_rng([policy.seed, length])
    # turn each column of draws into alphabet positions once the one before
    # it has been turned
    positions = rng.integers(0, _draw_highs(rank, length), size=(policy.count, length))
    allowed = _next_positions(rank)
    for i in range(1, length):
        positions[:, i] = allowed[positions[:, i - 1], positions[:, i]]
    letters = np.array(alphabet(rank), dtype=_letter_dtype(rank))[positions]
    if inversion_closed:
        both = np.stack([letters, -letters[:, ::-1]], axis=1).reshape(-1, length)
        _, first = np.unique(both, axis=0, return_index=True)
        letters = both[np.sort(first)]
    return letters


def shortlex_rank(letters, rank: int) -> np.ndarray:
    """Row of each word of an ``(N, L)`` letter array in the shortlex
    ordered exhaustive sphere.  Digit j counts the letters allowed before
    letter j, and weighs ``(2 rank - 1)**(L - 1 - j)``."""
    positions = letter_rank(np.asarray(letters))
    digits = positions.astype(np.int64)
    digits[:, 1:] -= positions[:, 1:] > (positions[:, :-1] ^ 1)
    weights = (2 * rank - 1) ** np.arange(positions.shape[1] - 1, -1, -1, dtype=np.int64)
    return digits @ weights


@dataclass(frozen=True, eq=False)
class Sphere:
    """One sphere of a scan, one word per row; no array may be mutated.

    ``letters`` is ``(N, L)``, ``products`` the ``(N, n, n)`` stack of the
    words' images, and ``logdet`` and ``sign`` hold each word's exact
    ``log |det|`` and determinant sign: its letters' entries of
    ``gens.log_dets``, added and multiplied left to right.  ``rank`` is the
    free group's rank; ``exhaustive`` marks a whole sphere in shortlex
    order and ``inversion_closed`` a sampled draw closed under inversion.
    """

    letters: np.ndarray
    products: np.ndarray
    logdet: np.ndarray
    sign: np.ndarray
    rank: int
    exhaustive: bool
    inversion_closed: bool = False

    @cached_property
    def inverse(self):
        """The ``(N,)`` row of each word's inverse, computed on first use:
        the `shortlex_rank` of the reversed, negated letters, the next row
        over in an inversion-closed draw (`sampled_words`), else None."""
        if self.exhaustive:
            rows = shortlex_rank(-self.letters[:, ::-1], self.rank)
        elif self.inversion_closed:
            rows = np.arange(len(self.letters)) ^ 1
        else:
            return None
        rows.flags.writeable = False
        return rows

    def log_singular_values(self) -> np.ndarray:
        """`linalg.log_singular_values` of the products with the exact
        log-dets, and with the inverse rows for n = 3, the one size that
        reads them."""
        n = self.products.shape[-1]
        return log_singular_values(self.products, self.logdet,
                                   self.inverse if n == 3 else None)


def _walk(positions, walking, images, letter_logdets, letter_signs, checked=False):
    """Products, log-dets and signs of the words in the rows of an ``(R, L)``
    array of alphabet positions, longest word first.

    At letter i the first ``walking[i]`` rows take one stacked multiply, one
    log-det add and one sign multiply, so every row reads its own letters
    left to right, as a walk of its sphere alone would.  With ``checked``
    the walk raises :class:`NumericOverflowError` after the first letter
    that leaves a product outside float64 range.
    """
    rows, n = len(positions), images.shape[-1]
    products = np.tile(np.eye(n), (rows, 1, 1))
    logdet = np.zeros(rows)
    sign = np.ones(rows, dtype=letter_signs.dtype)
    for i, m in enumerate(walking):
        step = positions[:m, i]
        np.matmul(products[:m], images.take(step, axis=0), out=products[:m])
        logdet[:m] += letter_logdets.take(step)
        sign[:m] *= letter_signs.take(step)
        if checked:
            _checked(products[:m], i + 1)
    return products, logdet, sign


def _sampled_group(draws, rank, tables, inversion_closed):
    """The spheres of consecutive lengths' ``sampled_words`` draws, shortest
    first, from one `_walk` of all their rows stacked longest word first.
    ``tables`` holds the generator images, log-dets and signs by alphabet
    position.

    A non-finite product stays non-finite, so one check at the end finds the
    spheres that overflowed; the first of them is walked again alone, with a
    check after every letter, to raise at the prefix where it overflowed.
    """
    longest = draws[-1].shape[1]
    positions = np.zeros((sum(map(len, draws)), longest), dtype=draws[0].dtype)
    starts, end = [], 0
    for letters in reversed(draws):
        positions[end:end + len(letters), :letters.shape[1]] = letter_rank(letters)
        starts.append(end)
        end += len(letters)
    walking = [sum(len(d) for d in draws if d.shape[1] > i) for i in range(longest)]
    with _overflow_raises():
        products, logdet, sign = _walk(positions, walking, *tables)
    finite = np.isfinite(products).all(axis=(1, 2))
    for letters, start in zip(draws, reversed(starts)):
        rows = slice(start, start + len(letters))
        if not finite[rows].all():
            L = letters.shape[1]
            with _overflow_raises():
                _walk(positions[rows, :L], [len(letters)] * L, *tables, checked=True)
        yield Sphere(letters, products[rows], logdet[rows], sign[rows], rank,
                     False, inversion_closed)


def iter_sphere_products(gens, L_max: int, policy=Exhaustive(),
                         inversion_closed=False):
    """Yield a :class:`Sphere` for each length 1 .. L_max.

    Exhaustive spheres come in shortlex order, each built from the previous
    one by one stacked multiply with the allowed next letters and one add
    of their log-dets.  Sampled spheres are the `sampled_words` draws in
    draw order, one draw per length.  Consecutive lengths are walked as
    one group (`_sampled_group`): their rows are stacked longest word
    first, so the rows still walking at each letter are a prefix, and each
    letter takes one stacked multiply, one log-det add and one sign
    multiply for the whole group.  The first group is the first draw; each
    later one holds at most twice the rows of the group before it, and at
    most ``linalg.KERNEL_BLOCK`` rows, so a scan that stops early has
    walked at most three times the rows it read, and memory stays bounded.
    A draw larger than its group's cap walks alone.  Every sphere reads the
    bits of a walk of its own.

    ``gens`` provides ``rank``, ``dim``, ``image`` and ``log_dets`` (see
    :class:`~repdyn.domination.GeneratorSet`).  Raises
    :class:`NumericOverflowError` at the first sphere holding a product
    outside float64 range, after yielding the spheres before it, with the
    ``prefix_length`` of the first letter after which one of its products
    left that range.
    """
    letter_set = np.array(alphabet(gens.rank), dtype=_letter_dtype(gens.rank))
    images = np.stack([gens.image(l) for l in letter_set])
    letter_logdets, letter_signs = gens.log_dets(letter_set[:, None])
    if isinstance(policy, Sampled):
        tables = images, letter_logdets, letter_signs
        group, cap = [], 0
        for L in range(1, L_max + 1):
            letters = sampled_words(gens.rank, L, policy, inversion_closed)
            rows = sum(map(len, group))
            if group and rows + len(letters) > cap:
                yield from _sampled_group(group, gens.rank, tables, inversion_closed)
                group, cap = [], min(2 * rows, linalg.KERNEL_BLOCK)
            group.append(letters)
        if group:
            yield from _sampled_group(group, gens.rank, tables, inversion_closed)
        return
    children = _next_positions(gens.rank)
    for L in range(1, L_max + 1):
        # scoped per sphere: the state must not leak to the caller across the yield
        with _overflow_raises():
            if L == 1:
                letters, products = letter_set[:, None], _checked(images, 1)
                logdet, sign = letter_logdets, letter_signs
            else:
                nxt = children[letter_rank(letters[:, -1])].ravel()
                fan = children.shape[1]
                letters = np.concatenate(
                    [np.repeat(letters, fan, axis=0), letter_set[nxt, None]], axis=1
                )
                products = _checked(np.repeat(products, fan, axis=0) @ images[nxt], L)
                logdet = np.repeat(logdet, fan) + letter_logdets[nxt]
                sign = np.repeat(sign, fan) * letter_signs[nxt]
        yield Sphere(letters, products, logdet, sign, gens.rank, True, inversion_closed)


def map_sphere_products(gens, L_max: int, stat, policy=Exhaustive(),
                        inversion_closed=False) -> list:
    """``stat(sphere)`` of each complete :class:`Sphere` 1 .. L_max, in order.

    The list stops before the first sphere whose products, or whose
    statistic, raise :class:`NumericOverflowError`; a list shorter than
    ``L_max`` marks a truncated scan.
    """
    out = []
    try:
        for sphere in iter_sphere_products(gens, L_max, policy, inversion_closed):
            out.append(stat(sphere))
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
    ``j + 1``).  The basepoint sits ``basepoint_offset`` positions from the
    center; positions are always addressed relative to the basepoint.
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

    def letters_between(self, start: int, stop: int) -> tuple:
        """Edge letters at relative times ``start .. stop - 1``, as `letter`
        reads them one at a time."""
        lo = self._offset + start + self._half_width
        hi = self._offset + stop + self._half_width
        if not 0 <= lo <= hi <= 2 * self._half_width:
            raise WindowBoundsError(
                f"relative times {start}..{stop - 1} are outside the window"
            )
        return self._letters[lo:hi]

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


class TreeGeodesic:
    """A unit-speed geodesic path of vertices in the Cayley tree.

    The vertex at time 0 is ``anchor``; ``stream`` holds the edge letters at
    positions ``-T .. T-1`` exactly as in :class:`FlowLineWindow`, so
    ``vertex(t + 1) = vertex(t) * letter``.  The vertices at times
    ``-T .. T`` are kept as the rows of one letter array padded with zeros,
    in the smallest signed integer type that holds twice the largest letter
    (`_letter_dtype`), together with their lengths; `vertex` builds a
    :class:`Word` from a row.
    """

    __slots__ = ("_anchor", "_half_width", "_letters", "_lengths")

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
        if 0 in stream:
            raise ValueError("letters must be nonzero integers")
        for a, b in zip(stream, stream[1:]):
            if b == -a:
                raise ValueError("edge letter stream is not reduced")
        forward = stream[half_width:]
        backward = tuple(-l for l in reversed(stream[:half_width]))
        dtype = _letter_dtype(max(map(abs, anchor.letters + stream)))
        back_letters, back_lengths = _ray_vertices(anchor.letters, backward, dtype)
        letters, lengths = _ray_vertices(anchor.letters, forward, dtype)
        self._anchor = anchor
        self._half_width = half_width
        self._letters = np.concatenate([back_letters[::-1], letters[1:]])
        self._lengths = np.concatenate([back_lengths[::-1], lengths[1:]])

    @property
    def half_width(self) -> int:
        return self._half_width

    @property
    def anchor(self) -> Word:
        return self._anchor

    def vertex(self, t: int) -> Word:
        if not -self._half_width <= t <= self._half_width:
            raise WindowBoundsError(f"time {t} is outside the window")
        i = t + self._half_width
        return Word(self._letters[i, : self._lengths[i]])

    def window(self, half_width: int):
        """Padded letter rows and lengths of the vertices at times -T .. T.

        ``T`` is ``half_width``; a row may carry more padding than its
        vertices need.
        """
        if not 0 <= half_width <= self._half_width:
            raise WindowBoundsError(f"half width {half_width} is outside the window")
        rows = slice(self._half_width - half_width, self._half_width + half_width + 1)
        return self._letters[rows], self._lengths[rows]

    @classmethod
    def from_rays(cls, anchor, forward, backward) -> "TreeGeodesic":
        """Build a geodesic from an anchor and two letter rays.

        ``forward[j]`` is the letter from time ``j`` to ``j + 1``;
        ``backward[j]`` is the letter read walking backward, so
        ``vertex(-j-1) = vertex(-j) * backward[j]``.  The half width is
        the length of the shorter ray.
        """
        forward = tuple(int(l) for l in forward)
        backward = tuple(int(l) for l in backward)
        half_width = min(len(forward), len(backward))
        stream = tuple(
            -backward[half_width - 1 - j] for j in range(half_width)
        ) + forward[:half_width]
        anchor = anchor if isinstance(anchor, Word) else Word(anchor)
        return cls(anchor, stream, half_width)


def _ray_vertices(anchor, ray, dtype):
    """Rows ``anchor * ray[:t]`` for t = 0 .. len(ray), zero padded, of type
    ``dtype``, and their lengths.

    The ray is reduced, so it can only cancel a tail of the anchor, and only
    with its first letters: after ``c`` cancelling letters the vertex at time
    ``t`` is ``anchor[:n - s] + ray[s:t]`` with ``s = min(c, t)``.
    """
    n, T = len(anchor), len(ray)
    c = 0
    while c < min(n, T) and ray[c] == -anchor[n - 1 - c]:
        c += 1
    t = np.arange(T + 1)[:, None]
    s = np.minimum(t, c)
    lengths = n + t - 2 * s
    # column j reads the anchor before n - s and the ray after it, where
    # ray[j - (n - s) + s] sits at j + 2s of anchor + ray
    j = np.arange(n + T)
    source = np.array((0,) + anchor + ray, dtype=dtype)
    index = np.where(j < n - s, j, j + 2 * s) + 1
    rows = source[np.where(j < lengths, index, 0)]
    return rows, lengths[:, 0]


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


def flow_metric(g: TreeGeodesic, h, half_width=None):
    """Integral of the tree distance against the weight ``2**-|t|``.

    ``h`` is one geodesic, giving one :class:`FlowMetricResult`, or a
    sequence of them, giving the list of results of ``g`` against each.

    The distance between two unit-speed geodesics is piecewise linear with
    integer breakpoints, so interpolating the integer samples linearly and
    integrating each unit interval against the exact exponential weight
    reproduces the truncated integral without quadrature error.  The reported
    tail bound uses the a-priori estimate distance <= 2|t| outside the
    window.
    """
    others = [h] if isinstance(h, TreeGeodesic) else list(h)
    limit = min(geo.half_width for geo in [g, *others])
    if half_width is None:
        half_width = limit
    if half_width < 1:
        raise WindowBoundsError(f"half width must be at least 1, got {half_width}")
    if half_width > limit:
        raise WindowBoundsError(
            f"half width {half_width} exceeds the common window {limit}"
        )
    d = _window_distances(g, others, half_width).astype(float)
    weights = 2.0 ** (-np.arange(half_width, dtype=float))
    center = half_width  # column of t = 0 in d
    inner = d[:, center : center + half_width]       # d at t = 0 .. T-1
    outer = d[:, center + 1 : center + half_width + 1]  # d at t = 1 .. T
    forward = np.sum(
        weights * (inner * _WEIGHT_MOMENT_0 + outer * _WEIGHT_MOMENT_1), axis=1
    )
    inner = d[:, center : center - half_width : -1]  # d at t = 0 .. -(T-1)
    outer = d[:, center - 1 :: -1]                   # d at t = -1 .. -T
    backward = np.sum(
        weights * (inner * _WEIGHT_MOMENT_0 + outer * _WEIGHT_MOMENT_1), axis=1
    )
    tail = float(4.0 * 2.0 ** (-half_width) * (half_width / LOG2 + 1.0 / LOG2**2))
    out = [FlowMetricResult(float(v), tail, half_width) for v in forward + backward]
    return out[0] if isinstance(h, TreeGeodesic) else out


def _window_distances(g: TreeGeodesic, others, half_width: int) -> np.ndarray:
    """``(len(others), 2T+1)`` tree distances from ``g`` at each time ``-T .. T``.

    The common prefix of two vertices ends at the first letter where their
    zero-padded rows differ, capped by the shorter length; a sentinel
    column of mismatches stops rows that agree throughout.  The letters
    keep the narrowest type of the geodesics' rows.
    """
    windows = [geo.window(half_width) for geo in [g, *others]]
    width = max(int(n.max()) for _, n in windows)
    dtype = np.result_type(*(rows.dtype for rows, _ in windows))
    letters = np.zeros((len(windows), 2 * half_width + 1, width), dtype=dtype)
    for k, (rows, _) in enumerate(windows):
        rows = rows[:, :width]
        letters[k, :, : rows.shape[1]] = rows
    lengths = np.stack([n for _, n in windows])
    mismatch = np.ones((len(others), 2 * half_width + 1, width + 1), dtype=bool)
    np.not_equal(letters[:1], letters[1:], out=mismatch[..., :width])
    common = np.minimum(mismatch.argmax(axis=2), np.minimum(lengths[:1], lengths[1:]))
    return lengths[:1] + lengths[1:] - 2 * common
