"""Reduced words in a free group, sphere scans, and flow lines on the tree.

Letters are nonzero integers: ``i`` is the i-th generator (1-based) and
``-i`` its inverse.  A :class:`Word` is an immutable reduced letter sequence;
multiplication cancels.  The alphabet is ordered ``1 < -1 < 2 < -2 < ...``
and spheres enumerate in shortlex order with respect to it.

Beyond plain words the module models unit-speed parametrized lines in the
Cayley tree, the points of the geodesic flow: a :class:`FlowLineWindow`
is a window of edge letters around a basepoint, through an anchor vertex.
The flow bundle walks its letters; `flow_metric` reads the vertex paths of
all its lines off one zero-padded letter stack, built in one pass, and
integrates the distances between lines against the weight ``2**-|t|`` for
many pairs and all times at once.

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
bits of a walk of its own.  A non-finite product stays non-finite, so each
sphere is checked once, when complete, and the first that overflowed
stops the scan.

The spheres come in kernel groups (:class:`KernelGroup`): runs of
consecutive spheres whose rows the stacked singular-value and
eigenvalue-modulus kernels take in one call, so that small spheres do not
each pay a kernel call's fixed cost.  Each sphere reads its own read-only
rows (`Sphere.log_singular_values`, `Sphere.log_eigenvalue_moduli`), with
the bits of a call on that sphere alone.  An exhaustive group holds at most
``linalg.KERNEL_BLOCK`` rows, or one larger sphere, and is yielded before
a later sphere is built; a sampled group is the stack of one walk.  A group
finds the row of each word's inverse on first use (`Sphere.inverse`), for
exhaustive spheres by a recursion on the length that reads no letters;
the n = 3 singular-value kernel and the cone's involution check read it.
It also finds one row per conjugacy class on first use
(`Sphere.class_rows`): in an exhaustive sphere the cyclically reduced
words that are shortlex-least among their rotations, in a sampled one
every row.  Class functions read the eigenvalue kernel on those rows only
(`Sphere.class_log_eigenvalue_moduli`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, total_ordering
from itertools import islice

import numpy as np

from . import linalg
from .errors import NumericOverflowError, WindowBoundsError

LOG2 = np.log(2.0)

_OVERFLOW = "product left float64 range"

# closed-form moments of 2**-u on [0, 1]: against (1 - u) and against u
_WEIGHT_MOMENT_1 = (1.0 - LOG2) / (2.0 * LOG2**2)
_WEIGHT_MOMENT_0 = 1.0 / (2.0 * LOG2) - _WEIGHT_MOMENT_1

# `flow_metric` weighs the distances of at least this many pairs at a time
# (or all of them, if fewer), which bounds its temporaries
_PAIR_BLOCK = 2048


def letter_rank(letter):
    """Position of a letter (or of each in an array) in the order 1, -1, 2, -2, ..."""
    return 2 * (abs(letter) - 1) + (letter < 0)


def alphabet(rank: int) -> list[int]:
    """All letters for a free group of the given rank, in alphabet order."""
    out = []
    for i in range(1, rank + 1):
        out.extend((i, -i))
    return out


def _reduced(letters, what) -> tuple:
    """``letters`` as a tuple of ints, refused unless every letter is nonzero
    and none is followed by its inverse; ``what`` names them in the message."""
    letters = tuple(int(l) for l in letters)
    if 0 in letters:
        raise ValueError("letters must be nonzero integers")
    for a, b in zip(letters, letters[1:]):
        if b == -a:
            raise ValueError(f"{what} is not reduced")
    return letters


@total_ordering
class Word:
    """An immutable reduced word.

    Construction rejects unreduced input (adjacent ``x, -x``); use ``*`` for
    multiplication with cancellation.  Ordering is shortlex.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters=()):
        self._letters = _reduced(letters, "word")

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


def evaluate(word, gens) -> np.ndarray:
    """Multiply generator images left to right along a word.

    ``gens`` must provide ``image(letter)`` and ``dim``.  Raises
    :class:`NumericOverflowError` if the product left float64 range: a
    non-finite product stays non-finite, so the product is checked once,
    after the last letter.
    """
    product = np.eye(gens.dim)
    with _overflow_raises():
        for l in word:
            product = product @ gens.image(l)
    return _checked(product)


def _overflow_raises():
    """Silence numpy's overflow warnings where `_checked` raises for them.

    A product that overflows can also hold ``inf - inf``, hence ``invalid``.
    """
    return np.errstate(over="ignore", invalid="ignore")


def _checked(products):
    if not np.isfinite(products).all():
        raise NumericOverflowError(_OVERFLOW)
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


def _inverse_rows(rank: int, first: int, last: int) -> list:
    """The row of each word's inverse in the exhaustive spheres of lengths
    ``first .. last``, one array per sphere, by recursion on the length.

    Row r of sphere L is its parent, row ``r // W`` of sphere L - 1, W =
    ``2 rank - 1``, followed by the letter at alphabet position x; p is the
    position of the parent's last letter.  The inverse word reads the
    inverse letter, at position ``x ^ 1``, then the parent's inverse, whose
    first letter ``p ^ 1`` is one place lower when it follows x:

        inv_L = (x ^ 1) W**(L - 1) + inv_(L - 1)[r // W] - [(p ^ 1) > x] W**(L - 2)

    No letters are read: the last positions come from `_next_positions`.
    """
    fan = 2 * rank - 1
    children = _next_positions(rank)
    p = np.arange(2 * rank)
    inverse = p ^ 1
    out = []
    for L in range(1, last + 1):
        if L > 1:
            x = children.take(p, axis=0).ravel()
            lower = (np.repeat(p, fan) ^ 1) > x
            inverse = ((x ^ 1) * fan ** (L - 1) + np.repeat(inverse, fan)
                       - lower * fan ** (L - 2))
            p = x
        if L >= first:
            out.append(inverse)
    return out


def _least_rotations(letters, rank: int) -> np.ndarray:
    """Rows of an ``(N, L)`` letter array whose word is cyclically reduced
    and shortlex-least among its rotations, in order.  On an exhaustive
    sphere that is one row per conjugacy class of cyclic length L.

    A word's key reads its alphabet positions as base-B digits, B =
    ``2 rank``, first letter most significant, so keys of one length order
    as shortlex does; the rotation by k letters has the key
    ``(key mod B**(L - k)) B**k + key div B**(L - k)``.  Where ``B**L``
    would overflow int64 the keys are Python integers.
    """
    length = letters.shape[1]
    base = 2 * rank
    rows = np.flatnonzero(letters[:, 0] != -letters[:, -1])
    digits = letter_rank(letters[rows]).astype(np.int64 if base ** length < 2 ** 63 else object)
    key = digits[:, 0]
    for column in digits.T[1:]:
        key = key * base + column
    for k in range(1, length):
        low = base ** (length - k)
        least = key <= key % low * base ** k + key // low
        rows, key = rows[least], key[least]
    return rows


def _read_only(a):
    a.flags.writeable = False
    return a


def _log_eigenvalue_moduli_of_rows(products, logdet, sign, rows):
    """`linalg.log_eigenvalue_moduli` of the given rows of the stacks."""
    return linalg.log_eigenvalue_moduli(products.take(rows, axis=0), logdet.take(rows),
                                        sign.take(rows))


@dataclass(frozen=True, eq=False)
class KernelGroup:
    """Consecutive spheres of one scan whose rows the stacked kernels take in
    one call.

    ``products``, ``logdet`` and ``sign`` stack the rows of every sphere of
    the group; ``letters`` holds each sphere's letter array, shortest word
    first, and ``starts`` the sphere's first row in the stacks.  ``rank``,
    ``exhaustive`` and ``inversion_closed`` are the spheres' own.  A kernel
    runs on first use, over all the rows at once (or all the `class_rows`),
    and its output is read-only and kept for the group's other spheres
    (`_run`).  A kernel row has the same bits in any stack as alone, with
    its inverse row, so a sphere's slice of the output is what a call on
    that sphere alone returns.
    """

    letters: tuple
    starts: tuple
    products: np.ndarray
    logdet: np.ndarray
    sign: np.ndarray
    rank: int
    exhaustive: bool
    inversion_closed: bool
    _outputs: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def inverse(self):
        """The row of each row's inverse word in the stacks, or None for an
        open draw.  An exhaustive group's spheres take theirs from one
        `_inverse_rows` recursion on the length, which reads no letters; an
        inversion-closed draw pairs each row with the next row over
        (`sampled_words`)."""
        if not (self.exhaustive or self.inversion_closed):
            return None
        if self.exhaustive:
            parts = _inverse_rows(self.rank, self.letters[0].shape[1],
                                  self.letters[-1].shape[1])
        else:
            parts = [np.arange(len(letters)) ^ 1 for letters in self.letters]
        rows = np.empty(len(self.products), dtype=np.int64)
        for part, start in zip(parts, self.starts):
            rows[start:start + len(part)] = part + start
        return _read_only(rows)

    @cached_property
    def class_rows(self):
        """The rows in the stacks that class functions read, in order: in
        an exhaustive group each sphere's `_least_rotations`, one row per
        conjugacy class; in a sampled group every row."""
        if not self.exhaustive:
            return _read_only(np.arange(len(self.products)))
        return _read_only(np.concatenate([
            _least_rotations(letters, self.rank) + start
            for letters, start in zip(self.letters, self.starts)
        ]))

    def log_singular_values(self) -> np.ndarray:
        """`linalg.log_singular_values` of the products with the exact
        log-dets, and with the inverse rows for n = 3, the one size that
        reads them."""
        n = self.products.shape[-1]
        return self._run(linalg.log_singular_values, self.logdet,
                         self.inverse if n == 3 else None)

    def log_eigenvalue_moduli(self) -> np.ndarray:
        """`linalg.log_eigenvalue_moduli` of the products with the exact
        log-dets and signs."""
        return self._run(linalg.log_eigenvalue_moduli, self.logdet, self.sign)

    def class_log_eigenvalue_moduli(self) -> np.ndarray:
        """`log_eigenvalue_moduli` of the `class_rows` only, row for row."""
        return self._run(_log_eigenvalue_moduli_of_rows, self.logdet, self.sign,
                         self.class_rows)

    def _run(self, kernel, *args):
        """``kernel(products, *args)``, read-only, from one call.  A group of
        several spheres keeps it for the others; a group of one hands it
        out and keeps nothing, so a sphere over ``linalg.KERNEL_BLOCK`` rows
        holds no more memory once read than before it was."""
        out = self._outputs.get(kernel)
        if out is None:
            out = _read_only(kernel(self.products, *args))
            if len(self.letters) > 1:
                self._outputs[kernel] = out
        return out


@dataclass(frozen=True, eq=False)
class Sphere:
    """One sphere of a scan, one word per row; no array may be mutated.

    ``letters`` is ``(N, L)``, ``products`` the ``(N, n, n)`` stack of the
    words' images, and ``logdet`` and ``sign`` hold each word's exact
    ``log |det|`` and determinant sign: its letters' entries of
    ``gens.log_dets``, added and multiplied left to right.  ``rank`` is the
    free group's rank; ``exhaustive`` marks a whole sphere in shortlex
    order and ``inversion_closed`` a sampled draw closed under inversion.
    The sphere's rows are those of its `KernelGroup` ``group`` from
    ``start`` on; a sphere made without one is a group of one.
    """

    letters: np.ndarray
    products: np.ndarray
    logdet: np.ndarray
    sign: np.ndarray
    rank: int
    exhaustive: bool
    inversion_closed: bool = False
    group: KernelGroup = field(default=None, repr=False)
    start: int = 0

    def __post_init__(self):
        if self.group is None:
            object.__setattr__(self, "group", KernelGroup(
                (self.letters,), (0,), self.products, self.logdet, self.sign,
                self.rank, self.exhaustive, self.inversion_closed))

    @property
    def _rows(self):
        return slice(self.start, self.start + len(self.letters))

    @cached_property
    def inverse(self):
        """The read-only ``(N,)`` row of each word's inverse in this sphere,
        computed on first use, or None for a sampled draw not closed under
        inversion (see `KernelGroup.inverse`)."""
        rows = self.group.inverse
        if rows is None:
            return None
        rows = rows[self._rows]
        return _read_only(rows - self.start) if self.start else rows

    @cached_property
    def _class_span(self):
        """The slice of `KernelGroup.class_rows` that falls in this sphere."""
        lo, hi = self.group.class_rows.searchsorted([self.start, self.start + len(self.letters)])
        return slice(int(lo), int(hi))

    @cached_property
    def class_rows(self):
        """The read-only rows of this sphere that class functions read (see
        `KernelGroup.class_rows`)."""
        rows = self.group.class_rows[self._class_span]
        return _read_only(rows - self.start) if self.start else rows

    def log_singular_values(self) -> np.ndarray:
        """This sphere's read-only rows of `KernelGroup.log_singular_values`."""
        return self.group.log_singular_values()[self._rows]

    def log_eigenvalue_moduli(self) -> np.ndarray:
        """This sphere's read-only rows of `KernelGroup.log_eigenvalue_moduli`."""
        return self.group.log_eigenvalue_moduli()[self._rows]

    def class_log_eigenvalue_moduli(self) -> np.ndarray:
        """This sphere's read-only rows of
        `KernelGroup.class_log_eigenvalue_moduli`, row for row with
        `class_rows`."""
        return self.group.class_log_eigenvalue_moduli()[self._class_span]


def _kernel_group(draws, starts, stacks, rank, exhaustive, inversion_closed):
    """The spheres of the letter arrays ``draws``, shortest first, sharing
    one `KernelGroup`.  The rows of ``draws[i]`` start at ``starts[i]`` in
    each of the ``stacks`` (products, log-dets, signs), and the draws
    together fill one contiguous run of rows, which the group takes as
    views."""
    lo = min(starts)
    hi = max(start + len(letters) for letters, start in zip(draws, starts))
    group = KernelGroup(tuple(draws), tuple(start - lo for start in starts),
                        *(a[lo:hi] for a in stacks), rank, exhaustive, inversion_closed)
    return [
        Sphere(letters, *(a[start:start + len(letters)]
                          for a in (group.products, group.logdet, group.sign)),
               rank, exhaustive, inversion_closed, group, start)
        for letters, start in zip(group.letters, group.starts)
    ]


def _walk(positions, walking, images, letter_logdets, letter_signs):
    """Products, log-dets and signs of the words in the rows of an ``(R, L)``
    array of alphabet positions, longest word first.

    At letter i the first ``walking[i]`` rows take one stacked multiply, one
    log-det add and one sign multiply, so every row reads its own letters
    left to right, as a walk of its sphere alone would.  A product that
    leaves float64 range stays non-finite; the walk does not check.
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
    return products, logdet, sign


def _sampled_group(draws, rank, tables, inversion_closed):
    """The spheres of consecutive lengths' ``sampled_words`` draws, shortest
    first, from one `_walk` of all their rows stacked longest word first;
    the walk's stacks are their `KernelGroup`'s.  ``tables`` holds the
    generator images, log-dets and signs by alphabet position.  The first
    sphere holding a non-finite product raises
    :class:`NumericOverflowError` after the spheres before it, and the
    group holds only those.
    """
    longest = draws[-1].shape[1]
    positions = np.zeros((sum(map(len, draws)), longest), dtype=draws[0].dtype)
    starts, end = [], 0
    for letters in reversed(draws):
        positions[end:end + len(letters), :letters.shape[1]] = letter_rank(letters)
        starts.append(end)
        end += len(letters)
    starts.reverse()
    walking = [sum(len(d) for d in draws if d.shape[1] > i) for i in range(longest)]
    with _overflow_raises():
        stacks = _walk(positions, walking, *tables)
    finite = 0
    for letters, start in zip(draws, starts):
        if not np.isfinite(stacks[0][start:start + len(letters)]).all():
            break
        finite += 1
    if finite:
        yield from _kernel_group(draws[:finite], starts[:finite], stacks, rank, False,
                                 inversion_closed)
    if finite < len(draws):
        raise NumericOverflowError(_OVERFLOW)


def _extend(parent, letter_set, children, tables):
    """The exhaustive sphere one letter longer than ``parent``, each as a
    ``(letters, products, logdet, sign)`` tuple: one stacked multiply of
    the parent's products with the allowed next letters' images, one add
    of their log-dets and one multiply of their signs.  The tables are
    read with ``ndarray.take``, which gathers the same rows as fancy
    indexing at a fraction of its cost, so every product keeps its bits."""
    letters, products, logdet, sign = parent
    images, letter_logdets, letter_signs = tables
    fan = children.shape[1]
    nxt = children.take(letter_rank(letters[:, -1]), axis=0).ravel()
    return (np.concatenate([np.repeat(letters, fan, axis=0),
                            letter_set.take(nxt)[:, None]], axis=1),
            np.repeat(products, fan, axis=0) @ images.take(nxt, axis=0),
            np.repeat(logdet, fan) + letter_logdets.take(nxt),
            np.repeat(sign, fan) * letter_signs.take(nxt))


def _exhaustive_groups(rank, L_max, letter_set, tables, inversion_closed):
    """The exhaustive spheres 1 .. L_max, one `KernelGroup` at a time.

    A group takes the next sphere while its rows and that sphere's
    `count_sphere` stay within ``linalg.KERNEL_BLOCK``, so it is closed
    before a later sphere is built; a larger sphere is a group of its own,
    and its arrays are the group's stacks.  Each sphere is built from the
    one before it (`_extend`) and checked when complete; the first that is
    not finite raises :class:`NumericOverflowError` after the spheres
    before it.
    """
    children = _next_positions(rank)
    sphere = (letter_set[:, None], *tables)
    first = 1
    while first <= L_max:
        last, rows = first, count_sphere(rank, first)
        while last < L_max and rows + count_sphere(rank, last + 1) <= linalg.KERNEL_BLOCK:
            last += 1
            rows += count_sphere(rank, last)
        spheres, finite = [], True
        # scoped per group: the state must not leak to the caller across the yield
        with _overflow_raises():
            for L in range(first, last + 1):
                if L > 1:
                    sphere = _extend(sphere, letter_set, children, tables)
                finite = np.isfinite(sphere[1]).all()
                if not finite:
                    break
                spheres.append(sphere)
        if spheres:
            draws, *parts = zip(*spheres)
            stacks = [np.concatenate(part) if len(part) > 1 else part[0] for part in parts]
            starts = np.cumsum([0] + [len(letters) for letters in draws[:-1]]).tolist()
            yield from _kernel_group(draws, starts, stacks, rank, True, inversion_closed)
        if not finite:
            raise NumericOverflowError(_OVERFLOW)
        first = last + 1


def iter_sphere_products(gens, L_max: int, policy=Exhaustive(),
                         inversion_closed=False):
    """Yield a :class:`Sphere` for each length 1 .. L_max, in kernel groups.

    A `KernelGroup` is a run of consecutive spheres whose rows the stacked
    singular-value and eigenvalue kernels take in one call; each sphere
    reads its own rows of the group's output.  Exhaustive spheres come in
    shortlex order, each built from the previous one by one stacked
    multiply with the allowed next letters and one add of their log-dets.
    A group takes spheres while they hold at most ``linalg.KERNEL_BLOCK``
    rows in all, which their sizes tell in advance, and is yielded before
    the next one is built (`_exhaustive_groups`); a larger sphere is a
    group of its own.  Sampled spheres are the `sampled_words` draws in
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
    outside float64 range, after yielding the spheres before it, whose
    group holds no other rows.  Each product is multiplied once and
    checked once, when its sphere is complete.
    """
    letter_set = np.array(alphabet(gens.rank), dtype=_letter_dtype(gens.rank))
    images = np.stack([gens.image(l) for l in letter_set])
    tables = (images, *gens.log_dets(letter_set[:, None]))
    if not isinstance(policy, Sampled):
        yield from _exhaustive_groups(gens.rank, L_max, letter_set, tables,
                                      inversion_closed)
        return
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


def map_sphere_products(gens, L_max: int, stat, policy=Exhaustive(),
                        inversion_closed=False) -> list:
    """``stat(sphere)`` of each complete :class:`Sphere` 1 .. L_max, in order.

    The spheres come in kernel groups (`iter_sphere_products`), so the
    first sphere of a group to call a kernel runs it for the whole group.
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
    center; positions are always addressed relative to the basepoint.  The
    vertex at the basepoint is ``anchor`` (the identity by default), so
    ``vertex(t + 1) = vertex(t) * letter(t)``.  `vertex_rows` gives the
    vertices of a window as zero-padded letter rows and their lengths.
    """

    __slots__ = ("_letters", "_half_width", "_offset", "_anchor")

    def __init__(self, letters, half_width: int, basepoint_offset: int = 0, anchor=()):
        self._anchor = anchor if isinstance(anchor, Word) else Word(anchor)
        letters = tuple(letters)
        if half_width < 1:
            raise ValueError("half width must be at least 1")
        if len(letters) != 2 * half_width:
            raise ValueError(
                f"expected {2 * half_width} letters for half width {half_width}"
            )
        self._letters = _reduced(letters, "edge letter stream")
        if abs(basepoint_offset) > half_width:
            raise WindowBoundsError(
                f"basepoint offset {basepoint_offset} exceeds half width {half_width}"
            )
        self._half_width = half_width
        self._offset = basepoint_offset

    @property
    def half_width(self) -> int:
        return self._half_width

    @property
    def basepoint_offset(self) -> int:
        return self._offset

    @property
    def anchor(self) -> Word:
        return self._anchor

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

    def vertex(self, t: int) -> Word:
        """The vertex at relative time ``t``."""
        i = t + self.usable_half_width
        if not 0 <= i <= 2 * self.usable_half_width:
            raise WindowBoundsError(f"time {t} is outside the window")
        letters, lengths = self.vertex_rows(self.usable_half_width)
        return Word(letters[i, : lengths[i]])

    def vertex_rows(self, half_width: int):
        """Zero-padded letter rows and lengths of the vertices at relative
        times ``-half_width .. half_width``: this line's rows of
        `_vertex_stack`."""
        if not 0 <= half_width <= self.usable_half_width:
            raise WindowBoundsError(f"half width {half_width} is outside the window")
        letters, lengths = _vertex_stack([self], half_width)
        return letters[0], lengths[0]

    def _key(self):
        return self._letters, self._half_width, self._offset, self._anchor

    def __eq__(self, other):
        return isinstance(other, FlowLineWindow) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"FlowLineWindow(half_width={self._half_width}, "
            f"offset={self._offset}, anchor={list(self._anchor)!r}, "
            f"letters={list(self._letters)!r})"
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
    def from_rays(cls, anchor, forward, backward) -> "FlowLineWindow":
        """Build a line through ``anchor`` at time 0 from two letter rays.

        ``forward[j]`` is the letter from time ``j`` to ``j + 1``;
        ``backward[j]`` is the letter read walking backward, so
        ``vertex(-j-1) = vertex(-j) * backward[j]``.  The half width is
        the length of the shorter ray, and the basepoint sits at the center.
        """
        half_width = min(len(forward), len(backward))
        stream = [-int(l) for l in reversed(backward[:half_width])] + list(forward[:half_width])
        return cls(stream, half_width, anchor=anchor)


def _vertex_stack(lines, half_width):
    """Zero-padded letter rows ``(B, 2T + 1, W)`` and lengths ``(B, 2T + 1)``
    of the vertices of each of B lines at relative times ``-T .. T``, T =
    ``half_width``, W the longest length; the letters have the type
    `_letter_dtype` gives the largest of them.

    Both rays of every line go through one stacked pass.  A ray is reduced,
    so it can only cancel a tail of the anchor, and only with its first
    letters: after ``c`` cancelling letters its vertex at time ``t`` is
    ``anchor[:n - t]`` for ``t <= c`` and ``anchor[:n - c] + ray[c:t]``
    after, of length ``n + t - 2 min(t, c)``.  Each ray gets its own count
    ``c`` and its own path ``anchor[:n - c] + ray[c:]``, and each vertex row
    is a prefix of its anchor or of its path.
    """
    count, T = len(lines), half_width
    anchors = [line.anchor.letters for line in lines]
    n = np.array([len(a) for a in anchors])
    A = int(n.max())
    anchor = np.zeros((count, A), dtype=np.int64)
    anchor[np.arange(A) < n[:, None]] = [l for a in anchors for l in a]
    window = np.array([line.letters_between(-T, T) for line in lines], dtype=np.int64)
    # rows 0 .. B - 1 read the backward rays, rows B .. 2B - 1 the forward ones
    rays = np.concatenate([-window[:, T - 1 :: -1], window[:, T:]])
    anchor, n = np.concatenate([anchor, anchor]), np.concatenate([n, n])
    rows = np.arange(2 * count)[:, None]

    # ray[j] cancels anchor[n - 1 - j]; a column past the anchor matches no
    # letter, and a column of mismatches stops a ray that cancels it all
    j = np.arange(min(A, T))
    tail = np.where(j < n[:, None], anchor[rows, np.maximum(n[:, None] - 1 - j, 0)], 0)
    match = np.zeros((2 * count, j.size + 1), dtype=bool)
    np.equal(rays[:, : j.size], -tail, out=match[:, :-1])
    c = match.argmin(axis=1)[:, None]

    # column j of a path reads the anchor before n - c and ray[j - n + 2c]
    # after it, at column A + j - n + 2c of anchor + ray
    j = np.arange(A + T)
    source = np.concatenate([anchor, rays], axis=1)
    index = np.where(j < n[:, None] - c, j, np.minimum(A + j - n[:, None] + 2 * c, A + T - 1))
    dtype = _letter_dtype(int(np.abs(source).max(initial=1)))
    path = source[rows, index].astype(dtype)
    anchor = np.pad(anchor.astype(dtype), ((0, 0), (0, T)))

    t = np.arange(T + 1)
    lengths = n[:, None] + t - 2 * np.minimum(t, c)
    letters = np.where((t <= c)[..., None], anchor[:, None], path[:, None])
    letters[j >= lengths[..., None]] = 0
    # times -T .. -1 read the backward rows from T down to 1
    letters = np.concatenate([letters[:count, :0:-1], letters[count:]], axis=1)
    lengths = np.concatenate([lengths[:count, :0:-1], lengths[count:]], axis=1)
    return letters[..., : lengths.max()], lengths


@dataclass(frozen=True)
class FlowMetricResult:
    """Weighted distance between two geodesics plus a truncation tail bound."""

    value: float
    tail_bound: float

    def __float__(self):
        return self.value


def flow_metric(g, h=None, half_width=None):
    """Integral of the tree distance against the weight ``2**-|t|``.

    ``h`` is one line, giving one :class:`FlowMetricResult` of the line
    ``g`` against it, or a sequence of lines, giving the list of results of
    ``g`` against each.  Without ``h``, ``g`` is a sequence of lines and the
    result the list, for each i, of the results of ``g[i]`` against
    ``g[i:]``: every pair once, and each line against itself.  The window
    defaults to, and may not exceed, the lines' common `usable_half_width`.

    The distance between two unit-speed geodesics is piecewise linear with
    integer breakpoints, so interpolating the integer samples linearly and
    integrating each unit interval against the exact exponential weight
    reproduces the truncated integral without quadrature error.  The reported
    tail bound uses the a-priori estimate distance <= 2|t| outside the
    window.

    The vertex rows of all the lines come from one `_vertex_stack`.  The
    distances are read off it a line against its partners at a time
    (`_window_distances`) and weighted _PAIR_BLOCK pairs or more at a time,
    so that no temporary holds every pair at every time and letter.
    """
    if h is None:
        lines = list(g)
        if not lines:
            raise ValueError("need at least one line")
        rows = [(i, i) for i in range(len(lines))]
    else:
        lines = [g, h] if isinstance(h, FlowLineWindow) else [g, *h]
        rows = [(0, 1)]
    limit = min(line.usable_half_width for line in lines)
    if half_width is None:
        half_width = limit
    if half_width < 1:
        raise WindowBoundsError(f"half width must be at least 1, got {half_width}")
    if half_width > limit:
        raise WindowBoundsError(
            f"half width {half_width} exceeds the common window {limit}"
        )
    letters, lengths = _vertex_stack(lines, half_width)
    values, block = [], []
    for i, start in rows:
        block.append(_window_distances(letters, lengths, i, start))
        if sum(map(len, block)) >= _PAIR_BLOCK or i == rows[-1][0]:
            values.append(_weighted_sums(np.concatenate(block).astype(float), half_width))
            block = []
    tail = float(4.0 * 2.0 ** (-half_width) * (half_width / LOG2 + 1.0 / LOG2**2))
    out = iter([FlowMetricResult(v, tail) for v in np.concatenate(values).tolist()])
    if h is None:
        return [list(islice(out, len(lines) - i)) for i in range(len(lines))]
    return next(out) if isinstance(h, FlowLineWindow) else list(out)


def _weighted_sums(d, half_width):
    """The weighted integral of each row of ``d``, the float distances at
    times ``-T .. T``, T = ``half_width``: each row summed on its own."""
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
    return forward + backward


def _window_distances(letters, lengths, i, start) -> np.ndarray:
    """``(B - start, 2T + 1)`` tree distances of line i of a `_vertex_stack`
    against its lines ``start, start + 1, ...`` at each time ``-T .. T``.

    The common prefix of two vertices ends at the first letter where their
    zero-padded rows differ, capped by the shorter length; a sentinel
    column of mismatches stops rows that agree throughout.
    """
    width = letters.shape[2]
    mismatch = np.ones((len(letters) - start, letters.shape[1], width + 1), dtype=bool)
    np.not_equal(letters[i], letters[start:], out=mismatch[..., :width])
    common = np.minimum(mismatch.argmax(axis=2), np.minimum(lengths[i], lengths[start:]))
    return lengths[i] + lengths[start:] - 2 * common
