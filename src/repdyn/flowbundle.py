"""Cocycle transport along flow lines and empirical invariant splittings.

A flow line through the Cayley tree determines a sequence of generator
images; composing them transports fibers of the trivial bundle along the
line.  :class:`CocycleTrajectory` stores the partial products ``P(t)`` in
both directions from the basepoint (``P(0)`` is the identity and ``P(t)``
maps the fiber at time 0 to the fiber at time t).

`estimate_splitting` reads an index-k candidate splitting off the singular
value decompositions at the window ends: the forward-expanding block from
the directions most contracted by backward transport, the forward-contracted
block from the directions most contracted by forward transport, and the
neutral block from the middle right-singular directions.  `measure_rates`
then fits the contraction and dominance constants that a partially
hyperbolic splitting must exhibit.

Everything runs on stacks of lines.  `build_trajectory` walks a sequence
of lines together, one stacked product per step, and groups them by how
far they reach in each direction (a line that overflows stops early); each
group is one trajectory.  `estimate_splitting`, `measure_rates` and
`splitting_at`, which reads the frames at a sequence of pairs of times,
treat all the lines and times of a group in a few stacked calls.  A group
decomposes its products ``P(±t)`` once, in one `linalg.unchecked_frames`
call on first use (`CocycleTrajectory.frames`: in closed form for n = 3, by
LAPACK near a double singular value and for other n).  The gap checks read
its singular values, and `splitting_at` hands the rows it reads to
`linalg.singular_frames` and `bottom_singular_subspace`, which check them
as if they had decomposed them.  The relative products of `measure_rates`
take one checked decomposition of their own; LAPACK gives the stretches of
blocks of two or more columns, the column length the stretch of a
one-column block, and one `fitting.fit_lines` call per reach the rates.
Each decomposes its matrix or sums its row on its own, so a line gets the
same bits in a group as alone.  Every analysis returns one result per line
of the group, and a single line is a group of one.  A check that fails on
any line raises for the whole group, so a caller that wants per-line
outcomes (``repdyn split``) runs each half of a failing group again
(`CocycleTrajectory.lines_in`), down to the failing lines alone.
Each stacked check whose products pass the condition limit draws one
`ConditionWarning` that counts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .domination import GeneratorSet
from .errors import DegenerateGapError, DegenerateInputError, WindowBoundsError
from .fitting import fit_lines
from .linalg import (
    GAP_TOL,
    bottom_singular_subspace,
    log_column_lengths,
    require_orthonormal,
    singular_frames,
    subspace_distance,
    unchecked_frames,
)
from .words import alphabet, letter_rank

# default half width for trajectory windows
DEFAULT_WINDOW = 48

# smallest singular value of the stacked splitting basis must exceed this
_INDEPENDENCE_TOL = 1e-6

# fraction of the window (at the far end) used for rate fits
_FIT_FRACTION = 2.0 / 3.0

# half width of the sliding window that re-estimates splitting frames while
# rates are accumulated; long enough to resolve the blocks, short enough
# that the relative products stay well conditioned
_RELATIVE_WINDOW = 12


@dataclass
class CocycleTrajectory:
    """Partial transport products along flow line windows of equal reach.

    ``forward[b, t]`` is ``P(t)`` of ``lines[b]`` for ``t = 0..t_forward``
    and ``backward[b, t]`` is its ``P(-t)``; ``P(t + 1) = image(letter at
    t) @ P(t)`` and backward steps apply inverse images.  Both are read-only
    ``(B, T + 1, n, n)`` stacks.  ``truncated`` says that the lines stopped
    short of their windows on overflow.  ``positions`` are the places of
    the lines in the sequence given to `build_trajectory`.  ``_frames``
    holds the decomposition of `frames` once it is made.
    """

    gens: GeneratorSet
    lines: tuple
    forward: np.ndarray = field(repr=False)
    backward: np.ndarray = field(repr=False)
    positions: tuple
    truncated: bool = False
    _frames: tuple = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.gens.dim

    @property
    def size(self) -> int:
        return len(self.lines)

    @property
    def t_forward(self) -> int:
        return self.forward.shape[1] - 1

    @property
    def t_backward(self) -> int:
        return self.backward.shape[1] - 1

    def frames(self, sign):
        """``(s, vt)`` of ``P(sign * t)``, t = 0, 1, ..., of every line: the
        `linalg.unchecked_frames` of ``forward`` (``sign > 0``) or
        ``backward``, as read-only ``(B, T + 1, n)`` and ``(B, T + 1, n, n)``
        stacks.  Both directions are decomposed together, in one call, the
        first time either is asked for."""
        if self._frames is None:
            n, stacks = self.dim, (self.forward, self.backward)
            products = np.concatenate([p.reshape(-1, n, n) for p in stacks])
            # P(0) = I keeps the exact frames LAPACK gives it: unit values, vt = I
            moved = np.concatenate([np.tile(np.arange(p.shape[1]) > 0, len(p)) for p in stacks])
            s, vt = np.ones(products.shape[:-1]), np.tile(np.eye(n), (len(products), 1, 1))
            s[moved], vt[moved] = unchecked_frames(products[moved])
            s.flags.writeable = vt.flags.writeable = False
            cut = [self.forward.size // (n * n)]
            self._frames = tuple(
                (a.reshape(p.shape[:-1]), b.reshape(p.shape))
                for p, a, b in zip(stacks, np.split(s, cut), np.split(vt, cut))
            )
        return self._frames[0 if sign > 0 else 1]

    def lines_in(self, rows: slice) -> "CocycleTrajectory":
        """The group of the lines at ``rows``, keeping their positions and
        their rows of `frames` if they were made."""
        return replace(
            self,
            lines=self.lines[rows],
            forward=self.forward[rows],
            backward=self.backward[rows],
            positions=self.positions[rows],
            _frames=None if self._frames is None else tuple(
                (s[rows], vt[rows]) for s, vt in self._frames),
        )


def _images(gens):
    """The generator images in `alphabet` order, as one stack."""
    return np.stack([gens.image(l) for l in alphabet(gens.rank)])


def build_trajectory(gens: GeneratorSet, lines):
    """Compose generator images along flow line windows.

    Walks each line as far as its usable window in both directions (its
    ``usable_half_width``).  Overflowing float64 stops the affected
    direction of a line at its last finite product and flags it as
    truncated.  ``lines`` is a sequence of :class:`FlowLineWindow` objects,
    and the result a list of :class:`CocycleTrajectory` groups: one per
    group of lines that reach equally far in each direction and are equally
    truncated, in the order of each group's first line.  All lines walk
    together, one stacked product per step.
    """
    lines = tuple(lines)
    if not lines:
        raise ValueError("need at least one flow line")
    reach = np.array([line.usable_half_width for line in lines])
    count, width, n = len(lines), int(reach.max()), gens.dim

    # row b holds the letters of line b at relative times -width..width-1,
    # zero outside its reach; forward steps read the letters at 0, 1, ...
    # and backward steps invert those at -1, -2, ...
    letters = np.zeros((count, 2 * width), dtype=int)
    for row, line, r in zip(letters, lines, reach):
        row[width - r : width + r] = line.letters_between(-r, r)
    steps = np.concatenate([letters[:, width:], -letters[:, width - 1 :: -1]])
    # a line past its reach or its last finite product steps by the identity
    images = np.concatenate([_images(gens), np.eye(n)[None]])
    stay = len(images) - 1
    ranks = np.where(steps == 0, stay, letter_rank(steps))

    products = np.empty((2 * count, width + 1, n, n))
    products[:, 0] = np.eye(n)
    lengths = np.concatenate([reach, reach])
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(width):
            nxt = images[ranks[:, t]] @ products[:, t]
            overflow = ~np.isfinite(nxt).all(axis=(1, 2))
            if overflow.any():
                lengths[overflow] = t
                ranks[overflow, t + 1 :] = stay
                nxt[overflow] = products[overflow, t]
            products[:, t + 1] = nxt

    t_fwd, t_back = lengths[:count], lengths[count:]
    cut = (t_fwd < reach) | (t_back < reach)
    keys = list(zip(t_fwd.tolist(), t_back.tolist(), cut.tolist()))
    groups = []
    for key in dict.fromkeys(keys):
        members = [b for b, other in enumerate(keys) if other == key]
        tf, tb, truncated = key
        forward = products[members, : tf + 1]
        backward = products[[count + b for b in members], : tb + 1]
        forward.flags.writeable = backward.flags.writeable = False
        groups.append(CocycleTrajectory(
            gens=gens,
            lines=tuple(lines[b] for b in members),
            forward=forward,
            backward=backward,
            positions=tuple(members),
            truncated=truncated,
        ))
    return groups


@dataclass
class SplittingEstimate:
    """An empirical index-k splitting with its convergence residual.

    ``v_plus``, ``v_zero`` and ``v_minus`` are read-only ``(n, p)``
    orthonormal bases of the expanding, neutral and contracting blocks: the
    line's rows of the stacks `splitting_at` gives at the window ends.
    ``residual`` is the largest principal-angle change when the estimation
    window shrinks to three quarters; ``independence`` is the smallest
    singular value of the stacked basis (1 would be an orthogonal direct
    sum, 0 a degenerate one).
    """

    k: int
    v_plus: np.ndarray
    v_zero: np.ndarray
    v_minus: np.ndarray
    residual: float
    independence: float
    t_forward: int
    t_backward: int


def _check_gaps(traj, k, sign):
    """Raise at the first time 1, 2, ... in direction ``sign`` where the
    singular gap at index k or n - k of ``P(sign * t)`` collapses, on the
    first line that has such a time.  The singular values are those of
    `CocycleTrajectory.frames`."""
    n = traj.dim
    s = traj.frames(sign)[0][:, 1:]
    index = np.array(sorted({k, n - k}))
    gaps = (s[..., index - 1] - s[..., index]) / s[..., index - 1]
    failed = np.flatnonzero(gaps < GAP_TOL)
    if failed.size:
        line, row, col = np.unravel_index(failed[0], gaps.shape)
        p, gap, t = int(index[col]), gaps[line, row, col], sign * (int(row) + 1)
        raise DegenerateGapError(
            f"singular gap at index {p} degenerate at time {t} (relative gap {gap:.3e})",
            index=p,
            gap=float(gap),
            time=t,
        )


def _right_frames(first, second, k):
    """``vt`` of two equal-length stacks of products, from one checked SVD.

    The products are checked as `bottom_singular_subspace` checks them, in
    the order ``first[0], second[0], first[1], second[1], ...``, so the
    first failure is the one that check would meet first.
    """
    n = first.shape[-1]
    both = np.stack([first, second], axis=1).reshape(-1, n, n)
    _, vt = singular_frames(both, n - k, stacklevel=3)
    return vt[0::2], vt[1::2]


def _bases(rows):
    """Read-only orthonormal column bases from stacked rows of ``vt``."""
    return require_orthonormal(np.swapaxes(rows, -1, -2))


def _blocks(vt_forward, vt_backward, k):
    """Stacked bases ``(v_plus, v_zero, v_minus)`` read off right singular
    vectors, as `splitting_at` reads them."""
    n = vt_forward.shape[-1]
    return (
        _bases(vt_backward[:, n - k :]),
        _bases(vt_forward[:, k : n - k]),
        _bases(vt_forward[:, n - k :]),
    )


def _rows_at(traj, sign, times):
    """The products ``P(sign * t)`` of every line at ``times``, as one
    ``(B * len(times), n, n)`` stack, and their rows of `frames`."""
    n = traj.dim
    store = traj.forward if sign > 0 else traj.backward
    s, vt = traj.frames(sign)
    return store[:, times].reshape(-1, n, n), (s[:, times].reshape(-1, n),
                                               vt[:, times].reshape(-1, n, n))


def splitting_at(traj, k: int, t_forward, t_backward):
    """Raw splitting estimates from pairs of window ends.

    Reads ``(v_plus, v_zero, v_minus)`` off ``P(-t_backward[i])`` and
    ``P(t_forward[i])`` for each pair i of two equal-length sequences of
    times, without residual or independence checks; `estimate_splitting`
    wraps this with both.  They are three read-only ``(B, N, n, p)`` stacks
    of orthonormal bases (p the block dimension), a row per line and within
    it a row per pair.  All the ``P(-t_backward)`` go through one
    `bottom_singular_subspace` call, then all the ``P(t_forward)`` through
    one `singular_frames` call, each checked line by line.  Both read the
    group's `CocycleTrajectory.frames` instead of decomposing.
    """
    tf, tb = np.asarray(t_forward, dtype=int), np.asarray(t_backward, dtype=int)
    if tf.ndim != 1 or tf.shape != tb.shape:
        raise WindowBoundsError("need two equal-length sequences of times")
    if ((tf < 0) | (tf > traj.t_forward) | (tb < 0) | (tb > traj.t_backward)).any():
        raise WindowBoundsError(
            f"times must lie in 0..{traj.t_forward} forward, 0..{traj.t_backward} backward"
        )
    n = traj.dim
    ms, frames = _rows_at(traj, -1, tb)
    v_plus = bottom_singular_subspace(ms, k, frames=frames)
    ms, frames = _rows_at(traj, +1, tf)
    _, vt = singular_frames(ms, n - k, frames=frames)
    blocks = v_plus, _bases(vt[:, k : n - k]), _bases(vt[:, n - k :])
    return tuple(b.reshape(traj.size, tf.size, n, -1) for b in blocks)


def _check_index(k, n):
    """Refuse a splitting index k without a nonempty neutral block."""
    if n < 3:
        raise ValueError("a splitting with a nonempty neutral block needs dimension"
                         f" at least 3, got {n}")
    if not 1 <= k < n / 2:
        raise ValueError(f"k must satisfy 1 <= k < {n / 2:g} for dimension {n}")


def estimate_splitting(traj: CocycleTrajectory, k: int) -> list[SplittingEstimate]:
    """Candidate invariant splitting of index k from a trajectory window.

    Requires ``1 <= k < n / 2`` (the neutral block must be nonempty) and at
    least two steps in each direction.  Raises
    :class:`DegenerateGapError`, naming the first failing time, when a
    required singular gap collapses anywhere in the window, and
    :class:`DegenerateInputError` when the three blocks fail to be
    linearly independent; the first line of the group that fails a check
    raises.  Returns a list of :class:`SplittingEstimate`, one per line.
    """
    _check_index(k, traj.dim)
    if traj.t_forward < 2 or traj.t_backward < 2:
        raise WindowBoundsError("need at least two steps in each direction")
    _check_gaps(traj, k, +1)
    _check_gaps(traj, k, -1)

    t_fwd, t_back = traj.t_forward, traj.t_backward
    blocks = [b[:, 0] for b in splitting_at(traj, k, [t_fwd], [t_back])]

    def shrink(t):
        s = max(1, (3 * t) // 4)
        return s if s < t else t - 1

    shrunk = [b[:, 0] for b in splitting_at(traj, k, [shrink(t_fwd)], [shrink(t_back)])]
    residual = np.max([subspace_distance(a, b) for a, b in zip(blocks, shrunk)], axis=0)
    stacked = np.concatenate(blocks, axis=2)
    independence = np.linalg.svd(stacked, compute_uv=False)[:, -1]
    dependent = np.flatnonzero(independence <= _INDEPENDENCE_TOL)
    if dependent.size:
        raise DegenerateInputError(
            f"splitting blocks nearly dependent (smallest stacked singular value"
            f" {independence[dependent[0]]:.3e})"
        )
    v_plus, v_zero, v_minus = blocks
    return [
        SplittingEstimate(
            k=k,
            v_plus=v_plus[b],
            v_zero=v_zero[b],
            v_minus=v_minus[b],
            residual=float(residual[b]),
            independence=float(independence[b]),
            t_forward=t_fwd,
            t_backward=t_back,
        )
        for b in range(traj.size)
    ]


@dataclass
class RateReport:
    """Fitted contraction and dominance constants for a splitting.

    Rates are positive when the splitting behaves partially hyperbolically:
    ``a_plus`` (backward contraction of the expanding block), ``a_minus``
    (forward contraction of the contracting block), and the two dominance
    rates of neutral over expanding and contracting over neutral.  ``A_*``
    are the matching multiplicative constants from the fit intercepts.
    """

    a_plus: float
    A_plus: float
    a_minus: float
    A_minus: float
    aprime_plus_zero: float
    Aprime_plus_zero: float
    aprime_zero_minus: float
    Aprime_zero_minus: float
    curves: dict


def _log_stretches(steps, bases):
    """Log largest and log smallest singular value of each ``step @ basis``:
    the log length of the one column of a one-column basis, by SVD for
    wider bases."""
    images = steps @ bases
    if bases.shape[-1] == 1:
        logs = log_column_lengths(images.reshape(-1, *images.shape[-2:]))
        logs = logs.reshape(images.shape[:-2])
        return logs, logs
    logs = np.log(np.linalg.svd(images, compute_uv=False))
    return logs[..., 0], logs[..., -1]


def _running_sum(steps):
    """0 followed by the running sums of each row of ``steps``, added one at
    a time."""
    return np.cumsum(np.concatenate([np.zeros((len(steps), 1)), steps], axis=1), axis=1)


def measure_rates(traj: CocycleTrajectory, k: int) -> list[RateReport]:
    """Fit contraction and dominance rates of a splitting along a trajectory.

    Each curve accumulates, step by step, the logarithmic extremal stretch
    of a splitting block, with the blocks re-estimated at every time from a
    short relative window; straight lines are fitted on the far two thirds
    of each curve.  The relative products, their frames and the stretches
    are all computed as stacks over the lines and times, and the curves are
    running sums that add the stretches in time order.  ``k`` is the index
    of the splitting, as given to `estimate_splitting`, and the result a
    list of :class:`RateReport`, one per line.
    """
    _check_index(k, traj.dim)
    n = traj.dim
    tb, tf = traj.t_backward, traj.t_forward
    h = max(1, min(_RELATIVE_WINDOW, min(tb, tf) // 2))
    extent_f = tf - h
    extent_b = tb - h
    if extent_f < 1 or extent_b < 1:
        raise WindowBoundsError("trajectory window too small to fit rates")

    # the blocks at time s are re-estimated from the relative products over
    # [s, s + h] and [s - h, s].  Short products stay well conditioned, so
    # the blocks carry a uniformly small error at every time; transporting
    # one basis across the whole window would let the strongest direction
    # amplify basis error until the contracted blocks sink below float
    # noise.  The backward curve needs the blocks at s = 0, -1, ...,
    # 1 - extent_b and the forward curves at s = 0, 1, ..., extent_f - 1.
    times = np.concatenate([-np.arange(extent_b), np.arange(1, extent_f)])
    first = 1 - extent_b - h
    ranks = letter_rank(np.array(
        [line.letters_between(first, extent_f + h - 1) for line in traj.lines]
    ))
    images = _images(traj.gens)

    def image_at(u, inverse=False):
        """Images of each line's letters at times ``u`` (an index array), or
        their inverses, as a ``(B, len(u), n, n)`` stack."""
        return images[ranks[:, u - first] ^ inverse]

    forward = backward = np.eye(n)
    for j in range(h):
        forward = image_at(times + j) @ forward
        backward = image_at(times - j - 1, inverse=True) @ backward
    vt_fwd, vt_back = _right_frames(forward.reshape(-1, n, n), backward.reshape(-1, n, n), k)
    plus, zero, minus = (
        b.reshape(traj.size, times.size, n, -1) for b in _blocks(vt_fwd, vt_back, k)
    )

    s_b = np.arange(extent_b)
    stretch_b, _ = _log_stretches(image_at(-s_b - 1, inverse=True), plus[:, :extent_b])
    up_back = _running_sum(stretch_b)

    s_f = np.arange(extent_f)
    rows = np.where(s_f == 0, 0, s_f + extent_b - 1)
    step = image_at(s_f)
    log_minus, _ = _log_stretches(step, minus[:, rows])
    zero_max, zero_min = _log_stretches(step, zero[:, rows])
    _, plus_min = _log_stretches(step, plus[:, rows])
    down_fwd = _running_sum(log_minus)
    dom_pz = _running_sum(zero_max - plus_min)
    dom_zm = _running_sum(log_minus - zero_min)

    start_f = min(extent_f - int(_FIT_FRACTION * extent_f), extent_f - 1)
    start_b = min(extent_b - int(_FIT_FRACTION * extent_b), extent_b - 1)
    # one stacked fit per reach: the backward curve of each line, then the
    # three forward curves of each line
    slope_b, intercept_b, _ = fit_lines(np.arange(start_b, extent_b + 1), up_back[:, start_b:])
    forward_curves = np.concatenate([down_fwd, dom_pz, dom_zm])[:, start_f:]
    slope_f, intercept_f, _ = fit_lines(np.arange(start_f, extent_f + 1), forward_curves)
    slopes = np.concatenate([slope_b, slope_f]).reshape(4, traj.size)
    intercepts = np.concatenate([intercept_b, intercept_f]).reshape(4, traj.size)
    # row b: the backward expanding, forward contracting and two dominance fits
    rates, constants = (-slopes).T.tolist(), np.exp(intercepts).T.tolist()

    def report(b):
        a_plus, a_minus, ap_pz, ap_zm = rates[b]
        A_plus, A_minus, App_pz, App_zm = constants[b]
        return RateReport(
            a_plus=a_plus,
            A_plus=A_plus,
            a_minus=a_minus,
            A_minus=A_minus,
            aprime_plus_zero=ap_pz,
            Aprime_plus_zero=App_pz,
            aprime_zero_minus=ap_zm,
            Aprime_zero_minus=App_zm,
            curves={
                "backward_expanding": up_back[b],
                "forward_contracting": down_fwd[b],
                "dominance_neutral_over_expanding": dom_pz[b],
                "dominance_contracting_over_neutral": dom_zm[b],
            },
        )

    return [report(b) for b in range(traj.size)]
