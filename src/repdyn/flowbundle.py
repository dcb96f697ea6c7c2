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
hyperbolic splitting must exhibit, optionally in a changed fiber norm.

Frames come from stacked decompositions: `splitting_frames` reads the
blocks at many times off one checked SVD (`linalg.singular_frames`) of all
their products, and `measure_rates` does the same for its relative
products, so a window costs a few stacked LAPACK calls, not one per time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domination import GeneratorSet
from .errors import DegenerateGapError, DegenerateInputError, WindowBoundsError
from .fitting import fit_line
from .linalg import (
    GAP_TOL,
    Subspace,
    bottom_singular_subspace,
    require_matrix,
    require_orthonormal,
    singular_frames,
    subspace_distance,
)
from .words import FlowLineWindow, alphabet, letter_rank

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
    """Partial transport products along a flow line window.

    ``forward[t]`` is ``P(t)`` for ``t = 0..t_forward`` and ``backward[t]``
    is ``P(-t)``; ``P(t + 1) = image(letter at t) @ P(t)`` and backward
    steps apply inverse images.  Both are read-only ``(T + 1, n, n)``
    stacks.
    """

    gens: GeneratorSet
    line: FlowLineWindow
    forward: np.ndarray = field(repr=False)
    backward: np.ndarray = field(repr=False)
    truncated: bool = False

    @property
    def dim(self) -> int:
        return self.gens.dim

    @property
    def t_forward(self) -> int:
        return len(self.forward) - 1

    @property
    def t_backward(self) -> int:
        return len(self.backward) - 1

    def product(self, t: int) -> np.ndarray:
        """Transport matrix from the fiber at time 0 to the fiber at t."""
        store = self.forward if t >= 0 else self.backward
        i = abs(t)
        if i >= len(store):
            raise WindowBoundsError(f"time {t} outside the computed window")
        return store[i]


def build_trajectory(gens: GeneratorSet, line: FlowLineWindow,
                     half_width: Optional[int] = None) -> CocycleTrajectory:
    """Compose generator images along a flow line window.

    Walks as far as the line's usable window (or ``half_width``, if smaller)
    in both directions.  Overflowing float64 stops the affected direction at
    the last finite product and flags the trajectory as truncated.
    """
    usable = line.usable_half_width
    if half_width is None:
        half_width = usable
    if not 1 <= half_width <= usable:
        raise WindowBoundsError(
            f"half width {half_width} exceeds the usable window {usable}"
        )
    truncated = False
    forward = [np.eye(gens.dim)]
    for t in range(half_width):
        nxt = gens.image(line.letter(t)) @ forward[-1]
        if not np.isfinite(nxt).all():
            truncated = True
            break
        forward.append(nxt)
    backward = [np.eye(gens.dim)]
    for t in range(half_width):
        nxt = gens.image(-line.letter(-t - 1)) @ backward[-1]
        if not np.isfinite(nxt).all():
            truncated = True
            break
        backward.append(nxt)
    forward, backward = np.stack(forward), np.stack(backward)
    forward.flags.writeable = backward.flags.writeable = False
    return CocycleTrajectory(
        gens=gens, line=line, forward=forward, backward=backward, truncated=truncated
    )


@dataclass
class SplittingEstimate:
    """An empirical index-k splitting with its convergence residual.

    ``residual`` is the largest principal-angle change when the estimation
    window shrinks to three quarters; ``independence`` is the smallest
    singular value of the stacked basis (1 would be an orthogonal direct
    sum, 0 a degenerate one).
    """

    k: int
    v_plus: Subspace
    v_zero: Subspace
    v_minus: Subspace
    residual: float
    independence: float
    t_forward: int
    t_backward: int


def _check_gaps(traj, k, sign):
    """Raise at the first time 1, 2, ... in direction ``sign`` where the
    singular gap at index k or n - k of ``P(sign * t)`` collapses."""
    n = traj.dim
    store = traj.forward if sign > 0 else traj.backward
    s = np.linalg.svd(store[1:], compute_uv=False)
    index = np.array(sorted({k, n - k}))
    gaps = (s[:, index - 1] - s[:, index]) / s[:, index - 1]
    failed = np.flatnonzero(gaps < GAP_TOL)
    if failed.size:
        row, col = divmod(int(failed[0]), index.size)
        p, gap, t = int(index[col]), gaps[row, col], sign * (row + 1)
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
    _, _, vt = singular_frames(both, n - k, stacklevel=3)
    return vt[0::2], vt[1::2]


def _blocks(vt_forward, vt_backward, k):
    """Stacked bases ``(v_plus, v_zero, v_minus)`` read off right singular
    vectors, as `splitting_at` reads them."""
    n = vt_forward.shape[-1]

    def bases(rows):
        return require_orthonormal(np.swapaxes(rows, 1, 2))

    return (
        bases(vt_backward[:, n - k :]),
        bases(vt_forward[:, k : n - k]),
        bases(vt_forward[:, n - k :]),
    )


def splitting_at(traj, k: int, t_forward: int, t_backward: int):
    """Raw splitting estimate from specific window ends.

    Returns ``(v_plus, v_zero, v_minus)`` read off the products
    ``P(-t_backward)`` and ``P(t_forward)`` without residual or
    independence checks; `estimate_splitting` wraps this with both.
    """
    n = traj.dim
    v_plus = bottom_singular_subspace(traj.product(-t_backward), k)
    _, _, vt = singular_frames(traj.product(t_forward)[None], n - k)
    return v_plus, Subspace(vt[0, k : n - k].T), Subspace(vt[0, n - k :].T)


def splitting_frames(traj, k: int, times):
    """`splitting_at` ``(traj, k, t, t)`` for every t in ``times``, stacked.

    Returns ``(v_plus, v_zero, v_minus)`` as read-only ``(N, n, p)`` stacks
    of orthonormal bases (p the block dimension), one row per time, from one
    SVD of all the products ``P(-t)`` and ``P(t)``.  They are checked in the
    order ``P(-t), P(t)`` of each time in turn, and the first that fails
    raises what `splitting_at` would raise for it.
    """
    times = np.asarray(times, dtype=int)
    horizon = min(traj.t_forward, traj.t_backward)
    if times.size and not (0 <= times.min() and times.max() <= horizon):
        raise WindowBoundsError(f"times must lie in 0..{horizon}")
    vt_back, vt_fwd = _right_frames(traj.backward[times], traj.forward[times], k)
    return _blocks(vt_fwd, vt_back, k)


def estimate_splitting(traj: CocycleTrajectory, k: int) -> SplittingEstimate:
    """Candidate invariant splitting of index k from a trajectory window.

    Requires ``1 <= k < n / 2`` (the neutral block must be nonempty) and at
    least two steps in each direction.  Raises
    :class:`DegenerateGapError`, naming the first failing time, when a
    required singular gap collapses anywhere in the window, and
    :class:`DegenerateInputError` when the three blocks fail to be
    linearly independent.
    """
    n = traj.dim
    if not 1 <= k < n / 2:
        raise ValueError(f"k must satisfy 1 <= k < {n / 2:g} for dimension {n}")
    if traj.t_forward < 2 or traj.t_backward < 2:
        raise WindowBoundsError("need at least two steps in each direction")
    _check_gaps(traj, k, +1)
    _check_gaps(traj, k, -1)

    t_fwd, t_back = traj.t_forward, traj.t_backward
    v_plus, v_zero, v_minus = splitting_at(traj, k, t_fwd, t_back)

    def shrink(t):
        s = max(1, (3 * t) // 4)
        return s if s < t else t - 1

    p2, z2, m2 = splitting_at(traj, k, shrink(t_fwd), shrink(t_back))
    residual = max(
        subspace_distance(v_plus, p2),
        subspace_distance(v_zero, z2),
        subspace_distance(v_minus, m2),
    )
    stacked = np.hstack([v_plus.basis, v_zero.basis, v_minus.basis])
    independence = float(np.linalg.svd(stacked, compute_uv=False)[-1])
    if independence <= _INDEPENDENCE_TOL:
        raise DegenerateInputError(
            f"splitting blocks nearly dependent (smallest stacked singular value"
            f" {independence:.3e})"
        )
    return SplittingEstimate(
        k=k,
        v_plus=v_plus,
        v_zero=v_zero,
        v_minus=v_minus,
        residual=residual,
        independence=independence,
        t_forward=t_fwd,
        t_backward=t_back,
    )


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
    fit_start_forward: int
    fit_start_backward: int
    norm_used: bool


def _log_stretches(steps, bases):
    """Log largest and log smallest singular value of each ``step @ basis``."""
    logs = np.log(np.linalg.svd(steps @ bases, compute_uv=False))
    return logs[:, 0], logs[:, -1]


def _running_sum(steps):
    """0 followed by the running sums of ``steps``, added one at a time."""
    return np.cumsum(np.concatenate(([0.0], steps)))


def measure_rates(traj: CocycleTrajectory, split: SplittingEstimate,
                  norm_matrix=None) -> RateReport:
    """Fit contraction and dominance rates of a splitting along a trajectory.

    Each curve accumulates, step by step, the logarithmic extremal stretch
    of a splitting block, with the blocks re-estimated at every time from a
    short relative window; straight lines are fitted on the far two thirds
    of each curve.  ``norm_matrix`` measures the fibers in the norm
    ``|W v|`` instead of the Euclidean one, i.e. transports in the
    coordinates ``x -> W x``; fitted rates are insensitive to that choice.
    The relative products, their frames and the stretches are all computed
    as stacks over the times, and the curves are running sums that add the
    stretches in time order.
    """
    gens, line = traj.gens, traj.line
    if norm_matrix is not None:
        w = require_matrix(norm_matrix, "norm matrix")
        w_inv = np.linalg.inv(w)
        gens = GeneratorSet(
            [w @ gens.image(i + 1) @ w_inv for i in range(gens.rank)],
            names=gens.names,
        )

    k = split.k
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
    ranks = letter_rank(np.array([line.letter(u) for u in range(first, extent_f + h - 1)]))
    images = np.stack([gens.image(l) for l in alphabet(gens.rank)])

    def image_at(u, inverse=False):
        """Images of the letters at times ``u`` (an index array), or their inverses."""
        return images[ranks[u - first] ^ inverse]

    forward = backward = np.eye(n)
    for j in range(h):
        forward = image_at(times + j) @ forward
        backward = image_at(times - j - 1, inverse=True) @ backward
    vt_fwd, vt_back = _right_frames(forward, backward, k)
    plus, zero, minus = _blocks(vt_fwd, vt_back, k)

    s_b = np.arange(extent_b)
    stretch_b, _ = _log_stretches(image_at(-s_b - 1, inverse=True), plus[:extent_b])
    up_back = _running_sum(stretch_b)

    s_f = np.arange(extent_f)
    rows = np.where(s_f == 0, 0, s_f + extent_b - 1)
    step = image_at(s_f)
    log_minus, _ = _log_stretches(step, minus[rows])
    zero_max, zero_min = _log_stretches(step, zero[rows])
    _, plus_min = _log_stretches(step, plus[rows])
    down_fwd = _running_sum(log_minus)
    dom_pz = _running_sum(zero_max - plus_min)
    dom_zm = _running_sum(log_minus - zero_min)

    start_f = min(extent_f - int(_FIT_FRACTION * extent_f), extent_f - 1)
    start_b = min(extent_b - int(_FIT_FRACTION * extent_b), extent_b - 1)
    ts_f = np.arange(start_f, extent_f + 1)
    ts_b = np.arange(start_b, extent_b + 1)

    def rate(curve, ts):
        slope, intercept, _ = fit_line(ts, curve[ts[0] : ts[-1] + 1])
        return -slope, float(np.exp(intercept))

    a_plus, A_plus = rate(up_back, ts_b)
    a_minus, A_minus = rate(down_fwd, ts_f)
    ap_pz, App_pz = rate(dom_pz, ts_f)
    ap_zm, App_zm = rate(dom_zm, ts_f)
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
            "backward_expanding": up_back,
            "forward_contracting": down_fwd,
            "dominance_neutral_over_expanding": dom_pz,
            "dominance_contracting_over_neutral": dom_zm,
        },
        fit_start_forward=int(start_f),
        fit_start_backward=int(start_b),
        norm_used=norm_matrix is not None,
    )
