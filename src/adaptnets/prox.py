"""The exact l1 prox of the weighted neighbor-difference penalty: the
social step of prox_l1 and of clustered with the l1 penalty.

social_prox_l1 solves every agent and coordinate at once on a neighbor
table (EdgeRegularizer.neighbor_table); ProxPlan holds the tables and
frames a step on m coordinate rows reuses, built once per m by
EdgeRegularizer.prox_plan. The kernel follows the out contract of
adaptnets.strategies.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .strategies import EdgeRegularizer

__all__ = ["ProxPlan", "social_prox_l1"]


class ProxPlan:
    """The l1 prox's constant tables for m coordinate rows of N agents with
    neighbor tables of width D, and the frames a step writes into (see
    social_prox_l1, Layout). Each step overwrites the frames, so a plan
    serves one step at a time; nothing a step returns is a view of a plan.

    A cell is one (row, agent) pair; the m N cells are numbered row-major.
    The plan holds:
      - the row buffer: the cells' values, then +inf, 0.0 and -inf, then,
        for the median path, a (D + 1, m N) block for c;
      - the (m N, D) gather of the neighbor values, whose padded slots read
        +inf, and, for the argsort path, the offsets of each cell's slots in
        that gather and the weights tiled to the same flat positions;
      - the objective's slot-major (D, m N) gather, whose padded slots read
        0.0, and its weights, (D, 1, m N);
      - the slot-major frames: the argsort path's sorted positions
        (D, m N), a frame of the bounds b_{-1} .. b_D above the stationary
        points c_0 .. c_D, whose -inf and +inf rows are set once, the
        prefix sums P_0 .. P_D with a first row of 0, the penalties
        (D, 3, m N) and the gaps (2, m N);
      - the flat positions in that frame of each cell's lo, c_0 and hi;
      - the constants of the rounding margin (see margin): D, the largest
        row sum of the weights P_max, 3 gamma_D + 3 u and 8 gamma_{D+5},
        with gamma_n = n u / (1 - n u) <= 1.01 n u and u = 2^-53;
      - where every table row's nonzero weights are equal, the median
        path's: T = gamma (2 P - P_D), (D + 1, m N), for the last gamma it
        was made for (see shift), the (m N, 2 D + 1) gather of each cell's
        neighbor values and its c_0 .. c_D, whose c past the cell's own
        degree reads -inf, and the frame it is gathered into and sorted in.
        shifts is None otherwise.
    """

    def __init__(self, index: np.ndarray, weight: np.ndarray, m: int):
        n, d = index.shape
        cells = m * n
        padded = index == n
        neighbor = np.arange(m)[:, None, None] * n + index      # (m, N, D)
        equal = bool(np.all(padded | (weight == weight[:, :1])))
        self.rows = np.zeros(cells + 3 + equal * (d + 1) * cells)
        self.rows[cells] = np.inf
        self.rows[cells + 2] = -np.inf
        self.values = np.where(padded, cells, neighbor).reshape(cells, d)
        self.slots = np.where(padded, cells + 1, neighbor) \
            .transpose(2, 0, 1).reshape(d, cells)
        self.sort_offsets = np.arange(cells)[:, None] * d
        self.weights = np.tile(weight.ravel(), m)
        self.slot_weights = np.tile(weight.T, (1, m))[:, None, :]
        self.sorted_at = np.empty((d, cells), dtype=np.intp)
        self.frame = np.empty((2 * d + 3, cells))
        self.bounds, self.c = self.frame[:d + 2], self.frame[d + 2:]
        self.bounds[0] = -np.inf
        self.bounds[-1] = np.inf
        self.prefix = np.zeros((d + 1, cells))
        self.pen = np.empty((d, 3, cells))
        self.gaps = np.empty((2, cells))
        # frame positions of bounds[0], c[0] and bounds[1] in each column:
        # j * cells + picks gathers lo = bounds[j], c[j], hi = bounds[j + 1]
        self.picks = np.arange(cells) + np.array([[0], [d + 2], [1]]) * cells
        # the median path's tables and frames (see social_prox_l1)
        self.shift_gamma = self.shifts = None
        if equal:
            self.shifts = np.empty((d + 1, cells))
            self.c_block = self.rows[cells + 3:].reshape(d + 1, cells)
            # c_j of cell i sits at c_block[j, i]; past the cell's degree
            # the merge reads the -inf entry instead
            at_c = cells + 3 + np.arange(cells)[:, None] + np.arange(d + 1) * cells
            degree = np.tile(np.count_nonzero(~padded, axis=1), m)
            at_c[np.arange(d + 1) > degree[:, None]] = cells + 2
            self.merge = np.concatenate([self.values, at_c], axis=1)
            self.merged = np.empty((cells, 2 * d + 1))
        # the rounding margin's constants (see margin)
        self.width = d
        self.p_max = float(weight.sum(axis=1).max(initial=0.0))
        self.c_err = (3.03 * d + 3.0) * 2.0**-53
        self.kappa8 = 8.08 * (d + 5) * 2.0**-53

    def margin(self, x_max, gamma):
        """tau of the rounding bound in social_prox_l1 for the step size
        gamma on cells of largest magnitude x_max: a cell whose gaps to lo
        and hi are each 0 or above tau keeps its clipped c. +inf outside the
        range the bound covers (x_max and gamma * P_max at most 2^500, gamma
        in [2^-500, 2^500]; a nan x_max is outside)."""
        g = gamma * self.p_max
        # a nan x_max, first, makes max nan
        if not max(x_max, g, gamma, 1.0 / gamma) <= 2.0**500:
            return math.inf
        v = x_max + g
        delta = 2.0**-53 * v + g * self.c_err + 2.0**-1073
        # K = 4 kappa (2 v^2 + 2 g v) + 4 gamma E
        k = self.kappa8 * v * (v + g) + 2.0**-1072 * (gamma * (self.width + 2) + 1)
        return 4.0 * delta + 2.0 * math.sqrt(k)

    def shift(self, gamma):
        """gamma (2 P - P_D) from the prefix sums P of the table's weights
        in its own order, made when gamma changes (see social_prox_l1,
        The median path)."""
        if gamma != self.shift_gamma:
            self.slot_weights[:, 0].cumsum(axis=0, out=self.prefix[1:])
            _shift(self.prefix, gamma, self.shifts)
            self.shift_gamma = gamma
        return self.shifts


def _shift(prefix, gamma, out):
    """gamma (2 P - P_D) for prefix sums P, written into out."""
    np.multiply(prefix, 2.0, out=out)
    out -= prefix[-1]
    out *= gamma


def social_prox_l1(psi, regularizer: EdgeRegularizer, mu_eta: float,
                   out=None) -> np.ndarray:
    """w_k = prox of the weighted l1 neighbor-difference penalty at psi_k,
    solved exactly for every agent and coordinate at once and written into
    out (see the out contract): with x = psi and gamma = mu_eta,

        w_k = argmin_w  (w - x_k)^2 / (2 gamma) + sum_l rho_{kl} |w - x_l|

    for x of shape (..., N, M). Per coordinate the objective is piecewise
    quadratic with breakpoints at the sorted neighbor values
    b_0 <= ... <= b_{D-1}. On interval j = [b_{j-1}, b_j] (b_{-1} = -inf,
    b_D = +inf) its stationary point is

        c_j = x_k - gamma * (2 P_j - P_D),   P_j = sum of the j smallest
                                             breakpoints' weights,

    and c_j decreases while b_j increases, so the minimizer lies in interval
    j* = #{j : c_j > b_j}, the first j with c_j <= b_j, at
    clip(c_{j*}, b_{j*-1}, b_{j*}). The sort costs O(D log D) and the rest
    O(D) per coordinate.

    Exact in real arithmetic; in floating point the rounded c_{j*} can land
    a few ulps beside a breakpoint that is the true minimizer, and an agent
    that should fuse onto a neighbor's value would miss it. So the objective
    is also evaluated at the two bracketing breakpoints, summed neighbor by
    neighbor, and the lowest of the three wins, the lower one on a tie
    (_choose_by_objective). A step skips that when a rounding bound proves
    every cell keeps mid = clip(c_{j*}, lo, hi), and then returns exactly
    the bits the objective would have chosen.

    The margin. Write u = 2^-53, gamma_n = n u / (1 - n u) (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3-4), X = max |x|
    over the cells, P_max the largest row sum of the weights and
    V = X + gamma P_max. Take one cell with lo < hi.
      - On [lo, hi] the exact objective is F(v) = F(c*) + (v - c*)^2/(2 gamma),
        c* = x_k - gamma (2 P*_{j*} - P*_D) from the exact prefix sums of
        the sorted weights, whichever interval the rounded test chose: every
        breakpoint sorted before lo is below v and every one from hi on is
        above it.
      - The computed c = c_{j*} has |c - c*| <= delta, with
        delta = u V + gamma P_max (3 gamma_D + 3 u) + 2^-1073: the cumsum
        (gamma_{D-1} P_max per prefix sum, three of them in 2 P_j - P_D),
        the subtract, the product by gamma and the subtract from x_k, and
        an underflow of the product.
      - The computed objective has f(v) = F(v)(1 + theta) + e with
        |theta| <= kappa = gamma_{D+5}, since every term is nonnegative (a
        penalty takes a difference, a product, at most D - 1 adds down the
        slots and the add of the quadratic; the quadratic a difference, its
        square, a division and that add), and |e| <= E =
        2^-1074 (D + 2 + 1/gamma) for products that underflow. An f that
        overflows to +inf only widens a gap, or makes f_mid non-finite,
        which keeps mid too. Every finite candidate has |v| <= V, so
        F(v) <= F_max = 2 V^2 / gamma + 2 P_max V.
      - Let g be the gap from mid to the far candidate: mid - lo for an
        interior cell's lo and a cell clipped at hi, hi - mid for an
        interior cell's hi and a cell clipped at lo. Then
        F(far) - F(mid) >= g (g - 2 delta) / (2 gamma) (a cell clipped at
        lo has c* <= lo + delta, one clipped at hi c* >= hi - delta), and
        the computed f(far) > f(mid) once
        g (g - 2 delta) > K = 4 gamma (kappa F_max + E).
      - So every gap above tau0 = delta + sqrt(delta^2 + K) makes the far
        candidate's f strictly larger: f_lo > f_mid and f_hi > f_mid for an
        interior cell, f_hi > f_lo = f_mid for one clipped at lo and
        f_lo > f_hi = f_mid for one clipped at hi. In each case to_hi and
        to_lo below leave mid. An infinite lo or hi, whose gap is +inf, is
        never chosen either (see Layout). Where lo = hi both gaps are 0 and
        all three candidates are one value.
    ProxPlan.margin returns tau = 4 delta + 2 sqrt(K) >= 2 tau0, with
    gamma_n <= 1.01 n u, which also covers the rounding of the gaps, of tau
    itself and of |v| <= V at c. A step takes the
    bound's path when X, gamma and gamma P_max lie in margin's range, no
    computed gap mid - lo or hi - mid lies in (0, tau] (0 is a cell
    clipped onto lo or hi, or lo = hi), and no mid is +-0.0, which the
    objective could replace by a lo of the other sign. Otherwise it runs
    the objective for every cell. On the sparse_prox benchmark's state,
    tau is 2e-8 to 5e-7 and more than 99% of steps skip the objective.

    Agreement with minimizing the objective over all D + 1 clipped interval
    candidates: bit for bit, ties included, provided numpy's sort orders
    tied values the same with or without +inf padding after them (that
    order fixes the rounding of the prefix sums; checked with numpy 2.4 on
    x86-64 with AVX-512). The exception is an agent whose neighbor values differ by less
    than about 1e-12 of their scale: the minimizer is then only located to
    rounding, and the two can return points that far apart.

    Layout: the neighbor table pads every agent to the largest degree D
    with weight 0; an isolated agent passes through unchanged. A cell is
    one (coordinate row, agent) pair of the m = runs x M rows, and
    everything that depends only on m and the table is the regularizer's
    ProxPlan for m, built by the first step on m rows. A step copies x into
    the plan's row buffer, whose three entries after the cells hold +inf,
    0.0 and -inf. The median path below serves most steps of a scalar rho;
    the argsort path serves the rest. It:
      - argsorts on contiguous (m N, D) rows, one per cell: the gather reads
        +inf at padded slots, so they sort last, add exactly +0.0 to every
        prefix sum and are never the chosen interval;
      - works slot-major after the sort, on (slots, m N) arrays, so every
        numpy call runs along a contiguous axis of m N entries: the sorted
        positions (transposed once, as the sort offsets are added), the
        bounds, the prefix sums (a cumsum down the slots, the same adds in
        the same order), c, the interval test, one gather of lo, c_{j*}
        and hi, the gaps mid - lo and hi - mid (one subtract of adjacent
        rows), and, where the margin does not hold, the penalties at the
        three candidates, (D, 3, m N), summed down the slots, neighbor by
        neighbor.

    The median path. Where every table row's nonzero weights are equal (a
    scalar rho, masked or not, gives such a table; a user matrix may not),
    the order of a cell's weights cannot change a prefix sum: P_j adds j
    copies of the row's weight in one sequence, whichever neighbors are the
    j smallest, so long as every real neighbor sorts before every padded
    slot. So c = x - T, where T = gamma (2 P - P_D) is the plan's
    (ProxPlan.shift), made once per gamma from the table's own order by the
    multiply, subtract and multiply the argsort path runs: the same bits as
    its c. The clipped stationary point is then a median (Li & Osher,
    Commun. Math. Sci. 2009). For sorted b_0 .. b_{D-1} and non-increasing
    c_0 .. c_D, v = clip(c_{j*}, b_{j*-1}, b_{j*}) = max(c_{j*}, b_{j*-1})
    is element D of the 2 D + 1 values sorted: the b_j with j < j* and the
    c_j with j >= j* are D + 1 values <= v, and the b_j with j >= j*, the
    c_j with j < j* (c_j >= c_{j*-1} > b_{j*-1}) and v itself are D + 1
    values >= v. The computed c is non-increasing, since rounding is
    monotone and the prefix sums add nonnegative weights. A cell of degree
    d < D adds D - d padded b's at +inf and reads -inf for its c past c_d:
    pairs that do not move a median. A step writes c into the row buffer's
    block in one subtract, gathers each cell's D neighbor values and D + 1
    c's into an (m N, 2 D + 1) frame in one take, sorts its rows in place
    and reads column D. No argsort, weight gather, cumsum, interval test,
    candidate gather or clip runs.
      - Bits: column D equals v as a value and is one of the values v was
        chosen from. Equal values have equal bits when no candidate is
        +-0.0 or nan, so the order in which the sort places ties cannot
        matter. Hence the guards: every cell finite (tau below is finite
        only then) and none +-0.0. The b's are then finite and nonzero, and
        c = x - T is never -0.0 and +0.0 only where T_j equals x.
      - Fallback: the argsort path keeps v only where the margin proves the
        objective would. So the step falls back to the argsort path when
        tau is +inf, or when the smaller of the two gaps between column D
        and the columns either side of it is <= tau, 0 included (sorted,
        the gaps are >= 0 and never nan). Otherwise no other candidate lies
        within tau of v, so lo and hi are each v itself, infinite or
        farther than tau from it: the argsort path's gaps mid - lo and
        hi - mid are each 0 or above tau, and it keeps mid = v.
      - A median of +0.0 (a c_{j*} of 0) makes the argsort path run the
        objective on every cell. That keeps every mid whose gaps are 0 or
        above tau (see the margin: a cell clipped onto lo takes lo, the same
        bits), so the median stands there too.
    Every fallback, every step with a cell at +-0.0, +-inf or nan, and every
    step on a table of unequal row weights runs the argsort path.

    The objective's gather reads 0.0 at padded slots. At a finite candidate
    their term is 0 * |w - 0| = +0.0 and changes nothing. At an infinite
    candidate (lo = -inf or hi = +inf) it is nan, so the objective there is
    nan where a term of exactly 0 would leave +inf. No choice changes: lo
    or hi can only win against a finite f_mid, which rules out a neighbor
    at +-inf (its term would make f_mid +inf), so such an objective would
    be +inf. A nan fails every comparison with f_mid, as +inf does. The one
    comparison that +inf passes, f_lo <= f_hi at hi = +inf, is taken as
    f_lo <= fmin(f_mid, f_hi), which skips the nan.

    Non-finite values: an agent whose own value is +-inf or nan stays
    non-finite, so divergence checks still see it. A neighbor at +-inf is a
    breakpoint at the far end; the agents next to it stay finite. gamma = 0
    is the identity; gamma < 0 raises ValueError.
    """
    x, gamma = np.asarray(psi, dtype=float), mu_eta
    if gamma < 0.0:
        raise ValueError("mu_eta must be >= 0")
    if out is None:
        out = np.empty(x.shape)
    if gamma == 0.0:
        np.copyto(out, x)
        return out
    if regularizer.kind != "l1":
        raise ValueError("the l1 prox needs an l1 regularizer")
    n = regularizer.weights.shape[0]
    if x.shape[-2] != n:
        raise ValueError(f"expected {n} agents, got {x.shape[-2]}")
    lead = x.shape[:-2] + (x.shape[-1],)
    m = math.prod(lead)
    plan = regularizer.prox_plan(m)
    cells = m * n
    xt = plan.rows[:cells]
    np.copyto(xt.reshape(lead + (n,)), np.swapaxes(x, -1, -2))
    tau = plan.margin(float(np.abs(xt).max()), gamma)
    mid = None
    # a nan or infinite cell makes tau +inf (see The median path)
    if plan.shifts is not None and tau < math.inf and xt.all():
        mid = _median(plan, xt, gamma, tau)
    if mid is None:
        mid = _argsort_path(plan, xt, gamma, tau)
    np.copyto(out, np.swapaxes(mid.reshape(x.shape[:-2] + (-1, n)), -1, -2))
    return out


def _median(plan, xt, gamma, tau):
    """Each cell's median of its D neighbor values and D + 1 stationary
    points, or None where a median lies within tau of the values sorted
    next to it (see social_prox_l1, The median path)."""
    np.subtract(xt, plan.shift(gamma), out=plan.c_block)
    merged = plan.rows.take(plan.merge, out=plan.merged, mode="clip")
    merged.sort(axis=-1)
    d = plan.width
    if d:
        # the median and the values sorted either side of it, (3, m N):
        # sorted, so the gaps are >= 0 and their min is never nan
        around = merged[:, d - 1:d + 2].T
        if np.subtract(around[1:], around[:-1], out=plan.gaps).min() <= tau:
            return None
    return merged[:, d]


def _argsort_path(plan, xt, gamma, tau):
    """Each cell's clip(c_{j*}, lo, hi) from the argsorted neighbor values,
    the objective's choice where the margin tau does not prove it (see
    social_prox_l1)."""
    cells = xt.size
    values = plan.rows.take(plan.values)                       # (m N, D)
    at = plan.sorted_at                                        # (D, m N)
    np.add(values.argsort(axis=-1), plan.sort_offsets, out=at.T)
    # mode="clip" writes straight into out where "raise" buffers a copy;
    # every index is in range
    values.take(at, out=plan.bounds[1:-1], mode="clip")
    plan.weights.take(at).cumsum(axis=0, out=plan.prefix[1:])
    c = plan.c
    _shift(plan.prefix, gamma, c)                              # (D + 1, m N)
    np.subtract(xt, c, out=c)
    j = (c <= plan.bounds[1:]).argmax(axis=0)
    cand = plan.frame.take(j * cells + plan.picks)             # (3, m N)
    lo, mid, hi = cand
    # np.clip's arithmetic without its Python wrapper
    np.minimum(np.maximum(mid, lo, out=mid), hi, out=mid)
    near = tau == math.inf
    if not near:
        # mid - lo and hi - mid; those in (0, tau] are the ones <= tau
        # that are not 0
        gaps = np.subtract(cand[1:], cand[:-1], out=plan.gaps)
        near = np.count_nonzero(gaps <= tau) > gaps.size - np.count_nonzero(gaps)
    if near or not mid.all():
        _choose_by_objective(plan, cand, xt, gamma)
    return mid


def _choose_by_objective(plan, cand, xt, gamma):
    """Evaluate the l1 prox's objective at each cell's lo, mid and hi
    (cand, (3, m N)) and write the lowest into mid, the lower one on a tie
    (see social_prox_l1)."""
    lo, mid, hi = cand
    slots = plan.rows.take(plan.slots)                         # (D, m N)
    # inf - inf and 0 * inf (padded slots) give nan (see Layout)
    with np.errstate(invalid="ignore", over="ignore"):
        pen = np.subtract(cand, slots[:, None, :], out=plan.pen)
        np.abs(pen, out=pen)
        pen *= plan.slot_weights
        f = cand - xt
        f *= f
        f /= 2.0 * gamma
        f += pen.sum(axis=0)
    f_lo, f_mid, f_hi = f
    finite = np.isfinite(f_mid)
    to_hi = finite & (f_hi < f_mid)
    to_lo = finite & (f_lo <= np.fmin(f_mid, f_hi))            # see Layout
    np.copyto(mid, hi, where=to_hi)
    np.copyto(mid, lo, where=to_lo)
