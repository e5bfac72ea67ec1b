"""Hot loops of the battery.

The sequential scanners, parking and Maurer's sums are loop kernels,
compiled with numba when enabled.  Minimum distance, GF(2) rank and gcd
are plain numpy functions over whole arrays and never compiled.

Kernels that scan a data-dependent number of draws follow a common block
protocol: they process a buffer, stop at the last *completed* unit (game,
segment, run), and report how much they consumed plus an abort flag.  Each
test wraps its kernel in a step for the driver `base.scan`, which pushes
the unconsumed tail back onto the stream and refills, so consumption is
exact regardless of buffer sizes.  All arithmetic is written to behave
identically interpreted and compiled.
"""

from __future__ import annotations

import math

import numpy as np

from .._jit import njit


@njit(cache=True)
def squeeze_kernel(u, counts, games_needed, cap):
    """Play squeeze games over a uniform buffer.

    Returns (games_done, consumed, aborted).
    """
    pos = 0
    n = u.shape[0]
    done = 0
    while done < games_needed:
        k = 2147483648
        steps = 0
        start = pos
        while True:
            if steps >= cap:
                return done, start, 1
            if pos >= n:
                return done, start, 0
            k = int(np.ceil(k * u[pos]))
            pos += 1
            steps += 1
            if k <= 1:
                break
        j = steps
        if j < 6:
            j = 6
        elif j > 48:
            j = 48
        counts[j - 6] += 1
        done += 1
    return done, pos, 0


@njit(cache=True)
def craps_kernel(w, limit, throws_counts, games_needed, cap):
    """Play craps games; dice come from inline rejection over raw offsets.

    w holds raw outputs minus the stream minimum; a value below `limit`
    yields a die as w % 6 + 1.  Returns (games, wins, consumed, aborted).
    """
    pos = 0
    n = w.shape[0]
    games = 0
    wins = 0
    while games < games_needed:
        start = pos
        throws = 0
        point = 0
        won = 0
        aborted = False
        dry = False
        while True:
            if throws >= cap:
                aborted = True
                break
            d1 = -1
            while d1 < 0:
                if pos >= n:
                    dry = True
                    break
                v = w[pos]
                pos += 1
                if v < limit:
                    d1 = v % 6
            if dry:
                break
            d2 = -1
            while d2 < 0:
                if pos >= n:
                    dry = True
                    break
                v = w[pos]
                pos += 1
                if v < limit:
                    d2 = v % 6
            if dry:
                break
            s = d1 + d2 + 2
            throws += 1
            if point == 0:
                if s == 7 or s == 11:
                    won = 1
                    break
                elif s == 2 or s == 3 or s == 12:
                    won = 0
                    break
                else:
                    point = s
            else:
                if s == point:
                    won = 1
                    break
                elif s == 7:
                    won = 0
                    break
        if aborted:
            return games, wins, start, 1
        if dry:
            return games, wins, start, 0
        t = throws
        if t > 21:
            t = 21
        throws_counts[t - 1] += 1
        wins += won
        games += 1
    return games, wins, pos, 0


@njit(cache=True)
def coupon_kernel(w, limit, d, t, counts, segments_needed, cap):
    """Collect coupon segments; digits from inline rejection (w % d).

    counts has t - d + 1 cells for lengths d..t-1 and >= t.
    Returns (segments, consumed, aborted).
    """
    pos = 0
    n = w.shape[0]
    done = 0
    seen = np.zeros(d, dtype=np.uint8)
    while done < segments_needed:
        start = pos
        for i in range(d):
            seen[i] = 0
        distinct = 0
        length = 0
        while distinct < d:
            if length >= cap:
                return done, start, 1
            if pos >= n:
                return done, start, 0
            v = w[pos]
            pos += 1
            if v >= limit:
                continue
            digit = v % d
            length += 1
            if seen[digit] == 0:
                seen[digit] = 1
                distinct += 1
        idx = length - d
        if idx > t - d:
            idx = t - d
        counts[idx] += 1
        done += 1
    return done, pos, 0


@njit(cache=True)
def runs_kernel(u, counts, runs_needed, cap):
    """Scan maximal ascending runs, discarding the breaking draw after each.

    counts has 6 cells for run lengths 1..5 and >= 6.
    Returns (runs, consumed, aborted); consumption includes the breaker.
    """
    pos = 0
    n = u.shape[0]
    done = 0
    while done < runs_needed:
        start = pos
        if pos >= n:
            return done, start, 0
        prev = u[pos]
        pos += 1
        length = 1
        while True:
            if length > cap:
                return done, start, 1
            if pos >= n:
                return done, start, 0
            cur = u[pos]
            pos += 1
            if cur > prev:
                prev = cur
                length += 1
            else:
                break
        j = length
        if j > 6:
            j = 6
        counts[j - 1] += 1
        done += 1
    return done, pos, 0


@njit(cache=True)
def repetition_kernel(vals, epoch, tag_start, ts, done_start, reps_needed):
    """Draw values until the first repeat, per repetition.

    epoch tags `seen` entries without clearing the table between
    repetitions; every (re)scan attempt takes a fresh tag so a rolled
    back partial repetition cannot pollute the next attempt.
    Returns (reps_done, consumed, tag_counter).
    """
    pos = 0
    n = vals.shape[0]
    done = done_start
    tag = tag_start
    while done < reps_needed:
        start = pos
        tag += 1
        count = 0
        while True:
            if pos >= n:
                return done, start, tag
            v = vals[pos]
            pos += 1
            count += 1
            if epoch[v] == tag:
                break
            epoch[v] = tag
        ts[done] = count
        done += 1
    return done, pos, tag


def euclid(a, b):
    """gcd and division-step count of every pair (a[i], b[i]).

    Euclid's algorithm runs over the whole array at once; each round
    takes one division step on the pairs still live and retires those
    whose remainder reached 0.  Returns (gcds, steps) as int64 arrays.
    """
    gs = np.array(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    steps = np.zeros(gs.size, dtype=np.int64)
    live = np.flatnonzero(b)
    x, y = gs[live], b[live]
    s = 0
    while live.size:
        x, y = y, x % y
        s += 1
        done = y == 0
        gs[live[done]] = x[done]
        steps[live[done]] = s
        keep = ~done
        live, x, y = live[keep], x[keep], y[keep]
    return gs, steps


@njit(cache=True)
def parking_kernel(xs, ys, grid, px, py):
    """Sequential parking: succeed unless a prior point is within 1 in
    both axes.  grid is padded by one cell on each side and holds the
    parked-point index per unit cell (at most one can fit).  Returns k.
    """
    n = xs.shape[0]
    k = 0
    for i in range(n):
        x = xs[i]
        y = ys[i]
        cx = int(x) + 1
        cy = int(y) + 1
        crash = False
        for dx in range(-1, 2):
            for dy in range(-1, 2):
                idx = grid[cx + dx, cy + dy]
                if idx >= 0:
                    if abs(x - px[idx]) < 1.0 and abs(y - py[idx]) < 1.0:
                        crash = True
                        break
            if crash:
                break
        if not crash:
            px[k] = x
            py[k] = y
            grid[cx, cy] = k
            k += 1
    return k


def min_squared_distance(xs, ys):
    """Minimum squared pairwise distance by a sweep over x-sorted points.

    With points sorted by x, lag k pairs each point with the k-th next
    one.  Lag differences only grow with k, and rounding preserves that
    order, so once every lag-k dx^2 reaches the best d^2 no larger lag
    can beat it (the strip method of Shamos & Hoey).  Each d^2 is
    computed as (xi - xj)^2 + (yi - yj)^2, the same float whichever
    point comes first.
    """
    order = np.argsort(xs, kind="stable")
    x = xs[order]
    y = ys[order]
    best = math.inf
    for k in range(1, x.size):
        dx = x[k:] - x[:-k]
        dx2 = dx * dx
        if dx2.min() >= best:
            break
        dy = y[k:] - y[:-k]
        best = min(best, float((dx2 + dy * dy).min()))
    return best


def gf2_rank_counts(mats, cols):
    """Census of GF(2) ranks of bit-packed matrices.

    mats has one row of `cols` bits per uint64 entry, shape
    (n_matrices, rows).  Gaussian elimination runs on all matrices at
    once, from the most significant column down: each matrix with a
    pivot in the column swaps it into row `rank` and clears the column
    from the rows below.  Returns counts indexed by rank.
    """
    m = mats.copy()
    n, rows = m.shape
    rank = np.zeros(n, dtype=np.int64)
    row_ids = np.arange(rows)
    for bit in range(cols - 1, -1, -1):
        has = ((m >> np.uint64(bit)) & np.uint64(1)).astype(bool)
        has &= row_ids >= rank[:, None]
        live = np.flatnonzero(has.any(axis=1))
        top = rank[live]
        hit = has[live]
        pivot = hit.argmax(axis=1)
        prow = m[live, pivot]
        m[live, pivot] = m[live, top]
        m[live, top] = prow
        # rows between top and the pivot lack the bit, so after the swap
        # the rows to clear are the other rows that had it
        hit[np.arange(live.size), pivot] = False
        m[live] ^= prow[:, None] * hit
        rank[live] += 1
    return np.bincount(rank, minlength=min(rows, cols) + 1)


@njit(cache=True)
def maurer_kernel(vals, q, k, table):
    """Sum of log2 distances to the previous occurrence of each block.

    table holds last positions (1-based); a value unseen during the
    initialization segment keeps position 0, so its first distance is
    its own index.
    """
    for i in range(q):
        table[vals[i]] = i + 1
    total = 0.0
    for i in range(q, q + k):
        pos = i + 1
        d = pos - table[vals[i]]
        total += math.log2(d)
        table[vals[i]] = pos
    return total
