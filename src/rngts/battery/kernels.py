"""Hot loops of the battery.

Every kernel is plain Python over numpy arrays.  Craps, coupon
collector, runs, repetition, Maurer's sums, minimum distance, GF(2)
rank and gcd work on whole arrays; squeeze plays lockstep lanes over
one chunk of draws at a time; parking, which is sequential by nature,
is a loop over Python floats.  Craps, coupon, repetition and squeeze
share one pointer-doubling walk, `_walk`, over their units; runs finds
its chain of breaks in closed form, over raw words.
Integer arrays are as wide as the values they hold, worked out from the
block length, the value bits or the column count: squeeze's records,
Maurer's and coupon's sort keys and occurrence indexes, gcd's operands
and GF(2) rows of the default sizes are all 32-bit.

Kernels that scan a data-dependent number of draws follow a common block
protocol: they process a buffer, stop at the last *completed* unit (game,
segment, run), and report how much they consumed.  A unit longer than its
cap raises TestAborted from the kernel itself.  Each test's step for the
driver `genkit.base.scan` is its kernel call, which the driver follows by
pushing the unconsumed tail back onto the stream and refilling, so
consumption is exact regardless of buffer sizes.  Craps and coupon take
the dice and digits that `genkit.distributions.int_draws` yields and
count consumption in those draws.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import TestAborted


# Squeeze lanes start _SQUEEZE_SPAN words apart and each plays
# _SQUEEZE_HORIZON draws; on Mt19937(1) these sizes leave 77 of 100000
# games to the scalar loop in one 2.4M-word block, and 78 in the three
# blocks of at most 2^20 words that the test reads.  The lockstep maps
# _SQUEEZE_CHUNK draws of every lane at a time, and the chain is walked
# over at most _SQUEEZE_WALK records per `_walk`.
_SQUEEZE_SPAN = 4096
_SQUEEZE_HORIZON = 8192
_SQUEEZE_CHUNK = 128
_SQUEEZE_WALK = 8192
# a record packs (start << _LENGTH_BITS) | length; a length is at most
# the horizon
_LENGTH_BITS = _SQUEEZE_HORIZON.bit_length()
_K0 = 2147483648.0
# Maurer's log2 terms are summed this many at a time
_MAURER_CHUNK = 1 << 16
# row maxima are taken over about this many words at a time
_MAXIMA_CHUNK = 1 << 16


def _index_type(n):
    """int32 if it holds every index up to n, else int64."""
    return np.int32 if n < 2**31 else np.int64


def _squeeze_game(raw, to_u, start, cap):
    """Draws the squeeze game from `start` takes; -1 if it reaches the
    cap first, 0 if the buffer runs out first."""
    k = 2147483648
    stop = min(start + cap, raw.shape[0])
    for at in range(start, stop, _SQUEEZE_CHUNK):
        piece = to_u(raw[at:min(at + _SQUEEZE_CHUNK, stop)]).tolist()
        for end, x in enumerate(piece, at + 1):
            k = math.ceil(k * x)
            if k <= 1:
                return end - start
    return -1 if stop - start >= cap else 0


def _squeeze_records(raw, to_u):
    """Every game a lane finishes, as sorted unique packed records.

    Lane i plays games from draw i*_SQUEEZE_SPAN on for
    min(_SQUEEZE_HORIZON, n) draws, all lanes in lockstep.  Each chunk
    of draws is mapped for every lane at once; a step is a multiply, a
    ceil, a test into that draw's row of the finished flags, and a
    reset of the finished lanes.  The flags then give each finished
    game's end, and the lane's previous end (or its first draw) its
    start.  A game's length depends only on its start, so lanes that
    meet record the same games, kept once each.
    """
    n = raw.shape[0]
    h = min(_SQUEEZE_HORIZON, n)
    if h == 0:
        return np.zeros(0, dtype=np.int64)
    window = np.lib.stride_tricks.sliding_window_view(
        raw, h)[::_SQUEEZE_SPAN]
    base = np.arange(window.shape[0]) * _SQUEEZE_SPAN
    begun = base.copy()  # where each lane's current game started
    k = np.full(base.size, _K0)
    u = np.empty((_SQUEEZE_CHUNK, base.size))
    fin = np.empty((_SQUEEZE_CHUNK, base.size), dtype=bool)
    records = []
    for t0 in range(0, h, _SQUEEZE_CHUNK):
        c = min(_SQUEEZE_CHUNK, h - t0)
        np.copyto(u[:c], to_u(window[:, t0:t0 + c]).T)
        # a step's four calls take most of the lockstep's time; outputs
        # passed by position and putmask cost the least call overhead
        for row, flags in zip(u[:c], fin[:c]):
            np.multiply(k, row, k)
            np.ceil(k, k)
            np.less_equal(k, 1.0, flags)
            np.putmask(k, flags, _K0)
        # finished games in lane order, each lane's in draw order
        lane, t = np.divmod(np.flatnonzero(fin[:c].T), c)
        if lane.size == 0:
            continue
        end = base[lane] + (t0 + 1) + t
        start = np.roll(end, 1)
        first = np.ones(lane.size, dtype=bool)
        np.not_equal(lane[1:], lane[:-1], out=first[1:])
        start[first] = begun[lane[first]]
        last = np.append(first[1:], True)
        begun[lane[last]] = end[last]
        records.append((start << _LENGTH_BITS) | (end - start))
    # free the lockstep buffers, which the loop's row views also hold,
    # before the records are joined
    del u, fin, row, flags
    if not records:
        return np.zeros(0, dtype=np.int64)
    records = np.concatenate(records)
    records.sort()
    keep = np.ones(records.size, dtype=bool)
    np.not_equal(records[1:], records[:-1], out=keep[1:])
    return records[keep]


def squeeze_kernel(raw, to_u, counts, games_needed, cap):
    """Play squeeze games over a raw buffer mapped by `to_u`.

    A game counts k = 2^31 down by k = ceil(k*u) until k <= 1, and the
    next game starts at the following draw.  That chain is sequential,
    so it is speculated on (Mytkowicz, Musuvathi & Schulte, ASPLOS
    2014): lanes start every _SQUEEZE_SPAN words and play games from
    there, and each finished game becomes a (start, length) record.
    Chains from different starts soon meet, so the true chain, walked
    from draw 0 over the records by `_walk`, finds its games recorded;
    one it does not find is played by a scalar loop, and the walk goes
    on from the record at its end.  A game longer than `cap` raises
    TestAborted, and one the buffer cannot finish is rolled back.

    `to_u` maps raw outputs to uniforms elementwise; it is applied to
    one chunk of draws at a time, so no array as long as the buffer is
    made.  Returns (games_done, consumed).
    """
    records = _squeeze_records(raw, to_u)
    # positions and lengths are at most the block's length
    index = _index_type(raw.shape[0])
    lengths = (records & ((1 << _LENGTH_BITS) - 1)).astype(index)
    records >>= _LENGTH_BITS
    starts = records.astype(index)
    del records
    ends = starts + lengths
    m = starts.size
    # the record of the game after each one, or m where none is recorded;
    # narrowed only after `take`, which would widen int32 indexes again
    after = np.searchsorted(starts, ends)
    after[starts.take(after, mode="clip") != ends] = m
    after = after.astype(index)
    played = []
    done = at = 0
    while done < games_needed:
        # a key of the records' type, or searchsorted converts them all
        j = int(np.searchsorted(starts, index(at)))
        if j < m and starts[j] == at:
            w = min(_SQUEEZE_WALK, m - j)
            chain = np.minimum(after[j:j + w] - j, w)
            chain[lengths[j:j + w] > cap] = -1
            units, stop = _walk(chain, games_needed - done)
            if units.size:
                played.append(lengths[j + units])
                done += units.size
                at = int(ends[j + units[-1]])
            if done < games_needed and stop < w:
                # the record at `stop` is longer than cap
                raise TestAborted(f"squeeze game exceeded {cap} iterations")
        else:
            steps = _squeeze_game(raw, to_u, at, cap)
            if steps < 0:
                raise TestAborted(f"squeeze game exceeded {cap} iterations")
            if steps == 0:
                break
            played.append([steps])
            done += 1
            at += steps
    if done:
        played = np.concatenate(played)
        np.clip(played, 6, 48, out=played)
        counts += np.bincount(played, minlength=6 + counts.size)[6:]
    return done, at


def _walk(chain, needed):
    """Follow `chain` from unit 0 for at most `needed` units.

    chain[i] in (i, n] is where the unit starting at i hands over to
    the next, or -1 where that unit does not complete; the end n does
    not complete either.  By pointer doubling: the end and -1 hand over
    to a dead end appended last, which -1 indexes; while `jump` maps a
    start m units on, gathering the m-start path through it makes 2m,
    and jump[jump] maps 2m on.  The stop is the last entry of the path
    before the dead end.  Returns (starts, stop).
    """
    jump = np.append(chain, (-1, -1))
    path = np.zeros(1, dtype=np.int64)
    while path.size <= needed and path[-1] >= 0:
        path = np.concatenate([path, jump[path]])
        jump = jump[jump]
    done = min(int(np.count_nonzero(path >= 0)) - 1, needed)
    return path[:done], int(path[done])


def craps_kernel(dice, throws_counts, games_needed, cap):
    """Play craps games over dice in 0..5, each one less than its face.

    A throw is two consecutive dice wherever the games split, so all
    throws are read at once.  A come-out throw with point v ends at the
    next throw summing to 7 or v (one searchsorted per point), and a
    walk over the game ends chains the games.  Once `cap` throws pass
    without a resolution inside the buffer, TestAborted is raised; a
    game that runs out of buffer first is rolled back.  Returns (games,
    wins, dice consumed).
    """
    n = dice.shape[0] // 2
    pairs = dice[:2 * n]
    s = pairs[0::2] + pairs[1::2] + 2
    throw = np.arange(n)
    end = throw.copy()  # the throw deciding the game that starts here
    won = (s == 7) | (s == 11)
    for v in (4, 5, 6, 8, 9, 10):
        ends = np.flatnonzero((s == 7) | (s == v))
        here = np.flatnonzero(s == v)
        nxt = np.searchsorted(ends, here, side="right")
        e = ends[np.minimum(nxt, ends.size - 1)]
        end[here] = np.where(nxt == ends.size, n, e)
        won[here] = s[e] == v
    need = end - throw + 1
    first, g = _walk(np.where((end < n) & (need <= cap), end + 1, -1),
                     games_needed)
    games = first.size
    # the chain stops at a game decided past the cap (so more than cap
    # throws remain) or at one the buffer leaves undecided
    if games < games_needed and n - g >= cap:
        raise TestAborted(f"craps game exceeded {cap} throws")
    throws_counts += np.bincount(np.minimum(need[first], 21) - 1,
                                 minlength=throws_counts.size)
    return games, int(np.count_nonzero(won[first])), 2 * g


def coupon_kernel(digits, d, t, counts, segments_needed, cap):
    """Collect coupon segments over digits in 0..d-1.

    A segment starting at digit p ends at the latest of the d next
    occurrences of each digit at or after p.  With one entry of every
    digit put before the digits, that is the running maximum of the
    next-occurrence index over all entries before p, so one pass ends a
    segment at every start and a walk chains them.  Once `cap` digits
    pass without completing a segment, TestAborted is raised; a segment
    that runs out of buffer first is rolled back.

    counts has t - d + 1 cells for lengths d..t-1 and >= t.
    Returns (segments, digits consumed).
    """
    m = digits.shape[0]
    digits = np.concatenate([np.arange(d, dtype=digits.dtype), digits])
    end = np.maximum.accumulate(next_occurrence(digits))[d - 1:-1] - d
    need = end - np.arange(m) + 1
    starts, g = _walk(np.where((end < m) & (need <= cap), end + 1, -1),
                      segments_needed)
    if starts.size < segments_needed and g + cap <= m:
        raise TestAborted(f"coupon segment exceeded {cap} draws")
    counts += np.bincount(np.minimum(need[starts], t) - d,
                          minlength=counts.size)
    return starts.size, g


def runs_kernel(raw, counts, runs_needed, cap):
    """Scan maximal ascending runs, discarding the breaking draw after each.

    `raw` holds raw words: the map to uniforms is strictly increasing,
    so words ascend and descend where their uniforms do.  A run
    starting at s breaks at the first descent after s, and the next run
    starts after the breaking draw, at d + 1.  That start breaks at d + 1
    if it is a descent too, and otherwise at the first descent of the
    next cluster of consecutive descents.  So the chain of runs enters
    each cluster at its first descent and breaks at every other one,
    and all the breaks are found at once, with no walk.  A run that
    passes `cap` draws raises TestAborted; one that the buffer does not
    break is rolled back.

    counts has 6 cells for run lengths 1..5 and >= 6.
    Returns (runs, consumed); consumption includes the breaker.
    """
    n = raw.shape[0]
    descents = np.flatnonzero(raw[1:] <= raw[:-1])
    descents += 1
    # each descent's offset from its cluster's first: the clusters' first
    # descents carry their own index forward through the cluster
    at = np.arange(descents.size, dtype=descents.dtype)
    head = np.zeros(descents.size, dtype=descents.dtype)
    first = np.not_equal(descents[1:], descents[:-1] + 1)
    head[1:][first] = at[1:][first]
    np.maximum.accumulate(head, out=head)
    breaks = descents[((at - head) & 1) == 0]
    # run k starts after break k - 1 and ends at break k, or at the
    # buffer's end where no break is left
    starts = np.zeros(breaks.size + 1, dtype=breaks.dtype)
    np.add(breaks, 1, out=starts[1:])
    length = np.append(breaks, n) - starts
    done = min(runs_needed, breaks.size)
    over = np.flatnonzero(length[:done] > cap)
    if over.size:
        done = int(over[0])
    if done < runs_needed and length[done] > cap:
        raise TestAborted(f"ascending run exceeded {cap} draws")
    counts += np.bincount(np.minimum(length[:done], 6) - 1,
                          minlength=counts.size)
    return done, int(starts[done])


def row_maxima(g):
    """The largest entry of each row of the 2-d array g.

    numpy reduces short rows one at a time, which is slow, so whole
    rows of about _MAXIMA_CHUNK words at a time are transposed into a
    contiguous chunk and reduced down its columns, across the rows at
    once.
    """
    n, t = g.shape
    rows = max(1, _MAXIMA_CHUNK // t)
    out = np.empty(n, dtype=g.dtype)
    for at in range(0, n, rows):
        np.max(np.ascontiguousarray(g[at:at + rows].T), axis=0,
               out=out[at:at + rows])
    return out


def previous_occurrence(vals):
    """Index of the previous entry equal to each entry, or -1.

    Sorting value-then-index keys orders equal values by position, so
    an entry's predecessor in that order is its previous occurrence.
    Values are nonnegative integers.  The keys are uint32 when the
    largest value's bits and the index bits come to at most 32, and
    uint64 otherwise, so those bits must fit in 64 together.  Returns
    indexes of `_index_type(n)`.
    """
    n = vals.shape[0]
    shift = max(n - 1, 1).bit_length()
    top = int(vals.max()) if n else 0
    key = np.uint32 if top.bit_length() + shift <= 32 else np.uint64
    keys = vals.astype(key)
    keys <<= key(shift)
    keys |= np.arange(n, dtype=key)
    keys.sort()
    order = keys & key((1 << shift) - 1)
    keys >>= key(shift)
    same = keys[1:] == keys[:-1]
    prev = np.full(n, -1, dtype=_index_type(n))
    prev[order[1:][same]] = order[:-1][same]
    return prev


def next_occurrence(vals):
    """Index of the next entry equal to each entry, or len(vals)."""
    n = vals.shape[0]
    prev = previous_occurrence(vals)
    nxt = np.full(n, n, dtype=np.int64)
    later = np.flatnonzero(prev >= 0)
    nxt[prev[later]] = later
    return nxt


def repetition_times(vals, reps_needed):
    """Draws until the first repeated value, per repetition.

    A repetition starting at p ends at the first j >= p whose value
    already occurred at or after p: the earliest next occurrence of any
    entry from p on.  One suffix minimum of the next-occurrence index
    thus ends a repetition at every start, and a walk chains them.  A
    repetition the buffer does not finish is rolled back.
    Returns (times, consumed).
    """
    n = vals.shape[0]
    end = np.minimum.accumulate(next_occurrence(vals)[::-1])[::-1]
    chain = np.where(end < n, end + 1, -1)
    starts, at = _walk(chain, reps_needed)
    return chain[starts] - starts, at


def euclid(a, b):
    """gcd and division-step count of every pair (a[i], b[i]).

    Euclid's algorithm runs over the whole array at once; each round
    takes one division step on the pairs still live and retires those
    whose remainder reached 0.  The pairs are int32 when every operand
    lies strictly between -2^31 and 2^31, as gcd's draws in
    [1, 2^31 - 1] do, and int64 otherwise.  Returns (gcds, steps) as
    arrays of that type.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    lo = min(int(a.min(initial=0)), int(b.min(initial=0)))
    hi = max(int(a.max(initial=0)), int(b.max(initial=0)))
    width = np.int32 if -2**31 < lo and hi < 2**31 else np.int64
    gs = a.astype(width)
    b = b.astype(width, copy=False)
    steps = np.zeros(gs.size, dtype=width)
    live = np.flatnonzero(b).astype(_index_type(gs.size))
    x, y = gs[live], b[live]
    s = 0
    while live.size:
        x, y = y, x % y
        s += 1
        done = y == 0
        if done.any():
            ended = live[done]
            gs[ended] = x[done]
            steps[ended] = s
            keep = ~done
            live, x, y = live[keep], x[keep], y[keep]
    return gs, steps


# a car's own unit cell and the eight around it
_NEIGHBOURS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def parking_kernel(xs, ys):
    """Sequential parking: a car parks unless an earlier parked car is
    within 1 in both axes.  At most one parked car fits in a unit cell,
    so a dict maps each occupied cell to its car, and a new car checks
    the cells around its own.  Returns the number parked.
    """
    parked = {}
    near = parked.get
    for x, y in zip(xs.tolist(), ys.tolist()):
        cx = int(x)
        cy = int(y)
        for dx, dy in _NEIGHBOURS:
            car = near((cx + dx, cy + dy))
            if car is not None and abs(x - car[0]) < 1.0 \
                    and abs(y - car[1]) < 1.0:
                break
        else:
            parked[cx, cy] = (x, y)
    return len(parked)


def min_squared_distance(xs, ys):
    """Minimum squared pairwise distance by a sweep over x-sorted points.

    With points sorted by x, lag k pairs each point with the k-th next
    one.  Lag differences only grow with k, and rounding preserves that
    order, so once every lag-k dx^2 reaches the best d^2 no larger lag
    can beat it (the strip method of Shamos & Hoey).  Each d^2 is
    computed as (xi - xj)^2 + (yi - yj)^2, the same float whichever
    point comes first, so the minimum over all pairs does not depend on
    the order the sort leaves points of equal x in.
    """
    order = np.argsort(xs)
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

    mats has one row of `cols` bits per entry, shape (n_matrices,
    rows); rows are held as uint32 when cols <= 32, else as uint64.
    Gaussian elimination runs on all matrices at once, from the most
    significant column down, and moves no row: a matrix with an unused
    row having the column's bit takes the first such row as its pivot,
    marks it used, and XORs it into every unused row having the bit.
    That clears the pivot row itself, which no later column reads, as
    only unused rows are searched and changed.  The rank is the number
    of pivots.  Returns counts indexed by rank.
    """
    word = np.uint32 if cols <= 32 else np.uint64
    m = mats.astype(word)
    n, rows = m.shape
    unused = np.ones((n, rows), dtype=bool)
    rank = np.zeros(n, dtype=np.int64)
    every = np.arange(n)
    for bit in range(cols - 1, -1, -1):
        has = (m & word(1 << bit)).astype(bool)
        has &= unused
        pivot = has.argmax(axis=1)  # row 0 where no row has the bit
        found = has[every, pivot]
        unused[every, pivot] &= ~found
        m ^= m[every, pivot][:, None] * has
        rank += found
    return np.bincount(rank, minlength=min(rows, cols) + 1)


def maurer_sum(vals, q, k):
    """Sum of log2 distances to the previous occurrence of each block.

    Blocks q..q+k-1 are tested; a value unseen before has distance
    i + 1 for 0-based index i.  log2 comes from math.log2 over the
    distinct distances (np.log2 rounds differently on some integers),
    and a cumulative sum adds them in order, as a loop would.  The sum
    runs _MAURER_CHUNK terms at a time, each chunk's first term carrying
    the total so far, so the additions are those of one cumulative sum.
    """
    d = previous_occurrence(vals[:q + k])[q:]
    np.subtract(np.arange(q, q + k, dtype=d.dtype), d, out=d)
    seen = np.flatnonzero(np.bincount(d))
    log2 = np.zeros(seen[-1] + 1)
    log2[seen] = [math.log2(x) for x in seen.tolist()]
    total = 0.0
    for at in range(0, k, _MAURER_CHUNK):
        terms = log2[d[at:at + _MAURER_CHUNK]]
        terms[0] += total
        total = float(np.cumsum(terms, out=terms)[-1])
    return total
