"""End-to-end battery behavior against scalar recounts.

Each test runs a battery case on a seeded twister, then rebuilds the
case's input (counts, statistics, consumed draws) from an identically
seeded engine using plain Python loops.  The recount goes through the
same analysis helper, so any disagreement in counting, consumption
order, buffering, or rejection handling shows up as a p-value mismatch.
Scanner tests additionally verify the stream position afterward: the
next draw out of the tested stream must be exactly the first draw the
scanner did not use.
"""

import math
import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rngts
import rngts.battery.base as battery_base
import rngts.battery.games as games
import rngts.battery.uniformity as uniformity
from rngts.battery import CATALOG
from rngts.battery.base import chi_square_result, gaussian_result, ks_result
from rngts.battery.base import TestCase as BatteryCase
from rngts.battery.games import (
    CrapsTest,
    GcdTest,
    MaurersUniversalTest,
    RepetitionTest,
    SqueezeTest,
    craps_throw_probabilities,
    maurer_reference,
    repetition_bins,
)
from rngts.battery.spatial import (
    BinaryRankTest,
    BirthdaySpacingsTest,
    CollisionTest,
    MinimumDistanceTest,
    Monkey20BitTest,
    ParkingLotTest,
    RandomWalkTest,
    collision_null_distribution,
)
from rngts.battery.uniformity import (
    ChisqrUniformityTest,
    CouponCollectorTest,
    GapTest,
    KsUniformityTest,
    MaxOfTTest,
    PermutationTest,
    PokerTest,
    RunsTest,
    SerialCorrelationTest,
    SerialTest,
)
from rngts.errors import StreamExhausted
from rngts.genkit.adapters import ExternalStream, file_stream
from rngts.genkit.base import RandomStream, Tape
from rngts.genkit.bits import read_bits, read_fields
from rngts.genkit.distributions import uniform_int_block
from rngts.genkit.engines import Minstd, Mt19937, ShuffledStream
from rngts.meta import CountFailsTestCase, IterateTestCase

LEVELS = [0.05, 0.95]
TWO32 = 2**32


def _slab(seed, count):
    return [int(v) for v in Mt19937(seed).next_block(count)]


def _u(raw):
    return raw / 4294967296.0


def _bits(slab, count):
    out = []
    for raw in slab:
        for b in range(31, -1, -1):
            out.append((raw >> b) & 1)
        if len(out) >= count:
            break
    return out[:count]


def _hex_p_values(outcome):
    return [{k: float(v).hex() for k, v in res.p_values.items()}
            for res in outcome.results]


def _same(result, expected):
    assert result.kind == expected.kind
    assert result.statistic_value == expected.statistic_value
    assert result.dof == expected.dof
    assert result.p_values == expected.p_values


class Cyclic(RandomStream):
    """Endless repetition of a fixed raw pattern: one sequence whatever
    the read sizes, each read going on where the last one stopped."""

    name = "cyclic"

    def __init__(self, pattern):
        super().__init__()
        self._pattern = np.asarray(pattern, dtype=np.uint64)
        self._at = 0
        self.min_value = 0
        self.max_value = TWO32 - 1

    def _generate(self, n):
        out = np.resize(np.roll(self._pattern, -self._at), n)
        self._at = (self._at + n) % self._pattern.size
        return out


class Replayed(RandomStream):
    """Replays fixed raw outputs of a given bit width, then exhausts."""

    name = "replayed"

    def __init__(self, raw, width):
        super().__init__()
        self._raw = np.asarray(raw, dtype=np.uint64)
        self._i = 0
        self.min_value = 0
        self.max_value = 2**width - 1

    def _generate(self, n):
        out = self._raw[self._i:self._i + n]
        self._i += out.size
        return out


def _few_values_file(tmp_path, count, seed):
    """A words file of `count` words drawn from four values, so that
    neighbours and group members often tie; its path and its words."""
    values = np.array([3, 7**9, 7**9 + 1, TWO32 - 1], dtype="<u4")
    words = values[np.random.default_rng(seed).integers(0, 4, count)]
    path = tmp_path / "ties.bin"
    path.write_bytes(words.tobytes())
    return str(path), words.tolist()


def _bits_by_shifts(raw, width):
    """The per-bit shifts the bit reader used, kept as an oracle."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    words = np.asarray(raw, dtype=np.uint64)
    return ((words[:, None] >> shifts) & np.uint64(1)).astype(
        np.uint8).ravel()


# ---------------------------------------------------------------------------
# fixed-consumption tests


class TestChisqrRecount:
    def test_counts_match(self):
        n, k, seed = 8000, 64, 101
        stream = Mt19937(seed)
        out = ChisqrUniformityTest(n=n, k=k).execute(stream, LEVELS)
        slab = _slab(seed, n + 1)
        counts = np.zeros(k, dtype=np.int64)
        for raw in slab[:n]:
            counts[int(_u(raw) * k)] += 1
        expected = chi_square_result(counts, np.full(k, 1.0 / k), n)
        _same(out.results[0], expected)
        assert int(stream.next_block(1)[0]) == slab[n]  # consumed exactly n

    def test_deterministic(self):
        a = ChisqrUniformityTest(n=5000).execute(Mt19937(7), LEVELS)
        b = ChisqrUniformityTest(n=5000).execute(Mt19937(7), LEVELS)
        assert a.results[0].p_values == b.results[0].p_values


class TestKsRecount:
    def test_draws_match(self):
        n, seed = 2000, 102
        out = KsUniformityTest(n=n).execute(Mt19937(seed), LEVELS)
        us = np.array([_u(r) for r in _slab(seed, n)])
        _same(out.results[0], ks_result(us))


class TestSerialRecount:
    def test_pair_counts_match(self):
        d, n_pairs, seed = 16, 2000, 103
        stream = Mt19937(seed)
        out = SerialTest(d=d, n_pairs=n_pairs).execute(stream, LEVELS)
        slab = _slab(seed, 2 * n_pairs + 1)
        counts = np.zeros(d * d, dtype=np.int64)
        for i in range(n_pairs):  # d divides 2^32: digit is raw mod d
            a = slab[2 * i] % d
            b = slab[2 * i + 1] % d
            counts[a * d + b] += 1
        expected = chi_square_result(
            counts, np.full(d * d, 1.0 / (d * d)), n_pairs)
        _same(out.results[0], expected)
        assert int(stream.next_block(1)[0]) == slab[2 * n_pairs]


class TestPokerRecount:
    def test_hand_counts_match(self):
        d, n_hands, seed = 16, 800, 104
        case = PokerTest(d=d, n_hands=n_hands)
        out = case.execute(Mt19937(seed), LEVELS)
        slab = _slab(seed, 5 * n_hands)
        counts = np.zeros(5, dtype=np.int64)
        for h in range(n_hands):
            hand = {slab[5 * h + j] % d for j in range(5)}
            counts[len(hand) - 1] += 1
        expected = chi_square_result(counts, case.cell_probabilities(),
                                     n_hands)
        _same(out.results[0], expected)


class TestMaxOfTRecount:
    def test_group_maxima_match(self):
        t, n_groups, seed = 4, 500, 105
        out = MaxOfTTest(t=t, n_groups=n_groups).execute(Mt19937(seed),
                                                         LEVELS)
        slab = _slab(seed, t * n_groups)
        vs = np.array([
            max(_u(r) for r in slab[t * i:t * i + t]) ** t
            for i in range(n_groups)
        ])
        _same(out.results[0], ks_result(vs))


class TestPermutationRecount:
    @staticmethod
    def _rank(vals):
        vals = list(vals)
        f = 0
        for r in range(len(vals), 1, -1):
            s = max(range(r), key=lambda i: (vals[i], i))
            f = f * r + s
            vals[s], vals[r - 1] = vals[r - 1], vals[s]
        return f

    def _expected(self, vals, t, n_groups):
        cells = math.factorial(t)
        counts = np.zeros(cells, dtype=np.int64)
        for i in range(n_groups):
            counts[self._rank(vals[t * i:t * i + t])] += 1
        return chi_square_result(counts, np.full(cells, 1.0 / cells),
                                 n_groups)

    def test_pattern_counts_match(self):
        t, n_groups, seed = 4, 500, 106
        out = PermutationTest(t=t, n_groups=n_groups).execute(
            Mt19937(seed), LEVELS)
        slab = _slab(seed, t * n_groups)
        _same(out.results[0],
              self._expected([_u(r) for r in slab], t, n_groups))

    @pytest.mark.parametrize("t", [2, 5, 8])
    def test_tied_words_match(self, tmp_path, t):
        # most groups hold equal words, which the tie rule ranks by
        # where they stand after the earlier swaps
        n_groups = 3000
        path, words = _few_values_file(tmp_path, t * n_groups, 206)
        out = PermutationTest(t=t, n_groups=n_groups).execute(
            file_stream(path), LEVELS)
        _same(out.results[0], self._expected(words, t, n_groups))


class TestSerialCorrelationRecount:
    def test_statistic_matches(self):
        n, seed = 4000, 107
        out = SerialCorrelationTest(n=n).execute(Mt19937(seed), LEVELS)
        arr = np.array([_u(r) for r in _slab(seed, n)])
        s1 = float(arr.sum())
        s2 = float((arr * arr).sum())
        circ = float((arr * np.roll(arr, -1)).sum())
        c = (n * circ - s1 * s1) / (n * s2 - s1 * s1)
        mu = -1.0 / (n - 1)
        sigma = math.sqrt(n * (n - 3.0) / (n + 1.0)) / (n - 1)
        _same(out.results[0], gaussian_result((c - mu) / sigma))


class TestCollisionRecount:
    def test_collision_count_matches(self):
        m, n, seed = 2**16, 2**12, 108
        out = CollisionTest(m=m, n=n).execute(Mt19937(seed), LEVELS)
        urns = {int(_u(r) * m) for r in _slab(seed, n)}
        c = n - len(urns)
        res = out.results[0]
        assert res.statistic_value == float(c)
        _, cdf = collision_null_distribution(m, n)
        assert res.p_values["lower"] == min(float(cdf[c]), 1.0)
        assert res.p_values["upper"] == (
            min(float(cdf[c - 1]), 1.0) if c > 0 else 0.0)


class TestBirthdayRecount:
    def test_duplicate_spacing_counts_match(self):
        m, n, reps, seed = 2**20, 256, 40, 109
        case = BirthdaySpacingsTest(m=m, n=n, reps=reps)
        out = case.execute(Mt19937(seed), LEVELS)
        slab = _slab(seed, n * reps)
        ys = []
        for r in range(reps):
            days = sorted(v % m for v in slab[n * r:n * r + n])
            spac = sorted(days[i + 1] - days[i] for i in range(n - 1))
            ys.append(sum(spac[i] == spac[i - 1]
                          for i in range(1, n - 1)))
        lam = n**3 / (4.0 * m)
        assert lam == case.lam == 4.0
        ycap = int(lam + 10.0 * math.sqrt(lam) + 15.0)
        pmf = np.empty(ycap + 1)
        pmf[0] = math.exp(-lam)
        for k in range(1, ycap):
            pmf[k] = pmf[k - 1] * lam / k
        pmf[ycap] = max(0.0, 1.0 - pmf[:ycap].sum())
        counts = np.bincount(np.minimum(ys, ycap), minlength=ycap + 1)
        _same(out.results[0], chi_square_result(counts, pmf, reps))


class TestBinaryRankRecount:
    @staticmethod
    def _rank_gf2(rows):
        m = [list(r) for r in rows]
        rank = 0
        for c in range(len(m[0])):
            pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            for r in range(len(m)):
                if r != rank and m[r][c]:
                    m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
            rank += 1
        return rank

    def test_rank_counts_match(self):
        rows = cols = 8
        n, seed = 500, 110
        case = BinaryRankTest(rows=rows, cols=cols, n_matrices=n)
        out = case.execute(Mt19937(seed), LEVELS)
        bits = _bits(_slab(seed, 1000), n * rows * cols)
        per_rank = np.zeros(rows + 1, dtype=np.int64)
        for i in range(n):
            mat = [bits[(i * rows + r) * cols:(i * rows + r + 1) * cols]
                   for r in range(rows)]
            per_rank[self._rank_gf2(mat)] += 1
        named, probs = case._categories()
        counts = [int(per_rank[r]) for r in named]
        if len(probs) > len(named):
            counts.append(int(n - sum(counts)))
        _same(out.results[0],
              chi_square_result(np.asarray(counts), probs, n))


class TestParkingRecount:
    def test_parked_count_matches(self):
        attempts, seed = 500, 111
        case = ParkingLotTest(attempts=attempts, side=100.0)
        out = case.execute(Mt19937(seed), LEVELS)
        slab = _slab(seed, 2 * attempts)
        parked = []
        for i in range(attempts):
            x = _u(slab[2 * i]) * 100.0
            y = _u(slab[2 * i + 1]) * 100.0
            if not any(abs(x - px) < 1.0 and abs(y - py) < 1.0
                       for px, py in parked):
                parked.append((x, y))
        k = len(parked)
        _same(out.results[0], gaussian_result((k - 3523.0) / 21.9))
        assert ("Cars Parked", k) in out.diagnostics


class TestMinimumDistanceRecount:
    def test_minima_match(self):
        points, reps, seed = 200, 20, 112
        side = 100.0
        case = MinimumDistanceTest(points=points, side=side, reps=reps)
        out = case.execute(Mt19937(seed), LEVELS)
        slab = _slab(seed, 2 * points * reps)
        us = np.empty(reps)
        for rep in range(reps):
            base = 2 * points * rep
            xs = [_u(slab[base + 2 * i]) * side for i in range(points)]
            ys = [_u(slab[base + 2 * i + 1]) * side for i in range(points)]
            best = math.inf
            for i in range(points):
                for j in range(i + 1, points):
                    dx = xs[i] - xs[j]
                    dy = ys[i] - ys[j]
                    d2 = dx * dx + dy * dy
                    if d2 < best:
                        best = d2
            us[rep] = 1.0 - math.exp(-best / 0.995)
        _same(out.results[0], ks_result(us))


class TestRandomWalkRecount:
    def test_quadrant_counts_match(self):
        walkers, steps, seed = 300, 11, 113
        out = RandomWalkTest(walkers=walkers, steps=steps).execute(
            Mt19937(seed), LEVELS)
        bits = _bits(_slab(seed, 300), 2 * walkers * steps)
        counts = np.zeros(4, dtype=np.int64)
        for w in range(walkers):
            x = y = 0
            for s in range(steps):
                bx = bits[(w * steps + s) * 2]
                by = bits[(w * steps + s) * 2 + 1]
                x += 1 - 2 * bx
                y += 1 - 2 * by
            counts[2 * (x < 0) + (y < 0)] += 1
        _same(out.results[0],
              chi_square_result(counts, np.full(4, 0.25), walkers))


class TestMaurerRecount:
    def test_log_distances_match(self):
        L, Q, K, seed = 4, 160, 2000, 114
        case = MaurersUniversalTest(L=L, Q=Q, K=K)
        out = case.execute(Mt19937(seed), LEVELS)
        bits = _bits(_slab(seed, 300), (Q + K) * L)
        vals = [int("".join(map(str, bits[i * L:(i + 1) * L])), 2)
                for i in range(Q + K)]
        last = {}
        for pos in range(1, Q + 1):
            last[vals[pos - 1]] = pos
        total = 0.0
        for pos in range(Q + 1, Q + K + 1):
            v = vals[pos - 1]
            total += math.log2(pos - last.get(v, 0))
            last[v] = pos
        f = total / K
        e, var = maurer_reference(L)
        c = 0.7 - 0.8 / L + (4.0 + 32.0 / L) * K ** (-3.0 / L) / 15.0
        sigma = c * math.sqrt(var / K)
        res = out.results[0]
        assert res.statistic_value == pytest.approx((f - e) / sigma,
                                                    abs=1e-10)
        diag = dict(out.diagnostics)
        assert diag["Statistic f"] == pytest.approx(f, abs=1e-12)


def _random_walk_by_shifts(raw, width, walkers, steps):
    """The +-1 moves random walk summed, kept as its oracle."""
    bits = _bits_by_shifts(raw, width)[:2 * walkers * steps]
    moves = 1 - 2 * bits.reshape(walkers, steps, 2).astype(np.int64)
    finals = moves.sum(axis=1)
    counts = np.bincount(2 * (finals[:, 0] < 0) + (finals[:, 1] < 0),
                         minlength=4)
    return chi_square_result(counts, np.full(4, 0.25), walkers)


class TestRandomWalkWidths:
    @pytest.mark.parametrize("width", [1, 8, 19, 20, 31, 32])
    def test_matches_shift_expansion(self, width):
        # two walks in a row: the second starts on a fresh word
        walkers, steps = 301, 13
        used = -(-2 * walkers * steps // width)
        raw = np.random.default_rng(width).integers(0, 2**width,
                                                    2 * used + 1)
        stream = Replayed(raw, width)
        case = RandomWalkTest(walkers=walkers, steps=steps)
        for run in range(2):
            out = case.execute(stream, LEVELS)
            _same(out.results[0], _random_walk_by_shifts(
                raw[run * used:], width, walkers, steps))
        assert int(stream.next_block(1)[0]) == raw[2 * used]


class TestRandomWalkMemory:
    def test_peak_rss_at_the_draw_budget(self):
        # walkers * steps = 2^24 - 1 reads 2^25 bits; one byte per bit
        # keeps the child's peak well under the 8 bytes per bit of a
        # uint64 expansion (about 590 MB)
        p, kb = _child_peak(
            "from rngts.battery.spatial import RandomWalkTest\n"
            "from rngts.genkit.engines import Mt19937\n"
            "out = RandomWalkTest(walkers=65793, steps=255).execute(\n"
            "    Mt19937(1), [0.05])\n"
            "print(out.results[0].p_values['p'].hex())\n"
        )
        assert p == "0x1.3e11812b67a16p-1"
        assert kb < 250 * 1024


# Linux keeps a process's ru_maxrss across exec, so a child started by
# this test process would report at least this process's peak; VmHWM is
# the peak of the child's own memory image
_PEAK_KB = """
import resource, sys
def _peak_kb():
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return kb // 1024 if sys.platform == "darwin" else kb
"""


def _child_peak(script):
    """Run `script` in a new interpreter; its last line of output, and its
    peak resident memory in KiB.  The script may call `_peak_kb()` for
    its peak so far."""
    proc = subprocess.run([sys.executable, "-c",
                           _PEAK_KB + script + "print(_peak_kb())\n"],
                          capture_output=True, text=True, timeout=120,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    *_, last, kb = proc.stdout.splitlines()
    return last, int(kb)


def _child_env():
    """Environment for a child process that imports this checkout's rngts."""
    env = dict(os.environ)
    root = str(Path(rngts.__file__).parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (os.pathsep.join([root, inherited])
                         if inherited else root)
    return env


def _missing_by_shifts(bits):
    """Missing 20-bit words by the 20 shift passes monkey used, kept as
    its oracle."""
    words = np.zeros(2**21, dtype=np.int64)
    for j in range(20):
        words = (words << 1) | bits[j:j + 2**21]
    return int((np.bincount(words, minlength=2**20) == 0).sum())


class TestMonkeyConsistency:
    @pytest.mark.parametrize("width", [1, 8, 19, 20, 31, 32])
    def test_missing_words_match_shift_build(self, width):
        # two runs in a row: the second starts on a fresh word, whatever
        # the first left unread of its last one
        used = -(-(2**21 + 19) // width)
        raw = np.random.default_rng(width).integers(0, 2**width,
                                                    2 * used + 1)
        stream = Replayed(raw, width)
        for run in range(2):
            out = Monkey20BitTest().execute(stream, LEVELS)
            bits = _bits_by_shifts(raw[run * used:(run + 1) * used], width)
            assert out.diagnostics == (
                ("Missing Words", _missing_by_shifts(bits)),)
        assert int(stream.next_block(1)[0]) == raw[2 * used]

    def test_z_matches_reported_missing_words(self):
        out = Monkey20BitTest().execute(Mt19937(115), LEVELS)
        diag = dict(out.diagnostics)
        missing = diag["Missing Words"]
        z = (missing - 2.0**20 * math.exp(-2.0)) / 428.0
        assert out.results[0].statistic_value == z
        assert 0.0 <= out.results[0].p_values["p"] <= 1.0
        # near the mean for a sound generator
        assert abs(z) < 6.0


# ---------------------------------------------------------------------------
# scanner tests: recount plus exact-consumption check


class TestGapRecount:
    def test_gap_lengths_match(self):
        self._recount(0.25, 0.75, 8, 400, 116, 10000)

    def test_sparse_hits_cross_blocks(self):
        # mean gap 1e5 draws: gaps span blocks and empty blocks double
        self._recount(0.0, 1e-5, 100000, 12, 120, 2_000_000)

    def _recount(self, alpha, beta, t, n_gaps, seed, draws):
        stream = Mt19937(seed)
        case = GapTest(alpha=alpha, beta=beta, t=t, n_gaps=n_gaps)
        out = case.execute(stream, LEVELS)
        slab = _slab(seed, draws)
        counts = np.zeros(t + 1, dtype=np.int64)
        pos = gap = hits = 0
        while hits < n_gaps:
            if alpha <= _u(slab[pos]) < beta:
                counts[min(gap, t)] += 1
                gap = 0
                hits += 1
            else:
                gap += 1
            pos += 1
        expected = chi_square_result(counts, case.cell_probabilities(),
                                     n_gaps)
        _same(out.results[0], expected)
        assert int(stream.next_block(1)[0]) == slab[pos]


class TestRunsRecount:
    @staticmethod
    def _recount(u, n_runs):
        """The expected result, and the draws the runs consumed."""
        counts = np.zeros(6, dtype=np.int64)
        pos = runs = 0
        while runs < n_runs:
            j = 1
            while u[pos + j] > u[pos + j - 1]:
                j += 1
            counts[min(j, 6) - 1] += 1
            pos += j + 1  # breaker draw is consumed and discarded
            runs += 1
        return chi_square_result(counts, np.asarray(RunsTest._PROBS),
                                 n_runs), pos

    def test_run_lengths_match(self):
        n_runs, seed = 500, 117
        stream = Mt19937(seed)
        out = RunsTest(n_runs=n_runs).execute(stream, LEVELS)
        slab = _slab(seed, 20000)
        expected, pos = self._recount([_u(r) for r in slab], n_runs)
        _same(out.results[0], expected)
        assert int(stream.next_block(1)[0]) == slab[pos]

    def test_tied_words_match(self, tmp_path):
        # equal neighbours break runs, and a run of equal words is a
        # cluster of descents that the chain breaks at every other one
        n_runs = 5000
        path, words = _few_values_file(tmp_path, 20000, 217)
        stream = file_stream(path)
        out = RunsTest(n_runs=n_runs).execute(stream, LEVELS)
        expected, pos = self._recount(words, n_runs)
        _same(out.results[0], expected)
        assert int(stream.next_block(1)[0]) == words[pos]


class TestCouponRecount:
    def test_segment_lengths_match(self):
        d, t, n_segments, seed = 8, 20, 300, 118
        stream = Mt19937(seed)
        case = CouponCollectorTest(d=d, t=t, n_segments=n_segments)
        out = case.execute(stream, LEVELS)
        slab = _slab(seed, 30000)
        counts = np.zeros(t - d + 1, dtype=np.int64)
        pos = 0
        for _ in range(n_segments):
            seen = set()
            length = 0
            while len(seen) < d:
                seen.add(slab[pos] % d)  # d divides 2^32: no rejection
                length += 1
                pos += 1
            counts[min(length, t) - d] += 1
        expected = chi_square_result(counts, case.cell_probabilities(),
                                     n_segments)
        _same(out.results[0], expected)
        assert int(stream.next_block(1)[0]) == slab[pos]


class TestSqueezeRecount:
    def test_step_counts_match(self):
        games, seed = 200, 119
        stream = Mt19937(seed)
        out = SqueezeTest(games=games).execute(stream, LEVELS)
        slab = _slab(seed, 30000)
        counts = np.zeros(43, dtype=np.int64)
        pos = 0
        for _ in range(games):
            k = 2147483648
            steps = 0
            while k > 1:
                k = math.ceil(k * _u(slab[pos]))
                pos += 1
                steps += 1
            counts[min(max(steps, 6), 48) - 6] += 1
        from rngts.battery.games import SQUEEZE_CELL_PROBS
        expected = chi_square_result(counts, SQUEEZE_CELL_PROBS, games)
        _same(out.results[0], expected)
        assert int(stream.next_block(1)[0]) == slab[pos]


class TestCrapsRecount:
    def test_games_match(self):
        games, seed = 300, 120
        stream = Mt19937(seed)
        out = CrapsTest(games=games).execute(stream, LEVELS)
        slab = _slab(seed, 20000)
        limit = TWO32 - TWO32 % 6
        throws_counts = np.zeros(21, dtype=np.int64)
        pos = 0
        wins = 0

        def die():
            nonlocal pos
            while True:
                v = slab[pos]
                pos += 1
                if v < limit:
                    return v % 6 + 1

        for _ in range(games):
            point = 0
            throws = 0
            while True:
                s = die() + die()
                throws += 1
                if point == 0:
                    if s in (7, 11):
                        won = 1
                        break
                    if s in (2, 3, 12):
                        won = 0
                        break
                    point = s
                else:
                    if s == point:
                        won = 1
                        break
                    if s == 7:
                        won = 0
                        break
            throws_counts[min(throws, 21) - 1] += 1
            wins += won
        p_w = float(Fraction(244, 495))
        z = (wins - games * p_w) / math.sqrt(games * p_w * (1.0 - p_w))
        _same(out.results[0], gaussian_result(z))
        _same(out.results[1],
              chi_square_result(throws_counts,
                                craps_throw_probabilities(21), games))
        assert ("Games Won", wins) in out.diagnostics
        assert int(stream.next_block(1)[0]) == slab[pos]


class TestRepetitionRecount:
    def test_repeat_times_match(self):
        bits, reps, seed = 12, 60, 121
        case = RepetitionTest(bits=bits, reps=reps)
        out = case.execute(Mt19937(seed), LEVELS)
        slab = _slab(seed, 30000)
        ts = []
        pos = 0
        for _ in range(reps):
            seen = set()
            t = 0
            while True:
                v = slab[pos] >> 20  # top 12 of 32 bits
                pos += 1
                t += 1
                if v in seen:
                    ts.append(t)
                    break
                seen.add(v)
        n_bins = max(10, min(30, reps // 25))
        edges, probs = repetition_bins(bits, n_bins)
        cells = np.searchsorted(edges, np.asarray(ts), side="left")
        counts = np.bincount(cells, minlength=probs.size)[:probs.size]
        _same(out.results[0], chi_square_result(counts, probs, reps))


class TestGcdRecount:
    def test_gcd_counts_match(self):
        pairs, seed = 2000, 122
        case = GcdTest(pairs=pairs)
        stream = Mt19937(seed)
        out = case.execute(stream, LEVELS)
        slab = _slab(seed, 2 * pairs + 50)
        limit = TWO32 - TWO32 % (2**31 - 1)
        vals = []
        pos = 0
        while len(vals) < 2 * pairs:
            v = slab[pos]
            pos += 1
            if v < limit:
                vals.append(1 + v % (2**31 - 1))
        counts = np.zeros(51, dtype=np.int64)
        for i in range(pairs):
            x, y = vals[2 * i], vals[2 * i + 1]
            while y:
                x, y = y, x % y
            counts[min(x, 51) - 1] += 1
        expected = chi_square_result(counts, case.cell_probabilities(),
                                     pairs)
        _same(out.results[0], expected)
        assert int(stream.next_block(1)[0]) == slab[pos]


# ---------------------------------------------------------------------------
# default-size results pinned bit for bit


# Default-size runs on Mt19937(1), recorded from the loop kernels
# that the whole-array code replaced (minimum distance, rank, gcd,
# squeeze, craps, repetition, Maurer, coupon, runs, parking), from
# the full-width collision recurrence, from the per-bit expansion
# (monkey, random walk) and from the chi-square and KS input wrappers
# (the other nine tests, and two meta tests, whose KS of p-values no
# other pinned run reaches): p-values of every result as float.hex,
# raw words consumed, and diagnostics.
_PINNED = [
    (MinimumDistanceTest(),
     [{"plus": "0x1.fa648dab8462ap-1", "minus": "0x1.28ac1aa198c4ap-3"}],
     1600000, ()),
    (BinaryRankTest(), [{"p": "0x1.74a41c276b538p-2"}], 128000, ()),
    (GcdTest(), [{"p": "0x1.ccd5d33fe428ap-1"}], 200000,
     (("Mean Division Steps", 18.1683), ("Max Division Steps", 34))),
    (SqueezeTest(), [{"p": "0x1.825e5f1400b34p-3"}], 2308617, ()),
    (CrapsTest(),
     [{"p": "0x1.335e926241992p-1"}, {"p": "0x1.5dfca516fa51cp-1"}],
     1353334, (("Games Won", 98703),)),
    (RepetitionTest(), [{"p": "0x1.4fcb2b1f2b82cp-1"}], 651088, ()),
    (MaurersUniversalTest(), [{"p": "0x1.5212e5babfba4p-2"}], 64640,
     (("Statistic f", 7.1815700299479035),)),
    (CollisionTest(),
     [{"lower": "0x1.baab78db6b468p-3", "upper": "0x1.8597f089f552ap-3"}],
     16384, ()),
    (CouponCollectorTest(), [{"p": "0x1.2d2d7048258f1p-1"}], 108994, ()),
    (RunsTest(), [{"p": "0x1.258c2323dcb5ep-1"}], 27172, ()),
    (ParkingLotTest(), [{"p": "0x1.3b1eac4d6cdacp-1"}], 24000,
     (("Cars Parked", 3512),)),
    (Monkey20BitTest(), [{"p": "0x1.eff1f47421630p-2"}], 65537,
     (("Missing Words", 141610),)),
    (RandomWalkTest(), [{"p": "0x1.433dbc5b3ba1bp-3"}], 63125, ()),
    (ChisqrUniformityTest(), [{"p": "0x1.e88ede98a1afcp-1"}], 100000,
     ()),
    (KsUniformityTest(),
     [{"plus": "0x1.4ea6b8a5414acp-2", "minus": "0x1.db906b02f72b4p-1"}],
     100000, ()),
    (GapTest(), [{"p": "0x1.549a1d2be4456p-1"}], 20112, ()),
    (SerialTest(), [{"p": "0x1.6a0552249e874p-1"}], 50000, ()),
    (PokerTest(), [{"p": "0x1.ff04cca6e0bd8p-2"}], 50000, ()),
    (PermutationTest(), [{"p": "0x1.07f00baf73ac5p-3"}], 60000, ()),
    (MaxOfTTest(),
     [{"plus": "0x1.4d53061ad345ep-2", "minus": "0x1.99ba814ddd659p-2"}],
     80000, ()),
    (SerialCorrelationTest(), [{"p": "0x1.79afacb3c19f0p-3"}], 100000,
     ()),
    (BirthdaySpacingsTest(), [{"p": "0x1.bfa7c94fec8dfp-3"}], 102400,
     ()),
    (IterateTestCase(KsUniformityTest(n=1000), repetitions=20),
     [{"p": "0x1.b91c400c33fabp-3"}], 20000,
     (("Successful Repetitions", 20),)),
    (CountFailsTestCase(ChisqrUniformityTest(n=5000, k=64), 20,
                        (0.05, 0.95)),
     [{"0.05": "0x1.0e8015650c468p-2", "0.95": "0x1.0e8015650c470p-2"}],
     100000, (("Failures at 0.05", 2), ("Failures at 0.95", 2))),
]
_PINNED_IDS = ["minimum_distance", "binary_rank", "gcd", "squeeze", "craps",
               "repetition", "maurers_universal", "collision", "coupon",
               "runs", "parking", "monkey", "random_walk",
               "chisqr_uniformity", "ks_uniformity", "gap", "serial", "poker",
               "permutation", "max_of_t", "serial_correlation",
               "birthday_spacings", "iterate_ks", "count_fails_chisqr"]


class TestPinnedDefaults:
    """Default-size runs on Mt19937(1), pinned bit for bit (see _PINNED)."""

    @pytest.mark.parametrize("case, p_values, words, diagnostics",
                             _PINNED, ids=_PINNED_IDS)
    def test_matches_recorded_run(self, case, p_values, words, diagnostics):
        stream = Mt19937(1)
        out = case.execute(stream, LEVELS)
        assert _hex_p_values(out) == p_values
        assert out.diagnostics == diagnostics
        reference = Mt19937(1)
        reference.next_block(words)
        # consumed exactly words
        assert stream.next_block(1)[0] == reference.next_block(1)[0]

    @pytest.mark.parametrize("length, aborted, next_word", [
        (2370000, None, 2308617),
        (2350000, None, 2308617),
        (2308617, None, None),
        (2308616,
         "file(words.bin): stream exhausted, 21 of 88 outputs available",
         2308595),
    ], ids=["completes", "shorter-than-hint", "exact", "one-short"])
    def test_squeeze_on_a_file_shorter_than_its_block_hint(
            self, tmp_path, length, aborted, next_word):
        # squeeze reads blocks of 24 words per game still needed and 64
        # more, and uses 2308617 words.  A file shorter than the hint
        # serves every word it holds; one word short, the last game stays
        # open, its 21 words are kept, and the block that would finish it
        # asks for 24 + 64 words.
        path = tmp_path / "words.bin"
        path.write_bytes(Mt19937(1).next_block(length)
                         .astype("<u4").tobytes())
        stream = file_stream(str(path))
        out = SqueezeTest().execute(stream, LEVELS)
        assert out.aborted == aborted
        if aborted is None:
            assert (out.results[0].p_values["p"].hex()
                    == "0x1.825e5f1400b34p-3")
        if next_word is None:
            with pytest.raises(StreamExhausted):
                stream.next_block(1)
        else:
            reference = Mt19937(1)
            reference.next_block(next_word)
            assert stream.next_block(1)[0] == reference.next_block(1)[0]


class _Asked(Mt19937):
    """Mt19937(1) that counts the words its reads ask for."""

    def __init__(self):
        super().__init__(1)
        self.asked = 0

    def next_block(self, n):
        self.asked += n
        return super().next_block(n)


@pytest.mark.parametrize("case", [
    uniformity.GapTest(), uniformity.RunsTest(), BirthdaySpacingsTest(),
    CrapsTest(games=1000), CouponCollectorTest(n_segments=1000),
], ids=["gap", "runs", "birthday_spacings", "craps", "coupon_collector"])
def test_scans_ask_for_about_what_they_use(case):
    # each reads a block sized by its own law's words per unit, and one
    # small block if the first falls short, rather than 65536-word
    # blocks: at most two slacks of 64 words beyond what it uses
    stream = _Asked()
    out = case.execute(stream, LEVELS)
    assert out.aborted is None
    assert stream.served <= stream.asked <= stream.served + 2 * 64 + 16


def test_squeeze_holds_little_beside_its_block():
    # The default cell reads one block of 24 words per game, held as
    # 4-byte words.  Beside it, the read holds one tape-length chunk and
    # the kernel maps a chunk of draws at a time, so no second array as
    # long as the block is made: no float copy, no per-position record,
    # no concatenation.
    tape = Tape(lambda: Mt19937(1))
    replay = tape.replay()
    case = SqueezeTest()
    tracemalloc.start()
    try:
        out = case.execute(replay, LEVELS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.aborted is None
    block_bytes = 4 * case._WORDS_PER_GAME * case.games
    assert peak < 1.5 * block_bytes, peak / block_bytes


def _squeeze_traced_peak(games):
    """tracemalloc's peak while SqueezeTest(games) reads a taped twister."""
    replay = Tape(lambda: Mt19937(1)).replay()
    tracemalloc.start()
    try:
        out = SqueezeTest(games=games).execute(replay, LEVELS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.aborted is None
    return peak


class TestBoundedWorkingSet:
    """Beside its draws, a cell holds at most a block-sized working set."""

    def test_squeeze_block_does_not_grow_with_the_games(self):
        # a scan block holds at most 2^20 words, so twice the games add
        # little; a block of 24 words per game, capped at 2^22 words,
        # held about 1.75 times as much
        small = _squeeze_traced_peak(100000)
        large = _squeeze_traced_peak(200000)
        assert large <= 1.2 * small, large / small

    def test_catalog_row_peak_rss(self):
        # the 22 default tests on one twister, over the child's peak after
        # import and manifest build; a 9.6 MB squeeze block and bit
        # fields cut all at once as int64 rose about 24 MB
        line, kb = _child_peak(
            "from rngts.battery import CATALOG\n"
            "from rngts.genkit.engines import Mt19937\n"
            "from rngts.runner import RunMatrix, run_suite\n"
            "matrix = RunMatrix(\n"
            "    generators=(('mt19937', Mt19937, 0),), seeds=(1,),\n"
            "    levels=(0.01, 0.05, 0.95, 0.99),\n"
            "    tests=tuple(cls() for _, cls in CATALOG))\n"
            "base = _peak_kb()\n"
            "aborted = []\n"
            "run_suite(matrix, progress=lambda name, seed, outcome:\n"
            "          aborted.append(outcome.aborted), jobs=1)\n"
            "print(len(aborted), aborted.count(None), base)\n"
        )
        cells, finished, base = map(int, line.split())
        assert cells == finished == 22
        assert kb - base <= 20 * 1024, (kb - base) / 1024

    def test_ks_peak_rss_at_the_draw_budget(self):
        # the draws are sorted as 4-byte words and only the sorted copy is
        # mapped, and the KS maxima are taken a chunk at a time: 228 MB
        # measured, bounded with a 10% margin; sorting a float copy of
        # the mapped draws peaked at 293 MB, and maxima over whole arrays
        # at about 680 MB
        p, kb = _child_peak(
            "from rngts.battery.uniformity import KsUniformityTest\n"
            "from rngts.genkit.engines import Mt19937\n"
            "out = KsUniformityTest(n=2**24).execute(Mt19937(1), [0.05])\n"
            "ps = out.results[0].p_values\n"
            "print(ps['plus'].hex(), ps['minus'].hex())\n"
        )
        assert p == "0x1.81dce42b8e01bp-3 0x1.beea4cc5b12abp-2"
        assert kb < 250 * 1024

    def test_max_of_t_peak_rss_at_the_draw_budget(self):
        # the raw group maxima beside the draws, then only the maxima
        # mapped and sorted in place for KS: 228 MB measured, bounded
        # with a 10% margin; mapping every draw and sorting a copy of the
        # powers peaked at 421 MB, and KS maxima over whole arrays at
        # about 810 MB
        p, kb = _child_peak(
            "from rngts.battery.uniformity import MaxOfTTest\n"
            "from rngts.genkit.engines import Mt19937\n"
            "out = MaxOfTTest(t=1, n_groups=2**24).execute(Mt19937(1),\n"
            "                                              [0.05])\n"
            "ps = out.results[0].p_values\n"
            "print(ps['plus'].hex(), ps['minus'].hex())\n"
        )
        assert p == "0x1.81dce42b8e01bp-3 0x1.beea4cc5b12abp-2"
        assert kb < 250 * 1024

    def test_maurer_peak_rss_at_the_draw_budget(self):
        # 2^21 8-bit fields cut a chunk at a time into uint8, and int32
        # occurrence indexes; four int64 arrays over every field peaked
        # at about 136 MB
        p, kb = _child_peak(
            "from rngts.battery.games import MaurersUniversalTest\n"
            "from rngts.genkit.engines import Mt19937\n"
            "out = MaurersUniversalTest(L=8, K=2**21 - 2560).execute(\n"
            "    Mt19937(1), [0.05])\n"
            "print(out.results[0].p_values['p'].hex())\n"
        )
        assert p == "0x1.ff2b4c58ccd28p-1"
        assert kb < 110 * 1024


# ---------------------------------------------------------------------------
# counting tests read a block at a time


_COUNTING = ["chisqr_uniformity", "serial", "poker", "permutation", "gcd"]


def _spy_counts(monkeypatch, counted):
    """Record the counts that the counting tests hand to
    chi_square_result."""
    def spy(counts, probs, sample_size):
        counted.append(np.array(counts))
        return chi_square_result(counts, probs, sample_size)
    for module in (uniformity, games):
        monkeypatch.setattr(module, "chi_square_result", spy)


class TestBlockCounts:
    @pytest.mark.parametrize(
        "case, p_values, words, diagnostics",
        [_PINNED[_PINNED_IDS.index(name)] for name in _COUNTING],
        ids=_COUNTING)
    def test_small_blocks_match_the_recorded_run(
            self, monkeypatch, case, p_values, words, diagnostics):
        counted = []
        _spy_counts(monkeypatch, counted)
        case.execute(Mt19937(1), LEVELS)  # one block at default sizes
        # no default size is a multiple of 999 draws; a block holds 499
        # pairs, 199 hands or 199 groups of 5
        monkeypatch.setattr(battery_base, "COUNT_BLOCK", 999)
        stream = Mt19937(1)
        out = case.execute(stream, LEVELS)
        assert _hex_p_values(out) == p_values
        assert out.diagnostics == diagnostics
        whole, blocked = counted
        assert np.array_equal(whole, blocked)
        reference = Mt19937(1)
        reference.next_block(words)
        assert stream.next_block(1)[0] == reference.next_block(1)[0]

    def test_a_block_holds_at_least_one_unit(self, monkeypatch):
        monkeypatch.setattr(battery_base, "COUNT_BLOCK", 3)
        small = PokerTest(n_hands=1000).execute(Mt19937(2), LEVELS)
        monkeypatch.undo()
        assert small == PokerTest(n_hands=1000).execute(Mt19937(2), LEVELS)

    def test_chisqr_peak_rss_at_the_draw_budget(self):
        # 2^24 draws counted a block at a time; held whole, as uint64,
        # float64 and int64 arrays, they took about 420 MB
        p, kb = _child_peak(
            "from rngts.battery.uniformity import ChisqrUniformityTest\n"
            "from rngts.genkit.engines import Mt19937\n"
            "out = ChisqrUniformityTest(n=2**24).execute(Mt19937(1),\n"
            "                                            [0.05])\n"
            "print(out.results[0].p_values['p'].hex())\n"
        )
        assert p == "0x1.29f1b1d11857cp-4"
        assert kb < 100 * 1024


# ---------------------------------------------------------------------------
# every consumer of raw words reads 32-bit blocks as it reads 64-bit ones


# small sizes of each catalog test, by alias
_SMALL = {
    "chisqr_uniformity": dict(n=4000, k=64),
    "ks_uniformity": dict(n=1000),
    "gap": dict(n_gaps=1000),
    "serial": dict(d=10, n_pairs=1000),
    "poker": dict(n_hands=1000),
    "coupon_collector": dict(n_segments=1000),
    "permutation": dict(n_groups=1000),
    "runs": dict(n_runs=1000),
    "max_of_t": dict(n_groups=1000),
    "collision": dict(m=2**16, n=2**12),
    "serial_correlation": dict(n=1000),
    "birthday_spacings": dict(m=2**16, n=64, reps=20),
    "binary_rank": dict(n_matrices=500),
    "parking_lot": dict(attempts=500),
    "minimum_distance": dict(points=200, reps=20),
    "squeeze": dict(games=2000),
    "craps": dict(games=1000),
    "random_walk": dict(walkers=300, steps=11),
    "repetition": dict(bits=12, reps=50),
    "gcd": dict(pairs=1000),
    "maurers_universal": dict(L=4, Q=160, K=2000),
    "monkey_20bit": {},
}

_CONSUMERS = [cls(**_SMALL[alias]) for alias, cls in CATALOG] + [
    lambda s: uniform_int_block(s, 1, 2**31 - 1, 3000),
    lambda s: read_bits(s, 10001),
    lambda s: read_fields(s, 1000, 40),
    lambda s: ShuffledStream(s).next_block(5000),
]
_CONSUMER_IDS = [alias for alias, _ in CATALOG] + [
    "uniform_int_block", "read_bits", "read_fields", "shuffled"]


class TestWordWidth:
    @pytest.mark.parametrize("engine", [Mt19937, Minstd],
                             ids=["mt19937", "minstd"])
    @pytest.mark.parametrize("what", _CONSUMERS, ids=_CONSUMER_IDS)
    def test_widened_blocks_give_the_same_results(self, monkeypatch,
                                                   engine, what):
        # numpy keeps uint32 arithmetic in uint32, so arithmetic on raw
        # words that can pass 2^32 must widen them first; with every
        # block widened to uint64 before the consumer sees it, results
        # and words drawn stay the same
        read = RandomStream.next_block
        results = []
        for widen in (False, True):
            if widen:
                monkeypatch.setattr(
                    RandomStream, "next_block",
                    lambda self, n: read(self, n).astype(np.uint64))
            stream = engine(1)
            if isinstance(what, BatteryCase):
                out = what.execute(stream, LEVELS)
                assert out.aborted is None
            else:
                out = what(stream).tolist()
            results.append((out, stream.served))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# finite sources serve every word they hold


# (case, raw words it draws from Mt19937(1))
_FINITE_CASES = [
    (GapTest(n_gaps=1000), 1972),
    (RunsTest(n_runs=1000), 2700),
    (CouponCollectorTest(n_segments=1000), 21964),
    (SqueezeTest(games=2000), 46180),
    (CrapsTest(games=1000), 6814),
    (RepetitionTest(bits=12, reps=50), 3489),
    (SerialTest(d=10, n_pairs=1000), 2000),
    (PokerTest(n_hands=1000), 5000),
    (BirthdaySpacingsTest(m=2**16, n=64, reps=20), 1280),
    (GcdTest(pairs=1000), 2000),
]
_FINITE_IDS = ["gap", "runs", "coupon", "squeeze", "craps", "repetition",
               "serial", "poker", "birthday_spacings", "gcd"]


def _words_file(tmp_path, length):
    path = tmp_path / "words.bin"
    path.write_bytes(Mt19937(1).next_block(length).astype("<u4").tobytes())
    return str(path)


def _engine_run(case, words):
    engine = Mt19937(1)
    out = case.execute(engine, LEVELS)
    reference = Mt19937(1)
    reference.next_block(words)
    # consumed exactly words
    assert engine.next_block(1)[0] == reference.next_block(1)[0]
    return out


class TestFiniteSources:
    @pytest.mark.parametrize("case, words", _FINITE_CASES, ids=_FINITE_IDS)
    def test_file_of_exactly_the_words_drawn(self, tmp_path, case, words):
        expected = _engine_run(case, words)
        stream = file_stream(_words_file(tmp_path, words))
        out = case.execute(stream, LEVELS)
        assert out.aborted is None
        assert _hex_p_values(out) == _hex_p_values(expected)
        assert out.diagnostics == expected.diagnostics
        with pytest.raises(StreamExhausted) as info:
            stream.next_block(1)
        assert info.value.available == 0
        stream.close()

    @pytest.mark.parametrize("case, words", _FINITE_CASES, ids=_FINITE_IDS)
    def test_file_one_word_short_aborts(self, tmp_path, case, words):
        stream = file_stream(_words_file(tmp_path, words - 1))
        out = case.execute(stream, LEVELS)
        assert out.aborted and "stream exhausted" in out.aborted
        assert out.results == ()
        stream.close()

    @pytest.mark.parametrize("short", [0, 1], ids=["exact", "one-short"])
    def test_external_source(self, tmp_path, short):
        case, words = _FINITE_CASES[_FINITE_IDS.index("craps")]
        stream = ExternalStream(["cat", _words_file(tmp_path, words - short)])
        out = case.execute(stream, LEVELS)
        stream.close()
        if short:
            assert out.aborted and "stream exhausted" in out.aborted
        else:
            assert out.aborted is None
            assert _hex_p_values(out) == _hex_p_values(
                _engine_run(case, words))


class _TopBits(RandomStream):
    """The top two bits of Mt19937(seed)'s words: a stream of 4 values."""

    name = "top_bits"
    max_value = 3

    def __init__(self, seed):
        super().__init__()
        self._words = Mt19937(seed)

    def _generate(self, n):
        return self._words.next_block(n) >> np.uint32(30)


@pytest.mark.parametrize("case, top", [
    (CrapsTest(games=500), 5), (CouponCollectorTest(n_segments=200), 7),
], ids=["craps", "coupon_collector"])
def test_a_stream_narrower_than_its_draws_combines_outputs(case, top):
    # dice and digits are drawn by uniform_int_block's rule, which
    # combines two outputs of a 4-valued stream into each candidate: the
    # cell plays the draws uniform_int_block makes, and reads through
    # the raw word ending its last draw
    stream = _TopBits(1)
    out = case.execute(stream, LEVELS)
    assert out.aborted is None
    # the same draws, served one word each by a stream of 8 values
    direct = Replayed(uniform_int_block(_TopBits(1), 0, top, 20000), 3)
    expected = case.execute(direct, LEVELS)
    assert expected.aborted is None
    assert _hex_p_values(out) == _hex_p_values(expected)
    assert out.diagnostics == expected.diagnostics
    reference = _TopBits(1)
    uniform_int_block(reference, 0, top, direct.served)
    assert stream.served == reference.served


# ---------------------------------------------------------------------------
# aborts stay contained and leave a reason


class TestAbortPaths:
    def test_exhausted_file_reports_abort(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(struct.pack("<100I", *range(100)))
        out = ChisqrUniformityTest(n=8000).execute(file_stream(str(path)),
                                                   LEVELS)
        assert out.aborted and "exhausted" in out.aborted
        assert out.results == () and out.verdicts == ()

    def test_squeeze_endless_game_aborts(self):
        # u = 1 - 2^-32 keeps ceil(k*u) = k forever
        out = SqueezeTest(games=5).execute(Cyclic([TWO32 - 1]), LEVELS)
        assert out.aborted and "exceeded" in out.aborted

    def test_craps_unresolvable_point_aborts(self):
        # 4 is established, then 6s long enough to hit the throw cap
        # before the cycle replays the come-out pair
        pattern = [1, 1] + [2, 2] * 10010
        out = CrapsTest(games=5).execute(Cyclic(pattern), LEVELS)
        assert out.aborted and "throws" in out.aborted

    def test_gap_scanner_stalls_without_hits(self):
        out = GapTest(alpha=0.25, beta=0.75, t=8, n_gaps=10).execute(
            Cyclic([0]), LEVELS)
        assert out.aborted and "exceeded" in out.aborted

    def test_coupon_incomplete_alphabet_aborts(self):
        out = CouponCollectorTest(d=8, t=20, n_segments=5).execute(
            Cyclic([0]), LEVELS)
        assert out.aborted

    def test_zero_variance_correlation_aborts(self):
        out = SerialCorrelationTest(n=10).execute(Cyclic([7]), LEVELS)
        assert out.aborted and "variance" in out.aborted
