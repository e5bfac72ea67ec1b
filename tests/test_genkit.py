"""Engine and stream checks.

Each vectorized engine is compared against a naive scalar loop written
here from the defining recurrence, plus published check values where
they exist (minstd: 10000th output from seed 1 is 1043618065; the
standard twisted generator: 10000th output from the default seed is
4123659995, first is 3499211612).
"""

import struct
import sys

import numpy as np
import pytest

from rngts.errors import ConfigurationError, StreamExhausted
from rngts.genkit.adapters import ExternalStream, FileStream
from rngts.genkit import base as genkit_base
from rngts.genkit import bits as genkit_bits
from rngts.genkit import engines
from rngts.genkit.base import RandomStream, Tape
from rngts.genkit.bits import read_bits, read_fields
from rngts.genkit.distributions import (
    uniform01_block,
    uniform01_map,
    uniform_int_block,
)
from rngts.genkit.engines import (
    Ecuyer1988,
    LaggedFibonacci1279,
    Minstd,
    Mt19937,
    Randu,
    ShuffledStream,
)


class Scripted(RandomStream):
    """Replays a fixed list of raw outputs, then exhausts."""

    name = "scripted"

    def __init__(self, values, min_value=0, max_value=None):
        super().__init__()
        self._vals = np.asarray(values, dtype=np.uint64)
        self._i = 0
        self.min_value = min_value
        if max_value is None:
            max_value = int(self._vals.max())
        self.max_value = max_value

    def _generate(self, n):
        out = self._vals[self._i:self._i + n]
        self._i += out.size
        return out


# ---------------------------------------------------------------------------
# engines


class TestMinstd:
    def test_check_values(self):
        out = Minstd(1).next_block(10000)
        assert out[0] == 16807
        assert out[9999] == 1043618065

    def test_matches_scalar_loop(self):
        x = 12345
        ref = []
        for _ in range(9000):
            x = (16807 * x) % (2**31 - 1)
            ref.append(x)
        assert np.array_equal(Minstd(12345).next_block(9000), ref)

    def test_zero_seed_remapped(self):
        assert np.array_equal(Minstd(0).next_block(10), Minstd(1).next_block(10))

    @pytest.mark.parametrize("s", [2, 3, 80])
    def test_seed_s_scales_the_seed_1_stream(self, s):
        # why consecutive seeds are not independent samples (README)
        base = Minstd(1).next_block(5000).astype(object)
        assert np.array_equal(Minstd(s).next_block(5000),
                              (s * base) % (2**31 - 1))

    def test_range(self):
        g = Minstd(7)
        assert g.min_value == 1 and g.max_value == 2**31 - 2
        out = g.next_block(5000)
        assert out.min() >= 1 and out.max() <= 2**31 - 2

    def test_engines_share_one_read_only_table(self):
        a, b = Minstd(1), ShuffledStream(Minstd(9))._inner
        assert a._table is b._table
        assert not a._table.flags.writeable
        assert Randu(1)._table is not a._table


class TestRandu:
    def test_matches_scalar_loop(self):
        x = 1
        ref = []
        for _ in range(9000):
            x = (65539 * x) % 2**31
            ref.append(x)
        assert np.array_equal(Randu(1).next_block(9000), ref)

    def test_even_seed_made_odd(self):
        assert np.array_equal(Randu(4).next_block(20), Randu(5).next_block(20))

    def test_outputs_stay_odd(self):
        assert np.all(Randu(77).next_block(5000) % 2 == 1)


class TestEcuyer1988:
    def test_matches_scalar_loop(self):
        m1, a1 = 2147483563, 40014
        m2, a2 = 2147483399, 40692
        s = 987654321
        x1 = s % m1 or 1
        x2 = s % m2 or 1
        ref = []
        for _ in range(9000):
            x1 = (a1 * x1) % m1
            x2 = (a2 * x2) % m2
            z = (x1 - x2) % (m1 - 1)
            ref.append(z if z else m1 - 1)
        assert np.array_equal(Ecuyer1988(987654321).next_block(9000), ref)

    def test_range(self):
        g = Ecuyer1988(3)
        assert g.min_value == 1 and g.max_value == 2147483562
        out = g.next_block(20000)
        assert out.min() >= 1 and out.max() <= 2147483562


class TestPowerTable:
    # every (a, m) pair a built-in engine steps with
    @pytest.mark.parametrize("lcg", [
        Minstd, Randu, engines._Ecuyer1988First, engines._Ecuyer1988Second,
    ], ids=["minstd", "randu", "ecuyer1988_first", "ecuyer1988_second"])
    def test_matches_the_scalar_recurrence(self, lcg):
        acc, want = 1, []
        for _ in range(engines._BLOCK):
            acc = acc * lcg._a % lcg._m
            want.append(acc)
        table = engines._power_table(lcg._a, lcg._m)
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.tolist() == want


def _mt_scalar(seed, count):
    # straight 2002 reference algorithm, one word at a time
    mt = [0] * 624
    mt[0] = seed & 0xFFFFFFFF
    for i in range(1, 624):
        mt[i] = (1812433253 * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i) & 0xFFFFFFFF
    idx = 624
    out = []
    for _ in range(count):
        if idx == 624:
            for i in range(624):
                y = (mt[i] & 0x80000000) | (mt[(i + 1) % 624] & 0x7FFFFFFF)
                nxt = mt[(i + 397) % 624] ^ (y >> 1)
                if y & 1:
                    nxt ^= 0x9908B0DF
                mt[i] = nxt
            idx = 0
        y = mt[idx]
        idx += 1
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        y ^= (y << 15) & 0xEFC60000
        y ^= y >> 18
        out.append(y & 0xFFFFFFFF)
    return out


class TestMt19937:
    def test_check_values_default_seed(self):
        out = Mt19937(5489).next_block(10000)
        assert out[0] == 3499211612
        assert out[9999] == 4123659995

    # 2**32 + 7 checks that seeding keeps the low 32 bits
    @pytest.mark.parametrize("seed", [0, 331, 5489, 2**32 + 7])
    def test_matches_scalar_loop(self, seed):
        assert np.array_equal(Mt19937(seed).next_block(2000),
                              _mt_scalar(seed, 2000))

    def test_reseed_restarts(self):
        g = Mt19937(9)
        first = g.next_block(100).copy()
        g.next_block(700)
        g.seed(9)
        assert np.array_equal(g.next_block(100), first)

    def test_load_state(self):
        # build the seeded state by hand, load it, compare to seed()
        state = [0] * 624
        state[0] = 4357
        for i in range(1, 624):
            p = state[i - 1]
            state[i] = (1812433253 * (p ^ (p >> 30)) + i) & 0xFFFFFFFF
        g = Mt19937(1)
        g.next_block(5)
        g.load_state(state)
        # mixed read sizes across the 624-word twist boundaries
        got = [*g.next_block(1), *g.next_block(623), *g.next_block(700),
               *g.next_block(1)]
        assert np.array_equal(got, Mt19937(4357).next_block(1325))

    def test_serves_the_bit_generators_raw_words(self):
        # reads of mixed sizes across 2^18 words equal numpy's raw 32-bit
        # outputs, after seeding, after a reseed and after load_state
        sizes = (1, 623, 70001, 2**18 - 1, 2**18 + 5, 3, 2**17)
        key = np.random.default_rng(4).integers(0, 2**32, 624,
                                                dtype=np.uint32)
        g = Mt19937(12)
        ref = np.random.MT19937()
        for start in ("seed", "reseed", "load_state"):
            if start == "load_state":
                g.load_state(key)
                ref.state = {"bit_generator": "MT19937",
                             "state": {"key": key, "pos": 624}}
            else:
                g.seed(12 if start == "seed" else 13)
                ref.state = np.random.RandomState(
                    12 if start == "seed" else 13).get_state(legacy=False)
            for n in sizes:
                got = g.next_block(n)
                assert got.dtype == np.uint32
                assert np.array_equal(got,
                                      ref.random_raw(n).astype(np.uint32))
        assert g._generate(4).dtype == np.uint32

    def test_load_state_shape_checked(self):
        with pytest.raises(ConfigurationError):
            Mt19937(1).load_state([1, 2, 3])


class TestLaggedFibonacci:
    def test_initial_buffer_from_minstd(self):
        assert np.array_equal(
            LaggedFibonacci1279(6).next_block(1279),
            Minstd(6).next_block(1279) & np.uint64(0xFFFFFFFF),
        )

    def test_recurrence_holds(self):
        out = LaggedFibonacci1279(3).next_block(6000).astype(np.uint64)
        lhs = out[1279:]
        rhs = (out[1279 - 418:-418] + out[:-1279]) % 2**32
        assert np.array_equal(lhs, rhs)


def _shuffle_scalar(inner, size, count):
    # Bays-Durham, one output at a time
    tbl = list(inner.next_block(size))
    prev = tbl[-1]
    lo, span = inner.min_value, inner.range_size
    ref = []
    for _ in range(count):
        j = ((int(prev) - lo) * size) // span
        v = tbl[j]
        tbl[j] = int(inner.next_block(1)[0])
        prev = v
        ref.append(int(v))
    return ref


class TestShuffledStream:
    def test_matches_scalar_loop(self):
        size = 16
        ref = _shuffle_scalar(Minstd(44), size, 3000)
        shuffled_inner = Minstd(44)
        g = ShuffledStream(shuffled_inner, size)
        # mixed read sizes across the 1024-output chunks
        got = [*g.next_block(1), *g.next_block(1023), *g.next_block(1500),
               *g.next_block(1), *g.next_block(475)]
        assert np.array_equal(got, ref)
        # one inner word per table slot, then exactly one per output
        assert (shuffled_inner.next_block(1)[0]
                == Minstd(44).next_block(size + 3001)[-1])

    @pytest.mark.parametrize("make_inner, size", [
        (lambda: Mt19937(3), 2), (lambda: Mt19937(3), 257),
        (lambda: Randu(9), 5)])
    def test_matches_scalar_loop_on_other_inner_streams(self, make_inner,
                                                         size):
        ref = _shuffle_scalar(make_inner(), size, 2500)
        g = ShuffledStream(make_inner(), size)
        got = [*g.next_block(700), *g.next_block(1), *g.next_block(1799)]
        assert np.array_equal(got, ref)

    def test_same_range_as_inner(self):
        g = ShuffledStream(Minstd(1), 8)
        assert (g.min_value, g.max_value) == (1, 2**31 - 2)

    def test_table_size_checked(self):
        with pytest.raises(ConfigurationError):
            ShuffledStream(Minstd(1), 1)

    def test_reseed_deterministic(self):
        g = ShuffledStream(Minstd(5), 32)
        a = g.next_block(200).copy()
        g.seed(5)
        assert np.array_equal(g.next_block(200), a)


class TestSeedPolicing:
    @pytest.mark.parametrize("cls", [
        Minstd, Randu, Ecuyer1988, Mt19937, LaggedFibonacci1279,
        lambda s: ShuffledStream(Minstd(s)),
    ])
    def test_negative_seed_rejected(self, cls):
        with pytest.raises(ConfigurationError):
            cls(-1)


# ---------------------------------------------------------------------------
# stream mechanics


class TestStreamBuffering:
    def test_single_and_block_reads_agree(self):
        a = Mt19937(202)
        b = Mt19937(202)
        singles = [int(a.next_block(1)[0]) for _ in range(700)]
        assert np.array_equal(b.next_block(700), singles)

    def test_mixed_reads_preserve_sequence(self):
        a = Mt19937(17)
        b = Mt19937(17)
        ref = b.next_block(1500).copy()
        got = list(a.next_block(100))
        got.append(int(a.next_block(1)[0]))
        got.extend(a.next_block(899))
        got.extend(int(a.next_block(1)[0]) for _ in range(3))
        got.extend(a.next_block(497))
        assert np.array_equal(got, ref)

    def test_unread_replays(self):
        g = Minstd(8)
        first = g.next_block(50).copy()
        g.unread(first)
        assert np.array_equal(g.next_block(50), first)

    def test_unread_is_fifo_before_buffer(self):
        s = Scripted(range(10), max_value=63)
        assert list(s.next_block(4)) == [0, 1, 2, 3]
        s.unread(np.array([99, 98], dtype=np.uint64))
        assert list(s.next_block(3)) == [99, 98, 4]

    def test_unread_empty_is_noop(self):
        g = Minstd(8)
        first = g.next_block(10).copy()
        g.unread(np.empty(0, dtype=np.uint64))
        assert not np.array_equal(g.next_block(10), first)

    def test_exhaustion_raises(self):
        s = Scripted(range(5), max_value=63)
        s.next_block(3)
        with pytest.raises(StreamExhausted):
            s.next_block(3)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Minstd(1).next_block(-1)

    def test_range_properties(self):
        g = Mt19937(1)
        assert g.range_size == 2**32
        assert g.bit_width == 32

    def test_warmup_discards_exactly(self):
        a = Mt19937(55)
        a.warmup(137)
        b = Mt19937(55)
        b.next_block(137)
        assert np.array_equal(a.next_block(50), b.next_block(50))

    def test_warmup_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Mt19937(1).warmup(-1)


class Counting(RandomStream):
    """Wraps a stream and records the size of every block it serves."""

    def __init__(self, inner):
        super().__init__()
        self._inner = inner
        self.blocks = []
        self.name = inner.name
        self.min_value, self.max_value = inner.min_value, inner.max_value

    def _generate(self, n):
        self.blocks.append(n)
        return self._inner.next_block(n)


def _warmed(make, warmup):
    stream = make()
    stream.warmup(warmup)
    return stream


class Finite(RandomStream):
    """The first `size` outputs of a stream, then nothing."""

    def __init__(self, inner, size):
        super().__init__()
        self._inner = inner
        self._left = size
        self.name = inner.name
        self.min_value, self.max_value = inner.min_value, inner.max_value

    def _generate(self, n):
        n = min(n, self._left)
        self._left -= n
        return self._inner.next_block(n)


class TestTape:
    @pytest.mark.parametrize("make", [
        lambda: Mt19937(7), lambda: Ecuyer1988(7),
        lambda: LaggedFibonacci1279(7), lambda: ShuffledStream(Minstd(7)),
    ], ids=["mt19937", "ecuyer1988", "lagged_fibonacci", "shuffled"])
    def test_replays_read_past_the_cap(self, monkeypatch, make):
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        # a warmup leaves words in the source's buffer
        tape = Tape(lambda: _warmed(make, 333))
        expected = _warmed(make, 333).next_block(3000)
        for sizes in ([3000], [1, 998, 1, 1, 999, 1000],
                      [600, 600, 600, 1200], [5, 2995]):
            replay = tape.replay()
            got = np.concatenate([replay.next_block(k) for k in sizes])
            assert np.array_equal(got, expected)

    def test_records_only_what_its_replays_ask_for(self, monkeypatch):
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        builds = []

        def build():
            builds.append(Counting(Mt19937(3)))
            return builds[-1]

        tape = Tape(build)
        replay = tape.replay()
        replay.next_block(10)
        replay.next_block(5)
        replay.next_block(200)
        tape.replay().next_block(900)
        replay.next_block(2000)
        # the source moves forward only, each time through the last
        # output asked for: to 10, 15, 215 and 900, then to the cap; the
        # rest is read from a fresh stream moved past the cap, at most a
        # tape's length at a time
        source, *rest = builds
        assert source.blocks == [10, 5, 200, 685, 100]
        assert len(rest) == 1 and rest[0].blocks == [1000, 1000, 215]
        assert tape.words(10**6).size == 1000

    def test_a_source_that_ends_is_replayed_through_its_last_output(
            self, monkeypatch):
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        expected = Mt19937(4).next_block(300)
        tape = Tape(lambda: Finite(Mt19937(4), 300))
        # the tape records the 200 outputs asked for, then the 100 more
        # a read of 300 asks for; a read of 301 finds the source ended
        # and serves the 300 it held
        assert np.array_equal(tape.replay().next_block(200), expected[:200])
        replay = tape.replay()
        assert np.array_equal(replay.next_block(300), expected)
        with pytest.raises(StreamExhausted) as exc:
            tape.replay().next_block(301)
        assert exc.value.available == 300
        with pytest.raises(StreamExhausted) as exc:
            replay.next_block(1)
        assert exc.value.available == 0

    def test_close_closes_the_source_and_streams_past_the_cap(
            self, monkeypatch):
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 100)
        closed = []

        class Closing(Mt19937):
            def close(self):
                closed.append(self)

        tape = Tape(lambda: Closing(1))
        short, long = tape.replay(), tape.replay()
        short.next_block(50)
        long.next_block(150)
        short.close()
        long.close()
        assert len(closed) == 1 and closed[0] is not tape.source
        tape.close()
        assert closed[1] is tape.source

    def test_a_shorter_build_past_the_cap_is_closed(self, monkeypatch):
        # a source whose second build holds fewer words than the tape
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 100)
        closed = []

        class Closing(Finite):
            def close(self):
                closed.append(self)

        sizes = [500, 50]
        tape = Tape(lambda: Closing(Mt19937(1), sizes.pop(0)))
        replay = tape.replay()
        with pytest.raises(StreamExhausted) as exc:
            replay.next_block(150)
        assert exc.value.available == 100
        assert len(closed) == 1 and closed[0] is not tape.source

    def test_a_build_that_fails_records_nothing(self):
        builds = []

        def build():
            builds.append(1)
            if len(builds) == 1:
                raise ConfigurationError("not yet")
            return Mt19937(5)

        tape = Tape(build)
        tape.close()  # nothing built, nothing to close
        with pytest.raises(ConfigurationError, match="not yet"):
            tape.replay()
        assert np.array_equal(tape.replay().next_block(10),
                              Mt19937(5).next_block(10))
        tape.replay()
        assert len(builds) == 2

    def test_replays_carry_the_source_range_and_name(self):
        replay = Tape(lambda: Minstd(1)).replay()
        assert (replay.name, replay.min_value, replay.max_value) == (
            "minstd", 1, 2**31 - 2)
        assert replay.bit_width == 31

    def test_recorded_words_are_read_only(self):
        replay = Tape(lambda: Mt19937(1)).replay()
        block = replay.next_block(100)
        with pytest.raises(ValueError):
            block[0] = 0

    def test_unread_words_are_served_again(self):
        replay = Tape(lambda: Mt19937(2)).replay()
        first = replay.next_block(50)
        replay.unread(first[20:])
        assert np.array_equal(replay.next_block(40),
                              Mt19937(2).next_block(60)[20:])


class TestLongReads:
    """Reads past TAPE_WORDS are generated a tape's length at a time."""

    _ENGINES = [
        lambda: Minstd(9), lambda: Randu(9), lambda: Ecuyer1988(9),
        lambda: Mt19937(9), lambda: LaggedFibonacci1279(9),
        lambda: ShuffledStream(Minstd(9), 32),
    ]

    @staticmethod
    def _small_reads(stream, total):
        sizes = [1, 7, 999, 1000, 1001, 2]
        got, i = [], 0
        while total:
            k = min(sizes[i % len(sizes)], total)
            got.append(stream.next_block(k))
            total -= k
            i += 1
        return np.concatenate(got)

    @pytest.mark.parametrize("make", _ENGINES, ids=[
        "minstd", "randu", "ecuyer1988", "mt19937", "lagged_fibonacci",
        "shuffled"])
    def test_one_long_read_equals_many_small_ones(self, monkeypatch, make):
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        counting = Counting(make())
        long = counting.next_block(3 * 1000 + 5)
        assert max(counting.blocks) <= 1000
        assert np.array_equal(long, self._small_reads(make(), 3005))

    def test_one_long_read_of_a_file(self, monkeypatch, tmp_path):
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        words = Mt19937(4).next_block(3005)
        path = tmp_path / "w.bin"
        path.write_bytes(words.astype("<u4").tobytes())
        stream = FileStream(str(path))
        stream.next_block(3)
        assert np.array_equal(stream.next_block(3002), words[3:])
        assert np.array_equal(self._small_reads(FileStream(str(path)), 3005),
                              words)

    def test_a_replay_read_across_the_tape_end(self, monkeypatch):
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        tape = Tape(lambda: Mt19937(6))
        replay = tape.replay()
        first = replay.next_block(400)
        assert not first.flags.writeable  # a view of the tape
        across = replay.next_block(3 * 1000 + 5)
        assert np.array_equal(across, Mt19937(6).next_block(3405)[400:])
        assert np.array_equal(replay.next_block(5),
                              Mt19937(6).next_block(3410)[3405:])

    def test_a_file_shorter_than_a_two_chunk_read(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        words = Mt19937(8).next_block(1500)
        path = tmp_path / "w.bin"
        path.write_bytes(words.astype("<u4").tobytes())
        stream = FileStream(str(path))
        with pytest.raises(StreamExhausted) as exc:
            stream.next_block(2000)
        assert exc.value.available == 1500
        assert np.array_equal(stream.next_block(1500), words)
        with pytest.raises(StreamExhausted) as exc:
            stream.next_block(1)
        assert exc.value.available == 0

    def test_served_counts_reads_less_unreads(self):
        stream = Mt19937(2)
        block = stream.next_block(300)
        stream.unread(block[100:])
        stream.next_block(1)
        assert stream.served == 101
        stream.next_block(5000)
        assert stream.served == 5101


# ---------------------------------------------------------------------------
# distributions


class TestUniform01:
    def test_formula(self):
        s = Scripted([0, 1, 2, 3], max_value=3)
        u = uniform01_block(s, 4)
        assert np.array_equal(u, [0.0, 0.25, 0.5, 0.75])

    def test_offset_range(self):
        s = Scripted([1, 4], min_value=1, max_value=4)
        assert np.array_equal(uniform01_block(s, 2), [0.0, 0.75])

    def test_never_reaches_one(self):
        top = 2**32 - 1
        s = Scripted([top, top], max_value=top)
        u = uniform01_block(s, 2)
        assert np.all(u < 1.0)

    @pytest.mark.parametrize("make", [
        Minstd, Randu, Ecuyer1988, Mt19937, LaggedFibonacci1279,
        lambda: ShuffledStream(Minstd()),
    ], ids=["minstd", "randu", "ecuyer1988", "mt19937", "lagged_fibonacci",
            "shuffled"])
    def test_strictly_increasing_over_the_range(self, make):
        # runs, permutation, max-of-t and KS compare raw words in place
        # of their uniforms, which holds while no two words map to equal
        # or swapped uniforms: checked at both ends of the range and on
        # a sample of adjacent words
        s = make()
        lo, hi = s.min_value, s.max_value
        rng = np.random.default_rng(31)
        below = np.concatenate([[lo, hi - 1], rng.integers(lo, hi, 100000)])
        u = uniform01_map(s, below.astype(np.uint32))
        above = uniform01_map(s, (below + 1).astype(np.uint32))
        assert np.all(u < above)
        assert u[0] == 0.0 and above[1] < 1.0


class TestUniformInt:
    def test_scripted_rejection_and_consumption(self):
        # range 0..9 mapped to {0, 1, 2}: limit is 9, so a raw 9 is
        # rejected and everything else maps modulo 3
        s = Scripted([9, 1, 8, 2, 9, 0, 4], max_value=9)
        got = uniform_int_block(s, 0, 2, 3)
        assert list(got) == [1, 2, 2]
        # consumed exactly through the third acceptance; tail replayed
        assert list(s.next_block(3)) == [9, 0, 4]

    def test_bounds_inclusive(self):
        out = uniform_int_block(Mt19937(2), 3, 10, 20000)
        assert out.min() == 3 and out.max() == 10

    def test_full_range_never_rejects(self):
        s = Scripted(range(8), max_value=7)
        out = uniform_int_block(s, 0, 7, 8)
        assert list(out) == list(range(8))

    def test_value_type_holds_the_interval(self):
        # uint32 wherever a and b fit it, also when outputs combine
        assert uniform_int_block(Mt19937(1), 0, 9, 5).dtype == np.uint32
        assert uniform_int_block(Minstd(1), 1, 2**31 - 1, 5).dtype \
            == np.uint32
        assert uniform_int_block(Mt19937(1), -3, 3, 5).dtype == np.int64
        assert uniform_int_block(Minstd(1), 0, 2**32, 5).dtype == np.int64
        # 2^32 values of a 2^32-value stream: every word, unchanged
        full = uniform_int_block(Mt19937(1), 0, 2**32 - 1, 1000)
        assert full.dtype == np.uint32
        assert np.array_equal(full, Mt19937(1).next_block(1000))

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_int_block(Mt19937(1), 5, 4, 1)
        with pytest.raises(ConfigurationError):
            # 2^63 + 1 values need 22 outputs of an 8-value stream, and
            # 8^22 passes 2^63
            uniform_int_block(Scripted([0], max_value=7), 0, 2**63, 1)
        with pytest.raises(ConfigurationError):
            # a one-value stream combines to one value however many
            uniform_int_block(Scripted([3], min_value=3, max_value=3),
                              0, 1, 1)
        # 2^63 values take 21 outputs, and 8^21 is 2^63
        assert uniform_int_block(Scripted([7] * 21, max_value=7),
                                 0, 2**63 - 1, 1).tolist() == [2**63 - 1]

    def test_wide_interval_combines_outputs_exhaustively(self):
        # m = 50 on an 8-value stream takes pairs, 8 w1 + w2 in [0, 64);
        # the 64 pairs in order give every value below 50 once, and
        # the candidates 50..63 are rejected
        pairs = [v for w1 in range(8) for w2 in range(8) for v in (w1, w2)]
        s = Scripted(pairs, max_value=7)
        assert uniform_int_block(s, 0, 49, 50).tolist() == list(range(50))
        # consumed through the pair giving 49; the pair giving 50 is next
        assert s.next_block(2).tolist() == [6, 2]

    def test_wide_interval_on_a_31_bit_engine(self):
        # [1, 2^31 - 1] is one wider than minstd's outputs: two outputs
        # form each candidate, consumed a pair at a time
        s = Minstd(5)
        vals = uniform_int_block(s, 1, 2**31 - 1, 1000)
        w = Minstd(5).next_block(4000).astype(object) - 1
        cand = [w[i] * (2**31 - 2) + w[i + 1] for i in range(0, 4000, 2)]
        limit = (2**31 - 2)**2 - (2**31 - 2)**2 % (2**31 - 1)
        want = [1 + c % (2**31 - 1) for c in cand if c < limit][:1000]
        assert vals.tolist() == want


# ---------------------------------------------------------------------------
# bit access


# the narrowest unsigned type holding a field, by field width
_FIELD_TYPES = {1: np.uint8, 5: np.uint8, 7: np.uint8, 8: np.uint8,
                24: np.uint32, 33: np.uint64, 64: np.uint64}


class TestBitReads:
    def test_msb_first_bit_order(self):
        s = Scripted([0xA, 0x5], max_value=0xF)
        assert list(read_bits(s, 8)) == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_fields_big_endian(self):
        s = Scripted([0xA, 0x5, 0x3, 0xC], max_value=0xF)
        assert list(read_fields(s, 2, 8)) == [0xA5, 0x3C]

    def test_fields_across_word_boundary(self):
        s = Scripted([0b110, 0b101], max_value=7)
        # bit stream 110101 in 2-bit fields: 11, 01, 01
        assert list(read_fields(s, 3, 2)) == [0b11, 0b01, 0b01]

    @pytest.mark.parametrize("L", [1, 5, 7, 8, 24, 33, 64])
    @pytest.mark.parametrize("width", [1, 3, 4, 7, 13, 22, 32])
    def test_fields_match_bit_expansion(self, L, width):
        # fields cut by shifts equal the bit expansion they replaced, fed
        # the same bits, at widths below and above L
        raw = np.random.default_rng(width).integers(0, 2**width, 400)
        for count in (1, 2, 3, 33, 100):
            count = min(count, 400 * width // L)
            got = read_fields(Scripted(raw, max_value=2**width - 1),
                              count, L)
            assert got.dtype == _FIELD_TYPES[L]
            # the oracle's int64 sum wraps a 64-bit field mod 2^64
            assert got.tolist() == _fields_by_expansion(
                raw, width, count, L).astype(got.dtype).tolist()

    @pytest.mark.parametrize("L", [1, 7, 24, 33, 64])
    def test_fields_cut_a_chunk_at_a_time(self, monkeypatch, L):
        # chunks of 7 fields, across word boundaries, cut what the bit
        # expansion gives
        monkeypatch.setattr(genkit_bits, "_FIELD_CHUNK", 7)
        raw = np.random.default_rng(L).integers(0, 2**13, 400)
        count = min(100, 400 * 13 // L)
        got = read_fields(Scripted(raw, max_value=2**13 - 1), count, L)
        assert got.tolist() == _fields_by_expansion(
            raw, 13, count, L).astype(got.dtype).tolist()

    @pytest.mark.parametrize("width", [1, 8, 19, 20, 31, 32])
    def test_bits_match_shift_expansion(self, width):
        # unpacked bytes give the bits the per-bit shifts gave
        raw = np.random.default_rng(width).integers(0, 2**width, 500)
        want = _bits_by_shifts(raw, width)
        for n in (1, 3, width + 2, 7 * width, 64, 129, 500 * width):
            got = read_bits(Scripted(raw, max_value=2**width - 1), n)
            assert got.dtype == np.uint8
            assert got.tolist() == want[:n].tolist()

    @pytest.mark.parametrize("width", [1, 7, 31, 32])
    @pytest.mark.parametrize("n", [1, 6, 31, 32, 33, 64, 100])
    def test_a_read_of_n_bits_draws_ceil_n_over_width_words(self, width, n):
        raw = np.random.default_rng(width).integers(0, 2**width, 200)
        reads = [lambda s: read_bits(s, n), lambda s: read_fields(s, n, 1)]
        if n <= 64:
            reads.append(lambda s: read_fields(s, 1, n))
        for read in reads:
            s = Scripted(raw, max_value=2**width - 1)
            read(s)
            assert int(s.next_block(1)[0]) == raw[-(-n // width)]


def _bits_by_shifts(raw, width):
    """The per-bit shifts read_bits was, kept as its oracle."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    words = np.asarray(raw, dtype=np.uint64)
    return ((words[:, None] >> shifts) & np.uint64(1)).astype(
        np.uint8).ravel()


def _fields_by_expansion(raw, width, count, value_bits):
    """The bit-matrix product read_fields was, kept as its oracle."""
    bits = _bits_by_shifts(raw, width)[:count * value_bits]
    weights = (1 << np.arange(value_bits - 1, -1, -1)).astype(np.int64)
    return bits.reshape(count, value_bits).astype(np.int64) @ weights


# ---------------------------------------------------------------------------
# adapters


class TestFileStream:
    def test_reads_little_endian_words(self, tmp_path):
        values = [0, 1, 0xDEADBEEF, 2**32 - 1, 123456789]
        path = tmp_path / "words.bin"
        path.write_bytes(struct.pack("<5I", *values))
        g = FileStream(str(path))
        assert list(g.next_block(5)) == values
        assert (g.min_value, g.max_value) == (0, 2**32 - 1)
        g.close()

    def test_exhaustion(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(struct.pack("<2I", 7, 8))
        g = FileStream(str(path))
        with pytest.raises(StreamExhausted) as info:
            g.next_block(3)
        assert info.value.available == 2
        assert list(g.next_block(2)) == [7, 8]
        g.close()

    def test_odd_length_rejected(self, tmp_path):
        path = tmp_path / "odd.bin"
        path.write_bytes(b"\x00" * 7)
        with pytest.raises(ConfigurationError):
            FileStream(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            FileStream(str(tmp_path / "absent.bin"))


class TestExternalStream:
    def test_reads_child_stdout(self):
        script = (
            "import struct, sys;"
            "sys.stdout.buffer.write(struct.pack('<4I', 10, 20, 30, 4000000000))"
        )
        g = ExternalStream([sys.executable, "-c", script])
        assert list(g.next_block(4)) == [10, 20, 30, 4000000000]
        with pytest.raises(StreamExhausted):
            g.next_block(1)
        g.close()

    def test_missing_command_rejected(self):
        with pytest.raises(ConfigurationError):
            ExternalStream([])

    def test_unspawnable_command_rejected(self):
        with pytest.raises(ConfigurationError):
            ExternalStream(["/nonexistent/binary-xyz"])
