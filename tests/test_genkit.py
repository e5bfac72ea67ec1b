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
from rngts.genkit.adapters import (
    BitExtractStream,
    ExternalStream,
    FileStream,
    bit_extract,
)
from rngts.genkit.base import RandomStream
from rngts.genkit.bits import BitReader
from rngts.genkit.distributions import (
    uniform01,
    uniform01_block,
    uniform_int,
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
               g.next()]
        assert np.array_equal(got, Mt19937(4357).next_block(1325))

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
        tbl[j] = inner.next()
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
               g.next(), *g.next_block(475)]
        assert np.array_equal(got, ref)
        # one inner word per table slot, then exactly one per output
        assert shuffled_inner.next() == Minstd(44).next_block(size + 3001)[-1]

    @pytest.mark.parametrize("make_inner, size", [
        (lambda: Mt19937(3), 2), (lambda: Mt19937(3), 257),
        (lambda: Randu(9), 5)])
    def test_matches_scalar_loop_on_other_inner_streams(self, make_inner,
                                                         size):
        ref = _shuffle_scalar(make_inner(), size, 2500)
        g = ShuffledStream(make_inner(), size)
        got = [*g.next_block(700), g.next(), *g.next_block(1799)]
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
        singles = [a.next() for _ in range(700)]
        assert np.array_equal(b.next_block(700), singles)

    def test_mixed_reads_preserve_sequence(self):
        a = Mt19937(17)
        b = Mt19937(17)
        ref = b.next_block(1500).copy()
        got = list(a.next_block(100))
        got.append(a.next())
        got.extend(a.next_block(899))
        got.extend(a.next() for _ in range(3))
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

    def test_single_matches_block(self):
        a = Mt19937(3)
        b = Mt19937(3)
        singles = [uniform01(a) for _ in range(100)]
        assert np.array_equal(uniform01_block(b, 100), singles)

    def test_never_reaches_one(self):
        top = 2**63 - 1
        s = Scripted([top, top], max_value=top)
        u = uniform01_block(s, 2)
        assert np.all(u < 1.0)
        assert uniform01(Scripted([top], max_value=top)) < 1.0


class TestUniformInt:
    def test_scripted_rejection_and_consumption(self):
        # range 0..9 mapped to {0, 1, 2}: limit is 9, so a raw 9 is
        # rejected and everything else maps modulo 3
        s = Scripted([9, 1, 8, 2, 9, 0, 4], max_value=9)
        got = uniform_int_block(s, 0, 2, 3)
        assert list(got) == [1, 2, 2]
        # consumed exactly through the third acceptance; tail replayed
        assert list(s.next_block(3)) == [9, 0, 4]

    def test_single_matches_block(self):
        a = Mt19937(31)
        b = Mt19937(31)
        singles = [uniform_int(a, 5, 20) for _ in range(500)]
        assert np.array_equal(uniform_int_block(b, 5, 20, 500), singles)

    def test_bounds_inclusive(self):
        out = uniform_int_block(Mt19937(2), 3, 10, 20000)
        assert out.min() == 3 and out.max() == 10

    def test_full_range_never_rejects(self):
        s = Scripted(range(8), max_value=7)
        out = uniform_int_block(s, 0, 7, 8)
        assert list(out) == list(range(8))

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_int(Mt19937(1), 5, 4)
        with pytest.raises(ConfigurationError):
            # interval larger than an 8-value stream range
            uniform_int(Scripted([0], max_value=7), 0, 8)


# ---------------------------------------------------------------------------
# bit access


class TestBitReader:
    def test_msb_first_bit_order(self):
        s = Scripted([0xA, 0x5], max_value=0xF)
        r = BitReader(s)
        assert list(r.read(8)) == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_partial_reads_continue(self):
        s = Scripted([0xA, 0x5], max_value=0xF)
        r = BitReader(s)
        assert list(r.read(3)) == [1, 0, 1]
        assert list(r.read(5)) == [0, 0, 1, 0, 1]

    def test_read_values_big_endian(self):
        s = Scripted([0xA, 0x5, 0x3, 0xC], max_value=0xF)
        r = BitReader(s)
        assert list(r.read_values(2, 8)) == [0xA5, 0x3C]

    def test_read_values_across_word_boundary(self):
        s = Scripted([0b110, 0b101], max_value=7)
        r = BitReader(s)
        # bit stream 110101 in 3-bit fields: 110, 101
        assert list(r.read_values(3, 2)) == [0b11, 0b01, 0b01]

    @pytest.mark.parametrize("L", [1, 5, 7, 8, 24])
    @pytest.mark.parametrize("width", [1, 3, 4, 7, 13, 22, 32])
    def test_read_values_match_bit_expansion(self, L, width):
        # fields cut by shifts equal the bit expansion they replaced,
        # fed the same bits, with and without unread bits of a word left
        # over from an earlier read, at widths below and above L
        raw = np.random.default_rng(width).integers(0, 2**width, 400)
        for skip in (0, 1, width - 1, width + 2):
            for count in (1, 2, 3, 33, 100):
                count = min(count, (400 * width - skip - 40) // L)
                got_reader = BitReader(Scripted(raw, max_value=2**width - 1))
                want_reader = BitReader(Scripted(raw, max_value=2**width - 1))
                got_reader.read(skip)
                want_reader.read(skip)
                got = got_reader.read_values(count, L)
                want = _values_by_expansion(want_reader, count, L)
                assert got.dtype == np.int64
                assert got.tolist() == want.tolist()
                # both readers stop at the same bit
                assert got_reader.read(40).tolist() \
                    == want_reader.read(40).tolist()

    def test_read_values_keep_the_rest_of_a_word(self):
        # 35 bits draw two words; the last 29 bits of the second are
        # served next, before any new word
        words = Mt19937(1).next_block(3)
        s = Mt19937(1)
        r = BitReader(s)
        r.read_values(5, 7)
        rest = [(int(words[1]) >> b) & 1 for b in range(28, -1, -1)]
        assert r.read(29).tolist() == rest
        assert s.next() == int(words[2])


def _values_by_expansion(reader, count, value_bits):
    """The bit-matrix product read_values was, kept as its oracle."""
    bits = reader.read(count * value_bits).reshape(count, value_bits)
    weights = (1 << np.arange(value_bits - 1, -1, -1)).astype(np.int64)
    return bits.astype(np.int64) @ weights


# ---------------------------------------------------------------------------
# adapters


class TestBitExtract:
    def test_window(self):
        s = Scripted([0b101100, 0b010011], max_value=63)
        g = bit_extract(s, 4, 2)  # bits 4..2 of a 6-bit word
        assert list(g.next_block(2)) == [0b011, 0b100]
        assert g.min_value == 0 and g.max_value == 7

    def test_range_validation(self):
        s = Scripted([0], max_value=63)
        with pytest.raises(ConfigurationError):
            BitExtractStream(s, 6, 0)  # hi beyond 6-bit width
        with pytest.raises(ConfigurationError):
            BitExtractStream(s, 1, 2)  # lo > hi


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
        with pytest.raises(StreamExhausted):
            g.next_block(3)
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
