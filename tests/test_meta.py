"""Second-order (meta) test machinery.

Binomial reference values were frozen from an independent exact
computation; a Fraction-based recount cross-checks the log-space
implementation over a whole small-n range.  Inner-test repetition is
driven by scripted inners so collection, abort accounting, and level
bookkeeping are all observable.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from rngts.battery.base import TestCase as BatteryCase
from rngts.battery.games import RepetitionTest
from rngts.battery.uniformity import (ChisqrUniformityTest, GapTest,
                                      KsUniformityTest)
from rngts.errors import ConfigurationError, TestAborted as AbortedError
from rngts.genkit.adapters import file_stream
from rngts.genkit.engines import Minstd, Mt19937
from rngts.meta import (
    CountFailsTestCase,
    IterateTestCase,
    binomial_two_sided_pvalue,
    ks_of_pvalues,
)
from rngts.report import write_xml
from rngts.runner import RunMatrix, run_suite
from rngts.stats import StatKind, StatisticResult


class PInner(BatteryCase):
    """Inner test emitting scripted p-values, one draw per run."""

    test_name = "Scripted-P-Test"

    def __init__(self, ps, abort_on=()):
        self.ps = list(ps)
        self.abort_on = set(abort_on)
        self.calls = 0

    def parameters(self):
        return [("Scripted", len(self.ps))]

    def run(self, stream):
        i = self.calls
        self.calls += 1
        stream.next_block(1)
        if i in self.abort_on:
            raise AbortedError("scripted abort")
        return [StatisticResult(
            kind=StatKind.GAUSSIAN,
            statistic_value=0.0,
            p_values={"p": self.ps[i % len(self.ps)]},
        )]


class TwoResultInner(BatteryCase):
    test_name = "Two-Result-Test"

    def parameters(self):
        return []

    def run(self, stream):
        stream.next_block(1)
        return [
            StatisticResult(kind=StatKind.KOLMOGOROV_SMIRNOV,
                            statistic_value=1.0,
                            p_values={"plus": 0.4, "minus": 0.7}),
            StatisticResult(kind=StatKind.GAUSSIAN,
                            statistic_value=0.0,
                            p_values={"p": 0.25}),
        ]


class TestBinomialPvalue:
    def test_frozen_references(self):
        # the mode observation covers everything: p = 1 up to summation noise
        assert binomial_two_sided_pvalue(5, 100, 0.05) == pytest.approx(
            1.0, abs=1e-12)
        assert binomial_two_sided_pvalue(2, 40, 0.05) == pytest.approx(
            1.0, abs=1e-12)
        # all successes at rate 0.05: only that outcome is as unlikely
        assert binomial_two_sided_pvalue(20, 20, 0.05) == pytest.approx(
            9.536743164062511e-27, rel=1e-9)
        assert binomial_two_sided_pvalue(0, 60, 0.05) == pytest.approx(
            0.07576390094183538, rel=1e-9)

    def test_exact_recount_small_n(self):
        n, rate = 10, 0.25
        pmf = [
            Fraction(math.comb(n, k)) * Fraction(1, 4) ** k
            * Fraction(3, 4) ** (n - k)
            for k in range(n + 1)
        ]
        for observed in range(n + 1):
            exact = sum(p for p in pmf if p <= pmf[observed])
            got = binomial_two_sided_pvalue(observed, n, rate)
            assert got == pytest.approx(min(1.0, float(exact)), rel=1e-10)

    def test_symmetric_rate(self):
        assert binomial_two_sided_pvalue(3, 6, 0.5) == 1.0
        a = binomial_two_sided_pvalue(1, 6, 0.5)
        b = binomial_two_sided_pvalue(5, 6, 0.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            binomial_two_sided_pvalue(7, 6, 0.5)
        with pytest.raises(ConfigurationError):
            binomial_two_sided_pvalue(-1, 6, 0.5)
        with pytest.raises(ConfigurationError):
            binomial_two_sided_pvalue(3, 6, 0.0)
        with pytest.raises(ConfigurationError):
            binomial_two_sided_pvalue(3, 6, 1.0)


class TestKsOfPvalues:
    def test_degenerate_sample_rejected_hard(self):
        res = ks_of_pvalues([0.5] * 100)
        assert res.meta_kind == "KS"
        assert res.kind == StatKind.KOLMOGOROV_SMIRNOV
        # all mass at 0.5: sup gap is 0.5, scaled by sqrt(100)
        assert res.statistic_value == pytest.approx(5.0, abs=1e-12)
        assert res.p_values["p"] < 1e-20

    def test_uniform_sample_plausible(self):
        rng = np.random.default_rng(42)
        res = ks_of_pvalues(rng.random(500).tolist())
        assert 0.001 < res.p_values["p"] < 0.999


def _ks_p(result):
    return result.statistic_value, result.p_values


class TestIterate:
    def test_continues_stream_without_reseeding(self):
        reps, seed = 20, 310
        inner = PInner([0.5] * reps)
        stream = Mt19937(seed)
        results = IterateTestCase(inner, reps).run(stream)
        # each run consumed exactly one draw, in stream order
        assert inner.calls == reps
        reference = Mt19937(seed)
        reference.next_block(reps)
        assert stream.next_block(1)[0] == reference.next_block(1)[0]
        assert _ks_p(results[0]) == _ks_p(ks_of_pvalues([0.5] * reps))

    def test_matches_direct_ks(self):
        ps = [0.1, 0.7, 0.3, 0.9, 0.2, 0.5, 0.4, 0.8, 0.6, 0.15]
        case = IterateTestCase(PInner(ps), 10)
        [meta] = case.run(Mt19937(1))
        assert _ks_p(meta) == _ks_p(ks_of_pvalues(ps))
        assert case.diagnostics == (("Successful Repetitions", 10),)

    def test_default_p_name_takes_first(self):
        [meta] = IterateTestCase(TwoResultInner(), 10).run(Mt19937(2))
        assert _ks_p(meta) == _ks_p(ks_of_pvalues([0.4] * 10))
        assert _ks_p(meta) != _ks_p(ks_of_pvalues([0.7] * 10))

    def test_named_p_searched_across_results(self):
        case = IterateTestCase(TwoResultInner(), 10, p_name="p")
        [meta] = case.run(Mt19937(2))
        assert _ks_p(meta) == _ks_p(ks_of_pvalues([0.25] * 10))

    def test_unknown_p_name_lists_available(self):
        case = IterateTestCase(TwoResultInner(), 10, p_name="zeta")
        with pytest.raises(ConfigurationError) as exc:
            case.run(Mt19937(2))
        msg = str(exc.value)
        assert "zeta" in msg and "minus" in msg and "plus" in msg

    def test_too_few_repetitions(self):
        with pytest.raises(ConfigurationError):
            IterateTestCase(PInner([0.5]), 9)
        assert IterateTestCase(PInner([0.5]), 10).repetitions == 10

    def test_aborts_within_allowance_are_skipped(self):
        reps = 20  # allowance: int(0.1 * 20) = 2
        inner = PInner([0.5] * reps, abort_on={3, 7})
        case = IterateTestCase(inner, reps)
        [meta] = case.run(Mt19937(3))
        assert case.diagnostics == (("Successful Repetitions", 18),
                                    ("Aborted Repetitions", 2))
        assert _ks_p(meta) == _ks_p(ks_of_pvalues([0.5] * 18))

    def test_excess_aborts_fail_the_meta_run(self):
        inner = PInner([0.5] * 20, abort_on={1, 2, 3})
        out = IterateTestCase(inner, 20).execute(Mt19937(3), [0.05])
        assert out.aborted == \
            "3 of 20 inner runs aborted (last: scripted abort)"
        assert out.results == () and out.diagnostics == ()
        # the third abort ends the repetitions
        assert inner.calls == 4

    def test_exhausted_stream_counts_as_an_abort(self, tmp_path):
        path = tmp_path / "words.bin"
        path.write_bytes(Mt19937(4).next_block(15).astype("<u4").tobytes())
        inner = PInner([0.5] * 20)
        out = IterateTestCase(inner, 20).execute(file_stream(str(path)),
                                                 [0.05])
        assert out.aborted == (
            "3 of 20 inner runs aborted (last: file(words.bin): stream "
            "exhausted, 0 of 1 outputs available)"
        )

    def test_repetition_runs_draw_only_the_words_they_use(self, tmp_path):
        # ten repetition runs on one stream follow each other word for
        # word: 39823 words in all, so a file of exactly those serves them
        def case():
            return IterateTestCase(RepetitionTest(bits=12, reps=50), 10)

        stream = Mt19937(1)
        [meta] = case().run(stream)
        reference = Mt19937(1)
        ps = [RepetitionTest(bits=12, reps=50).run(reference)[0]
              .p_values["p"] for _ in range(10)]
        assert _ks_p(meta) == _ks_p(ks_of_pvalues(ps))
        words = Mt19937(1).next_block(39824)
        assert (stream.next_block(1)[0] == reference.next_block(1)[0]
                == words[-1])
        path = tmp_path / "words.bin"
        path.write_bytes(words[:-1].astype("<u4").tobytes())
        source = file_stream(str(path))
        out = case().execute(source, [0.05])
        source.close()
        assert out.aborted is None
        assert _ks_p(out.results[0]) == _ks_p(meta)


class TestCountFails:
    def test_counts_per_level(self):
        # 3 runs at p = 0.01 fail 0.05; none fail 0.95
        ps = [0.01] * 3 + [0.5] * 17
        case = CountFailsTestCase(PInner(ps), 20, [0.05, 0.95])
        [meta] = case.run(Mt19937(4))
        assert case.diagnostics == (("Failures at 0.05", 3),
                                    ("Failures at 0.95", 0))
        assert meta.meta_kind == "COUNT_FAILS"
        assert meta.kind == StatKind.GAUSSIAN
        assert meta.statistic_value == 3.0  # count at the first level
        assert meta.p_values["0.05"] == binomial_two_sided_pvalue(3, 20, 0.05)
        assert meta.p_values["0.95"] == binomial_two_sided_pvalue(0, 20, 0.05)

    def test_upper_level_counts_large_ps(self):
        ps = [0.99] * 4 + [0.5] * 16
        case = CountFailsTestCase(PInner(ps), 20, [0.95])
        case.run(Mt19937(5))
        assert case.diagnostics == (("Failures at 0.95", 4),)

    @pytest.mark.parametrize("p_name, failures, p", [
        ("plus", 19, 0.87), ("minus", 18, 0.64), (None, 19, 0.87),
    ])
    def test_counts_the_chosen_p_value(self, p_name, failures, p):
        # counting a run as failed when either KS side fails gave 34 of
        # 40 at level 0.5 (p 8.4e-6), rejecting a sound generator
        case = CountFailsTestCase(KsUniformityTest(n=500), 40, [0.5],
                                  p_name=p_name)
        [meta] = case.run(Mt19937(3))
        assert case.diagnostics == (("Failures at 0.5", failures),)
        assert meta.p_values["0.5"] == pytest.approx(p, abs=0.005)

    @pytest.mark.parametrize("levels", [[], [1.2], [0.05, 0.0]])
    def test_levels_checked_at_construction(self, levels):
        with pytest.raises(ConfigurationError):
            CountFailsTestCase(PInner([0.5]), 10, levels)

    def test_abort_overflow(self):
        inner = PInner([0.5] * 10, abort_on={0, 1})
        out = CountFailsTestCase(inner, 10, [0.05]).execute(Mt19937(6),
                                                           [0.05])
        assert out.aborted == \
            "2 of 10 inner runs aborted (last: scripted abort)"
        assert out.results == () and out.diagnostics == ()


class TestAdapters:
    def test_iterate_case_wraps_inner(self):
        case = IterateTestCase(ChisqrUniformityTest(n=2000, k=64),
                               repetitions=12)
        out = case.execute(Mt19937(77), [0.05, 0.95])
        assert out.test_name == "Iterate-Chi-Square-Uniformity-Test"
        params = dict(out.parameters)
        assert params["Inner Test"] == "Chi-Square-Uniformity-Test"
        assert params["Repetitions"] == 12
        assert params["Number of Classes"] == 64
        assert out.results[0].meta_kind == "KS"
        assert 0.0 <= out.results[0].p_values["p"] <= 1.0
        assert ("Successful Repetitions", 12) in out.diagnostics
        assert not out.aborted

    def test_count_fails_case_wraps_inner(self):
        case = CountFailsTestCase(ChisqrUniformityTest(n=2000, k=64),
                                  repetitions=12, levels=[0.05, 0.95])
        out = case.execute(Mt19937(78), [0.05, 0.95])
        assert out.test_name == "Count-Fails-Chi-Square-Uniformity-Test"
        params = dict(out.parameters)
        assert params["Counted Levels"] == "0.05 0.95"
        assert out.results[0].meta_kind == "COUNT_FAILS"
        diag = dict(out.diagnostics)
        assert "Failures at 0.05" in diag and "Failures at 0.95" in diag

    def test_adapter_propagates_meta_abort(self):
        inner = PInner([0.5] * 20, abort_on={0, 1, 2})
        case = IterateTestCase(inner, repetitions=20)
        out = case.execute(Mt19937(9), [0.05])
        assert out.aborted and "inner runs aborted" in out.aborted
        assert out.results == ()

    @pytest.mark.parametrize("kwargs", [
        {"repetitions": 10.5}, {"repetitions": math.nan},
        {"repetitions": True}, {"repetitions": 2**30},
        {"repetitions": 10, "p_name": 3},
    ], ids=["fraction", "nan", "bool", "over-budget", "p_name"])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            IterateTestCase(KsUniformityTest(n=100), **kwargs)
        with pytest.raises(ConfigurationError):
            CountFailsTestCase(KsUniformityTest(n=100), levels=[0.05],
                               **kwargs)

    @pytest.mark.parametrize("inner", [GapTest, None, "gap"],
                             ids=["class", "none", "name"])
    def test_inner_must_be_a_test_instance(self, inner):
        # a class used to construct, then take its suite run down
        with pytest.raises(ConfigurationError, match="inner"):
            IterateTestCase(inner, repetitions=10)
        with pytest.raises(ConfigurationError, match="inner"):
            CountFailsTestCase(inner, repetitions=10, levels=[0.05])

    def test_adapter_repetition_floor(self):
        with pytest.raises(ConfigurationError):
            IterateTestCase(PInner([0.5]), repetitions=5)
        with pytest.raises(ConfigurationError):
            CountFailsTestCase(PInner([0.5]), repetitions=5, levels=[0.05])


class TestInSuite:
    def test_meta_cells_report_alike_at_any_job_count(self):
        matrix = RunMatrix(
            generators=(("mt19937", Mt19937, 0), ("minstd", Minstd, 5)),
            seeds=(1, 7),
            levels=(0.05, 0.95),
            tests=(
                IterateTestCase(ChisqrUniformityTest(n=2000, k=64),
                                repetitions=12),
                CountFailsTestCase(
                    ChisqrUniformityTest(n=2000, k=64), repetitions=12,
                    levels=[0.05, 0.95]),
            ),
        )
        docs = [run_suite(matrix, jobs=jobs, date="2025-06-01")
                for jobs in (1, 2)]
        for rng in docs[0].generators:
            for seed in rng.seeds:
                iterate, count = seed.tests
                assert iterate.name == "Iterate-Chi-Square-Uniformity-Test"
                assert count.name == "Count-Fails-Chi-Square-Uniformity-Test"
                for test, kind in ((iterate, "KS"), (count, "COUNT_FAILS")):
                    assert test.aborted is None
                    [analysis] = test.analyses
                    assert analysis.element == "META"
                    assert ("kind", kind) in analysis.attributes
        xml = []
        for doc in docs:
            buf = io.BytesIO()
            write_xml(doc, buf)
            xml.append(buf.getvalue())
        assert xml[0] == xml[1]
