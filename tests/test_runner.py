"""Registries, run matrix execution, and manifest loading.

Parallel execution must be a pure performance knob: the assembled
document, and therefore its serialized bytes, cannot depend on the job
count.  Registry mutations are snapshotted and restored so the builtin
catalogs stay pristine for other tests.
"""

import concurrent.futures
import copy
import io
import json
import os
import re
import struct
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from rngts import runner
from rngts.battery.base import TestCase as BatteryCase
from rngts.battery.games import (CrapsTest, GcdTest, RepetitionTest,
                                 SqueezeTest)
from rngts.battery.uniformity import (
    ChisqrUniformityTest,
    CouponCollectorTest,
    GapTest,
    KsUniformityTest,
    RunsTest,
    SerialCorrelationTest,
)
from rngts.cli import main
from rngts.errors import ConfigurationError
from rngts.genkit import base as genkit_base
from rngts.genkit.base import SeedableStream
from rngts.genkit.engines import (
    LaggedFibonacci1279,
    Minstd,
    Mt19937,
    ShuffledStream,
)
from rngts.meta import IterateTestCase
from rngts.report import parse_xml, write_xml
from rngts.report import test_section_from_outcome as section_of
from rngts.runner import (
    RunManifest,
    RunMatrix,
    document_has_failures,
    generator_names,
    load_manifest,
    register_generator,
    register_test,
    resolve_generator,
    resolve_test,
    run_suite,
    test_names as catalog_test_names,
)

ALL_TESTS = [
    "chisqr_uniformity_test", "ks_uniformity_test", "gap_test",
    "serial_test", "poker_test", "coupon_collector_test",
    "permutation_test", "runs_test", "max_of_t_test", "collision_test",
    "serial_correlation_test", "birthday_spacings_test",
    "binary_rank_test", "parking_lot_test", "minimum_distance_test",
    "squeeze_test", "craps_test", "random_walk_test", "repetition_test",
    "gcd_test", "maurers_universal_test", "monkey_20bit_test",
]

ALL_GENERATORS = [
    "ecuyer1988", "lagged_fibonacci_1279", "minstd", "mt19937", "randu",
    "shuffled_minstd",
]


@pytest.fixture
def pristine_registries():
    saved = [(catalog, dict(catalog.table), list(catalog.canon))
             for catalog in (runner._GENERATORS, runner._TESTS)]
    yield
    for catalog, table, canon in saved:
        catalog.table, catalog.canon = table, canon


class TestRegistries:
    def test_builtin_catalogs(self):
        assert generator_names() == ALL_GENERATORS
        assert catalog_test_names() == sorted(ALL_TESTS)

    def test_aliases_resolve_but_stay_out_of_listings(self):
        assert resolve_generator("mt-19937") is resolve_generator("mt19937")
        assert "mt-19937" not in generator_names()
        assert resolve_test("gap") is resolve_test("gap_test")
        assert "gap" not in catalog_test_names()

    def test_unknown_names_list_the_catalog(self):
        with pytest.raises(ConfigurationError) as exc:
            resolve_generator("xorshift")
        assert "mt19937" in str(exc.value)
        with pytest.raises(ConfigurationError) as exc:
            resolve_test("entropy")
        assert "gap_test" in str(exc.value)

    def test_duplicate_registration_rejected(self, pristine_registries):
        register_generator("custom_gen", Minstd)
        with pytest.raises(ConfigurationError, match="already registered"):
            register_generator("custom_gen", Minstd)
        with pytest.raises(ConfigurationError, match="already registered"):
            register_generator("other", Minstd, aliases=("custom_gen",))
        register_test("custom_test", ChisqrUniformityTest)
        with pytest.raises(ConfigurationError, match="already registered"):
            register_test("custom_test", ChisqrUniformityTest)

    def test_custom_registration_resolves(self, pristine_registries):
        register_generator("custom_gen", Minstd, aliases=("cg",))
        assert resolve_generator("cg") is Minstd
        assert "custom_gen" in generator_names()


class TestRunMatrixValidation:
    def _matrix(self, **kw):
        base = dict(
            generators=(("mt19937", Mt19937, 0),),
            seeds=(1,),
            levels=(0.05,),
            tests=(ChisqrUniformityTest(n=2000, k=64),),
        )
        base.update(kw)
        return RunMatrix(**base)

    def test_valid(self):
        self._matrix()

    @pytest.mark.parametrize("field, value", [
        ("generators", ()),
        ("seeds", ()),
        ("levels", ()),
        ("tests", ()),
    ])
    def test_empty_axes_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            self._matrix(**{field: value})

    def test_duplicate_generator_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            self._matrix(generators=(("g", Mt19937, 0), ("g", Minstd, 0)))

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            self._matrix(generators=(("g", Mt19937, -1),))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            self._matrix(seeds=(3, -1))

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.2, 1.7])
    def test_levels_outside_unit_interval_rejected(self, level):
        with pytest.raises(ConfigurationError, match="level"):
            self._matrix(levels=(level,))

    @pytest.mark.parametrize("entry", [
        lambda: ChisqrUniformityTest(n=2000, k=64),
        ChisqrUniformityTest,
        None,
    ], ids=["lambda", "class", "none"])
    def test_tests_must_be_instances(self, entry):
        good = ChisqrUniformityTest(n=2000, k=64)
        with pytest.raises(ConfigurationError,
                           match=r"tests\[1\] is not a TestCase instance"):
            self._matrix(tests=(good, entry))

    def test_bad_test_configuration_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="below 5"):
            ChisqrUniformityTest(n=10, k=256)


class _Faulty(BatteryCase):
    test_name = "Faulty-Test"

    def parameters(self):
        return []

    def run(self, stream):
        raise RuntimeError("kernel fell over")


def _small_matrix():
    return RunMatrix(
        generators=(("mt19937", Mt19937, 0), ("minstd", Minstd, 16)),
        seeds=(1, 331),
        levels=(0.05, 0.95),
        tests=(
            ChisqrUniformityTest(n=4000, k=64),
            GapTest(alpha=0.0, beta=0.5, t=8, n_gaps=500),
        ),
    )


class TestRunSuite:
    def test_document_shape_follows_matrix_order(self):
        doc = run_suite(_small_matrix(), date="2025-06-01")
        assert [g.name for g in doc.generators] == ["mt19937", "minstd"]
        assert [g.warmup for g in doc.generators] == ["0", "16"]
        for g in doc.generators:
            assert [s.seed for s in g.seeds] == ["1", "331"]
            for s in g.seeds:
                assert [t.name for t in s.tests] == [
                    "Chi-Square-Uniformity-Test", "Gap-Test"]

    def test_job_count_does_not_change_the_bytes(self):
        serial = io.BytesIO()
        threaded = io.BytesIO()
        write_xml(run_suite(_small_matrix(), jobs=1, date="2025-06-01"),
                  serial)
        write_xml(run_suite(_small_matrix(), jobs=8, date="2025-06-01"),
                  threaded)
        assert serial.getvalue() == threaded.getvalue()

    def test_warmup_discards_before_the_test(self):
        matrix = RunMatrix(
            generators=(("mt19937", Mt19937, 64),),
            seeds=(9,),
            levels=(0.05,),
            tests=(ChisqrUniformityTest(n=2000, k=64),),
        )
        doc = run_suite(matrix, date="2025-06-01")
        stream = Mt19937(9)
        stream.next_block(64)
        direct = ChisqrUniformityTest(n=2000, k=64).execute(stream, [0.05])
        got = dict(doc.generators[0].seeds[0].tests[0].analyses[0].attributes)
        assert got["chi2"] == "%.6g" % direct.results[0].statistic_value

    def test_progress_reports_every_cell(self):
        calls = []
        run_suite(_small_matrix(),
                  progress=lambda name, seed, out: calls.append(
                      (name, seed, out.test_name)),
                  date="2025-06-01")
        assert len(calls) == 8
        assert calls[0] == (
            "mt19937", 1, "Chi-Square-Uniformity-Test")
        assert calls[-1] == ("minstd", 331, "Gap-Test")

    def test_cell_failure_is_contained(self, tmp_path):
        def broken():
            raise ConfigurationError("backing store vanished")

        matrix = RunMatrix(
            generators=(("broken", broken, 0), ("mt19937", Mt19937, 0)),
            seeds=(1,),
            levels=(0.05,),
            tests=(ChisqrUniformityTest(n=2000, k=64),),
        )
        doc = run_suite(matrix, date="2025-06-01")
        aborted = doc.generators[0].seeds[0].tests[0]
        healthy = doc.generators[1].seeds[0].tests[0]
        assert aborted.aborted == "backing store vanished"
        assert aborted.analyses == ()
        assert healthy.aborted is None and healthy.analyses

    def test_unexpected_error_in_run_aborts_only_its_cell(
            self, tmp_path, pristine_registries, caplog):
        register_test("faulty_test", _Faulty)
        tests = (ChisqrUniformityTest(n=2000, k=64), _Faulty(),
                 GapTest(alpha=0.0, beta=0.5, t=8, n_gaps=500))
        matrix = RunMatrix(generators=(("mt19937", Mt19937, 0),),
                           seeds=(1,), levels=(0.05, 0.95), tests=tests)
        doc = run_suite(matrix, date="2025-06-01")
        before, faulty, after = doc.generators[0].seeds[0].tests
        assert faulty.name == "Faulty-Test"
        assert faulty.aborted == "RuntimeError: kernel fell over"
        assert faulty.analyses == ()
        # the neighbours read as in a run without the faulty cell
        clean = run_suite(RunMatrix(generators=matrix.generators,
                                    seeds=(1,), levels=(0.05, 0.95),
                                    tests=(tests[0], tests[2])),
                          date="2025-06-01")
        assert clean.generators[0].seeds[0].tests == (before, after)
        assert before.analyses and after.analyses
        # the traceback goes to the log, not into the report
        [record] = caplog.records
        assert record.exc_info[0] is RuntimeError

        # through the CLI: the report is written and the exit code
        # follows its verdicts
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "generators": [{"name": "mt19937"}],
            "seeds": [1],
            "levels": [0.05, 0.95],
            "tests": [
                {"name": "chisqr_uniformity",
                 "parameters": {"n": 2000, "k": 64}},
                {"name": "faulty_test"},
                {"name": "gap", "parameters": {
                    "alpha": 0.0, "beta": 0.5, "t": 8, "n_gaps": 500}},
            ],
        }))
        out = tmp_path / "report.xml"
        code = main(["run", "--config", str(config), "--out", str(out),
                     "--date", "2025-06-01"])
        written = parse_xml(str(out))
        assert written.generators[0].seeds[0].tests[1].aborted == (
            "RuntimeError: kernel fell over")
        assert code == (1 if document_has_failures(written) else 0)

    def test_long_coupon_tail_completes_after_earlier_cells(self):
        # the t=3000 tail law needs Stirling numbers S(2999, 8)
        matrix = RunMatrix(
            generators=(("minstd", Minstd, 0),),
            seeds=(1,),
            levels=(0.05,),
            tests=(ChisqrUniformityTest(n=2000, k=64),
                   CouponCollectorTest(t=3000)),
        )
        doc = run_suite(matrix, date="2025-06-01")
        first, coupon = doc.generators[0].seeds[0].tests
        assert first.aborted is None and first.analyses
        assert coupon.name == "Coupon-Collector-Test"
        assert coupon.aborted is None and coupon.analyses

    def test_short_file_generator_aborts_cell(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(struct.pack("<50I", *range(50)))
        matrix = RunMatrix(
            generators=(("short", lambda: runner.file_stream(str(path)), 0),),
            seeds=(1,),
            levels=(0.05,),
            tests=(ChisqrUniformityTest(n=2000, k=64),),
        )
        doc = run_suite(matrix, date="2025-06-01")
        section = doc.generators[0].seeds[0].tests[0]
        assert section.aborted and "exhausted" in section.aborted

    def test_one_instance_serves_every_cell_of_its_column(self):
        matrix = RunMatrix(
            generators=(("mt19937", Mt19937, 0), ("minstd", Minstd, 0)),
            seeds=(1, 2),
            levels=(0.05, 0.95),
            tests=(CrapsTest(games=2000), GcdTest(pairs=5000)),
        )
        expected = []
        for _, factory, _ in matrix.generators:
            for seed in matrix.seeds:
                for fresh in (CrapsTest(games=2000), GcdTest(pairs=5000)):
                    outcome = fresh.execute(factory(seed), matrix.levels)
                    expected.append(section_of(outcome, matrix.levels))
        # each cell's diagnostics are its own
        assert all(cell.diagnostics for cell in expected)
        assert len({cell.diagnostics for cell in expected[0::2]}) == 4
        for jobs in (1, 2):
            doc = run_suite(matrix, jobs=jobs, date="2025-06-01")
            assert _cells(doc) == expected

    def test_a_cell_that_aborts_carries_no_earlier_diagnostics(self,
                                                               tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(struct.pack("<50I", *range(50)))
        matrix = RunMatrix(
            generators=(("mt19937", Mt19937, 0),
                        ("short", lambda: runner.file_stream(str(path)), 0)),
            seeds=(1,),
            levels=(0.05,),
            tests=(CrapsTest(games=2000),),
        )
        done, aborted = _cells(run_suite(matrix, date="2025-06-01"))
        assert dict(done.diagnostics)["Games Won"]
        assert "exhausted" in aborted.aborted
        assert aborted.diagnostics == ()

    def test_jobs_floor(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            run_suite(_small_matrix(), jobs=0)

    def test_default_date_is_today_iso(self):
        matrix = RunMatrix(
            generators=(("mt19937", Mt19937, 0),),
            seeds=(1,),
            levels=(0.05,),
            tests=(ChisqrUniformityTest(n=2000, k=64),),
        )
        doc = run_suite(matrix)
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}", doc.date)


class _Exiting(BatteryCase):
    """Kills the worker process that runs it, once `go` exists."""

    test_name = "Exiting-Test"
    go = None
    _pytest_pid = os.getpid()

    def parameters(self):
        return []

    def run(self, stream):
        if os.getpid() == self._pytest_pid:
            raise RuntimeError("would end the test session")
        deadline = time.monotonic() + 60
        while (self.go and not os.path.exists(self.go)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        os._exit(3)


class _Unsendable(BatteryCase):
    """Finishes, with an outcome that cannot be pickled back."""

    test_name = "Unsendable-Test"

    def parameters(self):
        return []

    def run(self, stream):
        self.diagnostics = (("hook", lambda: None),)
        return []


class _InlinePool:
    """Stands in for the worker pool: records its size and runs each
    submitted cell in this process."""

    sizes: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _xml(doc) -> bytes:
    buf = io.BytesIO()
    write_xml(doc, buf)
    return buf.getvalue()


class TestWorkerProcesses:
    """--jobs above 1 runs cells in forked worker processes."""

    def test_job_count_does_not_change_the_bytes(self, tmp_path,
                                                  pristine_registries):
        words = tmp_path / "words.bin"
        words.write_bytes(Mt19937(5).next_block(50000).astype("<u4")
                          .tobytes())

        class LocalGap(GapTest):
            test_name = "Local-Gap-Test"

        register_test("local_gap", LocalGap)
        matrix = RunMatrix(
            generators=(
                ("mt19937", Mt19937, 0),
                ("tape", lambda: runner.file_stream(str(words)), 7),
            ),
            seeds=(1, 331),
            levels=(0.05, 0.95),
            tests=(
                ChisqrUniformityTest(n=4000, k=64),
                resolve_test("local_gap")(alpha=0.0, beta=0.5, t=8,
                                          n_gaps=500),
                _Faulty(),
            ),
        )
        runs = {jobs: run_suite(matrix, jobs=jobs, date="2025-06-01")
                for jobs in (1, 2, 3)}
        faulty = runs[1].generators[1].seeds[1].tests[2]
        assert faulty.aborted == "RuntimeError: kernel fell over"
        local = runs[1].generators[0].seeds[0].tests[1]
        assert local.name == "Local-Gap-Test" and local.analyses
        assert _xml(runs[2]) == _xml(runs[1])
        assert _xml(runs[3]) == _xml(runs[1])

    def test_progress_follows_matrix_order(self):
        calls = []
        run_suite(_small_matrix(), jobs=2,
                  progress=lambda name, seed, out: calls.append(
                      (name, seed, out.test_name)),
                  date="2025-06-01")
        assert calls == [(name, seed, test)
                         for name in ("mt19937", "minstd")
                         for seed in (1, 331)
                         for test in ("Chi-Square-Uniformity-Test",
                                      "Gap-Test")]

    def test_dead_worker_aborts_its_cell_and_the_run_ends(
            self, tmp_path, monkeypatch):
        # the worker exits only after the parent has read every earlier
        # cell, so those cells must keep their results
        go = tmp_path / "go"
        monkeypatch.setattr(_Exiting, "go", str(go))
        tests = (ChisqrUniformityTest(n=2000, k=64),
                 GapTest(alpha=0.0, beta=0.5, t=8, n_gaps=500),
                 _Exiting())
        matrix = RunMatrix(generators=(("mt19937", Mt19937, 0),),
                           seeds=(1,), levels=(0.05,), tests=tests)

        def progress(name, seed, outcome):
            if outcome.test_name == "Gap-Test":
                go.touch()

        doc = run_suite(matrix, progress=progress, jobs=2,
                        date="2025-06-01")
        chisqr, gap, dead = doc.generators[0].seeds[0].tests
        assert dead.name == "Exiting-Test"
        assert dead.aborted.startswith("BrokenProcessPool: ")
        assert dead.analyses == ()
        clean = run_suite(RunMatrix(generators=matrix.generators, seeds=(1,),
                                    levels=(0.05,), tests=tests[:2]),
                          date="2025-06-01")
        assert clean.generators[0].seeds[0].tests == (chisqr, gap)

    def test_dead_worker_through_the_cli(self, tmp_path, pristine_registries):
        register_test("exiting_test", _Exiting)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "generators": [{"name": "mt19937"}], "seeds": [1, 2],
            "levels": [0.05], "tests": [{"name": "exiting_test"}]}))
        out = tmp_path / "report.xml"
        code = main(["run", "--config", str(config), "--out", str(out),
                     "--jobs", "2", "--date", "2025-06-01"])
        assert code == 0
        cells = [t for s in parse_xml(str(out)).generators[0].seeds
                 for t in s.tests]
        assert len(cells) == 2
        assert all(t.aborted.startswith("BrokenProcessPool: ")
                   for t in cells)

    def test_outcome_that_cannot_travel_back_aborts_its_cell(self):
        matrix = RunMatrix(generators=(("mt19937", Mt19937, 0),),
                           seeds=(1,), levels=(0.05,),
                           tests=(_Unsendable(),
                                  GapTest(alpha=0.0, beta=0.5, t=8,
                                          n_gaps=500)))
        doc = run_suite(matrix, jobs=2, date="2025-06-01")
        unsent, gap = doc.generators[0].seeds[0].tests
        assert unsent.name == "Unsendable-Test" and unsent.aborted
        assert gap.aborted is None and gap.analyses

    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(_InlinePool, "sizes", sizes)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _InlinePool)
        monkeypatch.setattr(runner, "_worker_cells", [])
        matrix = RunMatrix(generators=(("mt19937", Mt19937, 0),),
                           seeds=(1, 2), levels=(0.05,),
                           tests=(ChisqrUniformityTest(n=2000, k=64),))
        doc = run_suite(matrix, jobs=64, date="2025-06-01")
        assert sizes == [2]
        assert _xml(doc) == _xml(run_suite(matrix, date="2025-06-01"))

    def test_pool_broken_while_submitting_aborts_the_rest(self,
                                                          monkeypatch):
        class BreaksAfterOne(_InlinePool):
            accepted = 0

            def submit(self, fn, *args):
                if self.accepted:
                    raise BrokenProcessPool("a worker died")
                self.accepted += 1
                return super().submit(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            BreaksAfterOne)
        monkeypatch.setattr(runner, "_worker_cells", [])
        doc = run_suite(_small_matrix(), jobs=2, date="2025-06-01")
        cells = [t for g in doc.generators for s in g.seeds for t in s.tests]
        assert cells[0].aborted is None and cells[0].analyses
        assert [t.aborted for t in cells[1:]] == (
            ["BrokenProcessPool: a worker died"] * 7)

    def test_no_fork_means_jobs_one_only(self, tmp_path, monkeypatch):
        import multiprocessing

        def get_context(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        with pytest.raises(ConfigurationError, match="fork"):
            run_suite(_small_matrix(), jobs=2)
        run_suite(_small_matrix(), jobs=1)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "generators": [{"name": "mt19937"}], "seeds": [1],
            "levels": [0.05], "tests": [
                {"name": "gap", "parameters": {
                    "alpha": 0.0, "beta": 0.5, "t": 8, "n_gaps": 500}}]}))
        assert main(["run", "--config", str(config), "--jobs", "2",
                     "--out", str(tmp_path / "r.xml")]) == 2


def _shuffled_minstd():
    return ShuffledStream(Minstd(), 32)


# tests that read the stream in different ways: fixed blocks, scans that
# push words back, and a repeated inner test
_ROW_TESTS = (
    ChisqrUniformityTest(n=3000, k=64),
    GapTest(n_gaps=300),
    CouponCollectorTest(n_segments=200),
    RunsTest(n_runs=400),
    SqueezeTest(games=300),
    RepetitionTest(bits=12, reps=50),
    SerialCorrelationTest(n=2500),
    IterateTestCase(KsUniformityTest(n=200), repetitions=10),
)


def _fresh_outcomes(matrix):
    """Each cell run on its own freshly built, seeded and warmed stream."""
    outcomes = []
    for _, factory, warmup in matrix.generators:
        for seed in matrix.seeds:
            for case in matrix.tests:
                stream = factory()
                stream.seed(seed)
                stream.warmup(warmup)
                outcomes.append(case.execute(stream, matrix.levels))
    return outcomes


def _cells(doc):
    return [test for rng in doc.generators for seed in rng.seeds
            for test in seed.tests]


class TestTapeRows:
    """A seedable generator's row reads one tape of its outputs."""

    def _matrix(self, tests=_ROW_TESTS):
        return RunMatrix(
            generators=(("shuffled_minstd", _shuffled_minstd, 601),
                        ("lagged_fibonacci_1279", LaggedFibonacci1279, 0),
                        ("mt19937", Mt19937, 4001)),
            seeds=(1, 97),
            levels=(0.05, 0.95),
            tests=tests,
        )

    def test_rows_past_the_cap_read_what_fresh_streams_read(
            self, monkeypatch):
        # most cells read past a 1000-word tape onto a copy of the source
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        matrix = self._matrix()
        doc = run_suite(matrix, date="2025-06-01")
        expected = [section_of(outcome, matrix.levels)
                    for outcome in _fresh_outcomes(matrix)]
        assert _cells(doc) == expected
        assert all(cell.aborted is None for cell in expected)

    def test_rows_at_the_full_cap_read_what_fresh_streams_read(self):
        matrix = RunMatrix(
            generators=(("mt19937", Mt19937, 5),),
            seeds=(3,),
            levels=(0.05,),
            tests=(ChisqrUniformityTest(n=100000, k=64),
                   ChisqrUniformityTest(n=300000, k=64),
                   ChisqrUniformityTest(n=200000, k=64)),
        )
        doc = run_suite(matrix, date="2025-06-01")
        expected = [section_of(outcome, matrix.levels)
                    for outcome in _fresh_outcomes(matrix)]
        assert _cells(doc) == expected

    def test_one_build_per_row_and_run(self):
        builds = []

        def factory():
            builds.append(1)
            return Mt19937()

        matrix = RunMatrix(generators=(("mt", factory, 10),), seeds=(1, 2),
                           levels=(0.05,), tests=_ROW_TESTS[:3])
        first = run_suite(matrix, date="2025-06-01")
        assert len(builds) == 2
        # a new run records its rows again, the last row's too
        again = RunMatrix(generators=matrix.generators, seeds=(2,),
                          levels=(0.05,), tests=_ROW_TESTS[:3])
        last_row = run_suite(again, date="2025-06-01").generators[0].seeds
        assert last_row == first.generators[0].seeds[1:]
        assert len(builds) == 3

    def test_a_seed_that_fails_aborts_every_cell_of_its_row(self):
        builds = []

        class Picky(Mt19937):
            def seed(self, s):
                if s == 3:
                    raise ConfigurationError("seed 3 is not accepted")
                super().seed(s)

        def factory():
            builds.append(1)
            return Picky()

        matrix = RunMatrix(generators=(("picky", factory, 0),),
                           seeds=(1, 3, 4), levels=(0.05,),
                           tests=_ROW_TESTS[:3])
        doc = run_suite(matrix, date="2025-06-01")
        one, three, four = doc.generators[0].seeds
        assert [t.aborted for t in three.tests] == [
            "seed 3 is not accepted"] * 3
        assert all(t.aborted is None for t in one.tests + four.tests)
        # the failing seed was tried once per cell; nothing was recorded
        assert len(builds) == 1 + 3 + 1

    def test_file_sources_are_opened_and_closed_per_cell(self, tmp_path):
        words = tmp_path / "words.bin"
        words.write_bytes(Mt19937(5).next_block(50000).astype("<u4")
                          .tobytes())
        opened = []

        def factory():
            stream = runner.file_stream(str(words))
            opened.append(stream)
            return stream

        matrix = RunMatrix(generators=(("file", factory, 7),),
                           seeds=(1, 2), levels=(0.05,),
                           tests=_ROW_TESTS[:3])
        doc = run_suite(matrix, date="2025-06-01")
        assert len(opened) == 6
        assert all(stream._fh.closed for stream in opened)
        first, second = doc.generators[0].seeds
        assert first.tests == second.tests
        assert all(t.aborted is None for t in first.tests)

    def test_iterate_over_a_replay(self):
        iterate = _ROW_TESTS[-1]
        matrix = RunMatrix(generators=(("mt19937", Mt19937, 3),), seeds=(8,),
                           levels=(0.05,), tests=(iterate, iterate))
        doc = run_suite(matrix, date="2025-06-01")
        stream = Mt19937(8)
        stream.warmup(3)
        direct = section_of(
            iterate.execute(stream, (0.05,)), (0.05,))
        assert _cells(doc) == [direct, direct]
        assert dict(direct.diagnostics)["Successful Repetitions"] == "10"

    def test_sources_that_cannot_be_copied_are_built_again_and_closed(
            self, monkeypatch, tmp_path):
        # most cells read past a 1000-word tape onto a stream built again
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        log = tmp_path / "log"

        class Locked(Mt19937):
            def __init__(self):
                super().__init__()
                self._lock = threading.Lock()
                with open(log, "a") as fh:
                    fh.write("built\n")

            def close(self):
                with open(log, "a") as fh:
                    fh.write("closed\n")

        with pytest.raises(TypeError):
            copy.deepcopy(Locked())
        matrix = RunMatrix(generators=(("locked", Locked, 3),), seeds=(1, 2),
                           levels=(0.05, 0.95), tests=_ROW_TESTS)
        expected = [section_of(outcome, matrix.levels)
                    for outcome in _fresh_outcomes(matrix)]
        for jobs in (1, 2):
            log.write_text("")
            doc = run_suite(matrix, jobs=jobs, date="2025-06-01")
            assert _cells(doc) == expected
            # every stream built, the workers' included, is closed
            lines = log.read_text().split()
            assert lines.count("built") == lines.count("closed") > 2

    def test_a_source_that_ends_serves_every_cell_that_fits(self):
        class Short(SeedableStream):
            """The first 5000 outputs of mt19937 for each seed."""

            name = "short"
            max_value = 2**32 - 1

            def __init__(self):
                super().__init__()
                self._inner = Mt19937()
                self._left = 0

            def seed(self, s):
                self._inner.seed(s)
                self._reset_buffer()
                self._left = 5000

            def _generate(self, n):
                n = min(n, self._left)
                self._left -= n
                return self._inner.next_block(n)

        # the tape grows to 3000, then asks for 6000 and records 5000
        matrix = RunMatrix(
            generators=(("short", Short, 0),), seeds=(1,), levels=(0.05,),
            tests=(ChisqrUniformityTest(n=3000, k=64),
                   ChisqrUniformityTest(n=4000, k=64),
                   GapTest(n_gaps=300),
                   ChisqrUniformityTest(n=6000, k=64)))
        doc = run_suite(matrix, date="2025-06-01")
        expected = [section_of(outcome, matrix.levels)
                    for outcome in _fresh_outcomes(matrix)]
        assert _cells(doc) == expected
        assert [cell.aborted for cell in expected] == [None] * 3 + [
            "short: stream exhausted, 5000 of 6000 outputs available"]

    def test_job_count_does_not_change_the_bytes(self, monkeypatch):
        monkeypatch.setattr(genkit_base, "TAPE_WORDS", 1000)
        matrix = self._matrix(tests=_ROW_TESTS[:5])
        runs = [_xml(run_suite(matrix, jobs=jobs, date="2025-06-01"))
                for jobs in (1, 2, 3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestDocumentHasFailures:
    def _doc(self, verdicts):
        from rngts.report import (AnalysisSection, ReportDocument,
                                  RngSection, SeedSection, TestSection)
        return ReportDocument(date="2025-06-01", generators=(
            RngSection(name="g", warmup="0", seeds=(
                SeedSection(seed="1", tests=(
                    TestSection(name="t", analyses=(
                        AnalysisSection(element="GAUSSIAN",
                                        attributes=(("value", "0"),),
                                        verdicts=verdicts),
                    )),
                )),
            )),
        ))

    def test_all_passed(self):
        doc = self._doc((("PASSED", "0.05"), ("PASSED", "0.95")))
        assert not document_has_failures(doc)

    def test_one_failed(self):
        doc = self._doc((("PASSED", "0.05"), ("FAILED", "0.95")))
        assert document_has_failures(doc)

    def test_no_verdicts_at_all(self):
        assert not document_has_failures(self._doc(()))


class TestLoadManifest:
    def _write(self, tmp_path, data):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        return str(path)

    def _base(self):
        return {
            "generators": [{"name": "mt-19937"},
                           {"name": "minstd", "warmup": 100}],
            "seeds": [331, 42],
            "levels": [0.05, 0.95],
            "tests": [
                {"name": "chisqr_uniformity",
                 "parameters": {"n": 2000, "k": 64}},
                {"name": "gap_test"},
            ],
        }

    def test_happy_path(self, tmp_path):
        data = self._base()
        data.update(output="out.xml", html="out.html", jobs=4)
        manifest = load_manifest(self._write(tmp_path, data))
        assert isinstance(manifest, RunManifest)
        matrix = manifest.matrix
        assert [g[0] for g in matrix.generators] == ["mt-19937", "minstd"]
        assert [g[2] for g in matrix.generators] == [0, 100]
        assert matrix.seeds == (331, 42)
        assert matrix.levels == (0.05, 0.95)
        case = matrix.tests[0]
        assert isinstance(case, ChisqrUniformityTest)
        assert (case.n, case.k) == (2000, 64)
        assert isinstance(matrix.tests[1], GapTest)
        assert manifest.output == "out.xml"
        assert manifest.html == "out.html"
        assert manifest.jobs == 4

    def test_each_test_is_built_once(self, tmp_path, pristine_registries):
        builds = []

        class CountedGap(GapTest):
            def __init__(self, **kwargs):
                builds.append(kwargs)
                super().__init__(**kwargs)

        register_test("counted_gap", CountedGap)
        data = self._base()
        data["tests"] = [{"name": "counted_gap",
                          "parameters": {"n_gaps": 300}},
                         {"name": "counted_gap"}]
        matrix = load_manifest(self._write(tmp_path, data)).matrix
        assert builds == [{"n_gaps": 300}, {}]
        doc = run_suite(matrix, date="2025-06-01")
        assert len(_cells(doc)) == 8
        assert len(builds) == 2

    def test_a_factory_that_builds_no_test_exits_2(self, tmp_path,
                                                   pristine_registries):
        register_test("not_a_test", lambda: object())
        data = self._base()
        data["tests"] = [{"name": "not_a_test"}]
        path = self._write(tmp_path, data)
        with pytest.raises(ConfigurationError, match="not a TestCase"):
            load_manifest(path)
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "r.xml")]) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="manifest"):
            load_manifest(str(tmp_path / "absent.json"))

    def test_malformed_json_mentions_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigurationError, match="bad.json"):
            load_manifest(str(path))

    def test_root_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="object"):
            load_manifest(str(path))

    @pytest.mark.parametrize("key", ["generators", "seeds", "levels",
                                     "tests"])
    def test_required_arrays(self, tmp_path, key):
        data = self._base()
        del data[key]
        with pytest.raises(ConfigurationError, match=key):
            load_manifest(self._write(tmp_path, data))
        data = self._base()
        data[key] = []
        with pytest.raises(ConfigurationError, match=key):
            load_manifest(self._write(tmp_path, data))

    def test_bad_seed(self, tmp_path):
        data = self._base()
        data["seeds"] = ["ten"]
        with pytest.raises(ConfigurationError, match="seed"):
            load_manifest(self._write(tmp_path, data))
        data["seeds"] = [-4]
        with pytest.raises(ConfigurationError, match="seed"):
            load_manifest(self._write(tmp_path, data))
        data["seeds"] = [True]
        with pytest.raises(ConfigurationError, match="seed"):
            load_manifest(self._write(tmp_path, data))

    def test_bad_level(self, tmp_path):
        data = self._base()
        data["levels"] = [1.5]
        with pytest.raises(ConfigurationError, match="level"):
            load_manifest(self._write(tmp_path, data))

    def test_bad_jobs_and_output_types(self, tmp_path):
        data = self._base()
        data["jobs"] = 0
        with pytest.raises(ConfigurationError, match="jobs"):
            load_manifest(self._write(tmp_path, data))
        data["jobs"] = True
        with pytest.raises(ConfigurationError, match="jobs"):
            load_manifest(self._write(tmp_path, data))
        data = self._base()
        data["output"] = 7
        with pytest.raises(ConfigurationError, match="output"):
            load_manifest(self._write(tmp_path, data))

    def test_unknown_test_name(self, tmp_path):
        data = self._base()
        data["tests"] = [{"name": "entropy_test"}]
        with pytest.raises(ConfigurationError, match="unknown test"):
            load_manifest(self._write(tmp_path, data))

    def test_unknown_test_parameter(self, tmp_path):
        data = self._base()
        data["tests"] = [{"name": "gap_test",
                          "parameters": {"gamma": 3}}]
        with pytest.raises(ConfigurationError, match="gap_test"):
            load_manifest(self._write(tmp_path, data))

    def test_parameters_must_be_object(self, tmp_path):
        data = self._base()
        data["tests"] = [{"name": "gap_test", "parameters": [1, 2]}]
        with pytest.raises(ConfigurationError, match="parameters"):
            load_manifest(self._write(tmp_path, data))

    def test_generator_entry_shape(self, tmp_path):
        data = self._base()
        data["generators"] = ["mt19937"]
        with pytest.raises(ConfigurationError, match="name"):
            load_manifest(self._write(tmp_path, data))
        data["generators"] = [{"name": "mt19937", "warmup": -1}]
        with pytest.raises(ConfigurationError, match="warmup"):
            load_manifest(self._write(tmp_path, data))
        data["generators"] = [{"name": "mt19937", "warmup": False}]
        with pytest.raises(ConfigurationError, match="warmup"):
            load_manifest(self._write(tmp_path, data))

    def test_file_generator(self, tmp_path):
        words = tmp_path / "words.bin"
        words.write_bytes(struct.pack("<4I", 1, 2, 3, 4))
        data = self._base()
        data["generators"] = [{"name": "file", "path": str(words)}]
        manifest = load_manifest(self._write(tmp_path, data))
        label, factory, warmup = manifest.matrix.generators[0]
        assert label == f"file:{words}"
        stream = factory()
        assert list(stream.next_block(4)) == [1, 2, 3, 4]
        stream.close()

    def test_file_generator_custom_label_and_missing_path(self, tmp_path):
        words = tmp_path / "w.bin"
        words.write_bytes(struct.pack("<1I", 9))
        data = self._base()
        data["generators"] = [
            {"name": "file", "path": str(words), "label": "tape-a"}]
        manifest = load_manifest(self._write(tmp_path, data))
        assert manifest.matrix.generators[0][0] == "tape-a"
        data["generators"] = [{"name": "file"}]
        with pytest.raises(ConfigurationError, match="path"):
            load_manifest(self._write(tmp_path, data))

    def test_external_generator(self, tmp_path):
        data = self._base()
        data["generators"] = [
            {"name": "external", "command": ["python3", "-c", "pass"]}]
        manifest = load_manifest(self._write(tmp_path, data))
        assert manifest.matrix.generators[0][0] == "external:python3"
        data["generators"] = [{"name": "external", "command": "python3"}]
        with pytest.raises(ConfigurationError, match="command"):
            load_manifest(self._write(tmp_path, data))
        data["generators"] = [{"name": "external", "command": []}]
        with pytest.raises(ConfigurationError, match="command"):
            load_manifest(self._write(tmp_path, data))

    def test_loaded_manifest_runs(self, tmp_path):
        manifest = load_manifest(self._write(tmp_path, self._base()))
        doc = run_suite(manifest.matrix, date="2025-06-01")
        assert len(doc.generators) == 2
        assert not any(
            t.aborted for g in doc.generators for s in g.seeds
            for t in s.tests
        )
