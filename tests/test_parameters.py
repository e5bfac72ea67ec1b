"""Test arguments: the report's parameter lists and what a manifest may set.

The pins hold each registered test's report parameters (labels, values,
types and order) at its defaults, and the `<PARAMETER>` bytes of one
non-default manifest entry per test.  The fuzz cases set one argument
at a time to a value of the wrong type or far out of range; each must
exit 2 at load, naming the test and the argument.  The property test
draws argument sets from each test's table and runs every accepted set
on a short file source.
"""

import contextlib
import io
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rngts
from rngts import runner
from rngts.cli import main
from rngts.errors import ConfigurationError
from rngts.genkit.adapters import file_stream
from rngts.report import write_xml
from rngts.runner import load_manifest, resolve_test, run_suite
from rngts.runner import test_names as catalog_test_names

DEFAULTS = {
    "binary_rank_test": [
        ("Rows", 32, int), ("Columns", 32, int),
        ("Number of Matrices", 4000, int)],
    "birthday_spacings_test": [
        ("Number of Days", 16777216, int), ("Number of Birthdays", 512, int),
        ("Repetitions", 200, int)],
    "chisqr_uniformity_test": [
        ("Number of Numbers", 100000, int), ("Number of Classes", 256, int)],
    "collision_test": [
        ("Number of Urns", 1048576, int), ("Number of Balls", 16384, int)],
    "coupon_collector_test": [
        ("Alphabet Size", 8, int), ("Maximum Segment Length", 30, int),
        ("Number of Segments", 5000, int)],
    "craps_test": [("Number of Games", 200000, int)],
    "gap_test": [
        ("Alpha", 0.0, float), ("Beta", 0.5, float),
        ("Maximum Gap Length", 16, int), ("Number of Gaps", 10000, int)],
    "gcd_test": [("Number of Pairs", 100000, int)],
    "ks_uniformity_test": [("Number of Numbers", 100000, int)],
    "maurers_universal_test": [
        ("Block Bits", 8, int), ("Initialization Blocks", 2560, int),
        ("Test Blocks", 256000, int)],
    "max_of_t_test": [
        ("Group Size", 8, int), ("Number of Groups", 10000, int)],
    "minimum_distance_test": [
        ("Number of Points", 8000, int), ("Side Length", 10000.0, float),
        ("Repetitions", 100, int)],
    "monkey_20bit_test": [],
    "parking_lot_test": [
        ("Attempts", 12000, int), ("Side Length", 100.0, float)],
    "permutation_test": [
        ("Group Size", 5, int), ("Number of Groups", 12000, int)],
    "poker_test": [
        ("Alphabet Size", 16, int), ("Number of Hands", 10000, int)],
    "random_walk_test": [
        ("Number of Walkers", 10000, int), ("Number of Steps", 101, int)],
    "repetition_test": [
        ("Field Width", 20, int), ("Repetitions", 500, int)],
    "runs_test": [("Number of Runs", 10000, int)],
    "serial_correlation_test": [("Number of Numbers", 100000, int)],
    "serial_test": [
        ("Alphabet Size", 64, int), ("Number of Pairs", 25000, int)],
    "squeeze_test": [("Number of Games", 100000, int)],
}

# one non-default manifest entry per test, in registry order; the float
# rows of gap, parking lot and minimum distance are given as integers
NON_DEFAULT = {
    "chisqr_uniformity_test": {"n": 3000, "k": 32},
    "ks_uniformity_test": {"n": 777},
    "gap_test": {"alpha": 0, "beta": 0.25, "t": 9, "n_gaps": 321},
    "serial_test": {"d": 5, "n_pairs": 200},
    "poker_test": {"d": 7, "n_hands": 99},
    "coupon_collector_test": {"d": 4, "t": 17, "n_segments": 55},
    "permutation_test": {"t": 4, "n_groups": 240},
    "runs_test": {"n_runs": 123},
    "max_of_t_test": {"t": 3, "n_groups": 444},
    "collision_test": {"m": 4096, "n": 100},
    "serial_correlation_test": {"n": 50},
    "birthday_spacings_test": {"m": 65536, "n": 64, "reps": 20},
    "binary_rank_test": {"rows": 6, "cols": 9, "n_matrices": 70},
    "parking_lot_test": {"attempts": 1000, "side": 100},
    "minimum_distance_test": {"points": 300, "side": 2500, "reps": 12},
    "squeeze_test": {"games": 250},
    "craps_test": {"games": 300},
    "random_walk_test": {"walkers": 200, "steps": 21},
    "repetition_test": {"bits": 12, "reps": 50},
    "gcd_test": {"pairs": 1000},
    "maurers_universal_test": {"L": 4, "Q": 160, "K": 2000},
    "monkey_20bit_test": {},
}

NON_DEFAULT_XML = [
    ("Chi-Square-Uniformity-Test",
     '<PARAMETER name="Number of Numbers" value="3000"/>',
     '<PARAMETER name="Number of Classes" value="32"/>'),
    ("KS-Uniformity-Test",
     '<PARAMETER name="Number of Numbers" value="777"/>'),
    ("Gap-Test",
     '<PARAMETER name="Alpha" value="0"/>',
     '<PARAMETER name="Beta" value="0.25"/>',
     '<PARAMETER name="Maximum Gap Length" value="9"/>',
     '<PARAMETER name="Number of Gaps" value="321"/>'),
    ("Serial-Test",
     '<PARAMETER name="Alphabet Size" value="5"/>',
     '<PARAMETER name="Number of Pairs" value="200"/>'),
    ("Poker-Test",
     '<PARAMETER name="Alphabet Size" value="7"/>',
     '<PARAMETER name="Number of Hands" value="99"/>'),
    ("Coupon-Collector-Test",
     '<PARAMETER name="Alphabet Size" value="4"/>',
     '<PARAMETER name="Maximum Segment Length" value="17"/>',
     '<PARAMETER name="Number of Segments" value="55"/>'),
    ("Permutation-Test",
     '<PARAMETER name="Group Size" value="4"/>',
     '<PARAMETER name="Number of Groups" value="240"/>'),
    ("Run-Test",
     '<PARAMETER name="Number of Runs" value="123"/>'),
    ("Maximum-of-t-Test",
     '<PARAMETER name="Group Size" value="3"/>',
     '<PARAMETER name="Number of Groups" value="444"/>'),
    ("Collision-Test",
     '<PARAMETER name="Number of Urns" value="4096"/>',
     '<PARAMETER name="Number of Balls" value="100"/>'),
    ("Serial-Correlation-Test",
     '<PARAMETER name="Number of Numbers" value="50"/>'),
    ("Birthday-Spacings-Test",
     '<PARAMETER name="Number of Days" value="65536"/>',
     '<PARAMETER name="Number of Birthdays" value="64"/>',
     '<PARAMETER name="Repetitions" value="20"/>'),
    ("Binary-Rank-Test",
     '<PARAMETER name="Rows" value="6"/>',
     '<PARAMETER name="Columns" value="9"/>',
     '<PARAMETER name="Number of Matrices" value="70"/>'),
    ("Parking-Lot-Test",
     '<PARAMETER name="Attempts" value="1000"/>',
     '<PARAMETER name="Side Length" value="100"/>'),
    ("Minimum-Distance-Test",
     '<PARAMETER name="Number of Points" value="300"/>',
     '<PARAMETER name="Side Length" value="2500"/>',
     '<PARAMETER name="Repetitions" value="12"/>'),
    ("Squeeze-Test",
     '<PARAMETER name="Number of Games" value="250"/>'),
    ("Craps-Test",
     '<PARAMETER name="Number of Games" value="300"/>'),
    ("Random-Walk-Test",
     '<PARAMETER name="Number of Walkers" value="200"/>',
     '<PARAMETER name="Number of Steps" value="21"/>'),
    ("Repetition-Test",
     '<PARAMETER name="Field Width" value="12"/>',
     '<PARAMETER name="Repetitions" value="50"/>'),
    ("GCD-Test",
     '<PARAMETER name="Number of Pairs" value="1000"/>'),
    ("Maurers-Universal-Test",
     '<PARAMETER name="Block Bits" value="4"/>',
     '<PARAMETER name="Initialization Blocks" value="160"/>',
     '<PARAMETER name="Test Blocks" value="2000"/>'),
    ("Monkey-20bit-Test",),
]

# every constructor argument a manifest may set, with its type
ARGUMENTS = {
    "chisqr_uniformity_test": {"n": int, "k": int},
    "ks_uniformity_test": {"n": int},
    "gap_test": {"alpha": float, "beta": float, "t": int, "n_gaps": int},
    "serial_test": {"d": int, "n_pairs": int},
    "poker_test": {"d": int, "n_hands": int},
    "coupon_collector_test": {"d": int, "t": int, "n_segments": int},
    "permutation_test": {"t": int, "n_groups": int},
    "runs_test": {"n_runs": int},
    "max_of_t_test": {"t": int, "n_groups": int},
    "collision_test": {"m": int, "n": int},
    "serial_correlation_test": {"n": int},
    "birthday_spacings_test": {"m": int, "n": int, "reps": int},
    "binary_rank_test": {"rows": int, "cols": int, "n_matrices": int},
    "parking_lot_test": {"attempts": int, "side": float},
    "minimum_distance_test": {"points": int, "side": float, "reps": int},
    "squeeze_test": {"games": int},
    "craps_test": {"games": int},
    "random_walk_test": {"walkers": int, "steps": int},
    "repetition_test": {"bits": int, "reps": int},
    "gcd_test": {"pairs": int},
    "maurers_universal_test": {"L": int, "Q": int, "K": int},
    "monkey_20bit_test": {},
}


def _write_manifest(tmp_path, tests, path="words.bin"):
    data = {
        "generators": [{"name": "file", "path": path, "label": "f"}],
        "seeds": [1],
        "levels": [0.05],
        "tests": tests,
    }
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps(data))
    return str(manifest)


class TestReportParameters:
    def test_every_registered_test_is_pinned(self):
        assert sorted(DEFAULTS) == catalog_test_names()
        assert sorted(NON_DEFAULT) == catalog_test_names()
        assert sorted(ARGUMENTS) == catalog_test_names()

    @pytest.mark.parametrize("name", sorted(DEFAULTS))
    def test_defaults(self, name):
        got = [(label, value, type(value))
               for label, value in resolve_test(name)().parameters()]
        assert got == DEFAULTS[name]

    def test_non_default_parameter_bytes(self, tmp_path):
        words = tmp_path / "words.bin"
        words.write_bytes(struct.pack("<4I", 1, 2, 3, 4))
        tests = [{"name": n, "parameters": p} for n, p in NON_DEFAULT.items()]
        matrix = load_manifest(_write_manifest(tmp_path, tests, str(words)))
        buf = io.BytesIO()
        write_xml(run_suite(matrix, date="2000-01-01"), buf)
        text = buf.getvalue().decode()
        blocks = re.findall(
            r'<TEST name="([^"]*)">\n\s*(?:<PARAMETERS/>|<PARAMETERS>\n'
            r'((?:\s*<PARAMETER [^\n]*\n)*)\s*</PARAMETERS>)', text)
        got = [(test, *(line.strip() for line in lines.splitlines()))
               for test, lines in blocks]
        assert got == NON_DEFAULT_XML


def test_no_cell_imports_numpy_ma():
    # np.unique's first call imports numpy.ma, about 15 ms; one cell of
    # every catalog test, in a fresh interpreter, must not pay for it
    script = (
        "import sys\n"
        "from rngts.genkit.engines import Mt19937\n"
        "from rngts.runner import resolve_test\n"
        f"for name, kwargs in {NON_DEFAULT!r}.items():\n"
        "    case = resolve_test(name)(**kwargs)\n"
        "    assert case.execute(Mt19937(1), [0.05]).aborted is None, name\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rngts.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


_FUZZ = [
    (name, arg, value)
    for name, args in ARGUMENTS.items()
    for arg, kind in args.items()
    for value in (["1.5"] if kind is int else []) + [
        "true", "NaN", "1e30", "-1"]
]


class TestManifestFuzz:
    @pytest.mark.parametrize("name, arg, value", _FUZZ,
                             ids=[f"{n}-{a}-{v}" for n, a, v in _FUZZ])
    def test_bad_value_exits_2_at_load(self, tmp_path, capfd, name, arg,
                                       value):
        # NaN is not JSON; Python's reader accepts the bare token
        manifest = Path(_write_manifest(tmp_path, [
            {"name": name, "parameters": {arg: 0}}]))
        manifest.write_text(manifest.read_text().replace(
            f'"{arg}": 0', f'"{arg}": {value}'))
        assert main(["run", "--config", str(manifest)]) == 2
        err = capfd.readouterr().err
        assert name in err and re.search(rf"\b{arg}\b", err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, arg", [
        ("gap_test", "n_gaps"), ("coupon_collector_test", "n_segments"),
        ("craps_test", "games"), ("gcd_test", "pairs"),
        ("poker_test", "n_hands"), ("birthday_spacings_test", "reps"),
        ("permutation_test", "t"),
    ])
    def test_huge_integer_count_exits_2(self, tmp_path, capfd, name, arg):
        manifest = _write_manifest(tmp_path, [
            {"name": name, "parameters": {arg: 10**30}}])
        assert main(["run", "--config", manifest]) == 2
        err = capfd.readouterr().err
        assert name in err and re.search(rf"\b{arg}\b", err)
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# every accepted argument set runs, or aborts cleanly


_WORDS = 4096


@contextlib.contextmanager
def _memory_cap(extra=2 * 2**30):
    """Turn an allocation of more than `extra` bytes beyond what the
    process already maps into a MemoryError, so a runaway cell fails the
    test instead of exhausting the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * resource.getpagesize()
    cap = mapped + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture(scope="module")
def words_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("words") / "words.bin"
    rng = np.random.default_rng(20)
    rng.integers(0, 2**32, _WORDS, dtype=np.uint64).astype("<u4").tofile(path)
    return str(path)


def _value(row):
    if isinstance(row.default, float):
        return st.floats(row.low, row.high, exclude_min=row.low_open,
                         allow_nan=False)
    small = st.integers(row.low, min(row.high, row.low + 64))
    return small | st.integers(row.low, row.high)


@pytest.mark.parametrize("name", sorted(ARGUMENTS))
def test_table_matches_arguments(name):
    cls = resolve_test(name)
    assert {row.name: type(row.default) for row in cls.PARAMS} == \
        ARGUMENTS[name]
    assert [row.label for row in cls.PARAMS] == \
        [label for label, _, _ in DEFAULTS[name]]


@pytest.mark.parametrize("name", sorted(ARGUMENTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_accepted_arguments_run_or_abort(words_file, name, data):
    cls = resolve_test(name)
    kwargs = {row.name: data.draw(_value(row), label=row.name)
              for row in cls.PARAMS}
    try:
        case = cls(**kwargs)
    except ConfigurationError:
        return
    generic = mock.patch.object(
        runner._log, "exception",
        side_effect=AssertionError("cell ended in the generic branch"))
    with generic, _memory_cap():
        outcome = runner._run_cell(lambda: file_stream(words_file), case,
                                   (0.05,))
    if outcome.aborted is None:
        assert outcome.results
        for result in outcome.results:
            assert all(not math.isnan(p) for p in result.p_values.values())
    else:
        assert outcome.results == ()
