"""Suite orchestration: registries, the run matrix, and execution.

A run is a full cross product: generators (outer), then seeds, then
tests.  Every cell reads its generator's outputs from the start of the
seed's stream after the warmup, so cells are independent and may execute
concurrently in forked worker processes, at most one per cell; the
report is assembled in matrix order regardless of completion order.
A test is a `TestCase` instance, built once by `load_manifest` or by the
caller; every cell of its column runs that instance.

A seedable generator is built, seeded and warmed up once per process and
row (factory, seed, warmup).  Its outputs go on a `Tape`, and each cell
of the row reads a replay of the tape, so a row generates about as many
outputs as its hungriest cell rather than the sum over its cells.  The
`SeedableStream` contract (the outputs are a deterministic function of
the seed) makes a replay read exactly what a freshly seeded stream
would; a cell that reads past the tape continues on a stream built,
seeded and warmed up again.  File and external sources are opened,
warmed up and closed per cell.
"""

from __future__ import annotations

import datetime
import json
import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .battery import CATALOG
from .battery.base import TestCase, TestOutcome, is_integer, is_real
from .errors import ConfigurationError, StreamExhausted, TestAborted
from .genkit.adapters import external_stream, file_stream
from .genkit.base import (RandomStream, SeedableStream, Tape,
                          close_stream)
from .genkit.engines import (
    Ecuyer1988,
    LaggedFibonacci1279,
    Minstd,
    Mt19937,
    Randu,
    ShuffledStream,
)
from .report import (
    ReportDocument,
    RngSection,
    SeedSection,
    test_section_from_outcome,
)

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# registries


class _Catalog:
    """Factories by name and alias; `canon` lists the names without the
    aliases, in registration order."""

    def __init__(self, kind: str):
        self.kind = kind
        self.table: dict = {}
        self.canon: list = []

    def register(self, name: str, factory: Callable,
                 aliases: Sequence[str] = ()) -> None:
        """Add a factory to the catalog; duplicate names are errors."""
        keys = (name, *aliases)
        for key in keys:
            if key in self.table:
                raise ConfigurationError(
                    f"{self.kind} {key!r} already registered"
                )
        self.table.update(dict.fromkeys(keys, factory))
        self.canon.append(name)

    def names(self) -> list:
        return sorted(self.canon)

    def resolve(self, name: str) -> Callable:
        try:
            return self.table[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: "
                + ", ".join(self.names())
            ) from None


_GENERATORS = _Catalog("generator")
_TESTS = _Catalog("test")
register_generator = _GENERATORS.register
register_test = _TESTS.register
generator_names = _GENERATORS.names
test_names = _TESTS.names
resolve_generator = _GENERATORS.resolve
resolve_test = _TESTS.resolve


def _register_builtins() -> None:
    register_generator("minstd", Minstd)
    register_generator("randu", Randu)
    register_generator("ecuyer1988", Ecuyer1988)
    register_generator("mt19937", Mt19937, aliases=("mt-19937",))
    register_generator("lagged_fibonacci_1279", LaggedFibonacci1279,
                       aliases=("lagged-fibonacci-1279",))
    register_generator("shuffled_minstd",
                       lambda: ShuffledStream(Minstd(), 32))

    for alias, cls in CATALOG:
        register_test(f"{alias}_test", cls, aliases=(alias,))


_register_builtins()


# ---------------------------------------------------------------------------
# run matrix


@dataclass(frozen=True)
class RunMatrix:
    """Cross product to execute: generators outer, then seeds, then tests.

    generators hold (name, zero-argument stream factory, warmup count);
    tests hold TestCase instances, each run by every cell of its column
    (the `diagnostics` of an instance are those of its last `run`).
    """

    generators: tuple
    seeds: tuple
    levels: tuple
    tests: tuple

    def __post_init__(self):
        if not self.generators or not self.seeds or not self.tests:
            raise ConfigurationError(
                "run matrix needs at least one generator, seed, and test"
            )
        if not self.levels:
            raise ConfigurationError("run matrix needs at least one level")
        names = [name for name, _, _ in self.generators]
        if len(set(names)) != len(names):
            raise ConfigurationError("generator names must be unique")
        for name, _, warmup in self.generators:
            if not is_integer(warmup) or warmup < 0:
                raise ConfigurationError(
                    f"generator {name!r}: warmup must be a non-negative "
                    f"integer, got {warmup!r}"
                )
        for index, case in enumerate(self.tests):
            if not isinstance(case, TestCase):
                raise ConfigurationError(
                    f"tests[{index}] is not a TestCase instance: {case!r}"
                )
        for seed in self.seeds:
            if not is_integer(seed) or seed < 0:
                raise ConfigurationError(
                    f"seeds must be non-negative integers, got {seed!r}"
                )
        for level in self.levels:
            if not is_real(level) or not (0.0 < level < 1.0):
                raise ConfigurationError(
                    f"confidence level {level!r} outside (0, 1)"
                )


@dataclass(frozen=True)
class RunManifest:
    """A RunMatrix plus output options read from a manifest file."""

    matrix: RunMatrix
    output: Optional[str] = None
    html: Optional[str] = None
    jobs: Optional[int] = None


# The row (factory, seed, warmup) whose outputs this process has on
# tape, and the tape.  A row that fails to build, seed or warm up is not
# recorded, so each of its cells fails alike.
_tape: tuple = ((), None)


def _set_tape(row: tuple, tape: Optional[Tape]) -> None:
    """Keep `tape` for `row`, closing the source of the tape it replaces."""
    global _tape
    old = _tape[1]
    _tape = (row, tape)
    if old is not None:
        old.close()


def _started(factory: Callable[[], RandomStream], seed: int,
             warmup: int) -> RandomStream:
    """A new stream of the generator, seeded and warmed up."""
    stream = factory()
    try:
        if isinstance(stream, SeedableStream):
            stream.seed(seed)
        if warmup:
            stream.warmup(warmup)
    except BaseException:
        close_stream(stream)
        raise
    return stream


def _run_cell(factory: Callable[[], RandomStream], warmup: int, seed: int,
              case: TestCase, levels: Sequence[float]) -> TestOutcome:
    """The cell's outcome, with its wall time and the net raw words the
    test drew from its stream (0 when the cell failed outside `execute`)."""
    begun = time.perf_counter()
    stream = None
    words = 0
    try:
        row = (factory, seed, warmup)
        taped_row, tape = _tape
        if row == taped_row:
            stream = tape.replay()
        else:
            stream = _started(factory, seed, warmup)
            if isinstance(stream, SeedableStream):
                tape = Tape(stream, lambda: _started(factory, seed, warmup))
                stream = tape.replay()
                _set_tape(row, tape)
        served = stream.served
        outcome = case.execute(stream, levels)
        words = stream.served - served
    except (ConfigurationError, StreamExhausted, TestAborted) as exc:
        # execute() already contains aborts raised inside run(); this
        # catches stream construction, seeding, and warmup failures
        outcome = case.aborted(str(exc))
    except Exception as exc:
        # any other fault ends this cell only; the traceback goes to the log
        _log.exception("cell %s aborted", case.test_name)
        outcome = case.aborted(f"{type(exc).__name__}: {exc}")
    finally:
        close_stream(stream)
    return replace(outcome, wall_s=time.perf_counter() - begun, words=words)


# The cells and levels of the run a forked worker serves.  They are set
# by the pool's initializer, whose arguments fork hands over without
# pickling, so cells may hold lambdas, closures, instances of locally
# defined tests, and file or external generators.
_worker_cells: list = []
_worker_levels: tuple = ()


def _init_worker(cells: list, levels: tuple) -> None:
    global _worker_cells, _worker_levels
    _worker_cells, _worker_levels = cells, levels
    # the worker's last tape is dropped, and its source closed, on exit
    from multiprocessing import util
    util.Finalize(None, _set_tape, args=((), None), exitpriority=0)


def _run_cell_at(index: int) -> TestOutcome:
    (_, factory, warmup), seed, case = _worker_cells[index]
    # looked up at call time, so a wrapper installed on the module runs
    return _run_cell(factory, warmup, seed, case, _worker_levels)


def _run_in_workers(cells: list, levels: tuple, jobs: int,
                    progress: Optional[Callable]) -> list:
    """Every cell's outcome, in matrix order, from forked workers.

    A cell whose future raises (its worker died, or its outcome could
    not be pickled) aborts; the cells already finished keep theirs.
    """
    # imported here: these modules add about 18 ms to the start-up of
    # every run, and --jobs 1 never uses them
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        raise ConfigurationError(
            "jobs above 1 need the 'fork' start method, which this "
            "platform lacks"
        ) from None
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells)),
                             mp_context=context, initializer=_init_worker,
                             initargs=(cells, levels)) as pool:
        futures = []
        for index in range(len(cells)):
            try:
                futures.append(pool.submit(_run_cell_at, index))
            except BrokenProcessPool as exc:
                # a worker died while cells were still being submitted
                futures.append(Future())
                futures[-1].set_exception(exc)
        outcomes = []
        for ((name, _, _), seed, case), future in zip(cells, futures):
            try:
                outcome = future.result()
            except Exception as exc:
                outcome = case.aborted(f"{type(exc).__name__}: {exc}")
            if progress is not None:
                progress(name, seed, outcome)
            outcomes.append(outcome)
    return outcomes


def run_suite(matrix: RunMatrix, progress: Optional[Callable] = None,
              jobs: int = 1, date: Optional[str] = None) -> ReportDocument:
    """Execute the matrix and assemble the result document.

    With `jobs` above 1, cells run in forked worker processes, at most
    one per cell, and `progress` is called in matrix order as results
    are read; output order and content are independent of the job
    count.  Each process keeps the tape of the row it last ran until
    the run, or the worker, ends.  Aborted cells (exhausted or
    misconfigured streams, any other exception in a cell, or a worker
    that died) appear in the report and never halt the run.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1")
    cells = [
        (gen, seed, case)
        for gen in matrix.generators
        for seed in matrix.seeds
        for case in matrix.tests
    ]

    def execute(cell):
        (name, factory, warmup), seed, case = cell
        outcome = _run_cell(factory, warmup, seed, case, matrix.levels)
        if progress is not None:
            progress(name, seed, outcome)
        return outcome

    try:
        if jobs == 1:
            outcomes = [execute(cell) for cell in cells]
        else:
            outcomes = _run_in_workers(cells, matrix.levels, jobs, progress)
    finally:
        _set_tape((), None)

    sections = []
    index = 0
    for name, _, warmup in matrix.generators:
        seed_sections = []
        for seed in matrix.seeds:
            tests = []
            for _ in matrix.tests:
                tests.append(test_section_from_outcome(outcomes[index],
                                                       matrix.levels))
                index += 1
            seed_sections.append(SeedSection(seed=str(seed),
                                             tests=tuple(tests)))
        sections.append(RngSection(name=name, warmup=str(warmup),
                                   seeds=tuple(seed_sections)))
    if date is None:
        date = datetime.date.today().isoformat()
    return ReportDocument(date=date, generators=tuple(sections))


def document_has_failures(doc: ReportDocument) -> bool:
    return any(
        kind == "FAILED"
        for rng in doc.generators
        for seed in rng.seeds
        for test in seed.tests
        for analysis in test.analyses
        for kind, _ in analysis.verdicts
    )


# ---------------------------------------------------------------------------
# manifest loading


def _label(entry: dict, default: str) -> str:
    label = entry.get("label", default)
    if not isinstance(label, str):
        raise ConfigurationError(f"generator label {label!r} is not a string")
    return label


def _generator_entry(entry) -> tuple:
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ConfigurationError(
            "each generator entry must be an object with a 'name' string"
        )
    name = entry["name"]
    warmup = entry.get("warmup", 0)
    if name == "file":
        path = entry.get("path")
        if not isinstance(path, str):
            raise ConfigurationError("file generator needs a 'path' string")
        label = _label(entry, f"file:{path}")
        return label, (lambda: file_stream(path)), warmup
    if name == "external":
        command = entry.get("command")
        if (not isinstance(command, list) or not command
                or not all(isinstance(c, str) for c in command)):
            raise ConfigurationError(
                "external generator needs a 'command' list of strings"
            )
        label = _label(entry, f"external:{command[0]}")
        return label, (lambda: external_stream(command)), warmup
    factory = resolve_generator(name)
    return name, factory, warmup


def _test_entry(entry) -> TestCase:
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ConfigurationError(
            "each test entry must be an object with a 'name' string"
        )
    name = entry["name"]
    params = entry.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"test {name!r}: 'parameters' must be an object"
        )
    cls = resolve_test(name)
    try:
        return cls(**params)
    except (ConfigurationError, TypeError) as exc:
        # TypeError: a registered test with its own constructor
        raise ConfigurationError(f"test {name!r}: {exc}") from None


def load_manifest(path) -> RunManifest:
    """Read a JSON run description and resolve it against the registries."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"manifest {path}: {exc}") from None
    except OSError as exc:
        raise ConfigurationError(f"manifest {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("manifest root must be a JSON object")
    for key in ("generators", "seeds", "levels", "tests"):
        if key not in data or not isinstance(data[key], list) or not data[key]:
            raise ConfigurationError(
                f"manifest needs a non-empty {key!r} array"
            )
    generators = tuple(_generator_entry(e) for e in data["generators"])
    tests = tuple(_test_entry(e) for e in data["tests"])
    jobs = data.get("jobs")
    if jobs is not None and (not is_integer(jobs) or jobs < 1):
        raise ConfigurationError("'jobs' must be a positive integer")
    output = data.get("output")
    html = data.get("html")
    for key, value in (("output", output), ("html", html)):
        if value is not None and not isinstance(value, str):
            raise ConfigurationError(f"{key!r} must be a string path")
    matrix = RunMatrix(
        generators=generators,
        seeds=tuple(data["seeds"]),
        levels=tuple(data["levels"]),
        tests=tests,
    )
    return RunManifest(matrix=matrix, output=output, html=html, jobs=jobs)
