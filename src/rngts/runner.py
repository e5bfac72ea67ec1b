"""Suite orchestration: registries, the run matrix, and execution.

A run is a full cross product: generators (outer), then seeds, then
tests.  A row is one generator and seed; every cell of it reads the
generator's outputs from the start of the seed's stream after the
warmup, so cells are independent.  A task is a whole row when there
are at least as many rows as jobs, else a contiguous run of a row's
cells, one per job; tasks may run concurrently in forked worker
processes, at most one per task, which send each cell as it ends, and
the report is assembled in matrix order regardless of completion order.
A test is a `TestCase` instance, built once by `load_manifest` or by the
caller; every cell of its column runs that instance.

Every generator, built-in, file or external, is built, seeded (if it
is a `SeedableStream`) and warmed up once per task.  Its outputs go on
the task's `Tape`, and each cell reads a replay of the tape, so a row
generates about as many outputs as its hungriest cell rather than the
sum over its cells; the tape's source is closed when the task ends.  A
cell that reads past the tape continues on a stream built, seeded and
warmed up again.  A replay reads exactly what a fresh stream would when
every build yields the same outputs, as the `SeedableStream` contract
promises; a source whose words differ between builds gives every cell
of a row the same first words.
"""

from __future__ import annotations

import datetime
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

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
            # every outcome, an aborted one too, lists the parameters
            try:
                case.parameters()
            except Exception as exc:
                raise ConfigurationError(
                    f"tests[{index}] ({case.test_name}): parameters() "
                    f"raised {type(exc).__name__}: {exc}"
                ) from None
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


def _run_cell(open_stream: Callable[[], RandomStream], case: TestCase,
              levels: Sequence[float]) -> TestOutcome:
    """The cell's outcome on the stream `open_stream()` returns, with its
    wall time and the net raw words the test drew from that stream (0
    when the cell failed outside `execute`)."""
    begun = time.perf_counter()
    stream = None
    words = 0
    try:
        stream = open_stream()
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


def _run_row(generator: tuple, seed: int, tests: Sequence[TestCase],
             levels: Sequence[float]) -> Iterator[TestOutcome]:
    """Yield the outcome of each test on the row's stream, in order.

    Every cell reads a replay of the row's tape, which builds, seeds and
    warms up the generator on its first replay and closes it when the
    row ends.  A build that fails records nothing, so each cell of the
    row tries again and fails alike.
    """
    _, factory, warmup = generator
    tape = Tape(lambda: _started(factory, seed, warmup))
    try:
        for case in tests:
            # looked up at call time, so a wrapper installed on the
            # module runs
            yield _run_cell(tape.replay, case, levels)
    finally:
        tape.close()


# A worker's message: task index, cell index and payload length, then
# the pickled outcome, or the reason the cell aborted.  A task index
# travels to the workers as one _INDEX.
_HEADER = "<IIQ"
_INDEX = "<I"


def _serve(tasks: list, indexes: int, results: int) -> None:
    """A forked worker's loop: run each task whose index it reads from
    the `indexes` pipe, and write each cell to `results` as it ends.

    Every write to `indexes` is a whole number of indexes of at most
    PIPE_BUF bytes, so each read takes one whole index.  An outcome that
    cannot be pickled is sent as the reason its cell aborts."""
    import pickle
    import struct

    while True:
        head = os.read(indexes, struct.calcsize(_INDEX))
        if not head:
            return
        (index,) = struct.unpack(_INDEX, head)
        for cell, outcome in enumerate(_run_row(*tasks[index])):
            try:
                payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                payload = pickle.dumps(f"{type(exc).__name__}: {exc}")
            message = memoryview(struct.pack(_HEADER, index, cell,
                                             len(payload)) + payload)
            while message:
                message = message[os.write(results, message):]


def _forked_cells(tasks: list, workers: int, codes: list) -> Iterator[tuple]:
    """Run `tasks` in `workers` forked processes and yield (task index,
    cell index, outcome or abort reason) for each cell as it arrives;
    `codes` gets the exit code of each worker as it ends.

    Fork hands each worker the tasks without pickling, so tasks may hold
    lambdas, closures, instances of locally defined tests, and file or
    external generators.  The workers take task indexes from one pipe,
    fed as it drains, and each writes its cells to a pipe of its own.
    """
    import pickle
    import select
    import selectors
    import signal
    import struct

    if not hasattr(os, "fork"):
        raise ConfigurationError(
            "jobs above 1 need fork(), which this platform lacks"
        )
    # set-up every worker would repeat, done once before forking:
    # Mt19937 reaches numpy.random lazily, about 14 ms a process
    import numpy.random  # noqa: F401

    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            # else a worker's first write would repeat what is buffered
            stream.flush()
    pending = memoryview(b"".join(struct.pack(_INDEX, index)
                                  for index in range(len(tasks))))
    header = struct.calcsize(_HEADER)
    take, give = os.pipe()
    children = {}  # a worker's results pipe -> its pid
    selector = None
    try:
        for _ in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                code = 1
                try:
                    for fd in (give, read_end, *children):
                        os.close(fd)
                    _serve(tasks, take, write_end)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children[read_end] = pid
        os.close(take)
        take = -1
        os.set_blocking(give, False)
        selector = selectors.DefaultSelector()
        selector.register(give, selectors.EVENT_WRITE)
        for fd in children:
            selector.register(fd, selectors.EVENT_READ, bytearray())
        while children:
            for key, _ in selector.select():
                if key.fd == give:
                    try:
                        sent = os.write(give, pending[:select.PIPE_BUF])
                    except BrokenPipeError:
                        # every worker has ended
                        sent = len(pending)
                    pending = pending[sent:]
                    if not pending:
                        selector.unregister(give)
                        os.close(give)
                        give = -1
                    continue
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    selector.unregister(key.fd)
                    os.close(key.fd)
                    _, status = os.waitpid(children.pop(key.fd), 0)
                    codes.append(os.waitstatus_to_exitcode(status))
                    continue
                buffer = key.data
                buffer += chunk
                while len(buffer) >= header:
                    index, cell, size = struct.unpack_from(_HEADER, buffer)
                    end = header + size
                    if len(buffer) < end:
                        break
                    try:
                        outcome = pickle.loads(buffer[header:end])
                    except Exception as exc:
                        outcome = f"{type(exc).__name__}: {exc}"
                    del buffer[:end]
                    yield index, cell, outcome
    finally:
        if selector is not None:
            selector.close()
        for fd in (take, give):
            if fd >= 0:
                os.close(fd)
        for fd, pid in children.items():
            # the run stopped early: its workers' cells are not wanted
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cell_outcomes(tasks: list, jobs: int) -> Iterator[tuple]:
    """Yield each cell's task and outcome, in matrix order.

    With `jobs` above 1 the tasks run in forked workers, which send each
    cell as it ends: a cell is yielded once it and every earlier cell
    have arrived.  Once the workers have ended, each cell that never
    arrived (its worker died) aborts, and the others keep their results.
    """
    if jobs == 1:
        for task in tasks:
            for outcome in _run_row(*task):
                yield task, outcome
        return

    def received(key, outcome) -> tuple:
        task = tasks[key[0]]
        if isinstance(outcome, str):
            outcome = task[2][key[1]].aborted(outcome)
        return task, outcome

    order = [(index, cell) for index, task in enumerate(tasks)
             for cell in range(len(task[2]))]
    arrived = {}
    at = 0
    codes = []
    for index, cell, outcome in _forked_cells(tasks, min(jobs, len(tasks)),
                                              codes):
        arrived[index, cell] = outcome
        while at < len(order) and order[at] in arrived:
            yield received(order[at], arrived.pop(order[at]))
            at += 1
    failed = ", ".join(str(code) for code in sorted(set(codes)) if code)
    reason = ("a worker process ended before the cell was sent"
              + (f" (exit code {failed})" if failed else ""))
    for key in order[at:]:
        yield received(key, arrived.pop(key, reason))


def run_suite(matrix: RunMatrix, progress: Optional[Callable] = None,
              jobs: int = 1, date: Optional[str] = None) -> ReportDocument:
    """Execute the matrix and assemble the result document.

    A task is a row (generator, seed) when there are at least as many
    rows as jobs; else each row is cut into `jobs` tasks of contiguous
    cells (or one per cell, if it has fewer), so that every worker has
    work and records the row's tape once.  With `jobs` above 1, tasks
    run in forked worker processes, at most one per task, and
    `progress` is called in matrix order as the cells arrive; output
    order and content are independent of the job count.  Aborted cells
    (exhausted or misconfigured streams, any other exception in a cell,
    or a worker that died before sending them) appear in the report and
    never halt the run.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1")
    rows = [(gen, seed) for gen in matrix.generators for seed in matrix.seeds]
    tests = matrix.tests
    parts = 1 if len(rows) >= jobs else min(jobs, len(tests))
    cuts = [len(tests) * part // parts for part in range(parts + 1)]
    tasks = [(gen, seed, tests[start:stop], matrix.levels)
             for gen, seed in rows for start, stop in zip(cuts, cuts[1:])]
    outcomes = []
    for ((name, _, _), seed, _, _), outcome in _cell_outcomes(tasks, jobs):
        if progress is not None:
            progress(name, seed, outcome)
        outcomes.append(outcome)

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


_ROOT_KEYS = ("generators", "seeds", "levels", "tests")
_GENERATOR_KEYS = ("name", "warmup")
_SOURCE_KEYS = {"file": ("name", "path", "label", "warmup"),
                "external": ("name", "command", "label", "warmup")}
_TEST_KEYS = ("name", "parameters")


def _check_keys(entry: dict, accepted: Sequence[str], what: str) -> None:
    """Reject a key the object does not take, so a misspelling is not
    silently ignored."""
    for key in entry:
        if key not in accepted:
            raise ConfigurationError(
                f"{what}: unknown key {key!r}; accepted keys: "
                + ", ".join(accepted)
            )


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
    _check_keys(entry, _SOURCE_KEYS.get(name, _GENERATOR_KEYS),
                f"generator {name!r}")
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
    _check_keys(entry, _TEST_KEYS, f"test {name!r}")
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


def load_manifest(path) -> RunMatrix:
    """Read a JSON run description and resolve it against the registries.

    The manifest says what a run tests; how it runs and where its
    reports go are options of the command line."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"manifest {path}: {exc}") from None
    except OSError as exc:
        raise ConfigurationError(f"manifest {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("manifest root must be a JSON object")
    _check_keys(data, _ROOT_KEYS, "manifest")
    for key in _ROOT_KEYS:
        if key not in data or not isinstance(data[key], list) or not data[key]:
            raise ConfigurationError(
                f"manifest needs a non-empty {key!r} array"
            )
    generators = tuple(_generator_entry(e) for e in data["generators"])
    tests = tuple(_test_entry(e) for e in data["tests"])
    return RunMatrix(
        generators=generators,
        seeds=tuple(data["seeds"]),
        levels=tuple(data["levels"]),
        tests=tests,
    )
