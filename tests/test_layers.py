"""Import layering: the numerics sit below the catalog, the catalog
below reporting and orchestration.

`rngts.stats` imports only `rngts.errors` from the package, and no
module of the catalog (`rngts.battery`) or of the second-order tests
(`rngts.meta`) imports the report writer, the runner or the command
line, not even inside a function.  Nor does the catalog import the
stream adapters or define a stream of its own: it reads words only
through `RandomStream.next_block`, `scan`, the distributions and the
bit reads, and leaves a stream's range to them.  The runner gives
every source one path to its cells, and asks whether a stream is
seedable only to seed it.  No module reads the process environment: a
run's options come from the command line alone.
"""

import ast
from pathlib import Path

import pytest

import rngts
from rngts import genkit
from rngts.genkit import adapters

PACKAGE = Path(rngts.__file__).parent
ABOVE_THE_CATALOG = {"rngts.report", "rngts.runner", "rngts.cli"}
CATALOG = sorted(PACKAGE.glob("battery/*.py")) + [PACKAGE / "meta.py"]
# the adapters module and every name the genkit package takes from it
ADAPTERS = {"rngts.genkit.adapters"} | {
    f"rngts.genkit.{name}" for name, obj in vars(genkit).items()
    if getattr(obj, "__module__", None) == adapters.__name__}
STREAM_CLASSES = {name for name, obj in vars(genkit).items()
                  if isinstance(obj, type)
                  and issubclass(obj, genkit.RandomStream)}


def _imported(source: str, package: list) -> set:
    """Every module that an import statement anywhere in the source names,
    as an absolute dotted name; `from M import n` names both M and M.n.
    `package` holds the parts of the package the source belongs to."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = node.module
            if node.level:
                base = package[:len(package) - (node.level - 1)]
                target = ".".join(base + ([node.module] if node.module else []))
            names.add(target)
            names.update(f"{target}.{alias.name}" for alias in node.names)
    return names


def _module_imports(path: Path) -> set:
    package = ["rngts", *path.relative_to(PACKAGE).parent.parts]
    return _imported(path.read_text(), package)


def test_stats_imports_only_errors():
    assert {n for n in _module_imports(PACKAGE / "stats.py")
            if n.split(".")[0] == "rngts"} == {
        "rngts.errors", "rngts.errors.ConfigurationError"}


def _base_names(source: str) -> set:
    """The last part of the name of every base class in the source."""
    return {base.attr if isinstance(base, ast.Attribute) else base.id
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for base in node.bases
            if isinstance(base, (ast.Attribute, ast.Name))}


@pytest.mark.parametrize("path", CATALOG,
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_catalog_imports_nothing_above_it(path):
    assert not _module_imports(path) & ABOVE_THE_CATALOG


@pytest.mark.parametrize("path", CATALOG,
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_catalog_reads_words_only_through_blocks(path):
    assert not _module_imports(path) & ADAPTERS
    assert not _base_names(path.read_text()) & STREAM_CLASSES


# the attributes that give a stream's range of outputs; its bit width,
# which the bit reads of a test's fields take, is not among them
RANGE_READS = {"min_value", "max_value", "range_size"}


def _range_reads(source: str) -> list:
    """(enclosing function, source line) for each use of an attribute
    named in RANGE_READS."""
    lines = source.splitlines()
    return [(scope, lines[node.lineno - 1].strip())
            for scope, node in _scoped_nodes(source)
            if isinstance(node, ast.Attribute) and node.attr in RANGE_READS]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("battery/*.py")),
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_battery_leaves_the_stream_range_to_the_distributions(path):
    # dice, digits and uniforms come from the distributions, so one
    # rule maps a stream's range to each
    assert _range_reads(path.read_text()) == []


def _int_draws_uses(source: str, package: list) -> set:
    """Each import naming `int_draws`, as a dotted name, and the
    enclosing function of each use of it as a name or an attribute."""
    imports = {name for name in _imported(source, package)
               if name.rsplit(".", 1)[-1] == "int_draws"}
    uses = {scope for scope, node in _scoped_nodes(source)
            if (isinstance(node, ast.Name) and node.id == "int_draws")
            or (isinstance(node, ast.Attribute) and node.attr == "int_draws")}
    return imports | uses


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("battery/*.py")),
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_battery_steps_see_draws_not_raw_words(path):
    # dice and digits reach a step through scan_draws, the one place
    # that maps the draws a step used back to raw words
    package = ["rngts", *path.relative_to(PACKAGE).parent.parts]
    assert _int_draws_uses(path.read_text(), package) == set()


def test_int_draws_uses_are_found():
    source = ("from ..genkit.distributions import int_draws\n"
              "from ..genkit import distributions\n"
              "def step(raw):\n"
              "    return distributions.int_draws(None, raw, 0, 5)\n"
              "def other(raw):\n"
              "    return int_draws(None, raw, 0, 5)\n")
    assert _int_draws_uses(source, ["rngts", "battery"]) == {
        "rngts.genkit.distributions.int_draws", "step", "other"}


def test_range_reads_are_found_with_their_function():
    source = ("lo = s.min_value\n"
              "def f(stream):\n"
              "    width = stream.bit_width\n"
              "    return stream.range_size - stream.max_value\n")
    assert _range_reads(source) == [
        ("", "lo = s.min_value"),
        ("f", "return stream.range_size - stream.max_value"),
        ("f", "return stream.range_size - stream.max_value"),
    ]


def test_relative_and_lazy_imports_are_resolved():
    source = ("def f():\n"
              "    from ..report import verdict\n"
              "    from .. import cli\n"
              "    from . import base\n")
    assert _imported(source, ["rngts", "battery"]) >= {
        "rngts.report", "rngts.cli", "rngts.battery.base"}


def test_adapter_imports_and_stream_subclasses_are_found():
    source = ("from ..genkit import FileStream\n"
              "class A(RandomStream): pass\n"
              "class B(base.SeedableStream): pass\n")
    assert _imported(source, ["rngts", "battery"]) & ADAPTERS \
        == {"rngts.genkit.FileStream"}
    assert _base_names(source) & STREAM_CLASSES \
        == {"RandomStream", "SeedableStream"}


def _scoped_nodes(source: str):
    """(enclosing function, node) for every node of the source; the
    enclosing function is "" at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)
            yield from visit(child, inner)

    return visit(ast.parse(source), "")


def _global_statements(source: str) -> set:
    """(enclosing function, name) for each name a `global` statement
    declares."""
    return {(scope, name) for scope, node in _scoped_nodes(source)
            if isinstance(node, ast.Global) for name in node.names}


def test_no_function_sets_module_state():
    # a row's tape lives in the task that reads it, never in a module,
    # and fork hands the workers their tasks
    found = {(path.relative_to(PACKAGE).as_posix(), scope, name)
             for path in sorted(PACKAGE.rglob("*.py"))
             for scope, name in _global_statements(path.read_text())}
    assert found == set()


def test_global_statements_are_found_with_their_function():
    source = ("global a\n"
              "def f():\n"
              "    def g():\n"
              "        global b, c\n"
              "    if True:\n"
              "        global d\n")
    assert _global_statements(source) == {
        ("", "a"), ("g", "b"), ("g", "c"), ("f", "d")}


def _functions_naming(source: str, name: str) -> set:
    """The enclosing function of each use of `name` as a name in the
    source; imports and strings do not count."""
    return {scope for scope, node in _scoped_nodes(source)
            if isinstance(node, ast.Name) and node.id == name}


def test_only_seeding_tells_a_seedable_source_apart():
    # every source reaches its cells through one tape; the runner asks
    # whether a stream is seedable only to seed it
    source = (PACKAGE / "runner.py").read_text()
    assert _functions_naming(source, "SeedableStream") == {"_started"}


def test_uses_of_a_name_are_found_with_their_function():
    source = ("from m import S\n"
              "x = S\n"
              "def f():\n"
              "    def g():\n"
              "        return isinstance(1, S)\n"
              "    return 'S'\n")
    assert _functions_naming(source, "S") == {"", "g"}


# the names through which the os module reads the environment
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_uses(source: str) -> list:
    """(enclosing function, source line) for each use of `os.environ`,
    `os.getenv` or their bytes forms, and each import of them from os."""
    lines = source.splitlines()
    return [(scope, lines[node.lineno - 1].strip())
            for scope, node in _scoped_nodes(source)
            if (isinstance(node, ast.Attribute)
                and node.attr in ENVIRONMENT_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os")
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and {alias.name for alias in node.names} & ENVIRONMENT_READS)]


def test_no_module_reads_the_environment():
    # the one use sets a default for the BLAS library numpy loads
    found = [(path.relative_to(PACKAGE).as_posix(), *use)
             for path in sorted(PACKAGE.rglob("*.py"))
             for use in _environment_uses(path.read_text())]
    assert found == [
        ("cli.py", "", 'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")')]


def test_environment_uses_are_found_with_their_function():
    source = ("import os\n"
              "from os import getenv\n"
              "x = os.environ['A']\n"
              "def f():\n"
              "    return os.getenv('B') or os.environb.get(b'C')\n"
              "def g():\n"
              "    return os.path.join('environ', 'getenv')\n")
    assert _environment_uses(source) == [
        ("", "from os import getenv"),
        ("", "x = os.environ['A']"),
        ("f", "return os.getenv('B') or os.environb.get(b'C')"),
        ("f", "return os.getenv('B') or os.environb.get(b'C')"),
    ]
