"""Command line front end.

Subcommands:
  run              execute a manifest and write the XML report
  list-tests       print the registered test names
  list-generators  print the registered generator names
  render           convert an existing XML report to HTML

Exit status is 0 for a clean run, 1 when any verdict in the produced
report is FAILED, 2 for configuration or parse errors, and 130 when the
run is interrupted (SIGINT).
"""

from __future__ import annotations

import os

# The battery's only BLAS calls are two small dot products; one OpenBLAS
# thread saves its pool's start-up, and --jobs then forks a process that
# runs no other thread.  Set before any import below loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import datetime
import sys

from .errors import ConfigurationError, ReportParseError
from .report import parse_xml, render_html, write_xml
from .runner import (
    document_has_failures,
    generator_names,
    load_manifest,
    run_suite,
    test_names,
)

_STYLESHEET = "xml2html.xsl"


def _check_date(text: str) -> str:
    # fromisoformat also takes 20250601 and week dates such as 2025-W01-1
    try:
        exact = datetime.date.fromisoformat(text).isoformat() == text
    except ValueError:
        exact = False
    if not exact:
        raise ConfigurationError(f"--date {text!r} is not a YYYY-MM-DD date")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rngts",
        description="Statistical test suite for random number generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a manifest")
    run.add_argument("--config", required=True, metavar="MANIFEST",
                     help="JSON run description")
    run.add_argument("--out", metavar="XML", default="-",
                     help="report path ('-', the default, for stdout)")
    run.add_argument("--html", metavar="HTML",
                     help="also render an HTML report to this path")
    run.add_argument("--jobs", type=int, metavar="N", default=1,
                     help="forked worker processes, at most one per task "
                          "(a row, or a run of a row's cells when rows are "
                          "fewer than jobs; default: 1)")
    run.add_argument("--date", metavar="YYYY-MM-DD",
                     help="pin the report date (default: today)")

    sub.add_parser("list-tests", help="print registered test names")
    sub.add_parser("list-generators", help="print registered generator names")

    render = sub.add_parser("render", help="render an XML report to HTML")
    render.add_argument("--in", dest="infile", required=True, metavar="XML")
    render.add_argument("--out", dest="outfile", required=True, metavar="HTML")
    return parser


def _progress(name, seed, outcome) -> None:
    state = "aborted" if outcome.aborted else "done"
    line = (f"{name} seed={seed} {outcome.test_name}: {state} "
            f"{outcome.wall_s:.3f} s {outcome.words} words")
    if outcome.aborted:
        line += f": {outcome.aborted}"
    print(line, file=sys.stderr)


def _cmd_run(args) -> int:
    matrix = load_manifest(args.config)
    if args.jobs < 1:
        raise ConfigurationError("--jobs must be at least 1")
    date = None if args.date is None else _check_date(args.date)
    if (args.html is not None and args.out != "-"
            and os.path.realpath(args.out) == os.path.realpath(args.html)):
        # two handles on one file would interleave the two reports
        raise ConfigurationError("--out and --html name the same file")
    with contextlib.ExitStack() as files:
        # both reports are opened before the first cell, so a path that
        # cannot be written costs no results
        out = (sys.stdout.buffer if args.out == "-"
               else files.enter_context(open(args.out, "wb")))
        html = (None if args.html is None
                else files.enter_context(open(args.html, "wb")))
        doc = run_suite(matrix, progress=_progress, jobs=args.jobs, date=date)
        write_xml(doc, out, stylesheet_href=_STYLESHEET)
        if html is not None:
            render_html(doc, html)
    return 1 if document_has_failures(doc) else 0


def _cmd_render(args) -> int:
    doc = parse_xml(args.infile)
    render_html(doc, args.outfile)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-tests":
            for name in test_names():
                print(name)
            return 0
        if args.command == "list-generators":
            for name in generator_names():
                print(name)
            return 0
        return _cmd_render(args)
    except (ConfigurationError, ReportParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # the run's workers are already ended and reaped
        print("error: interrupted", file=sys.stderr)
        return 130


def console_main() -> int:
    """The `rngts` command: `main()`, then a quick exit.

    The process ends as soon as this returns, so the interpreter's final
    full collections, over about 24k objects after a catalog run, would
    only delay it; frozen, the objects are left out of them.  The reports
    are already closed, and stdio is still flushed at exit.  Tests call
    `main()` instead, many times in one process, and freeze nothing.
    """
    code = main()
    import gc

    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
