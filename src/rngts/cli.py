"""Command line front end.

Subcommands:
  run              execute a manifest and write the XML report
  list-tests       print the registered test names
  list-generators  print the registered generator names
  render           convert an existing XML report to HTML

Exit status is 0 for a clean run, 1 when any verdict in the produced
report is FAILED, and 2 for configuration or parse errors.
"""

from __future__ import annotations

import os

# The battery's only BLAS calls are two small dot products; one OpenBLAS
# thread saves its pool's start-up, and --jobs then forks a process that
# runs no other thread.  Set before any import below loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import datetime
import sys
from typing import Optional

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


def _default_jobs() -> Optional[int]:
    raw = os.environ.get("RNGTS_JOBS")
    if raw is None:
        return None
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigurationError(f"RNGTS_JOBS={raw!r} is not an integer")
    if jobs < 1:
        raise ConfigurationError("RNGTS_JOBS must be at least 1")
    return jobs


def _check_date(text: str) -> str:
    try:
        datetime.date.fromisoformat(text)
    except ValueError:
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
    run.add_argument("--out", metavar="XML",
                     help="report path (overrides the manifest; '-' for stdout)")
    run.add_argument("--html", metavar="HTML",
                     help="also render an HTML report to this path")
    run.add_argument("--jobs", type=int, metavar="N",
                     help="forked worker processes, at most one per cell "
                          "(default: RNGTS_JOBS, manifest, or 1)")
    run.add_argument("--date", metavar="YYYY-MM-DD",
                     help="pin the report date (default: today)")

    sub.add_parser("list-tests", help="print registered test names")
    sub.add_parser("list-generators", help="print registered generator names")

    render = sub.add_parser("render", help="render an XML report to HTML")
    render.add_argument("--in", dest="infile", required=True, metavar="XML")
    render.add_argument("--out", dest="outfile", required=True, metavar="HTML")
    return parser


def _cmd_run(args) -> int:
    manifest = load_manifest(args.config)
    jobs = args.jobs
    if jobs is None:
        jobs = _default_jobs()
    if jobs is None:
        jobs = manifest.jobs
    if jobs is None:
        jobs = 1
    if jobs < 1:
        raise ConfigurationError("--jobs must be at least 1")
    date = _check_date(args.date) if args.date else None

    def progress(name, seed, outcome):
        state = "aborted" if outcome.aborted else "done"
        print(f"{name} seed={seed} {outcome.test_name}: {state}",
              file=sys.stderr)

    doc = run_suite(manifest.matrix, progress=progress, jobs=jobs, date=date)

    out = args.out if args.out is not None else manifest.output
    if out is None or out == "-":
        write_xml(doc, sys.stdout.buffer, stylesheet_href=_STYLESHEET)
    else:
        write_xml(doc, out, stylesheet_href=_STYLESHEET)
    html = args.html if args.html is not None else manifest.html
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


if __name__ == "__main__":
    sys.exit(main())
