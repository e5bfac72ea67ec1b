"""Per-cell reference digests: the check that a run's report is correct.

reference.json maps a cell key (variant|generator|warmup|seed|test alias)
to the digest of that cell's report section, the digest of its exact
p-values, the raw words its test drew and whether any of its verdicts is
FAILED.  make_reference.py wrote it from the code as it stood when the
benchmark was added; every benchmark run compares its reports with it.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

from rngts.errors import ReportParseError
from rngts.report import parse_xml, render_html

DEFAULT_PATH = Path(__file__).resolve().parent / "reference.json"


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)["cells"]


def section_digest(test) -> str:
    """Digest of one TestSection, over every field the XML carries."""
    body = [
        test.name,
        list(test.parameters),
        [[a.element, list(a.attributes), list(a.verdicts)]
         for a in test.analyses],
        test.aborted,
        list(test.diagnostics),
    ]
    text = json.dumps(body, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def pvalue_digest(pvalues) -> str:
    """Digest of a cell's p-values, exact to the last bit.

    The report rounds p-values to six digits; this catches a change that
    the rounding hides, such as a kernel rewritten with another summation
    order.
    """
    body = [[[name, float(p).hex()] for name, p in result]
            for result in pvalues]
    text = json.dumps(body, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def has_failed_verdict(test) -> bool:
    return any(kind == "FAILED" for a in test.analyses
               for kind, _ in a.verdicts)


def report_sections(xml_path: Path) -> list:
    """(generator, warmup, seed, TestSection) per cell, in report order."""
    doc = parse_xml(str(xml_path))
    return [(rng.name, rng.warmup, seed.seed, test)
            for rng in doc.generators for seed in rng.seeds
            for test in seed.tests]


def expected_exit(cells, table: dict) -> int:
    """`rngts run` exits 1 when any verdict is FAILED, else 0."""
    return 1 if any(table.get(key, {}).get("failed") for key in cells) else 0


def failed_cells(xml_path: Path, html_path: Path, cells, table: dict) -> int:
    """Count the cells whose report section differs from the reference.

    A report that is missing or does not parse fails every cell.  An HTML
    page that is not the rendering of the XML report fails every cell.
    """
    try:
        sections = report_sections(xml_path)
        html = html_path.read_bytes()
    except (OSError, ReportParseError):
        return len(cells)
    if html != rendered_html(xml_path):
        return len(cells)
    failed = abs(len(sections) - len(cells))
    for key, (rng, warmup, seed, test) in zip(cells, sections):
        _, label, want_warmup, want_seed, _ = key.split("|")
        entry = table.get(key)
        if (entry is None or (rng, warmup, seed) != (label, want_warmup,
                                                      want_seed)
                or section_digest(test) != entry["digest"]):
            failed += 1
    return min(failed, len(cells))


def rendered_html(xml_path: Path) -> bytes:
    sink = io.BytesIO()
    render_html(parse_xml(str(xml_path)), sink)
    return sink.getvalue()
