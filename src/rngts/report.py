"""Result documents: XML emission, parsing, HTML rendering.

The document model stores every number as its formatted string, so a
document written, parsed, and written again is byte-identical.  Numeric
formatting happens once, when live results are converted to sections;
the verdicts come already judged (the rule is in `rngts.stats`).
"""

from __future__ import annotations

import html as _html
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence
from xml.etree import ElementTree

from .errors import ReportParseError
from .stats import KsStatisticResult, MetaStatisticResult, StatKind


def format_number(value) -> str:
    """Locale-independent text for attribute values; floats get up to 6
    significant digits."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


# ---------------------------------------------------------------------------
# document model (all strings)


@dataclass(frozen=True)
class AnalysisSection:
    """One statistic element: its tag, ordered attributes, and verdict
    children as (PASSED|FAILED, level) pairs."""

    element: str
    attributes: tuple
    verdicts: tuple = ()


@dataclass(frozen=True)
class TestSection:
    name: str
    parameters: tuple = ()
    analyses: tuple = ()
    aborted: Optional[str] = None
    diagnostics: tuple = ()


@dataclass(frozen=True)
class SeedSection:
    seed: str
    tests: tuple = ()


@dataclass(frozen=True)
class RngSection:
    name: str
    warmup: str
    seeds: tuple = ()


@dataclass(frozen=True)
class ReportDocument:
    date: str
    generators: tuple = ()


_STATISTIC_ELEMENTS = ("CHI_SQUARE", "KS", "GAUSSIAN", "META")


def _probability_attrs(p_values: dict) -> list:
    if len(p_values) == 1 and "p" in p_values:
        return [("probability", format_number(p_values["p"]))]
    return [
        (f"probability_{name}", format_number(p))
        for name, p in p_values.items()
    ]


def analysis_from_result(result, verdict_map=None,
                         levels: Sequence[float] = ()) -> AnalysisSection:
    """Convert one statistic result (duck-typed; see stats module) plus
    its per-level verdicts into a section."""
    if isinstance(result, MetaStatisticResult):
        element = "META"
        attrs = [("kind", result.meta_kind)]
        attrs += _probability_attrs(result.p_values)
    elif isinstance(result, KsStatisticResult):
        element = "KS"
        attrs = [
            ("kplus", format_number(result.k_plus)),
            ("kminus", format_number(result.k_minus)),
            ("probability_plus", format_number(result.p_values["plus"])),
            ("probability_minus", format_number(result.p_values["minus"])),
        ]
    elif result.kind is StatKind.CHI_SQUARE:
        element = "CHI_SQUARE"
        attrs = [
            ("chi2", format_number(result.statistic_value)),
            ("probability", format_number(result.p_values["p"])),
            ("dof", format_number(result.dof)),
        ]
    else:
        element = "GAUSSIAN"
        attrs = [("value", format_number(result.statistic_value))]
        attrs += _probability_attrs(result.p_values)
    verdicts = []
    if verdict_map is not None:
        for level in levels:
            verdicts.append((verdict_map[level].value, format_number(level)))
    return AnalysisSection(element=element, attributes=tuple(attrs),
                           verdicts=tuple(verdicts))


def test_section_from_outcome(outcome, levels: Sequence[float]) -> TestSection:
    """Convert a battery TestOutcome (duck-typed: test_name, parameters,
    results, verdicts, aborted, diagnostics) into a section."""
    parameters = tuple(
        (name, format_number(value)) for name, value in outcome.parameters
    )
    analyses = []
    if outcome.aborted is None:
        for result, vmap in zip(outcome.results, outcome.verdicts):
            analyses.append(analysis_from_result(result, vmap, levels))
    diagnostics = tuple(
        (name, format_number(value))
        for name, value in getattr(outcome, "diagnostics", ())
    )
    return TestSection(
        name=outcome.test_name,
        parameters=parameters,
        analyses=tuple(analyses),
        aborted=outcome.aborted,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# XML emission


# characters XML 1.0 cannot carry (C0 controls other than tab, LF and CR;
# U+FFFE, U+FFFF) or UTF-8 cannot encode (lone surrogates)
_UNWRITABLE = re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"
)
_ATTR_ENTITIES = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def _writable(text: str) -> str:
    """Replace each character of _UNWRITABLE by its Python escape text."""
    return _UNWRITABLE.sub(lambda m: ascii(m.group())[1:-1], text)


def _attr(value: str) -> str:
    """Quote an attribute value so that write, parse, write gives the
    same bytes.

    Tab, LF and CR are written as character references, which parsers do
    not normalize to spaces; a character XML or UTF-8 cannot hold at all
    is written as its Python escape text (U+0001 becomes \\x01).
    """
    text = (_writable(value).replace("&", "&amp;")
            .replace("<", "&lt;").replace(">", "&gt;"))
    for char, entity in _ATTR_ENTITIES.items():
        text = text.replace(char, entity)
    return '"%s"' % text


def _emit(lines: list, depth: int, node) -> None:
    """Append the lines of one (tag, attrs, children) element; an element
    without children is self-closed."""
    tag, attrs, children = node
    pad = "  " * depth
    head = tag + "".join(
        f" {name}={_attr(str(value))}" for name, value in attrs
    )
    if not children:
        lines.append(f"{pad}<{head}/>")
        return
    lines.append(f"{pad}<{head}>")
    for child in children:
        _emit(lines, depth + 1, child)
    lines.append(f"{pad}</{tag}>")


def _name_values(tag: str, pairs) -> list:
    return [(tag, (("name", name), ("value", value)), ())
            for name, value in pairs]


def _test_node(test: TestSection) -> tuple:
    children = [("PARAMETERS", (), _name_values("PARAMETER", test.parameters))]
    if test.aborted is not None:
        children.append(("ABORTED", (("reason", test.aborted),), ()))
    for analysis in test.analyses:
        verdicts = [(kind, (("confidenceLevel", level),), ())
                    for kind, level in analysis.verdicts]
        children.append(("ANALYZE", (), [
            (analysis.element, analysis.attributes, verdicts)
        ]))
    if test.diagnostics:
        children.append(("DIAGNOSTICS", (),
                         _name_values("DIAGNOSTIC", test.diagnostics)))
    return ("TEST", (("name", test.name),), children)


def xml_lines(doc: ReportDocument,
              stylesheet_href: Optional[str] = None) -> list:
    lines = ['<?xml version="1.0" ?>']
    if stylesheet_href is not None:
        lines.append(
            f'<?xml-stylesheet href="{stylesheet_href}" type="text/xsl"?>'
        )
    _emit(lines, 0, ("RNG_TEST_SUITE_RESULT", (("date", doc.date),), [
        ("RNG", (("name", rng.name), ("warmup", rng.warmup)), [
            ("SEED", (("seed", seed.seed),),
             [_test_node(test) for test in seed.tests])
            for seed in rng.seeds
        ])
        for rng in doc.generators
    ]))
    return lines


def _write_lines(lines: list, destination) -> None:
    """Write lines as UTF-8 text, each ending in a newline, to a path or
    a binary file object."""
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as fp:
            fp.write(data)
    else:
        destination.write(data)


def write_xml(doc: ReportDocument, destination,
              stylesheet_href: Optional[str] = None) -> None:
    """Serialize to a byte sink (binary file object or path)."""
    _write_lines(xml_lines(doc, stylesheet_href), destination)


# ---------------------------------------------------------------------------
# XML parsing (strict inverse)


def _require(element, attr: str) -> str:
    value = element.get(attr)
    if value is None:
        raise ReportParseError(
            f"element {element.tag} lacks required attribute {attr!r}"
        )
    return value


def _no_extra_children(element, allowed) -> None:
    for child in element:
        if child.tag not in allowed:
            raise ReportParseError(
                f"unexpected element {child.tag} inside {element.tag}"
            )


def _parse_name_values(element, child_tag: str) -> tuple:
    _no_extra_children(element, {child_tag})
    return tuple(
        (_require(child, "name"), _require(child, "value"))
        for child in element
    )


def _parse_analysis(element) -> AnalysisSection:
    stats = list(element)
    if len(stats) != 1:
        raise ReportParseError(
            "ANALYZE must contain exactly one statistic element"
        )
    stat = stats[0]
    if stat.tag not in _STATISTIC_ELEMENTS:
        raise ReportParseError(
            f"unknown statistic element {stat.tag} inside ANALYZE"
        )
    verdicts = []
    for child in stat:
        if child.tag not in ("PASSED", "FAILED"):
            raise ReportParseError(
                f"unexpected element {child.tag} inside {stat.tag}"
            )
        verdicts.append((child.tag, _require(child, "confidenceLevel")))
    return AnalysisSection(
        element=stat.tag,
        attributes=tuple(stat.attrib.items()),
        verdicts=tuple(verdicts),
    )


def _parse_test(element) -> TestSection:
    _no_extra_children(
        element, {"PARAMETERS", "ANALYZE", "ABORTED", "DIAGNOSTICS"}
    )
    parameters = ()
    analyses = []
    aborted = None
    diagnostics = ()
    for child in element:
        if child.tag == "PARAMETERS":
            parameters = _parse_name_values(child, "PARAMETER")
        elif child.tag == "ANALYZE":
            analyses.append(_parse_analysis(child))
        elif child.tag == "ABORTED":
            aborted = _require(child, "reason")
        else:
            diagnostics = _parse_name_values(child, "DIAGNOSTIC")
    return TestSection(
        name=_require(element, "name"),
        parameters=parameters,
        analyses=tuple(analyses),
        aborted=aborted,
        diagnostics=diagnostics,
    )


def parse_xml(source) -> ReportDocument:
    """Parse a document produced by write_xml; strict about shape."""
    try:
        tree = ElementTree.parse(source)
    except ElementTree.ParseError as exc:
        raise ReportParseError(f"not well-formed XML: {exc}") from None
    root = tree.getroot()
    if root.tag != "RNG_TEST_SUITE_RESULT":
        raise ReportParseError(
            f"root element is {root.tag}, expected RNG_TEST_SUITE_RESULT"
        )
    generators = []
    _no_extra_children(root, {"RNG"})
    for rng in root:
        seeds = []
        _no_extra_children(rng, {"SEED"})
        for seed in rng:
            _no_extra_children(seed, {"TEST"})
            tests = tuple(_parse_test(t) for t in seed)
            seeds.append(SeedSection(seed=_require(seed, "seed"),
                                     tests=tests))
        generators.append(RngSection(
            name=_require(rng, "name"),
            warmup=_require(rng, "warmup"),
            seeds=tuple(seeds),
        ))
    return ReportDocument(date=_require(root, "date"),
                          generators=tuple(generators))


# ---------------------------------------------------------------------------
# HTML rendering


_HTML_STYLE = """\
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-bottom: 2em; }
th, td { border: 1px solid #999; padding: 4px 10px; text-align: left; }
th { background: #eee; }
td.pass { background: #bfa; }
td.fail { background: #fba; }
td.aborted { background: #ffd27f; font-style: italic; }
"""


def _esc(text: str) -> str:
    return _html.escape(_writable(str(text)), quote=True)


def _analysis_cells(analysis: AnalysisSection) -> tuple[str, str, list]:
    stat_bits = ", ".join(
        f"{name}={value}" for name, value in analysis.attributes
        if not name.startswith("probability")
    )
    p_bits = ", ".join(
        f"{name.replace('probability', 'p').replace('p_', 'p ')}={value}"
        for name, value in analysis.attributes
        if name.startswith("probability")
    )
    cells = []
    for kind, level in analysis.verdicts:
        css = "pass" if kind == "PASSED" else "fail"
        cells.append(
            f'<td class="{css}">{_esc(level)}: {_esc(kind)}</td>'
        )
    return f"{_esc(analysis.element)} ({_esc(stat_bits)})", _esc(p_bits), cells


def render_html(doc: ReportDocument, destination) -> None:
    """Emit a standalone page: one table per generator and seed."""
    passed = failed = aborted = 0
    for rng in doc.generators:
        for seed in rng.seeds:
            for test in seed.tests:
                if test.aborted is not None:
                    aborted += 1
                for analysis in test.analyses:
                    for kind, _ in analysis.verdicts:
                        if kind == "PASSED":
                            passed += 1
                        else:
                            failed += 1
    lines = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8"/>',
        "<title>Random number test suite results</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head>",
        "<body>",
        "<h1>Random number test suite results</h1>",
        f"<p>Date: {_esc(doc.date)}</p>",
        f"<p>Verdicts: {passed} passed, {failed} failed; "
        f"{aborted} aborted tests.</p>",
    ]
    for rng in doc.generators:
        for seed in rng.seeds:
            lines.append(
                f"<h2>{_esc(rng.name)} (warmup {_esc(rng.warmup)}), "
                f"seed {_esc(seed.seed)}</h2>"
            )
            lines.append("<table>")
            lines.append(
                "<tr><th>Test</th><th>Statistic</th>"
                "<th>p-values</th><th>Verdicts</th></tr>"
            )
            for test in seed.tests:
                if test.aborted is not None:
                    lines.append(
                        f"<tr><td>{_esc(test.name)}</td>"
                        f'<td class="aborted" colspan="3">aborted: '
                        f"{_esc(test.aborted)}</td></tr>"
                    )
                for i, analysis in enumerate(test.analyses):
                    stat, ps, cells = _analysis_cells(analysis)
                    label = test.name if i == 0 else f"{test.name} (cont.)"
                    lines.append(
                        f"<tr><td>{_esc(label)}</td><td>{stat}</td>"
                        f"<td>{ps}</td><td>{''.join(cells) or '-'}"
                        "</td></tr>"
                    )
            lines.append("</table>")
    lines += ["</body>", "</html>"]
    _write_lines(lines, destination)
