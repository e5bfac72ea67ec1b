"""Verdict rule, number formatting, XML round-tripping, HTML rendering.

The golden fixture under data/ pins the full output byte stream for one
generator, seed, and test at a fixed date; regeneration from scratch
must reproduce it exactly, and parsing it back must re-serialize to the
identical bytes.
"""

import io
from pathlib import Path

import numpy as np
import pytest

from rngts.battery.base import chi_square_result
from rngts.battery.uniformity import ChisqrUniformityTest
from rngts.errors import ConfigurationError, ReportParseError
from rngts.genkit.engines import Mt19937
from rngts.report import (
    AnalysisSection,
    ReportDocument,
    RngSection,
    SeedSection,
    TestSection as ResultTestSection,
    analysis_from_result,
    format_number,
    parse_xml,
    render_html,
    test_section_from_outcome as section_from_outcome,
    write_xml,
    xml_lines,
)
from rngts.runner import RunMatrix, run_suite
from rngts.stats import (
    KsStatisticResult,
    MetaStatisticResult,
    StatKind,
    StatisticResult,
    Verdict,
    verdict,
)

GOLDEN = Path(__file__).parent / "data" / "golden.xml"


class TestVerdictRule:
    @pytest.mark.parametrize("p, level, expected", [
        (0.03, 0.05, Verdict.FAILED),    # left tail: below the level
        (0.05, 0.05, Verdict.PASSED),    # boundary does not fail
        (0.706, 0.05, Verdict.PASSED),
        (0.706, 0.95, Verdict.PASSED),
        (0.97, 0.95, Verdict.FAILED),    # right tail: above the level
        (0.95, 0.95, Verdict.PASSED),
        (0.0, 0.05, Verdict.FAILED),
        (1.0, 0.95, Verdict.FAILED),
        (0.3, 0.5, Verdict.PASSED),      # 0.5 judges the right tail
        (0.6, 0.5, Verdict.FAILED),
    ])
    def test_two_tail_rule(self, p, level, expected):
        assert verdict(p, level) is expected

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            verdict(1.2, 0.05)
        with pytest.raises(ConfigurationError):
            verdict(-0.1, 0.05)
        with pytest.raises(ConfigurationError):
            verdict(0.5, 0.0)
        with pytest.raises(ConfigurationError):
            verdict(0.5, 1.0)


class TestFormatNumber:
    def test_six_significant_digits(self):
        assert format_number(0.7146525012326088) == "0.714653"
        assert format_number(241.76128) == "241.761"
        assert format_number(0.5) == "0.5"
        assert format_number(1234567.0) == "1.23457e+06"
        assert format_number(9.3784773436584e-89) == "9.37848e-89"

    def test_ints_and_bools(self):
        assert format_number(255) == "255"
        assert format_number(-3) == "-3"
        assert format_number(True) == "1"
        assert format_number(False) == "0"

    def test_strings_pass_through(self):
        assert format_number("0.05 0.95") == "0.05 0.95"


class TestAnalysisFromResult:
    def test_chi_square_attributes_in_order(self):
        res = chi_square_result(
            np.asarray([30, 70]), np.asarray([0.5, 0.5]), 100)
        section = analysis_from_result(
            res, {0.05: Verdict.PASSED}, [0.05])
        assert section.element == "CHI_SQUARE"
        names = [n for n, _ in section.attributes]
        assert names == ["chi2", "probability", "dof"]
        assert section.verdicts == (("PASSED", "0.05"),)

    def test_ks_reports_both_sides(self):
        res = KsStatisticResult(
            kind=StatKind.KOLMOGOROV_SMIRNOV,
            statistic_value=0.9,
            p_values={"plus": 0.4, "minus": 0.7},
            k_plus=0.9,
            k_minus=0.3,
        )
        section = analysis_from_result(res)
        assert section.element == "KS"
        assert dict(section.attributes) == {
            "kplus": "0.9", "kminus": "0.3",
            "probability_plus": "0.4", "probability_minus": "0.7",
        }

    def test_gaussian_single_p(self):
        res = StatisticResult(kind=StatKind.GAUSSIAN, statistic_value=1.5,
                              p_values={"p": 0.1336})
        section = analysis_from_result(res)
        assert section.element == "GAUSSIAN"
        assert dict(section.attributes) == {
            "value": "1.5", "probability": "0.1336"}

    def test_gaussian_named_ps(self):
        res = StatisticResult(kind=StatKind.GAUSSIAN, statistic_value=3.0,
                              p_values={"lower": 0.9, "upper": 0.2})
        section = analysis_from_result(res)
        assert dict(section.attributes) == {
            "value": "3", "probability_lower": "0.9",
            "probability_upper": "0.2"}

    def test_meta_kind_attribute(self):
        res = MetaStatisticResult(
            kind=StatKind.KOLMOGOROV_SMIRNOV, statistic_value=0.8,
            p_values={"p": 0.42}, meta_kind="KS")
        section = analysis_from_result(res)
        assert section.element == "META"
        assert section.attributes[0] == ("kind", "KS")

    def test_aborted_outcome_has_no_analyses(self):
        out = ChisqrUniformityTest(n=2000, k=64).execute(
            _Empty(), [0.05])
        section = section_from_outcome(out, [0.05])
        assert section.aborted and section.analyses == ()


class _Empty:
    """Stream stand-in that is always exhausted."""

    name = "empty"
    min_value = 0
    max_value = 2**32 - 1

    def next_block(self, n):
        from rngts.errors import StreamExhausted
        raise StreamExhausted("empty: stream exhausted, 0 of %d" % n)


def _sample_document():
    return ReportDocument(
        date="2025-06-01",
        generators=(
            RngSection(name="minstd", warmup="100", seeds=(
                SeedSection(seed="1", tests=(
                    ResultTestSection(
                        name="Gap-Test",
                        parameters=(("Alpha", "0"), ("Beta", "0.5")),
                        analyses=(
                            AnalysisSection(
                                element="CHI_SQUARE",
                                attributes=(("chi2", "10.5"),
                                            ("probability", "0.3"),
                                            ("dof", "16")),
                                verdicts=(("PASSED", "0.05"),
                                          ("FAILED", "0.95")),
                            ),
                            AnalysisSection(
                                element="GAUSSIAN",
                                attributes=(("value", "1.2"),
                                            ("probability", "0.23")),
                            ),
                        ),
                        diagnostics=(("Cars Parked", "3521"),),
                    ),
                    ResultTestSection(
                        name="Craps-Test",
                        aborted="craps game exceeded 10000 throws",
                    ),
                )),
            )),
            RngSection(name="mt19937", warmup="0", seeds=()),
        ),
    )


SAMPLE_XML = """\
<?xml version="1.0" ?>
<RNG_TEST_SUITE_RESULT date="2025-06-01">
  <RNG name="minstd" warmup="100">
    <SEED seed="1">
      <TEST name="Gap-Test">
        <PARAMETERS>
          <PARAMETER name="Alpha" value="0"/>
          <PARAMETER name="Beta" value="0.5"/>
        </PARAMETERS>
        <ANALYZE>
          <CHI_SQUARE chi2="10.5" probability="0.3" dof="16">
            <PASSED confidenceLevel="0.05"/>
            <FAILED confidenceLevel="0.95"/>
          </CHI_SQUARE>
        </ANALYZE>
        <ANALYZE>
          <GAUSSIAN value="1.2" probability="0.23"/>
        </ANALYZE>
        <DIAGNOSTICS>
          <DIAGNOSTIC name="Cars Parked" value="3521"/>
        </DIAGNOSTICS>
      </TEST>
      <TEST name="Craps-Test">
        <PARAMETERS/>
        <ABORTED reason="craps game exceeded 10000 throws"/>
      </TEST>
    </SEED>
  </RNG>
  <RNG name="mt19937" warmup="0"/>
</RNG_TEST_SUITE_RESULT>
"""


class TestXmlRoundTrip:
    def test_small_document_exact_text(self):
        doc = ReportDocument(date="2024-01-31", generators=(
            RngSection(name="minstd", warmup="0", seeds=(
                SeedSection(seed="1", tests=()),
            )),
        ))
        assert xml_lines(doc) == [
            '<?xml version="1.0" ?>',
            '<RNG_TEST_SUITE_RESULT date="2024-01-31">',
            '  <RNG name="minstd" warmup="0">',
            '    <SEED seed="1"/>',
            '  </RNG>',
            '</RNG_TEST_SUITE_RESULT>',
        ]

    def test_sample_document_exact_bytes(self):
        buf = io.BytesIO()
        write_xml(_sample_document(), buf)
        assert buf.getvalue() == SAMPLE_XML.encode("utf-8")

    def test_stylesheet_line(self):
        doc = ReportDocument(date="2024-01-31")
        lines = xml_lines(doc, stylesheet_href="xml2html.xsl")
        assert lines[1] == \
            '<?xml-stylesheet href="xml2html.xsl" type="text/xsl"?>'
        assert "<?xml-stylesheet" not in "".join(xml_lines(doc))

    def test_full_round_trip_bytes(self):
        doc = _sample_document()
        first = io.BytesIO()
        write_xml(doc, first)
        parsed = parse_xml(io.BytesIO(first.getvalue()))
        assert parsed == doc
        second = io.BytesIO()
        write_xml(parsed, second)
        assert second.getvalue() == first.getvalue()

    # (label or reason, what parsing gives back): characters XML or UTF-8
    # cannot hold come back as their Python escape text
    @pytest.mark.parametrize("text, read_back", [
        ('ext "a" & <b>', 'ext "a" & <b>'),
        ("ValueError: boom\nsecond line", "ValueError: boom\nsecond line"),
        ("tab\tand cr\r", "tab\tand cr\r"),
        ("control \x01 char", "control \\x01 char"),
        ("bad\ud800", "bad\\ud800"),
        ("\ufffe\uffff", "\\ufffe\\uffff"),
    ], ids=["markup", "newline", "tab-cr", "control", "surrogate",
            "noncharacters"])
    def test_escaping_round_trips(self, text, read_back):
        doc = ReportDocument(date="2025-01-01", generators=(
            RngSection(name=text, warmup="0", seeds=(
                SeedSection(seed="7", tests=(
                    ResultTestSection(name="T", parameters=(
                        ("Command", 'run "x" < y & z'),
                    )),
                    ResultTestSection(name="U", aborted=text),
                )),
            )),
        ))
        first = io.BytesIO()
        write_xml(doc, first)
        text = first.getvalue().decode()
        assert "&quot;" in text and "&amp;" in text and "&lt;" in text
        parsed = parse_xml(io.BytesIO(first.getvalue()))
        rng = parsed.generators[0]
        assert rng.name == read_back
        assert rng.seeds[0].tests[1].aborted == read_back
        second = io.BytesIO()
        write_xml(parsed, second)
        assert second.getvalue() == first.getvalue()

    def test_write_to_path(self, tmp_path):
        target = tmp_path / "out.xml"
        write_xml(_sample_document(), target)
        assert parse_xml(str(target)) == _sample_document()


class TestGolden:
    def test_fresh_run_matches_fixture(self):
        matrix = RunMatrix(
            generators=(("mt19937", Mt19937, 0),),
            seeds=(331,),
            levels=(0.05, 0.95),
            tests=(ChisqrUniformityTest(),),
        )
        doc = run_suite(matrix, date="2025-06-01")
        buf = io.BytesIO()
        write_xml(doc, buf, stylesheet_href="xml2html.xsl")
        assert buf.getvalue() == GOLDEN.read_bytes()

    def test_fixture_reparse_is_byte_identical(self):
        doc = parse_xml(str(GOLDEN))
        buf = io.BytesIO()
        write_xml(doc, buf, stylesheet_href="xml2html.xsl")
        assert buf.getvalue() == GOLDEN.read_bytes()

    def test_fixture_values(self):
        doc = parse_xml(str(GOLDEN))
        assert doc.date == "2025-06-01"
        test = doc.generators[0].seeds[0].tests[0]
        analysis = test.analyses[0]
        attrs = dict(analysis.attributes)
        assert attrs == {"chi2": "241.761", "probability": "0.714653",
                         "dof": "255"}
        assert analysis.verdicts == (("PASSED", "0.05"), ("PASSED", "0.95"))


class TestParseErrors:
    def _parse(self, text):
        return parse_xml(io.BytesIO(text.encode()))

    def test_not_xml(self):
        with pytest.raises(ReportParseError, match="not well-formed"):
            self._parse("this is not xml")

    def test_wrong_root(self):
        with pytest.raises(ReportParseError, match="root element"):
            self._parse('<WRONG date="x"/>')

    def test_missing_date(self):
        with pytest.raises(ReportParseError, match="date"):
            self._parse("<RNG_TEST_SUITE_RESULT/>")

    def test_unexpected_child_of_root(self):
        with pytest.raises(ReportParseError, match="unexpected element"):
            self._parse(
                '<RNG_TEST_SUITE_RESULT date="d"><X/></RNG_TEST_SUITE_RESULT>'
            )

    def test_missing_seed_attribute(self):
        with pytest.raises(ReportParseError, match="seed"):
            self._parse(
                '<RNG_TEST_SUITE_RESULT date="d">'
                '<RNG name="g" warmup="0"><SEED/></RNG>'
                "</RNG_TEST_SUITE_RESULT>"
            )

    def test_analyze_needs_one_statistic(self):
        with pytest.raises(ReportParseError, match="exactly one"):
            self._parse(
                '<RNG_TEST_SUITE_RESULT date="d"><RNG name="g" warmup="0">'
                '<SEED seed="1"><TEST name="t"><ANALYZE/></TEST></SEED>'
                "</RNG></RNG_TEST_SUITE_RESULT>"
            )

    def test_unknown_statistic_element(self):
        with pytest.raises(ReportParseError, match="unknown statistic"):
            self._parse(
                '<RNG_TEST_SUITE_RESULT date="d"><RNG name="g" warmup="0">'
                '<SEED seed="1"><TEST name="t"><ANALYZE><POISSON/></ANALYZE>'
                "</TEST></SEED></RNG></RNG_TEST_SUITE_RESULT>"
            )

    def test_bad_verdict_tag(self):
        with pytest.raises(ReportParseError, match="unexpected element"):
            self._parse(
                '<RNG_TEST_SUITE_RESULT date="d"><RNG name="g" warmup="0">'
                '<SEED seed="1"><TEST name="t"><ANALYZE>'
                '<GAUSSIAN value="0"><MAYBE confidenceLevel="0.05"/>'
                "</GAUSSIAN></ANALYZE></TEST></SEED></RNG>"
                "</RNG_TEST_SUITE_RESULT>"
            )

    def test_unexpected_test_child(self):
        with pytest.raises(ReportParseError, match="unexpected element"):
            self._parse(
                '<RNG_TEST_SUITE_RESULT date="d"><RNG name="g" warmup="0">'
                '<SEED seed="1"><TEST name="t"><EXTRAS/></TEST></SEED>'
                "</RNG></RNG_TEST_SUITE_RESULT>"
            )


class TestHtml:
    def test_renders_summary_and_rows(self):
        buf = io.BytesIO()
        render_html(_sample_document(), buf)
        text = buf.getvalue().decode()
        assert text.startswith("<!DOCTYPE html>")
        assert "Verdicts: 1 passed, 1 failed; 1 aborted tests." in text
        assert 'class="pass"' in text and 'class="fail"' in text
        assert "aborted: craps game exceeded" in text
        assert "minstd" in text and "Gap-Test" in text

    def test_escapes_hostile_names(self):
        doc = ReportDocument(date="2025-01-01", generators=(
            RngSection(name="<script>alert(1)</script>", warmup="0",
                       seeds=(SeedSection(seed="1", tests=()),)),
        ))
        buf = io.BytesIO()
        render_html(doc, buf)
        text = buf.getvalue().decode()
        assert "<script>" not in text
        assert "&lt;script&gt;" in text

    def test_write_to_path(self, tmp_path):
        target = tmp_path / "report.html"
        render_html(_sample_document(), target)
        assert target.read_bytes().startswith(b"<!DOCTYPE html>")
