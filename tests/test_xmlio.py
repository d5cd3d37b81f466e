"""Parse/serialize: fixtures, repairs, refusals, and round-trip laws."""

import ast
import copy
import dataclasses
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teijournal import model as m
from teijournal import cli, corpus, render, schema, xmlio
from teijournal.base import BUILTIN_STYLES, Finding, escaper
from teijournal.rawxml import RawXmlError, parse_raw
from teijournal.render import builtin_style, render_plaintext, render_xhtml
from teijournal.xmlio import iter_model_paths, parse_article, serialize_article

import support
from repairs import _ENTRY, REPAIR_BASE, REPAIRS, TEI, wrap
from support import SKELETON, parse_skeleton


def ok(data: bytes) -> m.Article:
    report = parse_article(data, "t.xml")
    assert report.ok, report.issues
    return report.outcome


def warnings_of(data: bytes) -> list:
    report = parse_article(data, "t.xml")
    assert report.ok, report.issues
    return [i.message for i in report.warnings()]


#: code -> (a refused document, the issues its report holds)
REFUSALS = {
    "P-refused": (b"this is prose", (
        ("P-refused", "error", "", "not well-formed: syntax error: line 1, column 0"),)),
    "P-not-tei": (b"<TEI><teiHeader/><text/></TEI>", (
        ("P-not-tei", "error", "TEI[1]",
         f"document element must be TEI in namespace {support.TEI_NS}, got 'TEI'"),)),
    "P-no-header": (TEI + b"<text/></TEI>", (("P-no-header", "error", "TEI[1]", "missing teiHeader"),)),
    "P-no-text": (TEI + b"<teiHeader/></TEI>", (("P-no-text", "error", "TEI[1]", "missing text"),)),
}


class TestRefusals:
    @pytest.mark.parametrize("code", sorted(REFUSALS))
    def test_refusal_issues(self, code):
        data, issues = REFUSALS[code]
        report = parse_article(data, "t.xml")
        assert report.outcome is None
        assert [(i.rule_id, i.severity, i.location, i.message)
                for i in report.issues] == list(issues)

    def test_not_xml(self):
        report = parse_article(b"this is prose", "t.xml")
        assert not report.ok
        assert report.errors()

    def test_root_must_be_tei_in_namespace(self):
        report = parse_article(b"<TEI><teiHeader/><text/></TEI>", "t.xml")
        assert not report.ok

    def test_missing_header_and_text(self):
        report = parse_article(TEI + b"</TEI>", "t.xml")
        assert not report.ok
        messages = " ".join(i.message for i in report.errors())
        assert "teiHeader" in messages and "text" in messages

    def test_external_doctype_refused(self):
        data = b'<!DOCTYPE TEI SYSTEM "tei.dtd">' + wrap()
        assert not parse_article(data, "t.xml").ok

    def test_internal_entity_declaration_refused(self):
        data = b'<!DOCTYPE TEI [<!ENTITY x "y">]>' + wrap()
        assert not parse_article(data, "t.xml").ok

    def test_utf16_refused(self):
        data = wrap().decode("utf-8").encode("utf-16")
        assert not parse_article(data, "t.xml").ok

    def test_non_utf8_encoding_declaration_refused(self):
        data = wrap().replace(b'encoding="UTF-8"', b'encoding="ISO-8859-1"')
        assert not parse_article(data, "t.xml").ok

    def test_builtin_entities_still_work(self):
        article = ok(wrap(text=b"<body><div type=\"s\"><p>a &amp; b &#233;</p></div></body>"))
        assert m.plain_text(article.body[0].blocks[0].content) == "a & b \xe9"


class TestHeaderFixture:
    def test_skeleton_header_values(self):
        article = parse_skeleton()
        fd = article.header.file_desc
        assert m.normalize_title(fd.main_title) == (
            "Multilocus Analysis of Age Related Macular Degeneration"
        )
        assert m.plain_text(fd.availability) == "Copyright \xa9 The Animal Consortium 2009"
        assert fd.publication_date == m.CalendarDate(2009, 6, 1, raw="2009-06-01")
        assert fd.authority == "The Animal Consortium"

    def test_skeleton_profile_and_revisions(self):
        article = parse_skeleton()
        pd = article.header.profile_desc
        assert pd.languages == ("en",)
        assert pd.keywords == (m.Keyword("foetal development", scheme="free"),)
        kinds = [(c.kind, c.when.iso()) for c in article.header.revision_desc.changes]
        assert kinds == [("received", "2008-08-27"), ("accepted", "2008-12-01")]

    def test_author_fixture(self):
        source = parse_skeleton().header.file_desc.source
        author = source.analytic.authors[0]
        assert author.surname == "Dean"
        assert author.forenames == ("Michael",)
        assert author.corresponding is True
        assert author.email == "dean@ncifcrf.gov"
        assert author.identifiers == (m.Identifier("ORCID", "0000-0002-0000-0000"),)
        units = author.affiliation.org_units
        assert units == (
            m.OrgUnit("laboratory", "CSA Department"),
            m.OrgUnit("institution", "Indian Institute of Science"),
        )
        address = author.affiliation.address
        assert (address.settlement, address.post_code, address.country) == (
            "Bangalore",
            "560012",
            "India",
        )
        assert address.lines == (
            m.AddressLine("+91-80-22932386", kind="phone"),
            m.AddressLine("+91-80-23602911", kind="fax"),
        )

    def test_monogr_fixture(self):
        source = parse_skeleton().header.file_desc.source
        titles = [(t.type, m.plain_text(t.text)) for t in source.monogr.titles]
        assert titles == [
            ("main", "European Journal of Human Genetics"),
            ("nlm-ta", "Eur J Hum Genet"),
        ]
        assert source.monogr.issn == "1018-4813"
        assert source.scope("vol") == "17"
        assert source.scope("issue") == "6"
        assert source.identifier("doi") == "10.1038/ejhg.2009.77"
        assert source.doc_type == m.DocumentType("journalArticle")


IMPRINT_REPAIR = wrap(
    header=(
        b"<fileDesc><titleStmt><title>T</title></titleStmt>"
        b"<publicationStmt><authority>A</authority></publicationStmt>"
        b"<sourceDesc><biblStruct><monogr><title level=\"m\">B</title><imprint>"
        b"<pubPlace>Oxford</pubPlace><publisher>Clarendon Press</publisher>"
        b'<date typ="published" when="1969-02-07"/>'
        b'<biblScope type="vol">3</biblScope><biblScope type="issue">2</biblScope>'
        b"</imprint></monogr></biblStruct></sourceDesc></fileDesc>"
    )
)


class TestRepairs:
    def test_date_typ_attribute_repaired_with_warning(self):
        assert any("typ" in w for w in warnings_of(IMPRINT_REPAIR))
        imprint = ok(IMPRINT_REPAIR).header.file_desc.source.monogr.imprint
        assert imprint.pub_place == "Oxford"
        assert imprint.publisher == "Clarendon Press"
        assert imprint.date == m.CalendarDate(1969, 2, 7, raw="1969-02-07")
        assert imprint.date_role == "published"

    def test_biblscope_unit_attribute_accepted(self):
        data = IMPRINT_REPAIR.replace(b'<biblScope type="vol">', b'<biblScope unit="vol">')
        assert ok(data).header.file_desc.source.scope("vol") == "3"

    def test_listbib_renamed_with_warning(self):
        data = wrap(
            text=b"<body><div type=\"s\"><p>x</p></div></body>"
            b"<back><div><listBib><biblStruct xml:id=\"b1\"><monogr>"
            b"<title level=\"m\">B</title></monogr></biblStruct></listBib></div></back>"
        )
        assert any("listBib" in w for w in warnings_of(data))
        article = ok(data)
        assert article.reference_list.entries[0].xml_id == "b1"

    def test_multiple_source_records_keep_first(self):
        header = (
            b"<fileDesc><titleStmt><title>T</title></titleStmt>"
            b"<publicationStmt><authority>A</authority></publicationStmt>"
            b"<sourceDesc>"
            b"<biblStruct><monogr><title level=\"m\">First</title></monogr></biblStruct>"
            b"<biblStruct><monogr><title level=\"m\">Second</title></monogr></biblStruct>"
            b"</sourceDesc></fileDesc>"
        )
        data = wrap(header=header)
        assert any("source" in w.lower() for w in warnings_of(data))
        source = ok(data).header.file_desc.source
        assert m.plain_text(source.main_title().text) == "First"

    def test_extra_reference_lists_merged(self):
        back = (
            b"<back><div><listBibl>"
            b"<biblStruct xml:id=\"b1\"><monogr><title level=\"m\">A</title></monogr></biblStruct>"
            b"</listBibl></div><div><listBibl>"
            b"<biblStruct xml:id=\"b2\"><monogr><title level=\"m\">B</title></monogr></biblStruct>"
            b"</listBibl></div></back>"
        )
        data = wrap(text=b"<body><div type=\"s\"><p>x</p></div></body>" + back)
        assert any("merge" in w.lower() or "extra" in w.lower() for w in warnings_of(data))
        ids = [e.xml_id for e in ok(data).reference_list.entries]
        assert ids == ["b1", "b2"]

    def test_stray_body_blocks_wrapped_in_division(self):
        data = wrap(text=b"<body><p>loose paragraph</p></body>")
        assert warnings_of(data)
        body = ok(data).body
        assert len(body) == 1
        assert isinstance(body[0].blocks[0], m.Paragraph)

    def test_unknown_header_element_dropped_with_warning(self):
        header = (
            b"<fileDesc><titleStmt><title>T</title></titleStmt>"
            b"<publicationStmt><authority>A</authority></publicationStmt>"
            b"<mysteryStmt>noise</mysteryStmt></fileDesc>"
        )
        assert any("mysteryStmt" in w for w in warnings_of(wrap(header=header)))


# --------------------------------------------------------------------------
# Every row of tests/repairs.py: the issues its repair reports, its model
# fact, and the parse ∘ serialize fixpoint of its outcome
# --------------------------------------------------------------------------


class TestRepairTable:
    def test_the_base_document_needs_no_repair(self):
        report = parse_article(REPAIR_BASE, "t.xml")
        assert report.ok and report.issues == ()

    @pytest.mark.parametrize("case", sorted(REPAIRS))
    def test_repair(self, case):
        (old, new), issues, fact, value = REPAIRS[case]
        assert REPAIR_BASE.count(old) == 1
        report = parse_article(REPAIR_BASE.replace(old, new, 1), "t.xml")
        assert report.ok
        assert [(i.rule_id, i.severity, i.location, i.message)
                for i in report.issues] == list(issues)
        assert fact(report.outcome) == value
        data = serialize_article(report.outcome)
        again = parse_article(data, "t.xml")
        assert again.ok and again.issues == ()
        assert again.outcome == report.outcome
        assert serialize_article(again.outcome) == data

    def test_every_row_is_a_document_of_the_digest(self, tmp_path):
        # in a child process: the tool turns bytecode writing off in its own
        tools = Path(__file__).resolve().parents[1] / "tools"
        script = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
                  "import digest; digest.write_inputs(Path(sys.argv[2]), 'smoke')")
        subprocess.run([sys.executable, "-c", script, str(tools), str(tmp_path / "work")],
                       check=True, timeout=300)
        written = {path.name: path.read_bytes() for path in (tmp_path / "work/repairs").iterdir()}
        assert "base" not in REPAIRS
        assert written == {"base.xml": REPAIR_BASE, **{
            f"{case}.xml": REPAIR_BASE.replace(old, new, 1)
            for case, ((old, new), *_) in REPAIRS.items()}}


# --------------------------------------------------------------------------
# Issue codes: the parser and the corpus loader write each issue's P-* code
# as a literal at the call site, and every code is one some test expects
# --------------------------------------------------------------------------

_CODE = re.compile(r"P-[A-Za-z]+(-[A-Za-z]+)*")
_REPORTING_CALLS = {"warn", "error", "_error", "Finding"}


def _source_tree(path) -> ast.Module:
    return ast.parse(Path(path).read_text(encoding="utf-8"))


def _written_codes(module) -> set:
    """The code of every issue call in ``module``.  A helper among the issue
    calls passes its ``code`` parameter on, and is checked where it is called."""
    tree = _source_tree(module.__file__)
    forwarded = {id(node) for helper in ast.walk(tree)
                 if isinstance(helper, ast.FunctionDef) and helper.name in _REPORTING_CALLS
                 for node in ast.walk(helper)}
    codes = set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        callee = getattr(call.func, "attr", getattr(call.func, "id", None))
        if callee not in _REPORTING_CALLS:
            continue
        code = call.args[0]
        if isinstance(code, ast.Name) and code.id == "code" and id(call) in forwarded:
            continue
        assert isinstance(code, ast.Constant) and _CODE.fullmatch(code.value), ast.unparse(call)
        codes.add(code.value)
    return codes


class TestIssueCodes:
    def test_every_written_code_is_a_literal_that_a_test_expects(self):
        written = _written_codes(xmlio) | _written_codes(corpus)
        expected = {issue[0] for _, issues, _, _ in REPAIRS.values() for issue in issues}
        expected |= {issue[0] for _, issues in REFUSALS.values() for issue in issues}
        # the load errors, which tests/test_corpus.py expects
        loads = _source_tree(Path(__file__).with_name("test_corpus.py"))
        expected |= {node.value for node in ast.walk(loads) if isinstance(node, ast.Constant)
                     and isinstance(node.value, str) and _CODE.fullmatch(node.value)}
        assert len(written) == 19
        assert written == expected


def test_a_cit_or_figure_kept_verbatim_has_no_child_read(monkeypatch):
    read = []
    for name in ("biblstruct", "rich"):
        def recording(self, node, method=getattr(xmlio._Builder, name)):
            read.append(self.doc.source_path(node))
            return method(self, node)
        monkeypatch.setattr(xmlio._Builder, name, recording)
    (old, new), *_ = REPAIRS["cit-kept-verbatim-reports-nothing"]
    figure = b"<figure><head>A</head><head>B</head></figure>"
    report = parse_article(REPAIR_BASE.replace(old, new + figure, 1), "t.xml")
    assert report.ok and report.issues == ()
    assert [type(block) for block in report.outcome.body[0].blocks] == [
        m.Paragraph, m.OpaqueBlock, m.OpaqueBlock]
    assert _ENTRY in read  # the recording sees the back's record
    assert [path for path in read if "/cit[" in path or "/figure[" in path] == []


class TestCitFixture:
    CIT = wrap(
        text=(
            b"<body><div type=\"s\"><cit>"
            b"<quote>Wer A sagt, der mu\xc3\x9f nicht B sagen. Er kann auch erkennen, "
            b"da\xc3\x9f A falsch war</quote>"
            b"<biblStruct type=\"book\"><monogr>"
            b"<author><persName><forename>Bertolt</forename><surname>Brecht</surname></persName></author>"
            b"<title>Der Jasager und der Neinsager - Vorlagen, Fassungen und Materialien</title>"
            b"<imprint><publisher>Edition Suhrkamp</publisher>"
            b'<date type="Published" when="1981"/></imprint></monogr>'
            b'<idno type="ISBN">9783518101711</idno></biblStruct>'
            b"</cit></div></body>"
        )
    )

    def test_embedded_source_parsed(self):
        article = ok(self.CIT)
        cit = article.body[0].blocks[0]
        assert isinstance(cit, m.CitBlock)
        assert m.plain_text(cit.quote).startswith("Wer A sagt")
        source = cit.source
        assert source.monogr.authors[0].surname == "Brecht"
        assert source.identifier("isbn") == "9783518101711"
        # The non-canonical "Published" role token is folded silently.
        assert source.monogr.imprint.date_role == "published"
        assert not warnings_of(self.CIT)

    def test_cit_with_pointer_source(self):
        data = wrap(
            text=b"<body><div type=\"s\"><cit><quote>Q</quote>"
            b"<ref type=\"bibr\" target=\"#b1\"/></cit></div></body>"
        )
        cit = ok(data).body[0].blocks[0]
        assert cit.source == "#b1"


class TestOpaque:
    def test_unknown_text_element_preserved_verbatim(self):
        markup = b'<lg met="x"><l>one</l><l>two</l></lg>'
        data = wrap(text=b"<body><div type=\"s\">" + markup + b"</div></body>")
        block = ok(data).body[0].blocks[0]
        assert isinstance(block, m.OpaqueBlock)
        assert block.markup == markup.decode("utf-8")
        assert markup in serialize_article(ok(data))

    def test_foreign_inline_preserved_with_namespace(self):
        data = wrap(
            text=b'<body xmlns:mml="http://www.w3.org/1998/Math/MathML">'
            b"<div type=\"s\"><p>x <mml:math><mml:mi>a</mml:mi></mml:math> y</p></div></body>"
        )
        article = ok(data)
        inline = article.body[0].blocks[0].content[1]
        assert isinstance(inline, m.OpaqueInline)
        assert "mml:math" in inline.markup
        again = parse_article(serialize_article(article), "t.xml")
        assert again.ok, again.issues
        assert again.outcome == article

    def test_table_markup_preserved(self):
        table = b"<table rows=\"1\"><row><cell>v</cell></row></table>"
        data = wrap(
            text=b"<body><div type=\"s\"><figure type=\"table\"><head>Caption</head>"
            + table
            + b"</figure></div></body>"
        )
        block = ok(data).body[0].blocks[0]
        assert isinstance(block, m.TableBlock)
        assert m.plain_text(block.caption) == "Caption"
        assert table in serialize_article(ok(data))


class TestCanonicalSerialization:
    def test_attributes_alphabetical(self):
        data = serialize_article(parse_skeleton())
        assert b'<title level="a" type="main">' in data
        assert b'<biblScope type="vol">17</biblScope>' in data

    def test_empty_front_back_omitted_body_kept(self):
        article = ok(wrap())
        data = serialize_article(article)
        assert b"<front>" not in data
        assert b"<back>" not in data
        assert b"<body>" in data
        empty_body = dataclasses.replace(article, body=())
        assert b"<body/>" in serialize_article(empty_body)

    def test_back_shell_around_reference_list_dropped(self):
        data = wrap(
            text=b'<body/><back><div type="bibliography"><listBibl>'
            b'<biblStruct xml:id="b1"><monogr><title level="m">B</title>'
            b"</monogr></biblStruct></listBibl></div></back>"
        )
        out = serialize_article(ok(data))
        assert b"<listBibl>" in out
        assert b'<div type="bibliography"' not in out

    def test_reference_list_inside_back_paragraph_stays_put(self):
        # Only lists directly in back or in its divs join the reference list;
        # one inside a paragraph stays there, so re-parsing adds no entries.
        data = wrap(
            text=b'<body/><back><div type="notes"><p>See <listBibl>'
            b'<biblStruct xml:id="b1"><monogr><title level="m">B</title>'
            b"</monogr></biblStruct></listBibl></p></div><listBibl>"
            b'<biblStruct xml:id="b2"><monogr><title level="m">C</title>'
            b"</monogr></biblStruct></listBibl></back>"
        )
        rounds = []
        for _ in range(3):
            article = ok(data)
            data = serialize_article(article)
            rounds.append((data, len(article.back.reference_list.entries)))
        assert rounds[0] == rounds[1] == rounds[2]
        assert rounds[0][1] == 1
        assert b'<p>See <listBibl><biblStruct xml:id="b1">' in data

    def test_empty_body_div_kept(self):
        out = serialize_article(ok(wrap(text=b"<body><div/></body>")))
        assert b'<div type="section"/>' in out

    def test_serialization_byte_stable(self):
        for fixture in (SKELETON, IMPRINT_REPAIR, TestCitFixture.CIT):
            once = serialize_article(ok(fixture))
            twice = serialize_article(ok(once))
            assert once == twice

    def test_declaration_and_trailing_newline(self):
        data = serialize_article(parse_skeleton())
        assert data.startswith(b'<?xml version="1.0" encoding="UTF-8"?>\n')
        assert data.endswith(b"\n")


_PARA = (m.Paragraph((m.TextRun("x"),)),)
_BOOK = (m.Title((m.TextRun("T"),), level="m"),)


def _with_entry(entry: m.BiblStruct) -> m.Article:
    return m.Article(body=(m.Division(blocks=_PARA),),
                     back=m.BackMatter(reference_list=m.ListBibl((entry,))))


def _with_author(author: m.Author) -> m.Article:
    return _with_entry(m.BiblStruct(xml_id="b1", monogr=m.Monogr(titles=_BOOK, authors=(author,))))


def _in_para(node) -> m.Article:
    return m.Article(body=(m.Division(blocks=(m.Paragraph((node,)),)),))


# Every element the serializer can write with no content, and its exact form:
# fourteen are self-closed and three are a start and an end tag on one line.
EMPTY_FORMS = {
    "fileDesc": (m.Article(body=(m.Division(blocks=_PARA),)),
                 b"\n  <teiHeader>\n    <fileDesc/>\n  </teiHeader>\n"),
    "body": (m.Article(), b"\n  <text>\n    <body/>\n  </text>\n"),
    "div": (m.Article(body=(m.Division(),)), b'\n    <body>\n      <div type="section"/>\n'),
    "listBibl": (m.Article(body=(m.Division(blocks=_PARA),),
                           back=m.BackMatter(reference_list=m.ListBibl())),
                 b"\n    <back>\n      <listBibl/>\n    </back>\n"),
    "monogr": (_with_entry(m.BiblStruct(xml_id="b1", analytic=m.Analytic(titles=_BOOK))),
               b"\n          </analytic>\n          <monogr/>\n        </biblStruct>\n"),
    "author": (_with_author(m.Author()), b"\n          <monogr>\n            <author/>\n"),
    "affiliation": (_with_author(m.Author(surname="S", affiliation=m.Affiliation())),
                    b"\n              </persName>\n              <affiliation/>\n"
                    b"            </author>\n"),
    "analytic": (_with_entry(m.BiblStruct(xml_id="b1", analytic=m.Analytic(),
                                          monogr=m.Monogr(titles=_BOOK))),
                 b"\n          <analytic/>\n          <monogr>\n"),
    "figure": (m.Article(body=(m.Division(blocks=(m.FigureBlock(),)),)),
               b'\n      <div type="section">\n        <figure/>\n      </div>\n'),
    "list": (m.Article(body=(m.Division(blocks=(m.ListBlock(),)),)),
             b'\n      <div type="section">\n        <list/>\n      </div>\n'),
    "idno": (_with_entry(m.BiblStruct(xml_id="b1", monogr=m.Monogr(titles=_BOOK),
                                      identifiers=(m.Identifier("doi", ""),))),
             b'\n          </monogr>\n          <idno type="doi"/>\n        </biblStruct>\n'),
    "address": (_with_author(m.Author(surname="S",
                                      affiliation=m.Affiliation(address=m.Address()))),
                b"\n              <affiliation>\n                <address/>\n"
                b"              </affiliation>\n"),
    "ref": (_in_para(m.BiblRef("#b1")), b'\n        <p><ref target="#b1" type="bibr"/></p>\n'),
    "ptr": (_in_para(m.Link("http://x")), b'\n        <p><ptr target="http://x"/></p>\n'),
    "persName": (_in_para(m.PersonMention("")), b"\n        <p><persName></persName></p>\n"),
    "hi": (_in_para(m.Emph("italic", ())), b'\n        <p><hi rend="italic"></hi></p>\n'),
    "abbr": (_in_para(m.AbbrMention("")), b"\n        <p><abbr></abbr></p>\n"),
}


class TestEmptyForms:
    @pytest.mark.parametrize("name", sorted(EMPTY_FORMS))
    def test_exact_bytes_and_fixpoint(self, name):
        article, form = EMPTY_FORMS[name]
        data = serialize_article(article)
        assert form in data
        report = parse_article(data, None)
        assert report.ok and not report.issues, report.issues
        assert report.outcome == article
        assert serialize_article(report.outcome) == data


class TestRoundTrip:
    @pytest.mark.parametrize(
        "fixture", [SKELETON, IMPRINT_REPAIR, TestCitFixture.CIT], ids=["skeleton", "imprint", "cit"]
    )
    def test_model_fixpoint(self, fixture):
        article = ok(fixture)
        again = parse_article(serialize_article(article), "t.xml")
        assert again.ok, again.issues
        assert again.outcome == article

    def test_id_derived_from_doi(self):
        assert parse_skeleton().id == "10.1038/ejhg.2009.77"

    def test_id_falls_back_to_stem(self):
        report = parse_article(wrap(), "dir/stem-name.xml")
        assert report.outcome.id == "stem-name"


# Characters legal in XML 1.0 document content.
_xml_chars = st.characters(
    codec="utf-8",
    exclude_characters="".join(chr(c) for c in range(0x20) if chr(c) not in "\t\n\r") + "￾￿",
)
_xml_text = st.text(_xml_chars, min_size=1)


_collapsed_text = st.text(_xml_chars).map(lambda t: " ".join(t.split()))
_attr_value = st.none() | _xml_text


def _merge_runs(content: list) -> tuple:
    # Adjacent text runs parse back as one.
    out: list = []
    for node in content:
        if out and isinstance(node, m.TextRun) and isinstance(out[-1], m.TextRun):
            node = m.TextRun(out[-1].text + node.text)
            out.pop()
        out.append(node)
    return tuple(out)


def _rich(inline, min_size=0):
    return st.lists(_xml_text.map(m.TextRun) | inline, min_size=min_size, max_size=3).map(_merge_runs)


# Every inline kind, drawn so the builder reads each value back unchanged: a
# Link target starting with "#" would read back as a BiblRef, and mention and
# abbreviation text is read with its whitespace collapsed.
_inline = st.recursive(
    st.one_of(
        st.builds(m.BiblRef, st.text(_xml_chars), st.text(_xml_chars)),
        st.builds(m.Link, st.text(_xml_chars).filter(lambda t: not t.startswith("#")),
                  st.text(_xml_chars)),
        *(st.builds(cls, _collapsed_text, _attr_value)
          for cls in (m.PersonMention, m.OrgMention, m.PlaceMention, m.TermMention)),
        st.builds(m.AbbrMention, _collapsed_text, st.none() | _collapsed_text),
    ),
    lambda inline: st.builds(m.Emph, st.sampled_from(["", "italic", "bold"]), _rich(inline)),
    max_leaves=6,
)


# The other blocks whose elements hold rich text; a cit's source is a "#id"
# pointer, written as a ref.
_blocks = st.one_of(
    st.builds(m.QuoteBlock, _rich(_inline)),
    st.builds(m.ListBlock, st.lists(_rich(_inline), max_size=3).map(tuple)),
    st.builds(m.FigureBlock, st.none() | st.text(_xml_chars), _rich(_inline)),
    st.builds(m.CitBlock, _rich(_inline), st.text(_xml_chars).map("#".__add__), _rich(_inline)),
)


@st.composite
def _articles(draw):
    blocks = (m.Paragraph(draw(_rich(_inline, min_size=1))),
              *draw(st.lists(_blocks, max_size=3)))
    head = draw(st.one_of(st.just(()), st.tuples(st.just(m.TextRun("Heading")))))
    division = m.Division(kind="section", head=head, blocks=blocks)
    title = draw(_collapsed_text.filter(bool))
    fd = m.FileDesc(main_title=(m.TextRun(title),))
    return m.Article(header=m.Header(file_desc=fd), body=(division,))


# A start-tag line followed by its own end tag on the next line.
_EMPTY_PAIR = re.compile(rb"^( *)<([^\s/>]+)(?: [^\n]*)?>\n\1</\2>$", re.M)


class TestRoundTripProperties:
    @settings(deadline=None)
    @given(_articles())
    def test_handbuilt_models_are_fixpoints(self, article):
        data = serialize_article(article)
        report = parse_article(data, None)
        assert report.ok, (report.issues, data)
        assert report.outcome == article
        assert serialize_article(report.outcome) == data
        # An element with no content is written self-closed.
        assert _EMPTY_PAIR.search(data) is None, data

    @settings(max_examples=30, deadline=None)
    @given(st.text(_xml_chars, min_size=0, max_size=40))
    def test_attribute_values_round_trip(self, value):
        division = m.Division(kind="section", blocks=(m.Paragraph((m.Emph(value, (m.TextRun("x"),)),)),))
        article = m.Article(body=(division,))
        report = parse_article(serialize_article(article), None)
        assert report.ok
        assert report.outcome == article


# Reference entries for _cited_articles: one titled at the analytic level,
# one with a custom identifier, one with no main title (its fallback entry).
_RECORDS = (
    m.BiblStruct(m.DocumentType("journalArticle"),
                 m.Analytic((m.Title((m.TextRun(" An  <> article "),), "a"),),
                            (m.Author("Lee", ("Ann Marie",)), m.Author("Park", ("Jo",)))),
                 m.Monogr((m.Title((m.TextRun("Journal"),), "j"),),
                          imprint=m.Imprint(date=m.CalendarDate(2001),
                                            scopes=(m.Scope("fpage", "3"), m.Scope("lpage", "9")))),
                 xml_id="b0"),
    m.BiblStruct(m.DocumentType("book"), None,
                 m.Monogr((m.Title((m.Emph("italic", (m.TextRun("Book"),)),), "m"),),
                          (m.Author("Writer"),), imprint=m.Imprint("Pub", "Oslo")),
                 (m.Identifier("doi", "10.1/x"),), xml_id="b1"),
    m.BiblStruct(m.DocumentType("book"), None,
                 m.Monogr((m.Title((m.TextRun("Sub"),), "m", "sub"),)), xml_id="b2"),
)


@st.composite
def _cited_articles(draw):
    """A hand-built article with a reference list that its markers, in the
    main title and the divisions, a cit's pointer and a cit's embedded
    record cite."""
    article = draw(_articles())
    targets = st.sampled_from(["#b0", "#b1", "#b2", "#nope", ""])
    refs = draw(st.lists(st.builds(m.BiblRef, targets, st.text(_xml_chars, max_size=3)),
                         min_size=1, max_size=4))
    cits = (m.CitBlock((m.TextRun("q"),), draw(targets)),
            m.CitBlock((m.TextRun("r"),), draw(st.sampled_from(_RECORDS)), tuple(refs[:1])))
    cited = m.Division(head=tuple(refs[1:]), blocks=(m.Paragraph(tuple(refs)), *cits))
    entries = draw(st.lists(st.sampled_from(_RECORDS), max_size=4))
    file_desc = dataclasses.replace(article.header.file_desc, main_title=tuple(refs))
    return dataclasses.replace(
        article, header=dataclasses.replace(article.header, file_desc=file_desc),
        front=(cited,), back=m.BackMatter((cited,), m.ListBibl(tuple(entries))))


def _pages():
    """The four pages of an article as the benchmark renders them."""
    return [*(lambda a, s=builtin_style(name): render_xhtml(a, s) for name in BUILTIN_STYLES),
            render_plaintext]


class TestPageProperties:
    @settings(deadline=None)
    @given(_articles())
    def test_handbuilt_models_render_well_formed_pages(self, article):
        ET.fromstring(render_xhtml(article, builtin_style("apa")))
        assert render_plaintext(article).endswith("\n")

    @settings(deadline=None)
    @given(_cited_articles(), st.permutations(range(4)))
    def test_pages_in_any_order_equal_those_of_memo_free_twins(self, article, order):
        # each page after the first reads what the earlier ones kept in the
        # article; a deep copy is rebuilt through __init__ with no memos
        pages = _pages()
        rendered = {i: pages[i](article) for i in order}
        assert article.__dict__.keys() >= {"_entry_values", "_rendered_entries", "_shared_html"}
        for i in order:
            twin = copy.deepcopy(article)
            assert not twin.__dict__
            assert pages[i](twin) == rendered[i]


class TestTreeMutants:
    # 1.4-3.8 % of mutants carry the value 'a"b' into the model, so 500
    # examples miss an unescaped quote in under 1 run in 1,000.
    @settings(max_examples=500, deadline=None)
    @given(support.tree_mutants())
    def test_accepted_mutants_are_fixpoints_with_well_formed_pages(self, data):
        report = parse_article(data, "mutant.xml")
        assert all(type(i) is Finding and _CODE.fullmatch(i.rule_id) for i in report.issues)
        if not report.ok:
            return
        canonical = serialize_article(report.outcome)
        again = parse_article(canonical, "mutant.xml")
        assert again.ok and not again.issues, again.issues
        assert again.outcome == report.outcome
        assert serialize_article(again.outcome) == canonical
        for name in BUILTIN_STYLES:
            ET.fromstring(render_xhtml(report.outcome, builtin_style(name)))
        assert render_plaintext(report.outcome).endswith("\n")


class TestNoSilentDrop:
    """The model holds every element once or more, or reports the ones it
    drops: the first of a child it holds once is kept, later ones are
    reported, and body content is kept verbatim."""

    @pytest.mark.parametrize("base", range(len(support.MUTANT_BASES)))
    def test_a_duplicate_changes_the_model_or_is_reported_where_it_stands(self, base):
        data, mutants = support.duplicates(support.MUTANT_BASES[base])
        original = parse_article(data, "t.xml").outcome
        assert original == parse_article(support.MUTANT_BASES[base], "t.xml").outcome
        silent = []
        for path, mutant in mutants:
            report = parse_article(mutant, "t.xml")
            assert report.ok, path
            if report.outcome == original and path not in {i.location for i in report.issues}:
                silent.append(path)
        assert silent == []
        assert len(mutants) > 70  # every element below the root


# Text rich in the characters the escapers replace, around any other.
_SPECIAL = st.sampled_from("&<>\"'\t\r\n\\")
_escapable = st.text(_SPECIAL | st.characters())
_xml_escapable = st.text(_SPECIAL | _xml_chars)
_attr_names = st.text(st.sampled_from("abkxy:-"), min_size=1, max_size=4)
_attr_dicts = st.one_of(
    st.just({}),
    st.dictionaries(_attr_names, st.none(), min_size=1, max_size=3),
    st.dictionaries(_attr_names, st.none() | _escapable | st.integers(), max_size=4),
)


class TestEscapes:
    """The escapers replace only the characters present; the chained
    replaces in ``support`` are their oracle."""

    @given(_escapable)
    def test_fast_escapes_equal_their_oracles(self, text):
        assert xmlio._esc(text) == support.chained_esc(text)
        assert xmlio._esc_attr(text) == support.chained_esc_attr(text)
        assert render.escape_text(text) == support.chained_escape_text(text)
        assert render._escape_attr(text) == support.chained_escape_attr(text)
        assert schema._encode_attr(text) == support.chained_encode_attr(text)
        assert cli._escape_field(text) == support.chained_escape_field(text)

    def test_escaper_applies_its_pairs_in_order_and_only_when_present(self):
        amp_first = escaper(("&", "&amp;"), ("<", "&lt;"))
        assert amp_first("a<b&c") == "a&lt;b&amp;c"  # not a&amp;lt;b
        assert escaper(("<", "&lt;"), ("&", "&amp;"))("<") == "&amp;lt;"
        text = "no specials here"
        assert amp_first(text) is text
        assert escaper()("a&b") == "a&b"

    @given(st.sampled_from(["p", "hi", "ref"]), _attr_dicts, st.booleans())
    def test_tag_equals_its_oracle(self, name, attrs, close):
        assert xmlio._tag(name, attrs, close) == support.chained_tag(name, attrs, close)

    @given(_xml_escapable, _xml_escapable)
    def test_escaped_text_and_attribute_read_back_exactly(self, text, value):
        root = ET.fromstring(f'<e k="{xmlio._esc_attr(value)}">{xmlio._esc(text)}</e>')
        assert (root.text or "", root.get("k")) == (text, value)


# Every inline and block class, with both element names of Link and of
# AbbrMention, so each element the serializer's inline description names is
# walked.
EVERY_CLASS = wrap(
    text=b'<body><div type="s"><head>H <hi>h</hi></head>'
    b'<p>a <hi rend="i">b <persName key="k">P</persName></hi>'
    b'<ref type="bibr" target="#b1">1</ref><ref target="http://x">L</ref>'
    b'<ptr target="http://y"/><persName>Q</persName><orgName>O</orgName>'
    b'<placeName>Pl</placeName><term type="software">S</term><term>T</term>'
    b"<abbr>A</abbr><choice><abbr>B</abbr><expan>Bee</expan></choice>"
    b"<unknown>u</unknown></p>"
    b'<cit><quote>q <orgName>O</orgName></quote><biblStruct type="book">'
    b'<monogr><title level="m">M</title></monogr></biblStruct>'
    b"<note>n <abbr>N</abbr></note></cit>"
    b'<figure><head>F <term>f</term></head><graphic url="u.png"/></figure>'
    b"<table><head>T <placeName>t</placeName></head><row/></table>"
    b'<formula notation="tex">x</formula>'
    b"<list><item>i <persName>I</persName></item><item>j</item></list>"
    b"<quote>qq <abbr>Q</abbr></quote><lg>l</lg><div/></div></body>"
)
EVERY_CLASS_TYPES = {
    m.Emph, m.BiblRef, m.Link, m.PersonMention, m.OrgMention, m.PlaceMention,
    m.TermMention, m.AbbrMention, m.OpaqueInline, m.Paragraph, m.CitBlock,
    m.FigureBlock, m.TableBlock, m.FormulaBlock, m.ListBlock, m.QuoteBlock,
    m.OpaqueBlock,
}


class TestModelPaths:
    def test_paths_unique_and_rooted(self):
        pairs = iter_model_paths(parse_skeleton())
        paths = [p for p, _ in pairs]
        assert len(paths) == len(set(paths))
        assert all(p.startswith("TEI[1]/") for p in paths)

    def test_mentions_get_sibling_indexes(self):
        data = wrap(
            text=b"<body><div type=\"s\"><p><persName>A</persName> and "
            b"<persName>B</persName></p></div></body>"
        )
        pairs = iter_model_paths(ok(data))
        person_paths = [p for p, n in pairs if isinstance(n, m.PersonMention)]
        assert person_paths == [
            "TEI[1]/text[1]/body[1]/div[1]/p[1]/persName[1]",
            "TEI[1]/text[1]/body[1]/div[1]/p[1]/persName[2]",
        ]

    def test_covers_header_and_references(self):
        pairs = iter_model_paths(parse_skeleton())
        nodes = [n for _, n in pairs]
        assert any(isinstance(n, m.Keyword) for n in nodes)
        assert any(isinstance(n, m.Author) for n in nodes)
        assert any(isinstance(n, m.BiblStruct) for n in nodes)
        assert any(isinstance(n, m.Change) for n in nodes)

    @settings(deadline=None)
    @given(_articles())
    def test_paths_match_serialized_tree(self, generated):
        # Paths name real elements of the canonical output, in document order.
        for article in (parse_skeleton(), ok(EVERY_CLASS), generated):
            root = parse_raw(serialize_article(article)).root
            order = {element: i for i, element in enumerate(root.iter())}

            def resolve(path: str):
                node = root
                for step in path.split("/")[1:]:
                    name, _, index = step.partition("[")
                    wanted = int(index.rstrip("]"))
                    found = [c for c in node if c.tag == name]
                    if len(found) < wanted:
                        return None
                    node = found[wanted - 1]
                return node

            resolved = [resolve(p) for p, _ in iter_model_paths(article)]
            assert None not in resolved
            positions = [order[element] for element in resolved]
            assert positions == sorted(set(positions))
        walked = {type(n) for _, n in iter_model_paths(ok(EVERY_CLASS))}
        assert walked >= EVERY_CLASS_TYPES
