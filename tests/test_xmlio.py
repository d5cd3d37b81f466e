"""Parse/serialize: fixtures, repairs, refusals, and round-trip laws."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teijournal import model as m
from teijournal.rawxml import RawXmlError, parse_raw
from teijournal.xmlio import iter_model_paths, parse_article, serialize_article

from support import SKELETON, parse_skeleton

TEI = b'<TEI xmlns="http://www.tei-c.org/ns/1.0">'


def wrap(header: bytes = b"", text: bytes = b"<body><div type=\"s\"><p>x</p></div></body>") -> bytes:
    header_block = header or (
        b"<fileDesc><titleStmt><title level=\"a\" type=\"main\">T</title></titleStmt>"
        b"<publicationStmt><authority>A</authority></publicationStmt></fileDesc>"
    )
    return (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        + TEI
        + b"<teiHeader>"
        + header_block
        + b"</teiHeader><text>"
        + text
        + b"</text></TEI>\n"
    )


def ok(data: bytes) -> m.Article:
    report = parse_article(data, "t.xml")
    assert report.ok, report.issues
    return report.outcome


def warnings_of(data: bytes) -> list:
    report = parse_article(data, "t.xml")
    assert report.ok, report.issues
    return [i.message for i in report.warnings()]


class TestRefusals:
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


# Every element the serializer can write with no content, and its exact form:
# seven are self-closed, four are a start and an end tag on two lines.
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
                 b"\n          <analytic>\n          </analytic>\n"),
    "figure": (m.Article(body=(m.Division(blocks=(m.FigureBlock(),)),)),
               b"\n        <figure>\n        </figure>\n"),
    "list": (m.Article(body=(m.Division(blocks=(m.ListBlock(),)),)),
             b"\n        <list>\n        </list>\n"),
    "address": (_with_author(m.Author(surname="S",
                                      affiliation=m.Affiliation(address=m.Address()))),
                b"\n              <affiliation>\n                <address>\n"
                b"                </address>\n              </affiliation>\n"),
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


@st.composite
def _articles(draw):
    runs = draw(st.lists(_xml_text, min_size=1, max_size=3))
    content = []
    for i, text in enumerate(runs):
        if i % 2:
            content.append(m.Emph(draw(st.sampled_from(["italic", "bold"])), (m.TextRun(text),)))
        else:
            content.append(m.TextRun(text))
    blocks = (m.Paragraph(tuple(content)),)
    head = draw(st.one_of(st.just(()), st.tuples(st.just(m.TextRun("Heading")))))
    division = m.Division(kind="section", head=head, blocks=blocks)
    title = draw(_xml_text.map(lambda t: " ".join(t.split())).filter(bool))
    fd = m.FileDesc(main_title=(m.TextRun(title),))
    return m.Article(header=m.Header(file_desc=fd), body=(division,))


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(_articles())
    def test_handbuilt_models_are_fixpoints(self, article):
        data = serialize_article(article)
        report = parse_article(data, None)
        assert report.ok, (report.issues, data)
        assert report.outcome == article
        assert serialize_article(report.outcome) == data

    @settings(max_examples=30, deadline=None)
    @given(st.text(_xml_chars, min_size=0, max_size=40))
    def test_attribute_values_round_trip(self, value):
        division = m.Division(kind="section", blocks=(m.Paragraph((m.Emph(value, (m.TextRun("x"),)),)),))
        article = m.Article(body=(division,))
        report = parse_article(serialize_article(article), None)
        assert report.ok
        assert report.outcome == article


# Every inline and block class, with both element names of Link and of
# AbbrMention, so each entry of the serializer's node-kind table is walked.
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

    @settings(max_examples=30, deadline=None)
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
