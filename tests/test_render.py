"""Citation-style rendering: entries, reference lists, XHTML, plain text."""

import dataclasses
import json
import re
import textwrap
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teijournal import model as m
from teijournal.render import (
    BUILTIN_STYLES,
    RenderedEntry,
    Segment,
    Span,
    StyleError,
    StyleGuide,
    _format_entries,
    _number_entries,
    _tidy_runs,
    _wrap,
    bare_entry_text,
    builtin_style,
    citation_order,
    element,
    entry_or_fallback,
    entry_sort_key,
    escape_text,
    format_authors,
    format_entry,
    get_style,
    render_plaintext,
    render_xhtml,
    style_from_dict,
    xhtml_page,
)
from teijournal.validator import validate
from teijournal.xmlio import parse_article

from support import (
    article_bytes,
    brecht_book_record,
    dean_article_record,
    schmidt_chapter_record,
)

XHTML_NS = "http://www.w3.org/1999/xhtml"


def author(surname, *forenames):
    return m.Author(surname=surname, forenames=forenames)


def minimal_style(**overrides) -> StyleGuide:
    raw = {
        "id": "test",
        "marker_scheme": "numeric-bracket",
        "list_order": "citation-order",
        "author_name_format": "surname-first-full",
        "layouts": {
            "unknown": [
                {"path": "authors", "suffix": ". "},
                {"path": "title", "typography": "italic", "suffix": ". "},
                {"path": "year", "suffix": "."},
            ]
        },
    }
    raw.update(overrides)
    return style_from_dict(raw)


class TestGoldenEntries:
    """One pinned string per built-in style and record type."""

    def golden(self, record, style_id, expected):
        assert format_entry(record, builtin_style(style_id)).marked() == expected

    def test_chicago_book(self):
        self.golden(
            brecht_book_record(),
            "chicago",
            "Brecht, Bertolt. *Der Jasager und der Neinsager - Vorlagen, "
            "Fassungen und Materialien*. Edition Suhrkamp, 1981.",
        )

    def test_apa_book(self):
        self.golden(
            brecht_book_record(),
            "apa",
            "Brecht, B. (1981). *Der Jasager und der Neinsager - Vorlagen, "
            "Fassungen und Materialien*. Edition Suhrkamp.",
        )

    def test_mla_book(self):
        self.golden(
            brecht_book_record(),
            "mla",
            "Brecht, Bertolt. *Der Jasager und der Neinsager - Vorlagen, "
            "Fassungen und Materialien*. Edition Suhrkamp, 1981.",
        )

    def test_apa_journal_article(self):
        self.golden(
            dean_article_record(),
            "apa",
            "Dean, M. (2009). Multilocus Analysis of Age Related Macular "
            "Degeneration. *European Journal of Human Genetics*, *17*(6), "
            "774–780. https://doi.org/10.1038/ejhg.2009.77",
        )

    def test_chicago_journal_article(self):
        self.golden(
            dean_article_record(),
            "chicago",
            'Dean, Michael. "Multilocus Analysis of Age Related Macular '
            'Degeneration". *European Journal of Human Genetics* 17, no. 6 '
            "(2009): 774–780. https://doi.org/10.1038/ejhg.2009.77.",
        )

    def test_mla_journal_article(self):
        self.golden(
            dean_article_record(),
            "mla",
            'Dean, Michael. "Multilocus Analysis of Age Related Macular '
            'Degeneration". *European Journal of Human Genetics*, vol. 17, '
            "no. 6, 2009, pp. 774–780.",
        )

    def test_apa_book_section(self):
        self.golden(
            schmidt_chapter_record(),
            "apa",
            "Schmidt, A. (2005). Editorial Workflows for Journals. In Janet "
            "Wilson (Ed.), *Handbook of Journal Publishing* (pp. 45–67). "
            "Academic Press.",
        )

    def test_chicago_book_section(self):
        self.golden(
            schmidt_chapter_record(),
            "chicago",
            'Schmidt, Anna. "Editorial Workflows for Journals". In *Handbook '
            "of Journal Publishing*, edited by Janet Wilson, 45–67. "
            "Academic Press, 2005.",
        )

    def test_mla_book_section(self):
        self.golden(
            schmidt_chapter_record(),
            "mla",
            'Schmidt, Anna. "Editorial Workflows for Journals". *Handbook of '
            "Journal Publishing*, edited by Janet Wilson, Academic Press, "
            "2005, pp. 45–67.",
        )


class TestAuthors:
    ONE = (author("Dean", "Michael"),)
    TWO = ONE + (author("Smith", "Jane"),)
    THREE = TWO + (author("Özdemir", "Bob"),)

    def test_initials(self):
        assert format_authors(self.ONE, "surname-first-initials") == "Dean, M."
        assert format_authors(self.TWO, "surname-first-initials") == "Dean, M., & Smith, J."
        assert (
            format_authors(self.THREE, "surname-first-initials")
            == "Dean, M., Smith, J., & Özdemir, B."
        )

    def test_full_surname_first_only_leads(self):
        assert format_authors(self.ONE, "surname-first-full") == "Dean, Michael"
        assert format_authors(self.TWO, "surname-first-full") == "Dean, Michael and Jane Smith"
        assert (
            format_authors(self.THREE, "surname-first-full")
            == "Dean, Michael, Jane Smith, and Bob Özdemir"
        )

    def test_as_encoded(self):
        assert format_authors(self.THREE, "as-encoded") == (
            "Michael Dean, Jane Smith, Bob Özdemir"
        )

    def test_org_author_never_inverted(self):
        org = (m.Author(surname="The Animal Consortium"),)
        for fmt in ("surname-first-initials", "surname-first-full", "as-encoded"):
            assert format_authors(org, fmt) == "The Animal Consortium"

    def test_hyphenated_forename_initials(self):
        authors = (author("Lee", "Mei-Ling Ann"),)
        # Initials split on spaces only; hyphenated parts keep one initial.
        assert format_authors(authors, "surname-first-initials") == "Lee, M. A."


class TestEntryBasics:
    def test_sort_key_is_style_independent(self):
        key = entry_sort_key(brecht_book_record())
        assert key == (
            "brecht",
            1981,
            "der jasager und der neinsager - vorlagen, fassungen und materialien",
        )

    def test_untitled_record_raises(self):
        record = m.BiblStruct(
            doc_type=m.DocumentType("book"), monogr=m.Monogr(), xml_id="b9"
        )
        with pytest.raises(StyleError, match="b9"):
            format_entry(record, builtin_style("chicago"))

    def test_entry_spans_are_tidy(self):
        entry = format_entry(brecht_book_record(), builtin_style("chicago"))
        assert isinstance(entry, RenderedEntry)
        assert all(span.text for span in entry.spans)
        assert not entry.spans[0].text.startswith(" ")
        assert not entry.spans[-1].text.endswith(" ")
        assert Span("*", "plain") not in entry.spans  # markers come from marked()

    def test_missing_field_omitted(self):
        record = brecht_book_record()
        bare = dataclasses.replace(
            record,
            monogr=dataclasses.replace(
                record.monogr,
                imprint=dataclasses.replace(record.monogr.imprint, publisher=None),
            ),
        )
        text = format_entry(bare, builtin_style("chicago")).marked()
        assert "Edition Suhrkamp" not in text
        assert text.endswith("1981.")

    def test_bare_entry_text(self):
        assert bare_entry_text(brecht_book_record()) == (
            "Bertolt Brecht. Der Jasager und der Neinsager - Vorlagen, "
            "Fassungen und Materialien. 1981."
        )

    def test_authors_without_surnames_cite_by_title(self):
        record = m.BiblStruct(
            doc_type=m.DocumentType("book"),
            monogr=m.Monogr(
                titles=(m.Title((m.TextRun("Nameless Work Here Too"),), "m"),),
                authors=(author("", "Ann"), author("", "Bo")),
                imprint=m.Imprint(date=m.CalendarDate(1999)),
            ),
        )
        assert format_entry(record, builtin_style("apa")).cite_text == (
            "Nameless Work Here 1999"
        )


def tidy_spans_oracle(spans: list) -> list:
    """The span tidier that ``_tidy_runs`` replaced, kept as its oracle:
    trim outer whitespace, drop empties, merge adjacent plain runs."""
    merged: list[Span] = []
    for span in spans:
        if not span.text:
            continue
        if merged and merged[-1].typography == span.typography == "plain":
            merged[-1] = Span(merged[-1].text + span.text)
        else:
            merged.append(span)
    while merged:
        lead = merged[0].text.lstrip()
        if lead:
            merged[0] = Span(lead, merged[0].typography)
            break
        merged.pop(0)
    while merged:
        tail = merged[-1].text.rstrip()
        if tail:
            merged[-1] = Span(tail, merged[-1].typography)
            break
        merged.pop()
    return merged


#: A layout segment as format_entry lays it out: prefix, value, suffix.
TIDY_SEGMENTS = st.tuples(
    st.sampled_from(("", " ", "  ", "(", ". ", " — ")),
    st.sampled_from(("", " ", "a", " a b ", "\u00a0x\t")),
    st.sampled_from(("plain", "italic", "quoted")),
    st.sampled_from(("", " ", ".", ", ", ". ", ") ")),
)


class TestTidyRunsOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TIDY_SEGMENTS, max_size=8))
    def test_matches_the_span_tidier(self, segments):
        runs = [
            run
            for prefix, value, typography, suffix in segments
            for run in ((prefix, "plain"), (value, typography), (suffix, "plain"))
        ]
        expected = tidy_spans_oracle([Span(text, typography) for text, typography in runs])
        assert _tidy_runs(runs) == tuple(expected)


def _main(text, level="m", type="main"):
    return m.Title((m.TextRun(text),), level, type)


class TestEveryField:
    """A layout that addresses every accepted path, each value marked
    ``path=``, over records that take each branch of the field lookup."""

    PATHS = (
        "authors", "monogr.authors", "title", "analytic.title", "monogr.title",
        "imprint.publisher", "imprint.pub_place", "year", "pages", "issn",
        *(f"scopes.{kind}" for kind in m.SCOPE_KINDS), "identifiers.doi",
    )

    def style(self):
        segments = [{"path": p, "prefix": f"{p}=", "suffix": "; "} for p in self.PATHS]
        segments[2]["typography"] = "italic"
        segments[3]["typography"] = "quoted"
        segments[9]["omit_if_absent"] = False  # issn
        return minimal_style(layouts={"unknown": segments})

    def scopes(self, **kinds):
        return tuple(m.Scope(kind, value) for kind, value in kinds.items())

    def test_three_names_and_a_first_page_only(self):
        record = m.BiblStruct(
            analytic=m.Analytic(
                titles=(_main("Part  One", "a"),),
                authors=(author("Aa", "Ann"), author("Bb", "Bo"), author("Cc", "Cy")),
            ),
            monogr=m.Monogr(
                titles=(_main("Whole Book"),),
                authors=(author("Ed", "Eve"), author("Fo", "Fay"), author("Gu")),
                issn="1234-5678",
                imprint=m.Imprint(
                    publisher="Pub", pub_place="Town", date=m.CalendarDate(2001),
                    scopes=self.scopes(vol="7", issue="2", fpage="5"),
                ),
            ),
            identifiers=(m.Identifier("DOI", "10.1/x"),),
        )
        entry = format_entry(record, self.style())
        assert entry.marked() == (
            "authors=Aa, Ann, Bo Bb, and Cy Cc; monogr.authors=Eve Ed, Fay Fo, and Gu; "
            'title=*Part One*; analytic.title="Part One"; monogr.title=Whole Book; '
            "imprint.publisher=Pub; imprint.pub_place=Town; year=2001; pages=5; "
            "issn=1234-5678; scopes.vol=7; scopes.issue=2; scopes.fpage=5; "
            "identifiers.doi=10.1/x;"
        )
        assert entry.cite_text == "Aa et al. 2001"

    def test_two_names_no_analytic_main_title_and_a_page_range_only(self):
        record = m.BiblStruct(
            analytic=m.Analytic(
                titles=(_main("Subtitle Only", "a", "sub"),),
                authors=(author("Hu", "Hal"), author("Io")),
            ),
            monogr=m.Monogr(
                titles=(_main("Host Volume"),),
                authors=(author("Ju", "Jo"), author("Ko", "Kim")),
                imprint=m.Imprint(date=m.CalendarDate(2002), scopes=self.scopes(pp="xii")),
            ),
        )
        entry = format_entry(record, self.style())
        assert entry.marked() == (
            "authors=Hu, Hal and Io; monogr.authors=Jo Ju and Kim Ko; "
            "title=*Host Volume*; monogr.title=Host Volume; year=2002; pages=xii; "
            "issn=; scopes.pp=xii;"
        )
        assert entry.cite_text == "Hu and Io 2002"

    def test_no_container_names_and_no_year(self):
        record = m.BiblStruct(
            analytic=m.Analytic(authors=(author("Lu", "Lea"),)),
            monogr=m.Monogr(
                titles=(_main("Lone Title"),),
                imprint=m.Imprint(scopes=self.scopes(lpage="9")),
            ),
        )
        entry = format_entry(record, self.style())
        assert entry.marked() == (
            "authors=Lu, Lea; title=*Lone Title*; monogr.title=Lone Title; "
            "issn=; scopes.lpage=9;"
        )
        assert entry.cite_text == "Lu"

    def test_a_scope_kind_outside_the_table_is_unknown(self):
        with pytest.raises(StyleError, match="unknown field 'scopes.page'"):
            minimal_style(layouts={"unknown": [{"path": "scopes.page"}]})
        # A hand-built style can name it; formatting then refuses the path.
        style = StyleGuide("s", "numeric-bracket", "citation-order", "as-encoded",
                           {"unknown": (Segment("scopes.page"),)})
        with pytest.raises(StyleError, match="unknown segment path 'scopes.page'"):
            format_entry(brecht_book_record(), style)


def ref(xml_id, surname, year, title):
    return (
        f'<biblStruct type="book" xml:id="{xml_id}"><monogr>'
        f"<author><persName><forename>A</forename><surname>{surname}</surname></persName></author>"
        f'<title level="m" type="main">{title}</title>'
        f'<imprint><publisher>P</publisher><date when="{year}"/></imprint>'
        f"</monogr></biblStruct>"
    )


CITED_BODY = (
    '<div type="section"><head>One</head>'
    '<p>See <ref type="bibr" target="#b3">(Late 2003)</ref> and '
    '<ref type="bibr" target="#b1">(Brecht 1981)</ref>.</p>'
    '<p>Again <ref type="bibr" target="#b3">(Late 2003)</ref>, then '
    '<ref type="bibr" target="#b2">(Aarden 1999)</ref> and '
    '<ref type="bibr" target="#b9">gone</ref>.</p></div>'
)

REFS = (
    ref("b1", "Brecht", 1981, "Bbook")
    + ref("b2", "Aarden", 1999, "Abook")
    + ref("b3", "Late", 2003, "Lbook")
    + ref("b4", "Unseen", 1990, "Ubook")
)


def cited_article() -> m.Article:
    data = article_bytes(title="Citing Things", body=CITED_BODY, refs=REFS)
    report = parse_article(data, "cited.xml")
    assert report.ok, report.issues
    return report.outcome


class TestReferenceLists:
    def test_citation_order_first_appearance(self):
        assert citation_order(cited_article()) == ["b3", "b1", "b2"]

    def test_citation_order_skips_a_target_without_a_hash(self):
        # read past its first character, 'xb1' would name b1
        body = ('<div type="section"><p><ref type="bibr" target="xb1">x</ref> '
                '<ref type="bibr" target="#b3">y</ref> <ref type="bibr" target="#b1">z</ref>'
                "</p></div>")
        report = parse_article(article_bytes(title="T", body=body, refs=REFS), "t.xml")
        assert report.ok and not report.issues, report.issues
        assert citation_order(report.outcome) == ["b3", "b1"]
        assert [(f.rule_id, f.message) for f in validate(report.outcome)] == [
            ("R9", "malformed reference target 'xb1' (expected '#id')")
        ]

    def test_numeric_list_order_and_labels(self):
        article = cited_article()
        style = builtin_style("chicago")
        pairs = _number_entries(
            _format_entries(article.reference_list.entries, style), style, citation_order(article)
        )
        assert [(label, e.ref_id) for label, e in pairs] == [
            ("[1]", "b3"),
            ("[2]", "b1"),
            ("[3]", "b2"),
            ("[4]", "b4"),  # uncited entries follow, alphabetically
        ]

    def test_author_date_list_is_alphabetical_unlabelled(self):
        article = cited_article()
        style = builtin_style("apa")
        pairs = _number_entries(
            _format_entries(article.reference_list.entries, style), style, citation_order(article)
        )
        assert [(label, e.ref_id) for label, e in pairs] == [
            (None, "b2"),
            (None, "b1"),
            (None, "b3"),
            (None, "b4"),
        ]

    def test_numbers_do_not_depend_on_display_order(self):
        article = cited_article()
        entries = article.reference_list.entries
        order = citation_order(article)
        by_citation = _number_entries(
            _format_entries(entries, minimal_style()), minimal_style(), order
        )
        alphabetical_style = minimal_style(list_order="alphabetical")
        alphabetical = _number_entries(
            _format_entries(entries, alphabetical_style), alphabetical_style, order
        )
        labels = {e.ref_id: label for label, e in by_citation}
        assert {e.ref_id: label for label, e in alphabetical} == labels
        assert [e.ref_id for _, e in alphabetical] == ["b2", "b1", "b3", "b4"]

    def test_unidentified_entries_still_listed(self):
        entries = (dataclasses.replace(brecht_book_record(), xml_id=None),)
        style = builtin_style("chicago")
        pairs = _number_entries(_format_entries(entries, style), style, ())
        assert [(label, e.ref_id) for label, e in pairs] == [("[1]", None)]


def two_step_reference_list(entries, style, cited=()) -> list:
    """The reference list worked out in two steps, ordering and then labels,
    written independently of :func:`_format_entries` and
    :func:`_number_entries` as their oracle."""
    rendered: dict = {}
    for i, record in enumerate(entries):
        key = record.xml_id if record.xml_id else f"\x00{i}"
        if key in rendered:
            continue
        rendered[key] = entry_or_fallback(record, style)
    cited_keys = [k for k in dict.fromkeys(cited) if k in rendered]
    cited_set = set(cited_keys)
    uncited = sorted(
        (k for k in rendered if k not in cited_set),
        key=lambda k: (rendered[k].sort_key, k),
    )
    numbering_order = cited_keys + uncited
    numbers = {k: n for n, k in enumerate(numbering_order, start=1)}
    if style.list_order == "alphabetical":
        display = sorted(rendered, key=lambda k: (rendered[k].sort_key, k))
    else:
        display = numbering_order
    numbered = style.marker_scheme == "numeric-bracket"
    return [(f"[{numbers[k]}]" if numbered else None, rendered[k]) for k in display]


@st.composite
def reference_records(draw) -> m.BiblStruct:
    """A book record from small pools, so that ids repeat, sort keys tie and
    some records have no title (and take the fallback entry) or no surname."""
    title = draw(st.sampled_from(("", "Alpha", "Beta")))
    year = draw(st.sampled_from((None, 1990, 2001)))
    return m.BiblStruct(
        doc_type=m.DocumentType("book"),
        monogr=m.Monogr(
            titles=(m.Title((m.TextRun(title),), "m"),) if title else (),
            authors=(author(draw(st.sampled_from(("Ames", "Berg", ""))), "C"),),
            imprint=m.Imprint(date=m.CalendarDate(year) if year else None),
        ),
        xml_id=draw(st.sampled_from((None, "", "a", "b", "c", "d"))),
    )


class TestReferenceListOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(reference_records(), max_size=8),
        # known, unknown and empty ids, each possibly repeated, and a "#" left on
        st.lists(st.sampled_from(("a", "b", "c", "d", "e", "", "#a")), max_size=10),
        st.sampled_from(("numeric-bracket", "author-date")),
        st.sampled_from(("alphabetical", "citation-order")),
    )
    def test_matches_the_two_step_oracle(self, entries, cited, scheme, order):
        style = minimal_style(marker_scheme=scheme, list_order=order)
        assert _number_entries(
            _format_entries(entries, style), style, cited
        ) == two_step_reference_list(entries, style, cited)


def one_citation_per_paragraph(cited: tuple) -> m.Article:
    body = "".join(
        f'<p>On {ref_id}: <ref type="bibr" target="#{ref_id}">x</ref>.</p>'
        for ref_id in cited
    )
    data = article_bytes(
        title="Citing Things", body=f'<div type="section">{body}</div>', refs=REFS
    )
    report = parse_article(data, "cited.xml")
    assert report.ok, report.issues
    return report.outcome


class TestOneNumbering:
    def test_xhtml_markers_list_labels_and_plain_text_agree(self):
        cited = ("b3", "b1", "b3", "b2", "b1")
        article = one_citation_per_paragraph(cited)
        page = ET.fromstring(render_xhtml(article, builtin_style("chicago")))
        ns = {"h": XHTML_NS}
        markers: dict = {}
        for a in page.iterfind(".//h:a[@class='tj-ref']", ns):
            markers.setdefault(a.get("href")[len("#ref-"):], set()).add(a.text)
        labels = {
            li.get("id")[len("ref-"):]: li.text.split(" ", 1)[0]
            for li in page.iterfind(".//h:li[@class='tj-biblio-entry']", ns)
        }
        text_markers: dict = {}
        for ref_id, label in re.findall(r"On (\w+): (\[\d+\])", render_plaintext(article)):
            text_markers.setdefault(ref_id, set()).add(label)
        assert markers == {"b3": {"[1]"}, "b1": {"[2]"}, "b2": {"[3]"}}
        for ref_id in set(cited):
            assert markers[ref_id] == text_markers[ref_id] == {labels[ref_id]}

    def test_an_empty_id_gets_no_marker_and_a_repeated_id_its_first_entry(self):
        entries = (
            dataclasses.replace(brecht_book_record(), xml_id=""),
            dataclasses.replace(dean_article_record(), xml_id="b1"),
            dataclasses.replace(schmidt_chapter_record(), xml_id="b1"),
        )
        body = (m.Division(blocks=(m.Paragraph((m.BiblRef("#", "hash"), m.BiblRef("#b1"))),)),)
        article = m.Article(body=body, back=m.BackMatter(reference_list=m.ListBibl(entries)))
        page = render_xhtml(article, builtin_style("apa"))
        assert '<span class="tj-ref">hash</span>' in page
        assert '<a class="tj-ref" href="#ref-b1">(Dean 2009)</a>' in page
        assert page.count('id="ref-b1"') == 1
        assert "hash[1]\n" in render_plaintext(article)


EVERY_BLOCK_BODY = (
    '<div type="section"><head>Blocks</head>'
    '<p>See <ref target="http://example.org/x">the site</ref>, '
    '<ptr target="http://example.org/y"/> and <ref type="bibr" target="#b1">B</ref>.</p>'
    '<cit><quote>Cited words</quote><biblStruct type="journalArticle"><analytic>'
    '<title level="a" type="main">Inner Piece</title>'
    "<author><persName><forename>Ivy</forename><surname>Ink</surname></persName></author>"
    '</analytic><monogr><title level="j" type="main">Host Journal</title>'
    '<imprint><date when="2004"/></imprint></monogr></biblStruct>'
    "<note>A note</note></cit>"
    '<cit><quote>Loose words</quote><biblStruct type="book"><monogr>'
    '<title level="m" type="sub">No Main</title>'
    "<author><persName><surname>Orr</surname></persName></author>"
    '<imprint><date when="1990"/></imprint></monogr></biblStruct></cit>'
    '<figure><head>A caption</head><graphic url="fig.png"/></figure><figure/>'
    "<table><head>Tab cap</head><row/></table>"
    '<formula notation="tex">x^2</formula>'
    "<list><item>first</item><item>second</item></list>"
    "<quote>Set apart</quote><lg>l</lg></div>"
)

EVERY_BLOCK_REF = (
    '<biblStruct type="journalArticle" xml:id="b1"><analytic>'
    '<title level="a" type="main">Listed Piece</title>'
    "<author><persName><forename>Al</forename><surname>Ash</surname></persName></author>"
    '</analytic><monogr><title level="j" type="main">Listed Journal</title>'
    '<imprint><date when="2003"/></imprint></monogr></biblStruct>'
)


@pytest.mark.parametrize(
    "render, fragments",
    [
        (
            render_xhtml,
            (
                '<p>See <a href="http://example.org/x">the site</a>, '
                '<a href="http://example.org/y">http://example.org/y</a> and '
                '<a class="tj-ref" href="#ref-b1">(Ash 2003)</a>.</p>',
                '<blockquote class="tj-cit"><p>Cited words</p><p class="tj-cit-source">'
                'Ink, Ivy. "Inner Piece". <i>Host Journal</i>, 2004</p>'
                '<p class="tj-cit-note">A note</p></blockquote>',
                '<blockquote class="tj-cit"><p>Loose words</p>'
                '<p class="tj-cit-source">Orr. 1990.</p></blockquote>',
                '<div class="tj-figure"><img alt="" src="fig.png" /><p>A caption</p></div>'
                '<div class="tj-figure" />',
                '<div class="tj-table"><p>Tab cap</p>'
                "<pre>&lt;table&gt;&lt;head&gt;Tab cap&lt;/head&gt;&lt;row/&gt;&lt;/table&gt;</pre>"
                "</div>",
                '<pre class="tj-formula">&lt;formula notation="tex"&gt;x^2&lt;/formula&gt;</pre>',
                "<ul><li>first</li><li>second</li></ul>",
                "<blockquote><p>Set apart</p></blockquote>",
                '<pre class="tj-opaque">&lt;lg&gt;l&lt;/lg&gt;</pre>',
                '<li class="tj-biblio-entry" id="ref-b1">'
                'Ash, Al. "Listed Piece". <i>Listed Journal</i>, 2003</li>',
            ),
        ),
        (
            render_plaintext,
            (
                "Blocks\n======\n\n"
                "See the site, http://example.org/y and [1].\n\n"
                "    Cited words\n    -- Ink, Ivy. Inner Piece. Host Journal, 2004\n    A note\n\n"
                "    Loose words\n    -- Orr. 1990.\n\n"
                "[Figure: A caption]\n\n[Figure]\n\n[Table: Tab cap]\n\n"
                "  - first\n  - second\n\n    Set apart\n\n"
                "References\n==========\n\n"
                "[1] Ash, Al. Listed Piece. Listed Journal, 2003\n",
            ),
        ),
    ],
    ids=["xhtml", "text"],
)
def test_every_block_kind_link_and_quoted_span(render, fragments):
    data = article_bytes(title="Every Block", body=EVERY_BLOCK_BODY, refs=EVERY_BLOCK_REF)
    report = parse_article(data, "blocks.xml")
    assert report.ok, report.issues
    page = render(report.outcome, builtin_style("mla"))
    for fragment in fragments:
        assert fragment in page


class TestXhtml:
    def test_output_is_well_formed_with_stable_classes(self):
        page = render_xhtml(cited_article(), builtin_style("chicago"))
        root = ET.fromstring(page)
        assert root.tag == f"{{{XHTML_NS}}}html"
        for cls in ("tj-title", "tj-author", "tj-keywords", "tj-section", "tj-biblio-entry"):
            assert f'class="{cls}"' in page

    def test_numeric_markers_link_to_entries(self):
        page = render_xhtml(cited_article(), builtin_style("chicago"))
        assert '<a class="tj-ref" href="#ref-b3">[1]</a>' in page.replace(
            f' xmlns="{XHTML_NS}"', ""
        )
        assert 'id="ref-b3"' in page
        assert ">[1] " in page  # the list label itself

    def test_author_date_markers_use_cite_text(self):
        page = render_xhtml(cited_article(), builtin_style("apa"))
        assert ">(Late 2003)</a>" in page
        assert "[1]" not in page

    def test_unresolved_pointer_becomes_span(self):
        page = render_xhtml(cited_article(), builtin_style("chicago"))
        assert '<span class="tj-ref">gone</span>' in page

    def test_skeleton_front_matter(self):
        from support import parse_skeleton

        page = render_xhtml(parse_skeleton(), builtin_style("chicago"))
        assert "Michael Dean" in page
        assert "tj-affiliation" in page
        assert "foetal development" in page
        ET.fromstring(page)

    def test_text_that_looks_like_a_slot_renders_as_before(self):
        # The divisions are rendered once per article with "<>" at each point
        # a page fills in; text, attribute values and verbatim markup that
        # hold "<>", "<" or NUL render as they did when each page rendered
        # the divisions itself.
        record = m.BiblStruct(m.DocumentType("book"), None, m.Monogr(
            (_main("A <> book"),), (author("Lee"),), imprint=m.Imprint(date=m.CalendarDate(2001))),
            xml_id="b1")
        text = "<> and \x00 and <"
        division = m.Division(head=(m.TextRun(text), m.BiblRef("#b1")), blocks=(
            m.Paragraph((m.TextRun(text), m.BiblRef("#b1", "<>"), m.BiblRef("#<>", "<>"),
                         m.Link("<>", text), m.Emph("italic", (m.BiblRef("#b1"),)))),
            m.CitBlock((m.TextRun(text),), "#b1", (m.TextRun(">"),)),
            m.CitBlock((m.TextRun("<"),), record),
            m.OpaqueBlock(f"<x a='{text}'/>")))
        article = m.Article(body=(division,), back=m.BackMatter(
            reference_list=m.ListBibl((record,))))
        escaped = "&lt;&gt; and \x00 and &lt;"
        section = (
            f'<section class="tj-section"><h2>{escaped}MARK</h2><p>{escaped}MARK'
            f'<span class="tj-ref">&lt;&gt;</span><a href="&lt;&gt;">{escaped}</a><i>MARK</i>'
            f'</p><blockquote class="tj-cit"><p>{escaped} MARK</p><p class="tj-cit-note">&gt;'
            f'</p></blockquote><blockquote class="tj-cit"><p>&lt;</p><p class="tj-cit-source">'
            f"SOURCE</p></blockquote><pre class=\"tj-opaque\">&lt;x a='{escaped}'/&gt;</pre>"
            "</section>"
        )
        for style, marker, source in (
            ("apa", "(Lee 2001)", "Lee (2001). <i>A &lt;&gt; book</i>."),
            ("chicago", "[1]", "Lee. <i>A &lt;&gt; book</i>., 2001."),
        ):
            mark = f'<a class="tj-ref" href="#ref-b1">{marker}</a>'
            page = render_xhtml(article, builtin_style(style))
            assert section.replace("MARK", mark).replace("SOURCE", source) in page


# --------------------------------------------------------------------------
# The XHTML writer against ElementTree's serializer, kept here as the oracle
# --------------------------------------------------------------------------

TEXTS = st.text(
    alphabet=st.sampled_from(list("&<>\"'\t\r\n a\u00e9\u20ac\U0001d11e\u2028"))
    | st.characters(),
    max_size=6,
)


@st.composite
def trees(draw, depth=0):
    """(tag, attrs, text, children, tail); text and tail may be None."""
    tag = draw(st.sampled_from(["p", "i", "span", "li", "h2"]))
    attrs = draw(st.dictionaries(st.sampled_from(["class", "href", "id", "title"]),
                                 TEXTS, max_size=3))
    text = draw(st.none() | TEXTS)
    children = draw(st.lists(trees(depth + 1), max_size=3)) if depth < 2 else []
    return tag, attrs, text, children, draw(st.none() | TEXTS)


def to_etree(tree) -> ET.Element:
    tag, attrs, text, children, tail = tree
    node = ET.Element(tag, attrs)
    node.text, node.tail = text, tail
    node.extend(to_etree(child) for child in children)
    return node


def written(tree) -> str:
    tag, attrs, text, children, tail = tree
    content = escape_text(text or "") + "".join(written(child) for child in children)
    return element(tag, content, attrs) + escape_text(tail or "")


class TestXhtmlWriter:
    @settings(max_examples=150, deadline=None)
    @given(trees())
    def test_element_matches_elementtree(self, tree):
        assert written(tree) == ET.tostring(to_etree(tree), encoding="unicode")

    @settings(max_examples=50, deadline=None)
    @given(TEXTS, trees())
    def test_page_matches_elementtree(self, title, tree):
        html = ET.Element("html", {"xmlns": XHTML_NS})
        ET.SubElement(ET.SubElement(html, "head"), "title").text = title
        ET.SubElement(html, "body").append(to_etree(tree))
        expected = ET.tostring(html, encoding="unicode")
        assert xhtml_page(title, written(tree)) == (
            f'<?xml version="1.0" encoding="UTF-8"?>\n{expected}\n'
        )

    def test_empty_content_is_a_self_closed_tag(self):
        assert element("p") == "<p />"
        assert element("img", "", {"alt": "", "src": "a\tb"}) == '<img alt="" src="a&#09;b" />'
        assert xhtml_page("", "") == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<html xmlns="{XHTML_NS}"><head><title /></head><body /></html>\n'
        )


#: Words, hyphens and dashes, the whitespace str.split() breaks on, and
#: words about as wide as the line.
WRAP_TEXTS = st.lists(
    st.sampled_from((" ", "\t", "\n", "\u00a0", "\u0085", "\u2028", "-", "\u2013"))
    | st.text(alphabet="ab-\u2013.", min_size=1, max_size=12)
    | st.sampled_from([n * "w" for n in (74, 77, 78, 90)]),
    max_size=60,
).map("".join) | st.text()
WRAP_INDENTS = st.sampled_from((("", ""), ("    ", ""), ("  - ", "    "), ("", "    ")))


class TestWrapOracle:
    """The greedy wrapper against ``textwrap``, kept here as the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(WRAP_TEXTS, WRAP_INDENTS)
    @example("", ("", ""))
    @example(" \t\n\u00a0\u0085\u2028 ", ("  - ", "    "))
    @example("a " + "w" * 74 + " b " + "w" * 77 + " " + "w" * 78 + " c " + "w" * 90, ("", "    "))
    def test_matches_textwrap(self, text, indents):
        indent, hang = indents
        assert _wrap(text, indent, hang) == textwrap.wrap(
            " ".join(text.split()),
            width=78,
            initial_indent=indent,
            subsequent_indent=hang or indent,
            break_long_words=False,
            break_on_hyphens=False,
        )


class TestPlaintext:
    def test_layout_and_width(self):
        body = (
            '<div type="section"><head>Long Part</head><p>'
            + "word " * 60
            + '</p><div type="subsection"><head>Inner</head><p>x.</p></div></div>'
        )
        data = article_bytes(title="A Text Title", body=body, refs=REFS)
        article = parse_article(data, "t.xml").outcome
        text = render_plaintext(article)
        lines = text.splitlines()
        assert lines[0] == "A Text Title"
        assert lines[1] == "=" * len("A Text Title")
        assert "Long Part" in lines
        assert lines[lines.index("Long Part") + 1] == "=" * len("Long Part")
        assert lines[lines.index("Inner") + 1] == "-" * len("Inner")
        assert all(len(line) <= 78 for line in lines)
        assert "–" not in text  # en-dashes downgraded for terminals

    def test_long_title_and_heads_wrap_to_width(self):
        title = " ".join(["Considerably"] * 11 + ["Long", "Title"])[:150]
        head = "A Section Head That Runs On " * 4
        body = (
            f'<div type="section"><head>{head}</head><p>x.</p>'
            f'<div type="subsection"><head>{head}</head><p>y.</p></div></div>'
        )
        article = parse_article(article_bytes(title=title, body=body), "t.xml").outcome
        lines = render_plaintext(article).splitlines()
        assert len(title) == 150
        assert max(len(line) for line in lines) <= 78
        assert " ".join(lines[:2]) == title
        assert lines[2] == "=" * max(len(lines[0]), len(lines[1]))
        assert lines[3:6] == ["", "Michael Dean", ""]
        head = " ".join(head.split())
        for first, mark in ((6, "="), (12, "-")):
            wrapped = lines[first : first + 2]
            assert " ".join(wrapped) == head
            assert lines[first + 2] == mark * max(len(line) for line in wrapped)
        assert lines[9:12] == ["", "x.", ""]

    def test_citations_always_numbered(self):
        article = cited_article()
        for style in (None, builtin_style("apa")):
            text = render_plaintext(article, style)
            assert "[1]" in text and "(Late 2003)" not in text

    def test_reference_entries_hang_indented(self):
        text = render_plaintext(cited_article())
        lines = text.splitlines()
        first = next(line for line in lines if line.startswith("[1]"))
        assert "Late" in first
        long_refs = REFS.replace("Lbook", "Lbook " + "word " * 20)
        data = article_bytes(title="Citing Things", body=CITED_BODY, refs=long_refs)
        wrapped = render_plaintext(parse_article(data, "t.xml").outcome).splitlines()
        start = next(i for i, line in enumerate(wrapped) if line.startswith("[1]"))
        assert wrapped[start + 1].startswith("    ")

    def test_deterministic(self):
        article = cited_article()
        assert render_plaintext(article) == render_plaintext(article)


class TestStyleValidation:
    def test_builtins_load(self):
        for style_id in BUILTIN_STYLES:
            style = builtin_style(style_id)
            assert style.id == style_id
            assert "unknown" in style.layouts

    def test_builtin_style_is_read_once(self, monkeypatch):
        builtin_style.cache_clear()
        read = []
        monkeypatch.setattr("teijournal.render.style_from_dict",
                            lambda raw: read.append(raw["id"]) or style_from_dict(raw))
        pages = [render_plaintext(cited_article()) for _ in range(2)]
        assert pages[0] == pages[1]
        assert read == ["chicago"]

    def test_unknown_builtin(self):
        with pytest.raises(StyleError, match="harvard"):
            builtin_style("harvard")

    def test_bad_marker_scheme(self):
        with pytest.raises(StyleError, match="marker scheme"):
            minimal_style(marker_scheme="footnotes")

    def test_missing_unknown_layout(self):
        with pytest.raises(StyleError, match="unknown"):
            minimal_style(layouts={"book": []})

    def test_unknown_segment_path(self):
        with pytest.raises(StyleError, match="publisher_city"):
            minimal_style(layouts={"unknown": [{"path": "publisher_city"}]})

    def test_bad_typography(self):
        with pytest.raises(StyleError, match="bold"):
            minimal_style(
                layouts={"unknown": [{"path": "title", "typography": "bold"}]}
            )

    def test_non_boolean_omit_if_absent(self):
        with pytest.raises(StyleError, match="omit_if_absent in layout 'unknown' must be true"):
            minimal_style(layouts={"unknown": [{"path": "title", "omit_if_absent": "no"}]})

    def test_missing_top_level_key(self):
        with pytest.raises(StyleError, match="marker_scheme"):
            style_from_dict({"id": "x", "layouts": {"unknown": []}})

    def test_get_style_reads_files(self, tmp_path):
        raw = {
            "id": "custom",
            "marker_scheme": "numeric-bracket",
            "list_order": "citation-order",
            "author_name_format": "as-encoded",
            "layouts": {"unknown": [{"path": "title", "suffix": "."}]},
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        style = get_style(str(path))
        assert style.id == "custom"
        entry = format_entry(brecht_book_record(), style)
        assert entry.plain().startswith("Der Jasager")

    def test_identifier_paths_are_open(self):
        style = minimal_style(
            layouts={"unknown": [{"path": "identifiers.isbn", "prefix": "ISBN "}]}
        )
        # The Brecht record carries an ISBN; the segment must surface it.
        entry = format_entry(brecht_book_record(), style)
        assert entry.plain() == "ISBN 9783518101711"
