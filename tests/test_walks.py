"""Shared per-article walks and formatted reference entries, structures
free of reference cycles, and work that grows linearly with the input.

Every per-document structure (raw trees, parse reports, model walks,
findings, rendered pages, corpus products, schema profiles) must be freed
by reference counting alone, so a run never leaves work for the cyclic
garbage collector.  The model walk behind the validator, the renderers and
the corpus products runs once per ``Article`` instance, and each reference
entry is formatted once per article and layout.
"""

import copy
import dataclasses
import gc
import sys
from pathlib import Path

import pytest

import teijournal
from teijournal import corpus, render, schema, validator, xmlio
from teijournal import model as m
from teijournal.rawxml import parse_raw

from support import article_bytes, write_corpus

REFS = "".join(
    f'<biblStruct xml:id="b{i}" type="book"><monogr><author><persName>'
    f"<forename>Ann</forename><surname>Writer{i}</surname></persName></author>"
    f'<title level="m" type="main">Book {i}</title>'
    f'<imprint><date when="200{i}"/></imprint></monogr></biblStruct>'
    for i in range(6)
)
BODY = (
    '<div type="section"><head>Methods <hi rend="italic">here</hi></head>'
    '<p>As <ref target="#b3" type="bibr">shown</ref> by <persName key="p1">Ann'
    '</persName> in <placeName>Oslo</placeName>, see <ref target="#b1" '
    'type="bibr"/> and <ref target="#b3" type="bibr"/> with <term type="software">'
    "Tool</term> and <choice><abbr>TEI</abbr><expan>Text Encoding</expan></choice>."
    '</p><cit><quote>Quoted</quote><ref target="#b5" type="bibr"/></cit>'
    '<div type="subsection"><head>Inner</head><p>More <ref target="#nope" '
    'type="bibr">x</ref> <orgName>Org</orgName>.</p></div></div>'
)


def article_data(n: int = 0) -> bytes:
    return article_bytes(
        title=f"Generated Article {n}",
        doi=f"10.1000/gen.{n}",
        body=BODY,
        refs=REFS,
        changes=f'<change when="2009-0{n + 2}-01" type="correction">Fixed</change>',
    )


def parse(data: bytes) -> m.Article:
    return xmlio.parse_article(data, "gen.xml").outcome


# --------------------------------------------------------------------------
# No cyclic garbage
# --------------------------------------------------------------------------

STYLE = render.builtin_style("apa")
RULES = schema.parse_rules("title type main -> primary\nhi rend italic -> i\n")


def _schema_check(data: bytes) -> list:
    doc = parse_raw(data)
    plain = parse_raw(article_bytes(title="Plain"))
    rules = schema.codify(schema.profile_corpus([plain]))
    return schema.validate_against(rules, doc, schema.load_base_schema())


def _both_pages(article: m.Article) -> tuple:
    # the text page reads the entries the chicago page formatted
    chicago = render.builtin_style("chicago")
    return render.render_xhtml(article, chicago), render.render_plaintext(article)


CASES = {
    "parse_raw": lambda data, paths: parse_raw(data),
    "parse_article": lambda data, paths: xmlio.parse_article(data, "gen.xml"),
    "iter_model_paths": lambda data, paths: xmlio.iter_model_paths(parse(data)),
    "validate": lambda data, paths: validator.validate(parse(data)),
    "render_xhtml": lambda data, paths: render.render_xhtml(parse(data), STYLE),
    "render_plaintext": lambda data, paths: render.render_plaintext(parse(data)),
    "render_both_pages": lambda data, paths: _both_pages(parse(data)),
    "load_corpus": lambda data, paths: corpus.load_corpus(paths),
    "build_indexes": lambda data, paths: corpus.build_indexes(
        corpus.load_corpus(paths)
    ),
    "query": lambda data, paths: corpus.query(
        corpus.load_corpus(paths), corpus.Query(text="o")
    ),
    "profile_corpus": lambda data, paths: schema.profile_corpus(
        [parse_raw(data), parse_raw(article_data(1))]
    ),
    "validate_against": lambda data, paths: _schema_check(data),
    "arbitrate": lambda data, paths: schema.arbitrate([parse_raw(data)], RULES),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_cyclic_garbage(name, tmp_path):
    data = article_data()
    paths = write_corpus(
        tmp_path, {f"a{n}.xml": article_data(n) for n in range(3)}
    )
    run = CASES[name]
    run(data, paths)  # first use fills module-level caches (styles, regexes)
    gc.disable()
    try:
        gc.collect()
        result = run(data, paths)
        assert result
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# One walk per article
# --------------------------------------------------------------------------


@pytest.fixture
def walks(monkeypatch) -> list:
    """The articles ``iter_model_paths`` walks, in call order."""
    walked: list = []
    real = xmlio.iter_model_paths

    def counting(article):
        walked.append(article)
        return real(article)

    monkeypatch.setattr(xmlio, "iter_model_paths", counting)
    return walked


def test_validate_and_every_rendering_share_one_walk(walks):
    article = parse(article_data())
    findings = validator.validate(article)
    pages = [
        render.render_xhtml(article, render.builtin_style(style))
        for style in ("apa", "chicago", "mla")
    ]
    text = render.render_plaintext(article)
    assert len(walks) == 1 and walks[0] is article
    assert [f.rule_id for f in findings] == ["R9"]
    assert all('href="#ref-b3"' in page for page in pages)
    assert "[1]" in text


def test_replaced_article_gets_its_own_walk(walks):
    article = parse(article_data())
    assert render.citation_order(article) == ["b3", "b1", "b5"]
    body = article.body[0]
    changed = dataclasses.replace(
        article, body=(dataclasses.replace(body, blocks=body.blocks[1:]),)
    )
    assert render.citation_order(changed) == ["b5"]
    assert render.citation_order(article) == ["b3", "b1", "b5"]
    assert [id(a) for a in walks] == [id(article), id(changed)]
    assert changed != article


def test_public_walks_return_new_lists(walks):
    article = parse(article_data())
    shared = xmlio.model_paths(article)
    fresh = xmlio.iter_model_paths(article)
    assert fresh == shared and fresh is not shared
    assert len(walks) == 2  # the public walker always walks
    order = render.citation_order(article)
    order.append("mutated")
    assert render.citation_order(article) == ["b3", "b1", "b5"]


def test_corpus_products_share_the_walk(walks, tmp_path):
    paths = write_corpus(tmp_path, {f"a{n}.xml": article_data(n) for n in range(3)})
    loaded = corpus.load_corpus(paths)
    entries = corpus.build_indexes(loaded)
    hits = corpus.query(loaded, corpus.Query(element_kind="person-mention"))
    for article in loaded.articles.values():
        validator.validate(article)
    assert len(walks) == 3
    assert {e.display for e in entries if e.kind == "place"} == {"Oslo"}
    assert [h[2] for h in hits] == ["Ann"] * 3


def test_first_reference_entry_wins_for_duplicate_ids():
    first = m.BiblStruct(xml_id="b1", monogr=m.Monogr(issn="1"))
    second = m.BiblStruct(xml_id="b1", monogr=m.Monogr(issn="2"))
    article = m.Article(
        back=m.BackMatter(reference_list=m.ListBibl((first, second)))
    )
    assert m.resolve_ref(article, "#b1") is first
    assert article.entries_by_id == {"b1": first}
    assert m.resolve_ref(m.Article(), "#b1") is None


# --------------------------------------------------------------------------
# Each reference entry formatted once per article and layout
# --------------------------------------------------------------------------


@pytest.fixture
def formatted(monkeypatch) -> list:
    """The records ``format_entry`` formats, in call order."""
    records: list = []
    real = render.format_entry

    def counting(record, style, *values):
        records.append(record)
        return real(record, style, *values)

    monkeypatch.setattr(render, "format_entry", counting)
    return records


def test_each_entry_formatted_once_per_article_and_layout(formatted):
    article = parse(article_data())
    entries = article.reference_list.entries
    for style in ("apa", "chicago", "mla"):
        render.render_xhtml(article, render.builtin_style(style))
    assert len(formatted) == 3 * len(entries)
    # the text page's chicago entries, its own load of the style: no new work
    text = render.render_plaintext(article)
    assert formatted == 3 * list(entries)
    assert "[1] Writer3, Ann. Book 3." in text


def test_text_page_is_the_same_whatever_rendered_first():
    chicago = render.builtin_style("chicago")
    alone = render.render_plaintext(parse(article_data()))
    after_page = parse(article_data())
    page = render.render_xhtml(after_page, chicago)
    shared_style = parse(article_data())
    assert render.render_plaintext(shared_style, chicago) == alone
    assert render.render_xhtml(shared_style, chicago) == page
    assert render.render_plaintext(after_page) == alone
    assert render.render_plaintext(after_page, render.builtin_style("chicago")) == alone


def test_a_changed_layout_or_name_format_formats_anew(formatted):
    chicago = render.builtin_style("chicago")
    layouts = {**chicago.layouts, "book": (render.Segment("title", suffix=" (changed)"),)}
    changed_layout = render.StyleGuide(chicago.id, chicago.marker_scheme, chicago.list_order,
                                       chicago.author_name_format, layouts)
    changed_names = render.StyleGuide(chicago.id, chicago.marker_scheme, chicago.list_order,
                                      "as-encoded", chicago.layouts)
    article = parse(article_data())
    pages = [render.render_xhtml(article, style)
             for style in (chicago, changed_layout, changed_names)]
    assert len(formatted) == 3 * len(article.reference_list.entries)
    assert "Book 3 (changed)" in pages[1] and "Book 3 (changed)" not in pages[0]
    assert "Ann Writer3" in pages[2] and "Ann Writer3" not in pages[0]
    for style, page in zip((chicago, changed_layout, changed_names), pages):
        assert render.render_xhtml(parse(article_data()), style) == page


# --------------------------------------------------------------------------
# What no style changes is worked out once per article
# --------------------------------------------------------------------------

STYLES = ("apa", "chicago", "mla")
# A cit whose source is an embedded record, not a pointer.
CITED_SOURCE = (
    '<div type="section"><cit><quote>Q</quote><biblStruct type="book"><monogr>'
    '<title level="m" type="main">Source</title><imprint><date when="1999"/></imprint>'
    "</monogr></biblStruct></cit></div>"
)


def calls_of(monkeypatch, name: str) -> list:
    """The first argument of each call of ``render.<name>``, in call order."""
    firsts: list = []
    real = getattr(render, name)

    def counting(first, *rest):
        firsts.append(first)
        return real(first, *rest)

    monkeypatch.setattr(render, name, counting)
    return firsts


def every_division(divisions):
    for division in divisions:
        yield division
        yield from every_division(division.children)


def test_three_pages_render_each_division_once(monkeypatch):
    rendered = calls_of(monkeypatch, "_division_to_html")
    article = parse(article_data())
    pages = [render.render_xhtml(article, render.builtin_style(style)) for style in STYLES]
    divisions = (*article.front, *article.body, *article.back.divisions)
    assert rendered == list(every_division(divisions))
    assert len(rendered) >= 2  # the body's section and its subsection
    for style, page in zip(STYLES, pages):
        assert render.render_xhtml(parse(article_data()), render.builtin_style(style)) == page


def test_each_record_title_normalized_once_per_article(monkeypatch):
    normalized = calls_of(monkeypatch, "normalize_title")
    article = parse(article_bytes(title="T", body=BODY + CITED_SOURCE, refs=REFS))
    for style in STYLES:
        render.render_xhtml(article, render.builtin_style(style))
    text = render.render_plaintext(article)
    source = article.body[1].blocks[0].source
    records = (*article.reference_list.entries, source)
    titles = [title.text for record in records for title in record.monogr.titles]
    assert [sum(arg is title for arg in normalized) for title in titles] == [1] * 7
    assert "-- Source., 1999." in text


def test_replaced_article_gets_its_own_division_markup():
    chicago = render.builtin_style("chicago")
    article = parse(article_data())
    page = render.render_xhtml(article, chicago)
    body = article.body[0]
    changed = dataclasses.replace(
        article, body=(dataclasses.replace(body, blocks=body.blocks[1:]),)
    )
    changed_page = render.render_xhtml(changed, chicago)
    assert "Oslo" in page and "Oslo" not in changed_page
    # b5, cited third on the article's page, is cited first on the changed one
    assert 'href="#ref-b5">[3]</a>' in page and 'href="#ref-b5">[1]</a>' in changed_page
    assert changed_page == render.render_xhtml(copy.deepcopy(changed), chicago)
    assert render.render_xhtml(article, chicago) == page


# --------------------------------------------------------------------------
# Work grows linearly: lines run when the input doubles
# --------------------------------------------------------------------------

PACKAGE = str(Path(teijournal.__file__).parent)


def lines_run(fn) -> int:
    """Lines of teijournal code executed by ``fn()``: an operation count
    that does not depend on the machine."""
    count = 0

    def in_package(frame, event, arg):
        return count_line if frame.f_code.co_filename.startswith(PACKAGE) else None

    def count_line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return count_line

    previous = sys.gettrace()
    sys.settrace(in_package)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def cited_article(n: int) -> m.Article:
    """n reference entries, each cited twice, in reverse order of the list."""
    entries = tuple(
        m.BiblStruct(
            doc_type=m.DocumentType("book"),
            monogr=m.Monogr(
                titles=(m.Title((m.TextRun(f"Book {i}"),), "m"),),
                authors=(m.Author(surname=f"Writer{i % 7}"),),
                imprint=m.Imprint(date=m.CalendarDate(1900 + i % 97)),
            ),
            xml_id=f"b{i}",
        )
        for i in range(n)
    )
    refs = tuple(m.BiblRef(f"#b{i}") for i in reversed(range(n)))
    body = (m.Division(blocks=(m.Paragraph(refs + refs),)),)
    return m.Article(body=body, back=m.BackMatter(reference_list=m.ListBibl(entries)))


def grows_linearly(run) -> bool:
    """``run(n)`` does at most 2.1 times the work at 2n as at n (linear code
    reads 1.98 to 2.0 here; a scan per item pushes it past 2.1)."""
    small, large = lines_run(lambda: run(50)), lines_run(lambda: run(100))
    return large <= 2.1 * small


class TestLinearGrowth:
    def test_citation_order(self):
        assert grows_linearly(lambda n: render.citation_order(cited_article(n)))

    def test_resolve_ref(self):
        def resolve_all(n):
            article = cited_article(n)
            for i in range(n):
                assert m.resolve_ref(article, f"#b{i}") is not None

        assert grows_linearly(resolve_all)

    def test_ordered_entries(self):
        style = render.builtin_style("chicago")

        def order(n):
            article = cited_article(n)
            entries = article.reference_list.entries
            cited = [f"b{i}" for i in range(0, n, 2)]
            render._number_entries(render._format_entries(entries, style), style, cited)

        assert grows_linearly(order)

    def test_profile_corpus(self):
        docs = [parse_raw(article_data(i % 3)) for i in range(100)]
        assert grows_linearly(lambda n: schema.profile_corpus(docs[:n]))
