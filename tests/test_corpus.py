"""Corpus loading, indexes, pooled bibliography, corrigenda, and queries."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teijournal import model as m
from teijournal.base import Finding
from teijournal.corpus import (
    INDEX_KINDS,
    QUERY_KINDS,
    Query,
    build_indexes,
    corrigenda,
    corrigenda_records,
    corrigenda_xhtml,
    index_records,
    index_xhtml,
    load_corpus,
    query,
    query_records,
    unified_bibliography,
    unified_bibliography_xhtml,
    biblio_records,
)

from support import article_bytes, write_corpus

SHARED_REF = (
    '<biblStruct type="book" xml:id="b1"><monogr>'
    "<author><persName><forename>Bertolt</forename><surname>Brecht</surname></persName></author>"
    '<title level="m" type="main">Stories</title>'
    '<imprint><publisher>P</publisher><date when="1981"/></imprint></monogr>'
    '<idno type="DOI">10.1000/stories</idno></biblStruct>'
)

ALPHA_BODY = (
    '<div type="section"><head>One</head>'
    "<p><persName>Ada Lovelace</persName> worked in <placeName>London</placeName> "
    'using <term type="software">Mathematica</term>.</p>'
    "<p>Later, <persName>Ada Lovelace</persName> and <persName>ada lovelace</persName> "
    "appear again near <orgName>Royal Society</orgName>.</p></div>"
)

BETA_BODY = (
    '<div type="section"><head>Two</head>'
    "<p>The <orgName>Royal Society</orgName> hosts <abbr>TEI</abbr> talks "
    "in <placeName>Berlin</placeName>.</p></div>"
)


def corpus_files():
    return {
        "alpha.xml": article_bytes(
            title="Alpha Study",
            doi="10.1000/alpha",
            date="2009-05-01",
            keywords=("computing",),
            body=ALPHA_BODY,
            refs=SHARED_REF,
        ),
        "beta.xml": article_bytes(
            title="Beta Study",
            doi="10.1000/beta",
            date="2010-06-15",
            surname="Smith",
            forename="Jane",
            keywords=("computing", "encoding"),
            body=BETA_BODY,
            refs=SHARED_REF.replace("10.1000/stories", "10.1000/STORIES"),
        ),
        "gamma.xml": article_bytes(
            title="Gamma Study",
            doi="10.1000/gamma",
            date="2011-01-01",
            surname="Nguyen",
            forename="Thu",
            changes='<change when="2011-02-03">Correction: fixed table 2</change>'
            '<change when="2011-03-04">Correction: updated affiliation</change>',
        ),
    }


# File name -> the document id it loads as, or None for a file that adds
# no article on its own: unparseable, missing, or a directory.
LOAD_FILES = {
    "one.xml": "10.1/one",
    "two.xml": "10.1/two",
    "broken.xml": None,
    "copy-of-one.xml": "10.1/one",
    "missing.xml": None,
    "x.xml": None,
}


@pytest.fixture(scope="module")
def load_dir(tmp_path_factory):
    """The files of ``LOAD_FILES``, except the missing one."""
    directory = tmp_path_factory.mktemp("load")
    write_corpus(directory, {
        "one.xml": article_bytes(title="One", doi="10.1/one"),
        "two.xml": article_bytes(title="Two", doi="10.1/two"),
        "broken.xml": b"<TEI unclosed",
        "copy-of-one.xml": article_bytes(title="One again", doi="10.1/one"),
    })
    (directory / "x.xml").mkdir()
    return directory


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    return load_corpus(write_corpus(directory, corpus_files()))


class TestLoading:
    def test_ids_come_from_dois(self, corpus):
        assert corpus.ids() == ["10.1000/alpha", "10.1000/beta", "10.1000/gamma"]
        assert corpus.paths["10.1000/alpha"].endswith("alpha.xml")

    def test_bad_file_reported_not_fatal(self, tmp_path):
        files = {
            "good.xml": article_bytes(title="Good"),
            "broken.xml": b"<TEI unclosed",
        }
        broken, good = write_corpus(tmp_path / "c", files)
        corpus = load_corpus([broken, good])
        assert len(corpus.articles) == 1
        assert list(corpus.load_reports) == [broken, good]
        assert not corpus.load_reports[broken].ok

    def test_unreadable_file_reported(self, tmp_path):
        nowhere = str(tmp_path / "nowhere.xml")
        corpus = load_corpus([nowhere])
        assert corpus.articles == {}
        (issue,) = corpus.load_reports[nowhere].issues
        assert (issue.rule_id, issue.severity, issue.location) == ("P-unreadable", "error", "")
        assert issue.message.startswith(f"cannot read {nowhere}: ")

    def test_duplicate_id_keeps_first(self, tmp_path):
        blob = article_bytes(title="Same", doi="10.1/dup")
        files = {"one.xml": blob, "two.xml": blob.replace(b"Same", b"Also Same")}
        one, two = write_corpus(tmp_path / "c", files)
        corpus = load_corpus([one, two])
        assert list(corpus.articles) == ["10.1/dup"]
        assert corpus.paths["10.1/dup"] == one
        assert corpus.load_reports[two].issues == (Finding(
            "P-duplicate-id", "error", "",
            f"duplicate document id '10.1/dup': already loaded from {one}"),)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(sorted(LOAD_FILES)), max_size=8))
    def test_every_path_gets_one_report_in_list_order(self, load_dir, names):
        """Repeated paths are read once; the first file of an id keeps it,
        and every file that adds no article has exactly one error."""
        paths = [str(load_dir / name) for name in names]
        corpus = load_corpus(paths)
        assert list(corpus.load_reports) == list(dict.fromkeys(paths))
        first: dict = {}
        for path, name in zip(paths, names):
            if LOAD_FILES[name] is not None:
                first.setdefault(LOAD_FILES[name], path)
        assert corpus.paths == first
        assert [path for path, report in corpus.load_reports.items() if report.ok] == [
            path for path in corpus.load_reports if path in first.values()
        ]
        for doc_id, path in corpus.paths.items():
            assert corpus.articles[doc_id] is corpus.load_reports[path].outcome
        for path, report in corpus.load_reports.items():
            if path not in first.values():
                (issue,) = report.issues
                assert issue.severity == "error"

    def test_load_order_does_not_change_content(self, tmp_path):
        paths = write_corpus(tmp_path / "c", corpus_files())
        assert load_corpus(paths) == load_corpus(list(reversed(paths)))


class TestIndexes:
    def test_all_kinds_extracted(self, corpus):
        entries = build_indexes(corpus)
        assert {e.kind for e in entries} == set(INDEX_KINDS)

    def test_person_grouping_casefolds_and_counts(self, corpus):
        (ada,) = [e for e in build_indexes(corpus, ["person"])]
        assert ada.key == "ada lovelace"
        assert ada.display == "Ada Lovelace"  # two spellings, majority wins
        assert len(ada.locators) == 3
        assert all(doc == "10.1000/alpha" for doc, _ in ada.locators)
        assert ada.locators == tuple(sorted(ada.locators))

    def test_author_index_from_source_only(self, corpus):
        authors = build_indexes(corpus, ["author"])
        assert [e.key for e in authors] == [
            "dean, michael",
            "nguyen, thu",
            "smith, jane",
        ]
        (dean,) = [e for e in authors if e.key == "dean, michael"]
        assert dean.display == "Dean, Michael"
        ((doc_id, path),) = dean.locators
        assert doc_id == "10.1000/alpha"
        assert path.startswith("TEI[1]/teiHeader[1]/fileDesc[1]/sourceDesc[1]/")
        # The body persName mentions never create author entries.
        assert not any("Lovelace" in e.display for e in authors)

    def test_organization_spans_articles(self, corpus):
        (org,) = build_indexes(corpus, ["organization"])
        assert org.key == "royal society"
        docs = {doc for doc, _ in org.locators}
        assert docs == {"10.1000/alpha", "10.1000/beta"}

    def test_keyword_index(self, corpus):
        keywords = build_indexes(corpus, ["keyword"])
        assert [e.key for e in keywords] == [
            "computing",
            "encoding",
            "foetal development",
        ]
        (computing,) = [e for e in keywords if e.key == "computing"]
        assert {doc for doc, _ in computing.locators} == {
            "10.1000/alpha",
            "10.1000/beta",
        }

    def test_software_and_abbreviation(self, corpus):
        (software,) = build_indexes(corpus, ["software"])
        assert software.display == "Mathematica"
        (abbr,) = build_indexes(corpus, ["abbreviation"])
        assert abbr.display == "TEI"

    def test_entries_sorted_by_kind_then_key(self, corpus):
        entries = build_indexes(corpus)
        assert [(e.kind, e.key) for e in entries] == sorted(
            (e.kind, e.key) for e in entries
        )

    def test_unknown_kind_rejected(self, corpus):
        with pytest.raises(ValueError, match="colour"):
            build_indexes(corpus, ["person", "colour"])

    def test_index_page_and_records(self, corpus):
        entries = build_indexes(corpus)
        page = index_xhtml(entries)
        ET.fromstring(page)
        assert "tj-index" in page and "Ada Lovelace" in page
        records = index_records(entries)
        assert all(len(r) == 5 for r in records)
        assert ("person", "10.1000/alpha") in {(r[0], r[1]) for r in records}


class TestUnifiedBibliography:
    def test_doi_merge_is_case_insensitive(self, corpus):
        items = unified_bibliography(corpus)
        assert len(items) == 1
        record, citing = items[0]
        assert record.identifier("doi") == "10.1000/stories"  # first wins
        assert citing == ("10.1000/alpha", "10.1000/beta")

    def test_metadata_fallback_merge(self, tmp_path):
        plain = SHARED_REF.replace('<idno type="DOI">10.1000/stories</idno>', "")
        files = {
            "a.xml": article_bytes(title="A", doi="10.1/a", refs=plain),
            "b.xml": article_bytes(
                title="B", doi="10.1/b", refs=plain.replace("Stories", "STORIES")
            ),
            "c.xml": article_bytes(
                title="C", doi="10.1/c", refs=plain.replace('when="1981"', 'when="1982"')
            ),
        }
        corpus = load_corpus(write_corpus(tmp_path / "c", files))
        items = unified_bibliography(corpus)
        # same author/year/title merges despite casing; new year stays apart
        assert len(items) == 2
        assert [citing for _, citing in items] == [
            ("10.1/a", "10.1/b"),
            ("10.1/c",),
        ]

    def test_page_and_records(self, corpus):
        items = unified_bibliography(corpus)
        page = unified_bibliography_xhtml(items)
        ET.fromstring(page)
        assert "tj-unibib" in page
        assert "cited by: 10.1000/alpha, 10.1000/beta" in page
        (record_line,) = biblio_records(items)
        assert record_line[0] == "biblio"
        assert record_line[1] == "10.1000/alpha,10.1000/beta"
        assert record_line[3] == "doi/10.1000/stories"
        assert record_line[4].startswith("Brecht, Bertolt.")


class TestCorrigenda:
    def test_newest_first(self, corpus):
        entries = corrigenda(corpus)
        assert [e.when.iso() for e in entries] == ["2011-03-04", "2011-02-03"]
        assert entries[0].article_id == "10.1000/gamma"
        assert "updated affiliation" in entries[0].description

    def test_kind_filter(self, corpus):
        assert corrigenda(corpus, kind="received") != []
        assert corrigenda(corpus, kind="retraction") == []

    def test_page_and_records(self, corpus):
        entries = corrigenda(corpus)
        page = corrigenda_xhtml(entries)
        ET.fromstring(page)
        assert "tj-corrigenda" in page and "2011-03-04" in page
        records = corrigenda_records(entries)
        assert records[0][:2] == ("corrigendum", "10.1000/gamma")
        assert records[0][3] == "2011-03-04"


class TestQuery:
    def test_needs_a_filter(self):
        with pytest.raises(ValueError, match="at least one"):
            Query()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="chapter"):
            Query(element_kind="chapter")
        assert set(QUERY_KINDS) >= {"any", "person-mention", "abbreviation"}

    def test_kind_scoping(self, corpus):
        people = query(corpus, Query(element_kind="person-mention"))
        assert {h[0] for h in people} == {"10.1000/alpha"}
        assert all("persName" in h[1] for h in people)
        orgs = query(corpus, Query(element_kind="org-mention"))
        assert {h[0] for h in orgs} == {"10.1000/alpha", "10.1000/beta"}

    def test_text_filter_casefolds(self, corpus):
        hits = query(corpus, Query(element_kind="person-mention", text="ADA"))
        assert len(hits) == 3
        assert all("Lovelace" in h[2] or "lovelace" in h[2] for h in hits)

    def test_any_includes_paragraphs(self, corpus):
        hits = query(corpus, Query(element_kind="any", text="hosts"))
        assert [h[0] for h in hits] == ["10.1000/beta"]
        assert hits[0][1].endswith("/p[1]")
        assert "Royal Society hosts TEI talks" in hits[0][2]

    def test_date_window(self, corpus):
        q = Query(
            element_kind="any",
            date_from=m.CalendarDate(2010),
            date_to=m.CalendarDate(2010),
        )
        assert {h[0] for h in query(corpus, q)} == {"10.1000/beta"}
        wide = Query(element_kind="any", date_from=m.CalendarDate(2009))
        assert {h[0] for h in query(corpus, wide)} == {
            "10.1000/alpha",
            "10.1000/beta",
            "10.1000/gamma",
        }

    def test_cites_surname(self, corpus):
        q = Query(element_kind="any", cites_author_surname="brecht")
        assert {h[0] for h in query(corpus, q)} == {"10.1000/alpha", "10.1000/beta"}
        none = Query(element_kind="any", cites_author_surname="einstein")
        assert query(corpus, none) == []

    def test_hits_sorted_and_snippets_collapsed(self, corpus):
        hits = query(corpus, Query(element_kind="any"))
        assert hits == sorted(hits, key=lambda h: (h[0], h[1]))
        assert all("\n" not in h[2] and "  " not in h[2] for h in hits)

    def test_conjunction_of_filters(self, corpus):
        q = Query(
            element_kind="org-mention",
            text="royal",
            date_from=m.CalendarDate(2010),
        )
        hits = query(corpus, q)
        assert [h[0] for h in hits] == ["10.1000/beta"]

    def test_records_shape(self, corpus):
        hits = query(corpus, Query(element_kind="abbreviation"))
        records = query_records(hits)
        assert records == [("hit", hits[0][0], hits[0][1], "", hits[0][2])]


class TestAgainstRawTreeOracle:
    """Index completeness checked against an element scan of the raw XML,
    read by the reference reader."""

    def test_locator_counts_match_raw_occurrences(self, corpus):
        from support import reference_tree

        raw_counts: dict = {}
        for doc_id in corpus.ids():
            with open(corpus.paths[doc_id], "rb") as handle:
                tree = reference_tree(handle.read())

            def count(node):
                name_map = {
                    "persName": "person",
                    "orgName": "organization",
                    "placeName": "place",
                    "abbr": "abbreviation",
                }
                stack = [(tree.root, False)]
                while stack:
                    el, in_text = stack.pop()
                    kind = None
                    if in_text and el.name in name_map:
                        kind = name_map[el.name]
                    elif in_text and el.name == "term" and el.attrs.get("type") == "software":
                        kind = "software"
                    if kind:
                        raw_counts[kind] = raw_counts.get(kind, 0) + 1
                    for child in el.element_children():
                        # names inside bibliographic records are structured
                        # metadata, not running-text mentions
                        if child.name == "biblStruct":
                            continue
                        stack.append((child, in_text or child.name == "text"))

            count(tree)
        entries = build_indexes(
            corpus, ["person", "organization", "place", "software", "abbreviation"]
        )
        indexed_counts: dict = {}
        for entry in entries:
            indexed_counts[entry.kind] = indexed_counts.get(entry.kind, 0) + len(
                entry.locators
            )
        assert indexed_counts == raw_counts
