"""Acceptance gate: one test per shipped capability, pass/fail per line.

Each test is self-contained: it builds its own fixtures, states its own
expected values, and pins its own tolerances.  Expected strings were
hand-derived from the style tables and checked by independent computation
before being pinned here.
"""

import dataclasses
import hashlib
import random
import re
import time

import pytest

from teijournal import model as m
from teijournal.cli import main as cli_main
from teijournal.corpus import Query, build_indexes, load_corpus, query
from teijournal.rawxml import parse_raw
from teijournal.render import (
    _format_entries,
    _number_entries,
    builtin_style,
    citation_order,
    format_entry,
    render_plaintext,
    render_xhtml,
)
from teijournal.schema import (
    RewriteRule,
    arbitrate,
    codify,
    detect_variants,
    profile_corpus,
    schema_to_json,
    validate_against,
)
from teijournal.validator import validate
from teijournal.xmlio import parse_article, serialize_article

from support import (
    SKELETON,
    article_bytes,
    brecht_book_record,
    dean_article_record,
    parse_skeleton,
    reference_tree,
    schmidt_chapter_record,
    with_changes,
    with_entries,
    with_file_desc,
    with_profile_desc,
    with_source,
    write_corpus,
)


# --------------------------------------------------------------------------
# 1. Parse, validate, and round-trip a complete article
# --------------------------------------------------------------------------


def test_criterion_01_roundtrip_of_complete_article_is_clean_and_fast():
    started = time.perf_counter()
    report = parse_article(SKELETON, "skeleton.xml")
    assert report.ok and not report.issues
    article = report.outcome
    assert validate(article) == []
    once = serialize_article(article)
    again = parse_article(once, "skeleton.xml")
    assert again.ok and again.outcome == article
    assert serialize_article(again.outcome) == once
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"round-trip took {elapsed:.2f}s (budget 1s)"


# --------------------------------------------------------------------------
# 2. Every validator rule catches its targeted defect
# --------------------------------------------------------------------------


def _patched_source(**monogr_changes):
    source = parse_skeleton().header.file_desc.source
    monogr = dataclasses.replace(source.monogr, **monogr_changes)
    return dataclasses.replace(source, monogr=monogr)


def _mutants():
    clean = parse_skeleton
    yield "R1", with_file_desc(
        clean(), availability=(), publication_date=None, authority=""
    )
    yield "R2", with_source(clean(), None)
    yield "R3", with_file_desc(clean(), main_title=(m.TextRun("Wrong Title"),))
    source = clean().header.file_desc.source
    yield "R4", with_source(
        clean(),
        dataclasses.replace(
            source, analytic=dataclasses.replace(source.analytic, authors=())
        ),
    )
    imprint = source.monogr.imprint
    yield "R5", with_source(
        clean(),
        _patched_source(
            imprint=dataclasses.replace(
                imprint, scopes=imprint.scopes + (m.Scope("chapter", "3"),)
            )
        ),
    )
    bad_author = dataclasses.replace(source.analytic.authors[0], surname="")
    yield "R6", with_source(
        clean(),
        dataclasses.replace(
            source,
            analytic=dataclasses.replace(source.analytic, authors=(bad_author,)),
        ),
    )
    author = source.analytic.authors[0]
    bad_units = (m.OrgUnit("workgroup", "CSA Department"),) + author.affiliation.org_units[1:]
    patched_author = dataclasses.replace(
        author, affiliation=dataclasses.replace(author.affiliation, org_units=bad_units)
    )
    yield "R7", with_source(
        clean(),
        dataclasses.replace(
            source,
            analytic=dataclasses.replace(source.analytic, authors=(patched_author,)),
        ),
    )
    yield "R8", dataclasses.replace(clean(), body=())
    broken = SKELETON.replace(b'target="#b1"', b'target="#b9"')
    yield "R9", parse_article(broken, "skeleton.xml").outcome
    yield "R10", with_changes(clean(), clean().header.revision_desc.changes[::-1])
    yield "R11", with_profile_desc(clean(), keywords=())
    duplicate = dataclasses.replace(schmidt_chapter_record(), xml_id="b1")
    yield "R12", with_entries(
        clean(), clean().reference_list.entries + (duplicate,)
    )


def test_criterion_02_each_rule_kills_exactly_its_mutant():
    assert validate(parse_skeleton()) == []
    killed = []
    for rule_id, mutant in _mutants():
        findings = validate(mutant)
        assert [f.rule_id for f in findings] == [rule_id], (
            f"mutant for {rule_id} produced {[(f.rule_id, f.message) for f in findings]}"
        )
        killed.append(rule_id)
    assert killed == [f"R{n}" for n in range(1, 13)]


# --------------------------------------------------------------------------
# 3. Schema inference scales and is closed over its corpus
# --------------------------------------------------------------------------

_SECTION_KINDS = ("intro", "methods", "results", "discussion")
_RENDS = ("italic", "bold", "mono")
_WORDS = ("analysis", "sample", "journal", "figure", "result", "method", "data")


def _synthetic_doc(rng: random.Random, approx: int = 50_000) -> bytes:
    parts = ['<doc version="1">']
    size = len(parts[0])
    while size < approx:
        block = [f'<sec type="{rng.choice(_SECTION_KINDS)}">']
        block.append(f"<head>{rng.choice(_WORDS).title()}</head>")
        for _ in range(rng.randint(2, 5)):
            words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(10, 30)))
            if rng.random() < 0.4:
                words += (
                    f' <hi rend="{rng.choice(_RENDS)}">{rng.choice(_WORDS)}</hi>'
                    f" {rng.choice(_WORDS)}"
                )
            if rng.random() < 0.2:
                words += f' <note place="foot">{rng.choice(_WORDS)}</note>'
            block.append(f"<p>{words}</p>")
        block.append("</sec>")
        blob = "".join(block)
        parts.append(blob)
        size += len(blob)
    parts.append("</doc>")
    return "".join(parts).encode("utf-8")


def test_criterion_03_inference_closure_and_determinism_at_scale():
    rng = random.Random(94)
    blobs = [_synthetic_doc(rng) for _ in range(100)]
    assert all(45_000 < len(blob) < 60_000 for blob in blobs)

    started = time.perf_counter()
    docs = [parse_raw(blob) for blob in blobs]
    schema = codify(profile_corpus(docs))
    for doc in docs:
        assert validate_against(schema, doc) == []
    second = schema_to_json(codify(profile_corpus(docs)))
    elapsed = time.perf_counter() - started

    assert second == schema_to_json(schema)
    assert schema.root == "doc"
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s over 100 docs (budget 5s)"


# --------------------------------------------------------------------------
# 4. Variant detection, arbitration, convergence
# --------------------------------------------------------------------------


def test_criterion_04_variants_are_found_then_arbitrated_away():
    corpus = [
        parse_raw(b'<d><hi rend="italic">a</hi><hi rend="italics">b</hi></d>'),
        parse_raw(b'<d><hi rend="italic">c</hi></d>'),
        parse_raw(b'<d><hi rend="italic">d</hi><hi rend="italics">e</hi></d>'),
    ]
    clusters = detect_variants(profile_corpus(corpus))
    assert len(clusters) == 1
    cluster = clusters[0]
    assert (cluster.element, cluster.attribute, cluster.key) == ("hi", "rend", "italic")
    assert cluster.members == (("italic", 3), ("italics", 2))

    majority = cluster.members[0][0]
    rules = [
        RewriteRule(cluster.element, cluster.attribute, value, majority)
        for value, _ in cluster.members[1:]
    ]
    rewritten, changes = arbitrate(corpus, rules)
    assert changes == 2
    rewritten = [parse_raw(data) for data in rewritten]
    assert detect_variants(profile_corpus(rewritten)) == []
    schema = codify(profile_corpus(rewritten))
    assert schema.elements["hi"].attributes["rend"].values == ("italic",)
    again, more = arbitrate(rewritten, rules)
    assert more == 0
    assert again == [d.data for d in rewritten]


# --------------------------------------------------------------------------
# 5. Growing the corpus never revokes permission
# --------------------------------------------------------------------------


def test_criterion_05_schema_permissions_grow_monotonically():
    rng = random.Random(27)
    docs = [parse_raw(_synthetic_doc(rng, approx=5_000)) for _ in range(20)]
    small = codify(profile_corpus(docs[:10]))
    large = codify(profile_corpus(docs))

    assert small.root == large.root
    for name, rule in small.elements.items():
        grown = large.elements.get(name)
        assert grown is not None, f"element {name!r} vanished"
        assert rule.children <= grown.children
        assert grown.required_children <= rule.required_children
        for attr, arule in rule.attributes.items():
            grown_attr = grown.attributes.get(attr)
            assert grown_attr is not None, f"attribute {name}/@{attr} vanished"
            if grown_attr.values is not None:
                assert arule.values is not None
                assert set(arule.values) <= set(grown_attr.values)
            assert grown_attr.required <= arule.required
        assert rule.text <= grown.text
    # everything the small corpus contains passes the large schema
    for doc in docs[:10]:
        assert validate_against(large, doc) == []


# --------------------------------------------------------------------------
# 6. Pinned citation output, three styles by three record types
# --------------------------------------------------------------------------

_GOLDEN_ENTRIES = {
    ("chicago", "book"): (
        "Brecht, Bertolt. *Der Jasager und der Neinsager - Vorlagen, "
        "Fassungen und Materialien*. Edition Suhrkamp, 1981."
    ),
    ("apa", "book"): (
        "Brecht, B. (1981). *Der Jasager und der Neinsager - Vorlagen, "
        "Fassungen und Materialien*. Edition Suhrkamp."
    ),
    ("mla", "book"): (
        "Brecht, Bertolt. *Der Jasager und der Neinsager - Vorlagen, "
        "Fassungen und Materialien*. Edition Suhrkamp, 1981."
    ),
    ("apa", "journalArticle"): (
        "Dean, M. (2009). Multilocus Analysis of Age Related Macular "
        "Degeneration. *European Journal of Human Genetics*, *17*(6), "
        "774–780. https://doi.org/10.1038/ejhg.2009.77"
    ),
    ("chicago", "journalArticle"): (
        'Dean, Michael. "Multilocus Analysis of Age Related Macular '
        'Degeneration". *European Journal of Human Genetics* 17, no. 6 '
        "(2009): 774–780. https://doi.org/10.1038/ejhg.2009.77."
    ),
    ("mla", "journalArticle"): (
        'Dean, Michael. "Multilocus Analysis of Age Related Macular '
        'Degeneration". *European Journal of Human Genetics*, vol. 17, '
        "no. 6, 2009, pp. 774–780."
    ),
    ("apa", "bookSection"): (
        "Schmidt, A. (2005). Editorial Workflows for Journals. In Janet "
        "Wilson (Ed.), *Handbook of Journal Publishing* (pp. 45–67). "
        "Academic Press."
    ),
    ("chicago", "bookSection"): (
        'Schmidt, Anna. "Editorial Workflows for Journals". In *Handbook '
        "of Journal Publishing*, edited by Janet Wilson, 45–67. "
        "Academic Press, 2005."
    ),
    ("mla", "bookSection"): (
        'Schmidt, Anna. "Editorial Workflows for Journals". *Handbook of '
        "Journal Publishing*, edited by Janet Wilson, Academic Press, "
        "2005, pp. 45–67."
    ),
}


def test_criterion_06_golden_entries_for_all_styles_and_types():
    records = {
        "book": brecht_book_record(),
        "journalArticle": dean_article_record(),
        "bookSection": schmidt_chapter_record(),
    }
    mismatches = []
    for (style_id, record_type), expected in _GOLDEN_ENTRIES.items():
        actual = format_entry(records[record_type], builtin_style(style_id)).marked()
        if actual != expected:
            mismatches.append((style_id, record_type, actual))
    assert mismatches == []
    assert len(_GOLDEN_ENTRIES) == 9


# --------------------------------------------------------------------------
# 7. In-text markers and reference numbering agree
# --------------------------------------------------------------------------

_MARKER_REFS = "".join(
    f'<biblStruct type="book" xml:id="{xml_id}"><monogr>'
    f"<author><persName><forename>A</forename><surname>{surname}</surname></persName></author>"
    f'<title level="m" type="main">{title}</title>'
    f'<imprint><publisher>P</publisher><date when="{year}"/></imprint>'
    f"</monogr></biblStruct>"
    for xml_id, surname, year, title in (
        ("b1", "Brecht", 1981, "Bbook"),
        ("b2", "Aarden", 1999, "Abook"),
        ("b3", "Late", 2003, "Lbook"),
        ("b4", "Unseen", 1990, "Ubook"),
    )
)

_MARKER_BODY = (
    '<div type="section"><head>One</head>'
    '<p>First <ref type="bibr" target="#b3">x</ref> then '
    '<ref type="bibr" target="#b1">y</ref>.</p>'
    '<p>Repeat <ref type="bibr" target="#b3">x</ref> and new '
    '<ref type="bibr" target="#b2">z</ref>.</p></div>'
)


def test_criterion_07_markers_follow_first_citation_order():
    data = article_bytes(title="Marker Check", body=_MARKER_BODY, refs=_MARKER_REFS)
    report = parse_article(data, "markers.xml")
    assert report.ok, report.issues
    article = report.outcome

    assert citation_order(article) == ["b3", "b1", "b2"]

    page = render_xhtml(article, builtin_style("chicago"))
    markers = re.findall(r'class="tj-ref" href="#ref-(b\d)">\[(\d+)\]</a>', page)
    assert markers == [("b3", "1"), ("b1", "2"), ("b3", "1"), ("b2", "3")]
    listed = re.findall(r'id="ref-(b\d)"', page)
    assert listed == ["b3", "b1", "b2", "b4"]
    labels = re.findall(r">\[(\d+)\] ", page)
    assert labels == ["1", "2", "3", "4"]

    text = render_plaintext(article)
    assert "First [1] then [2]." in text
    assert "Repeat [1] and new [3]." in text

    style = builtin_style("chicago")
    pairs = _number_entries(
        _format_entries(article.reference_list.entries, style), style, citation_order(article)
    )
    assert [(label, e.ref_id) for label, e in pairs] == [
        ("[1]", "b3"),
        ("[2]", "b1"),
        ("[3]", "b2"),
        ("[4]", "b4"),
    ]


# --------------------------------------------------------------------------
# 8. Structural queries agree with a raw-tree oracle
# --------------------------------------------------------------------------

_PEOPLE = ("Ada Lovelace", "Grace Hopper", "Alan Turing")
_ORGS = ("Royal Society", "Bell Labs", "CERN")
_PLACES = ("London", "Berlin", "Kyoto")
_TERMS = (("Mathematica", "software"), ("LaTeX", "software"), ("regression", "method"))
_ABBRS = ("TEI", "XML", "DNA")
_DATES = ("2008-03-15", "2009", "2010-06", "2011-01-01", "2012-12-31")
_CITED = ("Brecht", "Curie")


def _query_corpus_files(rng: random.Random) -> dict:
    files = {}
    for i in range(20):
        paragraphs = []
        for _ in range(rng.randint(2, 4)):
            bits = [f"Prose {rng.choice(_WORDS)} segment."]
            for _ in range(rng.randint(0, 3)):
                kind = rng.randrange(5)
                if kind == 0:
                    bits.append(f"<persName>{rng.choice(_PEOPLE)}</persName>")
                elif kind == 1:
                    bits.append(f"<orgName>{rng.choice(_ORGS)}</orgName>")
                elif kind == 2:
                    bits.append(f"<placeName>{rng.choice(_PLACES)}</placeName>")
                elif kind == 3:
                    term, term_kind = rng.choice(_TERMS)
                    bits.append(f'<term type="{term_kind}">{term}</term>')
                else:
                    bits.append(f"<abbr>{rng.choice(_ABBRS)}</abbr>")
            paragraphs.append("<p>" + " ".join(bits) + "</p>")
        body = (
            '<div type="section"><head>Part</head>' + "".join(paragraphs) + "</div>"
        )
        refs = ""
        if rng.random() < 0.6:
            surname = rng.choice(_CITED)
            refs = (
                f'<biblStruct type="book" xml:id="b1"><monogr>'
                f"<author><persName><forename>A</forename><surname>{surname}</surname></persName></author>"
                f'<title level="m" type="main">Cited Work</title>'
                f'<imprint><publisher>P</publisher><date when="1990"/></imprint>'
                f"</monogr></biblStruct>"
            )
        files[f"doc{i:02d}.xml"] = article_bytes(
            title=f"Synthetic Study {i}",
            doi=f"10.5/synth{i:02d}",
            date=rng.choice(_DATES),
            body=body,
            refs=refs,
        )
    return files


_MENTION_ELEMENTS = {
    "persName": "person-mention",
    "orgName": "org-mention",
    "placeName": "place-mention",
    "term": "term-mention",
    "abbr": "abbreviation",
}


def _oracle_hits(trees: dict, q: Query) -> list:
    """Recompute the query over trees of the reference reader, independently."""
    wanted_kind = q.element_kind or "any"
    needle = q.text.casefold() if q.text is not None else None
    hits = []
    for doc_id in sorted(trees):
        tree = trees[doc_id]
        header_date = None
        for node, in_header in _walk_raw(tree.root):
            if in_header and node.name == "date" and "when" in node.attrs:
                header_date = m.CalendarDate.parse(node.attrs["when"])
                break
        if q.date_from is not None or q.date_to is not None:
            if header_date is None:
                continue
            if q.date_from and header_date.sort_key() < q.date_from.sort_key():
                continue
            if q.date_to and header_date.sort_key() > q.date_to.end_key():
                continue
        if q.cites_author_surname is not None:
            cited = {
                " ".join(node.text_content().split()).casefold()
                for node, _ in _walk_raw(tree.root)
                if node.name == "surname"
            }
            if q.cites_author_surname.casefold() not in cited:
                continue
        for node, path, in_text in _text_nodes(tree.root):
            node_kind = _MENTION_ELEMENTS.get(node.name)
            if node_kind is not None:
                if wanted_kind not in ("any", node_kind):
                    continue
            elif node.name == "p" and in_text and wanted_kind == "any":
                pass
            else:
                continue
            text = node.text_content()
            if needle is not None and needle not in text.casefold():
                continue
            hits.append((doc_id, path, " ".join(text.split())))
    hits.sort(key=lambda h: (h[0], h[1]))
    return hits


def _walk_raw(root):
    stack = [(root, False)]
    while stack:
        node, in_header = stack.pop()
        yield node, in_header
        for child in node.element_children():
            stack.append((child, in_header or child.name == "publicationStmt"))


def _text_nodes(root):
    """(node, path, inside-text-flag), skipping bibliographic records."""
    out = []

    def walk(node, in_text):
        if node.name == "biblStruct":
            return
        if in_text:
            out.append((node, node.path, in_text))
        for child in node.element_children():
            walk(child, in_text or child.name == "text")

    walk(root, False)
    return out


def test_criterion_08_fifty_seeded_queries_match_the_oracle():
    rng = random.Random(4180)
    files = _query_corpus_files(rng)

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        paths = write_corpus(Path(scratch) / "corpus", files)
        corpus = load_corpus(paths)
        assert len(corpus.articles) == 20
        trees = {
            doc_id: reference_tree(Path(corpus.paths[doc_id]).read_bytes())
            for doc_id in corpus.ids()
        }

        kinds = (None, "any") + tuple(_MENTION_ELEMENTS.values())
        texts = (None, "ada", "ROYAL", "tei", "prose", "kyoto", "zzz")
        froms = (None, "2009", "2010-06", "2011-01-01")
        tos = (None, "2010", "2012-12-31")
        cites = (None, "brecht", "Curie", "Einstein")

        total_hits = 0
        for _ in range(50):
            picked = (
                rng.choice(kinds),
                rng.choice(texts),
                rng.choice(froms),
                rng.choice(tos),
                rng.choice(cites),
            )
            if all(part is None for part in picked):
                picked = ("any",) + picked[1:]
            kind, text, date_from, date_to, cited = picked
            q = Query(
                element_kind=kind,
                text=text,
                date_from=m.CalendarDate.parse(date_from) if date_from else None,
                date_to=m.CalendarDate.parse(date_to) if date_to else None,
                cites_author_surname=cited,
            )
            assert query(corpus, q) == _oracle_hits(trees, q)
            total_hits += len(query(corpus, q))
        assert total_hits > 100  # the comparison was not vacuous


# --------------------------------------------------------------------------
# 9. Indexes account for every planted mention
# --------------------------------------------------------------------------


def test_criterion_09_index_locators_cover_planted_mentions_exactly():
    body_one = (
        '<div type="section"><head>One</head>'
        "<p><persName>Ada Lovelace</persName> met <persName>Grace Hopper</persName> "
        "at the <orgName>Royal Society</orgName> in <placeName>London</placeName>.</p>"
        '<p><persName>Ada Lovelace</persName> used <term type="software">Mathematica</term> '
        'and <term type="method">regression</term> with <abbr>TEI</abbr> files.</p></div>'
    )
    body_two = (
        '<div type="section"><head>Two</head>'
        "<p><orgName>Bell Labs</orgName> sits near <placeName>Berlin</placeName> "
        "and <placeName>London</placeName>; <abbr>XML</abbr> and "
        '<term type="software">LaTeX</term> appear.</p></div>'
    )
    planted = {
        "person": 3,
        "organization": 2,
        "place": 3,
        "software": 2,  # the "method" term must not be indexed as software
        "abbreviation": 2,
        "keyword": 3,
        "author": 2,
    }

    import tempfile
    from pathlib import Path

    files = {
        "one.xml": article_bytes(
            title="One", doi="10.9/one", keywords=("alpha", "beta"), body=body_one
        ),
        "two.xml": article_bytes(
            title="Two",
            doi="10.9/two",
            surname="Smith",
            forename="Jane",
            keywords=("beta",),
            body=body_two,
        ),
    }
    with tempfile.TemporaryDirectory() as scratch:
        corpus = load_corpus(write_corpus(Path(scratch) / "corpus", files))
        entries = build_indexes(corpus)

    counted: dict = {}
    for entry in entries:
        counted[entry.kind] = counted.get(entry.kind, 0) + len(entry.locators)
    assert counted == planted

    by_key = {(e.kind, e.key): e for e in entries}
    ada = by_key[("person", "ada lovelace")]
    assert len(ada.locators) == 2
    assert all(doc == "10.9/one" and "/persName[" in path for doc, path in ada.locators)
    london = by_key[("place", "london")]
    assert {doc for doc, _ in london.locators} == {"10.9/one", "10.9/two"}
    assert ("software", "regression") not in by_key
    assert ("keyword", "beta") in by_key
    assert len(by_key[("keyword", "beta")].locators) == 2

    dean = by_key[("author", "dean, michael")]
    assert dean.locators == (
        (
            "10.9/one",
            "TEI[1]/teiHeader[1]/fileDesc[1]/sourceDesc[1]/biblStruct[1]/"
            "analytic[1]/author[1]",
        ),
    )


# --------------------------------------------------------------------------
# 10. Rendering is deterministic and never touches its inputs
# --------------------------------------------------------------------------


def test_criterion_10_rendering_is_pure_and_style_switching_is_stable(tmp_path):
    corpus_dir = tmp_path / "corpus"
    write_corpus(
        corpus_dir,
        {
            "alpha.xml": article_bytes(
                title="Alpha Study", doi="10.7/alpha", body=_MARKER_BODY, refs=_MARKER_REFS
            ),
            "beta.xml": article_bytes(title="Beta Study", doi="10.7/beta"),
        },
    )
    checksums = {
        p.name: hashlib.md5(p.read_bytes()).hexdigest()
        for p in corpus_dir.glob("*.xml")
    }

    outputs = {}
    for round_name, style in (("apa1", "apa"), ("chicago", "chicago"), ("apa2", "apa")):
        for source in sorted(corpus_dir.glob("*.xml")):
            target = tmp_path / f"{source.stem}-{round_name}.xhtml"
            assert (
                cli_main(
                    ["render", str(source), "--style", style, "--out", str(target)]
                )
                == 0
            )
            outputs[(source.stem, round_name)] = target.read_bytes()

    for stem in ("alpha", "beta"):
        assert outputs[(stem, "apa1")] == outputs[(stem, "apa2")]
    # only alpha has a reference list, so only alpha's output is style-bound
    assert outputs[("alpha", "apa1")] != outputs[("alpha", "chicago")]

    after = {
        p.name: hashlib.md5(p.read_bytes()).hexdigest()
        for p in corpus_dir.glob("*.xml")
    }
    assert after == checksums
