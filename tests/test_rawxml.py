"""The raw layer: names, spans, paths and text against a reference expat
reader, end offsets worked out only where they are read, the depth limit,
in-place profiling, and the import footprint of the schema and TEI
commands."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from functools import reduce
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree
from xml.etree.ElementTree import TreeBuilder, XMLParser

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import teijournal
from teijournal import model as m
from teijournal import rawxml, render, validator, xmlio
from teijournal.base import Finding
from teijournal.cli import ExitStatus, main, read_records
from teijournal.rawxml import (
    MAX_DEPTH,
    RawXmlError,
    TreeDocument,
    attribute_name,
    parse_raw,
)
from teijournal.schema import (
    arbitrate,
    codify,
    load_base_schema,
    parse_rules,
    profile_corpus,
    validate_against,
)

from support import (
    article_bytes,
    attr_value_spans_by_bytes,
    merge_profiles,
    prescan_parse_raw,
    reference_tree,
    write_corpus,
)

TEI = "http://www.tei-c.org/ns/1.0"


def tree_fields(doc: TreeDocument) -> list:
    """Per element in document order: display name, attributes by display
    name, span, foreign flag, source path and text runs."""
    return [
        (element.tag,
         {attribute_name(key): value for key, value in element.items()},
         doc.span(element), element in doc.foreign, doc.source_path(element),
         [t for t in (element.text, *(child.tail for child in element)) if t])
        for element in doc.root.iter()
    ]


def reference_fields(data: bytes) -> list:
    """The same fields, read by the reference reader."""
    return [
        (element.name, element.attrs, (element.start, element.end),
         element.foreign, element.path, element.text_runs())
        for element in reference_tree(data).root.iter()
    ]


# --------------------------------------------------------------------------
# Generated documents: quotes, '>' and '/' in values, odd whitespace,
# namespaces, comments, PIs and CDATA next to tags
# --------------------------------------------------------------------------

SPACE = st.sampled_from([" ", "\n", "\t ", " \r\n  "])
OPTIONAL_SPACE = st.sampled_from(["", " ", "\n", " \n\t"])
VALUE_CHARS = st.sampled_from(list("ab />'\"\n\t=") + ["&gt;", "&amp;", "&quot;", "&#47;"])
TEXT = st.lists(
    st.sampled_from(list("xy />'\"\n=") + ["&lt;", "&amp;", "]]&gt;"]), max_size=6
).map("".join)
OUTSIDE = st.sampled_from(["<!-- a > b / ' \" -->", "<?pi a > \"b' /?>", ""])
MISC = st.one_of(OUTSIDE, st.just("<![CDATA[ <x/> > ' \" ]]>"))
ELEMENT_NAMES = st.sampled_from(["a", "b", "hi", "x:a", "x:c"])
ATTR_NAMES = st.sampled_from(["k", "rend", "xml:id", "xml:lang", "x:k", "x:rend"])


@st.composite
def attribute(draw, name: str) -> str:
    quote = draw(st.sampled_from(['"', "'"]))
    chars = draw(st.lists(VALUE_CHARS.filter(lambda c: c != quote), max_size=6))
    eq = draw(st.sampled_from(["=", " = ", "\n=\n"]))
    return f"{name}{eq}{quote}{''.join(chars)}{quote}"


@st.composite
def element(draw, depth: int = 0) -> str:
    name = draw(ELEMENT_NAMES)
    names = draw(st.lists(ATTR_NAMES, max_size=3, unique=True))
    parts = [draw(attribute(n)) for n in names]
    decl = draw(st.sampled_from(["", 'xmlns:y="urn:y"', 'xmlns="urn:other"',
                                 f'xmlns="{TEI}"', 'xmlns=""']))
    if decl:
        parts.append(decl)
    head = name + "".join(draw(SPACE) + part for part in parts) + draw(OPTIONAL_SPACE)
    if depth >= 4 or draw(st.integers(0, 3)) == 0:
        return f"<{head}/>"
    return f"<{head}>{draw(content(depth + 1))}</{name}{draw(OPTIONAL_SPACE)}>"


def content(depth: int):
    """Elements, each after a run of text or a comment, PI or CDATA."""
    item = st.tuples(st.one_of(TEXT, MISC), st.deferred(lambda: element(depth)))
    return st.lists(item, max_size=3).map(lambda items: "".join(a + b for a, b in items))


@st.composite
def documents(draw) -> bytes:
    root_ns = draw(st.sampled_from([f' xmlns="{TEI}"', ""]))
    body = draw(content(1)) + draw(st.one_of(TEXT, MISC))
    prolog = draw(st.sampled_from(['<?xml version="1.0"?>\n', ""])) + draw(OUTSIDE)
    return (
        f'{prolog}<doc{root_ns} xmlns:x="urn:x">{body}</doc>{draw(OUTSIDE)}'
    ).encode("utf-8")


def with_tei_prefix(data: bytes) -> bytes:
    """Bind the generated documents' ``x`` prefix to the TEI namespace, so
    that ``x:k`` attributes and ``x:a`` elements are TEI names."""
    return data.replace(b'xmlns:x="urn:x"', f'xmlns:x="{TEI}"'.encode(), 1)


class TestStartTagScan:
    @settings(max_examples=120, deadline=None)
    @given(documents(), st.sampled_from([rawxml._CHUNK, 1, 7]))
    def test_spans_and_node_fields_match_byte_scan(self, data, chunk):
        """Also with the C parser fed a few bytes at a time."""
        with mock.patch.object(rawxml, "_CHUNK", chunk):
            doc = parse_raw(data)
        assert tree_fields(doc) == reference_fields(data)

    @settings(max_examples=50, deadline=None)
    @given(documents(), st.data())
    def test_truncated_input_raises_only_raw_xml_error(self, data, choices):
        cut = choices.draw(st.integers(min_value=1, max_value=len(data) - 1))
        try:
            parse_raw(data[:cut])
        except RawXmlError:
            pass

    def test_quoted_gt_and_slash(self):
        data = b"""<d><a k='>/' v="/>">x</a><b k="'>'"\n\t/><c/></d>"""
        doc = parse_raw(data)
        a, b, c = doc.root
        assert data[slice(*doc.span(a))] == b"""<a k='>/' v="/>">x</a>"""
        assert data[slice(*doc.span(b))] == b"""<b k="'>'"\n\t/>"""
        assert doc.span(c) == (len(data) - 8, len(data) - 4)


# --------------------------------------------------------------------------
# End offsets are worked out only for the nodes whose span is read
# --------------------------------------------------------------------------


class CountingPattern:
    """Stands in for a compiled pattern and counts its ``match`` calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def match(self, *args):
        self.calls += 1
        return self.pattern.match(*args)


@pytest.fixture
def tag_scans(monkeypatch):
    counter = CountingPattern(rawxml._START_TAG_REST_RE)
    monkeypatch.setattr(rawxml, "_START_TAG_REST_RE", counter)
    return counter


@pytest.fixture
def slices(monkeypatch):
    calls = []
    real = TreeDocument.slice

    def counting_slice(self, node):
        calls.append(node)
        return real(self, node)

    monkeypatch.setattr(TreeDocument, "slice", counting_slice)
    return calls


@pytest.fixture
def offset_passes(monkeypatch):
    """Counts the scans that record start offsets for slicing."""
    calls = []
    real = rawxml._tag_offsets

    def counting_starts(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(rawxml, "_tag_offsets", counting_starts)
    return calls


OPAQUE_BODY = (
    '<div type="s"><p>See <x:w xmlns:x="urn:x" k="a>b"><x:v/></x:w> and'
    ' <x:e xmlns:x="urn:x"\n/>.</p>'
    "<table><row><cell>1</cell></row></table>"
    '<formula notation="tex">x</formula><list><head>H</head></list></div>'
)


class TestDeferredSpans:
    def test_parse_without_opaque_markup_scans_no_start_tag(
        self, tag_scans, slices, offset_passes
    ):
        data = article_bytes(title="Plain")
        report = xmlio.parse_article(data, "plain.xml")
        assert report.ok and not slices
        assert tag_scans.calls == 0
        assert not offset_passes

    def test_raw_parse_scans_no_start_tag(self, tag_scans):
        parse_raw(article_bytes(title="Opaque", body=OPAQUE_BODY))
        parse_raw(b"<d><a k='>'/><b>x</b></d>")
        assert tag_scans.calls == 0

    def test_parse_article_scans_once_per_sliced_node(
        self, tag_scans, slices, offset_passes
    ):
        data = article_bytes(title="Opaque", body=OPAQUE_BODY)
        report = xmlio.parse_article(data, "opaque.xml")
        assert report.ok
        assert len(slices) == 5
        assert tag_scans.calls <= len(slices)
        assert offset_passes == [data]

    def test_arbitrate_runs_no_expat_pass_and_scans_only_documents_with_a_hit(
        self, monkeypatch, offset_passes
    ):
        parsers = []
        real = rawxml._new_parser
        monkeypatch.setattr(rawxml, "_new_parser", lambda: parsers.append(1) or real())
        first, miss, second = (b'<d><hi rend="italics">a</hi><hi rend="italics"/></d>',
                               b'<d><hi rend="bold">c</hi></d>',
                               b'<d xmlns:t="urn:t"><t:hi t:k="v"/><hi rend="italics"/></d>')
        docs = [parse_raw(data) for data in (first, miss, second)]
        _, changes = arbitrate(docs, parse_rules("hi rend italics -> italic"))
        assert changes == 3
        assert offset_passes == [first, second]
        assert not parsers


def tree_paths(element, path: str) -> list:
    """(element, path) per element, with the path built on the way down."""
    out = [(element, path)]
    counters: dict = {}
    for child in element:
        counters[child.tag] = counters.get(child.tag, 0) + 1
        out.extend(tree_paths(child, f"{path}/{child.tag}[{counters[child.tag]}]"))
    return out


class TestSourcePath:
    @settings(max_examples=60, deadline=None)
    @given(documents())
    def test_matches_path_built_top_down(self, data):
        doc = parse_raw(data)
        for element, path in tree_paths(doc.root, f"{doc.root.tag}[1]"):
            assert doc.source_path(element) == path

    def test_nodes_carry_no_parent(self):
        doc = parse_raw(b"<d><e><f/></e><e/></d>")
        first, second = doc.root
        assert not hasattr(first, "parent")
        assert [doc.source_path(first), doc.source_path(second)] == ["d[1]/e[1]", "d[1]/e[2]"]
        assert doc.source_path(first[0]) == "d[1]/e[1]/f[1]"


# --------------------------------------------------------------------------
# Attribute keys and skipped entities
# --------------------------------------------------------------------------


class TestParseTree:
    @settings(max_examples=120, deadline=None)
    @given(documents(), st.booleans())
    def test_names_spans_paths_and_text_match_parse_raw(self, data, tei_prefix):
        """Also with the ``x`` prefix bound to TEI; the reference reader is
        the oracle for what parse_raw returns."""
        if tei_prefix:
            data = with_tei_prefix(data)
        doc = parse_raw(data)
        reference = reference_tree(data)
        assert tree_fields(doc) == reference_fields(data)
        assert doc.ns_decls == reference.ns_decls
        assert doc.root_ns == reference.root.ns

    def test_no_namespace_under_a_namespaced_root_reads_brace_local(self):
        doc = parse_raw(b'<r xmlns="urn:r"><a xmlns="" k="v" x:k="w" xmlns:x="urn:x"/></r>')
        assert [e.tag for e in doc.root.iter()] == ["{urn:r}r", "{}a"]
        assert [name for name, *_ in doc.attributes(doc.root[0])] == ["k", "{urn:x}k"]
        assert doc.source_path(doc.root[0]) == "{urn:r}r[1]/{}a[1]"
        doc = parse_raw(b'<r><a xmlns=""/><b xmlns="urn:b"><c xmlns=""/></b></r>')
        assert [e.tag for e in doc.root.iter()] == ["r", "a", "{urn:b}b", "c"]

    def test_tei_prefixed_attribute_is_read_by_its_local_name(self):
        body = (
            '<div type="s" xmlns:t="http://www.tei-c.org/ns/1.0">'
            '<p><hi t:rend="b">x</hi> <hi rend="a" t:rend="b">y</hi>'
            ' <hi t:rend="b" rend="a">z</hi></p></div>'
        )
        article = xmlio.parse_article(article_bytes(title="T", body=body)).outcome
        hi = [node for node in article.body[0].blocks[0].content
              if isinstance(node, m.Emph)]
        assert [node.rend for node in hi] == ["b", "b", "a"]  # the later one wins

    def test_skipped_entity_reference_is_dropped_as_parse_raw_drops_it(self):
        data = article_bytes(title="T", body='<div><p>a&undeclared;b</p></div>')
        data = data.replace(b"<TEI ", b"<!DOCTYPE TEI [%pe;]>\n<TEI ", 1)
        report = xmlio.parse_article(data)
        assert report.ok, report.issues
        assert report.outcome.body[0].blocks[0].content == (m.TextRun("ab"),)
        fields = tree_fields(parse_raw(data))
        assert [f for f in fields if f[0] == "p"][-1][5] == ["ab"]
        with mock.patch.object(rawxml, "_CHUNK", 1):  # skipped before it is built
            assert tree_fields(parse_raw(data)) == fields


# --------------------------------------------------------------------------
# Namespace declarations recorded during the parse
# --------------------------------------------------------------------------


def walk_ns_decls(data: bytes) -> tuple:
    """Oracle: the walk over every element's declarations that parse_article
    made before the parse recorded them; first declaration of a prefix wins.
    The declarations per element come from the reference reader."""
    seen: dict = {}
    for element in reference_tree(data).root.iter():
        for prefix, uri in element.ns_decls:
            seen.setdefault(prefix, uri)
    return tuple(seen.items())


# Each prefix is declared with one of two URIs, so nested elements re-declare
# prefixes with other URIs; names and attributes use the prefixes in scope.
NS_CHOICES = {"p": ("urn:p1", "urn:p2"), "q": ("urn:q1", "urn:q2")}


@st.composite
def ns_element(draw, scope: frozenset = frozenset({"x"}), depth: int = 0) -> str:
    decls = {}
    for prefix, uris in NS_CHOICES.items():
        uri = draw(st.sampled_from((None, *uris)))
        if uri is not None:
            decls[prefix] = uri
    scope = scope | set(decls)
    name = draw(st.sampled_from(["a", *sorted(f"{p}:e" for p in scope)]))
    head = name + "".join(f' xmlns:{p}="{uri}"' for p, uri in decls.items())
    if draw(st.booleans()):
        head += f' {draw(st.sampled_from(sorted(scope)))}:k="v"'
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return f"<{head}/>"
    children = draw(st.lists(ns_element(scope, depth + 1), max_size=3))
    return f"<{head}>t{''.join(children)}</{name}>"


class TestForeignNames:
    @settings(deadline=None)
    @given(documents())
    def test_no_foreign_element_the_builder_meets_has_a_native_name(self, data):
        """Under a document element in a namespace, a foreign element whose
        parent is native, the only kind a reader of the tree meets without
        entering foreign markup, never has the name of a native element."""
        doc = parse_raw(data)
        if not doc.root_ns:
            return
        native = [e for e in doc.root.iter() if e not in doc.foreign]
        boundary = {child.tag for e in native for child in e if child in doc.foreign}
        assert not boundary & {e.tag for e in native}


class TestNamespaceDeclarations:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(ns_element(), max_size=3))
    def test_raw_document_matches_walk(self, children):
        data = f'<doc xmlns:x="urn:x">{"".join(children)}</doc>'.encode()
        assert parse_raw(data).ns_decls == walk_ns_decls(data)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ns_element(), min_size=1, max_size=3), st.booleans())
    def test_article_hoists_prefixes_of_opaque_markup(self, fragments, block):
        """Foreign markup inside a paragraph and as a block of its own."""
        opaque = f'<x:w xmlns:x="urn:x">{"".join(fragments)}</x:w>'
        body = f'<div type="s"><p>See {opaque}.</p>{opaque if block else ""}</div>'
        data = article_bytes(title="Opaque", body=body)
        article = xmlio.parse_article(data, "o.xml").outcome
        expected = tuple(sorted(walk_ns_decls(data)))
        assert article.ns_decls == expected
        serialized = xmlio.serialize_article(article)
        assert xmlio.parse_article(serialized).outcome.ns_decls == expected

    def test_first_declaration_wins_in_document_order(self):
        data = (b'<d><a xmlns:p="urn:1"><b xmlns:p="urn:2" xmlns:q="urn:3"/></a>'
                b'<c xmlns:q="urn:4" xmlns:r="urn:5"/></d>')
        assert parse_raw(data).ns_decls == (
            ("p", "urn:1"), ("q", "urn:3"), ("r", "urn:5")
        )


# --------------------------------------------------------------------------
# Encoding declaration
# --------------------------------------------------------------------------


def padded_declaration(encoding: str) -> bytes:
    """An XML declaration whose encoding starts past its 300th byte."""
    return f'<?xml version="1.0"{" " * 300}encoding="{encoding}"?>'.encode("ascii")


class TestEncodingDeclaration:
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_a_declaration_is_read_past_its_256th_byte(self, bom):
        body = b'<doc><x:y xmlns:x="urn:x">\xe9</x:y></doc>'
        with pytest.raises(RawXmlError, match="unsupported encoding 'iso-8859-1'"):
            parse_raw(bom + padded_declaration("ISO-8859-1") + body)
        doc = parse_raw(bom + padded_declaration("UTF-8") + body.replace(b"\xe9", "é".encode()))
        assert doc.slice(doc.root[0]) == '<x:y xmlns:x="urn:x">é</x:y>'


# --------------------------------------------------------------------------
# Depth limit
# --------------------------------------------------------------------------


DEEP_HEADER = (
    '<teiHeader><fileDesc><titleStmt><title level="a" type="main">T</title>'
    "</titleStmt><publicationStmt><authority>A</authority></publicationStmt>"
    "</fileDesc></teiHeader>"
)


def tei_nested_hi(depth: int) -> bytes:
    """An article whose deepest element is ``depth`` levels down.

    Nested ``hi`` costs the most stack per level in the builder, validator,
    serializer and renderers.  TEI, text, body, div and p take five levels.
    """
    n = depth - 5
    inner = '<hi rend="i">' * n + "x" + "</hi>" * n
    return (
        f'<TEI xmlns="{TEI}">{DEEP_HEADER}<text><body><div type="s"><p>{inner}</p>'
        "</div></body></text></TEI>"
    ).encode("utf-8")


def tei_nested_divs(depth: int) -> bytes:
    """An article whose paragraph is ``depth`` levels down, in nested divs.

    TEI, text, body and p take four levels.
    """
    n = depth - 4
    inner = '<div type="s">' * n + "<p>x</p>" + "</div>" * n
    return (
        f'<TEI xmlns="{TEI}">{DEEP_HEADER}<text><body>{inner}</body></text></TEI>'
    ).encode("utf-8")


def raw_nested(depth: int) -> bytes:
    return (b'<a k="v">' * depth) + b"x" + (b"</a>" * depth)


class TestDepthLimit:
    def test_every_article_stage_completes_at_the_limit(self):
        data = tei_nested_hi(MAX_DEPTH)
        report = xmlio.parse_article(data, "deep.xml")
        assert report.ok, report.issues
        article = report.outcome
        validator.validate(article)
        serialized = xmlio.serialize_article(article)
        assert xmlio.serialize_article(xmlio.parse_article(serialized).outcome) == serialized
        render.render_xhtml(article, render.builtin_style("chicago"))
        render.render_plaintext(article)

    @pytest.mark.parametrize("make", [tei_nested_hi, tei_nested_divs])
    def test_equality_and_repr_at_the_limit(self, make):
        data = make(MAX_DEPTH)
        first = xmlio.parse_article(data, "deep.xml").outcome
        second = xmlio.parse_article(data, "deep.xml").outcome
        other = xmlio.parse_article(data.replace(b">x<", b">y<"), "deep.xml").outcome
        assert first == second and first is not second
        assert first != other
        assert repr(first) == repr(second) != repr(other)
        assert hash(first) == hash(second)
        assert xmlio.parse_article(make(MAX_DEPTH + 1)).outcome is None

    def test_every_schema_stage_completes_at_the_limit(self):
        doc = parse_raw(raw_nested(MAX_DEPTH))
        schema = codify(profile_corpus([doc]))
        assert validate_against(schema, doc, load_base_schema()) == []
        rewritten, changes = arbitrate([doc], parse_rules("a k v -> w\n"))
        assert changes == MAX_DEPTH
        assert b'k="v"' not in rewritten[0]

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 10_000])
    def test_deeper_input_is_refused(self, depth):
        with pytest.raises(RawXmlError, match=f"nested more than {MAX_DEPTH} deep"):
            parse_raw(raw_nested(depth))
        report = xmlio.parse_article(tei_nested_hi(depth), "deep.xml")
        assert report.outcome is None
        assert f"nested more than {MAX_DEPTH} deep" in report.issues[0].message

    def test_far_too_deep_input_is_refused_after_its_first_chunk(self, monkeypatch):
        feeds = []

        class CountingParser(XMLParser):
            def feed(self, data):
                feeds.append(len(data))
                super().feed(data)

        monkeypatch.setattr("xml.etree.ElementTree.XMLParser", CountingParser)
        data = raw_nested(1_000_000)
        column = len(b'<a k="v">') * MAX_DEPTH + 1
        with pytest.raises(RawXmlError) as refused:
            parse_raw(data)
        assert str(refused.value) == (
            f"elements nested more than {MAX_DEPTH} deep (line 1, column {column})"
        )
        assert len(data) > 100 * rawxml._CHUNK
        assert feeds == [rawxml._CHUNK]

    def test_limit_holds_whatever_the_chunk_size(self, monkeypatch):
        monkeypatch.setattr(rawxml, "_CHUNK", 1)
        assert len(list(parse_raw(raw_nested(MAX_DEPTH)).root.iter())) == MAX_DEPTH
        with pytest.raises(RawXmlError, match=f"nested more than {MAX_DEPTH} deep"):
            parse_raw(raw_nested(MAX_DEPTH + 1))

    def test_deep_subtree_closed_within_a_chunk_is_refused(self):
        """The path of last children is short again once the deep part is
        closed, so the check of the whole tree at the end refuses it."""
        data = b"<r>" + raw_nested(MAX_DEPTH) + b"<b/></r>"
        column = len(b"<r>") + len(b'<a k="v">') * (MAX_DEPTH - 1) + 1
        with pytest.raises(RawXmlError) as refused:
            parse_raw(data)
        assert str(refused.value) == (
            f"elements nested more than {MAX_DEPTH} deep (line 1, column {column})"
        )

    def test_c_tree_builder_hands_back_the_open_tree_mid_parse(self):
        """``parse_raw`` relies on CPython's C ``TreeBuilder``: its ``close``
        returns the document element built so far, whose path of last
        children holds the open elements, and the parse goes on."""
        builder = TreeBuilder()
        parser = XMLParser(target=builder)
        parser.feed(b"<a><b/><c><d>x")
        root = builder.close()
        assert [root.tag, root[-1].tag, root[-1][-1].tag] == ["a", "c", "d"]
        parser.feed(b"</d><e/></c></a>")
        assert parser.close() is root
        assert [element.tag for element in root.iter()] == ["a", "b", "c", "d", "e"]

    def test_validate_command_exits_2_not_1(self, tmp_path, capsys):
        deep = tmp_path / "deep.xml"
        deep.write_bytes(tei_nested_hi(10_000))
        assert main(["validate", str(deep)]) == ExitStatus.FAILURE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot parse: elements nested more than {MAX_DEPTH} deep" in err


# --------------------------------------------------------------------------
# parse_article refuses exactly what parse_raw refuses
# --------------------------------------------------------------------------

PARITY_BASES = (
    article_bytes(title="Opaque", body=OPAQUE_BODY),
    article_bytes(
        title="Marked",
        body='<div type="s"><p>a<!-- c -->b<?pi x?><![CDATA[<c>]]> <hi rend="i">'
             'd</hi> &amp; e</p><list><item>f</item></list></div>',
        refs='<biblStruct xml:id="b1" type="book"><monogr><title level="m">'
             "B</title></monogr></biblStruct>",
    ),
)
MUTATION_BYTES = st.sampled_from(list(b"<>&;\"'/=!?[]- x") + [0, 0xFF, 0xC3])


@st.composite
def damaged_documents(draw) -> bytes:
    """Truncated or byte-mutated articles, and articles nested 250 to 300
    deep, which may also be truncated after the deep part."""
    kind = draw(st.sampled_from(["truncated", "mutated", "deep"]))
    if kind == "deep":
        make = draw(st.sampled_from([tei_nested_hi, tei_nested_divs]))
        data = make(draw(st.integers(250, 300)))
        if draw(st.booleans()):
            data = data[: draw(st.integers(len(data) // 2, len(data) - 1))]
        return data
    data = draw(st.sampled_from(PARITY_BASES))
    if kind == "truncated":
        return data[: draw(st.integers(0, len(data) - 1))]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        byte = bytes([draw(MUTATION_BYTES)])
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        tail = data[at + 1:] if edit != "insert" else data[at:]
        data = data[:at] + (b"" if edit == "delete" else byte) + tail
    return data


class TestParserParity:
    @settings(max_examples=150, deadline=None)
    @given(damaged_documents())
    def test_refusals_agree_and_accepted_articles_reach_a_fixpoint(self, data):
        try:
            parse_raw(data)
            refusal = None
        except RawXmlError as exc:
            refusal = str(exc)
        report = xmlio.parse_article(data, "damaged.xml")
        if refusal is not None:
            assert report.issues == (Finding("P-refused", "error", "", refusal),)
            return
        assert all(issue.location for issue in report.issues)
        if report.ok:
            once = xmlio.serialize_article(report.outcome)
            again = xmlio.parse_article(once, "damaged.xml")
            assert xmlio.serialize_article(again.outcome) == once


    @settings(max_examples=150, deadline=None)
    @given(damaged_documents())
    def test_parse_raw_raises_nothing_but_raw_xml_error(self, data):
        try:
            parse_raw(data)
        except RawXmlError:
            pass


# --------------------------------------------------------------------------
# parse_raw agrees with the interleaved read it replaced, and the regex
# offsets with expat's
# --------------------------------------------------------------------------


def with_doctype(data: bytes, doctype: str) -> bytes:
    """``data`` with ``doctype`` before its first ``<doc`` or ``<TEI``, or
    at its start when it holds neither."""
    at = min((i for i in (data.find(b"<doc"), data.find(b"<TEI")) if i >= 0), default=0)
    return data[:at] + doctype.encode("utf-8") + data[at:]


def read_outcome(data: bytes, read=parse_raw):
    """The refusal of ``read``, or the fields of the tree it reads."""
    try:
        doc = read(data)
    except RawXmlError as exc:
        return str(exc)
    elements = list(doc.root.iter())
    return ([(e.tag, e.attrib, e.text, e.tail) for e in elements],
            doc.ns_decls, doc.root_ns, [e in doc.foreign for e in elements])


def prescan_outcome(data: bytes):
    """:func:`read_outcome` of the interleaved read that ``parse_raw``
    replaced, kept in ``support`` as its reference: every document goes
    through the prescan, a chunk at a time."""
    return read_outcome(data, prescan_parse_raw)


DOCTYPES = st.sampled_from([
    "",
    "<!DOCTYPE doc>",
    '<!DOCTYPE doc [<!ATTLIST a d CDATA "v"><!-- ]> -->]>',
    '<!DOCTYPE doc [<!ENTITY e "x">]>',
    '<!DOCTYPE doc SYSTEM "doc.dtd">',
    "<!DOCTYPE doc [%pe;]>",  # expat skips the undeclared ``&e;``
])


# Nothing, a UTF-8 BOM, and two prefixes the encoding check refuses before
# either path parses: a UTF-16 BOM and a Latin-1 declaration.
PREFIXES = st.sampled_from([
    b"", b"\xef\xbb\xbf", b"\xff\xfe", b'<?xml version="1.0" encoding="ISO-8859-1"?>',
])


def with_entity_reference(data: bytes) -> bytes:
    """``data`` with an undeclared ``&e;`` before its last end tag."""
    head, end_tag, tail = data.rpartition(b"</")
    return head + b"&e;" + end_tag + tail


class TestOnePassRead:
    @settings(deadline=None)
    @given(
        st.one_of(documents(), documents().map(with_tei_prefix), damaged_documents()),
        DOCTYPES,
        PREFIXES,
        st.sampled_from([rawxml._CHUNK, 1, 7]),
        st.booleans(),
    )
    def test_agrees_with_the_prescan_path(self, data, doctype, prefix, chunk, entity_ref):
        if entity_ref:
            data = with_entity_reference(data)
        data = prefix + with_doctype(data, doctype)
        with mock.patch.object(rawxml, "_CHUNK", chunk):
            assert read_outcome(data) == prescan_outcome(data)

    def test_only_a_document_with_a_doctype_is_prescanned(self, monkeypatch):
        passes = []  # (pass, bytes it read), in the order they ran

        def recording(name, real):
            def read(data):
                passes.append((name, data))
                return real(data)
            return read

        class RecordingParser(ElementTree.XMLParser):
            def feed(self, data):
                passes.append(("C feed", data))
                return super().feed(data)

        monkeypatch.setattr(rawxml, "_prescan", recording("prescan", rawxml._prescan))
        monkeypatch.setattr(rawxml, "_depth_scan", recording("depth scan", rawxml._depth_scan))
        monkeypatch.setattr(ElementTree, "XMLParser", RecordingParser)

        def passes_over(data, refused=False):
            passes.clear()
            with pytest.raises(RawXmlError) if refused else contextlib.nullcontext():
                parse_raw(data)
            assert all(read == data for _, read in passes)  # each pass reads it whole
            return [name for name, _ in passes]

        data = article_bytes(title="T")
        assert passes_over(data) == ["C feed"]
        assert passes_over(with_doctype(data, "<!DOCTYPE TEI>")) == ["prescan", "C feed"]
        # a refused document without a DOCTYPE, truncated or nested too deep
        for refused in (data[:-20], tei_nested_divs(300)):
            assert passes_over(refused, refused=True) == ["C feed", "depth scan"]
        # refused by the prescan: no byte reaches the C parser
        refused = with_doctype(data, '<!DOCTYPE TEI [<!ENTITY e "x">]>')
        assert passes_over(refused, refused=True) == ["prescan", "depth scan"]

    @pytest.mark.parametrize("decl, name", [(b'xmlns="urn:a b"', b"e"),
                                            (b'xmlns:p="urn:a b"', b"p:e")],
                             ids=["default", "prefixed"])
    def test_namespace_uri_holding_a_space_is_read_as_written(self, decl, name):
        """The C parser reads it, and so does every expat pass, whose
        namespace separator no XML 1.0 document can hold."""
        data = b"<d><" + name + b" " + decl + b"/></d>"
        assert read_outcome(data) == prescan_outcome(data)
        doc = parse_raw(data)
        assert [e.tag for e in doc.root.iter()] == ["d", "{urn:a b}e"]
        assert doc.root[0] in doc.foreign


# expat accepts a namespace URI that holds '}', the C parser's namespace
# separator; the C parser refuses it.
BRACE_URI = b'<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader xmlns:p="u}x"/></TEI>'
BRACE_REFUSAL = "a namespace URI holds '}' (syntax error: line 1, column 41)"


class TestBraceInNamespaceUri:
    @pytest.mark.parametrize("doctype", ["", "<!DOCTYPE TEI>"])
    def test_parse_raw_refuses_it(self, doctype):
        data = with_doctype(BRACE_URI, doctype)
        with pytest.raises(RawXmlError, match="a namespace URI holds '}'"):
            parse_raw(data)
        assert read_outcome(data) == prescan_outcome(data)

    def test_parse_article_reports_an_error(self):
        report = xmlio.parse_article(BRACE_URI, "brace.xml")
        assert report.outcome is None
        assert report.issues == (Finding("P-refused", "error", "", BRACE_REFUSAL),)

    def test_validate_cannot_parse_and_exits_2(self, tmp_path):
        path = tmp_path / "brace.xml"
        path.write_bytes(BRACE_URI)
        code, out, err = run_in_process(["validate", path])
        assert code == ExitStatus.FAILURE
        assert err == f"{path}: cannot parse: {BRACE_REFUSAL}\n"

    def test_codify_skips_it_and_goes_on(self, tmp_path):
        docs = tmp_path / "docs"
        write_corpus(docs, {"a.xml": BRACE_URI, "b.xml": article_bytes(title="T")})
        code, out, err = run_in_process(["codify", docs, "--out", tmp_path / "s.json"])
        assert code == ExitStatus.OK
        assert err.startswith(f"skipping {docs / 'a.xml'}: {BRACE_REFUSAL}\n")
        assert "internal error" not in err
        assert "codified 1 documents" in err + out


SPACE_URI_PARAGRAPH = '<div type="s"><p>See <q:m xmlns:q="urn:a b" q:k="v">x</q:m>.</p></div>'


class TestSpaceInNamespaceUri:
    def test_article_parses_and_serializes_to_the_same_bytes(self):
        report = xmlio.parse_article(article_bytes(title="T", body=SPACE_URI_PARAGRAPH))
        assert report.ok and not report.issues, report.issues
        assert report.outcome.ns_decls == (("q", "urn:a b"),)
        serialized = xmlio.serialize_article(report.outcome)
        assert b'<q:m xmlns:q="urn:a b" q:k="v">x</q:m>' in serialized
        again = xmlio.parse_article(serialized)
        assert again.ok and not again.issues, again.issues
        assert xmlio.serialize_article(again.outcome) == serialized

    def test_start_tag_names_and_arbitrate_rewrites_only_the_unprefixed_key(self):
        doc = parse_raw(b'<d xmlns:p="urn:a b"><p:x p:k="v" k="w"/><p:x p:k="w" k="w"/></d>')
        assert [e.tag for e in doc.root] == ["{urn:a b}x", "{urn:a b}x"]
        assert [a[:2] for a in doc.attributes(doc.root[0])] == [("{urn:a b}k", "v"), ("k", "w")]
        rewritten, changes = arbitrate([doc], parse_rules("* k w -> z\n"))
        assert changes == 2
        assert rewritten == [
            b'<d xmlns:p="urn:a b"><p:x p:k="v" k="z"/><p:x p:k="w" k="z"/></d>'
        ]


SUBSET_TEXT = st.one_of(
    st.sampled_from(["'", '"', "x>y<z", "]>", "<a>"]),
    st.lists(st.sampled_from(list("]><'\" x")), max_size=6).map("".join),
)


@st.composite
def internal_subset(draw) -> str:
    """Declarations, comments and PIs whose text holds ']', '>', '<' and
    quotes: attribute defaults, public and system literals of notations,
    comments and PIs, and a parameter entity reference."""
    items = []
    for n in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["comment", "pi", "attlist", "notation", "pe"]))
        text = draw(SUBSET_TEXT)
        if kind == "comment":
            items.append(f"<!--{text}-->")
        elif kind == "pi":
            items.append(f"<?pi {text}?>")
        elif kind == "attlist":  # a default value holds no '<'
            value = text.replace("<", "").replace('"', "")
            items.append(f'<!ATTLIST a d{n} CDATA "{value}" e{n} CDATA \'"]>\'>')
        elif kind == "notation":  # a public id holds no '<', '>', ']' or '"'
            system = text.replace('"', "")
            items.append(f"<!NOTATION n{n} PUBLIC \"p'{n}\" \"{system}\">")
        else:
            items.append("%pe;")
        items.append(draw(OPTIONAL_SPACE))
    return "".join(items)


# Markup in content whose text holds a '<'.
LT_MISC = st.sampled_from(["", "<?pi <a> ?>", "<!-- <a/> -->", "<![CDATA[<a>]]>"])


class TestTagOffsets:
    @settings(deadline=None)
    @given(documents(), st.booleans(), st.none() | internal_subset(), OPTIONAL_SPACE,
           LT_MISC)
    # a quote in a comment, or a '>' in a literal, must not hide a later '<'
    @example(b"<doc><a/></doc>", False, '<!--\'--><!NOTATION n PUBLIC "p" "<a">', "", "")
    @example(b"<doc><a/></doc>", False, '<!NOTATION n PUBLIC "p" "x>y<z">', "", "")
    def test_regex_offsets_equal_expat_offsets(self, data, bom, subset, space, misc):
        head, end_tag, tail = data.rpartition(b"</doc>")
        data = head + misc.encode() + end_tag + tail
        if subset is not None:
            data = with_doctype(data, f"<!DOCTYPE{space or ' '}doc{space}[{subset}]{space}>")
        if bom:
            data = b"\xef\xbb\xbf" + data
        parse_raw(data)  # accepted
        expat = [element.start for element in reference_tree(data).root.iter()]
        assert rawxml._tag_offsets(data) == expat


class TestAttributes:
    @settings(deadline=None)
    @given(documents(), st.booleans(), st.none() | internal_subset())
    # TEI-prefixed twins, and DTD defaults that follow the specified attributes
    @example(b'<doc xmlns:x="urn:x"><a x:k="y" k=\'z\' rend="r"/></doc>', True,
             '<!ATTLIST a d CDATA "v" x:k CDATA "w">')
    @example(b'<doc xmlns:x="urn:x"><a k="z" xmlns:y="urn:y"/></doc>', True,
             '<!ATTLIST a x:k CDATA "w">')
    def test_expats_list_cut_to_the_lexical_count(self, data, tei_prefixed, subset):
        """Names and values as expat reports them, in its order, for the
        attributes the start tag holds; each value span lies inside the
        start tag, between matching quotes."""
        if tei_prefixed:
            data = with_tei_prefix(data)
        if subset is not None:
            data = with_doctype(data, f"<!DOCTYPE doc [{subset}]>")
        doc = parse_raw(data)
        for element, ref in zip(doc.root.iter(), reference_tree(data).root.iter(), strict=True):
            spans = attr_value_spans_by_bytes(data, ref.start)
            assert len(ref.items) >= len(spans)
            assert doc.attributes(element) == [
                (name, value, *span) for (name, value), span in zip(ref.items, spans)
            ]
            for value_start, value_end in spans:
                assert ref.start < value_start - 1 and value_end < ref.tag_end
                assert data[value_start - 1] == data[value_end] in b"'\""


def run_in_process(argv: list) -> tuple:
    """Exit status, stdout and stderr of one ``teijournal`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def printed_error_finding(argv: list, out: str) -> bool:
    if "records" in argv:
        return any(record[0] == "error" for record in read_records(out))
    return "/error] " in out


DAMAGE_SCHEMA = codify(profile_corpus([parse_raw(data) for data in PARITY_BASES]))


class TestCommandsOnDamagedBytes:
    @settings(max_examples=60, deadline=None)
    @given(damaged_documents())
    def test_no_internal_error_and_exit_1_only_with_an_error_finding(self, data):
        from teijournal.schema import schema_to_json

        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            docs = root / "docs"
            write_corpus(docs, {"damaged.xml": data})
            damaged = docs / "damaged.xml"
            schema = root / "schema.json"
            schema.write_text(schema_to_json(DAMAGE_SCHEMA))
            rules = root / "rules.txt"
            rules.write_text("div type s -> section\n* rend i -> italic\n")
            commands = (
                ["codify", docs, "--out", root / "codified.json"],
                ["schema-validate", damaged, "--schema", schema],
                ["schema-validate", damaged, "--schema", schema, "--format", "records"],
                ["variants", docs],
                ["arbitrate", docs, "--rules", rules, "--out-dir", root / "out"],
                ["validate", damaged],
                ["validate", damaged, "--format", "records"],
            )
            for argv in commands:
                code, out, err = run_in_process(argv)
                assert "internal error" not in err, (argv, err)
                assert code in (0, 1, 2), argv
                if code == ExitStatus.FINDINGS:
                    assert printed_error_finding(argv, out), (argv, out)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(damaged_documents(), min_size=1, max_size=3), st.booleans())
    def test_render_and_corpus_commands_never_fail_inside(self, datas, with_intact):
        # only validate and schema-validate may exit 1
        files = {f"damaged{i}.xml": data for i, data in enumerate(datas)}
        if with_intact:
            files["intact.xml"] = PARITY_BASES[1]
        with tempfile.TemporaryDirectory() as scratch:
            docs = Path(scratch) / "docs"
            write_corpus(docs, files)
            damaged = docs / "damaged0.xml"
            commands = (
                ["render", damaged, "--to", "text"],
                ["render", damaged, "--to", "xhtml"],
                ["index", docs],
                ["index", docs, "--format", "records"],
                ["biblio", docs],
                ["biblio", docs, "--style", "apa", "--format", "records"],
                ["corrigenda", docs],
                ["corrigenda", docs, "--format", "records"],
                ["query", docs, "--text", "b"],
                ["query", docs, "--in", "any", "--from", "2000", "--format", "xhtml"],
                ["query", docs, "--cites-surname", "B"],
            )
            for argv in commands:
                code, _, err = run_in_process(argv)
                assert "internal error" not in err, (argv, err)
                assert code in (0, 2), (argv, code, err)


# --------------------------------------------------------------------------
# Profiling in place
# --------------------------------------------------------------------------


class TestProfileCorpus:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(documents(), max_size=5))
    def test_equals_fold_of_merged_document_profiles(self, datas):
        docs = [parse_raw(data) for data in datas]
        folded = reduce(
            merge_profiles, (profile_corpus([d]) for d in docs), profile_corpus([])
        )
        assert profile_corpus(docs) == folded
        assert profile_corpus(iter(docs)) == folded

    def test_foreign_subtree_is_a_boundary(self):
        doc = parse_raw(b'<d><e xmlns="urn:other"><f/></e><g/></d>')
        profile = profile_corpus([doc, doc])
        assert profile.doc_count == 2
        assert profile.foreign == {"{urn:other}e": 2}
        assert sorted(profile.elements) == ["d", "g"]


# --------------------------------------------------------------------------
# The schema commands do not load the TEI stack, and the TEI commands do not
# load schema
# --------------------------------------------------------------------------

TEI_MODULES = {f"teijournal.{name}" for name in
               ("model", "xmlio", "validator", "render", "corpus")}

PROBE = """
import contextlib, io, json, sys
from teijournal.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                                if m.startswith(("teijournal", "xml.etree"))
                                or m in ("dataclasses", "inspect", "typing",
                                         "textwrap", "tempfile", "random"))]))
"""


def test_schema_commands_skip_tei_modules(tmp_path):
    docs = tmp_path / "docs"
    write_corpus(docs, {"one.xml": b'<d><hi rend="italics">a</hi></d>',
                        "two.xml": b'<d><hi rend="italic">b</hi></d>'})
    rules = tmp_path / "rules.txt"
    rules.write_text("hi rend italics -> italic\n")
    schema = tmp_path / "schema.json"
    env = {"PYTHONPATH": str(Path(teijournal.__file__).parents[1])}
    commands = (
        ["codify", str(docs), "--out", str(schema)],
        ["schema-validate", str(docs / "one.xml"), "--schema", str(schema)],
        ["variants", str(docs)],
        ["arbitrate", str(docs), "--rules", str(rules), "--out-dir", str(tmp_path / "o")],
        ["arbitrate", str(docs), "--rules", str(rules), "--in-place"],
    )
    for argv in commands:
        # -S: a site .pth file may import tempfile before the probe starts
        done = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], env=env,
                              capture_output=True, text=True, check=True)
        code, loaded = json.loads(done.stdout)
        assert code == 0, (argv, done.stderr)
        assert "teijournal.schema" in loaded
        assert not TEI_MODULES & set(loaded), argv
        unwanted = {"dataclasses", "inspect", "tempfile", "random"}
        assert not unwanted & set(loaded), argv
    assert b"italics" not in (docs / "one.xml").read_bytes()


def test_tei_commands_skip_schema_module(tmp_path):
    docs = tmp_path / "docs"
    write_corpus(docs, {"one.xml": article_bytes(title="One"),
                        "two.xml": article_bytes(title="Two")})
    one = str(docs / "one.xml")
    env = {"PYTHONPATH": str(Path(teijournal.__file__).parents[1])}
    commands = (
        ["validate", one, "--format", "records"],
        ["index", str(docs), "--format", "records"],
        ["biblio", str(docs)],
        ["corrigenda", str(docs)],
        ["query", str(docs), "--text", "one"],
        ["render", one, "--to", "text"],
        ["render", one, "--to", "xhtml"],
        ["render", one, "--out", str(tmp_path / "page.xhtml")],
        ["biblio", str(docs), "--format", "xhtml"],
        ["explain", "R9"],
    )
    for argv in commands:
        # -S: a site .pth file may import typing before the probe starts
        done = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], env=env,
                              capture_output=True, text=True, check=True)
        code, loaded = json.loads(done.stdout)
        assert code == 0, (argv, done.stderr)
        assert "teijournal.model" in loaded
        assert "teijournal.schema" not in loaded, argv
        unwanted = {"dataclasses", "inspect", "typing", "textwrap", "tempfile", "random"}
        assert not unwanted & set(loaded), argv


def test_package_exports_resolve_lazily():
    from teijournal import base

    assert teijournal.parse_article is xmlio.parse_article
    assert teijournal.validate is validator.validate
    assert validator.Finding is base.Finding
    assert set(teijournal.__all__) <= set(dir(teijournal))
    with pytest.raises(AttributeError):
        teijournal.no_such_name
