"""Shared fixtures: a fully completed article that passes every rule,
plus builders the suites use to derive corpora and mutations from it."""

from __future__ import annotations

import copy
import dataclasses
from collections import Counter
from xml.etree import ElementTree
from xml.etree.ElementTree import ParseError, TreeBuilder, XMLParser
from xml.parsers import expat

from hypothesis import strategies as st

from teijournal import model as m
from teijournal import rawxml
from teijournal.rawxml import attribute_name, has_text
from teijournal.schema import ElementUsage, UsageProfile, _SchemaCheck
from teijournal.xmlio import parse_article, serialize_article

TEI_NS = "http://www.tei-c.org/ns/1.0"
XML_NS = "http://www.w3.org/XML/1998/namespace"

# A complete article: header with all publication details, source record
# with volume/issue/pages/DOI, one body division citing the single
# reference-list entry.  The validator must report nothing at all on it.
SKELETON = b"""<?xml version="1.0" encoding="UTF-8"?>
<TEI xmlns="http://www.tei-c.org/ns/1.0">
  <teiHeader>
    <fileDesc>
      <titleStmt>
        <title level="a" type="main">Multilocus Analysis of Age Related Macular Degeneration</title>
      </titleStmt>
      <publicationStmt>
        <availability><p>Copyright \xc2\xa9 The Animal Consortium 2009</p></availability>
        <date when="2009-06-01"/>
        <authority>The Animal Consortium</authority>
      </publicationStmt>
      <sourceDesc>
        <biblStruct type="journalArticle">
          <analytic>
            <title level="a" type="main">Multilocus Analysis of Age Related Macular Degeneration</title>
            <author type="corresp">
              <idno type="ORCID">0000-0002-0000-0000</idno>
              <persName>
                <forename>Michael</forename>
                <surname>Dean</surname>
              </persName>
              <affiliation>
                <orgName type="laboratory">CSA Department</orgName>
                <orgName type="institution">Indian Institute of Science</orgName>
                <address>
                  <settlement>Bangalore</settlement>
                  <postCode>560012</postCode>
                  <country>India</country>
                  <addrLine type="phone">+91-80-22932386</addrLine>
                  <addrLine type="fax">+91-80-23602911</addrLine>
                </address>
              </affiliation>
              <email>dean@ncifcrf.gov</email>
            </author>
          </analytic>
          <monogr>
            <title level="j" type="main">European Journal of Human Genetics</title>
            <title level="j" type="nlm-ta">Eur J Hum Genet</title>
            <idno type="ISSN">1018-4813</idno>
            <imprint>
              <date when="2009"/>
              <biblScope type="vol">17</biblScope>
              <biblScope type="issue">6</biblScope>
              <biblScope type="fpage">774</biblScope>
              <biblScope type="lpage">780</biblScope>
            </imprint>
          </monogr>
          <idno type="DOI">10.1038/ejhg.2009.77</idno>
        </biblStruct>
      </sourceDesc>
    </fileDesc>
    <profileDesc>
      <langUsage>
        <language ident="en"/>
      </langUsage>
      <textClass>
        <keywords scheme="free">
          <list>
            <item><term>foetal development</term></item>
          </list>
        </keywords>
      </textClass>
    </profileDesc>
    <revisionDesc>
      <change when="2008-08-27">Received</change>
      <change when="2008-12-01">Accepted</change>
    </revisionDesc>
  </teiHeader>
  <text>
    <front>
      <div type="abstract">
        <p>A short abstract describing the study.</p>
      </div>
    </front>
    <body>
      <div type="section">
        <head>Background</head>
        <p>Earlier work <ref type="bibr" target="#b1">(Brecht 1981)</ref> framed the question.</p>
      </div>
    </body>
    <back>
      <div type="bibliography">
        <listBibl>
          <biblStruct type="book" xml:id="b1">
            <monogr>
              <author>
                <persName>
                  <forename>Bertolt</forename>
                  <surname>Brecht</surname>
                </persName>
              </author>
              <title level="m" type="main">Der Jasager und der Neinsager - Vorlagen, Fassungen und Materialien</title>
              <imprint>
                <publisher>Edition Suhrkamp</publisher>
                <date when="1981"/>
              </imprint>
            </monogr>
            <idno type="ISBN">9783518101711</idno>
          </biblStruct>
        </listBibl>
      </div>
    </back>
  </text>
</TEI>
"""


def parse_skeleton() -> m.Article:
    report = parse_article(SKELETON, "skeleton.xml")
    assert report.ok, report.issues
    assert not report.issues, report.issues
    return report.outcome


def roundtrip(article: m.Article) -> m.Article:
    report = parse_article(serialize_article(article), "roundtrip.xml")
    assert report.ok, report.issues
    return report.outcome


# --------------------------------------------------------------------------
# Frozen-tree rebuilding helpers
# --------------------------------------------------------------------------


def with_file_desc(article: m.Article, **changes) -> m.Article:
    fd = dataclasses.replace(article.header.file_desc, **changes)
    header = dataclasses.replace(article.header, file_desc=fd)
    return dataclasses.replace(article, header=header)


def with_profile_desc(article: m.Article, **changes) -> m.Article:
    pd = dataclasses.replace(article.header.profile_desc, **changes)
    header = dataclasses.replace(article.header, profile_desc=pd)
    return dataclasses.replace(article, header=header)


def with_changes(article: m.Article, changes: tuple) -> m.Article:
    rd = dataclasses.replace(article.header.revision_desc, changes=changes)
    header = dataclasses.replace(article.header, revision_desc=rd)
    return dataclasses.replace(article, header=header)


def with_source(article: m.Article, source) -> m.Article:
    return with_file_desc(article, source=source)


def replace_source(article: m.Article, **changes) -> m.Article:
    return with_source(
        article, dataclasses.replace(article.header.file_desc.source, **changes)
    )


def with_entries(article: m.Article, entries: tuple) -> m.Article:
    listbibl = m.ListBibl(entries=entries)
    back = dataclasses.replace(article.back, reference_list=listbibl)
    return dataclasses.replace(article, back=back)


# --------------------------------------------------------------------------
# Reference records used by the renderer suites
# --------------------------------------------------------------------------


def dean_article_record() -> m.BiblStruct:
    """The journal-article record from the completed skeleton's source."""
    return parse_skeleton().header.file_desc.source


def brecht_book_record() -> m.BiblStruct:
    return parse_skeleton().reference_list.entries[0]


def schmidt_chapter_record() -> m.BiblStruct:
    """An invented book chapter exercising the bookSection layouts."""
    return m.BiblStruct(
        doc_type=m.DocumentType("bookSection"),
        analytic=m.Analytic(
            titles=(
                m.Title((m.TextRun("Editorial Workflows for Journals"),), "a", "main"),
            ),
            authors=(m.Author(surname="Schmidt", forenames=("Anna",)),),
        ),
        monogr=m.Monogr(
            titles=(
                m.Title((m.TextRun("Handbook of Journal Publishing"),), "m", "main"),
            ),
            authors=(m.Author(surname="Wilson", forenames=("Janet",)),),
            imprint=m.Imprint(
                publisher="Academic Press",
                date=m.CalendarDate(2005, raw="2005"),
                scopes=(m.Scope("fpage", "45"), m.Scope("lpage", "67")),
            ),
        ),
        xml_id="b7",
    )


# --------------------------------------------------------------------------
# Corpus-on-disk builder
# --------------------------------------------------------------------------


def article_bytes(
    *,
    title: str,
    date: str = "2009-05-01",
    year: str = "2009",
    doi: str | None = None,
    surname: str = "Dean",
    forename: str = "Michael",
    keywords: tuple = ("foetal development",),
    body: str = "<div type=\"section\"><head>One</head><p>Prose.</p></div>",
    changes: str = "",
    refs: str = "",
    source_imprint: str = "",
) -> bytes:
    """A minimal valid article assembled from text fragments;
    ``source_imprint`` is markup added to the source record's imprint."""
    idno = f'<idno type="DOI">{doi}</idno>' if doi else ""
    keyword_items = "".join(f"<item><term>{k}</term></item>" for k in keywords)
    back = (
        f'<back><div type="bibliography"><listBibl>{refs}</listBibl></div></back>'
        if refs
        else ""
    )
    text = f"""<?xml version="1.0" encoding="UTF-8"?>
<TEI xmlns="http://www.tei-c.org/ns/1.0">
  <teiHeader>
    <fileDesc>
      <titleStmt><title level="a" type="main">{title}</title></titleStmt>
      <publicationStmt>
        <availability><p>Open.</p></availability>
        <date when="{date}"/>
        <authority>The Press</authority>
      </publicationStmt>
      <sourceDesc><biblStruct type="journalArticle">
        <analytic>
          <title level="a" type="main">{title}</title>
          <author><persName><forename>{forename}</forename><surname>{surname}</surname></persName></author>
        </analytic>
        <monogr>
          <title level="j" type="main">Journal of Trials</title>
          <imprint><date when="{year}"/>{source_imprint}</imprint>
        </monogr>
        {idno}
      </biblStruct></sourceDesc>
    </fileDesc>
    <profileDesc><textClass><keywords><list>{keyword_items}</list></keywords></textClass></profileDesc>
    <revisionDesc><change when="2008-01-05">Received</change>{changes}</revisionDesc>
  </teiHeader>
  <text>
    <body>{body}</body>
    {back}
  </text>
</TEI>
"""
    return text.encode("utf-8")


def write_corpus(directory, files: dict) -> list:
    """Write {name: bytes} into a directory; returns sorted paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, data in files.items():
        target = directory / name
        target.write_bytes(data)
        paths.append(str(target))
    return sorted(paths)


# --------------------------------------------------------------------------
# Reference reader: a plain expat tree builder that shares no code with
# teijournal.rawxml, for the suites that check the reader or its users
# --------------------------------------------------------------------------


def display_name(expat_name: str) -> tuple:
    """(name, namespace URI) for an expat ``uri local`` name: TEI names
    lose their namespace, XML-namespace names read ``xml:local`` and
    others ``{uri}local``."""
    uri, _, local = expat_name.rpartition(" ")
    if uri in ("", TEI_NS):
        return local, uri
    if uri == XML_NS:
        return f"xml:{local}", uri
    return "{%s}%s" % (uri, local), uri


@dataclasses.dataclass(eq=False)
class RefElement:
    """One element: its display name (``{}local`` in no namespace under a
    document element in a namespace) and attributes, the byte span of its
    markup, its source path, whether it is foreign (its namespace, or an
    ancestor's, differs from the document element's), the prefixed
    namespace declarations on its start tag, and its children (elements
    and joined text runs).

    ``items`` is the ``(display name, value)`` list expat reports, in its
    order: the start tag's attributes, then DTD defaults.  A TEI-prefixed
    name and its unprefixed twin both read as the local name there, while
    ``attrs`` keeps the later of the two.  ``tag_end`` is the offset after
    the start tag's ``>``."""

    name: str
    ns: str
    attrs: dict
    items: list
    start: int
    tag_end: int
    path: str
    foreign: bool
    ns_decls: tuple
    end: int = 0
    children: list = dataclasses.field(default_factory=list)

    def element_children(self) -> list:
        return [c for c in self.children if isinstance(c, RefElement)]

    def text_runs(self) -> list:
        return [c for c in self.children if isinstance(c, str)]

    def text_content(self) -> str:
        return "".join(
            c if isinstance(c, str) else c.text_content() for c in self.children
        )

    def iter(self):
        """This element and every element below it, in document order."""
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(reversed(element.element_children()))


@dataclasses.dataclass
class RefDocument:
    root: RefElement
    ns_decls: tuple  # first declaration of each prefix, in document order


def reference_tree(data: bytes) -> RefDocument:
    """Read well-formed ``data``; spans come from a byte-by-byte scan."""
    parser = expat.ParserCreate(namespace_separator=" ")
    parser.ordered_attributes = True
    stack: list = []  # (element, same-name sibling counters)
    pending: list = []
    first_ns: dict = {}
    roots: list = []

    def start_tag_end(start: int) -> tuple:
        """Offset after the start tag's '>', and whether it ends in '/>'."""
        i = start + 1
        quote = 0
        while True:
            c = data[i]
            if quote:
                if c == quote:
                    quote = 0
            elif c in (0x22, 0x27):
                quote = c
            elif c == 0x3E:
                return i + 1, data[i - 1] == 0x2F
            i += 1

    def on_ns(prefix, uri):
        if prefix:
            pending.append((prefix, uri or ""))
            first_ns.setdefault(prefix, uri or "")

    def on_start(expat_name, attr_list):
        name, uri = display_name(expat_name)
        if stack and not uri and roots[0].ns:  # no namespace under a namespaced root
            name = "{}" + name
        items = [(display_name(attr_list[i])[0], attr_list[i + 1])
                 for i in range(0, len(attr_list), 2)]
        start = parser.CurrentByteIndex
        end, empty = start_tag_end(start)
        if stack:
            parent, counters = stack[-1]
            counters[name] = counters.get(name, 0) + 1
            path = f"{parent.path}/{name}[{counters[name]}]"
            foreign = parent.foreign or uri != roots[0].ns
        else:
            path, foreign = f"{name}[1]", False
        element = RefElement(name, uri, dict(items), items, start, end, path, foreign,
                             tuple(pending), end if empty else 0)
        pending.clear()
        if stack:
            stack[-1][0].children.append(element)
        else:
            roots.append(element)
        stack.append((element, {}))

    def on_end(expat_name):
        element = stack.pop()[0]
        if not element.end:
            element.end = data.index(b">", parser.CurrentByteIndex) + 1

    def on_text(text):
        if stack:
            children = stack[-1][0].children
            if children and isinstance(children[-1], str):
                children[-1] += text
            else:
                children.append(text)

    parser.StartNamespaceDeclHandler = on_ns
    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    parser.CharacterDataHandler = on_text
    parser.Parse(data, True)
    return RefDocument(roots[0], tuple(first_ns.items()))


def attr_value_spans_by_bytes(data: bytes, start: int) -> list:
    """Oracle: the byte-at-a-time scanner arbitrate used before; the
    ``(value_start, value_end)`` of each attribute the start tag at
    ``start`` specifies, namespace declarations left out."""
    spans: list = []
    i = start + 1
    while data[i] not in (0x20, 0x09, 0x0A, 0x0D, 0x3E, 0x2F):
        i += 1
    while True:
        while data[i] in (0x20, 0x09, 0x0A, 0x0D):
            i += 1
        if data[i] == 0x3E or (data[i] == 0x2F and data[i + 1] == 0x3E):
            return spans
        name_start = i
        while data[i] not in (0x3D, 0x20, 0x09, 0x0A, 0x0D):
            i += 1
        declaration = data[name_start:i] == b"xmlns" or data.startswith(
            b"xmlns:", name_start, i
        )
        while data[i] in (0x20, 0x09, 0x0A, 0x0D):
            i += 1
        assert data[i] == 0x3D  # '='
        i += 1
        while data[i] in (0x20, 0x09, 0x0A, 0x0D):
            i += 1
        quote = data[i]
        i += 1
        value_start = i
        while data[i] != quote:
            i += 1
        if not declaration:
            spans.append((value_start, i))
        i += 1


# --------------------------------------------------------------------------
# The interleaved read that parse_raw replaced, kept as its reference: an
# expat prescan vets each chunk before the C parser builds from it, and
# every document, with a DOCTYPE or not, is read this way
# --------------------------------------------------------------------------

PRESCAN_CHUNK = 1 << 16


def _prescan_run(parser, data: bytes, handlers: dict, after_chunk=None) -> None:
    """``rawxml._run`` as it was: ``data`` is read ``PRESCAN_CHUNK`` at a
    time, and ``after_chunk`` is called with each chunk it has accepted."""
    if not data.strip():
        raise rawxml.RawXmlError("empty input")
    rawxml._check_prolog(data)

    def on_entity_decl(*args) -> None:
        rawxml._fail(parser, "entity declarations are not allowed")

    def on_doctype(name, sysid, pubid, has_internal) -> None:
        if sysid or pubid:
            rawxml._fail(parser, "external DTD references are not allowed")

    handlers = {
        "EntityDeclHandler": on_entity_decl,
        "StartDoctypeDeclHandler": on_doctype,
        "ExternalEntityRefHandler": lambda *args: 0,
        **handlers,
    }
    for event, handler in handlers.items():
        setattr(parser, event, handler)
    try:
        for at in range(0, len(data), PRESCAN_CHUNK):
            chunk = data[at:at + PRESCAN_CHUNK]
            parser.Parse(chunk, False)
            if after_chunk is not None:
                after_chunk(chunk)
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        raise rawxml.RawXmlError(f"not well-formed: {exc}") from None
    finally:
        for event in handlers:
            setattr(parser, event, None)


def _prescan_build(data: bytes) -> rawxml.TreeDocument:
    """The C parser builds each chunk once the prescan has accepted it; a
    general entity the prescan skips is defined before the chunk that
    refers to it reaches the C parser."""
    builder = TreeBuilder()
    parser = XMLParser(target=builder)
    events: list = []
    prescan = rawxml._new_parser()

    def build(chunk: bytes) -> None:
        parser.feed(chunk)
        if rawxml._last_path_too_deep(builder.close()):
            raise rawxml._TooDeep

    def on_skipped(name, is_parameter_entity) -> None:
        if not is_parameter_entity:
            parser.entity[name] = ""

    try:
        _prescan_run(prescan, data, {
            "StartNamespaceDeclHandler": lambda *decl: events.append(("start-ns", decl)),
            "SkippedEntityHandler": on_skipped,
        }, build)
        root = parser.close()
    except ParseError as exc:
        raise rawxml.RawXmlError(f"a namespace URI holds '}}' ({exc})") from None
    if rawxml._deeper_than_limit(root):
        raise rawxml._TooDeep
    first_ns: dict = {}
    for _, (prefix, uri) in events:
        if prefix:
            first_ns.setdefault(prefix, uri)
    tei_prefixed = any(uri == TEI_NS for _, (prefix, uri) in events if prefix)
    root_ns, foreign, twins = rawxml._adopt_names(root, tei_prefixed)
    return rawxml.TreeDocument(data, root, root_ns, tuple(first_ns.items()), foreign, twins)


def _prescan_depth_scan(data: bytes) -> None:
    parser = rawxml._new_parser()
    depth = 0

    def on_start(name, attrs) -> None:
        nonlocal depth
        if depth >= rawxml.MAX_DEPTH:
            rawxml._fail(parser, f"elements nested more than {rawxml.MAX_DEPTH} deep")
        depth += 1

    def on_end(name) -> None:
        nonlocal depth
        depth -= 1

    _prescan_run(parser, data, {"StartElementHandler": on_start, "EndElementHandler": on_end})


def prescan_parse_raw(data: bytes) -> rawxml.TreeDocument:
    """``parse_raw`` by the interleaved read alone."""
    try:
        return _prescan_build(data)
    except rawxml.RawXmlError:
        _prescan_depth_scan(data)  # an element too deep may come first
        raise
    except rawxml._TooDeep:
        pass
    _prescan_depth_scan(data)  # raises at the first too-deep element
    raise rawxml.RawXmlError(f"elements nested more than {rawxml.MAX_DEPTH} deep")


# --------------------------------------------------------------------------
# Profile merge: ``profile_corpus`` over many documents equals the fold of
# its one-document profiles under this merge
# --------------------------------------------------------------------------


def merge_profiles(a: UsageProfile, b: UsageProfile) -> UsageProfile:
    """Two profiles merged field by field."""
    merged = UsageProfile(doc_count=a.doc_count + b.doc_count)
    merged.roots = a.roots + b.roots
    merged.foreign = a.foreign + b.foreign
    for source in (a, b):
        for name, usage in source.elements.items():
            target = merged.elements.setdefault(name, ElementUsage())
            target.count += usage.count
            target.children += usage.children
            target.child_coverage += usage.child_coverage
            target.text_count += usage.text_count
            for attr, values in usage.attributes.items():
                target.attributes[attr] = target.attributes.get(attr, Counter()) + values
    return merged


# --------------------------------------------------------------------------
# Schema oracles: the recursive walks ``profile_corpus`` and
# ``validate_against`` made before each became one tighter pass
# --------------------------------------------------------------------------


def _add_element(profile: UsageProfile, foreign: set, element) -> None:
    """Record ``element`` and, below it, every element outside the
    ``foreign`` subtrees."""
    usage = profile.elements.get(element.tag)
    if usage is None:
        usage = profile.elements[element.tag] = ElementUsage()
    usage.count += 1
    for key, value in element.items():
        name = attribute_name(key)
        values = usage.attributes.get(name)
        if values is None:
            values = usage.attributes[name] = Counter()
        values[value] += 1
    if has_text(element):
        usage.text_count += 1
    native = []
    for child in element:
        if child in foreign:
            profile.foreign[child.tag] += 1
            continue
        usage.children[child.tag] += 1
        native.append(child)
    # Each child name once, in first-seen order: a set's order would follow
    # the string hash seed, and with it the profile's repr.
    usage.child_coverage.update(dict.fromkeys([child.tag for child in native], 1))
    for child in native:
        _add_element(profile, foreign, child)


def reference_profile(docs) -> UsageProfile:
    """``profile_corpus`` by one recursive call per element."""
    profile = UsageProfile()
    for doc in docs:
        profile.doc_count += 1
        profile.roots[doc.root.tag] += 1
        _add_element(profile, doc.foreign, doc.root)
    return profile


class _ReferenceCheck(_SchemaCheck):
    """``_SchemaCheck`` with the visit that builds every set and dict."""

    def visit(self, node) -> None:
        schema = self.schema
        base = self.base
        emit = self.emit
        name = node.tag
        rule = schema.elements.get(name)
        brule = base.elements.get(name) if base is not None else None
        if rule is None:
            emit(
                "S-element",
                node,
                f"element '{name}' not in the schema",
                brule is not None,
            )
        else:
            attrs = {attribute_name(key): value for key, value in node.items()}
            for attr, value in attrs.items():
                arule = rule.attributes.get(attr)
                battr = brule.attributes.get(attr) if brule else None
                if arule is None:
                    emit(
                        "S-attribute",
                        node,
                        f"attribute '{attr}' not allowed on '{name}'",
                        battr is not None,
                    )
                elif arule.values is not None and value not in arule.values:
                    base_allows = battr is not None and (
                        battr.values is None or value in battr.values
                    )
                    emit(
                        "S-value",
                        node,
                        f"value '{value}' of '{name}/@{attr}' outside "
                        f"the closed list {sorted(arule.values)}",
                        base_allows,
                    )
            for attr, arule in rule.attributes.items():
                if arule.required and attr not in attrs:
                    emit(
                        "S-required-attribute",
                        node,
                        f"required attribute '{attr}' missing on '{name}'",
                        False,
                    )
            if not rule.text and has_text(node):
                emit(
                    "S-text",
                    node,
                    f"text content not allowed in '{name}'",
                    brule is not None and brule.text,
                )
        present = set()
        foreign = self.doc.foreign
        for child in node:
            child_name = child.tag
            if child in foreign:
                if child_name in schema.foreign:
                    continue
                emit(
                    "S-element",
                    child,
                    f"foreign element '{child_name}' not in the schema",
                    base is not None and child_name in base.foreign,
                )
                continue
            present.add(child_name)
            if rule is not None and child_name not in rule.children:
                base_allows = brule is not None and child_name in brule.children
                emit(
                    "S-child",
                    child,
                    f"element '{child_name}' not permitted inside "
                    f"'{name}'",
                    base_allows,
                )
            self.visit(child)
        if rule is not None:
            for required in sorted(rule.required_children - present):
                emit(
                    "S-required-child",
                    node,
                    f"required child '{required}' missing in '{name}'",
                    False,
                )


def reference_findings(schema, doc: rawxml.TreeDocument, base=None) -> list:
    """``validate_against`` through the reference visit."""
    check = _ReferenceCheck(schema, base, doc)
    root = doc.root
    if schema.root and root.tag != schema.root:
        check.emit(
            "S-root",
            root,
            f"document element '{root.tag}' differs from schema root "
            f"'{schema.root}'",
            False,
        )
    check.visit(root)
    return check.findings


# --------------------------------------------------------------------------
# Escaping oracles: the string writers' escapers as chained replaces, each
# replace run whether or not its character is present
# --------------------------------------------------------------------------


def chained_esc(text: str) -> str:
    """``xmlio._esc``: TEI text."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace(
        "\r", "&#13;"
    )


def chained_esc_attr(text: str) -> str:
    """``xmlio._esc_attr``: TEI attribute values."""
    return chained_esc(text).replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;")


def chained_tag(name: str, attrs: dict, close: bool = False) -> str:
    """``xmlio._tag``: a TEI start tag, attributes sorted, ``None`` values left out."""
    parts = [name]
    for key in sorted(attrs):
        value = attrs[key]
        if value is None:
            continue
        parts.append(f'{key}="{chained_esc_attr(str(value))}"')
    return "<" + " ".join(parts) + ("/>" if close else ">")


def chained_escape_text(text: str) -> str:
    """``render.escape_text``: XHTML text."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def chained_escape_attr(value: str) -> str:
    """``render._escape_attr``: XHTML attribute values."""
    return (
        chained_escape_text(value).replace('"', "&quot;")
        .replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#09;")
    )


def chained_encode_attr(value: str) -> str:
    """``schema._encode_attr``: an attribute value rewritten in place, which
    may sit between either quote."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;").replace(
        "'", "&#39;"
    )


def chained_escape_field(value: str) -> str:
    """``cli._escape_field``: one field of a records line."""
    return value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace(
        "\r", "\\r"
    )


# --------------------------------------------------------------------------
# Structural mutants: well-formed articles edited as ElementTree trees
# --------------------------------------------------------------------------

_MUTANT_INLINES = (
    'See <ref type="bibr" target="#b1">Dean</ref>, <ref target="http://x.org/">x</ref>'
    ' and <ptr target="http://y.org/"/>; <persName key="p1">Ada</persName> of'
    ' <orgName key="o1">Org</orgName> in <placeName key="l1">Town</placeName> ran'
    ' <term type="software">Tool</term>, <abbr>DNA</abbr>'
    ' <choice><abbr>RNA</abbr><expan>ribonucleic acid</expan></choice>,'
    ' <hi rend="italic">slanted <hi rend="bold">bold</hi></hi> <unknown>odd</unknown>.'
)
_MUTANT_REFS = (
    '<biblStruct type="book" xml:id="b1"><monogr>'
    "<author><persName><forename>A</forename><surname>Dean</surname></persName></author>"
    '<title level="m" type="main">Book</title>'
    '<imprint><publisher>P</publisher><date when="2001"/></imprint></monogr></biblStruct>'
)
#: Articles holding every inline kind and a cit, whose source is a record in
#: one and a pointer in the other.
MUTANT_BASES = tuple(
    article_bytes(
        title='A <hi rend="italic">title</hi>',
        body=f'<div type="section"><head>One <term>h</term></head><p>{_MUTANT_INLINES}</p>'
        f"<cit><quote>q <orgName>O</orgName></quote>{source}<note>n</note></cit>"
        '<list><item>i <persName key="p2">I</persName></item></list></div>',
        refs=_MUTANT_REFS,
        keywords=("one", "two"),
    )
    for source in (
        '<biblStruct type="book"><monogr><title level="m">M</title></monogr></biblStruct>',
        '<ref type="bibr" target="#b1"/>',
    )
)


def _tree(data: bytes) -> ElementTree.Element:
    """``data``'s tree with unqualified names, the namespace declared by hand."""
    root = ElementTree.fromstring(data)
    for element in root.iter():
        element.tag = element.tag.removeprefix(f"{{{TEI_NS}}}")
    root.set("xmlns", TEI_NS)
    return root


def _source_path(element, parents: dict) -> str:
    """The slash path of ``element`` with 1-based indexes among same-named
    siblings, as ``TreeDocument.source_path`` gives it."""
    steps = []
    while element in parents:
        siblings = [e for e in parents[element] if e.tag == element.tag]
        steps.append(f"{element.tag}[{siblings.index(element) + 1}]")
        element = parents[element]
    return "/".join([f"{element.tag}[1]", *reversed(steps)])


def duplicates(data: bytes) -> tuple:
    """``data`` as ElementTree writes it, and for each element below its
    root a ``(source path of the copy, document)`` pair: the document with
    that element duplicated in place."""
    root = _tree(data)
    out = []
    for index in range(1, len(list(root.iter()))):
        mutant = copy.deepcopy(root)
        target = list(mutant.iter())[index]
        parents = {child: parent for parent in mutant.iter() for child in parent}
        parent = parents[target]
        duplicate = copy.deepcopy(target)
        parent.insert(list(parent).index(target) + 1, duplicate)
        parents[duplicate] = parent
        out.append((_source_path(duplicate, parents),
                    ElementTree.tostring(mutant, encoding="unicode").encode("utf-8")))
    return ElementTree.tostring(root, encoding="unicode").encode("utf-8"), out


_HOSTILE_VALUES = ("", "#nope", "1999-13-40", 'a"b', "x&<>'y", "\t\r\n")
_CR = "\ue000"  # stands for a CR in text, which ElementTree writes raw


@st.composite
def tree_mutants(draw) -> bytes:
    """A :data:`MUTANT_BASES` article after 1–5 ElementTree edits, each to an
    element below the root: delete, duplicate, move under another element,
    wrap in a same-name element, set one of its attributes to a hostile
    value, drop one, or replace its text with ``& < > ]]>`` and a CR."""
    root = _tree(draw(st.sampled_from(MUTANT_BASES)))
    for _ in range(draw(st.integers(1, 5))):
        parents = {child: parent for parent in root.iter() for child in parent}
        if not parents:
            break
        edit = draw(st.sampled_from(
            ("delete", "duplicate", "move", "wrap", "set", "drop", "text")))
        # an attribute edit picks among the elements that have attributes,
        # which the model mostly reads
        holders = [e for e in parents if e.attrib] if edit in ("set", "drop") else ()
        target = draw(st.sampled_from(holders or list(parents)))
        parent = parents[target]
        index = list(parent).index(target)
        if edit == "delete":
            parent.remove(target)
        elif edit == "duplicate":
            parent.insert(index + 1, copy.deepcopy(target))
        elif edit == "move":
            inside = set(target.iter())
            to = draw(st.sampled_from([e for e in root.iter() if e not in inside]))
            parent.remove(target)
            to.insert(draw(st.integers(0, len(to))), target)
        elif edit == "wrap":
            wrapper = ElementTree.Element(target.tag)
            wrapper.tail, target.tail = target.tail, None
            parent[index] = wrapper
            wrapper.append(target)
        elif edit in ("set", "drop") and target.attrib:
            name = draw(st.sampled_from(sorted(target.attrib)))
            if edit == "set":
                target.set(name, draw(st.sampled_from(_HOSTILE_VALUES)))
            else:
                del target.attrib[name]
        elif edit == "text":
            target.text = f"& < > ]]>{_CR}"
    markup = ElementTree.tostring(root, encoding="unicode")
    return markup.replace(_CR, "&#13;").encode("utf-8")
