"""Parse TEI journal files into the document model and serialize them back.

Parsing is repair-oriented: recognized structures become typed model nodes,
recoverable encoding slips are fixed with a warning, metadata that cannot be
represented is dropped with a warning, and running-text markup outside the
recognized subset is carried as opaque verbatim slices so body content is
never lost. Serialization emits one canonical form: UTF-8, alphabetical
attributes, two-space indentation for element-only content, and opaque
regions byte-for-byte as captured.

Known limits, all deliberate: attribute order and insignificant whitespace
are not preserved; unmodeled attributes on recognized elements are dropped
silently; namespace prefixes used by opaque markup must be declared on the
document element to survive re-serialization.
"""

from __future__ import annotations

import re

from . import model as m
from .base import Record
from .rawxml import TEI_NS, XML_NS, RawXmlError, TreeDocument, parse_raw

# --------------------------------------------------------------------------
# Report types
# --------------------------------------------------------------------------


class Issue(Record):
    severity: str  # "error" | "warning"
    location: str  # slash path with 1-based sibling indexes, "" if global
    message: str


class ParseReport(Record):
    issues: tuple = ()
    outcome: m.Article | None = None

    @property
    def ok(self) -> bool:
        return self.outcome is not None

    def errors(self) -> tuple:
        return tuple(i for i in self.issues if i.severity == "error")

    def warnings(self) -> tuple:
        return tuple(i for i in self.issues if i.severity == "warning")


def _collapse(text: str) -> str:
    return " ".join(text.split())


# --------------------------------------------------------------------------
# Node kinds
# --------------------------------------------------------------------------

# TEI element of each model class whose element name is fixed; see
# _element_name for the classes whose name depends on their values.
_ELEMENT_NAMES = {
    m.Emph: "hi",
    m.BiblRef: "ref",
    m.PersonMention: "persName",
    m.OrgMention: "orgName",
    m.PlaceMention: "placeName",
    m.TermMention: "term",
    m.Paragraph: "p",
    m.CitBlock: "cit",
    m.FigureBlock: "figure",
    m.ListBlock: "list",
    m.QuoteBlock: "quote",
}

# Mentions are text plus one optional attribute: (TEI attribute, model field).
_MENTION_ATTRS = {
    m.PersonMention: ("key", "key"),
    m.OrgMention: ("key", "key"),
    m.PlaceMention: ("key", "key"),
    m.TermMention: ("type", "kind"),
}
_MENTION_CLASSES = {_ELEMENT_NAMES[cls]: cls for cls in _MENTION_ATTRS}

_OPAQUE_CLASSES = (m.OpaqueInline, m.TableBlock, m.FormulaBlock, m.OpaqueBlock)


def _element_name(node) -> str:
    """Canonical TEI element name of an inline or block model node."""
    name = _ELEMENT_NAMES.get(type(node))
    if name is not None:
        return name
    if isinstance(node, m.Link):
        return "ref" if node.text else "ptr"
    if isinstance(node, m.AbbrMention):
        return "abbr" if node.expansion is None else "choice"
    if isinstance(node, _OPAQUE_CLASSES):
        return opaque_root_name(node.markup)
    raise TypeError(f"not an inline or block node: {node!r}")


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_INLINE_BLOCKISH = {"p", "div", "list", "table", "figure", "cit", "formula"}
_LISTBIBL_NAMES = frozenset({"listBibl", "listBib"})


_XML_ID = "{%s}id" % XML_NS


def _text_content(node) -> str:
    return "".join(node.itertext())


def _mixed(node) -> list:
    """``node``'s text runs and child elements, in document order."""
    out = [node.text] if node.text else []
    for child in node:
        out.append(child)
        if child.tail:
            out.append(child.tail)
    return out


class _Builder:
    """Maps the elements of a :class:`TreeDocument` to model nodes.

    Elements are ``xml.etree.ElementTree`` elements renamed by
    :func:`parse_raw`: ``tag`` is the element's name, ``get`` reads an
    attribute, and the C ``find``, ``findall`` and ``itertext`` do the
    searching.
    """

    def __init__(self, doc: TreeDocument):
        self.doc = doc
        self.foreign = doc.foreign
        self.issues: list[Issue] = []

    # -- issue helpers ----------------------------------------------------

    def warn(self, node, message: str) -> None:
        self.issues.append(Issue("warning", self.doc.source_path(node), message))

    def error(self, node, message: str) -> None:
        self.issues.append(Issue("error", self.doc.source_path(node), message))

    def unknown(self, node, context: str) -> None:
        self.warn(node, f"unknown element '{node.tag}' in {context} dropped")

    # -- generic helpers --------------------------------------------------

    def text(self, node) -> str:
        return " ".join("".join(node.itertext()).split())

    def slice(self, node) -> str:
        return self.doc.slice(node)

    def date_from(self, node, context: str) -> m.CalendarDate | None:
        value = node.get("when") or _text_content(node).strip()
        if not value:
            self.warn(node, f"{context} date has no usable value; dropped")
            return None
        try:
            return m.CalendarDate.parse(value)
        except ValueError:
            self.warn(node, f"unparseable {context} date {value!r}; dropped")
            return None

    # -- inline content ---------------------------------------------------

    def rich(self, node) -> tuple:
        out: list = [m.TextRun(node.text)] if node.text else []
        for child in node:
            out.append(self.inline(child))
            if child.tail:
                out.append(m.TextRun(child.tail))
        return tuple(out)

    def inline(self, node):
        if node in self.foreign:
            return m.OpaqueInline(self.slice(node))
        name = node.tag
        if name == "hi":
            return m.Emph(node.get("rend", ""), self.rich(node))
        if name == "ref":
            target = node.get("target", "")
            if node.get("type") == "bibr" or target.startswith("#"):
                return m.BiblRef(target, _text_content(node))
            return m.Link(target, _text_content(node))
        if name == "ptr":
            return m.Link(node.get("target", ""), "")
        mention = _MENTION_CLASSES.get(name)
        if mention is not None:
            attr, _ = _MENTION_ATTRS[mention]
            return mention(self.text(node), node.get(attr))
        if name == "abbr":
            return m.AbbrMention(self.text(node), None)
        if name == "choice":
            abbr = node.find("abbr")
            expan = node.find("expan")
            if abbr is not None:
                expansion = self.text(expan) if expan is not None else None
                return m.AbbrMention(self.text(abbr), expansion)
        return m.OpaqueInline(self.slice(node))

    # -- running text blocks ----------------------------------------------

    def block(self, node):
        """Map one non-div element inside a division to a Block."""
        if node in self.foreign:
            return m.OpaqueBlock(self.slice(node))
        name = node.tag
        if name == "p":
            return m.Paragraph(self.rich(node))
        if name == "cit":
            return self.cit(node)
        if name == "figure":
            return self.figure(node)
        if name == "table":
            head = node.find("head")
            caption = self.rich(head) if head is not None else ()
            return m.TableBlock(self.slice(node), caption)
        if name == "formula":
            return m.FormulaBlock(self.slice(node), node.get("notation"))
        if name == "list":
            if all(c.tag == "item" for c in node):
                return m.ListBlock(tuple(self.rich(item) for item in node))
            return m.OpaqueBlock(self.slice(node))
        if name == "quote":
            blockish = any(c.tag in _INLINE_BLOCKISH for c in node)
            if not blockish:
                return m.QuoteBlock(self.rich(node))
        return m.OpaqueBlock(self.slice(node))

    def cit(self, node):
        quote: tuple = ()
        source: m.BiblStruct | str | None = None
        qualifiers: tuple = ()
        for child in node:
            name = child.tag
            if name == "quote" and not quote:
                quote = self.rich(child)
            elif name == "biblStruct" and source is None:
                source = self.biblstruct(child)
            elif name == "ref" and source is None:
                source = child.get("target", "")
            elif name == "note" and not qualifiers:
                qualifiers = self.rich(child)
            else:
                return m.OpaqueBlock(self.slice(node))
        return m.CitBlock(quote, source, qualifiers)

    def figure(self, node):
        url = None
        caption: tuple = ()
        table = None
        for child in node:
            name = child.tag
            if name == "head" and not caption:
                caption = self.rich(child)
            elif name == "graphic" and url is None and table is None:
                url = child.get("url", "")
            elif name == "table" and table is None and url is None:
                table = child
            else:
                return m.OpaqueBlock(self.slice(node))
        if table is not None:
            # Table wrapped in a figure: keep the whole region verbatim but
            # surface the caption so downstream consumers can use it.
            return m.TableBlock(self.slice(node), caption)
        return m.FigureBlock(url, caption)

    def division(
        self, node, consumed: frozenset = frozenset()
    ) -> m.Division | None:
        """One div. In back matter, ``consumed`` names the reference lists
        already harvested: they are skipped, and a div left empty, such as a
        shell that only wrapped them, is dropped by returning None."""
        kind = node.get("type") or "section"
        head: tuple = ()
        blocks: list = []
        children: list = []
        seen_head = False
        for child in _mixed(node):
            if isinstance(child, str):
                if child.strip():
                    self.warn(node, "stray text inside div wrapped as paragraph")
                    blocks.append(m.Paragraph((m.TextRun(child),)))
                continue
            name = None if child in self.foreign else child.tag
            if name in consumed:
                continue
            if name == "head" and not seen_head:
                head = self.rich(child)
                seen_head = True
            elif name == "div":
                sub = self.division(child, consumed)
                if sub is not None:
                    children.append(sub)
            else:
                blocks.append(self.block(child))
        if consumed and not (head or blocks or children):
            return None
        return m.Division(kind, head, tuple(blocks), tuple(children))

    def division_sequence(
        self, node, context: str, consumed: frozenset = frozenset()
    ) -> tuple:
        """Children of front/body/back: divs, with stray blocks wrapped."""
        out: list = []
        for child in _mixed(node):
            if isinstance(child, str):
                if child.strip():
                    self.warn(node, f"stray text in {context} wrapped in div")
                    out.append(
                        m.Division(blocks=(m.Paragraph((m.TextRun(child),)),))
                    )
                continue
            name = None if child in self.foreign else child.tag
            if name in consumed:
                continue
            if name == "div":
                division = self.division(child, consumed)
                if division is not None:
                    out.append(division)
            else:
                self.warn(
                    child,
                    f"element '{child.tag}' in {context} wrapped in div",
                )
                out.append(m.Division(blocks=(self.block(child),)))
        return tuple(out)

    # -- bibliographic records --------------------------------------------

    def biblstruct(self, node) -> m.BiblStruct:
        analytic = None
        monogr = m.Monogr()
        identifiers: list = []
        for child in node:
            name = child.tag
            if name == "analytic" and analytic is None:
                analytic = self.analytic(child)
            elif name == "monogr":
                monogr = self.monogr(child, identifiers)
            elif name == "idno":
                identifiers.append(
                    m.Identifier(child.get("type", ""), self.text(child))
                )
            else:
                self.unknown(child, "biblStruct")
        doc_type = node.get("type") or _infer_doc_type(analytic, monogr)
        return m.BiblStruct(
            doc_type=m.DocumentType(doc_type),
            analytic=analytic,
            monogr=monogr,
            identifiers=tuple(identifiers),
            xml_id=node.get(_XML_ID),
        )

    def analytic(self, node) -> m.Analytic:
        titles: list = []
        authors: list = []
        for child in node:
            if child.tag == "title":
                titles.append(self.title(child, "a"))
            elif child.tag == "author":
                authors.append(self.author(child))
            else:
                self.unknown(child, "analytic")
        return m.Analytic(tuple(titles), tuple(authors))

    def monogr(self, node, identifiers: list) -> m.Monogr:
        titles: list = []
        authors: list = []
        issn = None
        imprint = m.Imprint()
        for child in node:
            name = child.tag
            if name == "title":
                titles.append(self.title(child, "m"))
            elif name == "author":
                authors.append(self.author(child))
            elif name == "idno":
                kind = child.get("type", "")
                if kind.casefold() == "issn" and issn is None:
                    issn = self.text(child)
                else:
                    identifiers.append(m.Identifier(kind, self.text(child)))
            elif name == "imprint":
                imprint = self.imprint(child)
            elif name == "editor":
                # editors are container-level contributors
                authors.append(self.author(child))
            else:
                self.unknown(child, "monogr")
        return m.Monogr(tuple(titles), tuple(authors), issn, imprint)

    def title(self, node, default_level: str) -> m.Title:
        return m.Title(
            text=self.rich(node),
            level=node.get("level", default_level),
            type=node.get("type", "main"),
        )

    def imprint(self, node) -> m.Imprint:
        publisher = None
        pub_place = None
        date = None
        role = "published"
        scopes: list = []
        for child in node:
            name = child.tag
            if name == "publisher":
                publisher = self.text(child)
            elif name == "pubPlace":
                pub_place = self.text(child)
            elif name == "date":
                attr_role = child.get("type")
                if attr_role is None and child.get("typ") is not None:
                    attr_role = child.get("typ")
                    self.warn(
                        child, "attribute 'typ' on date read as 'type'"
                    )
                if attr_role:
                    role = attr_role.lower()
                date = self.date_from(child, "imprint")
            elif name == "biblScope":
                kind = child.get("type") or child.get("unit", "")
                scopes.append(m.Scope(kind, self.text(child)))
            else:
                self.unknown(child, "imprint")
        if date is None:
            role = "published"  # a role without a date cannot be carried
        return m.Imprint(publisher, pub_place, date, role, tuple(scopes))

    def author(self, node) -> m.Author:
        surname = ""
        forenames: list = []
        identifiers: list = []
        affiliation = None
        email = None
        for child in node:
            name = child.tag
            if name == "persName":
                surnames = [self.text(s) for s in child.findall("surname")]
                surname = " ".join(s for s in surnames if s)
                forenames = [
                    self.text(f)
                    for f in child.findall("forename")
                    if self.text(f)
                ]
                for sub in child:
                    if sub.tag not in ("surname", "forename"):
                        self.unknown(sub, "persName")
            elif name == "idno":
                identifiers.append(
                    m.Identifier(child.get("type", ""), self.text(child))
                )
            elif name == "affiliation":
                affiliation = self.affiliation(child)
            elif name == "email":
                email = self.text(child)
            elif name == "orgName":
                # organizations occasionally stand in the author slot
                surname = surname or self.text(child)
            else:
                self.unknown(child, "author")
        return m.Author(
            surname=surname,
            forenames=tuple(forenames),
            corresponding=node.get("type") == "corresp",
            identifiers=tuple(identifiers),
            affiliation=affiliation,
            email=email,
        )

    def affiliation(self, node) -> m.Affiliation:
        org_units: list = []
        address = None
        for child in node:
            if child.tag == "orgName":
                org_units.append(
                    m.OrgUnit(child.get("type", ""), self.text(child))
                )
            elif child.tag == "address":
                address = self.address(child)
            else:
                self.unknown(child, "affiliation")
        return m.Affiliation(tuple(org_units), address)

    def address(self, node) -> m.Address:
        settlement = None
        post_code = None
        country = None
        lines: list = []
        for child in node:
            name = child.tag
            text = self.text(child)
            if name == "settlement" and settlement is None:
                settlement = text
            elif name == "postCode" and post_code is None:
                post_code = text
            elif name == "country" and country is None:
                country = text
            elif name == "addrLine":
                lines.append(m.AddressLine(text, child.get("type")))
            elif text:
                # other address parts survive as typed lines
                lines.append(m.AddressLine(text, name))
            else:
                self.unknown(child, "address")
        return m.Address(settlement, post_code, country, tuple(lines))

    # -- header ------------------------------------------------------------

    def file_desc(self, node) -> m.FileDesc:
        main_title: tuple = ()
        availability: tuple = ()
        publication_date = None
        authority = None
        source = None
        for child in node:
            name = child.tag
            if name == "titleStmt":
                titles = child.findall("title")
                if titles:
                    main_title = self.rich(titles[0])
                for extra in titles[1:]:
                    self.warn(extra, "additional titleStmt title dropped")
                for sub in child:
                    if sub.tag != "title":
                        self.unknown(sub, "titleStmt")
            elif name == "publicationStmt":
                availability, publication_date, authority = (
                    self.publication_stmt(child)
                )
            elif name == "sourceDesc":
                structs = child.findall("biblStruct")
                if structs:
                    source = self.biblstruct(structs[0])
                for extra in structs[1:]:
                    self.warn(
                        extra,
                        "additional sourceDesc biblStruct dropped; first kept",
                    )
                for sub in child:
                    if sub.tag != "biblStruct":
                        self.unknown(sub, "sourceDesc")
            else:
                self.unknown(child, "fileDesc")
        return m.FileDesc(
            main_title, availability, publication_date, authority, source
        )

    def publication_stmt(self, node):
        availability: tuple = ()
        date = None
        authority = None
        for child in node:
            name = child.tag
            if name == "availability":
                paras = child.findall("p")
                if paras:
                    availability = self.rich(paras[0])
                    for extra in paras[1:]:
                        self.warn(
                            extra, "additional availability paragraph dropped"
                        )
                elif any(isinstance(c, str) and c.strip() for c in _mixed(child)):
                    availability = self.rich(child)
            elif name == "date":
                date = self.date_from(child, "publication")
            elif name == "authority":
                authority = self.text(child)
            else:
                self.unknown(child, "publicationStmt")
        return availability, date, authority

    def profile_desc(self, node) -> m.ProfileDesc:
        keywords: list = []
        languages: list = []
        for child in node:
            name = child.tag
            if name == "langUsage":
                for lang in child.findall("language"):
                    ident = lang.get("ident", "").strip()
                    if ident:
                        languages.append(ident)
            elif name == "textClass":
                for kw in child.findall("keywords"):
                    self.keywords(kw, keywords)
                for sub in child:
                    if sub.tag != "keywords":
                        self.unknown(sub, "textClass")
            else:
                self.unknown(child, "profileDesc")
        return m.ProfileDesc(tuple(keywords), tuple(languages))

    def keywords(self, node, out: list) -> None:
        scheme = node.get("scheme")

        def add(term_text: str) -> None:
            term_text = _collapse(term_text)
            if term_text:
                out.append(m.Keyword(term_text, scheme))

        for child in node:
            if child.tag == "term":
                add(_text_content(child))
            elif child.tag == "list":
                for item in child.findall("item"):
                    terms = item.findall("term")
                    if terms:
                        for term in terms:
                            add(_text_content(term))
                    else:
                        add(_text_content(item))
                # a list head such as "Keywords" is presentation, not content
            else:
                self.unknown(child, "keywords")

    def revision_desc(self, node) -> m.RevisionDesc:
        changes: list = []
        for child in node:
            if child.tag != "change":
                self.unknown(child, "revisionDesc")
                continue
            when_value = child.get("when", "")
            try:
                when = m.CalendarDate.parse(when_value)
            except ValueError:
                self.warn(
                    child,
                    f"change with unparseable date {when_value!r} dropped",
                )
                continue
            description = _collapse(_text_content(child))
            kind = child.get("type") or _leading_word(description)
            changes.append(m.Change(when, kind, description))
        return m.RevisionDesc(tuple(changes))

    # -- text division ------------------------------------------------------

    def back_matter(self, node) -> m.BackMatter:
        """Back content: divisions plus the merged reference list."""
        entries: list = []
        listbibl_seen = self.harvest(node, entries, 0)
        divisions = self.division_sequence(node, "back", _LISTBIBL_NAMES)
        reference_list = m.ListBibl(tuple(entries)) if listbibl_seen else None
        return m.BackMatter(divisions, reference_list)

    def harvest(self, node, entries: list, listbibl_seen: int) -> int:
        """Add the entries of the reference lists directly in ``node`` or in
        its (nested) divs, the ones ``division`` skips, to ``entries``.  A
        list inside a block stays in it.  Returns the count of lists seen."""
        for sub in node:
            if sub in self.foreign:
                continue
            if sub.tag in _LISTBIBL_NAMES:
                if sub.tag == "listBib":
                    self.warn(sub, "element 'listBib' read as 'listBibl'")
                listbibl_seen += 1
                if listbibl_seen > 1:
                    self.warn(sub, "additional listBibl merged into the first")
                for entry in sub:
                    if entry.tag == "biblStruct":
                        entries.append(self.biblstruct(entry))
                    else:
                        self.unknown(entry, "listBibl")
            elif sub.tag == "div":
                listbibl_seen = self.harvest(sub, entries, listbibl_seen)
        return listbibl_seen


def _leading_word(text: str) -> str:
    match = re.match(r"[^\s.,;:]+", text)
    return match.group(0).casefold() if match else ""


def _infer_doc_type(analytic: m.Analytic | None, monogr: m.Monogr) -> str:
    level = monogr.titles[0].level if monogr.titles else None
    if analytic is not None:
        if level == "j":
            return "journalArticle"
        if level == "m":
            return "bookSection"
        return "unknown"
    if level == "m":
        return "book"
    return "unknown"


def parse_article(
    data: bytes, source_name: str | None = None
) -> ParseReport:
    """Parse one file's bytes; outcome is present iff no error was found."""
    try:
        doc = parse_raw(data)
    except RawXmlError as exc:
        return ParseReport(issues=(Issue("error", "", str(exc)),))

    builder = _Builder(doc)
    root = doc.root
    if root.tag != "TEI" or doc.root_ns != TEI_NS:
        builder.error(
            root,
            f"document element must be TEI in namespace {TEI_NS}, "
            f"got '{root.tag}'",
        )
        return ParseReport(issues=tuple(builder.issues))

    header_node = root.find("teiHeader")
    text_node = root.find("text")
    if header_node is None:
        builder.error(root, "missing teiHeader")
    if text_node is None:
        builder.error(root, "missing text")
    if header_node is None or text_node is None:
        return ParseReport(issues=tuple(builder.issues))

    for child in root:
        if child is not header_node and child is not text_node:
            builder.unknown(child, "TEI")

    file_desc = m.FileDesc()
    profile_desc = m.ProfileDesc()
    revision_desc = m.RevisionDesc()
    for child in header_node:
        if child.tag == "fileDesc":
            file_desc = builder.file_desc(child)
        elif child.tag == "profileDesc":
            profile_desc = builder.profile_desc(child)
        elif child.tag == "revisionDesc":
            revision_desc = builder.revision_desc(child)
        else:
            builder.unknown(child, "teiHeader")

    front: tuple = ()
    body: tuple = ()
    back = m.BackMatter()
    strays: list = []
    foreign = doc.foreign
    for child in text_node:
        name = None if child in foreign else child.tag
        if name == "front":
            front = builder.division_sequence(child, "front")
        elif name == "body":
            body = builder.division_sequence(child, "body")
        elif name == "back":
            back = builder.back_matter(child)
        else:
            builder.warn(
                child, f"element '{child.tag}' in text wrapped into body"
            )
            strays.append(m.Division(blocks=(builder.block(child),)))
    if strays:
        body = body + tuple(strays)

    header = m.Header(file_desc, profile_desc, revision_desc)
    article = m.Article(
        id=m.derive_article_id(file_desc.source, source_name),
        header=header,
        front=front,
        body=body,
        back=back,
        # Opaque regions are copied verbatim, so a prefix declared on some
        # ancestor of preserved markup is re-declared on the new root; the
        # first declaration wins, and verbatim re-declarations deeper down
        # still shadow it locally.
        ns_decls=tuple(sorted(doc.ns_decls)),
    )
    return ParseReport(issues=tuple(builder.issues), outcome=article)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def _esc(text: str) -> str:
    # Carriage returns must leave as character references or the parser
    # would normalize them away and break the round-trip fixpoint.
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _esc_attr(text: str) -> str:
    # Ditto for tabs and newlines, which attribute-value normalization
    # would otherwise turn into spaces.
    return (
        _esc(text)
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
    )


def _tag(name: str, attrs: dict, close: bool = False) -> str:
    parts = [name]
    for key in sorted(attrs):
        value = attrs[key]
        if value is None:
            continue
        parts.append(f'{key}="{_esc_attr(str(value))}"')
    return "<" + " ".join(parts) + ("/>" if close else ">")


_OPAQUE_NAME_RE = re.compile(r"<([^\s/>!?]+)")


def opaque_root_name(markup: str) -> str:
    match = _OPAQUE_NAME_RE.search(markup)
    return match.group(1) if match else "opaque"


def _inline_markup(content: tuple) -> str:
    parts: list[str] = []
    for node in content:
        if isinstance(node, m.TextRun):
            parts.append(_esc(node.text))
        elif isinstance(node, m.Emph):
            attrs = {"rend": node.rend} if node.rend else {}
            parts.append(
                _tag("hi", attrs) + _inline_markup(node.content) + "</hi>"
            )
        elif isinstance(node, m.BiblRef):
            attrs = {"target": node.target, "type": "bibr"}
            if node.text:
                parts.append(_tag("ref", attrs) + _esc(node.text) + "</ref>")
            else:
                parts.append(_tag("ref", attrs, close=True))
        elif isinstance(node, m.Link):
            if node.text:
                parts.append(
                    _tag("ref", {"target": node.target})
                    + _esc(node.text)
                    + "</ref>"
                )
            else:
                parts.append(_tag("ptr", {"target": node.target}, close=True))
        elif type(node) in _MENTION_ATTRS:
            name = _ELEMENT_NAMES[type(node)]
            attr, field = _MENTION_ATTRS[type(node)]
            value = getattr(node, field)
            attrs = {attr: value} if value else {}
            parts.append(_tag(name, attrs) + _esc(node.text) + f"</{name}>")
        elif isinstance(node, m.AbbrMention):
            if node.expansion is None:
                parts.append("<abbr>" + _esc(node.abbr) + "</abbr>")
            else:
                parts.append(
                    "<choice><abbr>"
                    + _esc(node.abbr)
                    + "</abbr><expan>"
                    + _esc(node.expansion)
                    + "</expan></choice>"
                )
        elif isinstance(node, m.OpaqueInline):
            parts.append(node.markup)
        else:
            raise TypeError(f"not an inline node: {node!r}")
    return "".join(parts)


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def leaf(self, depth: int, name: str, attrs: dict, content: str) -> None:
        """One-line element; content is already-escaped markup."""
        if content:
            self.line(depth, _tag(name, attrs) + content + f"</{name}>")
        else:
            self.line(depth, _tag(name, attrs, close=True))

    def text_leaf(self, depth: int, name: str, attrs: dict, text: str) -> None:
        self.leaf(depth, name, attrs, _esc(text))

    def open(self, depth: int, name: str, attrs: dict | None = None) -> None:
        self.line(depth, _tag(name, attrs or {}))

    def close(self, depth: int, name: str) -> None:
        self.line(depth, f"</{name}>")


def serialize_article(article: m.Article) -> bytes:
    """Render the model to canonical UTF-8 TEI XML."""
    w = _Writer()
    w.lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    root_attrs = {"xmlns": TEI_NS}
    for prefix, uri in article.ns_decls:
        root_attrs[f"xmlns:{prefix}"] = uri
    w.open(0, "TEI", root_attrs)
    _write_header(w, 1, article.header)
    _write_text(w, 1, article)
    w.close(0, "TEI")
    return ("\n".join(w.lines) + "\n").encode("utf-8")


def _write_header(w: _Writer, depth: int, header: m.Header) -> None:
    w.open(depth, "teiHeader")
    _write_file_desc(w, depth + 1, header.file_desc)
    _write_profile_desc(w, depth + 1, header.profile_desc)
    _write_revision_desc(w, depth + 1, header.revision_desc)
    w.close(depth, "teiHeader")


def _write_file_desc(w: _Writer, depth: int, fd: m.FileDesc) -> None:
    has_pub = fd.availability or fd.publication_date or fd.authority
    if not (fd.main_title or has_pub or fd.source):
        w.leaf(depth, "fileDesc", {}, "")
        return
    w.open(depth, "fileDesc")
    if fd.main_title:
        w.open(depth + 1, "titleStmt")
        w.leaf(
            depth + 2,
            "title",
            {"level": "a", "type": "main"},
            _inline_markup(fd.main_title),
        )
        w.close(depth + 1, "titleStmt")
    if has_pub:
        w.open(depth + 1, "publicationStmt")
        if fd.availability:
            w.open(depth + 2, "availability")
            w.leaf(depth + 3, "p", {}, _inline_markup(fd.availability))
            w.close(depth + 2, "availability")
        if fd.publication_date:
            w.leaf(
                depth + 2, "date", {"when": fd.publication_date.iso()}, ""
            )
        if fd.authority:
            w.text_leaf(depth + 2, "authority", {}, fd.authority)
        w.close(depth + 1, "publicationStmt")
    if fd.source is not None:
        w.open(depth + 1, "sourceDesc")
        _write_biblstruct(w, depth + 2, fd.source)
        w.close(depth + 1, "sourceDesc")
    w.close(depth, "fileDesc")


def _write_profile_desc(w: _Writer, depth: int, pd: m.ProfileDesc) -> None:
    if not (pd.keywords or pd.languages):
        return
    w.open(depth, "profileDesc")
    if pd.languages:
        w.open(depth + 1, "langUsage")
        for ident in pd.languages:
            w.leaf(depth + 2, "language", {"ident": ident}, "")
        w.close(depth + 1, "langUsage")
    if pd.keywords:
        w.open(depth + 1, "textClass")
        for scheme, group in _group_keywords(pd.keywords):
            attrs = {"scheme": scheme} if scheme else {}
            w.open(depth + 2, "keywords", attrs)
            w.open(depth + 3, "list")
            for keyword in group:
                w.leaf(
                    depth + 4,
                    "item",
                    {},
                    "<term>" + _esc(keyword.term) + "</term>",
                )
            w.close(depth + 3, "list")
            w.close(depth + 2, "keywords")
        w.close(depth + 1, "textClass")
    w.close(depth, "profileDesc")


def _group_keywords(keywords: tuple) -> list:
    """Group by scheme, keeping first-appearance order of schemes."""
    order: list = []
    groups: dict = {}
    for keyword in keywords:
        if keyword.scheme not in groups:
            groups[keyword.scheme] = []
            order.append(keyword.scheme)
        groups[keyword.scheme].append(keyword)
    return [(scheme, groups[scheme]) for scheme in order]


def _write_revision_desc(w: _Writer, depth: int, rd: m.RevisionDesc) -> None:
    if not rd.changes:
        return
    w.open(depth, "revisionDesc")
    for change in rd.changes:
        attrs = {"when": change.when.iso()}
        if change.kind != _leading_word(change.description):
            attrs["type"] = change.kind
        w.text_leaf(depth + 1, "change", attrs, change.description)
    w.close(depth, "revisionDesc")


def _write_text(w: _Writer, depth: int, article: m.Article) -> None:
    w.open(depth, "text")
    if article.front:
        w.open(depth + 1, "front")
        for division in article.front:
            _write_division(w, depth + 2, division)
        w.close(depth + 1, "front")
    if article.body:
        w.open(depth + 1, "body")
        for division in article.body:
            _write_division(w, depth + 2, division)
        w.close(depth + 1, "body")
    else:
        w.leaf(depth + 1, "body", {}, "")
    back = article.back
    if back.divisions or back.reference_list is not None:
        w.open(depth + 1, "back")
        for division in back.divisions:
            _write_division(w, depth + 2, division)
        if back.reference_list is not None:
            _write_listbibl(w, depth + 2, back.reference_list)
        w.close(depth + 1, "back")
    w.close(depth, "text")


def _write_division(w: _Writer, depth: int, division: m.Division) -> None:
    attrs = {"type": division.kind}
    if not (division.head or division.blocks or division.children):
        w.leaf(depth, "div", attrs, "")
        return
    w.open(depth, "div", attrs)
    if division.head:
        w.leaf(depth + 1, "head", {}, _inline_markup(division.head))
    for block in division.blocks:
        _write_block(w, depth + 1, block)
    for child in division.children:
        _write_division(w, depth + 1, child)
    w.close(depth, "div")


def _write_block(w: _Writer, depth: int, block) -> None:
    if isinstance(block, m.Paragraph):
        w.leaf(depth, "p", {}, _inline_markup(block.content))
    elif isinstance(block, m.CitBlock):
        w.open(depth, "cit")
        w.leaf(depth + 1, "quote", {}, _inline_markup(block.quote))
        if isinstance(block.source, m.BiblStruct):
            _write_biblstruct(w, depth + 1, block.source)
        elif isinstance(block.source, str):
            w.leaf(
                depth + 1,
                "ref",
                {"target": block.source, "type": "bibr"},
                "",
            )
        if block.qualifiers:
            w.leaf(depth + 1, "note", {}, _inline_markup(block.qualifiers))
        w.close(depth, "cit")
    elif isinstance(block, m.FigureBlock):
        w.open(depth, "figure")
        if block.caption:
            w.leaf(depth + 1, "head", {}, _inline_markup(block.caption))
        if block.graphic_url is not None:
            w.leaf(depth + 1, "graphic", {"url": block.graphic_url}, "")
        w.close(depth, "figure")
    elif isinstance(block, (m.TableBlock, m.FormulaBlock, m.OpaqueBlock)):
        w.line(depth, block.markup)
    elif isinstance(block, m.ListBlock):
        w.open(depth, "list")
        for item in block.items:
            w.leaf(depth + 1, "item", {}, _inline_markup(item))
        w.close(depth, "list")
    elif isinstance(block, m.QuoteBlock):
        w.leaf(depth, "quote", {}, _inline_markup(block.content))
    else:
        raise TypeError(f"not a block node: {block!r}")


def _write_listbibl(w: _Writer, depth: int, listbibl: m.ListBibl) -> None:
    if not listbibl.entries:
        w.leaf(depth, "listBibl", {}, "")
        return
    w.open(depth, "listBibl")
    for entry in listbibl.entries:
        _write_biblstruct(w, depth + 1, entry)
    w.close(depth, "listBibl")


def _write_biblstruct(w: _Writer, depth: int, bs: m.BiblStruct) -> None:
    attrs = {"type": bs.doc_type.value}
    if bs.xml_id:
        attrs["xml:id"] = bs.xml_id
    w.open(depth, "biblStruct", attrs)
    if bs.analytic is not None:
        w.open(depth + 1, "analytic")
        for title in bs.analytic.titles:
            _write_title(w, depth + 2, title)
        for author in bs.analytic.authors:
            _write_author(w, depth + 2, author)
        w.close(depth + 1, "analytic")
    _write_monogr(w, depth + 1, bs.monogr)
    for ident in bs.identifiers:
        w.text_leaf(depth + 1, "idno", {"type": ident.kind}, ident.value)
    w.close(depth, "biblStruct")


def _write_title(w: _Writer, depth: int, title: m.Title) -> None:
    w.leaf(
        depth,
        "title",
        {"level": title.level, "type": title.type},
        _inline_markup(title.text),
    )


def _write_monogr(w: _Writer, depth: int, monogr: m.Monogr) -> None:
    imprint = monogr.imprint
    has_imprint = (
        imprint.publisher
        or imprint.pub_place
        or imprint.date
        or imprint.scopes
    )
    if not (monogr.titles or monogr.authors or monogr.issn or has_imprint):
        w.leaf(depth, "monogr", {}, "")
        return
    w.open(depth, "monogr")
    for author in monogr.authors:
        _write_author(w, depth + 1, author)
    for title in monogr.titles:
        _write_title(w, depth + 1, title)
    if monogr.issn:
        w.text_leaf(depth + 1, "idno", {"type": "ISSN"}, monogr.issn)
    if has_imprint:
        w.open(depth + 1, "imprint")
        if imprint.publisher:
            w.text_leaf(depth + 2, "publisher", {}, imprint.publisher)
        if imprint.pub_place:
            w.text_leaf(depth + 2, "pubPlace", {}, imprint.pub_place)
        if imprint.date:
            attrs = {"when": imprint.date.iso()}
            if imprint.date_role != "published":
                attrs["type"] = imprint.date_role
            w.leaf(depth + 2, "date", attrs, "")
        for scope in imprint.scopes:
            w.text_leaf(
                depth + 2, "biblScope", {"type": scope.kind}, scope.value
            )
        w.close(depth + 1, "imprint")
    w.close(depth, "monogr")


def _write_author(w: _Writer, depth: int, author: m.Author) -> None:
    attrs = {"type": "corresp"} if author.corresponding else {}
    has_name = author.surname or author.forenames
    if not (has_name or author.identifiers or author.affiliation or author.email):
        w.leaf(depth, "author", attrs, "")
        return
    w.open(depth, "author", attrs)
    for ident in author.identifiers:
        w.text_leaf(depth + 1, "idno", {"type": ident.kind}, ident.value)
    if has_name:
        w.open(depth + 1, "persName")
        for forename in author.forenames:
            w.text_leaf(depth + 2, "forename", {}, forename)
        if author.surname:
            w.text_leaf(depth + 2, "surname", {}, author.surname)
        w.close(depth + 1, "persName")
    if author.affiliation is not None:
        _write_affiliation(w, depth + 1, author.affiliation)
    if author.email:
        w.text_leaf(depth + 1, "email", {}, author.email)
    w.close(depth, "author")


def _write_affiliation(w: _Writer, depth: int, aff: m.Affiliation) -> None:
    if not (aff.org_units or aff.address):
        w.leaf(depth, "affiliation", {}, "")
        return
    w.open(depth, "affiliation")
    for unit in aff.org_units:
        w.text_leaf(depth + 1, "orgName", {"type": unit.kind}, unit.name)
    if aff.address is not None:
        address = aff.address
        w.open(depth + 1, "address")
        if address.settlement:
            w.text_leaf(depth + 2, "settlement", {}, address.settlement)
        if address.post_code:
            w.text_leaf(depth + 2, "postCode", {}, address.post_code)
        if address.country:
            w.text_leaf(depth + 2, "country", {}, address.country)
        for line in address.lines:
            attrs = {"type": line.kind} if line.kind else {}
            w.text_leaf(depth + 2, "addrLine", attrs, line.text)
        w.close(depth + 1, "address")
    w.close(depth, "affiliation")


# --------------------------------------------------------------------------
# Canonical model paths
# --------------------------------------------------------------------------


def iter_model_paths(article: m.Article) -> list:
    """Document-ordered (path, node) pairs for addressable model nodes.

    Paths follow the canonical serialization: slash-separated element
    names with 1-based indexes among same-named siblings. Only record
    nodes are yielded (never bare rich-text tuples). Each call walks the
    article again and returns a new list; :func:`model_paths` is the
    shared walk.
    """
    out: list = []

    # header -------------------------------------------------------------
    header = article.header
    fd = header.file_desc
    fd_path = "TEI[1]/teiHeader[1]/fileDesc[1]"
    out.append((fd_path, fd))
    if fd.main_title:
        _walk_rich(out, fd.main_title, f"{fd_path}/titleStmt[1]/title[1]", {})
    if fd.availability:
        _walk_rich(
            out,
            fd.availability,
            f"{fd_path}/publicationStmt[1]/availability[1]/p[1]",
            {},
        )
    if fd.source is not None:
        _walk_biblstruct(out, fd.source, f"{fd_path}/sourceDesc[1]/biblStruct[1]")
    pd = header.profile_desc
    if pd.keywords or pd.languages:
        pd_path = "TEI[1]/teiHeader[1]/profileDesc[1]"
        out.append((pd_path, pd))
        if pd.keywords:
            tc_path = f"{pd_path}/textClass[1]"
            tcc: dict = {}
            for _, group in _group_keywords(pd.keywords):
                kw_path = _child_path(tc_path, tcc, "keywords")
                for i, keyword in enumerate(group, start=1):
                    out.append((f"{kw_path}/list[1]/item[{i}]/term[1]", keyword))
    rd = header.revision_desc
    if rd.changes:
        rd_path = "TEI[1]/teiHeader[1]/revisionDesc[1]"
        out.append((rd_path, rd))
        for i, change in enumerate(rd.changes, start=1):
            out.append((f"{rd_path}/change[{i}]", change))

    # text ---------------------------------------------------------------
    text_path = "TEI[1]/text[1]"
    if article.front:
        front_path = f"{text_path}/front[1]"
        frontc: dict = {}
        for division in article.front:
            _walk_division(out, division, front_path, frontc)
    body_path = f"{text_path}/body[1]"
    bodyc: dict = {}
    for division in article.body:
        _walk_division(out, division, body_path, bodyc)
    back = article.back
    if back.divisions or back.reference_list is not None:
        back_path = f"{text_path}/back[1]"
        backc: dict = {}
        for division in back.divisions:
            _walk_division(out, division, back_path, backc)
        if back.reference_list is not None:
            lb_path = _child_path(back_path, backc, "listBibl")
            out.append((lb_path, back.reference_list))
            lbc: dict = {}
            for entry in back.reference_list.entries:
                _walk_biblstruct(out, entry, _child_path(lb_path, lbc, "biblStruct"))
    return out


def model_paths(article: m.Article) -> list:
    """The article's :func:`iter_model_paths` list, shared: do not mutate it.

    The walk runs once per ``Article`` instance.  Its result is kept in the
    instance's ``__dict__``, the way :func:`functools.cached_property`
    keeps values, so the frozen fields are untouched and each new article,
    one made with :func:`dataclasses.replace` too, gets a walk of its own.
    """
    memo = article.__dict__
    paths = memo.get("_model_paths")
    if paths is None:
        paths = memo["_model_paths"] = iter_model_paths(article)
    return paths


def _child_path(parent: str, counters: dict, name: str) -> str:
    counters[name] = counters.get(name, 0) + 1
    return f"{parent}/{name}[{counters[name]}]"


def _walk_rich(out: list, content: tuple, parent: str, counters: dict) -> None:
    for node in content:
        if isinstance(node, m.TextRun):
            continue
        name = _element_name(node)
        path = _child_path(parent, counters, name)
        out.append((path, node))
        if isinstance(node, m.Emph):
            _walk_rich(out, node.content, path, {})


def _walk_leaf_rich(
    out: list, content: tuple, parent: str, counters: dict, name: str
) -> None:
    """Rich text held by a wrapper element (head, quote, item...)."""
    _walk_rich(out, content, _child_path(parent, counters, name), {})


def _walk_author(out: list, author: m.Author, parent: str, counters: dict) -> None:
    path = _child_path(parent, counters, "author")
    out.append((path, author))
    if author.affiliation is not None:
        aff_path = f"{path}/affiliation[1]"
        out.append((aff_path, author.affiliation))
        affc: dict = {}
        for unit in author.affiliation.org_units:
            out.append((_child_path(aff_path, affc, "orgName"), unit))


def _walk_biblstruct(out: list, bs: m.BiblStruct, path: str) -> None:
    out.append((path, bs))
    counters: dict = {}
    if bs.analytic is not None:
        a_path = _child_path(path, counters, "analytic")
        ac: dict = {}
        for title in bs.analytic.titles:
            t_path = _child_path(a_path, ac, "title")
            out.append((t_path, title))
            _walk_rich(out, title.text, t_path, {})
        for author in bs.analytic.authors:
            _walk_author(out, author, a_path, ac)
    m_path = _child_path(path, counters, "monogr")
    mc: dict = {}
    for author in bs.monogr.authors:
        _walk_author(out, author, m_path, mc)
    for title in bs.monogr.titles:
        t_path = _child_path(m_path, mc, "title")
        out.append((t_path, title))
        _walk_rich(out, title.text, t_path, {})
    imprint = bs.monogr.imprint
    if imprint.publisher or imprint.pub_place or imprint.date or imprint.scopes:
        i_path = _child_path(m_path, mc, "imprint")
        ic: dict = {}
        for scope in imprint.scopes:
            out.append((_child_path(i_path, ic, "biblScope"), scope))


def _walk_block(out: list, block, parent: str, counters: dict) -> None:
    path = _child_path(parent, counters, _element_name(block))
    out.append((path, block))
    inner: dict = {}
    if isinstance(block, m.Paragraph):
        _walk_rich(out, block.content, path, inner)
    elif isinstance(block, m.CitBlock):
        _walk_leaf_rich(out, block.quote, path, inner, "quote")
        if isinstance(block.source, m.BiblStruct):
            _walk_biblstruct(
                out, block.source, _child_path(path, inner, "biblStruct")
            )
        if block.qualifiers:
            _walk_leaf_rich(out, block.qualifiers, path, inner, "note")
    elif isinstance(block, (m.FigureBlock, m.TableBlock)):
        if block.caption:
            _walk_leaf_rich(out, block.caption, path, inner, "head")
    elif isinstance(block, m.ListBlock):
        for item in block.items:
            _walk_leaf_rich(out, item, path, inner, "item")
    elif isinstance(block, m.QuoteBlock):
        _walk_rich(out, block.content, path, inner)


def _walk_division(
    out: list, division: m.Division, parent: str, counters: dict
) -> None:
    path = _child_path(parent, counters, "div")
    out.append((path, division))
    inner: dict = {}
    if division.head:
        _walk_leaf_rich(out, division.head, path, inner, "head")
    for block in division.blocks:
        _walk_block(out, block, path, inner)
    for child in division.children:
        _walk_division(out, child, path, inner)
