"""Parse TEI journal files into the document model and serialize them back.

Parsing is repair-oriented: recognized structures become typed model nodes,
recoverable encoding slips are fixed with a warning, metadata that cannot be
represented is dropped with a warning, and running-text markup outside the
recognized subset is carried as opaque verbatim slices so body content is
never lost. Serialization emits one canonical form: UTF-8, alphabetical
attributes, two-space indentation for element-only content, and opaque
regions byte-for-byte as captured. The serializer's element calls are the
only description of that form: :func:`iter_model_paths` makes the same
calls to name the element that holds each model node.

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

# TEI element of each inline model class whose element name is fixed; see
# _element_name for the classes whose name depends on their values.
_ELEMENT_NAMES = {
    m.Emph: "hi",
    m.BiblRef: "ref",
    m.PersonMention: "persName",
    m.OrgMention: "orgName",
    m.PlaceMention: "placeName",
    m.TermMention: "term",
}

# Mentions are text plus one optional attribute: (TEI attribute, model field).
_MENTION_ATTRS = {
    m.PersonMention: ("key", "key"),
    m.OrgMention: ("key", "key"),
    m.PlaceMention: ("key", "key"),
    m.TermMention: ("type", "kind"),
}
_MENTION_CLASSES = {_ELEMENT_NAMES[cls]: cls for cls in _MENTION_ATTRS}


def _element_name(node) -> str:
    """Canonical TEI element name of an inline model node."""
    name = _ELEMENT_NAMES.get(type(node))
    if name is not None:
        return name
    if isinstance(node, m.Link):
        return "ref" if node.text else "ptr"
    if isinstance(node, m.AbbrMention):
        return "abbr" if node.expansion is None else "choice"
    if isinstance(node, m.OpaqueInline):
        return opaque_root_name(node.markup)
    raise TypeError(f"not an inline node: {node!r}")


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
# Serialization and canonical model paths
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
    """Writes the canonical serialization, one line per element.

    The ``_write_*`` functions are the only description of the canonical
    tree; they make the same calls on a :class:`_PathWriter` to list the
    model's paths.  ``node=`` names the addressable model node an element
    holds, which only the path writer reads.
    """

    def __init__(self) -> None:
        self.lines: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
        self.open_names: list[str] = []
        self.indent = ""

    def line(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def _leaf(self, name: str, attrs: dict, markup: str) -> None:
        if markup:
            self.line(_tag(name, attrs) + markup + f"</{name}>")
        else:
            self.line(_tag(name, attrs, close=True))

    def empty(self, name: str, attrs: dict, node=None) -> None:
        self.line(_tag(name, attrs, close=True))

    def text(self, name: str, attrs: dict, value: str, node=None) -> None:
        self._leaf(name, attrs, _esc(value))

    def rich(self, name: str, attrs: dict, content: tuple, node=None) -> None:
        self._leaf(name, attrs, _inline_markup(content))

    def term_item(self, term: str, node) -> None:
        # One line, so the term is not indented inside its item.
        self.line("<item><term>" + _esc(term) + "</term></item>")

    def verbatim(self, markup: str, node, caption: tuple = ()) -> None:
        self.line(markup)  # a table's caption is inside its markup

    def open(self, name: str, attrs: dict | None = None, node=None) -> None:
        self.line(_tag(name, attrs or {}))
        self.open_names.append(name)
        self.indent += "  "

    def close(self) -> None:
        self.indent = self.indent[:-2]
        self.line(f"</{self.open_names.pop()}>")


class _PathWriter:
    """Takes :class:`_Writer`'s calls and records ``(path, node)`` pairs.

    A path is the slash-separated element names of the canonical
    serialization, with 1-based indexes among same-named siblings.
    """

    def __init__(self) -> None:
        self.out: list = []
        # (path prefix, child-name counts) of each open element
        self.open_paths: list = [("", {})]

    def _path(self, name: str, node) -> str:
        prefix, counts = self.open_paths[-1]
        count = counts[name] = counts.get(name, 0) + 1
        path = f"{prefix}{name}[{count}]"
        if node is not None:
            self.out.append((path, node))
        return path

    def empty(self, name: str, attrs: dict, node=None) -> None:
        self._path(name, node)

    def text(self, name: str, attrs: dict, value: str, node=None) -> None:
        self._path(name, node)

    def rich(self, name: str, attrs: dict, content: tuple, node=None) -> None:
        _walk_rich(self.out, content, self._path(name, node), {})

    def term_item(self, term: str, node) -> None:
        self.out.append((self._path("item", None) + "/term[1]", node))

    def verbatim(self, markup: str, node, caption: tuple = ()) -> None:
        path = self._path(opaque_root_name(markup), node)
        if caption:
            _walk_rich(self.out, caption, path + "/head[1]", {})

    def open(self, name: str, attrs: dict | None = None, node=None) -> None:
        self.open_paths.append((self._path(name, node) + "/", {}))

    def close(self) -> None:
        self.open_paths.pop()


def _walk_rich(out: list, content: tuple, parent: str, counts: dict) -> None:
    for node in content:
        if isinstance(node, m.TextRun):
            continue
        name = _element_name(node)
        count = counts[name] = counts.get(name, 0) + 1
        path = f"{parent}/{name}[{count}]"
        out.append((path, node))
        if isinstance(node, m.Emph):
            _walk_rich(out, node.content, path, {})


def serialize_article(article: m.Article) -> bytes:
    """Render the model to canonical UTF-8 TEI XML."""
    lines = _write_article(_Writer(), article).lines
    return ("\n".join(lines) + "\n").encode("utf-8")


def iter_model_paths(article: m.Article) -> list:
    """Document-ordered (path, node) pairs for addressable model nodes.

    Paths follow the canonical serialization, because they are made by its
    own ``_write_*`` calls: slash-separated element names with 1-based
    indexes among same-named siblings. Only record nodes are yielded (never
    bare rich-text tuples). Each call walks the article again and returns a
    new list; :func:`model_paths` is the shared walk.
    """
    return _write_article(_PathWriter(), article).out


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


def _write_article(w, article: m.Article):
    root_attrs = {"xmlns": TEI_NS}
    for prefix, uri in article.ns_decls:
        root_attrs[f"xmlns:{prefix}"] = uri
    w.open("TEI", root_attrs)
    header = article.header
    w.open("teiHeader")
    _write_file_desc(w, header.file_desc)
    _write_profile_desc(w, header.profile_desc)
    _write_revision_desc(w, header.revision_desc)
    w.close()
    _write_text(w, article)
    w.close()
    return w


def _write_file_desc(w, fd: m.FileDesc) -> None:
    has_pub = fd.availability or fd.publication_date or fd.authority
    if not (fd.main_title or has_pub or fd.source):
        w.empty("fileDesc", {}, node=fd)
        return
    w.open("fileDesc", node=fd)
    if fd.main_title:
        w.open("titleStmt")
        w.rich("title", {"level": "a", "type": "main"}, fd.main_title)
        w.close()
    if has_pub:
        w.open("publicationStmt")
        if fd.availability:
            w.open("availability")
            w.rich("p", {}, fd.availability)
            w.close()
        if fd.publication_date:
            w.empty("date", {"when": fd.publication_date.iso()})
        if fd.authority:
            w.text("authority", {}, fd.authority)
        w.close()
    if fd.source is not None:
        w.open("sourceDesc")
        _write_biblstruct(w, fd.source)
        w.close()
    w.close()


def _write_profile_desc(w, pd: m.ProfileDesc) -> None:
    if not (pd.keywords or pd.languages):
        return
    w.open("profileDesc", node=pd)
    if pd.languages:
        w.open("langUsage")
        for ident in pd.languages:
            w.empty("language", {"ident": ident})
        w.close()
    if pd.keywords:
        w.open("textClass")
        for scheme, group in _group_keywords(pd.keywords):
            w.open("keywords", {"scheme": scheme} if scheme else {})
            w.open("list")
            for keyword in group:
                w.term_item(keyword.term, keyword)
            w.close()
            w.close()
        w.close()
    w.close()


def _group_keywords(keywords: tuple) -> list:
    """Group by scheme, keeping first-appearance order of schemes."""
    groups: dict = {}
    for keyword in keywords:
        groups.setdefault(keyword.scheme, []).append(keyword)
    return list(groups.items())


def _write_revision_desc(w, rd: m.RevisionDesc) -> None:
    if not rd.changes:
        return
    w.open("revisionDesc", node=rd)
    for change in rd.changes:
        attrs = {"when": change.when.iso()}
        if change.kind != _leading_word(change.description):
            attrs["type"] = change.kind
        w.text("change", attrs, change.description, node=change)
    w.close()


def _write_text(w, article: m.Article) -> None:
    w.open("text")
    if article.front:
        w.open("front")
        for division in article.front:
            _write_division(w, division)
        w.close()
    if article.body:
        w.open("body")
        for division in article.body:
            _write_division(w, division)
        w.close()
    else:
        w.empty("body", {})
    back = article.back
    if back.divisions or back.reference_list is not None:
        w.open("back")
        for division in back.divisions:
            _write_division(w, division)
        if back.reference_list is not None:
            _write_listbibl(w, back.reference_list)
        w.close()
    w.close()


def _write_division(w, division: m.Division) -> None:
    attrs = {"type": division.kind}
    if not (division.head or division.blocks or division.children):
        w.empty("div", attrs, node=division)
        return
    w.open("div", attrs, node=division)
    if division.head:
        w.rich("head", {}, division.head)
    for block in division.blocks:
        _write_block(w, block)
    for child in division.children:
        _write_division(w, child)
    w.close()


def _write_block(w, block) -> None:
    if isinstance(block, m.Paragraph):
        w.rich("p", {}, block.content, node=block)
    elif isinstance(block, m.CitBlock):
        w.open("cit", node=block)
        w.rich("quote", {}, block.quote)
        if isinstance(block.source, m.BiblStruct):
            _write_biblstruct(w, block.source)
        elif isinstance(block.source, str):
            w.empty("ref", {"target": block.source, "type": "bibr"})
        if block.qualifiers:
            w.rich("note", {}, block.qualifiers)
        w.close()
    elif isinstance(block, m.FigureBlock):
        w.open("figure", node=block)
        if block.caption:
            w.rich("head", {}, block.caption)
        if block.graphic_url is not None:
            w.empty("graphic", {"url": block.graphic_url})
        w.close()
    elif isinstance(block, m.TableBlock):
        w.verbatim(block.markup, block, block.caption)
    elif isinstance(block, (m.FormulaBlock, m.OpaqueBlock)):
        w.verbatim(block.markup, block)
    elif isinstance(block, m.ListBlock):
        w.open("list", node=block)
        for item in block.items:
            w.rich("item", {}, item)
        w.close()
    elif isinstance(block, m.QuoteBlock):
        w.rich("quote", {}, block.content, node=block)
    else:
        raise TypeError(f"not a block node: {block!r}")


def _write_listbibl(w, listbibl: m.ListBibl) -> None:
    if not listbibl.entries:
        w.empty("listBibl", {}, node=listbibl)
        return
    w.open("listBibl", node=listbibl)
    for entry in listbibl.entries:
        _write_biblstruct(w, entry)
    w.close()


def _write_biblstruct(w, bs: m.BiblStruct) -> None:
    attrs = {"type": bs.doc_type.value}
    if bs.xml_id:
        attrs["xml:id"] = bs.xml_id
    w.open("biblStruct", attrs, node=bs)
    if bs.analytic is not None:
        w.open("analytic")
        for title in bs.analytic.titles:
            _write_title(w, title)
        for author in bs.analytic.authors:
            _write_author(w, author)
        w.close()
    _write_monogr(w, bs.monogr)
    for ident in bs.identifiers:
        w.text("idno", {"type": ident.kind}, ident.value)
    w.close()


def _write_title(w, title: m.Title) -> None:
    attrs = {"level": title.level, "type": title.type}
    w.rich("title", attrs, title.text, node=title)


def _write_monogr(w, monogr: m.Monogr) -> None:
    imprint = monogr.imprint
    has_imprint = (
        imprint.publisher
        or imprint.pub_place
        or imprint.date
        or imprint.scopes
    )
    if not (monogr.titles or monogr.authors or monogr.issn or has_imprint):
        w.empty("monogr", {})
        return
    w.open("monogr")
    for author in monogr.authors:
        _write_author(w, author)
    for title in monogr.titles:
        _write_title(w, title)
    if monogr.issn:
        w.text("idno", {"type": "ISSN"}, monogr.issn)
    if has_imprint:
        w.open("imprint")
        if imprint.publisher:
            w.text("publisher", {}, imprint.publisher)
        if imprint.pub_place:
            w.text("pubPlace", {}, imprint.pub_place)
        if imprint.date:
            attrs = {"when": imprint.date.iso()}
            if imprint.date_role != "published":
                attrs["type"] = imprint.date_role
            w.empty("date", attrs)
        for scope in imprint.scopes:
            w.text("biblScope", {"type": scope.kind}, scope.value, node=scope)
        w.close()
    w.close()


def _write_author(w, author: m.Author) -> None:
    attrs = {"type": "corresp"} if author.corresponding else {}
    has_name = author.surname or author.forenames
    if not (has_name or author.identifiers or author.affiliation or author.email):
        w.empty("author", attrs, node=author)
        return
    w.open("author", attrs, node=author)
    for ident in author.identifiers:
        w.text("idno", {"type": ident.kind}, ident.value)
    if has_name:
        w.open("persName")
        for forename in author.forenames:
            w.text("forename", {}, forename)
        if author.surname:
            w.text("surname", {}, author.surname)
        w.close()
    if author.affiliation is not None:
        _write_affiliation(w, author.affiliation)
    if author.email:
        w.text("email", {}, author.email)
    w.close()


def _write_affiliation(w, aff: m.Affiliation) -> None:
    if not (aff.org_units or aff.address):
        w.empty("affiliation", {}, node=aff)
        return
    w.open("affiliation", node=aff)
    for unit in aff.org_units:
        w.text("orgName", {"type": unit.kind}, unit.name, node=unit)
    if aff.address is not None:
        address = aff.address
        w.open("address")
        if address.settlement:
            w.text("settlement", {}, address.settlement)
        if address.post_code:
            w.text("postCode", {}, address.post_code)
        if address.country:
            w.text("country", {}, address.country)
        for line in address.lines:
            attrs = {"type": line.kind} if line.kind else {}
            w.text("addrLine", attrs, line.text)
        w.close()
    w.close()
