"""Parse TEI journal files into the document model and serialize them back.

Parsing is repair-oriented: recognized structures become typed model nodes,
recoverable encoding slips are fixed with a warning, metadata that cannot be
represented is dropped with a warning, and running-text markup outside the
recognized subset is carried as opaque verbatim slices so body content is
never lost. Of a child that the model holds once, the first is kept and
later ones are reported: every metadata element's children are read
through ``_Builder.children``, which applies that rule, and a repeated
``front``, ``body`` or ``back`` is kept verbatim in body. The back is read
in one walk: each reference list in it or in its divs is merged where the
division walk meets it, a div that held only lists is dropped as a shell,
and any other empty div is kept, as in body. Serialization
emits one canonical form: UTF-8, alphabetical attributes, two-space
indentation for element-only content, and opaque regions byte-for-byte as
captured. An element with no content is written self-closed;
``_Writer.close`` decides it. The serializer's element calls are the
only description of that form: :func:`iter_model_paths` makes the same
calls to name the element that holds each model node. Inside running text,
``_INLINE_ELEMENT`` alone describes each inline node's element; the
serializer writes what it returns and the path walk reads its name.

Known limits, all deliberate: attribute order and insignificant whitespace
are not preserved; unmodeled attributes on recognized elements are dropped
silently; namespace prefixes used by opaque markup must be declared on the
document element to survive re-serialization.
"""

from __future__ import annotations

import re

from . import model as m
from .base import Finding, Record, escaper, slotted
from .rawxml import TEI_NS, XML_NS, RawXmlError, TreeDocument, has_text, parse_raw

# --------------------------------------------------------------------------
# Report types
# --------------------------------------------------------------------------


class ParseReport(Record, metaclass=slotted):
    # Findings coded P-*, located by slash path with 1-based sibling
    # indexes, or "" for the whole file.
    issues: tuple = ()
    outcome: m.Article | None = None

    @property
    def ok(self) -> bool:
        return self.outcome is not None

    def errors(self) -> tuple:
        return tuple(i for i in self.issues if i.severity == "error")

    def warnings(self) -> tuple:
        return tuple(i for i in self.issues if i.severity == "warning")


# --------------------------------------------------------------------------
# Node kinds
# --------------------------------------------------------------------------

# Mentions are text plus one optional attribute:
# class -> (TEI element, TEI attribute, model field).
_MENTIONS = {
    m.PersonMention: ("persName", "key", "key"),
    m.OrgMention: ("orgName", "key", "key"),
    m.PlaceMention: ("placeName", "key", "key"),
    m.TermMention: ("term", "type", "kind"),
}
_MENTION_CLASSES = {name: cls for cls, (name, _, _) in _MENTIONS.items()}


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_INLINE_BLOCKISH = {"p", "div", "list", "table", "figure", "cit", "formula"}
_LISTBIBL_NAMES = frozenset({"listBibl", "listBib"})


_XML_ID = "{%s}id" % XML_NS


def _text_content(node) -> str:
    return "".join(node.itertext())


def _parts(node, names) -> dict | None:
    """``{name: child}`` of ``node``'s children when each has a name in ``names``,
    none repeats and no text stands beside them, else None: keep ``node`` verbatim."""
    parts: dict = {}
    for child in node:
        if child.tag not in names or child.tag in parts:
            return None
        parts[child.tag] = child
    return None if has_text(node) else parts


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
        self.issues: list[Finding] = []
        self.entries: list = []  # of the back's reference lists, merged
        self.lists = 0  # back reference lists read

    # -- issue helpers ----------------------------------------------------

    def warn(self, code: str, node, message: str) -> None:
        self.issues.append(Finding(code, "warning", self.doc.source_path(node), message))

    def error(self, code: str, node, message: str) -> None:
        self.issues.append(Finding(code, "error", self.doc.source_path(node), message))

    def unknown(self, node, context: str) -> None:
        self.warn("P-unknown-element", node, f"unknown element '{node.tag}' in {context} dropped")

    def children(self, node, context: str, once=(), many=()):
        """Yield ``(name, child)`` for each child of ``node`` the model reads:
        a name in ``many`` every time, one in ``once`` the first time only,
        a later one reported as extra; any other child is reported unknown."""
        seen = set()
        for child in node:
            name = child.tag
            if name in many:
                yield name, child
            elif name not in once:
                self.unknown(child, context)
            elif name in seen:
                self.warn("P-extra-element", child,
                          f"additional {context} {name} dropped; first kept")
            else:
                seen.add(name)
                yield name, child

    # -- generic helpers --------------------------------------------------

    def text(self, node) -> str:
        return " ".join("".join(node.itertext()).split())

    def date_from(self, node, context: str) -> m.CalendarDate | None:
        value = node.get("when") or _text_content(node).strip()
        if not value:
            self.warn("P-no-date", node, f"{context} date has no usable value; dropped")
            return None
        try:
            return m.CalendarDate.parse(value)
        except ValueError:
            self.warn("P-bad-date", node, f"unparseable {context} date {value!r}; dropped")
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
            return mention(self.text(node), node.get(_MENTIONS[mention][1]) or None)
        if name == "abbr":
            return m.AbbrMention(self.text(node), None)
        # a choice of anything but one abbr and at most one expan is verbatim
        parts = _parts(node, ("abbr", "expan")) if name == "choice" else None
        if parts and "abbr" in parts:
            expan = self.text(parts["expan"]) if "expan" in parts else None
            return m.AbbrMention(self.text(parts["abbr"]), expan)
        return m.OpaqueInline(self.doc.slice(node))

    # -- running text blocks ----------------------------------------------

    def block(self, node):
        """Map one non-div element inside a division to a Block."""
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
            return m.TableBlock(self.doc.slice(node), caption)
        if name == "formula":
            return m.FormulaBlock(self.doc.slice(node), node.get("notation"))
        if name == "list":
            if all(c.tag == "item" for c in node):
                return m.ListBlock(tuple(self.rich(item) for item in node))
            return m.OpaqueBlock(self.doc.slice(node))
        if name == "quote":
            blockish = any(c.tag in _INLINE_BLOCKISH for c in node)
            if not blockish:
                return m.QuoteBlock(self.rich(node))
        return m.OpaqueBlock(self.doc.slice(node))

    def cit(self, node):
        parts = _parts(node, ("quote", "biblStruct", "ref", "note"))
        if parts is None or parts.keys() >= {"biblStruct", "ref"}:
            return m.OpaqueBlock(self.doc.slice(node))
        source = parts["ref"].get("target", "") if "ref" in parts else None
        if "biblStruct" in parts:
            source = self.biblstruct(parts["biblStruct"])
        quote, note = [self.rich(parts[n]) if n in parts else () for n in ("quote", "note")]
        return m.CitBlock(quote, source, note)

    def figure(self, node):
        parts = _parts(node, ("head", "graphic", "table"))
        if parts is None or parts.keys() >= {"graphic", "table"}:
            return m.OpaqueBlock(self.doc.slice(node))
        caption = self.rich(parts["head"]) if "head" in parts else ()
        if "table" in parts:
            # Table wrapped in a figure: keep the whole region verbatim but
            # surface the caption so downstream consumers can use it.
            return m.TableBlock(self.doc.slice(node), caption)
        url = parts["graphic"].get("url", "") if "graphic" in parts else None
        return m.FigureBlock(url, caption)

    def division(self, node, back: bool = False) -> m.Division | None:
        """One div. In back matter its reference lists, and those of its
        divs, are read by ``listbibl``; a shell, a div left empty that held
        one, is dropped by returning None."""
        kind = node.get("type") or "section"
        head: tuple = ()
        blocks: list = []
        children: list = []
        lists = self.lists
        for child in _mixed(node):
            if isinstance(child, str):
                if child.strip():
                    self.warn("P-stray-text-in-div", node,
                              "stray text inside div wrapped as paragraph")
                    blocks.append(m.Paragraph((m.TextRun(child),)))
                continue
            name = child.tag
            if back and name in _LISTBIBL_NAMES:
                self.listbibl(child)
            elif name == "head" and not head:  # an empty head does not count
                head = self.rich(child)
            elif name == "div":
                sub = self.division(child, back)
                if sub is not None:
                    children.append(sub)
            else:
                blocks.append(self.block(child))
        if self.lists > lists and not (head or blocks or children):
            return None
        return m.Division(kind, head, tuple(blocks), tuple(children))

    def division_sequence(self, node, context: str) -> tuple:
        """Children of front/body/back: divs, with stray blocks wrapped."""
        back = context == "back"
        out: list = []
        for child in _mixed(node):
            if isinstance(child, str):
                if child.strip():
                    self.warn("P-stray-text", node, f"stray text in {context} wrapped in div")
                    out.append(
                        m.Division(blocks=(m.Paragraph((m.TextRun(child),)),))
                    )
                continue
            name = child.tag
            if back and name in _LISTBIBL_NAMES:
                self.listbibl(child)
            elif name == "div":
                division = self.division(child, back)
                if division is not None:
                    out.append(division)
            else:
                self.warn("P-wrapped", child, f"element '{child.tag}' in {context} wrapped in div")
                out.append(self.wrapped(child))
        return tuple(out)

    def wrapped(self, node) -> m.Division:
        """A div for an element found where only divs belong, read as its
        canonical serialization re-reads: a div as itself, a head as the
        head of an empty div, anything else as the div's one block."""
        if node.tag == "div":
            return self.division(node)
        if node.tag == "head":
            return m.Division(head=self.rich(node))
        return m.Division(blocks=(self.block(node),))

    # -- bibliographic records --------------------------------------------

    def biblstruct(self, node) -> m.BiblStruct:
        analytic = None
        monogr = m.Monogr()
        identifiers: list = []
        for name, child in self.children(node, "biblStruct", ("analytic", "monogr"), ("idno",)):
            if name == "analytic":
                analytic = self.analytic(child)
            elif name == "monogr":
                monogr = self.monogr(child, identifiers)
            else:
                identifiers.append(m.Identifier(child.get("type", ""), self.text(child)))
        doc_type = node.get("type") or _infer_doc_type(analytic, monogr)
        return m.BiblStruct(
            doc_type=m.DocumentType(doc_type),
            analytic=analytic,
            monogr=monogr,
            identifiers=tuple(identifiers),
            xml_id=node.get(_XML_ID) or None,
        )

    def analytic(self, node) -> m.Analytic:
        titles: list = []
        authors: list = []
        for name, child in self.children(node, "analytic", many=("title", "author")):
            if name == "title":
                titles.append(self.title(child, "a"))
            else:
                authors.append(self.author(child))
        return m.Analytic(tuple(titles), tuple(authors))

    def monogr(self, node, identifiers: list) -> m.Monogr:
        titles: list = []
        authors: list = []
        issn = None
        imprint = m.Imprint()
        # editors are container-level contributors
        many = ("title", "author", "editor", "idno")
        for name, child in self.children(node, "monogr", ("imprint",), many):
            if name == "title":
                titles.append(self.title(child, "m"))
            elif name == "idno":
                kind = child.get("type", "")
                if kind.casefold() == "issn" and issn is None:
                    issn = self.text(child) or None
                else:
                    identifiers.append(m.Identifier(kind, self.text(child)))
            elif name == "imprint":
                imprint = self.imprint(child)
            else:
                authors.append(self.author(child))
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
        once = ("publisher", "pubPlace", "date")
        for name, child in self.children(node, "imprint", once, ("biblScope",)):
            if name == "publisher":
                publisher = self.text(child) or None
            elif name == "pubPlace":
                pub_place = self.text(child) or None
            elif name == "date":
                attr_role = child.get("type")
                if attr_role is None and child.get("typ") is not None:
                    attr_role = child.get("typ")
                    self.warn("P-typ-attr", child, "attribute 'typ' on date read as 'type'")
                if attr_role:
                    role = attr_role.lower()
                date = self.date_from(child, "imprint")
            else:
                kind = child.get("type") or child.get("unit", "")
                scopes.append(m.Scope(kind, self.text(child)))
        if date is None:
            role = "published"  # a role without a date cannot be carried
        return m.Imprint(publisher, pub_place, date, role, tuple(scopes))

    def author(self, node) -> m.Author:
        surname = ""
        forenames: list = []
        identifiers: list = []
        affiliation = None
        email = None
        named = False  # one persName, or an orgName standing in for it
        once = ("persName", "affiliation", "email", "orgName")
        for name, child in self.children(node, "author", once, ("idno",)):
            if named and name in ("persName", "orgName"):
                self.warn("P-extra-element", child, f"additional author {name} dropped; first kept")
            elif name == "persName":
                named = True
                parts: dict = {"surname": [], "forename": []}
                for part, sub in self.children(child, "persName", many=("surname", "forename")):
                    parts[part].append(self.text(sub))
                surname = " ".join(filter(None, parts["surname"]))
                forenames = list(filter(None, parts["forename"]))
            elif name == "idno":
                identifiers.append(m.Identifier(child.get("type", ""), self.text(child)))
            elif name == "affiliation":
                affiliation = self.affiliation(child)
            elif name == "email":
                email = self.text(child) or None
            else:
                named = True
                surname = self.text(child)
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
        for name, child in self.children(node, "affiliation", ("address",), ("orgName",)):
            if name == "orgName":
                org_units.append(m.OrgUnit(child.get("type", ""), self.text(child)))
            else:
                address = self.address(child)
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
                settlement = text or None
            elif name == "postCode" and post_code is None:
                post_code = text or None
            elif name == "country" and country is None:
                country = text or None
            elif name == "addrLine":
                lines.append(m.AddressLine(text, child.get("type") or None))
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
        once = ("titleStmt", "publicationStmt", "sourceDesc")
        for name, child in self.children(node, "fileDesc", once):
            if name == "titleStmt":
                for _, title in self.children(child, "titleStmt", ("title",)):
                    main_title = self.rich(title)
            elif name == "publicationStmt":
                availability, publication_date, authority = self.publication_stmt(child)
            else:
                for _, struct in self.children(child, "sourceDesc", ("biblStruct",)):
                    source = self.biblstruct(struct)
        return m.FileDesc(
            main_title, availability, publication_date, authority, source
        )

    def publication_stmt(self, node):
        availability: tuple = ()
        date = None
        authority = None
        once = ("availability", "date", "authority")
        for name, child in self.children(node, "publicationStmt", once):
            if name == "availability" and child.find("p") is None:  # bare text, or none
                availability = self.rich(child) if has_text(child) else ()
            elif name == "availability":
                if has_text(child):
                    self.warn("P-stray-text", child,
                              "stray text beside availability paragraphs dropped")
                paras = self.children(child, "availability", many=("p",))
                availability = self.rich(next(paras)[1])
                for _, extra in paras:
                    self.warn("P-extra-availability", extra,
                              "additional availability paragraph dropped")
            elif name == "date":
                date = self.date_from(child, "publication")
            else:
                authority = self.text(child) or None
        return availability, date, authority

    def profile_desc(self, node) -> m.ProfileDesc:
        keywords: list = []
        languages: list = []
        for name, child in self.children(node, "profileDesc", many=("langUsage", "textClass")):
            if name == "langUsage":
                for _, lang in self.children(child, "langUsage", many=("language",)):
                    ident = lang.get("ident", "").strip()
                    if ident:
                        languages.append(ident)
            else:
                for _, kw in self.children(child, "textClass", many=("keywords",)):
                    self.keywords(kw, keywords)
        return m.ProfileDesc(tuple(keywords), tuple(languages))

    def keywords(self, node, out: list) -> None:
        scheme = node.get("scheme") or None

        def add(term) -> None:
            term_text = self.text(term)
            if term_text:
                out.append(m.Keyword(term_text, scheme))

        for name, child in self.children(node, "keywords", many=("term", "list")):
            if name == "term":
                add(child)
                continue
            # a list head such as "Keywords" is presentation, not content
            for kind, item in self.children(child, "list", many=("item", "head")):
                if kind == "head":
                    continue
                if item.find("term") is None:  # the item is the term
                    add(item)
                    continue
                if has_text(item):
                    self.warn("P-stray-text", item, "stray text beside a term in item dropped")
                for _, term in self.children(item, "item", many=("term",)):
                    add(term)

    def revision_desc(self, node) -> m.RevisionDesc:
        changes: list = []
        for _, child in self.children(node, "revisionDesc", many=("change",)):
            when_value = child.get("when", "")
            try:
                when = m.CalendarDate.parse(when_value)
            except ValueError:
                self.warn("P-bad-change-date", child,
                          f"change with unparseable date {when_value!r} dropped")
                continue
            description = self.text(child)
            kind = child.get("type") or _leading_word(description)
            changes.append(m.Change(when, kind, description))
        return m.RevisionDesc(tuple(changes))

    # -- text division ------------------------------------------------------

    def back_matter(self, node) -> m.BackMatter:
        """Back content: divisions plus the merged reference list."""
        divisions = self.division_sequence(node, "back")
        return m.BackMatter(divisions, m.ListBibl(tuple(self.entries)) if self.lists else None)

    def listbibl(self, node) -> None:
        """Merge one reference list, directly in back or in a div of it,
        into the first.  A list inside a block stays in that block."""
        if node.tag == "listBib":
            self.warn("P-listBib", node, "element 'listBib' read as 'listBibl'")
        self.lists += 1
        if self.lists > 1:
            self.warn("P-listBibl-merged", node, "additional listBibl merged into the first")
        for _, entry in self.children(node, "listBibl", many=("biblStruct",)):
            self.entries.append(self.biblstruct(entry))


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
        return ParseReport(issues=(Finding("P-refused", "error", "", str(exc)),))

    builder = _Builder(doc)
    root = doc.root
    if root.tag != "TEI" or doc.root_ns != TEI_NS:
        builder.error("P-not-tei", root,
                      f"document element must be TEI in namespace {TEI_NS}, got '{root.tag}'")
        return ParseReport(issues=tuple(builder.issues))

    header_node = root.find("teiHeader")
    text_node = root.find("text")
    if header_node is None:
        builder.error("P-no-header", root, "missing teiHeader")
    if text_node is None:
        builder.error("P-no-text", root, "missing text")
    if header_node is None or text_node is None:
        return ParseReport(issues=tuple(builder.issues))

    # text directly in TEI or in text belongs to no model node
    for node in (root, text_node):
        if has_text(node):
            builder.warn("P-stray-text", node, f"stray text in {node.tag} dropped")
    for child in root:
        if child is not header_node and child is not text_node:
            builder.unknown(child, "TEI")

    file_desc = m.FileDesc()
    profile_desc = m.ProfileDesc()
    revision_desc = m.RevisionDesc()
    once = ("fileDesc", "profileDesc", "revisionDesc")
    for name, child in builder.children(header_node, "teiHeader", once):
        if name == "fileDesc":
            file_desc = builder.file_desc(child)
        elif name == "profileDesc":
            profile_desc = builder.profile_desc(child)
        else:
            revision_desc = builder.revision_desc(child)

    # The first front, body and back are read; a repeat is a stray, kept
    # verbatim in body.
    front = body = back = None
    strays: list = []
    for child in text_node:
        name = child.tag
        if name == "front" and front is None:
            front = builder.division_sequence(child, "front")
        elif name == "body" and body is None:
            body = builder.division_sequence(child, "body")
        elif name == "back" and back is None:
            back = builder.back_matter(child)
        else:
            builder.warn("P-wrapped-into-body", child,
                         f"element '{child.tag}' in text wrapped into body")
            strays.append(builder.wrapped(child))
    body = (body or ()) + tuple(strays)

    header = m.Header(file_desc, profile_desc, revision_desc)
    article = m.Article(
        id=m.derive_article_id(file_desc.source, source_name),
        header=header,
        front=front or (),
        body=body,
        back=back or m.BackMatter(),
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


# Carriage returns must leave as character references or the parser would
# normalize them away and break the round-trip fixpoint.
_esc = escaper(("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ("\r", "&#13;"))
# Ditto for tabs and newlines in attribute values, which attribute-value
# normalization would otherwise turn into spaces.
_esc_attr = escaper(("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ("\r", "&#13;"),
                    ('"', "&quot;"), ("\t", "&#9;"), ("\n", "&#10;"))


def _tag(name: str, attrs: dict, close: bool = False) -> str:
    if not attrs:
        return f"<{name}/>" if close else f"<{name}>"
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


#: Inline class -> ``(name, attrs, content)`` of the node's canonical TEI
#: element, for every inline node but a text run or opaque markup.
#: ``content`` is escaped markup, an :class:`~teijournal.model.Emph`'s inline
#: tuple, or ``None`` for a self-closed element.
_INLINE_ELEMENT = {
    m.Emph: lambda node: ("hi", {"rend": node.rend or None}, node.content),
    m.BiblRef: lambda node: ("ref", {"target": node.target, "type": "bibr"},
                             _esc(node.text) or None),
    m.Link: lambda node: (
        ("ref", {"target": node.target}, _esc(node.text)) if node.text else
        ("ptr", {"target": node.target}, None)),
    **{
        cls: lambda node, name=name, attr=attr, field=field: (
            name, {attr: getattr(node, field) or None}, _esc(node.text))
        for cls, (name, attr, field) in _MENTIONS.items()
    },
    m.AbbrMention: lambda node: (
        ("abbr", {}, _esc(node.abbr)) if node.expansion is None else
        ("choice", {}, f"<abbr>{_esc(node.abbr)}</abbr><expan>{_esc(node.expansion)}</expan>")),
}


def _inline_markup(content: tuple) -> str:
    parts: list[str] = []
    for node in content:
        if isinstance(node, m.TextRun):
            parts.append(_esc(node.text))
        elif isinstance(node, m.OpaqueInline):
            parts.append(node.markup)
        else:
            name, attrs, inner = _INLINE_ELEMENT[type(node)](node)
            if isinstance(inner, tuple):
                inner = _inline_markup(inner)
            if inner is None:
                parts.append(_tag(name, attrs, close=True))
            else:
                parts.append(_tag(name, attrs) + inner + f"</{name}>")
    return "".join(parts)


class _Writer:
    """Writes the canonical serialization, one line per element.

    The ``_write_*`` functions are the only description of the canonical
    tree; they make the same calls on a :class:`_PathWriter` to list the
    model's paths.  ``node=`` names the addressable model node an element
    holds, which only the path writer reads.  The inline elements of rich
    text are described once, by ``_INLINE_ELEMENT``.  An element with no
    content is written self-closed; ``close`` decides it.
    """

    def __init__(self) -> None:
        self.lines: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
        # (name, index of the start-tag line) of each open element
        self.open_tags: list = []
        self.indent = ""

    def line(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def leaf(self, name: str, attrs: dict, content: str | tuple = "", node=None) -> None:
        # A str is text, a tuple rich text; empty markup is left to close.
        markup = _inline_markup(content) if isinstance(content, tuple) else _esc(content)
        if markup:
            self.line(_tag(name, attrs) + markup + f"</{name}>")
        else:
            self.open(name, attrs)
            self.close()

    def term_item(self, term: str, node) -> None:
        # One line, so the term is not indented inside its item.
        self.line("<item><term>" + _esc(term) + "</term></item>")

    def verbatim(self, markup: str, node, caption: tuple = ()) -> None:
        self.line(markup)  # a table's caption is inside its markup

    def open(self, name: str, attrs: dict | None = None, node=None) -> None:
        self.open_tags.append((name, len(self.lines)))
        self.line(_tag(name, attrs or {}))
        self.indent += "  "

    def close(self) -> None:
        # The one empty-element rule: no line after the start tag self-closes it.
        self.indent = self.indent[:-2]
        name, start = self.open_tags.pop()
        if start == len(self.lines) - 1:
            self.lines[start] = self.lines[start][:-1] + "/>"
        else:
            self.line(f"</{name}>")


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

    def leaf(self, name: str, attrs: dict, content: str | tuple = "", node=None) -> None:
        path = self._path(name, node)
        if isinstance(content, tuple):
            _walk_rich(self.out, content, path, {})

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
        if isinstance(node, m.OpaqueInline):
            name = opaque_root_name(node.markup)
        else:
            name = _INLINE_ELEMENT[type(node)](node)[0]
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
    w.open("fileDesc", node=fd)
    if fd.main_title:
        w.open("titleStmt")
        w.leaf("title", {"level": "a", "type": "main"}, fd.main_title)
        w.close()
    if has_pub:
        w.open("publicationStmt")
        if fd.availability:
            w.open("availability")
            w.leaf("p", {}, fd.availability)
            w.close()
        if fd.publication_date:
            w.leaf("date", {"when": fd.publication_date.iso()})
        if fd.authority:
            w.leaf("authority", {}, fd.authority)
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
            w.leaf("language", {"ident": ident})
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
        w.leaf("change", attrs, change.description, node=change)
    w.close()


def _write_text(w, article: m.Article) -> None:
    w.open("text")
    if article.front:
        w.open("front")
        for division in article.front:
            _write_division(w, division)
        w.close()
    w.open("body")
    for division in article.body:
        _write_division(w, division)
    w.close()
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
    w.open("div", {"type": division.kind}, node=division)
    if division.head:
        w.leaf("head", {}, division.head)
    for block in division.blocks:
        _WRITE_BLOCK[type(block)](w, block)
    for child in division.children:
        _write_division(w, child)
    w.close()


def _write_cit(w, block: m.CitBlock) -> None:
    w.open("cit", node=block)
    w.leaf("quote", {}, block.quote)
    if isinstance(block.source, m.BiblStruct):
        _write_biblstruct(w, block.source)
    elif isinstance(block.source, str):
        w.leaf("ref", {"target": block.source, "type": "bibr"})
    if block.qualifiers:
        w.leaf("note", {}, block.qualifiers)
    w.close()


def _write_figure(w, block: m.FigureBlock) -> None:
    w.open("figure", node=block)
    if block.caption:
        w.leaf("head", {}, block.caption)
    if block.graphic_url is not None:
        w.leaf("graphic", {"url": block.graphic_url})
    w.close()


def _write_list(w, block: m.ListBlock) -> None:
    w.open("list", node=block)
    for item in block.items:
        w.leaf("item", {}, item)
    w.close()


#: Block class -> the writer calls of the block's canonical element.
_WRITE_BLOCK = {
    m.Paragraph: lambda w, block: w.leaf("p", {}, block.content, node=block),
    m.CitBlock: _write_cit,
    m.FigureBlock: _write_figure,
    m.TableBlock: lambda w, block: w.verbatim(block.markup, block, block.caption),
    m.FormulaBlock: lambda w, block: w.verbatim(block.markup, block),
    m.ListBlock: _write_list,
    m.QuoteBlock: lambda w, block: w.leaf("quote", {}, block.content, node=block),
    m.OpaqueBlock: lambda w, block: w.verbatim(block.markup, block),
}


def _write_listbibl(w, listbibl: m.ListBibl) -> None:
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
        w.leaf("idno", {"type": ident.kind}, ident.value)
    w.close()


def _write_title(w, title: m.Title) -> None:
    attrs = {"level": title.level, "type": title.type}
    w.leaf("title", attrs, title.text, node=title)


def _write_monogr(w, monogr: m.Monogr) -> None:
    imprint = monogr.imprint
    has_imprint = imprint.publisher or imprint.pub_place or imprint.date or imprint.scopes
    w.open("monogr")
    for author in monogr.authors:
        _write_author(w, author)
    for title in monogr.titles:
        _write_title(w, title)
    if monogr.issn:
        w.leaf("idno", {"type": "ISSN"}, monogr.issn)
    if has_imprint:
        w.open("imprint")
        if imprint.publisher:
            w.leaf("publisher", {}, imprint.publisher)
        if imprint.pub_place:
            w.leaf("pubPlace", {}, imprint.pub_place)
        if imprint.date:
            attrs = {"when": imprint.date.iso()}
            if imprint.date_role != "published":
                attrs["type"] = imprint.date_role
            w.leaf("date", attrs)
        for scope in imprint.scopes:
            w.leaf("biblScope", {"type": scope.kind}, scope.value, node=scope)
        w.close()
    w.close()


def _write_author(w, author: m.Author) -> None:
    has_name = author.surname or author.forenames
    w.open("author", {"type": "corresp"} if author.corresponding else {}, node=author)
    for ident in author.identifiers:
        w.leaf("idno", {"type": ident.kind}, ident.value)
    if has_name:
        w.open("persName")
        for forename in author.forenames:
            w.leaf("forename", {}, forename)
        if author.surname:
            w.leaf("surname", {}, author.surname)
        w.close()
    if author.affiliation is not None:
        _write_affiliation(w, author.affiliation)
    if author.email:
        w.leaf("email", {}, author.email)
    w.close()


def _write_affiliation(w, aff: m.Affiliation) -> None:
    w.open("affiliation", node=aff)
    for unit in aff.org_units:
        w.leaf("orgName", {"type": unit.kind}, unit.name, node=unit)
    if aff.address is not None:
        address = aff.address
        w.open("address")
        if address.settlement:
            w.leaf("settlement", {}, address.settlement)
        if address.post_code:
            w.leaf("postCode", {}, address.post_code)
        if address.country:
            w.leaf("country", {}, address.country)
        for line in address.lines:
            attrs = {"type": line.kind} if line.kind else {}
            w.leaf("addrLine", attrs, line.text)
        w.close()
    w.close()
