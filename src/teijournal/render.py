"""Citation-style rendering: bibliography entries, XHTML, and plain text.

A style is a small declarative table (:class:`StyleGuide`) loaded from JSON.
It fixes four things: how in-text markers look (numeric brackets vs
author-date), how the reference list is ordered, how personal names are
written, and — per record type — the ordered field segments that make up a
formatted entry.  Three styles ship with the package (``apa``, ``chicago``,
``mla``); callers may load their own from a file with the same shape.

Entry formatting is pure: the same article and style always produce the same
bytes, and rendering with one style leaves the article available, unchanged,
for the next.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from .base import BUILTIN_STYLES, Record, factory
from .model import (
    AbbrMention,
    Article,
    Author,
    BiblRef,
    BiblStruct,
    CitBlock,
    Division,
    Emph,
    FigureBlock,
    FormulaBlock,
    Link,
    ListBlock,
    OpaqueBlock,
    OpaqueInline,
    OrgMention,
    Paragraph,
    PersonMention,
    PlaceMention,
    QuoteBlock,
    RichText,
    TableBlock,
    TermMention,
    TextRun,
    Title,
    normalize_title,
    plain_text,
)

XHTML_NS = "http://www.w3.org/1999/xhtml"

MARKER_SCHEMES = ("numeric-bracket", "author-date")
LIST_ORDERS = ("alphabetical", "citation-order")
NAME_FORMATS = ("surname-first-initials", "surname-first-full", "as-encoded")
TYPOGRAPHY = ("plain", "italic", "quoted")

#: Field paths a layout segment may address.  ``identifiers.<kind>`` is open
#: (the kind is matched case-insensitively against the record's identifiers).
SEGMENT_PATHS = frozenset(
    {
        "authors",
        "monogr.authors",
        "title",
        "analytic.title",
        "monogr.title",
        "imprint.publisher",
        "imprint.pub_place",
        "year",
        "pages",
        "issn",
    }
    | {f"scopes.{kind}" for kind in ("vol", "issue", "fpage", "lpage", "pp")}
)


class StyleError(ValueError):
    """A style table is malformed or references unknown fields."""


class Segment(Record):
    """One field of an entry layout: where the value comes from and how it
    is dressed.  ``prefix`` and ``suffix`` are emitted as plain text around
    the (possibly italicised or quoted) value."""

    path: str
    typography: str = "plain"
    prefix: str = ""
    suffix: str = ""
    omit_if_absent: bool = True


class StyleGuide(Record):
    id: str
    marker_scheme: str
    list_order: str
    author_name_format: str
    layouts: dict = factory(dict)  # doc type -> tuple[Segment, ...]

    def layout_for(self, doc_type: str) -> tuple:
        """The segment list for a record type, falling back to ``unknown``."""
        return self.layouts.get(doc_type, self.layouts["unknown"])


class Span(Record):
    """A run of entry text with one typography applied."""

    text: str
    typography: str = "plain"


class RenderedEntry(Record):
    """A formatted bibliography entry.

    ``spans`` carry the typography; :meth:`plain` flattens them and
    :meth:`marked` writes italics as ``*...*`` and quoted runs with double
    quotes.  ``sort_key`` orders entries alphabetically; ``cite_text`` is the
    author-date in-text form without its parentheses (e.g. ``Dean 2009``).
    """

    ref_id: str | None
    spans: tuple  # tuple[Span, ...]
    sort_key: tuple
    cite_text: str

    def plain(self) -> str:
        return "".join(s.text for s in self.spans)

    def marked(self) -> str:
        parts = []
        for s in self.spans:
            if s.typography == "italic":
                parts.append(f"*{s.text}*")
            elif s.typography == "quoted":
                parts.append(f'"{s.text}"')
            else:
                parts.append(s.text)
        return "".join(parts)


# --------------------------------------------------------------------------
# Style loading
# --------------------------------------------------------------------------


def style_from_dict(raw: dict) -> StyleGuide:
    """Build and validate a :class:`StyleGuide` from parsed JSON."""
    if not isinstance(raw, dict):
        raise StyleError("style table must be a JSON object")
    try:
        style_id = raw["id"]
        scheme = raw["marker_scheme"]
        order = raw["list_order"]
        name_format = raw["author_name_format"]
        layouts_raw = raw["layouts"]
    except KeyError as exc:
        raise StyleError(f"style table is missing key {exc.args[0]!r}") from None
    if scheme not in MARKER_SCHEMES:
        raise StyleError(f"unknown marker scheme {scheme!r}")
    if order not in LIST_ORDERS:
        raise StyleError(f"unknown list order {order!r}")
    if name_format not in NAME_FORMATS:
        raise StyleError(f"unknown author name format {name_format!r}")
    if not isinstance(layouts_raw, dict):
        raise StyleError("style table's layouts must be a JSON object")
    if "unknown" not in layouts_raw:
        raise StyleError("style table must provide an 'unknown' layout")
    layouts = {}
    for doc_type, segments_raw in layouts_raw.items():
        if not isinstance(segments_raw, list):
            raise StyleError(f"layout {doc_type!r} must be a list of segments")
        segments = []
        for seg in segments_raw:
            if not isinstance(seg, dict):
                raise StyleError(f"layout {doc_type!r} has a segment that is not an object")
            for key in ("path", "typography", "prefix", "suffix"):
                if not isinstance(seg.get(key, ""), str):
                    raise StyleError(f"layout {doc_type!r} has a non-string {key}")
            path = seg.get("path", "")
            if path not in SEGMENT_PATHS and not path.startswith("identifiers."):
                raise StyleError(f"layout {doc_type!r} addresses unknown field {path!r}")
            typography = seg.get("typography", "plain")
            if typography not in TYPOGRAPHY:
                raise StyleError(f"unknown typography {typography!r}")
            segments.append(
                Segment(
                    path=path,
                    typography=typography,
                    prefix=seg.get("prefix", ""),
                    suffix=seg.get("suffix", ""),
                    omit_if_absent=bool(seg.get("omit_if_absent", True)),
                )
            )
        layouts[doc_type] = tuple(segments)
    return StyleGuide(
        id=style_id,
        marker_scheme=scheme,
        list_order=order,
        author_name_format=name_format,
        layouts=layouts,
    )


def builtin_style(style_id: str) -> StyleGuide:
    """One of the shipped styles: ``apa``, ``chicago``, or ``mla``."""
    if style_id not in BUILTIN_STYLES:
        raise StyleError(f"no built-in style {style_id!r} (have {', '.join(BUILTIN_STYLES)})")
    # A path beside the module, not importlib.resources: on Python 3.12+
    # that imports inspect, which no command should load.
    data = (Path(__file__).parent / "styles" / f"{style_id}.json").read_text("utf-8")
    return style_from_dict(json.loads(data))


def load_style(path: str) -> StyleGuide:
    """Read a style table from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return style_from_dict(json.load(handle))


def get_style(name: str) -> StyleGuide:
    """Resolve a built-in style id, or treat ``name`` as a file path."""
    if name in BUILTIN_STYLES:
        return builtin_style(name)
    return load_style(name)


# --------------------------------------------------------------------------
# Names and field values
# --------------------------------------------------------------------------


def _one_name(author: Author, name_format: str, first: bool) -> str:
    forenames = [f for f in author.forenames if f]
    surname = author.surname
    if not forenames:
        # Organisations and mononyms are written as encoded in every format.
        return surname
    if name_format == "surname-first-initials":
        initials = " ".join(f"{part[0]}." for f in forenames for part in f.split() if part)
        return f"{surname}, {initials}" if initials else surname
    if name_format == "surname-first-full":
        if first:
            return f"{surname}, {' '.join(forenames)}"
        return f"{' '.join(forenames)} {surname}"
    return f"{' '.join(forenames)} {surname}"


def format_authors(authors: tuple, name_format: str) -> str:
    """Join a tuple of authors in the style's name format.

    Initial-style lists use the serial ampersand (``, & `` before the last
    name); full-name lists use ``and``.
    """
    names = [_one_name(a, name_format, i == 0) for i, a in enumerate(authors)]
    names = [n for n in names if n]
    if not names:
        return ""
    if len(names) == 1:
        return names[0]
    if name_format == "surname-first-initials":
        return ", ".join(names[:-1]) + ", & " + names[-1]
    if name_format == "surname-first-full":
        if len(names) == 2:
            return f"{names[0]} and {names[1]}"
        return ", ".join(names[:-1]) + ", and " + names[-1]
    return ", ".join(names)


def _forward_names(authors: tuple) -> str:
    """Container authors (editors) written in forward order."""
    names = []
    for a in authors:
        forenames = " ".join(f for f in a.forenames if f)
        names.append(f"{forenames} {a.surname}".strip())
    names = [n for n in names if n]
    if not names:
        return ""
    if len(names) == 1:
        return names[0]
    if len(names) == 2:
        return f"{names[0]} and {names[1]}"
    return ", ".join(names[:-1]) + ", and " + names[-1]


def _level_title(titles: tuple) -> str | None:
    for title in titles:
        if title.type == "main":
            text = normalize_title(title.text)
            if text:
                return text
    return None


def _segment_value(record: BiblStruct, path: str, name_format: str) -> str | None:
    """The text for one layout segment, or ``None`` when the record lacks it."""
    if path == "authors":
        return format_authors(record.authors(), name_format) or None
    if path == "monogr.authors":
        return _forward_names(record.monogr.authors) or None
    if path == "title":
        title = record.main_title()
        return normalize_title(title.text) or None if title else None
    if path == "analytic.title":
        return _level_title(record.analytic.titles) if record.analytic else None
    if path == "monogr.title":
        return _level_title(record.monogr.titles)
    if path == "imprint.publisher":
        return record.monogr.imprint.publisher
    if path == "imprint.pub_place":
        return record.monogr.imprint.pub_place
    if path == "year":
        date = record.monogr.imprint.date
        return str(date.year) if date else None
    if path == "pages":
        fpage = record.scope("fpage")
        lpage = record.scope("lpage")
        if fpage and lpage:
            return f"{fpage}–{lpage}"
        if fpage:
            return fpage
        return record.scope("pp")
    if path == "issn":
        return record.monogr.issn
    if path.startswith("scopes."):
        return record.scope(path.split(".", 1)[1])
    if path.startswith("identifiers."):
        return record.identifier(path.split(".", 1)[1])
    raise StyleError(f"unknown segment path {path!r}")


def entry_sort_key(record: BiblStruct) -> tuple:
    """(lead surname, year, title) — the alphabetical ordering key.

    Style-independent, so reference numbering does not shift when the
    rendering style changes.
    """
    authors = record.authors()
    surname = authors[0].surname.casefold() if authors else ""
    date = record.monogr.imprint.date
    year = date.year if date else 0
    title = record.main_title()
    title_text = normalize_title(title.text).casefold() if title else ""
    return (surname, year, title_text)


def _cite_text(record: BiblStruct) -> str:
    """Author-date in-text form, without parentheses."""
    surnames = [a.surname for a in record.authors() if a.surname]
    if surnames:
        if len(surnames) == 1:
            who = surnames[0]
        elif len(surnames) == 2:
            who = f"{surnames[0]} and {surnames[1]}"
        else:
            who = f"{surnames[0]} et al."
    else:
        title = record.main_title()
        words = normalize_title(title.text).split() if title else []
        who = " ".join(words[:3])
    date = record.monogr.imprint.date
    if date:
        return f"{who} {date.year}".strip()
    return who


# --------------------------------------------------------------------------
# Entry formatting
# --------------------------------------------------------------------------


def format_entry(record: BiblStruct, style: StyleGuide) -> RenderedEntry:
    """Format one record per the style's layout for its type.

    Raises :class:`StyleError` for a record with no main title at either
    level — there is nothing to cite.
    """
    title = record.main_title()
    if title is None or not normalize_title(title.text):
        raise StyleError(
            f"record {record.xml_id or '<no id>'} has no main title and cannot be formatted"
        )
    spans: list[Span] = []
    for seg in style.layout_for(record.doc_type.value):
        value = _segment_value(record, seg.path, style.author_name_format)
        if not value:
            if seg.omit_if_absent:
                continue
            value = ""
        if seg.prefix:
            spans.append(Span(seg.prefix))
        if value:
            spans.append(Span(value, seg.typography))
        if seg.suffix:
            spans.append(Span(seg.suffix))

    spans = _tidy_spans(spans)
    return RenderedEntry(
        ref_id=record.xml_id,
        spans=tuple(spans),
        sort_key=entry_sort_key(record),
        cite_text=_cite_text(record),
    )


def entry_or_fallback(record: BiblStruct, style: StyleGuide) -> RenderedEntry:
    """:func:`format_entry`, or for a record it cannot format, one plain
    span of :func:`bare_entry_text` (``(unciteable record)`` when even that
    is empty), so that no reference list or corpus page fails on it."""
    try:
        return format_entry(record, style)
    except StyleError:
        text = bare_entry_text(record) or "(unciteable record)"
        return RenderedEntry(
            record.xml_id, (Span(text),), entry_sort_key(record), _cite_text(record)
        )


def _tidy_spans(spans: list) -> list:
    """Trim outer whitespace, drop empties, merge adjacent plain runs."""
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


# --------------------------------------------------------------------------
# Reference lists and marker numbering
# --------------------------------------------------------------------------


def citation_order(article: Article) -> list:
    """xml:ids of bibliography entries in order of first citation.

    Walks the running text in document order; pointers that do not resolve
    to an entry are skipped.  The order is worked out once per article
    (kept the way :func:`xmlio.model_paths` keeps the walk); each call
    returns a new list.
    """
    memo = article.__dict__
    order = memo.get("_citation_order")
    if order is None:
        order = memo["_citation_order"] = _first_citations(article)
    return list(order)


def _first_citations(article: Article) -> tuple:
    from .xmlio import model_paths

    known = article.entries_by_id
    order: list = []
    seen: set = set()
    for _, node in model_paths(article):
        if isinstance(node, BiblRef):
            target = node.target
        elif isinstance(node, CitBlock) and isinstance(node.source, str):
            target = node.source
        else:
            continue
        if not target or not target.startswith("#"):
            continue
        ref_id = target[1:]
        if ref_id and ref_id in known and ref_id not in seen:
            seen.add(ref_id)
            order.append(ref_id)
    return tuple(order)


def format_reference_list(
    entries, style: StyleGuide, citation_order: list | tuple = ()
) -> list:
    """Format a whole reference list; the one place that orders and numbers one.

    Returns ``(label, RenderedEntry)`` pairs in display order.  Entries are
    numbered by first citation, uncited entries after the cited ones in
    alphabetical order, and a repeated id keeps its first entry.  Labels are
    ``[n]`` strings for numeric marker schemes and ``None`` for author-date
    schemes.
    """
    rendered: dict = {}
    for i, record in enumerate(entries):
        key = record.xml_id if record.xml_id else f"\x00{i}"
        if key not in rendered:
            rendered[key] = entry_or_fallback(record, style)
    alphabetical = sorted(rendered, key=lambda k: (rendered[k].sort_key, k))
    cited = [k for k in dict.fromkeys(citation_order) if k in rendered]
    cited_set = set(cited)
    numbering = cited + [k for k in alphabetical if k not in cited_set]
    display = alphabetical if style.list_order == "alphabetical" else numbering
    if style.marker_scheme != "numeric-bracket":
        return [(None, rendered[k]) for k in display]
    numbers = {k: n for n, k in enumerate(numbering, start=1)}
    return [(f"[{numbers[k]}]", rendered[k]) for k in display]


class _PageContext:
    """What one page's text and reference list share: the style, the
    reference list as :func:`format_reference_list` numbers it, and the
    in-text markers read off that list."""

    def __init__(self, article: Article, style: StyleGuide):
        self.style = style
        entries = article.reference_list.entries if article.reference_list else ()
        self.references = format_reference_list(entries, style, citation_order(article))
        self.by_id = {e.ref_id: (label, e) for label, e in self.references if e.ref_id}

    def marker(self, target: str) -> str | None:
        """``[n]`` or ``(cite_text)`` for a pointer to an entry, else ``None``."""
        found = self.by_id.get(target[1:]) if target.startswith("#") else None
        if found is None:
            return None
        label, entry = found
        return label or f"({entry.cite_text})"


# --------------------------------------------------------------------------
# XHTML
# --------------------------------------------------------------------------
#
# Pages are written as strings, byte for byte as ``xml.etree.ElementTree``
# would write the same tree: text escapes ``& < >``; attribute values also
# escape ``"`` and write CR, LF and TAB as character references, in the
# order given; an element with no content is ``<tag />``.  (``xmlio``
# writes TEI by its own rules, which the canonical fixpoint needs.)


def escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return (
        escape_text(value).replace('"', "&quot;")
        .replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#09;")
    )


def element(tag: str, content: str = "", attrs: dict | None = None) -> str:
    """One element around ``content``, markup that is already escaped."""
    start = tag
    for name, value in (attrs or {}).items():
        start += f' {name}="{_escape_attr(value)}"'
    return f"<{start}>{content}</{tag}>" if content else f"<{start} />"


def xhtml_page(title: str, body_markup: str) -> str:
    """A standalone XHTML page: XML declaration, ``head/title`` and ``body``."""
    head = element("head", element("title", escape_text(title)))
    start = f'<?xml version="1.0" encoding="UTF-8"?>\n<html xmlns="{XHTML_NS}">{head}'
    # one copy of the body, which can run to megabytes, not one per wrapper
    if not body_markup:
        return f"{start}<body /></html>\n"
    return f"{start}<body>{body_markup}</body></html>\n"


#: Mention class -> the CSS class of its ``span``.
_MENTION_CSS = {PersonMention: "tj-person", OrgMention: "tj-org",
                PlaceMention: "tj-place", TermMention: "tj-term"}


def _html_marker(ctx: _PageContext, target: str, fallback: str) -> str:
    text = ctx.marker(target)
    if text is None:
        return element("span", escape_text(fallback or target), {"class": "tj-ref"})
    return element("a", escape_text(text), {"class": "tj-ref", "href": f"#ref-{target[1:]}"})


def _rich_to_html(content: RichText, ctx: _PageContext) -> str:
    parts = []
    for node in content:
        if isinstance(node, TextRun):
            parts.append(escape_text(node.text))
        elif isinstance(node, Emph):
            tag = "b" if "bold" in node.rend else "i"
            parts.append(element(tag, _rich_to_html(node.content, ctx)))
        elif isinstance(node, BiblRef):
            parts.append(_html_marker(ctx, node.target, node.text))
        elif isinstance(node, Link):
            text = escape_text(node.text or node.target)
            parts.append(element("a", text, {"href": node.target}))
        elif type(node) in _MENTION_CSS:
            css = _MENTION_CSS[type(node)]
            parts.append(element("span", escape_text(node.text), {"class": css}))
        elif isinstance(node, AbbrMention):
            attrs = {"title": node.expansion} if node.expansion else None
            parts.append(element("abbr", escape_text(node.abbr), attrs))
        elif isinstance(node, OpaqueInline):
            parts.append(element("code", escape_text(node.markup), {"class": "tj-opaque"}))
    return "".join(parts)


def _spans_to_html(entry: RenderedEntry) -> str:
    parts = []
    for span in entry.spans:
        if span.typography == "italic":
            parts.append(element("i", escape_text(span.text)))
        elif span.typography == "quoted":
            parts.append(escape_text(f'"{span.text}"'))
        else:
            parts.append(escape_text(span.text))
    return "".join(parts)


def _block_to_html(block, ctx: _PageContext) -> str:
    if isinstance(block, Paragraph):
        return element("p", _rich_to_html(block.content, ctx))
    if isinstance(block, CitBlock):
        quote = _rich_to_html(block.quote, ctx)
        if isinstance(block.source, str):
            quote += " " + _html_marker(ctx, block.source, block.source)
        parts = [element("p", quote)]
        if isinstance(block.source, BiblStruct):
            try:
                source = _spans_to_html(format_entry(block.source, ctx.style))
            except StyleError:
                source = escape_text(bare_entry_text(block.source))
            parts.append(element("p", source, {"class": "tj-cit-source"}))
        if block.qualifiers:
            note = _rich_to_html(block.qualifiers, ctx)
            parts.append(element("p", note, {"class": "tj-cit-note"}))
        return element("blockquote", "".join(parts), {"class": "tj-cit"})
    if isinstance(block, FigureBlock):
        parts = []
        if block.graphic_url:
            parts.append(element("img", "", {"alt": "", "src": block.graphic_url}))
        if block.caption:
            parts.append(element("p", _rich_to_html(block.caption, ctx)))
        return element("div", "".join(parts), {"class": "tj-figure"})
    if isinstance(block, TableBlock):
        caption = element("p", _rich_to_html(block.caption, ctx)) if block.caption else ""
        table = caption + element("pre", escape_text(block.markup))
        return element("div", table, {"class": "tj-table"})
    if isinstance(block, FormulaBlock):
        return element("pre", escape_text(block.markup), {"class": "tj-formula"})
    if isinstance(block, ListBlock):
        items = "".join(element("li", _rich_to_html(item, ctx)) for item in block.items)
        return element("ul", items)
    if isinstance(block, QuoteBlock):
        return element("blockquote", element("p", _rich_to_html(block.content, ctx)))
    if isinstance(block, OpaqueBlock):
        return element("pre", escape_text(block.markup), {"class": "tj-opaque"})
    return ""


def _division_to_html(division: Division, depth: int, ctx) -> str:
    parts = []
    if division.head:
        parts.append(element(f"h{min(depth + 1, 6)}", _rich_to_html(division.head, ctx)))
    parts.extend(_block_to_html(block, ctx) for block in division.blocks)
    parts.extend(_division_to_html(child, depth + 1, ctx) for child in division.children)
    css = "tj-abstract" if division.kind == "abstract" else "tj-section"
    return element("section", "".join(parts), {"class": css})


def _affiliation_text(author: Author) -> str:
    if author.affiliation is None:
        return ""
    parts = [u.name for u in author.affiliation.org_units if u.name]
    address = author.affiliation.address
    if address:
        for piece in (address.settlement, address.country):
            if piece:
                parts.append(piece)
    return ", ".join(parts)


def render_xhtml(article: Article, style: StyleGuide) -> str:
    """Render the whole article as a standalone XHTML page.

    The output is well-formed XML.  Stable CSS hooks: ``tj-title``,
    ``tj-author``, ``tj-affiliation``, ``tj-keywords``, ``tj-abstract``,
    ``tj-section``, ``tj-cit``, ``tj-ref``, ``tj-biblio-entry``.
    """
    ctx = _PageContext(article, style)
    fd = article.header.file_desc
    title_text = normalize_title(fd.main_title) or article.id or "Untitled"

    if fd.main_title:
        title = _rich_to_html(fd.main_title, ctx)
    else:
        title = escape_text(title_text)
    parts = [element("h1", title, {"class": "tj-title"})]

    source = fd.source
    for author in source.authors() if source else ():
        name = " ".join([*author.forenames, author.surname]).strip() or author.surname
        parts.append(element("p", escape_text(name), {"class": "tj-author"}))
        affiliation = _affiliation_text(author)
        if affiliation:
            parts.append(element("p", escape_text(affiliation), {"class": "tj-affiliation"}))

    keywords = article.header.profile_desc.keywords
    if keywords:
        items = "".join(element("li", escape_text(kw.term)) for kw in keywords)
        parts.append(element("ul", items, {"class": "tj-keywords"}))

    for division in (*article.front, *article.body, *article.back.divisions):
        parts.append(_division_to_html(division, 1, ctx))

    if ctx.references:
        items = []
        for label, entry in ctx.references:
            attrs = {"class": "tj-biblio-entry"}
            if entry.ref_id:
                attrs["id"] = f"ref-{entry.ref_id}"
            text = f"{label} " if label else ""
            items.append(element("li", text + _spans_to_html(entry), attrs))
        references = element("h2", "References") + element("ul", "".join(items))
        parts.append(element("section", references, {"class": "tj-biblio"}))

    return xhtml_page(title_text, "".join(parts))


# --------------------------------------------------------------------------
# Plain text
# --------------------------------------------------------------------------

_WIDTH = 78


def _wrap(text: str, indent: str = "", hang: str = "") -> list:
    text = " ".join(text.split())
    if not text:
        return []
    return textwrap.wrap(
        text,
        width=_WIDTH,
        initial_indent=indent,
        subsequent_indent=hang or indent,
        break_long_words=False,
        break_on_hyphens=False,
    )


def _rich_to_text(content: RichText, ctx: _PageContext) -> str:
    parts = []
    for node in content:
        if isinstance(node, TextRun):
            parts.append(node.text)
        elif isinstance(node, Emph):
            parts.append(_rich_to_text(node.content, ctx))
        elif isinstance(node, BiblRef):
            parts.append(ctx.marker(node.target) or node.text or node.target)
        elif isinstance(node, (PersonMention, OrgMention, PlaceMention, TermMention)):
            parts.append(node.text)
        elif isinstance(node, AbbrMention):
            parts.append(node.abbr)
        elif isinstance(node, Link):
            parts.append(node.text or node.target)
        elif isinstance(node, OpaqueInline):
            pass
    return "".join(parts)


def bare_entry_text(record: BiblStruct) -> str:
    """Last-resort one-liner for records a style cannot format."""
    bits = []
    authors = format_authors(record.authors(), "as-encoded")
    if authors:
        bits.append(authors + ".")
    title = record.main_title()
    if title:
        text = normalize_title(title.text)
        if text:
            bits.append(text + ".")
    date = record.monogr.imprint.date
    if date:
        bits.append(f"{date.year}.")
    return " ".join(bits)


def _underlined(text: str, underline: str) -> list:
    """``text`` wrapped when it is wider than the page, then an underline
    as long as its longest line."""
    lines = _wrap(text) if len(text) > _WIDTH else []
    lines = lines or [text]
    return [*lines, underline * max(max(len(line) for line in lines), 1)]


def _heading_lines(text: str, depth: int) -> list:
    return _underlined(" ".join(text.split()), "=" if depth <= 1 else "-")


def _block_to_text(block, ctx: _PageContext) -> list:
    lines: list = []
    if isinstance(block, Paragraph):
        lines.extend(_wrap(_rich_to_text(block.content, ctx)))
    elif isinstance(block, CitBlock):
        quote = _rich_to_text(block.quote, ctx)
        if isinstance(block.source, str):
            quote = f"{quote} {ctx.marker(block.source) or block.source}"
        lines.extend(_wrap(quote, indent="    "))
        if isinstance(block.source, BiblStruct):
            lines.extend(_wrap("-- " + bare_entry_text(block.source), indent="    "))
        if block.qualifiers:
            lines.extend(_wrap(_rich_to_text(block.qualifiers, ctx), indent="    "))
    elif isinstance(block, FigureBlock):
        caption = _rich_to_text(block.caption, ctx).strip()
        lines.extend(_wrap(f"[Figure: {caption}]" if caption else "[Figure]"))
    elif isinstance(block, TableBlock):
        caption = _rich_to_text(block.caption, ctx).strip()
        lines.extend(_wrap(f"[Table: {caption}]" if caption else "[Table]"))
    elif isinstance(block, ListBlock):
        for item in block.items:
            lines.extend(_wrap(_rich_to_text(item, ctx), indent="  - ", hang="    "))
    elif isinstance(block, QuoteBlock):
        lines.extend(_wrap(_rich_to_text(block.content, ctx), indent="    "))
    # Formula and opaque blocks carry no flowable text and are skipped.
    return lines


def _division_to_text(division: Division, depth: int, ctx: _PageContext) -> list:
    lines: list = []
    head = _rich_to_text(division.head, ctx).strip()
    if head:
        lines.extend(_heading_lines(head, depth))
        lines.append("")
    for block in division.blocks:
        block_lines = _block_to_text(block, ctx)
        if block_lines:
            lines.extend(block_lines)
            lines.append("")
    for child in division.children:
        lines.extend(_division_to_text(child, depth + 1, ctx))
    return lines


def render_plaintext(article: Article, style: StyleGuide | None = None) -> str:
    """Render the article as wrapped plain text (78 columns).

    Citations appear as ``[n]`` numbered by first appearance regardless of
    the style's marker scheme; page ranges use a plain hyphen.  When no
    style is given the reference entries use the built-in ``chicago``
    layout.
    """
    style = style or builtin_style("chicago")
    # Plain text always numbers, and lists entries by number.
    numeric = StyleGuide(style.id, "numeric-bracket", "citation-order",
                         style.author_name_format, style.layouts)
    ctx = _PageContext(article, numeric)
    fd = article.header.file_desc
    lines: list = []

    title = normalize_title(fd.main_title) or article.id or "Untitled"
    lines.extend([*_underlined(title, "="), ""])

    source = fd.source
    authors = source.authors() if source else ()
    if authors:
        names = ", ".join(
            " ".join([*a.forenames, a.surname]).strip() or a.surname for a in authors
        )
        lines.extend(_wrap(names))
        lines.append("")

    for division in (*article.front, *article.body, *article.back.divisions):
        lines.extend(_division_to_text(division, 1, ctx))

    if ctx.references:
        lines.extend(_heading_lines("References", 1))
        lines.append("")
        for label, entry in ctx.references:
            lines.extend(_wrap(f"{label} {entry.plain()}", hang="    "))
        lines.append("")

    while lines and lines[-1] == "":
        lines.pop()
    text = "\n".join(lines) + "\n"
    return text.replace("–", "-")
