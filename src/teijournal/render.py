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
from functools import lru_cache
from pathlib import Path

from .base import BUILTIN_STYLES, Record, escaper, factory, json_bool, slotted
from .model import (
    SCOPE_KINDS,
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

class StyleError(ValueError):
    """A style table is malformed or references unknown fields."""


class Segment(Record, metaclass=slotted):
    """One field of an entry layout: where the value comes from and how it
    is dressed.  ``prefix`` and ``suffix`` are emitted as plain text around
    the (possibly italicised or quoted) value."""

    path: str
    typography: str = "plain"
    prefix: str = ""
    suffix: str = ""
    omit_if_absent: bool = True


class StyleGuide(Record, metaclass=slotted):
    id: str
    marker_scheme: str
    list_order: str
    author_name_format: str
    layouts: dict = factory(dict)  # doc type -> tuple[Segment, ...]

    def layout_for(self, doc_type: str) -> tuple:
        """The segment list for a record type, falling back to ``unknown``."""
        return self.layouts.get(doc_type, self.layouts["unknown"])


class Span(Record, metaclass=slotted):
    """A run of entry text with one typography applied."""

    text: str
    typography: str = "plain"


class RenderedEntry(Record, metaclass=slotted):
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
            if path not in _FIELDS and not path.startswith("identifiers."):
                raise StyleError(f"layout {doc_type!r} addresses unknown field {path!r}")
            typography = seg.get("typography", "plain")
            if typography not in TYPOGRAPHY:
                raise StyleError(f"unknown typography {typography!r}")
            try:
                omit_if_absent = json_bool(
                    seg.get("omit_if_absent", True), f"omit_if_absent in layout {doc_type!r}"
                )
            except ValueError as exc:
                raise StyleError(str(exc)) from None
            segments.append(Segment(path, typography, seg.get("prefix", ""),
                                    seg.get("suffix", ""), omit_if_absent))
        layouts[doc_type] = tuple(segments)
    return StyleGuide(style_id, scheme, order, name_format, layouts)


@lru_cache(maxsize=None)
def builtin_style(style_id: str) -> StyleGuide:
    """One of the shipped styles, ``apa``, ``chicago`` or ``mla``, read
    once: every caller shares the returned style and must not mutate it."""
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
    if name_format == "surname-first-full":
        return _and_list(names)
    if name_format == "surname-first-initials" and len(names) > 1:
        return ", ".join(names[:-1]) + ", & " + names[-1]
    return ", ".join(names)


def _and_list(names: list) -> str:
    """``A``, ``A and B`` or ``A, B, and C``."""
    if len(names) < 3:
        return " and ".join(names)
    return ", ".join(names[:-1]) + ", and " + names[-1]


def _forward_names(authors: tuple) -> str:
    """Container authors (editors) written in forward order."""
    names = (" ".join([*(f for f in a.forenames if f), a.surname]).strip() for a in authors)
    return _and_list([n for n in names if n])


def _main_titles(level) -> list:
    """The main titles of an analytic or monogr level, normalized."""
    return [normalize_title(t.text) for t in level.titles if t.type == "main"] if level else []


def _pages(record: BiblStruct) -> str | None:
    fpage, lpage = record.scope("fpage"), record.scope("lpage")
    if fpage and lpage:
        return f"{fpage}–{lpage}"
    return fpage or record.scope("pp")


#: Field paths a layout segment may address -> the field's text for a
#: record, empty or ``None`` when the record lacks it; :func:`format_entry`
#: writes ``authors`` and :class:`_EntryValues` reads the titles.
#: ``identifiers.<kind>`` is open as well: the kind is matched
#: case-insensitively against the record's identifiers.
_FIELDS = {
    **dict.fromkeys(("authors", "title", "analytic.title", "monogr.title")),
    "monogr.authors": lambda record: _forward_names(record.monogr.authors),
    "imprint.publisher": lambda record: record.monogr.imprint.publisher,
    "imprint.pub_place": lambda record: record.monogr.imprint.pub_place,
    "year": lambda record: str(date.year) if (date := record.monogr.imprint.date) else None,
    "pages": _pages,
    "issn": lambda record: record.monogr.issn,
    **{f"scopes.{kind}": lambda record, kind=kind: record.scope(kind) for kind in SCOPE_KINDS},
}


class _EntryValues(dict):
    """One record's field values that no style changes, by segment path (its
    main titles normalized once, each other field on first use), and its
    sort key and author-date cite text: every layout reads the same ones."""

    __slots__ = ("record", "sort_key", "cite_text")

    def __init__(self, record: BiblStruct):
        analytic, monogr = _main_titles(record.analytic), _main_titles(record.monogr)
        # the main title prefers the analytic level, as BiblStruct.main_title does
        title = (analytic or monogr or [None])[0] or None
        super().__init__({"title": title, "analytic.title": next(filter(None, analytic), None),
                          "monogr.title": next(filter(None, monogr), None)})
        self.record = record
        self.sort_key = _sort_key(record, title)
        self.cite_text = _cite_text(record, title)

    def __missing__(self, path: str) -> str | None:
        if path.startswith("identifiers."):
            value = self.record.identifier(path[len("identifiers."):])
        elif _FIELDS.get(path) is None:
            raise StyleError(f"unknown segment path {path!r}")
        else:
            value = _FIELDS[path](self.record)
        self[path] = value
        return value


def entry_sort_key(record: BiblStruct) -> tuple:
    """(lead surname, year, title) — the alphabetical ordering key.

    Style-independent, so reference numbering does not shift when the
    rendering style changes.
    """
    return _EntryValues(record).sort_key


def _sort_key(record: BiblStruct, title: str | None) -> tuple:
    authors = record.authors()
    surname = authors[0].surname.casefold() if authors else ""
    date = record.monogr.imprint.date
    return (surname, date.year if date else 0, (title or "").casefold())


def _cite_text(record: BiblStruct, title: str | None) -> str:
    """Author-date in-text form, without parentheses; ``title`` is the
    record's main title, normalized."""
    surnames = [a.surname for a in record.authors() if a.surname]
    if len(surnames) > 2:
        who = f"{surnames[0]} et al."
    elif surnames:
        who = _and_list(surnames)
    else:
        who = " ".join((title or "").split()[:3])
    date = record.monogr.imprint.date
    if date:
        return f"{who} {date.year}".strip()
    return who


# --------------------------------------------------------------------------
# Entry formatting
# --------------------------------------------------------------------------


def format_entry(record: BiblStruct, style: StyleGuide, values=None) -> RenderedEntry:
    """Format one record per the style's layout for its type, from its
    :class:`_EntryValues` (worked out here when ``values`` is not given).

    Raises :class:`StyleError` for a record with no main title at either
    level — there is nothing to cite.
    """
    values = _EntryValues(record) if values is None else values
    if values["title"] is None:
        raise StyleError(
            f"record {record.xml_id or '<no id>'} has no main title and cannot be formatted"
        )
    runs: list = []  # (text, typography)
    for seg in style.layout_for(record.doc_type.value):
        if seg.path == "authors":
            value = format_authors(record.authors(), style.author_name_format)
        else:
            value = values[seg.path]
        if not value:
            if seg.omit_if_absent:
                continue
            value = ""
        runs += ((seg.prefix, "plain"), (value, seg.typography), (seg.suffix, "plain"))
    return RenderedEntry(record.xml_id, _tidy_runs(runs), values.sort_key, values.cite_text)


def entry_or_fallback(record: BiblStruct, style: StyleGuide, values=None) -> RenderedEntry:
    """:func:`format_entry`, or for a record it cannot format, one plain
    span of :func:`bare_entry_text` (``(unciteable record)`` when even that
    is empty), so that no reference list or corpus page fails on it."""
    values = _EntryValues(record) if values is None else values
    try:
        return format_entry(record, style, values)
    except StyleError:
        text = bare_entry_text(record) or "(unciteable record)"
        return RenderedEntry(record.xml_id, (Span(text),), values.sort_key, values.cite_text)


def _tidy_runs(runs: list) -> tuple:
    """``(text, typography)`` runs as spans: empty runs dropped, adjacent
    plain runs merged, outer whitespace trimmed."""
    merged: list = []
    for text, typography in runs:
        if text and typography == "plain" and merged and merged[-1][1] == "plain":
            merged[-1] = (merged[-1][0] + text, "plain")
        elif text:
            merged.append((text, typography))
    while merged and not merged[0][0].lstrip():
        merged.pop(0)
    if merged:
        merged[0] = (merged[0][0].lstrip(), merged[0][1])
    while merged and not merged[-1][0].rstrip():
        merged.pop()
    if merged:
        merged[-1] = (merged[-1][0].rstrip(), merged[-1][1])
    return tuple(Span(text, typography) for text, typography in merged)


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


def _format_entries(entries, style: StyleGuide, values=_EntryValues) -> dict:
    """Entry key (its ``xml:id``, else its position) -> :class:`RenderedEntry`;
    ``values(record)`` gives the record's :class:`_EntryValues`."""
    rendered: dict = {}
    for i, record in enumerate(entries):
        key = record.xml_id if record.xml_id else f"\x00{i}"
        if key not in rendered:
            rendered[key] = entry_or_fallback(record, style, values(record))
    return rendered


def _number_entries(rendered: dict, style: StyleGuide, citation_order) -> list:
    """``(label, RenderedEntry)`` pairs in display order.  Entries are
    numbered by first citation, uncited ones after the cited in alphabetical
    order; labels are ``[n]`` for numeric marker schemes, else ``None``."""
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
    """One page's style, its reference list as :func:`_number_entries` numbers
    it, and the in-text markers read off that list.  Kept in the article's
    ``__dict__`` (as :func:`citation_order` is) and shared by its pages:
    each record's :class:`_EntryValues`, the formatted entries keyed by the
    style's name format and layouts by value (all a :class:`RenderedEntry`
    depends on), and the XHTML above the reference list with a slot for
    each point that depends on the page (:func:`_shared_html`)."""

    def __init__(self, article: Article, style: StyleGuide):
        self.style = style
        self.values_by_id = article.__dict__.setdefault("_entry_values", {})
        rendered = article.__dict__.setdefault("_rendered_entries", {})
        key = (style.author_name_format, tuple(sorted(style.layouts.items())))
        if key not in rendered:
            entries = article.reference_list.entries if article.reference_list else ()
            rendered[key] = _format_entries(entries, style, self.values)
        self.references = _number_entries(rendered[key], style, citation_order(article))
        self.by_id = {e.ref_id: (label, e) for label, e in self.references if e.ref_id}

    def values(self, record: BiblStruct) -> _EntryValues:
        """The record's values, kept by ``id``: the article holds the record."""
        found = self.values_by_id.get(id(record))
        if found is None:
            found = self.values_by_id[id(record)] = _EntryValues(record)
        return found

    def marker(self, target: str) -> str | None:
        """``[n]`` or ``(cite_text)`` for a pointer to an entry, else ``None``."""
        found = self.by_id.get(target[1:]) if target.startswith("#") else None
        if found is None:
            return None
        label, entry = found
        return label or f"({entry.cite_text})"

    def pointer_text(self, node: BiblRef | Link) -> str:
        """A citation's marker, else the pointer's own text, else its target."""
        marker = self.marker(node.target) if isinstance(node, BiblRef) else None
        return marker or node.text or node.target


# --------------------------------------------------------------------------
# XHTML
# --------------------------------------------------------------------------
#
# Pages are written as strings, byte for byte as ``xml.etree.ElementTree``
# would write the same tree: text escapes ``& < >``; attribute values also
# escape ``"`` and write CR, LF and TAB as character references, in the
# order given; an element with no content is ``<tag />``.  (``xmlio``
# writes TEI by its own rules, which the canonical fixpoint needs.)


escape_text = escaper(("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"))
_escape_attr = escaper(("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
                       ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"))


def element(tag: str, content: str = "", attrs: dict | None = None) -> str:
    """One element around ``content``, markup that is already escaped."""
    start = tag
    if attrs:
        for name, value in attrs.items():
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


_SLOT = "<>"  # no escaped text or attribute value holds it


class _Slots(list):
    """The ``(render, args)`` of each point of the divisions that depends
    on the page, in order; ``_SLOT`` marks its place in the markup."""

    def slot(self, render, *args) -> str:
        self.append((render, args))
        return _SLOT


def _html_marker(ctx: _PageContext, target: str, fallback: str) -> str:
    text = ctx.marker(target)
    if text is None:
        return element("span", escape_text(fallback or target), {"class": "tj-ref"})
    return element("a", escape_text(text), {"class": "tj-ref", "href": f"#ref-{target[1:]}"})


#: Inline class -> the node's XHTML markup; ``ctx.slot`` writes what a page changes.
_INLINE_HTML = {
    TextRun: lambda node, _: escape_text(node.text),
    Emph: lambda node, ctx: element("b" if "bold" in node.rend else "i",
                                    _rich_to_html(node.content, ctx)),
    BiblRef: lambda node, ctx: ctx.slot(_html_marker, node.target, node.text),
    Link: lambda node, _: element("a", escape_text(node.text or node.target),
                                  {"href": node.target}),
    PersonMention: lambda node, _: element("span", escape_text(node.text), {"class": "tj-person"}),
    OrgMention: lambda node, _: element("span", escape_text(node.text), {"class": "tj-org"}),
    PlaceMention: lambda node, _: element("span", escape_text(node.text), {"class": "tj-place"}),
    TermMention: lambda node, _: element("span", escape_text(node.text), {"class": "tj-term"}),
    AbbrMention: lambda node, _: element("abbr", escape_text(node.abbr),
                                         {"title": node.expansion} if node.expansion else None),
    OpaqueInline: lambda node, _: element("code", escape_text(node.markup),
                                          {"class": "tj-opaque"}),
}


def _rich_to_html(content: RichText, ctx) -> str:
    return "".join([_INLINE_HTML[type(node)](node, ctx) for node in content])


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


def _cit_to_html(block: CitBlock, ctx) -> str:
    quote = _rich_to_html(block.quote, ctx)
    if isinstance(block.source, str):
        quote += " " + ctx.slot(_html_marker, block.source, block.source)
    parts = [element("p", quote)]
    if isinstance(block.source, BiblStruct):
        parts.append(ctx.slot(_cit_source_html, block.source))
    if block.qualifiers:
        parts.append(element("p", _rich_to_html(block.qualifiers, ctx), {"class": "tj-cit-note"}))
    return element("blockquote", "".join(parts), {"class": "tj-cit"})


def _cit_source_html(ctx: _PageContext, record: BiblStruct) -> str:
    entry = entry_or_fallback(record, ctx.style, ctx.values(record))
    return element("p", _spans_to_html(entry), {"class": "tj-cit-source"})


def _caption_html(caption: RichText, ctx) -> str:
    return element("p", _rich_to_html(caption, ctx)) if caption else ""


def _figure_to_html(block: FigureBlock, ctx) -> str:
    image = element("img", "", {"alt": "", "src": block.graphic_url}) if block.graphic_url else ""
    return element("div", image + _caption_html(block.caption, ctx), {"class": "tj-figure"})


#: Block class -> the block's XHTML markup; ``ctx.slot`` writes what a page changes.
_BLOCK_HTML = {
    Paragraph: lambda block, ctx: element("p", _rich_to_html(block.content, ctx)),
    CitBlock: _cit_to_html,
    FigureBlock: _figure_to_html,
    TableBlock: lambda block, ctx: element(
        "div", _caption_html(block.caption, ctx) + element("pre", escape_text(block.markup)),
        {"class": "tj-table"}),
    FormulaBlock: lambda block, _: element("pre", escape_text(block.markup),
                                           {"class": "tj-formula"}),
    ListBlock: lambda block, ctx: element(
        "ul", "".join(element("li", _rich_to_html(item, ctx)) for item in block.items)),
    QuoteBlock: lambda block, ctx: element("blockquote",
                                           element("p", _rich_to_html(block.content, ctx))),
    OpaqueBlock: lambda block, _: element("pre", escape_text(block.markup),
                                          {"class": "tj-opaque"}),
}


def _division_to_html(division: Division, depth: int, ctx) -> str:
    parts = []
    if division.head:
        parts.append(element(f"h{min(depth + 1, 6)}", _rich_to_html(division.head, ctx)))
    parts.extend(_BLOCK_HTML[type(block)](block, ctx) for block in division.blocks)
    parts.extend(_division_to_html(child, depth + 1, ctx) for child in division.children)
    css = "tj-abstract" if division.kind == "abstract" else "tj-section"
    return element("section", "".join(parts), {"class": css})


def _affiliation_text(author: Author) -> str:
    if author.affiliation is None:
        return ""
    address = author.affiliation.address
    places = (address.settlement, address.country) if address else ()
    return ", ".join(filter(None, (*(u.name for u in author.affiliation.org_units), *places)))


def _shared_html(article: Article) -> tuple:
    """The page title, then the markup of the title, authors, affiliations,
    keywords and divisions, rendered once per article with slots
    (:class:`_Slots`) that each page fills from its own context."""
    shared = article.__dict__.get("_shared_html")
    if shared is not None:
        return shared
    slots = _Slots()
    fd = article.header.file_desc
    title_text = normalize_title(fd.main_title) or article.id or "Untitled"
    title = _rich_to_html(fd.main_title, slots) if fd.main_title else escape_text(title_text)
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

    divisions = (*article.front, *article.body, *article.back.divisions)
    parts += [_division_to_html(division, 1, slots) for division in divisions]
    shared = (title_text, "".join(parts).split(_SLOT), tuple(slots))
    article.__dict__["_shared_html"] = shared
    return shared


def render_xhtml(article: Article, style: StyleGuide) -> str:
    """Render the whole article as a standalone XHTML page.

    The output is well-formed XML.  Stable CSS hooks: ``tj-title``,
    ``tj-author``, ``tj-affiliation``, ``tj-keywords``, ``tj-abstract``,
    ``tj-section``, ``tj-cit``, ``tj-ref``, ``tj-biblio-entry``.
    """
    ctx = _PageContext(article, style)
    title_text, pieces, slots = _shared_html(article)
    parts = [pieces[0]]
    for (render, args), piece in zip(slots, pieces[1:]):
        parts += (render(ctx, *args), piece)

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
    """The words of ``text`` wrapped greedily at ``_WIDTH`` columns, the
    first line after ``indent`` and the rest after ``hang`` (else ``indent``).
    A word wider than the line is not broken: it sits alone on its line."""
    lines: list = []
    for word in text.split():
        if lines and len(lines[-1]) + 1 + len(word) <= _WIDTH:
            lines[-1] += " " + word
        else:
            lines.append(((hang or indent) if lines else indent) + word)
    return lines


def bare_entry_text(record: BiblStruct) -> str:
    """Last-resort one-liner for records a style cannot format."""
    bits = []
    authors = format_authors(record.authors(), "as-encoded")
    if authors:
        bits.append(authors + ".")
    title = _EntryValues(record)["title"]
    if title:
        bits.append(title + ".")
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


def _cit_to_text(block: CitBlock, ctx: _PageContext) -> list:
    quote = plain_text(block.quote, ctx.pointer_text)
    if isinstance(block.source, str):
        quote = f"{quote} {ctx.marker(block.source) or block.source}"
    lines = _wrap(quote, indent="    ")
    if isinstance(block.source, BiblStruct):
        source = entry_or_fallback(block.source, ctx.style, ctx.values(block.source)).plain()
        lines.extend(_wrap("-- " + source, indent="    "))
    if block.qualifiers:
        lines.extend(_wrap(plain_text(block.qualifiers, ctx.pointer_text), indent="    "))
    return lines


def _caption_lines(label: str, caption: RichText, ctx: _PageContext) -> list:
    caption = plain_text(caption, ctx.pointer_text).strip()
    return _wrap(f"[{label}: {caption}]" if caption else f"[{label}]")


#: Block class -> the block's lines on the text page (none without flowable text).
_BLOCK_TEXT = {
    Paragraph: lambda block, ctx: _wrap(plain_text(block.content, ctx.pointer_text)),
    CitBlock: _cit_to_text,
    FigureBlock: lambda block, ctx: _caption_lines("Figure", block.caption, ctx),
    TableBlock: lambda block, ctx: _caption_lines("Table", block.caption, ctx),
    ListBlock: lambda block, ctx: [
        line for item in block.items
        for line in _wrap(plain_text(item, ctx.pointer_text), indent="  - ", hang="    ")],
    QuoteBlock: lambda block, ctx: _wrap(plain_text(block.content, ctx.pointer_text),
                                         indent="    "),
    **dict.fromkeys((FormulaBlock, OpaqueBlock), lambda block, _: []),
}


def _division_to_text(division: Division, depth: int, ctx: _PageContext) -> list:
    lines: list = []
    head = plain_text(division.head, ctx.pointer_text).strip()
    if head:
        lines.extend(_heading_lines(head, depth))
        lines.append("")
    for block in division.blocks:
        block_lines = _BLOCK_TEXT[type(block)](block, ctx)
        if block_lines:
            lines.extend(block_lines)
            lines.append("")
    for child in division.children:
        lines.extend(_division_to_text(child, depth + 1, ctx))
    return lines


def render_plaintext(article: Article, style: StyleGuide | None = None) -> str:
    """Render the article as plain text wrapped greedily at 78 columns; a
    word wider than the line is not broken but sits alone on its line.

    Citations appear as ``[n]`` numbered by first appearance regardless of
    the style's marker scheme.  Every en dash on the page, in page ranges
    and body text alike, is written as a plain hyphen.  When no style is
    given the reference entries use the built-in ``chicago`` layout.
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
