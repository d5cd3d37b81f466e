"""Typed, immutable document model for TEI-encoded journal articles.

Every node is a frozen :class:`~teijournal.base.Record` whose
sequence-valued fields are tuples, so two documents compare equal exactly
when they are structurally identical.  ``Emph`` content holds more ``Emph``
and ``Division`` children hold more divisions, up to the parser's depth
limit; ``Record``'s equality and ``repr`` walk them without recursing.
The model is deliberately permissive: it can represent documents that break
editorial rules (a missing source description, an out-of-vocabulary scope
kind, duplicate identifiers) so that the validator can report on them
instead of the constructor refusing them.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter

from .base import Record, factory, slotted

# --------------------------------------------------------------------------
# Dates
# --------------------------------------------------------------------------

# ASCII digits only: ``\d`` would read other scripts' digits, which the
# canonical form writes back as ASCII, so the raw value would not survive.
_DATE_RE = re.compile(r"^([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?$")

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _days_in_month(year: int, month: int) -> int:
    """Gregorian: February has 29 days in years divisible by 4, except
    centuries not divisible by 400."""
    leap = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return _DAYS_IN_MONTH[month - 1] + leap


class CalendarDate(Record, metaclass=slotted):
    """A date of year, year-month, or year-month-day precision."""

    year: int
    month: int | None = None
    day: int | None = None
    raw: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.year <= 9999:
            raise ValueError(f"year out of range: {self.year}")
        if self.month is None and self.day is not None:
            raise ValueError("day given without month")
        if self.month is not None and not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")
        if self.day is not None:
            if not 1 <= self.day <= _days_in_month(self.year, self.month):
                raise ValueError(f"day out of range: {self.day}")
        if not self.raw:
            object.__setattr__(self, "raw", self.iso())

    @property
    def precision(self) -> str:
        if self.day is not None:
            return "day"
        if self.month is not None:
            return "month"
        return "year"

    @classmethod
    def parse(cls, value: str) -> "CalendarDate":
        """Parse ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD``."""
        m = _DATE_RE.match(value.strip())
        if not m:
            raise ValueError(f"unparseable date: {value!r}")
        year, month, day = m.groups()
        return cls(
            year=int(year),
            month=int(month) if month else None,
            day=int(day) if day else None,
            raw=value.strip(),
        )

    def iso(self) -> str:
        if self.day is not None:
            return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"
        if self.month is not None:
            return f"{self.year:04d}-{self.month:02d}"
        return f"{self.year:04d}"

    def sort_key(self) -> tuple[int, int, int]:
        """Earliest instant covered by this date, as a comparable tuple."""
        return (self.year, self.month or 1, self.day or 1)

    def end_key(self) -> tuple[int, int, int]:
        """Latest instant covered by this date, as a comparable tuple."""
        if self.day is not None:
            return (self.year, self.month, self.day)
        month = self.month or 12
        return (self.year, month, _days_in_month(self.year, month))


# --------------------------------------------------------------------------
# Inline content
# --------------------------------------------------------------------------


class TextRun(Record, metaclass=slotted):
    text: str


class Emph(Record, metaclass=slotted):
    """Typographically highlighted span (``rend`` is the rendition token)."""

    rend: str
    content: "RichText"


class BiblRef(Record, metaclass=slotted):
    """Pointer at a bibliography entry, e.g. target ``#b3``."""

    target: str
    text: str = ""


class PersonMention(Record, metaclass=slotted):
    text: str
    key: str | None = None


class OrgMention(Record, metaclass=slotted):
    text: str
    key: str | None = None


class PlaceMention(Record, metaclass=slotted):
    text: str
    key: str | None = None


class TermMention(Record, metaclass=slotted):
    """A flagged term; ``kind`` distinguishes e.g. software from topics."""

    text: str
    kind: str | None = None


class AbbrMention(Record, metaclass=slotted):
    abbr: str
    expansion: str | None = None


class Link(Record, metaclass=slotted):
    target: str
    text: str = ""


class OpaqueInline(Record, metaclass=slotted):
    """Verbatim markup carried through parse and serialize untouched."""

    markup: str


RichText = tuple  # of the inline nodes above


#: Inline class -> the node's plain text, given ``pointer_text``.
_PLAIN = {
    **dict.fromkeys((TextRun, PersonMention, OrgMention, PlaceMention, TermMention),
                    lambda node, _: node.text),
    Emph: lambda node, pointer_text: plain_text(node.content, pointer_text),
    AbbrMention: lambda node, _: node.abbr,
    **dict.fromkeys((BiblRef, Link), lambda node, pointer_text: pointer_text(node)),
    OpaqueInline: lambda node, _: "",
}


def plain_text(content: RichText, pointer_text=attrgetter("text")) -> str:
    """Flatten rich text to a plain string, dropping markup; each citation
    and link is written as ``pointer_text(node)``, by default its text."""
    return "".join([_PLAIN[type(node)](node, pointer_text) for node in content])


def normalize_title(title: "RichText | str") -> str:
    """Strip markup, collapse whitespace runs to single spaces, and trim."""
    text = title if isinstance(title, str) else plain_text(title)
    return re.sub(r"\s+", " ", text).strip()


# --------------------------------------------------------------------------
# Bibliographic records
# --------------------------------------------------------------------------

SCOPE_KINDS = ("vol", "issue", "fpage", "lpage", "pp")


class DocumentType(Record, metaclass=slotted):
    """Free-form document genre of a bibliographic entry."""

    value: str


class Title(Record, metaclass=slotted):
    """A title with bibliographic level (a/m/j/u) and a type token."""

    text: RichText
    level: str = "a"
    type: str = "main"


class Identifier(Record, metaclass=slotted):
    kind: str
    value: str


class OrgUnit(Record, metaclass=slotted):
    kind: str
    name: str


class AddressLine(Record, metaclass=slotted):
    text: str
    kind: str | None = None


class Address(Record, metaclass=slotted):
    settlement: str | None = None
    post_code: str | None = None
    country: str | None = None
    lines: tuple = ()


class Affiliation(Record, metaclass=slotted):
    org_units: tuple = ()
    address: Address | None = None


class Author(Record, metaclass=slotted):
    surname: str = ""
    forenames: tuple = ()
    corresponding: bool = False
    identifiers: tuple = ()
    affiliation: Affiliation | None = None
    email: str | None = None


class Scope(Record, metaclass=slotted):
    """One bibliographic extent: volume, issue, page bounds, or page range."""

    kind: str
    value: str


class Imprint(Record, metaclass=slotted):
    publisher: str | None = None
    pub_place: str | None = None
    date: CalendarDate | None = None
    date_role: str = "published"
    scopes: tuple = ()


class Analytic(Record, metaclass=slotted):
    """The contained item (article or chapter) of a two-level record."""

    titles: tuple = ()
    authors: tuple = ()


class Monogr(Record, metaclass=slotted):
    """The container item: the journal, book, or proceedings volume."""

    titles: tuple = ()
    authors: tuple = ()
    issn: str | None = None
    imprint: Imprint = factory(Imprint)


class BiblStruct(Record, metaclass=slotted):
    doc_type: DocumentType = DocumentType("unknown")
    analytic: Analytic | None = None
    monogr: Monogr = factory(Monogr)
    identifiers: tuple = ()
    xml_id: str | None = None

    def main_title(self) -> Title | None:
        """First main title, preferring the analytic level."""
        for part in (self.analytic.titles if self.analytic else (), self.monogr.titles):
            for title in part:
                if title.type == "main":
                    return title
        return None

    def authors(self) -> tuple:
        """Contained-item authors when present, else container authors."""
        if self.analytic and self.analytic.authors:
            return self.analytic.authors
        return self.monogr.authors

    def scope(self, kind: str) -> str | None:
        for s in self.monogr.imprint.scopes:
            if s.kind == kind:
                return s.value
        return None

    def identifier(self, kind: str) -> str | None:
        for ident in self.identifiers:
            if ident.kind.casefold() == kind.casefold():
                return ident.value
        return None


# --------------------------------------------------------------------------
# Header
# --------------------------------------------------------------------------


class FileDesc(Record, metaclass=slotted):
    main_title: RichText = ()
    availability: RichText = ()
    publication_date: CalendarDate | None = None
    authority: str | None = None
    source: BiblStruct | None = None


class Keyword(Record, metaclass=slotted):
    term: str
    scheme: str | None = None


class ProfileDesc(Record, metaclass=slotted):
    keywords: tuple = ()
    languages: tuple = ()


class Change(Record, metaclass=slotted):
    when: CalendarDate
    kind: str
    description: str = ""


class RevisionDesc(Record, metaclass=slotted):
    changes: tuple = ()


class Header(Record, metaclass=slotted):
    file_desc: FileDesc = factory(FileDesc)
    profile_desc: ProfileDesc = factory(ProfileDesc)
    revision_desc: RevisionDesc = factory(RevisionDesc)


# --------------------------------------------------------------------------
# Running text
# --------------------------------------------------------------------------


class Paragraph(Record, metaclass=slotted):
    content: RichText = ()


class CitBlock(Record, metaclass=slotted):
    """A block quotation tied to its bibliographic source.

    ``source`` is either an embedded record or a ``#id`` reference string
    into the article's bibliography.
    """

    quote: RichText = ()
    source: "BiblStruct | str | None" = None
    qualifiers: RichText = ()


class FigureBlock(Record, metaclass=slotted):
    graphic_url: str | None = None
    caption: RichText = ()


class TableBlock(Record, metaclass=slotted):
    """A table kept as verbatim markup, with its caption extracted."""

    markup: str
    caption: RichText = ()


class FormulaBlock(Record, metaclass=slotted):
    markup: str
    notation: str | None = None


class ListBlock(Record, metaclass=slotted):
    items: tuple = ()  # tuple of RichText


class QuoteBlock(Record, metaclass=slotted):
    content: RichText = ()


class OpaqueBlock(Record, metaclass=slotted):
    markup: str


class Division(Record, metaclass=slotted):
    """A ``div``: heading, block sequence, then nested divisions."""

    kind: str = "section"
    head: RichText = ()
    blocks: tuple = ()
    children: tuple = ()


class ListBibl(Record, metaclass=slotted):
    entries: tuple = ()


class BackMatter(Record, metaclass=slotted):
    divisions: tuple = ()
    reference_list: ListBibl | None = None


class Article(Record, metaclass=slotted):
    id: str = ""
    header: Header = factory(Header)
    front: tuple = ()  # tuple[Division, ...]
    body: tuple = ()  # tuple[Division, ...]
    back: BackMatter = factory(BackMatter)
    ns_decls: tuple = ()  # extra (prefix, uri) bindings needed by opaque markup
    __slots__ = ("__dict__",)  # for entries_by_id and the walk memos

    @property
    def reference_list(self) -> ListBibl | None:
        return self.back.reference_list

    @cached_property
    def entries_by_id(self) -> dict:
        """Reference-list entries by ``xml:id``; the first entry wins for a
        duplicated id.  Built once per instance and shared: do not mutate."""
        by_id: dict = {}
        if self.reference_list is not None:
            for entry in self.reference_list.entries:
                if entry.xml_id is not None:
                    by_id.setdefault(entry.xml_id, entry)
        return by_id


# --------------------------------------------------------------------------
# Whole-document operations
# --------------------------------------------------------------------------


def document_date(article: Article) -> CalendarDate | None:
    """The publication date recorded in the header, if any."""
    return article.header.file_desc.publication_date


def resolve_ref(article: Article, target: str) -> BiblStruct | None:
    """Resolve a ``#id`` fragment reference against the reference list.

    Returns ``None`` when no entry carries the id; raises ``ValueError``
    for a target that is not a fragment reference at all.
    """
    if not target.startswith("#"):
        raise ValueError(f"not a fragment reference: {target!r}")
    return article.entries_by_id.get(target[1:])


def derive_article_id(source: BiblStruct | None, source_name: str | None) -> str:
    """Document identifier: the DOI when present, else the file stem."""
    if source is not None:
        doi = source.identifier("doi")
        if doi:
            return doi
    if source_name:
        stem = source_name.replace("\\", "/").rsplit("/", 1)[-1]
        return stem.rsplit(".", 1)[0] if "." in stem else stem
    return ""
