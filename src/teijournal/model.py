"""Typed, immutable document model for TEI-encoded journal articles.

Every node is a frozen dataclass whose sequence-valued fields are tuples, so
two documents compare equal exactly when they are structurally identical.
The model is deliberately permissive: it can represent documents that break
editorial rules (a missing source description, an out-of-vocabulary scope
kind, duplicate identifiers) so that the validator can report on them
instead of the constructor refusing them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import ClassVar, Union

# --------------------------------------------------------------------------
# Equality and repr for nodes that nest
# --------------------------------------------------------------------------
#
# ``Emph`` content holds more ``Emph`` and ``Division`` children hold more
# divisions, up to the parser's depth limit.  The methods dataclasses
# generate recurse a few frames per level, which runs out of stack there;
# these two walk the nodes with a list instead and give the same results.


@cache
def _field_names(cls: type, flag: str) -> tuple:
    """Names of ``cls``'s dataclass fields that have ``flag`` (compare, repr)."""
    return tuple(f.name for f in fields(cls) if getattr(f, flag))


def _nested_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    pending = [(self, other)]
    while pending:
        a, b = pending.pop()
        if a is b:
            continue
        kind = a.__class__
        if kind is not b.__class__:
            if not a == b:
                return False
        elif kind is tuple:
            if len(a) != len(b):
                return False
            pending.extend(zip(a, b))
        elif hasattr(kind, "__dataclass_fields__"):
            pending.extend(
                (getattr(a, name), getattr(b, name))
                for name in _field_names(kind, "compare")
            )
        elif not a == b:
            return False
    return True


def _nested_repr(self) -> str:
    parts: list = []
    pending: list = [(False, self)]  # (is literal text, item)
    while pending:
        literal, item = pending.pop()
        kind = item.__class__
        if literal:
            parts.append(item)
        elif kind is tuple:
            pending.append((True, ",)" if len(item) == 1 else ")"))
            for i in range(len(item) - 1, -1, -1):
                pending.append((False, item[i]))
                if i:
                    pending.append((True, ", "))
            pending.append((True, "("))
        elif hasattr(kind, "__dataclass_fields__"):
            names = _field_names(kind, "repr")
            pending.append((True, ")"))
            for i in range(len(names) - 1, -1, -1):
                pending.append((False, getattr(item, names[i])))
                pending.append((True, f"{', ' if i else ''}{names[i]}="))
            pending.append((True, f"{kind.__qualname__}("))
        else:
            parts.append(repr(item))
    return "".join(parts)


# --------------------------------------------------------------------------
# Dates
# --------------------------------------------------------------------------

_DATE_RE = re.compile(r"^(\d{4})(?:-(\d{2})(?:-(\d{2}))?)?$")

_DAYS_IN_MONTH = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


@dataclass(frozen=True)
class CalendarDate:
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
            if not 1 <= self.day <= _DAYS_IN_MONTH[self.month - 1]:
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
        return (self.year, month, _DAYS_IN_MONTH[month - 1])


# --------------------------------------------------------------------------
# Inline content
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TextRun:
    text: str


@dataclass(frozen=True)
class Emph:
    """Typographically highlighted span (``rend`` is the rendition token)."""

    rend: str
    content: "RichText"

    __eq__ = _nested_eq
    __repr__ = _nested_repr


@dataclass(frozen=True)
class BiblRef:
    """Pointer at a bibliography entry, e.g. target ``#b3``."""

    target: str
    text: str = ""


@dataclass(frozen=True)
class PersonMention:
    text: str
    key: str | None = None


@dataclass(frozen=True)
class OrgMention:
    text: str
    key: str | None = None


@dataclass(frozen=True)
class PlaceMention:
    text: str
    key: str | None = None


@dataclass(frozen=True)
class TermMention:
    """A flagged term; ``kind`` distinguishes e.g. software from topics."""

    text: str
    kind: str | None = None


@dataclass(frozen=True)
class AbbrMention:
    abbr: str
    expansion: str | None = None


@dataclass(frozen=True)
class Link:
    target: str
    text: str = ""


@dataclass(frozen=True)
class OpaqueInline:
    """Verbatim markup carried through parse and serialize untouched."""

    markup: str


Inline = Union[
    TextRun,
    Emph,
    BiblRef,
    PersonMention,
    OrgMention,
    PlaceMention,
    TermMention,
    AbbrMention,
    Link,
    OpaqueInline,
]

RichText = tuple  # tuple[Inline, ...]; kept loose for 3.10 ergonomics


def plain_text(content: RichText) -> str:
    """Flatten rich text to a plain string, dropping markup."""
    parts: list[str] = []
    for node in content:
        if isinstance(node, TextRun):
            parts.append(node.text)
        elif isinstance(node, Emph):
            parts.append(plain_text(node.content))
        elif isinstance(node, (PersonMention, OrgMention, PlaceMention, TermMention)):
            parts.append(node.text)
        elif isinstance(node, AbbrMention):
            parts.append(node.abbr)
        elif isinstance(node, (BiblRef, Link)):
            parts.append(node.text)
        elif isinstance(node, OpaqueInline):
            pass
        else:
            raise TypeError(f"not an inline node: {node!r}")
    return "".join(parts)


def normalize_title(title: "RichText | str") -> str:
    """Strip markup, collapse whitespace runs to single spaces, and trim."""
    text = title if isinstance(title, str) else plain_text(title)
    return re.sub(r"\s+", " ", text).strip()


# --------------------------------------------------------------------------
# Bibliographic records
# --------------------------------------------------------------------------

SCOPE_KINDS = ("vol", "issue", "fpage", "lpage", "pp")


@dataclass(frozen=True)
class DocumentType:
    """Free-form document genre with a closed-set classification."""

    value: str

    KNOWN: ClassVar[frozenset] = frozenset(
        {
            "article",
            "journalArticle",
            "book",
            "bookSection",
            "conferencePaper",
            "thesis",
            "report",
            "webPage",
            "standard",
            "unknown",
        }
    )

    @property
    def category(self) -> str:
        return self.value if self.value in self.KNOWN else "unknown"


@dataclass(frozen=True)
class Title:
    """A title with bibliographic level (a/m/j/u) and a type token."""

    text: RichText
    level: str = "a"
    type: str = "main"


@dataclass(frozen=True)
class Identifier:
    kind: str
    value: str


@dataclass(frozen=True)
class OrgUnit:
    kind: str
    name: str


@dataclass(frozen=True)
class AddressLine:
    text: str
    kind: str | None = None


@dataclass(frozen=True)
class Address:
    settlement: str | None = None
    post_code: str | None = None
    country: str | None = None
    lines: tuple = ()


@dataclass(frozen=True)
class Affiliation:
    org_units: tuple = ()
    address: Address | None = None


@dataclass(frozen=True)
class Author:
    surname: str = ""
    forenames: tuple = ()
    corresponding: bool = False
    identifiers: tuple = ()
    affiliation: Affiliation | None = None
    email: str | None = None


@dataclass(frozen=True)
class Scope:
    """One bibliographic extent: volume, issue, page bounds, or page range."""

    kind: str
    value: str


@dataclass(frozen=True)
class Imprint:
    publisher: str | None = None
    pub_place: str | None = None
    date: CalendarDate | None = None
    date_role: str = "published"
    scopes: tuple = ()


@dataclass(frozen=True)
class Analytic:
    """The contained item (article or chapter) of a two-level record."""

    titles: tuple = ()
    authors: tuple = ()


@dataclass(frozen=True)
class Monogr:
    """The container item: the journal, book, or proceedings volume."""

    titles: tuple = ()
    authors: tuple = ()
    issn: str | None = None
    imprint: Imprint = field(default_factory=Imprint)


@dataclass(frozen=True)
class BiblStruct:
    doc_type: DocumentType = DocumentType("unknown")
    analytic: Analytic | None = None
    monogr: Monogr = field(default_factory=Monogr)
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


@dataclass(frozen=True)
class FileDesc:
    main_title: RichText = ()
    availability: RichText = ()
    publication_date: CalendarDate | None = None
    authority: str | None = None
    source: BiblStruct | None = None


@dataclass(frozen=True)
class Keyword:
    term: str
    scheme: str | None = None


@dataclass(frozen=True)
class ProfileDesc:
    keywords: tuple = ()
    languages: tuple = ()


@dataclass(frozen=True)
class Change:
    when: CalendarDate
    kind: str
    description: str = ""


@dataclass(frozen=True)
class RevisionDesc:
    changes: tuple = ()


@dataclass(frozen=True)
class Header:
    file_desc: FileDesc = field(default_factory=FileDesc)
    profile_desc: ProfileDesc = field(default_factory=ProfileDesc)
    revision_desc: RevisionDesc = field(default_factory=RevisionDesc)


# --------------------------------------------------------------------------
# Running text
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Paragraph:
    content: RichText = ()


@dataclass(frozen=True)
class CitBlock:
    """A block quotation tied to its bibliographic source.

    ``source`` is either an embedded record or a ``#id`` reference string
    into the article's bibliography.
    """

    quote: RichText = ()
    source: "BiblStruct | str | None" = None
    qualifiers: RichText = ()


@dataclass(frozen=True)
class FigureBlock:
    graphic_url: str | None = None
    caption: RichText = ()


@dataclass(frozen=True)
class TableBlock:
    """A table kept as verbatim markup, with its caption extracted."""

    markup: str
    caption: RichText = ()


@dataclass(frozen=True)
class FormulaBlock:
    markup: str
    notation: str | None = None


@dataclass(frozen=True)
class ListBlock:
    items: tuple = ()  # tuple of RichText


@dataclass(frozen=True)
class QuoteBlock:
    content: RichText = ()


@dataclass(frozen=True)
class OpaqueBlock:
    markup: str


Block = Union[
    Paragraph,
    CitBlock,
    FigureBlock,
    TableBlock,
    FormulaBlock,
    ListBlock,
    QuoteBlock,
    OpaqueBlock,
]


@dataclass(frozen=True)
class Division:
    """A ``div``: heading, block sequence, then nested divisions."""

    kind: str = "section"
    head: RichText = ()
    blocks: tuple = ()
    children: tuple = ()

    __eq__ = _nested_eq
    __repr__ = _nested_repr


@dataclass(frozen=True)
class ListBibl:
    entries: tuple = ()


@dataclass(frozen=True)
class BackMatter:
    divisions: tuple = ()
    reference_list: ListBibl | None = None


@dataclass(frozen=True)
class Article:
    id: str = ""
    header: Header = field(default_factory=Header)
    front: tuple = ()  # tuple[Division, ...]
    body: tuple = ()  # tuple[Division, ...]
    back: BackMatter = field(default_factory=BackMatter)
    ns_decls: tuple = ()  # extra (prefix, uri) bindings needed by opaque markup

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
