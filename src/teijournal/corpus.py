"""Cross-document products over a collection of articles.

A :class:`Corpus` is an immutable id-keyed snapshot of a set of parsed
articles.  Everything derived from it — mention indexes, the unified
bibliography, the corrigenda page, structural query hits — is a pure
function of that snapshot, so products can be rebuilt at any time and two
runs over the same files always agree.

Locators reuse the canonical model paths from
:func:`teijournal.xmlio.model_paths`, the walk each article shares with the
validator and the renderers, so index output, validator
findings, and schema findings all address document parts the same way.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from operator import attrgetter

from . import model as m
from .base import MENTION_KINDS, QUERY_KINDS, Finding, Record, factory, slotted
from .render import (
    StyleGuide,
    builtin_style,
    element,
    entry_or_fallback,
    entry_sort_key,
    escape_text,
    format_authors,
    xhtml_page,
)
from .xmlio import ParseReport, model_paths, parse_article

#: The seven index kinds, in output order.
INDEX_KINDS = (
    "abbreviation",
    "author",
    "keyword",
    "organization",
    "person",
    "place",
    "software",
)

_SOURCE_PREFIX = "TEI[1]/teiHeader[1]/fileDesc[1]/sourceDesc[1]/"

# Mention class -> (index kind, query kind), from ``base.MENTION_KINDS``.
_MENTION_KINDS = {getattr(m, name): kinds for name, kinds in MENTION_KINDS.items()}


class Corpus(Record, metaclass=slotted):
    """Parsed articles keyed by document id, plus per-file load reports.

    ``load_reports`` holds one report per file, keyed by its path in load
    order.  A file that failed to parse, or was rejected as an id
    duplicate, has a report there and no article.
    """

    articles: dict = factory(dict)  # id -> Article
    load_reports: dict = factory(dict)  # path -> ParseReport
    paths: dict = factory(dict)  # id -> source path

    def ids(self) -> list:
        return sorted(self.articles)


class IndexEntry(Record, metaclass=slotted):
    kind: str
    key: str
    display: str
    locators: tuple  # tuple[(article id, model path), ...] deduplicated, sorted


class CorrigendaEntry(Record, metaclass=slotted):
    article_id: str
    when: m.CalendarDate
    description: str


class Query(Record, metaclass=slotted):
    """Conjunctive structural search filters; at least one must be set.

    ``element_kind`` restricts which nodes can match (``person-mention``,
    ``org-mention``, ``place-mention``, ``term-mention``, ``abbreviation``,
    or ``any`` for mentions plus paragraph text).  ``text`` is a casefolded
    substring test on the node's text.  The date bounds apply to the
    article's header publication date; ``cites_author_surname`` keeps only
    articles whose reference list names that surname (either level).
    """

    element_kind: str | None = None
    text: str | None = None
    date_from: m.CalendarDate | None = None
    date_to: m.CalendarDate | None = None
    cites_author_surname: str | None = None

    def __post_init__(self) -> None:
        if (
            self.element_kind is None
            and self.text is None
            and self.date_from is None
            and self.date_to is None
            and self.cites_author_surname is None
        ):
            raise ValueError("a query needs at least one filter")
        if self.element_kind is not None and self.element_kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown element kind {self.element_kind!r} (have {', '.join(QUERY_KINDS)})"
            )


# --------------------------------------------------------------------------
# Loading
# --------------------------------------------------------------------------


def _error(code: str, message: str) -> ParseReport:
    return ParseReport(issues=(Finding(code, "error", "", message),))


def load_corpus(paths) -> Corpus:
    """Parse a list of files into a corpus; never aborts on a bad file.

    Each file's report is filed under its path, in list order, and a path
    listed twice is read once.  A file that cannot be read or parsed adds
    only an error report.  Of two files that derive the same document id,
    the first in the list is kept and the other gets a duplicate-id report.
    """
    articles: dict = {}
    reports: dict = {}
    sources: dict = {}
    for name in dict.fromkeys(map(str, paths)):
        try:
            with open(name, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            reports[name] = _error("P-unreadable", f"cannot read {name}: {exc}")
            continue
        report = reports[name] = parse_article(data, name)
        if not report.ok:
            continue
        article = report.outcome
        if article.id in articles:
            reports[name] = _error("P-duplicate-id", f"duplicate document id {article.id!r}: "
                                   f"already loaded from {sources[article.id]}")
            continue
        articles[article.id] = article
        sources[article.id] = name
    return Corpus(articles=articles, load_reports=reports, paths=sources)


# --------------------------------------------------------------------------
# Indexes
# --------------------------------------------------------------------------


def _mention_kind_and_text(path: str, node) -> tuple:
    """Classify one walker node for indexing; (None, "") when not indexed."""
    if isinstance(node, m.Author):
        if path.startswith(_SOURCE_PREFIX):
            return "author", format_authors((node,), "surname-first-full")
        return None, ""
    if isinstance(node, m.Keyword):
        return "keyword", node.term
    kinds = _MENTION_KINDS.get(type(node))
    if kinds is None or (isinstance(node, m.TermMention) and node.kind != "software"):
        return None, ""
    return kinds[0], m.plain_text((node,))


def _norm_key(text: str) -> str:
    return " ".join(text.split()).casefold()


def build_indexes(corpus: Corpus, kinds=None) -> list:
    """Mention indexes grouped by (kind, normalized key).

    Every indexed node contributes exactly one locator; the display form is
    the most frequent original spelling (ties resolved alphabetically).
    Entries come back sorted by kind then key.
    """
    wanted = set(INDEX_KINDS) if kinds is None else set(kinds)
    unknown = wanted - set(INDEX_KINDS)
    if unknown:
        raise ValueError(f"unknown index kinds: {', '.join(sorted(unknown))}")

    displays: dict = {}
    locators: dict = {}
    for doc_id in sorted(corpus.articles):
        article = corpus.articles[doc_id]
        for path, node in model_paths(article):
            kind, raw = _mention_kind_and_text(path, node)
            if kind is None or kind not in wanted:
                continue
            key = _norm_key(raw)
            if not key:
                continue
            group = (kind, key)
            displays.setdefault(group, Counter())[" ".join(raw.split())] += 1
            locators.setdefault(group, []).append((doc_id, path))

    entries = []
    for kind, key in sorted(displays):
        counts = displays[(kind, key)]
        display = sorted(counts, key=lambda t: (-counts[t], t))[0]
        locs = tuple(sorted(set(locators[(kind, key)])))
        entries.append(IndexEntry(kind=kind, key=key, display=display, locators=locs))
    return entries


# --------------------------------------------------------------------------
# Unified bibliography
# --------------------------------------------------------------------------


def _dedup_key(record: m.BiblStruct) -> tuple:
    """DOI when present; else (lead surname, year, normalized title).

    The two key families are kept disjoint by a leading tag, which also
    gives the pooled list a total order.
    """
    doi = record.identifier("doi")
    if doi:
        return ("doi", doi.casefold())
    surname, year, title_text = entry_sort_key(record)  # year 0: undated
    return ("meta", surname, f"{year:04d}" if year else "", title_text)


def unified_bibliography(corpus: Corpus) -> list:
    """Pool all reference lists, merging duplicates.

    Returns ``(BiblStruct, citing article ids)`` pairs sorted by the
    deduplication key; the first-encountered record wins for a merged
    entry and citing ids are sorted.
    """
    pooled: dict = {}
    citing: dict = {}
    for doc_id in sorted(corpus.articles):
        article = corpus.articles[doc_id]
        listbibl = article.reference_list
        if listbibl is None:
            continue
        for record in listbibl.entries:
            key = _dedup_key(record)
            pooled.setdefault(key, record)
            citing.setdefault(key, set()).add(doc_id)
    return [(pooled[key], tuple(sorted(citing[key]))) for key in sorted(pooled)]


# --------------------------------------------------------------------------
# Corrigenda
# --------------------------------------------------------------------------


def corrigenda(corpus: Corpus, kind: str = "correction") -> list:
    """All revision changes of the given kind, newest first.

    Ties on date are broken by article id so the page is stable.
    """
    entries = []
    for doc_id in sorted(corpus.articles):
        article = corpus.articles[doc_id]
        for change in article.header.revision_desc.changes:
            if change.kind == kind:
                entries.append(
                    CorrigendaEntry(
                        article_id=doc_id,
                        when=change.when,
                        description=change.description,
                    )
                )
    entries.sort(key=lambda e: (tuple(-part for part in e.when.sort_key()), e.article_id))
    return entries


# --------------------------------------------------------------------------
# Structural query
# --------------------------------------------------------------------------


def _query_nodes(article: m.Article, element_kind: str | None):
    """(path, text) pairs for nodes a query may match."""
    kind = element_kind or "any"
    for path, node in model_paths(article):
        kinds = _MENTION_KINDS.get(type(node))
        if kinds is not None:
            if kind in ("any", kinds[1]):
                yield path, m.plain_text((node,))
        elif kind == "any" and isinstance(node, m.Paragraph):
            yield path, m.plain_text(node.content)


def _date_in_range(article: m.Article, q: Query) -> bool:
    if q.date_from is None and q.date_to is None:
        return True
    date = m.document_date(article)
    if date is None:
        return False
    if q.date_from is not None and date.sort_key() < q.date_from.sort_key():
        return False
    if q.date_to is not None and date.sort_key() > q.date_to.end_key():
        return False
    return True


def _cites_surname(article: m.Article, surname: str) -> bool:
    listbibl = article.reference_list
    if listbibl is None:
        return False
    wanted = surname.casefold()
    for record in listbibl.entries:
        analytic_authors = record.analytic.authors if record.analytic else ()
        for author in (*analytic_authors, *record.monogr.authors):
            if author.surname.casefold() == wanted:
                return True
    return False


def query(corpus: Corpus, q: Query) -> list:
    """Run one structural query; hits are (article id, path, snippet).

    All filters are conjunctive.  The snippet is the matched node's
    whitespace-normalized text.
    """
    hits = []
    needle = q.text.casefold() if q.text is not None else None
    for doc_id in sorted(corpus.articles):
        article = corpus.articles[doc_id]
        if not _date_in_range(article, q):
            continue
        if q.cites_author_surname is not None and not _cites_surname(
            article, q.cites_author_surname
        ):
            continue
        for path, text in _query_nodes(article, q.element_kind):
            if needle is not None and needle not in text.casefold():
                continue
            hits.append((doc_id, path, " ".join(text.split())))
    hits.sort(key=lambda h: (h[0], h[1]))
    return hits


# --------------------------------------------------------------------------
# Product pages (XHTML) and machine-readable records
# --------------------------------------------------------------------------


def index_xhtml(entries) -> str:
    """The index as a standalone page (``tj-index``)."""
    parts = []
    for kind, group in groupby(entries, key=attrgetter("kind")):
        items = []
        for entry in group:
            refs = ", ".join(f"{doc_id}:{path}" for doc_id, path in entry.locators)
            locators = element("span", escape_text(refs), {"class": "tj-locators"})
            items.append(element("li", escape_text(f"{entry.display} — ") + locators))
        parts.append(element("h2", escape_text(kind)) + element("ul", "".join(items)))
    body = element("div", "".join(parts), {"class": "tj-index"})
    return xhtml_page("Index", element("h1", "Index") + body)


def unified_bibliography_xhtml(items, style: StyleGuide | None = None) -> str:
    """The pooled bibliography as a standalone page (``tj-unibib``)."""
    style = style or builtin_style("chicago")
    lines = []
    for record, citing in items:
        entry = escape_text(entry_or_fallback(record, style).plain() + " ")
        cited_by = escape_text(f"(cited by: {', '.join(citing)})")
        lines.append(element("li", entry + element("span", cited_by, {"class": "tj-citing"})))
    body = element("div", element("ul", "".join(lines)), {"class": "tj-unibib"})
    return xhtml_page("Unified Bibliography", element("h1", "Unified Bibliography") + body)


def corrigenda_xhtml(entries) -> str:
    """The corrigenda as a standalone page (``tj-corrigenda``)."""
    lines = "".join(
        element("li", escape_text(f"{e.when.iso()} — {e.article_id}: {e.description}"))
        for e in entries
    )
    body = element("div", element("ul", lines), {"class": "tj-corrigenda"})
    return xhtml_page("Corrigenda", element("h1", "Corrigenda") + body)


def query_xhtml(hits) -> str:
    """Query hits as a standalone page (``tj-query``)."""
    lines = "".join(
        element("li", escape_text(f"{doc_id}:{path} — {snippet}"))
        for doc_id, path, snippet in hits
    )
    body = element("div", element("ul", lines), {"class": "tj-query"})
    return xhtml_page("Query results", element("h1", "Query results") + body)


def index_records(entries) -> list:
    """Index as (kind, file, path, code, message) record tuples."""
    out = []
    for entry in entries:
        for doc_id, path in entry.locators:
            out.append((entry.kind, doc_id, path, entry.key, entry.display))
    return out


def biblio_records(items, style: StyleGuide | None = None) -> list:
    style = style or builtin_style("chicago")
    out = []
    for record, citing in items:
        key = "/".join(_dedup_key(record))
        out.append(("biblio", ",".join(citing), "", key, entry_or_fallback(record, style).plain()))
    return out


def corrigenda_records(entries) -> list:
    return [
        ("corrigendum", e.article_id, "", e.when.iso(), e.description) for e in entries
    ]


def query_records(hits) -> list:
    return [("hit", doc_id, path, "", snippet) for doc_id, path, snippet in hits]
