"""Structural rule checking for parsed articles.

Twelve fixed rules, R1 through R12, each with a default severity. The
checks never raise on bad content: every problem becomes a Finding with a
rule id, a severity, a canonical model path, and a message. Findings are
ordered by document position, then by rule number, so output is stable
under repeated runs and diffs cleanly.
"""

from __future__ import annotations

from . import model as m
from .base import Finding, Record, factory, slotted
from .xmlio import model_paths


class Rule(Record, metaclass=slotted):
    id: str
    severity: str
    description: str


_RULE_LIST = (
    Rule(
        "R1",
        "error",
        "the header's file description must include a main title and "
        "publication details",
    ),
    Rule(
        "R2",
        "error",
        "the file description must carry exactly one source bibliographic "
        "record",
    ),
    Rule(
        "R3",
        "error",
        "the document title must equal the source record's article title "
        "after whitespace and markup normalization",
    ),
    Rule(
        "R4",
        "error",
        "the source record needs an article part with at least one author "
        "and exactly one main title, and its container part needs exactly "
        "one main title",
    ),
    Rule(
        "R5",
        "error",
        "bibliographic extents must use the kinds vol, issue, fpage, lpage "
        "or pp, and fpage must not exceed lpage",
    ),
    Rule(
        "R6",
        "warning",
        "every author should have forename(s) and a surname, and a "
        "corresponding author should have an email address",
    ),
    Rule(
        "R7",
        "warning",
        "organization unit kinds should come from the configured vocabulary",
    ),
    Rule(
        "R8",
        "error",
        "the text must have a non-empty body, and abstract divisions belong "
        "in the front matter",
    ),
    Rule(
        "R9",
        "error",
        "every citation pointer must resolve to a reference-list entry",
    ),
    Rule(
        "R10",
        "warning",
        "revision changes should appear in non-decreasing date order",
    ),
    Rule(
        "R11",
        "warning",
        "the profile should record at least one keyword",
    ),
    Rule(
        "R12",
        "error",
        "reference-list entries must have unique ids and each entry must "
        "carry a main title",
    ),
)

RULES: dict = {rule.id: rule for rule in _RULE_LIST}

_RATIONALE = {
    "R1": "Catalogue records are built from the file description; without a "
    "title and publication details the article cannot be identified or "
    "attributed.",
    "R2": "All article metadata hangs off a single structured source record; "
    "zero records leave authorship and provenance unrecorded, and more "
    "than one makes them ambiguous.",
    "R3": "Title duplication: the article title is stored both as the "
    "document title and inside the source record, and the two copies "
    "must stay in sync or discovery and citation output will disagree.",
    "R4": "The article part holds the contribution's own title and authors; "
    "the container part names the journal or book it appeared in. Both "
    "need exactly one main title to render a citation.",
    "R5": "The closed set of extent kinds is: vol (volume), issue (issue), "
    "fpage (first page), lpage (last page), pp (page count when exact "
    "bounds are unknown). A first page after the last page is a typo.",
    "R6": "Author records feed attribution and contact workflows; an "
    "incomplete name or a corresponding author without an email makes "
    "them unusable.",
    "R7": "Affiliations are comparable across articles only when their "
    "organization levels use a shared vocabulary (by default: "
    "laboratory, department, institution).",
    "R8": "An article without body text is an empty shell, and abstracts are "
    "front matter: rendering and indexing expect them there.",
    "R9": "Citations are useful only when each pointer lands on exactly one "
    "reference-list entry; a dangling or malformed target breaks the "
    "link between claim and source.",
    "R10": "The revision log reads as a history; out-of-order entries "
    "usually indicate a typo in a date.",
    "R11": "Keywords provide the quickest search entry point into the "
    "article.",
    "R12": "Reference-list ids are the anchors citations point at, so they "
    "must be unique, and an entry without a main title cannot be "
    "rendered in any citation style.",
}


class ValidatorConfig(Record, metaclass=slotted):
    org_unit_vocabulary: frozenset = frozenset(
        {"laboratory", "department", "institution"}
    )
    severity_overrides: dict = factory(dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "org_unit_vocabulary", frozenset(self.org_unit_vocabulary)
        )
        unknown = set(self.severity_overrides) - set(RULES)
        if unknown:
            raise ValueError(
                f"severity overrides for unknown rules: {sorted(unknown)}"
            )
        for rule, severity in self.severity_overrides.items():
            if severity not in ("error", "warning"):
                raise ValueError(
                    f"severity override for {rule} must be 'error' or 'warning', "
                    f"not {severity!r}"
                )


def explain(rule_id: str) -> str:
    """Human-readable description and rationale for one rule."""
    rule = RULES.get(rule_id)
    if rule is None:
        raise ValueError(f"unknown rule: {rule_id}")
    return (
        f"{rule.id} ({rule.severity}): {rule.description}.\n"
        f"{_RATIONALE[rule.id]}"
    )


class _Run:
    """One validation. Each rule fires when the shared walk reaches the node
    it reports on, and each node's checks emit in rule order, so findings
    come out in document order, then rule order, with no sort."""

    def __init__(self, article: m.Article, config: ValidatorConfig):
        self.article = article
        self.config = config
        self.findings: list = []

    def emit(self, path: str, rule_id: str, message: str) -> None:
        severity = self.config.severity_overrides.get(
            rule_id, RULES[rule_id].severity
        )
        self.findings.append(Finding(rule_id, severity, path, message))


def validate(
    article: m.Article, config: ValidatorConfig | None = None
) -> list:
    """Apply rules R1-R12 and return findings in document order."""
    config = config or ValidatorConfig()
    run = _Run(article, config)
    emit = run.emit
    absences_due = True
    previous_change = None
    seen_ids: set = set()
    for path, node in model_paths(article):
        if absences_due and path.startswith("TEI[1]/text[1]"):
            _check_absences(run)
            absences_due = False
        if isinstance(node, m.FileDesc):
            _check_file_desc(run, path, node)
        elif isinstance(node, m.BiblStruct):
            # the enclosing element tells the source record and the
            # reference-list entries from a cit's embedded source
            parent = path.rsplit("/", 2)[-2]
            if parent == "sourceDesc[1]":
                _check_source(run, path, node)
            # R5, second half: fpage must not exceed lpage
            fpage = _as_int(node.scope("fpage"))
            lpage = _as_int(node.scope("lpage"))
            if fpage is not None and lpage is not None and fpage > lpage:
                emit(
                    path, "R5", f"first page {fpage} exceeds last page {lpage}"
                )
            if parent == "listBibl[1]":
                # R12: reference-list entry ids unique; every entry titled
                if node.xml_id in seen_ids:
                    emit(
                        path, "R12", f"duplicate reference id {node.xml_id!r}"
                    )
                elif node.xml_id is not None:
                    seen_ids.add(node.xml_id)
                title = node.main_title()
                if title is None or not m.normalize_title(title.text):
                    emit(path, "R12", "reference entry has no main title")
        elif isinstance(node, m.Scope):
            if node.kind not in m.SCOPE_KINDS:
                emit(
                    path,
                    "R5",
                    f"extent kind {node.kind!r} outside "
                    f"{{{', '.join(m.SCOPE_KINDS)}}}",
                )
        elif isinstance(node, m.Author):
            if not node.surname or not node.forenames:
                emit(
                    path,
                    "R6",
                    "author name incomplete (forename(s) and surname "
                    "expected)",
                )
            if node.corresponding and not node.email:
                emit(path, "R6", "corresponding author has no email address")
        elif isinstance(node, m.OrgUnit):
            if node.kind not in config.org_unit_vocabulary:
                emit(
                    path,
                    "R7",
                    f"organization unit kind {node.kind!r} outside the "
                    "configured vocabulary",
                )
        elif isinstance(node, m.Division):
            in_front = path.startswith("TEI[1]/text[1]/front[1]/")
            if node.kind == "abstract" and not in_front:
                emit(path, "R8", "abstract division outside the front matter")
        elif isinstance(node, m.BiblRef):
            _check_pointer(run, path, node.target)
        elif isinstance(node, m.CitBlock):
            if isinstance(node.source, str):
                _check_pointer(run, path, node.source)
        elif isinstance(node, m.Change):
            # R10: revision changes in non-decreasing date order
            previous, previous_change = previous_change, node
            if previous is not None and (
                node.when.sort_key() < previous.when.sort_key()
            ):
                emit(
                    path,
                    "R10",
                    f"change dated {node.when.iso()} listed after "
                    f"{previous.when.iso()}",
                )
    if absences_due:
        _check_absences(run)
    return run.findings


def _check_absences(run: _Run) -> None:
    """R11 and R8's empty body, reported just before the text's first
    node, or last when the text holds none."""
    if not run.article.header.profile_desc.keywords:
        run.emit(
            "TEI[1]/teiHeader[1]/profileDesc[1]", "R11", "no keywords recorded"
        )
    if not run.article.body:
        run.emit("TEI[1]/text[1]/body[1]", "R8", "body is empty")


def _check_file_desc(run: _Run, path: str, fd: m.FileDesc) -> None:
    """R1-R3, reported at the file description or the element at fault."""
    # R1: title and publication details present
    title_text = m.normalize_title(fd.main_title)
    if not title_text:
        run.emit(path, "R1", "file description has no main title")
    if not (fd.availability or fd.publication_date or fd.authority):
        run.emit(
            path,
            "R1",
            "file description has no publication details "
            "(availability, date, or authority)",
        )
    # R2: exactly one source record
    if fd.source is None:
        run.emit(
            f"{path}/sourceDesc[1]",
            "R2",
            "file description carries no source bibliographic record",
        )
        return
    # R3: document title duplicates the source's article title
    titles = fd.source.analytic.titles if fd.source.analytic else ()
    mains = [t for t in titles if t.type == "main"]
    if title_text and mains and m.normalize_title(mains[0].text) != title_text:
        run.emit(
            f"{path}/titleStmt[1]/title[1]",
            "R3",
            "document title differs from the source record's article title",
        )


def _check_source(run: _Run, path: str, source: m.BiblStruct) -> None:
    """R4: the source record's shape."""
    if source.analytic is None:
        run.emit(path, "R4", "source record has no article-level part")
    else:
        if not source.analytic.authors:
            run.emit(path, "R4", "source record lists no authors")
        mains = [t for t in source.analytic.titles if t.type == "main"]
        if len(mains) != 1:
            run.emit(
                path,
                "R4",
                f"source article part has {len(mains)} main titles, "
                "expected exactly one",
            )
    monogr_mains = [t for t in source.monogr.titles if t.type == "main"]
    if len(monogr_mains) != 1:
        run.emit(
            path,
            "R4",
            f"source container part has {len(monogr_mains)} main "
            "titles, expected exactly one",
        )


def _check_pointer(run: _Run, path: str, target: str) -> None:
    try:
        resolved = m.resolve_ref(run.article, target)
    except ValueError:
        run.emit(
            path,
            "R9",
            f"malformed reference target {target!r} (expected '#id')",
        )
        return
    if resolved is None:
        run.emit(
            path,
            "R9",
            f"reference target {target!r} matches no reference-list entry",
        )


def _as_int(value: str | None) -> int | None:
    """A page number in ASCII digits, as ``model._DATE_RE`` reads a year:
    other scripts' digits, signs and ``_`` separators are no number."""
    value = (value or "").strip()
    return int(value) if value.isascii() and value.isdigit() else None
