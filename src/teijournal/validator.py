"""Structural rule checking for parsed articles.

Twelve fixed rules, R1 through R12, each with a default severity. The
checks never raise on bad content: every problem becomes a Finding with a
rule id, a severity, a canonical model path, and a message. Findings are
ordered by document position, then by rule number, so output is stable
under repeated runs and diffs cleanly.
"""

from __future__ import annotations

from . import model as m
from .base import Finding, Record, factory
from .xmlio import model_paths


class Rule(Record):
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


class ValidatorConfig(Record):
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
    def __init__(self, article: m.Article, config: ValidatorConfig):
        self.article = article
        self.config = config
        self.nodes = model_paths(article)
        self.positions: dict = {}
        for rank, (path, node) in enumerate(self.nodes):
            self.positions.setdefault(id(node), (rank, path))
        text_ranks = [
            rank
            for rank, path in self.positions.values()
            if path.startswith("TEI[1]/text[1]")
        ]
        # where header-side synthetic findings sort relative to real nodes
        self.text_boundary = min(text_ranks) if text_ranks else 10**9
        self.collected: list = []

    def emit(self, node, rule_id: str, message: str, path: str | None = None):
        if isinstance(node, tuple):  # (rank, path) for synthetic locations
            rank, node_path = node
        else:
            rank, node_path = self.positions.get(id(node), (10**9, ""))
        severity = self.config.severity_overrides.get(
            rule_id, RULES[rule_id].severity
        )
        self.collected.append(
            (
                rank,
                int(rule_id[1:]),
                Finding(rule_id, severity, path or node_path, message),
            )
        )

    def findings(self) -> list:
        self.collected.sort(key=lambda item: (item[0], item[1]))
        return [finding for _, _, finding in self.collected]


def validate(
    article: m.Article, config: ValidatorConfig | None = None
) -> list:
    """Apply rules R1-R12 and return findings in document order."""
    config = config or ValidatorConfig()
    run = _Run(article, config)
    fd = article.header.file_desc
    fd_path = "TEI[1]/teiHeader[1]/fileDesc[1]"

    # R1: title and publication details present
    title_text = m.normalize_title(fd.main_title)
    has_pub = bool(fd.availability or fd.publication_date or fd.authority)
    if not title_text:
        run.emit(fd, "R1", "file description has no main title")
    if not has_pub:
        run.emit(
            fd,
            "R1",
            "file description has no publication details "
            "(availability, date, or authority)",
        )

    # R2: exactly one source record
    if fd.source is None:
        run.emit(
            fd,
            "R2",
            "file description carries no source bibliographic record",
            path=f"{fd_path}/sourceDesc[1]",
        )

    # R3: document title duplicates the source's article title
    source = fd.source
    analytic_title = None
    if source is not None and source.analytic is not None:
        for title in source.analytic.titles:
            if title.type == "main":
                analytic_title = title
                break
    if title_text and analytic_title is not None:
        if m.normalize_title(analytic_title.text) != title_text:
            run.emit(
                fd,
                "R3",
                "document title differs from the source record's "
                "article title",
                path=f"{fd_path}/titleStmt[1]/title[1]",
            )

    # R4: source record shape
    if source is not None:
        if source.analytic is None:
            run.emit(
                source, "R4", "source record has no article-level part"
            )
        else:
            if not source.analytic.authors:
                run.emit(source, "R4", "source record lists no authors")
            mains = [
                t for t in source.analytic.titles if t.type == "main"
            ]
            if len(mains) != 1:
                run.emit(
                    source,
                    "R4",
                    f"source article part has {len(mains)} main titles, "
                    "expected exactly one",
                )
        monogr_mains = [
            t for t in source.monogr.titles if t.type == "main"
        ]
        if len(monogr_mains) != 1:
            run.emit(
                source,
                "R4",
                f"source container part has {len(monogr_mains)} main "
                "titles, expected exactly one",
            )

    # Walk-driven rules over every registered node
    all_structs: list = []
    for path, node in run.nodes:
        if isinstance(node, m.BiblStruct):
            all_structs.append(node)
        elif isinstance(node, m.Scope):
            if node.kind not in m.SCOPE_KINDS:
                run.emit(
                    node,
                    "R5",
                    f"extent kind '{node.kind}' outside "
                    f"{{{', '.join(m.SCOPE_KINDS)}}}",
                )
        elif isinstance(node, m.Author):
            if not node.surname or not node.forenames:
                run.emit(
                    node,
                    "R6",
                    "author name incomplete (forename(s) and surname "
                    "expected)",
                )
            if node.corresponding and not node.email:
                run.emit(
                    node, "R6", "corresponding author has no email address"
                )
        elif isinstance(node, m.OrgUnit):
            if node.kind not in config.org_unit_vocabulary:
                run.emit(
                    node,
                    "R7",
                    f"organization unit kind '{node.kind}' outside the "
                    "configured vocabulary",
                )
        elif isinstance(node, m.Division):
            in_front = path.startswith("TEI[1]/text[1]/front[1]/")
            if node.kind == "abstract" and not in_front:
                run.emit(
                    node, "R8", "abstract division outside the front matter"
                )
        elif isinstance(node, m.BiblRef):
            _check_pointer(run, node, node.target)
        elif isinstance(node, m.CitBlock):
            if isinstance(node.source, str):
                _check_pointer(run, node, node.source)

    # R5, second half: fpage must not exceed lpage
    for struct in all_structs:
        fpage = _as_int(struct.scope("fpage"))
        lpage = _as_int(struct.scope("lpage"))
        if fpage is not None and lpage is not None and fpage > lpage:
            run.emit(
                struct,
                "R5",
                f"first page {fpage} exceeds last page {lpage}",
            )

    # R8: non-empty body (abstracts outside front are flagged in the walk)
    if not article.body:
        run.emit(
            (run.text_boundary - 0.25, "TEI[1]/text[1]/body[1]"),
            "R8",
            "body is empty",
        )

    # R10: revision changes in non-decreasing date order
    changes = article.header.revision_desc.changes
    for previous, current in zip(changes, changes[1:]):
        if current.when.sort_key() < previous.when.sort_key():
            run.emit(
                current,
                "R10",
                f"change dated {current.when.iso()} listed after "
                f"{previous.when.iso()}",
            )

    # R11: at least one keyword
    pd = article.header.profile_desc
    if not pd.keywords:
        run.emit(
            (run.text_boundary - 0.5, "TEI[1]/teiHeader[1]/profileDesc[1]"),
            "R11",
            "no keywords recorded",
        )

    # R12: reference-list entry ids unique; every entry titled
    listbibl = article.reference_list
    if listbibl is not None:
        seen: dict = {}
        for entry in listbibl.entries:
            if entry.xml_id is not None:
                if entry.xml_id in seen:
                    run.emit(
                        entry,
                        "R12",
                        f"duplicate reference id '{entry.xml_id}'",
                    )
                else:
                    seen[entry.xml_id] = entry
            if entry.main_title() is None:
                run.emit(entry, "R12", "reference entry has no main title")

    return run.findings()


def _check_pointer(run: _Run, node, target: str) -> None:
    try:
        resolved = m.resolve_ref(run.article, target)
    except ValueError:
        run.emit(
            node,
            "R9",
            f"malformed reference target {target!r} (expected '#id')",
        )
        return
    if resolved is None:
        run.emit(
            node,
            "R9",
            f"reference target {target!r} matches no reference-list entry",
        )


def _as_int(value: str | None) -> int | None:
    if value is None:
        return None
    try:
        return int(value.strip())
    except ValueError:
        return None
