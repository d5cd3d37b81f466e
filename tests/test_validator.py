"""Rule checks: a clean baseline, then one targeted defect per rule."""

import dataclasses
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teijournal import model as m
from teijournal.render import StyleError, builtin_style, format_entry
from teijournal.validator import (
    RULES,
    Finding,
    ValidatorConfig,
    _as_int,
    explain,
    validate,
)
from teijournal.xmlio import model_paths, parse_article

from support import (
    SKELETON,
    TEI_NS,
    XML_NS,
    article_bytes,
    parse_skeleton,
    replace_source,
    schmidt_chapter_record,
    with_changes,
    with_entries,
    with_file_desc,
    with_profile_desc,
    with_source,
)


def only_finding(article, config=None) -> Finding:
    findings = validate(article, config)
    assert len(findings) == 1, findings
    return findings[0]


def test_rule_table_is_fixed():
    assert sorted(RULES, key=lambda r: int(r[1:])) == [f"R{n}" for n in range(1, 13)]
    assert {r.severity for r in RULES.values()} == {"error", "warning"}
    assert all(r.description for r in RULES.values())


def test_completed_skeleton_is_clean():
    assert validate(parse_skeleton()) == []


class TestEachRuleFiresAlone:
    def test_r1_missing_publication_details(self):
        article = with_file_desc(
            parse_skeleton(), availability=(), publication_date=None, authority=""
        )
        finding = only_finding(article)
        assert finding.rule_id == "R1"
        assert finding.severity == "error"
        assert finding.location == "TEI[1]/teiHeader[1]/fileDesc[1]"

    def test_r1_missing_title_suppresses_r3(self):
        article = with_file_desc(parse_skeleton(), main_title=())
        finding = only_finding(article)
        assert finding.rule_id == "R1"
        assert "title" in finding.message

    def test_r2_no_source_record(self):
        finding = only_finding(with_source(parse_skeleton(), None))
        assert finding.rule_id == "R2"
        assert finding.location.endswith("sourceDesc[1]")

    def test_r3_title_mismatch(self):
        article = with_file_desc(
            parse_skeleton(), main_title=(m.TextRun("A Different Title"),)
        )
        finding = only_finding(article)
        assert finding.rule_id == "R3"
        assert finding.location.endswith("titleStmt[1]/title[1]")

    def test_r3_tolerates_whitespace_and_markup_differences(self):
        article = with_file_desc(
            parse_skeleton(),
            main_title=(
                m.TextRun("  Multilocus   Analysis of "),
                m.Emph("italic", (m.TextRun("Age Related"),)),
                m.TextRun(" Macular Degeneration "),
            ),
        )
        assert validate(article) == []

    def test_r4_no_authors(self):
        source = parse_skeleton().header.file_desc.source
        bare = dataclasses.replace(source, analytic=dataclasses.replace(source.analytic, authors=()))
        finding = only_finding(with_source(parse_skeleton(), bare))
        assert finding.rule_id == "R4"
        assert "authors" in finding.message

    def test_r5_unknown_extent_kind(self):
        source = parse_skeleton().header.file_desc.source
        imprint = source.monogr.imprint
        scopes = imprint.scopes + (m.Scope("chapter", "3"),)
        patched = dataclasses.replace(
            source,
            monogr=dataclasses.replace(
                source.monogr, imprint=dataclasses.replace(imprint, scopes=scopes)
            ),
        )
        finding = only_finding(with_source(parse_skeleton(), patched))
        assert finding.rule_id == "R5"
        assert "'chapter'" in finding.message

    def test_r5_inverted_page_range(self):
        source = parse_skeleton().header.file_desc.source
        imprint = source.monogr.imprint
        scopes = tuple(
            dataclasses.replace(s, value="900") if s.kind == "fpage" else s
            for s in imprint.scopes
        )
        patched = dataclasses.replace(
            source,
            monogr=dataclasses.replace(
                source.monogr, imprint=dataclasses.replace(imprint, scopes=scopes)
            ),
        )
        finding = only_finding(with_source(parse_skeleton(), patched))
        assert finding.rule_id == "R5"
        assert "900" in finding.message and "780" in finding.message

    def test_r6_incomplete_author_name(self):
        source = parse_skeleton().header.file_desc.source
        author = dataclasses.replace(source.analytic.authors[0], surname="")
        patched = dataclasses.replace(
            source, analytic=dataclasses.replace(source.analytic, authors=(author,))
        )
        finding = only_finding(with_source(parse_skeleton(), patched))
        assert finding.rule_id == "R6"
        assert finding.severity == "warning"

    def test_r6_corresponding_author_without_email(self):
        source = parse_skeleton().header.file_desc.source
        author = dataclasses.replace(source.analytic.authors[0], email=None)
        patched = dataclasses.replace(
            source, analytic=dataclasses.replace(source.analytic, authors=(author,))
        )
        finding = only_finding(with_source(parse_skeleton(), patched))
        assert finding.rule_id == "R6"
        assert "email" in finding.message

    def test_r7_org_unit_outside_vocabulary(self):
        source = parse_skeleton().header.file_desc.source
        author = source.analytic.authors[0]
        units = (m.OrgUnit("workgroup", "CSA Department"),) + author.affiliation.org_units[1:]
        patched_author = dataclasses.replace(
            author, affiliation=dataclasses.replace(author.affiliation, org_units=units)
        )
        patched = dataclasses.replace(
            source,
            analytic=dataclasses.replace(source.analytic, authors=(patched_author,)),
        )
        finding = only_finding(with_source(parse_skeleton(), patched))
        assert finding.rule_id == "R7"
        assert "'workgroup'" in finding.message
        assert finding.location.endswith("orgName[1]")

    def test_r7_vocabulary_is_configurable(self):
        config = ValidatorConfig(org_unit_vocabulary={"institution"})
        findings = validate(parse_skeleton(), config)
        assert [f.rule_id for f in findings] == ["R7"]
        assert "'laboratory'" in findings[0].message

    def test_r8_empty_body(self):
        finding = only_finding(dataclasses.replace(parse_skeleton(), body=()))
        assert finding.rule_id == "R8"
        assert finding.location == "TEI[1]/text[1]/body[1]"

    def test_r8_abstract_in_body(self):
        article = parse_skeleton()
        abstract = m.Division(
            kind="abstract", blocks=(m.Paragraph((m.TextRun("Summary."),)),)
        )
        finding = only_finding(
            dataclasses.replace(article, body=article.body + (abstract,))
        )
        assert finding.rule_id == "R8"
        assert "abstract" in finding.message

    def test_r9_dangling_pointer(self):
        data = SKELETON.replace(b'target="#b1"', b'target="#b9"')
        report = parse_article(data, "skeleton.xml")
        assert report.ok and not report.issues
        finding = only_finding(report.outcome)
        assert finding.rule_id == "R9"
        assert "#b9" in finding.message
        assert "/ref[1]" in finding.location

    def test_r9_malformed_pointer_in_cit(self):
        article = parse_skeleton()
        cit = m.CitBlock(quote=(m.TextRun("Q"),), source="b1")  # no leading '#'
        division = m.Division(kind="section", blocks=(cit,))
        finding = only_finding(
            dataclasses.replace(article, body=article.body + (division,))
        )
        assert finding.rule_id == "R9"

    def test_r10_out_of_order_changes(self):
        changes = parse_skeleton().header.revision_desc.changes
        finding = only_finding(with_changes(parse_skeleton(), changes[::-1]))
        assert finding.rule_id == "R10"
        assert "2008-08-27" in finding.message

    def test_r11_no_keywords(self):
        finding = only_finding(with_profile_desc(parse_skeleton(), keywords=()))
        assert finding.rule_id == "R11"
        assert finding.severity == "warning"
        assert finding.location == "TEI[1]/teiHeader[1]/profileDesc[1]"

    def test_r12_duplicate_entry_id(self):
        article = parse_skeleton()
        extra = dataclasses.replace(schmidt_chapter_record(), xml_id="b1")
        entries = article.reference_list.entries + (extra,)
        finding = only_finding(with_entries(article, entries))
        assert finding.rule_id == "R12"
        assert "'b1'" in finding.message

    def test_r12_untitled_entry(self):
        article = parse_skeleton()
        untitled = m.BiblStruct(
            doc_type=m.DocumentType("book"), monogr=m.Monogr(), xml_id="b8"
        )
        finding = only_finding(
            with_entries(article, article.reference_list.entries + (untitled,))
        )
        assert finding.rule_id == "R12"
        assert "title" in finding.message

    @pytest.mark.parametrize(
        "entry",
        [
            '<monogr><title level="m" type="main">  </title>'
            '<imprint><date when="2001"/></imprint></monogr>',
            '<analytic><title level="a" type="main"> <hi rend="italic"> </hi></title></analytic>'
            '<monogr><title level="j" type="main">Host</title>'
            '<imprint><date when="2001"/></imprint></monogr>',
        ],
        ids=["blank-monogr-title", "blank-analytic-title-beside-a-titled-monogr"],
    )
    def test_r12_blank_main_title_as_the_renderer_reads_it(self, entry):
        refs = f'<biblStruct type="book" xml:id="r1">{entry}</biblStruct>'
        body = '<div type="section"><p>See <ref type="bibr" target="#r1">1</ref>.</p></div>'
        report = parse_article(article_bytes(title="T", refs=refs, body=body), "t.xml")
        assert report.ok and not report.issues
        finding = only_finding(report.outcome)
        assert (finding.rule_id, finding.message) == ("R12", "reference entry has no main title")
        assert finding.location == "TEI[1]/text[1]/back[1]/listBibl[1]/biblStruct[1]"
        record = report.outcome.reference_list.entries[0]
        with pytest.raises(StyleError, match="no main title"):
            format_entry(record, builtin_style("apa"))


class TestOrderingAndConfig:
    def test_findings_follow_document_position(self):
        # Header-side defect (R11) must precede a body-side defect (R9).
        data = SKELETON.replace(b'target="#b1"', b'target="#b9"')
        article = parse_article(data, "skeleton.xml").outcome
        article = with_profile_desc(article, keywords=())
        assert [f.rule_id for f in validate(article)] == ["R11", "R9"]

    def test_same_position_breaks_ties_by_rule_number(self):
        article = with_file_desc(
            with_source(parse_skeleton(), None),
            availability=(),
            publication_date=None,
            authority="",
        )
        assert [f.rule_id for f in validate(article)] == ["R1", "R2"]

    def test_severity_override_changes_severity_only(self):
        data = SKELETON.replace(b'target="#b1"', b'target="#b9"')
        article = parse_article(data, "skeleton.xml").outcome
        config = ValidatorConfig(severity_overrides={"R9": "warning"})
        default = only_finding(article)
        overridden = only_finding(article, config)
        assert overridden == dataclasses.replace(default, severity="warning")

    def test_override_does_not_suppress(self):
        config = ValidatorConfig(severity_overrides={"R11": "error"})
        finding = only_finding(
            with_profile_desc(parse_skeleton(), keywords=()), config
        )
        assert (finding.rule_id, finding.severity) == ("R11", "error")

    def test_unknown_override_rule_rejected(self):
        with pytest.raises(ValueError, match="R99"):
            ValidatorConfig(severity_overrides={"R99": "warning"})

    def test_bad_override_severity_rejected(self):
        with pytest.raises(ValueError, match="fatal"):
            ValidatorConfig(severity_overrides={"R9": "fatal"})
        with pytest.raises(ValueError, match="R1 must be 'error' or 'warning', not \\[\\]"):
            ValidatorConfig(severity_overrides={"R1": []})

    def test_validate_is_pure(self):
        article = parse_skeleton()
        first = validate(article)
        second = validate(article)
        assert first == second == []
        assert article == parse_skeleton()


class TestExplain:
    def test_explains_every_rule(self):
        for rule_id, rule in RULES.items():
            text = explain(rule_id)
            assert text.startswith(f"{rule_id} ({rule.severity}):")
            assert "\n" in text  # description line plus rationale line

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="R0"):
            explain("R0")


class TestRulesOnTheSourceAndEntries:
    """R4's findings each alone, and the order of several findings on one
    record: rule order, then the order the checks list them in."""

    SOURCE = "TEI[1]/teiHeader[1]/fileDesc[1]/sourceDesc[1]/biblStruct[1]"

    def test_r4_no_article_level_part(self):
        article = replace_source(parse_skeleton(), analytic=None)
        finding = only_finding(article)
        assert (finding.rule_id, finding.location) == ("R4", self.SOURCE)
        assert finding.message == "source record has no article-level part"

    def test_r4_analytic_main_title_count(self):
        source = parse_skeleton().header.file_desc.source
        main = source.analytic.titles[0]
        for titles, count in (((main, main), 2), ((dataclasses.replace(main, type="sub"),), 0)):
            analytic = dataclasses.replace(source.analytic, titles=titles)
            finding = only_finding(replace_source(parse_skeleton(), analytic=analytic))
            assert (finding.rule_id, finding.location) == ("R4", self.SOURCE)
            assert finding.message == (
                f"source article part has {count} main titles, expected exactly one"
            )

    def test_r4_container_main_title_count(self):
        source = parse_skeleton().header.file_desc.source
        titles = tuple(dataclasses.replace(t, type="sub") for t in source.monogr.titles)
        monogr = dataclasses.replace(source.monogr, titles=titles)
        finding = only_finding(replace_source(parse_skeleton(), monogr=monogr))
        assert (finding.rule_id, finding.location) == ("R4", self.SOURCE)
        assert finding.message == (
            "source container part has 0 main titles, expected exactly one"
        )

    def test_r4_then_r5_on_the_source(self):
        data = SKELETON.replace(
            b'<biblScope type="fpage">774</biblScope>', b'<biblScope type="fpage">900</biblScope>'
        )
        article = parse_article(data, "skeleton.xml").outcome
        source = article.header.file_desc.source
        article = replace_source(
            article, analytic=dataclasses.replace(source.analytic, authors=())
        )
        assert [(f.rule_id, f.location, f.message) for f in validate(article)] == [
            ("R4", self.SOURCE, "source record lists no authors"),
            ("R5", self.SOURCE, "first page 900 exceeds last page 780"),
        ]

    def test_r5_then_both_r12_on_one_entry(self):
        article = parse_skeleton()
        twin = m.BiblStruct(
            monogr=m.Monogr(
                imprint=m.Imprint(scopes=(m.Scope("fpage", "9"), m.Scope("lpage", "3")))
            ),
            xml_id="b1",
        )
        article = with_entries(article, article.reference_list.entries + (twin,))
        entry = "TEI[1]/text[1]/back[1]/listBibl[1]/biblStruct[2]"
        assert [(f.rule_id, f.location, f.message) for f in validate(article)] == [
            ("R5", entry, "first page 9 exceeds last page 3"),
            ("R12", entry, "duplicate reference id 'b1'"),
            ("R12", entry, "reference entry has no main title"),
        ]

    @pytest.mark.parametrize(
        "fpage, lpage, messages",
        [
            ("20", "3", ["first page 20 exceeds last page 3"]),
            (" 20\n", "\t3 ", ["first page 20 exceeds last page 3"]),
            ("3", "20", []),
            # only ASCII digits are a page number, as in a date
            ("2_0", "3", []),
            ("\u0662\u0660", "3", []),  # Arabic-Indic 20
            ("20", "\u0663", []),
            ("+20", "3", []),
            ("\uff12\uff10", "3", []),  # fullwidth 20
        ],
    )
    def test_r5_reads_pages_in_ascii_digits_only(self, fpage, lpage, messages):
        refs = _entry("r1", "First", fpage, lpage)
        body = '<div type="section"><p>See <ref type="bibr" target="#r1">1</ref>.</p></div>'
        report = parse_article(article_bytes(title="T", refs=refs, body=body), "t.xml")
        assert report.ok and not report.issues
        findings = validate(report.outcome)
        assert [f.message for f in findings if f.rule_id == "R5"] == messages

    def test_r11_and_r8_come_before_the_text_or_last(self):
        article = dataclasses.replace(
            with_profile_desc(parse_skeleton(), keywords=()), body=()
        )
        findings = validate(article)
        assert [f.rule_id for f in findings] == ["R11", "R8"]
        bare = dataclasses.replace(article, back=m.BackMatter())
        assert validate(bare) == findings
        front = dataclasses.replace(bare, front=(m.Division("abstract"),))
        assert validate(front) == findings
        # <text><body/></text>: no node of the text is walked
        empty = dataclasses.replace(bare, front=())
        assert not any(path.startswith("TEI[1]/text[1]") for path, _ in model_paths(empty))
        assert validate(empty) == findings


# --------------------------------------------------------------------------
# The validator that the one ordered pass replaced, kept as its oracle: it
# ranks every node by its first place in the walk, gives the absences
# synthetic ranks just before the text, and sorts by rank, then rule.
# --------------------------------------------------------------------------


class _RankedRun:
    def __init__(self, article: m.Article, config: ValidatorConfig):
        self.article = article
        self.config = config
        self.nodes = model_paths(article)
        self.positions: dict = {}
        for rank, (path, node) in enumerate(self.nodes):
            self.positions.setdefault(id(node), (rank, path))
        text_ranks = [
            rank for rank, path in self.positions.values() if path.startswith("TEI[1]/text[1]")
        ]
        self.text_boundary = min(text_ranks) if text_ranks else 10**9
        self.collected: list = []

    def emit(self, node, rule_id: str, message: str, path: str | None = None):
        if isinstance(node, tuple):  # (rank, path) for synthetic locations
            rank, node_path = node
        else:
            rank, node_path = self.positions.get(id(node), (10**9, ""))
        severity = self.config.severity_overrides.get(rule_id, RULES[rule_id].severity)
        self.collected.append(
            (rank, int(rule_id[1:]), Finding(rule_id, severity, path or node_path, message))
        )

    def findings(self) -> list:
        self.collected.sort(key=lambda item: (item[0], item[1]))
        return [finding for _, _, finding in self.collected]


def validate_oracle(article: m.Article, config: ValidatorConfig | None = None) -> list:
    config = config or ValidatorConfig()
    run = _RankedRun(article, config)
    fd = article.header.file_desc
    fd_path = "TEI[1]/teiHeader[1]/fileDesc[1]"

    title_text = m.normalize_title(fd.main_title)
    has_pub = bool(fd.availability or fd.publication_date or fd.authority)
    if not title_text:
        run.emit(fd, "R1", "file description has no main title")
    if not has_pub:
        run.emit(
            fd,
            "R1",
            "file description has no publication details (availability, date, or authority)",
        )
    if fd.source is None:
        run.emit(
            fd,
            "R2",
            "file description carries no source bibliographic record",
            path=f"{fd_path}/sourceDesc[1]",
        )
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
                "document title differs from the source record's article title",
                path=f"{fd_path}/titleStmt[1]/title[1]",
            )

    if source is not None:
        if source.analytic is None:
            run.emit(source, "R4", "source record has no article-level part")
        else:
            if not source.analytic.authors:
                run.emit(source, "R4", "source record lists no authors")
            mains = [t for t in source.analytic.titles if t.type == "main"]
            if len(mains) != 1:
                run.emit(
                    source,
                    "R4",
                    f"source article part has {len(mains)} main titles, expected exactly one",
                )
        monogr_mains = [t for t in source.monogr.titles if t.type == "main"]
        if len(monogr_mains) != 1:
            run.emit(
                source,
                "R4",
                f"source container part has {len(monogr_mains)} main titles, "
                "expected exactly one",
            )

    all_structs: list = []
    for path, node in run.nodes:
        if isinstance(node, m.BiblStruct):
            all_structs.append(node)
        elif isinstance(node, m.Scope):
            if node.kind not in m.SCOPE_KINDS:
                run.emit(
                    node,
                    "R5",
                    f"extent kind '{node.kind}' outside {{{', '.join(m.SCOPE_KINDS)}}}",
                )
        elif isinstance(node, m.Author):
            if not node.surname or not node.forenames:
                run.emit(
                    node, "R6", "author name incomplete (forename(s) and surname expected)"
                )
            if node.corresponding and not node.email:
                run.emit(node, "R6", "corresponding author has no email address")
        elif isinstance(node, m.OrgUnit):
            if node.kind not in config.org_unit_vocabulary:
                run.emit(
                    node,
                    "R7",
                    f"organization unit kind '{node.kind}' outside the configured vocabulary",
                )
        elif isinstance(node, m.Division):
            in_front = path.startswith("TEI[1]/text[1]/front[1]/")
            if node.kind == "abstract" and not in_front:
                run.emit(node, "R8", "abstract division outside the front matter")
        elif isinstance(node, m.BiblRef):
            _check_pointer_oracle(run, node, node.target)
        elif isinstance(node, m.CitBlock):
            if isinstance(node.source, str):
                _check_pointer_oracle(run, node, node.source)

    for struct in all_structs:
        fpage = _as_int(struct.scope("fpage"))
        lpage = _as_int(struct.scope("lpage"))
        if fpage is not None and lpage is not None and fpage > lpage:
            run.emit(struct, "R5", f"first page {fpage} exceeds last page {lpage}")

    if not article.body:
        run.emit((run.text_boundary - 0.25, "TEI[1]/text[1]/body[1]"), "R8", "body is empty")

    changes = article.header.revision_desc.changes
    for previous, current in zip(changes, changes[1:]):
        if current.when.sort_key() < previous.when.sort_key():
            run.emit(
                current,
                "R10",
                f"change dated {current.when.iso()} listed after {previous.when.iso()}",
            )

    if not article.header.profile_desc.keywords:
        run.emit(
            (run.text_boundary - 0.5, "TEI[1]/teiHeader[1]/profileDesc[1]"),
            "R11",
            "no keywords recorded",
        )

    listbibl = article.reference_list
    if listbibl is not None:
        seen: dict = {}
        for entry in listbibl.entries:
            if entry.xml_id is not None:
                if entry.xml_id in seen:
                    run.emit(entry, "R12", f"duplicate reference id '{entry.xml_id}'")
                else:
                    seen[entry.xml_id] = entry
            if entry.main_title() is None or not m.normalize_title(entry.main_title().text):
                run.emit(entry, "R12", "reference entry has no main title")

    return run.findings()


def _check_pointer_oracle(run: _RankedRun, node, target: str) -> None:
    try:
        resolved = m.resolve_ref(run.article, target)
    except ValueError:
        run.emit(node, "R9", f"malformed reference target {target!r} (expected '#id')")
        return
    if resolved is None:
        run.emit(node, "R9", f"reference target {target!r} matches no reference-list entry")


def _entry(ref_id: str, title: str, fpage: str, lpage: str) -> str:
    return (
        f'<biblStruct type="journalArticle" xml:id="{ref_id}"><analytic>'
        f'<title level="a" type="main">{title}</title><author><persName>'
        "<forename>Ann</forename><surname>Lee</surname></persName></author></analytic>"
        '<monogr><title level="j" type="main">Host</title><imprint><date when="2001"/>'
        f'<biblScope type="fpage">{fpage}</biblScope><biblScope type="lpage">{lpage}'
        "</biblScope></imprint></monogr></biblStruct>"
    )


#: One document that carries a finding of most rules and the nodes of all
#: of them, for the mutations below to break further.
ORACLE_DOCUMENT = article_bytes(
    title="Trials of Ink",
    keywords=("ink", "trials"),
    changes='<change when="2009-06-01">Revised</change><change when="2009-01-01">Accepted</change>',
    body=(
        '<div type="abstract"><p>Short.</p></div>'
        '<div type="section"><head>One</head><p>See <ref type="bibr" target="#r1">1</ref>'
        ' and <ref type="bibr" target="#r9">9</ref>.</p>'
        '<cit><quote>Q</quote><ref type="bibr" target="#r2"/></cit>'
        '<cit><quote>R</quote><biblStruct type="book"><monogr>'
        '<title level="m" type="main">Inner</title><imprint>'
        '<biblScope type="fpage">9</biblScope><biblScope type="lpage">3</biblScope>'
        "</imprint></monogr></biblStruct></cit></div>"
    ),
    refs=_entry("r1", "First", "1", "9") + _entry("r2", "Second", "12", "4")
    + _entry("r1", "Third", "5", "6"),
    source_imprint='<biblScope type="fpage">5</biblScope><biblScope type="lpage">9</biblScope>',
)

MUTATION_TAGS = (
    "fileDesc", "titleStmt", "title", "publicationStmt", "availability", "date", "authority",
    "sourceDesc", "biblStruct", "analytic", "monogr", "author", "persName", "forename",
    "surname", "imprint", "biblScope", "profileDesc", "keywords", "item", "revisionDesc",
    "change", "text", "body", "div", "p", "ref", "cit", "back", "listBibl",
)
ATTRIBUTES = ("type", "target", "when", f"{{{XML_NS}}}id")
VALUES = (
    "abstract", "section", "#r1", "#r9", "r1", "", "2001", "2010-05-05", "fpage", "lpage",
    "chapter", "main", "sub", "12", "Other", "  ",
)
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("drop", "attr", "text", "front")),
        st.sampled_from(MUTATION_TAGS),
        st.integers(0, 3),
        st.sampled_from(ATTRIBUTES),
        st.sampled_from(VALUES),
    ),
    max_size=5,
)


def mutated(data: bytes, mutations: list) -> bytes:
    """``data`` with each ``(op, tag, occurrence, attribute, value)`` applied:
    drop the element, set its attribute or its text, or add a front matter
    holding an abstract."""
    ET.register_namespace("", TEI_NS)
    root = ET.fromstring(data)
    for op, tag, occurrence, attribute, value in mutations:
        if op == "front":
            text = root.find(f"{{{TEI_NS}}}text")
            if text is not None:
                front = ET.fromstring(
                    f'<front xmlns="{TEI_NS}"><div type="abstract"><p>F</p></div></front>'
                )
                text.insert(0, front)
            continue
        parents = {child: parent for parent in root.iter() for child in parent}
        found = [e for e in root.iter(f"{{{TEI_NS}}}{tag}") if e in parents]
        if not found:
            continue
        element = found[occurrence % len(found)]
        if op == "drop":
            parents[element].remove(element)
        elif op == "attr":
            element.set(attribute, value)
        else:
            element.text = value
    return ET.tostring(root, encoding="utf-8")


CONFIGS = (
    None,
    ValidatorConfig(
        org_unit_vocabulary={"laboratory"},
        severity_overrides={"R4": "warning", "R11": "error"},
    ),
)


class TestAgainstTheRankedOracle:
    def test_the_document_carries_most_rules(self):
        article = parse_article(ORACLE_DOCUMENT, "oracle.xml").outcome
        assert [f.rule_id for f in validate(article)] == [
            "R10", "R8", "R9", "R5", "R5", "R12",
        ]

    @settings(max_examples=150, deadline=None)
    @given(MUTATIONS)
    @example([("drop", "keywords", 0, "type", ""), ("drop", "body", 0, "type", "")])
    @example([("drop", "keywords", 0, "type", ""), ("attr", "div", 0, "type", "section"),
              ("front", "text", 0, "type", "")])
    @example([("drop", "author", 0, "type", ""), ("text", "biblScope", 0, "type", "12")])
    @example([("drop", "analytic", 0, "type", ""), ("text", "biblScope", 1, "type", "")])
    @example([("attr", "change", 2, "when", "2001")])
    def test_matches_the_oracle(self, mutations):
        report = parse_article(mutated(ORACLE_DOCUMENT, mutations), "mutant.xml")
        if report.ok:
            for config in CONFIGS:
                assert validate(report.outcome, config) == validate_oracle(report.outcome, config)
