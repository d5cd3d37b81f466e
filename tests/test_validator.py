"""Rule checks: a clean baseline, then one targeted defect per rule."""

import dataclasses

import pytest

from teijournal import model as m
from teijournal.validator import RULES, Finding, ValidatorConfig, explain, validate
from teijournal.xmlio import parse_article

from support import (
    SKELETON,
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
