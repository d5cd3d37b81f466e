"""Profiling, codification, variant handling, and corpus arbitration."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import teijournal
from teijournal.rawxml import _attr_value_spans, parse_raw
from teijournal.schema import (
    CodifyOptions,
    RestrictedSchema,
    RewriteRule,
    arbitrate,
    codify,
    detect_variants,
    load_base_schema,
    normalize_variant,
    parse_rules,
    profile_corpus,
    schema_from_json,
    _splice,
    schema_to_json,
    validate_against,
)

from support import article_bytes, attr_value_spans_by_bytes, write_corpus

DOC_A = b'<doc><sec type="intro"><p>one</p><p>two</p></sec></doc>'
DOC_B = b'<doc><sec type="body"><p>three</p></sec><note/></doc>'
DOC_C = b'<doc><sec type="intro"><p rend="wide">four</p></sec></doc>'


def docs(*blobs):
    return [parse_raw(b) for b in blobs]


class TestProfiling:
    def test_counts_and_coverage(self):
        profile = profile_corpus([parse_raw(DOC_A)])
        assert profile.doc_count == 1
        assert profile.roots == {"doc": 1}
        assert profile.elements["p"].count == 2
        assert profile.elements["p"].text_count == 2
        assert profile.elements["sec"].children == {"p": 2}
        # coverage counts parents that contain the child, not occurrences
        assert profile.elements["sec"].child_coverage == {"p": 1}
        assert profile.elements["sec"].attributes["type"] == {"intro": 1}

    def test_foreign_subtrees_become_boundaries(self):
        data = (
            b'<doc xmlns:x="urn:x"><sec type="s"><p>t</p>'
            b"<x:blob><x:deep/></x:blob></sec></doc>"
        )
        profile = profile_corpus([parse_raw(data)])
        # boundaries are named by namespace, not by prefix
        assert profile.foreign == {"{urn:x}blob": 1}
        assert not any("deep" in name for name in profile.elements)  # not descended
        assert profile.elements["sec"].children == {"p": 1}

    def test_qualified_attributes_keep_their_display_names(self):
        data = b'<doc xmlns:x="urn:x"><p xml:lang="en" x:k="v">t</p></doc>'
        profile = profile_corpus([parse_raw(data)])
        assert sorted(profile.elements["p"].attributes) == ["xml:lang", "{urn:x}k"]
        assert validate_against(codify(profile), parse_raw(data)) == []

    def test_profile_repr_does_not_depend_on_the_hash_seed(self):
        children = b"".join(b"<c%d/>" % i for i in reversed(range(24)))
        script = (
            "import sys\n"
            "from teijournal.rawxml import parse_raw\n"
            "from teijournal.schema import profile_corpus\n"
            "print(repr(profile_corpus([parse_raw(sys.stdin.buffer.read())])))\n"
        )
        reprs = []
        for seed in ("1", "2"):
            env = {
                "PYTHONPATH": str(Path(teijournal.__file__).parents[1]),
                "PYTHONHASHSEED": seed,
            }
            done = subprocess.run(
                [sys.executable, "-c", script],
                input=b"<doc><sec>" + children + b"</sec></doc>",
                env=env, capture_output=True, check=True,
            )
            reprs.append(done.stdout)
        assert reprs[0] == reprs[1]
        assert b"'c23': 1, 'c22': 1" in reprs[0]  # first-seen order

    @settings(max_examples=25, deadline=None)
    @given(st.permutations([DOC_A, DOC_B, DOC_C]))
    def test_corpus_profile_is_order_independent(self, order):
        schema = codify(profile_corpus(docs(*order)))
        baseline = codify(profile_corpus(docs(DOC_A, DOC_B, DOC_C)))
        assert schema == baseline
        assert schema_to_json(schema) == schema_to_json(baseline)


def _hash_seed_reference(ref_id: str, surname: str, title: str, year: str) -> str:
    return (
        f'<biblStruct type="journalArticle" xml:id="{ref_id}"><analytic>'
        f'<title level="a" type="main">{title}</title><author><persName>'
        f"<forename>Al</forename><surname>{surname}</surname></persName></author>"
        '</analytic><monogr><title level="j" type="main">Journal of Ink</title>'
        f'<imprint><date when="{year}"/></imprint></monogr></biblStruct>'
    )


_HASH_SEED_BODY = (
    '<div type="section"><head>One</head><p><persName key="p1">Ada Byron</persName> of '
    '<orgName>The Lab</orgName> in <placeName>Oslo</placeName> ran '
    '<term type="software">Quill</term> on <abbr>TEI</abbr> data, after '
    '<ref type="bibr" target="#r2">Ash</ref> and <ref type="bibr" target="#r1">Orr</ref>; '
    'see <ref type="bibr" target="#r9">9</ref>.</p></div>'
)


def test_tei_command_output_does_not_depend_on_the_hash_seed(tmp_path):
    refs = (
        _hash_seed_reference("r1", "Orr", "Wet Ink", "2001")
        + _hash_seed_reference("r2", "Ash", "Dry Ink", "1999")
        + _hash_seed_reference("r3", "Quill", "Red Ink", "2004")
    )
    files = {
        f"art{n}.xml": article_bytes(
            title=f"Article {n}", date=f"200{n}-03-01", surname=surname,
            keywords=keywords, body=_HASH_SEED_BODY, refs=refs,
            changes='<change when="2010-01-02" type="correction">Correction: a figure</change>',
        )
        for n, surname, keywords in (
            (3, "Dean", ("ink", "paper")), (1, "Lee", ()), (2, "Ash", ("paper", "trials")),
        )
    }
    corpus = tmp_path / "corpus"
    paths = write_corpus(corpus, files)
    commands = [
        ["validate", "--format", "records", *paths],
        ["validate", *paths],
        *(["render", paths[0], "--to", "xhtml", "--style", style]
          for style in ("apa", "chicago", "mla")),
        ["render", paths[0], "--to", "text"],
        ["index", str(corpus), "--format", "records"],
        ["biblio", str(corpus), "--format", "records"],
        ["query", str(corpus), "--cites-surname", "Orr", "--from", "2001"],
    ]
    for argv in commands:
        runs = []
        for seed in ("1", "2"):
            env = {
                "PYTHONPATH": str(Path(teijournal.__file__).parents[1]),
                "PYTHONHASHSEED": seed,
            }
            done = subprocess.run(
                [sys.executable, "-m", "teijournal.cli", *argv], env=env, capture_output=True
            )
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0] == runs[1], argv
        assert runs[0][1], argv


class TestCodify:
    def test_closure_over_the_profiled_corpus(self):
        corpus = docs(DOC_A, DOC_B, DOC_C)
        schema = codify(profile_corpus(corpus))
        for doc in corpus:
            assert validate_against(schema, doc) == []

    def test_root_is_most_common(self):
        schema = codify(profile_corpus(docs(DOC_A, b"<other/>", DOC_B)))
        assert schema.root == "doc"

    def test_closed_enumeration_for_configured_attributes(self):
        schema = codify(profile_corpus(docs(DOC_A, DOC_B, DOC_C)))
        assert schema.elements["sec"].attributes["type"].values == ("body", "intro")
        assert schema.elements["p"].attributes["rend"].values == ("wide",)

    def test_enumeration_cap_opens_the_list(self):
        blobs = [
            b'<doc><sec type="t%d"><p>x</p></sec></doc>' % n for n in range(4)
        ]
        capped = codify(profile_corpus(docs(*blobs)), CodifyOptions(enumeration_cap=3))
        assert capped.elements["sec"].attributes["type"].values is None
        roomy = codify(profile_corpus(docs(*blobs)), CodifyOptions(enumeration_cap=4))
        assert roomy.elements["sec"].attributes["type"].values == (
            "t0",
            "t1",
            "t2",
            "t3",
        )

    def test_unlisted_attributes_stay_open(self):
        data = b'<doc><sec type="s"><p when="2001">x</p></sec></doc>'
        schema = codify(profile_corpus(docs(data)))
        assert schema.elements["p"].attributes["when"].values is None

    def test_attribute_required_when_always_present(self):
        schema = codify(profile_corpus(docs(DOC_A, DOC_B, DOC_C)))
        assert schema.elements["sec"].attributes["type"].required is True
        assert schema.elements["p"].attributes["rend"].required is False

    def test_required_children_at_full_threshold(self):
        schema = codify(profile_corpus(docs(DOC_A, DOC_B, DOC_C)))
        assert schema.elements["sec"].required_children == frozenset({"p"})
        # note is present in only one of three docs
        assert schema.elements["doc"].required_children == frozenset({"sec"})

    def test_text_flag(self):
        schema = codify(profile_corpus(docs(DOC_A)))
        assert schema.elements["p"].text is True
        assert schema.elements["sec"].text is False

    def test_empty_profile_codifies_empty(self):
        assert codify(profile_corpus([])) == RestrictedSchema()

    def test_option_validation(self):
        with pytest.raises(ValueError):
            CodifyOptions(enumeration_cap=0)


class TestSchemaFiles:
    def test_json_round_trip(self):
        schema = codify(profile_corpus(docs(DOC_A, DOC_B, DOC_C)))
        assert schema_from_json(schema_to_json(schema)) == schema

    def test_json_output_is_stable(self):
        schema = codify(profile_corpus(docs(DOC_A, DOC_B, DOC_C)))
        assert schema_to_json(schema) == schema_to_json(
            schema_from_json(schema_to_json(schema))
        )

    def test_base_schema_loads(self):
        base = load_base_schema()
        assert base.root == "TEI"
        assert "biblStruct" in base.elements
        assert "teiHeader" in base.elements["TEI"].children


class TestValidateAgainst:
    SCHEMA = codify(profile_corpus(docs(DOC_A, DOC_B, DOC_C)))

    def codes(self, data, base=None):
        return [
            (f.rule_id, f.severity)
            for f in validate_against(self.SCHEMA, parse_raw(data), base)
        ]

    def test_novel_element(self):
        codes = self.codes(b"<doc><sec type='intro'><p>x</p></sec><aside/></doc>")
        assert ("S-element", "error") in codes
        assert ("S-child", "error") in codes

    def test_novel_attribute(self):
        codes = self.codes(b"<doc><sec type='intro' id='z'><p>x</p></sec></doc>")
        assert codes == [("S-attribute", "error")]

    def test_closed_value_violation(self):
        codes = self.codes(b"<doc><sec type='unseen'><p>x</p></sec></doc>")
        assert codes == [("S-value", "error")]

    def test_text_where_not_allowed(self):
        codes = self.codes(b"<doc><sec type='intro'>loose<p>x</p></sec></doc>")
        assert codes == [("S-text", "error")]
        codes = self.codes(b"<doc><sec type='intro'><p>x</p>loose</sec></doc>")
        assert codes == [("S-text", "error")]

    def test_missing_required_child_and_attribute(self):
        codes = self.codes(b"<doc><sec/></doc>")
        assert ("S-required-attribute", "error") in codes
        assert ("S-required-child", "error") in codes

    def test_root_mismatch(self):
        codes = self.codes(b"<dok/>")
        assert codes[0] == ("S-root", "error")

    def test_base_downgrades_known_constructs(self):
        base_corpus = docs(
            DOC_A,
            DOC_B,
            DOC_C,
            b"<doc><sec type='extra'><p>x</p></sec><aside/></doc>",
        )
        base = codify(profile_corpus(base_corpus))
        assert self.codes(
            b"<doc><sec type='extra'><p>x</p></sec></doc>", base
        ) == [("S-value", "warning")]
        novel = self.codes(
            b"<doc><sec type='intro'><p>x</p></sec><aside/></doc>", base
        )
        assert set(novel) == {("S-element", "warning"), ("S-child", "warning")}

    def test_foreign_element_missing_from_the_schema(self):
        data = b'<doc xmlns:x="urn:x"><sec type="intro"><p>x</p><x:blob/></sec></doc>'
        findings = validate_against(self.SCHEMA, parse_raw(data))
        assert [(f.rule_id, f.severity, f.message) for f in findings] == [
            ("S-element", "error", "foreign element '{urn:x}blob' not in the schema")
        ]
        base = codify(profile_corpus(docs(DOC_A, data)))
        assert self.codes(data, base) == [("S-element", "warning")]

    def test_base_never_downgrades_required_parts(self):
        base = codify(
            profile_corpus(docs(DOC_A, DOC_B, DOC_C, b"<doc><sec/></doc>"))
        )
        codes = self.codes(b"<doc><sec/></doc>", base)
        assert ("S-required-attribute", "error") in codes
        assert ("S-required-child", "error") in codes

    def test_absent_from_base_stays_error(self):
        base = codify(profile_corpus(docs(DOC_A, DOC_B, DOC_C)))
        codes = self.codes(
            b"<doc><sec type='intro' id='z'><p>x</p></sec></doc>", base
        )
        assert codes == [("S-attribute", "error")]


class TestVariants:
    def test_normalize_unit_cases(self):
        assert normalize_variant("Italic") == "italic"
        assert normalize_variant("italics") == "italic"
        assert normalize_variant("sub_section") == "sub-section"
        assert normalize_variant("Sub Sections") == "sub-section"
        assert normalize_variant("s") == "s"

    @settings(max_examples=80, deadline=None)
    @given(st.text(max_size=30))
    def test_normalized_form_is_flat(self, value):
        out = normalize_variant(value)
        assert out == out.casefold()
        assert "_" not in out and " " not in out
        assert "--" not in out

    def test_detects_competing_spellings(self):
        corpus = docs(
            b'<d><hi rend="italic">a</hi><hi rend="italic">b</hi></d>',
            b'<d><hi rend="italics">c</hi></d>',
        )
        clusters = detect_variants(profile_corpus(corpus))
        assert len(clusters) == 1
        cluster = clusters[0]
        assert (cluster.element, cluster.attribute, cluster.key) == (
            "hi",
            "rend",
            "italic",
        )
        assert cluster.members == (("italic", 2), ("italics", 1))
        assert cluster.total == 3

    def test_clusters_sorted_by_weight(self):
        corpus = docs(
            b'<d><hi rend="bold">a</hi><hi rend="Bold">b</hi>'
            b'<hi rend="bold">c</hi><hi rend="Bold">d</hi>'
            b'<sec type="intro">e</sec><sec type="Intro">f</sec></d>'
        )
        clusters = detect_variants(profile_corpus(corpus))
        assert [(c.element, c.key, c.total) for c in clusters] == [
            ("hi", "bold", 4),
            ("sec", "intro", 2),
        ]

    def test_unlisted_attributes_ignored(self):
        corpus = docs(b'<d><p when="2001">a</p><p when="2001 ">b</p></d>')
        assert detect_variants(profile_corpus(corpus)) == []

    def test_singletons_are_not_clusters(self):
        corpus = docs(b'<d><hi rend="italic">a</hi><hi rend="bold">b</hi></d>')
        assert detect_variants(profile_corpus(corpus)) == []


class TestRules:
    def test_parse_rules(self):
        text = (
            "# choose the singular\n"
            "\n"
            "hi rend italics -> italic\n"
            "*  type  Intro -> intro\n"
        )
        rules = parse_rules(text)
        assert rules == [
            RewriteRule("hi", "rend", "italics", "italic"),
            RewriteRule("*", "type", "Intro", "intro"),
        ]

    def test_rule_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_rules("hi rend italics italic")
        with pytest.raises(ValueError, match="line 2"):
            parse_rules("# fine\nhi rend -> italic")
        with pytest.raises(ValueError, match="itself"):
            parse_rules("hi rend italic -> italic")

    def test_attribute_that_opens_a_brace_without_closing_it_is_refused(self):
        # a namespace URI holding whitespace would split the field there
        with pytest.raises(ValueError, match=r"^line 2: attribute \{urn:a opens '\{' without"
                                             " closing it$"):
            parse_rules("hi rend italics -> italic\n* {urn:a b}k italics -> Italic\n")
        with pytest.raises(ValueError, match="line 1: attribute { opens"):
            parse_rules("a { v -> w")
        assert parse_rules("* {urn:a}k italics -> Italic") == [
            RewriteRule("*", "{urn:a}k", "italics", "Italic")
        ]

    def test_element_that_opens_a_brace_without_closing_it_is_refused(self):
        # an element in a namespace holding whitespace cannot be named either
        with pytest.raises(ValueError, match=r"^line 2: element \{urn:a opens '\{' without"
                                             " closing it$"):
            parse_rules("hi rend italics -> italic\n{urn:a b}x k v -> w\n")
        with pytest.raises(ValueError, match="line 1: element { opens"):
            parse_rules("{ a v -> w")
        assert parse_rules("{urn:a}x {urn:a}k v -> w") == [
            RewriteRule("{urn:a}x", "{urn:a}k", "v", "w")
        ]

    def test_target_may_contain_spaces(self):
        (rule,) = parse_rules("sec type two words -> even more words")
        assert rule.from_value == "two words"
        assert rule.to_value == "even more words"


    @pytest.mark.parametrize("mark", ["\x85", "\u2028", "\u2029"])
    def test_unicode_line_breaks_stay_in_the_target(self, mark):
        (rule,) = parse_rules(f"a k v -> w{mark}x\r\n")
        assert rule.to_value == f"w{mark}x"

    def test_only_xml_whitespace_is_stripped(self):
        (rule,) = parse_rules("a k v -> \u00a0w\u00a0\t")
        assert rule.to_value == "\u00a0w\u00a0"

    def test_forbidden_character_at_the_end_is_refused_not_stripped(self):
        with pytest.raises(ValueError, match="U\\+001F, which XML does not allow"):
            parse_rules("a k v -> \x1fw")


class TestArbitrate:
    CORPUS = (
        b'<?xml version="1.0"?>\n<!-- keep me -->\n'
        b'<d><hi rend="italics">a</hi>\n<hi rend="italic">b</hi></d>\n',
        b'<d><hi rend="bold">c</hi></d>',
    )

    def test_rewrites_and_counts(self):
        rules = parse_rules("hi rend italics -> italic")
        out, changes = arbitrate(docs(*self.CORPUS), rules)
        assert changes == 1
        assert parse_raw(out[0]).root[0].get("rend") == "italic"
        assert b'rend="italics"' not in out[0]

    def test_untouched_bytes_preserved(self):
        rules = parse_rules("hi rend italics -> italic")
        originals = docs(*self.CORPUS)
        out, _ = arbitrate(originals, rules)
        expected = self.CORPUS[0].replace(b'"italics"', b'"italic"')
        assert out[0] == expected
        assert out[1] is originals[1].data  # same object, no copy

    def test_convergence(self):
        rules = parse_rules("hi rend italics -> italic")
        once, changes_once = arbitrate(docs(*self.CORPUS), rules)
        twice, changes_twice = arbitrate(docs(*once), rules)
        assert changes_once == 1
        assert changes_twice == 0
        assert twice == once

    def test_entities_in_attribute_values(self):
        data = b'<d><hi rend="a &amp; b">x</hi></d>'
        rules = [RewriteRule("hi", "rend", "a & b", "c & d")]
        out, changes = arbitrate(docs(data), rules)
        assert changes == 1
        assert parse_raw(out[0]).root[0].get("rend") == "c & d"
        assert b"&amp;" in out[0]

    def test_specific_rule_beats_wildcard(self):
        data = b'<d><sec type="a">x</sec><p type="a">y</p></d>'
        rules = [
            RewriteRule("*", "type", "a", "b"),
            RewriteRule("sec", "type", "a", "c"),
        ]
        out, changes = arbitrate(docs(data), rules)
        assert changes == 2
        sec, p = parse_raw(out[0]).root
        assert sec.get("type") == "c"
        assert p.get("type") == "b"

    def test_conflicting_rules_abort_before_rewriting(self):
        rules = [
            RewriteRule("hi", "rend", "italics", "italic"),
            RewriteRule("hi", "rend", "italics", "i"),
        ]
        originals = docs(*self.CORPUS)
        with pytest.raises(ValueError, match="conflicting"):
            arbitrate(originals, rules)
        assert [d.data for d in originals] == list(self.CORPUS)

    def test_duplicate_rules_are_not_a_conflict(self):
        rules = parse_rules("hi rend italics -> italic\nhi rend italics -> italic")
        _, changes = arbitrate(docs(*self.CORPUS), rules)
        assert changes == 1

    @pytest.mark.parametrize("target", ["w\x01x", "w\ufffe", "w\ud800", "a\x1fb"])
    def test_targets_xml_forbids_are_rejected(self, target):
        with pytest.raises(ValueError, match="which XML does not allow"):
            parse_rules(f"a k v -> {target}")
        with pytest.raises(ValueError, match="which XML does not allow"):
            RewriteRule("a", "k", "v", target)

    def test_namespace_declarations_are_not_rewritten(self):
        data = b'<d><a xmlns:k="v" k="v"/></d>'
        rules = parse_rules("a k v -> http://www.w3.org/XML/1998/namespace")
        out, changes = arbitrate(docs(data), rules)
        assert changes == 1
        assert out[0] == data.replace(
            b' k="v"', b' k="http://www.w3.org/XML/1998/namespace"'
        )


    def test_prefixed_attribute_is_matched_by_its_namespace(self):
        data = b'<d xmlns:x="urn:x"><a k="v" x:k="v"/></d>'
        out, changes = arbitrate(docs(data), parse_rules("a k v -> w"))
        assert changes == 1
        assert out[0] == data.replace(b' k="v"', b' k="w"')
        out, changes = arbitrate(docs(data), parse_rules("a {urn:x}k v -> w"))
        assert changes == 1
        assert out[0] == data.replace(b'x:k="v"', b'x:k="w"')

    def test_xml_lang_is_matched(self):
        data = b'<d><p xml:lang="en">t</p></d>'
        out, changes = arbitrate(docs(data), parse_rules("p xml:lang en -> fr"))
        assert changes == 1
        assert out[0] == b'<d><p xml:lang="fr">t</p></d>'

    def test_tei_prefixed_attribute_does_not_shift_the_match(self):
        # t:k and k both become the key "k", so the tree holds one attribute
        # fewer than the start tag
        data = b'<d xmlns:t="http://www.tei-c.org/ns/1.0"><a t:k="y" k="y" z="y"/></d>'
        out, changes = arbitrate(docs(data), parse_rules("a z y -> q"))
        assert changes == 1
        assert out[0] == data.replace(b'z="y"', b'z="q"')
        # the later of the two is the value the tree holds for "k"
        data = b'<d xmlns:t="http://www.tei-c.org/ns/1.0"><a t:k="y" k="z"/></d>'
        out, changes = arbitrate(docs(data), parse_rules("a k z -> q"))
        assert changes == 1
        assert out[0] == data.replace(b'k="z"', b'k="q"')
        assert arbitrate(docs(data), parse_rules("a k y -> q"))[1] == 0

    def test_literal_whitespace_in_a_value_matches_as_a_space(self):
        # XML reads a literal TAB, LF, CR or CR LF in a value as one space;
        # a character reference keeps its character
        data = b'<d><a k="x\ty"/><a k="x y"/><a k="x\r\ny"/><a k="x&#9;y"/></d>'
        rules = parse_rules("a k x y -> z")
        once, changes = arbitrate(docs(data), rules)
        assert changes == 3
        assert once[0] == b'<d><a k="z"/><a k="z"/><a k="z"/><a k="x&#9;y"/></d>'
        assert arbitrate(docs(*once), rules) == (once, 0)
        _, changes = arbitrate(docs(data), [RewriteRule("a", "k", "x\ty", "z")])
        assert changes == 1

    def test_value_normalized_by_a_declared_type_matches(self):
        # a DTD-declared NMTOKENS value is read with its spaces collapsed,
        # so the profile that variants and codify read holds "x y" twice
        data = (
            b"<!DOCTYPE d [<!ATTLIST a k NMTOKENS #IMPLIED>]>"
            b'<d><a k="  x   y "/><a k="x y"/></d>'
        )
        assert profile_corpus(docs(data)).elements["a"].attributes["k"] == {"x y": 2}
        rules = parse_rules("a k x y -> z")
        once, changes = arbitrate(docs(data), rules)
        assert changes == 2
        assert once[0].endswith(b'<d><a k="z"/><a k="z"/></d>')
        assert arbitrate(docs(*once), rules) == (once, 0)

def splice_by_copies(data: bytes, edits: list) -> bytes:
    """Oracle: the splice arbitrate made before, one whole copy per edit."""
    for start, end, replacement in sorted(edits, reverse=True):
        data = data[:start] + replacement + data[end:]
    return data


@st.composite
def data_and_edits(draw) -> tuple:
    data = draw(st.binary(max_size=60))
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=12)))
    # consecutive cut pairs are disjoint spans, possibly empty
    spans = list(zip(cuts[::2], cuts[1::2]))
    edits = [(start, end, draw(st.binary(max_size=8))) for start, end in spans]
    return data, draw(st.permutations(edits))


class TestSplice:
    @settings(max_examples=200, deadline=None)
    @given(data_and_edits())
    def test_matches_one_copy_per_edit(self, case):
        data, edits = case
        assert _splice(data, edits) == splice_by_copies(data, edits)


_SPACE = st.text(" \t\n\r", max_size=3)
_NAME = st.from_regex(r"[A-Za-z_\u00e9][A-Za-z0-9_.\-\u00e9]{0,4}", fullmatch=True)
_QNAME = st.one_of(_NAME, st.tuples(_NAME, _NAME).map(":".join))
_ATTRIBUTE_NAME = st.one_of(_QNAME, st.just("xmlns"), _NAME.map("xmlns:".__add__))
_VALUE = st.lists(
    st.sampled_from([">", "/>", '="q"', "'", '"', "=", "a", " ", "\t", "\u00e9", "&amp;"]),
    max_size=5,
).map("".join)
_AFTER_TAG = st.one_of(
    st.sampled_from(['="x"', " b='y'", ' ="x"', '/>="x"', ">", '<f a="1"/>']),
    st.text(max_size=8),
)


@st.composite
def start_tags(draw) -> tuple:
    """(data, offset of a start tag in it), with character data after the tag."""
    lead = draw(st.sampled_from(["", "<r>", "x "]))
    parts = [lead, "<", draw(_QNAME)]
    for _ in range(draw(st.integers(0, 4))):
        quote = draw(st.sampled_from("\"'"))
        value = draw(_VALUE).replace(quote, "")
        parts += [draw(_SPACE.filter(bool)), draw(_ATTRIBUTE_NAME), draw(_SPACE), "=",
                  draw(_SPACE), quote, value, quote]
    parts += [draw(_SPACE), draw(st.sampled_from([">", "/>"])), draw(_AFTER_TAG)]
    return "".join(parts).encode("utf-8"), len(lead)


class TestAttributeValueSpans:
    @settings(max_examples=400, deadline=None)
    @given(start_tags())
    @example((b'<e a="1" />="x"', 0))
    @example((b'<e a="1" >="x"', 0))
    @example((b"<e a='1'> b='y'", 0))
    def test_matches_the_byte_scanner(self, case):
        data, start = case
        assert _attr_value_spans(data, start) == attr_value_spans_by_bytes(data, start)
